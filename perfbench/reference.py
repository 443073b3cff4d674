"""Independent reference computations for the benchmark's checks.

Nothing here imports carpetdim.  Every value is recomputed from a carpet
config (exact rationals) by another route than the package takes:

* Moran, box and window roots with scipy's ``brentq``;
* the Gatzouras-Lalley Hausdorff dimension by a BFGS maximisation of the
  Ledrappier-Young value from several starts;
* McMullen dimensions from their closed forms;
* the exceptional family from the one-parameter oracle in
  ``tests/oracles/dims_oracle.py``;
* grid and ball counts by a level-synchronous numpy refinement that repeats
  the package's floating-point steps, so counts must agree exactly;
* coded points in closed form (fixed point of the composed period map).
"""

from __future__ import annotations

import importlib.util
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
from scipy.optimize import brentq, minimize

_XTOL = 1e-15


# ----------------------------------------------------------------- systems

def maps_of(config):
    """[(r1, r2, d1, d2)] as Fractions."""
    return [tuple(Fraction(*e[key]) for key in ("r1", "r2", "d1", "d2"))
            for e in config["maps"]]


def classes(maps, axis):
    """Projection classes on an axis: {(ratio, offset): [map indices]},
    grouped by exact equality."""
    out = {}
    for i, m in enumerate(maps):
        key = (m[0], m[2]) if axis == 1 else (m[1], m[3])
        out.setdefault(key, []).append(i)
    return out


def aligned(maps, axis):
    """Distinct classes have disjoint open intervals (exact)."""
    spans = sorted((o, o + r) for r, o in classes(maps, axis))
    return all(a[1] <= b[0] for a, b in zip(spans, spans[1:]))


# ------------------------------------------------------------------- roots

def moran_root(ratios):
    """s with sum r^s = 1 (0 for a single ratio)."""
    rs = [float(r) for r in ratios]
    if len(rs) == 1:
        return 0.0
    hi = math.log(len(rs)) / -math.log(max(rs)) + 1.0
    return brentq(lambda s: math.fsum(r ** s for r in rs) - 1.0, 0.0, hi,
                  xtol=_XTOL)


def window_root(multisets):
    """theta with prod_k sum_{r in window[k]} r^theta = 1."""
    sets = [[float(r) for r in w] for w in multisets]
    if all(len(w) == 1 for w in sets):
        return 0.0
    hi = (math.fsum(math.log(len(w)) for w in sets)
          / math.fsum(-math.log(max(w)) for w in sets) + 1.0)
    return brentq(lambda t: math.fsum(math.log(math.fsum(r ** t for r in w))
                                      for w in sets), 0.0, hi, xtol=_XTOL)


def box_root(maps, s_eta):
    """dimB of a GL carpet: sum r1^s_eta r2^(s - s_eta) = 1."""
    a = [(float(m[0]) ** s_eta, float(m[1])) for m in maps]
    hi = s_eta + math.log(sum(x for x, _ in a)) / -math.log(
        max(r for _, r in a)) + 1.0
    return brentq(lambda s: math.fsum(x * r ** (s - s_eta) for x, r in a)
                  - 1.0, s_eta, hi, xtol=_XTOL)


def slice_exponents(maps, axis):
    other = 1 if axis == 1 else 0
    return [moran_root([maps[i][other] for i in members])
            for members in classes(maps, axis).values()]


# ------------------------------------------------- Ledrappier-Young maximum

def ly_max(maps, starts=4, seed=0):
    """sup over probability vectors w of
    H(eta1 w)/chi1(w) + (H(w) - H(eta1 w))/chi2(w), by BFGS on softmax
    coordinates from the uniform vector and seeded random starts."""
    n = len(maps)
    log_r1 = np.array([math.log(m[0]) for m in maps])
    log_r2 = np.array([math.log(m[1]) for m in maps])
    groups = list(classes(maps, 1).values())
    member = np.zeros((len(groups), n))
    for c, idx in enumerate(groups):
        member[c, idx] = 1.0

    def negative(u):
        e = np.exp(u - u.max())
        w = e / e.sum()
        q = member @ w
        log_w = np.log(np.maximum(w, 1e-300))
        log_q = np.log(np.maximum(q, 1e-300))
        h_w = -float(np.sum(w * log_w))
        h_q = -float(np.sum(q * log_q))
        chi1 = -float(w @ log_r1)
        chi2 = -float(w @ log_r2)
        value = h_q / chi1 + (h_w - h_q) / chi2
        g_w = (-(1.0 + log_q) @ member * chi1 + h_q * log_r1) / chi1 ** 2
        g_w += ((-(1.0 + log_w) + (1.0 + log_q) @ member) * chi2
                + (h_w - h_q) * log_r2) / chi2 ** 2
        return -value, -(w * (g_w - g_w @ w))

    rng = np.random.default_rng(seed)
    best = -math.inf
    for k in range(starts):
        u0 = np.zeros(n) if k == 0 else rng.normal(0.0, 1.0, n)
        res = minimize(negative, u0, jac=True, method="BFGS",
                       options={"gtol": 1e-12, "maxiter": 2000})
        best = max(best, -float(res.fun))
    return best


# ------------------------------------------------------- dimension records

def gl_reference(config, hausdorff=True):
    """Closed-form and root-found dimensions of a GL carpet, plus (unless
    ``hausdorff`` is false) the independent Hausdorff maximum."""
    maps = maps_of(config)
    s_eta = moran_root([r for r, _ in classes(maps, 1)])
    t = slice_exponents(maps, 1)
    return {"dim_proj_box_1": s_eta,
            "dim_proj_box_2": (moran_root([r for r, _ in classes(maps, 2)])
                               if aligned(maps, 2) else None),
            "dimB": box_root(maps, s_eta),
            "dimA": s_eta + max(t),
            "dimL": s_eta + min(t),
            "dimH": ly_max(maps) if hausdorff else None}


def mcmullen_reference(n, m, cells):
    """McMullen's closed forms on an n x m grid (m > n)."""
    counts = {}
    for i, _ in cells:
        counts[i] = counts.get(i, 0) + 1
    cols, total = len(counts), len(cells)
    theta = math.log(n) / math.log(m)
    return {"dimH": math.log(sum(c ** theta for c in counts.values()))
            / math.log(n),
            "dimB": math.log(cols) / math.log(n)
            + math.log(total / cols) / math.log(m),
            "dimA": math.log(cols) / math.log(n)
            + math.log(max(counts.values())) / math.log(m),
            "dimL": math.log(cols) / math.log(n)
            + math.log(min(counts.values())) / math.log(m)}


def load_oracle(root: Path):
    """The standalone oracle module from the repository's tests."""
    path = root / "tests" / "oracles" / "dims_oracle.py"
    spec = importlib.util.spec_from_file_location("dims_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def exceptional_reference(oracle, config, delta):
    """Directional values of build_exceptional(delta): d1, d2 and the
    reduction suprema from the oracle's one-parameter curves; slice
    exponents and projected roots from the config by brentq."""
    a1, a2, b = oracle.family(float(delta))
    p0 = (math.log(a1) - math.log(b)) / (math.log(a1) - math.log(a2))

    def best(f, lo, hi):
        return oracle.maximize(lambda p: f(p, a1, a2, b), lo, hi)[1]

    maps = maps_of(config)
    out = {"d1": best(oracle.s1, 0.0, p0), "d2": best(oracle.s2, p0, 1.0)}
    for j in (1, 2):
        proj = moran_root([r for r, _ in classes(maps, j)])
        t_j = max(slice_exponents(maps, j))
        out.update({"dimB_eta%d" % j: proj, "t%d" % j: t_j,
                    "A%d" % j: proj + t_j})
    out["dimH"] = max(out["d1"], out["d2"])
    out["dimA"] = max(out["A1"], out["A2"])
    out["reduction"] = {
        "p0": p0,
        "sup_D1": best(oracle.d1_reduction, 0.0, 1.0),
        "sup_D2": best(oracle.d2_reduction, 0.0, 1.0),
        "dimH": max(best(oracle.d1_reduction, 0.0, p0),
                    best(oracle.d2_reduction, p0, 1.0))}
    return out


# ---------------------------------------------------------------- pointwise

def omega(maps, period):
    """(class, chi1/chi2) of a word from its period letter frequencies."""
    chi1 = math.fsum(-math.log(maps[i][0]) for i in period)
    chi2 = math.fsum(-math.log(maps[i][1]) for i in period)
    ratio = chi1 / chi2
    if abs(ratio - 1.0) <= 1e-12:
        return "Omega0", ratio
    return ("Omega1" if ratio < 1.0 else "Omega2"), ratio


def slice_root(maps, period, axis):
    """Fibre exponent along a word: the window root over one period of the
    multisets of orthogonal ratios in each letter's axis class."""
    other = 1 if axis == 1 else 0
    lookup = {}
    for members in classes(maps, axis).values():
        for i in members:
            lookup[i] = [maps[k][other] for k in members]
    return window_root([lookup[i] for i in period])


def coded_point(maps, pre, period):
    """pi(pre . period^inf) exactly: the fixed point of the composed period
    map, pushed through the preperiod maps."""
    point = []
    for r, d in ((0, 2), (1, 3)):
        scale, shift = Fraction(1), Fraction(0)
        for i in period:
            shift += scale * maps[i][d]
            scale *= maps[i][r]
        x = shift / (1 - scale)
        for i in reversed(pre):
            x = maps[i][d] + maps[i][r] * x
        point.append(float(x))
    return tuple(point)


# ----------------------------------------------------------------- counting

def _float_maps(maps):
    return np.array([[float(v) for v in m] for m in maps])


def grid_count(maps, s):
    """Side-s grid cells touched by the cylinder cover at scale s: the
    package's depth-first count, refined level by level in numpy."""
    fm = _float_maps(maps)
    inv = 1.0 / s
    top = int(math.ceil(inv)) - 1
    x0 = y0 = np.zeros(1)
    w = h = np.ones(1)
    cells = []
    while x0.size:
        leaf = (w <= s) & (h <= s)
        lx, ly, lw, lh = x0[leaf], y0[leaf], w[leaf], h[leaf]
        ax = np.minimum((lx * inv).astype(np.int64), top)
        bx = np.minimum(((lx + lw) * inv).astype(np.int64), top)
        ay = np.minimum((ly * inv).astype(np.int64), top)
        by = np.minimum(((ly + lh) * inv).astype(np.int64), top)
        for dx in range(int((bx - ax).max(initial=0)) + 1):
            for dy in range(int((by - ay).max(initial=0)) + 1):
                keep = (ax + dx <= bx) & (ay + dy <= by)
                cells.append((ax[keep] + dx) * (top + 1) + ay[keep] + dy)
        x0, y0, w, h = x0[~leaf], y0[~leaf], w[~leaf], h[~leaf]
        x0 = np.concatenate([x0 + w * m[2] for m in fm])
        y0 = np.concatenate([y0 + h * m[3] for m in fm])
        w, h = (np.concatenate([w * m[0] for m in fm]),
                np.concatenate([h * m[1] for m in fm]))
    return int(np.unique(np.concatenate(cells)).size) if cells else 0


def box_estimate(maps, k_lo=4, k_hi=9):
    """(slope, (low, high)) of log grid counts over 2^-k, k_lo..k_hi."""
    ks = list(range(k_lo, k_hi + 1))
    logs = [k * math.log(2.0) for k in ks]
    ys = [math.log(grid_count(maps, 2.0 ** -k)) for k in ks]
    pair = [(ys[t + 1] - ys[t]) / (logs[t + 1] - logs[t])
            for t in range(len(ks) - 1)]
    return float(np.polyfit(logs, ys, 1)[0]), (min(pair), max(pair))


def _gap(cx, cy, x0, y0, w, h):
    dx = np.maximum(np.maximum(x0 - cx, 0.0), cx - (x0 + w))
    dy = np.maximum(np.maximum(y0 - cy, 0.0), cy - (y0 + h))
    return dx * dx + dy * dy


def ball_count(maps, centre, R, r):
    """Scale-r approximate squares meeting the closed ball B(centre, R):
    cylinders down to height r, then column extensions until the width
    first drops to the height, pruning by distance at every step."""
    fm = _float_maps(maps)
    cols = [(float(c_r), float(c_o)) for c_r, c_o in classes(maps, 1)]
    cx, cy = centre
    rr = R * R * (1.0 + 1e-12)
    x0 = y0 = np.zeros(1)
    w = h = np.ones(1)
    count = 0
    while x0.size:
        near = _gap(cx, cy, x0, y0, w, h) <= rr
        x0, y0, w, h = x0[near], y0[near], w[near], h[near]
        base = h <= r
        ex, ey, ew, eh = x0[base], y0[base], w[base], h[base]
        while ex.size:
            near = _gap(cx, cy, ex, ey, ew, eh) <= rr
            ex, ey, ew, eh = ex[near], ey[near], ew[near], eh[near]
            done = ew <= eh * (1.0 + 1e-12)
            count += int(done.sum())
            ex, ey, ew, eh = ex[~done], ey[~done], ew[~done], eh[~done]
            ex = np.concatenate([ex + ew * off for _, off in cols])
            ew = np.concatenate([ew * rho for rho, _ in cols])
            ey = np.tile(ey, len(cols))
            eh = np.tile(eh, len(cols))
        x0, y0, w, h = x0[~base], y0[~base], w[~base], h[~base]
        x0 = np.concatenate([x0 + w * m[2] for m in fm])
        y0 = np.concatenate([y0 + h * m[3] for m in fm])
        w, h = (np.concatenate([w * m[0] for m in fm]),
                np.concatenate([h * m[1] for m in fm]))
    return count
