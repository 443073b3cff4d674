"""Symbolic covers, empirical box counts, and point-cloud geometry.

Cylinder rectangles, approximate squares (cylinders extended along the wider
axis until the sides balance), pseudo-cylinder square counts, ball-localized
box counting, a packing-sum falsification harness, Hausdorff distances
between finite clouds, tangent-set approximations, and two one-dimensional
fixtures.  All counting is symbolic over words; nothing is rasterized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy.spatial import cKDTree

from .errors import (EmptyInput, InvalidPacking, RangeError, Unsupported,
                     WrongClass, WrongShape)
from .systems import (BARANSKI, GATZOURAS_LALLEY, EventuallyPeriodicWord,
                      column_word)

_EPS = 1e-12


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle, the geometric image of a cylinder word."""

    x0: float
    y0: float
    width: float
    height: float

    def __post_init__(self):
        object.__setattr__(self, "x0", float(self.x0))
        object.__setattr__(self, "y0", float(self.y0))
        object.__setattr__(self, "width", float(self.width))
        object.__setattr__(self, "height", float(self.height))
        if self.width <= 0.0 or self.height <= 0.0:
            raise RangeError("rectangle sides must be positive")

    @property
    def x1(self):
        return self.x0 + self.width

    @property
    def y1(self):
        return self.y0 + self.height

    @property
    def center(self):
        return (self.x0 + 0.5 * self.width, self.y0 + 0.5 * self.height)


@dataclass(frozen=True)
class ApproxSquare:
    """A cylinder extended along its longer axis until the sides balance.

    ``base`` is the word of map indices, ``extension`` the projected class
    ids appended on ``axis`` (1 when the cylinder is wider than tall), and
    ``width``/``height`` the resulting side lengths of ``rect``.
    """

    base: tuple
    extension: tuple
    rect: Rect
    width: float
    height: float
    axis: int


@dataclass(frozen=True)
class PointCloud:
    """Finite stand-in for a compact set: every point of the represented set
    lies within ``resolution`` of some cloud point."""

    points: tuple
    resolution: float

    def __post_init__(self):
        pts = tuple(tuple(float(c) for c in p) for p in self.points)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "resolution", float(self.resolution))
        if not pts:
            raise EmptyInput("point cloud needs at least one point")
        if self.resolution <= 0.0:
            raise RangeError("resolution must be positive")

    def array(self):
        return np.asarray(self.points, dtype=float)

    def __len__(self):
        return len(self.points)


# ------------------------------------------------------------ word geometry

def _float_maps(system):
    return [(float(m.r1), float(m.r2), float(m.d1), float(m.d2))
            for m in system.maps]


def _cylinder_rect(system, word) -> Rect:
    x0 = y0 = 0.0
    w = h = 1.0
    for i in word:
        m = system.maps[i]
        x0 += w * float(m.d1)
        y0 += h * float(m.d2)
        w *= float(m.r1)
        h *= float(m.r2)
    return Rect(x0, y0, w, h)


def _point_at(system, gamma: EventuallyPeriodicWord):
    """pi(gamma): the attractor point coded by the word.

    The composed period map x -> R x + D has the fixed point D / (1 - R);
    the preperiod maps carry it to the coded point.  Exact systems compose
    in Fraction arithmetic and round to float once at the end.
    """
    gamma.check_alphabet(system)
    one = Fraction(1) if system.exact else 1.0

    def compose(word):
        x = y = 0 * one
        w = h = one
        for i in word:
            m = system.maps[i]
            x += w * m.d1
            y += h * m.d2
            w *= m.r1
            h *= m.r2
        return x, y, w, h

    px, py, pw, ph = compose(gamma.period)
    x, y, w, h = compose(gamma.preperiod)
    return (float(x + w * px / (one - pw)),
            float(y + h * py / (one - ph)))


def cylinders_to_scale(system, r, axis):
    """The section of cylinder words where the axis valuation first drops
    to r: every word has product <= r while its parent is still above.

    ``axis`` 1 or 2 values a word by its projected ratio product on that
    axis; 0 values it by the longer rectangle side, so both sides of every
    returned rectangle are <= r.  Returns (word, Rect) pairs.
    """
    if not 0.0 < r < 1.0:
        raise RangeError("scale %r outside (0, 1)" % (r,))
    if axis not in (0, 1, 2):
        raise RangeError("axis must be 0, 1 or 2")
    maps = _float_maps(system)

    def value(w, h):
        return w if axis == 1 else h if axis == 2 else max(w, h)

    out = []
    stack = [((), 0.0, 0.0, 1.0, 1.0)]
    while stack:
        word, x0, y0, w, h = stack.pop()
        for i, (r1, r2, d1, d2) in enumerate(maps):
            cw, ch = w * r1, h * r2
            child = (word + (i,), x0 + w * d1, y0 + h * d2, cw, ch)
            if value(cw, ch) <= r:
                out.append((child[0], Rect(child[1], child[2], cw, ch)))
            else:
                stack.append(child)
    out.sort(key=lambda pair: pair[0])
    return out


def approximate_square(system, gamma: EventuallyPeriodicWord,
                       k: int) -> ApproxSquare:
    """The depth-k approximate square around the point coded by gamma.

    The length-k cylinder is extended along its longer axis by projected
    letters of gamma for as long as the extended side stays at least the
    other side, which leaves a rectangle of aspect ratio between 1 and the
    reciprocal of the smallest ratio on the extended axis.
    """
    gamma.check_alphabet(system)
    if k < 1:
        raise RangeError("k must be >= 1")
    base = gamma.prefix(k)
    w = math.prod(float(system.maps[i].r1) for i in base)
    h = math.prod(float(system.maps[i].r2) for i in base)
    axis = 1 if w >= h * (1.0 - _EPS) else 2
    limit = h if axis == 1 else w
    grow = w if axis == 1 else h
    letters = []
    pos = k
    while True:
        nxt = gamma.letter(pos)
        ratio = float(system.maps[nxt].ratio(axis))
        if grow * ratio < limit * (1.0 - _EPS):
            break
        grow *= ratio
        letters.append(nxt)
        pos += 1
    extension = column_word(system, letters, axis=axis)
    rect = _cylinder_rect(system, base)
    x0, y0 = rect.x0, rect.y0
    if axis == 1:
        width = rect.width
        for cid in extension:
            c = system.columns[cid]
            x0 += width * float(c.offset)
            width *= float(c.ratio)
        rect = Rect(x0, y0, width, rect.height)
    else:
        height = rect.height
        for cid in extension:
            c = system.rows[cid]
            y0 += height * float(c.offset)
            height *= float(c.ratio)
        rect = Rect(x0, y0, rect.width, height)
    return ApproxSquare(base=base, extension=extension, rect=rect,
                        width=rect.width, height=rect.height, axis=axis)


# ------------------------------------------------------ pseudo-cylinders

def _threshold_leaves(start, limit, ratios):
    """Number of extension branches whose product first drops <= limit."""
    count = 0
    stack = [start]
    while stack:
        value = stack.pop()
        if value <= limit * (1.0 + _EPS):
            count += 1
        else:
            stack.extend(value * rho for rho in ratios)
    return count


def _pseudo_sides(system, i, uj, axis):
    classes = system.classes(axis)
    for letter in i:
        if not 0 <= letter < len(system.maps):
            raise IndexError("letter %d outside alphabet" % letter)
    for cid in uj:
        if not 0 <= cid < len(classes):
            raise IndexError("class id %d outside axis-%d classes"
                             % (cid, axis))
    other = 2 if axis == 1 else 1
    along = math.prod(float(system.maps[m].ratio(axis)) for m in i)
    along *= math.prod(float(classes[c].ratio) for c in uj)
    across = math.prod(float(system.maps[m].ratio(other)) for m in i)
    return along, across


def pseudo_cylinder_count(system, i, uj) -> int:
    """Exact number of maximal approximate squares in a wide pseudo-cylinder.

    The pseudo-cylinder fixes the length-|i| word and |uj| further projected
    columns; its width must still be at least its height.  Branches of
    projected extensions are expanded breadth-first until each one's width
    first drops to the height, and the branches are counted.
    """
    width, height = _pseudo_sides(system, i, uj, axis=1)
    if width < height * (1.0 - _EPS):
        raise WrongShape("pseudo-cylinder is tall (width %g < height %g); "
                         "use the axis-aware counter" % (width, height))
    ratios = [float(c.ratio) for c in system.columns]
    return _threshold_leaves(width, height, ratios)


def bar_pseudo_count(system, i, uj, axis=2) -> int:
    """Approximate-square count for a pseudo-cylinder extended on either axis.

    Same branch counting as pseudo_cylinder_count but the extension axis is
    a parameter, which covers the tall pseudo-cylinders that occur in
    mixed-orientation systems: the extended side shrinks until it first
    drops to the fixed side.
    """
    if system.klass not in (BARANSKI, GATZOURAS_LALLEY):
        raise WrongClass("pseudo-cylinder counts need aligned projections, "
                         "got %s" % system.klass)
    if axis not in (1, 2):
        raise RangeError("axis must be 1 or 2")
    along, across = _pseudo_sides(system, i, uj, axis)
    ratios = [float(c.ratio) for c in system.classes(axis)]
    if along <= across * (1.0 + _EPS):
        return 1
    return _threshold_leaves(along, across, ratios)


# ------------------------------------------------------ empirical counting

def _ball_gap(cx, cy, x0, y0, w, h):
    dx = max(x0 - cx, 0.0, cx - (x0 + w))
    dy = max(y0 - cy, 0.0, cy - (y0 + h))
    return dx * dx + dy * dy


def box_count_ball(system, gamma: EventuallyPeriodicWord, R, r) -> int:
    """Number of scale-r approximate squares meeting the closed ball
    B(pi(gamma), R), counted exactly over the symbolic cover.

    Base words are the height section at r; each base is extended by
    projected columns until the width first drops to the base height, and
    the resulting rectangles are tested against the ball.
    """
    R = float(R)
    r = float(r)
    if not 0.0 < r <= R < 1.0:
        raise RangeError("need 0 < r <= R < 1, got r=%g R=%g" % (r, R))
    cx, cy = _point_at(system, gamma)
    maps = _float_maps(system)
    cols = [(float(c.ratio), float(c.offset)) for c in system.columns]
    rr = R * R * (1.0 + 1e-12)
    count = 0
    stack = [(0.0, 0.0, 1.0, 1.0)]
    while stack:
        x0, y0, w, h = stack.pop()
        if _ball_gap(cx, cy, x0, y0, w, h) > rr:
            continue
        if h <= r:
            ext = [(x0, w)]
            while ext:
                ex, ew = ext.pop()
                if _ball_gap(cx, cy, ex, y0, ew, h) > rr:
                    continue
                if ew <= h * (1.0 + _EPS):
                    count += 1
                else:
                    ext.extend((ex + ew * off, ew * rho)
                               for rho, off in cols)
        else:
            stack.extend((x0 + w * d1, y0 + h * d2, w * r1, h * r2)
                         for r1, r2, d1, d2 in maps)
    return count


def _ball_grid_count(system, gamma, R, s):
    """Side-s grid cells met by the attractor inside B(point(gamma), R).

    Cylinders are refined until both sides fit in one cell, then the cell
    under the rectangle centre is marked; that keeps the count free of the
    cylinder-side snapping that inflates the symbolic square cover.
    """
    cx, cy = _point_at(system, gamma)
    maps = _float_maps(system)
    rr = R * R * (1.0 + 1e-12)
    cells = set()
    stack = [(0.0, 0.0, 1.0, 1.0)]
    while stack:
        x0, y0, w, h = stack.pop()
        if _ball_gap(cx, cy, x0, y0, w, h) > rr:
            continue
        if w <= s and h <= s:
            cells.add((int((x0 + 0.5 * w) / s), int((y0 + 0.5 * h) / s)))
            continue
        stack.extend((x0 + w * d1, y0 + h * d2, w * r1, h * r2)
                     for r1, r2, d1, d2 in maps)
    return len(cells)


def psi_estimate(system, delta, samples=16, seed=0, words=None,
                 radii=(0.25, 0.0625)):
    """Doubling-count exponent estimate: the largest observed value of
    log N_{r*delta}(B(x, r) cap K) / log(1/delta) over sampled centers.

    N counts coverings by balls of radius r*delta, realised as grid cells
    of side 2*r*delta, so a unit-dimensional fiber at delta = 2^-k yields
    2^k cells and an exponent of exactly 1.  Centers come from ``words``
    when given, otherwise from ``samples`` seeded random periodic words;
    each is paired with every radius in ``radii``.
    """
    delta = float(delta)
    if not 0.0 < delta < 1.0:
        raise RangeError("delta %r outside (0, 1)" % (delta,))
    if words is None:
        rng = np.random.default_rng(seed)
        n = len(system.maps)
        words = []
        for _ in range(samples):
            length = int(rng.integers(1, 7))
            period = tuple(int(v) for v in rng.integers(0, n, size=length))
            words.append(EventuallyPeriodicWord((), period))
    best = 0.0
    logd = math.log(1.0 / delta)
    for gamma in words:
        for radius in radii:
            hits = _ball_grid_count(system, gamma, radius,
                                    min(1.0, 2.0 * radius * delta))
            if hits > 0:
                best = max(best, math.log(hits) / logd)
    return best


def _grid_count(system, s):
    """Number of side-s grid cells touched by the cylinder cover at scale s."""
    maps = _float_maps(system)
    cells = set()
    inv = 1.0 / s
    top = int(math.ceil(inv)) - 1
    stack = [(0.0, 0.0, 1.0, 1.0)]
    while stack:
        x0, y0, w, h = stack.pop()
        if w <= s and h <= s:
            ax = min(int(x0 * inv), top)
            bx = min(int((x0 + w) * inv), top)
            ay = min(int(y0 * inv), top)
            by = min(int((y0 + h) * inv), top)
            for ix in range(ax, bx + 1):
                for iy in range(ay, by + 1):
                    cells.add((ix, iy))
        else:
            stack.extend((x0 + w * d1, y0 + h * d2, w * r1, h * r2)
                         for r1, r2, d1, d2 in maps)
    return len(cells)


@lru_cache(maxsize=16)
def box_dimension_estimate(system, k_lo=4, k_hi=9):
    """Empirical box dimension: least-squares slope of log counts against
    log scale over the dyadic ladder 2^-k, k_lo <= k <= k_hi.

    Returns (slope, (low, high)) where the band is the spread of the
    adjacent two-point slopes, an honest indication of how settled the
    ladder is.  Results are cached per system.
    """
    if not 2 <= k_lo < k_hi:
        raise RangeError("need 2 <= k_lo < k_hi")
    ks = list(range(k_lo, k_hi + 1))
    logs = [k * math.log(2.0) for k in ks]
    counts = [_grid_count(system, 2.0 ** -k) for k in ks]
    ys = [math.log(c) for c in counts]
    slope = float(np.polyfit(logs, ys, 1)[0])
    pair = [(ys[t + 1] - ys[t]) / (logs[t + 1] - logs[t])
            for t in range(len(ks) - 1)]
    return slope, (min(pair), max(pair))


def scale_count_table(system, ks):
    """(scale, grid count) rows for the dyadic scales 2^-k, k in ks."""
    rows = []
    for k in ks:
        if k != int(k) or int(k) < 1:
            raise RangeError("scale exponents must be integers >= 1")
        k = int(k)
        rows.append((2.0 ** -k, _grid_count(system, 2.0 ** -k)))
    return rows


# ------------------------------------------------------ packing harness

def _system_assouad(system):
    from .dimensions import baranski_dims, gl_dims
    if system.klass == GATZOURAS_LALLEY:
        return gl_dims(system).dimA
    if system.klass == BARANSKI:
        return baranski_dims(system)[2]
    raise Unsupported("packing calibration needs a classified system, "
                      "got %s" % system.klass)


@lru_cache(maxsize=16)
def _packing_constant(system):
    """Comparability constant calibrated once per system: the largest
    packing sum over a fixed family of cylinder packings at the exponent
    dimA + 0.01, padded by 5 percent."""
    alpha = _system_assouad(system) + 0.01
    worst = 1.0
    for depth in (1, 2, 3):
        words = [()]
        for _ in range(depth):
            words = [w + (i,) for w in words for i in range(len(system.maps))]
        total = 0.0
        for word in words:
            rect = _cylinder_rect(system, word)
            total += (0.49 * min(rect.width, rect.height)) ** alpha
        worst = max(worst, total)
    return 1.05 * worst


def packing_check(system, ball, packing, alpha) -> bool:
    """Moran-sum test for a disc packing inside a reference ball.

    ``ball`` is (gamma, R) and ``packing`` a list of (cylinder word,
    radius); each disc sits at its cylinder's rectangle center.  After
    verifying that the discs are pairwise disjoint and contained in the
    ball, the call reports whether sum radius^alpha <= C * R^alpha with the
    per-system constant C.  For alpha above the Assouad dimension this
    must hold for every valid packing.
    """
    gamma, R = ball
    R = float(R)
    if not 0.0 < R <= 1.0:
        raise RangeError("ball radius %g outside (0, 1]" % R)
    cx, cy = _point_at(system, gamma)
    discs = []
    for word, radius in packing:
        radius = float(radius)
        if radius <= 0.0:
            raise InvalidPacking("radius must be positive")
        px, py = _cylinder_rect(system, tuple(word)).center
        discs.append((px, py, radius))
    for t, (px, py, pr) in enumerate(discs):
        if math.hypot(px - cx, py - cy) + pr > R * (1.0 + 1e-9):
            raise InvalidPacking("disc %d leaves the reference ball" % t)
        for s in range(t):
            qx, qy, qr = discs[s]
            if math.hypot(px - qx, py - qy) < (pr + qr) * (1.0 - 1e-9):
                raise InvalidPacking("discs %d and %d overlap" % (s, t))
    total = math.fsum(pr ** float(alpha) for _, _, pr in discs)
    return total <= _packing_constant(system) * R ** float(alpha)


# ------------------------------------------------------ clouds and tangents

def directed_hausdorff(a: PointCloud, b: PointCloud) -> float:
    """sup over a of the distance to the nearest point of b."""
    pa, pb = a.array(), b.array()
    return float(cKDTree(pb).query(pa)[0].max())


def hausdorff_distance(a: PointCloud, b: PointCloud) -> float:
    """Hausdorff distance between two finite clouds (exact, symmetric)."""
    return max(directed_hausdorff(a, b), directed_hausdorff(b, a))


def attractor_cloud(system, resolution) -> PointCloud:
    """Cylinder-center cloud of the attractor: descend until both sides of
    every cylinder are at most the resolution, then emit centers."""
    if resolution <= 0.0 or resolution >= 1.0:
        raise RangeError("resolution must lie in (0, 1)")
    pts = [rect.center for _, rect in
           cylinders_to_scale(system, resolution, axis=0)]
    return PointCloud(tuple(pts), resolution)


def projection_cloud(system, axis, resolution) -> PointCloud:
    """1-D cloud of the projected attractor on the given axis."""
    if resolution <= 0.0 or resolution >= 1.0:
        raise RangeError("resolution must lie in (0, 1)")
    classes = [(float(c.ratio), float(c.offset))
               for c in system.classes(axis)]
    pts = []
    stack = [(0.0, 1.0)]
    while stack:
        x0, w = stack.pop()
        if w <= resolution:
            pts.append((x0 + 0.5 * w,))
        else:
            stack.extend((x0 + w * off, w * rho) for rho, off in classes)
    pts.sort()
    return PointCloud(tuple(pts), resolution)


def slice_cloud(system, gamma: EventuallyPeriodicWord, offset, axis,
                resolution) -> PointCloud:
    """1-D cloud of the symbolic slice read along gamma from ``offset``.

    Level n of the non-autonomous construction applies the orthogonal parts
    of the maps in the axis-``axis`` class of gamma_{offset+n}.
    """
    if resolution <= 0.0 or resolution >= 1.0:
        raise RangeError("resolution must lie in (0, 1)")
    gamma.check_alphabet(system)
    lookup = system.class_index(axis)
    classes = system.classes(axis)
    other = 2 if axis == 1 else 1
    pts = []
    stack = [(0.0, 1.0, 0)]
    while stack:
        y0, hh, n = stack.pop()
        if hh <= resolution:
            pts.append((y0 + 0.5 * hh,))
            continue
        members = classes[lookup[gamma.letter(offset + n)]].members
        for m in members:
            mp = system.maps[m]
            stack.append((y0 + hh * float(mp.offset(other)),
                          hh * float(mp.ratio(other)), n + 1))
    pts.sort()
    return PointCloud(tuple(pts), resolution)


def tangent_cloud(system, gamma: EventuallyPeriodicWord, k,
                  resolution) -> PointCloud:
    """Cloud of the depth-k approximate square around gamma, renormalized
    per axis to the unit square.

    The square fixes the first k letters and the projected classes of the
    extension letters; the cloud enumerates exactly the attractor points
    compatible with those constraints, descending until both sides are
    below the resolution in renormalized units.
    """
    if system.klass != GATZOURAS_LALLEY:
        raise WrongClass("tangent clouds are defined for GatzourasLalley "
                         "systems, got %s" % system.klass)
    if resolution <= 0.0 or resolution >= 1.0:
        raise RangeError("resolution must lie in (0, 1)")
    square = approximate_square(system, gamma, k)
    base_rect = square.rect
    maps = _float_maps(system)
    cols = [(float(c.ratio), float(c.offset)) for c in system.columns]
    lookup = system.class_index(1)
    pts = []
    # nodes carry absolute rects plus how many extension classes remain
    start = _cylinder_rect(system, square.base)
    stack = [(start.x0, start.y0, start.width, start.height, 0)]
    wlim = resolution * base_rect.width
    hlim = resolution * base_rect.height
    while stack:
        x0, y0, w, h, used = stack.pop()
        if used < len(square.extension):
            cid = square.extension[used]
            stack.extend((x0 + w * d1, y0 + h * d2, w * r1, h * r2, used + 1)
                         for m, (r1, r2, d1, d2) in enumerate(maps)
                         if lookup[m] == cid)
            continue
        if h > hlim:
            stack.extend((x0 + w * d1, y0 + h * d2, w * r1, h * r2, used + 1)
                         for r1, r2, d1, d2 in maps)
            continue
        # the height is resolved: only x still needs refining, so descend
        # through projected columns and keep the y center fixed
        ynorm = (y0 + 0.5 * h - base_rect.y0) / base_rect.height
        xs = [(x0, w)]
        while xs:
            ex, ew = xs.pop()
            if ew <= wlim:
                pts.append(((ex + 0.5 * ew - base_rect.x0)
                            / base_rect.width, ynorm))
            else:
                xs.extend((ex + ew * off, ew * rho) for rho, off in cols)
    return PointCloud(tuple(sorted(pts)), resolution)


# ------------------------------------------------------------- fixtures

def fixture_progressions(kmax) -> PointCloud:
    """{0} with, for each k <= kmax, an arithmetic progression of k+1
    points of gap 4^-k starting at 2^-k."""
    if kmax < 2:
        raise RangeError("kmax must be >= 2")
    pts = [(0.0,)]
    for k in range(1, kmax + 1):
        base, step = 2.0 ** -k, 4.0 ** -k
        pts.extend((base + ell * step,) for ell in range(k + 1))
    return PointCloud(tuple(sorted(pts)), np.finfo(float).eps)


def fixture_fast_decay(kmax) -> PointCloud:
    """{0} with, for each k <= kmax, the block a_k * (2^k - ell) / 2^k for
    0 <= ell <= floor(2^k / k), where a_k = 4^(-k^2)."""
    if kmax < 2:
        raise RangeError("kmax must be >= 2")
    pts = {(0.0,)}
    for k in range(1, kmax + 1):
        a = 4.0 ** -(k * k)
        top = 2 ** k
        for ell in range(top // k + 1):
            pts.add((a * (top - ell) / top,))
    return PointCloud(tuple(sorted(pts)), np.finfo(float).eps)


# ------------------------------------------------------------- emission

def render_svg(system, depth, path):
    """Write a stroke-only SVG of the depth-level cylinder rectangles.

    Depth 0 draws the unit square alone; depth n draws one rectangle per
    length-n word.  Coordinates are written with four decimals in a unit
    viewBox, y flipped so the carpet reads in mathematical orientation.
    """
    if depth < 0:
        raise RangeError("depth must be >= 0")
    rects = [Rect(0.0, 0.0, 1.0, 1.0)]
    maps = _float_maps(system)
    for _ in range(depth):
        nxt = []
        for rect in rects:
            nxt.extend(Rect(rect.x0 + rect.width * d1,
                            rect.y0 + rect.height * d2,
                            rect.width * r1, rect.height * r2)
                       for r1, r2, d1, d2 in maps)
        rects = nxt
    lines = ['<?xml version="1.0" encoding="UTF-8"?>',
             '<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 1 1">']
    for rect in rects:
        lines.append('  <rect x="%.4f" y="%.4f" width="%.4f" height="%.4f"'
                     ' fill="none" stroke="black" stroke-width="0.002"/>'
                     % (rect.x0, 1.0 - rect.y1, rect.width, rect.height))
    lines.append('</svg>')
    data = "\n".join(lines) + "\n"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(data)
    return len(rects)


def write_scale_counts_csv(rows, path):
    """Write (scale, count) rows as a two-column CSV with a header."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("scale,count\n")
        for scale, hits in rows:
            handle.write("%.12g,%d\n" % (scale, hits))
