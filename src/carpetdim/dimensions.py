"""Closed-form and variational dimension formulas for diagonal carpets.

The axes an Analysis works on are ``systems.long_axes``: those along which
some map is longer than across it, or both when every map is square.  A
GatzourasLalley system has one long axis j, and everything reduces to two
scalar root-findings and one simplex maximization, written here for j = 1
(the mirror in x = y runs the same code on j = 2):

* projected box dimension ``s_eta``:  sum_l r1_l^{s_eta} = 1  over columns,
* box dimension ``s``:  sum_i r1_i^{s_eta} r2_i^{s - s_eta} = 1,
* Assouad / lower dimension ``s_eta + max_l t(l)`` / ``s_eta + min_l t(l)``
  where t(l) is the Moran exponent of column l's vertical ratios,
* Hausdorff dimension: the supremum over probability vectors w of the
  Ledrappier-Young value

      s_1(w) = H(eta_1 w)/chi_1(w) + (H(w) - H(eta_1 w))/chi_2(w),

  always attained at an interior point.

For a Baranski system both axes are long and compete.  The axis-j value
s_j(w) (same shape with j and the orthogonal axis j' swapped in) is
maximized over P_j = {w : chi_j(w) <= chi_{j'}(w)}, which has interior
exactly on the long axes, and dimH = max_j d_j.  On the boundary
chi_j = chi_{j'} the value collapses to H(w)/chi_j(w).  When the maps longer
along j are square in floats, P_j rounds to the face they span and d_j is
the flat maximum over it.  Over the long axes, directional totals
A_j = dimB eta_j(K) + t_j give dimA = max_j A_j (Mackay, 2011, for one long
axis; Fraser, Trans. AMS 2014, for Baranski carpets), and dimB = max_j D_j,
where D_j solves sum_i a_{j,i}^{s_j} b_i^{D_j - s_j} = 1 with a the axis-j
ratios, b the orthogonal ones and s_j = dimB eta_j(K) (Baranski, Adv. Math.
2007); D_1 is the GatzourasLalley box dimension above.  A short axis is
left out: on a carpet of tall maps A_1 can exceed dimA.  D_j - s_j, like every
Moran root and the two-group reduction suprema, is a root that moran's one
Newton solver finds.

Every Ledrappier-Young maximum, GL or Baranski, interior or boundary, comes
from one deterministic solver in Gibbs form.  With a_l the axis-j ratio of
class l, b_i the orthogonal ratio of map i and Z_l(kappa) = sum of b_i^kappa
over class l, the maximum over the slice chi_j = theta chi_j' (theta <= 1,
where the value is concave over linear) is attained at
w_i = q_l b_i^kappa / Z_l(kappa), q_l = a_l^(s - kappa) Z_l(kappa)^theta,
and its value s is the root of min_kappa Phi(s, kappa; theta) = 0 for the
jointly convex Phi = log sum_l a_l^(s - kappa) Z_l(kappa)^theta.  Along
theta the slice value moves at rate psi/chi_j, psi = sum_l q_l log Z_l:
interior maxima are roots of psi, where kappa is the Dinkelbach ratio of
the conditional part and q_l ~ a_l^D Z_l(kappa)^theta with D = H(q)/chi_j,
and theta = 1 is the boundary.

The solver evaluates Phi and its derivatives on an array of slices, one row
each, so the _GRID slices that bracket the roots of psi are solved in
lockstep, one evaluation per step for all rows.  Each row takes Newton steps
in s (step Phi/chi_j) until the step reaches rounding or stops shrinking;
before each, Newton in kappa, kept in a sign bracket, runs to rounding, and
after each, kappa follows its tangent, dkappa = -(dPhi/dkappa + Phi_s,kappa
ds)/Phi_kappa,kappa, from the same evaluation.  A root of psi is found by
Newton in theta along the slice solutions, with dpsi/dtheta from the same
evaluation's second derivatives, each new slice started from the predicted
(s, kappa); a Newton step that would leave the bracket, or that follows a
step which did not shrink |psi|, gives way to an Illinois step.  A long axis
of a GL carpet with one class needs no solve: its maximum is D_j.
``iterations`` counts evaluations, and more than _MAX_STEPS of them for one
maximum raise OptimizerFailure.

The Analysis at ``system.analysis`` computes each number once and takes every
maximum over axes; gl_dims, baranski_dims and pointwise read its fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .errors import OptimizerFailure, RangeError, WrongClass, WrongShape
from .moran import _moran_root, solve_moran
from .systems import (BARANSKI, GATZOURAS_LALLEY, CarpetSystem,
                      ProbabilityVector, _compare, long_axes)

_TOL = 1e-15          # relative step at which Newton and regula falsi stop
_DECREMENT = 1e-28    # Newton decrement in kappa below rounding of Phi
_PSI_TOL = 1e-14      # |psi| at which the slice counts as stationary
_MAX_STEPS = 1000     # Gibbs evaluations per maximum, then OptimizerFailure
_GRID = 12            # slices that bracket the stationary points in theta


@dataclass(frozen=True)
class DimensionReport:
    dim_proj_box_1: object          # None when that axis is not aligned,
    dim_proj_box_2: object          # which the long axis always is
    dimB: object
    dimH: float
    dimA: float
    dimL: float
    argmax_p: ProbabilityVector
    diagnostics: dict


@dataclass(frozen=True)
class BaranskiDirectional:
    """Per-axis quantities: constrained Hausdorff value d_j, projected box
    dimension, worst slice exponent t_j, and the total A_j = dimB_eta_j + t_j.
    Entries are None when the axis does not support them (a short axis,
    whose P_j is empty, or a projection without Moran structure)."""
    d1: object
    d2: object
    dimB_eta1: object
    dimB_eta2: object
    t1: object
    t2: object
    A1: object
    A2: object


# --------------------------------------------------------------- entropies

def _xlogx(v):
    return v * math.log(v) if v > 0.0 else 0.0


def entropy_stats(system: CarpetSystem, p):
    """(H(p), H(eta1 p), H(eta2 p), chi1(p), chi2(p)) with natural logs and
    the 0*log 0 = 0 convention."""
    if not isinstance(p, ProbabilityVector):
        p = ProbabilityVector(tuple(p))
    w = list(p)
    if len(w) != len(system.maps):
        raise WrongShape("vector of length %d for %d maps"
                         % (len(w), len(system.maps)))
    H = -math.fsum(_xlogx(v) for v in w)
    marginals = []
    for axis in (1, 2):
        lookup = system.class_index(axis)
        acc = [0.0] * len(system.classes(axis))
        for i, v in enumerate(w):
            acc[lookup[i]] += v
        marginals.append(-math.fsum(_xlogx(v) for v in acc))
    chi = [-math.fsum(w[i] * math.log(float(system.maps[i].ratio(axis)))
                      for i in range(len(w)))
           for axis in (1, 2)]
    return (H, marginals[0], marginals[1], chi[0], chi[1])


# ------------------------------------------ Ledrappier-Young maximisation

class _AxisProblem:
    """The axis-j maximisation in Gibbs form (see the module docstring).
    Maps are sorted by axis-j class l, of ratio a_l; b_i is the orthogonal
    ratio of map i; when P_j rounds to a face, only its maps take part.  A
    slice is the tuple (theta, psi, (s, kappa, w)); ``slices`` adds its
    slope (ds, dkappa, dpsi)/dtheta along the slice solutions."""

    def __init__(self, system, j):
        lookup = system.class_index(j)
        self.n = len(system.maps)
        cls = np.array([lookup[i] for i in range(self.n)])
        log_a = np.log([float(c.ratio) for c in system.classes(j)])[cls]
        log_b = np.log([float(m.ratio(3 - j)) for m in system.maps])
        theta = log_a / log_b                       # theta of a point mass
        # the float face of P_j: see the module docstring
        members = (np.flatnonzero(theta == 1.0)
                   if theta.min() == 1.0 < theta.max() else np.arange(self.n))
        self.order = members[np.argsort(cls[members], kind="stable")]
        first = np.diff(cls[self.order], prepend=-1) != 0   # class starts
        self.cls = np.cumsum(first) - 1
        self.starts = np.flatnonzero(first)
        self.log_a = log_a[self.order][self.starts]
        self.log_b = log_b[self.order]
        theta = theta[self.order]
        self.lo, self.hi = float(theta.min()), float(theta.max())
        # flat: equal thetas, where Phi does not vary in kappa, or thetas
        # closer than the _GRID slices resolve (they would round onto an end)
        self.flat = self.hi - self.lo <= _GRID * math.ulp(self.hi)
        self.iterations = 0                         # Gibbs evaluations

    def gibbs(self, s, kappa, theta):
        """Phi at rows (s, kappa, theta), given as columns, in one
        evaluation: (Phi, dPhi/dkappa, d2Phi/dkappa2, d2Phi/dkappa ds,
        chi_j(w)), one entry per row, and the parts that w, psi and the
        slopes of a finished row are read from.  Sums run along rows, not
        through ``@``, so a row's arithmetic does not depend on how many
        rows share the evaluation."""
        cls, starts, log_a, log_b = (self.cls, self.starts, self.log_a,
                                     self.log_b)
        self.iterations += 1
        e = kappa * log_b
        top = np.maximum.reduceat(e, starts, axis=1)
        ex = np.exp(e - top.take(cls, axis=1))
        z = np.add.reduceat(ex, starts, axis=1)
        p = ex / z.take(cls, axis=1)
        log_z = np.log(z) + top
        mean = np.add.reduceat(p * log_b, starts, axis=1)
        dev = log_b - mean.take(cls, axis=1)
        var = np.add.reduceat(p * dev * dev, starts, axis=1)
        u = (s - kappa) * log_a + theta * log_z
        top = u.max(axis=1, keepdims=True)
        q = np.exp(u - top)
        total = q.sum(axis=1, keepdims=True)
        q /= total
        du = theta * mean - log_a
        qdu = q * du
        d1 = qdu.sum(axis=1, keepdims=True)
        dev = du - d1
        d2 = (q * (dev * dev + theta * var)).sum(axis=1)
        chi = -(q * log_a).sum(axis=1)
        d1 = d1[:, 0]
        dsk = (qdu * log_a).sum(axis=1) + chi * d1
        return ((top + np.log(total))[:, 0], d1, d2, dsk, chi,
                (q, p, log_z, mean, du))

    def slices(self, thetas, s, kappa):
        """The maxima on chi_j = theta chi_j' for each theta in lockstep,
        one evaluation per step for all rows, from the start (s, kappa)
        (one per row).  Each row takes Newton steps in s on the
        convex decreasing min_kappa Phi, stopping at rounding or when the
        step no longer shrinks; between them Newton in kappa, kept in a sign
        bracket, stops at rounding, and after each s step kappa moves along
        its tangent.  Returns a (theta, psi, (s, kappa, w), slope) per row."""
        rows = len(thetas)
        theta = np.array(thetas, dtype=float)[:, None]
        s, kappa = list(s), list(kappa)
        lo, hi, last = [-math.inf] * rows, [math.inf] * rows, [math.inf] * rows
        busy = range(rows)
        while busy:
            if self.iterations >= _MAX_STEPS:
                raise OptimizerFailure(
                    "no slice maximum at theta=%.15g within %d evaluations"
                    % (thetas[busy[0]], _MAX_STEPS))
            *values, parts = self.gibbs(np.array(s)[:, None],
                                        np.array(kappa)[:, None], theta)
            phi, d1, d2, dsk, chi = (v.tolist() for v in values)
            moving = []
            for r in busy:
                k, g, h = kappa[r], d1[r], d2[r]
                if not (self.flat or g * g <= _DECREMENT * h):
                    lo[r], hi[r] = (lo[r], k) if g > 0.0 else (k, hi[r])
                    new = k - g / h if h > 0.0 else math.nan
                    if not lo[r] < new < hi[r]:
                        new = (0.5 * (lo[r] + hi[r])
                               if math.isfinite(lo[r] + hi[r]) else
                               k - math.copysign(max(1.0, abs(k)), g))
                    if abs(new - k) > _TOL * max(1.0, abs(k)):
                        kappa[r] = new
                        moving.append(r)
                        continue
                step = phi[r] / chi[r]
                if (abs(step) <= _TOL * max(1.0, abs(s[r]))
                        or abs(step) >= last[r]):
                    continue
                s[r] += step
                last[r], lo[r], hi[r] = abs(step), -math.inf, math.inf
                if not self.flat and h > 0.0:
                    kappa[r] = k - (g + dsk[r] * step) / h
                moving.append(r)
            busy = moving
        # finished rows kept their (s, kappa): the last evaluation holds all
        return self._rows(theta, s, kappa, values, parts)

    def _rows(self, theta, s, kappa, values, parts):
        """The slices of an evaluation at the rows' solutions, with their
        slopes: along a solution Phi = 0 and dPhi/dkappa = 0, so s moves at
        psi/chi_j and kappa with the tangent of the kappa minimum."""
        _, _, d2, dsk, chi = values
        q, p, log_z, mean, du = parts
        psi = (q * log_z).sum(axis=1)
        dz = log_z - psi[:, None]
        qdz = q * dz
        ds = psi / chi
        tk = (qdz * du + q * mean).sum(axis=1)
        dk = np.zeros_like(ds)
        if not self.flat:
            np.divide(-(dsk * ds + tk), d2, out=dk, where=d2 > 0.0)
        dpsi = ((qdz * dz).sum(axis=1) + (qdz * self.log_a).sum(axis=1) * ds
                + tk * dk)
        w = q.take(self.cls, axis=1) * p
        return [(t, f, (a, k, row), slope) for t, f, a, k, row, slope in zip(
            theta[:, 0].tolist(), psi.tolist(), s, kappa, w,
            zip(ds.tolist(), dk.tolist(), dpsi.tolist()))]

    def slice(self, theta, s=0.0, kappa=0.0):
        """The one-row ``slices``: (theta, psi, (s, kappa, w))."""
        return self.slices([theta], [s], [kappa])[0][:3]

    def maximise(self):
        """(value, w, diagnostics) of the maximum over P_j = {theta <= 1},
        which has interior on a long axis.  Interior maxima are the roots
        where psi falls through zero (psi -> +inf at theta_lo, -inf at
        theta_hi <= 1); the slice maximum need not be unimodal, so _GRID
        slices bracket roots that are a grid step apart or more.  The
        boundary theta = 1 is a candidate when psi(1) >= 0."""
        if self.flat:
            return self._result(*self.slice(self.lo))
        up = min(1.0, self.hi)     # theta_hi = 1 is an end, not a boundary
        n = _GRID if self.hi > 1.0 else _GRID + 1
        points = [(self.lo, math.inf, None, None)] + self.slices(
            [up - (up - self.lo) * (n - k) / n for k in range(1, _GRID + 1)],
            [0.0] * _GRID, [0.0] * _GRID)
        rising = self.hi > 1.0 and points[-1][1] >= 0.0
        best = [points[-1]] if rising else []
        if self.hi <= 1.0:
            points.append((self.hi, -math.inf, None, None))
        best += [self._root(a, b) for a, b in zip(points, points[1:])
                 if a[1] > 0.0 >= b[1]]
        return self._result(*max(best, key=lambda point: point[2][0])[:3])

    def _root(self, a, b):
        """Root of psi between slices a (psi > 0) and b (psi <= 0): Newton
        in theta along the slice solutions from the finite end of smaller
        |psi|, each slice started from the slope's prediction of (s, kappa).
        Where a Newton step would leave the bracket, or |psi| stopped
        shrinking, the step is halving while an end is infinite and Illinois
        regula falsi after."""
        point = min((end for end in (a, b) if math.isfinite(end[1])),
                    key=lambda end: abs(end[1]))
        side, size = 0, math.inf
        while abs(point[1]) > _PSI_TOL and b[0] - a[0] > _TOL * b[0]:
            (ta, fa, *_), (tb, fb, *_) = a, b
            theta, psi, (s, kappa, _), (ds, dk, dpsi) = point
            new = theta - psi / dpsi if dpsi < 0.0 else math.nan
            if not (abs(psi) < size and ta < new < tb):
                new = (0.5 * (ta + tb) if math.isinf(fa - fb)
                       else (ta * fb - tb * fa) / (fb - fa))
            size, step = abs(psi), new - theta
            point, = self.slices([new], [s + ds * step], [kappa + dk * step])
            if point[1] > 0.0:
                a, b, side = point, (b if side < 1 else (tb, fb / 2)), 1
            else:
                a, b, side = (a if side > -1 else (ta, fa / 2)), point, -1
        return point

    def moran(self, t):
        """The maximum when axis j has one class and theta <= 1 throughout:
        the slice with w_i = b_i^t, kappa = t and psi = 0 for the Moran root
        t of the b_i."""
        w = np.exp(t * self.log_b)
        return self._result(float(self.log_a[0] / (w @ self.log_b)), 0.0,
                            (t, t, w))

    def _result(self, theta, psi, state):
        """(s, w tuple, read-only diagnostics); the residual is the sup norm
        of the axis value's gradient in softmax coordinates, projected off
        the constraint chi_j = chi_j' on the boundary."""
        s, kappa, w = state
        boundary = theta == 1.0 and self.lo != self.hi
        log_a = self.log_a[self.cls]
        log_q = np.log(np.add.reduceat(w, self.starts))[self.cls]
        log_p = np.log(w) - log_q
        chi, chi_o = -float(w @ log_a), -float(w @ self.log_b)
        grad = -((w @ log_q / chi * log_a + 1.0 + log_q) / chi
                 + (w @ log_p / chi_o * self.log_b + log_p) / chi_o)
        tangent = w * (grad - w @ grad)
        if boundary:
            normal = w * (log_a - self.log_b - w @ (log_a - self.log_b))
            tangent -= (tangent @ normal) / (normal @ normal) * normal
        out = np.zeros(self.n)
        out[self.order] = w
        return s, tuple(out.tolist()), MappingProxyType({
            "iterations": self.iterations, "boundary": boundary,
            "theta": theta, "kappa": kappa, "psi": psi,
            "stationarity_residual": float(np.abs(tangent).max())})


# ---------------------------------------------------- per-system analysis

class AxisAnalysis:
    """The quantities of axis j of a system, each computed on first use."""

    def __init__(self, system, j):
        self.system, self.j = system, j

    @cached_property
    def proj(self):
        """(s_eta_j, |sum_l a_l^s_eta_j - 1|) over the axis-j classes."""
        ratios = [float(c.ratio) for c in self.system.classes(self.j)]
        s = solve_moran(ratios)
        return s, abs(math.fsum(r ** s for r in ratios) - 1.0)

    @cached_property
    def fibers(self):
        """Per axis class, the sorted orthogonal ratios of its members."""
        maps = self.system.maps
        return tuple(tuple(sorted(float(maps[i].ratio(3 - self.j))
                                  for i in c.members))
                     for c in self.system.classes(self.j))

    @cached_property
    def slice_exponents(self):
        """t(l) per axis class: the Moran exponent of its fiber."""
        return tuple(solve_moran(fiber) for fiber in self.fibers)

    @cached_property
    def directional(self):
        """(s_eta_j, t_j = max_l t(l), A_j = s_eta_j + t_j), or three Nones
        when the axis classes are not aligned."""
        if not self.system.aligned(self.j):
            return None, None, None
        proj, t = self.proj[0], max(self.slice_exponents)
        return proj, t, proj + t

    @cached_property
    def box(self):
        """(D_j, |sum_i a_i^{s_j} b_i^{D_j - s_j} - 1|), a and b the axis-j
        and orthogonal ratios: D_j = s_j + t for moran's root t of the
        weights a_i^{s_j} and ratios b_i."""
        s_j = self.proj[0]
        pairs = [(s_j * math.log(float(m.ratio(self.j))),
                  math.log(float(m.ratio(3 - self.j))))
                 for m in self.system.maps]
        t = _moran_root([pairs])
        return s_j + t, abs(math.fsum(math.exp(log_w + t * log_b)
                                      for log_w, log_b in pairs) - 1.0)

    @cached_property
    def maximum(self):
        """(d_j, argmax, diagnostics) of the Ledrappier-Young value over P_j;
        only a long axis has one.  On a GL carpet whose long axis has one
        class, H(eta_j w) = 0 and s_eta_j = 0, so the value is
        H(w)/chi_j'(w) with b the orthogonal ratios, and Gibbs' inequality
        H(w) - t chi_j'(w) <= log sum_i b_i^t = 0 for their Moran root t,
        with equality at w_i = b_i^t, makes t = D_j the maximum: it is taken
        with no solve."""
        problem = _AxisProblem(self.system, self.j)
        if (self.system.klass == GATZOURAS_LALLEY
                and len(self.system.classes(self.j)) == 1):
            return problem.moran(self.box[0])
        return problem.maximise()


class Analysis:
    """An AxisAnalysis per axis; dimB (with its residual), dimH and dimA over
    the long axes; GL dimL on the one long axis."""

    def __init__(self, system):
        self.system = system
        self.axes = (AxisAnalysis(system, 1), AxisAnalysis(system, 2))

    def _need(self, *classes):
        if self.system.klass not in classes:
            raise WrongClass("need %s, got %s"
                             % (" or ".join(classes), self.system.klass))

    def _axes(self):
        """The AxisAnalysis of each long axis (``long_axes``): both axes of
        a Baranski carpet, one of a GL carpet."""
        self._need(BARANSKI, GATZOURAS_LALLEY)
        return tuple(self.axes[j - 1] for j in long_axes(self.system))

    @cached_property
    def box(self):
        """(dimB, residual): the largest axis root D_j."""
        return max((axis.box for axis in self._axes()), key=lambda b: b[0])

    @cached_property
    def dimH(self):
        """The largest Ledrappier-Young maximum d_j."""
        return max(axis.maximum[0] for axis in self._axes())

    @cached_property
    def dimA(self):
        return max(axis.directional[2] for axis in self._axes())

    @cached_property
    def dimL(self):
        self._need(GATZOURAS_LALLEY)
        axis, = self._axes()
        return axis.proj[0] + min(axis.slice_exponents)

    @cached_property
    def _two_group_shape(self):
        """(alpha1, alpha2, beta) when the system is 4 copies of one map
        shape plus 8 of another with a shared height; WrongShape otherwise."""
        groups, exact = {}, self.system.exact
        for m in self.system.maps:
            shape = next((s for s in groups if _compare(s[0], m.r1, exact) == 0
                          and _compare(s[1], m.r2, exact) == 0), (m.r1, m.r2))
            groups.setdefault(shape, []).append(m)
        if len(groups) != 2:
            raise WrongShape("need exactly two map shapes, got %d"
                             % len(groups))
        (shape_a, members_a), (shape_b, members_b) = sorted(
            groups.items(), key=lambda kv: len(kv[1]))
        if (len(members_a), len(members_b)) != (4, 8):
            raise WrongShape("need group sizes 4 and 8, got %d and %d"
                             % (len(members_a), len(members_b)))
        if _compare(shape_a[1], shape_b[1], exact) != 0:
            raise WrongShape("groups must share a common height")
        return float(shape_a[0]), float(shape_b[0]), float(shape_a[1])


# ------------------------------------------------ reports from the analysis

def gl_dims(system: CarpetSystem) -> DimensionReport:
    """Full dimension report for a GatzourasLalley carpet, read off its
    long axis; dim_proj_box_1 and _2 belong to axes 1 and 2."""
    analysis = system.analysis
    analysis._need(GATZOURAS_LALLEY)
    axis, = analysis._axes()
    dimB, box_residual = analysis.box
    _, argmax, optimizer = axis.maximum
    first, second = (each.directional[0] for each in analysis.axes)
    return DimensionReport(
        dim_proj_box_1=first, dim_proj_box_2=second,
        dimB=dimB, dimH=analysis.dimH, dimA=analysis.dimA,
        dimL=analysis.dimL, argmax_p=ProbabilityVector(argmax),
        diagnostics={"proj_moran_residual": axis.proj[1],
                     "dimB_residual": box_residual,
                     "slice_exponents": list(axis.slice_exponents),
                     "optimizer": dict(optimizer)})


def baranski_dims(system: CarpetSystem):
    """(BaranskiDirectional, dimH, dimA) for a Baranski (or GL) system: the
    directional values of both axes (d_j only on a long axis), and the
    analysis' dimH and dimA."""
    analysis = system.analysis
    long = analysis._axes()
    fields = {}
    for axis in analysis.axes:
        proj, t, total = axis.directional
        fields.update({"d%d" % axis.j:
                       axis.maximum[0] if axis in long else None,
                       "dimB_eta%d" % axis.j: proj, "t%d" % axis.j: t,
                       "A%d" % axis.j: total})
    return BaranskiDirectional(**fields), analysis.dimH, analysis.dimA


# ---------------------------------------------------- two-group reduction

def baranski_1d_reduction(system: CarpetSystem, p: float):
    """Two-group reduction curve for the 4+8 family: returns
    (D1(p), D2(p), p0) where p is the total weight on the 8-map group.

    D1(p) = h(p)/chi1(p) and
    D2(p) = log 4/(-log beta) + (h(p) - log 4)/chi1(p), with h the two-point
    entropy, chi1(p) = -p log alpha2 - (1-p) log alpha1, and p0 the weight
    where chi1 crosses -log beta.
    """
    if not 0.0 <= p <= 1.0:
        raise RangeError("p=%r outside [0, 1]" % (p,))
    alpha1, alpha2, beta = system.analysis._two_group_shape
    h = -(_xlogx(p) + _xlogx(1.0 - p))
    chi1 = -p * math.log(alpha2) - (1.0 - p) * math.log(alpha1)
    log4 = math.log(4.0)
    d1 = h / chi1
    d2 = log4 / -math.log(beta) + (h - log4) / chi1
    p0 = ((math.log(alpha1) - math.log(beta))
          / (math.log(alpha1) - math.log(alpha2)))
    return d1, d2, p0


def reduction_suprema(system: CarpetSystem):
    """Maxima of the two-group reduction curves over p in [0, 1].

    Both curves divide a concave numerator by a positive affine denominator,
    and the Dinkelbach identity gives their maxima in closed form:
    sup D1 = sigma1 with alpha1^sigma1 + alpha2^sigma1 = 1, attained at
    p = alpha2^sigma1, and sup D2 = log 4/(-log beta) + sigma2 with
    alpha1^sigma2 + alpha2^sigma2 = 4, attained at p = alpha2^sigma2 / 4.
    Returns a dict with each curve's supremum and maximizer, the crossover
    weight p0, and ``dimH``: the supremum of the spliced curve (D1 left of
    p0, D2 right of it), each quasi-concave curve taken at its maximizer
    clipped to its side of p0 -- the reduction's own headline value.
    """
    alpha1, alpha2, beta = system.analysis._two_group_shape
    _, _, p0 = baranski_1d_reduction(system, 0.5)
    log4, logs = math.log(4.0), (math.log(alpha1), math.log(alpha2))
    sigma1 = solve_moran([alpha1, alpha2])
    # sigma2 = c + t with min(alpha)^c = 4, so the root t starts from 0
    c = log4 / min(logs)
    sigma2 = c + _moran_root([[(c * v - log4, v) for v in logs]])
    x1, x2 = alpha2 ** sigma1, alpha2 ** sigma2 / 4.0
    cut = min(max(p0, 0.0), 1.0)
    left = baranski_1d_reduction(system, min(x1, cut))[0]
    right = baranski_1d_reduction(system, max(x2, cut))[1]
    return {"sup_D1": sigma1, "argmax_D1": x1,
            "sup_D2": log4 / -math.log(beta) + sigma2, "argmax_D2": x2,
            "p0": p0, "dimH": max(left, right)}
