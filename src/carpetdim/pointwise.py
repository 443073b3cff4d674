"""Pointwise dimension along coded points and the few-large-tangents family.

This module hosts the operations that depend on a coded point gamma: the
non-autonomous fiber induced by its column word, the pointwise Assouad
dimension, level sets, and the 12-map example family whose pointwise
dimension exceeds the box dimension only on a small set of points.

The pointwise value has one entry point, ``_pointwise``, for both classes:
the axis is the one gamma's Lyapunov class picks (``classify_word``), so on
a GL carpet it is the long axis, and a carpet and its mirror in x = y give
the same report with the axes swapped.  One separation policy holds: when
the projection on that axis is not strongly separated the value is still
reported, with ``regularity_warning`` set, as a lower bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

# gl_dims is unused here, but perfbench's tracer wraps pointwise.gl_dims
from .dimensions import baranski_dims, gl_dims  # noqa: F401
from .errors import InvalidSystem, RangeError, Unsupported
from .moran import ColumnSequence, nonauto_assouad
from .systems import (BARANSKI, GATZOURAS_LALLEY, CarpetSystem, DiagonalMap,
                      EventuallyPeriodicWord, classify_word, long_axes,
                      validate)


@dataclass(frozen=True)
class PointwiseReport:
    """Pointwise Assouad data at one coded point.

    fiber_dim is the Assouad dimension of the symbolic slice through the
    point, tangent_dim the dimension of the largest tangent set there, and
    pointwise_assouad the pointwise Assouad dimension itself, the larger of
    the closed-form box dimension and tangent_dim.  regularity_warning is
    set when the projection on ``axis`` is not strongly separated: the
    tangent built from gamma's own cylinders is still a tangent of the
    carpet at the point, but neighbouring projected cylinders may touch the
    point and add larger tangents, so the value is only a lower bound.
    """

    fiber_dim: float
    tangent_dim: float
    pointwise_assouad: float
    axis: int
    regularity_warning: bool
    omega_class: str


def symbolic_slice(system: CarpetSystem, gamma: EventuallyPeriodicWord,
                   axis: int = 1) -> ColumnSequence:
    """Fiber ratio multisets read off along gamma.

    Step n of the slice is the multiset of orthogonal-axis ratios of the
    maps sharing the axis-j projection class of gamma_n; the preperiod and
    period of gamma carry over unchanged.
    """
    gamma.check_alphabet(system)
    lookup = system.class_index(axis)
    fibers = system.analysis.axes[axis - 1].fibers
    return ColumnSequence(
        preperiod=tuple(fibers[lookup[i]] for i in gamma.preperiod),
        period=tuple(fibers[lookup[i]] for i in gamma.period))


def _pointwise(system, gamma):
    """Pointwise Assouad dimension at the point coded by gamma.

    Words contracting asymptotically faster in the vertical slice along
    columns (axis 1), the opposite ones along rows (axis 2); balanced words
    (Omega0) admit no formula and are rejected.  The fiber exponent comes
    from the non-autonomous slice through gamma's classes on that axis;
    adding the axis' projected box dimension gives the largest tangent
    there, and the value is that total capped below by the closed-form box
    dimension.  Without strong separation of the axis' projection it is a
    lower bound, reported with regularity_warning (see PointwiseReport).
    """
    omega, _ = classify_word(system, gamma)
    if omega == "Omega0":
        raise Unsupported(
            "word contracts at the same asymptotic rate on both axes "
            "(Omega0); no pointwise formula applies")
    j = 1 if omega == "Omega1" else 2
    analysis = system.analysis
    fiber = nonauto_assouad(symbolic_slice(system, gamma, axis=j))
    tangent = analysis.axes[j - 1].proj[0] + fiber
    return PointwiseReport(
        fiber_dim=fiber, tangent_dim=tangent,
        pointwise_assouad=max(analysis.box[0], tangent), axis=j,
        regularity_warning=not (system.eta1_ssc, system.eta2_ssc)[j - 1],
        omega_class=omega)


def pointwise_assouad_gl(system: CarpetSystem,
                         gamma: EventuallyPeriodicWord) -> PointwiseReport:
    """``_pointwise`` on a GatzourasLalley carpet, WrongClass otherwise."""
    system.analysis._need(GATZOURAS_LALLEY)
    return _pointwise(system, gamma)


def pointwise_assouad_baranski(system: CarpetSystem,
                               gamma: EventuallyPeriodicWord,
                               ) -> PointwiseReport:
    """``_pointwise`` on a Baranski or GatzourasLalley carpet, WrongClass
    otherwise."""
    system.analysis._need(BARANSKI, GATZOURAS_LALLEY)
    return _pointwise(system, gamma)


def level_set_dim(system: CarpetSystem, alpha):
    """Hausdorff dimension of the level set of the pointwise Assouad map.

    Returns (value, full_measure): every non-empty level within
    [dimB, dimA] has full Hausdorff dimension, and the top level alpha =
    dimA is the one attained at almost every point, which the flag
    records.  Levels outside the interval are empty: (None, False).
    """
    if not math.isfinite(alpha):
        raise RangeError("alpha %r is not a finite number" % (alpha,))
    analysis = system.analysis
    analysis._need(GATZOURAS_LALLEY)
    if not analysis.box[0] - 1e-12 <= alpha <= analysis.dimA + 1e-12:
        return None, False
    return analysis.dimH, bool(abs(alpha - analysis.dimA) <= 1e-12)


def few_large_tangents(system: CarpetSystem):
    """Whether large tangents occur only on a small set of points.

    Returns (True, j) when some axis j has the strictly smaller directional
    Hausdorff value d_j but the strictly larger directional total A_j: then
    points whose pointwise Assouad dimension reaches the global maximum
    form a set of Hausdorff dimension d_j < dimH.  Returns (False, None)
    when no axis splits this way.  Needs both projections strongly
    separated and both axes long (``long_axes``, as ``baranski_dims`` reads
    them, so both d_j are defined; exact on Fraction systems).
    """
    system.analysis._need(BARANSKI, GATZOURAS_LALLEY)
    # one-sided systems can satisfy the split criterion spuriously, so they
    # are rejected; all-square systems evaluate it honestly (to False)
    axes = long_axes(system)
    if len(axes) == 1:
        short = 3 - axes[0]
        raise Unsupported("no map is longer along axis %d than across it, "
                          "so Omega%d is empty" % (short, short))
    for j, flag in ((1, system.eta1_ssc), (2, system.eta2_ssc)):
        if not flag:
            raise Unsupported("axis-%d projection is not strongly "
                              "separated" % j)
    directional, _, _ = baranski_dims(system)
    d = (directional.d1, directional.d2)
    a = (directional.A1, directional.A2)
    for j in (1, 2):
        if d[j - 1] < d[2 - j] and a[j - 1] > a[2 - j]:
            return True, j
    return False, None


def build_exceptional(delta):
    """Build the 12-map height-and-width interpolation family.

    For ``delta`` in [0, 1/6) the system has one wide column of four cells
    stacked over the full height (width ``a1 = 1/3 - delta``) and four narrow
    columns of two cells each (width ``a2 = 1/6 - delta``); all cells share
    height ``b = 1/4 - delta``.  The two left narrow columns use the bottom
    two rows, the two right ones the top two rows.  Columns are spaced by
    ``5*delta/4`` and rows by ``4*delta/3`` so the layout exactly fills the
    unit square: at ``delta = 0`` the cells touch, for ``delta > 0`` the
    system is strongly separated on both axes.

    ``delta`` may be an int, Fraction, or decimal/fraction string (kept
    exact), or a float (inexact).  Out-of-range values raise InvalidSystem.
    """
    if isinstance(delta, str):
        delta = Fraction(delta)
    elif isinstance(delta, int):
        delta = Fraction(delta)
    if not 0 <= delta < Fraction(1, 6):
        raise InvalidSystem("delta %r outside [0, 1/6)" % (delta,))

    if isinstance(delta, Fraction):
        third, sixth, quarter = (Fraction(1, 3), Fraction(1, 6),
                                 Fraction(1, 4))
    else:
        third, sixth, quarter = 1.0 / 3.0, 1.0 / 6.0, 0.25
    a1 = third - delta
    a2 = sixth - delta
    b = quarter - delta
    gap_x = 5 * delta / 4
    gap_y = 4 * delta / 3

    col_x = [a1 + (j + 1) * gap_x + j * a2 for j in range(4)]
    row_y = [i * (b + gap_y) for i in range(4)]

    maps = [DiagonalMap(a1, b, 0 * a1, row_y[i]) for i in range(4)]
    for j in (0, 1):
        for i in (0, 1):
            maps.append(DiagonalMap(a2, b, col_x[j], row_y[i]))
    for j in (2, 3):
        for i in (2, 3):
            maps.append(DiagonalMap(a2, b, col_x[j], row_y[i]))
    return validate(maps)
