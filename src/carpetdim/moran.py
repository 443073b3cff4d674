"""Moran-equation roots and windowed exponents for ratio sequences.

The basic object is a finite multiset of contraction ratios ``{r_1,...,r_n}``
with every ``r_i`` in (0,1).  Its Moran exponent is the unique ``s >= 0`` with

    sum_i r_i^s = 1,

which exists because the left side is strictly decreasing in ``s``, equals
``n`` at ``s = 0`` and tends to 0.  For a *sequence* of multisets
``Phi_1, Phi_2, ...`` (one multiset per construction step of a non-autonomous
set) the analogue over the window of length ``m`` starting after step ``n`` is
the unique ``theta`` with

    prod_{k=1}^{m} ( sum_{r in Phi_{n+k}} r^theta ) = 1,

solved here in the log domain.  Windowed exponents are Hölder-subadditive,

    (m1+m2) * theta(w1 ++ w2) <= m1 * theta(w1) + m2 * theta(w2),

so for an eventually periodic sequence the large-window supremum converges to
the exponent of one exact period; ``nonauto_assouad`` returns exactly that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import EmptyInput, InvalidSystem

_RESIDUAL_TOL = 1e-12
_BISECT_TOL = 1e-10
_NEWTON_STEPS = 5


def _clean_ratios(ratios) -> list[float]:
    rs = [float(r) for r in ratios]
    if not rs:
        raise EmptyInput("need at least one contraction ratio")
    for r in rs:
        if not 0.0 < r < 1.0:
            raise InvalidSystem("contraction ratio %r outside (0, 1)" % r)
    return rs


def solve_moran(ratios) -> float:
    """Unique root of sum_i r_i^s = 1 over the given ratio multiset.

    Bracketed bisection down to width 1e-10 followed by a few Newton steps;
    the returned root has |sum r^s - 1| <= 1e-12.  A singleton multiset has
    root exactly 0.
    """
    rs = _clean_ratios(ratios)
    if len(rs) == 1:
        return 0.0

    def f(s):
        return math.fsum(r ** s for r in rs) - 1.0

    def fprime(s):
        return math.fsum((r ** s) * math.log(r) for r in rs)

    # At s=0 the sum is n > 1; n * r_max^s < 1 gives an upper bracket.
    r_max = max(rs)
    hi = math.log(len(rs)) / math.log(1.0 / r_max) + 1.0
    lo = 0.0
    while hi - lo > _BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    s = 0.5 * (lo + hi)
    for _ in range(_NEWTON_STEPS):
        fs = f(s)
        if abs(fs) <= _RESIDUAL_TOL:
            break
        step = fs / fprime(s)
        s = min(max(s - step, lo - _BISECT_TOL), hi + _BISECT_TOL)
    return s


@dataclass(frozen=True)
class ColumnSequence:
    """Eventually periodic sequence of ratio multisets.

    ``preperiod`` and ``period`` are tuples of ratio tuples; ``period`` must
    be non-empty.  Entry ``n`` (0-based) of the infinite sequence is
    ``preperiod[n]`` while it lasts, then ``period`` repeats forever.
    """

    preperiod: tuple
    period: tuple

    def __post_init__(self):
        if not self.period:
            raise EmptyInput("period must contain at least one multiset")
        object.__setattr__(self, "preperiod",
                           tuple(tuple(w) for w in self.preperiod))
        object.__setattr__(self, "period",
                           tuple(tuple(w) for w in self.period))

    def multiset(self, n: int):
        """The n-th ratio multiset of the infinite sequence."""
        if n < len(self.preperiod):
            return self.preperiod[n]
        return self.period[(n - len(self.preperiod)) % len(self.period)]


def theta_window(window) -> float:
    """Root theta of prod_k (sum_{r in window[k]} r^theta) = 1.

    ``window`` is a sequence of ratio multisets.  Solved in the log domain:
    g(theta) = sum_k log(sum_r r^theta) is strictly decreasing with
    g(0) = sum_k log(|window[k]|) >= 0.
    """
    sets = [_clean_ratios(w) for w in window]
    if not sets:
        raise EmptyInput("empty window")
    if all(len(w) == 1 for w in sets):
        return 0.0

    def g(theta):
        return math.fsum(math.log(math.fsum(r ** theta for r in w))
                         for w in sets)

    def gprime(theta):
        total = 0.0
        for w in sets:
            num = math.fsum((r ** theta) * math.log(r) for r in w)
            den = math.fsum(r ** theta for r in w)
            total += num / den
        return total

    top = math.fsum(math.log(len(w)) for w in sets)
    bottom = math.fsum(math.log(1.0 / max(w)) for w in sets)
    hi = top / bottom + 1.0
    lo = 0.0
    while hi - lo > _BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if g(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    theta = 0.5 * (lo + hi)
    for _ in range(_NEWTON_STEPS):
        step = g(theta) / gprime(theta)
        new = min(max(theta - step, lo - _BISECT_TOL), hi + _BISECT_TOL)
        # stop on step size, not residual: the Newton map is then identical
        # for a window and its concatenated repeats, so repeating a period
        # reproduces the root bit for bit
        if abs(new - theta) <= 1e-15 * max(1.0, abs(theta)):
            return new
        theta = new
    return theta


def nonauto_assouad(seq: ColumnSequence) -> float:
    """Large-window limit exponent of an eventually periodic sequence.

    Equals theta_window over one exact period: aligned windows spanning whole
    periods have exactly that root, and subadditivity pins every other phase
    and length to it within O(1/m), so the preperiod and the phase drop out
    in the limit.
    """
    return theta_window(seq.period)


def window_sup(seq: ColumnSequence, m: int) -> float:
    """sup over starting phases of the length-m window exponent.

    The supremum over all start positions is attained among the preperiod
    offsets plus one full period of phases, which is all this scans.
    """
    if m < 1:
        raise EmptyInput("window length must be >= 1")
    best = 0.0
    for n in range(len(seq.preperiod) + len(seq.period)):
        window = [seq.multiset(n + t) for t in range(m)]
        best = max(best, theta_window(window))
    return best

