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

Both equations, and the weighted ones behind the box roots D_j and the
two-group reduction suprema in ``dimensions``, are roots of one convex
decreasing g(t) = sum_k log sum_i w_ki r_ki^t with g(0) >= 0, and one
monotone Newton iteration from t = 0 (``_moran_root``) solves them all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import EmptyInput, InvalidSystem, OptimizerFailure

_STEP_CAP = 200       # Newton steps before OptimizerFailure


def _clean_ratios(ratios) -> list[float]:
    rs = [float(r) for r in ratios]
    if not rs:
        raise EmptyInput("need at least one contraction ratio")
    for r in rs:
        if not 0.0 < r < 1.0:
            raise InvalidSystem("contraction ratio %r outside (0, 1)" % r)
    return rs


def _moran_root(terms) -> float:
    """Root t >= 0 of g(t) = sum_k log sum_i exp(log w_ki + t log r_ki).

    ``terms`` holds, per k, the pairs (log w_ki, log r_ki), every log r_ki
    < 0, so g is convex and strictly decreasing.  Given g(0) >= 0, Newton
    steps from t = 0 rise monotonically to the root; the iteration stops at
    the first step no longer above rounding, so g(0) = 0 returns exactly 0.
    The sums over k are exactly rounded, so a window and its repeats take
    identical steps.
    """
    t = 0.0
    for _ in range(_STEP_CAP):
        value, slope = [], []
        for pairs in terms:
            e = [log_w + t * log_r for log_w, log_r in pairs]
            top = max(e)
            p = [math.exp(x - top) for x in e]
            z = math.fsum(p)
            value.append(top + math.log(z))
            slope.append(math.fsum(q * log_r for q, (_, log_r)
                                   in zip(p, pairs)) / z)
        step = -math.fsum(value) / math.fsum(slope)
        if step <= 1e-15 * max(1.0, t):
            return t
        t += step
    raise OptimizerFailure("no Moran root within %d Newton steps" % _STEP_CAP)


def solve_moran(ratios) -> float:
    """Unique root of sum_i r_i^s = 1 over the given ratio multiset.

    Newton in the log domain (``_moran_root``); the root is exact to
    rounding, and a singleton multiset has root exactly 0.
    """
    return _moran_root([[(0.0, math.log(r)) for r in _clean_ratios(ratios)]])


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

    ``window`` is a sequence of ratio multisets.  Solved in the log domain
    by ``_moran_root``: g(theta) = sum_k log(sum_r r^theta) is convex and
    strictly decreasing with g(0) = sum_k log(|window[k]|) >= 0; the root
    is exact to rounding, and exactly 0 when every multiset is a singleton.
    """
    sets = [_clean_ratios(w) for w in window]
    if not sets:
        raise EmptyInput("empty window")
    return _moran_root([[(0.0, math.log(r)) for r in w] for w in sets])


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

