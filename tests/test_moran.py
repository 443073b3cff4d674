"""Moran roots and windowed exponents.

Reference constants come from tests/oracles/moran_oracle.py (scipy brentq on
the raw equations, independent of the package's log-domain Newton solver).
"""

import math

import numpy as np
import pytest

from carpetdim import (ColumnSequence, EmptyInput, InvalidSystem,
                       nonauto_assouad, solve_moran, theta_window,
                       window_sup)
from carpets import _homogeneous_window, _random_window

# frozen from tests/oracles/moran_oracle.py
ROOT_THIRD_SIXTH_SIXTH = 0.722629596943400
LARGE_MIXED = [0.98, 0.95, 0.9, 0.9, 0.6, 0.1, 0.001]
ROOT_LARGE_MIXED = 25.599067058676180


def test_solve_moran_pair_of_halves():
    assert solve_moran([0.5, 0.5]) == pytest.approx(1.0, abs=1e-12)


def test_solve_moran_exceptional_row():
    s = solve_moran([1 / 3, 1 / 6, 1 / 6])
    assert s == pytest.approx(ROOT_THIRD_SIXTH_SIXTH, abs=1e-10)


def test_solve_moran_quarters():
    assert solve_moran([0.25, 0.25]) == pytest.approx(0.5, abs=1e-12)


def test_solve_moran_singleton_is_zero():
    assert solve_moran([0.37]) == 0.0


def test_large_roots():
    # Ratios near 1 put the root far from 0, where Newton steps from 0 are
    # long; a stop rule that quits once the steps stop shrinking misses here.
    seven = math.log(7) / -math.log(0.95)
    assert seven > 37.9
    assert solve_moran([0.95] * 7) == pytest.approx(seven, rel=1e-14)
    assert theta_window([[0.95] * 7]) == pytest.approx(seven, rel=1e-14)
    assert solve_moran(LARGE_MIXED) == pytest.approx(ROOT_LARGE_MIXED,
                                                     rel=1e-14)
    assert theta_window([LARGE_MIXED]) == pytest.approx(ROOT_LARGE_MIXED,
                                                        rel=1e-14)


def test_solve_moran_errors():
    with pytest.raises(EmptyInput):
        solve_moran([])
    with pytest.raises(InvalidSystem):
        solve_moran([0.5, 1.0])
    with pytest.raises(InvalidSystem):
        solve_moran([0.5, 0.0])


def test_solve_moran_residual_and_monotonicity():
    rng = np.random.default_rng(20240811)
    for _ in range(100):
        rs = list(rng.uniform(0.05, 0.9, size=rng.integers(1, 5)))
        s = solve_moran(rs)
        assert abs(math.fsum(r ** s for r in rs) - 1.0) <= 1e-12
        # adding a ratio strictly increases the root
        bigger = solve_moran(rs + [0.3])
        assert bigger > s - 1e-12


def test_theta_window_alternating():
    # 2*(1/16)^theta = 1  ->  theta = 1/4 exactly
    assert theta_window([[0.25, 0.25], [0.25]]) == pytest.approx(0.25, abs=1e-12)


def test_theta_window_single_step_matches_moran():
    rng = np.random.default_rng(7)
    for _ in range(50):
        rs = list(rng.uniform(0.05, 0.9, size=rng.integers(1, 5)))
        assert theta_window([rs]) == pytest.approx(solve_moran(rs), abs=1e-11)


def test_theta_window_all_singletons_is_zero():
    assert theta_window([[0.5], [0.7], [0.2]]) == 0.0


def test_theta_window_concat_between_min_and_max():
    # The exponent of a concatenation is a weighted mean of the two window
    # exponents (the product sum factorizes), so it can never leave
    # [min, max].  This is the bound that makes sup_n theta(n, m) settle.
    rng = np.random.default_rng(99)
    for _ in range(200):
        w1 = _random_window(rng, int(rng.integers(1, 6)))
        w2 = _random_window(rng, int(rng.integers(1, 6)))
        t1, t2 = theta_window(w1), theta_window(w2)
        t12 = theta_window(w1 + w2)
        assert min(t1, t2) - 1e-9 <= t12 <= max(t1, t2) + 1e-9


def test_theta_window_subadditive_homogeneous():
    # (m1+m2)*theta(w1 ++ w2) <= m1*theta(w1) + m2*theta(w2) whenever all
    # levels of both windows branch into the same number of pieces: each
    # exponent is then m*log(N)/X with X the window's total log-contraction,
    # and the inequality is Cauchy-Schwarz in Engel form,
    # (m1+m2)^2/(X1+X2) <= m1^2/X1 + m2^2/X2.
    rng = np.random.default_rng(99)
    for _ in range(200):
        branching = int(rng.integers(2, 7))
        m1 = int(rng.integers(1, 6))
        m2 = int(rng.integers(1, 6))
        w1 = _homogeneous_window(rng, m1, branching)
        w2 = _homogeneous_window(rng, m2, branching)
        lhs = (m1 + m2) * theta_window(w1 + w2)
        rhs = m1 * theta_window(w1) + m2 * theta_window(w2)
        assert lhs <= rhs + 1e-9


def test_theta_window_arithmetic_mean_bound_fails_for_unbalanced_windows():
    # The subadditivity above genuinely needs the matched branching: the
    # concatenated exponent weights each window by its log-contraction, so a
    # deep window with many pieces after a shallow one-piece window pulls the
    # result above the arithmetic mean.  Keep one explicit witness so the
    # restriction in the previous test is never "simplified" away.
    w1 = [[0.9]]            # theta = 0
    w2 = [[0.1, 0.1]]       # theta = log 2 / log 10
    t12 = theta_window(w1 + w2)
    mean = (theta_window(w1) + theta_window(w2)) / 2.0
    assert t12 == pytest.approx(math.log(2) / math.log(1 / 0.09), abs=1e-12)
    assert t12 > mean + 0.1


def test_nonauto_assouad_alternating():
    seq = ColumnSequence(preperiod=(), period=([0.25, 0.25], [0.25]))
    assert nonauto_assouad(seq) == pytest.approx(0.25, abs=1e-12)


def test_nonauto_assouad_invariances():
    """Preperiod, rotation, and period doubling leave the value unchanged."""
    rng = np.random.default_rng(4242)
    for _ in range(50):
        period = _random_window(rng, int(rng.integers(1, 5)))
        base = nonauto_assouad(ColumnSequence((), tuple(map(tuple, period))))

        pre = _random_window(rng, int(rng.integers(0, 4)))
        with_pre = nonauto_assouad(
            ColumnSequence(tuple(map(tuple, pre)), tuple(map(tuple, period))))
        assert with_pre == pytest.approx(base, abs=1e-12)

        k = int(rng.integers(0, len(period)))
        rotated = period[k:] + period[:k]
        assert nonauto_assouad(ColumnSequence((), tuple(map(tuple, rotated)))) \
            == pytest.approx(base, abs=1e-12)

        doubled = period + period
        assert nonauto_assouad(ColumnSequence((), tuple(map(tuple, doubled)))) \
            == pytest.approx(base, abs=1e-12)


def test_window_sup_phases():
    seq = ColumnSequence(preperiod=(), period=((0.25, 0.25), (0.25,)))
    # phase starting at the doubleton: theta = 1/2; at the singleton: 0
    assert window_sup(seq, 1) == pytest.approx(0.5, abs=1e-12)


def test_window_sup_dominates_limit():
    rng = np.random.default_rng(11)
    for _ in range(20):
        period = tuple(tuple(w) for w in _random_window(rng, int(rng.integers(1, 4))))
        seq = ColumnSequence((), period)
        limit = nonauto_assouad(seq)
        for m in (1, 2, 3, 7):
            assert window_sup(seq, m) >= limit - 1e-9


def test_window_sup_converges_like_inverse_m():
    seq = ColumnSequence(preperiod=(), period=((0.25, 0.25), (0.25,)))
    limit = nonauto_assouad(seq)
    ms = [2, 4, 8, 16, 32, 64, 128, 256]
    errs = {m: abs(window_sup(seq, m) - limit) for m in ms}
    # fit the constant on small windows, check the tail obeys C/m
    c = max(m * errs[m] for m in ms[:4]) + 1e-9
    for m in ms[4:]:
        assert errs[m] <= c / m + 1e-12
