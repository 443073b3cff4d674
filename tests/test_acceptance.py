"""End-to-end gate: twelve headline guarantees, one printed verdict each.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines.
Closed-form targets come from tests/oracles/dims_oracle.py and
tests/oracles/moran_oracle.py; small counts from
tests/oracles/geometry_oracle.py.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from carpetdim import (ColumnSequence, PointCloud, baranski_dims,
                       box_count_ball, build_exceptional, directed_hausdorff,
                       few_large_tangents, fixture_fast_decay, gl_dims,
                       nonauto_assouad, pointwise_assouad_gl,
                       projection_cloud, psi_estimate, reduction_suprema,
                       slice_cloud, solve_moran, tangent_cloud, theta_window,
                       window_sup)
from carpets import (_homogeneous_window, _random_window, gl2, gl3,
                     random_gl_system, word)
from oracles.frozen import EXC0_SUP_D1_ROUNDED, EXC0_SUP_D2_ROUNDED


def verdict(num, label, checks):
    ok = all(value for _, value in checks)
    print("gate %02d %-38s %s" % (num, label, "PASS" if ok else "FAIL"),
          flush=True)
    assert ok, "failed checks: " + ", ".join(
        name for name, value in checks if not value)


def test_gate_01_moran_root_value_and_speed():
    ratios = [1 / 3, 1 / 6, 1 / 6]
    value = solve_moran(ratios)
    timings = []
    for _ in range(5):
        t0 = time.perf_counter()
        solve_moran(ratios)
        timings.append(time.perf_counter() - t0)
    verdict(1, "triple-ratio root, sub-millisecond", [
        ("value", value == pytest.approx(0.72263, abs=5e-5)),
        ("speed", min(timings) < 1e-3),
    ])


def test_gate_02_reduction_suprema():
    t0 = time.perf_counter()
    system = build_exceptional(0)
    red = reduction_suprema(system)
    elapsed = time.perf_counter() - t0
    p0_target = math.log(4 / 3) / math.log(2)
    verdict(2, "two-group reduction curve maxima", [
        ("sup_D1", red["sup_D1"] == pytest.approx(EXC0_SUP_D1_ROUNDED,
                                                  abs=1e-4)),
        ("sup_D2", red["sup_D2"] == pytest.approx(EXC0_SUP_D2_ROUNDED,
                                                  abs=1e-4)),
        ("dimH", red["dimH"] == pytest.approx(EXC0_SUP_D2_ROUNDED, abs=1e-4)),
        ("dimH is max", abs(red["dimH"] - max(red["sup_D1"], red["sup_D2"]))
         <= 1e-9),
        ("p0", red["p0"] == pytest.approx(p0_target, abs=1e-9)),
        ("interior argmax", red["p0"] < red["argmax_D2"] < 1.0),
        ("runtime", elapsed < 1.0),
    ])


def test_gate_03_directional_totals():
    directional, _, _ = baranski_dims(build_exceptional(0))
    verdict(3, "directional Assouad totals", [
        ("A1", directional.A1 == pytest.approx(2.0, abs=1e-9)),
        ("A2", directional.A2 == pytest.approx(1.72263, abs=5e-5)),
    ])


def test_gate_04_large_tangent_witness():
    t0 = time.perf_counter()
    flag, axis = few_large_tangents(build_exceptional(Fraction(1, 40)))
    elapsed = time.perf_counter() - t0
    verdict(4, "large-tangent witness on axis 1", [
        ("flag", flag is True),
        ("axis", axis == 1),
        ("runtime", elapsed < 2.0),
    ])


def test_gate_05_closed_form_dimensions():
    report = gl_dims(gl3())
    verdict(5, "3-map closed forms", [
        ("dimB", report.dimB == pytest.approx(1 + math.log(3 / 2) / math.log(4),
                                              abs=1e-9)),
        ("dimA", report.dimA == pytest.approx(1.5, abs=1e-12)),
        ("dimL", report.dimL == pytest.approx(1.0, abs=1e-12)),
        ("dimH", report.dimH == pytest.approx(
            math.log(1 + math.sqrt(2)) / math.log(2), abs=1e-6)),
    ])


def test_gate_06_dimension_ordering():
    rng = np.random.default_rng(0)
    violations = 0
    for _ in range(100):
        report = gl_dims(random_gl_system(rng))
        if not (report.dimL <= report.dimH + 1e-9
                and report.dimH <= report.dimB + 1e-9
                and report.dimB <= report.dimA + 1e-9):
            violations += 1
    verdict(6, "ordering on 100 random systems", [
        ("violations", violations == 0),
    ])


def test_gate_07_window_exponent_subadditive():
    rng = np.random.default_rng(7)
    violations = 0
    for _ in range(200):
        branching = int(rng.integers(2, 7))
        m1 = int(rng.integers(1, 6))
        m2 = int(rng.integers(1, 6))
        w1 = _homogeneous_window(rng, m1, branching)
        w2 = _homogeneous_window(rng, m2, branching)
        lhs = (m1 + m2) * theta_window(w1 + w2)
        rhs = m1 * theta_window(w1) + m2 * theta_window(w2)
        if lhs > rhs + 1e-9:
            violations += 1
    verdict(7, "window exponent subadditivity", [
        ("violations", violations == 0),
    ])


def test_gate_08_fiber_invariance_and_convergence():
    rng = np.random.default_rng(8)
    exact = True
    for _ in range(50):
        period = _random_window(rng, int(rng.integers(1, 5)))
        base = nonauto_assouad(ColumnSequence((), tuple(map(tuple, period))))
        pre = _random_window(rng, int(rng.integers(0, 4)))
        k = int(rng.integers(0, len(period)))
        variants = (
            ColumnSequence(tuple(map(tuple, pre)), tuple(map(tuple, period))),
            ColumnSequence((), tuple(map(tuple, period[k:] + period[:k]))),
            ColumnSequence((), tuple(map(tuple, period + period))),
        )
        for seq in variants:
            if abs(nonauto_assouad(seq) - base) > 1e-12:
                exact = False
    seq = ColumnSequence((), ((0.25, 0.25), (0.25,)))
    limit = nonauto_assouad(seq)
    errs = {m: abs(window_sup(seq, m) - limit) for m in range(2, 257)}
    c = max(m * errs[m] for m in range(2, 17)) + 1e-9
    tail = all(errs[m] <= c / m + 1e-12 for m in range(17, 257))
    verdict(8, "fiber invariance and 1/m convergence", [
        ("invariance", exact),
        ("tail", tail),
    ])


def test_gate_09_pointwise_band():
    system = gl3()
    dim_b = 1 + math.log(3 / 2) / math.log(4)
    wide = pointwise_assouad_gl(system, word((), (0,)))
    lone = pointwise_assouad_gl(system, word((), (2,)))
    rng = np.random.default_rng(9)
    in_band = True
    for _ in range(100):
        per = tuple(int(v) for v in rng.integers(0, 3,
                                                 size=int(rng.integers(1, 7))))
        value = pointwise_assouad_gl(system, word((), per)).pointwise_assouad
        if not dim_b - 1e-9 <= value <= 1.5 + 1e-9:
            in_band = False
    verdict(9, "pointwise values and band", [
        ("thick column", wide.pointwise_assouad == pytest.approx(1.5, abs=1e-9)),
        ("lone column", lone.pointwise_assouad == pytest.approx(dim_b, abs=1e-9)),
        ("small tangent", lone.tangent_dim == pytest.approx(1.0, abs=1e-9)),
        ("tangent below box", lone.tangent_dim < dim_b),
        ("random band", in_band),
    ])


def test_gate_10_empirical_matches_closed_form():
    system = gl3()
    gamma = word((), (0, 2, 1))
    t0 = time.perf_counter()
    ms = np.arange(4, 13)
    counts = [box_count_ball(system, gamma, 0.25, 0.25 * 2.0 ** -m) for m in ms]
    slope = np.polyfit(ms * math.log(2.0), np.log(counts), 1)[0]
    slope_time = time.perf_counter() - t0
    t0 = time.perf_counter()
    psi = psi_estimate(gl2(), 2.0 ** -10)
    psi_time = time.perf_counter() - t0
    verdict(10, "ball-count slope and doubling exponent", [
        ("slope", slope == pytest.approx(1.292481, abs=0.08)),
        ("slope runtime", slope_time < 10.0),
        ("psi", psi == pytest.approx(1.0, abs=0.1)),
        ("psi runtime", psi_time < 10.0),
    ])


def test_gate_11_tangent_product_decay():
    system = gl3()
    gamma = word((), (0,))
    res = 2.0 ** -11
    px = projection_cloud(system, 1, res)
    py = slice_cloud(system, gamma, 0, 1, res)
    product = PointCloud(tuple((x[0], y[0]) for x in px.points
                               for y in py.points), res)
    dist = {k: directed_hausdorff(product, tangent_cloud(system, gamma, k, res))
            for k in (2, 3, 4, 5, 6)}
    decaying = all(dist[k + 1] <= 0.6 * dist[k] + 2 * res for k in (2, 3, 4, 5))
    verdict(11, "tangent converges to product cloud", [
        ("geometric decay", decaying),
        ("floor reached", dist[6] <= 2 * res),
    ])


def test_gate_12_fast_decay_fixture():
    cloud = fixture_fast_decay(8)
    points = [p[0] for p in cloud.points]
    included = True
    for k in range(2, 8):
        a_k = 4.0 ** -(k * k)
        a_next = 4.0 ** -((k + 1) * (k + 1))
        for p in points:
            if p > a_k * (1 + 1e-12):
                continue
            q = p / a_k
            if not (q <= a_next / a_k * (1 + 1e-9) or q >= 1.0 / k - 1e-12):
                included = False
        if k * (a_next / a_k) > 1.0 / k:
            included = False
    counts_ok = True
    for k in range(1, 9):
        a_k = 4.0 ** -(k * k)
        l_k = (2 ** k) // k
        window = sorted(p for p in points if p <= a_k * (1 + 1e-12))
        count, anchor = 0, None
        for p in window:
            if anchor is None or p - anchor >= a_k * 2.0 ** -k:
                count += 1
                anchor = p
        if count < l_k / 2:
            counts_ok = False
    verdict(12, "fast-decay window structure", [
        ("two-interval inclusion", included),
        ("cover counts", counts_ok),
    ])
