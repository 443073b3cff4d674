"""Closed-form dimension layer: entropies, GL report, Baranski directional."""

import functools
import importlib.util
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from carpetdim import (DiagonalMap, EventuallyPeriodicWord,
                       OptimizerFailure, ProbabilityVector, RangeError, Rect,
                       WrongClass, WrongShape, approximate_square,
                       baranski_1d_reduction, baranski_dims, box_count_ball,
                       classify_word, entropy_stats, gl_dims,
                       reduction_suprema, validate)
from carpetdim.dimensions import _AxisProblem
from carpetdim.pointwise import build_exceptional
from carpetdim.systems import long_axes
from carpets import BOUNDARY_ALSO_RISES, gl2, gl3, mcmullen
from oracles.frozen import (EXC0_D1, EXC0_D2, EXC0_P0, EXC0_SUP_D1,
                            EXC0_SUP_D2, EXC40_A1, EXC40_A2, EXC40_D1,
                            EXC40_D2, GL3_DIMB, GL3_DIMH,
                            NEAR_FLAT_ROWS_DIMH)

# A 4 x 2 grid carpet with sides from 1/1000 to 199/200.  Its box root D_2
# is SLIVER_DIMB of tests/oracles/frozen.py; Newton steps from D = s_2 grow
# before they shrink on it.
SLIVER_MAPS = [
    DiagonalMap(Fraction(9, 25), Fraction(199, 200), Fraction(0), Fraction(0)),
    DiagonalMap(Fraction(1, 1000), Fraction(199, 200), Fraction(9, 25),
                Fraction(0)),
    DiagonalMap(Fraction(1, 200), Fraction(1, 250), Fraction(361, 1000),
                Fraction(199, 200)),
    DiagonalMap(Fraction(317, 500), Fraction(199, 200), Fraction(183, 500),
                Fraction(0)),
]

# three maps wider than tall by 1/10^16 and one square map, all of side
# about 1/10: the axis-1 thetas span [1 - 3.3e-16, 1], below what the
# theta grid resolves
NEAR_FLAT_MAPS = [
    DiagonalMap(Fraction(10 ** 15 + 1, 10 ** 16), Fraction(1, 10), Fraction(0),
                Fraction(d, 10)) for d in (0, 1, 2)] + [
    DiagonalMap(Fraction(1, 10), Fraction(1, 10),
                Fraction(10 ** 15 + 1, 10 ** 16), Fraction(0))]

# three maps taller than wide by 1/10^15, each alone in its row: GL along
# axis 2 with thetas spanning 4.4e-15, just above what the grid resolves
NEAR_FLAT_ROWS = [
    DiagonalMap(Fraction(10 ** 14 - 1, 10 ** 15), Fraction(1, 10), Fraction(0),
                Fraction(d, 10)) for d in (0, 1)] + [
    DiagonalMap(Fraction(1, 5), Fraction(1, 5),
                Fraction(10 ** 14 - 1, 10 ** 15), Fraction(1, 5))]


def random_gl_system(rng):
    """Random wider-than-tall system: separated columns, stacked cells."""
    k = int(rng.integers(2, 5))
    widths = rng.uniform(0.08, 0.9 / k, size=k)
    gaps = rng.dirichlet(np.ones(k + 1)) * (1.0 - widths.sum())
    x = np.cumsum(gaps)[:-1] + np.concatenate([[0.0], np.cumsum(widths)[:-1]])
    maps = []
    for col in range(k):
        n = int(rng.integers(1, 4))
        hmax = min(widths[col] * 0.95, 0.9 / n)
        heights = rng.uniform(0.02, hmax, size=n)
        vgaps = rng.dirichlet(np.ones(n + 1)) * (1.0 - heights.sum())
        y = np.cumsum(vgaps)[:-1] + np.concatenate([[0.0],
                                                    np.cumsum(heights)[:-1]])
        for i in range(n):
            maps.append(DiagonalMap(float(widths[col]), float(heights[i]),
                                    float(x[col]), float(y[i])))
    system = validate(maps)
    assert system.klass == "GatzourasLalley"
    return system


def shared_exponent_gl_system(rng, kind):
    """Random wider-than-tall system whose columns share one fiber exponent:
    "one column", "one map per column" or "identical fibers"."""
    k = 1 if kind == "one column" else int(rng.integers(2, 5))
    n = 1 if kind == "one map per column" else int(rng.integers(2, 4))
    widths = rng.uniform(0.1, 0.9 / k, size=k)
    x = np.concatenate([[0.0], np.cumsum(widths)[:-1]])
    fiber = rng.uniform(0.02, min(0.95 * widths.min(), 0.9 / n), size=n)
    maps = []
    for col in range(k):
        if kind == "one map per column":
            fiber = rng.uniform(0.02, 0.95 * widths[col], size=1)
        y = np.concatenate([[0.0], np.cumsum(fiber)[:-1]])
        maps += [DiagonalMap(float(widths[col]), float(h), float(x[col]),
                             float(v)) for h, v in zip(fiber, y)]
    system = validate(maps)
    assert system.klass == "GatzourasLalley"
    return system


def random_baranski_system(rng):
    """Random cells of a random grid: columns and rows align, and some cell
    is not wider than tall.  Draws whose cells are all taller than wide are
    GatzourasLalley along rows (draws 12 and 21 of default_rng(2024)); they
    are kept, so each seed gives the draws it gave when they were classed
    Baranski."""
    while True:
        widths = rng.dirichlet(np.ones(int(rng.integers(2, 5)))) * 0.95
        heights = rng.dirichlet(np.ones(int(rng.integers(2, 5)))) * 0.95
        x = np.concatenate([[0.0], np.cumsum(widths)[:-1]])
        y = np.concatenate([[0.0], np.cumsum(heights)[:-1]])
        cells = [(a, b) for a in range(len(widths))
                 for b in range(len(heights))]
        pick = rng.choice(len(cells), size=int(rng.integers(2, len(cells))),
                          replace=False)
        system = validate([DiagonalMap(float(widths[cells[c][0]]),
                                       float(heights[cells[c][1]]),
                                       float(x[cells[c][0]]),
                                       float(y[cells[c][1]])) for c in pick])
        if min(system.orientation) <= 0:
            return system


def many_thin_cells():
    """25 thin cells stacked in one column plus one map beside them: a GL
    carpet on which no restart of the former simplex ascent converged."""
    maps = [([9, 20], [1, 50], 0, [j, 50]) for j in range(0, 50, 2)]
    return validate(maps + [([1, 2], [1, 3], [1, 2], 0)])


def axis_value(system, w, j=1):
    """(axis-j Ledrappier-Young value of w, chi_j'(w) - chi_j(w))."""
    H, H1, H2, chi1, chi2 = entropy_stats(system, w)
    Hj, chij, chio = (H1, chi1, chi2) if j == 1 else (H2, chi2, chi1)
    return Hj / chij + (H - Hj) / chio, chio - chij


def test_entropy_stats_basics():
    system = gl2()
    H, H1, H2, chi1, chi2 = entropy_stats(system, (0.5, 0.5))
    assert H == pytest.approx(math.log(2), abs=1e-15)
    assert H1 == pytest.approx(math.log(2), abs=1e-15)
    assert chi2 == pytest.approx(math.log(4), abs=1e-15)
    H, H1, H2, chi1, chi2 = entropy_stats(system, (1.0, 0.0))
    assert H == 0.0
    assert chi1 == pytest.approx(math.log(2), abs=1e-15)
    with pytest.raises(WrongShape):
        entropy_stats(system, (0.5, 0.25, 0.25))


def test_entropy_stats_exceptional_half():
    system = build_exceptional(0)
    z_half = (0.5 / 4,) * 4 + (0.5 / 8,) * 8
    _, _, _, chi1, chi2 = entropy_stats(system, z_half)
    assert chi1 == pytest.approx(0.5 * math.log(6) + 0.5 * math.log(3),
                                 abs=1e-12)
    assert chi2 == pytest.approx(math.log(4), abs=1e-12)


def test_gl_dims_two_singleton_columns():
    report = gl_dims(gl2())
    assert report.dim_proj_box_1 == pytest.approx(1.0, abs=1e-12)
    assert report.dimB == pytest.approx(1.0, abs=1e-12)
    assert report.dimA == pytest.approx(1.0, abs=1e-12)
    assert report.dimL == pytest.approx(1.0, abs=1e-12)
    assert report.dimH == pytest.approx(1.0, abs=1e-9)


def test_gl_dims_three_map_reference():
    report = gl_dims(gl3())
    assert report.dim_proj_box_1 == pytest.approx(1.0, abs=1e-12)
    assert report.dim_proj_box_2 == pytest.approx(0.5, abs=1e-12)
    assert report.dimB == pytest.approx(GL3_DIMB, abs=1e-9)
    assert report.dimA == pytest.approx(1.5, abs=1e-12)
    assert report.dimL == pytest.approx(1.0, abs=1e-12)
    assert report.dimH == pytest.approx(GL3_DIMH, abs=1e-6)
    assert report.diagnostics["dimB_residual"] <= 1e-12
    assert report.diagnostics["proj_moran_residual"] <= 1e-12
    optimizer = report.diagnostics["optimizer"]
    assert isinstance(optimizer["iterations"], int)
    assert optimizer["stationarity_residual"] <= 1e-12


def test_gl_dims_many_thin_cells_matches_scipy():
    from scipy.optimize import minimize

    system = many_thin_cells()
    report = gl_dims(system)
    n = len(system.maps)
    log_r1 = np.log([float(m.r1) for m in system.maps])
    log_r2 = np.log([float(m.r2) for m in system.maps])
    lookup = system.class_index(1)
    member = np.zeros((len(system.columns), n))
    for i in range(n):
        member[lookup[i], i] = 1.0

    def negative(u):
        e = np.exp(u - u.max())
        w = e / e.sum()
        log_q = np.log(member @ w) @ member
        h_w, h_q = -(w @ np.log(w)), -(w @ log_q)
        chi1, chi2 = -(w @ log_r1), -(w @ log_r2)
        grad = ((-(1.0 + log_q) * chi1 + h_q * log_r1) / chi1 ** 2
                + ((log_q - np.log(w)) * chi2 + (h_w - h_q) * log_r2)
                / chi2 ** 2)
        value = h_q / chi1 + (h_w - h_q) / chi2
        return -value, -(w * (grad - grad @ w))

    res = minimize(negative, np.zeros(n), jac=True, method="BFGS",
                   options={"gtol": 1e-12, "maxiter": 5000})
    assert report.dimH == pytest.approx(-res.fun, abs=1e-9)
    assert report.diagnostics["optimizer"]["stationarity_residual"] <= 1e-12


def test_no_random_feasible_vector_beats_the_maximum():
    rng = np.random.default_rng(2024)
    for _ in range(15):
        system = random_gl_system(rng)
        report = gl_dims(system)
        best = np.array(report.argmax_p.values)
        near = best * np.exp(rng.normal(0.0, 0.05, size=(100, len(best))))
        samples = np.vstack([rng.dirichlet(np.full(len(best), 0.5), 200),
                             near / near.sum(axis=1, keepdims=True)])
        for w in samples:
            assert axis_value(system, w)[0] <= report.dimH + 1e-12
    for _ in range(15):
        system = random_baranski_system(rng)
        directional, dimH, _ = baranski_dims(system)
        samples = rng.dirichlet(np.full(len(system.maps), 0.5), 300)
        for j, d_j in ((1, directional.d1), (2, directional.d2)):
            for w in samples:
                value, slack = axis_value(system, w, j)
                if slack >= 0.0:
                    assert d_j is not None and value <= d_j + 1e-12
        assert dimH == max(d for d in (directional.d1, directional.d2)
                           if d is not None)


def test_axis_maximum_inside_when_the_boundary_also_rises():
    # psi(1) > 0 alone must not pick the boundary
    system = validate(BOUNDARY_ALSO_RISES)
    problem = _AxisProblem(system, 1)
    value, w, diag = problem.maximise()
    (_, psi_at_one, (boundary_value, _, _), _), = problem.slices(
        [1.0], [0.0], [0.0])
    assert diag["boundary"] is False
    assert psi_at_one > 0.0 and value > boundary_value + 0.1
    assert axis_value(system, w)[0] == pytest.approx(value, abs=1e-12)
    rng = np.random.default_rng(5)
    for sample in rng.dirichlet(np.full(3, 0.5), 2000):
        sample_value, slack = axis_value(system, sample)
        assert slack < 0.0 or sample_value <= value + 1e-12


def test_baranski_branches_on_exceptional_zero():
    system = build_exceptional(0)
    d1, _, boundary = _AxisProblem(system, 1).maximise()
    d2, _, interior = _AxisProblem(system, 2).maximise()
    assert boundary["boundary"] is True
    assert interior["boundary"] is False
    # the boundary maximiser is uniform inside the two groups, with the
    # group split p0 that makes chi_1 = chi_2 = log 4
    p0 = EXC0_P0
    h = -(p0 * math.log(p0) + (1 - p0) * math.log(1 - p0))
    closed = (h + (1 - p0) * math.log(4) + p0 * math.log(8)) / math.log(4)
    assert d1 == pytest.approx(closed, abs=1e-14)
    assert d2 == pytest.approx(EXC0_D2, abs=1e-9)
    for diag in (boundary, interior):
        assert diag["stationarity_residual"] <= 1e-12


@settings(derandomize=True, database=None, deadline=None, max_examples=20)
@given(st.sampled_from((random_gl_system, random_baranski_system)),
       st.integers(0, 2 ** 32 - 1))
@example(lambda rng: validate(BOUNDARY_ALSO_RISES), 0)
@example(lambda rng: build_exceptional(0), 0)     # axis 1 on the boundary
@example(lambda rng: validate(SLIVER_MAPS), 0)
def test_lockstep_slices_equal_one_row_slices(draw_system, seed):
    system = draw_system(np.random.default_rng(seed))
    for j in long_axes(system):
        problem = _AxisProblem(system, j)
        if problem.flat:
            continue
        # the grid of maximise: up to theta = 1, or short of theta_hi <= 1
        up, n = (1.0, 12) if problem.hi > 1.0 else (problem.hi, 13)
        thetas = np.linspace(problem.lo, up, n + 1)[1:13].tolist()
        rows = problem.slices(thetas, [0.0] * 12, [0.0] * 12)
        for theta, psi, (s, _, _), _ in rows:
            (_, one_psi, (one_s, _, _), _), = problem.slices(
                [theta], [0.0], [0.0])
            assert abs(s - one_s) <= 4 * math.ulp(max(s, one_s))
            assert (psi > 0.0) == (one_psi > 0.0)


def test_iterations_count_gibbs_evaluations(monkeypatch):
    # one lockstep evaluation of all grid slices counts once; draws with a
    # shared fiber exponent (draw 13: one map per column) take no solve
    calls = []
    gibbs = _AxisProblem.gibbs

    def counted(self, s, kappa, theta):
        calls.append(len(s))
        return gibbs(self, s, kappa, theta)

    monkeypatch.setattr(_AxisProblem, "gibbs", counted)
    rng = np.random.default_rng(1)
    counts = []
    for _ in range(20):
        calls.clear()
        optimizer = gl_dims(random_gl_system(rng)).diagnostics["optimizer"]
        assert optimizer["iterations"] == len(calls)
        if calls:
            assert 12 in calls
            counts.append(optimizer["iterations"])
    assert len(counts) == 19
    assert np.median(counts) <= 30 and max(counts) <= 60


def test_one_class_long_axis_takes_the_box_root():
    # draw 21 is one row of taller-than-wide cells, GL along axis 2: with
    # one class H(eta w) = 0, and the maximum is the Moran root of the
    # orthogonal ratios, D_2, attained at w_i = b_i^D_2 with no solve
    rng = np.random.default_rng(2024)
    system = [random_baranski_system(rng) for _ in range(22)][21]
    for each in (system, transpose(system)):
        j, = long_axes(each)
        assert len(each.classes(j)) == 1
        report = gl_dims(each)
        assert report.dimH == report.dimB == each.analysis.axes[j - 1].box[0]
        optimizer = report.diagnostics["optimizer"]
        assert optimizer["iterations"] == 0 and optimizer["psi"] == 0.0
        assert optimizer["kappa"] == report.dimB
        assert optimizer["stationarity_residual"] <= 1e-12
        for w, m in zip(report.argmax_p, each.maps):
            assert w == pytest.approx(float(m.ratio(3 - j)) ** report.dimB,
                                      abs=1e-15)


@st.composite
def mcmullen_grids(draw):
    """(maps, p, q, counts): cells of a grid of p columns and q > p rows,
    mirrored in x = y or not, with counts the cells per column."""
    p = draw(st.integers(2, 5))
    q = draw(st.integers(p + 1, 9))
    cells = draw(st.sets(st.tuples(st.integers(0, p - 1),
                                   st.integers(0, q - 1)), min_size=2))
    maps = [DiagonalMap(Fraction(1, p), Fraction(1, q), Fraction(c, p),
                        Fraction(r, q)) for c, r in sorted(cells)]
    if draw(st.booleans()):
        maps = [DiagonalMap(m.r2, m.r1, m.d2, m.d1) for m in maps]
    counts = [sum(c == col for c, _ in cells) for col in range(p)]
    return maps, p, q, [n for n in counts if n]


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(mcmullen_grids())
def test_flat_maxima_are_mcmullen_roots(grid):
    # every map has theta = log p / log q: the maximum is the root of
    # sum_l N_l^theta p^-s = 1 (McMullen 1984), taken with no solve
    maps, p, q, counts = grid
    report = gl_dims(validate(maps))
    theta = math.log(p) / math.log(q)
    closed = math.log(math.fsum(n ** theta for n in counts)) / math.log(p)
    assert report.dimH == pytest.approx(closed, abs=1e-14)
    assert report.diagnostics["optimizer"]["iterations"] == 0


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(st.sampled_from([functools.partial(shared_exponent_gl_system, kind=k)
                        for k in ("one column", "one map per column",
                                  "identical fibers")]),
       st.integers(0, 2 ** 32 - 1))
@example(lambda rng: validate(NEAR_FLAT_ROWS), 0)
def test_shared_fiber_exponent_makes_the_gl_dimensions_equal(draw_system,
                                                             seed):
    # H(eta w) <= s_eta chi_j(w) and H(w) - H(eta w) <= t chi_j'(w) by
    # Gibbs' inequality, with equality at w_i = a_l^s_eta b_i^t: the
    # maximum is D_j = s_eta + t = dimA = dimL, with no solve
    system = draw_system(np.random.default_rng(seed))
    for each in (system, transpose(system)):
        report = gl_dims(each)
        assert report.dimL == report.dimH == report.dimB == report.dimA
        optimizer = report.diagnostics["optimizer"]
        assert optimizer["iterations"] == 0 and optimizer["psi"] == 0.0
        assert optimizer["stationarity_residual"] <= 1e-12


def test_near_flat_rows_take_the_box_root():
    report = gl_dims(validate(NEAR_FLAT_ROWS))
    assert report.dimH == report.dimB == NEAR_FLAT_ROWS_DIMH
    assert report.diagnostics["optimizer"]["iterations"] == 0


def test_gl_dims_needs_gl_class(monkeypatch):
    def refuse(self):
        raise AssertionError("maximised a Baranski axis")

    monkeypatch.setattr(_AxisProblem, "maximise", refuse)
    baranski = validate([([1, 4], [1, 2], 0, 0),
                         ([1, 2], [1, 4], [1, 2], [1, 2])])
    assert baranski.klass == "Baranski"
    with pytest.raises(WrongClass):
        gl_dims(baranski)
    with pytest.raises(WrongClass):
        gl_dims(build_exceptional("1/40"))


def test_gl_hausdorff_three_map_and_interiority():
    report = gl_dims(gl3())
    value, argmax = report.dimH, report.argmax_p
    assert value == pytest.approx(GL3_DIMH, abs=1e-6)
    assert isinstance(argmax, ProbabilityVector)
    assert min(argmax) >= 1e-9
    # weight splits evenly inside the two-map column at the optimum
    assert argmax.values[0] == pytest.approx(argmax.values[1], abs=1e-6)


def test_gl_hausdorff_uniform_system_collapses():
    system = validate([
        DiagonalMap(0.3, 0.2, 0.0, 0.0), DiagonalMap(0.3, 0.2, 0.0, 0.5),
        DiagonalMap(0.3, 0.2, 0.55, 0.0), DiagonalMap(0.3, 0.2, 0.55, 0.5),
    ])
    report = gl_dims(system)
    assert report.dimH == pytest.approx(report.dimB, abs=1e-8)
    assert report.dimB == pytest.approx(report.dimA, abs=1e-12)
    assert report.dimL == pytest.approx(report.dimA, abs=1e-12)


def test_ordering_invariant_on_random_systems():
    rng = np.random.default_rng(12345)
    for _ in range(100):
        report = gl_dims(random_gl_system(rng))
        assert 0.0 <= report.dimL <= report.dimH + 1e-9
        assert report.dimH <= report.dimB + 1e-9
        assert report.dimB <= report.dimA + 1e-9
        assert report.dimA <= 2.0 + 1e-9


@functools.cache
def load_dims_oracle():
    path = Path(__file__).parent / "oracles" / "dims_oracle.py"
    spec = importlib.util.spec_from_file_location("dims_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def as_floats(system):
    return [tuple(float(v) for v in (m.r1, m.r2, m.d1, m.d2))
            for m in system.maps]


@st.composite
def grid_cells(draw):
    """Cells of a random grid of 2 to 4 columns and rows whose sides reach
    down to 1e-3 of the largest, so sliver cells mix with near-full ones."""
    def sides():
        raw = draw(st.lists(st.floats(1e-3, 1.0), min_size=2, max_size=4))
        scale = draw(st.floats(0.5, 0.999)) / math.fsum(raw)
        return [v * scale for v in raw]

    widths, heights = sides(), sides()
    x = np.concatenate([[0.0], np.cumsum(widths)[:-1]])
    y = np.concatenate([[0.0], np.cumsum(heights)[:-1]])
    cells = [(a, b) for a in range(len(widths)) for b in range(len(heights))]
    pick = draw(st.sets(st.sampled_from(cells), min_size=2,
                        max_size=len(cells) - 1))
    return [DiagonalMap(widths[a], heights[b], float(x[a]), float(y[b]))
            for a, b in sorted(pick)]


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(grid_cells())
@example(SLIVER_MAPS)
def test_baranski_ordering_and_box_roots(maps):
    system = validate(maps)
    assume(system.klass == "Baranski")
    _, dimH, dimA = baranski_dims(system)
    dimB = system.analysis.box[0]
    assert dimH <= dimB + 1e-9
    assert dimB <= dimA + 1e-9
    assert dimA <= 2.0 + 1e-9
    roots = load_dims_oracle().box_roots(as_floats(system))
    for axis, expected in zip(system.analysis.axes, roots):
        assert axis.box[0] == pytest.approx(expected, abs=1e-12)


@st.composite
def near_square_grids(draw):
    """Cells of an exact grid whose cell (0, 0) is square but for a push of
    +-1/10^k, 15 <= k <= 20, which double precision may not see."""
    def sides():
        return [Fraction(v, 10) for v in
                draw(st.lists(st.integers(1, 3), min_size=2, max_size=3))]

    widths, heights = sides(), sides()
    push = draw(st.sampled_from((-1, 1))) * Fraction(1, 10 ** draw(
        st.integers(15, 20)))
    widths[0] = heights[0] + push
    x = [sum(widths[:a], Fraction(0)) for a in range(len(widths))]
    y = [sum(heights[:b], Fraction(0)) for b in range(len(heights))]
    cells = [(a, b) for a in range(len(widths)) for b in range(len(heights))]
    pick = draw(st.sets(st.sampled_from(cells[1:]), min_size=1))
    return [DiagonalMap(widths[a], heights[b], x[a], y[b])
            for a, b in [(0, 0)] + sorted(pick)]


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(near_square_grids())
@example([DiagonalMap(Fraction(1, 3), Fraction(1, 3), Fraction(a, 3),
                      Fraction(b, 3)) for a in (0, 2) for b in (0, 2)])
@example(NEAR_FLAT_MAPS)
def test_axis_values_follow_the_exact_orientations(maps):
    system = validate(maps)
    signs = [(m.r1 > m.r2) - (m.r1 < m.r2) for m in system.maps]
    omegas = [classify_word(system, EventuallyPeriodicWord((), (i,)))[0]
              for i in range(len(maps))]
    assert [{"Omega1": 1, "Omega0": 0, "Omega2": -1}[omega]
            for omega in omegas] == signs == list(system.orientation)
    directional, _, _ = baranski_dims(system)
    square = [float(m.r1) for m in maps if float(m.r1) == float(m.r2)]
    for side, d in ((1, directional.d1), (-1, directional.d2)):
        assert (d is None) == (side not in signs and any(signs))
        assert d is None or 0.0 <= d <= 2.0
        if side in signs and all(float(m.r1) == float(m.r2)
                                 for m, sign in zip(maps, signs)
                                 if sign == side):
            # P_j rounds to the face of the maps square in floats, where
            # the value is H(w)/chi(w), maximal at their Moran root
            assert d == pytest.approx(load_dims_oracle().root(
                lambda t: math.fsum(r ** t for r in square) - 1.0, 0.0),
                abs=1e-12)


def test_box_roots_match_the_brentq_oracle():
    box_roots = load_dims_oracle().box_roots
    rng = np.random.default_rng(99)
    for _ in range(20):
        system = random_gl_system(rng)
        d1, _ = box_roots(as_floats(system))
        assert gl_dims(system).dimB == pytest.approx(d1, abs=1e-12)
        assert system.analysis.box == system.analysis.axes[0].box
    systems = [random_baranski_system(rng) for _ in range(10)]
    for system in systems + [validate(SLIVER_MAPS)]:
        roots = box_roots(as_floats(system))
        for axis, expected in zip(system.analysis.axes, roots):
            assert axis.box[0] == pytest.approx(expected, abs=1e-12)
            assert axis.box[1] <= 1e-12
        assert system.analysis.box[0] == max(axis.box[0]
                                             for axis in system.analysis.axes)


def transpose(system):
    """The mirror image of a carpet in the diagonal x = y."""
    return validate([DiagonalMap(m.r2, m.r1, m.d2, m.d1) for m in system.maps])


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(st.sampled_from((random_gl_system, random_baranski_system)),
       st.integers(0, 2 ** 32 - 1),
       st.lists(st.integers(0, 11), min_size=1, max_size=3))
@example(lambda rng: gl3(), 0, [0, 2, 1])
def test_ball_count_is_transpose_invariant(draw_system, seed, period):
    # an approximate square extends its cylinder along the longer axis, so
    # the mirror image of a ball's cover is the cover of the mirrored ball,
    # and the mirror image of gamma's approximate square is the mirrored one
    system = draw_system(np.random.default_rng(seed))
    gamma = EventuallyPeriodicWord((), tuple(i % len(system) for i in period))
    mirror = transpose(system)
    for k in (3, 4, 5):
        assert box_count_ball(mirror, gamma, 0.125, 2.0 ** -k) == \
            box_count_ball(system, gamma, 0.125, 2.0 ** -k)
        square = approximate_square(system, gamma, k)
        image = approximate_square(mirror, gamma, k)
        rect = square.rect
        assert image.rect == Rect(rect.y0, rect.x0, rect.height, rect.width)
        assert image.extension == square.extension
        if square.extension:
            assert image.axis == 3 - square.axis


def test_gl_hausdorff_equals_baranski_d1():
    rng = np.random.default_rng(7)
    systems = [gl3()] + [random_gl_system(rng) for _ in range(5)]
    for system in systems:
        value = gl_dims(system).dimH
        directional, dimH, _ = baranski_dims(system)
        assert directional.d2 is None
        assert directional.d1 == pytest.approx(value, abs=1e-6)
        assert dimH == pytest.approx(value, abs=1e-6)


def test_baranski_dims_exceptional_zero():
    directional, dimH, dimA = baranski_dims(build_exceptional(0))
    assert directional.A1 == pytest.approx(2.0, abs=1e-9)
    assert directional.A2 == pytest.approx(EXC0_D2, abs=1e-9)
    assert directional.t1 == pytest.approx(1.0, abs=1e-12)
    assert directional.d1 == pytest.approx(EXC0_D1, abs=1e-12)
    assert directional.d2 == pytest.approx(EXC0_D2, abs=1e-6)
    assert dimH == pytest.approx(EXC0_D2, abs=1e-6)
    assert dimA == pytest.approx(2.0, abs=1e-9)


def test_baranski_dims_exceptional_fortieth():
    directional, dimH, dimA = baranski_dims(build_exceptional(Fraction(1, 40)))
    assert directional.A1 == pytest.approx(EXC40_A1, abs=1e-9)
    assert directional.A2 == pytest.approx(EXC40_A2, abs=1e-9)
    assert directional.d1 == pytest.approx(EXC40_D1, abs=1e-12)
    assert directional.d2 == pytest.approx(EXC40_D2, abs=1e-6)
    assert directional.d1 < directional.d2
    assert directional.A1 > directional.A2
    assert dimA == pytest.approx(EXC40_A1, abs=1e-9)


def test_baranski_dims_reads_the_analysis():
    # on GL input dimA is the column axis' total, as in gl_dims, although
    # the rows of this McMullen carpet are aligned and give A_2 = 2
    system = mcmullen()
    assert baranski_dims(system)[2] == gl_dims(system).dimA
    assert gl_dims(system).dimA == pytest.approx(
        1 + math.log(3) / math.log(4), abs=1e-12)
    for system in (gl3(), build_exceptional(0),
                   build_exceptional(Fraction(1, 40))):
        assert baranski_dims(system)[1:] == (system.analysis.dimH,
                                             system.analysis.dimA)


def test_baranski_dims_square_symmetric():
    system = validate([
        ([1, 3], [1, 3], 0, 0), ([1, 3], [1, 3], [2, 3], 0),
        ([1, 3], [1, 3], 0, [2, 3]), ([1, 3], [1, 3], [2, 3], [2, 3]),
    ])
    directional, dimH, dimA = baranski_dims(system)
    expected = math.log(4) / math.log(3)
    assert directional.d1 == pytest.approx(directional.d2, abs=1e-8)
    assert directional.A1 == pytest.approx(directional.A2, abs=1e-12)
    assert dimH == pytest.approx(expected, abs=1e-8)
    assert dimA == pytest.approx(expected, abs=1e-9)


def test_baranski_1d_reduction_curve():
    system = build_exceptional(0)
    d1_at_zero, _, p0 = baranski_1d_reduction(system, 0.0)
    assert d1_at_zero == 0.0
    assert p0 == pytest.approx(EXC0_P0, abs=1e-12)
    assert p0 == pytest.approx(math.log(4.0 / 3.0) / math.log(2.0), abs=1e-12)
    d1_star, _, _ = baranski_1d_reduction(system, 0.415974485884)
    _, d2_star, _ = baranski_1d_reduction(system, 0.580810911591)
    assert d1_star == pytest.approx(EXC0_SUP_D1, abs=1e-9)
    assert d2_star == pytest.approx(EXC0_SUP_D2, abs=1e-9)
    # coarse independent sweep: suprema and the D2 argmax location
    grid = np.linspace(0.0, 1.0, 20001)
    values = [baranski_1d_reduction(system, p)[:2] for p in grid]
    sup1 = max(v[0] for v in values)
    sup2 = max(v[1] for v in values)
    argmax2 = float(grid[int(np.argmax([v[1] for v in values]))])
    assert sup1 == pytest.approx(EXC0_SUP_D1, abs=1e-6)
    assert sup2 == pytest.approx(EXC0_SUP_D2, abs=1e-6)
    assert p0 < argmax2 < 1.0


def test_baranski_1d_reduction_shape_errors():
    with pytest.raises(WrongShape):
        baranski_1d_reduction(gl3(), 0.5)
    with pytest.raises(RangeError):
        baranski_1d_reduction(build_exceptional(0), 1.5)


def test_reduction_suprema_matches_curve_maxima():
    report = reduction_suprema(build_exceptional(0))
    assert report["sup_D1"] == pytest.approx(EXC0_SUP_D1, abs=1e-9)
    assert report["sup_D2"] == pytest.approx(EXC0_SUP_D2, abs=1e-9)
    assert report["argmax_D1"] == pytest.approx(0.415974485884, abs=1e-6)
    assert report["argmax_D2"] == pytest.approx(0.580810911591, abs=1e-6)
    assert report["p0"] == pytest.approx(EXC0_P0, abs=1e-12)
    # the D2 maximizer sits right of p0, so the spliced curve peaks there
    assert report["p0"] < report["argmax_D2"] < 1.0
    assert report["dimH"] == pytest.approx(report["sup_D2"], abs=1e-12)
