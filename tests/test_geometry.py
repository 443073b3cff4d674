"""Geometry layer: sections, approximate squares, pseudo-cylinder counts,
ball covers, point clouds, tangents, and the 1-D fixtures.

Small integer counts come from tests/oracles/geometry_oracle.py (independent
recursion / greedy sweep); closed-form dimension targets from
tests/oracles/dims_oracle.py.  Slopes and distances produced by the package
itself are pinned as regressions next to the tolerance that matters.
"""

import importlib.util
import math
import pickle
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from carpetdim import (DiagonalMap, EmptyInput, PointCloud, RangeError, Rect,
                       WrongClass, WrongShape, approximate_square,
                       attractor_cloud, box_count_ball, box_dimension_estimate,
                       build_exceptional, cylinders_to_scale, directed_hausdorff,
                       fixture_fast_decay, fixture_progressions,
                       hausdorff_distance, projection_cloud,
                       pseudo_cylinder_count, psi_estimate, render_svg,
                       scale_count_table, slice_cloud, tangent_cloud, validate,
                       write_scale_counts_csv)
from carpetdim.dimensions import _AxisProblem
from carpetdim.geometry import (_band_guard, _band_rates, _grid_count,
                                _grid_counts, _map_steps, _near, _point_at,
                                _refine, _root, _squares)
from carpets import (HALF, QUARTER, gl2, gl3, glmix, random_baranski_system,
                     random_gl_system, square4, word)
from oracles.frozen import GL3_DIMB, GL3_DIMB_ESTIMATE


def uni4():
    # two columns x two rows of uniform 1/2 x 1/4 maps
    return validate([
        ([1, 2], [1, 4], 0, 0), ([1, 2], [1, 4], 0, [1, 4]),
        ([1, 2], [1, 4], [1, 2], 0), ([1, 2], [1, 4], [1, 2], [1, 4]),
    ])


def side(system, letters, axis):
    out = 1.0
    for m in letters:
        out *= float(system.maps[m].r1 if axis == 1 else system.maps[m].r2)
    return out


# --------------------------------------------------------- basic containers

def test_rect_and_cloud_validation():
    with pytest.raises(RangeError):
        Rect(0, 0, 0, 1)
    with pytest.raises(RangeError):
        Rect(0, 0, 1, -1)
    with pytest.raises(EmptyInput):
        PointCloud((), 0.5)
    with pytest.raises(RangeError):
        PointCloud(((0.0, 0.0),), 0.0)
    # points: one read-only (N, d) float64 array, copied from the input
    rows, other = ((0.0, 0.0), (1.0, 0.5)), ((3.0, 4.0), (0.25, 1.0))
    source = np.array(rows, dtype=float)
    cloud = PointCloud(source, 0.5)
    assert cloud.points.shape == (2, 2) and cloud.points.dtype == np.float64
    with pytest.raises(ValueError):
        cloud.points[0, 0] = 2.0
    source[0, 0] = 2.0
    assert cloud.points[0, 0] == 0.0
    for bad in ((0.0, 1.0, 2.0), ((0.0,), (1.0, 2.0)), ((),), 1.0):
        with pytest.raises(WrongShape):
            PointCloud(bad, 0.5)
    assert hausdorff_distance(PointCloud(rows, 0.5), PointCloud(other, 0.5)) \
        == hausdorff_distance(cloud, PointCloud(np.array(other), 0.5)) \
        == math.hypot(2.0, 3.5)


# ----------------------------------------------------------------- sections

def test_point_at_is_exact_for_ratios_near_one():
    from carpetdim.geometry import _point_at
    system = validate([([99, 100], [1, 3], [1, 100], 0),
                       ([99, 100], [1, 3], [1, 100], [2, 3])])
    assert _point_at(system, word((), (0,))) == (1.0, 0.0)
    assert _point_at(system, word((1,), (0,))) == (1.0, 2 / 3)
    assert _point_at(system, word((), (0, 1))) == (1.0, 0.25)


def test_cylinders_to_scale_uniform_counts():
    system = gl3()
    rows = cylinders_to_scale(system, 0.25 ** 3, 2)
    assert len(rows) == 27
    assert all(len(w) == 3 for w, _ in rows)
    sq = square4()
    assert len(cylinders_to_scale(sq, 0.9, 0)) == 4
    assert len(cylinders_to_scale(sq, 0.2, 0)) == 16


def test_cylinders_to_scale_is_a_section():
    # no word is a prefix of another, and each word only just passes the scale
    system = build_exceptional(Fraction(1, 40))
    rows = cylinders_to_scale(system, 0.1, 0)
    words = [w for w, _ in rows]
    assert not any(a != b and b[:len(a)] == a for a in words for b in words)
    for w, rect in rows:
        assert max(rect.width, rect.height) <= 0.1
        parent = 1.0 if len(w) == 1 else max(side(system, w[:-1], 1),
                                             side(system, w[:-1], 2))
        assert parent > 0.1


def test_cylinders_to_scale_rejects_bad_arguments():
    system = gl3()
    for r in (0.0, 1.0, -0.5):
        with pytest.raises(RangeError):
            cylinders_to_scale(system, r, 0)
    with pytest.raises(RangeError):
        cylinders_to_scale(system, 0.5, 3)


# ------------------------------------------------------- approximate squares

def test_approximate_square_uniform_lengths():
    # widths 1/2, heights 1/4: stage-k square uses 2k letters, so the
    # extension replays exactly k column symbols (oracle: uniform L_k = 2k)
    system = gl3()
    gamma = word((), (0, 1, 2))
    for k in (1, 2, 3, 4):
        sq = approximate_square(system, gamma, k)
        assert len(sq.base) == k
        assert len(sq.extension) == k
        assert sq.width / sq.height == pytest.approx(1.0, abs=1e-12)
        assert sq.axis == 1


def test_approximate_square_constant_word():
    sq = approximate_square(gl3(), word((), (0,)), 2)
    assert sq.base == (0, 0)
    assert sq.extension == (0, 0)
    assert sq.width == pytest.approx(0.0625)
    assert (sq.rect.x0, sq.rect.y0) == (0.0, 0.0)
    assert sq.rect.width == pytest.approx(0.0625)


def test_approximate_square_aspect_band():
    # the extended side ends at or below the other, short of it by at most
    # one extension step, in either regime
    system = build_exceptional(Fraction(1, 40))
    col_bound = min(float(c.ratio) for c in system.columns)
    row_bound = min(float(r.ratio) for r in system.rows)
    rng = np.random.default_rng(1)
    seen = set()
    for _ in range(25):
        per = tuple(int(v) for v in rng.integers(0, 12, size=int(rng.integers(1, 4))))
        k = int(rng.integers(1, 6))
        sq = approximate_square(system, word((), per), k)
        aspect = (sq.width / sq.height if sq.axis == 1
                  else sq.height / sq.width)
        bound = col_bound if sq.axis == 1 else row_bound
        assert bound - 1e-12 <= aspect <= 1.0 + 1e-12
        seen.add(sq.axis)
    assert seen == {1, 2}


def test_approximate_square_is_a_leaf_of_the_square_cover():
    # the approximate square is the _squares leaf over gamma's k-cylinder
    # on gamma's path; both covers are pruned to a few ulps around
    # pi(gamma), which is rounded from Fractions
    rng = np.random.default_rng(26)
    for system in (build_exceptional(Fraction(1, 40)), gl3(),
                   random_gl_system(rng)):
        n = len(system.maps)
        for _ in range(40):
            gamma = word(*(rng.integers(0, n, size=rng.integers(low, 4))
                           .tolist() for low in (0, 1)))
            k = int(rng.integers(1, 7))
            near = _near(*_point_at(system, gamma), 8 * 2.0 ** -52)
            bases = _refine(_root(), _map_steps(system.maps),
                            lambda x0, y0, w, h, depth: depth == k, near)
            leaves = {rect for block in _squares(bases, system, near)
                      for rect in zip(*(a.tolist() for a in block))}
            rect = approximate_square(system, gamma, k).rect
            assert (rect.x0, rect.y0, rect.width, rect.height) in leaves


def test_approximate_square_rejects_nonpositive_stage():
    with pytest.raises(RangeError):
        approximate_square(gl3(), word((), (0,)), 0)


# ------------------------------------------------------ pseudo-cylinder counts

def test_pseudo_count_uniform_examples():
    # oracle: uniform 2-column count = 2, at-threshold count = 1
    system = uni4()
    assert pseudo_cylinder_count(system, (0,), ()) == 2
    assert pseudo_cylinder_count(system, (0,), (0,)) == 1


def test_pseudo_count_exceptional_wide_cylinder():
    # oracle: exceptional wide count = 5 (one wide + four narrow columns)
    system = build_exceptional(Fraction(1, 40))
    assert pseudo_cylinder_count(system, (0,), ()) == 5


def test_pseudo_count_rejects_tall_input():
    system = build_exceptional(Fraction(1, 40))
    with pytest.raises(WrongShape):
        pseudo_cylinder_count(system, (4,), ())
    # map 0 is wider than tall, so extending rows leaves it short too
    with pytest.raises(WrongShape):
        pseudo_cylinder_count(system, (0,), (), axis=2)


def test_pseudo_count_needs_aligned_projections():
    bad = validate([
        DiagonalMap(HALF, QUARTER, Fraction(0), Fraction(0)),
        DiagonalMap(Fraction(1, 3), Fraction(1, 5), QUARTER, HALF),
    ])
    assert bad.klass == "DiagonalOnly"
    with pytest.raises(WrongClass):
        pseudo_cylinder_count(bad, (0,), ())


def test_pseudo_count_comparable_to_aspect_power():
    # count ~ (width/height)^s with s the column-ratio root; one constant
    # works across random wide pseudo-cylinders
    system = glmix()
    golden = (math.sqrt(5.0) - 1.0) / 2.0       # (1/2)^s + (1/4)^s = 1
    s = math.log(1.0 / golden) / math.log(2.0)
    rng = np.random.default_rng(3)
    ratios = []
    for _ in range(50):
        i = tuple(int(v) for v in rng.integers(0, 3, size=int(rng.integers(1, 4))))
        uj = tuple(int(v) for v in rng.integers(0, 2, size=int(rng.integers(0, 4))))
        width = side(system, i, 1) * math.prod(
            [float(system.columns[c].ratio) for c in uj] or [1.0])
        height = side(system, i, 2)
        if width < height:
            continue
        count = pseudo_cylinder_count(system, i, uj)
        ratios.append(count / (width / height) ** s)
    assert len(ratios) >= 15
    assert max(ratios) / min(ratios) < 4.0


def test_pseudo_count_square_symmetry_and_threshold():
    system = square4()
    assert pseudo_cylinder_count(system, (0, 1), (), axis=1) == \
        pseudo_cylinder_count(system, (0, 1), (), axis=2) == 1
    with pytest.raises(RangeError):
        pseudo_cylinder_count(system, (0,), (), axis=3)


# ----------------------------------------------------------------- ball covers

def test_box_count_ball_doubling_and_monotone():
    system = gl3()
    gamma = word((), (0,))
    for scale in (1 / 16, 1 / 64, 1 / 256):
        assert box_count_ball(system, gamma, scale, scale) <= 8
    counts = [box_count_ball(system, gamma, 0.25, 0.25 * 2.0 ** -m)
              for m in range(2, 7)]
    assert all(a <= b for a, b in zip(counts, counts[1:]))


def test_box_count_ball_slope_tracks_box_dimension():
    # log N(R, r) / log(R/r) approaches dim_B at a generic center;
    # regression: fitted slope 1.2808 over R/r = 2^4 .. 2^12
    system = gl3()
    gamma = word((), (0, 2, 1))
    ms = np.arange(4, 13)
    counts = [box_count_ball(system, gamma, 0.25, 0.25 * 2.0 ** -m) for m in ms]
    slope = np.polyfit(ms * math.log(2.0), np.log(counts), 1)[0]
    assert slope == pytest.approx(GL3_DIMB, abs=0.08)


def test_box_count_ball_uniform_slope_near_one():
    # single column: the ball cover grows like the vertical fiber alone
    system = gl2()
    n = box_count_ball(system, word((), (0,)), 0.25, 0.25 * 2.0 ** -10)
    slope = math.log(n) / (10 * math.log(2.0))
    assert slope == pytest.approx(1.0, abs=0.1)


def test_box_count_ball_rejects_bad_radii():
    system = gl3()
    gamma = word((), (0,))
    with pytest.raises(RangeError):
        box_count_ball(system, gamma, 0.25, 0.3)
    with pytest.raises(RangeError):
        box_count_ball(system, gamma, 1.0, 0.25)
    with pytest.raises(RangeError):
        box_count_ball(system, gamma, 0.25, 0.0)


# -------------------------------------------------------------- psi estimates

def test_psi_estimate_single_column_near_one():
    value = psi_estimate(gl2(), 2.0 ** -10)
    assert value == pytest.approx(1.0, abs=0.1)


def test_psi_estimate_bounded_by_plane():
    system = build_exceptional(Fraction(1, 40))
    assert psi_estimate(system, 2.0 ** -8) <= 2.0 + 1e-9


def test_psi_estimate_sees_thick_column():
    # the two-map column carries more mass than a unit-dimensional fiber,
    # but one window octave is always spent crossing the ball diameter,
    # capping the readout at dimA * (1 - log 2 / log(1/delta)) = 1.375
    system = gl3()
    value = psi_estimate(system, 2.0 ** -12, words=[word((), (0, 1))],
                         radii=(0.5, 0.25))
    assert 1.2 <= value <= 1.5


def test_psi_estimate_rejects_bad_delta():
    for delta in (0.0, 1.0, -0.5):
        with pytest.raises(RangeError):
            psi_estimate(gl3(), delta)


def test_psi_estimate_rejects_nonpositive_radii():
    # a negative radius used to refine forever, a zero one to divide by zero
    for radii in ((-0.25,), (0.0,), (0.25, 0.0)):
        with pytest.raises(RangeError):
            psi_estimate(gl3(), 0.5, radii=radii)


# ----------------------------------------------------------- packing exponents

def test_packing_check_on_gl_never_maximises(monkeypatch):
    # dimB and dimA, the exponents that bound packings of a ball, come from
    # Moran roots alone; glmix's dimH needs the Ledrappier-Young
    # maximisation, these two never do
    def refuse(self):
        raise AssertionError("Ledrappier-Young maximisation for dimA")

    monkeypatch.setattr(_AxisProblem, "maximise", refuse)
    system = glmix()
    dim_b, _ = system.analysis.box
    assert 0.0 < dim_b < system.analysis.dimA < 2.0
    assert "analysis" in vars(system)
    assert "analysis" not in vars(pickle.loads(pickle.dumps(system)))


# --------------------------------------------------------------- point clouds

def test_hausdorff_distances():
    a = PointCloud(((0.0, 0.0), (1.0, 0.0)), 1e-9)
    assert hausdorff_distance(a, a) == 0.0
    b = PointCloud(((3.0, 4.0),), 1e-9)
    single = PointCloud(((0.0, 0.0),), 1e-9)
    assert hausdorff_distance(single, b) == pytest.approx(5.0)
    shifted = PointCloud(tuple((x + 0.5, y) for x, y in a.points), 1e-9)
    assert directed_hausdorff(a, shifted) == pytest.approx(0.5)


def test_attractor_cloud_reaches_fixed_point():
    cloud = attractor_cloud(gl3(), 1 / 64)
    nearest = min(math.hypot(x, y) for x, y in cloud.points)
    assert nearest <= 1 / 64
    with pytest.raises(RangeError):
        attractor_cloud(gl3(), 0.0)


def test_projection_cloud_sorted_unit_interval():
    cloud = projection_cloud(gl3(), 1, 1 / 64)
    xs = [p[0] for p in cloud.points]
    assert xs == sorted(xs)
    assert 0.0 <= xs[0] and xs[-1] <= 1.0


def test_slice_cloud_single_and_double_columns():
    system = gl3()
    lone = slice_cloud(system, word((), (2,)), 0, 1, 1 / 64)
    assert len(lone.points) == 1
    double = slice_cloud(system, word((), (0,)), 0, 1, 1 / 64)
    ys = [p[0] for p in double.points]
    assert len(ys) == 8                   # (1/4)^3 <= 1/64: 2^3 branches
    assert max(ys) <= 2.0 / 3.0 + 1 / 64  # offsets {0, 1/2} with ratio 1/4


def test_tangent_cloud_first_level_spans_columns():
    cloud = tangent_cloud(gl2(), word((), (0,)), 1, 1 / 64)
    xs = [p[0] for p in cloud.points]
    assert min(xs) <= 0.1 and max(xs) >= 0.9


def test_tangent_cloud_converges_to_product():
    # distance from (projection x slice) to the stage-k tangent decays like
    # kappa^k with kappa = 1/2; constant fitted at k = 2
    system = gl3()
    gamma = word((), (0,))
    res = 2.0 ** -11
    px = projection_cloud(system, 1, res)
    py = slice_cloud(system, gamma, 0, 1, res)
    product = PointCloud(tuple((x[0], y[0]) for x in px.points
                               for y in py.points), res)
    dist = {k: directed_hausdorff(product, tangent_cloud(system, gamma, k, res))
            for k in (2, 3, 4, 5, 6)}
    kappa = 0.5
    for k in (2, 3, 4, 5):
        assert dist[k + 1] <= (kappa + 0.1) * dist[k] + 2 * res
    c = (dist[2] - 2 * res) / kappa ** 2
    for k in (4, 6):
        assert dist[k] <= c * kappa ** k + 2 * res
    assert dist[6] <= 2 * res


def test_tangent_cloud_rejects_bad_inputs():
    with pytest.raises(WrongClass):
        tangent_cloud(build_exceptional(Fraction(1, 40)), word((), (0,)), 2, 0.01)
    with pytest.raises(RangeError):
        tangent_cloud(gl3(), word((), (0,)), 2, 0.0)


# ------------------------------------------------------------------ fixtures

def test_fixture_progressions_blocks():
    cloud = fixture_progressions(6)
    points = [p[0] for p in cloud.points]
    assert len(points) == 1 + sum(k + 1 for k in range(1, 7))
    assert points[0] == 0.0
    block2 = [p for p in points if 0.25 <= p <= 0.5 - 1e-12]
    assert block2 == pytest.approx([0.25, 0.3125, 0.375])
    for k in range(2, 7):
        block = [p for p in points if 2.0 ** -k <= p < 2.0 ** -(k - 1)]
        assert len(block) == k + 1
        assert max(block) <= 2.0 ** -k + k * 4.0 ** -k
    with pytest.raises(RangeError):
        fixture_progressions(1)


def greedy_cover(points, diameter):
    count, anchor = 0, None
    for p in sorted(points):
        if anchor is None or p - anchor >= diameter:
            count += 1
            anchor = p
    return count


def test_fixture_fast_decay_two_interval_window():
    cloud = fixture_fast_decay(8)
    points = [p[0] for p in cloud.points]
    for k in range(2, 8):
        a_k = 4.0 ** -(k * k)
        a_next = 4.0 ** -((k + 1) * (k + 1))
        scaled = [p / a_k for p in points if p <= a_k * (1 + 1e-12)]
        assert scaled, "window must be populated"
        for q in scaled:
            assert q <= a_next / a_k * (1 + 1e-9) or q >= 1.0 / k - 1e-12
        assert k * (a_next / a_k) <= 1.0 / k


def test_fixture_fast_decay_window_counts():
    # oracle: greedy cover of block k needs l_k + 1 intervals
    cloud = fixture_fast_decay(8)
    points = [p[0] for p in cloud.points]
    for k in range(2, 9):
        a_k = 4.0 ** -(k * k)
        l_k = (2 ** k) // k
        window = [p for p in points if p <= a_k * (1 + 1e-12)]
        assert greedy_cover(window, a_k * 2.0 ** -k) >= l_k / 2
    with pytest.raises(RangeError):
        fixture_fast_decay(1)


# ----------------------------------------------------------- render and CSV

def test_render_svg_counts_and_orientation(tmp_path):
    system = gl3()
    path = tmp_path / "carpet.svg"
    assert render_svg(system, 2, str(path)) == 9
    assert render_svg(system, 1, str(path)) == 3
    text = path.read_text()
    # the y = 1/2 map lands at SVG y = 1 - 3/4 after the flip
    assert '<rect x="0.0000" y="0.2500" width="0.5000" height="0.2500"' in text
    with pytest.raises(RangeError):
        render_svg(system, -1, str(path))


def test_scale_count_table_and_csv(tmp_path):
    system = gl3()
    rows = scale_count_table(system, (4, 5))
    assert rows == [(0.0625, 40), (0.03125, 121)]
    path = tmp_path / "counts.csv"
    write_scale_counts_csv(rows, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "scale,count"
    parsed = [(float(a), int(b)) for a, b in
              (line.split(",") for line in lines[1:])]
    assert parsed == rows
    with pytest.raises(RangeError):
        scale_count_table(system, (0,))
    with pytest.raises(RangeError):
        scale_count_table(system, (2.5,))


def test_scale_count_table_checks_every_exponent_first(monkeypatch):
    from carpetdim import geometry

    counted = []
    monkeypatch.setattr(geometry, "_ladder_count",
                        lambda system, scales, rates:
                        counted.extend(scales) or [0] * len(scales))
    for ks in ((10, 0), (4, 2.5), (3, -1, 5), (6, math.nan), (7, math.inf)):
        with pytest.raises(RangeError):
            scale_count_table(gl3(), ks)
    assert counted == []
    assert scale_count_table(gl3(), iter((4, 5))) == [(0.0625, 0), (0.03125, 0)]
    assert counted == [0.0625, 0.03125]


def load_geometry_oracle():
    path = Path(__file__).parent / "oracles" / "geometry_oracle.py"
    spec = importlib.util.spec_from_file_location("geometry_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@st.composite
def small_grid_carpets(draw):
    """Cells of a random grid of 2 or 3 columns and rows with sides down to
    about 1/100: mixed carpets put wide and tall cells side by side (the
    Baranski shapes), flat ones keep every row lower than the narrowest
    column (the Gatzouras-Lalley shapes)."""
    def sides(total):
        raw = draw(st.lists(st.floats(0.02, 1.0), min_size=2, max_size=3))
        return [v * total / math.fsum(raw) for v in raw]

    widths = sides(draw(st.floats(0.5, 0.999)))
    total = draw(st.floats(0.5, 0.999))
    if draw(st.booleans()):
        total = min(total, 0.9 * min(widths))
    heights = sides(total)
    x = np.concatenate([[0.0], np.cumsum(widths)[:-1]])
    y = np.concatenate([[0.0], np.cumsum(heights)[:-1]])
    cells = [(a, b) for a in range(len(widths)) for b in range(len(heights))]
    pick = draw(st.sets(st.sampled_from(cells), min_size=2))
    return [(widths[a], heights[b], float(x[a]), float(y[b]))
            for a, b in sorted(pick)]


# a wide band whose top, and the tops of its descendants along map 1, lie
# on the grid line y = 1/2; and a wide band in the clamped top row
BAND_ON_GRID_LINE = [(0.75, 0.25, 0.0, 0.25), (0.25, 0.5, 0.75, 0.5)]
BAND_IN_TOP_ROW = [(0.75, 0.25, 0.0, 0.75), (0.25, 0.5, 0.75, 0.0)]
# maps that reach below 0 on both axes and above 1 on the second
OUTSIDE_THE_SQUARE = [(0.4, 0.3, -0.7, 0.0), (0.5, 0.5, 0.5, 0.6),
                      (0.3, 0.3, 0.2, -0.5)]


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(small_grid_carpets(), st.integers(1, 5))
@example(BAND_ON_GRID_LINE, 3)
@example(BAND_IN_TOP_ROW, 2)
@example(OUTSIDE_THE_SQUARE, 5)
def test_grid_count_matches_full_refinement(maps, k):
    expected = load_geometry_oracle().grid_count(maps, 2.0 ** -k)
    assert _grid_count(validate(maps), 2.0 ** -k) == expected


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(small_grid_carpets(),
       st.lists(st.integers(1, 5), min_size=1, max_size=5, unique=True))
@example(BAND_ON_GRID_LINE, [3, 1, 5])
@example(BAND_IN_TOP_ROW, [2, 4])
@example(OUTSIDE_THE_SQUARE, [2, 3, 4, 5])
def test_grid_count_ladder_matches_full_refinement_at_every_rung(maps, ks):
    oracle = load_geometry_oracle()
    scales = [2.0 ** -k for k in ks]
    assert _grid_counts(validate(maps), scales) == \
        [oracle.grid_count(maps, s) for s in scales]


def test_grid_counts_with_complex_keys_below_the_unit_square():
    # from 2^-31 on, cells take complex keys, whose real parts are negative
    # left of x = 0; a ladder mixes them with int64 codes at 2^-20
    maps = [(0.01, 0.01, -0.5, 0.0), (0.01, 0.01, 1.2, 0.5)]
    ks = [20, 31, 33, 40]
    expected = [load_geometry_oracle().grid_count(maps, 2.0 ** -k)
                for k in ks]
    system = validate(maps)
    assert [_grid_count(system, 2.0 ** -k) for k in ks] == expected
    assert _grid_counts(system, [2.0 ** -k for k in (33, 20, 40, 31)]) == \
        [expected[2], expected[0], expected[3], expected[1]]


def test_estimate_counts_its_ladder_in_one_refinement(monkeypatch):
    from carpetdim import geometry

    runs = []
    ladder = geometry._ladder_count
    monkeypatch.setattr(geometry, "_ladder_count", lambda system, scales,
                        rates: runs.append(scales) or ladder(system, scales,
                                                              rates))
    slope, _ = box_dimension_estimate.__wrapped__(build_exceptional("1/40"))
    assert runs == [[2.0 ** -k for k in range(4, 10)]]
    assert slope == pytest.approx(1.6, abs=0.1)


def test_band_guard_exceeds_the_drift_of_descendant_tops():
    # a band one ulp below the grid line y = 1/2 whose descendants along
    # map 1 (d2 + r2 <= 1) stay below the line in exact arithmetic, yet
    # reach it in floats after 18 levels: the far edge needs a guard, and
    # one proportional to the cell side would vanish at fine scales
    band = 0.4108643880402178, 0.08913561195978212
    r2, d2 = 0.8440158053655988, 0.15598419463440116
    system = validate([(0.9, band[1], 0.0, band[0]), (0.9, r2, 0.1, d2)])
    assert Fraction(d2) + Fraction(r2) <= 1
    (y0, h), drift = band, 0.0
    assert y0 + h < 0.5
    rate = _band_rates(system)[0]
    for n in range(1, 41):
        y0, h = y0 + h * d2, h * r2
        drift = max(drift, y0 + h - sum(band))
        # the shortest wide band with n levels left: long side s / 0.9^(n-1)
        for k in (1, 10, 30, 60):
            s = 2.0 ** -k
            assert _band_guard(s / 0.9 ** (n - 1), band[1], s, rate) > drift
    assert drift > 0.0
    # a map outside the unit square voids the containment bands rely on
    assert _band_rates(validate([(0.5, 0.5, 0, 0), (0.5, 0.5, 0.6, 0)])) \
        is None


def test_grid_counts_on_sliver_carpets_frozen():
    # computed once by the former engine, which refined every cylinder
    # until both sides were at most s: draw 2 at k = 5 took it 43 s, draw
    # 4 at k = 4 took 45 s, and draw 4 at k = 5 did not finish in 37 min
    rng = np.random.default_rng(2024)
    draws = [random_baranski_system(rng) for _ in range(5)]
    assert [_grid_count(draws[d], 2.0 ** -k)
            for d, k in ((0, 10), (1, 10), (2, 5), (4, 4))] == \
        [194319, 12138, 810, 208]


def test_box_dimension_estimate_brackets_truth():
    slope, band = box_dimension_estimate(gl3())
    assert slope == pytest.approx(GL3_DIMB_ESTIMATE, abs=1e-9)  # regression
    assert band[0] <= GL3_DIMB <= band[1]
    assert band[0] <= slope <= band[1]
