"""Pointwise layer: slices, pointwise Assouad reports, level sets, splits."""

import functools
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from carpetdim import (DiagonalMap, RangeError, Unsupported, WrongClass,
                       baranski_dims, build_exceptional, few_large_tangents,
                       gl_dims, level_set_dim, pointwise_assouad_baranski,
                       pointwise_assouad_gl, symbolic_slice, validate)
from carpetdim import geometry
from carpetdim.dimensions import _AxisProblem
from carpets import HALF, QUARTER, gl2, gl3, mcmullen, square4, word
from oracles.frozen import (EXC40_A1, EXC40_A2, EXC40_COLUMN_FIBER, EXC40_D1,
                            EXC40_ROW_FIBER, EXC_DIMB, GL3_DIMB, GL3_DIMH)
from test_dimensions import random_gl_system


# ------------------------------------------------------------------ slices

def test_symbolic_slice_gl3_periods():
    system = gl3()
    assert symbolic_slice(system, word((), (0,))).period == ((0.25, 0.25),)
    assert symbolic_slice(system, word((), (2,))).period == ((0.25,),)
    two_step = symbolic_slice(system, word((), (0, 2)))
    assert two_step.period == ((0.25, 0.25), (0.25,))
    assert two_step.preperiod == ()


def test_symbolic_slice_preserves_preperiod_and_axis():
    system = gl3()
    seq = symbolic_slice(system, word((2,), (1,)), axis=2)
    # row y=0 holds maps {0, 2}; row y=1/2 holds map 1 alone
    assert seq.preperiod == ((0.5, 0.5),)
    assert seq.period == ((0.5,),)


# ------------------------------------------------------- GL pointwise trio

def test_pointwise_gl_column_word_reaches_assouad():
    report = pointwise_assouad_gl(gl3(), word((), (0,)))
    assert report.pointwise_assouad == pytest.approx(1.5, abs=1e-9)
    assert report.tangent_dim == pytest.approx(1.5, abs=1e-9)
    assert report.fiber_dim == pytest.approx(0.5, abs=1e-12)
    assert report.axis == 1
    assert report.omega_class == "Omega1"
    # gl3 columns touch at 1/2, so the value is a guaranteed lower bound
    assert report.regularity_warning is True


def test_pointwise_gl_single_column_word_floors_at_box():
    report = pointwise_assouad_gl(gl3(), word((), (2,)))
    assert report.fiber_dim == pytest.approx(0.0, abs=1e-12)
    assert report.tangent_dim == pytest.approx(1.0, abs=1e-9)
    # the tangent is small but the box dimension floors the pointwise value
    assert report.pointwise_assouad == pytest.approx(GL3_DIMB, abs=1e-9)


def test_pointwise_gl_alternating_word_between():
    report = pointwise_assouad_gl(gl3(), word((), (0, 2)))
    assert report.fiber_dim == pytest.approx(0.25, abs=1e-12)
    assert report.tangent_dim == pytest.approx(1.25, abs=1e-9)
    assert report.pointwise_assouad == pytest.approx(GL3_DIMB, abs=1e-9)


def test_pointwise_gl_trivial_two_column_system():
    system = gl2()
    for period in ((0,), (1,), (0, 1)):
        report = pointwise_assouad_gl(system, word((), period))
        assert report.fiber_dim == pytest.approx(0.0, abs=1e-12)
        assert report.pointwise_assouad == pytest.approx(1.0, abs=1e-9)


def test_pointwise_gl_preperiod_and_rotation_invariance():
    system = gl3()
    base = pointwise_assouad_gl(system, word((), (0, 2)))
    shifted = pointwise_assouad_gl(system, word((1, 1), (0, 2)))
    rotated = pointwise_assouad_gl(system, word((0,), (2, 0)))
    for other in (shifted, rotated):
        assert other.fiber_dim == pytest.approx(base.fiber_dim, abs=1e-12)
        assert other.pointwise_assouad == pytest.approx(
            base.pointwise_assouad, abs=1e-12)


@functools.cache
def gl3_with_report():
    system = gl3()
    return system, gl_dims(system)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(st.lists(st.integers(0, 2), max_size=2),
       st.lists(st.integers(0, 2), min_size=1, max_size=5))
def test_pointwise_gl_random_words_stay_in_dimension_window(pre, period):
    system, report = gl3_with_report()
    point = pointwise_assouad_gl(system, word(pre, period))
    assert 0.0 <= point.fiber_dim <= 1.0 + 1e-12
    assert report.dimB - 1e-9 <= point.pointwise_assouad \
        <= report.dimA + 1e-9


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(st.integers(0, 2 ** 32 - 1).map(
    lambda seed: random_gl_system(np.random.default_rng(seed))))
@example(mcmullen())
def test_gl_assouad_dimension_is_attained_at_a_fixed_point(system):
    # pointwise at :(i) is max(dimB, s_eta + t(l)) for the column l of map i
    best = max(pointwise_assouad_gl(system, word((), (i,))).pointwise_assouad
               for i in range(len(system.maps)))
    assert best == pytest.approx(system.analysis.dimA, abs=1e-12)


def test_pointwise_gl_wrong_class():
    with pytest.raises(WrongClass):
        pointwise_assouad_gl(square4(), word((), (0,)))


# -------------------------------------------------------- level sets (GL)

def test_level_set_dim_inside_window():
    value, full = level_set_dim(gl3(), 1.4)
    assert value == pytest.approx(GL3_DIMH, abs=1e-9)
    assert full is False


def test_level_set_dim_top_is_full_measure():
    value, full = level_set_dim(gl3(), 1.5)
    assert value == pytest.approx(GL3_DIMH, abs=1e-9)
    assert full is True


def test_level_set_dim_empty_outside():
    assert level_set_dim(gl3(), 1.0) == (None, False)
    assert level_set_dim(gl3(), 1.7) == (None, False)


def test_level_set_dim_outside_skips_the_maximisation(monkeypatch):
    def refuse(self):
        raise AssertionError("Ledrappier-Young maximisation for an empty "
                             "level")

    monkeypatch.setattr(_AxisProblem, "maximise", refuse)
    assert level_set_dim(gl3(), 1.0) == (None, False)
    assert level_set_dim(gl3(), 1.7) == (None, False)


def test_level_set_dim_rejects_non_finite_alpha():
    for alpha in (math.nan, math.inf, -math.inf):
        with pytest.raises(RangeError):
            level_set_dim(gl3(), alpha)


def test_analysis_is_kept_per_system_object():
    system = gl3()
    assert system.analysis is system.analysis
    assert gl3().analysis is not system.analysis
    first = gl_dims(system)
    first.diagnostics["slice_exponents"].append(9.0)
    first.diagnostics["optimizer"]["iterations"] = -1
    first.diagnostics.clear()
    again = gl_dims(system)
    assert len(again.diagnostics["slice_exponents"]) == 2
    assert again.diagnostics["optimizer"]["iterations"] > 0
    assert again == gl_dims(gl3())
    copied = pickle.loads(pickle.dumps(system))
    assert copied == system and "analysis" not in vars(copied)
    assert gl_dims(copied) == again


# ----------------------------------------------- Baranski pointwise values

def test_pointwise_baranski_wide_column_word():
    system = build_exceptional(Fraction(1, 40))
    report = pointwise_assouad_baranski(system, word((), (0,)))
    assert report.axis == 1
    assert report.omega_class == "Omega1"
    assert report.fiber_dim == pytest.approx(EXC40_COLUMN_FIBER, abs=1e-12)
    assert report.tangent_dim == pytest.approx(EXC40_A1, abs=1e-12)
    # the tangent term dominates the box dimension here
    assert report.pointwise_assouad == pytest.approx(EXC40_A1, abs=1e-12)
    assert report.regularity_warning is False


def test_pointwise_baranski_narrow_column_word():
    system = build_exceptional(Fraction(1, 40))
    report = pointwise_assouad_baranski(system, word((), (4,)))
    assert report.axis == 2
    assert report.omega_class == "Omega2"
    assert report.fiber_dim == pytest.approx(EXC40_ROW_FIBER, abs=1e-12)
    assert report.tangent_dim == pytest.approx(EXC40_A2, abs=1e-12)
    # the row slice of a narrow column attains D_2, which is dimB here
    assert report.tangent_dim == pytest.approx(EXC_DIMB["1/40"], abs=1e-12)
    assert report.pointwise_assouad == pytest.approx(EXC_DIMB["1/40"],
                                                     abs=1e-12)
    assert report.pointwise_assouad == max(system.analysis.box[0],
                                           report.tangent_dim)


def test_baranski_box_term_runs_no_grid_count(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("counted grid cells")

    monkeypatch.setattr(geometry, "_ladder_count", refuse)
    monkeypatch.setattr(geometry, "box_dimension_estimate", refuse)
    system = build_exceptional("1/40")
    dim_b = system.analysis.box[0]
    assert dim_b == pytest.approx(EXC_DIMB["1/40"], abs=1e-12)
    for period in ((0,), (4,), (0, 4), (5, 9, 1)):
        report = pointwise_assouad_baranski(system, word((), period))
        assert report.pointwise_assouad == max(dim_b, report.tangent_dim)


def test_pointwise_baranski_rejects_balanced_words():
    with pytest.raises(Unsupported):
        pointwise_assouad_baranski(square4(), word((), (0,)))


def test_pointwise_baranski_warns_without_separation():
    # delta = 0 closes the gaps, so both projections lose the SSC: the
    # value is reported as a lower bound, as on GL carpets
    system = build_exceptional(0)
    report = pointwise_assouad_baranski(system, word((), (0,)))
    assert report.axis == 1 and report.regularity_warning is True
    assert report.fiber_dim == pytest.approx(1.0, abs=1e-12)
    assert report.pointwise_assouad == pytest.approx(2.0, abs=1e-12)


def test_pointwise_baranski_fiber_below_worst_slice():
    system = build_exceptional(Fraction(1, 40))
    rng = np.random.default_rng(11)
    worst = {1: EXC40_COLUMN_FIBER, 2: EXC40_ROW_FIBER}
    seen = set()
    for _ in range(60):
        length = int(rng.integers(1, 5))
        period = tuple(int(rng.integers(0, 12)) for _ in range(length))
        try:
            report = pointwise_assouad_baranski(system, word((), period))
        except Unsupported:
            continue
        seen.add(report.axis)
        assert report.fiber_dim <= worst[report.axis] + 1e-12
    assert seen == {1, 2}


# --------------------------------------------------------- split criterion

def test_few_large_tangents_exceptional_family():
    for delta in (Fraction(1, 40), Fraction(1, 50), Fraction(1, 60)):
        split, axis = few_large_tangents(build_exceptional(delta))
        assert split is True and axis == 1


def test_few_large_tangents_symmetric_square_is_false():
    assert few_large_tangents(square4()) == (False, None)


def test_few_large_tangents_one_sided_unsupported():
    with pytest.raises(Unsupported, match="Omega2"):
        few_large_tangents(gl3())


def test_few_large_tangents_needs_separation():
    with pytest.raises(Unsupported, match="separated"):
        few_large_tangents(build_exceptional(0))


def test_few_large_tangents_orientation_is_exact():
    # map 1 is wider than tall only beyond double precision: the exact
    # orientations see both kinds of map, and d_1 is the maximum over the
    # face of map 1, which is 0, so no axis splits
    wide = Fraction(10 ** 17 + 1, 3 * 10 ** 17)
    system = validate([(QUARTER, HALF, 0, 0),
                       (wide, Fraction(1, 3), QUARTER, HALF)])
    assert few_large_tangents(system) == (False, None)


def test_few_large_tangents_wrong_class():
    bad = validate([
        DiagonalMap(HALF, QUARTER, Fraction(0), Fraction(0)),
        DiagonalMap(Fraction(1, 3), Fraction(1, 5), QUARTER, HALF),
    ])
    assert bad.klass == "DiagonalOnly"
    with pytest.raises(WrongClass):
        few_large_tangents(bad)


def test_split_test_maximises_each_axis_once(monkeypatch):
    axes = []
    init = _AxisProblem.__init__

    def counted(self, system, j):
        axes.append(j)
        init(self, system, j)

    monkeypatch.setattr(_AxisProblem, "__init__", counted)
    system = build_exceptional("1/40")
    assert few_large_tangents(system) == (True, 1)
    directional, _, _ = baranski_dims(system)
    assert directional.d1 == pytest.approx(EXC40_D1, abs=1e-12)
    assert baranski_dims(system)[0] == directional
    assert sorted(axes) == [1, 2]
