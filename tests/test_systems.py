"""Model layer: validation, classification, projections, symbolic words."""

import copy
import json
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest

from carpetdim import (CarpetSystem, DiagonalMap, EventuallyPeriodicWord,
                       InvalidSystem, ProbabilityVector, classify_word,
                       column_word, system_from_config, system_to_config,
                       validate)
from carpetdim.pointwise import build_exceptional
from carpetdim.systems import long_axes
from carpets import HALF, QUARTER, gl3


def test_validate_two_touching_columns_is_gl_without_ssc():
    system = validate([([1, 2], [1, 4], 0, 0), ([1, 2], [1, 4], [1, 2], 0)])
    assert system.klass == "GatzourasLalley"
    assert len(system.columns) == 2
    assert len(system.rows) == 1
    assert system.eta1_ssc is False


def test_validate_taller_than_wide_is_gl_along_rows():
    # the mirror of a two-column GL carpet: its one long axis is axis 2
    system = validate([([1, 4], [1, 2], 0, 0), ([1, 4], [1, 2], [1, 2], [1, 2])])
    assert system.klass == "GatzourasLalley"
    assert long_axes(system) == (2,)
    # with one wide map as well both axes are long, and the class Baranski
    mixed = validate([([1, 4], [1, 2], 0, 0), ([1, 2], [1, 4], [1, 2], [1, 2])])
    assert mixed.klass == "Baranski" and long_axes(mixed) == (1, 2)
    # rows that overlap leave a taller-than-wide carpet DiagonalOnly
    assert validate([([1, 4], [1, 2], 0, 0),
                     ([1, 4], [1, 2], [1, 2], [1, 4])]).klass == "DiagonalOnly"


def test_validate_exceptional_family():
    system = build_exceptional(Fraction(1, 40))
    assert system.klass == "Baranski"
    assert len(system.maps) == 12
    assert len(system.columns) == 5
    assert len(system.rows) == 4
    assert system.eta1_ssc is True
    assert system.eta2_ssc is True
    assert system.warnings == ()
    widths = sorted(float(m.r1) for m in system.maps)
    assert widths[:8] == pytest.approx([17.0 / 120.0] * 8)
    assert widths[8:] == pytest.approx([37.0 / 120.0] * 4)
    assert all(float(m.r2) == pytest.approx(0.225) for m in system.maps)


def test_outside_square_warning_is_exact():
    # 1e-14 outside the square: seen exactly, within the float tolerance
    maps = [(HALF, QUARTER, Fraction(-1, 10 ** 14), 0),
            (HALF, QUARTER, HALF, 0)]
    assert validate(maps).warnings == (
        "map 0 image extends outside the unit square",)
    floats = [tuple(float(v) for v in m) for m in maps]
    assert validate(floats).warnings == ()


def test_exceptional_delta_zero_touches():
    system = build_exceptional(0)
    assert system.klass == "Baranski"
    assert system.eta1_ssc is False
    assert system.eta2_ssc is False
    col_ratios = sorted(c.ratio for c in system.columns)
    assert col_ratios == [Fraction(1, 6)] * 4 + [Fraction(1, 3)]
    assert [c.ratio for c in system.rows] == [Fraction(1, 4)] * 4


def test_exceptional_delta_range():
    with pytest.raises(InvalidSystem):
        build_exceptional(Fraction(1, 6))
    with pytest.raises(InvalidSystem):
        build_exceptional(-0.01)


def test_validate_rejects_degenerate_input():
    with pytest.raises(InvalidSystem):
        validate([DiagonalMap(HALF, HALF, Fraction(0), Fraction(0))])
    with pytest.raises(InvalidSystem):
        validate([(1, [1, 4], 0, 0), ([1, 2], [1, 4], [1, 2], 0)])
    with pytest.raises(InvalidSystem):
        validate([([3, 2], [1, 4], 0, 0), ([1, 2], [1, 4], [1, 2], 0)])


def test_validate_rejects_non_finite_entries():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidSystem, match="finite"):
            validate([DiagonalMap(0.5, 0.25, bad, 0.0),
                      DiagonalMap(0.5, 0.25, 0.5, 0.0)])
        with pytest.raises(InvalidSystem, match="finite"):
            validate([(0.5, 0.25, 0.0, 0.0), (0.5, 0.25, 0.5, bad)])


def test_validate_is_permutation_invariant():
    base = build_exceptional(Fraction(1, 40))
    rng = np.random.default_rng(3)
    for _ in range(5):
        perm = list(rng.permutation(len(base.maps)))
        shuffled = validate([base.maps[i] for i in perm])
        assert shuffled.klass == base.klass
        for axis in (1, 2):
            expected = {frozenset(c.members) for c in base.classes(axis)}
            got = {frozenset(perm[i] for i in c.members)
                   for c in shuffled.classes(axis)}
            assert got == expected


def test_project_counts_maps_with_distinct_offsets():
    system = validate([
        ([1, 4], [1, 8], 0, 0),
        ([1, 4], [1, 8], [3, 10], 0),
        ([1, 4], [1, 8], [13, 20], 0),
    ])
    assert system.klass == "GatzourasLalley"
    assert len(system.columns) == len(system.maps)
    assert len(system.rows) == 1


def test_column_word_basics():
    system = build_exceptional(0)
    assert column_word(system, (), axis=1) == ()
    lookup = system.class_index(1)
    assert column_word(system, (7,), axis=1) == (lookup[7],)
    projected = column_word(system, (0, 4, 5), axis=1)
    assert projected[1] == projected[2]
    assert projected[0] != projected[1]
    assert len(column_word(system, (0, 1, 2, 3), axis=2)) == 4
    with pytest.raises(IndexError):
        column_word(system, (0, 12), axis=1)


def test_class_index_is_built_once_and_read_only():
    system = build_exceptional(Fraction(1, 40))
    for axis in (1, 2):
        lookup = system.class_index(axis)
        assert system.class_index(axis) is lookup
        assert dict(lookup) == {i: cid for cid, cls in
                                enumerate(system.classes(axis))
                                for i in cls.members}
        with pytest.raises(TypeError):
            lookup[0] = 99
    for copied in (pickle.loads(pickle.dumps(system)), copy.copy(system),
                   copy.deepcopy(system)):
        assert copied == system and "_class_indices" not in vars(copied)
        assert all(copied.class_index(axis) == system.class_index(axis)
                   for axis in (1, 2))


def test_classify_word_gl_is_always_omega1():
    system = gl3()
    for period in [(0,), (2,), (0, 1, 2), (1, 2, 2, 0)]:
        omega, gamma_inf = classify_word(
            system, EventuallyPeriodicWord((), period))
        assert omega == "Omega1"
        assert gamma_inf < 1.0


def test_classify_word_square_maps_tie():
    system = validate([([1, 4], [1, 4], 0, 0), ([1, 4], [1, 4], [1, 2], [1, 2])])
    omega, gamma_inf = classify_word(
        system, EventuallyPeriodicWord((), (0, 1)))
    assert omega == "Omega0"
    assert gamma_inf == pytest.approx(1.0, abs=1e-15)


def test_classify_word_exceptional_wide_column():
    system = build_exceptional(0)
    omega, gamma_inf = classify_word(system, EventuallyPeriodicWord((), (0,)))
    assert omega == "Omega1"
    assert gamma_inf == pytest.approx(math.log(3) / math.log(4), abs=1e-12)


def near_square_pair(exact=True):
    """A tall map and a map wider than tall by 1/(3 * 10^17) of its height,
    which double precision cannot see."""
    wide = Fraction(10 ** 17 + 1, 3 * 10 ** 17)
    maps = [(QUARTER, HALF, 0, 0), (wide, Fraction(1, 3), QUARTER, HALF)]
    if not exact:
        maps = [tuple(float(v) for v in m) for m in maps]
    return validate(maps)


def test_classify_word_is_exact_on_exact_systems():
    system = near_square_pair()
    assert system.klass == "Baranski" and system.exact
    assert float(system.maps[1].r1) == float(system.maps[1].r2)
    omegas = [classify_word(system, EventuallyPeriodicWord((), period))[0]
              for period in ((1,), (0,), (1, 1, 0))]
    assert omegas == ["Omega1", "Omega2", "Omega2"]
    # float systems keep the 1e-12 tie
    floats = near_square_pair(exact=False)
    omega, gamma_inf = classify_word(floats, EventuallyPeriodicWord((), (1,)))
    assert (omega, gamma_inf) == ("Omega0", 1.0)


def test_diagonal_map_ints_become_exact():
    # the README quick start gives its offsets as ints
    quick = validate([DiagonalMap(HALF, QUARTER, 0, 0),
                      DiagonalMap(HALF, QUARTER, 0, HALF),
                      DiagonalMap(HALF, QUARTER, HALF, 0)])
    assert quick.exact
    assert isinstance(quick.maps[0].d1, Fraction)
    # the near-square pair as DiagonalMaps with int offsets
    wide = Fraction(10 ** 17 + 1, 3 * 10 ** 17)
    pair = validate([DiagonalMap(QUARTER, HALF, 0, 0),
                     DiagonalMap(wide, Fraction(1, 3), QUARTER, HALF)])
    assert pair.exact and pair.orientation == (-1, 1)
    # one float entry still makes the system float
    assert not validate([DiagonalMap(HALF, QUARTER, 0.0, 0),
                         DiagonalMap(HALF, QUARTER, HALF, 0)]).exact


def test_classify_word_ignores_preperiod():
    system = build_exceptional(0)
    plain = classify_word(system, EventuallyPeriodicWord((), (4, 8)))
    decorated = classify_word(system, EventuallyPeriodicWord((0, 1, 2), (4, 8)))
    assert plain == decorated


def test_word_prefix_and_letters():
    word = EventuallyPeriodicWord((3,), (1, 2))
    assert word.prefix(6) == (3, 1, 2, 1, 2, 1)
    assert word.letter(0) == 3
    assert word.letter(4) == 2
    with pytest.raises(InvalidSystem):
        EventuallyPeriodicWord((0,), ())


def test_config_round_trip_preserves_exactness():
    system = build_exceptional(Fraction(1, 40))
    blob = json.dumps(system_to_config(system))
    again = system_from_config(json.loads(blob))
    assert again.maps == system.maps
    assert again.klass == system.klass
    assert again.exact
    assert (again.eta1_ssc, again.eta2_ssc) == (True, True)
    with pytest.raises(InvalidSystem):
        system_from_config({"maps": [{"r1": 0.5}]})
    with pytest.raises(InvalidSystem):
        system_from_config({})


def test_probability_vector_validation():
    assert len(ProbabilityVector((0.25, 0.75))) == 2
    with pytest.raises(InvalidSystem):
        ProbabilityVector((0.5, 0.6))
    with pytest.raises(InvalidSystem):
        ProbabilityVector((-0.1, 1.1))
