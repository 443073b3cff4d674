"""Numbers that belong to the carpet, not to its maps: the same answers for
the mirror image in x = y and for the n^2 maps of the second iterate."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from carpetdim import (Unsupported, build_exceptional, level_set_dim,
                       pointwise_assouad_baranski, tangent_cloud, validate)
from carpetdim.systems import GATZOURAS_LALLEY, long_axes
from carpets import (gl3, mcmullen, random_baranski_system, random_gl_system,
                     transpose, word)


def random_mcmullen_system(rng):
    """Cells of an n x m grid, m > n, with two cells in some column."""
    n = int(rng.integers(2, 5))
    m = int(rng.integers(n + 1, 2 * n + 3))
    cells = [(i, j) for i in range(n) for j in range(m)]
    while True:
        pick = [cells[c] for c in rng.choice(
            len(cells), size=int(rng.integers(3, 9)), replace=False)]
        if len({i for i, _ in pick}) < len(pick):
            break
    return validate([(Fraction(1, n), Fraction(1, m), Fraction(i, n),
                      Fraction(j, m)) for i, j in sorted(pick)])


def worst_mcmullen(rng=None):
    """The 3 x 5 McMullen carpet whose mirror, classed Baranski with both
    axes, once reported dimA 2.0 against 1.6826061944859854."""
    cells = ((0, 0), (0, 1), (0, 4), (1, 2), (1, 3), (1, 4), (2, 2), (2, 4))
    return validate([(Fraction(1, 3), Fraction(1, 5), Fraction(i, 3),
                      Fraction(j, 5)) for i, j in cells])


def baranski_draw_12(rng=None):
    """Draw 12 of random_baranski_system(default_rng(2024)): every cell is
    taller than wide, and dimA once read 1.4387695516637784 off the short
    axis against its mirror's 1.2693127654987832."""
    rng = np.random.default_rng(2024)
    return [random_baranski_system(rng) for _ in range(13)][-1]


def values(system):
    """dimB, dimH, dimA, and dimL on a GatzourasLalley carpet."""
    analysis = system.analysis
    out = (analysis.box[0], analysis.dimH, analysis.dimA)
    return out + ((analysis.dimL,) if system.klass == GATZOURAS_LALLEY
                  else ())


def pointwise(system, gamma):
    """((value, fiber), (regularity_warning, axis, omega)), or None for a
    refused word."""
    try:
        r = pointwise_assouad_baranski(system, gamma)
    except Unsupported:
        return None
    return ((r.pointwise_assouad, r.fiber_dim),
            (r.regularity_warning, r.axis, r.omega_class))


def mirrored(report):
    warning, axis, omega = report[1]
    return report[0], (warning, 3 - axis, "Omega%d" % (3 - int(omega[-1])))


@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(st.sampled_from((random_gl_system, random_mcmullen_system,
                        random_baranski_system)),
       st.integers(0, 2 ** 32 - 1),
       st.lists(st.integers(0, 11), min_size=1, max_size=3))
@example(worst_mcmullen, 0, [0, 2])
@example(baranski_draw_12, 0, [1, 3])
@example(random_gl_system, 1, [0, 1])       # its mirror was DiagonalOnly
@example(lambda rng: build_exceptional(0), 0, [0, 4])   # no SSC on either axis
@example(lambda rng: build_exceptional("1/40"), 0, [4, 0, 0])
@example(lambda rng: mcmullen(), 0, [1])
def test_mirror_gives_the_same_answers(draw_system, seed, period):
    system = draw_system(np.random.default_rng(seed))
    mirror = transpose(system)
    assert mirror.klass == system.klass
    assert long_axes(mirror) == tuple(sorted(3 - j for j in long_axes(system)))
    assert values(mirror) == pytest.approx(values(system), abs=1e-12)
    n = len(system)
    words = [word((), (i,)) for i in range(n)]
    words.append(word((0,), [i % n for i in period]))
    for gamma in words:
        report, image = pointwise(system, gamma), pointwise(mirror, gamma)
        assert (report is None) == (image is None)
        if report is not None:
            report = mirrored(report)
            assert image[0] == pytest.approx(report[0], abs=1e-12)
            assert image[1] == report[1]
    if system.klass == GATZOURAS_LALLEY:
        dim_b, dim_a = values(system)[0], values(system)[2]
        for alpha in (dim_b - 0.1, dim_b, 0.5 * (dim_b + dim_a), dim_a,
                      dim_a + 0.1):
            assert level_set_dim(mirror, alpha) == pytest.approx(
                level_set_dim(system, alpha), abs=1e-12)


def test_tangent_cloud_of_the_mirror_is_transposed():
    system, gamma = gl3(), word((), (0, 2, 1))
    for k in (2, 4):
        cloud = tangent_cloud(system, gamma, k, 2.0 ** -6)
        image = tangent_cloud(transpose(system), gamma, k, 2.0 ** -6)
        assert sorted(map(tuple, image.points.tolist())) == \
            sorted(map(tuple, cloud.points[:, ::-1].tolist()))


def second_iterate(system):
    """The same carpet given by the n^2 maps T_a T_b, letter a * n + b."""
    return validate([(a.r1 * b.r1, a.r2 * b.r2, a.d1 + a.r1 * b.d1,
                      a.d2 + a.r2 * b.d2)
                     for a in system.maps for b in system.maps])


def close(a, b):
    """Equal to a few units in the last place."""
    return abs(a - b) <= 4 * math.ulp(max(abs(a), abs(b)))


@pytest.mark.parametrize("draw", [
    lambda: gl3(), lambda: build_exceptional(0),
    lambda: build_exceptional("1/40"),
    lambda: random_gl_system(np.random.default_rng(7)),
    lambda: random_baranski_system(np.random.default_rng(7))],
    ids=["gl3", "exc0", "exc40", "gl7", "baranski7"])
def test_second_iterate_gives_the_same_answers(draw):
    # grid and ball counts are left out: they count covers made of the
    # maps, and those move (exc(1/40) at k = 5: 531 cells, then 529)
    system = draw()
    twice = second_iterate(system)
    assert twice.klass == system.klass
    assert all(map(close, values(twice), values(system)))
    n = len(system)
    for period, image in (((0,), (0,)), ((0, n - 1), (n - 1,))):
        once = pointwise(system, word((), period))
        again = pointwise(twice, word((), image))
        assert all(map(close, again[0], once[0])) and again[1] == once[1]
