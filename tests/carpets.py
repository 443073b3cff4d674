"""Carpets, words and random draws that several test modules share."""

from fractions import Fraction

import numpy as np

from carpetdim import (DiagonalMap, EventuallyPeriodicWord, system_to_config,
                       validate)

HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)


# a GL carpet whose axis-1 slice value peaks near theta = 0.2, dips, then
# rises again towards the boundary theta = 1
BOUNDARY_ALSO_RISES = [([37, 200], [4, 5], 0, 0),
                       ([37, 200], [7, 50], 0, [41, 50]),
                       ([7, 10], [1, 120], [1, 5], [24, 25])]

# A 4 x 2 grid carpet with sides from 1/1000 to 199/200.  Its box root D_2
# is SLIVER_DIMB of tests/oracles/frozen.py; Newton steps from D = s_2 grow
# before they shrink on it.  SLIVER_CONFIG is the same carpet as a CLI
# config.
SLIVER_MAPS = [
    DiagonalMap(Fraction(9, 25), Fraction(199, 200), Fraction(0), Fraction(0)),
    DiagonalMap(Fraction(1, 1000), Fraction(199, 200), Fraction(9, 25),
                Fraction(0)),
    DiagonalMap(Fraction(1, 200), Fraction(1, 250), Fraction(361, 1000),
                Fraction(199, 200)),
    DiagonalMap(Fraction(317, 500), Fraction(199, 200), Fraction(183, 500),
                Fraction(0)),
]
SLIVER_CONFIG = system_to_config(validate(SLIVER_MAPS))


def gl3():
    """Three-map wider-than-tall reference system: two maps in the left
    column, one in the right, ratios 1/2 x 1/4 everywhere."""
    return validate([
        DiagonalMap(HALF, QUARTER, Fraction(0), Fraction(0)),
        DiagonalMap(HALF, QUARTER, Fraction(0), HALF),
        DiagonalMap(HALF, QUARTER, HALF, Fraction(0)),
    ])


def gl2():
    return validate([([1, 2], [1, 4], 0, 0), ([1, 2], [1, 4], [1, 2], 0)])


def glmix():
    # columns of unequal ratio (1/2 and 1/4) so pseudo-counts vary by branch
    return validate([
        (HALF, Fraction(1, 5), 0, 0),
        (QUARTER, Fraction(1, 5), HALF, 0),
        (QUARTER, Fraction(1, 5), HALF, Fraction(1, 5)),
    ])


def mcmullen():
    """The McMullen carpet of the 2 x 4 grid with cells (0, 0), (0, 1),
    (1, 0), (1, 2), (1, 3): dimA = 1 + log 3 / log 4 (Mackay 2011), while
    its rows give A_2 = 2."""
    return validate([(HALF, QUARTER, Fraction(i, 2), Fraction(j, 4))
                     for i, j in ((0, 0), (0, 1), (1, 0), (1, 2), (1, 3))])


def square4():
    third = Fraction(1, 3)
    out = Fraction(2, 3)
    return validate([
        DiagonalMap(third, third, Fraction(0), Fraction(0)),
        DiagonalMap(third, third, out, Fraction(0)),
        DiagonalMap(third, third, Fraction(0), out),
        DiagonalMap(third, third, out, out),
    ])


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


def transpose(system):
    """The mirror image of a carpet in the diagonal x = y."""
    return validate([DiagonalMap(m.r2, m.r1, m.d2, m.d1) for m in system.maps])


def _random_window(rng, length):
    return [list(rng.uniform(0.05, 0.9, size=rng.integers(1, 5)))
            for _ in range(length)]


def _homogeneous_window(rng, length, branching):
    # Every level repeats a single ratio `branching` times, chosen so the
    # level fits in the unit interval with room to spare.
    return [[float(rng.uniform(0.05, 0.9 / branching))] * branching
            for _ in range(length)]


def word(preperiod, period):
    return EventuallyPeriodicWord(tuple(preperiod), tuple(period))
