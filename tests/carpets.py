"""Carpets and words that several test modules share."""

from fractions import Fraction

from carpetdim import DiagonalMap, EventuallyPeriodicWord, validate

HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)


# a GL carpet whose axis-1 slice value peaks near theta = 0.2, dips, then
# rises again towards the boundary theta = 1
BOUNDARY_ALSO_RISES = [([37, 200], [4, 5], 0, 0),
                       ([37, 200], [7, 50], 0, [41, 50]),
                       ([7, 10], [1, 120], [1, 5], [24, 25])]


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


def word(preperiod, period):
    return EventuallyPeriodicWord(tuple(preperiod), tuple(period))
