"""Seeded input generators.

Every generator takes a ``random.Random`` and returns plain carpet configs
(``{"maps": [{"r1": [num, den], ...}]}``), the same JSON a user would pipe
into the CLI.  All ratios and offsets are exact rationals, so a config
fixes the system's classification exactly and a seed fixes every input.
"""

from __future__ import annotations

import json
from fractions import Fraction


def _q(value: Fraction):
    return [value.numerator, value.denominator]


def _config(maps):
    return {"maps": [{"r1": _q(r1), "r2": _q(r2), "d1": _q(d1), "d2": _q(d2)}
                     for r1, r2, d1, d2 in maps]}


def config_key(config) -> str:
    """Canonical text of a config, used to keep systems distinct."""
    return json.dumps(config, sort_keys=True, separators=(",", ":"))


def gl3():
    """The 3-map Gatzouras-Lalley carpet: two 1/2 x 1/4 maps in the left
    column, one in the right.  dimH = log2(1 + sqrt 2), dimB =
    1 + log4(3/2), dimA = 1.5, dimL = 1."""
    half, quarter = Fraction(1, 2), Fraction(1, 4)
    return _config([(half, quarter, 0, 0), (half, quarter, 0, half),
                    (half, quarter, half, 0)])


def mcmullen(rng, n_range=(2, 4), max_maps=8):
    """McMullen carpet: a random set of 3 or more cells of an n x m grid,
    m > n, with two cells in at least one column, so every map is 1/n wide
    and 1/m tall.  Returns (config, n, m, cells)."""
    n = rng.randint(*n_range)
    m = rng.randint(n + 1, 2 * n + 2)
    size = rng.randint(3, min(n * m - 1, max_maps))
    while True:
        cells = sorted(rng.sample([(i, j) for i in range(n)
                                   for j in range(m)], size))
        # a column with two cells keeps the fibre non-trivial
        if len({i for i, _ in cells}) < size:
            break
    maps = [(Fraction(1, n), Fraction(1, m), Fraction(i, n), Fraction(j, m))
            for i, j in cells]
    return _config(maps), n, m, cells


def _spread(rng, sizes, den):
    """Offsets that place intervals of the given sizes (multiples of 1/den,
    total <= 1) left to right in [0, 1], sharing out the slack at random."""
    slack = den - sum(sizes)
    cuts = sorted(rng.randint(0, slack) for _ in range(len(sizes)))
    offsets, pos, used = [], 0, 0
    for size, cut in zip(sizes, cuts):
        pos += cut - used
        used = cut
        offsets.append(pos)
        pos += size
    return [Fraction(o, den) for o in offsets]


def random_gl(rng, den=60):
    """Random non-uniform Gatzouras-Lalley carpet: 2 or 3 columns of random
    widths, each holding 1 to 3 maps (2 or more in at least one column) of
    random heights below the column width, laid out with random gaps.  All
    sides are multiples of 1/den."""
    while True:
        columns = rng.randint(2, 3)
        widths = [rng.randint(den // 10, den // 2) for _ in range(columns)]
        if sum(widths) <= den:
            break
    maps = []
    for width, x0 in zip(widths, _spread(rng, widths, den)):
        while True:
            count = rng.randint(1, 3)
            heights = [rng.randint(2, width - 1) for _ in range(count)]
            if sum(heights) <= den:
                break
        for height, y0 in zip(heights, _spread(rng, heights, den)):
            maps.append((Fraction(width, den), Fraction(height, den), x0, y0))
    if len(maps) < len(widths) + 1:
        # all-singleton columns make the fibre trivial; draw again
        return random_gl(rng, den)
    return _config(maps)


def shuffled_layout(rng, columns, den):
    """GL carpet with a fixed ratio multiset and a random layout.

    ``columns`` lists (width, [heights]) in units of 1/den.  The column
    order, the order inside each column and every gap are drawn from rng,
    so the cylinder tree, and with it the cost of every covering count, is
    the same for every draw while the cells counted differ."""
    columns = [(w, list(hs)) for w, hs in columns]
    rng.shuffle(columns)
    widths = [w for w, _ in columns]
    maps = []
    for (width, heights), x0 in zip(columns, _spread(rng, widths, den)):
        rng.shuffle(heights)
        for height, y0 in zip(heights, _spread(rng, heights, den)):
            maps.append((Fraction(width, den), Fraction(height, den), x0, y0))
    return _config(maps)


def word(rng, alphabet, max_pre=2, max_period=4):
    """Eventually periodic word over range(alphabet), as (preperiod,
    period) tuples."""
    pre = tuple(rng.randrange(alphabet) for _ in range(rng.randint(0, max_pre)))
    period = tuple(rng.randrange(alphabet)
                   for _ in range(rng.randint(1, max_period)))
    return pre, period


def gamma_text(pre, period) -> str:
    """The CLI's "u:(v)" spelling of a word."""
    return "%s:(%s)" % (",".join(map(str, pre)), ",".join(map(str, period)))
