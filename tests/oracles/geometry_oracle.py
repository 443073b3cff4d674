"""Independent reference values for the symbolic-geometry tests.

Run directly to regenerate the constants frozen into test_geometry.py and
test_acceptance.py.  Avoids the package entirely: pseudo-cylinder leaf counts
come from a direct recursion over raw column-ratio lists, covering counts from
a greedy interval sweep over explicit point sets, and grid counts from a
brute-force refinement of every cylinder in both dimensions.
"""

import math
from fractions import Fraction

import numpy as np


def threshold_leaves(start, limit, ratios):
    """Leaves of the ratio tree rooted at ``start`` once values drop to ``limit``."""
    if start <= limit * (1 + 1e-12):
        return 1
    return sum(threshold_leaves(start * r, limit, ratios) for r in ratios)


def greedy_cover(points, diameter):
    """Minimum number of open intervals of the given diameter covering ``points``."""
    count, anchor = 0, None
    for p in sorted(points):
        if anchor is None or p - anchor >= diameter:
            count += 1
            anchor = p
    return count


def grid_count(maps, s):
    """Side-s grid cells touched by the cylinder cover at scale s.

    ``maps`` are (r1, r2, d1, d2) floats.  Every cylinder is split, level by
    level, until both of its sides are at most s, with the float steps
    x0 + w*d then w*r on each axis; a leaf touches the cells from the one
    under its lower-left corner to the one under its upper-right corner,
    cell indices truncated and clamped to the top row and column.
    """
    r1, r2, d1, d2 = (np.array(col, dtype=float) for col in zip(*maps))
    inv = 1.0 / s
    top = math.ceil(inv) - 1
    x0, y0, w, h = (np.array([v]) for v in (0.0, 0.0, 1.0, 1.0))
    cells = set()
    while x0.size:
        leaf = (w <= s) & (h <= s)
        corners = (np.minimum(np.trunc(v * inv), top).astype(int).tolist()
                   for v in (x0[leaf], x0[leaf] + w[leaf],
                             y0[leaf], y0[leaf] + h[leaf]))
        for ax, bx, ay, by in zip(*corners):
            cells.update((i, j) for i in range(ax, bx + 1)
                         for j in range(ay, by + 1))
        x0, y0, w, h = (v[~leaf][:, None] for v in (x0, y0, w, h))
        x0, y0, w, h = ((x0 + w * d1).ravel(), (y0 + h * d2).ravel(),
                        (w * r1).ravel(), (h * r2).ravel())
    return len(cells)


if __name__ == "__main__":
    # Four uniform 1/2 x 1/4 maps, two columns of ratio 1/2 each: a width-1/2,
    # height-1/4 pseudo-cylinder splits once before hitting the height.
    print("uniform 2-column count =", threshold_leaves(0.5, 0.25, [0.5, 0.5]))
    # Already at threshold: width 1/4 = height 1/4.
    print("threshold count        =", threshold_leaves(0.25, 0.25, [0.5, 0.5]))

    # Exceptional family at delta = 1/40: wide column ratio 37/120, narrow
    # 17/120 (x4 joint classes... the eta1 classes are one wide column of
    # ratio 37/120 and four narrow columns of ratio 17/120 each -> ratio list
    # below), height 27/120.  Root = one wide map.
    d = Fraction(1, 40)
    wide = float(Fraction(1, 3) - d)
    narrow = float(Fraction(1, 6) - d)
    height = float(Fraction(1, 4) - d)
    cols = [wide] + [narrow] * 4
    print("exceptional wide count =", threshold_leaves(wide, height, cols))

    # Uniform approximate squares, widths 1/2 and heights 1/4: the square at
    # stage k uses L_k letters with (1/2)^L ~ (1/4)^k, so L_k = 2k.
    for k in (1, 2, 3, 4):
        L = math.ceil(k * math.log(4) / math.log(2))
        print("uniform L_%d = %d" % (k, L))

    # Fast-decay fixture: block k has l_k + 1 points spaced exactly a_k/2^k,
    # so open intervals of that diameter cover one point each.
    for k in (2, 5, 8):
        a_k = 4.0 ** -(k * k)
        l_k = (2 ** k) // k
        block = [a_k * (2 ** k - l) / 2 ** k for l in range(l_k + 1)]
        print("fast-decay k=%d cover = %d (l_k = %d)"
              % (k, greedy_cover(block, a_k / 2 ** k), l_k))
