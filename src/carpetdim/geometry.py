"""Symbolic covers, empirical box counts, and point-cloud geometry.

Cylinder rectangles, approximate squares, pseudo-cylinder square counts
along either axis, ball-localized box counting, Hausdorff distances between
finite clouds, tangent-set approximations, and two one-dimensional
fixtures.  All counting is symbolic over words; nothing is rasterized.  One
rule, ``_extensions``, makes the approximate squares of
``approximate_square`` (along gamma), ``box_count_ball``,
``pseudo_cylinder_count`` and ``tangent_cloud``: a cylinder with w >= h
grows by projected columns, otherwise by projected rows, until that side is
first at most the other.

Every cover comes from one engine, ``_refine``, which refines numpy blocks
of cylinder rectangles until a stop rule holds; each caller supplies only
its maps per level, its stop and pruning rules and what it does with a leaf.
Grid counts stop a cylinder early once it lies inside one grid row or
column (a band) and finish it with a one-dimensional refinement along that
row, which gives the cells of full refinement at the cost of the cells.
A ladder of scales (``estimate``, ``boxcount``) is counted in one such
refinement: each row carries the index of its scale, and one sort of the
cell keys counts every scale.  Keys count from a lower bound on every
cylinder coordinate, so maps may leave the unit square.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import EmptyInput, RangeError, WrongClass, WrongShape
from .systems import (BARANSKI, GATZOURAS_LALLEY, EventuallyPeriodicWord,
                      column_word, long_axes)

_EPS = 1e-12
_CHUNK = 4096       # most child rows _refine makes at once; bounds its memory
_LADDER = range(4, 10)  # dyadic exponents k of box_dimension_estimate


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle, the geometric image of a cylinder word."""

    x0: float
    y0: float
    width: float
    height: float

    def __post_init__(self):
        for name in ("x0", "y0", "width", "height"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if self.width <= 0.0 or self.height <= 0.0:
            raise RangeError("rectangle sides must be positive")

    @property
    def center(self):
        return (self.x0 + 0.5 * self.width, self.y0 + 0.5 * self.height)


@dataclass(frozen=True)
class ApproxSquare:
    """A cylinder extended along its longer axis until the sides balance.

    ``base`` is the word of map indices, ``extension`` the projected class
    ids appended on ``axis`` (1 when w >= h) by the one rule of every
    approximate square (``_extensions``), and ``width``/``height`` the
    resulting side lengths of ``rect``.
    """

    base: tuple
    extension: tuple
    rect: Rect
    width: float
    height: float
    axis: int


@dataclass(frozen=True, eq=False)
class PointCloud:
    """Finite stand-in for a compact set: every point of the represented set
    lies within ``resolution`` of some cloud point.  ``points`` is a
    read-only (N, d) float64 array; clouds compare by identity."""

    points: np.ndarray
    resolution: float

    def __post_init__(self):
        try:
            pts = np.array(self.points, dtype=float, ndmin=1)
        except ValueError as exc:       # rows of unequal length
            raise WrongShape("points must form an (N, d) array") from exc
        if not len(pts):
            raise EmptyInput("point cloud needs at least one point")
        if pts.ndim != 2 or not pts.shape[1]:
            raise WrongShape("points must form an (N, d) array")
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "resolution", float(self.resolution))
        if self.resolution <= 0.0:
            raise RangeError("resolution must be positive")

    def __len__(self):
        return len(self.points)


# ------------------------------------------------------------ word geometry

def _compose(maps, one=1.0):
    """(x0, y0, w, h) of the composition of ``maps``, outermost first: the
    rectangle of their cylinder.  ``one`` = 1.0 computes in floats, 1 in
    the entries' own arithmetic (exact on Fraction maps).
    """
    x = y = 0 * one
    w = h = one
    for m in maps:
        x += w * m.d1
        y += h * m.d2
        w *= m.r1
        h *= m.r2
    return x, y, w, h


def _point_at(system, gamma: EventuallyPeriodicWord):
    """pi(gamma): the attractor point coded by the word.

    The composed period map x -> R x + D has the fixed point D / (1 - R);
    the preperiod maps carry it to the coded point.  Exact systems compose
    in Fraction arithmetic and round to float once at the end.
    """
    gamma.check_alphabet(system)
    px, py, pw, ph = _compose((system.maps[i] for i in gamma.period), 1)
    x, y, w, h = _compose((system.maps[i] for i in gamma.preperiod), 1)
    return float(x + w * px / (1 - pw)), float(y + h * py / (1 - ph))


# ------------------------------------------------------- refinement engine

def _refine(root, children, done, keep=None):
    """Refine blocks of cylinder rectangles and yield the leaf blocks.

    A block is a tuple of equal-length arrays (x0, y0, w, h) of rectangles
    at one depth, optionally followed by one per-row column: an (N, depth)
    int array of their words, to which each child appends its letter, or a
    one-dimensional tag that children inherit.  ``children`` holds the
    (r1, r2, d1, d2) arrays of the maps that refine a rectangle, or is a
    function of the depth that returns them; a child's letter is its map's
    position there.  ``keep(x0, y0, w, h, depth[, column])`` masks the rows
    to keep, then ``done(x0, y0, w, h, depth[, column])`` marks the leaves
    (a mask or one bool).  Children are laid out parent-major and blocks
    are refined depth-first, at most _CHUNK child rows at a time, so the
    leaves of a fixed depth come out in word order.
    """
    block, depth = tuple(root), 0
    stack = []
    while True:
        if keep is not None:
            block = _rows(block, keep(*block[:4], depth, *block[4:]))
        leaf = np.broadcast_to(done(*block[:4], depth, *block[4:]),
                               block[0].shape)
        if leaf.any():
            yield _rows(block, leaf)
        rest = _rows(block, ~leaf)
        if rest[0].size:
            maps = children(depth) if callable(children) else children
            step = max(1, _CHUNK // maps[0].size)
            stack.extend((_rows(rest, slice(i, i + step)), depth, maps)
                         for i in reversed(range(0, rest[0].size, step)))
        if not stack:
            return
        parents, depth, (r1, r2, d1, d2) = stack.pop()
        n, k = parents[0].size, r1.size
        x0, y0, w, h = (a[:, None] for a in parents[:4])
        block = tuple(a.ravel() for a in
                      (x0 + w * d1, y0 + h * d2, w * r1, h * r2))
        if len(parents) > 4:
            column = np.repeat(parents[4], k, axis=0)
            if column.ndim == 2:
                column = np.column_stack((column, np.tile(np.arange(k), n)))
            block += (column,)
        depth += 1


def _rows(block, index):
    return tuple(a[index] for a in block)


def _root(x0=0.0, y0=0.0, w=1.0, h=1.0):
    """A one-row block, the unit square unless told otherwise."""
    return tuple(np.array([v], dtype=float) for v in (x0, y0, w, h))


def _steps(rows):
    """_refine children from rows (r1, r2, d1, d2); a one-dimensional
    refinement passes (ratio, 1, offset, 0), leaving the second axis."""
    return tuple(np.array(col, dtype=float) for col in zip(*rows))


def _map_steps(maps):
    return _steps((m.r1, m.r2, m.d1, m.d2) for m in maps)


def _near(cx, cy, R):
    """keep rule: rectangles within the closed distance R of (cx, cy)."""
    rr = R * R * (1.0 + 1e-12)

    def keep(x0, y0, w, h, depth):
        dx = np.maximum(np.maximum(x0 - cx, 0.0), cx - (x0 + w))
        dy = np.maximum(np.maximum(y0 - cy, 0.0), cy - (y0 + h))
        return dx * dx + dy * dy <= rr
    return keep


def _cell_keys(ix, iy, span, off):
    """A sortable key per grid cell (whole-number float indices): the int64
    code off + ix * span + iy, one-to-one when span counts the indices and
    off puts the lowest at 0, or, where span is None (no int64 code fits),
    the exact complex ix + i*iy.  span and off are shared or per row."""
    if span is None:
        return ix + 1j * iy
    return ix.astype(np.int64) * span + iy.astype(np.int64) + off


def _distinct(keys):
    """The sorted distinct keys.  On these arrays a sort is several times
    faster than the hash table behind np.unique."""
    keys = np.sort(keys)
    first = np.ones(keys.shape, dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return keys[first]


def cylinders_to_scale(system, r, axis):
    """The section of cylinder words where the axis valuation first drops
    to r: every word has product <= r while its parent is still above.

    ``axis`` 1 or 2 values a word by its projected ratio product on that
    axis; 0 values it by the longer rectangle side, so both sides of every
    returned rectangle are <= r.  Returns (word, Rect) pairs.
    """
    if not 0.0 < r < 1.0:
        raise RangeError("scale %r outside (0, 1)" % (r,))
    if axis not in (0, 1, 2):
        raise RangeError("axis must be 0, 1 or 2")
    maps = _map_steps(system.maps)
    side = {1: lambda w, h: w, 2: lambda w, h: h}.get(axis, np.maximum)
    root = _root() + (np.zeros((1, 0), dtype=np.int64),)
    out = []
    for x0, y0, w, h, words in _refine(
            root, maps, lambda x0, y0, w, h, n, words: side(w, h) <= r):
        out.extend((tuple(word), Rect(*rect)) for word, *rect in
                   zip(words.tolist(), x0.tolist(), y0.tolist(), w.tolist(),
                       h.tolist()))
    out.sort(key=lambda pair: pair[0])
    return out


# ---------------------------------------------------- approximate squares

def _extension(system, axis):
    """The approximate-square rule on ``axis``: its projected classes as
    ``_refine`` children that move that axis alone, and the stop at the
    first step where that side is at most the other."""
    classes = system.classes(axis)
    if axis == 1:
        return (_steps((c.ratio, 1, c.offset, 0) for c in classes),
                lambda x0, y0, w, h, *_: w <= h * (1.0 + _EPS))
    return (_steps((1, c.ratio, 0, c.offset) for c in classes),
            lambda x0, y0, w, h, *_: h <= w * (1.0 + _EPS))


def _extensions(system, block):
    """Rows of a cylinder block with w >= h extend along axis 1 and the
    rest along axis 2: (axis, rows, children, done) per axis with rows."""
    wide = block[2] >= block[3]
    for axis, rows in ((1, wide), (2, ~wide)):
        if rows.any():
            yield (axis, _rows(block, rows)) + _extension(system, axis)


def _squares(blocks, system, keep=None):
    """Leaf blocks of the approximate squares over blocks of cylinders;
    ``keep`` prunes rows as in ``_refine``."""
    for block in blocks:
        for _, rows, children, done in _extensions(system, block):
            yield from _refine(rows, children, done, keep)


def approximate_square(system, gamma: EventuallyPeriodicWord,
                       k: int) -> ApproxSquare:
    """The depth-k approximate square around the point coded by gamma: the
    ``_squares`` leaf over gamma's length-k cylinder on gamma's path, by
    the one rule of every approximate square (``_extensions``).

    At depth n the extension takes the projected class of gamma's letter
    k + n on the axis that rule picks (1 when w >= h), so the aspect ratio
    lies between the smallest ratio on that axis and 1.  That axis and the
    Lyapunov class of the base word (``classify_word``'s rule) disagree
    only at float ties, where neither extends.
    """
    gamma.check_alphabet(system)
    if k < 1:
        raise RangeError("k must be >= 1")
    base = gamma.prefix(k)
    root = _root(*_compose(system.maps[i] for i in base))
    (axis, root, classes, done), = _extensions(
        system, root + (np.empty((1, 0), dtype=np.int64),))
    lookup = system.class_index(axis)
    *sides, letters = next(_refine(
        root, lambda n: _rows(classes, [lookup[gamma.letter(k + n)]]), done))
    rect = Rect(*(a[0] for a in sides))
    extension = column_word(system, gamma.prefix(k + letters.shape[1])[k:],
                            axis)
    return ApproxSquare(base=base, extension=extension, rect=rect,
                        width=rect.width, height=rect.height, axis=axis)


# ------------------------------------------------------ pseudo-cylinders

def pseudo_cylinder_count(system, i, uj, axis=1) -> int:
    """Exact number of maximal approximate squares in a pseudo-cylinder.

    The pseudo-cylinder fixes the length-|i| word and |uj| further projected
    classes on ``axis`` (1 extends columns, 2 rows); its extended side must
    still be at least the fixed side.  The approximate squares of that
    rectangle (``_squares``) are counted, 1 at the threshold.
    """
    if system.klass not in (BARANSKI, GATZOURAS_LALLEY):
        raise WrongClass("pseudo-cylinder counts need aligned projections, "
                         "got %s" % system.klass)
    if axis not in (1, 2):
        raise RangeError("axis must be 1 or 2")
    classes = system.classes(axis)
    for letter in i:
        if not 0 <= letter < len(system.maps):
            raise IndexError("letter %d outside alphabet" % letter)
    for cid in uj:
        if not 0 <= cid < len(classes):
            raise IndexError("class id %d outside axis-%d classes"
                             % (cid, axis))
    along = math.prod(float(system.maps[m].ratio(axis)) for m in i)
    along *= math.prod(float(classes[c].ratio) for c in uj)
    across = math.prod(float(system.maps[m].ratio(3 - axis)) for m in i)
    if along < across * (1.0 - _EPS):
        raise WrongShape("pseudo-cylinder is shorter along axis %d (%g) "
                         "than across it (%g)" % (axis, along, across))
    along = max(along, across)    # within _EPS short of square: one square
    sides = (along, across) if axis == 1 else (across, along)
    return sum(block[0].size
               for block in _squares([_root(0.0, 0.0, *sides)], system))


# ------------------------------------------------------ empirical counting

def box_count_ball(system, gamma: EventuallyPeriodicWord, R, r) -> int:
    """Number of scale-r approximate squares meeting the closed ball
    B(pi(gamma), R), counted exactly over the symbolic cover.

    Base words are the section where the shorter side first drops to r;
    each base is extended along its longer axis, whichever it is, into
    approximate squares (``_squares``) that are tested against the ball.
    The count depends on the maps, not only on the carpet: the cover of
    the same carpet given by the n^2 maps of its second iterate differs.
    """
    R = float(R)
    r = float(r)
    if not 0.0 < r <= R < 1.0:
        raise RangeError("need 0 < r <= R < 1, got r=%g R=%g" % (r, R))
    near = _near(*_point_at(system, gamma), R)
    bases = _refine(_root(), _map_steps(system.maps),
                    lambda x0, y0, w, h, n: np.minimum(w, h) <= r, near)
    return sum(block[0].size for block in _squares(bases, system, near))


def _ball_grid_count(system, gamma, R, s):
    """Side-s grid cells met by the attractor inside B(point(gamma), R).

    Cylinders are refined until both sides fit in one cell, then the cell
    under the rectangle centre is marked; that keeps the count free of the
    cylinder-side snapping that inflates the symbolic square cover.  Cells
    take ``_cell_keys``'s exact complex keys ix + i*iy, so centres need no
    bounds and are not clamped to the top cell.
    """
    cells = [np.empty(0, dtype=complex)]
    for x0, y0, w, h in _refine(_root(), _map_steps(system.maps),
                                lambda x0, y0, w, h, n: (w <= s) & (h <= s),
                                _near(*_point_at(system, gamma), R)):
        cells.append(_distinct(_cell_keys(np.trunc((x0 + 0.5 * w) / s),
                                          np.trunc((y0 + 0.5 * h) / s),
                                          None, None)))
    return int(_distinct(np.concatenate(cells)).size)


def psi_estimate(system, delta, samples=16, seed=0, words=None,
                 radii=(0.25, 0.0625)):
    """Doubling-count exponent estimate: the largest observed value of
    log N_{r*delta}(B(x, r) cap K) / log(1/delta) over sampled centers.

    N counts coverings by balls of radius r*delta, realised as grid cells
    of side 2*r*delta, so a unit-dimensional fiber at delta = 2^-k yields
    2^k cells and an exponent of exactly 1.  Centers come from ``words``
    when given, otherwise from ``samples`` seeded random periodic words;
    each is paired with every radius in ``radii``.
    """
    delta = float(delta)
    if not 0.0 < delta < 1.0:
        raise RangeError("delta %r outside (0, 1)" % (delta,))
    if not all(radius > 0.0 for radius in radii):
        raise RangeError("radii must be positive, got %r" % (tuple(radii),))
    if words is None:
        rng = np.random.default_rng(seed)
        n = len(system.maps)
        words = []
        for _ in range(samples):
            length = int(rng.integers(1, 7))
            period = tuple(int(v) for v in rng.integers(0, n, size=length))
            words.append(EventuallyPeriodicWord((), period))
    best = 0.0
    logd = math.log(1.0 / delta)
    for gamma in words:
        for radius in radii:
            hits = _ball_grid_count(system, gamma, radius,
                                    min(1.0, 2.0 * radius * delta))
            if hits > 0:
                best = max(best, math.log(hits) / logd)
    return best


def _fixed_range(system):
    """Bounds on every coordinate of every cylinder: the interval
    [min(0, p), max(1, p)] over the fixed points p = d / (1 - r) of the
    maps on both axes, which each map sends into itself."""
    points = [float(m.offset(axis)) / (1.0 - float(m.ratio(axis)))
              for m in system.maps for axis in (1, 2)]
    return min([0.0] + points), max([1.0] + points)


def _cell_range(s, floor):
    """(lowest index, number of indices) of the side-s cells that cylinders
    above ``floor`` can touch on either axis: from one cell below floor / s
    (from 0 when floor is 0) to the clamped top cell ceil(1/s) - 1."""
    low = math.floor(floor / s) - 1 if floor < 0.0 else 0
    return low, math.ceil(1.0 / s) - low


def _band_rates(system):
    """-1 / log r_max of each axis's largest ratio, which turns a long side
    into the levels of refinement left below it; None when some map leaves
    the unit square, since bands rely on descendants lying inside their
    ancestors in exact arithmetic."""
    if not all(0.0 <= float(d) and float(d) + float(r) <= 1.0
               for m in system.maps for r, d in ((m.r1, m.d1), (m.r2, m.d2))):
        return None
    return tuple(-1.0 / math.log(max(float(m.ratio(axis))
                                     for m in system.maps))
                 for axis in (1, 2))


def _band_guard(long, short, s, rate):
    """How far beyond a band's far edge its row must still reach.

    Descendants lie inside the band in exact arithmetic, taken from its
    computed edges.  In floats a band with sides ``long`` > s >= ``short``
    has at most m = ceil(rate * log(long / s)) + 2 levels below it (one to
    spare).  Each level rounds a sum of values below 2, by at most u =
    2^-53, and the side's products add at most 3 m u short in all; the far
    edge's own sum, the guarded sum and the map check ``_band_rates`` makes
    (d + r <= 1 after rounding) account for the rest of
    u * (m + 3 + 4 m short).
    """
    levels = np.ceil(rate * np.log(long / s)) + 2.0
    return 2.0 ** -53 * (levels + 3.0 + 4.0 * levels * short)


def _span_keys(ax, bx, ay, by, span, off):
    """Sorted distinct keys of every cell from (ax, ay) to (bx, by) per row,
    one offset at a time; a key is linear in the cell indices, so an offset
    cell's key is the corner's key plus the offset's.  ``span`` and ``off``
    are per row, or None for complex keys."""
    if not ax.size:
        return np.empty(0, dtype=np.int64)
    base = _cell_keys(ax, ay, span, off)
    ex, ey = bx - ax, by - ay
    keys = [base]
    for dx in range(int(ex.max()) + 1):
        for dy in range(int(ey.max()) + 1):
            if dx or dy:
                hit = (ex >= dx) & (ey >= dy)
                step = dx + 1j * dy if span is None else dx * span[hit] + dy
                keys.append(base[hit] + step)
    return _distinct(np.concatenate(keys))


def _grid_count(system, s):
    """Number of side-s grid cells touched by the cylinder cover at scale s:
    the one-scale call of ``_grid_counts``."""
    return _grid_counts(system, [s])[0]


def _grid_counts(system, scales):
    """Number of grid cells touched by the cylinder cover at each side in
    ``scales``, in their order (repeats allowed).

    The distinct scales are counted in one refinement, ``_ladder_count``,
    as long as their int64 cell codes fit side by side: a side s has the
    square of its ``_cell_range`` count of codes (ceil(1/s)^2 when the maps
    keep to the unit square), and a run's codes must sum below 2^63.  A
    scale with 2^31 or more cells a side is counted on its own, with
    complex keys.  The counts are of the cylinder cover, so they depend on
    the maps and move when the same carpet is given by its second iterate
    (build_exceptional("1/40") at k = 5: 531 cells, 529 from its 144
    composed maps).
    """
    rates, floor = _band_rates(system), _fixed_range(system)[0]
    runs, room = [], 0
    for s in sorted(set(scales), reverse=True):
        area = _cell_range(s, floor)[1] ** 2
        if area < min(room, 2 ** 62):
            runs[-1].append(s)
            room -= area
        else:
            runs.append([s])
            room = 2 ** 63 - area
    counts = {}
    for run in runs:
        counts.update(zip(run, _ladder_count(system, run, rates)))
    return [counts[s] for s in scales]


def _ladder_count(system, scales, rates):
    """Grid counts at the distinct ``scales``, coarse first, in one pass.

    The root block holds the unit square once per scale, tagged with the
    scale's index, and every row reads its own s, 1/s and top cell index.
    Cylinders are refined until both sides are at most s; each leaf touches
    the cells from the one under its lower-left corner to the one under its
    upper-right corner, with the top row and column clamped.  A cell's key
    is offset so that the lowest cell ``_cell_range`` allows codes 0, and
    then by the codes of the coarser scales, so one sort counts every scale
    from the key of its lowest cell on; complex keys, which take no offset,
    come from ``_grid_counts`` one scale at a time.

    A cylinder with one side at most s and the other longer is a band once
    that short side lies in one grid row (or column) with room to spare:
    every descendant then stays in that row, and its extent along the row
    depends only on the (ratio, offset) pairs of its letters on that axis,
    taken with the same float steps.  So a band's cells are its row times a
    one-dimensional refinement over the distinct pairs, which ``_refine``
    runs with the row index in the second slot and s in the third, which
    the pairs' ratio 1 keeps; the count is the one full refinement would
    give, with work that follows the cells rather than the thinnest
    cylinders.  The near edge needs no guard, since fl(y0 + h * d) >= y0;
    the far edge needs ``_band_guard``, which exceeds every cell below
    about 2^-51, so there nothing forms a band and the count is full
    refinement.  Each scale's rows take exactly the float steps of a count
    at that scale alone.
    """
    floor = _fixed_range(system)[0]
    low, span = zip(*(_cell_range(s, floor) for s in scales))
    low = np.array(low, dtype=float)
    if max(span) < 2 ** 31:     # int64 codes, each scale's after coarser ones
        span = np.array(span, dtype=np.int64)
        area = span * span
        off = np.cumsum(area) - area - low.astype(np.int64) * (span + 1)
    else:                       # complex keys, for a run of one scale
        span = off = None
    lowest = _cell_keys(low, low, span, off)    # the least key of each scale
    s = np.array(scales)
    table = (s, 1.0 / s, np.ceil(1.0 / s) - 1.0, span, off)
    root = tuple(np.repeat(a, len(scales)) for a in _root()) + (
        np.arange(len(scales)),)

    def at(tag):
        """s, 1/s, the top cell index, the key span and the key offset of
        rows tagged with their scale index."""
        return tuple(None if a is None else a[tag] for a in table)

    def index(v, inv, top):
        return np.minimum(np.trunc(v * inv), top)

    def done(x0, y0, w, h, depth, tag):
        s = table[0][tag]
        wide, tall = w > s, h > s
        stop = ~(wide | tall)
        if rates is not None:
            thin = np.flatnonzero(wide ^ tall)
            if thin.size:
                s, inv, top, _, _ = at(tag[thin])
                row = wide[thin]
                lo = np.where(row, y0[thin], x0[thin])
                side = np.where(row, h[thin], w[thin])
                guard = _band_guard(np.where(row, w[thin], h[thin]), side,
                                    s, np.where(row, *rates))
                stop[thin] = (index(lo, inv, top)
                              == index(lo + side + guard, inv, top))
        return stop

    # per axis: the distinct (ratio, offset) pairs, and the buffered bands
    # as (start, row or column index, length, s, scale index) blocks
    pairs = [_steps((r, 1, d, 0) for r, d in sorted(
        {(float(m.ratio(axis)), float(m.offset(axis))) for m in system.maps}))
        for axis in (1, 2)]
    bands = [[], []]
    cells = [np.empty(0, dtype=np.int64)]

    def flush(axis):
        block = tuple(np.concatenate(a) for a in zip(*bands[axis - 1]))
        bands[axis - 1].clear()
        for lo, line, length, _, tag in _refine(
                block, pairs[axis - 1], lambda x0, y0, w, h, n, tag: w <= h):
            _, inv, top, span, off = at(tag)
            ends = index(lo, inv, top), index(lo + length, inv, top)
            cells.append(_span_keys(*ends, line, line, span, off) if axis == 1
                         else _span_keys(line, line, *ends, span, off))

    for x0, y0, w, h, tag in _refine(root, _map_steps(system.maps), done):
        s = table[0][tag]
        leaf = (w <= s) & (h <= s)
        if not leaf.all():
            for axis, band, start, line, length in (
                    (1, ~leaf & (h <= s), x0, y0, w),
                    (2, ~leaf & (w <= s), y0, x0, h)):
                if band.any():
                    band_s, band_inv, band_top, _, _ = at(tag[band])
                    bands[axis - 1].append(
                        (start[band], index(line[band], band_inv, band_top),
                         length[band], band_s, tag[band]))
                    if sum(b[0].size for b in bands[axis - 1]) >= _CHUNK:
                        flush(axis)
            x0, y0, w, h, tag = (a[leaf] for a in (x0, y0, w, h, tag))
        _, inv, top, span, off = at(tag)
        cells.append(_span_keys(index(x0, inv, top), index(x0 + w, inv, top),
                                index(y0, inv, top), index(y0 + h, inv, top),
                                span, off))
    for axis in (1, 2):
        if bands[axis - 1]:
            flush(axis)
    keys = _distinct(np.concatenate(cells))
    return np.diff(np.searchsorted(keys, lowest), append=keys.size).tolist()


@lru_cache(maxsize=16)
def box_dimension_estimate(system):
    """Empirical box dimension: least-squares slope of log counts against
    log scale over the dyadic ladder 2^-k, k in ``_LADDER`` (4..9), all
    counted in one refinement.

    Returns (slope, (low, high)) where the band is the spread of the
    adjacent two-point slopes, an honest indication of how settled the
    ladder is.  Results are cached per system.
    """
    logs = [k * math.log(2.0) for k in _LADDER]
    counts = _grid_counts(system, [2.0 ** -k for k in _LADDER])
    ys = [math.log(c) for c in counts]
    slope = float(np.polyfit(logs, ys, 1)[0])
    pair = [(ys[t + 1] - ys[t]) / (logs[t + 1] - logs[t])
            for t in range(len(_LADDER) - 1)]
    return slope, (min(pair), max(pair))


def scale_count_table(system, ks):
    """(scale, grid count) rows for the dyadic scales 2^-k, k in ks, in
    the order given; the distinct scales are counted together, once.

    Every exponent is checked before any scale is counted: it must be an
    integer from 1 to 1022, so that 2^-k is a normal float."""
    ks = list(ks)
    if any(not 1 <= k <= 1022 or not float(k).is_integer() for k in ks):
        raise RangeError("scale exponents must be integers from 1 to 1022")
    scales = [2.0 ** -int(k) for k in ks]
    return list(zip(scales, _grid_counts(system, scales)))


# ------------------------------------------------------ clouds and tangents

def directed_hausdorff(a: PointCloud, b: PointCloud) -> float:
    """sup over a of the distance to the nearest point of b.

    Nearest neighbours come from scipy's k-d tree.  This is the only place
    carpetdim loads scipy, so it is imported here rather than with the
    module: ``import carpetdim`` and every CLI command stay free of it."""
    from scipy.spatial import cKDTree
    return float(cKDTree(b.points).query(a.points)[0].max())


def hausdorff_distance(a: PointCloud, b: PointCloud) -> float:
    """Hausdorff distance between two finite clouds (exact, symmetric).

    Loads scipy on first use, through ``directed_hausdorff``."""
    return max(directed_hausdorff(a, b), directed_hausdorff(b, a))


def attractor_cloud(system, resolution) -> PointCloud:
    """Cylinder-center cloud of the attractor: descend until both sides of
    every cylinder are at most the resolution, then emit centers."""
    if resolution <= 0.0 or resolution >= 1.0:
        raise RangeError("resolution must lie in (0, 1)")
    rects = cylinders_to_scale(system, resolution, axis=0)
    return PointCloud([rect.center for _, rect in rects], resolution)


def _line_cloud(children, resolution) -> PointCloud:
    """1-D cloud of the centres of first-axis intervals at the resolution."""
    xs = np.concatenate([x0 + 0.5 * w for x0, _, w, _ in _refine(
        _root(), children, lambda x0, y0, w, h, n: w <= resolution)])
    return PointCloud(xs[np.lexsort((xs,)), None], resolution)


def projection_cloud(system, axis, resolution) -> PointCloud:
    """1-D cloud of the projected attractor on the given axis."""
    if resolution <= 0.0 or resolution >= 1.0:
        raise RangeError("resolution must lie in (0, 1)")
    classes = _steps((c.ratio, 1, c.offset, 0)
                     for c in system.classes(axis))
    return _line_cloud(classes, resolution)


def slice_cloud(system, gamma: EventuallyPeriodicWord, offset, axis,
                resolution) -> PointCloud:
    """1-D cloud of the symbolic slice read along gamma from ``offset``.

    Level n of the non-autonomous construction applies the orthogonal parts
    of the maps in the axis-``axis`` class of gamma_{offset+n}.
    """
    if resolution <= 0.0 or resolution >= 1.0:
        raise RangeError("resolution must lie in (0, 1)")
    gamma.check_alphabet(system)
    lookup = system.class_index(axis)
    other = 2 if axis == 1 else 1
    fibres = [_steps((system.maps[m].ratio(other), 1,
                      system.maps[m].offset(other), 0) for m in c.members)
              for c in system.classes(axis)]
    return _line_cloud(lambda n: fibres[lookup[gamma.letter(offset + n)]],
                       resolution)


def tangent_cloud(system, gamma: EventuallyPeriodicWord, k,
                  resolution) -> PointCloud:
    """Cloud of the depth-k approximate square around gamma, renormalized
    per axis to the unit square.

    The square (``approximate_square``; on these carpets it extends along
    the long axis j, by columns when j = 1) fixes the first k letters and
    the projected classes of the extension letters; the cloud enumerates
    exactly the attractor points compatible with those constraints,
    descending until both sides are below the resolution in renormalized
    units.  The mirror of a carpet in x = y gives the transposed cloud.
    """
    if system.klass != GATZOURAS_LALLEY:
        raise WrongClass("tangent clouds are defined for GatzourasLalley "
                         "systems, got %s" % system.klass)
    if resolution <= 0.0 or resolution >= 1.0:
        raise RangeError("resolution must lie in (0, 1)")
    j, = long_axes(system)
    square = approximate_square(system, gamma, k)
    box = square.rect
    maps = _map_steps(system.maps)
    along = _extension(system, j)[0]
    # the first levels keep to the maps in the extension's axis-j classes
    ext = [_map_steps(system.maps[m] for m in system.classes(j)[cid].members)
           for cid in square.extension]
    # renormalized resolution of (w, h); j - 1 indexes the long side
    lim = (resolution * box.width, resolution * box.height)
    pts = []
    start = _root(*_compose(system.maps[i] for i in square.base))
    for block in _refine(start, lambda n: ext[n] if n < len(ext) else maps,
                         lambda x0, y0, w, h, n:
                         (n >= len(ext)) & ((w, h)[2 - j] <= lim[2 - j])):
        # the short side is resolved: only the long one still needs
        # refining, so descend through axis-j classes, which keep the other
        for x0, y0, w, h in _refine(block, along, lambda x0, y0, w, h, n:
                                    (w, h)[j - 1] <= lim[j - 1]):
            pts.append(np.column_stack(((x0 + 0.5 * w - box.x0) / box.width,
                                        (y0 + 0.5 * h - box.y0) / box.height)))
    pts = np.concatenate(pts)       # rows in sorted() order: by x, then y
    return PointCloud(pts[np.lexsort(pts.T[::-1])], resolution)


# ------------------------------------------------------------- fixtures

def fixture_progressions(kmax) -> PointCloud:
    """{0} with, for each k <= kmax, an arithmetic progression of k+1
    points of gap 4^-k starting at 2^-k."""
    if kmax < 2:
        raise RangeError("kmax must be >= 2")
    pts = [(0.0,)]
    for k in range(1, kmax + 1):
        base, step = 2.0 ** -k, 4.0 ** -k
        pts.extend((base + ell * step,) for ell in range(k + 1))
    return PointCloud(sorted(pts), np.finfo(float).eps)


def fixture_fast_decay(kmax) -> PointCloud:
    """{0} with, for each k <= kmax, the block a_k * (2^k - ell) / 2^k for
    0 <= ell <= floor(2^k / k), where a_k = 4^(-k^2)."""
    if kmax < 2:
        raise RangeError("kmax must be >= 2")
    pts = {(0.0,)}
    for k in range(1, kmax + 1):
        a, top = 4.0 ** -(k * k), 2 ** k
        for ell in range(top // k + 1):
            pts.add((a * (top - ell) / top,))
    return PointCloud(sorted(pts), np.finfo(float).eps)


# ------------------------------------------------------------- emission

def render_svg(system, depth, path):
    """Write a stroke-only SVG of the depth-level cylinder rectangles.

    Depth 0 draws the unit square alone; depth n draws one rectangle per
    length-n word.  Coordinates are written with four decimals in a unit
    viewBox, y flipped so the carpet reads in mathematical orientation.
    """
    if depth < 0:
        raise RangeError("depth must be >= 0")
    maps = _map_steps(system.maps)
    rects = [rect for block in _refine(_root(), maps,
                                       lambda x0, y0, w, h, n: n == depth)
             for rect in zip(*(a.tolist() for a in block))]
    lines = (['<?xml version="1.0" encoding="UTF-8"?>',
              '<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 1 1">']
             + ['  <rect x="%.4f" y="%.4f" width="%.4f" height="%.4f"'
                ' fill="none" stroke="black" stroke-width="0.002"/>'
                % (x0, 1.0 - (y0 + h), w, h) for x0, y0, w, h in rects]
             + ['</svg>'])
    data = "\n".join(lines) + "\n"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(data)
    return len(rects)


def write_scale_counts_csv(rows, path):
    """Write (scale, count) rows as a two-column CSV with a header."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("scale,count\n")
        for scale, hits in rows:
            handle.write("%.12g,%d\n" % (scale, hits))
