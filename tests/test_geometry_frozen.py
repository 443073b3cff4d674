"""Frozen outputs of the cylinder refinements in geometry.py.

Every value here was computed by the former depth-first implementation
(one Python stack or level loop per function) and must stay bit-identical:
integer counts exactly, clouds, cylinder sections and the SVG file through
the sha256 of their repr or bytes.  Any change in floating-point evaluation
order shows up as a changed digest.
"""

import hashlib
import math
from fractions import Fraction

import numpy as np

from carpetdim import (approximate_square, attractor_cloud, box_count_ball,
                       box_dimension_estimate, build_exceptional,
                       cylinders_to_scale, projection_cloud, psi_estimate,
                       pseudo_cylinder_count, render_svg, slice_cloud,
                       tangent_cloud, validate)
from carpetdim.geometry import (_ball_grid_count, _grid_count, _grid_counts,
                                _point_at)
from carpets import HALF, gl3, random_baranski_system, word
from oracles.frozen import GL3_DIMB_ESTIMATE


def exc():
    return build_exceptional("1/40")


def digest(value):
    data = value if isinstance(value, bytes) else repr(value).encode()
    return hashlib.sha256(data).hexdigest()


def test_grid_counts_frozen():
    ks = range(4, 11)
    assert [_grid_count(gl3(), 2.0 ** -k) for k in ks] == \
        [40, 121, 229, 688, 1336, 4009, 7897]
    assert [_grid_count(exc(), 2.0 ** -k) for k in ks] == \
        [160, 531, 1540, 4775, 14538, 45275, 135838]


def test_grid_counts_below_int64_cell_codes_frozen():
    # below 2^-31 the cell index pairs no longer fit one int64 code
    system = validate([
        (Fraction(1, 100), Fraction(1, 200), 0, 0),
        (Fraction(1, 100), Fraction(1, 200), HALF, Fraction(1, 3)),
        (Fraction(1, 50), Fraction(1, 300), Fraction(9, 10), Fraction(9, 10)),
    ])
    assert [_grid_count(system, 2.0 ** -k) for k in (20, 30, 33, 40, 60)] == \
        [69, 355, 680, 2262, 33961]
    # one ladder: 2^-20 and 2^-30 share the int64 codes, the rest go alone
    assert _grid_counts(system, [2.0 ** -k for k in (60, 20, 33, 30, 40, 20)]) \
        == [33961, 69, 680, 355, 2262, 69]
    assert [_ball_grid_count(system, word((), (0, 1)), 0.3, 2.0 ** -k)
            for k in (20, 33, 45)] == [21, 195, 1503]


def test_box_dimension_estimates_frozen():
    # from the former estimate, which counted one scale per refinement
    assert box_dimension_estimate.__wrapped__(gl3()) == \
        (GL3_DIMB_ESTIMATE, (0.92034055082235, 1.5969351423872324))
    assert box_dimension_estimate.__wrapped__(exc()) == \
        (1.6194281265577404, (1.5361465847781104, 1.7306399559167915))


def plain_squares(system, centre, R, r):
    """The scale-r approximate squares that meet B(centre, R), counted by a
    plain depth-first refinement with the float steps and ball test of
    ``box_count_ball``: cylinders until the shorter side is at most r, then
    extensions along the longer axis until that side first drops to at
    most the other."""
    maps = [tuple(float(v) for v in (m.r1, m.r2, m.d1, m.d2))
            for m in system.maps]
    extend = ([(float(c.ratio), 1.0, float(c.offset), 0.0)
               for c in system.columns],
              [(1.0, float(c.ratio), 0.0, float(c.offset))
               for c in system.rows])
    (cx, cy), stack, count = centre, [(0.0, 0.0, 1.0, 1.0, None)], 0
    while stack:
        x0, y0, w, h, axis = stack.pop()    # axis None: still a base
        dx = max(x0 - cx, 0.0, cx - (x0 + w))
        dy = max(y0 - cy, 0.0, cy - (y0 + h))
        if dx * dx + dy * dy > R * R * (1.0 + 1e-12):
            continue
        if axis is None and min(w, h) <= r:
            axis = 0 if w >= h else 1
        if axis is not None:
            along, across = (w, h) if axis == 0 else (h, w)
            if along <= across * (1.0 + 1e-12):
                count += 1
                continue
        stack.extend((x0 + w * d1, y0 + h * d2, w * r1, h * r2, axis)
                     for r1, r2, d1, d2 in
                     (maps if axis is None else extend[axis]))
    return count


def test_ball_counts_frozen():
    assert box_count_ball(gl3(), word((), (0, 2, 1)), 0.25, 2.0 ** -10) == 2279
    # exc(1/40) has wide and tall maps, and draw 0 has 7 maps of both
    # orientations: tall bases extend along rows
    draw = random_baranski_system(np.random.default_rng(2))
    for system, gamma, R, r, size in (
            (exc(), word((1, 2), (0, 5)), 0.125, 2.0 ** -9, 22535),
            (exc(), word((), (7,)), 0.25, 2.0 ** -8, 11200),
            (draw, word((), (0,)), 0.125, 2.0 ** -3, 32),
            (draw, word((), (0,)), 0.125, 2.0 ** -4, 73),
            (draw, word((), (0,)), 0.125, 2.0 ** -5, 280)):
        assert plain_squares(system, _point_at(system, gamma), R, r) == size
        assert box_count_ball(system, gamma, R, r) == size


def centre_cells(maps, centre, R, s):
    """The (ix, iy) cells under the centres of the cylinders that meet the
    ball B(centre, R) once both sides are at most s: a plain depth-first
    refinement with the float steps and ball test of ``_ball_grid_count``."""
    (cx, cy), stack, cells = centre, [(0.0, 0.0, 1.0, 1.0)], set()
    while stack:
        x0, y0, w, h = stack.pop()
        dx = max(x0 - cx, 0.0, cx - (x0 + w))
        dy = max(y0 - cy, 0.0, cy - (y0 + h))
        if dx * dx + dy * dy > R * R * (1.0 + 1e-12):
            continue
        if w <= s and h <= s:
            cells.add((math.trunc((x0 + 0.5 * w) / s),
                       math.trunc((y0 + 0.5 * h) / s)))
        else:
            stack.extend((x0 + w * d1, y0 + h * d2, w * r1, h * r2)
                         for r1, r2, d1, d2 in maps)
    return cells


def test_ball_grid_counts_and_psi_frozen():
    assert _ball_grid_count(exc(), word((), (0, 5)), 0.25, 2.0 ** -8) == 1848
    assert _ball_grid_count(gl3(), word((1,), (2,)), 0.5, 2.0 ** -9) == 2013
    # maps that leave the unit square: every distinct centre cell counts,
    # rows and columns beyond the top one too
    for maps, gamma, R, s, size in (
            ([(0.4, 0.3, -0.7, 0.0), (0.5, 0.5, 0.5, 0.6),
              (0.3, 0.3, 0.2, -0.5)], word((), (1, 2)), 0.95, 1 / 128, 332),
            ([(0.3, 0.5, 0.8, 0.5), (0.5, 0.5, 0.8, 0.0),
              (0.4, 0.5, 0.8, 0.9)], word((), (0,)), 0.99, 1 / 8, 22)):
        cells = centre_cells(maps, _point_at(validate(maps), gamma), R, s)
        assert len(cells) == size
        assert _ball_grid_count(validate(maps), gamma, R, s) == size
    assert psi_estimate(gl3(), 2.0 ** -8) == 1.3360312886416472
    assert psi_estimate(exc(), 2.0 ** -6, samples=4) == 1.6568412677234303


def test_cylinder_sections_frozen():
    system = exc()
    expected = {
        0: (2432, "ab7917d57c904b8f6621661a7caca4a0"
                  "92abccd473d38af51d33f1d10032c14b"),
        1: (2432, "ab7917d57c904b8f6621661a7caca4a0"
                  "92abccd473d38af51d33f1d10032c14b"),
        2: (1728, "33328b90ba6cb541df74e085096a090d"
                  "d20325fae9f6fb1fd04886b51dadf6e4"),
    }
    for axis, (size, sha) in expected.items():
        rows = cylinders_to_scale(system, 0.02, axis)
        assert len(rows) == size
        assert digest(rows) == sha


def test_approximate_squares_frozen():
    squares = [approximate_square(exc(), word(pre, period), k)
               for pre, period in (((), (0,)), ((3,), (0, 5, 9)), ((), (4, 7)),
                                   ((1, 2), (11,)))
               for k in (1, 3, 6)]
    assert {sq.axis for sq in squares} == {1, 2}
    assert digest(squares) == ("02fd1e7acf7062a9b54de56c6a4d1875"
                               "0ae4fca002209aaae2ab81f1c84bcc80")


def test_clouds_frozen():
    system = exc()
    gamma = word((3,), (0, 5, 9))
    clouds = {
        "attractor": (attractor_cloud(system, 0.02), 2432,
                      "5da6250c619b0bf7a6535d027cc71639"
                      "16a69e277d9ceb8d72d580c44376473e"),
        "projection 1": (projection_cloud(system, 1, 1e-3), 1161,
                         "16ca8525a0891ada425bed8b839a147c"
                         "5eecf9a7c744fe65ddd91c6c833f4b53"),
        "projection 2": (projection_cloud(system, 2, 1e-3), 1024,
                         "cc076d53a97e901d9896835861b917fd"
                         "a987de6825d23c7b594c448e5e5aa9e9"),
        "slice 1": (slice_cloud(system, gamma, 1, 1, 1e-3), 128,
                    "8b9c4e2b262d5eedf5540338507f6ac9"
                    "6d0d04b66126b2bd1304ed7a6ed8c76d"),
        "slice 2": (slice_cloud(system, gamma, 1, 2, 1e-3), 169,
                    "7dcfadcc519419fa9cc2e79781462179"
                    "527bce1452dbc8874a8994cf100ed79a"),
        "tangent": (tangent_cloud(gl3(), word((), (0, 2, 1)), 3, 2.0 ** -7),
                    768, "f42f37ac03471531c9d09629fbb70860"
                         "ae00719a49af0f90914fa023c89119a9"),
    }
    for name, (cloud, size, sha) in clouds.items():
        assert (name, len(cloud)) == (name, size)
        rows = tuple(map(tuple, cloud.points.tolist()))
        assert (name, digest(rows)) == (name, sha)


def test_render_svg_frozen(tmp_path):
    path = tmp_path / "carpet.svg"
    assert render_svg(exc(), 3, str(path)) == 1728
    assert digest(path.read_bytes()) == (
        "8bb2d1c40884e98e3ed6eab5b6e7f949"
        "0ef53696abbec6b053275f733a2986a9")


def test_pseudo_counts_frozen():
    system = exc()
    assert [pseudo_cylinder_count(system, (0,) * n, uj)
            for n, uj in ((1, ()), (4, ()), (6, ()), (6, (0,)),
                          (8, (1,)))] == [5, 9, 9, 5, 5]
    assert [pseudo_cylinder_count(system, (4,) * 3, (), axis=2),
            pseudo_cylinder_count(system, (4,) * 5, (0,), axis=2),
            pseudo_cylinder_count(system, (0, 0), (), axis=1),
            pseudo_cylinder_count(gl3(), (0,), (), axis=1)] == [4, 4, 5, 2]
