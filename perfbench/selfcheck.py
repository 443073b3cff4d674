"""Checks of the benchmark's reference computations on known answers.

    python3 perfbench/selfcheck.py

Exits non-zero on the first mismatch.  The references never import
carpetdim; the last block compares the numpy counters with the package's
depth-first counters, which must agree exactly.
"""

import math
import sys
from fractions import Fraction
from pathlib import Path

import inputs
import reference as ref

ROOT = Path(__file__).resolve().parent.parent


def expect(name, got, want, tol=0.0):
    ok = (got == want) if tol == 0.0 else abs(got - want) <= tol
    if not ok:
        raise SystemExit("FAIL %s: got %r, want %r" % (name, got, want))
    print("ok   %s" % name)


def main():
    gl3 = inputs.gl3()
    maps = ref.maps_of(gl3)
    dims = ref.gl_reference(gl3)
    expect("gl3 dimH = log2(1 + sqrt 2)", dims["dimH"],
           math.log2(1 + math.sqrt(2)), 1e-9)
    expect("gl3 dimB = 1 + log4(3/2)", dims["dimB"],
           1 + math.log(1.5, 4), 1e-12)
    expect("gl3 dimA = 1.5", dims["dimA"], 1.5, 1e-12)
    expect("gl3 dimL = 1", dims["dimL"], 1.0, 1e-12)
    closed = ref.mcmullen_reference(2, 4, [(0, 0), (0, 2), (1, 0)])
    for key in ("dimH", "dimB", "dimA", "dimL"):
        expect("gl3 McMullen closed form %s" % key, closed[key], dims[key],
               1e-9)

    expect("moran root of {1/2, 1/2}", ref.moran_root([0.5, 0.5]), 1.0,
           1e-14)
    expect("window root of halves then thirds",
           ref.window_root([[0.5, 0.5], [1 / 3] * 3]), 1.0, 1e-14)
    expect("gl3 fibre along column 0", ref.slice_root(maps, (0,), 1), 0.5,
           1e-14)
    expect("gl3 word :(0) is Omega1", ref.omega(maps, (0,))[0], "Omega1")

    expect("gl3 point :(1)", ref.coded_point(maps, (), (1,)), (0.0, 2 / 3))
    expect("gl3 point 0:(2)", ref.coded_point(maps, (0,), (2,)), (0.5, 0.0))

    oracle = ref.load_oracle(ROOT)
    exc0 = ref.exceptional_reference(oracle, _exceptional_zero(), 0)
    # frozen oracle values from tests/test_dimensions.py
    expect("exc(0) d1", exc0["d1"], 1.697053765272724, 1e-12)
    expect("exc(0) d2", exc0["d2"], 1.722629596943400, 1e-12)
    expect("exc(0) A1 = 2", exc0["A1"], 2.0, 1e-12)
    expect("exc(0) A2 = d2", exc0["A2"], 1.722629596943400, 1e-9)
    expect("exc(0) p0", exc0["reduction"]["p0"], 0.415037499278844, 1e-12)
    expect("exc(0) sup D1", exc0["reduction"]["sup_D1"], 0.489536321199650,
           1e-12)
    expect("exc(0) sup D2", exc0["reduction"]["sup_D2"], 0.529532656220852,
           1e-12)

    half = Fraction(1, 2)
    square = ref.maps_of({"maps": [
        {"r1": [1, 2], "r2": [1, 2], "d1": [i, 2], "d2": [j, 2]}
        for i in range(2) for j in range(2)]})
    for k in (3, 6):
        expect("full square grid count at 2^-%d" % k,
               ref.grid_count(square, 2.0 ** -k), 4 ** k)
    slope, band = ref.box_estimate(square)
    expect("full square box estimate = 2", slope, 2.0, 1e-12)
    expect("full square band = (2, 2)", band, (2.0, 2.0))
    expect("full square unit ball count at 2^-3",
           ref.ball_count(square, (float(half), float(half)), 0.75, 2 ** -3),
           64)

    sys.path.insert(0, str(ROOT / "src"))
    from carpetdim import EventuallyPeriodicWord, system_from_config
    from carpetdim.geometry import _grid_count, box_count_ball
    system = system_from_config(gl3)
    for k in (4, 7, 9):
        expect("gl3 grid count at 2^-%d equals the package" % k,
               ref.grid_count(maps, 2.0 ** -k), _grid_count(system, 2.0 ** -k))
    for pre, period in (((), (0,)), ((1, 2), (0, 1))):
        centre = ref.coded_point(maps, pre, period)
        expect("gl3 ball count at %r:%r equals the package" % (pre, period),
               ref.ball_count(maps, centre, 0.25, 2.0 ** -9),
               box_count_ball(system, EventuallyPeriodicWord(pre, period),
                              0.25, 2.0 ** -9))


def _exceptional_zero():
    """build_exceptional(0) written out: one 1/3 x 1/4 column of four maps
    and four 1/6 x 1/4 columns of two."""
    maps = [((1, 3), (1, 4), (0, 1), (i, 4)) for i in range(4)]
    for j, rows in ((0, (0, 1)), (1, (0, 1)), (2, (2, 3)), (3, (2, 3))):
        maps += [((1, 6), (1, 4), (2 + j, 6), (i, 4)) for i in rows]
    return {"maps": [{"r1": list(a), "r2": list(b), "d1": list(c),
                      "d2": list(d)} for a, b, c, d in maps]}


if __name__ == "__main__":
    main()
