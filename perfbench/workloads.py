"""The two workloads: seeded inputs, a fixed op list, and a check per op.

``setup`` is what a user pays before the first answer: it generates the
configs from the seed and validates every system.  It runs both inside the
benchmark process and in each cold-start probe, so ``setup_s`` covers
exactly this work.  ``ops`` turns the loaded inputs into the timed op list;
every op is a closure over inputs built in ``setup``.  Checks run after the
timed loop and compare each output with the independent computations in
``reference``.

A run repeats whole rounds; the number of rounds follows from
``--seconds`` and the nominal round cost below, never from the clock, so
the mix of every run is the same.  Every op runs on a system the run has
not seen before.

* closed-form, per round: ``dims`` on a McMullen, a random GL and a
  build_exceptional carpet, and ``levelset`` on a random GL carpet, all
  through the CLI.
* covering-counts, per round: 6 ``estimate`` (k = 4..9), 1 ``boxcount``
  (k = 4..10), 3 ball counts and 2 ``pointwise --axis 2`` queries.  The
  counted systems have one of two fixed ratio multisets with a random
  layout, so the cylinder tree, and the cost, is the same for every seed.

The host's speed switches between fast and slow stretches of 20 to 60
seconds.  A rank in the middle of a tight cost cluster jumps between the
two as their share of a run changes; a rank low in a cluster moves only
when the host is slow for most of the run.  So covering-counts puts its
cheap ops (ball counts and pointwise queries, 42% of the ops) under the
estimates (50%), and at 35 seconds its median lies between the 13th and
14th of 78 estimates and its tail (ten samples beyond) is the 3rd of 13
boxcounts.  closed-form
holds 36 ops a run, three in four of them GL dims or level sets of about
0.6 s; it reports its median in the tail's place.
"""

from __future__ import annotations

import io
import json
import math
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

import inputs

# nominal seconds per round at this commit on the reference host (2 cores)
ROUND_SECONDS = {"closed-form": 3.9, "covering-counts": 2.7}

DIM_TOL = 1e-9            # roots and closed forms
OPT_TOL = 1e-6            # optimiser maxima against an independent maximum
ORDER_TOL = 1e-12         # dimension order; values recomputed exactly
EDGE = 1e-9               # level-set alphas this close to an end are ambiguous

# covering-counts ratio multisets: (width, [heights]) per column, in 1/60
FAMILY_ESTIMATE = [(24, [12, 9]), (20, [10, 6]), (12, [6, 4])]
FAMILY_BOXCOUNT = [(30, [12, 10]), (20, [8, 6])]
BOXCOUNT_SCALES = "4,5,6,7,8,9,10"
BALL_R, BALL_K = 0.125, 10


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object, "References"], bool]


def rounds_for(workload, seconds):
    return max(1, round(seconds / ROUND_SECONDS[workload]))


def cli_call(cli, argv, text):
    """carpetdim's CLI in-process: config on stdin, envelope captured."""
    stdin, stdout = sys.stdin, sys.stdout
    sys.stdin, sys.stdout = io.StringIO(text), io.StringIO()
    try:
        code = cli.run(argv)
        return code, sys.stdout.getvalue()
    finally:
        sys.stdin, sys.stdout = stdin, stdout


def _results(output):
    code, text = output
    if code != 0:
        return None
    return json.loads(text)["results"]


def _close(a, b, tol):
    return a is not None and b is not None and abs(a - b) <= tol


def _fresh(draw, seen):
    """Draw configs until one is new to this run."""
    while True:
        out = draw()
        key = inputs.config_key(out[0] if isinstance(out, tuple) else out)
        if key not in seen:
            seen.add(key)
            return out


class References:
    """Reference values, computed on first use and kept per input.  Inputs
    are keyed by identity: every config lives for the whole run."""

    def __init__(self, root):
        import reference
        self.ref = reference
        self.oracle = reference.load_oracle(root)
        self._memo = {}

    def memo(self, key, compute):
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def gl(self, config, hausdorff=True):
        return self.memo(("gl", id(config), hausdorff),
                         lambda: self.ref.gl_reference(config, hausdorff))

    def maps(self, config):
        return self.memo(("maps", id(config)),
                         lambda: self.ref.maps_of(config))

    def estimate(self, config):
        return self.memo(("estimate", id(config)),
                         lambda: self.ref.box_estimate(self.maps(config)))

    def fibre(self, config, period, axis):
        return self.memo(("fibre", id(config), period, axis),
                         lambda: self.ref.slice_root(self.maps(config),
                                                     period, axis))


# -------------------------------------------------------------- closed-form

def _check_gl_dims(item):
    kind, config, _, meta = item

    def check(output, refs):
        res = _results(output)
        if res is None or res["klass"] != "GatzourasLalley":
            return False
        ref = dict(refs.gl(config, hausdorff=kind == "random-gl"))
        if kind == "mcmullen":
            closed = refs.ref.mcmullen_reference(*meta)
            if not all(_close(ref[k], closed[k], DIM_TOL)
                       for k in ("dimB", "dimA", "dimL")):
                return False
            ref["dimH"] = closed["dimH"]
        for key in ("dim_proj_box_1", "dimB", "dimA", "dimL"):
            if not _close(res[key], ref[key], DIM_TOL):
                return False
        if (ref["dim_proj_box_2"] is None) != (res["dim_proj_box_2"] is None):
            return False
        if ref["dim_proj_box_2"] is not None and not _close(
                res["dim_proj_box_2"], ref["dim_proj_box_2"], DIM_TOL):
            return False
        if not _close(res["dimH"], ref["dimH"], OPT_TOL):
            return False
        return (res["dimL"] <= res["dimH"] + ORDER_TOL
                and res["dimH"] <= res["dimB"] + ORDER_TOL
                and res["dimB"] <= res["dimA"] + ORDER_TOL)
    return check


def _check_baranski_dims(item):
    _, config, _, delta = item

    def check(output, refs):
        res = _results(output)
        if res is None or res["klass"] != "Baranski":
            return False
        ref = refs.memo(("exc", delta), lambda: refs.ref.exceptional_reference(
            refs.oracle, config, delta))
        for key in ("dimB_eta1", "dimB_eta2", "t1", "t2", "A1", "A2", "dimA"):
            if not _close(res[key], ref[key], DIM_TOL):
                return False
        for key in ("d1", "d2", "dimH"):
            if not _close(res[key], ref[key], OPT_TOL):
                return False
        reduction = res.get("reduction", {})
        return all(_close(reduction.get(key), ref["reduction"][key], DIM_TOL)
                   for key in ("p0", "sup_D1", "sup_D2", "dimH"))
    return check


def _check_levelset(config, alpha):
    def check(output, refs):
        res = _results(output)
        if res is None:
            return False
        dims = refs.gl(config)
        if dims["dimB"] + EDGE < alpha < dims["dimA"] - EDGE:
            return (_close(res["dim"], dims["dimH"], OPT_TOL)
                    and res["full_measure"] is False)
        if alpha < dims["dimB"] - EDGE or alpha > dims["dimA"] + EDGE:
            return res["dim"] is None and res["full_measure"] is False
        return True
    return check


def closed_form_setup(cd, seed, rounds):
    rng = random.Random("closed-form:%d" % seed)
    seen = set()
    deltas = rng.sample(range(0, 101), rounds)
    items = []
    for r in range(rounds):
        for kind in ("mcmullen", "exceptional", "random-gl", "levelset"):
            if kind == "mcmullen":
                config, n, m, cells = _fresh(lambda: inputs.mcmullen(rng),
                                             seen)
                meta = (n, m, cells)
            elif kind == "exceptional":
                meta = Fraction(deltas[r], 1200)
                config = cd.systems.system_to_config(
                    cd.pointwise.build_exceptional(meta))
            else:
                config = _fresh(lambda: inputs.random_gl(rng), seen)
                meta = rng.uniform(0.8, 2.0) if kind == "levelset" else None
            system = cd.systems.system_from_config(config)
            expected = "Baranski" if kind == "exceptional" else \
                "GatzourasLalley"
            if system.klass != expected:
                raise RuntimeError("generated %s input is %s"
                                   % (kind, system.klass))
            items.append((kind, config, json.dumps(config), meta))
    return items


def closed_form_ops(cd, items):
    ops = []
    for item in items:
        kind, config, text, meta = item
        if kind == "levelset":
            argv, check = (["levelset", "--alpha", repr(meta)],
                           _check_levelset(config, meta))
        elif kind == "exceptional":
            argv, check = ["dims"], _check_baranski_dims(item)
        else:
            argv, check = ["dims"], _check_gl_dims(item)
        ops.append(Op(kind, lambda argv=argv, text=text: cli_call(
            cd.cli, argv, text), check))
    return ops


# ---------------------------------------------------------- covering-counts

COVERING_ROUND = ("pointwise", "estimate", "ball", "estimate", "ball",
                  "boxcount", "estimate", "pointwise", "estimate", "ball",
                  "estimate", "estimate")


def covering_setup(cd, seed, rounds):
    rng = random.Random("covering-counts:%d" % seed)
    seen = set()
    items = []
    for _ in range(rounds):
        for kind in COVERING_ROUND:
            if kind == "pointwise":
                config = _fresh(lambda: inputs.random_gl(rng), seen)
            else:
                family = (FAMILY_BOXCOUNT if kind == "boxcount"
                          else FAMILY_ESTIMATE)
                config = _fresh(lambda: inputs.shuffled_layout(rng, family,
                                                               60), seen)
            word = (inputs.word(rng, len(config["maps"]))
                    if kind in ("ball", "pointwise") else None)
            items.append((kind, config, word))
    loaded = []
    for kind, config, word in items:
        system = cd.systems.system_from_config(config)
        if system.klass != "GatzourasLalley":
            raise RuntimeError("generated covering input is %s" % system.klass)
        gamma = cd.systems.EventuallyPeriodicWord(*word) if word else None
        loaded.append((kind, config, json.dumps(config), system, gamma))
    return loaded


def _check_pointwise(res, refs, config, period):
    """GL pointwise envelope against window roots solved by brentq; the
    requested axis-2 fibre is the slice along rows."""
    ref = refs.ref
    dims = refs.gl(config, hausdorff=False)
    fiber = refs.fibre(config, period, 1)
    tangent = dims["dim_proj_box_1"] + fiber
    return (res["omega_class"] == ref.omega(refs.maps(config), period)[0]
            and res["axis"] == 1
            and _close(res["fiber_dim"], fiber, DIM_TOL)
            and _close(res["tangent_dim"], tangent, DIM_TOL)
            and _close(res["pointwise_assouad"], max(dims["dimB"], tangent),
                       DIM_TOL)
            and _close(res["requested_axis"]["fiber_dim"],
                       refs.fibre(config, period, 2), DIM_TOL))


def _check_covering(item):
    kind, config, _, _, gamma = item

    def check(output, refs):
        ref = refs.ref
        maps = refs.maps(config)
        if kind == "ball":
            centre = ref.coded_point(maps, gamma.preperiod, gamma.period)
            return output == ref.ball_count(maps, centre, BALL_R,
                                            2.0 ** -BALL_K)
        res = _results(output)
        if res is None:
            return False
        if kind == "pointwise":
            return _check_pointwise(res, refs, config, gamma.period)
        if kind == "estimate":
            slope, band = refs.estimate(config)
            return (_close(res["dimB_estimate"], slope, ORDER_TOL)
                    and _close(res["band"][0], band[0], ORDER_TOL)
                    and _close(res["band"][1], band[1], ORDER_TOL))
        ks = [int(k) for k in BOXCOUNT_SCALES.split(",")]
        counts = [ref.grid_count(maps, 2.0 ** -k) for k in ks]
        if [(row["scale"], row["count"]) for row in res["counts"]] != \
                [(2.0 ** -k, c) for k, c in zip(ks, counts)]:
            return False
        slope = np.polyfit([k * math.log(2.0) for k in ks],
                           [math.log(c) for c in counts], 1)[0]
        return _close(res["fit_slope"], float(slope), ORDER_TOL)
    return check


def covering_ops(cd, loaded):
    geometry = cd.geometry
    ops = []
    for item in loaded:
        kind, _, text, system, gamma = item
        if kind == "ball":
            def run(s=system, g=gamma):
                return geometry.box_count_ball(s, g, BALL_R, 2.0 ** -BALL_K)
        else:
            if kind == "estimate":
                argv = ["estimate"]
            elif kind == "boxcount":
                argv = ["boxcount", "--scales", BOXCOUNT_SCALES]
            else:
                argv = ["pointwise", "--axis", "2", "--gamma",
                        inputs.gamma_text(gamma.preperiod, gamma.period)]

            def run(argv=argv, text=text):
                return cli_call(cd.cli, argv, text)
        ops.append(Op(kind, run, _check_covering(item)))
    return ops


WORKLOADS = {
    "closed-form": (closed_form_setup, closed_form_ops),
    "covering-counts": (covering_setup, covering_ops),
}
