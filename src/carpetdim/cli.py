"""Command-line surface: one JSON envelope per invocation.

Every subcommand except ``example-baranski`` and ``fiber`` reads a carpet
config -- a JSON object ``{"maps": [{"r1": ..., "r2": ..., "d1": ...,
"d2": ...}, ...]}`` with scalars given as numbers or exact ``[num, den]``
rationals -- from ``--input PATH`` or stdin, and writes a single envelope

    {"command": ..., "input_digest": ..., "results": ...,
     "diagnostics": ..., "warnings": [...]}

to stdout.  A previous envelope may be piped in wherever a config is
expected (the loader falls back to ``results.system``), so commands chain:

    carpetdim example-baranski --delta 0 | carpetdim dims

Envelopes are serialized with sorted keys and no wall-clock content, so
identical inputs and seeds produce byte-identical output.

Exit codes: 0 success; 2 invalid input or parameters; 3 structurally valid
but unsupported input (wrong class, missing separation, center coded by a
word with no dominant contraction axis); 4 solver failure.  ``_EXIT_CODES``
gives each error class its code.  Failures still emit an envelope (empty
results, the error class in diagnostics) and put a human-readable message
on stderr; that includes a command line argparse rejects (``UsageError``,
exit 2), but not ``--help``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys
from dataclasses import asdict
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .dimensions import baranski_dims, gl_dims, reduction_suprema
from .errors import (CarpetError, EmptyInput, InvalidSystem, OptimizerFailure,
                     RangeError, Unsupported, WrongClass, WrongShape)
from .geometry import (box_dimension_estimate, render_svg, scale_count_table,
                       write_scale_counts_csv)
from .moran import ColumnSequence, nonauto_assouad, window_sup
from .pointwise import (build_exceptional, level_set_dim,
                        pointwise_assouad_baranski, pointwise_assouad_gl,
                        symbolic_slice)
from .systems import (BARANSKI, GATZOURAS_LALLEY, EventuallyPeriodicWord,
                      as_number, system_from_config, system_to_config)

# the exit code of every CarpetError class: 2 invalid input, 3 valid input
# outside a command's scope, 4 a solver failure
_EXIT_CODES = {InvalidSystem: 2, EmptyInput: 2, RangeError: 2,
               WrongClass: 3, WrongShape: 3, Unsupported: 3,
               OptimizerFailure: 4}

_GAMMA_RE = re.compile(
    r"^\s*([0-9]+(?:\s*,\s*[0-9]+)*)?\s*:\s*\(\s*([0-9]+(?:\s*,\s*[0-9]+)*)\s*\)\s*$")


def parse_gamma(text: str) -> EventuallyPeriodicWord:
    """Parse the coding syntax "u:(v)": preperiod u, period v, both
    comma-separated map indices, u possibly empty.  ":(0)" is 0 repeated
    forever; "2,1:(0,3)" starts 2,1 then cycles 0,3."""
    match = _GAMMA_RE.match(text)
    if match is None:
        raise ValueError(
            'gamma must look like "u:(v)", e.g. ":(0)" or "2,1:(0,3)"')
    head = match.group(1)
    preperiod = tuple(int(t) for t in head.split(",")) if head else ()
    period = tuple(int(t) for t in match.group(2).split(","))
    return EventuallyPeriodicWord(preperiod, period)


def parse_columns(text: str):
    """Parse a fiber description {"preperiod": [[...], ...], "period":
    [[...], ...]} (preperiod optional) into a ColumnSequence.  Each inner
    list is one ratio multiset; ratios are numbers or [num, den]."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise EmptyInput("columns file is not valid JSON: %s" % exc) from exc
    if not isinstance(payload, dict) or "period" not in payload:
        raise EmptyInput("columns file needs a 'period' list of multisets")

    def stage(name):
        levels = payload.get(name, [])
        if not isinstance(levels, list):
            raise EmptyInput("'%s' must be a list of ratio lists" % name)
        out = []
        for level in levels:
            if not isinstance(level, list) or not level:
                raise EmptyInput("each multiset must be a non-empty list")
            out.append(tuple(sorted(float(as_number(r)) for r in level)))
        return tuple(out)

    return ColumnSequence(preperiod=stage("preperiod"),
                          period=stage("period"))


def load_config(text: str) -> dict:
    """Extract a carpet config from raw JSON text: either a bare config or
    a previous envelope carrying results.system."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidSystem("input is not valid JSON: %s" % exc) from exc
    if isinstance(payload, dict):
        if "maps" in payload:
            return payload
        results = payload.get("results")
        if isinstance(results, dict) and isinstance(results.get("system"),
                                                    dict):
            return results["system"]
    raise InvalidSystem("no carpet config found in input")


def _read_text(path):
    if path in (None, "-"):
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _encode(value):
    """``json.dumps`` default for what json cannot write itself: a Fraction
    as [num, den], numpy scalars and arrays as Python values."""
    if isinstance(value, Fraction):
        return [value.numerator, value.denominator]
    if isinstance(value, (np.generic, np.ndarray)):
        return value.tolist()
    raise TypeError("%s is not JSON serializable" % type(value).__name__)


def _digest(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      default=_encode)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _emit(envelope) -> None:
    sys.stdout.write(json.dumps(envelope, sort_keys=True, indent=2,
                                default=_encode))
    sys.stdout.write("\n")


# --------------------------------------------------------------- commands
# Every handler returns (results, warnings, extra diagnostics).

def _cmd_validate(system, args):
    results = {
        "klass": system.klass,
        "map_count": len(system.maps),
        "columns": len(system.columns),
        "rows": len(system.rows),
        "eta1_ssc": system.eta1_ssc,
        "eta2_ssc": system.eta2_ssc,
        "exact": system.exact,
    }
    return results, list(system.warnings), {}


def _cmd_dims(system, args):
    if system.klass == GATZOURAS_LALLEY:
        report = gl_dims(system)
        results = dict(asdict(report), klass=system.klass,
                       hausdorff_argmax=list(report.argmax_p))
        del results["argmax_p"], results["diagnostics"]
        extra = {"optimizer": report.diagnostics}
    elif system.klass == BARANSKI:
        directional, dim_h, dim_a = baranski_dims(system)
        results = dict(asdict(directional), klass=system.klass,
                       dimB=system.analysis.box[0], dimH=dim_h, dimA=dim_a)
        try:
            results["reduction"] = reduction_suprema(system)
        except WrongShape:
            pass
        extra = {}
    else:
        raise WrongClass("dims needs a GatzourasLalley or Baranski system, "
                         "got %s" % system.klass)
    return results, [], extra


def _cmd_pointwise(system, args):
    gamma = parse_gamma(args.gamma)
    gamma.check_alphabet(system)
    if system.klass == GATZOURAS_LALLEY:
        report = pointwise_assouad_gl(system, gamma)
    elif system.klass == BARANSKI:
        report = pointwise_assouad_baranski(system, gamma)
    else:
        raise WrongClass("pointwise needs a GatzourasLalley or Baranski "
                         "system, got %s" % system.klass)
    results = dict(asdict(report), gamma=args.gamma.strip())
    if args.axis is not None:
        slice_seq = symbolic_slice(system, gamma, axis=args.axis)
        results["requested_axis"] = {
            "axis": args.axis,
            "fiber_dim": nonauto_assouad(slice_seq),
        }
    warnings = []
    if report.regularity_warning:
        warnings.append("projected system is not strongly separated; "
                        "pointwise values are only lower bounds")
    return results, warnings, {}


def _cmd_levelset(system, args):
    value, full_measure = level_set_dim(system, args.alpha)
    return {"alpha": args.alpha, "dim": value,
            "full_measure": full_measure}, [], {}


def _cmd_fiber(seq, args):
    sups = [{"m": m, "sup": window_sup(seq, m)} for m in (2, 4, 8, 16, 32)]
    results = {
        "assouad": nonauto_assouad(seq),
        "window_sups": sups,
        "period_length": len(seq.period),
        "preperiod_length": len(seq.preperiod),
    }
    return results, [], {}


def _cmd_boxcount(system, args):
    try:
        ks = [int(tok) for tok in args.scales.split(",") if tok.strip()]
    except ValueError as exc:
        raise RangeError("scales must be comma-separated integers k "
                         "(counting at side 2^-k): %s" % exc) from exc
    if not ks:
        raise RangeError("need at least one scale exponent")
    rows = scale_count_table(system, ks)
    results = {"counts": [{"scale": scale, "count": count}
                          for scale, count in rows]}
    if len(rows) >= 2:
        logs = np.log([r[0] for r in rows])
        logn = np.log([float(r[1]) for r in rows])
        results["fit_slope"] = float(np.polyfit(-logs, logn, 1)[0])
    if args.out:
        write_scale_counts_csv(rows, args.out)
        results["csv"] = args.out
    return results, [], {}


def _cmd_render(system, args):
    count = render_svg(system, args.depth, args.out)
    return {"depth": args.depth, "rectangles": count, "svg": args.out}, [], {}


def _cmd_example(args):
    system = build_exceptional(args.delta)
    return {"delta": args.delta, "system": system_to_config(system)}, [], {}


def _cmd_estimate(system, args):
    slope, band = box_dimension_estimate(system)
    return {"dimB_estimate": slope, "band": [band[0], band[1]]}, [], {}


_HANDLERS = {
    "validate": _cmd_validate,
    "dims": _cmd_dims,
    "pointwise": _cmd_pointwise,
    "levelset": _cmd_levelset,
    "boxcount": _cmd_boxcount,
    "render": _cmd_render,
    "estimate": _cmd_estimate,
}


class UsageError(ValueError):
    """The command line was rejected; ``command`` is the subcommand whose
    options were at fault, or None."""

    def __init__(self, message, command):
        super().__init__(message)
        self.command = command


class _Parser(argparse.ArgumentParser):
    """Raises UsageError where argparse would exit, so that a rejected
    command line still gets the failure envelope; --help still exits 0."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message, self.prog.partition(" ")[2] or None)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="carpetdim",
        description="Dimensions of diagonal self-affine carpets: closed "
                    "forms, pointwise reports, and symbolic covering "
                    "counts.  Commands print one JSON envelope to stdout.")
    parser.add_argument("--input", default="-", metavar="PATH",
                        help="carpet config JSON ('-' = stdin; a previous "
                             "envelope with results.system also works)")
    parser.add_argument("--seed", type=int, default=0,
                        help="echoed in diagnostics; no command uses it "
                             "(every solver is deterministic)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("validate", help="classify the system and report "
                                    "separation flags")
    sub.add_parser("dims", help="closed-form dimension report")

    cmd = sub.add_parser("pointwise", help="pointwise Assouad dimension at "
                                           "a coded point")
    cmd.add_argument("--gamma", required=True,
                     help='coding "u:(v)", e.g. ":(0)" or "2,1:(0,3)"')
    cmd.add_argument("--axis", type=int, choices=(1, 2), default=None,
                     help="also report the slice fiber dimension along "
                          "this axis")

    cmd = sub.add_parser("levelset", help="Hausdorff dimension of the set "
                                          "where the pointwise Assouad "
                                          "dimension equals alpha")
    cmd.add_argument("--alpha", type=float, required=True)

    cmd = sub.add_parser("fiber", help="Assouad dimension of a "
                                       "non-autonomous fiber description")
    cmd.add_argument("--columns", required=True, metavar="FILE",
                     help='JSON {"preperiod": [[...]], "period": [[...]]}')

    cmd = sub.add_parser("boxcount", help="grid counts at dyadic scales")
    cmd.add_argument("--scales", required=True,
                     help="comma-separated exponents k, counting at 2^-k")
    cmd.add_argument("--out", default=None, metavar="FILE.csv",
                     help="also write a scale,count CSV")

    cmd = sub.add_parser("render", help="SVG of the depth-n cylinder "
                                        "rectangles")
    cmd.add_argument("--depth", type=int, required=True)
    cmd.add_argument("--out", required=True, metavar="FILE.svg")

    cmd = sub.add_parser("example-baranski",
                         help="emit the 12-map two-group example system")
    cmd.add_argument("--delta", required=True,
                     help="gap parameter in [0, 1/6); strings like '1/40' "
                          "or '0.025' stay exact")

    sub.add_parser("estimate", help="empirical box dimension with a "
                                    "confidence band")
    return parser


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser ``run`` uses, built on its first call and kept: parsing
    leaves it unchanged, and building it costs some thirty parses."""
    return build_parser()


def run(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    except UsageError as exc:
        return _fail(exc.command, "", {}, exc, 2)

    digest = ""
    diagnostics = {"seed": args.seed}
    try:
        if args.command == "example-baranski":
            digest = _digest({"delta": args.delta})
            results, warnings, extra = _cmd_example(args)
        elif args.command == "fiber":
            seq = parse_columns(_read_text(args.columns))
            digest = _digest({"preperiod": seq.preperiod,
                              "period": seq.period})
            results, warnings, extra = _cmd_fiber(seq, args)
        else:
            system = system_from_config(load_config(_read_text(args.input)))
            digest = _digest(system_to_config(system))
            diagnostics["klass"] = system.klass
            diagnostics["exact_input"] = system.exact
            results, warnings, extra = _HANDLERS[args.command](system, args)
        diagnostics.update(extra)
    except CarpetError as exc:
        return _fail(args.command, digest, diagnostics, exc,
                     _EXIT_CODES[type(exc)])
    except (ValueError, IndexError, OSError) as exc:
        return _fail(args.command, digest, diagnostics, exc, 2)

    _emit({"command": args.command, "input_digest": digest,
           "results": results, "diagnostics": diagnostics,
           "warnings": warnings})
    return 0


def _fail(command, digest, diagnostics, exc, code):
    diagnostics = dict(diagnostics)
    diagnostics["error"] = type(exc).__name__
    _emit({"command": command, "input_digest": digest, "results": {},
           "diagnostics": diagnostics, "warnings": [str(exc)]})
    print("error: %s" % exc, file=sys.stderr)
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
