"""Command-line layer: envelopes, exit codes, chaining, determinism."""

import io
import json
import os
import re
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

import carpetdim
from carpetdim import dimensions
from carpetdim.cli import load_config, parse_columns, parse_gamma, run
from carpetdim.dimensions import _AxisProblem
from carpetdim.geometry import _grid_count
from oracles.frozen import (EXC0_D2, EXC0_SUP_D1_ROUNDED, EXC0_SUP_D2_ROUNDED,
                            EXC_DIMB, GL3_DIMB, GL3_DIMH, SLIVER_DIMB)

GL3_CONFIG = {"maps": [
    {"r1": [1, 2], "r2": [1, 4], "d1": 0, "d2": 0},
    {"r1": [1, 2], "r2": [1, 4], "d1": 0, "d2": [1, 2]},
    {"r1": [1, 2], "r2": [1, 4], "d1": [1, 2], "d2": 0},
]}
SQUARE4_CONFIG = {"maps": [
    {"r1": [1, 3], "r2": [1, 3], "d1": 0, "d2": 0},
    {"r1": [1, 3], "r2": [1, 3], "d1": [2, 3], "d2": 0},
    {"r1": [1, 3], "r2": [1, 3], "d1": 0, "d2": [2, 3]},
    {"r1": [1, 3], "r2": [1, 3], "d1": [2, 3], "d2": [2, 3]},
]}

# A 4 x 2 grid carpet with sides from 1/1000 to 199/200; dimB = SLIVER_DIMB.
SLIVER_CONFIG = {"maps": [
    {"r1": [9, 25], "r2": [199, 200], "d1": [0, 1], "d2": [0, 1]},
    {"r1": [1, 1000], "r2": [199, 200], "d1": [9, 25], "d2": [0, 1]},
    {"r1": [1, 200], "r2": [1, 250], "d1": [361, 1000], "d2": [199, 200]},
    {"r1": [317, 500], "r2": [199, 200], "d1": [183, 500], "d2": [0, 1]},
]}

ENVELOPE_KEYS = {"command", "input_digest", "results", "diagnostics",
                 "warnings"}


def invoke(capsys, monkeypatch, argv, stdin=None):
    """Run the CLI in-process; returns (exit code, parsed stdout, stderr)."""
    if stdin is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = run(argv)
    captured = capsys.readouterr()
    parsed = json.loads(captured.out) if captured.out else None
    return code, parsed, captured.err


def config_file(tmp_path, config, name="system.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return str(path)


def test_parse_gamma_forms():
    word = parse_gamma(":(0)")
    assert word.preperiod == () and word.period == (0,)
    word = parse_gamma("2,1:(0,3)")
    assert word.preperiod == (2, 1) and word.period == (0, 3)
    word = parse_gamma(" 10 : ( 4 , 5 ) ")
    assert word.preperiod == (10,) and word.period == (4, 5)


@pytest.mark.parametrize("bad", ["(0)", ":()", "a:(0)", "1;(0)", ":", ""])
def test_parse_gamma_rejects_malformed(bad):
    with pytest.raises(ValueError):
        parse_gamma(bad)


def test_load_config_accepts_bare_and_envelope():
    assert load_config(json.dumps(GL3_CONFIG)) == GL3_CONFIG
    envelope = {"command": "example-baranski", "results":
                {"system": GL3_CONFIG}}
    assert load_config(json.dumps(envelope)) == GL3_CONFIG


def test_parse_columns_rational_and_float_entries():
    seq = parse_columns(json.dumps(
        {"preperiod": [[0.5]], "period": [[[1, 4], 0.25], [[1, 4]]]}))
    assert seq.preperiod == ((0.5,),)
    assert seq.period == ((0.25, 0.25), (0.25,))


def test_validate_reports_classification(tmp_path, capsys, monkeypatch):
    path = config_file(tmp_path, GL3_CONFIG)
    code, envelope, _ = invoke(capsys, monkeypatch,
                               ["--input", path, "validate"])
    assert code == 0
    assert set(envelope) == ENVELOPE_KEYS
    results = envelope["results"]
    assert results["klass"] == "GatzourasLalley"
    assert results["map_count"] == 3
    assert results["columns"] == 2 and results["rows"] == 2
    assert results["eta1_ssc"] is False and results["eta2_ssc"] is True
    assert results["exact"] is True
    assert envelope["diagnostics"]["seed"] == 0


def test_dims_gl_results(tmp_path, capsys, monkeypatch):
    path = config_file(tmp_path, GL3_CONFIG)
    code, envelope, _ = invoke(capsys, monkeypatch,
                               ["--input", path, "dims"])
    assert code == 0
    results = envelope["results"]
    assert results["dimH"] == pytest.approx(GL3_DIMH, abs=1e-9)
    assert results["dimB"] == pytest.approx(GL3_DIMB, abs=1e-9)
    assert results["dimA"] == pytest.approx(1.5, abs=1e-9)
    assert results["dimL"] == pytest.approx(1.0, abs=1e-9)
    assert len(results["hausdorff_argmax"]) == 3


def test_example_pipeline_reduction_dimh(capsys, monkeypatch):
    code, made, _ = invoke(capsys, monkeypatch,
                           ["example-baranski", "--delta", "0"])
    assert code == 0
    assert made["results"]["delta"] == "0"
    # widths 1/3 x4 and 1/6 x8, heights 1/4, all exact rationals
    assert made["results"]["system"]["maps"][0]["r1"] == [1, 3]

    code, envelope, _ = invoke(capsys, monkeypatch, ["dims"],
                               stdin=json.dumps(made))
    assert code == 0
    results = envelope["results"]
    assert results["dimH"] == pytest.approx(EXC0_D2, abs=1e-6)
    reduction = results["reduction"]
    assert reduction["sup_D1"] == pytest.approx(EXC0_SUP_D1_ROUNDED, abs=1e-4)
    assert reduction["sup_D2"] == pytest.approx(EXC0_SUP_D2_ROUNDED, abs=1e-4)
    assert reduction["dimH"] == pytest.approx(EXC0_SUP_D2_ROUNDED, abs=1e-4)
    assert reduction["p0"] < reduction["argmax_D2"] < 1.0


def example(capsys, monkeypatch, delta):
    code, made, _ = invoke(capsys, monkeypatch,
                           ["example-baranski", "--delta", delta])
    assert code == 0
    return json.dumps(made)


def test_dims_baranski_box_dimension(capsys, monkeypatch):
    for delta, expected in EXC_DIMB.items():
        code, envelope, _ = invoke(capsys, monkeypatch, ["dims"],
                                   stdin=example(capsys, monkeypatch, delta))
        assert code == 0
        assert envelope["results"]["dimB"] == pytest.approx(expected,
                                                            abs=1e-12)
        assert envelope["warnings"] == []


def test_dims_exits_4_when_a_maximum_runs_out_of_evaluations(capsys,
                                                               monkeypatch):
    # gl3's one flat slice takes two evaluations (Phi is affine in s there,
    # so one Newton step lands on the root); exc(1/40) fails in its grid
    texts = [json.dumps(GL3_CONFIG), example(capsys, monkeypatch, "1/40")]
    monkeypatch.setattr(dimensions, "_MAX_STEPS", 1)
    for text in texts:
        code, envelope, _ = invoke(capsys, monkeypatch, ["dims"], stdin=text)
        assert code == 4
        assert envelope["diagnostics"]["error"] == "OptimizerFailure"
        assert "theta=" in envelope["warnings"][0]


def test_dims_reduction_needs_the_exact_two_group_shape(capsys, monkeypatch):
    # exc(1/40) with maps 4 and 5 wider by 10^-20: three map shapes exactly,
    # two in floats, so the 4+8 two-group reduction does not apply
    maps = [carpetdim.DiagonalMap(
        m.r1 + (Fraction(1, 10 ** 20) if k in (4, 5) else 0), m.r2, m.d1,
        m.d2) for k, m in enumerate(carpetdim.build_exceptional("1/40").maps)]
    system = carpetdim.validate(maps)
    assert system.klass == "Baranski"
    with pytest.raises(carpetdim.WrongShape):
        carpetdim.reduction_suprema(system)
    code, envelope, _ = invoke(
        capsys, monkeypatch, ["dims"],
        stdin=json.dumps(carpetdim.system_to_config(system)))
    assert code == 0
    assert "reduction" not in envelope["results"]


def test_sliver_carpet_box_dimension(capsys, monkeypatch):
    text = json.dumps(SLIVER_CONFIG)
    code, envelope, _ = invoke(capsys, monkeypatch, ["dims"], stdin=text)
    assert code == 0
    results = envelope["results"]
    assert results["dimB"] == pytest.approx(SLIVER_DIMB, abs=1e-12)
    assert results["dimB"] >= results["dimH"]
    code, envelope, _ = invoke(capsys, monkeypatch,
                               ["pointwise", "--gamma", ":(0,2)"], stdin=text)
    assert code == 0
    assert envelope["results"]["pointwise_assouad"] == pytest.approx(
        SLIVER_DIMB, abs=1e-12)


def test_dims_and_pointwise_agree_on_a_near_square_map(capsys, monkeypatch):
    # map 1 is wider than tall by 1/(3 * 10^17) of its height: P_1 has
    # interior, in floats it is the face of map 1, and d_1 there is 0
    text = json.dumps({"maps": [
        {"r1": [1, 4], "r2": [1, 2], "d1": 0, "d2": 0},
        {"r1": [10 ** 17 + 1, 3 * 10 ** 17], "r2": [1, 3], "d1": [1, 4],
         "d2": [1, 2]}]})
    code, envelope, _ = invoke(capsys, monkeypatch, ["dims"], stdin=text)
    assert code == 0
    assert envelope["results"]["d1"] == 0.0
    code, envelope, _ = invoke(capsys, monkeypatch,
                               ["pointwise", "--gamma", ":(1)"], stdin=text)
    assert code == 0
    assert envelope["results"]["axis"] == 1


def test_levelset_baranski_is_wrong_class(capsys, monkeypatch):
    def refuse(self):
        raise AssertionError("maximised a Baranski axis")

    text = example(capsys, monkeypatch, "1/40")
    monkeypatch.setattr(_AxisProblem, "maximise", refuse)
    for alpha in ("1.0", "1.58"):
        code, envelope, _ = invoke(capsys, monkeypatch,
                                   ["levelset", "--alpha", alpha], stdin=text)
        assert code == 3
        assert envelope["diagnostics"]["error"] == "WrongClass"


def test_dims_byte_identical_between_runs(tmp_path, capsys, monkeypatch):
    path = config_file(tmp_path, GL3_CONFIG)
    run(["--input", path, "dims"])
    first = capsys.readouterr().out
    run(["--input", path, "dims"])
    second = capsys.readouterr().out
    assert first == second


def test_dims_many_thin_cells_exits_zero(tmp_path, capsys, monkeypatch):
    maps = [{"r1": [9, 20], "r2": [1, 50], "d1": 0, "d2": [j, 50]}
            for j in range(0, 50, 2)]
    maps.append({"r1": [1, 2], "r2": [1, 3], "d1": [1, 2], "d2": 0})
    path = config_file(tmp_path, {"maps": maps})
    code, envelope, _ = invoke(capsys, monkeypatch,
                               ["--input", path, "dims"])
    assert code == 0
    assert envelope["results"]["dimH"] == pytest.approx(1.586208097653877,
                                                        abs=1e-12)


def test_pointwise_cli_gl(tmp_path, capsys, monkeypatch):
    path = config_file(tmp_path, GL3_CONFIG)
    code, envelope, _ = invoke(
        capsys, monkeypatch,
        ["--input", path, "pointwise", "--gamma", ":(0)"])
    assert code == 0
    results = envelope["results"]
    assert results["pointwise_assouad"] == pytest.approx(1.5, abs=1e-9)
    assert results["axis"] == 1
    assert results["omega_class"] == "Omega1"

    code, envelope, _ = invoke(
        capsys, monkeypatch,
        ["--input", path, "pointwise", "--gamma", ":(2)", "--axis", "2"])
    assert code == 0
    results = envelope["results"]
    assert results["tangent_dim"] == pytest.approx(1.0, abs=1e-9)
    assert results["pointwise_assouad"] == pytest.approx(GL3_DIMB, abs=1e-6)
    assert results["requested_axis"]["axis"] == 2


def test_levelset_cli(tmp_path, capsys, monkeypatch):
    path = config_file(tmp_path, GL3_CONFIG)
    code, envelope, _ = invoke(
        capsys, monkeypatch, ["--input", path, "levelset", "--alpha", "1.4"])
    assert code == 0
    assert envelope["results"]["dim"] == pytest.approx(GL3_DIMH, abs=1e-9)
    assert envelope["results"]["full_measure"] is False

    code, envelope, _ = invoke(
        capsys, monkeypatch, ["--input", path, "levelset", "--alpha", "1.5"])
    assert envelope["results"]["full_measure"] is True

    code, envelope, _ = invoke(
        capsys, monkeypatch, ["--input", path, "levelset", "--alpha", "0.9"])
    assert code == 0
    assert envelope["results"]["dim"] is None


def test_fiber_cli(tmp_path, capsys, monkeypatch):
    path = tmp_path / "cols.json"
    path.write_text(json.dumps(
        {"preperiod": [[0.5]], "period": [[[1, 4], [1, 4]], [[1, 4]]]}))
    code, envelope, _ = invoke(capsys, monkeypatch,
                               ["fiber", "--columns", str(path)])
    assert code == 0
    assert envelope["results"]["assouad"] == pytest.approx(0.25, abs=1e-12)
    sups = {entry["m"]: entry["sup"]
            for entry in envelope["results"]["window_sups"]}
    assert sups[2] >= sups[32] >= envelope["results"]["assouad"] - 1e-12


def test_boxcount_cli_writes_csv(tmp_path, capsys, monkeypatch):
    path = config_file(tmp_path, GL3_CONFIG)
    out = tmp_path / "counts.csv"
    code, envelope, _ = invoke(
        capsys, monkeypatch,
        ["--input", path, "boxcount", "--scales", "4,5,6", "--out",
         str(out)])
    assert code == 0
    counts = envelope["results"]["counts"]
    assert [row["scale"] for row in counts] == [2.0 ** -4, 2.0 ** -5,
                                                2.0 ** -6]
    assert all(row["count"] > 0 for row in counts)
    assert 1.0 < envelope["results"]["fit_slope"] < 1.6
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "scale,count"
    assert len(lines) == 4


@pytest.mark.parametrize("config", [GL3_CONFIG, carpetdim.system_to_config(
    carpetdim.build_exceptional("1/40"))])
def test_boxcount_repeated_scales_match_one_scale_counts(capsys, monkeypatch,
                                                          config):
    code, envelope, _ = invoke(capsys, monkeypatch,
                               ["boxcount", "--scales", "6,4,6"],
                               json.dumps(config))
    assert code == 0
    system = carpetdim.system_from_config(config)
    assert [(row["scale"], row["count"])
            for row in envelope["results"]["counts"]] == \
        [(2.0 ** -k, _grid_count(system, 2.0 ** -k)) for k in (6, 4, 6)]


def test_render_cli_depth_zero_unit_square(tmp_path, capsys, monkeypatch):
    path = config_file(tmp_path, GL3_CONFIG)
    out = tmp_path / "cover.svg"
    code, envelope, _ = invoke(
        capsys, monkeypatch,
        ["--input", path, "render", "--depth", "0", "--out", str(out)])
    assert code == 0
    assert envelope["results"]["rectangles"] == 1
    svg = out.read_text()
    assert svg.count("<rect") == 1
    assert 'width="1.0000" height="1.0000"' in svg


def test_estimate_cli(tmp_path, capsys, monkeypatch):
    path = config_file(tmp_path, GL3_CONFIG)
    code, envelope, _ = invoke(capsys, monkeypatch,
                               ["--input", path, "estimate"])
    assert code == 0
    results = envelope["results"]
    low, high = results["band"]
    assert low <= results["dimB_estimate"] <= high
    assert results["dimB_estimate"] == pytest.approx(GL3_DIMB, abs=0.05)


def test_exit_code_validation_failure(capsys, monkeypatch):
    code, envelope, err = invoke(capsys, monkeypatch, ["dims"],
                                 stdin="not json")
    assert code == 2
    assert envelope["results"] == {}
    assert envelope["diagnostics"]["error"] == "InvalidSystem"
    assert err != ""


def test_exit_code_bad_gamma(tmp_path, capsys, monkeypatch):
    path = config_file(tmp_path, GL3_CONFIG)
    code, _, err = invoke(
        capsys, monkeypatch,
        ["--input", path, "pointwise", "--gamma", "oops"])
    assert code == 2 and "gamma" in err

    code, _, err = invoke(
        capsys, monkeypatch,
        ["--input", path, "pointwise", "--gamma", ":(9)"])
    assert code == 2


def test_exit_code_unsupported(tmp_path, capsys, monkeypatch):
    # level sets only have a closed form in the wider-than-tall class
    path = config_file(tmp_path, SQUARE4_CONFIG, "square.json")
    code, envelope, _ = invoke(
        capsys, monkeypatch, ["--input", path, "levelset", "--alpha", "1.0"])
    assert code == 3
    assert envelope["diagnostics"]["error"] == "WrongClass"

    # every word of the square system contracts equally in both directions
    code, envelope, _ = invoke(
        capsys, monkeypatch,
        ["--input", path, "pointwise", "--gamma", ":(0)"])
    assert code == 3
    assert envelope["diagnostics"]["error"] == "Unsupported"


def test_non_finite_config_entries_are_invalid(capsys, monkeypatch):
    # json.loads reads NaN and Infinity; neither is a valid offset
    for bad in ("NaN", "Infinity"):
        text = json.dumps(GL3_CONFIG).replace('"d1": 0', '"d1": ' + bad, 1)
        for argv in (["validate"], ["boxcount", "--scales", "4,5"]):
            code, envelope, _ = invoke(capsys, monkeypatch, argv, stdin=text)
            assert code == 2
            assert envelope["diagnostics"]["error"] == "InvalidSystem"


def test_levelset_rejects_non_finite_alpha(tmp_path, capsys, monkeypatch):
    path = config_file(tmp_path, GL3_CONFIG)
    for alpha in ("nan", "inf", "-inf"):
        code, envelope, _ = invoke(
            capsys, monkeypatch,
            ["--input", path, "levelset", "--alpha=" + alpha])
        assert code == 2
        assert envelope["diagnostics"]["error"] == "RangeError"
        assert envelope["results"] == {}


def test_exit_code_range_failures(capsys, monkeypatch):
    code, _, _ = invoke(capsys, monkeypatch,
                        ["example-baranski", "--delta", "0.2"])
    assert code == 2
    code, _, _ = invoke(capsys, monkeypatch,
                        ["fiber", "--columns", "/nonexistent/cols.json"])
    assert code == 2


def test_help_and_missing_command_codes(capsys, monkeypatch):
    for argv in (["--help"], ["-h"], ["levelset", "--help"]):
        assert run(argv) == 0
        out = capsys.readouterr().out
        assert out.startswith("usage:")
        assert '"input_digest"' not in out
    code, envelope, _ = invoke(capsys, monkeypatch, [])
    assert code == 2
    assert envelope["command"] is None
    assert envelope["diagnostics"]["error"] == "UsageError"


def test_rejected_command_line_emits_failure_envelope(tmp_path, capsys,
                                                      monkeypatch):
    path = config_file(tmp_path, GL3_CONFIG)
    # argparse reads "-inf" as an option, so --alpha has no value
    code, envelope, err = invoke(capsys, monkeypatch,
                                 ["--input", path, "levelset", "--alpha",
                                  "-inf"])
    assert code == 2
    assert set(envelope) == ENVELOPE_KEYS
    assert envelope["command"] == "levelset"
    assert envelope["results"] == {}
    assert envelope["diagnostics"]["error"] == "UsageError"
    assert "--alpha" in envelope["warnings"][0]
    assert err.startswith("usage:")
    for argv in (["--input", path, "bogus"],
                 ["--input", path, "dims", "extra"]):
        code, envelope, _ = invoke(capsys, monkeypatch, argv)
        assert code == 2
        assert envelope["command"] is None
        assert envelope["results"] == {}
        assert envelope["diagnostics"]["error"] == "UsageError"


def test_readme_quick_start_prints_its_comment(capsys):
    readme = Path(__file__).resolve().parents[1] / "README.md"
    block = re.search(r"```python\n(.*?)```",
                      readme.read_text(encoding="utf-8"), re.S).group(1)
    exec(block, {})
    printed = capsys.readouterr().out.splitlines()
    assert printed == [line[2:] for line in block.splitlines()
                       if line.startswith("# ")]


def test_cli_commands_load_no_scipy(tmp_path):
    """Every command runs in a fresh interpreter without importing scipy;
    directed_hausdorff still loads it on demand afterwards."""
    (tmp_path / "gl3.json").write_text(json.dumps(GL3_CONFIG))
    (tmp_path / "cols.json").write_text(json.dumps({"period": [[0.5]]}))
    script = textwrap.dedent("""
        import io, json, sys
        import carpetdim, carpetdim.cli

        def scipy_modules():
            return sorted(m for m in sys.modules if m.startswith("scipy"))

        loaded = {"import": scipy_modules()}
        for argv in (["dims"], ["validate"], ["levelset", "--alpha", "1.4"],
                     ["pointwise", "--gamma", ":(0)", "--axis", "2"],
                     ["estimate"], ["boxcount", "--scales", "4,5",
                                    "--out", "counts.csv"],
                     ["render", "--depth", "2", "--out", "cover.svg"],
                     ["fiber", "--columns", "cols.json"],
                     ["example-baranski", "--delta", "1/40"]):
            stdout, sys.stdout = sys.stdout, io.StringIO()
            try:
                code = carpetdim.cli.run(["--input", "gl3.json"] + argv)
            finally:
                sys.stdout = stdout
            assert code == 0, argv
            loaded[argv[0]] = scipy_modules()
        a = carpetdim.PointCloud(((0.0, 0.0), (3.0, 4.0)), 0.1)
        b = carpetdim.PointCloud(((0.0, 0.0),), 0.1)
        print(json.dumps({"loaded": loaded,
                          "distance": carpetdim.directed_hausdorff(a, b),
                          "after": bool(scipy_modules())}))
    """)
    src = str(Path(carpetdim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["loaded"] == {key: [] for key in report["loaded"]}
    assert len(report["loaded"]) == 10
    assert report["distance"] == 5.0
    assert report["after"] is True
