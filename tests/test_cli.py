import importlib.util
import json
import math
import os
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import okamoto_k
from okamoto_k import cli, dimension
from okamoto_k.cli import (
    _csv_points, _json_doc, _json_points_doc, _point_blocks, _svg_points, main,
)
from okamoto_k.errors import ResourceLimitError
from okamoto_k.functions import k_series_phi, okamoto_series

from oracles import csv_per_point, json_doc, subdivision_fractions, svg_per_point


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _no_grid(n):
    # eval checks the term count before it allocates the grid
    raise AssertionError("sample_grid called before the term count was checked")


class TestEval:
    def test_k_three_samples_csv(self, capsys):
        code, out, _ = run(capsys, "eval", "--fn", "K", "--samples", "3")
        assert code == 0
        assert out.splitlines() == ["x,value", "0,0", "0.5,0", "1,0"]

    def test_okamoto_endpoints(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--fn", "okamoto", "--a", "0.3333333333", "--samples", "2"
        )
        assert code == 0
        assert out.splitlines() == ["x,value", "0,0", "1,1"]

    def test_takagi_endpoints(self, capsys):
        code, out, _ = run(capsys, "eval", "--fn", "takagi", "--samples", "2")
        assert code == 0
        assert out.splitlines() == ["x,value", "0,0", "1,0"]

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--fn", "K", "--samples", "3", "--format", "json"
        )
        doc = json.loads(out)
        assert doc["schema_version"] == 1
        assert doc["points"] == [[0.0, 0.0], [0.5, 0.0], [1.0, 0.0]]

    def test_svg_format(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--fn", "K", "--samples", "11", "--format", "svg"
        )
        assert code == 0
        assert out.startswith("<svg")
        assert "polyline" in out

    def test_partial_sum_function(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--fn", "Kn", "--level", "2", "--samples", "4"
        )
        assert code == 0

    def test_okamoto_at_a_tiny_a(self, capsys):
        # 1 - 2a rounds to 1.0 here; the series still runs on its 40 terms
        code, out, err = run(capsys, "eval", "--fn", "okamoto", "--a", "1e-17",
                             "--samples", "3")
        assert (code, err) == (0, "")
        want = [(x, okamoto_series(1e-17, x)) for x in (0.0, 0.5, 1.0)]
        assert out == csv_per_point(want)

    def test_too_few_samples(self, capsys):
        code, _, err = run(capsys, "eval", "--fn", "K", "--samples", "1")
        assert code == 3
        assert "error" in err

    def test_bad_parameter(self, capsys):
        code, _, _ = run(capsys, "eval", "--fn", "lebesgue", "--a", "1.5", "--samples", "3")
        assert code == 3

    @pytest.mark.parametrize(
        "argv",
        [
            ["--fn", "Kn", "--level", "-1"],
            ["--fn", "K", "--terms", "-1"],
            ["--fn", "K", "--terms", "0"],
            # 3.0 ** 100000 would overflow before the count is checked
            ["--fn", "K", "--terms", "-100000"],
            ["--fn", "Kn", "--level", "-100000"],
        ],
    )
    def test_no_terms_left(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(cli, "sample_grid", _no_grid)
        code, out, err = run(capsys, "eval", *argv, "--samples", "3")
        assert code == 3
        assert out == ""
        assert "error" in err

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["--fn", "K", "--terms", "1001"], "1001 series terms exceed cap of 1000"),
            # Kn's message names the option it was given
            (["--fn", "Kn", "--level", "1000"], "level 1000 exceeds cap of 999"),
        ],
        ids=["K", "Kn"],
    )
    def test_term_cap(self, capsys, monkeypatch, argv, message):
        monkeypatch.setattr(cli, "sample_grid", _no_grid)
        code, out, err = run(capsys, "eval", *argv, "--samples", "3")
        assert code == 4
        assert out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "argv",
        [["--fn", "K", "--terms", "100000000"], ["--fn", "Kn", "--level", "100000000"]],
    )
    def test_huge_term_count_exits_at_once(self, argv):
        # in a child process, so that a missing cap fails by timeout, not a hang
        src = str(Path(okamoto_k.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "okamoto_k.cli", "eval", *argv, "--samples", "3"],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            timeout=10,
        )
        assert proc.returncode == 4
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ")

    @pytest.mark.parametrize(
        "argv", [["--fn", "K", "--terms", "1000"], ["--fn", "Kn", "--level", "999"]]
    )
    def test_term_cap_is_inclusive(self, capsys, argv):
        code, out, _ = run(capsys, "eval", *argv, "--samples", "3")
        assert code == 0
        assert out == "x,value\n0,0\n0.5,0\n1,0\n"

    @pytest.mark.parametrize(
        "fn,option",
        [
            ("takagi", "a"), ("takagi", "terms"), ("takagi", "level"),
            ("lebesgue", "terms"), ("lebesgue", "level"),
            ("okamoto", "terms"), ("okamoto", "level"),
            ("K", "a"), ("K", "level"),
            ("Kn", "a"), ("Kn", "terms"),
        ],
    )
    def test_unread_option_is_usage_error(self, capsys, fn, option):
        # every option an --fn does not read, at a value it would accept
        value = "0.5" if option == "a" else "3"
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--fn", fn, "--samples", "5", f"--{option}", value])
        out = capsys.readouterr()
        assert exc.value.code == 2
        assert out.out == ""
        assert f"argument --{option}: applies to --fn " in out.err

    @pytest.mark.parametrize("samples", [10**6 + 1, 10**15])
    def test_sample_cap(self, capsys, tmp_path, samples):
        target = tmp_path / "out.csv"
        code, out, err = run(
            capsys, "eval", "--fn", "takagi", "--samples", str(samples),
            "--output", str(target),
        )
        assert code == 4
        assert out == ""
        assert err == f"error: {samples} samples exceed cap of 1000000\n"
        assert not target.exists()

    @pytest.mark.parametrize("fmt", ["csv", "json", "svg"])
    @pytest.mark.parametrize(
        "fn,a,route,yrange",
        [
            ("okamoto", 0.7, lambda x: okamoto_series(0.7, x), (0.0, 1.0)),
            ("K", 1 / 3, k_series_phi, (-1.5, 1.5)),
        ],
    )
    @pytest.mark.parametrize("block", [None, 7], ids=["one-block", "blocks-of-7"])
    def test_bytes_match_scalar_routes(
        self, capsys, monkeypatch, fmt, fn, a, route, yrange, block
    ):
        if block:
            monkeypatch.setattr(cli, "_POINT_BLOCK", block)
        n = 3**5 + 1
        # K reads no --a; its json "a" is the default 1/3, where K is dF_a/da
        opts = [] if fn == "K" else ["--a", repr(a)]
        code, out, _ = run(
            capsys, "eval", "--fn", fn, *opts, "--samples", str(n), "--format", fmt
        )
        assert code == 0
        points = [(x, route(x)) for x in (i / (n - 1) for i in range(n))]
        if fmt == "csv":
            want = csv_per_point(points)
        elif fmt == "json":
            want = json_doc(
                {
                    "command": "eval",
                    "fn": fn,
                    "a": a,
                    "samples": n,
                    "points": [[x, v] for x, v in points],
                }
            )
        else:
            want = svg_per_point(points, *yrange)
        assert out == want


# floats whose text is easy to get wrong: signed zeros, the least subnormal,
# non-terminating and rounding-error sums, large integers, values written
# with a 5 in the third decimal, which %.2f rounds by their exact binary
# value, and the non-finite values
AWKWARD = [
    0.0, -0.0, 5e-324, -5e-324, 1 / 3, 0.1 + 0.2, 1e16, 1e22, -1e22,
    0.125, 0.375, 2.675, 1.005, 0.015, -0.045, 1.5, -1.5, 1e-7, 123456789.0,
    float("inf"), float("-inf"), float("nan"),
]


@pytest.mark.parametrize("block", [None, 7], ids=["default-block", "blocks-of-7"])
@pytest.mark.parametrize("yrange", [(0.0, 1.0), (-1.5, 1.5)])
def test_block_writers_match_per_point_writers(monkeypatch, block, yrange):
    if block:
        monkeypatch.setattr(cli, "_POINT_BLOCK", block)
    # every pairing of two awkward floats, in both columns
    xs = np.repeat(AWKWARD, len(AWKWARD))
    values = np.tile(AWKWARD, len(AWKWARD))
    points = list(zip(xs.tolist(), values.tolist()))
    assert _csv_points(_point_blocks(xs, values)) == csv_per_point(points)
    assert _svg_points(_point_blocks(xs, values), *yrange) == svg_per_point(
        points, *yrange
    )
    # x values that the map x -> 40 + 720 x sends next to the finite ones,
    # so that %.2f meets them as pixel coordinates
    near = (np.array(AWKWARD[:-3]) - 40) / 720
    assert _svg_points(_point_blocks(near, near), *yrange) == svg_per_point(
        list(zip(near.tolist(), near.tolist())), *yrange
    )


def test_json_points_doc_matches_json_dumps(monkeypatch):
    # every pairing of the finite awkward floats: 19 * 19 points
    finite = AWKWARD[:-3]
    xs = np.repeat(finite, len(finite))
    values = np.tile(finite, len(finite))
    points = list(zip(xs.tolist(), values.tolist()))
    payload = {"command": "eval", "fn": "K", "a": 0.1, "samples": len(points)}
    want = json_doc({**payload, "points": [[x, v] for x, v in points]})
    assert _json_points_doc(payload, _point_blocks(xs, values)) == want
    # in blocks of 7, the last one ragged
    monkeypatch.setattr(cli, "_POINT_BLOCK", 7)
    assert _json_points_doc(payload, _point_blocks(xs, values)) == want


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "0"],
        ["classify", "1"],
        ["classify", "1/4"],
        ["classify", "2/729"],
        ["classify", "1/26"],
        ["classify", "5/100003"],
        ["classify", "1/100003"],
        ["construct", "--a", "2/5", "--level", "6"],
        ["experiment", "box-dim", "--levels", "4"],
        ["experiment", "walk-mc", "--samples", "2", "--horizon", "10"],
        ["experiment", "sigma-fuzz", "--trials", "2"],  # a nested "cases" dict
        ["experiment", "hata-yamaguti", "--grid", "2"],
    ],
    ids=" ".join,
)
def test_json_doc_matches_indent_encoder_on_commands(monkeypatch, capsys, argv):
    payloads = []
    monkeypatch.setattr(cli, "_json_doc", lambda p: payloads.append(p) or _json_doc(p))
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert len(payloads) == 1
    assert out == json_doc(payloads[0])


@pytest.mark.parametrize(
    "payload",
    [
        {},
        {"list": [], "dict": {}, "nested": {"list": [], "dict": {"x": {}}}},
        {"lists": [[1, 2], [], [[3], [[]]], [{}], [{"k": [4]}]]},
        {"mixed": [1, "a", [2.5], {"k": None}, None, [], {}], "scalar_then": [0, [0]]},
        {"tuple": (1, 2), "tuples": ((1, (2, 3)), ()), "in_list": [(0,), ("a",)]},
        {"true": True, "false": False, "none": None, "big": 3**200},
        {"scalars": [True, False, None, 3**200, -(3**200), 0, -1]},
        {"nan": math.nan, "inf": math.inf, "ninf": -math.inf, "nzero": -0.0},
        {"floats": [math.nan, math.inf, -math.inf, -0.0, 5e-324, 0.1, 1e22]},
        {"numpy": [np.float64(0.1), np.float64(-0.0)], "np": np.float64(math.nan)},
        {"strings": ['say "hi"', "back\\slash", "bell\x07tab\t", "é ü 漢 😀", ""]},
        {'key "q" \\ \x01 é': 'value "q" \\ \x1f 漢', "": ""},
        # lists of ints, which the C encoder writes, digits or not
        {"digits": [0, 1, 2, 9], "ten": [0, 10], "negative": [0, -1]},
        {"bool": [True, 0], "big": [3**200, 1], "digits_in": [[0, 2], [1]]},
        # ternary digits held as bytes, as classify's expansion holds them
        {"empty": b"", "digits": b"\0\1\2", "one": b"\2"},
        {"nested": {"expansion": {"preperiod": b"\1", "period": b"\0\2"}},
         "in_list": [b"\2\0", b"", [b"\1"]], "next_to": [0, b"\0"]},
    ],
)
def test_json_doc_matches_indent_encoder_on_edges(payload):
    assert _json_doc(payload) == json_doc(payload)


def test_json_doc_rejects_numpy_ints_like_the_encoder():
    # json.dumps refuses an np.int64, and so does the writer
    payload = {"numpy_int": [np.int64(1), 2]}
    with pytest.raises(TypeError, match="not JSON serializable"):
        json_doc(payload)
    with pytest.raises(TypeError, match="not JSON serializable"):
        _json_doc(payload)


def test_make_figures_script(tmp_path, capsys):
    # the script passes --a to lebesgue and mixes eval with construct calls
    path = Path(__file__).resolve().parents[1] / "scripts" / "make_figures.py"
    spec = importlib.util.spec_from_file_location("make_figures", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    script.run(str(tmp_path))
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == [
        "construction_f1.svg", "construction_f2.svg", "k_graph.svg",
        "lebesgue_a13.svg", "takagi.svg",
    ]
    assert all((tmp_path / n).read_text().startswith("<svg") for n in names)


def test_run_experiments_script_parses(tmp_path, capsys):
    # every argv the script passes must parse; nothing is run
    path = Path(__file__).resolve().parents[1] / "scripts" / "run_experiments.py"
    spec = importlib.util.spec_from_file_location("run_experiments", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    calls = []
    script.cli_main = lambda argv: calls.append(argv) or 0
    script.run(str(tmp_path), 7)
    capsys.readouterr()
    assert len(calls) == 4
    for argv in calls:
        cli._build_parser().parse_args(argv)


def test_output_digests_script_parses(capsys):
    # every call the script lists parses, and the usage errors exit 2;
    # nothing else is run
    path = Path(__file__).resolve().parents[1] / "scripts" / "output_digests.py"
    spec = importlib.util.spec_from_file_location("output_digests", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert len(set(script.CALLS)) == len(script.CALLS)
    for call in script.CALLS:
        argv = shlex.split(call)
        if call in script.USAGE:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            assert code == 2, call
        else:
            cli._build_parser().parse_args(argv)
    capsys.readouterr()


class TestConstruct:
    def test_level_one_ordinates(self, capsys):
        code, out, _ = run(
            capsys, "construct", "--a", "2/5", "--level", "1", "--format", "json"
        )
        doc = json.loads(out)
        assert doc["ordinates"] == ["0/1", "2/5", "3/5", "1/1"]

    def test_identity_parameter_diagonal(self, capsys):
        code, out, _ = run(
            capsys, "construct", "--a", "1/3", "--level", "3", "--format", "json"
        )
        doc = json.loads(out)
        from fractions import Fraction

        for k, text in enumerate(doc["ordinates"]):
            assert Fraction(text) == Fraction(k, 27)

    def test_staircase_plateau(self, capsys):
        code, out, _ = run(
            capsys, "construct", "--a", "1/2", "--level", "2", "--format", "json"
        )
        doc = json.loads(out)
        from fractions import Fraction

        middle = doc["ordinates"][3:7]  # breakpoints in [1/3, 2/3]
        assert all(Fraction(t) == Fraction(1, 2) for t in middle)

    def test_malformed_rational(self, capsys):
        code, _, _ = run(capsys, "construct", "--a", "zebra", "--level", "1")
        assert code == 3

    def test_level_cap(self, capsys):
        code, _, _ = run(capsys, "construct", "--a", "2/5", "--level", "20")
        assert code == 4

    @pytest.mark.parametrize("level,fmt,code", [(1, "json", 0), (2, "json", 4), (2, "csv", 0)])
    def test_ordinates_past_the_text_digit_limit(self, capsys, level, fmt, code):
        # a**2 = 1/10**8000 has too many digits to write as text; its float is 0.0
        got, out, err = run(capsys, "construct", "--a", "1e-4000", "--level", str(level),
                            "--format", fmt)
        assert got == code
        if code:
            assert (out, err) == ("", "error: the denominator of a**2 has more than "
                                      "4300 decimal digits\n")

    @pytest.mark.parametrize("fmt", ["csv", "json", "svg"])
    @pytest.mark.parametrize(
        "a,level", [("2/5", 6), ("5/6", 2), ("7/9", 5), ("1/3", 3), ("3/4", 0)]
    )
    def test_bytes_match_fraction_subdivision(self, capsys, fmt, a, level):
        code, out, _ = run(
            capsys, "construct", "--a", a, "--level", str(level), "--format", fmt
        )
        assert code == 0
        ords = subdivision_fractions(Fraction(a), level)
        denom = 3**level
        points = [(k / denom, float(y)) for k, y in enumerate(ords)]
        if fmt == "csv":
            want = csv_per_point(points)
        elif fmt == "json":
            want = json_doc(
                {
                    "command": "construct",
                    "a": a,
                    "level": level,
                    "breakpoints": [f"{k}/{denom}" for k in range(denom + 1)],
                    "ordinates": [f"{y.numerator}/{y.denominator}" for y in ords],
                }
            )
        else:
            want = svg_per_point(points, 0.0, 1.0)
        assert out == want


class TestClassify:
    @pytest.mark.parametrize(
        "x,verdict",
        [
            ("0/1", "PLUS_INFINITY"),
            ("1/2", "MINUS_INFINITY"),
            ("1/4", "PLUS_INFINITY"),
        ],
    )
    def test_verdicts(self, capsys, x, verdict):
        code, out, _ = run(capsys, "classify", x)
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == verdict
        assert len(doc["walk_prefix"]) == 20

    def test_out_of_range(self, capsys):
        code, _, _ = run(capsys, "classify", "3/2")
        assert code == 3

    def test_usage_error_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["classify"])
        assert exc.value.code == 2


def test_numpy_is_imported_only_by_the_commands_that_use_it(tmp_path):
    # in a child process, whose sys.modules the tests' own imports leave alone;
    # it prints whether numpy is loaded after each step, and each exit code
    src = str(Path(okamoto_k.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    calls = [
        ["classify", "1/4"],
        ["construct", "--a", "2/5", "--level", "3", "--format", "json"],
        ["eval", "--fn", "K", "--samples", "3"],  # the control: numpy is seen
    ]
    script = f"""
import sys
import okamoto_k
print("numpy" in sys.modules)
from okamoto_k.cli import main
print("numpy" in sys.modules)
for argv in {calls!r}:
    print(main(argv + ["--output", {str(tmp_path / "out")!r}]), "numpy" in sys.modules)
"""
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["False", "False", "0 False", "0 False", "0 True"]


def test_package_import_loads_no_submodule():
    # in a child process, as above; the package holds only its version
    src = str(Path(okamoto_k.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    script = """
import sys
import okamoto_k
print(okamoto_k.__version__)
print(sorted(name for name in sys.modules if name.startswith("okamoto_k.")))
"""
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [okamoto_k.__version__, "[]"]


@pytest.mark.parametrize("text", ["1e-4300", "-1e4300"])
def test_rational_past_the_text_digit_limit(text):
    # 10**4299 has the 4300 digits that Python writes as text, 10**4300 one more
    assert cli._parse_rational(text.replace("4300", "4299"))
    with pytest.raises(ResourceLimitError, match=f"'{text}' as p/q has more than 4300 decimal"):
        cli._parse_rational(text)


@pytest.mark.parametrize(
    "argv,message",
    [
        (["construct", "--a", "3/2", "--level", "1"], "parameter a=3/2 outside (0, 1)"),
        (["classify", "3/2"], "3/2 outside [0, 1]"),
        # 10**4000: the message gives the size of the numerator, not its 4001 digits
        (["classify", "1e4000"], "x with a 13288-bit numerator outside [0, 1]"),
        (["construct", "--a", "1e4000", "--level", "1"],
         "parameter a with a 13288-bit numerator outside (0, 1)"),
        (["experiment", "box-dim", "--a", "1e4000"],
         "parameter a with a 13288-bit numerator outside (0, 1)"),
    ],
)
def test_range_error_from_the_library(capsys, argv, message):
    # the library call makes the range check; the command only parses
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err == f"error: {message}\n"


WALK_5 = ["walk-mc", "--samples", "5", "--horizon", "5"]
SIGMA_5 = ["sigma-fuzz", "--trials", "5"]

# the flags each experiment reads, with a value it would accept
EXPERIMENT_FLAGS = {
    "box-dim": {"--a": "2/3", "--levels": "4"},
    "walk-mc": {"--samples": "2", "--horizon": "10", "--seed": "3"},
    "sigma-fuzz": {"--trials": "2", "--seed": "3"},
    "hata-yamaguti": {"--grid": "2", "--step": "1e-5"},
}
ALL_FLAGS = {k: v for flags in EXPERIMENT_FLAGS.values() for k, v in flags.items()}


class TestExperiment:
    @pytest.mark.parametrize(
        "argv",
        [
            [name, flag, value]
            for name, flags in EXPERIMENT_FLAGS.items()
            for flag, value in ALL_FLAGS.items()
            if flag not in flags
        ]
        + [
            ["hata-yamaguti", "--grid", "2", "--seed", "5"],
            ["hata-yamaguti", "--grid", "2", "--trials", "3", "--a", "7"],
            ["--seed", "3", "walk-mc"],  # a flag before the name
            ["--output=x.json", "walk-mc"],
        ],
        ids=" ".join,
    )
    def test_unread_flag_is_usage_error(self, capsys, tmp_path, argv):
        target = tmp_path / "out.json"
        with pytest.raises(SystemExit) as exc:
            main(["experiment", *argv, "--output", str(target)])
        out = capsys.readouterr()
        assert exc.value.code == 2
        assert out.out == ""
        assert not target.exists()
        if argv[0] in EXPERIMENT_FLAGS:
            assert "unrecognized arguments: " in out.err
        else:
            flag = argv[0].partition("=")[0]
            assert f"argument {flag}: flags go after the experiment name" in out.err

    @pytest.mark.parametrize("argv", [["-h"], ["--he"], ["walk-mc", "-h"]])
    def test_help(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(["experiment", *argv])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: okamoto-k experiment")

    @pytest.mark.parametrize("grid", [10**6, 10**12])
    def test_hata_yamaguti_grid_cap(self, capsys, tmp_path, grid):
        # the grid has grid + 1 points, capped like eval --samples
        target = tmp_path / "out.json"
        code, out, err = run(
            capsys, "experiment", "hata-yamaguti", "--grid", str(grid),
            "--output", str(target),
        )
        assert code == 4
        assert out == ""
        assert err == f"error: {grid + 1} samples exceed cap of 1000000\n"
        assert not target.exists()

    def test_sigma_fuzz_clean(self, capsys):
        code, out, _ = run(
            capsys, "experiment", "sigma-fuzz", "--trials", "200", "--seed", "1"
        )
        doc = json.loads(out)
        assert doc["results"]["violations"] == 0

    @pytest.mark.parametrize("levels", ["2", "3"])
    def test_box_dim_too_few_levels_to_fit(self, capsys, levels):
        code, out, err = run(capsys, "experiment", "box-dim", "--levels", levels)
        assert code == 3
        assert out == ""
        assert "fewer than two" in err

    def test_box_dim_report(self, capsys):
        code, out, _ = run(
            capsys, "experiment", "box-dim", "--a", "2/3", "--levels", "6"
        )
        doc = json.loads(out)
        fitted = doc["results"]["fitted_dimension"]
        assert abs(fitted - doc["results"]["closed_form"]) < 0.08

    def test_box_dim_at_an_a_below_the_least_double(self, capsys):
        # float(1e-4000) is 0.0; the closed form reads the exact a
        code, out, err = run(
            capsys, "experiment", "box-dim", "--a", "1e-4000", "--levels", "4"
        )
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc["params"]["a"] == "1/1" + "0" * 4000
        assert doc["results"]["closed_form"] == 1.0

    def test_walk_mc_report(self, capsys):
        code, out, _ = run(
            capsys,
            "experiment", "walk-mc", "--samples", "200", "--horizon", "100",
            "--seed", "5",
        )
        doc = json.loads(out)
        assert 0 <= doc["results"]["crossing_fraction"] <= 1

    @pytest.mark.parametrize(
        "argv",
        [
            [*WALK_5, "--seed", "-1"],
            [*WALK_5, "--seed", str(2**64)],
            [*SIGMA_5, "--seed", "-1"],
            [*SIGMA_5, "--seed", str(2**128)],
        ],
    )
    def test_seed_outside_philox_key(self, capsys, argv):
        code, out, err = run(capsys, "experiment", *argv)
        assert code == 3
        assert out == ""
        assert "seed" in err

    @pytest.mark.parametrize(
        "argv",
        [[*WALK_5, "--seed", str(2**64 - 1)], [*SIGMA_5, "--seed", str(2**128 - 1)]],
    )
    def test_largest_seed_runs(self, capsys, argv):
        code, _, _ = run(capsys, "experiment", *argv)
        assert code == 0

    def test_walk_mc_horizon_cap(self, capsys):
        horizon = dimension._WALK_HORIZON_CAP + 1
        code, out, err = run(
            capsys, "experiment", "walk-mc", "--samples", "1", "--horizon", str(horizon)
        )
        assert code == 4
        assert out == ""
        assert "cap" in err

    def test_hata_yamaguti_report(self, capsys):
        code, out, _ = run(capsys, "experiment", "hata-yamaguti", "--grid", "20")
        doc = json.loads(out)
        assert doc["results"]["max_abs_residual"] < 1e-3

    def test_hata_yamaguti_least_step(self, capsys):
        # the first step above 2**-54 moves 0.5 + h off 0.5, and is run
        step = math.nextafter(2**-54, 1)
        code, out, _ = run(
            capsys, "experiment", "hata-yamaguti", "--grid", "10", "--step", repr(step)
        )
        assert code == 0
        assert json.loads(out)["params"]["h"] == step


class TestOutputHandling:
    def test_byte_identical_reruns(self, tmp_path, capsys):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        for p in (p1, p2):
            code = main(
                ["experiment", "walk-mc", "--samples", "100", "--horizon", "50",
                 "--seed", "3", "--output", str(p)]
            )
            assert code == 0
        capsys.readouterr()
        assert p1.read_bytes() == p2.read_bytes()

    def test_outdir_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("OKAMOTO_K_OUTDIR", str(tmp_path))
        code = main(["classify", "1/4", "--output", "verdict.json"])
        capsys.readouterr()
        assert code == 0
        assert (tmp_path / "verdict.json").exists()

    @pytest.mark.parametrize(
        "argv,exit_code,message",
        [
            (["eval", "--fn", "lebesgue", "--a", "7", "--samples", "9"], 3,
             "parameter a=7.0 outside (0, 1)"),
            (["construct", "--a", "2/5", "--level", "13"], 4,
             "level 13 exceeds cap of 531442 breakpoints"),
            (["classify", "3/2"], 3, "3/2 outside [0, 1]"),
            (["experiment", "box-dim", "--levels", "13"], 4,
             "level 13 exceeds cap of 531442 breakpoints"),
            (["experiment", "walk-mc", "--samples", "2", "--seed", "-1"], 3,
             "seed -1 outside [0, 2**64)"),
            (["experiment", "walk-mc", "--samples", "1000001", "--horizon", "1"], 4,
             "samples 1000001 exceeds cap of 1000000 paths"),
            (["experiment", "sigma-fuzz", "--trials", "2", "--seed", "-1"], 3,
             "seed -1 outside [0, 2**128)"),
            (["experiment", "sigma-fuzz", "--trials", "0"], 3, "need trials >= 1"),
            (["experiment", "sigma-fuzz", "--trials", "-5"], 3, "need trials >= 1"),
            (["experiment", "sigma-fuzz", "--trials", "1000001"], 4,
             "trials 1000001 exceeds cap of 1000000"),
            (["experiment", "hata-yamaguti", "--grid", "0"], 3,
             "need at least 2 grid points"),
            (["classify", "1/1000000007"], 4,
             "period of 1/1000000007 exceeds cap of 1000000 digits"),
            # 1/10**4000: the message gives the size of q, not its 4001 digits
            (["classify", "1e-4000"], 4,
             "period of x with a 13288-bit denominator exceeds cap of 1000000 digits"),
            (["experiment", "hata-yamaguti", "--step", "0"], 3, "step h=0.0 must be > 0"),
            (["experiment", "hata-yamaguti", "--step", "0.5"], 3,
             "step h=0.5 must be below 1/2"),
            (["experiment", "hata-yamaguti", "--step", "inf"], 3,
             "step h=inf must be below 1/2"),
            # 0.5 + h rounds to 0.5 at every h <= 2**-54, and 0.5 - h too below that
            (["experiment", "hata-yamaguti", "--grid", "10", "--step", "1e-17"], 3,
             "step h=1e-17 leaves a = 1/2 +- h equal to 1/2 in floats"),
            (["experiment", "hata-yamaguti", "--grid", "10", "--step", "1e-300"], 3,
             "step h=1e-300 leaves a = 1/2 +- h equal to 1/2 in floats"),
            (["experiment", "hata-yamaguti", "--grid", "10", "--step",
              "5.551115123125783e-17"], 3,
             "step h=5.551115123125783e-17 leaves a = 1/2 +- h equal to 1/2 in floats"),
            # refused before the 10**6-point grid is built
            (["experiment", "hata-yamaguti", "--step", "0.6", "--grid", "999999"], 3,
             "step h=0.6 must be below 1/2"),
            (["classify", "1e-5000"], 4,
             "'1e-5000' as p/q has more than 4300 decimal digits"),
            (["construct", "--a", "1e-4000", "--level", "12"], 4,
             "level 12 with a 13288-bit denominator of a exceeds cap of 268435456 "
             "numerator bits"),
            # a run that succeeds, with --output in a directory that does not exist
            (["classify", "1/4"], 2, "cannot write {target}: No such file or directory"),
        ],
        ids=["eval", "construct", "classify", "box-dim", "walk-mc", "walk-mc-samples-cap",
             "sigma-fuzz", "sigma-fuzz-no-trials", "sigma-fuzz-negative-trials",
             "sigma-fuzz-trials-cap", "hata-yamaguti", "classify-period-cap",
             "classify-long-period-cap",
             "hata-yamaguti-zero-step", "hata-yamaguti-half-step",
             "hata-yamaguti-infinite-step", "hata-yamaguti-tiny-step",
             "hata-yamaguti-subnormal-step", "hata-yamaguti-half-ulp-step",
             "hata-yamaguti-large-step-large-grid",
             "classify-long-rational",
             "construct-numerator-bits", "unwritable-output"],
    )
    def test_no_file_written_on_failure(self, tmp_path, capsys, argv, exit_code, message):
        target = tmp_path / ("missing/out.txt" if exit_code == 2 else "out.txt")
        code, out, err = run(capsys, *argv, "--output", str(target))
        assert code == exit_code
        assert out == ""
        assert err == f"error: {message.format(target=target)}\n"
        assert not target.exists()
