"""Command-line front end: evaluate, construct, classify, experiment.

argparse dispatches each command, and each experiment, through
``set_defaults``; an experiment's parser holds only the flags it reads.

Each command returns its whole output as text, and ``main`` writes it in
one shot after the command has returned, so a failed run writes nothing
and never leaves a partial file; identical configs (plus seed) give
byte-identical output.  Exit codes: 0 success, 2 usage, 3 domain error,
4 resource cap exceeded; an ``--output`` path that cannot be written is a
usage error, and a rational that Python could not write back as text
(over 4300 decimal digits by default) exceeds a cap.

Every json document, of every command, is written by ``_json_doc``: the
layout that ``json.dumps`` gives with an indent of 2, with each list of
scalars written by one call of the C encoder, and the digits of a
``classify`` expansion, which come as bytes, by one ``bytes.translate``.
``eval`` formats its points a block at a time in the same layout, after a
head from ``_json_doc``.  numpy is imported only where it computes, so
``classify``, ``construct --format json`` and usage errors never load it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections.abc import Iterable, Iterator
from fractions import Fraction
from functools import cache, partial

from .derivative import classification_report, sigma_fuzz
from .dimension import (
    box_dimension_estimate,
    box_dimension_formula,
    walk_monte_carlo,
)
from .errors import DomainError, ResourceLimitError
from .functions import (
    _SAMPLES_CAP,
    _TERMS_CAP,
    TERNARY_TERMS,
    hata_yamaguti_residual,
    k_series_phi_array,
    lebesgue_L_array,
    okamoto_iterative,
    okamoto_series_array,
    sample_grid,
    takagi_array,
    ternary_truncation,
)
from .ternary import _DIGIT_TEXT

SCHEMA_VERSION = 1
OUTDIR_ENV = "OKAMOTO_K_OUTDIR"

_POINT_BLOCK = 8192  # grid points that eval evaluates and formats at a time
_DEFAULT_A = 1 / 3  # --a when not given, and eval's json "a" for every --fn

Blocks = Iterable[tuple["np.ndarray", "np.ndarray"]]  # (xs, values) slices of a grid


def _check_decimal_digits(n: int, what: str) -> None:
    """Raise ResourceLimitError if ``str(n)``, n >= 0, would exceed Python's
    int-to-text digit limit (4300 by default), which every output of n
    goes through."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: none, before 3.10.7
    # 2**(3 * limit) < 10**limit: only a long n pays for the power of 10
    if limit and n.bit_length() > 3 * limit and n >= 10**limit:
        raise ResourceLimitError(f"{what} has more than {limit} decimal digits")


def _parse_rational(text: str) -> Fraction:
    try:
        x = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"cannot parse rational {text!r}") from exc
    _check_decimal_digits(max(abs(x.numerator), x.denominator), f"{text!r} as p/q")
    return x


def _resolve_output(path: str | None) -> str | None:
    if path is None:
        return None
    outdir = os.environ.get(OUTDIR_ENV)
    if outdir and not os.path.isabs(path):
        return os.path.join(outdir, path)
    return path


def _point_blocks(*columns: np.ndarray) -> Iterator[tuple[np.ndarray, ...]]:
    """Consecutive slices of ``_POINT_BLOCK`` points of equally long arrays.

    eval runs the array route and then the writer on one block at a time.
    The route's float64 temporaries, 64 KiB each, stay in the CPU cache;
    on a whole 10^5-point grid each would be a fresh 800 KB allocation.
    The writer's Python floats stay few; a whole grid at once would keep
    2 * 10^5 of them alive, about 13 MB in fresh memory on every call.
    """
    for i in range(0, len(columns[0]), _POINT_BLOCK):
        yield tuple(c[i : i + _POINT_BLOCK] for c in columns)


def _format_block(line: str, sep: str, xb: np.ndarray, vb: np.ndarray) -> str:
    """``sep.join(line % (x, v) for x, v in zip(xb, vb))`` in one ``%``.

    One ``%`` on the interleaved floats formats each of them with the same
    conversion as an f-string's format spec, without a Python-level loop.
    """
    import numpy as np
    flat = np.column_stack((xb, vb)).ravel().tolist()
    return sep.join([line] * len(xb)) % tuple(flat)


def _csv_points(blocks: Blocks) -> str:
    """The csv document of blocks of float arrays xs, values: ``x,value`` rows.

    Each number is ``%.12g``.  A block of rows is formatted at a time,
    byte-identical to one f-string per row.
    """
    return "x,value\n" + "".join(
        _format_block("%.12g,%.12g\n", "", xb, vb) for xb, vb in blocks
    )


def _svg_points(blocks: Blocks, ylo: float, yhi: float) -> str:
    """An 800x800 svg polyline of blocks of float arrays xs in [0, 1], values.

    The value range [ylo, yhi] fills the plot area; a zero line is drawn
    when it lies inside.  Pixel coordinates are computed in numpy with the
    same IEEE operations, in the same order, as per point, and formatted
    ``%.2f`` a block at a time.
    """
    # fixed 800x800 viewport; graph area inset by a 40px margin
    size, margin = 800, 40
    span = size - 2 * margin
    pts = " ".join(
        _format_block(
            "%.2f,%.2f",
            " ",
            margin + xb * span,
            margin + (yhi - vb) / (yhi - ylo) * span,
        )
        for xb, vb in blocks
    )
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{size}" height="{size}" viewBox="0 0 {size} {size}">',
        f'<rect x="{margin}" y="{margin}" width="{span}" height="{span}" '
        'fill="none" stroke="#999" stroke-width="1"/>',
    ]
    if ylo < 0 < yhi:
        y0 = margin + yhi / (yhi - ylo) * span  # the row of value 0
        parts.append(
            f'<line x1="{margin}" y1="{y0:.2f}" x2="{size - margin}" y2="{y0:.2f}" '
            'stroke="#ccc" stroke-width="1"/>'
        )
    parts.append(
        f'<polyline points="{pts}" fill="none" stroke="#1f4e9c" stroke-width="1.5"/>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


_SCALAR_TYPES = frozenset((str, int, float, bool, type(None)))


def _json_layout(value, pad: str) -> str:
    """The text ``json.dumps`` gives value with an indent of 2, nested at ``pad``.

    Dicts, and lists that hold a container, are laid out here an item at a
    time.  A list of scalars is written by one call of the C encoder, with
    the newline and indent of each item as its separator; ``json.dumps``
    with an indent would run the pure-Python encoder on every item.  Each
    scalar goes through ``json.dumps`` either way, so the bytes are the
    same.  A ``bytes`` value is a string of ternary digits, as a
    ``DigitSeq`` holds them, and is written as the list of those digits:
    one ``bytes.translate`` makes their numerals, and a digit is its own
    one-character numeral.  Dict keys are strings.
    """
    inner = pad + "  "
    sep = ",\n" + inner
    if isinstance(value, dict):
        if not value:
            return "{}"
        body = sep.join(
            f"{json.dumps(k)}: {_json_layout(v, inner)}" for k, v in value.items()
        )
        return f"{{\n{inner}{body}\n{pad}}}"
    if isinstance(value, (bytes, list, tuple)):
        if not value:
            return "[]"
        if isinstance(value, bytes):
            body = sep.join(value.translate(_DIGIT_TEXT).decode())
        elif _SCALAR_TYPES.issuperset(map(type, value)):
            body = json.dumps(value, separators=(sep, ": "))[1:-1]
        else:
            body = sep.join(_json_layout(v, inner) for v in value)
        return f"[\n{inner}{body}\n{pad}]"
    return json.dumps(value)


def _json_doc(payload: dict) -> str:
    """The json document of every command: payload after its schema version."""
    return _json_layout({"schema_version": SCHEMA_VERSION, **payload}, "") + "\n"


def _json_points_doc(payload: dict, blocks: Blocks) -> str:
    """``_json_doc`` of payload plus a last key ``"points": [[x, v], ...]``.

    The text is byte for byte the same.  The head, up to the points, is
    ``_json_doc``'s.  The points are finite floats, which ``json.dumps``
    writes as ``float.__repr__``, the ``%r`` of a float; here a block of
    points is formatted at a time, in ``_json_layout``'s layout, without
    building a list of 10^5 two-item lists for the writer.
    """
    head = _json_doc({**payload, "points": []}).removesuffix("[]\n}\n")
    body = ",\n".join(
        _format_block("    [\n      %r,\n      %r\n    ]", ",\n", xb, vb)
        for xb, vb in blocks
    )
    return f"{head}[\n{body}\n  ]\n}}\n"


def _k_route(terms: int):
    """K's array route on ``terms`` terms of the sawtooth series."""
    return partial(k_series_phi_array, trunc=ternary_truncation(terms))


def _kn_route(level: int):
    """Kn's array route: the partial sum through level n has n + 1 terms."""
    if level >= _TERMS_CAP:
        raise ResourceLimitError(f"level {level} exceeds cap of {_TERMS_CAP - 1}")
    return _k_route(level + 1)


# --fn -> (the one option among --a, --terms, --level that it reads, or None;
# that option's value when not given; a function from the value to the array
# route on a block of points; the value range of the svg plot).  The routes
# are looked up by name when called, so that a wrapper installed on a name of
# this module is seen.
_EVAL_FNS = {
    "takagi": (None, None, lambda _: takagi_array, (0.0, 1.0)),
    "lebesgue": ("a", _DEFAULT_A, lambda a: partial(lebesgue_L_array, a), (0.0, 1.0)),
    "okamoto": (
        "a", _DEFAULT_A, lambda a: partial(okamoto_series_array, a), (0.0, 1.0)
    ),
    "K": ("terms", TERNARY_TERMS, _k_route, (-1.5, 1.5)),
    "Kn": ("level", 10, _kn_route, (-1.5, 1.5)),
}


def _cmd_eval(args) -> str:
    n = args.samples
    if n < 2:
        raise DomainError("need --samples >= 2")
    option, default, make_route, (ylo, yhi) = _EVAL_FNS[args.fn]
    value = getattr(args, option) if option else None
    route = make_route(default if value is None else value)
    xs = sample_grid(n)
    blocks = ((xb, route(xb)) for (xb,) in _point_blocks(xs))
    if args.format == "csv":
        return _csv_points(blocks)
    if args.format == "json":
        a = _DEFAULT_A if args.a is None else args.a
        payload = {"command": "eval", "fn": args.fn, "a": a, "samples": n}
        return _json_points_doc(payload, blocks)
    return _svg_points(blocks, ylo, yhi)


def _reduced(num: int, den: int) -> str:
    """num/den in lowest terms as "p/q", also when q is 1."""
    g = math.gcd(num, den)
    return f"{num // g}/{den // g}"


def _cmd_construct(args) -> str:
    a = _parse_rational(args.a)
    pl = okamoto_iterative(a, args.level)
    denom = 3**args.level
    ord_den = pl.denominator
    if args.format == "json":
        # the ordinate a**level = p**level / q**level is in lowest terms
        _check_decimal_digits(ord_den, f"the denominator of a**{args.level}")
        return _json_doc(
            {
                "command": "construct",
                "a": str(a),
                "level": args.level,
                "breakpoints": [f"{k}/{denom}" for k in range(denom + 1)],
                "ordinates": [_reduced(n, ord_den) for n in pl.numerators],
            }
        )
    import numpy as np
    xs = np.arange(denom + 1) / denom  # k / denom: k and denom are exact doubles
    # n / ord_den is correctly rounded on big ints: float(Fraction(n, ord_den))
    ys = np.array([n / ord_den for n in pl.numerators])
    if args.format == "csv":
        return _csv_points(_point_blocks(xs, ys))
    return _svg_points(_point_blocks(xs, ys), 0.0, 1.0)


def _cmd_classify(args) -> str:
    return _json_doc(classification_report(_parse_rational(args.x)))


def _run_box_dim(args) -> tuple[dict, dict]:
    a = _parse_rational(args.a)
    results = box_dimension_estimate(a, args.levels)
    results["closed_form"] = box_dimension_formula(a)
    return {"a": str(a), "levels": args.levels}, results


def _run_walk_mc(args) -> tuple[dict, dict]:
    exp = walk_monte_carlo(args.samples, args.horizon, args.seed)
    return {"samples": args.samples, "horizon": args.horizon, "seed": args.seed}, {
        "crossing_fraction": exp.crossing_fraction,
        "mean_step_estimate": exp.mean_step_estimate,
    }


def _run_sigma_fuzz(args) -> tuple[dict, dict]:
    report = sigma_fuzz(args.trials, args.seed)
    return {"trials": args.trials, "seed": args.seed}, report


def _run_hata_yamaguti(args) -> tuple[dict, dict]:
    worst = hata_yamaguti_residual(grid=args.grid, h=args.step)
    return {"grid": args.grid, "h": args.step}, {"max_abs_residual": worst}


def _cmd_experiment(args) -> str:
    params, results = args.run(args)
    return _json_doc({"experiment": args.name, "params": params, "results": results})


@cache
def _build_parser() -> argparse.ArgumentParser:
    """Built once per process: its nine parsers take about 1.5 ms to build,
    and parsing a command line (0.03 ms) leaves them unchanged."""
    parser = argparse.ArgumentParser(
        prog="okamoto-k",
        description="Evaluate the self-affine family, its parameter derivative K, "
        "classify infinite-derivative points, and run the dimension/measure "
        "experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="sample a function on a uniform grid")
    p_eval.add_argument("--fn", choices=tuple(_EVAL_FNS), required=True)
    p_eval.add_argument(
        "--a", type=float,
        help="parameter in (0, 1) for lebesgue and okamoto only, default 1/3",
    )
    p_eval.add_argument(
        "--samples", type=int, default=1001,
        help=f"grid points, at least 2 and at most {_SAMPLES_CAP}",
    )
    p_eval.add_argument(
        "--terms", type=int, help="series terms for K only, at most 1000, default 40"
    )
    p_eval.add_argument(
        "--level", type=int,
        help="partial-sum level for Kn only, at most 999, default 10",
    )
    p_eval.add_argument("--format", choices=("csv", "json", "svg"), default="csv")
    p_eval.add_argument("--output", default=None)
    p_eval.set_defaults(func=_cmd_eval)

    p_con = sub.add_parser("construct", help="exact subdivision approximant f_n")
    p_con.add_argument("--a", required=True, help='rational parameter, e.g. "2/5"')
    p_con.add_argument("--level", type=int, required=True)
    p_con.add_argument("--format", choices=("csv", "json", "svg"), default="json")
    p_con.add_argument("--output", default=None)
    p_con.set_defaults(func=_cmd_construct)

    p_cls = sub.add_parser("classify", help="infinite-derivative verdict for p/q")
    p_cls.add_argument("x", help='rational point, e.g. "1/4"')
    p_cls.add_argument("--output", default=None)
    p_cls.set_defaults(func=_cmd_classify)

    p_exp = sub.add_parser("experiment", help="run a reproducible experiment")
    p_exp.set_defaults(func=_cmd_experiment)
    runs = p_exp.add_subparsers(dest="name", required=True)
    p_box = runs.add_parser("box-dim", help="box-counting dimension of graph(F_a)")
    p_box.add_argument("--a", default="2/3", help='rational parameter, e.g. "2/3"')
    p_box.add_argument("--levels", type=int, default=8, help="finest box level")
    p_box.set_defaults(run=_run_box_dim)
    p_walk = runs.add_parser("walk-mc", help="Monte Carlo of the walk W crossing 0")
    p_walk.add_argument("--samples", type=int, default=10000, help="walk paths")
    p_walk.add_argument("--horizon", type=int, default=10000, help="steps per path")
    p_walk.add_argument("--seed", type=int, default=0)
    p_walk.set_defaults(run=_run_walk_mc)
    p_sigma = runs.add_parser("sigma-fuzz", help="proof bounds on random ternary pairs")
    p_sigma.add_argument("--trials", type=int, default=10000, help="random pairs")
    p_sigma.add_argument("--seed", type=int, default=0)
    p_sigma.set_defaults(run=_run_sigma_fuzz)
    p_hata = runs.add_parser("hata-yamaguti", help="residual of dL_a/da = 2T, a = 1/2")
    p_hata.add_argument("--grid", type=int, default=100, help="grid intervals")
    p_hata.add_argument("--step", type=float, default=1e-6, help="step h in a")
    p_hata.set_defaults(run=_run_hata_yamaguti)
    for p_run in (p_box, p_walk, p_sigma, p_hata):
        p_run.add_argument("--output", default=None)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else argv
    flag = argv[1].partition("=")[0] if argv[:1] == ["experiment"] and argv[1:] else ""
    if flag.startswith("--") and not "--help".startswith(flag):
        # argparse would read the flag's value as the experiment name
        parser.error(f"argument {flag}: flags go after the experiment name")
    args = parser.parse_args(argv)
    if args.command == "eval":
        for option in ("a", "terms", "level"):
            if getattr(args, option) is not None and option != _EVAL_FNS[args.fn][0]:
                readers = [fn for fn, spec in _EVAL_FNS.items() if spec[0] == option]
                parser.error(
                    f"argument --{option}: applies to --fn {' and '.join(readers)} "
                    f"only, not --fn {args.fn}"
                )
    try:
        text = args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    path = _resolve_output(args.output)
    if path is None:
        sys.stdout.write(text)
        return 0
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {path}: {exc.strerror}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
