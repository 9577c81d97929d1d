"""Command-line front end: evaluate, construct, classify, experiment.

All output is assembled in memory and written in one shot, so a failed
run never leaves a partial file, and identical configs (plus seed) give
byte-identical output.  Exit codes: 0 success, 2 usage, 3 domain error,
4 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections.abc import Iterable, Iterator
from fractions import Fraction

import numpy as np

from .derivative import classification_report, sigma_fuzz
from .dimension import (
    box_dimension_estimate,
    box_dimension_formula,
    walk_monte_carlo,
)
from .errors import DomainError, RangeError, ResourceLimitError
from .functions import (
    hata_yamaguti_residual,
    k_series_phi_array,
    lebesgue_L_array,
    okamoto_iterative,
    okamoto_series_array,
    sample_grid,
    takagi_array,
    ternary_truncation,
)

SCHEMA_VERSION = 1
OUTDIR_ENV = "OKAMOTO_K_OUTDIR"

_EVAL_FNS = ("takagi", "lebesgue", "okamoto", "K", "Kn")
_POINT_BLOCK = 8192  # grid points converted to Python floats at a time
_TERMS_CAP = 1000  # K's weight 3^-n is 0.0 from term 680 on


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"cannot parse rational {text!r}") from exc


def _resolve_output(path: str | None) -> str | None:
    if path is None:
        return None
    outdir = os.environ.get(OUTDIR_ENV)
    if outdir and not os.path.isabs(path):
        return os.path.join(outdir, path)
    return path


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _point_blocks(xs, values) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Consecutive slices of ``_POINT_BLOCK`` points of a grid and its values.

    The writers convert one block at a time to Python floats and text.  A
    whole 10^5-point grid at once would keep 2 * 10^5 floats alive, about
    13 MB in fresh memory on every call; per block they stay few, and the
    allocator reuses their memory.
    """
    for i in range(0, len(xs), _POINT_BLOCK):
        yield xs[i : i + _POINT_BLOCK], values[i : i + _POINT_BLOCK]


def _grid_points(xs, values) -> Iterator[tuple[float, float]]:
    """The (x, value) pairs of a grid as Python floats, one block at a time."""
    for xb, vb in _point_blocks(xs, values):
        yield from zip(xb.tolist(), vb.tolist())


def _format_block(line: str, sep: str, xb: np.ndarray, vb: np.ndarray) -> str:
    """``sep.join(line % (x, v) for x, v in zip(xb, vb))`` in one ``%``.

    One ``%`` on the interleaved floats formats each of them with the same
    conversion as an f-string's format spec, without a Python-level loop.
    """
    flat = np.column_stack((xb, vb)).ravel().tolist()
    return sep.join([line] * len(xb)) % tuple(flat)


def _csv_points(xs, values) -> str:
    """The csv document of the float arrays xs and values: ``x,value`` rows.

    Each number is ``%.12g``.  A block of ``_POINT_BLOCK`` rows is formatted
    at a time, byte-identical to one f-string per row.
    """
    blocks = _point_blocks(xs, values)
    return "x,value\n" + "".join(
        _format_block("%.12g,%.12g\n", "", xb, vb) for xb, vb in blocks
    )


def _svg_points(xs, values, ylo: float, yhi: float) -> str:
    """An 800x800 svg polyline of the float arrays xs in [0, 1] and values.

    The value range [ylo, yhi] fills the plot area; a zero line is drawn
    when it lies inside.  Pixel coordinates are computed in numpy with the
    same IEEE operations, in the same order, as per point, and formatted
    ``%.2f`` a block of ``_POINT_BLOCK`` points at a time.
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
        for xb, vb in _point_blocks(xs, values)
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


def _json_doc(payload: dict) -> str:
    doc = {"schema_version": SCHEMA_VERSION}
    doc.update(payload)
    return json.dumps(doc, indent=2) + "\n"


def _json_points_doc(payload: dict, points: Iterable[tuple[float, float]]) -> str:
    """``_json_doc`` of payload plus a last key ``"points": [[x, v], ...]``.

    The text is byte for byte the same.  ``json.dumps`` with an indent runs
    the pure-Python encoder, which holds a list and about seven string
    pieces per point until it joins them: for 10^5 points, 0.8 s and some
    40 MB of fresh memory per call.  The points are finite floats, which
    that encoder writes as ``float.__repr__``; here each point is one
    f-string in the same layout.
    """
    head = _json_doc({**payload, "points": []}).removesuffix("[]\n}\n")
    body = ",\n".join(f"    [\n      {x!r},\n      {v!r}\n    ]" for x, v in points)
    return f"{head}[\n{body}\n  ]\n}}\n"


def _cmd_eval(args) -> int:
    if args.samples < 2:
        raise DomainError("need --samples >= 2")
    a = args.a
    if args.fn in ("lebesgue", "okamoto") and not 0 < a < 1:
        raise DomainError(f"parameter a={a} outside (0, 1)")
    # Kn is the partial sum through level n; only K reads --terms
    terms = args.level + 1 if args.fn == "Kn" else args.terms
    if terms is not None and terms > _TERMS_CAP:
        raise ResourceLimitError(f"{terms} series terms exceed cap of {_TERMS_CAP}")
    trunc = ternary_truncation(terms) if terms is not None else None
    xs = sample_grid(args.samples)
    if args.fn == "takagi":
        values = takagi_array(xs)
    elif args.fn == "lebesgue":
        values = lebesgue_L_array(a, xs)
    elif args.fn == "okamoto":
        values = okamoto_series_array(a, xs)
    else:
        values = k_series_phi_array(xs, trunc)

    if args.format == "csv":
        text = _csv_points(xs, values)
    elif args.format == "json":
        text = _json_points_doc(
            {"command": "eval", "fn": args.fn, "a": a, "samples": args.samples},
            _grid_points(xs, values),
        )
    else:
        ylo, yhi = (-1.5, 1.5) if args.fn in ("K", "Kn") else (0.0, 1.0)
        text = _svg_points(xs, values, ylo, yhi)
    _emit(text, _resolve_output(args.output))
    return 0


def _reduced(num: int, den: int) -> str:
    """num/den in lowest terms as "p/q", also when q is 1."""
    g = math.gcd(num, den)
    return f"{num // g}/{den // g}"


def _cmd_construct(args) -> int:
    a = _parse_rational(args.a)
    pl = okamoto_iterative(a, args.level)
    denom = 3**args.level
    ord_den = pl.denominator
    if args.format == "json":
        text = _json_doc(
            {
                "command": "construct",
                "a": str(a),
                "level": args.level,
                "breakpoints": [f"{k}/{denom}" for k in range(denom + 1)],
                "ordinates": [_reduced(n, ord_den) for n in pl.numerators],
            }
        )
    else:
        xs = np.arange(denom + 1) / denom  # k / denom: k and denom are exact doubles
        # n / ord_den is correctly rounded on big ints: float(Fraction(n, ord_den))
        ys = np.array([n / ord_den for n in pl.numerators])
        if args.format == "csv":
            text = _csv_points(xs, ys)
        else:
            text = _svg_points(xs, ys, 0.0, 1.0)
    _emit(text, _resolve_output(args.output))
    return 0


def _cmd_classify(args) -> int:
    x = _parse_rational(args.x)
    text = _json_doc(classification_report(x))
    _emit(text, _resolve_output(args.output))
    return 0


def _cmd_experiment(args) -> int:
    name = args.name
    if name == "box-dim":
        a = _parse_rational(args.a)
        result = box_dimension_estimate(a, args.levels)
        payload = {
            "experiment": name,
            "params": {"a": str(a), "levels": args.levels},
            "results": {
                "scales": list(result.scales),
                "counts": list(result.counts),
                "fitted_dimension": result.fitted_dimension,
                "residual": result.residual,
                "fit_levels": list(result.fit_levels),
                "closed_form": box_dimension_formula(float(a)),
            },
        }
    elif name == "walk-mc":
        exp = walk_monte_carlo(args.samples, args.horizon, args.seed)
        payload = {
            "experiment": name,
            "params": {
                "samples": args.samples,
                "horizon": args.horizon,
                "seed": args.seed,
            },
            "results": {
                "crossing_fraction": exp.crossing_fraction,
                "mean_step_estimate": exp.mean_step_estimate,
            },
        }
    elif name == "sigma-fuzz":
        report = sigma_fuzz(args.trials, args.seed)
        payload = {
            "experiment": name,
            "params": {"trials": args.trials, "seed": args.seed},
            "results": report,
        }
    else:  # hata-yamaguti
        worst = hata_yamaguti_residual(grid=args.grid, h=args.step)
        payload = {
            "experiment": name,
            "params": {"grid": args.grid, "h": args.step},
            "results": {"max_abs_residual": worst},
        }
    _emit(_json_doc(payload), _resolve_output(args.output))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="okamoto-k",
        description="Evaluate the self-affine family, its parameter derivative K, "
        "classify infinite-derivative points, and run the dimension/measure "
        "experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="sample a function on a uniform grid")
    p_eval.add_argument("--fn", choices=_EVAL_FNS, required=True)
    p_eval.add_argument("--a", type=float, default=1 / 3)
    p_eval.add_argument("--samples", type=int, default=1001)
    p_eval.add_argument(
        "--terms", type=int, default=None, help="series terms for K only, at most 1000"
    )
    p_eval.add_argument(
        "--level", type=int, default=10, help="partial-sum level for Kn, at most 999"
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
    p_exp.add_argument(
        "name", choices=("box-dim", "walk-mc", "sigma-fuzz", "hata-yamaguti")
    )
    p_exp.add_argument("--a", default="2/3")
    p_exp.add_argument("--levels", type=int, default=8)
    p_exp.add_argument("--samples", type=int, default=10000)
    p_exp.add_argument("--horizon", type=int, default=10000)
    p_exp.add_argument("--trials", type=int, default=10000)
    p_exp.add_argument("--seed", type=int, default=0)
    p_exp.add_argument("--grid", type=int, default=100)
    p_exp.add_argument("--step", type=float, default=1e-6)
    p_exp.add_argument("--output", default=None)
    p_exp.set_defaults(func=_cmd_experiment)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "eval" and args.terms is not None and args.fn != "K":
        parser.error(f"argument --terms: applies to --fn K only, not --fn {args.fn}")
    try:
        return args.func(args)
    except (DomainError, RangeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
