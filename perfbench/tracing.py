"""Spans around calls into each layer of the library, kept in memory.

Each wrapped public function records, per call of the benchmark (the
request) and per function: span count, total time, self time (total
minus the time of wrapped calls it made) and exceptions raised.  The
modules bind each other's functions with ``from .x import y``, so a
wrapper replaces the original in every module that holds a reference.
Per-digit helpers (``digit_at``, ``big_phi``, ``big_phi_exact``) are not
wrapped: a wrapper costs about as much as one of their calls.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

import okamoto_k
from okamoto_k import cli, derivative, dimension, functions, ternary

LAYERS = ("cli", "functions", "ternary", "derivative", "dimension")
MODULES = (okamoto_k, cli, functions, ternary, derivative, dimension)


def _terms(position, default):
    """Terms summed by an evaluator whose truncation is argument ``position``."""

    def count(args, kwargs, result):
        trunc = args[position] if len(args) > position else kwargs.get("trunc")
        return trunc.terms if trunc is not None else default

    return count


def _lebesgue_terms(args, kwargs, result):
    return args[2] if len(args) > 2 else kwargs.get("depth", 60)


def _digits(args, kwargs, result):
    return len(result.preperiod) + len(result.period)


def _walk_paths(args, kwargs, result):
    return result.sample_count, result.sample_count * result.horizon


def _violations(args, kwargs, result):
    return result["violations"]


# (module, function name, kind, work counted per call from args/result;
# a pair counts two kinds of work)
TRACED = (
    (cli, "main", "main", None),
    (functions, "k_series_phi", "float", _terms(1, functions.TERNARY_TERMS)),
    (functions, "okamoto_series", "float", _terms(2, functions.TERNARY_TERMS)),
    (functions, "takagi", "float", _terms(1, functions.BINARY_TERMS)),
    (functions, "lebesgue_L", "float", _lebesgue_terms),
    (functions, "hata_yamaguti_residual", "other", None),
    (functions, "sample_grid", "other", None),
    (functions, "k_exact", "exact", None),
    (functions, "okamoto_iterative", "exact", None),
    (ternary, "expand_rational", "expand", _digits),
    (ternary, "walk_value", "walk", None),
    (derivative, "classification_report", "classify", None),
    (derivative, "secant_slope", "secant", None),
    (derivative, "billingsley_divergence_witness", "other", None),
    (derivative, "sigma_decompose", "sigma", None),
    (derivative, "sigma_fuzz", "fuzz", _violations),
    (dimension, "box_dimension_estimate", "box", None),
    (dimension, "walk_monte_carlo", "walk_mc", _walk_paths),
)


def _layer(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


class Tracer:
    """Installs span wrappers on enter and restores the originals on exit."""

    def __init__(self):
        self.request = "setup"
        # (request, layer, kind, function) -> [spans, total_s, self_s, errors, work, work2]
        self.spans = defaultdict(lambda: [0, 0.0, 0.0, 0, 0, 0])
        self._stack: list[list[float]] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, layer, kind, fn, work):
        name = fn.__name__
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            rec = self.spans[(self.request, layer, kind, name)]
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[3] += 1
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += elapsed - child[0]
            if work is not None:
                done = work(args, kwargs, result)
                if isinstance(done, tuple):
                    rec[4] += done[0]
                    rec[5] += done[1]
                else:
                    rec[4] += done
            return result

        return traced

    def __enter__(self):
        for module, name, kind, work in TRACED:
            original = getattr(module, name)
            wrapper = self._wrap(_layer(module), kind, original, work)
            for holder in MODULES:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        self._restore.append((holder, attr, original))
                        setattr(holder, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for holder, attr, original in reversed(self._restore):
            setattr(holder, attr, original)
        self._restore.clear()
        return False

    def totals(self) -> dict:
        """(layer, kind) -> [spans, total_s, self_s, errors, work, work2] summed."""
        out = defaultdict(lambda: [0, 0.0, 0.0, 0, 0, 0])
        for (_, layer, kind, _), rec in self.spans.items():
            acc = out[(layer, kind)]
            for i, v in enumerate(rec):
                acc[i] += v
        return out

    def dump(self) -> list[dict]:
        return [
            {
                "request": request,
                "layer": layer,
                "function": name,
                "spans": rec[0],
                "total_s": rec[1],
                "self_s": rec[2],
                "errors": rec[3],
                "work": rec[4],
                "work2": rec[5],
            }
            for (request, layer, kind, name), rec in sorted(self.spans.items())
        ]


def layer_metrics(tracer: Tracer, passes: int, bytes_out: int, cli_errors: int) -> dict:
    """Per-layer metrics, each a per-pass figure so runs of any length compare."""
    t = tracer.totals()

    def get(layer, *kinds, field=0):
        """Sum of one field over the given kinds of a layer, or all its kinds."""
        return sum(
            rec[field] for (lay, kind), rec in t.items()
            if lay == layer and (not kinds or kind in kinds)
        )

    def per_pass(v):
        return v / passes

    def ratio(num, den, scale=1.0):
        return num * scale / den if den else 0.0

    float_self = get("functions", "float", field=2)
    float_calls = get("functions", "float")
    expand_self = get("ternary", "expand", field=2)
    digits = get("ternary", "expand", field=4)
    walk_self = get("dimension", "walk_mc", field=2)
    walk_steps = get("dimension", "walk_mc", field=5)
    m = {}
    for layer in LAYERS:
        m[f"{layer}.spans"] = (per_pass(get(layer)), "count")
        errors = get(layer, field=3) + (cli_errors if layer == "cli" else 0)
        m[f"{layer}.errors"] = (per_pass(errors), "count")
    m.update(
        {
            "cli.calls": (per_pass(get("cli", "main")), "count"),
            "cli.bytes_out": (per_pass(bytes_out), "bytes"),
            "cli.self_s": (per_pass(get("cli", "main", field=2)), "s"),
            "functions.float_calls": (per_pass(float_calls), "count"),
            "functions.float_self_s": (per_pass(float_self), "s"),
            "functions.us_per_point": (ratio(float_self, float_calls, 1e6), "us"),
            "functions.terms_summed": (per_pass(get("functions", "float", field=4)), "count"),
            "functions.exact_calls": (per_pass(get("functions", "exact")), "count"),
            "functions.exact_self_s": (per_pass(get("functions", "exact", field=2)), "s"),
            "ternary.expand_calls": (per_pass(get("ternary", "expand")), "count"),
            "ternary.digits_expanded": (per_pass(digits), "count"),
            "ternary.expand_self_s": (per_pass(expand_self), "s"),
            "ternary.us_per_digit": (ratio(expand_self, digits, 1e6), "us"),
            "ternary.walk_calls": (per_pass(get("ternary", "walk")), "count"),
            "ternary.walk_self_s": (per_pass(get("ternary", "walk", field=2)), "s"),
            "derivative.classify_self_s": (per_pass(get("derivative", "classify", field=2)), "s"),
            "derivative.secant_calls": (per_pass(get("derivative", "secant")), "count"),
            "derivative.secant_self_s": (per_pass(get("derivative", "secant", field=2)), "s"),
            "derivative.sigma_calls": (per_pass(get("derivative", "sigma")), "count"),
            "derivative.sigma_self_s": (per_pass(get("derivative", "sigma", field=2)), "s"),
            "derivative.sigma_violations": (per_pass(get("derivative", "fuzz", field=4)), "count"),
            "dimension.box_self_s": (per_pass(get("dimension", "box", field=2)), "s"),
            "dimension.walk_paths": (per_pass(get("dimension", "walk_mc", field=4)), "count"),
            "dimension.walk_self_s": (per_pass(walk_self), "s"),
            "dimension.ns_per_step": (ratio(walk_self, walk_steps, 1e9), "ns"),
        }
    )
    return m
