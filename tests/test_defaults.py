"""The library's defaulted parameters are pinned.

Every parameter with a default is a setting that tests and benchmarks must
cover at each value a caller can pass.  A default is kept only where
callers pass different values; a new one must be added to ``KEPT`` below
with the callers that need it.
"""

import inspect

from okamoto_k import derivative, dimension, functions, ternary

KEPT = {
    # eval --terms and --level (through cli._k_route)
    ("functions", "ternary_truncation", "terms"),
    ("functions", "k_series_phi", "trunc"),
    ("functions", "k_series_phi_array", "trunc"),
    # kobayashi_terms_for and criterion 02 pass their own term counts
    ("functions", "kobayashi_truncation", "terms"),
    ("functions", "okamoto_series", "trunc"),
}


def _defaulted_parameters() -> set[tuple[str, str, str]]:
    found = set()
    for module in (functions, ternary, derivative, dimension):
        layer = module.__name__.rsplit(".", 1)[-1]
        for name, obj in vars(module).items():
            if not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                continue
            for param in inspect.signature(obj).parameters.values():
                if param.default is not param.empty:
                    found.add((layer, name, param.name))
    return found


def test_defaulted_parameters_are_pinned():
    assert _defaulted_parameters() == KEPT
