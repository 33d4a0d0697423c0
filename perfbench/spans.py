"""In-process span recorder for one traced job.

`install()` wraps the public functions the benchmark reports on, in their
defining module and in every `anosograph.*` namespace that bound them with
`from ... import`, inside the job process only; no source file changes.  A span is
[name, start, end, parent index, extras]; spans stay in memory until the
job ends.  `products_off_circle` is counted, not timed: its calls only feed
`anosov.find_component_matrix.candidates`.

`Fraction` and the lru-cached `free_bracket_words` are never wrapped:
they are called millions of times and the wrapper would dominate.
"""

from __future__ import annotations

import importlib
import sys
import time

# (module, function) pairs timed as spans; the span name is "<module>.<function>".
TIMED = [
    ("lyndon", "lyndon_basis"),
    ("liealg", "build_graded_quotient"),
    ("linalg", "rref"),
    ("linalg", "reduce_mod_rows"),
    ("linalg", "det_bareiss"),
    ("linalg", "kernel_basis"),
    ("intpoly", "poly_gcd"),
    ("intpoly", "cyclotomic_indices_up_to_degree"),
    ("intpoly", "count_real_roots"),
    ("spectra", "char_poly"),
    ("spectra", "compound_matrix"),
    ("spectra", "unit_root_free"),
    ("anosov", "synthesize"),
    ("anosov", "find_component_matrix"),
    ("anosov", "extend_to_algebra"),
    ("anosov", "verify_certificate"),
    ("derivations", "build_quotient"),
    ("derivations", "derivation_algebra"),
    ("derivations", "span_report"),
    ("derivations", "lift_check"),
    ("derivations", "hyperbolic_search"),
    ("cli", "main"),
    ("graphs", "coherent_components"),
]
COUNTED = [("spectra", "products_off_circle")]


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def berkowitz_mults(n):
    """Multiplications `spectra.char_poly` performs on an n x n matrix."""
    total = 0
    for r in range(1, n + 1):
        total += (r - 1) * ((r - 1) + (r - 1) ** 2)  # r-1 rounds of dot + mat-vec
        total += r * (r + 1) // 2 + r  # polynomial convolution
    return total


def _rref_extras(args, kwargs, result):
    rows = _arg(args, kwargs, 0, "rows")
    ncols = _arg(args, kwargs, 1, "ncols")
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    return {"cells": len(rows) * ncols}


def _char_poly_extras(args, kwargs, result):
    n = len(_arg(args, kwargs, 0, "a"))
    return {"n": n, "ops": berkowitz_mults(n)}


def _unit_root_free_extras(args, kwargs, result):
    return {"method": result.method}


def _quotient_extras(args, kwargs, result):
    return {"free_words": sum(len(r.words) for r in result.reductions.values()),
            "ideal_rows": sum(result.ideal_dims)}


def _search_extras(args, kwargs, result):
    return {"candidates": _arg(args, kwargs, 2, "budget"), "found": len(result)}


EXTRAS = {
    "linalg.rref": _rref_extras,
    "spectra.char_poly": _char_poly_extras,
    "spectra.unit_root_free": _unit_root_free_extras,
    "liealg.build_graded_quotient": _quotient_extras,
    "derivations.hyperbolic_search": _search_extras,
}


class Recorder:
    """Spans and counted calls of one job, in call order."""

    def __init__(self):
        self.spans = []
        self.events = []  # [name, index of the innermost open span]
        self.stack = []
        self.missing = []

    def timed(self, name, fn):
        spans, stack, extras_of = self.spans, self.stack, EXTRAS.get(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            idx = len(spans)
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                span[4] = {"error": type(e).__name__}
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if extras_of is not None:
                span[4] = extras_of(args, kwargs, result)
            return result

        return wrapper

    def counted(self, name, fn):
        events, stack = self.events, self.stack

        def wrapper(*args, **kwargs):
            events.append([name, stack[-1] if stack else -1])
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        """Wrap every listed function; returns the wrapped `cli.main`."""
        namespaces = [m for n, m in list(sys.modules.items())
                      if n == "anosograph" or n.startswith("anosograph.")]
        for make, table in ((self.timed, TIMED), (self.counted, COUNTED)):
            for modname, fname in table:
                try:
                    module = importlib.import_module(f"anosograph.{modname}")
                except ModuleNotFoundError:
                    module = None
                original = getattr(module, fname, None)
                if original is None:
                    self.missing.append(f"{modname}.{fname}")
                    continue
                wrapper = make(f"{modname}.{fname}", original)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            setattr(ns, attr, wrapper)
        import mpmath

        mpmath.polyroots = self.timed("mpmath.polyroots", mpmath.polyroots)
        return sys.modules["anosograph.cli"].main

    def to_json(self):
        return {"spans": self.spans, "events": self.events, "missing": self.missing}
