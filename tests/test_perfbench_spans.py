"""The benchmark tracer's function table against the package.

`perfbench/spans.py` reports a missing function as a zero metric; this test
turns a rename or deletion into a failure instead.  The file is read, not
imported, so nothing is written next to it.  The parameter lists that
`perfbench/record_expected.py` and the tracer's argument readers rely on
are pinned here too.
"""

import importlib
import inspect
import types
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    module = types.ModuleType("perfbench_spans")
    module.__file__ = str(SPANS)
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), module.__dict__)
    return module


def test_traced_functions_exist():
    spans = _load_spans()
    assert spans.TIMED and spans.COUNTED
    missing = [f"{modname}.{fname}" for modname, fname in spans.TIMED + spans.COUNTED
               if not callable(getattr(importlib.import_module(f"anosograph.{modname}"),
                                       fname, None))]
    assert missing == []


def test_free_bracket_words_keeps_its_cache():
    # the worker reads cache_info() for lyndon.free_bracket_words.calls and
    # .hit_ratio; an unwrapped function would report them as zero
    lyndon = importlib.import_module("anosograph.lyndon")
    assert callable(getattr(lyndon.free_bracket_words, "cache_info", None))


def test_benchmark_call_signatures():
    # record_expected.py calls these positionally, and the tracer reads
    # hyperbolic_search's budget as its third argument
    derivations = importlib.import_module("anosograph.derivations")
    expected = {
        "span_report": "(graph, spec)",
        "lift_check": "(graph, spec)",
        "build_quotient": "(graph, spec)",
        "derivation_algebra": "(algebra, v_stable=False)",
        "hyperbolic_search": "(algebra, entry_bound, budget, seed=0)",
    }
    actual = {name: str(inspect.signature(getattr(derivations, name))) for name in expected}
    assert actual == expected
