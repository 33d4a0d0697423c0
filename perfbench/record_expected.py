"""Record the expected answers of the `quotient` workload into expected.json.

Usage: PYTHONPATH=src python3 perfbench/record_expected.py

The table covers every input the generators can draw: all graphs on 4 or
5 vertices at k=2 and on 4 vertices at k=3 up to isomorphism, the fixed
graphs of the plain `derivations` jobs, every step-2
spec graph, every degree-3 basis word of every 4-vertex graph with an
edge, and the C4 control search.  It was recorded at commit 0615f90;
re-recording on a later commit would make the checks compare that commit
with itself, so do it only to extend the table, and diff the overlap.
"""

import itertools
import json
import sys
from fractions import Fraction

from anosograph import (QuotientSpec, build_quotient, derivation_algebra,
                        hyperbolic_search, lift_check, quotient_algebra, span_report)
from anosograph.graphs import graph_from_edges

import corpus


def _graph(n, edges):
    vs = [f"v{i}" for i in range(n)]
    return graph_from_edges(vs, [(vs[u], vs[v]) for u, v in edges])


def _iso_classes(n):
    keys = set()
    for m in range(n * (n - 1) // 2 + 1):
        for edges in itertools.combinations(itertools.combinations(range(n), 2), m):
            keys.add(corpus.canonical(n, list(edges)))
    return sorted(keys)


def _der(algebra):
    return derivation_algebra(algebra).dimension, \
        derivation_algebra(algebra, v_stable=True).dimension


def main():
    out = {"recorded_at": "0615f90", "derivations": {}, "step2": {}, "step3": {}}
    keys = [(k, key) for n, k in ((4, 2), (5, 2), (4, 3)) for key in _iso_classes(n)]
    keys += [(k, corpus.canonical(*graph)) for _, graph, k in corpus.DERIVATIONS_FIXED]
    for k, key in keys:
        g = _graph(*corpus.graph_of_key(key))
        out["derivations"][f"k{k}|{key}"] = list(_der(quotient_algebra(g, k)))
    spec2 = QuotientSpec(step=2, vertices=("v0", "v1", "v2", "v3"))
    subsets = [None] + [list(s) for r in range(5) for s in itertools.combinations(range(4), r)]
    for bc, bd, e_nbrs in itertools.product((False, True), (False, True), subsets):
        g = _graph(*corpus.step2_graph(bc, bd, e_nbrs))
        q = build_quotient(g, spec2)
        bound, budget = corpus.SEARCH_ARGS[2]
        entry = {"dims": list(q.dims), "span_ok": span_report(g, spec2).ok,
                 "lift_check": lift_check(g, spec2),
                 "search_found": len(hyperbolic_search(q, bound, budget))}
        entry["der"], entry["der_v_stable"] = _der(q)
        out["step2"][corpus.step2_key(bc, bd, e_nbrs)] = entry
    for key in _iso_classes(4):
        n, edges = corpus.graph_of_key(key)
        if not edges:
            continue
        g = _graph(n, edges)
        words = []
        for word in quotient_algebra(g, 3).basis_words[3]:
            spec3 = QuotientSpec(step=3, vector=((tuple(g.vertices[i] for i in word),
                                                  Fraction(1)),))
            q = build_quotient(g, spec3)
            bound, budget = corpus.SEARCH_ARGS[3]
            if hyperbolic_search(q, bound, budget):
                print(f"step-3 search on {key} {word} is not empty", file=sys.stderr)
            words.append(["".join(map(str, word)), *_der(q)])
        out["step3"][key] = {"dims": list(q.dims), "words": words}
    c = corpus.CONTROL_ARGS
    control = hyperbolic_search(quotient_algebra(_graph(*corpus.cycle(4)), c["k"]),
                                c["entry_bound"], c["budget"], seed=c["seed"])
    out["control"] = dict(c, matrices=[f.matrix for f in control])
    with open(corpus.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
