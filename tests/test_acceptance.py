"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  All comparisons are exact; the only tolerances are the stated
wall-clock budgets.
"""

import random
import time
from fractions import Fraction

from anosograph.anosov import decide_anosov, synthesize, verify_certificate
from anosograph.derivations import (
    QuotientSpec,
    build_quotient,
    derivation_algebra,
    hyperbolic_search,
    lift_check,
    span_report,
)
from anosograph.graphs import coherent_components, graph_from_edges, parse_graph
from anosograph.intpoly import IntPolynomial, cyclotomic
from anosograph.liealg import quotient_algebra
from anosograph.spectra import char_poly, compound_matrix, unit_root_free
from oracles import (
    all_graphs_up_to_iso,
    bipartite_deg3_formula,
    bipartite_graph,
    classify_unit_roots_512,
    complete_graph,
    deg3_dim_tensor,
    edgeless_graph,
    magnet_graph,
    product_poly_subsets,
)

C4 = parse_graph("a b\nb c\nc d\nd a")


def report(num, desc, ok, detail=""):
    tail = f"  [{detail}]" if detail else ""
    print(f"\nACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {desc}{tail}")
    assert ok, f"criterion {num} failed: {desc} {tail}"


def test_criterion_1_dimension_reproduction():
    t0 = time.time()
    h = quotient_algebra(C4, 3)
    elapsed = time.time() - t0
    ok = h.dims == [4, 4, 12] and h.dim == 20 and elapsed < 1.0
    report(1, "dim H_3(4-cycle) = 20 with per-degree [4, 4, 12]", ok,
           f"dims={h.dims} total={h.dim} {elapsed:.2f}s")


def test_criterion_2_bipartite_formula():
    expected = {(2, 2): 12, (2, 3): 21}
    lines = []
    ok = True
    for (m, n) in ((2, 2), (2, 3), (3, 3)):
        t0 = time.time()
        h = quotient_algebra(bipartite_graph(m, n), 3)
        oracle = deg3_dim_tensor(bipartite_graph(m, n))
        formula = bipartite_deg3_formula(m, n)
        elapsed = time.time() - t0
        ok = ok and h.dims[2] == formula == oracle and elapsed < 10.0
        if (m, n) in expected:
            ok = ok and h.dims[2] == expected[(m, n)]
        lines.append(f"K_{m},{n}: deg3={h.dims[2]} formula={formula} "
                     f"oracle={oracle} total={h.dim} ({elapsed:.1f}s)")
    # the reported closed form counts the degree-3 slice, not the total:
    # at (2,2) it gives 12 while the whole algebra is 20-dimensional
    flag = (bipartite_deg3_formula(2, 2) == 12
            and quotient_algebra(bipartite_graph(2, 2), 3).dim == 20)
    ok = ok and flag
    report(2, "complete-bipartite degree-3 dimensions match the closed form",
           ok, "; ".join(lines) + "; formula/total discrepancy at (2,2): 12 vs 20")


def test_criterion_3_verdict_table():
    ok = True
    for n in range(2, 8):
        partition = coherent_components(complete_graph(n))
        for k in range(2, 7):
            ok = ok and decide_anosov(partition, k).admits == (n > k)
    # two independent classes of two, adjacent: refused once k reaches 4
    partition = coherent_components(C4)
    for k in range(2, 7):
        ok = ok and decide_anosov(partition, k).admits == (k <= 3)
    for core in (2, 3, 4):
        partition = coherent_components(magnet_graph(core, 2))
        for k in range(2, 7):
            ok = ok and decide_anosov(partition, k).admits == (k < core)
    report(3, "verdict table: K_n iff n > k; 4-cycle iff k <= 3; magnet iff k < |C|", ok,
           "K_n for 2<=n<=7, 2<=k<=6; magnet |C| in {2,3,4}")


def test_criterion_4_end_to_end_synthesis():
    cases = [
        (C4, 2),
        (C4, 3),
        (complete_graph(5), 3),
        (bipartite_graph(2, 3), 3),
    ]
    t0 = time.time()
    ok = True
    details = []
    for graph, k in cases:
        cert = synthesize(graph, k)
        passed, rep = verify_certificate(graph, cert)
        ok = ok and passed
        ok = ok and all(d in (1, -1) for d in cert.determinants.values())
        details.append(
            f"({graph.n}-vertex, k={k}): exponents {cert.exponents}, verify={passed}")
    elapsed = time.time() - t0
    ok = ok and elapsed < 60.0
    report(4, "synthesize + verify_certificate on the four-case corpus", ok,
           "; ".join(details) + f"; {elapsed:.1f}s total")


def _criterion_5_corpus():
    polys = [cyclotomic(d) for d in range(1, 16)]                      # 15
    pisot = IntPolynomial([1, -3, 1])
    polys += [pisot * cyclotomic(d) for d in range(1, 13)]             # 12
    polys += [
        IntPolynomial([1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1]),        # Lehmer
        pisot,
        pisot * pisot,
        IntPolynomial([-1, -1, 1]),
        IntPolynomial([-1, 1, 1]),
    ]                                                                  # 5
    rng = random.Random(20250809)
    while len(polys) < 50:
        deg = rng.randint(3, 8)
        coeffs = [rng.choice((-1, 1))] + \
            [rng.randint(-4, 4) for _ in range(deg - 1)] + [1]
        polys.append(IntPolynomial(coeffs))                           # 18
    return polys


def test_criterion_5_spectral_soundness():
    polys = _criterion_5_corpus()
    assert len(polys) == 50
    disagreements = []
    for i, p in enumerate(polys):
        cert = unit_root_free(p)
        oracle = classify_unit_roots_512(p.to_json())
        if cert.verdict != oracle:
            disagreements.append((i, str(p), cert.verdict, oracle))
    report(5, "unit_root_free agrees with 512-bit root isolation on 50 polynomials",
           not disagreements, f"{len(polys)} checked, {len(disagreements)} disagreements")


def test_criterion_6_compound_matrix_law():
    rng = random.Random(64)
    checked = 0
    ok = True
    for _ in range(100):
        a = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(4)]
        for r in (1, 2, 3, 4):
            lib = char_poly(compound_matrix(a, r)).to_json()[::-1]
            if lib != product_poly_subsets(a, r):
                ok = False
        checked += 1
    report(6, "compound eigenvalue-product law on 100 random 4x4 matrices", ok,
           f"{checked} matrices, orders r=1..4, exact polynomial equality")


def _identity_holds_pruned(algebra, mat):
    # derivations here only raise degree, so pairs of total degree above k
    # are identically zero on both sides; assert that structure, then check
    # the rest exactly
    dim = algebra.dim
    for r in range(dim):
        for c in range(dim):
            if mat[r][c] and algebra.degree_of(r) < algebra.degree_of(c):
                return False
    for i in range(dim):
        di = algebra.degree_of(i)
        for j in range(i + 1, dim):
            if di + algebra.degree_of(j) > algebra.k:
                continue
            lhs = [Fraction(0)] * dim
            for l, c in algebra.bracket_basis(i, j).items():
                for r in range(dim):
                    if mat[r][l]:
                        lhs[r] += mat[r][l] * c
            rhs = [Fraction(0)] * dim
            for p in range(dim):
                if mat[p][i]:
                    for l, c in algebra.bracket_basis(p, j).items():
                        rhs[l] += mat[p][i] * c
            for q in range(dim):
                if mat[q][j]:
                    for l, c in algebra.bracket_basis(i, q).items():
                        rhs[l] += mat[q][j] * c
            if lhs != rhs:
                return False
    return True


def _jacobi_holds(algebra):
    for (i, j), entry in algebra.struct.items():
        m = algebra.degree_of(i) + algebra.degree_of(j)
        if any(algebra.degree_of(l) != m for l in entry):
            return False
    dim = algebra.dim
    for i in range(dim):
        for j in range(i + 1, dim):
            for l in range(j + 1, dim):
                if (algebra.degree_of(i) + algebra.degree_of(j)
                        + algebra.degree_of(l)) > algebra.k:
                    continue
                acc = [Fraction(0)] * dim
                for (a, b, c) in ((i, j, l), (j, l, i), (l, i, j)):
                    for t, ct in algebra.bracket_basis(a, b).items():
                        for s, cs in algebra.bracket_basis(t, c).items():
                            acc[s] += ct * cs
                if any(acc):
                    return False
    return True


def test_criterion_7_derivations():
    ok = True
    for n in range(1, 6):
        algebra = quotient_algebra(edgeless_graph(n), 2)
        ok = ok and derivation_algebra(algebra).dimension == n * n
    heisenberg = quotient_algebra(parse_graph("a b"), 2)
    ok = ok and derivation_algebra(heisenberg).dimension == 6

    corpus = []
    for n in range(1, 6):
        corpus.extend(all_graphs_up_to_iso(n))
    algebras = 0
    derivations_checked = 0
    for g in corpus:
        for k in (2, 3):
            algebra = quotient_algebra(g, k)
            ok = ok and _jacobi_holds(algebra)
            der = derivation_algebra(algebra)
            for mat in der.basis:
                ok = ok and _identity_holds_pruned(algebra, mat)
                derivations_checked += 1
            algebras += 1
    report(7, "derivation dimensions and exact Jacobi/Leibniz identities", ok,
           f"abelian n<=5 and Heisenberg dims; {algebras} corpus algebras, "
           f"{derivations_checked} derivations checked")


def test_criterion_8_quotient_evidence():
    t0 = time.time()
    s5_graph = parse_graph("a b\nc d\na c\na d\n")
    spec = QuotientSpec(step=2, vertices=("a", "b", "c", "d"))
    k4 = graph_from_edges("abcd", [(u, v) for i, u in enumerate("abcd")
                                   for v in "abcd"[i + 1:]])
    k5 = graph_from_edges("abcde", [(u, v) for i, u in enumerate("abcde")
                                    for v in "abcde"[i + 1:]])
    ok = True
    for g in (s5_graph, k4, k5):
        ok = ok and span_report(g, spec).ok and lift_check(g, spec)

    s5_findings = hyperbolic_search(build_quotient(s5_graph, spec),
                                    entry_bound=2, budget=100000)
    ok = ok and s5_findings == []

    h3 = quotient_algebra(C4, 3)
    word = h3.basis_words[3][0]
    spec6 = QuotientSpec(step=3, vector=(
        (tuple(C4.vertices[i] for i in word), Fraction(1)),))
    s6_findings = hyperbolic_search(build_quotient(C4, spec6),
                                    entry_bound=1, budget=10000)
    ok = ok and s6_findings == []

    control_algebra = quotient_algebra(C4, 2)
    planted = synthesize(C4, 2).degree_blocks[1]
    control = hyperbolic_search(control_algebra, entry_bound=2, budget=30000)
    ok = ok and any(f.matrix == planted for f in control)

    elapsed = time.time() - t0
    ok = ok and elapsed < 300.0
    report(8, "span/lift evidence and empty nonexistence searches with live control",
           ok,
           f"span+lift on 3 instances; step-2 search 0 of 1e5, step-3 search 0 of 1e4, "
           f"control found {len(control)} hyperbolic automorphisms incl. planted; "
           f"{elapsed:.0f}s")
