import copy
import itertools
import time
from fractions import Fraction

import mpmath
import pytest

from anosograph import anosov
from anosograph.anosov import (
    AutomorphismCertificate,
    _check_blocks,
    _powered_degree_one,
    ExtensionError,
    LadderExhaustedError,
    NotAdmissibleError,
    _exponent_ladder,
    companion_matrix,
    decide_anosov,
    extend_to_algebra,
    find_component_matrix,
    synthesize,
    verify_certificate,
)
from anosograph.derivations import build_quotient
from anosograph.graphs import coherent_components, graph_from_edges, parse_graph
from anosograph.intpoly import IntPolynomial
from anosograph.liealg import block_char_polys, combine, quotient_algebra
from anosograph.linalg import mat_mul
from anosograph.spectra import products_off_circle, unit_root_free
from oracles import (
    all_graphs_up_to_iso,
    all_labeled_graphs,
    bipartite_graph,
    complete_graph,
    cycle_graph,
    decide_anosov_brute,
    induces_connected,
    magnet_graph,
)
from test_derivations import s6_spec

C4 = parse_graph("a b\nb c\nc d\nd a")


def test_complete_graph_table():
    for n in range(2, 8):
        for k in range(2, 7):
            verdict = decide_anosov(coherent_components(complete_graph(n)), k)
            assert verdict.admits == (n > k)


def test_four_cycle_all_steps():
    # the classes {a, c} and {b, d} are independent and adjacent: their
    # union, the whole 4-cycle, is connected with 4 vertices
    for k in range(2, 7):
        verdict = decide_anosov(coherent_components(C4), k)
        assert verdict.admits == (k <= 3)
        pair = {"class_index": 0, "reason": "small-adjacent-class-pair",
                "offending_edge": ["a", "b"]}
        assert [v.to_json() for v in verdict.violations] == ([] if k <= 3 else [pair])


@pytest.mark.parametrize("graph, k, pairs", [
    (C4, 4, 1),
    (bipartite_graph(2, 3), 5, 1),
    (graph_from_edges("abcdef", ["ac", "ad", "ae", "af", "bc", "bd", "be", "bf",
                                 "ce", "cf", "de", "df"]), 4, 3),
], ids=["C4-k4", "K23-k5", "K222-k4"])
def test_small_adjacent_class_pairs_are_refused(graph, k, pairs):
    # every rung of the exponent ladder fails on these, so synthesize
    # refuses before it walks the ladder
    verdict = decide_anosov(coherent_components(graph), k)
    assert [v.reason for v in verdict.violations] == ["small-adjacent-class-pair"] * pairs
    assert decide_anosov(coherent_components(graph), k - 1).admits
    start = time.perf_counter()
    with pytest.raises(NotAdmissibleError):
        synthesize(graph, k)
    assert time.perf_counter() - start < 1


def test_magnet_table():
    for core in (2, 3, 4):
        for k in range(2, 7):
            verdict = decide_anosov(coherent_components(magnet_graph(core, 2)), k)
            assert verdict.admits == (k < core), (core, k)


def test_isolated_vertex_is_singleton_violation():
    g = parse_graph("a b\nb c\nc a\nvertex: z")
    verdict = decide_anosov(coherent_components(g), 2)
    assert not verdict.admits
    assert any(v.reason == "singleton-class" for v in verdict.violations)


def test_internal_edge_violation_names_edge():
    verdict = decide_anosov(coherent_components(complete_graph(3)), 3)
    assert not verdict.admits
    v = verdict.violations[0]
    assert v.reason == "internal-edge-in-small-class"
    assert v.offending_edge is not None


# all three kinds of violation at k = 4: a 2,2,2,2 blow-up of the path
# a-b-c-d with d1 declared first, a triangle, and two false twins p1, p2
# joined to one vertex q
MULTI_VIOLATION = parse_graph(
    "vertex: d1\n"
    + "".join(f"{x}{i} {y}{j}\n" for x, y in ("ab", "bc", "cd") for i in (1, 2) for j in (1, 2))
    + "t1 t2\nt1 t3\nt2 t3\np1 q\np2 q\n")


def test_violations_of_every_kind_in_order():
    partition = coherent_components(MULTI_VIOLATION)
    assert partition.class_labels() == [
        ["d1", "d2"], ["a1", "a2"], ["b1", "b2"], ["c1", "c2"], ["t1", "t2", "t3"],
        ["p1", "p2"], ["q"]]
    verdict = decide_anosov(partition, 4)
    assert verdict.to_json()["violations"] == [
        {"class_index": 4, "reason": "internal-edge-in-small-class",
         "offending_edge": ["t1", "t2"]},
        {"class_index": 6, "reason": "singleton-class"},
        {"class_index": 0, "reason": "small-adjacent-class-pair", "offending_edge": ["d1", "c1"]},
        {"class_index": 1, "reason": "small-adjacent-class-pair", "offending_edge": ["a1", "b1"]},
        {"class_index": 2, "reason": "small-adjacent-class-pair", "offending_edge": ["b1", "c1"]},
    ]


def test_brute_force_soundness_small():
    for n in range(1, 7):
        for g in all_labeled_graphs(n):
            partition = coherent_components(g)
            for k in (2, 3, 4):
                assert decide_anosov(partition, k).admits == decide_anosov_brute(g, k)


def test_census_of_graphs_up_to_five_vertices():
    # every graph on <= 5 vertices up to isomorphism, at k = 2..5: an
    # admitted one synthesizes a certificate that verifies, and each
    # violation of a refused one names a class, or an adjacent class pair,
    # of <= k vertices that induces a connected subgraph
    counts = {True: 0, False: 0}
    for n in range(1, 6):
        for g in all_graphs_up_to_iso(n):
            partition = coherent_components(g)
            for k in range(2, 6):
                verdict = decide_anosov(partition, k)
                assert verdict.admits == decide_anosov_brute(g, k), (g.edge_list(), k)
                counts[verdict.admits] += 1
                if verdict.admits:
                    ok, report = verify_certificate(g, synthesize(g, k))
                    assert ok, (g.edge_list(), k, report["first_failure"])
                for v in verdict.violations:
                    union = list(partition.classes[v.class_index])
                    if v.reason == "small-adjacent-class-pair":
                        other = g.index[v.offending_edge[1]]
                        union += next(cls for cls in partition.classes if other in cls)
                    assert len(union) <= k and induces_connected(g, union), (
                        g.edge_list(), k, v.to_json())
    assert counts == {True: 29, False: 179}


def test_component_matrix_golden():
    cm = find_component_matrix(2, 3)
    assert cm.matrix == [[0, 1], [1, 1]]
    assert cm.poly.to_json() == [-1, -1, 1]
    assert cm.r_max == 1


def test_full_product_on_circle_for_unimodular_2x2():
    # r = 2 on a 2x2 unimodular matrix multiplies all eigenvalues: +-1;
    # this is why the order bound is min(k, d-1)
    assert not products_off_circle([[0, 1], [1, 1]], 2).ok
    for a in ([[1, 1], [0, 1]], [[2, 1], [1, 1]], [[1, 2], [1, 3]]):
        assert not products_off_circle(a, 2).ok


def test_component_matrix_d4_passes_all_orders():
    cm = find_component_matrix(4, 3)
    assert cm.r_max == 3
    assert cm.products.ok
    assert len(cm.products.per_r) == 3
    assert abs(cm.poly.constant()) == 1


def test_component_matrix_rejects_d1():
    with pytest.raises(ValueError):
        find_component_matrix(1, 2)


@pytest.mark.parametrize("d", range(2, 9))
def test_pisot_polynomial_has_one_root_outside_the_disk(d):
    # mpmath's roots of x^d - x^(d-1) - ... - 1, independent of spectra:
    # one real root above 1, the other d-1 strictly inside the unit disk
    with mpmath.workdps(50):
        roots = mpmath.polyroots([1] + [-1] * d, maxsteps=200, extraprec=200)
        outside = [z for z in roots if abs(z) > 1]
        assert len(outside) == 1
        assert abs(mpmath.im(outside[0])) < 1e-40 and mpmath.re(outside[0]) > 1
        assert all(abs(z) < 1 - 1e-3 for z in roots if abs(z) <= 1)


@pytest.mark.parametrize("d", range(2, 7))
def test_component_matrix_is_the_pisot_companion(d):
    # ones on the subdiagonal and in the last column
    expected = [[int(j == i - 1 or j == d - 1) for j in range(d)] for i in range(d)]
    for k in range(2, d + 1):
        cm = find_component_matrix(d, k)
        assert cm.matrix == expected
        assert cm.poly.to_json() == [-1] * d + [1]
        assert cm.r_max == min(k, d - 1)
        assert cm.products.ok and len(cm.products.per_r) == cm.r_max


def test_x_d_plus_minus_one_companions_have_products_on_the_circle():
    # the first two candidates of the coefficient enumeration that once
    # searched for component matrices; the Pisot polynomial came third
    for d in range(2, 7):
        for c0 in (-1, 1):
            a = companion_matrix(IntPolynomial([c0] + [0] * (d - 1) + [1]))
            assert not products_off_circle(a, 1).ok


def test_companion_char_poly():
    from anosograph.spectra import char_poly

    p = IntPolynomial([-1, 2, 0, 1])
    assert char_poly(companion_matrix(p)).to_json() == p.to_json()


def test_extend_identity():
    h = quotient_algebra(C4, 3)
    blocks = extend_to_algebra(h, [[1 if i == j else 0 for j in range(4)] for i in range(4)])
    for m in range(1, 4):
        d = h.dims[m - 1]
        assert blocks[m] == [[Fraction(1) if i == j else Fraction(0)
                              for j in range(d)] for i in range(d)]


def test_extend_four_cycle_hand_expansion():
    # g = A on {a,c} and A on {b,d} with A = [[0,1],[1,1]]:
    # ga=c, gc=a+c, gb=d, gd=b+d; expanding brackets on the edge basis
    # (a.b, a.d, b.c, c.d) by hand gives this degree-2 block
    h = quotient_algebra(C4, 2)
    g = [[0, 0, 1, 0],
         [0, 0, 0, 1],
         [1, 0, 1, 0],
         [0, 1, 0, 1]]
    blocks = extend_to_algebra(h, g)
    expected = [[0, 0, 0, 1],
                [0, 0, -1, 1],
                [0, -1, 0, -1],
                [1, 1, -1, 1]]
    assert blocks[2] == [[Fraction(x) for x in row] for row in expected]


def test_extend_scalar_on_complete_graph():
    h = quotient_algebra(complete_graph(3), 2)
    blocks = extend_to_algebra(h, [[2, 0, 0], [0, 2, 0], [0, 0, 2]])
    assert blocks[2] == [[Fraction(4) if i == j else Fraction(0)
                          for j in range(3)] for i in range(3)]


def test_extend_rejects_non_descending_map():
    # sending a -> a+b makes [g a, g c] = [b, c] != 0, leaving the ideal
    h = quotient_algebra(C4, 2)
    g = [[1, 0, 0, 0],
         [1, 1, 0, 0],
         [0, 0, 1, 0],
         [0, 0, 0, 1]]
    with pytest.raises(ExtensionError):
        extend_to_algebra(h, g)


def test_synthesize_not_admissible():
    with pytest.raises(NotAdmissibleError):
        synthesize(complete_graph(3), 3)


def test_synthesize_round_trip_c4_k2():
    cert = synthesize(C4, 2)
    assert sorted(cert.degree_blocks) == [1, 2]
    assert all(d in (1, -1) for d in cert.determinants.values())
    ok, report = verify_certificate(C4, cert)
    assert ok, report


def test_synthesize_round_trip_c4_k3():
    cert = synthesize(C4, 3)
    assert [len(cert.degree_blocks[m]) for m in (1, 2, 3)] == [4, 4, 12]
    ok, _ = verify_certificate(C4, cert)
    assert ok


def test_synthesize_edgeless_toral_case():
    # abelian algebra: the degree-2 block is empty and the certificate is
    # just a hyperbolic integer matrix on the vertex space
    from oracles import edgeless_graph

    g = edgeless_graph(2)
    cert = synthesize(g, 2)
    assert cert.degree_blocks[2] == []
    ok, _ = verify_certificate(g, cert)
    assert ok


def test_synthesize_deterministic():
    a = synthesize(C4, 2).to_json()
    b = synthesize(C4, 2).to_json()
    assert a == b


def test_certificate_json_round_trip():
    cert = synthesize(C4, 2)
    again = AutomorphismCertificate.from_json(cert.to_json())
    ok, _ = verify_certificate(C4, again)
    assert ok


def test_from_json_accepts_exactly_the_written_keys():
    doc = synthesize(C4, 2).to_json()
    assert set(doc) == anosov._CERTIFICATE_KEYS
    assert all(set(comp) == anosov._COMPONENT_KEYS for comp in doc["components"])


def test_verify_rejects_wrong_graph():
    cert = synthesize(C4, 2)
    other = cycle_graph(4)  # different labels, different digest
    ok, report = verify_certificate(other, cert)
    assert not ok and report["first_failure"] == "graph-binding"


def test_verify_detects_perturbed_block():
    cert = synthesize(C4, 2)
    mutated = AutomorphismCertificate.from_json(copy.deepcopy(cert.to_json()))
    mutated.degree_blocks[2][0][0] += 1
    ok, report = verify_certificate(C4, mutated)
    assert not ok
    assert report["first_failure"] == "bracket-compatibility"


def test_verify_rejects_rational_conjugate_of_a_certificate():
    # D A D^-1 with D = diag(1, 2) keeps A's characteristic polynomial, so
    # every spectral check and recorded field still matches, but the map
    # no longer preserves the lattice
    cert = synthesize(C4, 3)
    assert cert.components[0]["matrix"] == [[0, 1], [1, 1]]
    cert.components[0]["matrix"] = [[0, Fraction(1, 2)], [2, 1]]
    partition = coherent_components(C4)
    g = _powered_degree_one(C4.n, partition.classes,
                            [c["matrix"] for c in cert.components], cert.exponents)
    cert.degree_blocks = extend_to_algebra(quotient_algebra(C4, 3), g)
    assert _check_blocks(cert.degree_blocks, unit_root_free)[0]
    ok, report = verify_certificate(C4, cert)
    assert not ok and report["first_failure"] == "unimodularity"
    assert report["checks"][-1]["detail"] == "degree-1 block is not integral"
    assert report["checks"][-2] == {"name": "bracket-compatibility", "ok": True}


def test_verify_bounds_the_exponent_of_a_rational_degree_one_block():
    # the degree-one block conjugated class by class by the shear
    # [[1, 1/2], [0, 1]] has a largest entry that is a Fraction, which the
    # exponent bound rounds up: verify reports, not raises
    cert = synthesize(C4, 3)
    shear, inverse = [[1, Fraction(1, 2)], [0, 1]], [[1, Fraction(-1, 2)], [0, 1]]
    block = cert.degree_blocks[1]
    for cls in coherent_components(C4).classes:
        a = [[block[r][c] for c in cls] for r in cls]
        conjugated = mat_mul(mat_mul(shear, a), inverse)
        for i, r in enumerate(cls):
            for j, c in enumerate(cls):
                block[r][c] = conjugated[i][j]
    assert max(abs(x) for row in block for x in row).denominator == 2
    ok, report = verify_certificate(C4, cert)
    assert not ok and report["first_failure"] == "degree-one-shape"


def test_synthesize_walks_the_ladder_once(monkeypatch):
    # largest exponent 1 leaves one rung, (1, 1), whose degree-two block has
    # a unit-modulus eigenvalue: the closed form is evaluated once, and a
    # failing rung is never extended to the algebra
    evaluated, extended = [], []

    def counted(partition, class_polys, exponents, dims):
        evaluated.append(exponents)
        return block_char_polys(partition, class_polys, exponents, dims)

    def extend(algebra, g):
        extended.append(g)
        return extend_to_algebra(algebra, g)

    monkeypatch.setattr(anosov, "block_char_polys", counted)
    monkeypatch.setattr(anosov, "extend_to_algebra", extend)
    monkeypatch.setattr(anosov, "MAX_EXPONENT", 1)
    with pytest.raises(LadderExhaustedError, match="exponent ladder exhausted at max_exponent 1 "):
        synthesize(C4, 2)
    assert evaluated == [(1, 1)]
    assert extended == []


def _sorted_ladder(num_classes, max_exponent):
    """The ladder as the sorted product of the per-class options."""
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]
    options = []
    for c in range(num_classes):
        opts, v = [], 1
        while v <= max_exponent:
            opts.append(v)
            v *= primes[c % len(primes)]
        options.append(opts)
    return sorted(itertools.product(*options), key=lambda t: (sum(t), t))


@pytest.mark.parametrize("num_classes", range(1, 9))
@pytest.mark.parametrize("max_exponent", [1, 64])
def test_exponent_ladder_is_the_sorted_product(num_classes, max_exponent):
    assert list(_exponent_ladder(num_classes, max_exponent)) == _sorted_ladder(
        num_classes, max_exponent)


def test_exponent_ladder_where_max_rungs_binds():
    # 13 classes have 129,024 tuples, past the 100,000 rungs (MAX_RUNGS)
    # that synthesize tries
    rungs = list(itertools.islice(_exponent_ladder(13, 64), 100000))
    assert rungs == _sorted_ladder(13, 64)[:100000]


def test_exponent_ladder_is_lazy():
    # the product of the 40 classes' options has about 4.3 * 10^15 tuples
    start = time.perf_counter()
    rungs = list(itertools.islice(_exponent_ladder(40, 64), 1000))
    assert time.perf_counter() - start < 2
    assert rungs[0] == (1,) * 40
    assert [sum(t) for t in rungs] == sorted(sum(t) for t in rungs)


def test_check_blocks_determinant_from_char_poly():
    # det = (-1)^n cp(0): x^2 - x - 1 and x^3 - x + 1 both give det -1
    ok, (char_polys, _, dets) = _check_blocks({1: [[1, 1], [1, 0]],
                                               2: [[0, 0, -1], [1, 0, 1], [0, 1, 0]]},
                                              unit_root_free)
    assert ok and dets == {1: -1, 2: -1}
    assert char_polys[2].coeffs == (1, -1, 0, 1)
    assert _check_blocks({1: [[1, 1], [1, 0]], 2: [[2, 0], [0, 1]]}, unit_root_free) == (
        False, ("unimodularity", "degree-2 block determinant 2 is not a unit"))


def test_verify_detects_identity_components():
    h = quotient_algebra(C4, 2)
    identity4 = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    identity2 = [[1, 0], [0, 1]]
    blocks = extend_to_algebra(h, identity4)
    cert = AutomorphismCertificate(
        graph_digest=C4.digest(),
        k=2,
        classes=coherent_components(C4).class_labels(),
        components=[{"matrix": identity2, "char_poly": [1, -2, 1],
                     "r_max": 1, "candidate_index": -1, "products": {}}] * 2,
        exponents=[1, 1],
        degree_blocks={m: [[int(x) for x in row] for row in b] for m, b in blocks.items()},
        char_polys={},
        unit_root_certs={},
        determinants={},
    )
    ok, report = verify_certificate(C4, cert)
    assert not ok
    assert report["first_failure"] == "unit-root-freeness"


def test_degree_two_roots_within_pairwise_products():
    # eigenvalues of the degree-2 block are products of degree-1 pairs
    import sympy

    cert = synthesize(C4, 2)
    x, z = sympy.symbols("x z")
    p1 = sympy.Poly([c for c in reversed(cert.char_polys[1])], x)
    p2 = sympy.Poly([c for c in reversed(cert.char_polys[2])], x)
    n = p1.degree()
    pairs = sympy.resultant(p1, sympy.Poly(sympy.expand(x ** n * p1.as_expr().subs(x, z / x)), x, z), x)
    sf2 = sympy.factor_list(p2.as_expr())[1]
    for factor, _ in sf2:
        q, r = sympy.div(sympy.Poly(pairs, z), sympy.Poly(factor.subs(x, z), z), z)
        assert r == 0, f"degree-2 factor {factor} not among pairwise products"


def test_extension_is_functorial():
    # extending a product equals the product of extensions, per degree
    from anosograph.linalg import mat_mul

    h = quotient_algebra(C4, 3)
    a = _scatter(h, [[0, 1], [1, 1]], [[1, 1], [1, 2]])
    b = _scatter(h, [[1, 1], [1, 2]], [[0, 1], [1, 1]])
    ab = [[sum(a[i][t] * b[t][j] for t in range(4)) for j in range(4)] for i in range(4)]
    blocks_a = extend_to_algebra(h, a)
    blocks_b = extend_to_algebra(h, b)
    blocks_ab = extend_to_algebra(h, ab)
    for m in range(1, 4):
        assert blocks_ab[m] == mat_mul(blocks_a[m], blocks_b[m])


def test_extend_descends_through_degree_three_relation():
    # the step-3 quotient by one central degree-3 word: a scalar map keeps
    # that word in the ideal, the class maps [[0,1],[1,1]] do not
    q = build_quotient(C4, s6_spec(C4))
    blocks = extend_to_algebra(q, [[2 if i == j else 0 for j in range(4)] for i in range(4)])
    for m in range(1, 4):
        d = q.dims[m - 1]
        assert blocks[m] == [[2 ** m if i == j else 0 for j in range(d)] for i in range(d)]
    with pytest.raises(ExtensionError, match="degree-3"):
        extend_to_algebra(q, _scatter(q, [[0, 1], [1, 1]], [[0, 1], [1, 1]]))


def test_extension_respects_brackets_through_degree_four():
    # F[e_i, e_j] = [F e_i, F e_j] on every basis pair up to degree 4, both
    # sides expanded through the structure constants
    h = quotient_algebra(C4, 4)
    assert h.dims == [4, 4, 12, 31]
    blocks = extend_to_algebra(h, _scatter(h, [[0, 1], [1, 1]], [[1, 1], [1, 2]]))

    def image(i):  # F e_i as {basis index: coeff}
        m = h.degree_of(i)
        c = i - h.offsets[m]
        return {h.offsets[m] + r: row[c] for r, row in enumerate(blocks[m]) if row[c]}

    degree_four_pairs = 0
    for i in range(h.dim):
        for j in range(i + 1, h.dim):
            if h.degree_of(i) + h.degree_of(j) > 4:
                continue
            lhs, rhs = {}, {}
            for l, c in h.bracket_basis(i, j).items():
                for r, x in image(l).items():
                    lhs[r] = lhs.get(r, 0) + c * x
            for p, x in image(i).items():
                for q, y in image(j).items():
                    for r, c in h.bracket_basis(p, q).items():
                        rhs[r] = rhs.get(r, 0) + x * y * c
            assert {r: x for r, x in lhs.items() if x} == \
                {r: x for r, x in rhs.items() if x}, (i, j)
            if h.degree_of(i) + h.degree_of(j) == 4 and lhs:
                degree_four_pairs += 1
    assert degree_four_pairs > 0


def _scatter(algebra, first, second):
    from anosograph.anosov import _scatter_block_diagonal

    partition = coherent_components(algebra.graph)
    return _scatter_block_diagonal(algebra.graph.n, partition.classes, [first, second])


def test_isolated_pair_forms_admissible_class():
    # isolated vertices cluster together; only a lone one is a violation
    g = parse_graph("a b\nb c\nc d\nd a\nvertex: y\nvertex: z")
    partition = coherent_components(g)
    assert ["y", "z"] in partition.class_labels()
    assert decide_anosov(partition, 2).admits
    cert = synthesize(g, 2)
    ok, _ = verify_certificate(g, cert)
    assert ok


def _all_pairs_first_failure(algebra, blocks):
    """The bracket-compatibility detail of the first basis pair (i, j),
    i < j, with F[e_i, e_j] != [F e_i, F e_j], over every pair of degree at
    most k; None when all of them pass."""
    columns = [{algebra.offsets[m] + r: row[c] for r, row in enumerate(blocks[m]) if row[c]}
               for m in range(1, algebra.k + 1) for c in range(algebra.dims[m - 1])]
    for i in range(algebra.dim):
        for j in range(i + 1, algebra.dim):
            m = algebra.degree_of(i) + algebra.degree_of(j)
            if m > algebra.k:
                continue
            lhs = combine((c, columns[l]) for l, c in algebra.bracket_basis(i, j).items())
            rhs = algebra.bracket(columns[i], columns[j])
            if lhs != rhs:
                degree_m = range(algebra.offsets[m], algebra.offsets[m] + algebra.dims[m - 1])
                return {"pair": [algebra.word_label(algebra.word_of(i)),
                                 algebra.word_label(algebra.word_of(j))],
                        "expected": [str(rhs.get(l, 0)) for l in degree_m],
                        "got": [str(lhs.get(l, 0)) for l in degree_m]}
    return None


@pytest.mark.parametrize("degree", [3, 4])
def test_verify_generator_brackets_report_the_all_pairs_failure(degree):
    # at k = 4 the all-pairs loop also brackets degree 2 with degree 2;
    # verify brackets generators only and must still name the same pair
    g = bipartite_graph(2, 3)
    cert = synthesize(g, 4)
    algebra = quotient_algebra(g, 4)
    assert algebra.dims == [5, 6, 21, 65]
    assert _all_pairs_first_failure(algebra, cert.degree_blocks) is None
    block = cert.degree_blocks[degree]
    block[len(block) // 2][len(block) // 3] += 1
    expected = _all_pairs_first_failure(algebra, cert.degree_blocks)
    assert expected is not None
    ok, report = verify_certificate(g, cert)
    assert not ok and report["first_failure"] == "bracket-compatibility"
    assert report["checks"][-1]["detail"] == expected
