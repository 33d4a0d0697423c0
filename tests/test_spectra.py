import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from anosograph import spectra
from anosograph.anosov import synthesize, verify_certificate
from anosograph.graphs import parse_graph
from anosograph.intpoly import (
    IntPolynomial,
    count_real_roots,
    cyclotomic,
    cyclotomic_indices_up_to_degree,
    divides,
    poly_gcd,
    real_root_intervals,
    squarefree_part,
    trace_polynomial,
)
from anosograph.linalg import det_bareiss, mat_mul
from anosograph.spectra import (
    _disk_witness,
    _strong_components,
    char_poly,
    compound_matrix,
    enclosures_hold,
    products_off_circle,
    trace_witness_holds,
    unit_root_free,
)
from oracles import (
    classify_unit_roots_512,
    complete_graph,
    mignotte_palindromic,
    mpmath_centers,
    mpmath_trace_roots,
    product_poly_subsets,
)

GOLDEN = IntPolynomial([-1, -1, 1])


def test_char_poly_examples():
    assert char_poly([[0, 1], [1, 1]]).to_json() == [-1, -1, 1]
    assert char_poly([[1, 0], [0, 1]]).to_json() == [1, -2, 1]
    assert char_poly([[2]]).to_json() == [-2, 1]


def test_char_poly_empty_matrix():
    assert char_poly([]).to_json() == [1]


def test_char_poly_rejects_non_square():
    with pytest.raises(ValueError):
        char_poly([[1, 2]])


def test_char_poly_rejects_non_integral_polynomial():
    with pytest.raises(ValueError):
        char_poly([[Fraction(1, 2)]])
    with pytest.raises(ValueError):
        char_poly([[0, Fraction(1, 2)], [Fraction(1, 3), 0]])  # x^2 - 1/6
    with pytest.raises(ValueError):
        # two 1x1 components; the non-integral factors multiply to x^2 - 1/4
        char_poly([[Fraction(1, 2), 5], [0, Fraction(-1, 2)]])


def test_char_poly_of_rational_conjugate():
    a = [[2, 1, 0], [1, 1, 3], [-1, 0, 4]]
    d = [Fraction(1), Fraction(2), Fraction(1, 3)]
    b = [[d[i] * a[i][j] / d[j] for j in range(3)] for i in range(3)]
    shear = [[1, Fraction(1, 2), 0], [0, 1, 0], [0, 0, 1]]
    unshear = [[1, Fraction(-1, 2), 0], [0, 1, 0], [0, 0, 1]]
    b = mat_mul(mat_mul(shear, b), unshear)
    assert any(x.denominator != 1 for row in b for x in row)
    p = char_poly(b)
    assert p.to_json() == char_poly(a).to_json()
    assert all(type(c) is int for c in p.coeffs)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.data())
def test_char_poly_constant_term_is_det(n, data):
    a = [[data.draw(st.integers(-4, 4)) for _ in range(n)] for _ in range(n)]
    p = char_poly(a)
    # det(xI - A) at x=0 is (-1)^n det(A); det cross-checked by Bareiss
    assert p.constant() == (-1) ** n * det_bareiss(a)
    assert p.leading() == 1 and p.degree == n


def test_char_poly_against_sympy():
    import sympy

    rng = random.Random(3)
    for _ in range(10):
        n = rng.randint(1, 5)
        a = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        expected = [int(c) for c in reversed(sympy.Matrix(a).charpoly().all_coeffs())]
        assert char_poly(a).to_json() == expected


@st.composite
def block_triangular_matrices(draw):
    """A sparse matrix that is block upper triangular under a random
    permutation; int entries, a rational diagonal conjugate of them
    (integral char poly) or arbitrary rationals."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    n = sum(sizes)
    kind = draw(st.sampled_from(["int", "conjugate", "rational"]))
    if kind == "rational":
        entry = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    else:
        entry = st.integers(-3, 3)
    owner = [b for b, size in enumerate(sizes) for _ in range(size)]
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if owner[i] <= owner[j] and draw(st.booleans()):
                a[i][j] = draw(entry)
    if kind == "conjugate":
        d = [draw(st.sampled_from([Fraction(1), Fraction(2), Fraction(1, 3), Fraction(-3, 2)]))
             for _ in range(n)]
        a = [[d[i] * a[i][j] / d[j] for j in range(n)] for i in range(n)]
    perm = draw(st.permutations(range(n)))
    return [[a[perm[i]][perm[j]] for j in range(n)] for i in range(n)]


@settings(max_examples=80, deadline=None)
@given(block_triangular_matrices())
@example([[0, 4, -1, 2], [0, 0, 3, 0], [0, 0, 0, 5], [0, 0, 0, 0]])  # strictly upper: x^4
@example([[0, 2, -1], [0, 1, 3], [0, 1, -2]])  # vertex 0 is a 1x1 zero component
@example([[1, 2, 0], [0, 0, -1], [3, 0, 2]])  # the pattern is one component
@example([[Fraction(1, 2), 1], [Fraction(-1, 4), Fraction(1, 2)]])
def test_char_poly_block_triangular_against_sympy(a):
    import sympy

    expected = list(reversed(sympy.Matrix(a).charpoly().all_coeffs()))
    if all(c.is_integer for c in expected):
        assert char_poly(a).to_json() == [int(c) for c in expected]
    else:
        with pytest.raises(ValueError):
            char_poly(a)


def test_char_poly_of_strictly_upper_bidiagonal_is_x_to_the_n():
    # 1200 one-vertex components: a recursive component search would
    # exceed Python's default recursion limit here.
    n = 1200
    a = [[int(j == i + 1) for j in range(n)] for i in range(n)]
    assert char_poly(a).to_json() == [0] * n + [1]


@pytest.mark.parametrize("graph, components", [
    (complete_graph(6), [70]),
    (parse_graph("a1 b1\na1 b2\na1 b3\na2 b1\na2 b2\na2 b3\n"
                 "b1 c1\nb1 c2\nb2 c1\nb2 c2\nb3 c1\nb3 c2"), [24, 30]),
], ids=["K6", "P3[2,3,2]"])
def test_char_poly_of_degree_three_blocks_against_bareiss(graph, components):
    block = synthesize(graph, 3).degree_blocks[3]
    rows = [[(j, x) for j, x in enumerate(row) if x] for row in block]
    assert sorted(map(len, _strong_components(rows))) == components
    p = char_poly(block)
    n = len(block)
    for x0 in (-2, 1, 3):
        shifted = [[x0 * (i == j) - block[i][j] for j in range(n)] for i in range(n)]
        assert p(x0) == det_bareiss(shifted)


def test_compound_r1_is_matrix():
    a = [[1, 2], [3, 4]]
    assert compound_matrix(a, 1) == a


def test_compound_top_is_det():
    a = [[0, 1], [1, 1]]
    assert compound_matrix(a, 2) == [[-1]]
    b = [[2, 1, 0], [1, 3, 1], [0, 1, 2]]
    assert compound_matrix(b, 3) == [[int(det_bareiss(b))]]


def test_compound_order_out_of_range():
    with pytest.raises(ValueError):
        compound_matrix([[1]], 2)


def test_compound_colex_ordering():
    # subsets of size 2 in colex: 01, 02, 12, 03, 13, 23
    d = [[0] * 4 for _ in range(4)]
    for i, v in enumerate((1, 2, 3, 4)):
        d[i][i] = v
    c = compound_matrix(d, 2)
    diag = [c[i][i] for i in range(6)]
    assert diag == [2, 3, 6, 4, 8, 12]


def test_compound_multiplicativity():
    # Cauchy-Binet: C_r(AB) = C_r(A) C_r(B)
    rng = random.Random(11)
    for _ in range(5):
        a = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(4)]
        b = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(4)]
        ab = [[sum(a[i][t] * b[t][j] for t in range(4)) for j in range(4)] for i in range(4)]
        for r in (2, 3):
            lhs = compound_matrix(ab, r)
            rhs = mat_mul(compound_matrix(a, r), compound_matrix(b, r))
            assert [[Fraction(x) for x in row] for row in lhs] == rhs


def test_compound_eigenvalue_products_small():
    # products_off_circle stops at the first r with a product on the circle,
    # so its polynomials cover a prefix of 1..4
    rng = random.Random(5)
    for _ in range(8):
        a = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(4)]
        for r in (1, 2, 3, 4):
            assert char_poly(compound_matrix(a, r)).to_json()[::-1] == \
                product_poly_subsets(a, r)
        for r, cp, _ in products_off_circle(a, 4).per_r:
            assert cp.to_json()[::-1] == product_poly_subsets(a, r)


def test_products_off_circle_polynomials_are_the_compounds():
    # the polynomials read by Newton's identities against Berkowitz on the
    # compound matrix itself, singular matrices included
    rng = random.Random(30)
    covered = set()
    for trial in range(60):
        n = rng.randint(1, 6)
        bound = rng.randint(1, 3)
        a = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]
        if trial % 3 == 0 and n > 1:
            a[-1] = [x + y for x, y in zip(a[0], a[n // 2 - 1])]
            assert det_bareiss(a) == 0
        for r_max in range(1, n + 1):
            per_r = products_off_circle(a, r_max).per_r
            assert [r for r, _, _ in per_r] == list(range(1, len(per_r) + 1))
            for r, cp, _ in per_r:
                assert cp == char_poly(compound_matrix(a, r))
                covered.add((n, r))
    assert {(6, r) for r in range(1, 7)} <= covered


def test_component_products_never_build_a_compound(monkeypatch):
    # K6 at k = 3 and 12 isolated vertices at k = 4 (one class of 12, so
    # compounds up to C(12, 4) = 495 rows) synthesize and verify without it
    def refuse(*args):
        raise AssertionError("compound_matrix called")

    monkeypatch.setattr(spectra, "compound_matrix", refuse)
    isolated = parse_graph("".join(f"vertex: v{i}\n" for i in range(12)))
    for graph, k in ((complete_graph(6), 3), (isolated, 4)):
        ok, report = verify_certificate(graph, synthesize(graph, k))
        assert ok, report


def test_unit_root_free_golden():
    cert = unit_root_free(GOLDEN)
    assert cert.free and cert.method == "gcd-trivial"


def test_unit_root_free_cyclotomic():
    cert = unit_root_free(cyclotomic(5))
    assert not cert.free
    assert cert.method == "cyclotomic-factor"
    assert cert.witness["cyclotomic_index"] == 5


def test_unit_root_free_reciprocal_pisot():
    # x^2 - 3x + 1: both roots real, moduli ~2.618 and ~0.382; its trace
    # polynomial y - 3 has its root outside [-2, 2]
    cert = unit_root_free(IntPolynomial([1, -3, 1]))
    assert cert.free and cert.method == "isolated-interval"
    assert cert.witness == {"trace_poly": [-3, 1]}
    assert trace_witness_holds(cert.symmetric_factor, IntPolynomial([-3, 1]))


LEHMER = IntPolynomial([1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1])


def test_unit_root_free_salem():
    # Lehmer's polynomial: self-reciprocal, no cyclotomic factor, 8 roots
    # exactly on the circle, so 4 roots of its trace polynomial in (-2, 2)
    for d in range(1, 40):
        assert not divides(cyclotomic(d), LEHMER) or cyclotomic(d).degree > LEHMER.degree
    cert = unit_root_free(LEHMER)
    assert not cert.free and cert.method == "isolated-interval"
    h = trace_polynomial(LEHMER)
    assert count_real_roots(h, -2, 2) == len(real_root_intervals(h, -2, 2)) == 4
    assert not trace_witness_holds(LEHMER, h)


def test_unit_root_free_attaches_the_trace_witness():
    # only a "free" verdict of the Sturm count carries the trace polynomial;
    # "not-free" there has no witness, and the other methods keep theirs
    assert unit_root_free(IntPolynomial([1, -3, 1])).to_json() == {
        "verdict": "free",
        "method": "isolated-interval",
        "polynomial": [1, -3, 1],
        "symmetric_factor": [1, -3, 1],
        "witness": {"trace_poly": [-3, 1]},
    }
    cert = unit_root_free(LEHMER)
    assert (cert.verdict, cert.method, cert.witness) == ("not-free", "isolated-interval", None)
    assert unit_root_free(GOLDEN).witness is None
    assert unit_root_free(cyclotomic(5)).witness == {"cyclotomic_index": 5,
                                                     "factor": [1, 1, 1, 1, 1]}


def test_trace_witness_rejects_a_wrong_trace_polynomial():
    g = IntPolynomial([1, -3, 1])
    assert trace_witness_holds(g, IntPolynomial([-3, 1]))
    assert trace_witness_holds(g * g, IntPolynomial([-3, 1]))  # g0 is squarefree
    for h in ([-4, 1], [3, -1], [-6, 2], [0, -3, 1], []):
        assert not trace_witness_holds(g, IntPolynomial(h)), h
    # x^2 - x + 1 = Phi_6: y - 1 has its root inside (-2, 2)
    assert not trace_witness_holds(cyclotomic(6), IntPolynomial([-1, 1]))
    # x^2 + 2x + 1 = (x + 1)^2: y + 2 vanishes at -2
    assert not trace_witness_holds(IntPolynomial([1, 2, 1]), IntPolynomial([2, 1]))


def test_only_verify_runs_the_descartes_check(monkeypatch):
    # K_{3,3} at k = 4: `synthesize` records the trace polynomials that its
    # Sturm counts settled, and only `verify` counts their roots again
    calls = []

    def spy(*args, _fn=spectra.real_root_intervals):
        calls.append(args[0])
        return _fn(*args)

    monkeypatch.setattr(spectra, "real_root_intervals", spy)
    graph = parse_graph((Path(__file__).resolve().parent / "golden" / "k33.edges").read_text())
    cert = synthesize(graph, 4)
    assert calls == []
    ok, report = verify_certificate(graph, cert)
    assert ok, report
    witnesses = [c["witness"]["trace_poly"] for c in cert.unit_root_certs.values()
                 if c["method"] == "isolated-interval"]
    assert witnesses and [h.to_json() for h in calls] == witnesses


def test_overflowing_coefficients_get_a_trace_witness():
    # x^2 - 10^400 x + 1: no double holds its coefficients, and the trace
    # polynomial y - 10^400 needs none
    p = IntPolynomial([1, -10 ** 400, 1])
    cert = unit_root_free(p)
    assert cert.free and cert.witness == {"trace_poly": [-10 ** 400, 1]}
    assert trace_witness_holds(cert.symmetric_factor, IntPolynomial([-10 ** 400, 1]))


def test_gcd_step_soundness():
    # a constructed unit-circle root must surface in the symmetric factor
    p = IntPolynomial([1, -3, 1]) * cyclotomic(8)
    cert = unit_root_free(p)
    assert not cert.free
    assert cert.witness["cyclotomic_index"] == 8
    g = poly_gcd(p, p.reversed_poly())
    assert g.degree > 0 and divides(cyclotomic(8), g)


def test_cyclotomic_products_up_to_12():
    for d1 in range(1, 13):
        for d2 in range(d1, 13):
            cert = unit_root_free(cyclotomic(d1) * cyclotomic(d2))
            assert not cert.free
            assert cert.method == "cyclotomic-factor"


def test_unit_root_free_rejects_zero_constant():
    with pytest.raises(ValueError):
        unit_root_free(IntPolynomial([0, 1]))


def test_mignotte_polynomial_gets_an_accepted_trace_witness():
    # no root on the unit circle, but two roots about 2^-200 apart, which
    # root disks at 256 bits could not separate; the trace polynomial
    # needs no separation, and the Descartes check accepts it
    p = mignotte_palindromic()
    cert = unit_root_free(p)
    assert cert.free and cert.method == "isolated-interval"
    h = IntPolynomial(cert.witness["trace_poly"])
    assert h == trace_polynomial(p)
    assert trace_witness_holds(cert.symmetric_factor, h)


def unit_root_verdict_screen_first(p):
    """(verdict, method, cyclotomic index) of p with the cyclotomic screen
    before the Sturm count, the order `unit_root_free` once ran them in."""
    p = p.primitive()
    g = poly_gcd(p, p.reversed_poly())
    if g.degree == 0:
        return "free", "gcd-trivial", None
    for d in cyclotomic_indices_up_to_degree(g.degree):
        if cyclotomic(d).degree <= g.degree and divides(cyclotomic(d), g):
            return "not-free", "cyclotomic-factor", d
    on_circle = count_real_roots(trace_polynomial(squarefree_part(g)), -2, 2)
    return "not-free" if on_circle else "free", "isolated-interval", None


def _random_palindromic(rng):
    half = [rng.randint(-6, 6) for _ in range(rng.randint(0, 4))]
    p = IntPolynomial([rng.choice((-2, -1, 1, 2))] + half + [rng.randint(-9, 9)]
                      + half[::-1] + [0])
    return IntPolynomial(p.coeffs[:-1] + p.coeffs[:1])


def test_sturm_before_the_screen_matches_the_screen_first_order():
    rng = random.Random(2006)
    pisot = IntPolynomial([1, -3, 1])
    polys = [cyclotomic(d1) * cyclotomic(d2) for d1 in range(1, 13) for d2 in range(d1, 13)]
    polys += [LEHMER, LEHMER * LEHMER, pisot * cyclotomic(8), pisot * GOLDEN]
    polys += [_random_palindromic(rng) for _ in range(300)]
    polys += [_random_palindromic(rng) * _random_palindromic(rng) for _ in range(100)]
    polys += [p * cyclotomic(rng.randint(1, 30)) for p in polys[-50:]]
    for p in polys:
        if p.constant() == 0:
            continue
        cert = unit_root_free(p)
        index = cert.witness["cyclotomic_index"] if cert.method == "cyclotomic-factor" else None
        assert (cert.verdict, cert.method, index) == unit_root_verdict_screen_first(p), p


def test_verdicts_match_numeric_oracle_small():
    polys = [GOLDEN, IntPolynomial([1, -3, 1]), cyclotomic(7),
             IntPolynomial([1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1]),
             IntPolynomial([1, -3, 1]) * GOLDEN]
    for p in polys:
        cert = unit_root_free(p)
        assert cert.verdict == classify_unit_roots_512(p.to_json())


def test_products_off_circle_examples():
    golden = [[0, 1], [1, 1]]
    assert products_off_circle(golden, 1).ok
    assert not products_off_circle(golden, 2).ok
    identity = [[1, 0], [0, 1]]
    assert not products_off_circle(identity, 1).ok


def test_products_off_circle_handles_singular():
    # eigenvalues 0 and 2: all products (0, 2, and 0*2) are off the circle
    a = [[0, 0], [0, 2]]
    pc = products_off_circle(a, 2)
    assert pc.ok
    assert all(cert.free for _, _, cert in pc.per_r)


def test_products_certificate_serializes():
    doc = products_off_circle([[0, 1], [1, 1]], 1).to_json()
    assert doc["ok"] is True
    assert doc["per_r"][0]["r"] == 1


def test_certificate_serialization_round_trip_fields():
    cert = unit_root_free(IntPolynomial([1, -3, 1]))
    doc = json.loads(json.dumps(cert.to_json()))
    assert doc["verdict"] == "free"
    assert doc["method"] == "isolated-interval"
    assert doc["witness"] == {"trace_poly": [-3, 1]}
    assert trace_witness_holds(IntPolynomial(doc["symmetric_factor"]),
                               IntPolynomial(doc["witness"]["trace_poly"]))


def test_verdict_invariant_under_reversal():
    # inverting all roots preserves distance from the unit circle
    polys = [GOLDEN, IntPolynomial([1, -3, 1]), cyclotomic(5),
             IntPolynomial([1, 2, -1, 3, 1]), IntPolynomial([-1, 0, 2, 1])]
    for p in polys:
        assert unit_root_free(p).verdict == unit_root_free(p.reversed_poly()).verdict


def test_mixed_symmetric_and_asymmetric_factors():
    # only the inversion-paired part reaches the symmetric factor
    p = IntPolynomial([1, -3, 1]) * IntPolynomial([-2, 1])
    cert = unit_root_free(p)
    assert cert.free and cert.method == "isolated-interval"
    assert cert.symmetric_factor.primitive().to_json() == [1, -3, 1]


def test_repeated_factors_free_and_not_free():
    pisot = IntPolynomial([1, -3, 1])
    assert unit_root_free(pisot * pisot * pisot).free
    lehmer = IntPolynomial([1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1])
    cert = unit_root_free(lehmer * lehmer)
    assert not cert.free and cert.method == "isolated-interval"


# -- trace witnesses against mpmath ----------------------------------------------


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-9, 9), max_size=4), st.integers(-9, 9),
       st.lists(st.integers(-3, 3), max_size=3))
@example([], -3, [])  # x^2 - 3x + 1
@example([1, 0, -1, -1], -1, [])  # Lehmer's polynomial
@example([2, 5, -448, 856, 2840, 5600, -14048, -45374], -85492, [])  # K33_FACTOR
@example([], -3, [0, 1])  # (x^2 - 3x + 1)(x^4 + x^2 + 1), on the circle
def test_trace_witness_matches_mpmath_polyroots(half, middle, other):
    """On palindromic polynomials, every trace polynomial `unit_root_free`
    records has no root in [-2, 2] by `mpmath.polyroots` at 512 bits and
    passes the Descartes check, and a "not-free" Sturm verdict has such a
    root."""
    p = IntPolynomial([1, *half, middle, *half[::-1], 1])
    if other:
        p = p * IntPolynomial([1, *other, *other[-2::-1], 1])
    cert = unit_root_free(p)
    if cert.method != "isolated-interval":
        return
    h = trace_polynomial(squarefree_part(cert.symmetric_factor))
    assert (cert.witness is None) == (mpmath_trace_roots(h.coeffs) > 0)
    if cert.free:
        assert cert.witness == {"trace_poly": h.to_json()}
        assert trace_witness_holds(cert.symmetric_factor, h)


# -- schema-1 root disks ----------------------------------------------------------

# the degree-18 symmetric factor of a K_{3,3} certificate at k = 3: two real
# roots and eight conjugate pairs
K33_FACTOR = IntPolynomial([1, 2, 5, -448, 856, 2840, 5600, -14048, -45374, -85492,
                            -45374, -14048, 5600, 2840, 856, -448, 5, 2, 1])
C4_FACTORS = [IntPolynomial([1, -4, -19, -4, 1]),
              IntPolynomial([1, 0, -126, 0, 371, 0, -126, 0, 1])]


def test_centers_match_mpmath_polyroots():
    """The disk centers of the schema-1 fixture are the roots of each
    squarefree symmetric factor by `mpmath.polyroots`, rounded to the
    2^-64 grid, and the re-derived disks are accepted."""
    path = Path(__file__).resolve().parent / "golden" / "synthesize_c4_k3.schema1.cert.json"
    doc = json.loads(path.read_text())
    witnessed = [c for c in doc["unit_root_certs"].values() if c.get("witness")]
    assert witnessed
    for cert in witnessed:
        g = squarefree_part(IntPolynomial(cert["symmetric_factor"]))
        disks = cert["witness"]["root_enclosures"]
        centers = [tuple(int(Fraction(x) * 2 ** 64) for x in d["center"]) for d in disks]
        assert all(Fraction(x) * 2 ** 64 == int(Fraction(x) * 2 ** 64)
                   for d in disks for x in d["center"])
        assert sorted(centers) == sorted(mpmath_centers(g.coeffs, 64))
        assert enclosures_hold(g, cert["witness"])


@pytest.mark.parametrize("g", [K33_FACTOR, *C4_FACTORS], ids=["K33", "C4-deg2", "C4-deg3"])
def test_schema1_disks_rederive_from_their_centers(g):
    # disks around mpmath's roots rounded to the grid isolate every root
    # off the circle, and only the exact re-derived witness is accepted
    for bits in (64, 128):
        witness = _disk_witness(g, mpmath_centers(g.coeffs, bits), bits)
        assert witness is not None and len(witness["root_enclosures"]) == g.degree
        assert enclosures_hold(g, witness)
        assert enclosures_hold(g * g, witness)  # the squarefree part is checked
        tampered = json.loads(json.dumps(witness))
        tampered["min_margin"] = "1"
        assert not enclosures_hold(g, tampered)
        tampered = json.loads(json.dumps(witness))
        tampered["root_enclosures"].pop()
        assert not enclosures_hold(g, tampered)
        # two disks around one root are not disjoint
        centers = mpmath_centers(g.coeffs, bits)
        assert _disk_witness(g, [centers[0]] + centers[:-1], bits) is None
    assert not enclosures_hold(g, {"root_enclosures": [{"center": ["1/3", "0"]}]})
    assert not enclosures_hold(g, None)


def test_schema1_disks_refuse_a_circle_root():
    # x^2 + 1 has roots +-i: exact centers, radius 0, modulus exactly 1
    g = IntPolynomial([1, 0, 1])
    assert _disk_witness(g, [(0, 1 << 64), (0, -(1 << 64))], 64) is None


def _rect_in_disk(rect, disk):
    (x0, x1, y0, y1), ((cr, ci), r2) = rect, disk
    return all((x - cr) ** 2 + (y - ci) ** 2 <= r2 for x in (x0, x1) for y in (y0, y1))


def _rect_meets_disk(rect, disk):
    (x0, x1, y0, y1), ((cr, ci), r2) = rect, disk
    dx, dy = min(max(cr, x0), x1) - cr, min(max(ci, y0), y1) - ci
    return dx * dx + dy * dy <= r2


@settings(max_examples=12, deadline=None)
@given(st.lists(st.integers(-4, 4), min_size=1, max_size=3), st.sampled_from([1, -1]),
       st.integers(1, 3))
@example([2], 1, 3)  # 3x^2 + 2x + 1: one conjugate pair
@example([-4, -19, -4], 1, 1)  # a C4 factor: four real roots
@example([0], 1, 2)  # 2x^2 + 1: roots +-i/sqrt(2)
def test_enclosures_against_exact_root_rectangles(middle, constant, lead):
    """Every root lies in exactly one disk of an accepted schema-1 witness
    and every disk holds exactly one root, against sympy's exact root
    isolation; the centers are mpmath's roots on the 2^-bits grid."""
    import sympy

    x = sympy.Symbol("x")
    sq = sympy.Poly(list(reversed([constant, *middle, lead])), x).sqf_part()
    if sq.degree() < 1:
        return
    g = IntPolynomial(reversed([int(c) for c in sq.all_coeffs()]))
    witness = next(filter(None, (_disk_witness(g, mpmath_centers(g.coeffs, bits), bits)
                                 for bits in (64, 128, 256))), None)
    if witness is None:  # a root on the unit circle, or roots too close
        return
    assert enclosures_hold(g, witness)
    disks = [((Fraction(e["center"][0]), Fraction(e["center"][1])),
              Fraction(e["radius_upper"]) ** 2) for e in witness["root_enclosures"]]
    assert len(disks) == g.degree
    eps = sympy.Rational(1, 2 ** 80)
    rects = []
    for i in range(g.degree):
        root = sympy.CRootOf(sq, i)
        if isinstance(root, sympy.CRootOf):
            root = root.eval_rational(dx=eps, dy=eps)
            tol = Fraction(1, 2 ** 80)
        else:
            tol = Fraction(0)  # a rational root, exact
        re, im = (Fraction(int(v.p), int(v.q)) for v in root.as_real_imag())
        rects.append((re - tol, re + tol, im - tol, im + tol))
    for rect in rects:
        assert sum(_rect_in_disk(rect, disk) for disk in disks) == 1
        assert sum(_rect_meets_disk(rect, disk) for disk in disks) == 1
    for disk in disks:
        assert sum(_rect_meets_disk(rect, disk) for rect in rects) == 1
