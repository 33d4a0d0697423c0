import contextlib
import itertools
import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from anosograph import intpoly
from anosograph.intpoly import (
    IntPolynomial,
    count_real_roots,
    cyclotomic,
    cyclotomic_indices_up_to_degree,
    divides,
    poly_divmod_exact,
    poly_gcd,
    real_root_intervals,
    squarefree_part,
    trace_polynomial,
)
from oracles import euler_phi, prs_gcd


def test_equal_coefficients_compare_and_hash_equal():
    # a value type: trailing zeros are trimmed, so these are one polynomial
    a, b = IntPolynomial([1, -3, 1]), IntPolynomial((1, -3, 1, 0))
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != IntPolynomial([1, -3, 2]) and a != (1, -3, 1)


def test_cyclotomic_small():
    assert cyclotomic(1).to_json() == [-1, 1]
    assert cyclotomic(2).to_json() == [1, 1]
    assert cyclotomic(4).to_json() == [1, 0, 1]
    assert cyclotomic(5).to_json() == [1, 1, 1, 1, 1]
    assert cyclotomic(6).to_json() == [1, -1, 1]
    assert cyclotomic(12).to_json() == [1, 0, -1, 0, 1]


def test_cyclotomic_product_is_x_n_minus_1():
    for n in (6, 8, 12):
        prod = IntPolynomial([1])
        for d in range(1, n + 1):
            if n % d == 0:
                prod = prod * cyclotomic(d)
        assert prod.to_json() == [-1] + [0] * (n - 1) + [1]


def test_euler_phi():
    assert [euler_phi(d) for d in range(1, 11)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4]


def test_cyclotomic_index_sweep_complete():
    # every d with phi(d) <= 4 appears
    ds = cyclotomic_indices_up_to_degree(4)
    assert set(ds) >= {1, 2, 3, 4, 5, 6, 8, 10, 12}
    assert all(euler_phi(d) <= 4 for d in ds)


def test_cyclotomic_index_sieve_matches_trial_division():
    # the phi sieve against the trial-division sweep it replaced
    phi = [0] + [euler_phi(d) for d in range(1, 2 * 80 * 80 + 3)]
    for maxdeg in range(81):
        sweep = tuple(d for d in range(1, 2 * maxdeg * maxdeg + 3) if phi[d] <= maxdeg)
        assert cyclotomic_indices_up_to_degree(maxdeg) == sweep, maxdeg


def test_divides():
    p = cyclotomic(3) * cyclotomic(8)
    assert divides(cyclotomic(3), p)
    assert divides(cyclotomic(8), p)
    assert not divides(cyclotomic(5), p)


def test_poly_divmod_exact_error():
    with pytest.raises(ValueError):
        poly_divmod_exact(IntPolynomial([1, 1]), IntPolynomial([1, 2]))


def test_gcd_of_coprime():
    g = poly_gcd(IntPolynomial([-1, -1, 1]), IntPolynomial([1, -1, -1]))
    assert g.degree == 0


def test_gcd_shared_factor():
    shared = cyclotomic(8)
    a = shared * IntPolynomial([1, 3, 1])
    b = shared * IntPolynomial([-2, 1])
    assert poly_gcd(a, b).primitive().to_json() == shared.to_json()


def test_squarefree_part():
    p = cyclotomic(4) * cyclotomic(4) * IntPolynomial([-1, 1])
    sf = squarefree_part(p)
    assert divides(cyclotomic(4), sf)
    assert not divides(cyclotomic(4) * cyclotomic(4), sf)


def test_sturm_count_quadratics():
    # x^2 - 3x + 1: roots (3 +- sqrt5)/2 ~ 0.382, 2.618
    p = IntPolynomial([1, -3, 1])
    assert count_real_roots(p, 0, 1) == 1
    assert count_real_roots(p, 1, 3) == 1
    assert count_real_roots(p, -2, 0) == 0
    assert count_real_roots(p, 0, 3) == 2


def test_sturm_endpoint_guard():
    p = IntPolynomial([0, 1])
    with pytest.raises(ValueError):
        count_real_roots(p, 0, 1)


def test_isolate_real_root():
    p = IntPolynomial([1, -3, 1])
    [(lo, hi)] = real_root_intervals(p, Fraction(0), Fraction(1))
    assert Fraction(0) <= lo < hi <= Fraction(1)
    assert p(lo) * p(hi) < 0
    # (x - 1/2)(x^2 - 3x + 1): a root at the first bisection point is kept as it is
    p = p * IntPolynomial([-1, 2])
    assert real_root_intervals(p, 0, 1) == [(0, Fraction(1, 2)), (Fraction(1, 2),) * 2]
    with pytest.raises(ValueError):
        real_root_intervals(IntPolynomial([-1, 1]), 1, 2)


def test_trace_polynomial_golden_reciprocal():
    # x^2 - 3x + 1 is palindromic: h(y) = y - 3
    h = trace_polynomial(IntPolynomial([1, -3, 1]))
    assert h.to_json() == [-3, 1]


def test_trace_polynomial_matches_substitution():
    # p(x) = x^m h(x + 1/x) checked at sample rationals
    p = cyclotomic(5) * IntPolynomial([1, -3, 1])
    assert p.is_palindromic()
    h = trace_polynomial(p)
    m = p.degree // 2
    for x in (Fraction(2), Fraction(1, 2), Fraction(-3), Fraction(7, 3)):
        assert p(x) == x ** m * h(x + 1 / x)


def test_trace_polynomial_rejects_non_palindromic():
    with pytest.raises(ValueError):
        trace_polynomial(IntPolynomial([-1, -1, 1]))


def palindromic_of(h):
    """x^m h(x + 1/x) for h of degree m: a palindromic polynomial of degree 2m."""
    p = IntPolynomial([])
    for j, c in enumerate(h.coeffs):
        term = IntPolynomial([0] * (h.degree - j) + [c])
        for _ in range(j):
            term = term * IntPolynomial([1, 0, 1])
        p = p + term
    return p


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(-6, 6), max_size=5), st.integers(1, 3), st.booleans(),
       st.lists(st.tuples(st.integers(1, 2 ** 40), st.sampled_from([-2, 2]),
                          st.sampled_from([-1, 1]), st.integers(1, 2)), max_size=3))
@example([], 1, False, [(2 ** 40, 2, -1, 1), (2 ** 40, 2, 1, 1)])  # roots 2^-40 either side of 2
@example([-3], 1, True, [(7, -2, 1, 2)])  # (y - 3)^2 (7y + 13)^2
def test_descartes_and_sturm_counts_agree_on_palindromic(low, lead, square, near):
    """On the trace polynomial h of a palindromic polynomial, Descartes
    bisection and the Sturm count find the same roots in (-2, 2); the
    factors n y - (e n + s) put roots 1/n from e = +-2, inside or outside,
    and squared factors repeat roots."""
    h = IntPolynomial(low + [lead])
    if square:
        h = h * h
    for n, e, sign, mult in near:
        for _ in range(mult):
            h = h * IntPolynomial([-(e * n + sign), n])
    p = palindromic_of(h)
    assume(p(1) != 0 and p(-1) != 0)  # h(+-2) != 0
    assert trace_polynomial(p) == h
    assert len(real_root_intervals(h, -2, 2)) == count_real_roots(h, -2, 2)


def test_gcd_divides_only_once_the_lift_is_stable():
    # a planted 8th-degree factor with 150-bit coefficients needs several
    # primes; the trial divisions wait for a prime that leaves the lift
    # unchanged, and the gcd is the one the primitive PRS finds
    rng = random.Random(31)
    divisions = []

    def count(b, a):
        divisions.append(1)
        return divides(b, a)

    def poly(degree, bits):
        return IntPolynomial([rng.getrandbits(bits) - 2 ** (bits - 1) for _ in range(degree)]
                             + [1 + rng.getrandbits(bits)])

    for _ in range(4):
        f, u, v = poly(8, 150), poly(12, 30), poly(12, 30)
        a, b = f * u, f * v
        divisions.clear()
        with mock.patch.object(intpoly, "divides", count), primes_used() as used:
            g = poly_gcd(a, b)
        assert g == prs_gcd(a, b) and divides(f.primitive(), g)
        assert len(used) > 3 and len(divisions) == 2


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(-5, 5), min_size=1, max_size=6),
       st.lists(st.integers(-5, 5), min_size=1, max_size=6))
def test_gcd_divides_both(a_coeffs, b_coeffs):
    a = IntPolynomial(a_coeffs + [1])
    b = IntPolynomial(b_coeffs + [1])
    g = poly_gcd(a, b)
    assert divides(g, a) and divides(g, b)


def test_coefficients_stored_as_ints():
    for p in (IntPolynomial([2.0, 1]), IntPolynomial([Fraction(3), 1, Fraction(4, 2)])):
        assert all(type(c) is int for c in p.coeffs)
    assert IntPolynomial([2.0, 1]).coeffs == (2, 1)
    with pytest.raises(ValueError):
        IntPolynomial([Fraction(1, 2), 1])


# -- sympy as an independent oracle ------------------------------------------

def random_polys(seed, count):
    """Seeded integer polynomials, every other one with a squared factor;
    about half have a negative leading coefficient."""
    rng = random.Random(seed)

    def factor(deg):
        return IntPolynomial([rng.randint(-4, 4) for _ in range(deg)]
                             + [rng.choice((-3, -2, -1, 1, 2, 3))])

    for i in range(count):
        if i % 2:
            f = factor(rng.randint(1, 3))
            yield f * f * factor(rng.randint(0, 3))
        else:
            yield factor(rng.randint(1, 7))


def to_sympy(p):
    import sympy

    return sympy.Poly(list(reversed(p.coeffs)), sympy.Symbol("x"))


def random_intervals(rng, p):
    """Rational intervals whose endpoints are not roots of p, the first
    containing every real root (Cauchy's bound)."""
    bound = 1 + max(abs(Fraction(c, p.leading())) for c in p.coeffs)
    out = [(-bound, bound)]
    for _ in range(3):
        a = Fraction(rng.randint(-30, 30), rng.randint(1, 6))
        b = a + Fraction(rng.randint(1, 40), rng.randint(1, 6))
        out.append((a, b))
    return [(a, b) for a, b in out if p(a) and p(b)]


def test_sturm_count_and_isolation_match_sympy():
    rng = random.Random(11)
    for p in random_polys(2006, 400):
        sp = to_sympy(p)
        sf = squarefree_part(p)
        for a, b in random_intervals(rng, p):
            n = count_real_roots(p, a, b)
            assert n == sp.count_roots(a, b)
            assert n == count_real_roots(sf, a, b)
            # Descartes bisection: one interval per root, the open interval
            # holding it alone (sympy counts roots in the closed one)
            intervals = real_root_intervals(p, a, b)
            assert len(intervals) == n
            for lo, hi in intervals:
                assert a <= lo <= hi <= b
                roots_at_ends = sum(sf(x) == 0 for x in {lo, hi})
                assert sp.count_roots(lo, hi) == 1 + roots_at_ends - (lo == hi)


def test_exact_division_matches_sympy():
    import sympy

    rng = random.Random(12)
    polys = list(random_polys(2007, 240))
    for i, b in enumerate(polys):
        q = polys[-1 - i]
        for a in (q * b, q * b + IntPolynomial([rng.randint(-2, 2)]), q, q * b * 2):
            for divisor in (b, b * 2):
                sq, sr = sympy.div(to_sympy(a), to_sympy(divisor), domain=sympy.QQ)
                exact = sr.is_zero and all(c.is_integer for c in sq.all_coeffs())
                assert divides(divisor, a) == exact
                if exact:
                    expected = IntPolynomial([int(c) for c in reversed(sq.all_coeffs())])
                    assert poly_divmod_exact(a, divisor).to_json() == expected.to_json()
                else:
                    with pytest.raises(ValueError):
                        poly_divmod_exact(a, divisor)


def test_squarefree_part_matches_sympy():
    # equal up to sign and content: both sides made primitive, leading
    # coefficient positive
    for p in random_polys(2008, 300):
        expected = IntPolynomial([int(c) for c in reversed(to_sympy(p).sqf_part().all_coeffs())])
        assert squarefree_part(p).to_json() == expected.primitive().to_json()


# -- the modular gcd against the primitive PRS and sympy ---------------------

def sympy_gcd(a, b):
    """sympy's gcd, made primitive with a positive leading coefficient."""
    import sympy

    g = sympy.gcd(to_sympy(a), to_sympy(b))
    return IntPolynomial([int(c) for c in reversed(g.all_coeffs())]).primitive()


def assert_gcd_matches_oracles(a, b):
    g = poly_gcd(a, b)
    assert g.to_json() == prs_gcd(a, b).to_json()
    if not (a.is_zero() and b.is_zero()):
        assert g.to_json() == sympy_gcd(a, b).to_json()
    return g


def polys(coeffs, min_degree=0, max_degree=6):
    """Integer polynomials of degree min_degree..max_degree with nonzero
    leading coefficient, both signs."""
    return st.lists(coeffs, min_size=min_degree, max_size=max_degree).flatmap(
        lambda low: coeffs.filter(bool).map(lambda lead: IntPolynomial(low + [lead])))


@contextlib.contextmanager
def primes_used():
    """The list of primes `poly_gcd` reduces modulo, while in the block."""
    used = []
    monic_gcd_mod = intpoly._monic_gcd_mod

    def spy(a, b, q):
        used.append(q)
        return monic_gcd_mod(a, b, q)

    with mock.patch.object(intpoly, "_monic_gcd_mod", spy):
        yield used


SMALL = st.integers(-9, 9)
WIDE = st.integers(-(2 ** 260), 2 ** 260)


@settings(max_examples=60, deadline=None)
@given(polys(SMALL, 3, 10), polys(SMALL, 0, 6), polys(SMALL, 0, 6))
def test_gcd_shared_high_degree_factor(f, u, v):
    g = assert_gcd_matches_oracles(f * u, f * v)
    assert divides(f.primitive(), g)


@settings(max_examples=40, deadline=None)
@given(polys(WIDE, 1, 5), polys(WIDE, 0, 4), polys(WIDE, 0, 4))
def test_gcd_wide_coefficients(f, u, v):
    # coefficients up to 260 bits: the lift often needs several primes
    assert_gcd_matches_oracles(f * u, f * v)


@settings(max_examples=40, deadline=None)
@given(polys(SMALL, 1, 5), polys(SMALL, 0, 5), polys(SMALL, 0, 5), st.integers(1, 3))
def test_gcd_skips_primes_dividing_both_leading_coefficients(f, u, v, skipped):
    # lc(a) and lc(b) are multiples of the first `skipped` primes
    lead = math.prod(intpoly._PRIMES[:skipped])
    f = IntPolynomial(list(f.coeffs[:-1]) + [lead * f.leading()])
    a, b = f * u, f * v
    assume(math.gcd(a.primitive().leading(), b.primitive().leading()) % lead == 0)
    with primes_used() as used:
        assert_gcd_matches_oracles(a, b)
    assert used and not set(used) & set(intpoly._PRIMES[:skipped])


@pytest.mark.parametrize("unlucky, bits", [(0, 200), (1, 200), (2, 200), (0, 4)])
def test_gcd_unlucky_primes(unlucky, bits):
    # u = x and v = x - q are coprime over Z but equal mod q, so the prime q
    # gives a gcd of one degree more: a restart when q comes first, a
    # dropped image after that.  A 200-bit g needs several primes to lift;
    # a 4-bit g lifts from q alone to g * x, which divides g * u only.
    rng = random.Random(unlucky)
    g = IntPolynomial([rng.getrandbits(bits) - 2 ** (bits - 1) for _ in range(5)] + [3])
    q = intpoly._PRIMES[unlucky]
    u, v = IntPolynomial([0, 1]), IntPolynomial([-q, 1])
    assert poly_gcd(g * u, g * v).to_json() == g.primitive().to_json()
    assert prs_gcd(g * u, g * v).to_json() == g.primitive().to_json()


@pytest.mark.parametrize("a, b, expected", [
    ([], [], []),
    ([], [0, -4, -6], [0, 2, 3]),
    ([-6, 0, 4], [], [-3, 0, 2]),
    ([5], [1, 2, 3], [1]),
    ([-7], [], [1]),
    ([0, 2, 2], [-3], [1]),
])
def test_gcd_zero_and_constant_inputs(a, b, expected):
    a, b = IntPolynomial(a), IntPolynomial(b)
    assert poly_gcd(a, b).to_json() == expected
    assert poly_gcd(b, a).to_json() == expected
    assert prs_gcd(a, b).to_json() == expected


@settings(max_examples=40, deadline=None)
@given(polys(SMALL, 1, 5), polys(SMALL, 0, 4), polys(SMALL, 0, 4),
       st.sampled_from([-3, -1, 1, 2]), st.sampled_from([-5, -1, 1, 7]))
def test_gcd_sign_and_content_normalised(f, u, v, s, t):
    g = assert_gcd_matches_oracles(f * u * s, f * v * t)
    assert g.leading() > 0 and g.content() == 1
    assert poly_gcd(f * u * -s, f * v * t).to_json() == g.to_json()


def test_gcd_past_the_literal_primes():
    # a shared factor with 1,200-bit coefficients needs more than the
    # 16 literal primes (976 bits), so the lift runs on searched ones
    rng = random.Random(20)
    f = IntPolynomial([rng.getrandbits(1200) - 2 ** 1199 for _ in range(4)] + [2 ** 1200 + 1])
    u, v = IntPolynomial([3, -1, 2]), IntPolynomial([-5, 0, 0, 1])
    with primes_used() as used:
        assert poly_gcd(f * u, f * v).to_json() == f.primitive().to_json()
    assert len(used) > len(intpoly._PRIMES)


def test_gcd_primes_are_prime():
    import sympy

    assert intpoly._PRIMES[0] == 2 ** 61 - 1
    assert all(sympy.isprime(q) for q in intpoly._PRIMES)
    # the literal tuple and its continuation are consecutive primes
    primes = list(itertools.islice(intpoly._primes(), len(intpoly._PRIMES) + 40))
    assert all(q == sympy.prevprime(p) for p, q in zip(primes, primes[1:]))


def test_miller_rabin_matches_sympy():
    import sympy

    # strong pseudoprimes to the bases 2..7 and 2..23
    for n in [*range(2000), 3215031751, 3825123056546413051, 2 ** 61 - 1, 2 ** 61 + 1]:
        assert intpoly._is_prime(n) == sympy.isprime(n), n
