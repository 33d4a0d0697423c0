"""Integer polynomials with exact-arithmetic utilities.

Coefficients are arbitrary-precision ints, ascending degree.  Includes the
pieces the spectral certificates are built from: primitive-PRS gcd,
cyclotomic polynomials, Sturm counts, and the trace substitution
y = x + 1/x that turns a palindromic polynomial's unit-circle roots into
real roots of half the degree in [-2, 2].

All of it runs on ints.  One sign-preserving pseudo-remainder, a positive
multiple of the remainder over Q, serves both the primitive remainder
sequence of `poly_gcd` (Collins; Brown-Traub) and the Sturm chains.  Exact
division is long division over Z: the divisors used here are primitive,
so by Gauss's lemma a quotient that exists over Q is already integral.
Only evaluation at a rational point leaves the integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache


def _trim(coeffs):
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return c


@dataclass(frozen=True)
class IntPolynomial:
    """Dense integer polynomial, coefficients ascending."""

    coeffs: tuple

    def __init__(self, coeffs):
        coeffs = _trim(coeffs)
        ints = list(map(int, coeffs))
        if ints != coeffs:
            raise ValueError("coefficients must be integers")
        object.__setattr__(self, "coeffs", tuple(ints))

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def leading(self):
        return self.coeffs[-1] if self.coeffs else 0

    def constant(self):
        return self.coeffs[0] if self.coeffs else 0

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return IntPolynomial([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPolynomial([c * other for c in self.coeffs])
        if self.is_zero() or other.is_zero():
            return IntPolynomial([])
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] += a * b
        return IntPolynomial(out)

    __rmul__ = __mul__

    def derivative(self):
        return IntPolynomial([i * c for i, c in enumerate(self.coeffs)][1:])

    def reversed_poly(self):
        """x^deg * p(1/x); faithful reciprocal when p(0) != 0."""
        return IntPolynomial(list(reversed(self.coeffs)))

    def content(self):
        g = 0
        for c in self.coeffs:
            g = math.gcd(g, abs(c))
        return g

    def primitive(self):
        """Primitive part with positive leading coefficient."""
        if self.is_zero():
            return self
        g = self.content()
        sign = 1 if self.leading() > 0 else -1
        return IntPolynomial([c * sign // g for c in self.coeffs])

    def shift_right(self, m):
        """Divide by x^m (the low m coefficients must vanish)."""
        assert all(c == 0 for c in self.coeffs[:m])
        return IntPolynomial(self.coeffs[m:])

    def trailing_zero_order(self):
        m = 0
        while m < len(self.coeffs) and self.coeffs[m] == 0:
            m += 1
        return m if self.coeffs else 0

    def is_palindromic(self):
        return not self.is_zero() and list(self.coeffs) == list(reversed(self.coeffs))

    def to_json(self):
        return list(self.coeffs)


def poly_divmod_exact(a, b):
    """The integer polynomial q with a = q*b, by long division over Z.

    Raises ValueError when b does not divide a in Z[x].  A leading
    coefficient that lc(b) does not divide leaves a nonzero remainder
    there, which no later step touches.
    """
    if b.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    rem = list(a.coeffs)
    bc = b.coeffs
    q = [0] * max(len(rem) - len(bc) + 1, 0)
    for i in range(len(q) - 1, -1, -1):
        f = rem[i + len(bc) - 1] // bc[-1]
        q[i] = f
        if f:
            for j, c in enumerate(bc):
                rem[i + j] -= f * c
    if any(rem):
        raise ValueError("division is not exact")
    return IntPolynomial(q)


def divides(b, a):
    try:
        poly_divmod_exact(a, b)
        return True
    except ValueError:
        return False


def _pseudo_rem(a, b):
    """|lc(b)|^e * a mod b over the integers, e <= deg a - deg b + 1: a
    positive multiple of the remainder of a by b over Q."""
    rb = list(b.coeffs)
    if rb[-1] < 0:
        rb = [-c for c in rb]
    lb = rb[-1]
    ra = list(a.coeffs)
    while len(ra) >= len(rb):
        shift = len(ra) - len(rb)
        la = ra[-1]
        ra = [c * lb for c in ra]
        for j, c in enumerate(rb):
            ra[shift + j] -= la * c
        ra = _trim(ra)
    return IntPolynomial(ra)


def poly_gcd(a, b):
    """Primitive gcd over Z via the primitive PRS (no coefficient blowup)."""
    a, b = a.primitive(), b.primitive()
    if a.is_zero():
        return b
    if b.is_zero():
        return a
    if a.degree < b.degree:
        a, b = b, a
    while not b.is_zero():
        r = _pseudo_rem(a, b).primitive()
        a, b = b, r
    return a.primitive()


def squarefree_part(p):
    return poly_divmod_exact(p, poly_gcd(p, p.derivative())).primitive()


def euler_phi(n):
    result = n
    d = 2
    m = n
    while d * d <= m:
        if m % d == 0:
            while m % d == 0:
                m //= d
            result -= result // d
        d += 1
    if m > 1:
        result -= result // m
    return result


@lru_cache(maxsize=None)
def cyclotomic(d):
    """The d-th cyclotomic polynomial, by exact division of x^d - 1."""
    num = IntPolynomial([-1] + [0] * (d - 1) + [1])
    for e in range(1, d):
        if d % e == 0:
            num = poly_divmod_exact(num, cyclotomic(e))
    return num


@lru_cache(maxsize=None)
def cyclotomic_indices_up_to_degree(maxdeg):
    """All d with euler_phi(d) <= maxdeg (phi(d) >= sqrt(d/2) bounds the sweep)."""
    return tuple(d for d in range(1, 2 * maxdeg * maxdeg + 3) if euler_phi(d) <= maxdeg)


def sturm_sequence(p):
    """Sturm chain of p as integer polynomials: p, p', then each next term
    -prem(s[i-1], s[i]) divided by its positive content, until the
    remainder vanishes (the last term is then gcd(p, p') up to a factor).

    By induction each term is a positive multiple of the classical chain
    over Q, whose next term is minus the remainder, so the two have the
    same sign at every point.  Zero polynomials are dropped.
    """
    seq = [p, p.derivative()]
    while not seq[-1].is_zero():
        r = _pseudo_rem(seq[-2], seq[-1])
        if r.is_zero():
            break
        g = r.content()
        seq.append(IntPolynomial([-c // g for c in r.coeffs]))
    return [s for s in seq if not s.is_zero()]


def _sign_changes(seq, x):
    signs = []
    for s in seq:
        v = s(x)
        if v:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_real_roots(p, a, b):
    """Distinct real roots of p in the open interval (a, b), rational
    endpoints, by the sign changes of the integer Sturm chain.

    Endpoints must not be roots; p need not be squarefree (the chain ends
    in gcd(p, p'), whose roots cancel from the count).
    """
    a, b = Fraction(a), Fraction(b)
    if p(a) == 0 or p(b) == 0:
        raise ValueError("interval endpoints must not be roots")
    seq = sturm_sequence(p)
    return _sign_changes(seq, a) - _sign_changes(seq, b)


def isolate_one_real_root(p, a, b):
    """An interval [a', b'] with a <= a' < b' <= b and p(a')p(b') < 0.

    Requires at least one root in (a, b); p must be squarefree there.
    Bisection by Sturm count, then endpoint cleanup.  The endpoints may be
    a and b themselves: y - 1 on (-2, 2) gives (-2, 2).
    """
    a, b = Fraction(a), Fraction(b)
    seq = sturm_sequence(p)

    def count(lo, hi):
        return _sign_changes(seq, lo) - _sign_changes(seq, hi)

    assert count(a, b) >= 1
    while count(a, b) > 1:
        mid = (a + b) / 2
        if p(mid) == 0:
            mid += (b - a) / 4
        if count(a, mid) >= 1:
            b = mid
        else:
            a = mid
    # narrow to a sign change
    while p(a) * p(b) >= 0:
        mid = (a + b) / 2
        if p(mid) == 0:
            # rational root hit exactly; nudge the bracket around it
            eps = (b - a) / 8
            if p(mid - eps) * p(mid + eps) < 0:
                return mid - eps, mid + eps
            mid += eps
        if count(a, mid) >= 1:
            b = mid
        else:
            a = mid
    return a, b


def trace_polynomial(p):
    """h with p(x) = x^(deg/2) * h(x + 1/x), for palindromic even-degree p."""
    if not p.is_palindromic() or p.degree % 2 != 0:
        raise ValueError("trace substitution requires an even-degree palindromic polynomial")
    m = p.degree // 2
    # P_j(y) = x^j + x^-j under y = x + 1/x
    pj = [IntPolynomial([2]), IntPolynomial([0, 1])]
    y = IntPolynomial([0, 1])
    for _ in range(2, m + 1):
        pj.append(y * pj[-1] - pj[-2])
    h = IntPolynomial([p.coeffs[m]])
    for j in range(1, m + 1):
        h = h + p.coeffs[m + j] * pj[j]
    return h
