"""Integer polynomials with exact-arithmetic utilities.

Coefficients are arbitrary-precision ints, ascending degree.  Includes the
pieces the spectral certificates are built from: Newton's identities, a
modular gcd, cyclotomic polynomials, Sturm counts, and the trace
substitution y = x + 1/x that turns a palindromic polynomial's
unit-circle roots into real roots of half the degree in [-2, 2].  A
second real-root counter, Vincent-Collins-Akritas bisection under
Descartes' rule of signs, shares no code with the Sturm chains, so the
checker of a certificate does not rely on the count that produced it.

All of it runs on ints.  `poly_gcd` is Brown's modular gcd: monic gcds
modulo 61-bit primes, joined by the Chinese remainder theorem, and
accepted only once the candidate divides both inputs exactly.  A
sign-preserving pseudo-remainder, a positive multiple of the remainder
over Q, serves the Sturm chains only.  Exact division is long division
over Z: the divisors used here are primitive, so by Gauss's lemma a
quotient that exists over Q is already integral.  Only evaluation at a
rational point leaves the integers.
"""

import math
from fractions import Fraction
from functools import lru_cache
from operator import mul, ne


def _trim(coeffs):
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return c


class IntPolynomial:
    """Dense integer polynomial, coefficients ascending.  A value type:
    equal coefficient tuples compare and hash equal."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = _trim(coeffs)
        ints = list(map(int, coeffs))
        if ints != coeffs:
            raise ValueError("coefficients must be integers")
        self.coeffs = tuple(ints)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

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
    positive multiple of the remainder of a by b over Q, for the Sturm
    chains."""
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


# Primes below 2^61 in descending order from the Mersenne prime 2^61 - 1;
# `_prime_below` continues the sequence past the last one.
_PRIMES = (
    2305843009213693951, 2305843009213693921, 2305843009213693907,
    2305843009213693723, 2305843009213693693, 2305843009213693669,
    2305843009213693613, 2305843009213693561, 2305843009213693549,
    2305843009213693487, 2305843009213693421, 2305843009213693373,
    2305843009213693277, 2305843009213693193, 2305843009213693153,
    2305843009213693133,
)
# Miller-Rabin with these bases is exact below 3.3 * 10^24 (Sorenson and
# Webster, Math. Comp. 2017), far above 2^61.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n):
    """Deterministic Miller-Rabin for n < 3.3 * 10^24."""
    if n < 2 or any(n % a == 0 for a in _MR_BASES):
        return n in _MR_BASES
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=None)
def _prime_below(n):
    """The largest prime below n."""
    q = n - 1
    while not _is_prime(q):
        q -= 1
    return q


def _primes():
    """The gcd primes: `_PRIMES`, then each next prime below the last."""
    yield from _PRIMES
    q = _PRIMES[-1]
    while True:
        q = _prime_below(q)
        yield q


def _monic_gcd_mod(a, b, q):
    """The monic gcd of two coefficient lists reduced mod the prime q, by
    Euclid's algorithm over GF(q); [1] when they are coprime.  The
    reductions must not both vanish."""
    a = [c % q for c in a]
    b = [c % q for c in b]
    while a and not a[-1]:
        a.pop()
    while b and not b[-1]:
        b.pop()
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        inv = pow(b[-1], -1, q)
        n = len(b) - 1
        for s in range(len(a) - n - 1, -1, -1):
            f = a.pop() * inv % q
            if f:
                a[s:] = [(x - f * y) % q for x, y in zip(a[s:], b)]
        while a and not a[-1]:
            a.pop()
        a, b = b, a
    if b:
        return [1]
    inv = pow(a[-1], -1, q)
    return [c * inv % q for c in a]


def poly_gcd(a, b):
    """The primitive gcd over Z with positive leading coefficient, by
    Brown's modular algorithm (von zur Gathen and Gerhard, Modern Computer
    Algebra, ch. 6).

    With c = gcd(lc a, lc b) and g the gcd, a prime q that divides c is
    skipped; for any other, deg gcd(a mod q, b mod q) >= deg g, with
    equality for all but finitely many q.  Degree 0 settles g = 1 at once;
    the degree of b, the input of lower degree, settles g = b if b divides
    a.  Otherwise the images c * gcd_q, all of the least degree seen so far
    (primes of larger degree are dropped, a smaller one restarts), are
    joined by CRT with a symmetric lift.  Its primitive part h has
    degree >= deg g, so once h divides both a and b it is g.  A trial
    division is a full long division, so it waits until a new prime leaves
    the symmetric lift unchanged: a lift that still changes is almost
    never the gcd.
    """
    a, b = a.primitive(), b.primitive()
    if a.is_zero():
        return b
    if b.is_zero():
        return a
    if a.degree < b.degree:
        a, b = b, a
    c = math.gcd(a.leading(), b.leading())
    lift, modulus, previous = None, 1, None
    for q in _primes():
        if c % q == 0:
            continue
        image = _monic_gcd_mod(a.coeffs, b.coeffs, q)
        if len(image) == 1:
            return IntPolynomial([1])
        if len(image) == len(b.coeffs) and divides(b, a):
            return b
        if lift is not None and len(image) > len(lift):
            continue
        image = [x * c % q for x in image]
        if lift is None or len(image) < len(lift):
            lift, modulus = image, q
        else:
            u = pow(modulus, -1, q)
            lift = [x + modulus * ((y - x) * u % q) for x, y in zip(lift, image)]
            modulus *= q
        half = modulus // 2
        symmetric = [x - modulus if x > half else x for x in lift]
        if symmetric == previous:
            h = IntPolynomial(symmetric).primitive()
            if divides(h, a) and divides(h, b):
                return h
        previous = symmetric


def squarefree_part(p):
    return poly_divmod_exact(p, poly_gcd(p, p.derivative())).primitive()


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
    """All d with phi(d) <= maxdeg, ascending.  phi(d) >= sqrt(d/2) bounds
    the sweep by 2 maxdeg^2 + 2, and a sieve gives Euler's phi up to it:
    each prime q multiplies phi(m) by 1 - 1/q for its multiples m."""
    n = 2 * maxdeg * maxdeg + 2
    phi = list(range(n + 1))
    for q in range(2, n + 1):
        if phi[q] == q:  # untouched by a smaller prime, so q is prime
            for m in range(q, n + 1, q):
                phi[m] -= phi[m] // q
    return tuple(d for d in range(1, n + 1) if phi[d] <= maxdeg)


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
    in gcd(p, p'), whose roots cancel from the count).  Integer endpoints,
    such as the trace interval's -2 and 2, are evaluated in ints.
    """
    a, b = (x.numerator if x.denominator == 1 else x for x in (Fraction(a), Fraction(b)))
    if p(a) == 0 or p(b) == 0:
        raise ValueError("interval endpoints must not be roots")
    seq = sturm_sequence(p)
    return _sign_changes(seq, a) - _sign_changes(seq, b)


def _taylor_shift(c):
    """Ascending coefficients of c(x + 1), by repeated synthetic division."""
    c = list(c)
    for i in range(len(c) - 1):
        for j in range(len(c) - 2, i - 1, -1):
            c[j] += c[j + 1]
    return c


def _descartes_bound(c):
    """Sign changes of the ascending coefficients c, zeros skipped: by
    Descartes' rule, the number of positive roots counted with
    multiplicity, up to an even excess."""
    signs = [x > 0 for x in c if x]
    return sum(map(ne, signs, signs[1:]))


def real_root_intervals(p, a, b):
    """Isolating intervals of the distinct real roots of p in the open
    interval (a, b), rational endpoints, by Vincent-Collins-Akritas
    bisection (Collins and Akritas, 1976); no Sturm chain.

    The squarefree part of p, scaled to P(x) = p(a + (b - a) x) with
    integer coefficients, is bisected over (0, 1).  The Mobius map
    x = 1/(t + 1) takes (0, 1) onto t in (0, inf), and Descartes' rule on
    (t + 1)^n P(1/(t + 1)) bounds the roots in the piece: a bound of 0
    drops it, 1 isolates a root, more bisects it, and a bisection point
    that is a root is recorded as it is.  Returns sorted pairs (lo, hi)
    of Fractions, one per root: lo == hi for a root at a bisection point,
    else exactly one root in the open interval (lo, hi), whose endpoints
    are roots only if they are listed as such a point.  a and b must not
    be roots.
    """
    a, b = Fraction(a), Fraction(b)
    if p(a) == 0 or p(b) == 0:
        raise ValueError("interval endpoints must not be roots")
    p = squarefree_part(p)
    d = a.denominator * b.denominator // math.gcd(a.denominator, b.denominator)
    lo, width = int(a * d), int((b - a) * d)
    q = [p.leading()]  # Horner's rule for d^n p((lo + width x) / d)
    for k, c in enumerate(reversed(p.coeffs[:-1]), 1):
        q = [lo * x + width * y for x, y in zip(q + [0], [0] + q)]
        q[0] += c * d ** k
    found = []  # in x: an isolating piece (i, i + 1) / 2^shift, or a root (mid, mid)
    todo = [(q, 0, 0)]
    while todo:
        q, i, shift = todo.pop()
        bound = _descartes_bound(_taylor_shift(q[::-1]))
        if bound == 1:
            found.append((Fraction(i, 1 << shift), Fraction(i + 1, 1 << shift)))
        elif bound > 1:
            n = len(q) - 1
            left = [x << (n - j) for j, x in enumerate(q)]  # 2^n q(x / 2)
            right = _taylor_shift(left)  # 2^n q((x + 1) / 2)
            if right[0] == 0:
                mid = Fraction(2 * i + 1, 2 << shift)
                found.append((mid, mid))
            todo += [(left, 2 * i, shift + 1), (right, 2 * i + 1, shift + 1)]
    return sorted((a + (b - a) * s, a + (b - a) * t) for s, t in found)


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


def power_sums(f, n):
    """[p_0, p_1, .., p_n] with p_m = m [t^m] -log f for m >= 1 and p_0 =
    deg f, from the coefficients f[0] = 1, f[1], .., f[d] of f (Newton's
    identities, p_m = -m f_m - sum_{0<j<m} f_j p_(m-j), f_j = 0 for j > d).
    For f = det(1 - tA) these are the power sums tr(A^m)."""
    d = len(f) - 1
    p = [d]
    for m in range(1, min(n, d) + 1):
        p.append(-m * f[m] - sum(map(mul, f[1:m], p[m - 1:0:-1])))
    tail = f[:0:-1]  # f_d, .., f_1 against p_(m-d), .., p_(m-1)
    for m in range(d + 1, n + 1):
        p.append(-sum(map(mul, tail, p[m - d:m])))
    return p


def from_power_sums(p, n):
    """The coefficients f[0] = 1, f[1], .., f[n] of the series whose power
    sums (`power_sums`) are p[1..n]: j f_j = -sum_{0<i<=j} p_i f_(j-i)."""
    f = [1] + [0] * n
    for j in range(1, n + 1):
        f[j], r = divmod(-sum(map(mul, p[1:j + 1], f[j - 1::-1])), j)
        assert r == 0, f"a coefficient is not divisible by {j}"
    return f
