"""Certified spectral decisions for integer matrices.

`char_poly` splits a matrix along the strongly connected components of
its nonzero pattern: a simultaneous permutation of rows and columns puts
it in block triangular form with one irreducible block per component on
the diagonal, so det(xI - A) is the product of their characteristic
polynomials.  Each factor comes from the division-free Berkowitz
iteration on sparse rows, whose Krylov steps cost the block's nonzeros.

`unit_root_free` decides whether an integer polynomial has a root of
modulus exactly 1 and returns a certificate.  The decision is exact:

  1. every unit-modulus root of a real polynomial p also divides
     rev(p) = x^deg p(1/x), so it lies in g = gcd(p, rev p); a constant g
     settles the question outright;
  2. otherwise, when the squarefree part g0 of g has no root at +-1, it
     is palindromic of even degree, and under y = x + 1/x its unit-circle
     roots correspond exactly to the real roots of the half-degree trace
     polynomial h in [-2, 2], with x^(deg g0 / 2) h(x + 1/x) = g0.  A
     Sturm count of h on (-2, 2) of 0 settles "free", and h is the
     witness;
  3. otherwise g is screened for cyclotomic factors, and without one the
     Sturm count settles "not-free".

A "free" verdict of step 2 can be checked without any approximation:
`trace_witness_holds` expands x^(deg h) h(x + 1/x) and compares it with
g0, and counts the roots of h in (-2, 2) by Descartes' rule and
Vincent-Collins-Akritas bisection, which share no code with the Sturm
chain.  Schema-1 certificates record root disks in place of h;
`enclosures_hold` re-derives each disk exactly from its recorded dyadic
center, with no refinement: the containment radius deg*|g0/g0'| over the
Gaussian integers, pairwise disjointness, and the modulus interval.

The r-fold eigenvalue products of A face the same test, on a polynomial
that Newton's identities read from A's.
"""

import itertools
import math
from fractions import Fraction
from operator import mul

from . import linalg
from .intpoly import (
    IntPolynomial,
    count_real_roots,
    cyclotomic,
    cyclotomic_indices_up_to_degree,
    divides,
    from_power_sums,
    poly_gcd,
    power_sums,
    real_root_intervals,
    squarefree_part,
    trace_polynomial,
)


def _strong_components(rows):
    """Strongly connected components of the digraph i -> j for a_ij != 0,
    by Tarjan's algorithm with an explicit stack (no recursion)."""
    n = len(rows)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack, comps, counter = [], [], 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        work = [(root, iter(rows[root]))]
        while work:
            v, edges = work[-1]
            for w, _ in edges:
                if index[w] < 0:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(rows[w])))
                    break
                if on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
                if low[v] == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        comp.append(w)
                        if w == v:
                            break
                    comps.append(comp)
    return comps


def _berkowitz(block):
    """Descending coefficients of det(xI - B) for B given by sparse rows
    [(j, b_ij)], division-free.

    Step k extends the leading k x k block by row and column k: with
    R = B[k, :k], C = B[:k, k] and S = B[:k, :k] it multiplies the
    running polynomial by the Toeplitz matrix of
    (1, -b_kk, -RC, -RSC, ..., -RS^(k-1)C).  S is kept as sparse rows
    that grow by one column and one row per step, so each Krylov product
    S^s C costs the nonzeros of S.
    """
    m = len(block)
    diag = [0] * m
    left = [[] for _ in range(m)]  # left[k]: row k left of the diagonal
    above = [[] for _ in range(m)]  # above[k]: column k above the diagonal
    for i, row in enumerate(block):
        for j, x in row:
            if j < i:
                left[i].append((j, x))
            elif j > i:
                above[j].append((i, x))
            else:
                diag[i] = x
    p = [1]
    sub = []  # sparse rows of the leading k x k block
    for k in range(m):
        t = [1, -diag[k]]
        row, col = left[k], above[k]
        if row and col:
            vec = [0] * k
            for i, x in col:
                vec[i] = x
            t.append(-sum([x * vec[j] for j, x in row]))
            for _ in range(k - 1):
                vec = [sum([x * vec[j] for j, x in r]) for r in sub]
                t.append(-sum([x * vec[j] for j, x in row]))
        else:
            t += [0] * k
        p = [sum(map(mul, t[i::-1], p)) for i in range(k + 2)]
        for i, x in col:
            sub[i].append((k, x))
        sub.append(row + [(k, diag[k])] if diag[k] else row)
    return p


def char_poly(a):
    """Characteristic polynomial det(xI - A), one irreducible diagonal
    block at a time.

    The strongly connected components of A's nonzero pattern order A, up
    to a simultaneous permutation of rows and columns, into block
    triangular form, so det(xI - A) is the product of det(xI - A_cc) over
    the components c.  Each factor comes from the division-free Berkowitz
    iteration on the sparse rows of A_cc.

    Entries may be exact rationals; int entries run in ints.  Raises
    ValueError when det(xI - A) is not in Z[x].  Each factor is monic, so
    by Gauss's lemma the product is in Z[x] exactly when every factor is;
    the factors are multiplied as coefficient lists and only the product
    is checked.
    """
    n = len(a)
    for row in a:
        if len(row) != n:
            raise ValueError("matrix must be square")
    rows = [[(j, x) for j, x in enumerate(row) if x] for row in a]
    p = [1]  # descending coefficients
    for comp in _strong_components(rows):
        pos = {v: k for k, v in enumerate(comp)}
        factor = _berkowitz([[(pos[j], x) for j, x in rows[v] if j in pos] for v in comp])
        prod = [0] * (len(p) + len(factor) - 1)
        for i, x in enumerate(p):
            for j, y in enumerate(factor):
                prod[i + j] += x * y
        p = prod
    try:  # IntPolynomial rejects a non-integral coefficient
        return IntPolynomial(p[::-1])
    except ValueError:
        raise ValueError("characteristic polynomial is not integral") from None


def compound_matrix(a, r):
    """r-th compound: minors det A[I, J] over r-subsets in colex order.

    Its eigenvalue multiset is exactly the r-fold products of A's
    eigenvalues over index subsets.  Only the tests build it, as a reference.
    """
    n = len(a)
    if not 1 <= r <= n:
        raise ValueError(f"compound order r={r} outside 1..{n}")
    subs = sorted(itertools.combinations(range(n), r), key=lambda s: s[::-1])
    out = []
    for rows in subs:
        line = []
        for cols in subs:
            minor = [[a[i][j] for j in cols] for i in rows]
            line.append(linalg.det_bareiss(minor))
        out.append(line)
    return out


class UnitRootCertificate:
    __slots__ = ("verdict", "method", "polynomial", "symmetric_factor", "witness")

    def __init__(self, verdict, method, polynomial, symmetric_factor=None, witness=None):
        self.verdict = verdict  # "free" | "not-free"
        self.method = method  # "gcd-trivial" | "cyclotomic-factor" | "isolated-interval"
        self.polynomial = polynomial  # IntPolynomial
        self.symmetric_factor = symmetric_factor  # IntPolynomial or None
        self.witness = witness  # dict or None

    @property
    def free(self):
        return self.verdict == "free"

    def to_json(self):
        out = {
            "verdict": self.verdict,
            "method": self.method,
            "polynomial": self.polynomial.to_json(),
        }
        if self.symmetric_factor is not None:
            out["symmetric_factor"] = self.symmetric_factor.to_json()
        if self.witness is not None:
            out["witness"] = self.witness
        return out


def _sqrt_bounds(q, bits):
    """Rational l <= sqrt(q) <= u with dyadic endpoints, q >= 0."""
    q = Fraction(q)
    assert q >= 0
    scale = 1 << (2 * bits)
    s = math.isqrt(q.numerator * scale // q.denominator)
    return Fraction(s, 1 << bits), Fraction(s + 2, 1 << bits)


def _abs2(re, im):
    return re * re + im * im


def _gauss_horner(coeffs, re, im, shift):
    """2^(shift*deg) * q((re + im*i) / 2^shift) for q with ascending integer
    coefficients, by Horner's rule over the Gaussian integers."""
    ar, ai = coeffs[-1], 0
    for k, c in enumerate(reversed(coeffs[:-1]), 1):
        ar, ai = ar * re - ai * im + (c << (shift * k)), ar * im + ai * re
    return ar, ai


def unit_root_free(p):
    """Decide whether p has a complex root of modulus exactly 1.

    Requires p nonzero with p(0) != 0.  Returns a UnitRootCertificate; the
    verdict is decided exactly and is never guessed.  A "free" verdict
    settled by the Sturm count gets an "isolated-interval" certificate
    with the trace polynomial as its witness.  The cyclotomic screen runs
    only when the Sturm count does not settle "free", and scans in the
    same order as when it ran first, so it finds the same factor.
    """
    if p.is_zero():
        raise ValueError("zero polynomial")
    if p.constant() == 0:
        raise ValueError("p(0) = 0: zero eigenvalue; caller must handle it separately")
    p = p.primitive()
    g = poly_gcd(p, p.reversed_poly())
    if g.degree == 0:
        return UnitRootCertificate("free", "gcd-trivial", p)
    g0 = squarefree_part(g)
    # a root at +-1 is cyclotomic; without one, g0 is palindromic of even degree
    if g0(1) and g0(-1):
        if not g0.is_palindromic() or g0.degree % 2:
            raise AssertionError("symmetric factor failed palindromic normalization")
        h = trace_polynomial(g0)
        if not count_real_roots(h, -2, 2):
            return UnitRootCertificate("free", "isolated-interval", p, symmetric_factor=g,
                                       witness={"trace_poly": h.to_json()})
    for d in cyclotomic_indices_up_to_degree(g.degree):
        phi = cyclotomic(d)
        if phi.degree <= g.degree and divides(phi, g):
            return UnitRootCertificate(
                "not-free", "cyclotomic-factor", p, symmetric_factor=g,
                witness={"cyclotomic_index": d, "factor": phi.to_json()},
            )
    return UnitRootCertificate("not-free", "isolated-interval", p, symmetric_factor=g)


def trace_witness_holds(symmetric_factor, h):
    """Whether h proves that the symmetric factor g has no root on the unit
    circle: x^(deg h) h(x + 1/x), expanded by Horner's rule in x^2 + 1, is
    the squarefree part g0 of g, h(+-2) != 0, and `real_root_intervals`
    finds no root of h in (-2, 2).  A root x of g0 with |x| = 1 would give
    the real root x + 1/x of h in [-2, 2]."""
    if h.is_zero():
        return False
    expanded = IntPolynomial([h.leading()])
    for j, c in enumerate(reversed(h.coeffs[:-1]), 1):
        expanded = expanded * IntPolynomial([1, 0, 1]) + IntPolynomial([0] * j + [c])
    return (expanded == squarefree_part(symmetric_factor) and h(2) != 0 and h(-2) != 0
            and not real_root_intervals(h, -2, 2))


def _dyadic(text, bits):
    """x * 2^bits for the text "n" or "n/d" of a rational x whose
    denominator divides 2^bits; ValueError otherwise."""
    num, _, den = text.partition("/")
    x = Fraction(int(num), int(den or 1))
    if (1 << bits) % x.denominator:
        raise ValueError("not a dyadic rational at this precision")
    return x.numerator * ((1 << bits) // x.denominator)


def _disk_witness(g, centers, bits):
    """The "free" witness that a schema-1 certificate recorded for the
    squarefree polynomial g, re-derived from its disk centers (a, b),
    meaning (a + b*i)/2^bits: around each, a disk of radius
    deg*|g(w)/g'(w)| holds a root, so deg g pairwise disjoint disks
    isolate every root, and a modulus interval that excludes 1 puts each
    off the unit circle.  g and g' are evaluated over the Gaussian
    integers and every comparison is exact.  None when the disks are not
    deg g, disjoint and off the circle."""
    d = g.degree
    if len(centers) != d:
        return None
    dg = g.derivative()
    radii = []
    for a, b in centers:
        # |g(w)|^2 / |g'(w)|^2 with both scaled to integers: g by
        # 2^(bits*d), g' by 2^(bits*(d-1))
        denom = _abs2(*_gauss_horner(dg.coeffs, a, b, bits))
        if denom == 0:
            return None
        radii.append(Fraction(d * d * _abs2(*_gauss_horner(g.coeffs, a, b, bits)),
                              denom << (2 * bits)))
    scale = 1 << (2 * bits + 1)
    for i, ((ai, bi), r2i) in enumerate(zip(centers, radii)):
        ni, mi = r2i.numerator, r2i.denominator
        for (aj, bj), r2j in zip(centers[i + 1:], radii[i + 1:]):
            nj, mj = r2j.numerator, r2j.denominator
            # |w_i - w_j|^2 <= (r_i + r_j)^2 <= 2(r_i^2 + r_j^2), times 2^(2 bits) m_i m_j
            if _abs2(ai - aj, bi - bj) * mi * mj <= scale * (ni * mj + nj * mi):
                return None
    enclosures, margins = [], []
    for (a, b), r2 in zip(centers, radii):
        re, im = Fraction(a, 1 << bits), Fraction(b, 1 << bits)
        mod_lo, mod_hi = _sqrt_bounds(_abs2(re, im), bits)
        r_hi = _sqrt_bounds(r2, bits)[1]
        lo, hi = mod_lo - r_hi, mod_hi + r_hi
        if not (hi < 1 or lo > 1):
            return None
        margins.append(lo - 1 if lo > 1 else 1 - hi)
        enclosures.append({
            "center": [str(re), str(im)],
            "radius_upper": str(r_hi),
            "modulus_interval": [str(lo), str(hi)],
            "margin": str(margins[-1]),
        })
    return {"root_enclosures": enclosures, "min_margin": str(min(margins))}


def enclosures_hold(symmetric_factor, witness):
    """Whether a schema-1 "free" witness, root disks of the squarefree part
    g0 of the symmetric factor at 64, 128 or 256 bits, is exactly what
    `_disk_witness` re-derives from its recorded centers at one of them."""
    g0 = squarefree_part(symmetric_factor)
    for bits in (64, 128, 256):
        try:
            centers = [tuple(_dyadic(x, bits) for x in e["center"])
                       for e in witness["root_enclosures"]]
        except (AttributeError, KeyError, TypeError, ValueError, ZeroDivisionError):
            continue
        if all(len(c) == 2 for c in centers) and _disk_witness(g0, centers, bits) == witness:
            return True
    return False


class ProductsCertificate:
    __slots__ = ("ok", "r_max", "per_r")

    def __init__(self, ok, r_max, per_r):
        self.ok = ok
        self.r_max = r_max
        self.per_r = per_r  # (r, char poly of compound, UnitRootCertificate)

    def to_json(self):
        return {
            "ok": self.ok,
            "r_max": self.r_max,
            "per_r": [
                {"r": r, "char_poly": cp.to_json(), "certificate": cert.to_json()}
                for r, cp, cert in self.per_r
            ],
        }


def products_off_circle(a, r_max):
    """True iff every r-fold eigenvalue product of A avoids the unit circle,
    for 1 <= r <= r_max, certified on the r-th compound's polynomial, which
    Newton's identities read from det(1 - tA): its s-th power sum is
    e_r(lambda^s) = (-1)^r [t^r] det(1 - tA^s).  Zero products are
    off-circle and are factored out before certification."""
    n = len(a)
    if not 1 <= r_max <= n:
        raise ValueError(f"r_max={r_max} outside 1..{n}")
    f = char_poly(a).coeffs[::-1]  # det(1 - tA)
    per_r = []
    ok = True
    for r in range(1, r_max + 1):
        dim = math.comb(n, r)
        p = power_sums(f, r * dim)
        traces = [dim] + [(-1) ** r * from_power_sums(p[::s], r)[r] for s in range(1, dim + 1)]
        cp = IntPolynomial(from_power_sums(traces, dim)[::-1])
        reduced = cp.shift_right(cp.trailing_zero_order())
        cert = unit_root_free(reduced)
        per_r.append((r, cp, cert))
        if not cert.free:
            ok = False
            break
    return ProductsCertificate(ok=ok, r_max=r_max, per_r=per_r)
