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
  2. otherwise g is screened for cyclotomic factors;
  3. otherwise the squarefree part of g is palindromic of even degree with
     no root at +-1, and under y = x + 1/x its unit-circle roots
     correspond exactly to real roots of the half-degree trace polynomial
     in (-2, 2), which a Sturm count settles;
  4. `unit_root_free` stops at the verdict; `enclose_roots` builds the
     witness of a verdict settled in step 3, for a certificate that is
     recorded.  For "not-free" it isolates a root of the trace polynomial
     in (-2, 2).  For "free" it encloses every root of g in a certified
     disk, giving per-root modulus intervals with positive margin from 1.
     Approximations only propose centers: Durand-Kerner sweeps in
     Gaussian-integer fixed point, with bits + 32 fractional bits, refine
     double-precision hints (or a cold start when the hints overflow or
     do not settle).  The centers are rounded to dyadics a/2^bits, the
     containment radius n*|g/g'| is evaluated over the Gaussian integers,
     and every comparison is exact.  The disks come sorted by the exact
     center, key (|im|, re, im), so the order never depends on rounding.
     The precision goes 64 -> 128 -> 256 bits; roots still not separated
     at 256 bits raise IndeterminateError.

The r-fold eigenvalue products of A face the same test, on a polynomial
that Newton's identities read from A's.
"""

import cmath
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
    isolate_one_real_root,
    poly_gcd,
    power_sums,
    squarefree_part,
    trace_polynomial,
)

_BUDGET_BITS = 256  # the last enclosure precision, after 64 and 128


class IndeterminateError(RuntimeError):
    """Refinement budget exhausted before every enclosure became decisive."""


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


_HINT_STEPS = 200
_HINT_TOL = 2.0 ** -40


def _cold_start(degree):
    return [(0.4 + 0.9j) ** k for k in range(degree)]


def _root_hints(g):
    """Double-precision Durand-Kerner approximations to the roots of g.

    Returns None when a coefficient or an iterate leaves the double range,
    or when some correction is still above _HINT_TOL relative after
    _HINT_STEPS sweeps.  The hints only warm-start `_refine_roots`.
    """
    try:
        lead = g.leading()
        a = [c / lead for c in reversed(g.coeffs)]
        z = _cold_start(g.degree)
        for _ in range(_HINT_STEPS):
            worst = 0.0
            for i, zi in enumerate(z):
                num = 0j
                for c in a:
                    num = num * zi + c
                den = 1 + 0j
                for j, zj in enumerate(z):
                    if j != i:
                        den *= zi - zj
                delta = num / den
                z[i] = zi = zi - delta
                if not cmath.isfinite(zi):
                    return None
                worst = max(worst, abs(delta) / abs(zi))
            if worst <= _HINT_TOL:
                return z
    except (OverflowError, ZeroDivisionError):
        pass
    return None


def _gauss_horner(coeffs, re, im, shift):
    """2^(shift*deg) * q((re + im*i) / 2^shift) for q with ascending integer
    coefficients, by Horner's rule over the Gaussian integers."""
    ar, ai = coeffs[-1], 0
    for k, c in enumerate(reversed(coeffs[:-1]), 1):
        ar, ai = ar * re - ai * im + (c << (shift * k)), ar * im + ai * re
    return ar, ai


_REFINE_SWEEPS = 200
_GUARD_BITS = 32


def _fixed(x, shift):
    """floor(x * 2^shift) for a finite double x, exactly."""
    n, d = x.as_integer_ratio()
    return (n << shift) // d


def _round_half_even(x, shift):
    """x / 2^shift rounded to the nearest integer, ties to even."""
    q, r = divmod(x, 1 << shift)
    half = 1 << (shift - 1)
    return q + (r > half or (r == half and q & 1))


def _grid_point(x, bits):
    """The center coordinate a for a fixed-point coordinate x / 2^(bits +
    _GUARD_BITS): x rounded to bits + _GUARD_BITS significant bits, then to
    the 2^-bits grid, both ties to even, as a multiprecision root at that
    precision would be.  The first rounding is coarser than the grid, and
    so sets the center, only for coordinates of modulus >= 2^_GUARD_BITS."""
    excess = abs(x).bit_length() - bits - _GUARD_BITS
    if excess > 0:
        x = _round_half_even(x, excess) << excess
    return _round_half_even(x, _GUARD_BITS)


def _refine_roots(g, bits, start):
    """Centers (a, b), meaning (a + b*i)/2^bits, near every root of g.

    Durand-Kerner sweeps, each iterate updated in place, run on Gaussian
    integers z * 2^P with P = bits + _GUARD_BITS: the correction
    g(z_i) / (lead * prod_{j != i} (z_i - z_j)) is a quotient of
    `_gauss_horner` and an integer product, floored to a multiple of
    2^-P.  `start` is a list of complex start points (the double-precision
    hints), or None for the cold start (0.4 + 0.9i)^k, k < deg g.  Stops
    once every correction of a sweep is below 2^(16 - P); returns None
    after _REFINE_SWEEPS sweeps without that, or when two iterates
    coincide.
    """
    shift = bits + _GUARD_BITS
    coeffs = g.coeffs
    lead = coeffs[-1]
    if start is None:
        start = _cold_start(g.degree)
    z = [(_fixed(w.real, shift), _fixed(w.imag, shift)) for w in start]
    for _ in range(_REFINE_SWEEPS):
        worst = 0
        for i, (zr, zi) in enumerate(z):
            nr, ni = _gauss_horner(coeffs, zr, zi, shift)
            dr, di = lead, 0
            for j, (wr, wi) in enumerate(z):
                if j != i:
                    er, ei = zr - wr, zi - wi
                    dr, di = dr * er - di * ei, dr * ei + di * er
            den = _abs2(dr, di)
            if den == 0:
                return None
            cr = (nr * dr + ni * di) // den
            ci = (ni * dr - nr * di) // den
            z[i] = (zr - cr, zi - ci)
            worst = max(worst, _abs2(cr, ci))
        if worst < 1 << 32:  # every correction below 2^16 units of 2^-P
            return [(_grid_point(a, bits), _grid_point(b, bits)) for a, b in z]
    return None


def _certified_enclosures(g, bits, hints=None):
    """Per-root disks for a squarefree integer polynomial.

    Roots are approximated by `_refine_roots` (warm-started from `hints`
    when given), then each disk of radius deg*|g(w)/g'(w)| around an
    approximation provably contains a root; if the disks are pairwise
    disjoint they isolate all roots.  Centers are dyadic a/2^bits, so
    g and g' are evaluated exactly over the Gaussian integers.  Returns a
    list of ((re, im), radius_sq_bound) sorted by (|im|, re, im), or None
    if the working precision did not separate the roots.
    """
    d = g.degree
    dg = g.derivative()
    centers = _refine_roots(g, bits, hints)
    if centers is None:
        return None
    centers.sort(key=lambda c: (abs(c[1]), c[0], c[1]))
    unit = 1 << bits
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
    return [((Fraction(a, unit), Fraction(b, unit)), r2) for (a, b), r2 in zip(centers, radii)]


def unit_root_free(p):
    """Decide whether p has a complex root of modulus exactly 1.

    Requires p nonzero with p(0) != 0.  Returns a UnitRootCertificate; the
    verdict is decided exactly and is never guessed.  A verdict settled by
    the Sturm count gets an "isolated-interval" certificate without its
    witness, which `enclose_roots` builds.
    """
    if p.is_zero():
        raise ValueError("zero polynomial")
    if p.constant() == 0:
        raise ValueError("p(0) = 0: zero eigenvalue; caller must handle it separately")
    p = p.primitive()
    g = poly_gcd(p, p.reversed_poly())
    if g.degree == 0:
        return UnitRootCertificate("free", "gcd-trivial", p)
    for d in cyclotomic_indices_up_to_degree(g.degree):
        phi = cyclotomic(d)
        if phi.degree <= g.degree and divides(phi, g):
            return UnitRootCertificate(
                "not-free", "cyclotomic-factor", p, symmetric_factor=g,
                witness={"cyclotomic_index": d, "factor": phi.to_json()},
            )
    g0 = squarefree_part(g)
    # no root at +-1 (those are cyclotomic), so g0 is palindromic of even degree
    if g0(1) == 0 or g0(-1) == 0 or not g0.is_palindromic() or g0.degree % 2:
        raise AssertionError("symmetric factor failed palindromic normalization")
    on_circle = count_real_roots(trace_polynomial(g0), Fraction(-2), Fraction(2))
    return UnitRootCertificate("not-free" if on_circle else "free", "isolated-interval", p,
                               symmetric_factor=g)


def enclose_roots(cert):
    """The certificate with its "isolated-interval" witness, built from the
    squarefree part g0 of the symmetric factor.  For "not-free", an
    interval of the trace polynomial that isolates a root in (-2, 2); for
    "free", per-root modulus enclosures of g0 (IndeterminateError if they
    stay undecided at _BUDGET_BITS bits).  A certificate of another
    method is returned as it is."""
    if cert.method != "isolated-interval":
        return cert
    g0 = squarefree_part(cert.symmetric_factor)
    if not cert.free:
        h = trace_polynomial(g0)
        lo, hi = isolate_one_real_root(h, Fraction(-2), Fraction(2))
        # the bracket may end at -2 or 2 themselves (y - 1 gives (-2, 2));
        # narrow it until the witness lies strictly inside (-2, 2)
        while lo <= -2 or hi >= 2:
            mid = (lo + hi) / 2
            if h(mid) == 0:
                mid = lo + (hi - lo) * Fraction(3, 7)
            if h(lo) * h(mid) < 0:
                hi = mid
            else:
                lo = mid
        witness = {
            "trace_poly": h.to_json(),
            "trace_interval": [str(lo), str(hi)],
            "real_part_interval": [str(lo / 2), str(hi / 2)],
            "on_circle_pairs": count_real_roots(h, Fraction(-2), Fraction(2)),
        }
        return UnitRootCertificate(cert.verdict, cert.method, cert.polynomial,
                                   cert.symmetric_factor, witness)
    hints = _root_hints(g0)
    bits = 64
    while bits <= _BUDGET_BITS:
        disks = _certified_enclosures(g0, bits, hints)
        if disks is not None:
            enclosures = []
            margins = []
            for (re, im), r2 in disks:
                mod_lo, mod_hi = _sqrt_bounds(_abs2(re, im), bits)
                r_hi = _sqrt_bounds(r2, bits)[1]
                lo, hi = mod_lo - r_hi, mod_hi + r_hi
                if not (hi < 1 or lo > 1):
                    break
                margins.append(lo - 1 if lo > 1 else 1 - hi)
                enclosures.append({
                    "center": [str(re), str(im)],
                    "radius_upper": str(r_hi),
                    "modulus_interval": [str(lo), str(hi)],
                    "margin": str(margins[-1]),
                })
            if len(enclosures) == len(disks):
                witness = {"root_enclosures": enclosures, "min_margin": str(min(margins))}
                return UnitRootCertificate(cert.verdict, cert.method, cert.polynomial,
                                           cert.symmetric_factor, witness)
        bits *= 2
    raise IndeterminateError(
        f"could not certify enclosures within {_BUDGET_BITS} bits")


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
        cert = enclose_roots(unit_root_free(reduced))
        per_r.append((r, cp, cert))
        if not cert.free:
            ok = False
            break
    return ProductsCertificate(ok=ok, r_max=r_max, per_r=per_r)
