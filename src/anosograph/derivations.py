"""Derivation algebras and nonexistence evidence for quotient algebras.

Covers the one-dimensional central quotients: the 2-step algebra modulo
<[a,b] + [c,d]> for a distinct vertex quadruple with edges ab, cd, ac, ad,
and the 3-step algebra modulo a nonzero central degree-3 vector.  Both
families are predicted to admit no hyperbolic automorphism with integer
characteristic polynomial and unit constant term; `hyperbolic_search`
hunts for counterexamples over a bounded box and is expected to come back
empty.  It counts the n! * 2^n signed permutations toward its budget
arithmetically, without building or testing them, since they have finite
order and so only root-of-unity eigenvalues, and within one call it
decides each distinct polynomial once.

Derivations of these algebras are computed from their degree-one
restrictions: the algebras are generated in degree one, so a derivation is
determined by a linear map V -> H, and such a map extends exactly when its
Leibniz image kills every defining relation.  That turns Der into the
kernel of a small exact linear system, graded by how far the map shifts
degrees.  A derivation stays in that form, its generator images as a
sparse map {(i, j): coeff} sending generator j to coeff * e_i, from the
kernel solve through the span and lift reports; full matrices are built
only when `DerivationAlgebra.basis` is read, or for a containment witness.
The Leibniz image of a relation is taken for a whole family of maps at
once, not map by map: one recursion of `GradedLieAlgebra.free_derivation`
serves every unknown E_ij of a kernel solve, and every map of `basis`.
"""

import itertools
import math
import random
from fractions import Fraction

from . import linalg
from .graphs import _echo, coherent_components
from .intpoly import IntPolynomial
from .liealg import build_graded_quotient, combine, non_edge_relations, quotient_algebra
from .spectra import unit_root_free
from .anosov import ExtensionError, _check_blocks, _scatter_block_diagonal, extend_to_algebra


class SpecError(ValueError):
    """A quotient specification failed validation."""


class QuotientSpec:
    """One-dimensional central quotient data.

    step 2: X = [alpha,beta] + [gamma,delta] for the named vertex quadruple
    (unit coefficients only; generalized coefficients are rejected).
    step 3: X is a nonzero rational vector over the degree-3 basis words of
    the 3-step graph algebra, given as ((word labels tuple, coeff), ...).
    """

    __slots__ = ("step", "vertices", "vector")

    def __init__(self, step, vertices=None, vector=None):
        self.step = step
        self.vertices = vertices
        self.vector = vector

    def validate(self, graph):
        if self.step == 2:
            if not self.vertices or len(self.vertices) != 4:
                raise SpecError("step-2 spec needs exactly four vertices")
            try:
                a, b, c, d = (graph.index[v] for v in self.vertices)
            except KeyError as e:
                raise SpecError(f"unknown vertex {_echo(e.args[0])!r}") from None
            if len({a, b, c, d}) != 4:
                raise SpecError("the four vertices must be distinct")
            for u, v, which in ((a, b, "alpha beta"), (c, d, "gamma delta"),
                                (a, c, "alpha gamma"), (a, d, "alpha delta")):
                if not graph.adjacent(u, v):
                    raise SpecError(f"required edge {which} is missing")
            return (a, b, c, d)
        if self.step == 3:
            return self._vector_in(quotient_algebra(graph, 3))
        raise SpecError(f"step must be 2 or 3, not {self.step}")

    def _vector_in(self, base):
        """Step-3 X as {word: coeff} over the degree-3 basis words of the
        3-step graph algebra `base`."""
        if not self.vector:
            raise SpecError("step-3 spec needs a nonzero degree-3 vector")
        words3 = set(base.basis_words[3])
        coeffs = {}
        for labels, c in self.vector:
            try:
                word = tuple(base.graph.index[l] for l in labels)
            except KeyError as e:
                raise SpecError(f"unknown vertex {_echo(e.args[0])!r}") from None
            if word not in words3:
                raise SpecError(
                    f"{_echo('.'.join(labels))} is not a degree-3 basis word of this algebra"
                )
            coeffs[word] = coeffs.get(word, Fraction(0)) + Fraction(c)
        coeffs = {w: c for w, c in coeffs.items() if c}
        if not coeffs:
            raise SpecError("the degree-3 vector X must be nonzero")
        return coeffs

    @classmethod
    def from_json(cls, data):
        if not isinstance(data, dict):
            raise SpecError("a quotient spec must be a JSON object")
        step = data.get("step")
        if step == 2:
            try:
                vs = tuple(data[name] for name in ("alpha", "beta", "gamma", "delta"))
            except KeyError as e:
                raise SpecError(f"missing field {e.args[0]!r}") from None
            if not all(isinstance(v, str) for v in vs):
                raise SpecError("step-2 spec vertices must be strings")
            return cls(step=2, vertices=vs)
        if step == 3:
            vec = data.get("vector")
            if not isinstance(vec, dict) or not vec:
                raise SpecError("step-3 spec needs a nonempty 'vector' object")
            if not all(isinstance(word, str) for word in vec):
                raise SpecError("step-3 spec words must be strings")
            return cls(step=3, vector=tuple(
                (tuple(word.split(".")), _coefficient(word, c))
                for word, c in sorted(vec.items())))
        raise SpecError("spec 'step' must be 2 or 3")


def _coefficient(word, c):
    """A spec coefficient: a JSON number, or a string "p" or "p/q"."""
    try:
        if isinstance(c, str):
            num, _, den = c.partition("/")
            return Fraction(int(num), int(den) if den else 1)
        if isinstance(c, (int, float)) and not isinstance(c, bool):
            return Fraction(c)
    except (ValueError, ZeroDivisionError, OverflowError):
        pass
    # the value's type, not the value: a large or deeply nested one would
    # fill the error line
    raise SpecError(f"coefficient of {_echo(word)} must be a number or a string 'p/q' "
                    f"(got a {type(c).__name__})")


def _step2_relation(indices):
    a, b, c, d = indices
    rel = {}
    for u, v in ((a, b), (c, d)):
        if u < v:
            rel[(u, v)] = rel.get((u, v), 0) + 1
        else:
            rel[(v, u)] = rel.get((v, u), 0) - 1
    return rel


def build_quotient(graph, spec):
    """The graph algebra modulo the one-dimensional central ideal <X>.

    X is a top-degree vector outside the relations, so the quotient loses
    exactly one dimension: `validate` makes a step-2 X = +-[a, b] +- [c, d]
    on four distinct vertices with edges ab and cd, two distinct basis
    brackets, and `_vector_in` a step-3 X a nonzero sum of basis words,
    the non-pivot words of the relation rows.
    """
    if spec.step == 3:
        base = quotient_algebra(graph, 3)
        gens = non_edge_relations(graph) + [(3, spec._vector_in(base))]
        return build_graded_quotient(graph, 3, gens)
    rel = _step2_relation(spec.validate(graph))
    return build_graded_quotient(graph, 2, non_edge_relations(graph) + [(2, rel)])


# -- derivations --------------------------------------------------------------


def _derivations_in_span(algebra, conditions, pairs):
    """Basis of the maps in span{E_ij : (i, j) in pairs} that satisfy every
    condition; E_ij sends generator j to basis element i.

    A condition (rel, basis) asks that the free derivation of the relation
    rel = {free word: coeff} vanish modulo the row space of basis, an rref
    basis {pivot: row} from `linalg.rref` ({} for none).  The pairs are one
    family of free derivations, pair position col the member E_ij, so one
    recursion gives every relation's image under every member, and a
    member whose letter j the relation lacks gives no entry.  Each basis
    map is returned as its generator images, a sparse map {(i, j): coeff}
    sending generator j to coeff * e_i.
    """
    if not pairs:
        return []
    images = [{} for _ in algebra.generators]
    for col, (i, j) in enumerate(pairs):
        images[j][col] = {i: 1}
    d = algebra.free_derivation(images)
    rows = {}  # condition coordinate -> {pair position: coeff}
    for ci, (rel, basis) in enumerate(conditions):
        terms = {}  # pair position -> the (coeff, image) terms of rel
        for w, c in rel.items():
            for col, x in d(w).items():
                terms.setdefault(col, []).append((c, x))
        for col, t in terms.items():
            img = combine(t)
            if basis:
                img = linalg.reduce_mod_rows(basis, img)
            for r, x in img.items():
                rows.setdefault((ci, r), {})[col] = x
    return [{pairs[col]: x for col, x in vec.items()}
            for vec in linalg.kernel_basis(list(rows.values()), len(pairs))]


def _matrix(m, size):
    """The sparse map {(i, j): coeff} as a size x size matrix."""
    return [[m.get((i, j), 0) for j in range(size)] for i in range(size)]


class DerivationAlgebra:
    """A basis of Der(A), each derivation stored as its generator images.

    The algebra is generated in degree one, so a derivation is determined
    by where it sends the generators: `maps` holds one sparse map
    {(i, j): coeff} per derivation, sending generator j to coeff * e_i, and
    `weights` the degree shift of each.  `basis` extends the maps to full
    matrices on every read.
    """

    __slots__ = ("algebra", "maps", "weights")

    def __init__(self, algebra, maps, weights):
        self.algebra = algebra  # the GradedLieAlgebra the derivations act on
        self.maps = maps
        self.weights = weights

    @property
    def dimension(self):
        return len(self.maps)

    @property
    def basis(self):
        """The derivations as full dim x dim matrices, D[r][c] the e_r
        coefficient of D(e_c), all extended in one recursion with the maps
        as one family of free derivations."""
        a = self.algebra
        images = [{} for _ in a.generators]
        for member, m in enumerate(self.maps):
            for (i, j), x in m.items():
                images[j].setdefault(member, {})[i] = x
        d = a.free_derivation(images)
        columns = [d(a.word_of(c)) for c in range(a.dim)]
        out = []
        for member in range(len(self.maps)):
            cols = [col.get(member, {}) for col in columns]
            out.append([[col.get(r, 0) for col in cols] for r in range(a.dim)])
        return out


def derivation_algebra(algebra, v_stable=False):
    """Basis of Der(A): all D with D[x,y] = [Dx,y] + [x,Dy].

    The algebra is generated in degree one, so solutions are parametrized
    by generator images; with v_stable=True only maps with D(V) inside V
    are kept (the degree-preserving weight-zero part).
    """
    conditions = [(rel, {}) for _, rel in algebra.relation_generators]
    n = len(algebra.generators)
    maps, weights = [], []
    top = 1 if v_stable else algebra.k
    for t in range(1, top + 1):
        base = algebra.offsets[t]
        pairs = [(base + p, j) for j in range(n) for p in range(algebra.dims[t - 1])]
        found = _derivations_in_span(algebra, conditions, pairs)
        maps.extend(found)
        weights.extend([t - 1] * len(found))
    return DerivationAlgebra(algebra, maps, weights)


# -- Proposition 5.3 / 5.4 evidence -------------------------------------------


class SpanReport:
    __slots__ = ("ok", "dim_total", "families", "missing_from_families", "missing_from_computed")

    def __init__(self, ok, dim_total, families, missing_from_families, missing_from_computed):
        self.ok = ok
        self.dim_total = dim_total
        self.families = families  # name -> {"dim": int}
        # witness matrices, if containment fails
        self.missing_from_families = missing_from_families
        self.missing_from_computed = missing_from_computed

    def to_json(self):
        return {
            "ok": self.ok,
            "dim_v_stable_derivations": self.dim_total,
            "families": dict(sorted(self.families.items())),
            "missing_from_families": [
                [[str(x) for x in row] for row in m] for m in self.missing_from_families
            ],
            "missing_from_computed": [
                [[str(x) for x in row] for row in m] for m in self.missing_from_computed
            ],
        }


def span_report(graph, spec):
    """Check the predicted spanning families against the computed algebra
    of V-stabilizing derivations of the step-2 quotient, both ways.

    A containment failure is surfaced with an explicit witness matrix.
    """
    if spec.step != 2:
        raise SpecError("span_report applies to step-2 quotient specs")
    algebra = build_quotient(graph, spec)
    return _span_report(algebra, spec.validate(graph),
                        derivation_algebra(algebra, v_stable=True).maps)


def _span_report(algebra, indices, computed):
    """`span_report` on the built step-2 quotient, given the vertex indices
    of its spec and the maps of its V-stable derivations."""
    a, b, c, d = indices
    n = len(algebra.generators)
    conditions = [(rel, {}) for _, rel in algebra.relation_generators]
    sprime = {a, b, c, d}
    outside = [v for v in range(n) if v not in sprime]

    families, members = {}, []

    def put(name, maps):
        families[name] = {"dim": len(maps)}
        members.extend(maps)

    put("diagonal", _derivations_in_span(algebra, conditions, [(i, i) for i in range(n)]))
    for name, (p, q, r, s) in {
        "W_alpha_delta__gamma_beta": (a, d, c, b),
        "W_beta_gamma__delta_alpha": (b, c, d, a),
        "W_alpha_gamma__delta_beta": (a, c, d, b),
        "W_gamma_alpha__beta_delta": (c, a, b, d),
    }.items():
        put(name, _derivations_in_span(algebra, conditions, [(p, q), (r, s)]))
    for name, pairs in {
        "type_i": [(e, z) for e in outside for z in outside if e != z],
        "type_ii": [(e, z) for e in sprime for z in outside],
        "type_iii": [(e, z) for e in outside for z in sprime],
        "type_iv": [(a, b), (c, d), (b, a), (d, c)],
    }.items():
        # E_ij alone is a derivation iff its column of condition rows is zero,
        # iff its unit vector is a kernel vector (row operations keep it zero)
        put(name, [m for m in _derivations_in_span(algebra, conditions, pairs) if len(m) == 1])

    fam_basis = linalg.rref(members)
    comp_basis = linalg.rref(computed)
    missing_from_families = [_matrix(m, n) for m in computed
                             if linalg.reduce_mod_rows(fam_basis, m)]
    missing_from_computed = [_matrix(m, n) for m in members
                             if linalg.reduce_mod_rows(comp_basis, m)]
    return SpanReport(
        ok=not missing_from_families and not missing_from_computed,
        dim_total=len(computed),
        families=families,
        missing_from_families=missing_from_families,
        missing_from_computed=missing_from_computed,
    )


def lift_check(graph, spec):
    """Infinitesimal lift surjectivity for the step-2 quotient.

    Compares V-stabilizing derivations of the quotient against derivations
    of the unquotiented algebra that keep <X> invariant; the proposition
    predicts the restriction map is onto, i.e. equal dimensions.
    """
    if spec.step != 2:
        raise SpecError("lift_check applies to step-2 quotient specs")
    algebra = build_quotient(graph, spec)
    return _lift_check(algebra, spec.validate(graph),
                       derivation_algebra(algebra, v_stable=True).maps)


def _lift_check(algebra, indices, q_maps):
    """`lift_check` on the built step-2 quotient, given the vertex indices
    of its spec and the maps of its V-stable derivations."""
    graph = algebra.graph
    base = quotient_algebra(graph, 2)
    xrel = _step2_relation(indices)
    x = combine((c, base.project(w)) for w, c in xrel.items())
    conditions = [(rel, {}) for _, rel in base.relation_generators]
    conditions.append((xrel, linalg.rref([x])))
    all_pairs = [(i, j) for j in range(graph.n) for i in range(graph.n)]
    lifted = _derivations_in_span(base, conditions, all_pairs)

    # every lift restricts to a quotient derivation; onto-ness is the claim
    q_basis = linalg.rref(q_maps)
    return (len(lifted) == len(q_maps)
            and not any(linalg.reduce_mod_rows(q_basis, m) for m in lifted))


# -- bounded nonexistence search ----------------------------------------------


class SearchFinding:
    __slots__ = ("matrix", "char_poly", "certificate", "degree_blocks")

    def __init__(self, matrix, char_poly, certificate, degree_blocks):
        self.matrix = matrix
        self.char_poly = char_poly
        self.certificate = certificate
        self.degree_blocks = degree_blocks

    def to_json(self):
        return {
            "matrix": self.matrix,
            "char_poly": self.char_poly,
            "certificate": self.certificate,
            "degree_blocks": {str(m): b for m, b in sorted(self.degree_blocks.items())},
        }


def _is_signed_permutation(g):
    """Whether g has one nonzero entry, +-1, in each row and each column."""
    cols = []
    for row in g:
        nonzero = [j for j, x in enumerate(row) if x]
        if len(nonzero) != 1 or abs(row[nonzero[0]]) != 1:
            return False
        cols.append(nonzero[0])
    return len(set(cols)) == len(g)


def _box_unimodular(d, bound):
    for entries in itertools.product(range(-bound, bound + 1), repeat=d * d):
        m = [list(entries[i * d:(i + 1) * d]) for i in range(d)]
        if linalg.det_bareiss(m) in (1, -1):
            yield m


_BLOCK_PHASE_RAW_LIMIT = 10 ** 6


def _block_diagonal_candidates(graph, bound):
    """Class-respecting block-diagonal candidates, the structured phase.

    Classes of one size share one sweep of their unimodular box.  Skipped
    entirely when some class's raw coefficient box is too large to sweep;
    the random phase still covers those graphs.
    """
    classes = coherent_components(graph).classes
    sizes = dict.fromkeys(map(len, classes))
    if any((2 * bound + 1) ** (d * d) > _BLOCK_PHASE_RAW_LIMIT for d in sizes):
        return
    boxes = {d: list(_box_unimodular(d, bound)) for d in sizes}
    for combo in itertools.product(*(boxes[len(cls)] for cls in classes)):
        yield _scatter_block_diagonal(graph.n, classes, combo)


def hyperbolic_search(algebra, entry_bound, budget, seed=0):
    """Hunt for hyperbolic automorphisms with integral unit-constant-term
    characteristic polynomial, over degree-one integer matrices with
    entries in [-entry_bound, entry_bound] and determinant +-1.

    Degree-one maps carry all the spectral content: the graded blocks they
    induce are forced, and the remaining unipotent corrections to an
    automorphism are triangular and leave eigenvalues unchanged.
    Candidates come in a fixed order: signed permutations, block-diagonal
    maps respecting the coherent classes, then a seeded random stream, up
    to `budget` distinct candidates or the whole box, whichever is
    smaller.  The n! * 2^n signed permutations (none at entry bound 0) are
    counted, not built, and a later candidate that is one is skipped as a
    duplicate.  None needs a test: P^(2m) is the identity for m the lcm of
    its cycle lengths, so every eigenvalue of every block a signed
    permutation P induces is a root of unity.  Every other candidate
    that extends to the algebra and passes `anosov._check_blocks` is
    returned in full, with the `unit_root_free` certificate of its
    polynomial.  Within one call each distinct polynomial is decided by
    `unit_root_free` once.  An empty list is expected on the quotients,
    and the searched box is part of the report.
    """
    if entry_bound < 0:
        raise ValueError(f"entry bound must be >= 0, not {entry_bound}")
    if budget < 0:
        raise ValueError(f"budget must be >= 0, not {budget}")
    n = len(algebra.generators)
    limit = min(budget, (2 * entry_bound + 1) ** (n * n))
    # the n! * 2^n signed permutations lie in the box once it holds +-1
    counted = math.factorial(n) << n if entry_bound >= 1 else 0
    rng = random.Random(seed)

    def random_stream():
        while True:
            yield [[rng.randint(-entry_bound, entry_bound) for _ in range(n)] for _ in range(n)]

    # both streams stay in the box; the random one never ends, so neither does the chain
    candidates = itertools.chain(_block_diagonal_candidates(algebra.graph, entry_bound),
                                 random_stream())
    decisions = {}

    def decide(p):
        if p not in decisions:
            decisions[p] = unit_root_free(p)
        return decisions[p]

    findings = []
    seen = set()
    while counted + len(seen) < limit:
        g = next(candidates)
        key = tuple(tuple(row) for row in g)
        if key in seen or _is_signed_permutation(g):  # a signed permutation is already counted
            continue
        seen.add(key)
        if linalg.det_bareiss(g) not in (1, -1):
            continue
        try:
            blocks = extend_to_algebra(algebra, g)
        except ExtensionError:
            continue
        ok, payload = _check_blocks(blocks, decide)
        if ok:
            p = math.prod(payload[0].values(), start=IntPolynomial([1]))
            findings.append(SearchFinding(
                matrix=[list(row) for row in g],
                char_poly=p.to_json(),
                certificate=decide(p).to_json(),
                degree_blocks={m: [[str(x) for x in row] for row in b]
                               for m, b in blocks.items()},
            ))
    return findings
