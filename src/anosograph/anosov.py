"""Deciding and constructing hyperbolic lattice-preserving automorphisms.

`decide_anosov` refuses a graph's k-step nilmanifold iff some union S
of coherent classes has at most k vertices and induces a connected
subgraph.  A word that uses each vertex of S once survives in the
algebra exactly when G[S] is connected, and then every
class-block-diagonal automorphism has the eigenvalue +-prod det(A_i) =
+-1 in degree |S| (the class-union argument follows Dani-Mainkar,
Trans. AMS 2005).  A class of two or more vertices is a clique (true
twins) or independent (false twins), and two classes joined by one edge
are joined by all, so the rule reduces to single classes and adjacent
class pairs: refuse iff a class is a singleton, or a clique of at most
k vertices, or two adjacent independent classes have at most k vertices
together.  The 4-cycle, two classes of two, is admitted at k <= 3 and
refused from k = 4.  When the rule admits, the constructive route is
followed: one unimodular integer matrix per class whose r-fold
eigenvalue products avoid the unit circle for
r <= min(k, class size d - 1), the companion of the Pisot polynomial
x^d - x^(d-1) - ... - 1, per-class exponents escalated over a
deterministic ladder, and the resulting degree-one map extended through
the graded algebra, bracket by bracket inside the quotient.  The
eigenvalues of every degree block are fixed by the class matrices alone,
so `synthesize` decides each rung on the characteristic polynomials that
`liealg.block_char_polys` reads from the class polynomials and exponents
in closed form, and extends only the rung that passes, to record its
blocks.  `verify_certificate` and `derivations.hyperbolic_search` build
the blocks and take their polynomials by Berkowitz, so the checker shares
no spectral code with the producer.  All three decide hyperbolicity with
the one polynomial gate `_check_polys`.  A certificate records the
`unit_root_free` certificate of each degree; a "free" one settled by the
Sturm count carries the trace polynomial of its symmetric factor
(schema 2), which `verify_certificate` checks again by exact polynomial
arithmetic and a Descartes count.  Schema-1 certificates carry root
disks in its place, which it re-derives exactly from their recorded
centers.  Extension and verification use
only the quotient's basis and structure constants; the free-algebra
coordinates stay inside `liealg`.
"""

import itertools
import json
import math

from . import linalg
from .graphs import coherent_components
from .intpoly import IntPolynomial
from .liealg import block_char_polys, combine, graph_algebra_dims, quotient_algebra
from .spectra import (char_poly, enclosures_hold, products_off_circle, trace_witness_holds,
                      unit_root_free)


class NotAdmissibleError(RuntimeError):
    def __init__(self, verdict):
        self.verdict = verdict
        super().__init__("graph does not admit an Anosov automorphism at this step")


class LadderExhaustedError(RuntimeError):
    pass


class ExtensionError(ValueError):
    """The degree-one map does not descend to the quotient algebra."""


class Violation:
    __slots__ = ("class_index", "reason", "offending_edge")

    def __init__(self, class_index, reason, offending_edge=None):
        self.class_index = class_index
        # "singleton-class" | "internal-edge-in-small-class" | "small-adjacent-class-pair"
        self.reason = reason
        self.offending_edge = offending_edge  # (label, label) or None

    def to_json(self):
        out = {"class_index": self.class_index, "reason": self.reason}
        if self.offending_edge is not None:
            out["offending_edge"] = list(self.offending_edge)
        return out


class AnosovVerdict:
    __slots__ = ("k", "admits", "violations")

    def __init__(self, k, admits, violations):
        self.k = k
        self.admits = admits
        self.violations = violations  # tuple of Violation

    def to_json(self):
        return {
            "k": self.k,
            "admits": self.admits,
            "violations": [v.to_json() for v in self.violations],
        }


def decide_anosov(partition, k):
    """Evaluate the admissibility criterion on a coherent partition: one
    violation per singleton class, per clique class of at most k vertices
    (naming the edge of its first two members), and per adjacent pair of
    independent classes, neither a singleton, with at most k vertices
    together (in sorted pair order)."""
    if k < 2:
        raise ValueError("step k must be >= 2")
    g = partition.graph
    classes, cliques = partition.classes, partition.cliques
    violations = []
    for ci, cls in enumerate(classes):
        if len(cls) < 2:
            violations.append(Violation(ci, "singleton-class"))
            continue
        if len(cls) <= k and cliques[ci]:
            violations.append(Violation(
                ci, "internal-edge-in-small-class",
                offending_edge=(g.vertices[cls[0]], g.vertices[cls[1]]),
            ))
    for ci, cj in partition.class_pairs():
        a, b = classes[ci], classes[cj]
        if (not cliques[ci] and not cliques[cj] and len(a) >= 2 and len(b) >= 2
                and len(a) + len(b) <= k):
            # cross-class adjacency is uniform, so the first members are adjacent
            violations.append(Violation(
                ci, "small-adjacent-class-pair",
                offending_edge=(g.vertices[a[0]], g.vertices[b[0]]),
            ))
    return AnosovVerdict(k=k, admits=not violations, violations=tuple(violations))


# -- per-class component matrices -------------------------------------------


def companion_matrix(poly):
    """Companion matrix of a monic integer polynomial."""
    d = poly.degree
    assert poly.leading() == 1
    m = [[0] * d for _ in range(d)]
    for i in range(1, d):
        m[i][i - 1] = 1
    for i in range(d):
        m[i][d - 1] = -poly.coeffs[i]
    return m


class ComponentMatrix:
    __slots__ = ("matrix", "poly", "products", "r_max")

    def __init__(self, matrix, poly, products, r_max):
        self.matrix = matrix
        self.poly = poly  # IntPolynomial
        self.products = products  # ProductsCertificate
        self.r_max = r_max

    def to_json(self):
        return {
            "matrix": self.matrix,
            "char_poly": self.poly.to_json(),
            "r_max": self.r_max,
            # the certificate records the index of x^d - x^(d-1) - ... - 1 in the
            # coefficient enumeration that once searched for a component,
            # after x^d - 1 and x^d + 1 (roots on the unit circle)
            "candidate_index": 2,
            "products": self.products.to_json(),
        }


def find_component_matrix(d, k):
    """The companion matrix of P = x^d - x^(d-1) - ... - x - 1 in GL(d, Z),
    with its r-fold eigenvalue products certified off the unit circle for
    every r <= min(k, d-1).

    P is a Pisot polynomial (Brauer, 1951): one real root beta > 1, the
    other d-1 roots strictly inside the unit disk, and the product of all
    d roots has modulus |P(0)| = 1.  An r-subset S of the roots with
    r <= d-1 has |prod S| < 1 if beta is not in S; otherwise its
    complement T is nonempty without beta, and |prod S| = 1/|prod T| > 1.
    So the certification cannot fail, and failing it raises AssertionError.
    """
    if d < 2:
        raise ValueError("component dimension must be >= 2")
    poly = IntPolynomial([-1] * d + [1])
    component = _component(companion_matrix(poly), poly, k)
    if not component.products.ok:
        raise AssertionError(f"Pisot companion of degree {d} has a product on the unit circle")
    return component


def _component(a, poly, k):
    """The ComponentMatrix of a, whose char poly is `poly`, up to r_max = min(k, len(a) - 1)."""
    r_max = min(k, len(a) - 1)
    return ComponentMatrix(matrix=a, poly=poly, products=products_off_circle(a, r_max),
                           r_max=r_max)


# -- graded extension --------------------------------------------------------


def extend_to_algebra(algebra, g):
    """Degree blocks of the algebra endomorphism induced by a degree-one map.

    The map extends to the free algebra as a homomorphism; its composite
    f with the projection onto the quotient is `algebra.image_map`, which
    brackets in the quotient word by word.  The projection is a Lie
    homomorphism, so the map descends iff f kills every defining relation,
    which is checked exactly before any block is read off (on a graph algebra,
    block-diagonal maps across coherent classes always pass).  Returns
    {degree: matrix} on the algebra's basis, degree 1 included.
    """
    n = len(algebra.generators)
    if len(g) != n or any(len(row) != n for row in g):
        raise ValueError("degree-one matrix has the wrong shape")
    f = algebra.image_map([{i: g[i][j] for i in range(n) if g[i][j]} for j in range(n)])
    for deg, rel in algebra.relation_generators:
        if combine((c, f(w)) for w, c in rel.items()):
            raise ExtensionError(
                f"degree-one map does not preserve the degree-{deg} relation space"
            )
    blocks = {}
    for m in range(1, algebra.k + 1):
        columns = [f(w) for w in algebra.basis_words[m]]
        blocks[m] = [[col.get(i, 0) for col in columns]
                     for i in range(algebra.offsets[m], algebra.offsets[m] + len(columns))]
    return blocks


# -- synthesis ---------------------------------------------------------------


MAX_EXPONENT = 64  # the largest exponent on the ladder
MAX_RUNGS = 100000  # the ladder rungs `synthesize` tries

_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


def _exponent_ladder(num_classes, max_exponent):
    """Per-class prime-power exponent tuples in (sum, tuple) order, made one
    at a time, never as the product of the per-class options.  For each sum,
    class i runs through its options in order and takes one only when the
    classes after it can still make up the rest (`reach[i]` holds the sums
    classes i, i+1, ... reach), so no branch is a dead end."""
    primes = (_PRIMES[c % len(_PRIMES)] for c in range(num_classes))
    options = [[p ** e for e in range(max_exponent.bit_length()) if p ** e <= max_exponent]
               for p in primes]
    reach = [{0}]
    for opts in reversed(options):
        reach.append({s + v for s in reach[-1] for v in opts})
    reach.reverse()

    def rungs(i, rest, rung):
        if i == num_classes:
            yield rung
            return
        for v in options[i]:
            if rest - v in reach[i + 1]:
                yield from rungs(i + 1, rest - v, rung + (v,))

    for total in sorted(reach[0]):
        yield from rungs(0, total, ())


def _scatter_block_diagonal(n, classes, mats):
    """Place per-class matrices at their members' vertex indices."""
    g = [[0] * n for _ in range(n)]
    for cls, a in zip(classes, mats):
        for r, vr in enumerate(cls):
            for c, vc in enumerate(cls):
                g[vr][vc] = a[r][c]
    return g


def _powered_degree_one(n, classes, matrices, exponents):
    """The degree-one map: each class's component matrix to its exponent."""
    return _scatter_block_diagonal(
        n, classes, [linalg.mat_pow(a, j) for a, j in zip(matrices, exponents)])


class AutomorphismCertificate:
    __slots__ = ("graph_digest", "k", "classes", "components", "exponents", "degree_blocks",
                 "char_polys", "unit_root_certs", "determinants", "schema")

    def __init__(self, graph_digest, k, classes, components, exponents, degree_blocks,
                 char_polys, unit_root_certs, determinants, schema=2):
        self.graph_digest = graph_digest
        self.k = k
        self.classes = classes  # per class, list of vertex labels
        self.components = components  # per class, ComponentMatrix json
        self.exponents = exponents
        self.degree_blocks = degree_blocks  # degree -> integer matrix
        self.char_polys = char_polys  # degree -> ascending coefficients
        self.unit_root_certs = unit_root_certs  # degree -> certificate json
        self.determinants = determinants  # degree -> +-1
        # 2 records trace-polynomial witnesses; 1, root disks in their place
        self.schema = schema

    def to_json(self):
        return {
            "schema": self.schema,
            "graph_digest": self.graph_digest,
            "k": self.k,
            "classes": self.classes,
            "components": self.components,
            "exponents": self.exponents,
            "degree_blocks": {str(m): b for m, b in sorted(self.degree_blocks.items())},
            "char_polys": {str(m): p for m, p in sorted(self.char_polys.items())},
            "unit_root_certs": {str(m): c for m, c in sorted(self.unit_root_certs.items())},
            "determinants": {str(m): d for m, d in sorted(self.determinants.items())},
        }

    @classmethod
    def from_json(cls, data):
        """Parse a certificate: KeyError for a missing field, ValueError for
        an unknown key, a schema other than the int 1 or 2, a degree keyed
        other than as str(m), or a field of the wrong type or shape."""

        def require(ok, field):
            if not ok:
                raise ValueError(f"malformed certificate field {field!r}")

        require(isinstance(data, dict), "(top level)")
        # an unknown key is named by its first 64 characters only, so
        # the error stays one short line
        for key in data:
            require(key in _CERTIFICATE_KEYS, key[:64])
        require(type(data["schema"]) is int and data["schema"] in (1, 2), "schema")
        classes, components, exponents = data["classes"], data["components"], data["exponents"]
        require(isinstance(data["graph_digest"], str), "graph_digest")
        require(type(data["k"]) is int and data["k"] >= 2, "k")
        require(isinstance(classes, list) and all(isinstance(c, list) for c in classes), "classes")
        require(isinstance(components, list) and len(components) == len(classes)
                and all(isinstance(c, dict) and _is_square_int_matrix(c.get("matrix"), len(cl))
                        for c, cl in zip(components, classes)), "components")
        for i, comp in enumerate(components):
            for key in comp:
                require(key in _COMPONENT_KEYS, f"components[{i}].{key[:64]}")
        require(isinstance(exponents, list) and len(exponents) == len(classes)
                and all(type(e) is int and e >= 0 for e in exponents), "exponents")
        maps = {}
        for name, kind in (("degree_blocks", list), ("char_polys", list),
                           ("unit_root_certs", dict), ("determinants", int)):
            values = data[name]
            require(isinstance(values, dict) and all(isinstance(v, kind) and _is_int_json(v)
                                                     for v in values.values()), name)
            maps[name] = {int(m): v for m, v in values.items()}
            # keys are str(m) only, else "01" could hide an unchecked copy of degree 1
            require(list(map(str, maps[name])) == list(values), name)
        require(all(map(_is_square_int_matrix, maps["degree_blocks"].values())), "degree_blocks")
        return cls(graph_digest=data["graph_digest"], k=data["k"], classes=classes,
                   components=components, exponents=exponents, schema=data["schema"], **maps)


# the keys AutomorphismCertificate.to_json and ComponentMatrix.to_json
# write; from_json refuses any other, so a file cannot carry extra content
_CERTIFICATE_KEYS = frozenset((
    "schema", "graph_digest", "k", "classes", "components", "exponents",
    "degree_blocks", "char_polys", "unit_root_certs", "determinants"))
_COMPONENT_KEYS = frozenset(("matrix", "char_poly", "r_max", "candidate_index", "products"))


def _is_square_int_matrix(m, n=None):
    """m is a list of n lists of n ints; n defaults to len(m)."""
    if not isinstance(m, list):
        return False
    n = len(m) if n is None else n
    return len(m) == n and all(isinstance(row, list) and len(row) == n
                               and all(type(x) is int for x in row) for row in m)


def _is_int_json(v, depth=8):
    """v is JSON whose numbers are all ints (no float, no bool, no null),
    nested at most `depth` deep; no recorded value nests deeper than 5.
    Python equality takes true and 1.0 for 1, so recorded values are held
    to this before they are compared with re-derived ones."""
    if isinstance(v, (dict, list)):
        items = v.values() if isinstance(v, dict) else v
        return depth > 0 and all(_is_int_json(x, depth - 1) for x in items)
    return isinstance(v, str) or type(v) is int


def _first_non_int_block(blocks):
    """The smallest degree whose block is not an int matrix, or None."""
    return next((m for m, b in sorted(blocks.items()) if not _is_square_int_matrix(b)), None)


def _check_polys(degrees, poly_of, decide):
    """The hyperbolicity gate on the characteristic polynomials
    poly_of(m) of the degree blocks, m in `degrees` ascending.

    Degree by degree, the first failure wins: poly_of(m) raises no
    ValueError (an integral characteristic polynomial), a determinant of
    +-1, then no unit-modulus root.  poly_of is called one degree at a
    time.  The gate only decides, by decide(p): `unit_root_free`, or a
    search's memo of it.
    Returns (True, (char_polys, certs, dets)) or (False, (kind, reason))
    with kind "unimodularity" / "unit-root-freeness".
    """
    char_polys, certs, dets = {}, {}, {}
    for m in degrees:
        try:
            cp = poly_of(m)
        except ValueError as e:
            return False, ("unimodularity", f"degree-{m} block: {e}")
        det = (-1) ** cp.degree * cp.constant()  # cp(0) = det(-A), cp monic
        if det not in (1, -1):
            return False, ("unimodularity",
                           f"degree-{m} block determinant {det} is not a unit")
        char_polys[m], certs[m], dets[m] = cp, decide(cp), det
        if not certs[m].free:
            return False, ("unit-root-freeness",
                           f"degree-{m} block has a unit-modulus eigenvalue")
    return True, (char_polys, certs, dets)


def _recorded(payload):
    """The char_polys, determinants and unit_root_certs fields of a
    certificate, from the payload of a passing `_check_polys`."""
    char_polys, certs, dets = payload
    return {"char_polys": {m: p.to_json() for m, p in char_polys.items()},
            "determinants": dets,
            "unit_root_certs": {m: c.to_json() for m, c in certs.items()}}


def _check_blocks(blocks, decide):
    """`_check_polys` on the Berkowitz polynomials of blocks {degree: matrix}."""
    return _check_polys(sorted(blocks), lambda m: char_poly(blocks[m]), decide)


def synthesize(graph, k):
    """Construct and certify a hyperbolic lattice-preserving automorphism.

    Each class of size d gets the Pisot companion matrix
    `find_component_matrix(d, k)` and, as in the existence argument, only
    the exponents vary after that: one pass over the ladder, until a rung
    passes `_check_polys` on the characteristic polynomials that
    `block_char_polys` reads from the class polynomials and exponents.
    Only that rung is extended to the algebra, to record its blocks.  The
    ladder stops after MAX_RUNGS rungs.
    """
    partition = coherent_components(graph)
    verdict = decide_anosov(partition, k)
    if not verdict.admits:
        raise NotAdmissibleError(verdict)
    components = {d: find_component_matrix(d, k)
                  for d in dict.fromkeys(map(len, partition.classes))}
    per_class = [components[len(cls)] for cls in partition.classes]
    class_polys = [c.poly for c in per_class]
    dims = graph_algebra_dims(partition, k)
    algebra = None
    last_failure = None
    ladder = _exponent_ladder(len(partition.classes), MAX_EXPONENT)
    for exponents in itertools.islice(ladder, MAX_RUNGS):
        polys = block_char_polys(partition, class_polys, exponents, dims)
        ok, payload = _check_polys(sorted(polys), polys.get, unit_root_free)
        if not ok:
            last_failure = f"exponents {exponents}: {payload[1]}"
            continue
        if algebra is None:
            algebra = quotient_algebra(graph, k)
        g = _powered_degree_one(graph.n, partition.classes, [c.matrix for c in per_class],
                                exponents)
        blocks = extend_to_algebra(algebra, g)
        bad = _first_non_int_block(blocks)
        if bad is not None:
            last_failure = f"exponents {exponents}: degree-{bad} block is not integral"
            continue
        return AutomorphismCertificate(
            graph_digest=graph.digest(),
            k=k,
            classes=partition.class_labels(),
            components=[c.to_json() for c in per_class],
            exponents=list(exponents),
            degree_blocks=blocks,
            **_recorded(payload),
        )
    if next(ladder, None) is not None:
        raise LadderExhaustedError(
            f"synthesis budget {MAX_RUNGS} exhausted (last failure: {last_failure})")
    raise LadderExhaustedError(
        f"exponent ladder exhausted at max_exponent {MAX_EXPONENT} "
        f"(last failure: {last_failure})"
    )


# -- verification -------------------------------------------------------------


def verify_certificate(graph, cert):
    """Independently re-derive everything a certificate claims.

    Rebuilds the algebra, recomputes the partition, and checks: digest
    binding, the block-diagonal shape of degree one, exact bracket
    compatibility F[e_i, e_j] = [F e_i, F e_j] for generators e_i, int
    matrix blocks, `_check_blocks`, that the recorded char_polys,
    determinants and unit_root_certs are the re-derived ones (a schema-1
    certificate's root disks, re-derived from their centers by
    `enclosures_hold`, in place of the trace polynomial), that each trace
    polynomial passes `trace_witness_holds`, whose Descartes count shares
    no code with the Sturm count of `unit_root_free`, and that each
    component records what `_component` writes for its matrix.  Returns
    (ok, report); the report names the first failing check.  Generators
    suffice, as by Jacobi the x with F[x, y] = [Fx, Fy] for all y form a
    subalgebra, and they come first in the pair order, so the first
    failing pair is the one an all-pairs loop finds.
    """
    report = {"checks": []}

    def fail(name, detail):
        report["checks"].append({"name": name, "ok": False, "detail": detail})
        report["ok"] = False
        report["first_failure"] = name
        return False, report

    def passed(name):
        report["checks"].append({"name": name, "ok": True})

    if cert.graph_digest != graph.digest():
        return fail("graph-binding", "certificate digest does not match the graph")
    passed("graph-binding")

    partition = coherent_components(graph)
    if partition.class_labels() != cert.classes:
        return fail("partition", "recorded classes differ from the recomputed partition")
    passed("partition")

    blocks = cert.degree_blocks
    if len(blocks) != cert.k or not all(1 <= m <= cert.k for m in blocks):
        return fail("block-shape", f"blocks for degrees {sorted(blocks)}, not 1..{cert.k}")
    for m, dim in enumerate(graph_algebra_dims(partition, cert.k), 1):
        if len(blocks[m]) != dim:
            return fail("block-shape", f"degree-{m} block missing or of wrong size")
    passed("block-shape")

    # A valid class block A^e is unimodular with no unit-modulus eigenvalue,
    # so A has an eigenvalue that is not a root of unity, and by Dimitrov's
    # proof of the Schinzel-Zassenhaus conjecture (arXiv:1912.12545) the
    # spectral radius of A is at least 2^(1/(4d)).  With M the largest |entry|
    # of the block rounded up, 2^(e/(4d)) <= rho(A^e) <= d*M < 2^bit_length(d*M),
    # so a valid e is below 4*d*bit_length(d*M); refusing larger ones here
    # bounds the work of mat_pow by the size of the block.
    for cls, e in zip(partition.classes, cert.exponents):
        d = len(cls)
        m = max(abs(blocks[1][r][c]) for r in cls for c in cls)
        if e >= 4 * d * (d * math.ceil(m)).bit_length():
            return fail("degree-one-shape",
                        f"exponent {e} is too large for a degree-one block "
                        f"with entries of size {m}")
    expected = _powered_degree_one(graph.n, partition.classes,
                                   [comp["matrix"] for comp in cert.components],
                                   cert.exponents)
    if blocks[1] != expected:
        return fail("degree-one-shape",
                    "degree-one block is not the recorded block-diagonal power")
    passed("degree-one-shape")

    algebra = quotient_algebra(graph, cert.k)
    # columns[i]: the certified map applied to basis element i
    columns = [{algebra.offsets[m] + r: row[c] for r, row in enumerate(blocks[m]) if row[c]}
               for m in range(1, cert.k + 1) for c in range(algebra.dims[m - 1])]
    for i in range(len(algebra.generators)):
        for j in range(i + 1, algebra.offsets[algebra.k]):
            m = algebra.degree_of(i) + algebra.degree_of(j)
            lhs = combine((c, columns[l]) for l, c in algebra.bracket_basis(i, j).items())
            rhs = algebra.bracket(columns[i], columns[j])
            if lhs != rhs:
                degree_m = range(algebra.offsets[m], algebra.offsets[m] + algebra.dims[m - 1])
                return fail("bracket-compatibility", {
                    "pair": [algebra.word_label(algebra.word_of(i)),
                             algebra.word_label(algebra.word_of(j))],
                    "expected": [str(rhs.get(l, 0)) for l in degree_m],
                    "got": [str(lhs.get(l, 0)) for l in degree_m],
                })
    passed("bracket-compatibility")

    bad = _first_non_int_block(blocks)
    if bad is not None:
        return fail("unimodularity", f"degree-{bad} block is not integral")
    ok, payload = _check_blocks(blocks, unit_root_free)
    if not ok:
        return fail(*payload)
    passed("unimodularity")
    passed("unit-root-freeness")
    derived = _recorded(payload)
    certs = payload[1]
    if cert.schema == 1:
        # schema 1 records root disks in place of the trace polynomial;
        # disks that `enclosures_hold` re-derives stand for it
        for m, c in derived["unit_root_certs"].items():
            recorded = cert.unit_root_certs.get(m)
            if (certs[m].method == "isolated-interval" and isinstance(recorded, dict)
                    and enclosures_hold(certs[m].symmetric_factor, recorded.get("witness"))):
                c["witness"] = recorded["witness"]
    for field, values in derived.items():
        if getattr(cert, field) != values:
            return fail(f"recorded-{field.replace('_', '-')}",
                        f"recorded {field} differ from the re-derived ones")
    for m, c in sorted(certs.items()):
        if c.method == "isolated-interval" and not trace_witness_holds(
                c.symmetric_factor, IntPolynomial(c.witness["trace_poly"])):
            return fail("unit-root-witnesses",
                        f"degree-{m} trace polynomial does not witness unit-root-freeness")
    # compared as JSON text, as Python equality takes true and 1.0 for 1
    seen = set()
    for i, comp in enumerate(cert.components):
        text = json.dumps(comp, sort_keys=True)
        if text in seen:
            continue
        seen.add(text)
        a = comp["matrix"]
        for field, value in _component(a, char_poly(a), cert.k).to_json().items():
            if json.dumps(comp.get(field), sort_keys=True) != json.dumps(value, sort_keys=True):
                return fail("recorded-components",
                            f"component {i}: recorded {field} differs from the re-derived one")
    report["ok"] = True
    for field in ("determinants", "char_polys", "unit_root_certs"):
        report[field] = {str(m): v for m, v in derived[field].items()}
    return True, report
