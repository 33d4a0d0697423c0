"""Deciding and constructing hyperbolic lattice-preserving automorphisms.

A graph's k-step nilmanifold admits an Anosov automorphism iff every
coherent class has at least two vertices and no class of size 2..k is
internally complete.  When the criterion holds, the constructive route is
followed: one unimodular integer matrix per class whose r-fold eigenvalue
products avoid the unit circle for r <= min(k, class size - 1), per-class
exponents escalated over a deterministic ladder, and the resulting
degree-one map extended through the graded algebra, bracket by bracket
inside the quotient.  Instead of the eigenvalue bookkeeping that picks
exponents in the existence proof, every degree block is verified directly:
integral, determinant +-1, and a certified unit-root-free characteristic
polynomial.  Extension and verification use only the quotient's basis and
structure constants; the free-algebra coordinates stay inside `liealg`.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from . import linalg
from .graphs import coherent_components
from .liealg import combine, graph_algebra_dims, quotient_algebra
from .spectra import char_poly, products_off_circle, unit_root_free


class NotAdmissibleError(RuntimeError):
    def __init__(self, verdict):
        self.verdict = verdict
        super().__init__("graph does not admit an Anosov automorphism at this step")


class ComponentSearchExhausted(RuntimeError):
    pass


class LadderExhaustedError(RuntimeError):
    pass


class ExtensionError(ValueError):
    """The degree-one map does not descend to the quotient algebra."""


@dataclass(frozen=True)
class Violation:
    class_index: int
    reason: str  # "singleton-class" | "internal-edge-in-small-class"
    offending_edge: tuple | None = None

    def to_json(self):
        out = {"class_index": self.class_index, "reason": self.reason}
        if self.offending_edge is not None:
            out["offending_edge"] = list(self.offending_edge)
        return out


@dataclass(frozen=True)
class AnosovVerdict:
    k: int
    admits: bool
    violations: tuple

    def to_json(self):
        return {
            "k": self.k,
            "admits": self.admits,
            "violations": [v.to_json() for v in self.violations],
        }


def decide_anosov(partition, k):
    """Evaluate the admissibility criterion on a coherent partition."""
    if k < 2:
        raise ValueError("step k must be >= 2")
    g = partition.graph
    violations = []
    for ci, cls in enumerate(partition.classes):
        if len(cls) < 2:
            violations.append(Violation(ci, "singleton-class"))
            continue
        if 2 <= len(cls) <= k and partition.internal_edges[ci]:
            u, v = partition.internal_edges[ci][0]
            violations.append(Violation(
                ci, "internal-edge-in-small-class",
                offending_edge=(g.vertices[u], g.vertices[v]),
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


def _candidate_polys(d, coeff_bound, seed):
    """Monic degree-d integer polynomials with constant term +-1.

    Deterministic shells of growing coefficient radius first, then a
    seeded random stream drawing beyond the deterministic box.
    """
    from .intpoly import IntPolynomial

    for b in range(coeff_bound + 1):
        for mids in itertools.product(range(-b, b + 1), repeat=d - 1):
            if mids and max(abs(x) for x in mids) != b:
                continue
            if not mids and b > 0:
                continue
            for c0 in (-1, 1):
                # mids holds (a_{d-1}, ..., a_1)
                yield IntPolynomial([c0] + list(reversed(mids)) + [1])
    rng = random.Random(seed)
    wide = 2 * coeff_bound + 1
    while True:
        mids = [rng.randint(-wide, wide) for _ in range(d - 1)]
        c0 = rng.choice((-1, 1))
        yield IntPolynomial([c0] + list(reversed(mids)) + [1])


@dataclass
class ComponentMatrix:
    matrix: list
    poly: object  # IntPolynomial
    products: object  # ProductsCertificate
    dimension: int
    r_max: int
    candidate_index: int

    def to_json(self):
        return {
            "matrix": self.matrix,
            "char_poly": self.poly.to_json(),
            "r_max": self.r_max,
            "candidate_index": self.candidate_index,
            "products": self.products.to_json(),
        }


def find_component_matrix(d, k, coeff_bound=3, seed=0, budget=20000, skip=0):
    """A matrix in GL(d, Z) whose r-fold eigenvalue products avoid the unit
    circle for every r <= min(k, d-1), found by enumerating companion
    matrices in a fixed order.  `skip` asks for a later qualifying hit."""
    if d < 2:
        raise ValueError("component dimension must be >= 2")
    r_max = min(k, d - 1)
    found = 0
    for index, poly in enumerate(_candidate_polys(d, coeff_bound, seed)):
        if index >= budget:
            break
        a = companion_matrix(poly)
        pc = products_off_circle(a, r_max)
        if pc.ok:
            if found == skip:
                return ComponentMatrix(
                    matrix=a, poly=poly, products=pc,
                    dimension=d, r_max=r_max, candidate_index=index,
                )
            found += 1
    raise ComponentSearchExhausted(
        f"no qualifying GL({d},Z) companion within {budget} candidates "
        f"(coefficient box radius {coeff_bound}, seed {seed})"
    )


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


@dataclass
class SynthesisConfig:
    coeff_bound: int = 3
    max_exponent: int = 64
    seed: int = 0
    budget: int = 100000


_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


def _exponent_ladder(num_classes, max_exponent):
    """Per-class prime-power exponent tuples, ordered by total size."""
    options = []
    for c in range(num_classes):
        p = _PRIMES[c % len(_PRIMES)]
        opts = []
        v = 1
        while v <= max_exponent:
            opts.append(v)
            v *= p
        options.append(opts)
    return sorted(itertools.product(*options), key=lambda t: (sum(t), t))


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


@dataclass
class AutomorphismCertificate:
    graph_digest: str
    k: int
    classes: list  # per class, list of vertex labels
    components: list  # per class, ComponentMatrix json
    exponents: list
    degree_blocks: dict  # degree -> integer matrix
    char_polys: dict  # degree -> ascending coefficients
    unit_root_certs: dict  # degree -> certificate json
    determinants: dict  # degree -> +-1

    def to_json(self):
        return {
            "schema": 1,
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
        a field of the wrong type or shape."""

        def require(ok, field):
            if not ok:
                raise ValueError(f"malformed certificate field {field!r}")

        require(isinstance(data, dict), "(top level)")
        classes, components, exponents = data["classes"], data["components"], data["exponents"]
        require(isinstance(data["graph_digest"], str), "graph_digest")
        require(type(data["k"]) is int and data["k"] >= 2, "k")
        require(isinstance(classes, list) and all(isinstance(c, list) for c in classes), "classes")
        require(isinstance(components, list) and len(components) == len(classes)
                and all(isinstance(c, dict) and _is_square_int_matrix(c.get("matrix"), len(cl))
                        for c, cl in zip(components, classes)), "components")
        require(isinstance(exponents, list) and len(exponents) == len(classes)
                and all(type(e) is int and e >= 0 for e in exponents), "exponents")
        maps = {}
        for name in ("degree_blocks", "char_polys", "unit_root_certs", "determinants"):
            require(isinstance(data[name], dict), name)
            maps[name] = {int(m): v for m, v in data[name].items()}
        require(all(map(_is_square_int_matrix, maps["degree_blocks"].values())), "degree_blocks")
        return cls(graph_digest=data["graph_digest"], k=data["k"], classes=classes,
                   components=components, exponents=exponents, **maps)


def _is_square_int_matrix(m, n=None):
    """m is a list of n lists of n ints; n defaults to len(m)."""
    if not isinstance(m, list):
        return False
    n = len(m) if n is None else n
    return len(m) == n and all(isinstance(row, list) and len(row) == n
                               and all(type(x) is int for x in row) for row in m)


def _check_blocks(blocks):
    """Integrality, unimodularity and unit-root-freeness of degree blocks.

    Returns (True, (char_polys, certs, dets)) or (False, (kind, reason))
    with kind one of "unimodularity" / "unit-root-freeness".
    """
    char_polys, certs, dets = {}, {}, {}
    for m, block in sorted(blocks.items()):
        if not linalg.is_integral(block):
            return False, ("unimodularity", f"degree-{m} block is not integral")
        cp = char_poly([[int(x) for x in row] for row in block])
        det = (-1) ** len(block) * cp.constant()  # cp(0) = det(-A)
        if det not in (1, -1):
            return False, ("unimodularity",
                           f"degree-{m} block determinant {det} is not a unit")
        cert = unit_root_free(cp)
        char_polys[m] = cp
        certs[m] = cert
        dets[m] = det
        if not cert.free:
            return False, ("unit-root-freeness",
                           f"degree-{m} block has a unit-modulus eigenvalue")
    return True, (char_polys, certs, dets)


def synthesize(graph, k, config=None):
    """Construct and certify a hyperbolic lattice-preserving automorphism.

    Per-class component matrices come from the deterministic search, the
    exponent ladder escalates until every degree block passes direct
    certification, and the result is emitted as a self-contained
    certificate.  The config budget caps the total number of component
    candidates and ladder rungs examined.
    """
    config = config or SynthesisConfig()
    partition = coherent_components(graph)
    verdict = decide_anosov(partition, k)
    if not verdict.admits:
        raise NotAdmissibleError(verdict)
    algebra = quotient_algebra(graph, k)
    ladder = _exponent_ladder(len(partition.classes), config.max_exponent)
    spent = 0
    last_failure = None
    for round_idx in range(3):
        try:
            components = {}
            for cls in partition.classes:
                d = len(cls)
                if d not in components:
                    components[d] = find_component_matrix(
                        d, k,
                        coeff_bound=config.coeff_bound,
                        seed=config.seed,
                        budget=min(config.budget, 20000),
                        skip=round_idx,
                    )
            per_class = [components[len(cls)] for cls in partition.classes]
        except ComponentSearchExhausted:
            if round_idx == 0:
                raise
            break
        for exponents in ladder:
            if spent >= config.budget:
                raise LadderExhaustedError(
                    f"synthesis budget {config.budget} exhausted "
                    f"(last failure: {last_failure})"
                )
            spent += 1
            g = _powered_degree_one(graph.n, partition.classes,
                                    [c.matrix for c in per_class], exponents)
            blocks = extend_to_algebra(algebra, g)
            ok, payload = _check_blocks(blocks)
            if not ok:
                last_failure = f"exponents {exponents}: {payload[1]}"
                continue
            char_polys, certs, dets = payload
            return AutomorphismCertificate(
                graph_digest=graph.digest(),
                k=k,
                classes=partition.class_labels(),
                components=[c.to_json() for c in per_class],
                exponents=list(exponents),
                degree_blocks={m: [[int(x) for x in row] for row in b]
                               for m, b in blocks.items()},
                char_polys={m: p.to_json() for m, p in char_polys.items()},
                unit_root_certs={m: c.to_json() for m, c in certs.items()},
                determinants=dets,
            )
    raise LadderExhaustedError(
        f"exponent ladder exhausted at max_exponent {config.max_exponent} "
        f"(last failure: {last_failure})"
    )


# -- verification -------------------------------------------------------------


def verify_certificate(graph, cert):
    """Independently re-derive everything a certificate claims.

    Rebuilds the algebra, recomputes the partition, and checks: digest
    binding, the block-diagonal shape of degree one, exact bracket
    compatibility on all basis pairs (the certified map applied to the
    structure constants of [e_i, e_j] against the bracket of the images of
    e_i and e_j), integrality and unimodularity per degree, and re-derived
    unit-root-freeness per degree.  Returns (ok, report); the report names
    the first failing check.
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
    for m, dim in enumerate(graph_algebra_dims(graph, cert.k), 1):
        if len(blocks[m]) != dim:
            return fail("block-shape", f"degree-{m} block missing or of wrong size")
    passed("block-shape")

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
    for i in range(algebra.dim):
        for j in range(i + 1, algebra.offsets[algebra.k - algebra.degree_of(i) + 1]):
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

    ok, payload = _check_blocks(blocks)
    if not ok:
        return fail(*payload)
    char_polys, certs, dets = payload
    passed("unimodularity")
    passed("unit-root-freeness")
    report["ok"] = True
    report["determinants"] = {str(m): d for m, d in dets.items()}
    report["char_polys"] = {str(m): p.to_json() for m, p in char_polys.items()}
    report["unit_root_certs"] = {str(m): c.to_json() for m, c in certs.items()}
    return True, report
