"""Batch command-line surface with stable JSON output.

Exit codes: 0 verdict computed, 1 usage error, 2 synthesis refused because
the graph is not admissible, 3 certificate verification failed, 4 synthesis
search budget exhausted.  Identical invocations (including --seed) produce
byte-identical JSON; text mode is for humans and is not a stable format.
"""

from __future__ import annotations

import argparse
import json
import sys

from .anosov import (
    AutomorphismCertificate,
    ComponentSearchExhausted,
    LadderExhaustedError,
    NotAdmissibleError,
    SynthesisConfig,
    decide_anosov,
    synthesize,
    verify_certificate,
)
from .derivations import (
    QuotientSpec,
    SpecError,
    _lift_check,
    _span_report,
    build_quotient,
    derivation_algebra,
    hyperbolic_search,
)
from .graphs import GraphParseError, coherent_components, parse_graph
from .liealg import graph_algebra_dims, quotient_algebra
from .lyndon import witt_number

SCHEMA = 1


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _load_graph(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_graph(fh.read())
    except OSError as e:
        raise GraphParseError(f"cannot read {path}: {e}") from None


def _load_spec(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return QuotientSpec.from_json(json.load(fh))
    except OSError as e:
        raise SpecError(f"cannot read {path}: {e}") from None
    except json.JSONDecodeError as e:
        raise SpecError(f"{path} is not valid JSON: {e}") from None


def _emit(doc, fmt):
    if fmt == "json":
        print(json.dumps(doc, indent=2, sort_keys=False))
    else:
        _emit_text(doc)


def _emit_text(doc, prefix=""):
    if isinstance(doc, dict):
        for k, v in doc.items():
            if isinstance(v, (dict, list)) and v:
                print(f"{prefix}{k}:")
                _emit_text(v, prefix + "  ")
            else:
                print(f"{prefix}{k}: {v}")
    elif isinstance(doc, list):
        for v in doc:
            if isinstance(v, (dict, list)):
                _emit_text(v, prefix + "  ")
            else:
                print(f"{prefix}- {v}")
    else:
        print(f"{prefix}{doc}")


def _cmd_analyze(args):
    g = _load_graph(args.graph)
    partition = coherent_components(g)
    verdict = decide_anosov(partition, args.k)
    _emit({
        "schema": SCHEMA,
        "command": "analyze",
        "graph": g.to_json(),
        "digest": g.digest(),
        "k": args.k,
        "partition": partition.to_json(),
        "verdict": verdict.to_json(),
    }, args.format)
    return 0


def _cmd_dims(args):
    g = _load_graph(args.graph)
    if args.k < 2:
        raise ValueError("step k must be >= 2")
    dims = graph_algebra_dims(g, args.k)
    _emit({
        "schema": SCHEMA,
        "command": "dims",
        "k": args.k,
        "dims": dims,
        "total": sum(dims),
        "ideal_dims": [witt_number(g.n, m) - d for m, d in enumerate(dims, 1)],
    }, args.format)
    return 0


def _cmd_synthesize(args):
    g = _load_graph(args.graph)
    config = SynthesisConfig(
        coeff_bound=args.coeff_bound,
        max_exponent=args.max_exponent,
        seed=args.seed,
        budget=args.budget,
    )
    try:
        cert = synthesize(g, args.k, config)
    except NotAdmissibleError as e:
        _emit({
            "schema": SCHEMA,
            "command": "synthesize",
            "admits": False,
            "violations": [v.to_json() for v in e.verdict.violations],
        }, args.format)
        return 2
    except (ComponentSearchExhausted, LadderExhaustedError) as e:
        _emit({
            "schema": SCHEMA,
            "command": "synthesize",
            "admits": True,
            "error": str(e),
        }, args.format)
        return 4
    doc = cert.to_json()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
    _emit(doc, args.format)
    return 0


def _cmd_verify(args):
    g = _load_graph(args.graph)
    try:
        with open(args.certificate, encoding="utf-8") as fh:
            cert = AutomorphismCertificate.from_json(json.load(fh))
    except (OSError, KeyError, ValueError) as e:  # JSONDecodeError is a ValueError
        print(f"error: cannot load certificate: {e}", file=sys.stderr)
        return 1
    ok, report = verify_certificate(g, cert)
    _emit({
        "schema": SCHEMA,
        "command": "verify",
        "ok": ok,
        "report": report,
    }, args.format)
    return 0 if ok else 3


def _cmd_derivations(args):
    g = _load_graph(args.graph)
    doc = {"schema": SCHEMA, "command": "derivations", "k": args.k}
    if args.quotient:
        spec = _load_spec(args.quotient)
        algebra = build_quotient(g, spec)
        doc["quotient_step"] = spec.step
        doc["quotient_dims"] = list(algebra.dims)
    else:
        algebra = quotient_algebra(g, args.k)
        doc["dims"] = list(algebra.dims)
    der = derivation_algebra(algebra)
    doc["dim_der"] = der.dimension
    # the V-stable derivations are exactly the weight-zero basis elements
    v_stable = [m for m, w in zip(der.maps, der.weights) if w == 0]
    doc["dim_der_v_stable"] = len(v_stable)
    if args.quotient and spec.step == 2:
        indices = spec.validate(g)
        doc["span_report"] = _span_report(algebra, indices, v_stable).to_json()
        doc["lift_check"] = _lift_check(algebra, indices, v_stable)
    _emit(doc, args.format)
    return 0


def _cmd_search(args):
    g = _load_graph(args.graph)
    if args.quotient:
        spec = _load_spec(args.quotient)
        algebra = build_quotient(g, spec)
    else:
        algebra = quotient_algebra(g, args.k)
    findings = hyperbolic_search(algebra, args.entry_bound, args.budget, seed=args.seed)
    _emit({
        "schema": SCHEMA,
        "command": "search",
        "dims": list(algebra.dims),
        "searched": {
            "entry_bound": args.entry_bound,
            "budget": args.budget,
            "seed": args.seed,
        },
        "findings": [f.to_json() for f in findings],
    }, args.format)
    return 0


def build_parser():
    parser = _Parser(prog="anosograph", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, help_text):
        return sub.add_parser(
            name, help=help_text,
            formatter_class=argparse.ArgumentDefaultsHelpFormatter)

    def common(p, k_default=None):
        p.add_argument("graph", help="edge-list file ('u v' lines, 'vertex: u', '#' comments)")
        if k_default is not None:
            p.add_argument("--k", type=int, default=k_default, help="nilpotency step")
        p.add_argument("--format", choices=("json", "text"), default="json")

    p = add_parser("analyze", "coherent partition and admissibility verdict")
    common(p, k_default=2)
    p.set_defaults(func=_cmd_analyze)

    p = add_parser("dims", "per-degree dimensions of the graph algebra")
    common(p, k_default=2)
    p.set_defaults(func=_cmd_dims)

    p = add_parser("synthesize", "construct and certify a hyperbolic automorphism")
    common(p, k_default=2)
    p.add_argument("--coeff-bound", type=int, default=3)
    p.add_argument("--max-exponent", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=100000)
    p.add_argument("--out", help="also write the certificate JSON to this file")
    p.set_defaults(func=_cmd_synthesize)

    p = add_parser("verify", "independently verify a certificate file")
    common(p)
    p.add_argument("--certificate", required=True)
    p.set_defaults(func=_cmd_verify)

    p = add_parser("derivations", "derivation-algebra dimensions and quotient reports")
    common(p, k_default=2)
    p.add_argument("--quotient", help="quotient spec JSON sidecar (step 2 or 3)")
    p.set_defaults(func=_cmd_derivations)

    p = add_parser("search", "bounded search for hyperbolic automorphisms")
    common(p, k_default=2)
    p.add_argument("--quotient", help="quotient spec JSON sidecar (step 2 or 3)")
    p.add_argument("--entry-bound", type=int, default=2)
    p.add_argument("--budget", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_search)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 1
    try:
        return args.func(args)
    except (GraphParseError, SpecError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
