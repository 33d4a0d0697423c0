"""Batch command-line surface with stable JSON output.

    anosograph COMMAND GRAPH [--option VALUE ...]

GRAPH is an edge-list file, and `anosograph COMMAND -h` lists the options
of a command.  Options and GRAPH come in any order; a value follows as
`--option VALUE` or `--option=VALUE`, a unique prefix of an option names
it, the last of a repeated option wins, and a token after `--` is GRAPH.
Help goes to stdout; a usage error prints the usage line to stderr.

Exit codes: 0 verdict computed, 1 usage error, unreadable or malformed
input, an unwritable --out, a closed stdout, or an input whose
computation recurses past Python's recursion limit (`dims` of a
2,200-vertex path at k = 1,100), 2 synthesis refused because
the graph is not admissible, 3 certificate verification failed, 4 the one
pass over the exponent ladder (exponents up to 64, at most 100,000 rungs)
ran out.
Identical invocations (including search's --seed) produce byte-identical
JSON; text mode is for humans and is not a stable format.
"""

import gc
import json
import os
import sys
from types import SimpleNamespace

from .anosov import (
    AutomorphismCertificate,
    LadderExhaustedError,
    NotAdmissibleError,
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
    except RecursionError:
        raise SpecError(f"{path} is nested too deeply") from None


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


def _doc(args, **fields):
    """The JSON document of a run, schema and command first.  Each `_cmd_*`
    handler returns (exit code, document or None) and `_run` emits the
    document, or prints the `error:` line of the ValueError it raises.
    None comes only from `synthesize`'s success path, which prints the
    certificate itself because it encodes it once, for --out and stdout."""
    return {"schema": SCHEMA, "command": args.command, **fields}


def _cmd_analyze(args):
    g = _load_graph(args.graph)
    partition = coherent_components(g)
    verdict = decide_anosov(partition, args.k)
    return 0, _doc(args, graph=g.to_json(), digest=g.digest(), k=args.k,
                   partition=partition.to_json(), verdict=verdict.to_json())


def _cmd_dims(args):
    g = _load_graph(args.graph)
    if args.k < 2:
        raise ValueError("step k must be >= 2")
    dims = graph_algebra_dims(coherent_components(g), args.k)
    return 0, _doc(args, k=args.k, dims=dims, total=sum(dims),
                   ideal_dims=[witt_number(g.n, m) - d for m, d in enumerate(dims, 1)])


def _cmd_synthesize(args):
    g = _load_graph(args.graph)
    try:
        cert = synthesize(g, args.k)
    except NotAdmissibleError as e:
        return 2, _doc(args, admits=False,
                       violations=[v.to_json() for v in e.verdict.violations])
    except LadderExhaustedError as e:
        return 4, _doc(args, admits=True, error=str(e))
    doc = cert.to_json()
    # encoded once, for the file and for json stdout
    text = json.dumps(doc, indent=2) if args.out or args.format == "json" else None
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as e:
            raise ValueError(f"cannot write {args.out}: {e}") from None
    if args.format == "json":
        print(text)
    else:
        _emit_text(doc)
    return 0, None


def _cmd_verify(args):
    g = _load_graph(args.graph)
    try:
        with open(args.certificate, encoding="utf-8") as fh:
            cert = AutomorphismCertificate.from_json(json.load(fh))
    except (OSError, KeyError, ValueError, RecursionError) as e:
        raise ValueError(f"cannot load certificate: {e}") from None
    ok, report = verify_certificate(g, cert)
    return (0 if ok else 3), _doc(args, ok=ok, report=report)


def _cmd_derivations(args):
    g = _load_graph(args.graph)
    doc = _doc(args, k=args.k)
    if args.quotient:
        spec = _load_spec(args.quotient)  # its step, not --k, is the algebra's
        base = quotient_algebra(g, spec.step)
        x = spec.relation(base)
        algebra = base.quotient(x)
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
        doc["span_report"] = _span_report(algebra, spec, v_stable).to_json()
        doc["lift_check"] = _lift_check(base, x, v_stable)
    return 0, doc


def _cmd_search(args):
    g = _load_graph(args.graph)
    if args.quotient:
        spec = _load_spec(args.quotient)
        algebra = build_quotient(g, spec)
    else:
        algebra = quotient_algebra(g, args.k)
    findings = hyperbolic_search(algebra, args.entry_bound, args.budget, seed=args.seed)
    searched = {"entry_bound": args.entry_bound, "budget": args.budget, "seed": args.seed}
    return 0, _doc(args, dims=list(algebra.dims), searched=searched,
                   findings=[f.to_json() for f in findings])


REQUIRED = ...  # the default of an option that must be given

_K = ("--k", int, 2, "nilpotency step")
_FORMAT = ("--format", ("json", "text"), "json", "output format")
_QUOTIENT = ("--quotient", str, None, "quotient spec JSON sidecar (step 2 or 3)")

# name: (handler, help, options).  Every command also takes one graph file.
# An option is (flag, type, default, help): type is int, str or a tuple of
# the accepted strings; default REQUIRED marks an option that must be given.
COMMANDS = {
    "analyze": (_cmd_analyze, "coherent partition and admissibility verdict", (_K, _FORMAT)),
    "dims": (_cmd_dims, "per-degree dimensions of the graph algebra", (_K, _FORMAT)),
    "synthesize": (_cmd_synthesize, "construct and certify a hyperbolic automorphism", (
        _K, _FORMAT,
        ("--out", str, None, "also write the certificate JSON to this file"),
    )),
    "verify": (_cmd_verify, "independently verify a certificate file", (
        _FORMAT, ("--certificate", str, REQUIRED, "certificate JSON file"),
    )),
    "derivations": (_cmd_derivations, "derivation-algebra dimensions and quotient reports",
                    (_K, _FORMAT, _QUOTIENT)),
    "search": (_cmd_search, "bounded search for hyperbolic automorphisms", (
        _K, _FORMAT, _QUOTIENT,
        ("--entry-bound", int, 2, "largest |entry| of a candidate degree-one matrix"),
        ("--budget", int, 100000, "candidates to try"),
        ("--seed", int, 0, "random seed"),
    )),
}
_HELP = ("-h", "--help")


def _dest(flag):
    """The namespace attribute of an option: `--entry-bound` sets `entry_bound`."""
    return flag[2:].replace("-", "_")


def _metavar(flag, kind):
    return "{" + ",".join(kind) + "}" if isinstance(kind, tuple) else _dest(flag).upper()


def _usage(name=None):
    if name is None:
        return f"usage: anosograph [-h] {{{','.join(COMMANDS)}}} ..."
    parts = ["usage: anosograph", name, "[-h]"]
    for flag, kind, default, _ in COMMANDS[name][2]:
        option = f"{flag} {_metavar(flag, kind)}"
        parts.append(option if default is REQUIRED else f"[{option}]")
    return " ".join(parts + ["graph"])


def _help(name=None):
    """Print the help of one command, or of the program when name is None."""
    if name is None:
        about, heading = __doc__.strip(), "commands:"
        rows = [(cmd, text) for cmd, (_, text, _) in COMMANDS.items()]
    else:
        about, heading = COMMANDS[name][1], "arguments:"
        rows = [("graph", "edge-list file ('u v' lines, 'vertex: u', '#' comments)"),
                ("-h, --help", "show this help and exit")]
        rows += [(f"{flag} {_metavar(flag, kind)}",
                  text if default in (REQUIRED, None) else f"{text} (default: {default})")
                 for flag, kind, default, text in COMMANDS[name][2]]
    width = max(len(left) for left, _ in rows) + 2
    print(_usage(name), about, heading, sep="\n\n")
    for left, text in rows:
        print(f"  {left:<{width}}{text}")


def _fail(name, message):
    print(_usage(name), file=sys.stderr)
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(1)


def _is_value(token):
    """Whether argparse would read token as a value rather than an option:
    it does not start with '-', or it is '-' or a negative number."""
    if token[:1] != "-" or token == "-":
        return True
    whole, dot, fraction = token[1:].partition(".")
    if not dot:
        return whole.isdecimal()
    return (whole == "" or whole.isdecimal()) and fraction.isdecimal()


def parse_args(argv):
    """The namespace of `command`, `graph` and one attribute per option
    that argv asks for, read by argparse's rules as the module docstring
    lists them.  Help goes to stdout and raises SystemExit(0); a usage
    error goes to stderr and raises SystemExit(1).
    """
    if not argv:
        _fail(None, "the following arguments are required: command")
    name = argv[0]
    if name in _HELP or len(name) > 2 and "--help".startswith(name):
        _help()
        raise SystemExit(0)
    if name not in COMMANDS:
        choices = ", ".join(map(repr, COMMANDS))
        _fail(None, f"argument command: invalid choice: {name!r} (choose from {choices})")
    kinds = {flag: kind for flag, kind, _, _ in COMMANDS[name][2]}
    values = {flag: default for flag, _, default, _ in COMMANDS[name][2]}
    positionals = []
    tokens = iter(argv[1:])
    for token in tokens:
        if token == "--":
            positionals += tokens
            break
        if _is_value(token):
            positionals.append(token)
            continue
        flag, eq, value = token.partition("=")
        if flag in kinds or flag in _HELP:
            matches = [flag]
        elif flag.startswith("--"):
            matches = [f for f in (*kinds, "--help") if f.startswith(flag)]
        else:
            matches = []
        if not matches:
            _fail(name, f"unrecognized arguments: {token}")
        if len(matches) > 1:
            _fail(name, f"ambiguous option: {token} could match {', '.join(matches)}")
        flag = matches[0]
        if flag in _HELP:
            _help(name)
            raise SystemExit(0)
        if not eq:
            value = next(tokens, None)
            if value is None or not _is_value(value):
                _fail(name, f"argument {flag}: expected one argument")
        kind = kinds[flag]
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                _fail(name, f"argument {flag}: invalid int value: {value!r}")
        elif kind is not str and value not in kind:
            choices = ", ".join(map(repr, kind))
            _fail(name, f"argument {flag}: invalid choice: {value!r} (choose from {choices})")
        values[flag] = value
    missing = [] if positionals else ["graph"]
    missing += [flag for flag, value in values.items() if value is REQUIRED]
    if missing:
        _fail(name, f"the following arguments are required: {', '.join(missing)}")
    if len(positionals) > 1:
        _fail(name, f"unrecognized arguments: {' '.join(positionals[1:])}")
    options = {_dest(flag): value for flag, value in values.items()}
    return SimpleNamespace(command=name, graph=positionals[0], **options)


def _run(argv):
    try:
        args = parse_args(argv)
    except SystemExit as e:
        return e.code
    try:
        code, doc = COMMANDS[args.command][0](args)
        if doc is not None:
            _emit(doc, args.format)
        return code
    except (GraphParseError, SpecError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except RecursionError:
        print("error: input too large: the computation exceeds the recursion limit",
              file=sys.stderr)
        return 1


def main(argv=None):
    # The objects alive when a command starts, the imported modules above
    # all, outlive it.  Frozen, they are left out of the command's garbage
    # collections, and the first collection waits for the command's own
    # allocations instead of coming at whatever count the imports left.
    gc.freeze()
    try:
        code = _run(sys.argv[1:] if argv is None else argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader of stdout is gone (`anosograph ... | head -1`): send what
        # is left to devnull, so that the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    finally:
        gc.unfreeze()
    return code


if __name__ == "__main__":
    sys.exit(main())
