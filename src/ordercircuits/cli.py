"""Command-line front-end for .circ files.

Exit codes: 0 affirmative/success, 1 negative answer (e.g. no morphism
exists), 2 usage or parse error, 3 search budget exceeded, 4 internal
error (an unexpected exception, such as RecursionError on a very long
circuit; never an answer).
"""

from __future__ import annotations

import argparse
import sys
import traceback

from . import circuit as circuit_ops
from . import congruence as cg
from . import fca
from . import morphism as mo
from . import textio
from .errors import BudgetExceeded, OrderCircuitError, ParseError

EXIT_OK = 0
EXIT_NO = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


def _load(path):
    with open(path, encoding="utf-8") as fh:
        return textio.parse(fh.read())


def _emit(args, text):
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_validate(args):
    for path in args.files:
        doc = _load(path)
        print(f"{path}: {len(doc.decls)} declarations")
    return EXIT_OK


def cmd_connectivity(args):
    doc = _load(args.file)
    G = circuit_ops.connectivity(doc.circuit(args.circuit))
    _emit(args, textio.serialise_relation(args.name, G) + "\n")
    return EXIT_OK


def cmd_dot(args):
    doc = _load(args.file)
    _emit(args, textio.to_dot(doc.circuit(args.circuit)))
    return EXIT_OK


def cmd_morphism_check(args):
    doc = _load(args.file)
    ok, why = mo.check_morphism(doc.morphism(args.morphism))
    if ok:
        print(f"{args.morphism}: valid circuit morphism")
        return EXIT_OK
    print(f"{args.morphism}: not a morphism ({why})", file=sys.stderr)
    return EXIT_NO


def cmd_morphism_find(args):
    doc = _load(args.file)
    P = doc.circuit(getattr(args, "from"))
    Q = doc.circuit(args.to)
    f = mo.find_morphism(P, Q, budget=args.budget)
    if f is None:
        print(f"no morphism {getattr(args, 'from')} -> {args.to}", file=sys.stderr)
        return EXIT_NO
    decl = textio.MorphismDecl(args.name, getattr(args, "from"), args.to, f)
    _emit(args, textio.serialise_morphism(decl) + "\n")
    return EXIT_OK


def cmd_equivalent(args):
    doc = _load(args.file)
    P = doc.circuit(getattr(args, "from"))
    Q = doc.circuit(args.to)
    if mo.syntactically_equivalent(P, Q, budget=args.budget):
        print("syntactically equivalent")
        return EXIT_OK
    print("not syntactically equivalent", file=sys.stderr)
    return EXIT_NO


def cmd_factorise(args):
    doc = _load(args.file)
    f = doc.morphism(args.morphism)
    result = mo.factorise(f)
    labels = ["quotient", "add-isolated-gates", "add-wires",
              "advance-inputs-delay-outputs"]
    for label, stage in zip(labels, result.stages):
        flags = sorted(mo.classify_elementary(stage))
        entries = " ".join(f"{g}=>{stage(g)}"
                           for g in stage.source.gates.elements)
        print(f"{label}: [{', '.join(flags)}] {entries}")
    return EXIT_OK


def cmd_quotient(args):
    doc = _load(args.file)
    decl = doc.partition(args.partition)
    C = doc.circuit(decl.circuit_name)
    Q = cg.quotient_circuit(C, decl.partition)
    _emit(args, textio.serialise_circuit(args.name, Q) + "\n")
    return EXIT_OK


def cmd_atomic_decomp(args):
    doc = _load(args.file)
    decl = doc.partition(args.partition)
    C = doc.circuit(decl.circuit_name)
    steps = cg.atomic_decomposition(C.gates, decl.partition)
    print(f"{len(steps)} atomic steps")
    current = C.gates
    for i, theta in enumerate(steps, start=1):
        merged = next(b for b in theta.blocks if len(b) == 2)
        print(f"step {i}: merge {cg.block_name(current, merged)}")
        current = cg.quotient_poset(current, theta)
    return EXIT_OK


def cmd_concept_lattice(args):
    doc = _load(args.file)
    L = fca.concept_lattice(doc.relation(args.relation))
    _emit(args, textio.serialise_circuit(args.name, L) + "\n")
    return EXIT_OK


def cmd_basic_circuit(args):
    doc = _load(args.file)
    B = fca.basic_circuit(doc.relation(args.relation))
    _emit(args, textio.serialise_circuit(args.name, B) + "\n")
    return EXIT_OK


def cmd_sandwich(args):
    doc = _load(args.file)
    G = doc.relation(args.relation)
    P = doc.circuit(args.circuit)
    GP = circuit_ops.connectivity(P)
    lower = mo.morphism_exists(fca.basic_circuit(G), P, budget=args.budget)
    upper = mo.morphism_exists(P, fca.concept_lattice(G), budget=args.budget)
    left = GP.pairs == G.pairs and GP.same_boundary(G)
    print(f"connectivity equals relation: {left}")
    print(f"basic circuit maps into circuit: {lower}")
    print(f"circuit maps into concept lattice: {upper}")
    ok = left == (lower and upper)
    print(f"biconditional holds: {ok}")
    return EXIT_OK if ok else EXIT_NO


def cmd_endos(args):
    doc = _load(args.file)
    C = doc.circuit(args.circuit)
    endos = mo.endomorphisms(C, budget=args.budget)
    print(f"{len(endos)} endomorphisms")
    for f in endos:
        print("  " + " ".join(f"{g}=>{f(g)}" for g in C.gates.elements))
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ordercircuits",
        description="Order-theoretic circuit syntax: analyses on .circ files")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=func)
        return p

    p = add("validate", cmd_validate, help="parse files and report")
    p.add_argument("files", nargs="+")

    p = add("connectivity", cmd_connectivity, help="emit the connectivity relation")
    p.add_argument("file")
    p.add_argument("--circuit", required=True)
    p.add_argument("--name", default="G")
    p.add_argument("-o", "--output")

    p = add("dot", cmd_dot, help="emit a DOT rendering")
    p.add_argument("file")
    p.add_argument("--circuit", required=True)
    p.add_argument("-o", "--output")

    p = add("morphism-check", cmd_morphism_check, help="validate a declared morphism")
    p.add_argument("file")
    p.add_argument("--morphism", required=True)

    p = add("morphism-find", cmd_morphism_find, help="search for a morphism")
    p.add_argument("file")
    p.add_argument("--from", required=True)
    p.add_argument("--to", required=True)
    p.add_argument("--name", default="f")
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("-o", "--output")

    p = add("equivalent", cmd_equivalent, help="test syntactic equivalence")
    p.add_argument("file")
    p.add_argument("--from", required=True)
    p.add_argument("--to", required=True)
    p.add_argument("--budget", type=int, default=None)

    p = add("factorise", cmd_factorise, help="factor a morphism into stages")
    p.add_argument("file")
    p.add_argument("--morphism", required=True)

    p = add("quotient", cmd_quotient, help="quotient a circuit by a partition")
    p.add_argument("file")
    p.add_argument("--partition", required=True)
    p.add_argument("--name", default="Q")
    p.add_argument("-o", "--output")

    p = add("atomic-decomp", cmd_atomic_decomp,
            help="decompose a partition into atomic merges")
    p.add_argument("file")
    p.add_argument("--partition", required=True)

    p = add("concept-lattice", cmd_concept_lattice,
            help="emit the concept lattice of a relation")
    p.add_argument("file")
    p.add_argument("--relation", required=True)
    p.add_argument("--name", default="L")
    p.add_argument("-o", "--output")

    p = add("basic-circuit", cmd_basic_circuit,
            help="emit the basic circuit of a relation")
    p.add_argument("file")
    p.add_argument("--relation", required=True)
    p.add_argument("--name", default="B")
    p.add_argument("-o", "--output")

    p = add("sandwich", cmd_sandwich,
            help="check the connectivity sandwich biconditional")
    p.add_argument("file")
    p.add_argument("--relation", required=True)
    p.add_argument("--circuit", required=True)
    p.add_argument("--budget", type=int, default=None)

    p = add("endos", cmd_endos, help="enumerate all endomorphisms")
    p.add_argument("file")
    p.add_argument("--circuit", required=True)
    p.add_argument("--budget", type=int, default=None)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ParseError, OrderCircuitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # any other failure must not read as an answer
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
