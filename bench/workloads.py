"""The three workloads: their inputs, one op each, and the op's checks.

A workload owns a corpus of seeded inputs, written as one .circ file per
input.  A run walks the corpus in rounds of ROUND inputs; every round
has the same make-up, so the share of failed ops is the same in every
run.  `op` is the timed call sequence; `check` runs outside the timed
region and compares the op's outputs with the oracles.
"""

from __future__ import annotations

import contextlib
import io
import os

import inputs
from oracle import (closed_input_sets, connectivity, covers, is_isomorphism,
                     is_morphism, least_morphism, mask_of, morphisms,
                     quotient_order, view_of)


class Workload:
    name = ""
    ROUND = 8

    def __init__(self, seed, run_dir):
        self.corpus_dir = os.path.join(run_dir, f"{self.name}-corpus")
        self.out_dir = os.path.join(run_dir, f"{self.name}-out")
        os.makedirs(self.corpus_dir)
        os.makedirs(self.out_dir)
        self.texts = self.make(seed)
        self.paths = []
        for k, text in enumerate(self.texts):
            path = os.path.join(self.corpus_dir, f"{k:04d}.circ")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            self.paths.append(path)

    def round(self, r):
        """Corpus indices of round r, cycling through the corpus."""
        n = len(self.texts)
        return [(r * self.ROUND + j) % n for j in range(self.ROUND)]

    def bind(self, oc, docs):
        """Take the library package and the corpus parsed into Documents."""
        self.oc = oc


class Lattice(Workload):
    """Concept lattice, lattice test, basic circuit and both canonical maps."""

    name = "lattice"
    CORPUS = 200

    def make(self, seed):
        self.inputs = inputs.lattice_inputs(seed, self.CORPUS)
        return [inputs.write_relation("G", *rel) + "\n" for rel in self.inputs]

    def bind(self, oc, docs):
        super().bind(oc, docs)
        self.items = [d.relation("G") for d in docs]

    def op(self, k, slot):
        oc = self.oc
        G = self.items[k]
        L = oc.concept_lattice(G)
        lattice = oc.is_lattice(L.gates)
        B = oc.basic_circuit(G)
        from_basic = oc.canonical_morphism_from_basic(G, L)
        to_lattice = oc.canonical_morphism_to_lattice(B, L)
        return L, lattice, B, from_basic, to_lattice

    def check(self, k, out, slot):
        L, lattice, B, from_basic, to_lattice = out
        ins, outs, pairs = self.inputs[k]
        Lv, Bv = view_of(L), view_of(B)
        extents = [mask_of([a for a in ins if Lv.leq(Lv.lam[a], g)], ins)
                   for g in range(len(Lv.gates))]
        if sorted(extents) != sorted(closed_input_sets(ins, outs, pairs)):
            yield "concept extents differ from the closed input sets"
        if lattice is not True:
            yield "is_lattice is not True on a concept lattice"
        if connectivity(Lv) != set(pairs):
            yield "connectivity of L differs from G"
        if connectivity(Bv) != set(pairs):
            yield "connectivity of B differs from G"
        for label, f in (("from_basic", from_basic), ("to_lattice", to_lattice)):
            if not is_morphism(view_of(f.source), view_of(f.target), f.mapping):
                yield f"canonical map {label} is not a morphism"


class Search(Workload):
    """Least morphism to a rewrite, isomorphism to a copy, all endomorphisms."""

    name = "search"
    CORPUS = 120

    def __init__(self, seed, run_dir):
        super().__init__(seed, run_dir)
        self.verified = {}

    def make(self, seed):
        self.inputs = inputs.search_inputs(seed, self.CORPUS)
        return ["\n\n".join([inputs.write_circuit("S", s), inputs.write_circuit("T", t),
                             inputs.write_circuit("I", c)]) + "\n"
                for s, t, c in self.inputs]

    def bind(self, oc, docs):
        super().bind(oc, docs)
        self.items = [(d.circuit("S"), d.circuit("T"), d.circuit("I")) for d in docs]

    def op(self, k, slot):
        oc = self.oc
        S, T, I = self.items[k]
        return (oc.find_morphism(S, T), oc.find_isomorphism(S, I),
                oc.endomorphisms(S))

    def check(self, k, out, slot):
        """Full check on an input's first output; later outputs must equal it.

        The oracle enumeration dominates the check's cost, and a corpus
        input recurs every few rounds.
        """
        f, iso, endos = out
        gates = self.items[k][0].gates.elements
        seen = (f and tuple(f.mapping.items()), iso and tuple(iso.mapping.items()),
                len(endos), hash(tuple(tuple(e.mapping[g] for g in gates) for e in endos)))
        if self.verified.get(k) == seen:
            return
        problems = list(self.full_check(k, out))
        if not problems:
            self.verified[k] = seen
        yield from problems

    def full_check(self, k, out):
        f, iso, endos = out
        S, T, I = self.items[k]
        Sv, Tv, Iv = view_of(S), view_of(T), view_of(I)
        if f is None:
            yield "no morphism found to a rewrite that has one by construction"
        elif not is_morphism(Sv, Tv, f.mapping):
            yield "the morphism to the rewrite fails the morphism check"
        elif f.mapping != least_morphism(Sv, Tv):
            yield "the morphism to the rewrite is not the lexicographically least"
        if iso is None or not is_isomorphism(Sv, Iv, iso.mapping):
            yield "no valid isomorphism to the relabelled copy"
        rows = [tuple(Sv.index[e.mapping[g]] for g in Sv.gates) for e in endos]
        if tuple(range(len(Sv.gates))) not in rows:
            yield "the identity is not among the endomorphisms"
        if any(a >= b for a, b in zip(rows, rows[1:])):
            yield "endomorphisms are not strictly lexicographically increasing"
        if not all(is_morphism(Sv, Sv, e.mapping) for e in endos):
            yield "an endomorphism fails the morphism check"
        known = set(rows)
        n = len(rows)
        for j, e in enumerate(rows):
            other = rows[(7919 * j + 1) % n]
            if tuple(other[x] for x in e) not in known:
                yield "endomorphisms are not closed under composition"
                break
        if rows != morphisms(Sv, Sv):
            yield "endomorphisms differ from the oracle's enumeration"


class RewriteCli(Workload):
    """CLI quotient, atomic-decomp, factorise and dot, then a round trip.

    Each round is ROUND - 1 seeded documents and the fixed misnamed one,
    whose round trip fails while `serialise` sorts declarations by name.
    The failing parse is the op's last step.
    """

    name = "rewrite_cli"
    CORPUS = 120
    LABELS = ("quotient", "add-isolated-gates", "add-wires",
              "advance-inputs-delay-outputs")

    def make(self, seed):
        docs, fixed = inputs.rewrite_inputs(seed, self.CORPUS)
        self.inputs = docs + [fixed]
        return [d["text"] for d in self.inputs]

    def round(self, r):
        n = len(self.texts) - 1
        seeded = self.ROUND - 1
        return [(r * seeded + j) % n for j in range(seeded)] + [n]

    def _out(self, slot):
        return (os.path.join(self.out_dir, f"{slot}-quotient.circ"),
                os.path.join(self.out_dir, f"{slot}-circuit.dot"))

    def argvs(self, k, slot):
        c, _, part, morph = self.inputs[k]["names"]
        path = self.paths[k]
        qpath, dpath = self._out(slot)
        return (["quotient", path, "--partition", part, "-o", qpath],
                ["atomic-decomp", path, "--partition", part],
                ["factorise", path, "--morphism", morph],
                ["dot", path, "--circuit", c, "-o", dpath])

    def cli(self, k, slot):
        """The four subcommands in process: exit codes and captured stdout."""
        codes, stdout = [], []
        for argv in self.argvs(k, slot):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                codes.append(self.oc.cli.main(argv))
            stdout.append(buf.getvalue())
        return codes, stdout

    def op(self, k, slot):
        oc = self.oc
        codes, stdout = self.cli(k, slot)
        text = oc.serialise(oc.parse(self.texts[k]))
        return codes, stdout, text, oc.parse(text)

    def direct(self, k, slot):
        """The layer calls the four subcommands make, without the CLI."""
        tx, cg, mo = self.oc.textio, self.oc.congruence, self.oc.morphism
        c, _, part, morph = self.inputs[k]["names"]
        qpath, dpath = self._out(slot)

        def load():
            with open(self.paths[k], encoding="utf-8") as fh:
                return tx.parse(fh.read())

        doc = load()
        decl = doc.partition(part)
        Q = cg.quotient_circuit(doc.circuit(decl.circuit_name), decl.partition)
        with open(qpath, "w", encoding="utf-8") as fh:
            fh.write(tx.serialise_circuit("Q", Q) + "\n")
        doc = load()
        decl = doc.partition(part)
        current = doc.circuit(decl.circuit_name).gates
        for theta in cg.atomic_decomposition(current, decl.partition):
            cg.block_name(current, next(b for b in theta.blocks if len(b) == 2))
            current = cg.quotient_poset(current, theta)
        doc = load()
        for stage in mo.factorise(doc.morphism(morph)).stages:
            mo.classify_elementary(stage)
        doc = load()
        with open(dpath, "w", encoding="utf-8") as fh:
            fh.write(tx.to_dot(doc.circuit(c)))

    def check(self, k, out, slot):
        codes, stdout, text, reparsed = out
        d = self.inputs[k]
        spec, blocks = d["spec"], d["blocks"]
        qpath, dpath = self._out(slot)
        if codes != [0, 0, 0, 0]:
            yield f"exit codes {codes}, expected all 0"
            return
        # quotient: re-parse and compare with the closure of the block graph
        with open(qpath, encoding="utf-8") as fh:
            Qv = view_of(self.oc.parse(fh.read()).circuit("Q"))
        names = ["+".join(b) for b in blocks]
        rows = quotient_order(spec.view(), blocks)
        if sorted(Qv.gates) != sorted(names):
            yield "quotient gates differ from the partition's blocks"
        elif any(Qv.leq(Qv.index[x], Qv.index[y]) != bool(rows[i] >> j & 1)
                 for i, x in enumerate(names) for j, y in enumerate(names)):
            yield "quotient order differs from the closure of the block graph"
        elif any(Qv.gates[Qv.lam[a]] != d["pi"][g] for a, g in spec.lam.items()) or \
                any(Qv.gates[Qv.mu[b]] != d["pi"][g] for b, g in spec.mu.items()):
            yield "quotient boundary maps differ from the blocks of lambda and mu"
        # atomic-decomp: |gates| - |blocks| steps
        steps = len(spec.gates) - len(blocks)
        lines = stdout[1].splitlines()
        if not lines or lines[0] != f"{steps} atomic steps" or len(lines) != steps + 1:
            yield f"atomic-decomp does not report {steps} steps"
        # factorise: the four stages compose to the quotient map
        stages = []
        for line, label in zip(stdout[2].splitlines(), self.LABELS):
            head, _, entries = line.partition("] ")
            if not head.startswith(label + ":"):
                break
            stages.append(dict(e.split("=>") for e in entries.split()))
        if len(stages) != 4:
            yield "factorise does not print the four stages"
        else:
            for g in spec.gates:
                x = g
                for st in stages:
                    x = st[x]
                if x != d["pi"][g]:
                    yield "factorisation stages do not compose to the morphism"
                    break
        # dot: one box per gate, one edge per cover
        with open(dpath, encoding="utf-8") as fh:
            dot = fh.read().splitlines()
        boxes = sum(1 for ln in dot if ln.startswith('  "g:') and "shape=box" in ln)
        edges = {tuple(part.strip(' ";')[2:] for part in ln.split(" -> "))
                 for ln in dot if ln.startswith('  "g:') and '-> "g:' in ln}
        V = spec.view()
        want = {(V.gates[i], V.gates[j]) for i, j in covers(V)}
        if boxes != len(spec.gates) or edges != want:
            yield "DOT gates or cover edges differ from the circuit"
        # round trip: byte-identical
        if self.oc.serialise(reparsed) != text:
            yield "parse(serialise(doc)) does not serialise to the same bytes"


WORKLOADS = {w.name: w for w in (Lattice, Search, RewriteCli)}


if __name__ == "__main__":
    import argparse

    p = argparse.ArgumentParser(
        description="Write every workload's .circ corpus for a seed, as a run makes it.")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="directory to create")
    args = p.parse_args()
    for cls in WORKLOADS.values():
        w = cls(args.seed, args.out)
        print(f"{w.corpus_dir}: {len(w.paths)} files")
