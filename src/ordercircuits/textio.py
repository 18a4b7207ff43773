"""The .circ textual format and deterministic DOT export.

Grammar (whitespace-insensitive, '#' line comments, identifiers are
[A-Za-z0-9_+]+; '+' is allowed so machine-generated block and concept
gate names round-trip):

    circuit NAME { inputs: id*; outputs: id*; gates: id*;
                   order: (id "<" id ";")*; lambda: (id "->" id ";")*;
                   mu: (id "->" id ";")*; }
    relation NAME { inputs: id*; outputs: id*; pairs: (id "-" id ";")* }
    partition NAME of CIRCUITNAME { (block: id+ ";")* }
    morphism NAME : SRC -> DST { (id "=>" id ";")* }

Order pairs are generators; closure is recomputed on parse.  Gates not
listed in any partition block become singletons.
"""

from __future__ import annotations

import heapq
import re
from dataclasses import dataclass, field

from .circuit import Circuit, Relation
from .congruence import Equivalence
from .errors import CycleError, OrderCircuitError, ParseError, UnknownElement
from .morphism import Morphism
from .poset import covers, poset_from_generators

_ID = re.compile(r"[A-Za-z0-9_+]+")
_PUNCT = ["->", "=>", "{", "}", ":", ";", "<", "-"]


@dataclass
class _Token:
    kind: str  # 'id' or the punct itself
    value: str
    line: int
    col: int


def _tokenize(text):
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        m = _ID.match(text, i)
        if m:
            tokens.append(_Token("id", m.group(), line, col))
            col += len(m.group())
            i = m.end()
            continue
        for p in _PUNCT:
            if text.startswith(p, i):
                tokens.append(_Token(p, p, line, col))
                i += len(p)
                col += len(p)
                break
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("eof", "", line, col))
    return tokens


@dataclass
class CircuitDecl:
    name: str
    circuit: Circuit


@dataclass
class RelationDecl:
    name: str
    relation: Relation


@dataclass
class PartitionDecl:
    name: str
    circuit_name: str
    partition: Equivalence


@dataclass
class MorphismDecl:
    name: str
    source_name: str
    target_name: str
    morphism: Morphism


@dataclass
class Document:
    """A parsed .circ file: named declarations with resolved references."""

    decls: dict = field(default_factory=dict)

    def circuit(self, name):
        d = self._get(name, CircuitDecl, "circuit")
        return d.circuit

    def relation(self, name):
        d = self._get(name, RelationDecl, "relation")
        return d.relation

    def partition(self, name):
        d = self._get(name, PartitionDecl, "partition")
        return d

    def morphism(self, name):
        d = self._get(name, MorphismDecl, "morphism")
        return d.morphism

    def _get(self, name, cls, kind):
        if name not in self.decls:
            raise UnknownElement(f"no declaration named {name!r}")
        d = self.decls[name]
        if not isinstance(d, cls):
            raise UnknownElement(f"declaration {name!r} is not a {kind}")
        return d


class _Parser:
    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self, ahead=0):
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self):
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect(self, kind, what=None):
        tok = self.next()
        if tok.kind != kind:
            raise ParseError(f"expected {what or kind!r}, found {tok.value!r}",
                             tok.line, tok.col)
        return tok

    def expect_id(self, what="identifier"):
        return self.expect("id", what)

    def expect_keyword(self, word):
        tok = self.next()
        if tok.kind != "id" or tok.value != word:
            raise ParseError(f"expected {word!r}, found {tok.value!r}",
                             tok.line, tok.col)
        return tok

    def at_section(self):
        """True if the next tokens look like `word :`."""
        return self.peek().kind == "id" and self.peek(1).kind == ":"

    def id_list(self):
        ids = []
        while self.peek().kind == "id":
            ids.append(self.next().value)
        self.expect(";")
        return ids

    def pair_list(self, sep):
        pairs = []
        while True:
            while self.peek().kind == ";":  # stray separators, incl. empty section
                self.next()
            if self.peek().kind != "id" or self.at_section():
                return pairs
            a = self.next().value
            self.expect(sep)
            b = self.expect_id().value
            if self.peek().kind == ";":
                self.next()
            pairs.append((a, b))

    def parse(self):
        doc = Document()
        while self.peek().kind != "eof":
            tok = self.peek()
            if tok.kind != "id":
                raise ParseError(f"expected a declaration, found {tok.value!r}",
                                 tok.line, tok.col)
            if tok.value == "circuit":
                decl = self.circuit_decl()
            elif tok.value == "relation":
                decl = self.relation_decl()
            elif tok.value == "partition":
                decl = self.partition_decl(doc)
            elif tok.value == "morphism":
                decl = self.morphism_decl(doc)
            else:
                raise ParseError(f"unknown declaration kind {tok.value!r}",
                                 tok.line, tok.col)
            if decl.name in doc.decls:
                raise ParseError(f"duplicate declaration name {decl.name!r}",
                                 tok.line, tok.col)
            doc.decls[decl.name] = decl
        return doc

    def section(self, word):
        self.expect_keyword(word)
        self.expect(":")

    def circuit_decl(self):
        self.expect_keyword("circuit")
        name = self.expect_id("circuit name").value
        tok = self.peek()
        self.expect("{")
        self.section("inputs")
        inputs = self.id_list()
        self.section("outputs")
        outputs = self.id_list()
        self.section("gates")
        gates = self.id_list()
        self.section("order")
        order = self.pair_list("<")
        self.section("lambda")
        lam_pairs = self.pair_list("->")
        self.section("mu")
        mu_pairs = self.pair_list("->")
        self.expect("}")
        try:
            P = poset_from_generators(gates, order)
            circuit = Circuit(P, inputs, outputs, dict(lam_pairs), dict(mu_pairs))
        except (CycleError, UnknownElement, ValueError) as exc:
            raise ParseError(f"in circuit {name!r}: {exc}", tok.line, tok.col) from exc
        return CircuitDecl(name, circuit)

    def relation_decl(self):
        self.expect_keyword("relation")
        name = self.expect_id("relation name").value
        tok = self.peek()
        self.expect("{")
        self.section("inputs")
        inputs = self.id_list()
        self.section("outputs")
        outputs = self.id_list()
        self.section("pairs")
        pairs = self.pair_list("-")
        self.expect("}")
        try:
            relation = Relation(inputs, outputs, pairs)
        except (UnknownElement, ValueError) as exc:
            raise ParseError(f"in relation {name!r}: {exc}", tok.line, tok.col) from exc
        return RelationDecl(name, relation)

    def partition_decl(self, doc):
        self.expect_keyword("partition")
        name = self.expect_id("partition name").value
        self.expect_keyword("of")
        ctok = self.peek()
        circuit_name = self.expect_id("circuit name").value
        self.expect("{")
        blocks = []
        while self.at_section():
            self.section("block")
            ids = []
            while self.peek().kind == "id" and not self.at_section():
                ids.append(self.next().value)
            self.expect(";")
            if not ids:
                raise ParseError(f"in partition {name!r}: empty block",
                                 ctok.line, ctok.col)
            blocks.append(ids)
        self.expect("}")
        try:
            circuit = doc.circuit(circuit_name)
        except UnknownElement as exc:
            raise ParseError(f"in partition {name!r}: {exc}",
                             ctok.line, ctok.col) from exc
        listed = [x for b in blocks for x in b]
        try:
            for x in listed:
                if x not in circuit.gates:
                    raise UnknownElement(f"{x!r} is not a gate of {circuit_name!r}")
            singles = [{g} for g in circuit.gates.elements if g not in set(listed)]
            partition = Equivalence(blocks + singles)
        except (OrderCircuitError, ValueError) as exc:
            raise ParseError(f"in partition {name!r}: {exc}",
                             ctok.line, ctok.col) from exc
        return PartitionDecl(name, circuit_name, partition)

    def morphism_decl(self, doc):
        self.expect_keyword("morphism")
        name = self.expect_id("morphism name").value
        self.expect(":")
        stok = self.peek()
        src = self.expect_id("source circuit").value
        self.expect("->")
        dst = self.expect_id("target circuit").value
        self.expect("{")
        entries = []
        while self.peek().kind == "id":
            a = self.next().value
            self.expect("=>")
            b = self.expect_id().value
            self.expect(";")
            entries.append((a, b))
        self.expect("}")
        try:
            source = doc.circuit(src)
            target = doc.circuit(dst)
            morphism = Morphism(source, target, dict(entries))
        except (OrderCircuitError, ValueError) as exc:
            raise ParseError(f"in morphism {name!r}: {exc}",
                             stok.line, stok.col) from exc
        return MorphismDecl(name, src, dst, morphism)


def parse(text):
    """Parse a .circ document; raises ParseError with line:col on failure."""
    return _Parser(text).parse()


def _fmt_ids(ids):
    return " ".join(ids) + (" ;" if not ids else ";")


def _sorted_cover_pairs(circuit):
    pos = {g: i for i, g in enumerate(circuit.gates.elements)}
    return sorted(covers(circuit.gates), key=lambda pq: (pos[pq[0]], pos[pq[1]]))


def serialise_circuit(name, circuit):
    lines = [f"circuit {name} {{"]
    lines.append(f"  inputs: {_fmt_ids(circuit.inputs)}")
    lines.append(f"  outputs: {_fmt_ids(circuit.outputs)}")
    lines.append(f"  gates: {_fmt_ids(circuit.gates.elements)}")
    order = " ".join(f"{p} < {q};" for p, q in _sorted_cover_pairs(circuit))
    lines.append(f"  order: {order}".rstrip())
    lam = " ".join(f"{a} -> {circuit.lam[a]};" for a in circuit.inputs)
    lines.append(f"  lambda: {lam}".rstrip())
    mu = " ".join(f"{b} -> {circuit.mu[b]};" for b in circuit.outputs)
    lines.append(f"  mu: {mu}".rstrip())
    lines.append("}")
    return "\n".join(lines)


def serialise_relation(name, relation):
    pos_a = {a: i for i, a in enumerate(relation.inputs)}
    pos_b = {b: i for i, b in enumerate(relation.outputs)}
    pairs = sorted(relation.pairs, key=lambda ab: (pos_a[ab[0]], pos_b[ab[1]]))
    lines = [f"relation {name} {{"]
    lines.append(f"  inputs: {_fmt_ids(relation.inputs)}")
    lines.append(f"  outputs: {_fmt_ids(relation.outputs)}")
    body = " ".join(f"{a} - {b};" for a, b in pairs)
    lines.append(f"  pairs: {body}".rstrip())
    lines.append("}")
    return "\n".join(lines)


def serialise_partition(decl):
    lines = [f"partition {decl.name} of {decl.circuit_name} {{"]
    for blk in decl.partition.blocks:
        lines.append(f"  block: {' '.join(sorted(blk))};")
    lines.append("}")
    return "\n".join(lines)


def serialise_morphism(decl):
    lines = [f"morphism {decl.name} : {decl.source_name} -> {decl.target_name} {{"]
    for g in decl.morphism.source.gates.elements:
        lines.append(f"  {g} => {decl.morphism(g)};")
    lines.append("}")
    return "\n".join(lines)


def _circuit_refs(decl):
    """Names of the circuits that decl refers to."""
    if isinstance(decl, PartitionDecl):
        return {decl.circuit_name}
    if isinstance(decl, MorphismDecl):
        return {decl.source_name, decl.target_name}
    return set()


def _declaration_order(doc):
    """Declaration names with every declaration after the circuits it
    refers to; among the declarations ready at each step the least name
    comes first.  Only circuits are referred to, so there is no cycle."""
    circuits = {name for name, decl in doc.decls.items()
                if isinstance(decl, CircuitDecl)}
    waiting = {name: _circuit_refs(decl) & circuits
               for name, decl in doc.decls.items()}
    ready = [name for name, refs in waiting.items() if not refs]
    heapq.heapify(ready)
    order = []
    while ready:
        name = heapq.heappop(ready)
        order.append(name)
        for later, refs in waiting.items():
            if name in refs:
                refs.discard(name)
                if not refs:
                    heapq.heappush(ready, later)
    return order


def serialise(doc):
    """Canonical text: each declaration after the ones it refers to, by
    name where that leaves a choice, ids in canonical order.

    parse(serialise(doc)) reproduces doc, and a second serialise pass is
    byte-identical.
    """
    chunks = []
    for name in _declaration_order(doc):
        decl = doc.decls[name]
        if isinstance(decl, CircuitDecl):
            chunks.append(serialise_circuit(name, decl.circuit))
        elif isinstance(decl, RelationDecl):
            chunks.append(serialise_relation(name, decl.relation))
        elif isinstance(decl, PartitionDecl):
            chunks.append(serialise_partition(decl))
        elif isinstance(decl, MorphismDecl):
            chunks.append(serialise_morphism(decl))
    if not chunks:
        return ""
    return "\n\n".join(chunks) + "\n"


def to_dot(C, name="circuit"):
    """Deterministic DOT rendering of a circuit diagram.

    Gates are boxes; inputs rank at the source, outputs at the sink; edges
    are the cover relations plus the boundary attachments, drawn upward.
    """
    lines = [f"digraph {name} {{", "  rankdir=BT;"]
    if C.inputs:
        lines.append("  { rank=source;")
        for a in C.inputs:
            lines.append(f'    "in:{a}" [shape=plaintext, label="{a}"];')
        lines.append("  }")
    if C.outputs:
        lines.append("  { rank=sink;")
        for b in C.outputs:
            lines.append(f'    "out:{b}" [shape=plaintext, label="{b}"];')
        lines.append("  }")
    for g in C.gates.elements:
        lines.append(f'  "g:{g}" [shape=box, label="{g}"];')
    for p, q in _sorted_cover_pairs(C):
        lines.append(f'  "g:{p}" -> "g:{q}";')
    for a in C.inputs:
        lines.append(f'  "in:{a}" -> "g:{C.lam[a]}";')
    for b in C.outputs:
        lines.append(f'  "g:{C.mu[b]}" -> "out:{b}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
