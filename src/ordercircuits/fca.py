"""Galois connection of a relation, closure operators, the concept
lattice as a circuit, the basic circuit, and the canonical morphisms
between a circuit and these two extremes."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, Relation, connectivity, future_outputs, past_inputs
from .errors import (ConnectivityNotContained, ConnectivityNotContaining,
                     NotALattice, UnknownElement)
from .poset import Poset, is_lattice, join_of, meet_of


def common_children(G, alpha):
    """c(alpha) = {b : a G b for all a in alpha}; c({}) = B."""
    result = set(G.outputs)
    for a in alpha:
        if a not in G.inputs:
            raise UnknownElement(f"unknown input {a!r}")
        result &= G.children(a)
    return frozenset(result)


def common_parents(G, beta):
    """p(beta) = {a : a G b for all b in beta}; p({}) = A."""
    result = set(G.inputs)
    for b in beta:
        if b not in G.outputs:
            raise UnknownElement(f"unknown output {b!r}")
        result &= G.parents(b)
    return frozenset(result)


def closure_inputs(G, alpha):
    """The closure pc(alpha) on the input side."""
    return common_parents(G, common_children(G, alpha))


def closure_outputs(G, beta):
    """The closure cp(beta) on the output side."""
    return common_children(G, common_parents(G, beta))


def is_closed_inputs(G, alpha):
    alpha = frozenset(alpha)
    return closure_inputs(G, alpha) == alpha


def is_closed_outputs(G, beta):
    beta = frozenset(beta)
    return closure_outputs(G, beta) == beta


def _rows_and_cols(G):
    """G as int masks: rows[i] has bit j and cols[j] has bit i iff
    inputs[i] G outputs[j]."""
    ia = {a: i for i, a in enumerate(G.inputs)}
    ib = {b: j for j, b in enumerate(G.outputs)}
    rows = [0] * len(G.inputs)
    cols = [0] * len(G.outputs)
    for a, b in G.pairs:
        i, j = ia[a], ib[b]
        rows[i] |= 1 << j
        cols[j] |= 1 << i
    return rows, cols


def _ones(mask):
    """Positions of the set bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _common(masks, bits, full):
    """The AND of masks[k] over the set bits k of bits; full if none."""
    for k in _ones(bits):
        full &= masks[k]
    return full


def _intersections(masks, full):
    """Every intersection of some of the masks, full being the empty one."""
    family = {full}
    for m in masks:
        family |= {s & m for s in family}
    return family


def _closed_extents(G, cols):
    """The closed input sets as masks, by size and then member positions."""
    family = _intersections(cols, (1 << len(G.inputs)) - 1)
    return sorted(family, key=lambda m: (m.bit_count(), _ones(m)))


def _inclusion_matrix(masks):
    """Boolean matrix with [i, j] iff masks[i] is a subset of masks[j]."""
    return np.array([[not a & ~b for b in masks] for a in masks], dtype=bool)


def closed_input_sets(G):
    """All closed subsets of A: intersections of the parent sets plus A,
    smallest first, ties broken by the input positions of their members.

    Exponential in the worst case (at most 2^min(|A|,|B|) sets), which is
    fine at desk scale.
    """
    _, cols = _rows_and_cols(G)
    return [frozenset(G.inputs[i] for i in _ones(m)) for m in _closed_extents(G, cols)]


@dataclass(frozen=True)
class Concept:
    """A pair of closed sets: extent = p(intent), intent = c(extent)."""

    extent: frozenset
    intent: frozenset


def concept_name(G, extent):
    """Gate name of the concept with the given extent, DSL-safe."""
    pos = {a: i for i, a in enumerate(G.inputs)}
    return "c_" + "+".join(sorted(extent, key=lambda a: pos[a]))


def concepts(G):
    """All concepts of G, ordered by extent (smallest first, canonical)."""
    return [Concept(alpha, common_children(G, alpha))
            for alpha in closed_input_sets(G)]


def _extent_circuit(G, prefix):
    """The closed input sets as a circuit ordered by inclusion, each gate
    named prefix + its members; lambda(a) is the closure of {a} and mu(b)
    the parent set of b.  Also returns the map from closed set to gate."""
    rows, cols = _rows_and_cols(G)
    full = (1 << len(G.inputs)) - 1
    family = _closed_extents(G, cols)
    members = [[G.inputs[i] for i in _ones(m)] for m in family]
    names = [prefix + "+".join(ms) for ms in members]
    by_mask = dict(zip(family, names))
    lam = {a: by_mask[_common(cols, rows[i], full)] for i, a in enumerate(G.inputs)}
    mu = {b: by_mask[cols[j]] for j, b in enumerate(G.outputs)}
    circuit = Circuit(Poset(tuple(names), _inclusion_matrix(family)),
                      G.inputs, G.outputs, lam, mu)
    return circuit, {frozenset(ms): name for ms, name in zip(members, names)}


def concept_lattice(G):
    """The concept lattice of G as a circuit.

    Gates are the concepts, ordered by extent inclusion; lambda(a) is the
    smallest concept containing a in its extent, mu(b) the greatest
    concept containing b in its intent.
    """
    return _extent_circuit(G, "c_")[0]


def concept_of_gate(G, L, gate):
    """Recover the Concept behind a gate of concept_lattice(G)."""
    return Concept(frozenset(past_inputs(L, gate)), frozenset(future_outputs(L, gate)))


def _closed_family_circuit(G, side):
    """The closed-set circuit on the input side ('A') or the opposite
    order of closed output sets ('B'), with transported boundary maps."""
    if side == "A":
        return _extent_circuit(G, "s_")
    rows, cols = _rows_and_cols(G)
    full = (1 << len(G.outputs)) - 1
    family = sorted(_intersections(rows, full), key=lambda m: (-m.bit_count(), _ones(m)))
    members = [[G.outputs[j] for j in _ones(m)] for m in family]
    names = ["t_" + "+".join(ms) for ms in members]
    by_mask = dict(zip(family, names))
    lam = {a: by_mask[rows[i]] for i, a in enumerate(G.inputs)}
    mu = {b: by_mask[_common(rows, cols[j], full)] for j, b in enumerate(G.outputs)}
    matrix = _inclusion_matrix(family).T  # opposite order
    circuit = Circuit(Poset(tuple(names), matrix), G.inputs, G.outputs, lam, mu)
    return circuit, {frozenset(ms): name for ms, name in zip(members, names)}


def _is_circuit_iso(f):
    """Strict check: bijective order isomorphism with equal boundary maps."""
    from .morphism import _boundary_transported, _order_reflected, is_morphism
    return (f.is_bijective() and is_morphism(f)
            and _order_reflected(f) and _boundary_transported(f))


def verify_three_perspectives(G):
    """Check the commuting triangle of isomorphisms between the concept
    lattice and the two closed-set-family circuits.

    A False return indicates a library bug, not a property of G.
    """
    from .morphism import Morphism
    L = concept_lattice(G)
    CA, a_names = _closed_family_circuit(G, "A")
    CB, b_names = _closed_family_circuit(G, "B")
    pi_A = Morphism(L, CA, {g: a_names[frozenset(past_inputs(L, g))]
                            for g in L.gates.elements})
    pi_B = Morphism(L, CB, {g: b_names[frozenset(future_outputs(L, g))]
                            for g in L.gates.elements})
    # third side: closed input set alpha |-> c(alpha)
    c_bar = Morphism(CA, CB, {a_names[alpha]: b_names[common_children(G, alpha)]
                              for alpha in a_names})
    if not (_is_circuit_iso(pi_A) and _is_circuit_iso(pi_B) and _is_circuit_iso(c_bar)):
        return False
    return all(c_bar(pi_A(g)) == pi_B(g) for g in L.gates.elements)


def canonical_morphism_to_lattice(P, L, variant="join"):
    """The canonical morphism from P into a lattice-shaped circuit L.

    join variant: f(p) = join of lambda_L(a) over a in p^-;
    meet variant: f(p) = meet of mu_L(b) over b in p^+.
    Requires connectivity(P) <= connectivity(L) and matching boundaries.
    """
    from .morphism import Morphism
    if not is_lattice(L.gates):
        raise NotALattice("target circuit is not a lattice")
    GP, GL = connectivity(P), connectivity(L)
    if not GP.pairs <= GL.pairs:
        raise ConnectivityNotContained(
            "connectivity of P is not contained in connectivity of L")
    mapping = {}
    for p in P.gates.elements:
        if variant == "join":
            targets = [L.lam[a] for a in past_inputs(P, p)]
            mapping[p] = join_of(L.gates, targets)
        elif variant == "meet":
            targets = [L.mu[b] for b in future_outputs(P, p)]
            mapping[p] = meet_of(L.gates, targets)
        else:
            raise ValueError(f"unknown variant {variant!r}")
        if mapping[p] is None:
            raise NotALattice("target lattice lacks a required bound")
    return Morphism(P, L, mapping)


def basic_circuit(G):
    """The minimal-gate circuit with connectivity G.

    Gates are the inputs with child count != 1 together with the outputs
    whose parent count != 1 or whose parents all have a single child; the
    order relates such an input below such an output iff they are
    G-related.  Gate names reuse the raw input/output names; an output
    colliding with a retained input name is suffixed deterministically.
    """
    a_bar = [a for a in G.inputs if len(G.children(a)) != 1]
    b_bar = [b for b in G.outputs
             if len(G.parents(b)) != 1
             or all(len(G.children(a)) == 1 for a in G.parents(b))]
    a_gate = {a: a for a in a_bar}
    taken = set(a_bar)
    b_gate = {}
    for b in b_bar:
        name = b
        while name in taken:
            name = name + "_o"
        taken.add(name)
        b_gate[b] = name
    elements = tuple(a_gate[a] for a in a_bar) + tuple(b_gate[b] for b in b_bar)
    genpairs = [(a_gate[a], b_gate[b])
                for a in a_bar for b in b_bar if (a, b) in G.pairs]
    from .poset import poset_from_generators
    P = poset_from_generators(elements, genpairs)
    lam = {}
    for a in G.inputs:
        if a in a_gate:
            lam[a] = a_gate[a]
        else:
            (b,) = G.children(a)
            lam[a] = b_gate[b]
    mu = {}
    for b in G.outputs:
        if b in b_gate:
            mu[b] = b_gate[b]
        else:
            (a,) = G.parents(b)
            mu[b] = a_gate[a]
    return Circuit(P, G.inputs, G.outputs, lam, mu)


def canonical_morphism_from_basic(G, P):
    """The canonical morphism basic_circuit(G) -> P.

    Input-side gates go to lambda_P, output-side gates to mu_P.  Requires
    G <= connectivity(P) and matching boundaries.
    """
    from .morphism import Morphism
    GP = connectivity(P)
    if not (set(G.inputs) == set(P.inputs) and set(G.outputs) == set(P.outputs)):
        raise ConnectivityNotContaining("relation and circuit have different boundaries")
    if not G.pairs <= GP.pairs:
        raise ConnectivityNotContaining(
            "connectivity of P does not contain the relation")
    B = basic_circuit(G)
    a_bar = [a for a in G.inputs if len(G.children(a)) != 1]
    b_bar = [b for b in G.outputs
             if len(G.parents(b)) != 1
             or all(len(G.children(a)) == 1 for a in G.parents(b))]
    mapping = {}
    for a in a_bar:
        mapping[B.lam[a]] = P.lam[a]
    for b in b_bar:
        mapping[B.mu[b]] = P.mu[b]
    return Morphism(B, P, mapping)


def verify_sandwich(G, P, budget=None):
    """Check the biconditional: connectivity(P) = G iff the basic circuit
    of G maps into P and P maps into the concept lattice of G.

    Always True for a correct library; a False return carries no meaning
    beyond 'bug'.
    """
    from .morphism import morphism_exists
    GP = connectivity(P)
    left = GP == Relation(GP.inputs, GP.outputs, G.pairs) if G.same_boundary(P) else False
    lower = morphism_exists(basic_circuit(G), P, budget)
    upper = morphism_exists(P, concept_lattice(G), budget)
    return left == (lower and upper)


def is_dense_realisation(L, G):
    """True iff L has connectivity G and lambda/mu images are join- and
    meet-dense, i.e. iff L is circuit-isomorphic to the concept lattice."""
    if not is_lattice(L.gates):
        raise NotALattice("circuit is not a lattice")
    GL = connectivity(L)
    if not (set(GL.inputs) == set(G.inputs) and set(GL.outputs) == set(G.outputs)):
        return False
    if GL.pairs != G.pairs:
        return False
    for v in L.gates.elements:
        below = [L.lam[a] for a in L.inputs if L.gates.leq(L.lam[a], v)]
        if join_of(L.gates, below) != v:
            return False
        above = [L.mu[b] for b in L.outputs if L.gates.leq(v, L.mu[b])]
        if meet_of(L.gates, above) != v:
            return False
    return True
