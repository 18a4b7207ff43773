"""The benchmark's oracles against the demo files' known answers.

    python3 -m pytest bench/test_oracle.py

The library only parses the demo files; every answer is the oracle's.
"""

import itertools
import os
import random
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import inputs  # noqa: E402
import oracle  # noqa: E402
from ordercircuits import parse  # noqa: E402


def demo(name):
    with open(os.path.join(ROOT, "demos", name), encoding="utf-8") as fh:
        return parse(fh.read())


def relation_parts(G):
    return G.inputs, G.outputs, G.pairs


def test_closed_sets_of_fourbythree():
    G = demo("fourbythree.circ").relation("G")
    closed = oracle.closed_input_sets(*relation_parts(G))
    want = [{"1", "2", "3", "4"}, {"1", "2"}, {"2", "3"}, {"2", "3", "4"}, {"2"}]
    assert closed == {oracle.mask_of(s, G.inputs) for s in want}


def test_closed_sets_of_diamond_match_its_lattice():
    doc = demo("diamond.circ")
    closed = oracle.closed_input_sets(*relation_parts(doc.relation("R")))
    assert len(closed) == len(doc.circuit("lattice").gates) == 4


def test_quotient_of_classical_by_merge_is_the_lattice():
    doc = demo("diamond.circ")
    C = oracle.view_of(doc.circuit("classical"))
    blocks = [sorted(b, key=C.gates.index) for b in doc.partition("merge").partition.blocks]
    rows = oracle.quotient_order(C, blocks)
    names = ["+".join(b) for b in blocks]
    of = {g: n for b, n in zip(blocks, names) for g in b}
    Q = oracle.View(names, rows, C.inputs, C.outputs,
                    {a: of[C.gates[i]] for a, i in C.lam.items()},
                    {b: of[C.gates[i]] for b, i in C.mu.items()})
    L = oracle.view_of(doc.circuit("lattice"))
    isos = [dict(zip(Q.gates, (L.gates[q] for q in sol)))
            for sol in oracle.morphisms(Q, L)]
    assert any(oracle.is_isomorphism(Q, L, f) for f in isos)


def test_connectivity_of_fourgate():
    P = oracle.view_of(demo("fourgate.circ").circuit("P"))
    assert oracle.connectivity(P) == {("a1", "b1"), ("a2", "b2"), ("a3", "b2")}


def test_oneway_morphisms():
    doc = demo("oneway.circ")
    P, Q = oracle.view_of(doc.circuit("P")), oracle.view_of(doc.circuit("Q"))
    assert oracle.least_morphism(P, Q) == {g: "q" for g in "abcd"}
    assert oracle.least_morphism(Q, P) is None


def test_equivalent_but_not_isomorphic():
    doc = demo("equiv.circ")
    L, R = oracle.view_of(doc.circuit("L")), oracle.view_of(doc.circuit("R"))
    f = doc.morphism("f").mapping
    assert oracle.is_morphism(L, R, f)
    assert not oracle.is_isomorphism(L, R, f)
    assert oracle.least_morphism(R, L) is not None
    assert not any(oracle.is_isomorphism(L, R, dict(zip(L.gates, (R.gates[q] for q in s))))
                   for s in oracle.morphisms(L, R))


def test_search_agrees_with_exhaustive_maps():
    rng = random.Random(7)
    for _ in range(40):
        P = inputs.random_spec(rng, rng.randint(1, 5), 0.4, 2).view()
        Q = inputs.random_spec(rng, rng.randint(1, 5), 0.4, 2).view()
        brute = [t for t in itertools.product(range(len(Q.gates)), repeat=len(P.gates))
                 if oracle.is_morphism(P, Q, {g: Q.gates[q] for g, q in zip(P.gates, t)})]
        assert oracle.morphisms(P, Q) == brute


def test_rewrites_admit_their_construction_map():
    rng = random.Random(3)
    for _ in range(30):
        s = inputs.random_spec(rng, rng.randint(6, 10), 0.25, 3)
        t, f = inputs.rewrite(rng, s, rng.randint(1, 4))
        assert oracle.is_morphism(s.view(), t.view(), f)


def test_interval_partitions_are_compatible():
    rng = random.Random(5)
    for _ in range(30):
        s = inputs.random_spec(rng, rng.randint(4, 12), 0.3, 2)
        rows = oracle.quotient_order(s.view(), inputs.interval_blocks(rng, s.gates))
        assert all(not (rows[i] >> j & 1 and rows[j] >> i & 1)
                   for i in range(len(rows)) for j in range(i))
