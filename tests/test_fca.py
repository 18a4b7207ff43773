import itertools

import pytest

import ordercircuits as oc
from ordercircuits.instances import all_relations, random_circuit, random_relation, rng_from_seed
from oracles import brute_closed_input_sets


def test_common_children_and_parents(fourbythree):
    assert oc.common_children(fourbythree, {"2", "3"}) == {"y", "z"}
    assert oc.common_children(fourbythree, set()) == {"x", "y", "z"}
    assert oc.common_parents(fourbythree, {"y"}) == {"2", "3"}
    assert oc.common_parents(fourbythree, {"x", "z"}) == {"2"}


def test_closures(diamond):
    assert oc.closure_inputs(diamond, {"a1"}) == {"a1", "a2"}
    assert oc.closure_inputs(diamond, {"a2"}) == {"a2"}
    assert oc.is_closed_inputs(diamond, {"a2"})
    assert not oc.is_closed_inputs(diamond, {"a1"})
    assert oc.closure_outputs(diamond, {"b2"}) == {"b2"}
    assert oc.closure_outputs(diamond, {"b1"}) == {"b1", "b2"}


def test_closure_is_a_closure_operator():
    rng = rng_from_seed(41)
    for _ in range(20):
        G = random_relation(rng, ("a1", "a2", "a3", "a4"), ("b1", "b2", "b3"))
        elements = list(G.inputs)
        for r in range(len(elements) + 1):
            for alpha in itertools.combinations(elements, r):
                alpha = set(alpha)
                cl = oc.closure_inputs(G, alpha)
                assert alpha <= cl
                assert oc.closure_inputs(G, cl) == cl
        # monotonicity on a sample pair
        cl_small = oc.closure_inputs(G, set(elements[:1]))
        cl_big = oc.closure_inputs(G, set(elements[:2]))
        assert cl_small <= oc.closure_inputs(G, cl_small | cl_big)


def test_closed_input_sets(fourbythree):
    got = oc.closed_input_sets(fourbythree)
    assert got == [frozenset({"2"}), frozenset({"1", "2"}),
                   frozenset({"2", "3"}), frozenset({"2", "3", "4"}),
                   frozenset({"1", "2", "3", "4"})]


def test_closed_input_sets_against_brute_force():
    rng = rng_from_seed(42)
    for _ in range(30):
        G = random_relation(rng, ("a1", "a2", "a3", "a4"), ("b1", "b2", "b3", "b4"))
        assert set(oc.closed_input_sets(G)) == brute_closed_input_sets(G)


def test_concept_lattice_exhaustive_3x3():
    for G in all_relations(("a1", "a2", "a3"), ("b1", "b2", "b3")):
        L = oc.concept_lattice(G)
        closed = sorted(brute_closed_input_sets(G),
                        key=lambda s: (len(s), sorted(G.inputs.index(a) for a in s)))
        names = [oc.concept_name(G, s) for s in closed]
        assert L.gates.elements == tuple(names)
        extent = dict(zip(names, closed))
        for g in names:
            for h in names:
                assert L.gates.leq(g, h) == (extent[g] <= extent[h])
        for a in G.inputs:
            assert L.lam[a] == oc.concept_name(G, oc.closure_inputs(G, {a}))
        for b in G.outputs:
            assert L.mu[b] == oc.concept_name(G, oc.common_parents(G, {b}))
        assert oc.is_lattice(L.gates)


def test_concepts_and_names(fourbythree):
    cs = oc.concepts(fourbythree)
    assert len(cs) == 5
    names = [oc.concept_name(fourbythree, c.extent) for c in cs]
    assert names == ["c_2", "c_1+2", "c_2+3", "c_2+3+4", "c_1+2+3+4"]
    by_name = dict(zip(names, cs))
    assert by_name["c_2+3"].intent == {"y", "z"}
    assert by_name["c_1+2"].intent == {"x"}


def test_concept_lattice_shape(fourbythree):
    L = oc.concept_lattice(fourbythree)
    assert oc.is_lattice(L.gates)
    assert L.gates.leq("c_2", "c_1+2")
    assert L.gates.incomparable("c_1+2", "c_2+3")
    assert L.lam["1"] == "c_1+2"
    assert L.lam["2"] == "c_2"
    assert L.mu["x"] == "c_1+2"
    assert L.mu["z"] == "c_2+3+4"
    j, m = oc.joins_and_meets(L.gates, {"c_1+2", "c_2+3"})
    assert (j, m) == ("c_1+2+3+4", "c_2")


def test_concept_lattice_realises_relation(fourbythree, diamond):
    for G in (fourbythree, diamond):
        L = oc.concept_lattice(G)
        assert oc.connectivity(L).pairs == G.pairs
        assert oc.is_dense_realisation(L, G)


def test_concept_lattice_rigid(fourbythree, diamond):
    for G in (fourbythree, diamond):
        L = oc.concept_lattice(G)
        endos = oc.endomorphisms(L)
        assert len(endos) == 1 and endos[0].mapping == \
            {g: g for g in L.gates.elements}


def test_concept_of_gate(fourbythree):
    L = oc.concept_lattice(fourbythree)
    c = oc.concept_of_gate(fourbythree, L, "c_2+3")
    assert c.extent == {"2", "3"} and c.intent == {"y", "z"}


def test_three_perspectives(fourbythree, diamond):
    assert oc.verify_three_perspectives(fourbythree)
    assert oc.verify_three_perspectives(diamond)


def test_three_perspectives_random():
    rng = rng_from_seed(43)
    for _ in range(15):
        G = random_relation(rng, ("a1", "a2", "a3", "a4"), ("b1", "b2", "b3", "b4"))
        assert oc.verify_three_perspectives(G)


def test_canonical_morphism_to_lattice(fourbythree):
    L = oc.concept_lattice(fourbythree)
    B = oc.basic_circuit(fourbythree)
    for variant in ("join", "meet"):
        f = oc.canonical_morphism_to_lattice(B, L, variant=variant)
        assert oc.is_morphism(f)


def test_canonical_morphism_rejects_larger_connectivity(fourbythree):
    L = oc.concept_lattice(fourbythree)
    # a circuit whose single gate carries every input and output is
    # fully connected, which exceeds the relation
    full = oc.Circuit(oc.poset_from_generators(["g"], []),
                      fourbythree.inputs, fourbythree.outputs,
                      {a: "g" for a in fourbythree.inputs},
                      {b: "g" for b in fourbythree.outputs})
    with pytest.raises(oc.ConnectivityNotContained):
        oc.canonical_morphism_to_lattice(full, L)


def test_canonical_morphism_requires_lattice(fourgate):
    # fourgate's gate poset has no top, so it is not a lattice
    with pytest.raises(oc.NotALattice):
        oc.canonical_morphism_to_lattice(fourgate, fourgate)


def test_upper_adjoint_biconditional(fourbythree):
    # connectivity(P) <= G iff P maps into the concept lattice of G
    rng = rng_from_seed(44)
    L = oc.concept_lattice(fourbythree)
    hits = 0
    for _ in range(40):
        P = random_circuit(rng, fourbythree.inputs, fourbythree.outputs, 4)
        contained = oc.connectivity(P).pairs <= fourbythree.pairs
        exists = oc.morphism_exists(P, L)
        assert contained == exists
        hits += contained
    assert 0 < hits < 40


def test_basic_circuit(fourbythree):
    B = oc.basic_circuit(fourbythree)
    assert set(B.gates.elements) == {"2", "3", "x", "y", "z"}
    assert B.lam["1"] == "x" and B.lam["4"] == "z"
    assert B.lam["2"] == "2" and B.lam["3"] == "3"
    assert B.mu == {"x": "x", "y": "y", "z": "z"}
    assert B.gates.leq("2", "x") and B.gates.leq("2", "y")
    assert B.gates.incomparable("3", "x")
    assert oc.connectivity(B).pairs == fourbythree.pairs


def test_basic_circuit_c3(diamond):
    B = oc.basic_circuit(diamond)
    assert len(B.gates.elements) == 6
    assert oc.connectivity(B).pairs == diamond.pairs


def test_lower_adjoint_biconditional(diamond):
    # G <= connectivity(P) iff the basic circuit of G maps into P
    rng = rng_from_seed(45)
    B = oc.basic_circuit(diamond)
    full = oc.Circuit(oc.poset_from_generators(["g"], []),
                      diamond.inputs, diamond.outputs,
                      {a: "g" for a in diamond.inputs},
                      {b: "g" for b in diamond.outputs})
    samples = [full, oc.concept_lattice(diamond)]
    samples += [random_circuit(rng, diamond.inputs, diamond.outputs, 4) for _ in range(30)]
    hits = 0
    for P in samples:
        contains = diamond.pairs <= oc.connectivity(P).pairs
        exists = oc.morphism_exists(B, P)
        assert contains == exists
        hits += contains
    assert 0 < hits < len(samples)


def test_canonical_morphism_from_basic(diamond):
    L = oc.concept_lattice(diamond)
    f = oc.canonical_morphism_from_basic(diamond, L)
    assert oc.is_morphism(f)
    assert f.source.gates.elements == oc.basic_circuit(diamond).gates.elements
    # the lattice realises exactly diamond, so the map exists in one direction only
    assert oc.morphism_exists(f.source, L)
    assert not oc.morphism_exists(L, f.source)


def test_sandwich(fourbythree, diamond):
    for G in (fourbythree, diamond):
        assert oc.verify_sandwich(G, oc.basic_circuit(G))
        assert oc.verify_sandwich(G, oc.concept_lattice(G))


def test_sandwich_exhaustive_small():
    rng = rng_from_seed(46)
    for G in all_relations(("a1", "a2"), ("b1", "b2")):
        assert oc.verify_sandwich(G, oc.basic_circuit(G))
        P = random_circuit(rng, ("a1", "a2"), ("b1", "b2"), 3)
        assert oc.verify_sandwich(G, P)


def test_is_dense_realisation_negative(fourbythree):
    # a lattice with an extra top is no longer a dense realisation
    L = oc.concept_lattice(fourbythree)
    names = list(L.gates.elements) + ["extra"]
    P2 = oc.poset_from_generators(
        names, list(oc.covers(L.gates)) + [("c_1+2+3+4", "extra")])
    L2 = oc.Circuit(P2, L.inputs, L.outputs, dict(L.lam), dict(L.mu))
    assert oc.is_lattice(L2.gates)
    assert not oc.is_dense_realisation(L2, fourbythree)
