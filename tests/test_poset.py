import itertools

import pytest

import ordercircuits as oc
from ordercircuits.instances import all_posets, random_poset, rng_from_seed

from oracles import brute_bounds, brute_is_lattice


def test_from_generators_closure():
    P = oc.poset_from_generators("pqrs", [("q", "p"), ("q", "r"), ("r", "s")])
    assert P.leq("q", "s")  # derived by transitivity
    assert P.incomparable("p", "r")
    assert P.incomparable("p", "s")
    assert not P.leq("p", "q")


def test_singleton():
    P = oc.poset_from_generators(["x"], [])
    assert P.leq("x", "x")
    assert len(P) == 1


def test_cycle_rejected():
    with pytest.raises(oc.CycleError) as exc:
        oc.poset_from_generators(["p", "q"], [("p", "q"), ("q", "p")])
    assert "p" in exc.value.cycle and "q" in exc.value.cycle


def test_unknown_element_in_pair():
    with pytest.raises(oc.UnknownElement):
        oc.poset_from_generators(["p"], [("p", "zz")])


def test_covers_chain():
    P = oc.poset_from_generators("abc", [("a", "b"), ("b", "c"), ("a", "c")])
    assert oc.covers(P) == {("a", "b"), ("b", "c")}


def test_covers_example(fourgate):
    assert oc.covers(fourgate.gates) == {("q", "p"), ("q", "r"), ("r", "s")}


def test_covers_antichain():
    P = oc.poset_from_generators("abc", [])
    assert oc.covers(P) == set()


def test_is_convex(fourgate):
    P = fourgate.gates
    assert not oc.is_convex(P, {"q", "s"})  # r lies strictly between
    assert oc.is_convex(P, {"q", "r"})
    for g in P.elements:
        assert oc.is_convex(P, {g})
    assert oc.is_convex(P, set(P.elements))
    assert oc.is_convex(P, set())


def test_joins_and_meets_antichain():
    P = oc.poset_from_generators("ab", [])
    assert oc.joins_and_meets(P, {"a", "b"}) is None


def test_joins_and_meets_chain():
    P = oc.poset_from_generators("abc", [("a", "b"), ("b", "c")])
    assert oc.joins_and_meets(P, {"a", "c"}) == ("c", "a")
    assert oc.joins_and_meets(P, set()) == ("a", "c")  # bottom and top


def test_joins_and_meets_concept_lattice(fourbythree):
    L = oc.concept_lattice(fourbythree).gates
    got = oc.joins_and_meets(L, {"c_1+2", "c_2+3"})
    expected = (brute_bounds(L, ["c_1+2", "c_2+3"]))
    assert got == expected == ("c_1+2+3+4", "c_2")


def test_is_lattice():
    chain = oc.poset_from_generators("abcd", [("a", "b"), ("b", "c"), ("c", "d")])
    assert oc.is_lattice(chain)
    antichain = oc.poset_from_generators("ab", [])
    assert not oc.is_lattice(antichain)
    with pytest.raises(oc.EmptyPoset):
        oc.is_lattice(oc.poset_from_generators([], []))


def test_concept_lattices_are_lattices(fourbythree, diamond):
    for G in (fourbythree, diamond):
        assert oc.is_lattice(oc.concept_lattice(G).gates)


def test_closure_reduction_roundtrip_exhaustive():
    for n in range(5):
        for P in all_posets(n):
            back = oc.poset_from_generators(P.elements, oc.covers(P))
            assert back == P


def test_closure_reduction_roundtrip_random():
    rng = rng_from_seed(7)
    for _ in range(30):
        P = random_poset(rng, int(rng.integers(5, 15)))
        back = oc.poset_from_generators(P.elements, oc.covers(P))
        assert back == P


def test_covers_regenerate_strict_order():
    rng = rng_from_seed(8)
    for _ in range(20):
        P = random_poset(rng, 8)
        cov = oc.covers(P)
        for p, q in cov:
            assert P.lt(p, q)
        regen = oc.poset_from_generators(P.elements, cov)
        assert regen == P


def test_is_lattice_agrees_with_brute_force():
    for n in range(1, 6):
        for P in all_posets(n):
            expected = brute_is_lattice(P)
            assert oc.is_lattice(P) == expected
            assert oc.is_lattice(P) == expected  # memoised verdict


def test_join_meet_agree_with_brute_force():
    for n in range(6):
        for P in all_posets(n):
            for k in range(4):
                for S in itertools.combinations(P.elements, k):
                    j, m = brute_bounds(P, S)
                    assert oc.join_of(P, S) == j
                    assert oc.meet_of(P, S) == m
            # the cached bitsets do not take part in equality or hashing
            fresh = oc.Poset(P.elements, P.matrix)
            assert P == fresh and hash(P) == hash(fresh)
    rng = rng_from_seed(9)
    for _ in range(20):
        P = random_poset(rng, 6)
        for s1 in P.elements:
            for s2 in P.elements:
                j, m = brute_bounds(P, (s1, s2))
                assert oc.join_of(P, (s1, s2)) == j
                assert oc.meet_of(P, (s1, s2)) == m
