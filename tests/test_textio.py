import pathlib

import pytest

import ordercircuits as oc
from ordercircuits import textio
from conftest import DATA, DEMOS


def read(name):
    return (DEMOS / name).read_text()


def test_parse_circuit(fourgate):
    doc = textio.parse(read("fourgate.circ"))
    assert doc.circuit("P") == fourgate


def test_parse_relation(fourbythree):
    doc = textio.parse(read("fourbythree.circ"))
    assert doc.relation("G") == fourbythree


def test_parse_partition_and_circuits():
    doc = textio.parse(read("diamond.circ"))
    classical = doc.circuit("classical")
    theta = doc.partition("merge").partition
    assert theta.block_of("a1") == frozenset({"a1", "b1"})
    assert theta.block_of("b2") == frozenset({"b2"})
    Q = oc.quotient_circuit(classical, theta)
    assert oc.find_isomorphism(Q, doc.circuit("lattice")) is not None


def test_parse_morphism():
    doc = textio.parse(read("equiv.circ"))
    f = doc.morphism("f")
    assert oc.is_morphism(f)
    assert f.source == doc.circuit("L") and f.target == doc.circuit("R")


def test_unlisted_gates_become_singletons():
    doc = textio.parse("""
circuit C {
  inputs: ;
  outputs: ;
  gates: x y z;
  order: x < y;
  lambda: ;
  mu: ;
}

partition p of C {
  block: x y;
}
""")
    theta = doc.partition("p").partition
    assert theta.block_of("z") == frozenset({"z"})


def test_empty_sections_parse():
    doc = textio.parse("""
circuit E {
  inputs: ;
  outputs: ;
  gates: g;
  order: ;
  lambda: ;
  mu: ;
}
""")
    C = doc.circuit("E")
    assert C.inputs == () and C.gates.elements == ("g",)


def test_comments_and_whitespace():
    text = "# header\ncircuit C { # inline\n inputs: a;\n outputs: ;\n" \
           " gates: g;\n order: ;\n lambda: a -> g;\n mu: ;\n}\n# trailing\n"
    C = textio.parse(text).circuit("C")
    assert C.lam["a"] == "g"


def test_parse_error_reports_position():
    with pytest.raises(oc.ParseError) as info:
        textio.parse("circuit C {\n  inputs a;\n}")
    assert info.value.line == 2


def test_parse_error_unknown_gate():
    with pytest.raises((oc.ParseError, oc.OrderCircuitError)):
        textio.parse("""
circuit C {
  inputs: a;
  outputs: ;
  gates: g;
  order: ;
  lambda: a -> zz;
  mu: ;
}
""")


def test_parse_error_cyclic_order():
    with pytest.raises((oc.ParseError, oc.CycleError)):
        textio.parse("""
circuit C {
  inputs: ;
  outputs: ;
  gates: x y;
  order: x < y; y < x;
  lambda: ;
  mu: ;
}
""")


def test_round_trip_all_demo_files():
    for path in sorted(DEMOS.glob("*.circ")):
        doc = textio.parse(path.read_text())
        text = textio.serialise(doc)
        doc2 = textio.parse(text)
        assert set(doc.decls) == set(doc2.decls)
        for name, decl in doc.decls.items():
            if isinstance(decl, textio.CircuitDecl):
                assert doc.circuit(name) == doc2.circuit(name)
        # canonical output is a fixed point
        assert textio.serialise(doc2) == text


def test_serialise_golden(fourgate):
    golden = (DATA / "fourgate_golden.circ").read_text()
    assert textio.serialise_circuit("P", fourgate) == golden


def test_serialise_orders_declarations():
    doc = textio.parse(read("diamond.circ"))
    text = textio.serialise(doc)
    names = [line.split()[1] for line in text.splitlines()
             if line and not line.startswith(("#", " ", "}"))]
    assert names == sorted(names)
    assert text.endswith("\n")


def test_serialise_puts_references_after_their_circuit():
    doc = textio.parse("""
circuit Z { inputs: a; outputs: b; gates: p q; order: p < q;
            lambda: a -> p; mu: b -> q; }
partition A of Z { block: p q; }
morphism B : Z -> Z { p => q; q => q; }
""")
    text = textio.serialise(doc)
    names = [line.split()[1] for line in text.splitlines()
             if line and not line.startswith((" ", "}"))]
    assert names == ["Z", "A", "B"]
    doc2 = textio.parse(text)
    assert doc2.circuit("Z") == doc.circuit("Z")
    assert doc2.partition("A").partition == doc.partition("A").partition
    assert doc2.morphism("B") == doc.morphism("B")
    assert textio.serialise(doc2) == text


def test_dot_golden(fourgate):
    golden = (DATA / "fourgate_golden.dot").read_text()
    assert textio.to_dot(fourgate) == golden


def test_dot_lattice_golden(fourbythree):
    golden = (DATA / "lattice_golden.dot").read_text()
    assert textio.to_dot(oc.concept_lattice(fourbythree)) == golden


def test_dot_structure(fourgate):
    dot = textio.to_dot(fourgate)
    assert dot.count("shape=box") == 4
    assert dot.count('"in:') == 3 + 3       # declaration + one edge each
    assert dot.count('"out:') == 2 + 2
    cover_edges = [l for l in dot.splitlines()
                   if l.strip().startswith('"g:') and "->" in l
                   and "out:" not in l]
    assert len(cover_edges) == 3
    assert dot == textio.to_dot(fourgate)


def test_dot_namespacing_avoids_collisions(diamond):
    # basic circuit gate names coincide with input/output wire names
    B = oc.basic_circuit(diamond)
    dot = textio.to_dot(B)
    assert '"in:a1"' in dot and '"g:a1"' in dot
    assert dot.count('"in:a1"') == 2        # declared once, one edge
