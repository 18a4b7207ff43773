import ordercircuits as oc
from ordercircuits import cli, textio
from ordercircuits.cli import main
from conftest import DEMOS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate(capsys):
    code, out, _ = run(capsys, "validate", str(DEMOS / "fourgate.circ"),
                       str(DEMOS / "diamond.circ"))
    assert code == 0
    assert "fourgate.circ" in out and "diamond.circ" in out


def test_validate_missing_file(capsys):
    code, _, err = run(capsys, "validate", str(DEMOS / "no_such.circ"))
    assert code == 2 and "error" in err


def test_validate_bad_syntax(tmp_path, capsys):
    bad = tmp_path / "bad.circ"
    bad.write_text("circuit X {\n  inputs a;\n}\n")
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 2 and "error" in err


def test_connectivity(capsys):
    code, out, _ = run(capsys, "connectivity", str(DEMOS / "fourgate.circ"),
                       "--circuit", "P")
    assert code == 0
    rel = textio.parse(out).relation("G")
    assert rel.pairs == {("a1", "b1"), ("a2", "b2"), ("a3", "b2")}


def test_dot_deterministic(capsys):
    code, out1, _ = run(capsys, "dot", str(DEMOS / "fourgate.circ"),
                        "--circuit", "P")
    assert code == 0 and out1.startswith("digraph")
    _, out2, _ = run(capsys, "dot", str(DEMOS / "fourgate.circ"), "--circuit", "P")
    assert out1 == out2


def test_morphism_check(capsys):
    code, out, _ = run(capsys, "morphism-check", str(DEMOS / "equiv.circ"),
                       "--morphism", "f")
    assert code == 0


def test_morphism_find_present(capsys):
    code, out, _ = run(capsys, "morphism-find", str(DEMOS / "oneway.circ"),
                       "--from", "P", "--to", "Q")
    assert code == 0
    combined = (DEMOS / "oneway.circ").read_text() + "\n" + out
    f = textio.parse(combined).morphism("f")
    assert oc.is_morphism(f)
    assert f.mapping == {g: "q" for g in f.source.gates.elements}


def test_morphism_find_absent(capsys):
    code, _, _ = run(capsys, "morphism-find", str(DEMOS / "oneway.circ"),
                     "--from", "Q", "--to", "P")
    assert code == 1


def test_morphism_find_unknown_name(capsys):
    code, _, err = run(capsys, "morphism-find", str(DEMOS / "oneway.circ"),
                       "--from", "P", "--to", "ZZ")
    assert code == 2 and "error" in err


def test_equivalent(capsys):
    code, out, _ = run(capsys, "equivalent", str(DEMOS / "equiv.circ"),
                       "--from", "L", "--to", "R")
    assert code == 0
    code, _, _ = run(capsys, "equivalent", str(DEMOS / "oneway.circ"),
                     "--from", "P", "--to", "Q")
    assert code == 1


def test_factorise(capsys):
    code, out, _ = run(capsys, "factorise", str(DEMOS / "equiv.circ"),
                       "--morphism", "f")
    assert code == 0
    lines = [l for l in out.splitlines() if l.strip()]
    assert len(lines) == 4
    assert lines[0].startswith("quotient:")
    assert lines[-1].startswith("advance-inputs-delay-outputs:")


def test_quotient(capsys):
    code, out, _ = run(capsys, "quotient", str(DEMOS / "diamond.circ"),
                       "--partition", "merge")
    assert code == 0
    doc = textio.parse(out)
    Q = doc.circuit("Q")
    L = textio.parse((DEMOS / "diamond.circ").read_text()).circuit("lattice")
    assert oc.find_isomorphism(Q, L) is not None


def test_atomic_decomp(capsys):
    code, out, _ = run(capsys, "atomic-decomp", str(DEMOS / "diamond.circ"),
                       "--partition", "merge")
    assert code == 0
    assert out.count("merge") >= 2 or out.count("block") >= 2


def test_concept_lattice(capsys):
    code, out, _ = run(capsys, "concept-lattice", str(DEMOS / "fourbythree.circ"),
                       "--relation", "G")
    assert code == 0
    L = textio.parse(out).circuit("L")
    G = textio.parse((DEMOS / "fourbythree.circ").read_text()).relation("G")
    assert oc.is_dense_realisation(L, G)


def test_basic_circuit(capsys):
    code, out, _ = run(capsys, "basic-circuit", str(DEMOS / "fourbythree.circ"),
                       "--relation", "G")
    assert code == 0
    B = textio.parse(out).circuit("B")
    assert set(B.gates.elements) == {"2", "3", "x", "y", "z"}


def test_sandwich(capsys):
    code, out, _ = run(capsys, "sandwich", str(DEMOS / "diamond.circ"),
                       "--relation", "R", "--circuit", "lattice")
    assert code == 0


def test_endos(capsys):
    code, out, _ = run(capsys, "endos", str(DEMOS / "oneway.circ"),
                       "--circuit", "Q")
    assert code == 0 and "1 endomorphism" in out


def test_output_to_file(tmp_path, capsys):
    target = tmp_path / "out.circ"
    code, out, _ = run(capsys, "connectivity", str(DEMOS / "fourgate.circ"),
                       "--circuit", "P", "-o", str(target))
    assert code == 0
    assert textio.parse(target.read_text()).relation("G").pairs == \
        {("a1", "b1"), ("a2", "b2"), ("a3", "b2")}


def test_usage_error(capsys):
    assert main(["no-such-command"]) == 2


def test_unexpected_exception_is_internal_error(monkeypatch, capsys):
    def crash(args):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "cmd_validate", crash)
    code, _, err = run(capsys, "validate", str(DEMOS / "fourgate.circ"))
    assert code == cli.EXIT_INTERNAL == 4
    assert "internal error: RecursionError" in err
