import json
import random

import pytest
from oracles import brute_identification_rank, random_graph

import fid.games
from fid.cli import main
from fid.games import identification_rank
from fid.structures import (GRAPH_VOCAB, enumerate_structures, format_fos,
                            parse_fos, relabel)


P3_TEXT = "vocab E/2\norder 3\ngraph\nE 0 1\nE 1 2\n"
K3_TEXT = "vocab E/2\norder 3\ngraph\nE 0 1\nE 0 2\nE 1 2\n"
H5_TEXT = "vocab E/2\norder 5\ngraph\nE 0 1\nE 1 2\n"


@pytest.fixture
def p3_file(tmp_path):
    path = tmp_path / "p3.fos"
    path.write_text(P3_TEXT)
    return str(path)


@pytest.fixture
def k3_file(tmp_path):
    path = tmp_path / "k3.fos"
    path.write_text(K3_TEXT)
    return str(path)


@pytest.fixture
def h5_file(tmp_path):
    path = tmp_path / "h5.fos"
    path.write_text(H5_TEXT)
    return str(path)


def test_analyze(p3_file, capsys):
    assert main(["analyze", p3_file]) == 0
    out = capsys.readouterr().out
    assert "sigma 2" in out and "delta 2 (exact)" in out and "rho 3" in out


def test_analyze_json(p3_file, capsys):
    assert main(["--json", "analyze", p3_file]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["sigma"] == 2 and payload["deltaExact"] == 2
    assert payload["rho"] == 3 and payload["lambda"] == 2
    assert not payload["irredundant"]


def test_base(p3_file, capsys):
    assert main(["--json", "base", p3_file]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["x"] == [[0], [0, 1, 2], [0, 1, 2]]
    assert payload["z"] == []


def test_synth_verify_round_trip(h5_file, tmp_path, capsys):
    out = tmp_path / "h5.fof"
    assert main(["synth", h5_file, "--method", "graph", "-o", str(out)]) == 0
    capsys.readouterr()
    assert main(["verify", h5_file, str(out), "--scope", "order"]) == 0
    assert "pass" in capsys.readouterr().out


def test_synth_methods(k3_file, capsys):
    for method, expected in (("naive-id", 3), ("naive-def", 4),
                             ("sigma", 2), ("auto", 2)):
        assert main(["--json", "synth", k3_file, "--method", method]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["quantifiers"] == expected, method


def test_synth_inapplicable(h5_file, capsys):
    assert main(["synth", h5_file, "--method", "sigma"]) == 2


def test_synth_auto_low_ceiling_exits_3(tmp_path, capsys):
    # Every route under the budget needs nodes; the naive diagram's 20
    # quantifiers exceed the budget, so it is never built.
    path = tmp_path / "g20.fos"
    path.write_text(format_fos(random_graph(20, random.Random(0)), graph=True))
    assert main(["synth", str(path), "--method", "auto", "--node-ceiling", "0"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("resource cap exceeded: ") and "ceiling is 0" in err


def test_synth_graph_low_ceiling(tmp_path, capsys):
    # A triangle, a disjoint edge and an isolated vertex: sigma needs no
    # nodes beyond its formula, so the oversized delta route is skipped.
    built = tmp_path / "g6.fos"
    built.write_text("vocab E/2\norder 6\ngraph\nE 0 4\nE 1 2\nE 1 3\nE 2 3\n")
    assert main(["--json", "synth", str(built), "--method", "graph"]) == 0
    default = capsys.readouterr().out
    assert main(["--json", "synth", str(built), "--method", "graph",
                 "--node-ceiling", "0"]) == 0
    assert capsys.readouterr().out == default
    # Two disjoint edges: every route within n-1 quantifiers needs nodes.
    failed = tmp_path / "e6.fos"
    failed.write_text("vocab E/2\norder 6\ngraph\nE 0 3\nE 1 2\n")
    assert main(["synth", str(failed), "--method", "graph", "--node-ceiling", "0"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("resource cap exceeded: ") and "ceiling is 0" in err


def test_verify_failure_exit_code(tmp_path, capsys):
    struct = tmp_path / "edge3.fos"
    struct.write_text("vocab E/2\norder 3\ngraph\nE 0 1\n")
    weak = tmp_path / "weak.fof"
    weak.write_text("EX x . EX y . E(x,y)\n")
    assert main(["verify", str(struct), str(weak), "--scope", "order"]) == 1
    out = capsys.readouterr().out
    assert "fail" in out and "vocab E/2" in out


@pytest.mark.parametrize("text", ["FALSE & E(x,y)", "TRUE | E(x,y)"])
def test_verify_malformed_formula_exits_2(tmp_path, capsys, text):
    struct = tmp_path / "edge3.fos"
    struct.write_text("vocab E/2\norder 3\ngraph\nE 0 1\n")
    formula = tmp_path / "bad.fof"
    formula.write_text(text + "\n")
    assert main(["verify", str(struct), str(formula)]) == 2
    assert capsys.readouterr().err.strip() == "input error: unbound variable 'x'"


def test_verify_upto_scope(k3_file, tmp_path, capsys):
    formula = tmp_path / "def.fof"
    assert main(["synth", k3_file, "--method", "naive-def", "-o", str(formula)]) == 0
    capsys.readouterr()
    assert main(["verify", k3_file, str(formula), "--scope", "upto:5"]) == 0
    assert main(["verify", k3_file, str(formula), "--scope", "bogus"]) == 2


def test_game(k3_file, p3_file, capsys):
    assert main(["--json", "game", k3_file, p3_file, "--alternations", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["value"] == 2
    assert main(["game", k3_file, k3_file]) == 0
    assert "unresolved" in capsys.readouterr().out


def test_game_zero_rounds(k3_file, p3_file, capsys):
    assert main(["game", k3_file, p3_file, "--max-rounds", "0"]) == 0
    assert capsys.readouterr().out.strip() == "D unresolved within 0 rounds"


@pytest.mark.parametrize("argv, message", [
    pytest.param(["game", "K3", "P3", "--max-rounds", "-1"],
                 "--max-rounds: must be at least 0", id="game-max-rounds"),
    pytest.param(["rank", "P3", "--max-rounds", "-1"],
                 "--max-rounds: must be at least 0", id="rank-max-rounds"),
    pytest.param(["--game-cap", "-2", "game", "K3", "P3"],
                 "--game-cap: must be at least 0", id="game-cap-global"),
    pytest.param(["game", "K3", "P3", "--game-cap", "-2"],
                 "--game-cap: must be at least 0", id="game-cap-local"),
    pytest.param(["--delta-cap", "-1", "analyze", "P3"],
                 "--delta-cap: must be at least 0", id="delta-cap"),
    pytest.param(["analyze", "P3", "--node-ceiling", "-5"],
                 "--node-ceiling: must be at least 0", id="node-ceiling"),
    pytest.param(["--workers", "-3", "audit", "--vocab", "E/2", "--order", "2"],
                 "--workers: must be at least 1", id="workers-negative"),
    pytest.param(["--workers", "0", "audit", "--vocab", "E/2", "--order", "2"],
                 "--workers: must be at least 1", id="workers-zero"),
    pytest.param(["--game-cap", "two", "game", "K3", "P3"],
                 "--game-cap: invalid integer 'two'", id="not-an-integer"),
])
def test_negative_integer_flags_exit_2(argv, message, k3_file, p3_file, capsys):
    files = {"K3": k3_file, "P3": p3_file}
    with pytest.raises(SystemExit) as exc:
        main([files.get(arg, arg) for arg in argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert message in captured.err and not captured.out


def _cycle8_labellings(tmp_path):
    """Two labellings of the 8-cycle, as .fos paths."""
    cycle = [(i, (i + 1) % 8) for i in range(8)]
    perm = (3, 7, 1, 5, 0, 2, 6, 4)
    paths = []
    for name, edges in (("c8", cycle), ("c8r", [(perm[x], perm[y]) for x, y in cycle])):
        path = tmp_path / f"{name}.fos"
        path.write_text("vocab E/2\norder 8\ngraph\n"
                        + "".join(f"E {x} {y}\n" for x, y in edges))
        paths.append(str(path))
    return paths


def test_game_isomorphic_order8(tmp_path, monkeypatch, capsys):
    """Isomorphic inputs are settled by one isomorphism search: no rank-r
    type is built (unguarded types on the 8-cycle take seconds and hundreds
    of MB at the default 12 rounds)."""
    def refuse(*args):
        raise AssertionError("isomorphic inputs built a type")
    monkeypatch.setattr(fid.games._TypeTable, "type_of", refuse)
    assert main(["game", *_cycle8_labellings(tmp_path)]) == 0
    assert capsys.readouterr().out.strip() == "D unresolved within 12 rounds"


def test_game_alternations_isomorphic_order8(tmp_path, monkeypatch, capsys):
    """A switch budget never lowers the value, so isomorphic inputs to
    `fid game --alternations` are settled by the same isomorphism search:
    no position is solved (the search took seconds on the 8-cycle)."""
    def refuse(*args, **kwargs):
        raise AssertionError("isomorphic inputs were searched")
    monkeypatch.setattr(fid.games.GameSolver, "position_rank", refuse)
    paths = _cycle8_labellings(tmp_path)
    for budget in ("1", "0"):
        assert main(["game", *paths, "--alternations", budget]) == 0
        assert capsys.readouterr().out.strip() == \
            f"D^{budget} unresolved within 12 rounds"


def test_games_list_no_automorphisms(tmp_path, monkeypatch, p3_file, h5_file,
                                     capsys):
    """`fid game` and `fid rank`, with a switch budget or without, come from
    types and never list an automorphism group: the order-8 empty graph
    against one edge needs 1 + 8 + 56 tuples per side, not 8! permutations."""
    def refuse(struct):
        raise AssertionError("a game value listed automorphisms")
    monkeypatch.setattr(fid.games, "automorphisms", refuse)
    empty, edge = tmp_path / "e8.fos", tmp_path / "k2.fos"
    empty.write_text("vocab E/2\norder 8\ngraph\n")
    edge.write_text("vocab E/2\norder 8\ngraph\nE 0 1\n")
    c5 = tmp_path / "c5.fos"
    c5.write_text("vocab E/2\norder 5\ngraph\n"
                  + "".join(f"E {i} {(i + 1) % 5}\n" for i in range(5)))
    for argv, want in ((["game", str(empty), str(edge)], "D = 2"),
                       (["rank", p3_file], "I = 2"),
                       (["rank", p3_file, "--alternations", "1"], "I^1 = 2"),
                       (["game", h5_file, str(c5), "--alternations", "1"], "D^1 = 2"),
                       (["game", h5_file, str(c5), "--alternations", "0"], "D^0 = 3")):
        assert main(argv) == 0
        assert capsys.readouterr().out.strip() == want


def test_rank(p3_file, capsys):
    assert main(["--json", "rank", p3_file]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["value"] == 2


def test_rank_round_cap_exits_3(tmp_path, capsys):
    path = tmp_path / "e3.fos"
    path.write_text("vocab E/2\norder 3\ngraph\nE 0 1\n")
    assert main(["rank", str(path), "--max-rounds", "1"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("resource cap exceeded: round cap 1 exhausted")
    assert "Traceback" not in err


def test_rank_zero_rounds_exits_3(p3_file, capsys):
    assert main(["rank", p3_file, "--max-rounds", "0"]) == 3
    assert capsys.readouterr().err.startswith(
        "resource cap exceeded: round cap 0 exhausted")


def test_rank_negative_alternations(p3_file, capsys):
    assert main(["rank", p3_file, "--alternations", "-1"]) == 2
    assert capsys.readouterr().err.strip() == \
        "input error: alternation budget must be non-negative"


def test_rank_relabelled_input(tmp_path, capsys):
    rep = list(enumerate_structures(GRAPH_VOCAB, 5, graph_mode=True))[27]
    path = tmp_path / "g27.fos"
    path.write_text(format_fos(relabel(rep, (1, 4, 3, 2, 0)), graph=True))
    assert main(["rank", str(path)]) == 0
    assert capsys.readouterr().out.strip() == \
        f"I = {identification_rank(rep, graph_mode=True)}"


@pytest.mark.parametrize("alternations", [None, 1])
def test_census(alternations, capsys):
    """`fid census` ranks every structure of one order, in enumeration
    order, with the values of one cold `identification_rank` call each."""
    flags = [] if alternations is None else ["--alternations", str(alternations)]
    argv = ["census", "--vocab", "E/2", "--order", "5", "--graphs", *flags]
    want = [brute_identification_rank(struct, alternations, graph_mode=True)
            for struct in enumerate_structures(GRAPH_VOCAB, 5, graph_mode=True)]
    assert main(["--json", *argv]) == 0
    assert json.loads(capsys.readouterr().out) == \
        {"values": want, "alternations": alternations}
    assert main(argv) == 0
    label = "I" if alternations is None else f"I^{alternations}"
    assert capsys.readouterr().out.splitlines() == [
        f"{label} = {value}: {want.count(value)} of 34" for value in sorted(set(want))]


def test_census_round_cap_exits_3(capsys):
    argv = ["census", "--vocab", "E/2", "--order", "3", "--graphs", "--max-rounds", "1"]
    assert main(argv) == 3
    assert capsys.readouterr().err.startswith(
        "resource cap exceeded: round cap 1 exhausted")


def test_enumerate_order_cap_exits_3(capsys):
    assert main(["enumerate", "--vocab", "P/1", "--order", "12"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("resource cap exceeded: enumeration is capped at order 8")
    assert "Traceback" not in err


def test_enumerate(capsys):
    assert main(["enumerate", "--vocab", "E/2", "--order", "3", "--graphs"]) == 0
    captured = capsys.readouterr()
    assert captured.out.count("# structure") == 4
    assert "4 structures" in captured.err
    blocks = [b for b in captured.out.split("# structure") if b.strip()]
    for block in blocks:
        body = "\n".join(line for line in block.splitlines()[1:])
        parse_fos(body)


def test_enumerate_cap(capsys):
    assert main(["enumerate", "--vocab", "E/2", "--order", "9", "--graphs"]) == 3


def test_gen(tmp_path, capsys):
    assert main(["gen", "gm", "3", "-o", str(tmp_path / "g.fos")]) == 0
    struct, flag = parse_fos((tmp_path / "g.fos").read_text())
    assert struct.order == 9 and flag
    assert main(["gen", "mfmg", "2", "-o", str(tmp_path / "pair")]) == 0
    a, _ = parse_fos((tmp_path / "pair.a.fos").read_text())
    b, _ = parse_fos((tmp_path / "pair.b.fos").read_text())
    assert a.order == 8 and b.order == 8


def test_audit(capsys):
    assert main(["audit", "--vocab", "E/2", "--order", "3", "--graphs"]) == 0
    captured = capsys.readouterr()
    lines = [json.loads(line) for line in captured.out.splitlines()]
    assert len(lines) == 4
    assert all(record["verified"] for record in lines)
    summary = json.loads(captured.err.splitlines()[-1])
    assert summary["all_verified"] and summary["structures"] == 4


def test_audit_workers_identical_output(capsys):
    assert main(["audit", "--vocab", "E/2", "--order", "3", "--graphs"]) == 0
    serial = capsys.readouterr().out
    assert main(["--workers", "2", "audit", "--vocab", "E/2", "--order", "3",
                 "--graphs"]) == 0
    assert capsys.readouterr().out == serial


def test_input_errors(tmp_path, capsys):
    assert main(["analyze", str(tmp_path / "missing.fos")]) == 2
    bad = tmp_path / "bad.fos"
    bad.write_text("vocab E/2\norder 2\nE 0 5\n")
    assert main(["analyze", str(bad)]) == 2
