import json

import pytest

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


def test_verify_failure_exit_code(tmp_path, capsys):
    struct = tmp_path / "edge3.fos"
    struct.write_text("vocab E/2\norder 3\ngraph\nE 0 1\n")
    weak = tmp_path / "weak.fof"
    weak.write_text("EX x . EX y . E(x,y)\n")
    assert main(["verify", str(struct), str(weak), "--scope", "order"]) == 1
    out = capsys.readouterr().out
    assert "fail" in out and "vocab E/2" in out


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


def test_rank_relabelled_input(tmp_path, capsys):
    rep = list(enumerate_structures(GRAPH_VOCAB, 5, graph_mode=True))[27]
    path = tmp_path / "g27.fos"
    path.write_text(format_fos(relabel(rep, (1, 4, 3, 2, 0)), graph=True))
    assert main(["rank", str(path)]) == 0
    assert capsys.readouterr().out.strip() == \
        f"I = {identification_rank(rep, graph_mode=True)}"


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
