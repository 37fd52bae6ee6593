import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fid
import fid.synthesis
from fid.cli import main
from fid.errors import FidError, InternalError, check

# Bare asserts vanish under `python -O`, so the self-audits must not rest on
# them: no module may hold one.

SRC = str(Path(fid.__file__).parents[1])


def _python(*args, optimize=False):
    env = dict(os.environ, PYTHONPATH=SRC)
    flags = ["-O"] if optimize else []
    return subprocess.run([sys.executable, *flags, *args], env=env,
                          capture_output=True, text=True, timeout=120)


def test_assert_ratchet():
    counts = {path.name: sum(isinstance(node, ast.Assert)
                             for node in ast.walk(ast.parse(path.read_text())))
              for path in sorted(Path(fid.__file__).parent.glob("*.py"))}
    assert "games.py" in counts
    held = {name: count for name, count in counts.items() if count}
    assert not held, f"bare asserts in the package: {held}"


def test_check_raises_under_both_settings():
    check(True, "never raised")
    with pytest.raises(InternalError, match="audit failed"):
        check(False, "audit failed")
    assert issubclass(InternalError, FidError)
    code = ("from fid.errors import FidError, check\n"
            "try:\n    check(False, 'audit failed')\n"
            "except FidError as exc:\n    print(exc)\n")
    for optimize in (False, True):
        run = _python("-c", code, optimize=optimize)
        assert (run.returncode, run.stdout) == (0, "audit failed\n")


def test_failed_check_exits_4(tmp_path, monkeypatch, capsys):
    # every synthesis audit fails with its own message; the first one ends
    # `fid synth` with exit 4 and names it
    messages = []

    def failing(ok, message):
        messages.append(message)
        check(False, message)

    monkeypatch.setattr(fid.synthesis, "check", failing)
    path = tmp_path / "k3.fos"
    path.write_text("vocab E/2\norder 3\ngraph\nE 0 1\nE 0 2\nE 1 2\n")
    assert main(["synth", str(path), "--method", "sigma"]) == 4
    captured = capsys.readouterr()
    assert messages and captured.out == ""
    assert captured.err == f"internal error: {messages[0]}\n"


def _assert_same_under_optimize(*argv):
    argv = ["-m", "fid.cli", *argv]
    plain, optimized = _python(*argv), _python(*argv, optimize=True)
    assert plain.returncode == 0 and plain.stdout
    assert (optimized.returncode, optimized.stdout, optimized.stderr) == \
        (plain.returncode, plain.stdout, plain.stderr)


@pytest.fixture
def g6(tmp_path):
    path = tmp_path / "g.fos"
    path.write_text("vocab E/2\norder 6\ngraph\nE 0 4\nE 1 2\nE 1 3\nE 2 3\n")
    return str(path)


@pytest.mark.parametrize("method", ["graph", "auto"])
def test_synth_same_output_under_optimize(g6, method):
    _assert_same_under_optimize("--json", "synth", g6, "--method", method)


@pytest.mark.parametrize("command", ["analyze", "base"])
def test_invariants_same_output_under_optimize(g6, command):
    # the base decomposition, rho and transform_e audits run here
    _assert_same_under_optimize("--json", command, g6)


def test_audit_same_output_under_optimize():
    _assert_same_under_optimize("audit", "--vocab", "E/2", "--order", "3")
