import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fid
from fid.errors import FidError, check

# Bare asserts vanish under `python -O`, so the self-audits must not rest on
# them. The game and synthesis layers hold none; no other module may hold
# more than these.
ASSERT_CEILING = {"equivalences.py": 8, "invariants.py": 2, "logic.py": 0,
                  "synthesis.py": 0}

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
    over = {name: count for name, count in counts.items()
            if count > ASSERT_CEILING.get(name, 0)}
    assert not over, f"bare asserts above the ceiling: {over}"


def test_check_raises_under_both_settings():
    check(True, "never raised")
    with pytest.raises(FidError, match="audit failed"):
        check(False, "audit failed")
    code = ("from fid.errors import FidError, check\n"
            "try:\n    check(False, 'audit failed')\n"
            "except FidError as exc:\n    print(exc)\n")
    for optimize in (False, True):
        run = _python("-c", code, optimize=optimize)
        assert (run.returncode, run.stdout) == (0, "audit failed\n")


@pytest.mark.parametrize("method", ["graph", "auto"])
def test_synth_same_output_under_optimize(tmp_path, method):
    path = tmp_path / "g.fos"
    path.write_text("vocab E/2\norder 6\ngraph\nE 0 4\nE 1 2\nE 1 3\nE 2 3\n")
    argv = ["-m", "fid.cli", "--json", "synth", str(path), "--method", method]
    plain, optimized = _python(*argv), _python(*argv, optimize=True)
    assert plain.returncode == 0 and plain.stdout
    assert (optimized.returncode, optimized.stdout, optimized.stderr) == \
        (plain.returncode, plain.stdout, plain.stderr)
