import ast
from pathlib import Path

import fid

# Bare asserts vanish under `python -O`, so the self-audits must not rest on
# them. The game layer holds none; no other module may hold more than these.
ASSERT_CEILING = {"equivalences.py": 8, "invariants.py": 2, "logic.py": 0,
                  "synthesis.py": 12}


def test_assert_ratchet():
    counts = {path.name: sum(isinstance(node, ast.Assert)
                             for node in ast.walk(ast.parse(path.read_text())))
              for path in sorted(Path(fid.__file__).parent.glob("*.py"))}
    assert "games.py" in counts
    over = {name: count for name, count in counts.items()
            if count > ASSERT_CEILING.get(name, 0)}
    assert not over, f"bare asserts above the ceiling: {over}"
