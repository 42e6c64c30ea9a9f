"""One generator family: numpy ``PCG64`` behind every seed in ``src/repro``.

Every draw in the package comes from an ``np.random.Generator``.  The
standard-library ``random`` module is imported in one place only: the
legacy-frame helper :func:`repro.io.codec.legacy_generator`, which turns
a version-1 frame's Mersenne Twister state into a ``PCG64`` generator.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[2] / "src" / "repro"
ALLOWED = {("io/codec.py", "legacy_generator")}


def _random_imports(path: Path, root: Path = PACKAGE):
    """``(module path, enclosing function)`` of each import of ``random``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    scopes = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for child in ast.walk(node):
                scopes.setdefault(child, node.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        if any(name == "random" or name.startswith("random.") for name in names):
            yield path.relative_to(root).as_posix(), scopes.get(node)


def test_random_is_imported_only_by_the_legacy_frame_helper():
    found = {
        site
        for path in sorted(PACKAGE.rglob("*.py"))
        for site in _random_imports(path)
    }
    assert found == ALLOWED


def test_the_guard_sees_every_import_form(tmp_path):
    module = tmp_path / "probe.py"
    module.write_text(
        "import random\n"
        "from random import Random\n"
        "def helper():\n"
        "    import random as r\n"
    )
    assert list(_random_imports(module, tmp_path)) == [
        ("probe.py", None),
        ("probe.py", None),
        ("probe.py", "helper"),
    ]
