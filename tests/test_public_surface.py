"""Every public name of the package is read by the program, not only by its tests.

A name listed in a module's ``__all__`` counts as read when some file of the
package, ``sweepbench/`` or ``scripts/`` loads it as a name, reaches it as an
attribute or imports it. The ``__all__`` strings themselves are constants,
so they never count.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "movable_ris"
READERS = (PACKAGE, ROOT / "sweepbench", ROOT / "scripts")


def _public_names(tree: ast.Module) -> list[str]:
    """The strings of a module's ``__all__``, or none."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets):
            return ast.literal_eval(node.value)
    return []


def _read_names(tree: ast.Module) -> set[str]:
    """Names loaded, attributes reached and names imported anywhere in ``tree``."""
    seen = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            seen.add(node.id)
        elif isinstance(node, ast.Attribute):
            seen.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            seen.update(alias.name.rpartition(".")[2] for alias in node.names)
    return seen


def _trees(directory: Path) -> dict[Path, ast.Module]:
    return {path: ast.parse(path.read_text(), str(path)) for path in sorted(directory.glob("*.py"))}


def test_every_public_name_is_read_by_the_program():
    public = [(path.stem, name) for path, tree in _trees(PACKAGE).items()
              for name in _public_names(tree)]
    assert {module for module, _ in public} >= {
        "baselines", "beamforming", "channel", "harness", "optimizer", "scenario"}
    read = set().union(*(_read_names(tree) for directory in READERS
                         for tree in _trees(directory).values()))
    unread = [f"{module}.{name}" for module, name in public if name not in read]
    assert not unread, f"public, but nothing outside the tests reads them: {unread}"
