"""Source-level rules for the package, checked on its parsed modules.

Every public name is there on purpose. A name in a tamesigns module's
__all__ must be used outside that module: referenced by another module
of the package, named under bench/ (the benchmark and its tracer, which
names functions by string), or listed in README's "## Library" section,
which keeps the oracle API the test suite relies on. A new public name
that only tests call fails here until it is deleted or listed there.
The section's python block runs as shown and prints what its comments
say.

No check is an assert statement: `python -O` strips those, so a package
check raises InternalConsistencyError (or UsageError) instead. No import
is dead: a name a package module imports is used in its code or listed
in its __all__ (no linter is assumed).
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tamesigns"
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def public_names(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return []


def referenced_names(tree: ast.Module) -> set[str]:
    """Identifiers a module imports or refers to in code (not in text)."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
    return out


def library_section() -> str:
    text = (ROOT / "README.md").read_text()
    start = text.index("\n## Library\n")
    end = text.find("\n## ", start + 1)
    return text[start:] if end == -1 else text[start:end]


def package_trees() -> dict[str, ast.Module]:
    return {p.stem: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}


def test_every_public_name_is_used_outside_its_module():
    trees = package_trees()
    bench = set(WORD.findall(
        "\n".join(p.read_text() for p in sorted((ROOT / "bench").glob("*.py")))
    ))
    listed = set(WORD.findall(library_section()))
    unused = []
    for stem, tree in trees.items():
        elsewhere = set().union(
            *(referenced_names(other) for name, other in trees.items() if name != stem)
        )
        unused += [
            f"tamesigns.{stem}.{name}"
            for name in public_names(tree)
            if name not in elsewhere | bench | listed
        ]
    assert not unused, f"used only by tests; delete or list in README: {unused}"


def test_library_block_prints_what_its_comments_say(capsys):
    section = library_section()
    start = section.index("```python\n") + len("```python\n")
    exec(section[start:section.index("```", start)], {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "{1: [0], 2: [5], 4: [1, 3, 7]}"
    assert any(line.endswith("CycInt(2, (-120,))") for line in lines)
    assert "False" in lines


def test_package_has_no_assert_statements():
    found = [
        f"{stem}.py:{node.lineno}"
        for stem, tree in package_trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert in the package (stripped by python -O): {found}"


def test_package_has_no_unused_imports():
    dead = []
    for stem, tree in package_trees().items():
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        used |= set(public_names(tree))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                dead += [
                    f"{stem}.py:{node.lineno} {alias.asname or alias.name}"
                    for alias in node.names
                    if (alias.asname or alias.name).split(".")[0] not in used
                ]
    assert not dead, f"imported but never used: {dead}"


def test_package_parses_under_the_oldest_supported_python():
    # pyproject.toml promises Python >= 3.10; parse with that grammar
    for path in sorted(PACKAGE.glob("*.py")):
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
