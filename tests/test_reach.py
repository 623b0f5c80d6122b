"""Every library definition is reached by the program, not by the tests alone.

Each def and class in ``src/vicert`` (dunders excepted) must be referenced
somewhere the program runs: in ``src/vicert`` outside its own body (a name,
an attribute, an import, or a string equal to its name, as the CLI's
dispatch tables hold), in the benchmark (``perfbench/*.py``), in CI
(``.github/workflows/*.yml``), or as a ``[project.scripts]`` entry point.
A definition only tests reach belongs in the tests.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "vicert"

# definitions kept without a caller, each with the reason
EXCEPTIONS = {
    "embed_points": "the replay of worst-case instances as data (ROADMAP "
                    "Direction 11) embeds its concrete points",
    "gram_to_points": "the same replay recovers points from a solved Gram matrix",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _rel(path):
    return str(path.relative_to(ROOT))


def _mentions(tree):
    """(name, line) for every name, attribute, import and string in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            for name in (node.name, node.asname):
                if name:
                    yield name.rsplit(".", 1)[-1], node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, node.lineno


def _definitions():
    """(module, name, first line, last line) of every def and class."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, _DEFS) and not (
                    node.name.startswith("__") and node.name.endswith("__")):
                yield _rel(path), node.name, node.lineno, node.end_lineno


def _program_mentions():
    """(file, name, line) for every mention in the library, and for every
    one in the benchmark, CI and the entry points (there with line 0)."""
    for path in sorted(SRC.glob("*.py")):
        for name, line in _mentions(ast.parse(path.read_text())):
            yield _rel(path), name, line
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        for name, _ in _mentions(ast.parse(path.read_text())):
            yield _rel(path), name, 0
    for path in sorted((ROOT / ".github" / "workflows").glob("*.yml")):
        for name in re.findall(r"[A-Za-z_]\w*", path.read_text()):
            yield _rel(path), name, 0
    scripts = re.search(r"^\[project\.scripts\]\n(.*?)(?:^\[|\Z)",
                        (ROOT / "pyproject.toml").read_text(), re.M | re.S)
    for target in re.findall(r'=\s*"[\w.]+:(\w+)"', scripts.group(1)):
        yield "pyproject.toml", target, 0


def test_every_definition_has_a_program_caller():
    mentions: dict[str, list[tuple[str, int]]] = {}
    for where, name, line in _program_mentions():
        mentions.setdefault(name, []).append((where, line))
    unreached = []
    for module, name, first, last in _definitions():
        reached = any(where != module or not first <= line <= last
                      for where, line in mentions.get(name, ()))
        if not reached and name not in EXCEPTIONS:
            unreached.append(f"{module}:{first} {name}")
    assert not unreached, "reached only from the tests: " + ", ".join(unreached)


def test_every_exception_is_still_unreached():
    # an exception that gains a caller leaves the list
    defined = {name for _, name, _, _ in _definitions()}
    assert set(EXCEPTIONS) <= defined
    names = {name for _, name, _ in _program_mentions()}
    assert not set(EXCEPTIONS) & names
