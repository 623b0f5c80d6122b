"""Every library definition is reached by the program, not by the tests alone.

Each def and class in ``src/vicert`` (dunders excepted) must be referenced
somewhere the program runs: in ``src/vicert`` outside its own body (a name,
an attribute, an import, or a string equal to its name, as the CLI's
dispatch tables hold), in the benchmark (``perfbench/*.py``), in CI
(``.github/workflows/*.yml``), or as a ``[project.scripts]`` entry point.
A definition only tests reach belongs in the tests.

One level down, every parameter with a default of a def in ``src/vicert``
(a class's ``__init__`` goes by the class name) must be set by some call in
``src/vicert`` or the benchmark, by keyword or by position, or by a CLI
dispatch table, whose entry passes its flags in order.  An option only
tests set belongs in the tests.
"""

import ast
import pathlib
import re

from vicert import cli

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "vicert"

# definitions kept without a caller, each with the reason
EXCEPTIONS: dict[str, str] = {}

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


# parameters with a default that no program call sets, each with the reason
PARAMETER_EXCEPTIONS = {
    "rotation(scale=)": "no program call sets it yet; kept for the rotation family "
                        "R_t of ROADMAP Direction 12, whose exact PEP value is "
                        "measured along t, and dropped if that lands without it",
    "GramProblem(inequalities=)": "the generic SDPs with dense inequalities that "
                                  "the solver and export tests build",
}


def _defaulted(tree):
    """(key, callee, parameter, position) for every parameter with a default
    of a def in ``tree``; a call reaches a method by its name and ``__init__``
    by its class's, and the position counts the arguments a call passes
    (None for a keyword-only parameter)."""
    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from visit(child, child)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                callee = cls.name if cls and child.name == "__init__" else child.name
                a = child.args
                positional = a.posonlyargs + a.args
                bound = cls is not None and not any(
                    isinstance(d, ast.Name) and d.id == "staticmethod"
                    for d in child.decorator_list)
                first = len(positional) - len(a.defaults)
                for k, arg in enumerate(positional[first:], first):
                    yield f"{callee}({arg.arg}=)", callee, arg.arg, k - bound
                for arg, default in zip(a.kwonlyargs, a.kw_defaults):
                    if default is not None:
                        yield f"{callee}({arg.arg}=)", callee, arg.arg, None
                yield from visit(child, None)
    yield from visit(tree, None)


def _calls(trees):
    """callee -> [(positional count, keywords)] over every call in ``trees``;
    a ``*args`` sets every position, a ``**kwargs`` every keyword."""
    found: dict[str, list[tuple[float, set | None]]] = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            callee = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            starred = any(isinstance(arg, ast.Starred) for arg in node.args)
            keywords = {kw.arg for kw in node.keywords}
            found.setdefault(callee, []).append(
                (float("inf") if starred else len(node.args),
                 None if None in keywords else keywords))
    return found


def _dispatched():
    """(function, positional count) for every entry of the CLI's dispatch
    tables, as ``cli`` calls it: a check as fn(op, *flags), a certificate as
    fn(subject, *flags, *fixed), where an operator's one fixed value is its
    --ell, and a problem as fn(*flags)."""
    for name, flags in cli._CHECKS.values():
        yield name, 1 + len(flags)
    for name, flags, subject, *fixed in cli._CERTIFICATES.values():
        yield name, 1 + len(flags) + (1 if subject == "op" else len(fixed))
    for name, flags in cli._PROBLEMS.values():
        yield name, len(flags)


def _unset(library, program, dispatched):
    """The keys of the library's defaulted parameters that no call of the
    program sets, and no dispatch entry."""
    calls = _calls(program)
    for name, count in dispatched:
        calls.setdefault(name, []).append((count, set()))
    unset = set()
    for tree in library:
        for key, callee, param, position in _defaulted(tree):
            if not any((position is not None and position < count)
                       or keywords is None or param in keywords
                       for count, keywords in calls.get(callee, ())):
                unset.add(key)
    return unset


def _program_unset():
    library = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    bench = [ast.parse(path.read_text()) for path in sorted((ROOT / "perfbench").glob("*.py"))]
    return _unset(library, library + bench, _dispatched())


def test_every_parameter_with_a_default_is_set_by_the_program():
    unset = _program_unset() - set(PARAMETER_EXCEPTIONS)
    assert not unset, "set only by the tests: " + ", ".join(sorted(unset))


def test_every_parameter_exception_is_still_unset():
    # an exception that a program call comes to set leaves the list
    assert set(PARAMETER_EXCEPTIONS) <= _program_unset()


def test_the_parameter_rule_reads_every_way_to_set_one():
    library = [ast.parse(
        "def build(L, K=1, *, unit=True):\n    pass\n\n"
        "class Problem:\n    def __init__(self, name, pairs=None):\n        pass\n")]
    every = {"build(K=)", "build(unit=)", "Problem(pairs=)"}
    assert _unset(library, [], ()) == every
    for program, left in (("build(1.0, 2)", {"build(unit=)", "Problem(pairs=)"}),
                          ("build(1.0, unit=False)", {"build(K=)", "Problem(pairs=)"}),
                          ("pep.build(*args)", {"build(unit=)", "Problem(pairs=)"}),
                          ("build(1.0, **options)", {"Problem(pairs=)"}),
                          ("Problem('p', None)", {"build(K=)", "build(unit=)"})):
        assert _unset(library, [ast.parse(program)], ()) == left, program
    assert _unset(library, [], [("build", 2)]) == {"build(unit=)", "Problem(pairs=)"}
