"""Code in src/ that only the tests reach, and imports nothing reads.

A top-level function or class, or a public method, defined in
src/hopfcat must be used somewhere in src/hopfcat or perfbench outside its
own body, be exported by `hopfcat.__all__`, or be named in DOCUMENTED_API
with the reason it is kept.  Anything else is test-only code: it belongs
in tests/ (an oracle) or nowhere.  Uses are found by name, so a method
counts as used when an attribute access outside its body carries its
name, unless the receiver is a builtin container: a literal, a
comprehension, a set(), dict(), list() or tuple() call, or a name that
its function binds only to one of those (so `seen.add` after
`seen = set()` is no use of a method `add`).
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

import hopfcat

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "hopfcat").glob("*.py"))
USERS = SOURCES + sorted((ROOT / "perfbench").glob("*.py"))

# Small public helpers kept as library API although nothing in src/ calls
# them; the README "Library use" section lists them.
DOCUMENTED_API = {
    "HSeries.hbar": "the formal parameter h, for writing series by hand",
    "EnvelopingEngine.scalar": "a scalar as an enveloping-algebra element, "
                               "the counterpart of generator",
    "OrbitFunctor.orbit_info": "orbit representatives and labels of a source object",
    "Matrix.entries": "the dense row-major view, the counterpart of the dense constructor",
    "load_corpus_document": "a shipped instance as a dict, to edit before running it",
}


CONTAINERS = (ast.List, ast.Set, ast.Dict, ast.Tuple, ast.Constant,
              ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _is_container(value):
    return isinstance(value, CONTAINERS) or (
        isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
        and value.func.id in ("set", "dict", "list", "tuple"))


def _container_names(func):
    """Names that func (nested bodies included) binds by assigning a
    builtin container, and otherwise only by augmented assignment, which
    keeps a container's type; a parameter of func or of a function or
    lambda inside it never counts."""
    params = {node.arg for node in ast.walk(func) if isinstance(node, ast.arg)}
    stores, containers, augmented = Counter(), Counter(), Counter()
    for node in ast.walk(func):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            stores[node.id] += 1
        elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
            augmented[node.target.id] += 1
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                pairs = [(target, node.value)]
                if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                    pairs = zip(target.elts, node.value.elts)  # a, b = [], set()
                containers.update(t.id for t, v in pairs
                                  if isinstance(t, ast.Name) and _is_container(v))
    return {name for name, n in containers.items()
            if n + augmented[name] == stores[name] and name not in params}


def _container_receivers(tree):
    """ids of the attribute nodes whose receiver is a builtin container."""
    out = set()
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names = _container_names(func)
            out.update(id(node) for node in ast.walk(func)
                       if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                       and node.value.id in names)
    return out


def _uses(tree):
    """(variable names, attribute names) read anywhere in tree, leaving
    out attributes of a builtin container."""
    names, attrs = Counter(), Counter()
    skip = _container_receivers(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif (isinstance(node, ast.Attribute) and id(node) not in skip
              and not _is_container(node.value)):
            attrs[node.attr] += 1
    return names, attrs


def definitions(tree):
    """(qualified name, bare name, node, is a method) of each top-level
    function or class and each public method of a top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name, node, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name, item, True


def unreached(allowed=DOCUMENTED_API, planted=None):
    """`module: name` of each definition with no use; planted, when
    given, is the source of one more module, planted.py."""
    trees = {path: ast.parse(path.read_text()) for path in USERS}
    sources = SOURCES
    if planted is not None:
        trees[Path("planted.py")] = ast.parse(planted)
        sources = SOURCES + [Path("planted.py")]
    names, attrs = Counter(), Counter()
    for tree in trees.values():
        more_names, more_attrs = _uses(tree)
        names.update(more_names)
        attrs.update(more_attrs)
    exported = set(hopfcat.__all__)
    out = []
    for path in sources:
        for qualname, name, node, method in definitions(trees[path]):
            # a method is only reached as an attribute; a function or class
            # also by its bare name
            inside_names, inside_attrs = _uses(node)
            outside = attrs[name] - inside_attrs[name]
            if not method:
                outside += names[name] - inside_names[name]
            if outside == 0 and name not in exported and qualname not in allowed:
                out.append(f"{path.name}: {qualname}")
    return out


def test_every_definition_has_a_caller_or_is_documented_api():
    assert unreached() == []


PLANTED = """
class Planted:
    def union(self, x):
        return x


def fill(p: Planted):
    USE
    return p


fill(Planted())
"""


@pytest.mark.parametrize("use, flagged", [
    ("seen = set()\n    seen.union(p)", True),
    ("seen = {p}\n    seen.union(p)", True),
    ("seen = [q for q in (p,)]\n    seen.union(p)", True),
    ("seen = dict()\n    seen.union(p)", True),
    ("seen, other = set(), p\n    seen.union(p)", True),
    ("seen = set()\n    seen |= {p}\n    seen.union(p)", True),
    ("set().union(p)", True),
    ("p.union(p)", False),
    ("seen, other = set(), p\n    other.union(p)", False),
    ("seen = set()\n    seen = p\n    seen.union(p)", False),
], ids=["set-call", "set-literal", "comprehension", "dict-call", "unpacked", "augmented",
        "direct", "parameter", "unpacked-other", "rebound"])
def test_a_method_reached_only_through_a_builtin_container_is_reported(use, flagged):
    """A method named `union`, which src/ also calls on sets, counts as
    used only when its receiver is not a builtin container."""
    found = unreached(planted=PLANTED.replace("USE", use))
    assert found == (["planted.py: Planted.union"] if flagged else [])


def test_documented_api_names_exist_and_are_otherwise_unreached():
    defined = {qualname for path in SOURCES
               for qualname, _, _, _ in definitions(ast.parse(path.read_text()))}
    assert set(DOCUMENTED_API) <= defined
    flagged = {line.split(": ", 1)[1] for line in unreached(allowed={})}
    assert flagged == set(DOCUMENTED_API)


def unread_imports():
    """`module: name` for every name a src/hopfcat module other than
    __init__.py (whose imports are re-exports) binds by an import and
    never reads."""
    out = []
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        names, _ = _uses(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if names[bound] == 0:
                        out.append(f"{path.name}: {bound}")
    return out


def test_every_import_is_read():
    assert unread_imports() == []
