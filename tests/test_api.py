"""Code in src/ that only the tests reach, and imports nothing reads.

A top-level function or class, or a public method, defined in
src/hopfcat must be used somewhere in src/hopfcat or perfbench outside its
own body, be exported by `hopfcat.__all__`, or be named in DOCUMENTED_API
with the reason it is kept.  Anything else is test-only code: it belongs
in tests/ (an oracle) or nowhere.  Uses are found by name, so a method
counts as used when any attribute access anywhere outside its body
carries its name.
"""

import ast
from collections import Counter
from pathlib import Path

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


def _uses(tree):
    """(variable names, attribute names) read anywhere in tree."""
    names, attrs = Counter(), Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
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


def unreached(allowed=DOCUMENTED_API):
    trees = {path: ast.parse(path.read_text()) for path in USERS}
    names, attrs = Counter(), Counter()
    for tree in trees.values():
        more_names, more_attrs = _uses(tree)
        names.update(more_names)
        attrs.update(more_attrs)
    exported = set(hopfcat.__all__)
    out = []
    for path in SOURCES:
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
