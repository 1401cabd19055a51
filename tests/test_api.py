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
`seen = set()` is no use of a method `add`), the get-or-create
`seen = d.get(k)` then `seen = d[k] = set()` included.  Where the code
shows the receiver's class C, a src/ class, the access counts only for
the method C or its bases define: the receiver is C(...) or
C.<classmethod>(...), a name bound only to those, or a parameter
annotated C and never rebound (so `m.scale` after `m = Matrix(...)` is
no use of another class's `scale`).
"""

import ast
from collections import Counter, defaultdict
from functools import cache
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
    "__getattr__": "the package's PEP 562 hook: the import system calls it for the "
                   "liebialg and deform exports, which load on first use",
}


@cache
def parsed(path):
    """The syntax tree of one source file, parsed once per session; no
    caller changes a tree."""
    return ast.parse(path.read_text())


@cache
def walk(node):
    """ast.walk(node) as a tuple, walked once per node and session."""
    return tuple(ast.walk(node))


CONTAINERS = (ast.List, ast.Set, ast.Dict, ast.Tuple, ast.Constant,
              ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _is_container(value):
    return isinstance(value, CONTAINERS) or (
        isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
        and value.func.id in ("set", "dict", "list", "tuple"))


def classes_of(trees):
    """name -> (base names, {method name: whether it is a classmethod}) of
    each top-level class of the trees."""
    out = {}
    for tree in trees:
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                methods = {item.name: any(isinstance(d, ast.Name) and d.id == "classmethod"
                                          for d in item.decorator_list)
                           for item in node.body if isinstance(item, ast.FunctionDef)}
                out[node.name] = ([b.id for b in node.bases if isinstance(b, ast.Name)], methods)
    return out


def _made_class(value, classes):
    """C when value is C(...) or C.<classmethod>(...) of a class C of
    classes, else None."""
    if not isinstance(value, ast.Call):
        return None
    f = value.func
    if isinstance(f, ast.Name) and f.id in classes:
        return f.id
    if (isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name)
            and f.value.id in classes and classes[f.value.id][1].get(f.attr)):
        return f.value.id
    return None


def _owner(classes, cls, attr):
    """The class defining the method attr that an instance of cls finds,
    searching cls and its bases among classes; None when none does."""
    bases, methods = classes.get(cls, ((), {}))
    if attr in methods:
        return cls
    return next(filter(None, (_owner(classes, b, attr) for b in bases)), None)


def _bound_names(func, classes):
    """(containers, made) for func, nested bodies included.  containers:
    the names it binds by assigning a builtin container, and otherwise
    only by augmented assignment, which keeps a container's type, or by
    `name = d.get(k)` where it also assigns `name = d[k] = <container>`
    (get-or-create); a parameter never counts.  made: name -> C for the
    names bound only by C(...) or C.<classmethod>(...), and the
    parameters annotated C that are never rebound, for C in classes."""
    annotations = defaultdict(set)
    for node in walk(func):
        if isinstance(node, ast.arg):
            ann = node.annotation
            annotations[node.arg].add(ann.id if isinstance(ann, ast.Name) else None)
    stores, containers, augmented = Counter(), Counter(), Counter()
    made, gets, filled = defaultdict(Counter), [], set()
    for node in walk(func):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            stores[node.id] += 1
        elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
            augmented[node.target.id] += 1
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                pairs = [(target, node.value)]
                if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                    pairs = zip(target.elts, node.value.elts)  # a, b = [], set()
                for t, v in pairs:
                    if isinstance(t, ast.Name):
                        containers[t.id] += _is_container(v)
                        made[t.id][_made_class(v, classes)] += 1
            bound = [t.id for t in node.targets if isinstance(t, ast.Name)]
            if _is_container(node.value):
                filled.update((n, ast.dump(t.value)) for n in bound
                              for t in node.targets if isinstance(t, ast.Subscript))
            elif (len(bound) == 1 == len(node.targets) and isinstance(node.value, ast.Call)
                  and isinstance(node.value.func, ast.Attribute)
                  and node.value.func.attr == "get"):
                gets.append((bound[0], ast.dump(node.value.func.value)))
    for name, d in gets:
        containers[name] += (name, d) in filled
    names = {name for name, n in containers.items()
             if n and n + augmented[name] == stores[name] and name not in annotations}
    typed = {name: next(iter(by)) for name, by in made.items()
             if len(by) == 1 and None not in by and sum(by.values()) == stores[name]
             and name not in annotations}
    typed.update((name, next(iter(anns))) for name, anns in annotations.items()
                 if len(anns) == 1 and next(iter(anns)) in classes and not stores[name])
    return names, typed


def _receivers(tree, classes):
    """(ids of the attribute nodes whose receiver is a builtin container,
    id of each attribute node whose receiver's class the tree shows -> that
    class)."""
    containers, typed = set(), {}
    for node in walk(tree):
        if isinstance(node, ast.Attribute) and (cls := _made_class(node.value, classes)):
            typed[id(node)] = cls
    for func in walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names, made = _bound_names(func, classes)
            for node in walk(func):
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                    if node.value.id in names:
                        containers.add(id(node))
                    elif node.value.id in made:
                        typed[id(node)] = made[node.value.id]
    return containers, typed


def _uses(tree, classes=None, receivers=None):
    """(variable names, attribute names, (class, method) pairs) read
    anywhere in tree.  Attributes of a builtin container are left out; an
    attribute whose receiver is an instance of a class of classes counts
    only for the method that instance finds.  receivers, when given, is
    _receivers of a module tree holding tree."""
    classes = classes or {}
    names, attrs, methods = Counter(), Counter(), Counter()
    skip, typed = receivers or _receivers(tree, classes)
    for node in walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif (isinstance(node, ast.Attribute) and id(node) not in skip
              and not _is_container(node.value)):
            owner = _owner(classes, typed.get(id(node)), node.attr)
            if owner is None:
                attrs[node.attr] += 1
            else:
                methods[(owner, node.attr)] += 1
    return names, attrs, methods


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
    trees = {path: parsed(path) for path in USERS}
    sources = SOURCES
    if planted is not None:
        trees[Path("planted.py")] = ast.parse(planted)
        sources = SOURCES + [Path("planted.py")]
    classes = classes_of(trees[path] for path in sources)
    receivers = {path: _receivers(tree, classes) for path, tree in trees.items()}
    names, attrs, methods = Counter(), Counter(), Counter()
    for path, tree in trees.items():
        more_names, more_attrs, more_methods = _uses(tree, classes, receivers[path])
        names.update(more_names)
        attrs.update(more_attrs)
        methods.update(more_methods)
    exported = set(hopfcat.__all__)
    out = []
    for path in sources:
        for qualname, name, node, method in definitions(trees[path]):
            # a method is only reached as an attribute, and through a
            # receiver of known class only as that class's; a function or
            # class also by its bare name
            inside_names, inside_attrs, inside_methods = _uses(node, classes, receivers[path])
            outside = attrs[name] - inside_attrs[name]
            if method:
                key = (qualname.split(".")[0], name)
                outside += methods[key] - inside_methods[key]
            else:
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


class Other:
    @classmethod
    def make(cls):
        return cls()

    def union(self, x):
        return x


class Sub(Planted):
    pass


def fill(p: Planted):
    USE
    return p


fill(Planted())
Other.make().union(Sub())
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
    ("cache = {}\n    seen = cache.get(p)\n    if seen is None:\n"
     "        seen = cache[p] = set()\n    seen.union(p)", True),
    ("cache, other = {}, {}\n    seen = cache.get(p)\n    if seen is None:\n"
     "        seen = other[p] = set()\n    seen.union(p)", False),
    ("o = Other()\n    o.union(p)", True),
    ("o = Other.make()\n    o.union(p)", True),
    ("Other().union(p)", True),
    ("def g(o: Other):\n        return o.union(p)\n    g(Other())", True),
    ("o = Planted()\n    o.union(p)", False),
    ("o = Sub()\n    o.union(p)", False),
    ("o = Other()\n    o = p\n    o.union(p)", False),
], ids=["set-call", "set-literal", "comprehension", "dict-call", "unpacked", "augmented",
        "direct", "parameter", "unpacked-other", "rebound", "get-or-create",
        "get-then-other-dict", "made-other", "classmethod-other", "direct-other",
        "annotated-other", "made-own", "made-subclass", "made-rebound"])
def test_a_method_reached_only_through_a_builtin_container_is_reported(use, flagged):
    """A method named `union`, which src/ also calls on sets, counts as
    used only when its receiver is not a builtin container, nor an
    instance of another class that defines its own `union`."""
    found = unreached(planted=PLANTED.replace("USE", use))
    assert found == (["planted.py: Planted.union"] if flagged else [])


def test_documented_api_names_exist_and_are_otherwise_unreached():
    defined = {qualname for path in SOURCES
               for qualname, _, _, _ in definitions(parsed(path))}
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
        tree = parsed(path)
        names = _uses(tree)[0]
        for node in walk(tree):
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
