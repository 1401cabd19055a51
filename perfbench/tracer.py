"""Spans around the public functions of each hopfcat layer, installed from
the benchmark's own files; nothing under `src/` changes.

`Tracer.install()` replaces every public function and public method of
the layer modules with a wrapper, in every `hopfcat` module that binds the
name (so `certify_adapted` is traced whether it is called through
`cofunctor`, `cli` or `hopfcategory`).  `uninstall()` puts the originals
back.  Spans are aggregated as they close instead of being stored:

* `calls`: how many times the name was entered;
* `seconds`: wall time of its outermost activations, so recursion and
  nested calls of the same name are not counted twice;
* the module's self time: each span's duration minus the time its child
  spans cover, summed over the spans of that module.

Names called more than about 10^5 times in one pass are not wrapped
(`UNWRAPPED`), so their time stays in the caller's span.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import weakref
from collections import defaultdict
from time import perf_counter

MODULES = ("scalars", "linalg", "backends", "coalg", "cofunctor",
           "hopfcategory", "liebialg", "deform", "instances", "cli")

# Dunder methods that carry a metric; every other dunder is left alone.
TRACED_DUNDERS = {
    ("scalars", "HSeries", "__mul__"): "hseries_mul",
    ("scalars", "HSeries", "__rmul__"): "hseries_mul",
    ("linalg", "Matrix", "__mul__"): "matmul",
    ("liebialg", "TruncatedUEA", "__init__"): "TruncatedUEA",
}

# Every method of these classes is one span name, the class name.
GROUPED_CLASSES = {("liebialg", "TruncatedUEA")}

# Names called more than ~10^5 times in one pass of some workload, found by
# wrapping every public name with a bare call counter at seed 0:
# `normal_word` 518k on lie-deform, `as_fraction` and `coerce` 268k each on
# linear-ladder.  The next most called name, `backends.atom_size`, stays
# under 40k.  These get no span; their time stays in the caller's span.
UNWRAPPED = {
    "scalars.as_fraction",
    "scalars.coerce",
    "liebialg.normal_word",
}

# The per-layer metrics a traced run reports, with units.  A name is
# `<span>.calls`, `<span>.s`, `<span>.<counter>` or `<module>.self_s`.
PER_LAYER = (
    ("linalg.cokernel_projection.calls", "count"),
    ("linalg.cokernel_projection.s", "s"),
    ("linalg.cokernel_projection.max_n", "rows"),
    ("linalg.mat_invert.calls", "count"),
    ("linalg.mat_invert.s", "s"),
    ("linalg.mat_invert.max_n", "rows"),
    ("linalg.matmul.calls", "count"),
    ("linalg.matmul.ops", "count"),
    ("linalg.matmul.series_ops", "count"),
    ("linalg.mat_kron.calls", "count"),
    ("linalg.self_s", "s"),
    ("backends.act.calls", "count"),
    ("backends.act.s", "s"),
    ("backends.act.finset_calls", "count"),
    ("backends.tensor_mor.calls", "count"),
    ("backends.tensor_mor.s", "s"),
    ("backends.check_equivariant.calls", "count"),
    ("backends.check_equivariant.s", "s"),
    ("backends.compose.calls", "count"),
    ("backends.as_matrix.calls", "count"),
    ("backends.as_matrix.entries", "count"),
    ("backends.self_s", "s"),
    ("cofunctor.apply_mor.calls", "count"),
    ("cofunctor.apply_mor.s", "s"),
    ("cofunctor.certify_adapted.calls", "count"),
    ("cofunctor.certify_adapted.s", "s"),
    ("cofunctor.f2.calls", "count"),
    ("cofunctor.check_comonoidal.s", "s"),
    ("cofunctor.distinct_objects", "count"),
    ("cofunctor.repeat_ratio", "ratio"),
    ("cofunctor.not_adapted", "count"),
    ("cofunctor.self_s", "s"),
    ("hopfcategory.build_hopf_category.calls", "count"),
    ("hopfcategory.build_hopf_category.s", "s"),
    ("hopfcategory.check_hopf_category.calls", "count"),
    ("hopfcategory.check_hopf_category.s", "s"),
    ("hopfcategory.extract_set_groupoid.s", "s"),
    ("hopfcategory.self_s", "s"),
    ("coalg.check_comonoid.calls", "count"),
    ("coalg.check_comonoid.s", "s"),
    ("coalg.check_hopf_monoid.s", "s"),
    ("coalg.self_s", "s"),
    ("liebialg.check_uea_dy_identities.s", "s"),
    ("liebialg.TruncatedUEA.s", "s"),
    ("liebialg.coproduct.calls", "count"),
    ("liebialg.self_s", "s"),
    ("deform.check_pre_cartier.s", "s"),
    ("deform.build_deformed_hopf_category.s", "s"),
    ("deform.deformed_braiding.calls", "count"),
    ("deform.deformed_braiding.s", "s"),
    ("deform.self_s", "s"),
    ("scalars.hseries_mul.calls", "count"),
    ("scalars.self_s", "s"),
    ("instances.load_instance.s", "s"),
    ("instances.to_json.s", "s"),
    ("instances.self_s", "s"),
    ("cli.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)

# Metrics that are exact counts: identical on every traced run of the
# same inputs.
COUNT_FIELDS = ("calls", "finset_calls", "ops", "series_ops", "max_n", "entries")
EXACT_METRICS = tuple(
    name for name, _ in PER_LAYER
    if name.rsplit(".", 1)[1] in COUNT_FIELDS
    or name in ("cofunctor.distinct_objects", "cofunctor.repeat_ratio",
                "cofunctor.not_adapted"))


class SpanStats:
    __slots__ = ("calls", "seconds", "depth", "counters")

    def __init__(self):
        self.calls = 0
        self.seconds = 0.0
        self.depth = 0
        self.counters = defaultdict(int)


# -- counters computed from a call's arguments and result


def _matmul_ops(stats, args, result):
    a, b = args[0], args[1]
    ops = a.rows * a.cols * b.cols
    stats.counters["ops"] += ops
    if a.ring.kind != "rational":
        stats.counters["series_ops"] += ops


def _max_rows(stats, args, result):
    stats.counters["max_n"] = max(stats.counters["max_n"], args[0].rows)


def _dense_entries(stats, args, result):
    if args[1].matrix is None:
        stats.counters["entries"] += result.rows * result.cols


def _finset_act(stats, args, result):
    if args[0].kind == "finset":
        stats.counters["finset_calls"] += 1


HOOKS = {
    "backends.act": _finset_act,
    "linalg.matmul": _matmul_ops,
    "linalg.cokernel_projection": _max_rows,
    "linalg.mat_invert": _max_rows,
    "backends.as_matrix": _dense_entries,
}


def _span_name(module, cls, attr, fn):
    if cls is not None and (module, cls) in GROUPED_CLASSES:
        return f"{module}.{cls}"
    if cls is not None and (module, cls, attr) in TRACED_DUNDERS:
        return f"{module}.{TRACED_DUNDERS[(module, cls, attr)]}"
    if module == "instances" and fn.__name__.endswith("_to_json"):
        return "instances.to_json"
    return f"{module}.{fn.__name__}"


def _wanted(module, cls, attr):
    if not attr.startswith("_"):
        return True
    if cls is not None and (module, cls, attr) in TRACED_DUNDERS:
        return True
    return False


class Tracer:
    """Aggregated spans and counters for one traced pass."""

    def __init__(self):
        self.stats = defaultdict(SpanStats)
        self.self_s = defaultdict(float)
        self.stack = []
        self.apply_calls = 0
        self.apply_repeats = 0
        self.distinct_objects = 0
        self.not_adapted = 0
        self._seen = weakref.WeakKeyDictionary()
        self._patches = []  # (owner, attribute, original value)

    # -- wrappers

    def _span(self, name, module, fn):
        stats = self.stats[name]
        hook = HOOKS.get(name)
        stack = self.stack
        self_s = self.self_s
        tracer = self
        watch_apply = name == "cofunctor.apply_mor"
        adapted = name == "cofunctor.certify_adapted"

        def wrapper(*args, **kwargs):
            if watch_apply:
                tracer._note_apply(args[0], (args[1].dom.factors, args[1].cod.factors))
            stats.calls += 1
            stats.depth += 1
            child = [0.0]
            stack.append(child)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if adapted and type(exc).__name__ == "NotAdapted":
                    tracer.not_adapted += 1
                raise
            finally:
                dt = perf_counter() - t0
                stack.pop()
                stats.depth -= 1
                if stats.depth == 0:
                    stats.seconds += dt
                self_s[module] += dt - child[0]
                if stack:
                    stack[-1][0] += dt
            if hook is not None:
                hook(stats, args, result)
            return result
        return wrapper

    def _note_apply(self, functor, objects):
        seen = self._seen.get(functor)
        if seen is None:
            seen = self._seen[functor] = set()
        self.apply_calls += 1
        if all(o in seen for o in objects):
            self.apply_repeats += 1
        for o in objects:
            if o not in seen:
                seen.add(o)
                self.distinct_objects += 1

    # -- installation

    def _plan(self):
        """(original function, wrapper) for every traced name, and the
        class attributes to patch."""
        by_id = {}
        class_patches = []
        for module in MODULES:
            mod = importlib.import_module(f"hopfcat.{module}")
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = _span_name(module, None, attr, obj)
                    if name not in UNWRAPPED:
                        by_id[id(obj)] = (obj, self._span(name, module, obj))
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    class_patches.extend(self._plan_class(module, obj))
        return by_id, class_patches

    def _plan_class(self, module, cls):
        made = {}
        for attr, raw in list(vars(cls).items()):
            if not _wanted(module, cls.__name__, attr):
                continue
            kind = None
            fn = raw
            if isinstance(raw, staticmethod):
                kind, fn = staticmethod, raw.__func__
            elif isinstance(raw, classmethod):
                kind, fn = classmethod, raw.__func__
            if not inspect.isfunction(fn):
                continue
            name = _span_name(module, cls.__name__, attr, fn)
            if name in UNWRAPPED:
                continue
            if id(fn) not in made:
                made[id(fn)] = self._span(name, module, fn)
            wrapper = made[id(fn)]
            yield cls, attr, raw, (kind(wrapper) if kind else wrapper)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        by_id, class_patches = self._plan()
        for cls, attr, raw, new in class_patches:
            self._patches.append((cls, attr, raw))
            setattr(cls, attr, new)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "hopfcat" or modname.startswith("hopfcat.")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = by_id.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- results

    def table(self):
        """Every span name -> {calls, s, counters...}, for the result file."""
        out = {}
        for name, st in sorted(self.stats.items()):
            row = {"calls": st.calls, "s": st.seconds}
            row.update(st.counters)
            out[name] = row
        return out

    def metric(self, name):
        if name == "cofunctor.distinct_objects":
            return self.distinct_objects
        if name == "cofunctor.repeat_ratio":
            return self.apply_repeats / self.apply_calls if self.apply_calls else 0.0
        if name == "cofunctor.not_adapted":
            return self.not_adapted
        base, field = name.rsplit(".", 1)
        if field == "self_s":
            return self.self_s.get(base, 0.0)
        st = self.stats.get(base)
        if st is None:
            return 0
        if field == "calls":
            return st.calls
        if field == "s":
            return st.seconds
        return st.counters.get(field, 0)

    def per_layer(self, overhead_ratio):
        """The PER_LAYER metrics as {name: {"value", "unit"}}."""
        out = {}
        for name, unit in PER_LAYER:
            value = overhead_ratio if name == "trace.overhead_ratio" else self.metric(name)
            out[name] = {"value": value, "unit": unit}
        return out
