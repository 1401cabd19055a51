"""Batch driver: load an instance file, run law suites or constructions,
emit a machine-readable report.

Two operations.  `verify` runs the selected checks and reports one record
per law; `build` runs a constructor, re-verifies the output, and writes
the structure maps only when every check passes.  Exit codes are a stable
contract: 0 all checks passed (or nothing applied), 1 a law failed, 2 the
input could not be parsed.

Reports are JSON with sorted keys, so two runs on the same file are
byte-identical except for the "timing" field.  An instance with nothing
to check gets the verdict "vacuous".  The functor and pre-Cartier
suites take every comonoid carrier and every atom (the dy base aside).
"""

from __future__ import annotations

import sys
import time

from .coalg import LawRecord, check_comonoid, check_hopf_monoid
from .backends import BackendError, ObjectRef, check_braiding_coherence, check_dy_tensor_closure
from .cofunctor import NotAdapted, certify_adapted, check_comonoidal
from .hopfcategory import (
    NotCocommutative,
    PreCartierViolation,
    build_hopf_category,
    build_hopf_monoid,
    check_hopf_category,
    extract_set_groupoid,
    hopf_data_equal,
)
from .linalg import Singular
from .instances import (
    InstanceError,
    dump_document,
    groupoid_to_json,
    hopf_category_to_json,
    hopf_monoid_to_json,
    load_instance,
)

TARGETS = ("hopf-monoid", "hopf-category", "deformed", "groupoid")

CONSTRUCTION_ERRORS = (NotAdapted, NotCocommutative, PreCartierViolation,
                       Singular, BackendError)

# each target's serializer, looked up when called so that a rebound name is used
TO_JSON = {
    "hopf-monoid": lambda h: hopf_monoid_to_json(h),
    "hopf-category": lambda data: hopf_category_to_json(data),
    "deformed": lambda data: hopf_category_to_json(data),
    "groupoid": lambda gt: groupoid_to_json(gt),
}


def _suffix(records, tag):
    return [LawRecord(f"{r.rule}[{tag}]", r.holds, r.detail) for r in records]


def _law_objects(inst):
    """Comonoid carriers first, then every other atom but the dy base."""
    backend = inst.backend
    carriers = {c.obj.factors: c.obj for c in inst.comonoids}
    return list(carriers.values()) + [
        ObjectRef.atom(name) for name in sorted(backend.atoms)
        if (name,) not in carriers and (backend.kind != "dy" or name != backend.base)]


# ---------------------------------------------------------------------------
# the check registry; each entry returns LawRecords (empty = not applicable)


def _check_braiding(inst):
    backend = inst.backend
    if backend is None or not backend.atoms:
        return []
    bad = check_braiding_coherence(backend)
    records = [LawRecord("braiding.coherence", not bad, "; ".join(bad[:3]))]
    if backend.kind == "dy":
        bad = check_dy_tensor_closure(backend)
        records.append(LawRecord("braiding.dy_closure", not bad, "; ".join(bad[:3])))
    return records


def _check_comonoids(inst):
    records = []
    for i, c in enumerate(inst.comonoids):
        tag = c.name or f"#{i}"
        records.extend(_suffix(
            check_comonoid(inst.backend, c, cocommutative=True), tag))
    return records


def _check_functor(inst):
    if inst.functor is None:
        return []
    objects = _law_objects(inst)
    if not objects:
        return []
    return check_comonoidal(inst.functor, objects)


def _check_adapted(inst):
    if inst.functor is None or not inst.comonoids:
        return []
    records = []
    ends = [inst.backend.unit()] + [c.obj for c in inst.comonoids]
    pairs = [(x, z) for x in ends for z in ends]
    for i, m in enumerate(inst.comonoids):
        tag = m.name or f"#{i}"
        try:
            certify_adapted(inst.functor, m, pairs)
            records.append(LawRecord(f"adapted[{tag}]", True))
        except (NotAdapted, Singular) as exc:
            records.append(LawRecord(f"adapted[{tag}]", False, str(exc)))
    return records


def _plain_build(inst):
    """build_hopf_category on the instance's functor and comonoids, run
    once per loaded instance and shared by the check groups; a
    construction error is kept and raised again for each caller."""
    if inst.built is None:
        try:
            inst.built = build_hopf_category(inst.functor, inst.comonoids)
        except CONSTRUCTION_ERRORS as exc:
            inst.built = exc
    if isinstance(inst.built, Exception):
        raise inst.built
    return inst.built


def _construct(inst, target, order):
    """The structure one target builds, and the records that check it.  A
    violated deformation law is reported ahead of a failed plain
    construction; the deformed records end with the one that its degree-0
    reduction is the plain build.

    At order 0 that record holds by construction: the deformed build
    returns the plain structure itself, and the degree-0 reduction of a
    structure already over the rationals keeps every matrix as it is.  It
    is emitted all the same, so that a report's records do not depend on
    the order."""
    if target == "hopf-monoid":
        h = build_hopf_monoid(inst.functor, inst.comonoids[0])
        return h, check_hopf_monoid(inst.functor.target, h)
    block = inst.deformation or {}
    pc, convention = block.get("pc"), block.get("convention", "t_delta_zero")
    try:
        plain = _plain_build(inst)
    except CONSTRUCTION_ERRORS:
        if target == "deformed":
            from .deform import require_pre_cartier
            require_pre_cartier(inst.functor, inst.comonoids, pc, convention)
        raise
    if target == "groupoid":
        return extract_set_groupoid(inst.functor.target, plain)
    if target == "hopf-category":
        return plain, check_hopf_category(plain.backend, plain)
    from .deform import build_deformed_hopf_category, reduce_order0
    data = build_deformed_hopf_category(plain, inst.functor, inst.comonoids, order, pc,
                                        convention=convention)
    return data, check_hopf_category(data.backend, data) + [
        LawRecord("deformed.reduction", hopf_data_equal(reduce_order0(data), plain))]


def _built(inst, target, rule, order):
    """_construct, with a construction error as the one failing
    {rule}.constructor record and no structure."""
    try:
        return _construct(inst, target, order)
    except CONSTRUCTION_ERRORS as exc:
        return None, [LawRecord(f"{rule}.constructor", False, str(exc))]


def _check_build(inst):
    if inst.functor is None or not inst.comonoids:
        return []
    return _built(inst, "hopf-category", "build", None)[1]


def _check_groupoid(inst):
    if (inst.functor is None or not inst.comonoids
            or inst.backend.kind != "finset"):
        return []
    return _built(inst, "groupoid", "groupoid", None)[1]


def _check_lie(inst):
    if inst.lie is None:
        return []
    from .liebialg import check_lie_bialgebra
    return check_lie_bialgebra(inst.lie)


def _check_twists(inst):
    if inst.lie is None or not inst.twists:
        return []
    from .liebialg import (check_dy_module, check_lie_bialgebra, check_twist,
                           twist_bialgebra, twist_dy_module)
    lb = inst.lie
    records = []
    for i, j in enumerate(inst.twists):
        records.extend(_suffix(check_twist(lb, j), i))
        twisted = twist_bialgebra(lb, j)
        records.extend(_suffix(check_lie_bialgebra(twisted), f"twist{i}"))
        back = twist_bialgebra(twisted, j.scale(-1))
        records.append(LawRecord(f"twist.roundtrip[{i}]",
                                 back.cobracket == lb.cobracket))
        for mod in inst.modules:
            pi1, ps1 = twist_dy_module(lb, j, mod.pi, mod.pistar)
            records.extend(_suffix(check_dy_module(twisted, pi1, ps1),
                                   f"{mod.label},{i}"))
            _, ps0 = twist_dy_module(twisted, j.scale(-1), pi1, ps1)
            records.append(LawRecord(f"twist.module_roundtrip[{mod.label},{i}]",
                                     ps0 == mod.pistar))
    return records


def _check_dy_modules(inst):
    if inst.lie is None or not inst.modules:
        return []
    from .liebialg import check_dy_module
    records = []
    for mod in inst.modules:
        records.extend(_suffix(check_dy_module(inst.lie, mod.pi, mod.pistar),
                               mod.label))
    return records


def _uea_comonoid_records(uea, tag):
    """Coassociativity, both counit laws, and cocommutativity of the
    truncated coproduct, expanded word-by-word (Delta preserves degree, so
    nothing is cut): each term c w1 (x) w2 sums the engine's Delta(w1),
    Delta(w2) by c.  Words are numbered as first met, and Delta of each
    basis word and leg read once into (i, j, c) triples; a term u (x) v (x) w
    of (Delta (x) 1)Delta adds, and one of (1 (x) Delta)Delta subtracts, its
    coefficient under the int key (u*n + v)*n + w, so coassociativity holds
    when every value cancels.  On basis words every coefficient is an int."""
    delta, ids, tri = uea.engine.delta, {}, {}

    def num(w):
        return ids.setdefault(w, len(ids))

    def read(w):
        if num(w) not in tri:
            tri[ids[w]] = [(num(a), num(b), c) for (a, b), c in delta(w).items() if c]

    basis, e = [num(w) for w in uea.basis], num(())
    for w in uea.basis:
        read(w)
        for a, b in delta(w):
            read(a)
            read(b)
    n = len(ids)
    # Delta(u) as (v*n + w, c) pairs: both keys are linear in v*n + w
    flat = {i: [(a * n + b, c) for a, b, c in t] for i, t in tri.items()}
    coassoc = counit = cocomm = True
    for w in basis:
        t, diff = tri[w], {}
        for i, j, c in t:
            for ab, c2 in flat[i]:
                k = ab * n + j
                diff[k] = diff.get(k, 0) + c * c2
            o = i * n * n
            for ab, c2 in flat[j]:
                k = o + ab
                diff[k] = diff.get(k, 0) - c * c2
        if any(diff.values()):
            coassoc = False
        pairs = {i * n + j: c for i, j, c in t}
        if any(pairs.get(j * n + i) != c for i, j, c in t):
            cocomm = False
        if ({j: c for i, j, c in t if i == e} != {w: 1}
                or {i: c for i, j, c in t if j == e} != {w: 1}):
            counit = False
    return [LawRecord(f"uea.coassoc[{tag}]", coassoc),
            LawRecord(f"uea.counit[{tag}]", counit),
            LawRecord(f"uea.cocommutative[{tag}]", cocomm)]


def _uea_seed_record(eng, j, tag):
    """The coaction of the empty word must be the twist j, nothing else."""
    expect = {} if j is None else {
        (a, (b,)): c for a, row in enumerate(j.nz) for b, c in row.items()}
    return LawRecord(f"uea.seed[{tag}]", eng.coact({(): 1}, j) == expect)


def _uea_unchanged_record(plain, j, degree, tag):
    """M_J keeps the coalgebra of U(g): twist_bialgebra(lb, j) has lb's
    bracket, and an engine of its own gives the Delta of the shared engine
    on every basis word of degree <= degree (>= 1).

    The bracket comparison decides it in every degree.  Delta on U(g) is
    the unique algebra map U(g) -> U(g) (x) U(g) that makes the generators
    primitive, and U(g) is generated by g, its algebra fixed by the
    bracket.  Both engines build Delta by one closed form, which reads no
    bracket, so the Delta half checks that the two engines agree.  The
    counit, 1 on the empty word whatever the twist, cannot differ."""
    from .liebialg import TruncatedUEA, pbw_words, twist_bialgebra
    eng = plain.engine
    twisted = TruncatedUEA(twist_bialgebra(plain.lb, j), plain.order)
    same = (twisted.lb.bracket == plain.lb.bracket
            and all(twisted.engine.coproduct({w: 1}) == eng.coproduct({w: 1})
                    for w in pbw_words(plain.lb.dim, degree)))
    return LawRecord(f"uea.comonoid_unchanged[{tag}]", same)


def _check_uea(inst):
    """The enveloping algebra of inst.lie truncated at uea.order, and each
    twisted comonoid M_J, all through one EnvelopingEngine: the plain
    TruncatedUEA's, which every identity check, seed and coaction reads.
    So Delta of each basis word above identity_degree is derived once per
    verify; only uea.comonoid_unchanged derives Delta again, up to
    identity_degree, from an engine of the twisted bialgebra."""
    if inst.lie is None or inst.uea is None:
        return []
    from .liebialg import TruncatedUEA, check_uea_dy_identities
    lb = inst.lie
    deg = inst.uea["identity_degree"]
    plain = TruncatedUEA(lb, inst.uea["order"])
    eng = plain.engine
    records = _suffix(check_uea_dy_identities(lb, deg, engine=eng), "j=0")
    records.extend(_uea_comonoid_records(plain, "j=0"))
    records.append(_uea_seed_record(eng, None, "j=0"))
    for i, j in enumerate(inst.twists):
        tag = f"j{i}"
        records.extend(_suffix(check_uea_dy_identities(lb, deg, twist=j, engine=eng), tag))
        records.append(_uea_seed_record(eng, j, tag))
        records.append(_uea_unchanged_record(plain, j, deg, tag))
    return records


def _check_precartier(inst):
    if inst.deformation is None:
        return []
    from .deform import check_pre_cartier
    sample = _law_objects(inst)
    if not sample:
        return []
    return check_pre_cartier(
        inst.deformation["pc"], sample, inf_cocommutative=inst.comonoids,
        convention=inst.deformation["convention"], inf_braided=inst.functor)


def _check_deformed(inst):
    if inst.deformation is None or inst.functor is None or not inst.comonoids:
        return []
    order = inst.deformation["order"]
    _, records = _built(inst, "deformed", "deformed", order)
    return _suffix(records[:-1], f"order{order}") + records[-1:]


CHECKS = {
    "braiding": _check_braiding,
    "comonoids": _check_comonoids,
    "functor": _check_functor,
    "adapted": _check_adapted,
    "build": _check_build,
    "groupoid": _check_groupoid,
    "lie": _check_lie,
    "twists": _check_twists,
    "dy-modules": _check_dy_modules,
    "uea": _check_uea,
    "precartier": _check_precartier,
    "deformed": _check_deformed,
}

CHECK_ORDER = tuple(CHECKS)


def _parse_selector(checks):
    if checks in (None, "all", ""):
        return CHECK_ORDER
    if isinstance(checks, str):
        checks = [c.strip() for c in checks.split(",") if c.strip()]
    unknown = [c for c in checks if c not in CHECKS]
    if unknown:
        raise InstanceError(
            f"unknown checks {unknown}; available: {', '.join(CHECK_ORDER)}")
    return tuple(c for c in CHECK_ORDER if c in set(checks))


def _report(inst, results, started):
    failed = sum(1 for _, r in results if not r.holds)
    report = {
        "digest": inst.digest(),
        "checks": [{"check": name, "rule": r.rule, "holds": bool(r.holds),
                    "detail": r.detail} for name, r in results],
        "counts": {"total": len(results), "failed": failed},
        "verdict": ("vacuous" if not results
                    else "pass" if failed == 0 else "fail"),
        "timing": round(time.monotonic() - started, 6),
    }
    if "name" in inst.doc:
        report["name"] = inst.doc["name"]
    return report, (0 if failed == 0 else 1)


def run_verify(path, checks="all"):
    """Run the selected law suites on one instance file.

    Returns (report, exit_code); schema problems give an error report and
    code 2, mathematical failures code 1.
    """
    started = time.monotonic()
    try:
        selected = _parse_selector(checks)
        inst = load_instance(path)
        results = []
        for name in selected:
            results.extend((name, r) for r in CHECKS[name](inst))
    except (InstanceError, OSError) as exc:
        return {"error": str(exc), "verdict": "error"}, 2
    return _report(inst, results, started)


def run_build(path, target, order=None):
    """Run one constructor and re-verify its output.

    The structure maps appear in the report only when every verification
    record holds; a failed construction reports the witness and exits 1.
    """
    started = time.monotonic()
    try:
        if target not in TARGETS:
            raise InstanceError(f"unknown target {target!r}; expected one of {TARGETS}")
        inst = load_instance(path)
        if target != "deformed" and order is not None:
            raise InstanceError("--order only applies to the deformed target")
        if inst.functor is None or not inst.comonoids:
            raise InstanceError(f"target {target!r} needs a functor and comonoids")
        if target == "groupoid" and inst.backend.kind != "finset":
            raise InstanceError("groupoid extraction needs a finset-gset backend")
        if target == "deformed" and inst.backend.kind == "finset":
            raise InstanceError("deformation needs a linear backend, not finset")
        if order is not None and order < 0:
            raise InstanceError(f"--order must be >= 0, got {order}")
        if target == "deformed" and order is None:
            order = inst.deformation["order"] if inst.deformation else 0
    except (InstanceError, OSError) as exc:
        return {"error": str(exc), "verdict": "error"}, 2

    structure, records = _built(inst, target, target, order)
    report, code = _report(inst, [(target, r) for r in records], started)
    report["target"] = target
    if order is not None:
        report["order"] = order
    if code == 0:
        report["structure"] = TO_JSON[target](structure)
    return report, code


# ---------------------------------------------------------------------------
# entry point


def _emit(report, code, args):
    text = dump_document(report)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    if code == 2:
        print(f"error: {report['error']}", file=sys.stderr)
        return code
    if args.json:
        sys.stdout.write(text)
        return code
    for rec in report["checks"]:
        status = "PASS" if rec["holds"] else "FAIL"
        detail = f"  {rec['detail']}" if rec["detail"] and not rec["holds"] else ""
        print(f"{status} {rec['check']}: {rec['rule']}{detail}")
    counts = report["counts"]
    print(f"verdict: {report['verdict']} "
          f"({counts['total']} checks, {counts['failed']} failed)")
    if "structure" in report and args.out:
        print(f"structure written to {args.out}")
    return code


def main(argv=None):
    import argparse
    parser = argparse.ArgumentParser(
        prog="hopfcat",
        description="verify and build exact Hopf-category instances")
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="run law suites on an instance file")
    pv.add_argument("instance", help="path to an instance JSON file")
    pv.add_argument("--checks", default="all",
                    help=f"comma list from: {', '.join(CHECK_ORDER)} (default all)")
    pv.add_argument("--out", help="also write the JSON report here")
    pv.add_argument("--json", action="store_true",
                    help="print the JSON report instead of the summary")

    pb = sub.add_parser("build", help="run a constructor and verify its output")
    pb.add_argument("instance", help="path to an instance JSON file")
    pb.add_argument("--target", required=True, choices=TARGETS)
    pb.add_argument("--order", type=int, default=None,
                    help="truncation order for the deformed target")
    pb.add_argument("--out", help="also write the JSON report here")
    pb.add_argument("--json", action="store_true",
                    help="print the JSON report instead of the summary")

    args = parser.parse_args(argv)
    if args.command == "verify":
        report, code = run_verify(args.instance, checks=args.checks)
    else:
        report, code = run_build(args.instance, args.target, order=args.order)
    return _emit(report, code, args)


if __name__ == "__main__":
    sys.exit(main())
