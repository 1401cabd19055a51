"""Exact constructor and verifier for Hopf-style algebraic structure on
quotients of symmetric monoidal categories, plus the infinitesimally
braided deformations of those structures.

Everything computes over exact scalars: the rationals, or rationals with
a nilpotent formal parameter truncated at a chosen order.

The Lie bialgebra and deformation layers (`liebialg`, `deform`) load on
first use: their exports resolve through the module __getattr__ below
(PEP 562), so an instance that needs neither never imports them.
"""

from .scalars import HSeries, RATIONAL, Ring, RingMismatch, hseries_ring
from .linalg import Matrix, Singular, cokernel_projection, mat_invert, mat_kron
from .backends import (
    Atom,
    Backend,
    BackendError,
    GroupTable,
    MorphismRep,
    ObjectRef,
    cyclic_group,
    dy_backend,
    finset_backend,
    linear_backend,
    regular_atom,
    regular_linear_atom,
    symmetric_group,
)
from .coalg import (
    Comonoid,
    HopfMonoidData,
    LawRecord,
    all_hold,
    check_comonoid,
    check_hopf_monoid,
    diagonal_comonoid,
    failures,
    group_algebra_hopf,
    group_like_comonoid,
)
from .cofunctor import (
    ComonoidalFunctor,
    IdentityFunctor,
    NotAdapted,
    OrbitFunctor,
    certify_adapted,
    check_comonoidal,
    dy_coinvariants_functor,
    group_coinvariants_functor,
    mult_along,
)
from .hopfcategory import (
    GroupoidTable,
    HopfCategoryData,
    NotCocommutative,
    PreCartierViolation,
    build_hopf_category,
    build_hopf_monoid,
    check_hopf_category,
    extract_set_groupoid,
    hopf_data_equal,
    verify_groupoid,
)
from .instances import Instance, InstanceError, instance_digest, load_instance, parse_instance
from .corpus import CORPUS_NAMES, corpus_path, write_corpus
from .cli import run_build, run_verify

_LIEBIALG = ("LieBialgebra", "TruncatedUEA", "check_dy_module", "check_lie_bialgebra",
             "check_twist", "check_uea_dy_identities", "twist_bialgebra", "twist_dy_module")
_DEFORM = ("PreCartierData", "build_deformed_hopf_category", "casimir_t", "check_pre_cartier",
           "deformed_braiding", "reduce_order0")


def __getattr__(name):
    if name in _LIEBIALG:
        from . import liebialg as module
    elif name in _DEFORM:
        from . import deform as module
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(module, name)

__all__ = [
    "Atom",
    "Backend",
    "BackendError",
    "CORPUS_NAMES",
    "Comonoid",
    "ComonoidalFunctor",
    "GroupTable",
    "GroupoidTable",
    "HSeries",
    "HopfCategoryData",
    "HopfMonoidData",
    "IdentityFunctor",
    "Instance",
    "InstanceError",
    "LawRecord",
    "LieBialgebra",
    "Matrix",
    "MorphismRep",
    "NotAdapted",
    "NotCocommutative",
    "ObjectRef",
    "OrbitFunctor",
    "PreCartierData",
    "PreCartierViolation",
    "RATIONAL",
    "Ring",
    "RingMismatch",
    "Singular",
    "TruncatedUEA",
    "all_hold",
    "build_deformed_hopf_category",
    "build_hopf_category",
    "build_hopf_monoid",
    "casimir_t",
    "certify_adapted",
    "check_comonoid",
    "check_comonoidal",
    "check_dy_module",
    "check_hopf_category",
    "check_hopf_monoid",
    "check_lie_bialgebra",
    "check_pre_cartier",
    "check_twist",
    "check_uea_dy_identities",
    "cokernel_projection",
    "corpus_path",
    "cyclic_group",
    "deformed_braiding",
    "diagonal_comonoid",
    "dy_backend",
    "dy_coinvariants_functor",
    "extract_set_groupoid",
    "failures",
    "finset_backend",
    "group_algebra_hopf",
    "group_coinvariants_functor",
    "group_like_comonoid",
    "hopf_data_equal",
    "hseries_ring",
    "instance_digest",
    "linear_backend",
    "load_instance",
    "mat_invert",
    "mat_kron",
    "mult_along",
    "parse_instance",
    "reduce_order0",
    "regular_atom",
    "regular_linear_atom",
    "run_build",
    "run_verify",
    "symmetric_group",
    "twist_bialgebra",
    "twist_dy_module",
    "verify_groupoid",
    "write_corpus",
]

__version__ = "0.1.0"
