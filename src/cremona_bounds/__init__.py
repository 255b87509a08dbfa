"""Exact machinery behind the rank bound for p-elementary subgroups of the
plane Cremona group: cyclotomic polynomials mod p, torus torsion bounds with
a finite-field oracle, the piecewise (p, t) rank table, and the Weyl-group
audit for the cubic-surface case.

Every name in __all__ is importable from the package; the names of the
matrix, torus, oracle, table and Weyl layers load their module on first use.
"""

from importlib import import_module

# The shared core, loaded eagerly: almost every subcommand runs it.
from .cyclotomic import (
    IntPoly,
    ModPoly,
    cyclotomic_poly,
    order_t_multiplicity,
    reduce_mod,
    root_multiplicity,
    verify_lemma_range,
)
from .errors import DomainError, NotCyclotomicProduct, NotFiniteOrder, VerificationError
from .numth import euler_phi, theorem_bound

# The other layers load on first use of one of their names (PEP 562).
_LAZY = {
    "cremona_table": ("AlgebraicallyClosed", "CremonaBound", "CyclotomicExtension",
                      "FiniteField", "Rationals", "cremona_rank_bound",
                      "t_for_field"),
    "ff_oracle": ("FiniteFieldTorus", "group_order", "p_elementary_rank",
                  "rational_points_structure", "t_of_finite_field"),
    "intlinalg": ("IntMatrix", "companion_matrix", "cyclotomic_factorization",
                  "kernel_dim_mod_p", "smith_normal_form"),
    "torus_rank": ("GaloisTorusPresentation", "RankCertificate", "fixed_point_rank",
                   "multiplicity_chain_check", "sharp_construction"),
    "weyl_audit": ("audit_pgl4", "enumerate_weyl"),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))


__version__ = "0.1.0"

# the names imported above from the package's own modules, then the lazy ones
__all__ = sorted([name for name, value in globals().items()
                  if getattr(value, "__module__", "").startswith(f"{__name__}.")] + list(_HOME))
