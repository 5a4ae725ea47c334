"""Exact-arithmetic verification of PBW and bounded-degree Koszul properties.

The package checks, at a user-chosen degree bound and in exact cyclotomic
arithmetic, the homological conditions under which a filtered algebra
presented by inhomogeneous relations of a single top degree N has the PBW
property, including the antisymmetrizer-minus-psi family over smash
products with finite groups and its associated bimodule N-complexes.

The exported names are the checks the CLI runs and the builders they take.
The paper-statement checks that only tests use (Lemma 2.2, identity (4.1),
the exterior differentials, the full-space ideal component) are test
oracles, kept in ``tests/paper_checks.py``.
"""

from .scalar import (
    DimensionMismatch,
    MatrixS,
    Scalar,
    Subspace,
    format_scalar,
    image,
    kernel,
    parse_scalar,
    rank,
    rref,
)
from .smashtensor import (
    FilteredSubspace,
    GroupData,
    Subbimodule,
    TensorContext,
    W,
    product_EF,
)
from .homogeneous import (
    HomogeneousAlgebra,
    KoszulCertificate,
    check_ec,
    check_tor3_concentration,
    koszul_complex_check,
    zeta,
)
from .filtered import (
    FilteredPresentation,
    PBWReport,
    PhiMap,
    build_down_up,
    build_lie,
    build_phi,
    check_condition_I,
    check_condition_J,
    check_remark_310,
    oracle_pbw,
    pbw_verdict,
    project_R,
)
from .grouppres import (
    GDecomposition,
    PsiMap,
    build_H_psi,
    build_psi_corollary45,
    build_psi_symplectic_reflection,
    check_equivariance,
    decompose,
    theorem_44_verdict,
)
from .komplex import (
    NComplexSlice,
    TruncatedU,
    check_dN_zero,
    contracted_complex,
    wedge_agreement,
)

__all__ = [
    "DimensionMismatch",
    "FilteredPresentation",
    "FilteredSubspace",
    "GDecomposition",
    "GroupData",
    "HomogeneousAlgebra",
    "KoszulCertificate",
    "MatrixS",
    "NComplexSlice",
    "PBWReport",
    "PhiMap",
    "PsiMap",
    "Scalar",
    "Subbimodule",
    "Subspace",
    "TensorContext",
    "TruncatedU",
    "W",
    "build_H_psi",
    "build_down_up",
    "build_lie",
    "build_phi",
    "build_psi_corollary45",
    "build_psi_symplectic_reflection",
    "check_condition_I",
    "check_condition_J",
    "check_dN_zero",
    "check_ec",
    "check_equivariance",
    "check_remark_310",
    "check_tor3_concentration",
    "contracted_complex",
    "decompose",
    "format_scalar",
    "image",
    "kernel",
    "koszul_complex_check",
    "oracle_pbw",
    "parse_scalar",
    "pbw_verdict",
    "product_EF",
    "project_R",
    "rank",
    "rref",
    "theorem_44_verdict",
    "wedge_agreement",
    "zeta",
]

__version__ = "0.1.0"
