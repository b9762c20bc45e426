"""Exact symbolic toolkit for Lie super-bialgebra structures.

Encodes the Lie superalgebras osp(1|2) and super-e(2), verifies and
re-derives their super-bialgebra classification, and computes the induced
Poisson-Lie brackets on the corresponding supergroups, reproducing the
published classification tables exactly (rational arithmetic throughout).
"""

from .scalars import (
    Ring,
    SuperScalar,
    RingMismatchError,
    ParityError,
    ReductionError,
    ScalarParseError,
    reduce_mod_relation,
)
from .algebra import (
    SuperLieAlgebra,
    Report,
    AlgebraError,
    builtin,
    bracket,
    parse_algebra_text,
    parse_algebra_file,
    render_algebra_text,
)
from .tensors import (
    GradedTensor,
    RMatrix,
    wedge,
    ad_action,
    schouten,
    parse_rmatrix,
)
from .bialgebra import (
    Cobracket,
    coboundary_delta,
    check_cobracket,
    cybe_status,
    family,
    parse_cobracket_text,
)
from .cocycles import (
    SolutionFamily,
    build_cocycle_system,
    nullspace,
    coboundary_space,
    cojacobi_constraints,
)
from .equivalence import (
    Automorphism,
    osp_automorphism,
    e2_automorphism,
    transform,
    verify_orbit_claims,
)
from .poisson import (
    CoordinateRing,
    VectorField,
    PoissonStructure,
    coboundary_structure,
    named_structure,
    check_axioms,
    render_table,
    super_e2_group,
    osp_group,
)
from .claims import ClaimResult, load_claims, run_claims

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
