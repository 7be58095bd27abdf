"""Census of closed 3-manifolds obtained by gluing the faces of one cube."""

from .algebra import (
    AbelianInvariants,
    IntegerMatrix,
    h1_of_chain_complex,
    smith_normal_form,
)
from .blocks import (
    BlockKind,
    DiagonalPattern,
    MismatchReport,
    assemble_triangulation,
    mismatch_report,
    reference_pattern,
    select_block,
)
from .census import (
    CensusReport,
    ClassReport,
    Fingerprint,
    ReferenceEntry,
    classify,
    compute_fingerprint,
    reference_table,
    run_census,
    verify_theorem,
)
from .cube_complex import (
    CubeGluing,
    CubulationSpec,
    Face,
    GluingPair,
    GluingSpecError,
    QuotientComplex,
    SquareSymmetry,
    build_quotient,
    is_closed_manifold,
    parse_gluing_text,
    quotient_is_orientable,
)
from .enumeration import (
    CanonicalGluing,
    CubeSymmetry,
    canonical_form,
    enumerate_canonical,
    enumerate_raw,
)
from .normal_surfaces import (
    Certificate,
    CertificateCheck,
    CertificateKind,
    SurfaceSummary,
    check_certificate,
    find_certificate,
    matching_equations,
    normal_euler_characteristic,
    summarise_surface,
    vertex_normal_surfaces,
)
from .triangulation import Triangulation

__all__ = [name for name in dir() if not name.startswith("_")]
