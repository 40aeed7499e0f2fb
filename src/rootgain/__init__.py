"""Root numbers of elliptic curves and semistable Jacobians over extensions
with prescribed Galois groups: orbit-parity certificates, Mestre pencils,
constrained specialization search, and local root-number engines."""

from .algebra import (
    NotASquare,
    PolyQ,
    Rational,
    discriminant,
    legendre,
    poly_sqrt_exact,
    rational_roots,
    resultant,
    sturm_real_roots,
    valuation,
)
from .ellcurve import (
    CurveLocalData,
    EllipticCurveData,
    LocalReductionData,
    classify_reduction,
    global_root_semistable,
    local_root_number,
)
from .extension import (
    DecompositionPair,
    ExtensionProfile,
    Incomputable,
    archimedean_place_count,
    build_profile,
    check_declared_profile,
    klein_four_local,
    profile_at_unramified,
    profile_from_decomposition,
    quadratic_local,
    root_number_over_extension,
    root_number_ratio,
)
from .jacobian import (
    NodePrimeRecord,
    StableModelData,
    find_node_primes,
    hyperelliptic_rank_gain_report,
    local_root_number_bks,
    root_number_after_extension,
    tau_sign,
)
from .mestre import (
    BranchPoint,
    Pencil,
    SearchConstraints,
    an_certificate,
    distinctness_fingerprint,
    mestre_form_pencil,
    mestre_solve_odd_quintic,
    mestre_verify,
    psl2_11_degree12_pencil,
    search_rank_gain,
    specialize,
)
from .permgroup import (
    MetacyclicCandidate,
    PermGroup,
    alternating_group,
    centralizer_scan,
    coset_action,
    metacyclic_odd_orbit_search,
    orbits,
    psl2_11_degree55,
    psl2_natural,
    sign,
    symmetric_group,
)

__version__ = "0.1.0"
