"""Exact metric, boundary, and quadrilateral machinery for lamplighter
groups, solvable Baumslag-Solitar groups, and lattices in SOL."""

from .base_groups import (
    BSNumber,
    LampConfig,
    SolContext,
    bs_delta,
    bs_normalize,
    lamp_add,
    lamp_delta,
    lamp_dl,
    lamp_du,
    lamp_neg,
    sol_delta,
    sol_invariant_form,
)
from .dl_graph import (
    DLVertex,
    ball,
    ball_graph,
    bfs_distance,
    coset_of,
    distances_from,
    dl_distance,
    dl_inv,
    dl_mul,
    identity_vertex,
    neighbors,
)
from .errors import DecompositionError, DomainError, InternalError, ParseError
from .formats import export_dot
from .maps import (
    BaseMap,
    BilipReport,
    BlockPerm,
    Compose,
    DeltaDistortionReport,
    Inversion,
    Shift,
    Translate,
    VertexMap,
    apply,
    bilip_constants,
    delta_distortion,
    induced_vertex_map,
    is_generalized_affine,
    isometry_search,
    map_is_bijective,
    parallelogram_preserving,
    qi_distortion,
    window_configs,
)
from .quads import (
    BSFamily,
    Classification,
    ClassifyResult,
    GeneratorSet,
    LampFamily,
    Quad,
    QuadParams,
    SolFamily,
    VerifyReport,
    calibrate_schwartz,
    classify,
    greedy_sum,
    lamp_sigma_obstruction,
    sigma_admissible,
    telescope_decompose,
    telescoping_identity_holds,
    verify_lamp_claim,
    verify_schwartz,
    verify_taback,
)

__version__ = "0.1.0"
