"""Certificates, rigidity probes, and grid estimators for unit-distance
multilinear forms on finite connected graphs."""

__version__ = "0.1.0"

from .graphs import (  # noqa: F401
    Graph,
    GraphFormatError,
    DisconnectedGraphError,
    parse_graph,
    is_tree,
    contract_pendant_trees,
    block_decomposition,
)
from .exponents import (  # noqa: F401
    ExponentVector,
    ImprovingProfile,
    HalfspaceSystem,
    VertexPolytope,
    improving_profile_circle,
    necessary_halfspaces,
    sufficient_vertices,
    halfspace_membership,
    hull_membership,
    region_compare,
    chain3_constructed_region,
    chain3_missing_endpoints,
)
from .certificates import (  # noqa: F401
    Certificate,
    certify,
    certify_tree,
    certify_contraction,
    replay,
)
from .rigidity import (  # noqa: F401
    Realization,
    RigidityReport,
    LerayEstimate,
    rigidity_map,
    rigidity_jacobian,
    solve_realization,
    pin_to_M0,
    regularity_probe,
    leray_mc_form,
)
from .estimator import (  # noqa: F401
    MollifiedCircleKernel,
    make_kernel,
    circular_average,
    bilinear_radon,
    form_evaluate,
    test_family,
    scaling_experiment,
    ratio_experiment,
    kernel_decay_check,
)
from .grids import GridField, lp_norm  # noqa: F401
