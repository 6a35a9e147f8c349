"""Exact adapted optimal transport on finitely supported scenario trees."""

from .bicausal import (
    BicausalPlan,
    MulticausalCoupling,
    SizeGuardError,
    aw_distance,
    aw_distance_lp,
    check_bicausal,
    check_multicausal,
    factor_plan,
    glue,
)
from .canonical import InfoState, canonicalize, equivalent, information_process
from .curves import (
    CommonSpaceFlow,
    GridCurve,
    IntervalSlack,
    dyadic_grid,
    flow_energy,
    geodesic,
    metric_derivative,
    p_energy,
    represent_curve,
    skorokhod,
    verify_flow_ac,
    weighted_p_variation,
)
from .discrete_ot import (
    DiscreteLaw,
    InfeasibleError,
    SolverError,
    TransportPlan,
    UnboundedError,
    lp_solve,
    w_distance,
)
from .trees import (
    PathLaw,
    ShapeMismatchError,
    TreeNode,
    TreeProcess,
    build_process,
    chain_process,
    path_distance,
    path_law,
    process_with_values,
    quantize_paths,
    tree_from_dict,
    tree_to_dict,
    validate,
)

__version__ = "0.1.0"
