"""Stochastic block majorization-minimization toolkit.

Weight schedules, box/block geometry, quadratic surrogate algebra, convex
subsolvers, finite-state Markov data streams, the SBMM outer loop, online
matrix/tensor factorization applications, and diagnostics with a CLI.
"""

from .schedule import (
    WeightSchedule,
    ScheduleReport,
    weight_at,
    cumulative_weight,
    tail_weight_sum,
    validate_schedule,
)
from .geometry import (
    BoxSet,
    BlockSpec,
    BlockFeasibleSet,
    project_box,
    project_box_ball,
    restricted_block_set,
    tangent_cone_project,
    stationarity_measure,
    select_blocks,
)
from .quadform import (
    QuadSurrogate,
    FactorQuad,
    make_lipschitz_surrogate,
    make_prox_surrogate,
    make_dc_surrogate,
    average_surrogate,
    check_majorization,
)
from .subsolver import soft_threshold, solve_box_qp, solve_code_lasso, solve_block_quadratic
from .stream import (
    MarkovSource,
    stationary_distribution,
    mixing_rate,
    tv_decay,
    next_sample,
    make_iid,
)
from .engine import (
    SurrogateRecipe,
    SbmmState,
    init_state,
    block_minimize,
    sbmm_step,
    run,
    eps_bar_update,
)
from .factorize import (
    out_product,
    unfold,
    fold,
    omf_step,
    cpdl_step,
    OmfState,
    CpdlState,
)
from .bench import (
    DiagnosticsRecord,
    RunConfig,
    RunResult,
    eval_empirical,
    eval_expected,
    iteration_complexity_estimate,
    emit_csv,
    parse_config,
    run_experiment,
    run_sweep,
    run_omf_diagnostics,
    run_cpdl_diagnostics,
    cli_main,
)

__version__ = "0.1.0"
