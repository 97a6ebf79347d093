"""Stochastic block majorization-minimization toolkit.

Weight schedules, box/block geometry, quadratic surrogates, convex
subsolvers, finite-state Markov data streams, the online matrix/tensor
factorization steps, and the SBMM runner (``bench``: one loop that steps,
audits and records diagnostics for every application) with a CLI.
"""

from .schedule import (
    WeightSchedule,
    ScheduleReport,
    weight_at,
    cumulative_weight,
    validate_schedule,
)
from .geometry import (
    BoxSet,
    tangent_cone_project,
    stationarity_measure,
)
from .quadform import FactorQuad
from .subsolver import solve_box_qp, solve_code_lasso, solve_block_quadratic
from .stream import (
    MarkovSource,
    stationary_distribution,
    mixing_rate,
    tv_decay,
    next_sample,
    make_iid,
)
from .factorize import (
    out_product,
    omf_step,
    cpdl_step,
    OmfState,
    CpdlState,
)
from .bench import (
    DiagnosticsRecord,
    RunConfig,
    RunResult,
    eps_bar_update,
    emit_csv,
    parse_config,
    run_experiment,
    run_sweep,
    run_omf_diagnostics,
    run_cpdl_diagnostics,
    cli_main,
)

__version__ = "0.1.0"
