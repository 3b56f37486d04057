"""quadwalk: exact and asymptotic computations for quadrant-killed lattice walks."""

from .asymptotics import (
    AsymptoticConstants,
    GaussParams,
    bm_kernel,
    density_p,
    int_q,
    predict_boundary_llt,
    predict_integral,
    predict_line,
    predict_llt,
    predict_tail,
    q_density,
    qbar,
    verify,
)
from .dp import (
    ExitSpec,
    QuadrantMeasure,
    Region,
    count_line,
    count_paths,
    half_plane_survival,
    local_prob,
    run_dp,
    step_measure,
    survival_prob,
)
from .harmonic import HarmonicEstimate, w_check_harmonic, w_rect
from .ladders import (
    BoundaryConvention,
    LadderDist,
    RenewalTable,
    ascending_ladder,
    descending_ladder,
    kappa,
    renewal_H,
    renewal_V,
    resolve_convention,
)
from .montecarlo import McEstimate, simulate_survival
from .pipeline import ConditionedWalkPipeline
from .steps import (
    LatticeStructure,
    Moments,
    StepDistribution,
    TiltParams,
    compute_moments,
    in_lattice_support,
    lattice_decompose,
    load_steps,
    singular_steps,
    solve_drift,
    tilt,
    validate_steps,
)

__version__ = "0.1.0"
