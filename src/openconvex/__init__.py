"""Smooth convex functions over open sets: exact checks and chain bounds.

The package verifies an exact piecewise-quadratic function showing that
smooth convex functions on open sets need not extend to the whole space,
implements the accompanying two-point inequalities, computes chain bounds
on f(y) with a built-in log-barrier solver, and realizes chain
solutions as smooth convex interpolants along the segment.
"""

from .bounds import (
    AlphaWeights,
    Interval,
    PointData,
    alpha_weights,
    analytical_region,
    cocoercivity_gap,
    descent_gap,
    global_bound_interval,
    local_condition,
    make_chain,
    min_chain_length,
    sum_identity,
)
from .chain import (
    BoundResult,
    ChainSpec,
    SweepRow,
    build_problem,
    closed_form_n1,
    normalized_spec,
    solve,
    solve_spec,
    sweep,
)
from .interpolation import (
    SegmentInterpolant,
    build_segment_interpolant,
    combine,
    envelope_eval,
    eval_interpolant,
    two_point_feasible,
)
from .spline import (
    ExactPoint,
    VerificationReport,
    build_spline,
    classify_region,
    cocoercivity_sides,
    domain_distance,
    eval_F,
    eval_F_float,
    eval_float,
    grad_F,
    grad_F_float,
    grad_float,
    verify_all,
    verify_c1_seams,
    verify_grid_properties,
    verify_smooth_convex_pieces,
    verify_violation,
)

__version__ = "0.1.0"
