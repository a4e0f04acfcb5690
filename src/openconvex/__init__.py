"""Smooth convex functions over open sets: exact checks and chain bounds.

The package verifies an exact piecewise-quadratic function showing that
smooth convex functions on open sets need not extend to the whole space,
implements the accompanying two-point inequalities, computes chain bounds
on f(y) with a built-in log-barrier solver, and realizes chain
solutions as smooth convex interpolants along the segment.

The package namespace holds the names of the README's library quick tour
and the types they take or return; every other name is reached from its
module (``openconvex.bounds``, ``chain``, ``interpolation``, ``spline``,
``checks``, ``cli``).
"""

from .bounds import PointData
from .chain import BoundResult, ChainSpec, normalized_spec, solve_spec
from .interpolation import SegmentInterpolant, build_segment_interpolant, eval_interpolant
from .spline import ExactPoint, VerificationReport, cocoercivity_sides, eval_F, verify_all

__version__ = "0.1.0"
