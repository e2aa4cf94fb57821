"""Certified one-sided approximation of continuous nonlinear PDE systems.

The pipeline: parse an operator, tile the domain, place one Taylor piece
per subcell so the residual sits at the band center, certify the band on
off-skeleton samples, and refine the band toward zero to produce a
Cauchy sequence of approximants with an envelope.  A separate module
checks the convergence-space axioms the construction leans on, on
finite ground sets.
"""

from .domain import Box, CellPartition, SampleSet, Skeleton, build_partition, sample_points, skeleton_of, subdivide
from .expr import (
    ParseError,
    PdeSystem,
    parse_rhs,
    parse_system,
    print_expr,
    print_system,
)
from .baire import (
    EnvelopePair,
    GridFn,
    lower_baire,
    make_lattice,
    nlsc_regularize,
    operator_image,
    upper_baire,
)
from .approx import (
    DeltaCollapse,
    PiecewisePoly,
    RangeViolation,
    ResidualCertificate,
    check_residual,
    global_approx,
    local_approx,
    place_and_certify,
    plan_partition,
    rhs_from_exprs,
)
from .order import (
    OrderIntervalSeq,
    SolutionTrace,
    cauchy_gap,
    order_converges,
    refine_solution,
)

__version__ = "0.1.0"
