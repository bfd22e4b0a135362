"""Stieltjes-type integrals of regulated functions.

Three integrals of f against dg on a compact interval: the Kurzweil
(gauge-limit) integral, the Young (refinement-limit with jump-aware
sums) integral, and the Dushnik (refinement-limit with plain interior
sums) integral.  A pair with a step function integrates exactly.  A
catalog pair splits into jump steps and continuous parts: the kind
enters only through one exact walk of the two jump steps, each
continuous part is read at the other side's jump nodes, and a
Gauss-Legendre sum certifies the continuous rest.  Any other pair gets
a certified error bound through step approximants.  K and Y always
agree here, and

    K(f, dg) = f(b) g(b) - f(a) g(a) - D(g, df)

whenever one argument has bounded variation, which ``by_parts`` and the
CLI's ``verify-main`` exercise.
"""

from .core import Interval, RegulatedFunction, StepApproximation
from .errors import (ApproximationError, DomainError, DSLError,
                     DSLSemanticError, DSLSyntaxError, GaugeError,
                     GaugeTooFineError, StepPairError, StieltjesError,
                     VariationUnknownError)
from .stepfun import (Decomposition, StepFunction, indicator, step_from_jumps)
from .regulated import (Affine, MonotoneFunction, PiecewiseLipschitz, Power,
                        SinWave)
from .partitions import (Division, Gauge, Partition, cousin_fine_partition,
                         interior_tags, is_fine)
from .sums import (BoundCheck, BoundsReport, SumValue, check_sum_bounds,
                   riemann_sum, young_sum)
from .integrate import (Diagnostics, ElementaryIntegrand, IndicatorKind,
                        IntegralKind, IntegralResult, by_parts,
                        check_integral_bounds, elementary_backward,
                        elementary_forward, integrate, integrate_limit,
                        integrate_step_pair)
from .oracle import OracleReport, oracle_gauge, oracle_refinement
from .dsl import (FunctionSpec, JobSpec, build_function, build_pair,
                  parse_spec, render_function, render_job)

__version__ = "0.1.0"

__all__ = [
    "Affine", "ApproximationError", "BoundCheck", "BoundsReport",
    "Decomposition", "Diagnostics", "Division", "DomainError", "DSLError",
    "DSLSemanticError", "DSLSyntaxError", "ElementaryIntegrand",
    "FunctionSpec", "Gauge", "GaugeError", "GaugeTooFineError",
    "IndicatorKind", "IntegralKind", "IntegralResult", "Interval", "JobSpec",
    "MonotoneFunction", "OracleReport", "Partition",
    "PiecewiseLipschitz", "Power", "RegulatedFunction", "SinWave",
    "StepApproximation", "StepFunction", "StepPairError", "StieltjesError",
    "SumValue", "VariationUnknownError", "by_parts",
    "check_integral_bounds", "check_sum_bounds", "cousin_fine_partition",
    "build_function", "build_pair", "elementary_backward",
    "elementary_forward", "indicator", "integrate", "integrate_limit",
    "integrate_step_pair", "interior_tags", "is_fine",
    "oracle_gauge", "oracle_refinement", "parse_spec",
    "render_function", "render_job",
    "riemann_sum", "step_from_jumps", "young_sum",
]
