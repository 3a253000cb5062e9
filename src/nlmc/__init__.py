"""Continuous-time nonlinear Markov chains on finite state spaces.

The transition rates of such a chain depend on the chain's own marginal
distribution, so the marginal flow solves the nonlinear ODE
dm/dt = m^T Q(m).  This package integrates that flow, samples jump paths
consistent with it, finds invariant distributions, and emits numerical
certificates of uniqueness and strong ergodicity.
"""

from .certify import (
    Certificate,
    ReducedSystem,
    build_M,
    certify_ergodic_2,
    certify_ergodic_3,
    certify_unique,
)
from .errors import (
    CertificateEvaluationError,
    GeneratorEvaluationError,
    GeneratorFileError,
    IntegrationDivergedError,
    NlmcError,
    NumericalError,
    ReducibleGeneratorError,
)
from .generator import (
    GeneratorSpec,
    GridViolation,
    ValidationReport,
    constant_generator,
    corpus,
    generator_from_json,
    generator_to_json,
    lipschitz_estimate,
    load_generator,
    save_generator,
    validate,
)
from .semigroup import (
    Flow,
    JumpPath,
    Trajectory,
    evolve,
    integrate_flow,
    sample_path,
    thinning_bound,
)
from .simplex import Distribution, SimplexGrid
from .stationary import (
    StationaryResult,
    StationarySet,
    find_invariant,
    frozen_stationary,
    residual,
)

__version__ = "0.1.0"

__all__ = [
    "Certificate",
    "CertificateEvaluationError",
    "Distribution",
    "Flow",
    "GeneratorEvaluationError",
    "GeneratorFileError",
    "GeneratorSpec",
    "GridViolation",
    "IntegrationDivergedError",
    "JumpPath",
    "NlmcError",
    "NumericalError",
    "ReducedSystem",
    "ReducibleGeneratorError",
    "SimplexGrid",
    "StationaryResult",
    "StationarySet",
    "Trajectory",
    "ValidationReport",
    "build_M",
    "certify_ergodic_2",
    "certify_ergodic_3",
    "certify_unique",
    "constant_generator",
    "corpus",
    "evolve",
    "find_invariant",
    "frozen_stationary",
    "generator_from_json",
    "generator_to_json",
    "integrate_flow",
    "lipschitz_estimate",
    "load_generator",
    "residual",
    "sample_path",
    "save_generator",
    "thinning_bound",
    "validate",
]
