"""The public API: adding or removing an export is a deliberate edit of this list."""

import nlmc

PUBLIC_NAMES = [
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


def test_exports_are_exactly_the_public_names():
    assert sorted(nlmc.__all__) == PUBLIC_NAMES
