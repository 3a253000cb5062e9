"""Exception types shared across the package."""


class NlmcError(Exception):
    """Base class for every failure raised by this package."""


class IntegrationDivergedError(NlmcError):
    """An integration step drifted off the simplex beyond the repair budget."""


class GeneratorEvaluationError(NlmcError):
    """A generator produced non-finite or structurally invalid rates."""


class ReducibleGeneratorError(NlmcError):
    """A frozen-chain operation required an irreducible rate matrix."""


class CertificateEvaluationError(NlmcError):
    """A certificate sweep could not evaluate its hypothesis at some point.

    ``probe`` is the index of the failing row of a batched evaluation, if any.
    """

    probe: int | None = None


class GeneratorFileError(NlmcError):
    """A generator definition file is malformed."""


class NumericalError(NlmcError):
    """A linear solve or refinement fell short of its accuracy target."""
