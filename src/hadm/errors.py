"""Exception hierarchy shared across the package."""


class HadmError(Exception):
    """Base class for all package errors."""


class ModelError(HadmError):
    """A model failed construction-time validation."""


class InadmissibleActionError(HadmError):
    """An action was applied in a state where it is not admissible."""


class IncompleteValueTableError(HadmError):
    """A value table is missing an entry required by a computation."""


class InvalidConfigError(HadmError):
    """Invalid solver or scenario configuration."""


class ImpossibleObservationError(HadmError):
    """Bayes normalizer was zero: the observation contradicts the model."""


class ResourceLimitError(HadmError):
    """A configured resource cap (state count, node count) was exceeded."""


class EscalationRequired(HadmError):
    """No mitigation rule matched; the fault must be escalated to an operator."""


class UnconstrainedSigmaError(HadmError):
    """Sigma is identically zero, so no prediction-health constraint exists."""
