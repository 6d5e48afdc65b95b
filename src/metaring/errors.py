"""Exception types shared across the toolkit.

Plain ``ValueError`` is used for ordinary domain/precondition violations;
the classes here mark failure modes that callers are expected to branch on.
"""


class ConfigError(ValueError):
    """Configuration failed schema or invariant validation.

    ``violations`` holds one ``"json.path: message"`` string per problem.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations) or "invalid configuration")


class BandEdgeError(RuntimeError):
    """Mode search left the first propagating band without finding a root."""


class ConditioningError(RuntimeError):
    """Normal equations of a least-squares step are singular."""


class PrecisionError(RuntimeError):
    """A result missed its stated precision: a function fitted as an exact
    quartic is not a quartic on the fit nodes, or a root did not converge
    within its step cap."""


class NoResonanceError(ValueError):
    """A trace contains no identifiable resonance dip."""
