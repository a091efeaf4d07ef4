"""Exception and warning types shared across the toolkit."""


class InvalidInputError(ValueError):
    """Input violates a structural contract (non-Hermitian, dim mismatch, ...)."""


class DomainError(ValueError):
    """Parameter value outside the declared domain of a model or formula."""


class NumericalError(RuntimeError):
    """A numerical routine failed to converge or produced unusable output."""


class StepSizeError(ValueError):
    """An integration time step is too large to be usable: the state it
    reaches has drifted in trace or grown past modulus 1."""


class DivergenceError(RuntimeError):
    """A limit extrapolation did not converge; carries the sampled sequence."""

    def __init__(self, message, thetas=None, values=None):
        super().__init__(message)
        self.thetas = thetas
        self.values = values


class DegenerateModelError(ValueError):
    """All spectral weight below tolerance; the operator equation is vacuous."""


class MisidentifiedOutcomeError(ValueError):
    """The designated outcome probability does not vanish at the given point."""


class NotADiscontinuityError(ValueError):
    """No rank change detected at the given parameter value."""


class MultiBranchError(ValueError):
    """A vanishing eigenvalue cannot be told apart from a non-vanishing one."""


class UnsupportedModelError(ValueError):
    """The model has no two-outcome measurement and estimator to sample."""


class InsufficientReplicatesError(ValueError):
    """Fewer than two replicates; a sample variance cannot be formed."""


class BoundarySolutionWarning(UserWarning):
    """A likelihood maximizer landed on the edge of its search bracket."""
