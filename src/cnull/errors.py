"""Exception taxonomy shared by all modules.

Every error carries the process exit code the CLI maps it to:
2 for violated mathematical hypotheses, 3 for precision, genericity or
search exhaustion, 4 for malformed input.  Plain bugs stay ordinary exceptions.
"""


class CnullError(Exception):
    exit_code = 1


# ---------------------------------------------------------------------------
# malformed input (exit 4)

class SchemaError(CnullError):
    exit_code = 4


class GeneratorNotAnnihilated(SchemaError):
    """A declared parametrization does not satisfy the implicit generators."""


class ParamRequired(SchemaError):
    """A variety has no polynomial parametrization, or not one of the kind the operation needs."""


class ParamNotOneToOne(SchemaError):
    """A curve's parametrization is not generically one-to-one onto the set."""


class GridMalformed(SchemaError):
    """Interpolation samples do not form a tensor-product grid."""


class InvalidInput(SchemaError, ValueError):
    """The inputs do not fit the operation: wrong number of components, an option out of range."""


# ---------------------------------------------------------------------------
# violated hypotheses (exit 2)

class HypothesisError(CnullError):
    exit_code = 2


class NotDivisible(HypothesisError):
    """Exact polynomial division left a nonzero remainder."""


class NotCAlgebraic(HypothesisError):
    """A rational component does not extend polynomially along the parametrization."""


class NotProper(HypothesisError):
    """The map fails the properness criterion along the parametrization."""


class NotIsolated(HypothesisError):
    """The point is not isolated in its fiber."""


class NonZeroDimensional(HypothesisError):
    """A bivariate system has a positive-dimensional solution set."""


class NotInIdeal(HypothesisError):
    """A coefficient has a monomial outside the ideal generated by the leading variables."""


class VanishingHypothesisFailed(HypothesisError):
    """g does not vanish on the zero fiber required by the certificate route."""


class NotStrictlyRegular(HypothesisError):
    """No affine completion of the map is proper within the retry budget."""


class CycleDataUnavailable(HypothesisError):
    """Cycle-of-zeroes data is required but was not supplied and cannot be estimated."""


class ComponentNotInFiber(HypothesisError):
    """A supplied component is not contained in the zero fiber of the map."""


# ---------------------------------------------------------------------------
# precision, genericity or search exhaustion (exit 3)

class PrecisionError(CnullError):
    exit_code = 3


class PrecisionExhausted(PrecisionError):
    """Ambiguity persists at the top of the working-precision ladder."""


class NoReconstruction(PrecisionError):
    """No rational of bounded height lies within tolerance of the value."""


class NonReal(PrecisionError):
    """The imaginary part exceeds the reconstruction tolerance."""


class DegenerateSlice(PrecisionError):
    """A constant curve has no generic slice, or no projection drawn within budget was finite."""


class InconsistentFiberCounts(PrecisionError):
    """No draw within the retry budget certified a fiber count, or two exact counts disagreed."""


class CriticalSampleBudgetExhausted(PrecisionError):
    """Could not assemble a sample grid clear of the critical locus."""


class ExactVerificationFailed(PrecisionError):
    """A numerically constructed object failed its exact polynomial identity check."""


class InconsistentSamples(PrecisionError):
    """No polynomial within the degree bounds matches all samples."""


class DivisionByZeroGradient(PrecisionError):
    """Gradient vanished at every resampled point within the budget."""


class NoSolutionWithinCap(PrecisionError):
    """The certificate search found nothing under its caps: a search limit, not a verdict."""
