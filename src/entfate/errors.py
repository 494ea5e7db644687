"""Exception hierarchy for entfate."""


class EntfateError(Exception):
    """Base class for all entfate errors."""


class DimensionMismatch(EntfateError):
    """A matrix does not have the 4x4 shape of a two-qubit operator."""


class NotAState(EntfateError):
    """Matrix violates a density-operator invariant beyond tolerance."""


class UnsupportedEnsemble(EntfateError):
    """Requested ensemble kind is not defined."""


class UnsupportedDimension(EntfateError):
    """Dimensions other than two qubits (2x2) were requested."""


class PositivityLost(EntfateError):
    """Propagated state left the PSD cone beyond the repair threshold."""


class StepFailure(EntfateError):
    """Adaptive integrator failed (step underflow or residual check)."""


class OscillatoryAsymptotics(EntfateError):
    """Liouvillian has peripheral non-kernel spectrum; the asymptotic
    set is not a set of fixed states."""


class NoTraceOneElement(EntfateError):
    """Liouvillian kernel contains no unit-trace PSD state."""


class NotConverged(EntfateError):
    """Total propagator has not converged at the requested horizon."""


class Inconclusive(EntfateError):
    """Probe margins cannot exclude all but one theorem class."""


class BadParams(EntfateError):
    """Catalog parameters would not certify the requested class."""


class HorizonTooShort(EntfateError):
    """PT margin is still trending at the end of the time horizon."""
