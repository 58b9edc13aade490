"""Exception types shared across the package."""


class CircuitError(Exception):
    """Base class for all circuit-sharp errors."""


class CyclicGraph(CircuitError):
    """The node graph admits no topological order."""


class NotATree(CircuitError):
    """Operation requires a tree-structured circuit."""


class ScopeMismatch(CircuitError):
    """The batch columns are not the root scope's variables 0..width-1."""


class StaleTrace(CircuitError):
    """Evaluation trace or flows do not match the circuit, weights or trace they are used with."""


class OutOfDomain(CircuitError):
    """A data value lies outside the support of the leaf family reading it."""


class ZeroLikelihood(CircuitError):
    """A row has probability 0 (root log p = -inf), where log p has no derivatives."""


class InvalidParameters(CircuitError, ValueError):
    """Sum weights off the simplex, or leaf parameters outside their domain."""


class MalformedFile(CircuitError):
    """Circuit or data file could not be parsed."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class MissingFile(CircuitError):
    """A required input file does not exist."""


class ShapeMismatch(CircuitError):
    """Loaded data disagrees with the registered shape."""

    def __init__(self, expected, found):
        self.expected = expected
        self.found = found
        super().__init__(f"expected shape {expected}, found {found}")


class ParseError(MalformedFile):
    """A data file contains an invalid token."""


class UnknownManifold(CircuitError):
    """Requested synthetic manifold name is not defined."""


class DepthTooLarge(CircuitError):
    """Requested partition depth exceeds what the variable count allows."""


class ZeroTrainNLL(CircuitError):
    """Degree of overfitting is undefined when the training NLL is zero."""


class NotConverged(CircuitError):
    """Iterative eigensolver failed to reach the residual tolerance."""


class CostGuardExceeded(CircuitError):
    """Requested dense/finite-difference computation exceeds its size cap."""


class DivergedNaN(CircuitError):
    """Training produced a non-finite objective; last good parameters kept."""

    def __init__(self, message, params=None, report=None):
        self.params = params
        self.report = report
        super().__init__(message)
