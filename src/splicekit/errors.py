"""Exception types shared across the package."""


class SpliceKitError(Exception):
    """Base class for all library errors."""


class ValidationError(SpliceKitError):
    """Input graph or document violates a structural invariant."""


class ParseError(SpliceKitError):
    """Input file is not well-formed."""


class NotNegativeDefinite(SpliceKitError):
    """Operation requires a negative-definite intersection form."""


class UnknownEdge(SpliceKitError):
    """Referenced edge does not exist in the graph."""


class UnknownVertex(SpliceKitError):
    """Referenced vertex does not exist."""


class SameVertex(SpliceKitError):
    """Linking numbers are only defined for distinct vertices."""


class LeafEdgeInReducedDiagram(SpliceKitError):
    """Edge determinants in a reduced diagram need nodes at both ends."""


class NonReducedFraction(SpliceKitError):
    """Continued-fraction data must have coprime entries."""


class NotEndNode(SpliceKitError):
    """Reduction target must be an end-node."""


class NonIntegralWeight(SpliceKitError):
    """A normalized reduced weight is not divisible by the determinant."""


class NotEndNodeEdge(SpliceKitError):
    """Criterion requires an edge whose far end is an end-node."""


class NotTwoNode(SpliceKitError):
    """Criterion requires a graph with exactly two nodes."""


class CapExceeded(SpliceKitError):
    """Group order exceeds the configured enumeration cap."""


class NotABranch(SpliceKitError):
    """Vertex set is not a branch (component of the graph minus a vertex)."""


class SemigroupFails(SpliceKitError):
    """Equation generation requires the semigroup condition."""


class CongruenceFails(SpliceKitError):
    """Equivariant equation generation requires the congruence condition."""


class InvalidHigherTerm(SpliceKitError):
    """Supplied higher-order term violates a weight or character invariant."""


class DegenerateMatrix(SpliceKitError):
    """Coefficient matrix lost full rank during normalization."""
