"""Exception types shared across the package."""


class CosetAlgError(Exception):
    """Base class for all package-specific errors."""


class MarginOverflow(CosetAlgError):
    """An off-diagonal type does not fit into the requested margins.

    Raised when some column star sum exceeds the block size, so no diagonal
    completion with nonnegative entries exists.
    """

    def __init__(self, j: int, star: int, n_j: int):
        self.j = j          # 1-based block index
        self.star = star
        self.n_j = n_j
        super().__init__(f"off-diagonal sums at block {j} exceed margin: {star} > {n_j}")


class InvariantViolation(CosetAlgError):
    """An internal invariant failed; this is a bug, not a bad input."""


class BruteForceLimitExceeded(CosetAlgError):
    """The requested symmetric group is larger than the brute-force limit."""

    def __init__(self, N: int, limit: int):
        self.N = N
        self.limit = limit
        super().__init__(f"brute force needs S_{N} but the limit is N <= {limit}")


class PoleAtSpecialization(CosetAlgError):
    """Substituting eps_j = 1/n_j hits a zero of a surviving denominator factor.

    ``j`` (1-based) and ``m`` identify the factor (1 - m*eps_j) that vanishes,
    i.e. m equals n_j.
    """

    def __init__(self, j: int, m: int):
        self.j = j
        self.m = m
        super().__init__(f"pole at specialization: factor (1 - {m}*eps_{j}) vanishes at eps_{j} = 1/{m}")


class HypergeometricParameterError(CosetAlgError):
    """A lower Pochhammer symbol vanishes before the series terminates."""
