"""Exception hierarchy for qilab."""


class QilabError(Exception):
    """Base class for all qilab errors."""


class SizeError(QilabError):
    """Dimension mismatch, or a result would exceed the configured size cap."""


class HermiticityError(QilabError):
    """Matrix is not Hermitian within tolerance."""


class NotPositiveError(QilabError):
    """Matrix has an eigenvalue below the allowed negative tolerance."""


class TraceError(QilabError):
    """Matrix trace differs from the required value beyond tolerance."""


class NormalizationError(QilabError):
    """Vector norm, weight sum, or probability sum is off beyond tolerance."""


class ConvergenceError(QilabError):
    """An iterative factorization failed to converge or certify its result."""


class RankError(QilabError):
    """Requested auxiliary dimension is too small for the operator rank."""


class PairingSearchError(QilabError):
    """Randomized pairing search exhausted its tries without meeting the bound.

    Carries the best pairing found so the caller can still inspect it.
    """

    def __init__(self, message, best_pairing, best_average):
        super().__init__(message)
        self.best_pairing = best_pairing
        self.best_average = best_average


class ProtocolError(QilabError):
    """A protocol move violates ownership or support rules."""


class ReductionError(QilabError):
    """A step of the message-reduction pipeline failed its contract."""
