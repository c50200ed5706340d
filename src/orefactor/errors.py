"""Exception hierarchy shared by all engine modules.

Every error raised on purpose by this package derives from EngineError,
so callers (and the CLI) can distinguish domain failures from bugs.
"""


class EngineError(Exception):
    """Base class for all deliberate failures of the engine."""


class NonPrime(EngineError):
    """A modulus that must be prime failed the primality check."""


class NonMonicModulus(EngineError):
    """A polynomial that must be monic (an expansion base) is not."""


class ZeroModP(EngineError):
    """The polynomial vanishes identically modulo p."""


class ReducibleModulus(EngineError):
    """A residue-field modulus is not irreducible over F_p."""


class RepeatedFactor(EngineError):
    """f is divisible by the square of an irreducible lift over Z.

    Such an f has a repeated p-adic factor, so index and factorization
    data are undefined; callers feeding irreducible f never see this.
    """


class IndexDivisible(EngineError):
    """Kummer-style factorization was requested but p divides the index."""


class NotRegular(EngineError):
    """Factorization refused: some residual polynomial is not squarefree.

    Carries the index lower bound that is still valid in this case.
    """

    def __init__(self, message: str, lower_bound: int):
        super().__init__(message)
        self.lower_bound = lower_bound


class NotSquarefree(EngineError):
    """The field parameter m has a repeated prime factor."""


class ExcludedM(EngineError):
    """The field parameter m is 0, 1 or -1."""


class ExcludedN(EngineError, ValueError):
    """The field degree n is below 2."""


class SquarefreeCheckInconclusive(EngineError):
    """m exceeds the trial-factorization bound and cannot be certified."""


class PolyParseError(EngineError):
    """A polynomial expression failed to parse; `position` points at the error."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position
