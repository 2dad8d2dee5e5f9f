"""Exception types shared across the package."""


class ScatpolyError(Exception):
    """Base class for all package-specific errors."""


class NonPrimeP(ScatpolyError):
    """The base characteristic p is not a prime number."""


class EvenP(ScatpolyError):
    """The base characteristic is 2; only odd characteristic is supported."""


class TSmall(ScatpolyError):
    """Tower parameter t is below the supported minimum (t >= 3)."""


class ReducibleModulus(ScatpolyError):
    """A user-supplied modulus polynomial is not irreducible over GF(p)."""


class CtxMismatch(ScatpolyError):
    """Operands belong to different field contexts."""


class BadK(ScatpolyError):
    """Frobenius-shift index k is outside its admissible range."""


class BadParams(ScatpolyError):
    """Construction parameters violate a documented family constraint."""


class NotScattered(ScatpolyError):
    """An operation requiring a scattered polynomial received one that is not."""


class BadHypotheses(ScatpolyError):
    """Parameters violate the hypotheses of the counting theorem:
    t >= 3 with q odd for even t, q = 1 (mod 4) for odd t."""


class NotDisjointFromSigma(ScatpolyError):
    """A projective subspace meets the fixed subgeometry it must avoid."""


class FieldTooLarge(ScatpolyError):
    """The field is above TABLE_LIMIT elements for an operation that needs
    the tables or an array over every element."""
