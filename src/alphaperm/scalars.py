"""Scalar fields: exact rationals, exact complex rationals, and binary64 floats.

Every matrix entry and every alpha parameter in this package is one of four
kinds:

    rational          fractions.Fraction (ints are accepted and promoted)
    complex-rational  GaussianRational, a pair of Fractions
    float             binary64
    complex-float     complex (two binary64 parts, in-memory only)

Exact and floating kinds never mix silently; combining them raises
MixedModeError unless the caller converts first via to_float_scalar.

Text syntax (used by matrix files and the command line):

    rational          p  or  p/q        with q > 0, e.g. -3/4
    complex-rational  a+bi  or  a-bi    a, b rationals, e.g. 1/2-3/4i
                      (a single space before the i is tolerated on input)
    float             any decimal literal accepted by float(), finite only

Only ASCII text parses: the digits are 0-9, never another script's.

complex-float has no text syntax; it only arises from in-memory conversion.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from numbers import Rational

from .errors import DomainError, MixedModeError, ScalarFormatError

RATIONAL = "rational"
COMPLEX_RATIONAL = "complex-rational"
FLOAT = "float"
COMPLEX_FLOAT = "complex-float"

EXACT_KINDS = (RATIONAL, COMPLEX_RATIONAL)
FLOAT_KINDS = (FLOAT, COMPLEX_FLOAT)


class GaussianRational:
    """Exact complex number with rational real and imaginary parts.

    Supports +, -, *, / , unary -, integer powers, conjugation, and equality
    against other GaussianRationals and rationals. Arithmetic with floats or
    complex floats raises MixedModeError: conversions must be explicit.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        # Fractions are immutable, so one that is given is kept, not copied
        object.__setattr__(self, "re", re if type(re) is Fraction
                           else Fraction(re))
        object.__setattr__(self, "im", im if type(im) is Fraction
                           else Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    @staticmethod
    def _coerce(other):
        if isinstance(other, GaussianRational):
            return other
        if isinstance(other, Rational):
            return GaussianRational(other)
        if isinstance(other, (float, complex)):
            raise MixedModeError(
                "cannot mix GaussianRational with %r; convert explicitly"
                % (other,)
            )
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(o.re - self.re, o.im - self.im)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = o.re * o.re + o.im * o.im
        if d == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        return GaussianRational(
            (self.re * o.re + self.im * o.im) / d,
            (self.im * o.re - self.re * o.im) / d,
        )

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o.__truediv__(self)

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __pos__(self):
        return self

    def __pow__(self, exponent):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return (GaussianRational(1) / self) ** (-exponent)
        result = GaussianRational(1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def conjugate(self):
        return GaussianRational(self.re, -self.im)

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, Rational):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        # Consistent with __eq__ against plain rationals.
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __repr__(self):
        return "GaussianRational(%r, %r)" % (str(self.re), str(self.im))

    def __str__(self):
        return format_scalar(self)


def scalar_kind(x) -> str:
    """Classify a value into one of the four scalar kinds."""
    if isinstance(x, Rational):
        return RATIONAL
    if isinstance(x, GaussianRational):
        return COMPLEX_RATIONAL
    if isinstance(x, float):
        return FLOAT
    if isinstance(x, complex):
        return COMPLEX_FLOAT
    raise TypeError("not a supported scalar: %r" % (x,))


def kind_is_exact(kind: str) -> bool:
    return kind in EXACT_KINDS


def kind_is_complex(kind: str) -> bool:
    return kind in (COMPLEX_RATIONAL, COMPLEX_FLOAT)


def as_scalar(x):
    """Normalize a value to a canonical scalar (ints become Fractions)."""
    if type(x) is Fraction or isinstance(x, (GaussianRational, float,
                                                 complex)):
        return x
    if isinstance(x, Rational):
        return Fraction(x)
    raise TypeError("not a supported scalar: %r" % (x,))


# the zero and the one of each kind
ZERO_OF = {
    RATIONAL: Fraction(0),
    COMPLEX_RATIONAL: GaussianRational(0),
    FLOAT: 0.0,
    COMPLEX_FLOAT: 0j,
}
ONE_OF = {
    RATIONAL: Fraction(1),
    COMPLEX_RATIONAL: GaussianRational(1),
    FLOAT: 1.0,
    COMPLEX_FLOAT: 1 + 0j,
}


def conj_scalar(x):
    if isinstance(x, GaussianRational):
        return x.conjugate()
    if isinstance(x, complex):
        return x.conjugate()
    return x


def to_float_scalar(x):
    """Explicit exact-to-float conversion (the only sanctioned mixing path).
    An exact value beyond binary64's range raises DomainError."""
    try:
        if isinstance(x, GaussianRational):
            return complex(float(x.re), float(x.im))
        if isinstance(x, Rational):
            return float(x)
    except OverflowError:
        raise DomainError("an exact value is beyond binary64's range, "
                          "so float mode cannot hold it") from None
    if isinstance(x, (float, complex)):
        return x
    raise TypeError("not a supported scalar: %r" % (x,))


def exact_real(x) -> Fraction:
    """Return x as a Fraction, insisting that any imaginary part is exactly 0."""
    if isinstance(x, GaussianRational):
        if x.im != 0:
            raise ArithmeticError(
                "expected a real value, got imaginary part %s" % (x.im,)
            )
        return x.re
    if isinstance(x, Rational):
        return Fraction(x)
    raise TypeError("exact_real needs an exact scalar, got %r" % (x,))


# ---------------------------------------------------------------------------
# integer scaling (the exact kernels' integer lane)
# ---------------------------------------------------------------------------

def clear_denominators(rows) -> tuple:
    """Scale rows of exact scalars to integers by one common denominator.

    Returns (L, real, imag): L is the least common multiple of every
    denominator (both parts of a GaussianRational), real[i][j] is the
    integer L * Re(x) and imag[i][j] the integer L * Im(x). imag is None
    when no entry is a GaussianRational. Rows may differ in length;
    from_scaled undoes the scaling.
    """
    if any(isinstance(x, GaussianRational) for row in rows for x in row):
        real = [[x.re if isinstance(x, GaussianRational) else x for x in row]
                for row in rows]
        imag = [[x.im if isinstance(x, GaussianRational) else 0 for x in row]
                for row in rows]
        parts = (real, imag)
    else:
        real, imag = rows, None
        parts = (real,)
    L = math.lcm(*{x.denominator for part in parts
                   for row in part for x in row})

    def scale(part):
        return [[x.numerator * (L // x.denominator) for x in row]
                for row in part]

    return L, scale(real), None if imag is None else scale(imag)


def from_scaled(den: int, real: int, imag: int = None):
    """The exact scalar (real + i*imag) / den: a Fraction when imag is None,
    a GaussianRational otherwise (also when imag is 0)."""
    if imag is None:
        return Fraction(real, den)
    return GaussianRational(Fraction(real, den), Fraction(imag, den))


# ---------------------------------------------------------------------------
# text round-trip
# ---------------------------------------------------------------------------

# matched with fullmatch: a "$" anchor would let a trailing newline through;
# [0-9], not \d, which would take any Unicode digit
_RAT_RE = re.compile(r"(?P<num>[+-]?[0-9]+)(?:/(?P<den>[1-9][0-9]*))?")
_CRAT_RE = re.compile(
    r"(?P<re>[+-]?[0-9]+)(?:/(?P<re_den>[1-9][0-9]*))?"
    r"(?P<sign>[+-])(?P<im>[0-9]+)(?:/(?P<im_den>[1-9][0-9]*))? ?i"
)
_CRAT_IM_ONLY_RE = re.compile(
    r"(?P<im>[+-]?[0-9]+)(?:/(?P<im_den>[1-9][0-9]*))? ?i")


def _ints(num: str, den) -> tuple:
    return int(num), 1 if den is None else int(den)


def rational_parts(text: str) -> tuple:
    """The integers (p, q) of a rational token p or p/q, as written: q > 0,
    not reduced, 1 when left out."""
    m = _RAT_RE.fullmatch(text)
    if not m:
        raise ScalarFormatError("bad rational %r" % (text,))
    return _ints(*m.groups())


def complex_rational_parts(text: str) -> tuple:
    """The integers ((a, b), (c, d)) of a complex-rational token, its value
    a/b + (c/d)i, each pair as rational_parts gives it; a part left out is
    (0, 1)."""
    m = _CRAT_RE.fullmatch(text)
    if m:
        num, re_den, sign, im, im_den = m.groups()
        return _ints(num, re_den), _ints(sign + im, im_den)
    m = _CRAT_IM_ONLY_RE.fullmatch(text)
    if m:
        return (0, 1), _ints(*m.groups())
    m = _RAT_RE.fullmatch(text)
    if m:
        return _ints(*m.groups()), (0, 1)
    raise ScalarFormatError("bad complex rational %r" % (text,))


def _parse_rational(text: str) -> Fraction:
    return Fraction(*rational_parts(text))


def _parse_complex_rational(text: str) -> GaussianRational:
    re_parts, im_parts = complex_rational_parts(text)
    return GaussianRational(Fraction(*re_parts), Fraction(*im_parts))


def _parse_float(text: str) -> float:
    # float() would take surrounding whitespace and non-ASCII digits
    if not text.isascii() or text.strip() != text:
        raise ScalarFormatError("bad float %r" % (text,))
    try:
        value = float(text)
    except ValueError:
        raise ScalarFormatError("bad float %r" % (text,)) from None
    if not math.isfinite(value):
        raise ScalarFormatError("non-finite float %r" % (text,))
    return value


def parse_scalar(text: str, kind: str):
    """Parse one whitespace-free token as a scalar of the given kind."""
    if kind == RATIONAL:
        return _parse_rational(text)
    if kind == COMPLEX_RATIONAL:
        return _parse_complex_rational(text)
    if kind == FLOAT:
        return _parse_float(text)
    raise ScalarFormatError("unknown scalar kind %r" % (kind,))


def format_scalar(x) -> str:
    """Canonical text for a scalar; parse_scalar round-trips it bit-exactly."""
    if isinstance(x, GaussianRational):
        if x.im < 0:
            return "%s-%si" % (x.re, -x.im)
        return "%s+%si" % (x.re, x.im)
    if isinstance(x, Rational):
        return str(Fraction(x))
    if isinstance(x, float):
        return repr(x)
    if isinstance(x, complex):
        return repr(x)
    raise TypeError("not a supported scalar: %r" % (x,))


# ---------------------------------------------------------------------------
# generalized binomial
# ---------------------------------------------------------------------------

def gen_binomial(alpha, k: int):
    """binom(alpha, k) = alpha (alpha-1) ... (alpha-k+1) / k! for any scalar alpha.

    k must be a nonnegative integer; k = 0 gives 1. The result is exact
    whenever alpha is exact, e.g. binom(1/2, 2) = -1/8 and binom(3, 4) = 0.
    """
    if not isinstance(k, int) or isinstance(k, bool):
        raise TypeError("k must be an int, got %r" % (k,))
    if k < 0:
        raise ValueError("k must be nonnegative, got %d" % k)
    alpha = as_scalar(alpha)
    kind = scalar_kind(alpha)
    result = ONE_OF[kind]
    for i in range(k):
        result = result * (alpha - i)
    fact = math.factorial(k)
    if kind_is_exact(kind):
        return result / Fraction(fact)
    return result / float(fact)
