"""Square matrices over the four scalar kinds, plus instance generation and I/O.

Index sets are plain Python ints used as bitmasks over row/column indices
0..n-1; helpers below convert between masks and index tuples. A block split
of [n] at position m is the pair of masks (low m bits, the rest).

Matrix text format (whitespace-delimited, '#' starts a comment line):

    n 3
    field rational
    flags real-symmetric hermitian
    1 1/2 0
    1/2 2 3
    0 3 5/4

`field` is one of rational, complex-rational, float. `flags` is a possibly
empty subset of {real-symmetric, hermitian}; claimed flags are verified
entrywise on read. Serialization is canonical, so equal matrices produce
byte-identical files and the format round-trips exactly.
"""

from __future__ import annotations

import io
import math
import operator
import random
from fractions import Fraction
try:  # CPython's SHA-256; hashlib would map OpenSSL's libcrypto, ~3.5 MB
    from _sha256 import sha256
except ImportError:  # CPython 3.12 on names it _sha2; hashlib serves too
    from hashlib import sha256

from .errors import (
    DomainError,
    MatrixFormatError,
    MixedModeError,
    ScalarFormatError,
)
from .scalars import (
    COMPLEX_FLOAT,
    COMPLEX_RATIONAL,
    FLOAT,
    ONE_OF,
    RATIONAL,
    ZERO_OF,
    GaussianRational,
    as_scalar,
    clear_denominators,
    complex_rational_parts,
    conj_scalar,
    format_scalar,
    kind_is_complex,
    kind_is_exact,
    parse_scalar,
    rational_parts,
    scalar_kind,
    to_float_scalar,
)

# ---------------------------------------------------------------------------
# bitmask index sets
# ---------------------------------------------------------------------------

def full_mask(n: int) -> int:
    return (1 << n) - 1


def indices_from_mask(mask: int) -> tuple:
    out = []
    i = 0
    while mask >> i:
        if (mask >> i) & 1:
            out.append(i)
        i += 1
    return tuple(out)


def split_masks(n: int, m: int) -> tuple:
    """Masks of the leading block {0..m-1} and trailing block {m..n-1}."""
    if not 1 <= m <= n - 1:
        raise DomainError("split position m=%d outside 1..%d" % (m, n - 1))
    low = full_mask(m)
    return low, full_mask(n) ^ low


# ---------------------------------------------------------------------------
# Matrix
# ---------------------------------------------------------------------------

class Matrix:
    """Immutable square matrix with a uniform scalar kind.

    The real_symmetric and hermitian booleans are claims carried with the
    matrix (set by constructors that guarantee them, or by file flags, which
    are verified on read). Operations that mathematically require symmetry
    check entries directly rather than trusting the claim.

    An exact matrix also has a cleared form, the (L, re, im) of
    scalars.clear_denominators(rows) that the integer kernels run on. The
    Gram generators and loads_matrix hand it over at construction, having
    built the matrix in those integers; any other exact matrix computes it
    on first use of `cleared`.

    It also keeps in `_tables` what its checks read again, none of it
    keyed by alpha, through kernels.kept: the cycle sums and polynomials
    and the shape averages (inequalities keeps the per and det Lieb and
    Fischer compare above n = 10 there itself); keeping one changes no
    value.
    """

    __slots__ = ("n", "rows", "kind", "real_symmetric", "hermitian",
                 "_cleared", "_tables")

    def __init__(self, rows, kind=None, real_symmetric=False, hermitian=False):
        rows = tuple(tuple(as_scalar(x) for x in row) for row in rows)
        n = len(rows)
        for row in rows:
            if len(row) != n:
                raise DomainError(
                    "matrix must be square, got row of length %d in a %d-row matrix"
                    % (len(row), n)
                )
        kinds = {scalar_kind(x) for row in rows for x in row}
        if kind is not None:
            kinds.add(kind)
        elif not kinds:
            kinds.add(RATIONAL)
        exact = kinds & {RATIONAL, COMPLEX_RATIONAL}
        inexact = kinds - exact
        if exact and inexact:
            raise MixedModeError(
                "matrix mixes exact and float entries: %s"
                % ", ".join(sorted(kinds))
            )
        # within one lane, promote to the complex kind when both appear
        if exact:
            kind = COMPLEX_RATIONAL if COMPLEX_RATIONAL in kinds else RATIONAL
            if kind == COMPLEX_RATIONAL:
                rows = tuple(
                    tuple(
                        x if isinstance(x, GaussianRational)
                        else GaussianRational(x)
                        for x in row
                    )
                    for row in rows
                )
        else:
            kind = COMPLEX_FLOAT if COMPLEX_FLOAT in kinds else FLOAT
            if kind == COMPLEX_FLOAT:
                rows = tuple(tuple(complex(x) for x in row) for row in rows)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "real_symmetric", bool(real_symmetric))
        object.__setattr__(self, "hermitian", bool(hermitian or
                                                   real_symmetric))
        object.__setattr__(self, "_cleared", None)
        object.__setattr__(self, "_tables", {})
        self.validate_flags()

    @classmethod
    def _from_cleared(cls, kind: str, cleared: tuple, real_symmetric=False,
                      hermitian=False) -> "Matrix":
        """Trusted constructor of the exact matrix whose cleared form is
        cleared = (L, re, im): entry (i, j) is (re[i][j] + i im[i][j]) / L.

        The caller guarantees that cleared is what clear_denominators would
        return for the entries (L least, im None exactly when kind is
        rational or n is 0). Claimed flags are checked on the integers:
        re symmetric, im antisymmetric.
        """
        L, re, im = cleared
        # one Fraction per distinct integer: a Gram matrix repeats most
        parts = (re,) if im is None else (re, im)
        frac = {x: Fraction(x, L)
                for x in {x for part in parts for row in part for x in row}}
        if im is None:
            rows = tuple(tuple(frac[x] for x in row) for row in re)
        else:
            rows = tuple(
                tuple(GaussianRational(frac[x], frac[y])
                      for x, y in zip(row_re, row_im))
                for row_re, row_im in zip(re, im)
            )
        if real_symmetric and (kind_is_complex(kind) or not _mirrored(re, 1)):
            raise MatrixFormatError("real-symmetric flag does not hold")
        if hermitian and not (_mirrored(re, 1)
                              and (im is None or _mirrored(im, -1))):
            raise MatrixFormatError("hermitian flag does not hold")
        self = object.__new__(cls)
        object.__setattr__(self, "n", len(rows))
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "real_symmetric", bool(real_symmetric))
        object.__setattr__(self, "hermitian", bool(hermitian or
                                                   real_symmetric))
        object.__setattr__(self, "_cleared", cleared)
        object.__setattr__(self, "_tables", {})
        return self

    @property
    def cleared(self) -> tuple:
        """(L, re, im) = clear_denominators(rows): the integer form of an
        exact matrix, computed once and kept. Float matrices have none."""
        if self._cleared is None:
            if not kind_is_exact(self.kind):
                raise DomainError("a %s matrix has no cleared form"
                                  % self.kind)
            object.__setattr__(self, "_cleared",
                               clear_denominators(self.rows))
        return self._cleared

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def identity(cls, n: int, kind: str = RATIONAL) -> "Matrix":
        one, zero = ONE_OF[kind], ZERO_OF[kind]
        rows = [
            [one if i == j else zero for j in range(n)] for i in range(n)
        ]
        return cls(rows, kind=kind, real_symmetric=not kind_is_complex(kind),
                   hermitian=True)

    def entry(self, i: int, j: int):
        return self.rows[i][j]

    def diagonal(self) -> tuple:
        return tuple(self.rows[i][i] for i in range(self.n))

    def __eq__(self, other):
        # entry equality decides; the flags are derived claims, not identity
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.n == other.n and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return "Matrix(n=%d, kind=%s)" % (self.n, self.kind)

    def is_symmetric_entrywise(self) -> bool:
        r = self.rows
        return all(
            r[i][j] == r[j][i] for i in range(self.n) for j in range(i + 1, self.n)
        )

    def is_hermitian_entrywise(self) -> bool:
        r = self.rows
        if not kind_is_complex(self.kind):
            return self.is_symmetric_entrywise()
        for i in range(self.n):
            if conj_scalar(r[i][i]) != r[i][i]:
                return False
            for j in range(i + 1, self.n):
                if r[j][i] != conj_scalar(r[i][j]):
                    return False
        return True

    def validate_flags(self):
        """Raise if a claimed flag does not hold entrywise."""
        if self.real_symmetric:
            if kind_is_complex(self.kind) or not self.is_symmetric_entrywise():
                raise MatrixFormatError("real-symmetric flag does not hold")
        # a real-symmetric claim that holds implies the Hermitian one
        elif self.hermitian and not self.is_hermitian_entrywise():
            raise MatrixFormatError("hermitian flag does not hold")

    def to_float(self) -> "Matrix":
        """Explicit conversion of an exact matrix to the float field."""
        if self.kind in (FLOAT, COMPLEX_FLOAT):
            return self
        kind = COMPLEX_FLOAT if kind_is_complex(self.kind) else FLOAT
        rows = [[to_float_scalar(x) for x in row] for row in self.rows]
        return Matrix(rows, kind=kind, real_symmetric=self.real_symmetric,
                      hermitian=self.hermitian)


def _mirrored(part, sign: int) -> bool:
    """part[j][i] == sign * part[i][j] for every i <= j."""
    n = len(part)
    return all(part[j][i] == sign * part[i][j]
               for i in range(n) for j in range(i, n))


def submatrix(A: Matrix, mask: int) -> Matrix:
    """Principal submatrix A[I] for the index set given as a bitmask."""
    if mask < 0 or mask >> A.n:
        raise DomainError("index mask %#x out of range for n=%d" % (mask, A.n))
    idx = indices_from_mask(mask)
    rows = [[A.rows[i][j] for j in idx] for i in idx]
    return Matrix(rows, kind=A.kind, real_symmetric=A.real_symmetric,
                  hermitian=A.hermitian)


def direct_sum(A: Matrix, B: Matrix) -> Matrix:
    if A.kind != B.kind:
        raise MixedModeError(
            "direct_sum needs matching kinds, got %s and %s" % (A.kind, B.kind)
        )
    zero = ZERO_OF[A.kind]
    n, m = A.n, B.n
    rows = []
    for i in range(n):
        rows.append(list(A.rows[i]) + [zero] * m)
    for i in range(m):
        rows.append([zero] * n + list(B.rows[i]))
    return Matrix(rows, kind=A.kind,
                  real_symmetric=A.real_symmetric and B.real_symmetric,
                  hermitian=A.hermitian and B.hermitian)


def doubled(A: Matrix) -> Matrix:
    """The 2n x 2n block matrix [[A, A], [A, A]] of a real symmetric A."""
    return Matrix(doubled_rows(A, A.rows), kind=A.kind, real_symmetric=True,
                  hermitian=True)


def doubled_rows(A: Matrix, rows) -> list:
    """The rows of [[R, R], [R, R]], for rows R of a real symmetric A: its
    entries, or the integers of its cleared form."""
    if kind_is_complex(A.kind):
        raise DomainError("doubled needs a real matrix, kind is %s" % A.kind)
    if not A.is_symmetric_entrywise():
        raise DomainError("doubled needs a symmetric matrix")
    return [list(row) + list(row) for row in rows] * 2


# ---------------------------------------------------------------------------
# random instances (all exact; deterministic in their arguments)
# ---------------------------------------------------------------------------

REAL_SYMMETRIC = "real-symmetric"
HERMITIAN = "hermitian"


def _rng(label: str, *parts) -> random.Random:
    # String seeding is stable across runs and platforms, and the label
    # keeps the streams of different generators disjoint.
    return random.Random(":".join([label] + [str(p) for p in parts]))


def _check_size(n: int, scale: int) -> None:
    if n < 0:
        raise DomainError("n must be >= 0, got %d" % n)
    if scale < 1:
        raise DomainError("scale must be >= 1")


def _rand_fraction(rng: random.Random, scale: int) -> Fraction:
    return Fraction(rng.randint(-scale, scale), rng.randint(1, scale))


def random_matrix(n: int, kind: str = RATIONAL, scale: int = 4,
                  seed: int = 0) -> Matrix:
    """Random square matrix with entries p/q, |p| <= scale, 1 <= q <= scale."""
    _check_size(n, scale)
    rng = _rng("mat", kind, n, scale, seed)
    if kind == RATIONAL:
        rows = [[_rand_fraction(rng, scale) for _ in range(n)] for _ in range(n)]
    elif kind == COMPLEX_RATIONAL:
        rows = [
            [GaussianRational(_rand_fraction(rng, scale),
                              _rand_fraction(rng, scale))
             for _ in range(n)]
            for _ in range(n)
        ]
    else:
        raise DomainError("random_matrix kind must be exact, got %r" % (kind,))
    return Matrix(rows, kind=kind)


def random_symmetric_matrix(n: int, scale: int = 4, seed: int = 0) -> Matrix:
    """Random real symmetric rational matrix (not necessarily PSD)."""
    _check_size(n, scale)
    rng = _rng("sym", n, scale, seed)
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            x = _rand_fraction(rng, scale)
            rows[i][j] = x
            rows[j][i] = x
    return Matrix(rows, kind=RATIONAL, real_symmetric=True, hermitian=True)


def _rand_row(rng: random.Random, d: int, scale: int) -> tuple:
    """d draws of _rand_fraction as integers (D, U): draw k is U[k] / D."""
    draws = [(rng.randint(-scale, scale), rng.randint(1, scale))
             for _ in range(d)]
    D = math.lcm(*[q for _, q in draws])
    return D, [p * (D // q) for p, q in draws]


def _reduced(den: int, xs: list) -> tuple:
    """(den, xs) divided by the gcd of den and every entry of xs."""
    g = math.gcd(den, *xs)
    if g == 1:
        return den, xs
    return den // g, [x // g for x in xs]


def _lowest_terms(den: int, re: list, im: list) -> tuple:
    """(den, re, im) divided by g = gcd(den, every entry of re and im),
    im None or not: then den is the least common denominator of the
    entries (re + i im) / den, as clear_denominators computes it."""
    g = math.gcd(den, *[x for part in (re, im or ()) for row in part
                        for x in row])
    if g == 1:
        return den, re, im
    return (den // g, [[x // g for x in row] for row in re],
            None if im is None else [[x // g for x in row] for row in im])


def _gram(b_rows, complex_entries: bool) -> Matrix:
    """G = B B* in integers, handed to Matrix with its cleared form.

    b_rows are the rows of B as pairs (den, X) of integers, row i of B
    being X / den; a complex row interleaves real and imaginary parts,
    (Re b_i1, Im b_i1, Re b_i2, ...). With L the lcm of the dens, every
    entry of G is an integer dot product of the rows of L*B over L^2;
    dividing out g = gcd(L^2, all of them) leaves exactly the form
    clear_denominators would compute from G's entries.
    """
    n = len(b_rows)
    L = math.lcm(*[den for den, _ in b_rows])
    X = [xs if den == L else [L // den * x for x in xs] for den, xs in b_rows]
    re = [[0] * n for _ in range(n)]
    im = None
    if complex_entries and n:
        im = [[0] * n for _ in range(n)]
        # (a + bi)(c - di) = (ac + bd) + (bc - ad)i: over interleaved
        # parts, the real part is the dot product with (c, d) and the
        # imaginary part the dot product with (-d, c)
        turned = [[z for k in range(0, 2 * n, 2) for z in (-x[k + 1], x[k])]
                  for x in X]
    for i in range(n):
        xi = X[i]
        for j in range(i, n):
            re[i][j] = re[j][i] = sum(map(operator.mul, xi, X[j]))
            if im is not None:
                cross = sum(map(operator.mul, xi, turned[j]))
                im[i][j] = cross
                im[j][i] = -cross
    den, re, im = _lowest_terms(L * L, re, im)
    if complex_entries:
        return Matrix._from_cleared(COMPLEX_RATIONAL, (den, re, im),
                                    hermitian=True)
    return Matrix._from_cleared(RATIONAL, (den, re, None),
                                real_symmetric=True)


def random_psd(n: int, kind: str = REAL_SYMMETRIC, scale: int = 4,
               seed: int = 0) -> Matrix:
    """Random Gram matrix G = B B*, exactly PSD by construction.

    kind is "real-symmetric" (rational G) or "hermitian" (complex-rational G).
    B has entries p/q, |p| <= scale, 1 <= q <= scale (both parts, for
    hermitian), drawn as integers; G is built in integers and carries its
    cleared form. Deterministic in (n, kind, scale, seed).
    """
    if kind not in (REAL_SYMMETRIC, HERMITIAN):
        raise DomainError("random_psd kind must be %r or %r" %
                          (REAL_SYMMETRIC, HERMITIAN))
    _check_size(n, scale)
    rng = _rng("psd", kind, n, scale, seed)
    width = n if kind == REAL_SYMMETRIC else 2 * n
    b = [_rand_row(rng, width, scale) for _ in range(n)]
    return _gram(b, complex_entries=kind == HERMITIAN)


def _rational_unit_vector(rng: random.Random, d: int, scale: int) -> tuple:
    """An exactly rational point X / den on the unit sphere of R^d, as the
    integers (den, X) in lowest terms.

    Inverse stereographic projection: for u in Q^(d-1),
    x = (2u, 1 - |u|^2) / (1 + |u|^2) has |x| = 1 exactly; with u = U / D
    in integers, x = (2 U D, D^2 - |U|^2) / (D^2 + |U|^2).
    """
    D, U = _rand_row(rng, d - 1, scale)
    norm = sum(x * x for x in U)
    return _reduced(D * D + norm, [2 * D * x for x in U] + [D * D - norm])


def random_unit_diag_psd(n: int, kind: str = REAL_SYMMETRIC, scale: int = 4,
                         seed: int = 0) -> Matrix:
    """Random exactly PSD matrix with exact unit diagonal.

    Rows of the Gram factor are exactly rational unit vectors (in R^n, or
    in R^2n read as C^n for hermitian), so every diagonal entry of
    G = B B* is exactly 1. G is built in integers and carries its cleared
    form.
    """
    if kind not in (REAL_SYMMETRIC, HERMITIAN):
        raise DomainError("random_unit_diag_psd kind must be %r or %r" %
                          (REAL_SYMMETRIC, HERMITIAN))
    _check_size(n, scale)
    rng = _rng("unitpsd", kind, n, scale, seed)
    d = n if kind == REAL_SYMMETRIC else 2 * n
    b = [_rational_unit_vector(rng, d, scale) for _ in range(n)]
    return _gram(b, complex_entries=kind == HERMITIAN)


# ---------------------------------------------------------------------------
# text I/O
# ---------------------------------------------------------------------------

_FLAG_NAMES = {"real-symmetric": "real_symmetric", "hermitian": "hermitian"}
_FILE_FIELDS = (RATIONAL, COMPLEX_RATIONAL, FLOAT)


def dumps_matrix(A: Matrix) -> str:
    if A.kind not in _FILE_FIELDS:
        raise MatrixFormatError(
            "field %s has no text form; convert first" % A.kind
        )
    out = io.StringIO()
    out.write("n %d\n" % A.n)
    out.write("field %s\n" % A.kind)
    flags = []
    if A.real_symmetric:
        flags.append("real-symmetric")
    if A.hermitian:
        flags.append("hermitian")
    out.write(("flags " + " ".join(flags)).rstrip() + "\n")
    for row in A.rows:
        out.write(" ".join(format_scalar(x) for x in row) + "\n")
    return out.getvalue()


# what a token of each field parses into: an exact one into integer parts
_TOKEN_PARSERS = {
    RATIONAL: rational_parts,
    COMPLEX_RATIONAL: complex_rational_parts,
    FLOAT: lambda text: parse_scalar(text, FLOAT),
}


def loads_matrix(text: str) -> Matrix:
    """The matrix a text in the file format holds. An exact field parses
    straight into the integers of its cleared form, which the matrix is
    built from and keeps; a float field into its entries."""
    if not text.isascii():
        at = next(i for i, ch in enumerate(text) if not ch.isascii())
        raise MatrixFormatError("non-ASCII text on line %d"
                                % (text.count("\n", 0, at) + 1))
    lines = [
        ln.strip() for ln in text.splitlines()
        if ln.strip() and not ln.lstrip().startswith("#")
    ]
    if not lines:
        raise MatrixFormatError("empty matrix text")

    def expect(idx, key):
        if idx >= len(lines):
            raise MatrixFormatError("missing %r line" % key)
        parts = lines[idx].split()
        if parts[0] != key:
            raise MatrixFormatError(
                "expected %r line, got %r" % (key, lines[idx])
            )
        return parts[1:]

    n_parts = expect(0, "n")
    if len(n_parts) != 1 or not n_parts[0].isdigit():
        raise MatrixFormatError("bad n line")
    n = int(n_parts[0])
    field_parts = expect(1, "field")
    if len(field_parts) != 1 or field_parts[0] not in _FILE_FIELDS:
        raise MatrixFormatError("bad field line %r" % (lines[1],))
    field = field_parts[0]
    idx = 2
    flag_kwargs = {"real_symmetric": False, "hermitian": False}
    if idx < len(lines) and lines[idx].split()[0] == "flags":
        for name in lines[idx].split()[1:]:
            if name not in _FLAG_NAMES:
                raise MatrixFormatError("unknown flag %r" % (name,))
            flag_kwargs[_FLAG_NAMES[name]] = True
        idx += 1
    parse = _TOKEN_PARSERS[field]
    rows = []
    for i in range(n):
        if idx + i >= len(lines):
            raise MatrixFormatError("missing row %d of %d" % (i + 1, n))
        tokens = lines[idx + i].split()
        if len(tokens) != n:
            raise MatrixFormatError(
                "row %d has %d entries, expected %d" % (i + 1, len(tokens), n)
            )
        try:
            rows.append([parse(t) for t in tokens])
        except ScalarFormatError as exc:
            raise MatrixFormatError("row %d: %s" % (i + 1, exc)) from exc
    if idx + n != len(lines):
        raise MatrixFormatError("trailing content after %d rows" % n)
    if field == FLOAT:
        return Matrix(rows, kind=field, **flag_kwargs)
    if field == RATIONAL:
        parts = (rows,)
    else:
        parts = ([[x for x, _ in row] for row in rows],
                 [[y for _, y in row] for row in rows])
    L = math.lcm(*{q for part in parts for row in part for _, q in row})
    re, *im = [[[p * (L // q) for p, q in row] for row in part]
               for part in parts]
    # im is None for a rational field and, as clear_denominators has it,
    # for n = 0
    cleared = _lowest_terms(L, re, im[0] if im and n else None)
    return Matrix._from_cleared(field, cleared, **flag_kwargs)


def write_matrix(A: Matrix, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(dumps_matrix(A))


def read_matrix(path) -> Matrix:
    # latin-1 maps each byte to one character, so a non-ASCII byte reaches
    # loads_matrix, which names its line, instead of failing a decoder
    with open(path, "rb") as fh:
        return loads_matrix(fh.read().decode("latin-1"))


def matrix_digest(A: Matrix) -> str:
    """sha256 of the canonical serialization, for tamper-evident findings."""
    return text_digest(dumps_matrix(A))


def text_digest(text: str) -> str:
    """sha256 of a serialization dumps_matrix made: matrix_digest from it."""
    return sha256(text.encode("ascii")).hexdigest()
