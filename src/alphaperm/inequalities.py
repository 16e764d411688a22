"""Positivity and block inequalities for PSD matrices, plus a counterexample hunter.

Every check produces ComparisonResult records with exact slacks (float mode
gets a relative tolerance band instead). The hunter samples random exactly-PSD
instances, evaluates a target family, and never reports a violation unless
per_alpha_naive, an algorithm sharing no code with the fast kernels,
reproduces it; a disagreement between the two kernels raises OracleMismatch
instead of producing a "discovery".

Checked families on a PSD A with unit split A' = A[{0..m-1}], A'' = A[rest]:

    lieb         per(A) >= per(A') per(A'')
    fischer      det(A) <= det(A') det(A'')
    haf-per      haf(doubled(A)) >= per(A)           (A real)
    lieb-alpha   per_a(A) >= per_a(A') per_a(A'')
    neg-nonneg   (-1)^n per_{-a}(A) >= 0
    neg-block    (-1)^n per_{-a}(A) <= ((-1)^m per_{-a}(A'))
                                       ((-1)^(n-m) per_{-a}(A''))
    half-scaled  per_{a/2}(A) >= 2^-n per_a(A)       (A real)
    marcus-upper per_a(A) >= a^n prod a_ii
    marcus-lower a^n prod a_ii >= (-1)^n per_{-a}(A)
    marcus-half  per_{a/2}(A) >= (a/2)^n prod a_ii   (A real)

The alpha-indexed families are proved for alpha a nonnegative integer or
alpha >= n-1 (exactly when binom(alpha, k) >= 0 for all k <= n, see
binomials_nonnegative). For 1 <= alpha < n-1 lieb-alpha, half-scaled,
marcus-upper and marcus-half are conjectured. The chain marcus-upper,
marcus-lower at alpha >= 1 is proven only for n <= 5, the paper's 5 x 5
check (check_marcus's hypothesis flag); its lower link fails at n = 6
and n = 8 on the all-ones matrix J_n, which is PSD of rank 1 (J_6 at
alpha = 5/4: slack -425/1024). neg-nonneg and neg-block are not
conjectured either, as both fail at some such alpha on J_n:
(-1)^n per_{-alpha}(J_n) = alpha (alpha-1) ... (alpha-n+1) is negative
when an odd number of its factors are (neg-nonneg at n = 3, alpha = 3/2;
neg-block at n = 4, alpha = 13/10). Outside the proven regime the hunter
records neg-nonneg as sign data, not as a gate.

Shape averages: for a partition shape of n and sign s in {+1, -1},

    p_s(shape) = average over set partitions with that shape of
                 prod_blocks per_s(A[block])

where per_{+1} is the permanent and per_{-1}(B) = (-1)^{dim B} det(B).
check_majorization_step compares p on shapes related by merging two parts.

Every alpha-family (check_lieb_type, check_marcus, check_neg_positivity)
reads one source in both lanes, the cycle polynomials A keeps
(partitions.cycle_polynomials): per_alpha(A[T]) = sum over k of alpha^k
c_k(A[T]), kept as L^|T| c_k(A[T]), integers for an exact A and floats
with L = 1 for a float A. At alpha = p/q (p = alpha, q = 1.0 for a float
A), their at(p, q, T), sum over k of L^|T| c_k p^k q^(|T|-k), is
(q L)^|T| per_alpha(A[T]), and at(-p, q, T) is (q L)^|T|
per_{-alpha}(A[T]). Over den = (q L)^n, at(p, -q) is (-1)^n
per_{-alpha}(A), and at(p, 0) = p^n L^n c_n is alpha^n prod a_ii; over
2^n den, at(p, 2q) is per_{alpha/2}(A). Lieb and Fischer are lieb-alpha
and neg-block at alpha = 1, as per_{-1}(B) = (-1)^{dim B} det(B):
check_lieb and check_fischer read the polynomials at (1, 1) and (-1, 1)
up to n = 10, and above it run Glynn and Bareiss on the blocks. A family
answers every split in one call, its results carrying their splits, so
it reads the whole matrix once. shape_averages sums the block products
of the polynomials at (+-1, 1) over the partitions of every shape in one
partition DP (partitions.shape_partition_sums). No table's lists are
read here. An integer entry of T carries base^|T|, so the whole set and
a split's block product both carry base^n. Each comparison of a family
is _result on two such values over one denominator. On an exact A that
is _exact_result on ring elements (ints, or Gaussian integers that must
be real): the verdict is the sign of one integer difference,
and lhs, rhs and slack are Fractions over the denominator. On a float A
it is compare on their real parts over the denominator, in compare's
relative band; compare hands exact inputs to _exact_result over 1. The
oracle _naive_slack evaluates each block's cycle polynomial, from
per_alpha_naive's walk over the block's permutations. The hunter and the
inequality suite keep one dict of polynomials per trial, so each block
of an instance is walked once, for every alpha and every violation.

Every Finding is made by make_finding, where it is observed: a hunt trial
returns its violation and sign records with its least gated slack, and
hunt() only merges them. The trials' least slacks, sorted, give the
argmin (the printed min-slack line, the first min-slack record) and the
--keep-smallest records.
"""

from __future__ import annotations

import json
import math
import os
import random
from fractions import Fraction
from numbers import Rational
from typing import NamedTuple

from .errors import AlphaPermError, DomainError, ScalarFormatError
from .kernels import (
    _polynomial_at,
    _naive_cycle_polynomial,
    determinant,
    diagonal_product,
    hafnian,
    kept,
    permanent,
    require_alpha_kind,
)
from .matrices import (
    HERMITIAN,
    REAL_SYMMETRIC,
    Matrix,
    doubled,
    dumps_matrix,
    full_mask,
    loads_matrix,
    random_psd,
    random_unit_diag_psd,
    split_masks,
    submatrix,
    text_digest,
)
from .partitions import (
    cycle_polynomials,
    shape_partition_count,
    shape_partition_sums,
)
from .scalars import (
    GaussianRational,
    as_scalar,
    exact_real,
    format_scalar,
    kind_is_exact,
    parse_scalar,
)


class OracleMismatch(AlphaPermError):
    """The fast kernels and per_alpha_naive disagreed; a kernel is buggy."""


HOLDS = "holds"
EQUALITY = "equality"
VIOLATED = "violated"


class ComparisonResult(NamedTuple):
    name: str
    lhs: object
    rhs: object
    direction: str          # ">=" or "<="
    slack: object           # lhs-rhs or rhs-lhs so that >= 0 means holds
    verdict: str            # holds / equality / violated
    mode: str               # "exact" or "float"
    tol: float = 0.0
    hypothesis: bool = None  # alpha inside the proven regime, when relevant
    split: int = None        # the block split m; None for the whole matrix

    @property
    def ok(self) -> bool:
        return self.verdict != VIOLATED


def _real_value(x, tol):
    """Collapse a (should-be) real scalar to Fraction or float."""
    if type(x) is Fraction:
        return x
    if isinstance(x, GaussianRational):
        if x.im != 0:
            raise ArithmeticError("imaginary residue %s in a real quantity" % x.im)
        return x.re
    if isinstance(x, Rational):
        return Fraction(x)
    if isinstance(x, complex):
        bound = max(tol, 1e-9) * (1.0 + abs(x))
        if abs(x.imag) > bound:
            raise ArithmeticError("imaginary residue %r in a real quantity" % x)
        return x.real
    return float(x)


_EXACT = (Rational, GaussianRational)


def _exact_result(name, lhs, rhs, den: int, direction, hyp,
                  split=None) -> ComparisonResult:
    """compare(name, lhs / den, rhs / den, direction) for exact lhs and
    rhs over one positive den: ints or Fractions, or GaussianRationals
    with such parts, as a table or compare hands them over. The verdict is
    the sign of the difference, and lhs, rhs and slack are three Fractions
    over den. An imaginary part raises compare's ArithmeticError, lhs
    first."""
    if isinstance(lhs, GaussianRational) or isinstance(rhs, GaussianRational):
        lhs = _rational(lhs, den)
        rhs = _rational(rhs, den)
    diff = lhs - rhs if direction == ">=" else rhs - lhs
    verdict = EQUALITY if diff == 0 else (HOLDS if diff > 0 else VIOLATED)
    # from ints: Fraction(x, den) takes numbers.Rational's path on a Fraction
    return ComparisonResult(
        name, Fraction(lhs.numerator, lhs.denominator * den),
        Fraction(rhs.numerator, rhs.denominator * den), direction,
        Fraction(diff.numerator, diff.denominator * den), verdict, "exact",
        0.0, hyp, split)


def _rational(x, den: int):
    """The real part of an exact x, after raising compare's
    ArithmeticError on a nonzero imaginary part of x / den."""
    if not isinstance(x, GaussianRational):
        return x
    if x.im:
        raise ArithmeticError("imaginary residue %s in a real quantity"
                              % Fraction(x.im, den))
    return x.re


def compare(name, lhs, rhs, direction=">=", tol=0.0, hypothesis=None) -> ComparisonResult:
    """Build a ComparisonResult; exact inputs get exact verdicts."""
    if direction not in (">=", "<="):
        raise DomainError("direction must be >= or <=")
    if isinstance(lhs, _EXACT) and isinstance(rhs, _EXACT):
        return _exact_result(name, lhs, rhs, 1, direction, hypothesis)
    lhs = _real_value(lhs, tol)
    rhs = _real_value(rhs, tol)
    slack = lhs - rhs if direction == ">=" else rhs - lhs
    # values grow like n! max|a|^n, so the band scales with them
    band = tol * (1.0 + max(abs(lhs), abs(rhs)))
    verdict = (
        EQUALITY if abs(slack) <= band
        else (HOLDS if slack > band else VIOLATED)
    )
    return ComparisonResult(name, lhs, rhs, direction, slack, verdict,
                            "float", tol, hypothesis)


def _result(A: Matrix, name, lhs, rhs, den, direction, hyp, tol,
            split=None) -> ComparisonResult:
    """The comparison of lhs / den against rhs / den, with lhs and rhs
    read from A's cycle polynomials: for an exact A,
    _exact_result on the integers; for a float A, compare in its band."""
    if kind_is_exact(A.kind):
        return _exact_result(name, lhs, rhs, den, direction, hyp, split)
    # real parts first: x / 1 can flip the sign of a complex x's real zero
    lhs, rhs = (_real_value(x, tol) / den for x in (lhs, rhs))
    return compare(name, lhs, rhs, direction, tol, hyp)._replace(split=split)


def binomials_nonnegative(alpha, n: int) -> bool:
    """True iff binom(alpha, k) >= 0 for every 0 <= k <= n.

    Holds exactly when alpha is a nonnegative integer or alpha >= n - 1,
    the hypothesis of the proven block inequalities.
    """
    alpha = as_scalar(alpha)
    if isinstance(alpha, GaussianRational):
        if alpha.im != 0:
            return False
        alpha = alpha.re
    if isinstance(alpha, Fraction):
        return (alpha.denominator == 1 and alpha >= 0) or alpha >= n - 1
    if isinstance(alpha, float):
        return (alpha >= 0 and alpha == math.floor(alpha)) or alpha >= n - 1
    raise DomainError("alpha must be real, got %r" % (alpha,))


def _real_alpha(alpha):
    alpha = as_scalar(alpha)
    if isinstance(alpha, GaussianRational):
        if alpha.im != 0:
            raise DomainError("inequalities need a real alpha")
        return alpha.re
    return alpha


# ---------------------------------------------------------------------------
# base inequalities (alpha-free)
# ---------------------------------------------------------------------------

# Above this n lieb and fischer run Glynn or Bareiss on A and both blocks
# at every split instead of reading A's cycle polynomials at alpha = 1.
# Both at every split of a fresh Hermitian instance, in ms (the
# polynomials / Glynn and Bareiss, on packed ints): random_psd n = 9:
# 5.1 / 7.1, n = 10: 14 / 12, n = 11: 41 / 19; unit-diagonal n = 9:
# 24 / 23, n = 10: 126 / 79, n = 11: 547 / 314 (BENCH_packed_bareiss.json).
# The kernels win from n = 10 on Hermitian A and from n = 9 on real A
# (BENCH_packed_gaussian.json); one cut serves both.
_SPLIT_POLYNOMIAL_MAX_N = 10


def _splits(n: int) -> list:
    """(m, low, high) for every split m = 1..n-1, with the masks of its
    blocks A' = A[low], A'' = A[high]."""
    return [(m, *split_masks(n, m)) for m in range(1, n)]


def _split_checks(name, A: Matrix, sign: int, direction, tol) -> list:
    """per (sign +1) or det (sign -1) of A against the product of those of
    its blocks A', A'' at every split: up to _SPLIT_POLYNOMIAL_MAX_N from
    A's cycle polynomials, above it by Glynn or Bareiss on the blocks,
    against A's own value, computed once."""
    n = A.n
    if n > _SPLIT_POLYNOMIAL_MAX_N:
        value = permanent if sign == 1 else determinant
        whole = value(A)
        return [compare(name, whole,
                        value(submatrix(A, low)) * value(submatrix(A, high)),
                        direction, tol)._replace(split=m)
                for m, low, high in _splits(n)]
    # lieb and fischer are lieb-alpha and neg-block at alpha = 1, as
    # det(B) = (-1)^|B| per_{-1}(B); read as check_lieb_type reads those
    p, q, den, at = _cycle_polynomial_at(A, 1 if kind_is_exact(A.kind)
                                         else 1.0)
    x = sign * p
    # the whole matrix's value, then at index m split m's block product
    sides = [at(x, q)] + [at(x, q, low) * at(x, q, high)
                          for _, low, high in _splits(n)]
    if sign == -1:
        sign_n = -1 if n % 2 else 1
        sides = [sign_n * v for v in sides]
    return [_result(A, name, sides[0], sides[m], den, direction, None, tol, m)
            for m in range(1, n)]


def check_lieb(A: Matrix, *, tol=0.0) -> list:
    """Lieb's inequality per(A) >= per(A') per(A'') at every split."""
    return _split_checks("lieb", A, 1, ">=", tol)


def check_fischer(A: Matrix, *, tol=0.0) -> list:
    """Fischer's inequality det(A) <= det(A') det(A'') at every split."""
    return _split_checks("fischer", A, -1, "<=", tol)


def check_haf_per(A: Matrix, tol=0.0) -> ComparisonResult:
    lhs = hafnian(doubled(A))
    rhs = permanent(A)
    return compare("haf-per", lhs, rhs, ">=", tol)


# ---------------------------------------------------------------------------
# alpha-indexed families
# ---------------------------------------------------------------------------

def _is_real_kind(A: Matrix) -> bool:
    return A.kind in ("rational", "float")


def check_lieb_type(A: Matrix, alpha, *, tol=0.0) -> list:
    """The Lieb-type families at alpha, in the hunter's record order:
    lieb-alpha(1), neg-nonneg, neg-block(1), half-scaled (it needs real
    entries), then lieb-alpha(m) and neg-block(m) for m = 2..n-1. Each
    reads A's kept cycle polynomials at alpha, -alpha or alpha/2."""
    alpha = _real_alpha(alpha)
    n = A.n
    hyp = binomials_nonnegative(alpha, n)
    p, q, den, at = _cycle_polynomial_at(A, alpha)
    # (-1)^m (-1)^(n-m) = (-1)^n signs the block product
    sign_n = -1 if n % 2 else 1
    per, neg = at(p, q), sign_n * at(-p, q)
    whole = [_neg_nonneg(A, p, q, den, at, hyp, tol)]
    if _is_real_kind(A):
        # over 2^n den: per_{a/2}(A) against 2^-n per_a(A)
        whole.append(_result(A, "half-scaled", at(p, 2 * q), per,
                             2 ** n * den, ">=", hyp, tol))
    out = []
    for m, low, high in _splits(n):
        out += [
            _result(A, "lieb-alpha", per, at(p, q, low) * at(p, q, high),
                    den, ">=", hyp, tol, m),
            _result(A, "neg-block", neg,
                    sign_n * (at(-p, q, low) * at(-p, q, high)), den, "<=",
                    hyp, tol, m),
        ]
    # the whole matrix's comparisons after lieb-alpha(1) and neg-block(1)
    out[1:1] = whole[:1]
    out[3:3] = whole[1:]
    return out


def _cycle_polynomial_at(A: Matrix, alpha) -> tuple:
    """(p, q, den, at) for A at alpha = p/q: at is the method of A's cycle
    polynomials (the module docstring says what each at(x, y, T) gives)
    and den = (q L)^n, L their base; a float A's have base 1, and give
    (alpha, 1.0, 1.0, at)."""
    alpha = require_alpha_kind(A, alpha)
    polynomials = cycle_polynomials(A)
    if not kind_is_exact(A.kind):
        return alpha, 1.0, 1.0, polynomials.at
    p, q = alpha.as_integer_ratio()
    return p, q, (q * polynomials.base) ** A.n, polynomials.at


def check_neg_positivity(A: Matrix, alpha, tol=0.0) -> ComparisonResult:
    """(-1)^n per_{-alpha}(A) >= 0 on the full matrix, no split, from A's
    cycle polynomial at (alpha, -1)."""
    alpha = _real_alpha(alpha)
    p, q, den, at = _cycle_polynomial_at(A, alpha)
    return _neg_nonneg(A, p, q, den, at, binomials_nonnegative(alpha, A.n),
                       tol)


def _neg_nonneg(A: Matrix, p, q, den, at, hyp, tol) -> ComparisonResult:
    """neg-nonneg, given p, q, den, at = _cycle_polynomial_at(A, alpha)."""
    return _result(A, "neg-nonneg", at(p, -q), 0, den, ">=", hyp, tol)


def check_marcus(A: Matrix, alpha, tol=0.0) -> list:
    """Diagonal chain per_a(A) >= a^n prod a_ii >= (-1)^n per_{-a}(A),
    plus the half-strength lower bound on real matrices.

    A's cycle polynomial is evaluated at a, -a and a/2, against
    p^n c_n = a^n prod a_ii over den (a = p/q): on an exact A each
    verdict is the sign of one integer difference, and lhs, rhs and slack
    are Fractions over (q L)^n, or (2 q L)^n for marcus-half; an
    imaginary part raises ArithmeticError in compare's order. A float A
    compares the same sums over den in compare's band.
    """
    alpha = _real_alpha(alpha)
    n = A.n
    hyp = binomials_nonnegative(alpha, n)
    # the chain is also proven for every alpha >= 1 when n <= 5
    hyp_chain = hyp or (alpha >= 1 and n <= 5)
    p, q, den, at = _cycle_polynomial_at(A, alpha)
    # in compare's order: per_a, a^n prod a_ii, (-1)^n per_{-a}
    upper, mid, lower = (at(p, y) for y in (q, 0, -q))
    out = [
        _result(A, "marcus-upper", upper, mid, den, ">=", hyp_chain, tol),
        _result(A, "marcus-lower", mid, lower, den, ">=", hyp_chain, tol),
    ]
    if _is_real_kind(A):
        out.append(_result(A, "marcus-half", at(p, 2 * q), mid, 2 ** n * den,
                           ">=", hyp, tol))
    return out


# ---------------------------------------------------------------------------
# shape averages and majorization steps
# ---------------------------------------------------------------------------

def shape_averages(A: Matrix, sign: int, tol=0.0) -> dict:
    """{shape: p_sign(shape)} for every partition shape of n = A.n: the
    average over set partitions with that shape of the product of
    per_{sign} over blocks (sign +1: permanents; sign -1: signed dets).

    One shape-keyed partition DP over the blocks' values, read from A's
    kept cycle polynomials at (sign, 1), serves every shape; an exact A
    runs it on the polynomials' integers and divides once per shape. A
    keeps the result for each (sign, tol).
    """
    if sign not in (1, -1):
        raise DomainError("sign must be +1 or -1")
    return kept(A, ("shape-averages", sign, tol),
                lambda: _shape_averages(A, sign, tol))


def _shape_averages(A: Matrix, sign: int, tol) -> dict:
    n = A.n
    exact = kind_is_exact(A.kind)
    p, q, den, at = _cycle_polynomial_at(A, sign if exact else float(sign))
    unit = Fraction(1, den) if exact else 1
    f = [at(p, q, T) for T in range(1 << n)]
    return {shape: _real_value(total * unit, tol)
            / shape_partition_count(n, shape)
            for shape, total in shape_partition_sums(f, n).items()}


def p_shape(A: Matrix, shape, sign: int, tol=0.0):
    """Average over set partitions with the given shape of the product of
    per_{sign} over blocks (sign +1: permanents; sign -1: signed dets):
    one entry of shape_averages."""
    shape = tuple(sorted(shape, reverse=True))
    shape_partition_count(A.n, shape)  # rejects a shape that is not of n
    return shape_averages(A, sign, tol)[shape]


def _merge_of(lam, mu):
    """Check that lam arises from mu by merging exactly two parts."""
    from collections import Counter
    cl, cm = Counter(lam), Counter(mu)
    gained = cl - cm
    lost = cm - cl
    if sum(lost.values()) != 2 or sum(gained.values()) != 1:
        return False
    parts = []
    for v, c in lost.items():
        parts.extend([v] * c)
    (merged,) = [v for v, c in gained.items() for _ in range(c)]
    return merged == parts[0] + parts[1]


def check_majorization_step(A: Matrix, lam, mu, sign: int,
                            tol=0.0) -> ComparisonResult:
    """Compare p(lam) against p(mu) when lam merges two parts of mu.

    Permanent averages go up under merging, so sign +1 compares with >=.
    Unsigned determinant averages go down (Fischer), and since the block
    sizes sum to n, p_-(shape) is (-1)^n times the unsigned average: sign -1
    compares with <= at even n and with >= at odd n. Both shapes read
    shape_averages(A, sign, tol), which A keeps for every step.
    """
    lam = tuple(sorted(lam, reverse=True))
    mu = tuple(sorted(mu, reverse=True))
    if not _merge_of(lam, mu):
        raise DomainError("%r is not a two-part merge of %r" % (lam, mu))
    n = A.n
    if sum(lam) != n or min(mu) < 1:
        raise DomainError("shapes must partition %d" % n)
    direction = ">=" if (sign == 1 or n % 2 == 1) else "<="
    label = "per" if sign == 1 else "det"
    name = "majorization-%s-%s-%s" % (
        label,
        ".".join(str(x) for x in lam),
        ".".join(str(x) for x in mu),
    )
    averages = shape_averages(A, sign, tol)
    return compare(name, averages[lam], averages[mu], direction, tol)


def merge_pairs(n: int) -> list:
    """All (lam, mu) with mu a shape of n and lam a two-part merge of mu."""
    shapes = set()

    def gen(remaining, maxpart, acc):
        if remaining == 0:
            shapes.add(tuple(acc))
            return
        for p in range(min(remaining, maxpart), 0, -1):
            gen(remaining - p, p, acc + [p])

    gen(n, n, [])
    pairs = []
    for mu in sorted(shapes, reverse=True):
        seen = set()
        for i in range(len(mu)):
            for j in range(i + 1, len(mu)):
                lam = tuple(
                    sorted(
                        [mu[a] for a in range(len(mu)) if a not in (i, j)]
                        + [mu[i] + mu[j]],
                        reverse=True,
                    )
                )
                if lam not in seen:
                    seen.add(lam)
                    pairs.append((lam, mu))
    return pairs


# ---------------------------------------------------------------------------
# findings
# ---------------------------------------------------------------------------

class Finding(NamedTuple):
    """One hunter observation, self-contained enough to replay."""
    name: str
    record: str
    matrix: str
    sha256: str
    alpha: str
    split: int
    slack: str
    seed: int
    trial: int
    timestamp: str = None  # left None so outputs stay byte-identical

    def to_json(self) -> str:
        return json.dumps(self._asdict(), separators=(",", ":"))

    @classmethod
    def from_json(cls, line: str) -> "Finding":
        return cls(**json.loads(line))


_SPLIT_NAMES = ("lieb", "fischer", "lieb-alpha", "neg-block")


def evaluate_comparison(name: str, A: Matrix, alpha, split) -> ComparisonResult:
    """Recompute a named comparison with the fast kernels: the result of
    that name and split among its family's on A.

    split is the block split m of the split-indexed comparisons and None
    for the rest. neg-nonneg and half-scaled compare values of the whole
    matrix: their split is None, or an integer that is not read.
    """
    if split is not None and not isinstance(split, int):
        raise DomainError("a split is an integer or None, got %r" % (split,))
    if name == "haf-per":
        return check_haf_per(A)
    if name == "lieb":
        results = check_lieb(A)
    elif name == "fischer":
        results = check_fischer(A)
    elif name in ("lieb-alpha", "neg-block", "neg-nonneg", "half-scaled"):
        results = check_lieb_type(A, alpha)
    elif name.startswith("marcus-"):
        results = check_marcus(A, alpha)
    else:
        raise DomainError("unknown comparison %r" % name)
    split = split if name in _SPLIT_NAMES else None
    for r in results:
        if r.name == name and r.split == split:
            return r
    raise DomainError("comparison %r at split %r not produced for this "
                      "matrix" % (name, split))


def replay_finding(finding: Finding):
    """Recompute a finding's slack from its own serialized instance."""
    A = loads_matrix(finding.matrix)
    alpha = (parse_scalar(finding.alpha, "rational")
             if finding.alpha is not None else None)
    result = evaluate_comparison(finding.name, A, alpha, finding.split)
    return result.slack


def _naive_slack(name: str, A: Matrix, alpha, split, polynomials=None):
    """Recompute a comparison's slack with per_alpha_naive's cycle
    polynomials only. polynomials maps a block's index mask to its cycle
    polynomial; a caller that passes one dict for all of A's comparisons
    walks each block's permutations once, for every alpha."""
    n = A.n
    sign_n = -1 if n % 2 else 1
    full = full_mask(n)
    one = Fraction(1)
    if polynomials is None:
        polynomials = {}

    def pa(mask, a):
        coeffs = polynomials.get(mask)
        if coeffs is None:
            block = A if mask == full else submatrix(A, mask)
            coeffs = polynomials[mask] = _naive_cycle_polynomial(block)
        return exact_real(_polynomial_at(coeffs, a))

    def det(mask):
        return (-1) ** mask.bit_count() * pa(mask, -one)

    if name in ("lieb", "fischer", "lieb-alpha", "neg-block"):
        low, high = split_masks(n, split)
    if name == "lieb":
        return pa(full, one) - pa(low, one) * pa(high, one)
    if name == "fischer":
        return det(low) * det(high) - det(full)
    if name == "haf-per":
        haf = Fraction(2 ** n) * pa(full, Fraction(1, 2))
        return haf - pa(full, one)
    if name == "lieb-alpha":
        return pa(full, alpha) - pa(low, alpha) * pa(high, alpha)
    if name == "neg-nonneg":
        return sign_n * pa(full, -alpha)
    if name == "neg-block":
        sm = -1 if split % 2 else 1
        snm = -1 if (n - split) % 2 else 1
        lhs = sign_n * pa(full, -alpha)
        rhs = (sm * pa(low, -alpha)) * (snm * pa(high, -alpha))
        return rhs - lhs
    if name == "half-scaled":
        return pa(full, alpha / 2) - pa(full, alpha) * Fraction(1, 2 ** n)
    diag = exact_real(diagonal_product(A))
    if name == "marcus-upper":
        return pa(full, alpha) - alpha ** n * diag
    if name == "marcus-lower":
        return alpha ** n * diag - sign_n * pa(full, -alpha)
    if name == "marcus-half":
        return pa(full, alpha / 2) - (alpha / 2) ** n * diag
    raise DomainError("unknown comparison %r" % name)


def confirm_violation(result: ComparisonResult, A: Matrix, alpha, split,
                      trial: int, polynomials=None) -> None:
    """Re-derive a gated violation's slack with the oracle _naive_slack;
    raise OracleMismatch unless it equals the fast kernels' slack.
    polynomials is handed to _naive_slack, one dict per instance."""
    naive = _naive_slack(result.name, A, alpha, split, polynomials)
    if naive != result.slack:
        raise OracleMismatch("%s at trial %d: dp slack %s, naive slack %s"
                             % (result.name, trial, result.slack, naive))


def make_finding(record: str, name: str, A: Matrix, alpha, split, slack,
                 seed: int, trial: int) -> Finding:
    """The Finding of one observation of comparison name on instance A at
    an exact alpha (None for the alpha-free families) and split, with an
    exact slack. A is serialised once; sha256 is matrix_digest(A), taken
    from that text."""
    text = dumps_matrix(A)
    return Finding(
        name=name, record=record, matrix=text,
        sha256=text_digest(text),
        alpha=format_scalar(alpha) if alpha is not None else None,
        split=split, slack=format_scalar(slack), seed=seed, trial=trial,
    )


# ---------------------------------------------------------------------------
# hunter
# ---------------------------------------------------------------------------

HUNT_TARGETS = ("marcus", "lieb", "fischer", "haf-per", "lieb-type",
                "neg-positivity")
# the targets that compare the blocks of a split
SPLIT_TARGETS = ("lieb", "fischer", "lieb-type")


class HuntConfig(NamedTuple):
    targets: tuple = ("marcus",)
    n: int = 5
    trials: int = 1000
    seed: int = 0
    kind: str = REAL_SYMMETRIC
    scale: int = 3
    unit_diagonal: bool = True
    alpha_fixed: str = None     # scalar text, overrides the range
    alpha_lo: str = "1"
    alpha_hi: str = "2"
    alpha_max_den: int = 16
    keep_smallest: int = 0
    jobs: int = 1

    def validate(self):
        for t in self.targets:
            if t not in HUNT_TARGETS:
                raise DomainError("unknown hunt target %r" % (t,))
        if len(set(self.targets)) != len(self.targets):
            raise DomainError("hunt target repeated in %s"
                              % ",".join(self.targets))
        if self.n < 1:
            raise DomainError("hunt needs n >= 1")
        for t in self.targets:
            if t in SPLIT_TARGETS and self.n < 2:
                raise DomainError("hunt target %s needs n >= 2 for a split"
                                  % t)
        if self.trials < 1:
            raise DomainError("hunt needs trials >= 1")
        if self.keep_smallest < 0:
            raise DomainError("hunt needs keep_smallest >= 0")
        if self.kind not in (REAL_SYMMETRIC, HERMITIAN):
            raise DomainError("hunt kind must be %r or %r"
                              % (REAL_SYMMETRIC, HERMITIAN))
        if self.kind == HERMITIAN:
            for t in self.targets:
                if t == "haf-per":
                    raise DomainError("haf-per needs real matrices")
        if self.alpha_max_den < 1:
            raise DomainError("alpha_max_den must be >= 1")
        lo, hi = _alpha_bounds(self)
        if lo > hi:
            raise DomainError("alpha range %s:%s has lo > hi"
                              % (self.alpha_lo, self.alpha_hi))


def _hunt_alpha(text) -> Fraction:
    """A hunt alpha from its text; decimals are exact ("1.5" is 3/2)."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ScalarFormatError("bad alpha %r: want a rational such as 3/2"
                                % (text,)) from None


class HuntResult(NamedTuple):
    config: HuntConfig
    trials: int
    findings: list
    violations: int
    observations: int
    min_slack: object          # Fraction or None
    argmin: Finding = None     # the least gated slack's min-slack record


def _trial_matrix(cfg: HuntConfig, t: int) -> Matrix:
    seed = cfg.seed ^ t
    if cfg.unit_diagonal:
        return random_unit_diag_psd(cfg.n, cfg.kind, cfg.scale, seed)
    return random_psd(cfg.n, cfg.kind, cfg.scale, seed)


def _trial_instance(cfg: HuntConfig, bounds: tuple, t: int) -> tuple:
    """(A, alpha) of trial t; alpha is None when no target reads one."""
    alpha = _trial_alpha(cfg, bounds, t) if any(
        _needs_alpha(x) for x in cfg.targets) else None
    return _trial_matrix(cfg, t), alpha


def _alpha_bounds(cfg: HuntConfig) -> tuple:
    """(lo, hi) of the hunt's alpha range, parsed once per hunt; a fixed
    alpha a is the range (a, a)."""
    if cfg.alpha_fixed is not None:
        fixed = _hunt_alpha(cfg.alpha_fixed)
        return fixed, fixed
    return _hunt_alpha(cfg.alpha_lo), _hunt_alpha(cfg.alpha_hi)


def _trial_alpha(cfg: HuntConfig, bounds: tuple, t: int) -> Fraction:
    """Trial t's alpha in bounds = _alpha_bounds(cfg): lo at t = 0 mod 64,
    hi at t = 1 mod 64, else a random rational in between."""
    lo, hi = bounds
    if lo == hi:
        return lo
    if t % 64 == 0:
        return lo
    if t % 64 == 1:
        return hi
    rng = random.Random("alpha:%d" % (cfg.seed ^ t))
    den = rng.randint(1, cfg.alpha_max_den)
    return lo + (hi - lo) * Fraction(rng.randint(0, den), den)


def _needs_alpha(target: str) -> bool:
    return target in ("marcus", "lieb-type", "neg-positivity")


def _trial_comparisons(cfg: HuntConfig, A: Matrix, alpha):
    """Yield (comparison, gated) pairs for all configured targets."""
    for target in cfg.targets:
        if target == "marcus":
            results = check_marcus(A, alpha)
        elif target == "lieb":
            results = check_lieb(A)
        elif target == "fischer":
            results = check_fischer(A)
        elif target == "haf-per":
            results = [check_haf_per(A)]
        elif target == "lieb-type":
            results = check_lieb_type(A, alpha)
        elif "lieb-type" in cfg.targets:
            # neg-positivity: lieb-type records this comparison itself
            continue
        else:
            yield check_neg_positivity(A, alpha), False
            continue
        for r in results:
            # lieb-type's neg-nonneg is gated only inside the proven regime
            yield r, r.name != "neg-nonneg" or r.hypothesis


def _hunt_trial(cfg: HuntConfig, bounds: tuple, t: int) -> tuple:
    """Evaluate trial t, with alpha bounds = _alpha_bounds(cfg): return
    (records, least), the trial's violation Findings and then its sign
    Findings, and its least gated (slack, name, split), None when no
    comparison is gated."""
    A, alpha = _trial_instance(cfg, bounds, t)
    violations = []
    signs = []
    least = None
    polynomials = {}   # the oracle's, shared by the trial's violations
    for result, gated in _trial_comparisons(cfg, A, alpha):
        split = result.split
        if gated:
            if result.verdict == VIOLATED:
                confirm_violation(result, A, alpha, split, t, polynomials)
                violations.append(make_finding(
                    "violation", result.name, A, alpha, split, result.slack,
                    cfg.seed, t))
            if least is None or result.slack < least[0]:
                least = (result.slack, result.name, split)
        elif result.slack < 0:
            signs.append(make_finding("sign", result.name, A, alpha, split,
                                      result.slack, cfg.seed, t))
    return violations + signs, least


def _trial_chunk(trial, args: tuple, lo: int, hi: int) -> list:
    return [(t, trial(*args, t)) for t in range(lo, hi)]


def run_trials(trial, args: tuple, trials: int, jobs: int) -> list:
    """[(t, trial(*args, t)) for t in range(trials)], computed in contiguous
    chunks over at most jobs worker processes, and no more than there are
    chunks or CPUs; the result does not depend on jobs.
    trial must be a module-level function, so that workers can import it."""
    if jobs <= 1:
        return _trial_chunk(trial, args, 0, trials)
    from concurrent.futures import ProcessPoolExecutor
    step = max(1, -(-trials // jobs))
    starts = range(0, trials, step)
    # a fork-started pool forks all its workers at the first submit
    workers = min(jobs, len(starts), os.cpu_count() or 1)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(_trial_chunk, trial, args, lo,
                               min(lo + step, trials))
                   for lo in starts]
        return [row for f in futures for row in f.result()]


def hunt(cfg: HuntConfig) -> HuntResult:
    """Run the hunter; deterministic in cfg, independent of cfg.jobs.

    The trials' least gated slacks, sorted by (slack, trial), give the
    argmin (the head) and the --keep-smallest min-slack records (the first
    keep_smallest), each made once from its trial's instance."""
    cfg.validate()
    bounds = _alpha_bounds(cfg)
    findings = []
    minima = []   # (slack, trial, name, split) per trial
    for t, (records, least) in run_trials(_hunt_trial, (cfg, bounds),
                                          cfg.trials, cfg.jobs):
        findings.extend(records)
        if least is not None:
            slack, name, split = least
            minima.append((slack, t, name, split))
    minima.sort()
    smallest = []
    for slack, t, name, split in minima[:max(cfg.keep_smallest, 1)]:
        A, alpha = _trial_instance(cfg, bounds, t)
        smallest.append(make_finding("min-slack", name, A, alpha, split,
                                     slack, cfg.seed, t))
    violations = sum(f.record == "violation" for f in findings)
    observations = sum(f.record == "sign" for f in findings)
    findings.extend(smallest[:cfg.keep_smallest])
    return HuntResult(
        config=cfg, trials=cfg.trials, findings=findings,
        violations=violations, observations=observations,
        min_slack=minima[0][0] if minima else None,
        argmin=smallest[0] if smallest else None,
    )
