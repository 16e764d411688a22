"""Alpha-permanents, permanents, determinants, and hafnians.

For an n x n matrix A and a scalar alpha,

    per_alpha(A) = sum over permutations pi of alpha^(number of cycles of pi)
                   times prod_i a_{i, pi(i)}

so per_1 is the permanent and per_{-1}(A) = (-1)^n det(A). The empty matrix
has per_alpha = 1 (empty product, empty permutation with zero cycles).

Two independent algorithms compute per_alpha:

  * per_alpha_naive is the trusted oracle. It sums the products over all
    n! permutations by cycle count, c_k over the permutations with k
    cycles, so per_alpha(A) = sum over k of alpha^k c_k: one walk gives
    A's cycle polynomial, which serves every alpha.
  * per_alpha_dp runs in O(3^n) on cycle sums: with C(S) the sum over all
    cyclic arrangements of the index set S of the product of matrix entries
    along the cycle, the quantity f(T) = per_alpha(A[T]) satisfies

        f(T) = alpha * sum over S subseteq T with min(T) in S
               of C(S) * f(T minus S)

    because the cycle through min(T) is distinguished. Cycle sums come from a
    walk dynamic program anchored at the smallest element of each subset.

Run over every index set T, (3^n - 1)/2 subset pairs, the DP gives
per_alpha of every principal submatrix A[T]: per_alpha_minors. The
expansion formulas in partitions read it at every beta.

Every table over the index sets of A is a ScaledTable, indexed by bitmask:
the cycle sums, the principal minors and doubled_hafnian_table. It keeps
the integers the kernel ran on and converts an entry when it is read (see
the integer lane below). Its ring method hands out all of them as those
integers, ints or Gaussian integers, rescaled to a common base, for the
partition DPs: no other module reads its lists.

A keeps what its checks read again, built on first use by kept(A, key,
build): the cycle table, the cycle polynomials that every alpha-family
and lieb and fischer read (partitions.cycle_polynomials), and the shape
averages of inequalities. Nothing is keyed by alpha: per_alpha_dp and
per_alpha_minors run a DP at each call. The oracle, Glynn, Bareiss and
the hafnian neither read nor fill the kept tables.

per_alpha_dp fills only what f(full) reads: the subsets of {1..n-1} (the
masks without bit 0, ascending), then the full set, (3^(n-1) - 1)/2 +
2^(n-1) subset pairs, about a third of the table's, each by the table's
loop in its order, so its value, exact or float, is bit-identical to
per_alpha_minors(A, alpha)[-1].

The hafnian of a symmetric even-dimensional matrix sums, over all perfect
matchings of the index set, the product of matched entries; the diagonal is
ignored. haf of the empty matrix is 1. It expands on the lowest index,
run bottom-up over exactly the index sets that expansion reaches: from
the full set for hafnian, and from every root, T with T + n, at once for
doubled_hafnian_table, which gives haf(doubled(A[T])) for every T.

All kernels accept exact (Fraction / GaussianRational) and float matrices.
Float matrices run on the same cycle-sum, subset-DP, Glynn and hafnian loops
as the integer lane below, on Python floats and complex numbers; the float
determinant is the exact one of the binary64 entries, rounded once. Exact
inputs demand exact alpha, float inputs demand float alpha; anything else
raises MixedModeError. The result is complex when A or alpha is, even at n = 0.

Exact kernels run in an integer lane, on A.cleared: the common
denominator L of A's entries and B = L*A as integers (Gaussian integers
for complex-rational A, kept as integer real and imaginary parts), as
scalars.clear_denominators computes them. A is cleared once: the Gram
generators build their instances in integers, and loads_matrix parses a
file's tokens straight into them, and both hand this form to the
constructor; any other exact matrix computes it on first use and keeps
it, so no kernel clears the same matrix twice. In the loops a Gaussian
integer is one packed int (_pack), on which they run unchanged; only
their results are decoded, by a bound on them (_packing).

  * a ScaledTable holds integers that carry base^|T| in entry T, and
    their imaginary parts when some entry is complex; float tables hold
    the floats, with base 1;
  * cycle sums scale as C_B(S) = L^|S| C_A(S); cycle_sum_table keeps the
    integers (base L), so a table shared across alpha values is never
    converted;
  * for alpha = p/q, weighting cycle S by q^(|S|-1) keeps the subset DP
    integral, g(T) = p * sum over S of q^(|S|-1) C_B(S) g(T minus S), and
    per_alpha(A[T]) = g(T) / (q L)^|T|: per_alpha_dp divides once at the
    end, and the minors table keeps the integers g(T) (base q L);
  * when every C(S) is real, as for Hermitian A (each directed cycle's
    product is the conjugate of its reverse's), a real alpha runs the DP on
    plain ints;
  * Glynn, Bareiss and the hafnian run on B and divide by 2^(n-1) L^n,
    L^n and L^(n/2); the doubled hafnian table, one bottom-up evaluation
    on L*doubled(A), has base L. Bareiss divides exactly in Z, also on the
    packed rows as the integer matrix M = Re + 2^K Im; i -> 2^K is a ring
    homomorphism from Z[i] onto Z/(2^(2K) + 1), so det(M) is congruent to
    the packed det(B), whose parts |det B|_1 <= per(|B|_1) <= R bounds.

Only the oracle keeps separate complex code, a walk on Gaussian integer
pairs. It does its own clearing and shares nothing with the integer lane:
it reads A's entries, not A.cleared, scales them to integers (Gaussian
integers for complex-rational A) by their own common denominator L, walks
the permutations row by row on those integers, sharing each prefix
product, and divides the cycle polynomial's coefficients by L^n once.
Float matrices are walked on their floats. Results are Fractions or
GaussianRationals, never bare ints.

Size caps are configuration: pass cap=... explicitly or override the
defaults with environment variables ALPHAPERM_CAP_NAIVE, _DP, _RYSER
(the permanent's cap) and _HAFNIAN. Exceeding a cap raises CapacityError.
A kept table is returned under the default caps; an explicit cap is
checked either way.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import os
from collections.abc import Sequence
from fractions import Fraction

from .errors import CapacityError, DomainError, MixedModeError
from .matrices import Matrix, doubled_rows, full_mask
from .scalars import (
    FLOAT_KINDS,
    ONE_OF,
    RATIONAL,
    ZERO_OF,
    GaussianRational,
    as_scalar,
    clear_denominators,
    from_scaled,
    kind_is_complex,
    kind_is_exact,
    scalar_kind,
)

DEFAULT_CAPS = {
    "naive": 10,
    "dp": 18,
    "ryser": 24,
    "hafnian": 20,
}


def default_cap(name: str) -> int:
    env = os.environ.get("ALPHAPERM_CAP_" + name.upper().replace("-", "_"))
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise CapacityError("bad cap override %r for %s" % (env, name))
    return DEFAULT_CAPS[name]


def _check_cap(name: str, size: int, cap) -> None:
    limit = default_cap(name) if cap is None else cap
    if size > limit:
        raise CapacityError(
            "%s kernel: size %d exceeds cap %d" % (name, size, limit)
        )


def require_alpha_kind(A: Matrix, alpha):
    """Normalize alpha and reject exact/float mixing against A's kind."""
    alpha = as_scalar(alpha)
    if isinstance(alpha, (float, complex)) == kind_is_exact(A.kind):
        raise MixedModeError(
            "matrix kind %s with alpha of kind %s; convert explicitly"
            % (A.kind, scalar_kind(alpha))
        )
    return alpha


def _empty_per_alpha(A: Matrix, alpha):
    """per_alpha of the empty matrix: 1, complex when A or alpha is."""
    return ONE_OF[A.kind if kind_is_complex(A.kind) else scalar_kind(alpha)]


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

def per_alpha_naive(A: Matrix, alpha, cap=None):
    """per_alpha by direct summation over all n! permutations: the cycle
    polynomial of A, evaluated at alpha.

    Exponentially slower than per_alpha_dp but with no shared machinery;
    every other kernel is checked against this one.
    """
    alpha = require_alpha_kind(A, alpha)
    return _polynomial_at(_naive_cycle_polynomial(A, cap), alpha)


def _polynomial_at(coeffs: list, alpha):
    """sum over k of alpha^k c_k, for the cycle polynomial coeffs of a
    matrix: per_alpha of the matrix, of the kind per_alpha_dp gives."""
    # alpha^0 c_0 is 1 of the result's kind at n = 0, and 0 of it above
    total = alpha ** 0 * coeffs[0]
    for k in range(1, len(coeffs)):
        if coeffs[k]:
            total = total + alpha ** k * coeffs[k]
    return total


def _naive_cycle_polynomial(A: Matrix, cap=None) -> list:
    """[c_0, ..., c_n], scalars of A's kind: c_k sums prod_i a_{i, pi(i)}
    over the permutations pi of 0..n-1 with k cycles, so per_alpha(A) is
    sum over k of alpha^k c_k.

    The walk runs on integers: L is the least common multiple of the
    denominators of A's entries (both parts of a complex entry), and the
    products of L*A, integers or Gaussian integers, are summed per cycle
    count and divided by L^n once. Float matrices are walked as they are.
    """
    n = A.n
    _check_cap("naive", n, cap)
    if n == 0:
        return [ONE_OF[A.kind]]
    rows = A.rows
    if A.kind in FLOAT_KINDS:
        return _walk_permutations(rows, n, ZERO_OF[A.kind])
    # the oracle's own clearing, independent of A.cleared
    if A.kind == RATIONAL:
        parts = (rows,)
    else:
        parts = ([[z.re for z in row] for row in rows],
                 [[z.im for z in row] for row in rows])
    L = math.lcm(*{x.denominator for part in parts for row in part
                   for x in row})
    ints = [[[x.numerator * (L // x.denominator) for x in row]
             for row in part] for part in parts]
    den = L ** n
    if A.kind == RATIONAL:
        return [Fraction(x, den) for x in _walk_permutations(ints[0], n, 0)]
    return [GaussianRational(Fraction(x, den), Fraction(y, den))
            for x, y in zip(*_walk_permutations_gaussian(*ints, n))]


def _walk_permutations(rows, n: int, zero) -> list:
    """c[k] = sum of prod_i rows[i][pi(i)] over the permutations pi with k
    cycles, for a matrix of ints, floats or complex floats.

    Rows are placed in order, so a prefix product is shared by every
    permutation that extends it, and a zero entry prunes its subtree. The
    placed arrows form disjoint paths and closed cycles: first[e] is the
    start of the path ending at e, last[s] the end of the path starting at
    s. Placing i -> j closes a cycle when j starts the path that ends at
    i, and otherwise joins the two paths; the last row always closes one.
    """
    c = [zero] * (n + 1)
    cols = list(range(n))   # cols[i:] are the columns still free at row i
    first = list(range(n))
    last = list(range(n))
    top = n - 1

    def place(i, prod, cycles):
        row = rows[i]
        if i == top:
            x = row[cols[i]]
            if x:
                c[cycles + 1] += prod * x
            return
        s = first[i]
        here = cols[i]
        for k in range(i, n):
            j = cols[k]
            x = row[j]
            if not x:
                continue
            cols[i], cols[k] = j, here
            if j == s:
                place(i + 1, prod * x, cycles + 1)
            else:
                e = last[j]
                first[e], last[s] = s, e
                place(i + 1, prod * x, cycles)
                first[e], last[s] = j, i
            cols[i], cols[k] = here, j

    place(0, 1, 0)
    return c


def _walk_permutations_gaussian(re, im, n: int) -> tuple:
    """_walk_permutations over the Gaussian integers, given as the real and
    imaginary integer parts of the matrix; returns (real c, imaginary c)."""
    c_re = [0] * (n + 1)
    c_im = [0] * (n + 1)
    cols = list(range(n))
    first = list(range(n))
    last = list(range(n))
    top = n - 1

    def place(i, p_re, p_im, cycles):
        row_r = re[i]
        row_i = im[i]
        if i == top:
            j = cols[i]
            a = row_r[j]
            b = row_i[j]
            c_re[cycles + 1] += p_re * a - p_im * b
            c_im[cycles + 1] += p_re * b + p_im * a
            return
        s = first[i]
        here = cols[i]
        for k in range(i, n):
            j = cols[k]
            a = row_r[j]
            b = row_i[j]
            if not (a or b):
                continue
            cols[i], cols[k] = j, here
            qr = p_re * a - p_im * b
            qi = p_re * b + p_im * a
            if j == s:
                place(i + 1, qr, qi, cycles + 1)
            else:
                e = last[j]
                first[e], last[s] = s, e
                place(i + 1, qr, qi, cycles)
                first[e], last[s] = j, i
            cols[i], cols[k] = here, j

    place(0, 1, 0, 0)
    return c_re, c_im


# ---------------------------------------------------------------------------
# Gaussian integers as packed ints
# ---------------------------------------------------------------------------

def _packing(A: Matrix, factor: int = 1) -> int:
    """K for a kernel on A.cleared whose decoded results are at most
    factor * R in |.|_1, with R = prod over rows i of
    max(1, sum over j of |re_ij| + |im_ij|): R bounds every sub-permanent
    of |B|_1, and the hafnian too, as a nonzero Gaussian integer has
    |.|_1 >= 1. Each part of a result is then below 2^(K-1)."""
    _, re, im = A.cleared
    R = math.prod(max(1, sum(map(abs, r)) + sum(map(abs, i)))
                  for r, i in zip(re, im or [()] * len(re)))
    return (factor * R).bit_length() + 1


def _pack(re, im, K: int) -> list:
    """re[j] + i im[j] as the ints re[j] + im[j] 2^K. Modulo 2^(2K) + 1,
    2^K is a square root of -1, so packed ints add and multiply as Z[i]."""
    return [a + (b << K) for a, b in zip(re, im)]


def _unpack(xs, K: int) -> tuple:
    """(re, im): the parts a, b of the Gaussian integers the packed ints xs
    stand for, exact when |a|, |b| < 2^(K-1): x mod N, N = 2^(2K) + 1,
    folded to (-N/2, N/2], is then a + b 2^K itself."""
    N = (1 << 2 * K) + 1
    mid = 1 << (K - 1)
    re, im = [], []
    for x in xs:
        x %= N
        if x > N >> 1:
            x -= N
        b = (x + mid) >> K
        re.append(x - (b << K))
        im.append(b)
    return re, im


def _integer_rows(A: Matrix, factor: int = 1) -> tuple:
    """(L, rows, K): A.cleared's L and integer rows, packed with K bits
    for _packing(A, factor) when A has imaginary parts, K None when not."""
    L, re, im = A.cleared
    if im is None:
        return L, re, None
    K = _packing(A, factor)
    return L, [_pack(r, i, K) for r, i in zip(re, im)], K


def _from_packed(den: int, x: int, K):
    """The exact scalar x / den of a kernel's integer result x, packed
    with K bits (a GaussianRational) or, for K None, an int (a Fraction)."""
    if K is None:
        return from_scaled(den, x)
    (a,), (b,) = _unpack([x], K)
    return from_scaled(den, a, b)


# ---------------------------------------------------------------------------
# cycle sums
# ---------------------------------------------------------------------------

class ScaledTable(Sequence):
    """A quantity of every principal submatrix A[T], indexed by bitmask T:
    the cycle sums C(T), per_alpha(A[T]) or haf(doubled(A[T])).

    Exact tables stay in the integer lane: values[T] is an integer that
    carries base^|T|, imag[T] its imaginary part, and imag is None when
    every entry is real. Float tables hold the floats themselves, with
    base 1. Indexing converts entry T to a scalar of the table's kind,
    from_scaled(base^|T|, values[T], imag[T]); ring() hands every entry
    out as the kernels hold it. A None entry (the cycle table's entry 0)
    stays None.
    """

    __slots__ = ("kind", "base", "values", "imag")

    def __init__(self, kind: str, base: int, values: list, imag):
        self.kind = kind
        self.base = base
        self.values = values
        self.imag = imag

    def __len__(self):
        return len(self.values)

    def __getitem__(self, mask: int):
        mask = range(len(self.values))[mask]
        value = self.values[mask]
        if value is None or self.kind in FLOAT_KINDS:
            return value
        part = None if self.kind == RATIONAL else 0
        if self.imag is not None:
            part = self.imag[mask]
        return from_scaled(self.base ** mask.bit_count(), value, part)

    def ring(self, base: int = None) -> tuple:
        """(f, unit) for sums of products over set partitions: f[T] is
        entry T as the kernels hold it (an int, a GaussianRational with
        integer parts, or a float; None stays None), rescaled to carry
        base^|T| (base defaults to the table's and must be a multiple of
        it), and unit = 1/base^n turns a sum of products of f over the
        partitions of the full set into a value of the table's kind. f is
        the table's own list when there is nothing to convert."""
        if self.kind in FLOAT_KINDS:
            return self.values, 1
        if base is None:
            base = self.base
        f, imag = self.values, self.imag
        if base != self.base:
            r = [(base // self.base) ** m.bit_count() for m in range(len(f))]
            f = [v * x for v, x in zip(f, r)]
            if imag is not None:
                imag = [v * x for v, x in zip(imag, r)]
        if imag is not None:
            f = [a if b is None else GaussianRational(a, b)
                 for a, b in zip(f, imag)]
        unit_imag = None if self.kind == RATIONAL else 0
        return f, from_scaled(base ** (len(f).bit_length() - 1), 1, unit_imag)


def _walk_cycle_sums(rows, n: int) -> list:
    """Cycle sums of a matrix of ints, floats or complex floats."""
    size = 1 << n
    C = [None] * size
    # walk[mask][v]: path weights anchor(mask) -> v over the vertex set mask,
    # where anchor(mask) is the smallest element. Masks ascend, so the
    # (mask minus v) entries are always ready.
    walk = [None] * size
    for mask in range(1, size):
        lowbit = mask & -mask
        anchor = lowbit.bit_length() - 1
        if mask == lowbit:
            C[mask] = rows[anchor][anchor]
            continue
        w = {}
        closing = 0
        m = mask ^ lowbit
        while m:
            vbit = m & -m
            m ^= vbit
            v = vbit.bit_length() - 1
            sub = mask ^ vbit
            if sub == lowbit:
                val = rows[anchor][v]
            else:
                val = 0
                for u, pu in walk[sub].items():
                    val += pu * rows[u][v]
            w[v] = val
            closing += val * rows[v][anchor]
        walk[mask] = w
        C[mask] = closing
    return C


def cycle_sum_table(A: Matrix, cap=None) -> ScaledTable:
    """C(S) for every nonempty subset S of 0..n-1, indexed by bitmask.

    Entry 0 is None. The table drives the subset DP at every alpha, and A
    keeps it; it holds the integer form the DP runs on, so sharing it
    costs no conversion per alpha.
    """
    return kept(A, "cycle", lambda: _cycle_sums(A), cap)


def _cycle_sums(A: Matrix) -> ScaledTable:
    n = A.n
    if A.kind in FLOAT_KINDS:
        return ScaledTable(A.kind, 1, _walk_cycle_sums(A.rows, n), None)
    L, rows, K = _integer_rows(A)
    C = _walk_cycle_sums(rows, n)
    if K is None:
        return ScaledTable(A.kind, L, C, None)
    values, imag = _unpack(C[1:], K)
    return ScaledTable(A.kind, L, [None] + values,
                       [None] + imag if any(imag) else None)


def _weights(values: list, q: int) -> list:
    """An exact cycle table's integers (or their packed ints) values with
    entry S multiplied by q^(|S|-1), the weights of the DP at alpha = p/q;
    values itself at q = 1."""
    if q == 1:
        return values
    q_pow = [q ** k for k in range(len(values).bit_length() - 1)]
    return [0] + [q_pow[m.bit_count() - 1] * values[m]
                  for m in range(1, len(values))]


def kept(A: Matrix, key, build, cap=None):
    """What A keeps under key: build() on first use, after that the kept
    value. An explicit cap is checked on every call, the default DP cap
    only before a build: reading a kept table costs nothing."""
    got = A._tables.get(key)
    if got is None or cap is not None:
        _check_cap("dp", A.n, cap)
        if got is None:
            got = A._tables[key] = build()
    return got


def _dp_masks(n: int, full_set: bool):
    """The index sets the subset DP fills, in an order where every proper
    subset comes first: all of them, or for the full set alone the sets
    without element 0 (the only ones f(full) reads) and then the full set."""
    size = 1 << n
    if not full_set:
        return range(1, size)
    return itertools.chain(range(2, size, 2), (size - 1,) if n else ())


def _subset_dp(w, p, n: int, masks) -> list:
    """g(T) for T in masks, where g(T) = p * sum over S subseteq T with
    min(T) in S of w(S) g(T minus S), g(empty) = 1; w and p are ints,
    floats or complex. Entries not in masks are left at 1."""
    g = [1] * (1 << n)
    for mask in masks:
        lowbit = mask & -mask
        rest = mask ^ lowbit
        acc = 0
        s = rest
        while True:
            acc += w[lowbit | s] * g[rest ^ s]
            if s == 0:
                break
            s = (s - 1) & rest
        g[mask] = p * acc
    return g


def _principal_dp(A: Matrix, alpha, cap, C=None, full_set=False) -> tuple:
    """The subset DP of A at alpha under the DP cap, run at each call on
    A's cycle table (C, if given), over every index set T, or with full_set
    over the sets per_alpha(A) reads.

    Returns (base, g, K): g[T] is base^|T| per_alpha(A[T]) as the DP
    holds it, with base = q L for alpha = p/q (1 for floats), an int
    packed with K bits, or (K None) a plain int or a float. With full_set,
    entries of sets that contain element 0 but are not the full set are
    left unfilled.
    """
    n = A.n
    _check_cap("dp", n, cap)
    alpha = require_alpha_kind(A, alpha)
    C = cycle_sum_table(A, cap=cap) if C is None else C
    masks = _dp_masks(n, full_set)
    if A.kind in FLOAT_KINDS:
        g = _subset_dp(C.values, alpha, n, masks)
        g[0] = _empty_per_alpha(A, alpha)
        return 1, g, None
    # alpha = p/q: weighting cycle S by q^(|S|-1) keeps the DP integral.
    q, [[p]], p_imag = clear_denominators([[alpha]])
    base = q * C.base
    if C.imag is None and p_imag is None:
        return base, _subset_dp(_weights(C.values, q), p, n, masks), None
    # |g(T)|_1 <= max(|p|_1, q)^|T| per(|B|_1[T])
    p_im = 0 if p_imag is None else p_imag[0][0]
    K = _packing(A, max(abs(p) + abs(p_im), q) ** n)
    w = C.values
    if C.imag is not None:
        w = [None] + _pack(w[1:], C.imag[1:], K)
    return base, _subset_dp(_weights(w, q), p + (p_im << K), n, masks), K


def per_alpha_dp(A: Matrix, alpha, cap=None, cycle_table=None):
    """per_alpha via the cycle-sum decomposition: the full-set entry of
    per_alpha_minors, bit-identical, from a DP over only the index sets it
    reads, (3^(n-1) - 1)/2 + 2^(n-1) subset pairs. cycle_table, if given,
    must be cycle_sum_table(A), the table A keeps anyway.
    """
    base, g, K = _principal_dp(A, alpha, cap, cycle_table, full_set=True)
    if K is None:
        return ScaledTable(A.kind, base, g, None)[-1]
    return _from_packed(base ** A.n, g[-1], K)


def per_alpha_minors(A: Matrix, alpha, cap=None) -> ScaledTable:
    """per_alpha of every principal submatrix A[T], from one subset DP on
    A's cycle table at each call; entry 0 is per_alpha of the empty matrix.
    Exact tables keep the imaginary parts unless the DP ran on plain ints.
    """
    base, g, K = _principal_dp(A, alpha, cap)
    if K is None:
        return ScaledTable(A.kind, base, g, None)
    return ScaledTable(A.kind, base, *_unpack(g, K))


# ---------------------------------------------------------------------------
# specializations
# ---------------------------------------------------------------------------

def permanent(A: Matrix, cap=None):
    """Permanent by Glynn's formula (Gray-coded over the row signs).

    per(A) = 2^-(n-1) sum over d in {+1, -1}^n with d_0 = +1 of
    prod_k d_k prod_j (sum_i d_i a_ij) (D. G. Glynn, European J. Combin.
    31, 2010); each Gray step flips the sign of one row 1..n-1, so the
    column sums update in O(n). Exact matrices run on L*A in integers
    (packed Gaussian integers for complex-rational A), where
    per(L*A) = L^n per(A). Float matrices divide by 2^(n-1), which is exact
    short of underflow.
    """
    n = A.n
    _check_cap("ryser", n, cap)
    if n == 0:
        return ONE_OF[A.kind]
    if A.kind in FLOAT_KINDS:
        return _glynn(A.rows, n) / (1 << (n - 1))
    L, rows, K = _integer_rows(A, 1 << (n - 1))
    return _from_packed(L ** n << (n - 1), _glynn(rows, n), K)


def _glynn(rows, n: int):
    """2^(n-1) per(rows): Glynn's sum over the signs of rows 1..n-1."""
    sums = [sum(col) for col in zip(*rows)]
    twice = [[x + x for x in row] for row in rows]
    total = math.prod(sums)
    flipped = 0
    for k in range(1, 1 << (n - 1)):
        bit = k & -k
        flipped ^= bit
        step = operator.sub if flipped & bit else operator.add
        sums = list(map(step, sums, twice[bit.bit_length()]))
        # prod d_k is (-1)^popcount(flipped), whose parity is k's
        if k & 1:
            total = total - math.prod(sums)
        else:
            total = total + math.prod(sums)
    return total


def determinant(A: Matrix):
    """Determinant by fraction-free Bareiss elimination.

    Exact matrices run on L*A in integers (packed for complex-rational A,
    see the integer lane above), where each Bareiss division is exact. A
    float matrix, whose binary64 entries are dyadic rationals, gets their
    exact determinant rounded once (per part; +-inf beyond range). A
    non-finite entry raises DomainError.
    """
    n = A.n
    if n == 0:
        return ONE_OF[A.kind]
    if A.kind in FLOAT_KINDS:
        try:
            rows = [[GaussianRational(x.real, x.imag)
                     if isinstance(x, complex) else Fraction(x) for x in row]
                    for row in A.rows]
        except (OverflowError, ValueError):
            raise DomainError("the determinant needs finite entries") from None
        det = determinant(Matrix(rows))
        if kind_is_complex(A.kind):
            return complex(_binary64(det.re), _binary64(det.im))
        return _binary64(det)
    L, rows, K = _integer_rows(A)
    return _from_packed(L ** n, _bareiss(rows, n), K)


def _binary64(q: Fraction) -> float:
    """q rounded to the nearest binary64 number, +-inf beyond its range."""
    try:
        return float(q)
    except OverflowError:
        return math.inf if q > 0 else -math.inf


def _bareiss(rows, n: int) -> int:
    """det of an n x n integer matrix, n >= 1 (Bareiss, Math. Comp. 1968)."""
    m = [list(row) for row in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if not m[k][k]:
            for r in range(k + 1, n):
                if m[r][k]:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        mk = m[k]
        pivot = mk[k]
        for i in range(k + 1, n):
            mi = m[i]
            mik = mi[k]
            for j in range(k + 1, n):
                mi[j] = (mi[j] * pivot - mik * mk[j]) // prev
        prev = pivot
    return sign * m[n - 1][n - 1]


def hafnian(A: Matrix, cap=None):
    """Hafnian of a symmetric matrix of even dimension.

    Expands on the lowest index i of an index set S: haf(S) = sum over
    partners j of a_{i,j} * haf(S minus {i, j}), run bottom-up over the
    sets that expansion reaches from the full set (_hafnians).
    Exact matrices run on L*A in integers (packed Gaussian integers for
    complex-rational A): haf(L*A) = L^(n/2) haf(A).
    """
    n = A.n
    _check_cap("hafnian", n, cap)
    if n % 2:
        raise DomainError("hafnian needs even dimension, got %d" % n)
    if not A.is_symmetric_entrywise():
        raise DomainError("hafnian needs a symmetric matrix")
    if n == 0:
        return ONE_OF[A.kind]
    if A.kind in FLOAT_KINDS:
        return _hafnians(A.rows, ONE_OF[A.kind],
                         _full_set_levels(n))[full_mask(n)]
    L, rows, K = _integer_rows(A)
    return _from_packed(L ** (n // 2), _hafnians(
        rows, 1, _full_set_levels(n))[full_mask(n)], K)


def _full_set_levels(n: int):
    """The index sets the expansion of _hafnians reaches from {0..n-1},
    n even, as its levels: those of size n - 2k of {k..n-1}, for k from
    n/2 - 1 down to 0."""
    return (itertools.combinations(range(k, n), n - 2 * k)
            for k in range(n // 2 - 1, -1, -1))


def _hafnians(rows, one, levels) -> dict:
    """{S: haf of rows restricted to S} for S empty and every index set in
    levels, as a bitmask.

    levels lists the sets as ascending index tuples, by size, smallest
    first; a set's children, S minus its least element i and a partner
    j, must be empty or in an earlier level. Each set sums its terms over
    j ascending, skips a zero a_{i,j} and starts from its first term (an
    empty sum is one - one), as the top-down recursion would, so float
    values are that recursion's to the bit.

    From a root R, the expansion reaches S (besides the empty set)
    exactly when |R - S| = 2k and at least k elements of R lie below
    min S: each step removes the least element left and one more, so the
    k least elements removed lie below min S; and pairing the elements of
    R - S smallest with largest is such a path. From {0..N-1} these are
    the sets of size N - 2k of {k..N-1}, with the empty set F(N+1) sets
    (Fibonacci).
    """
    bit = [1 << j for j in range(len(rows))]
    zero = one - one
    haf = {0: one}
    for level in levels:
        for c in level:
            i = c[0]
            row = rows[i]
            partners = c[1:]
            rest = 0
            for j in partners:
                rest |= bit[j]
            acc = None
            for j in partners:
                entry = row[j]
                if entry:
                    t = entry * haf[rest ^ bit[j]]
                    acc = t if acc is None else acc + t
            haf[rest | bit[i]] = zero if acc is None else acc
    return haf


@functools.lru_cache(maxsize=None)
def _doubled_levels(n: int) -> tuple:
    """The index sets of a doubled matrix, of dimension 2n, that the
    expansion of _hafnians reaches from the roots, the unions of T and
    T + n over the subsets T of {0..n-1}, as its levels: with the empty
    set, 2 * 3^(n-1) sets for n >= 1.

    Write S as the union of P and Q + n, P and Q subsets of {0..n-1}. S
    is reached from some root exactly when it is from the root of
    T = P | Q, as a further t in T costs two more removals and lifts the
    count below min S by at most one. With P empty that holds when |Q|
    is even. Otherwise, with m = min P, b = |Q below m| and d the number
    of elements of {m..n-1} in exactly one of P and Q, the removals
    number b + d and b elements of the root lie below m, so S is reached
    when d <= b and d = b mod 2. One scan of x = 0..n-1 puts x in P, in
    Q, in both or in neither, keeping only the choices with d <= b, and
    checks the parity at the end. The levels depend on n alone, and the
    identity suite asks for the same few n again and again, so each n is
    enumerated once per process.
    """
    # (P, Q + n, b, d), d None while P is empty
    states = [((), (), 0, None)]
    for x in range(n):
        y = x + n
        grown = []
        for low, high, b, d in states:
            if d is None:
                grown += [(low, high, b, None), (low, high + (y,), b + 1, None),
                          (low + (x,), high + (y,), b, 0)]
                if b:
                    grown.append((low + (x,), high, b, 1))
            else:
                grown += [(low, high, b, d), (low + (x,), high + (y,), b, d)]
                if d < b:
                    grown += [(low + (x,), high, b, d + 1),
                              (low, high + (y,), b, d + 1)]
        states = grown
    levels = [[] for _ in range(n)]
    for low, high, b, d in states:
        if (b - (d or 0)) % 2 == 0 and (low or high):
            levels[(len(low) + len(high)) // 2 - 1].append(low + high)
    return tuple(map(tuple, levels))


def doubled_hafnian_table(A: Matrix, cap=None) -> ScaledTable:
    """haf(doubled(A[T])) for every index set T of a real symmetric A:
    doubled(A) restricted to T and T + n is doubled(A[T]), so one
    bottom-up _hafnians on L*doubled(A), doubled from A's cleared rows,
    over the sets its roots reach, serves every T, entry T carrying
    L^|T|. L is the common denominator of A's entries (1 for float A)."""
    if A.kind in FLOAT_KINDS:
        L, rows, one = 1, A.rows, ONE_OF[A.kind]
    else:
        (L, rows, _), one = A.cleared, 1
    rows = doubled_rows(A, rows)
    _check_cap("hafnian", 2 * A.n, cap)
    haf = _hafnians(rows, one, _doubled_levels(A.n))
    return ScaledTable(A.kind, L,
                       [haf[T | T << A.n] for T in range(1 << A.n)], None)


def alpha_determinant(A: Matrix, alpha, cap=None):
    """det_alpha(A) = alpha^n per_{1/alpha}(A); alpha must be invertible."""
    alpha = require_alpha_kind(A, alpha)
    if not alpha:
        raise DomainError("alpha_determinant needs alpha != 0")
    inv = ONE_OF[scalar_kind(alpha)] / alpha
    return alpha ** A.n * per_alpha_dp(A, inv, cap=cap)


def diagonal_product(A: Matrix):
    prod = ONE_OF[A.kind]
    for i in range(A.n):
        prod = prod * A.rows[i][i]
    return prod
