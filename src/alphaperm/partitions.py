"""Set partitions of {0..n-1} and the expansion formulas built on them.

A partition is carried as a restricted-growth string (rgs): rgs[i] is the
block label of element i, labels appear in order of first use. Blocks are
exposed as index-set bitmasks ordered by smallest element.

The expansion formulas (B = A[I] denotes principal submatrices):

  sum formula      per_{b_1+...+b_m}(A) = sum over functions
                   g: {0..n-1} -> {1..m} of prod_j per_{b_j}(A[g^-1(j)]),
                   empty preimages contributing 1.

  per_beta_k       per_beta(A, k) = sum over ordered k-tuples of disjoint
                   nonempty blocks covering {0..n-1} of prod per_beta(block)
                   = k! * sum over k-block partitions of the same product.

  product formula  per_{alpha*beta}(A) = sum_{k=1}^n binom(alpha, k)
                   * per_beta(A, k).

  half formula     per_{alpha/2}(A) = 2^-n * sum_{k=1}^n binom(alpha, k)
                   * k! * sum over k-block partitions of
                     prod_j haf(doubled(A[I_j]))   (A real symmetric).

None of them enumerates partitions: they read one kernels.ScaledTable over
every index set T, per_beta(A[T]) from kernels.per_alpha_minors or
haf(doubled(A[T])) from kernels.doubled_hafnian_table.
graded_partition_sums sums the block products over the k-block partitions
of every T, by the anchored recursion of fast subset convolution
(Bjorklund, Husfeldt, Kaski, Koivisto 2007); the sum formula is an m-fold
subset convolution, O(m 3^n). On kernels.cycle_sum_table, over the index
sets the full-set DP walks, the same recursion gives cycle_polynomials:
per_alpha(A[T]) = sum over k of alpha^k c_k(A[T]), c_k summing prod C(B)
over the k-block partitions of T, for every alpha at once, for the full
set and every T without element 0, and for any other T in one more step.
It runs on the cycle table's entries as its ring() hands them out, and
hands out its own rows only evaluated, as CyclePolynomials.at(x, y, T):
no other module reads the rows. shape_partition_sums runs the same
recursion keyed by block shape, for the shape averages of inequalities.
Both run on table.ring(): exact entries stay in the kernels' integers,
entry T carrying base^|T|, so a product over a partition of the full set
carries base^n, and the ring's unit divides it out once.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import NamedTuple

from .errors import DomainError
from .kernels import (
    _dp_masks,
    cycle_sum_table,
    doubled_hafnian_table,
    kept,
    per_alpha_minors,
    require_alpha_kind,
)
from .matrices import Matrix
from .scalars import ONE_OF, as_scalar, gen_binomial, scalar_kind


class SetPartition:
    """A set partition of {0..n-1} in restricted-growth form."""

    __slots__ = ("rgs", "blocks")

    def __init__(self, rgs):
        rgs = tuple(rgs)
        k = 0
        blocks = []
        for i, label in enumerate(rgs):
            if label == k:
                blocks.append(0)
                k += 1
            elif not 0 <= label < k:
                raise DomainError("not a restricted-growth string: %r" % (rgs,))
            blocks[label] |= 1 << i
        object.__setattr__(self, "rgs", rgs)
        object.__setattr__(self, "blocks", tuple(blocks))

    def __setattr__(self, name, value):
        raise AttributeError("SetPartition is immutable")

    @property
    def n(self) -> int:
        return len(self.rgs)

    @property
    def k(self) -> int:
        return len(self.blocks)

    def shape(self) -> tuple:
        """Block sizes, largest first."""
        return tuple(sorted((b.bit_count() for b in self.blocks), reverse=True))

    def __eq__(self, other):
        if not isinstance(other, SetPartition):
            return NotImplemented
        return self.rgs == other.rgs

    def __hash__(self):
        return hash(self.rgs)

    def __repr__(self):
        return "SetPartition(%r)" % (self.rgs,)


def enumerate_partitions(n: int, k: int = None):
    """Yield all set partitions of {0..n-1} in lexicographic rgs order.

    With k given, only partitions with exactly k blocks (still in lex order).
    """
    if n < 0:
        raise DomainError("enumerate_partitions needs n >= 0")
    if n == 0:
        # the empty set has exactly one partition, with no blocks
        if k in (None, 0):
            yield SetPartition(())
        return
    if k is not None and not 1 <= k <= n:
        raise DomainError("block count k=%r outside 1..%d" % (k, n))
    rgs = [0] * n
    top = [0] * n   # top[i] = max(rgs[:i + 1]); the block count is top[-1] + 1
    while True:
        if k is None or top[-1] + 1 == k:
            yield SetPartition(rgs)
        # Advance: rightmost position that can grow by one; reset the tail.
        i = n - 1
        while i > 0:
            if rgs[i] <= top[i - 1]:
                rgs[i] += 1
                top[i] = max(top[i - 1], rgs[i])
                for j in range(i + 1, n):
                    rgs[j] = 0
                    top[j] = top[i]
                break
            i -= 1
        else:
            return


def enumerate_shape_partitions(n: int, shape):
    """Partitions of {0..n-1} whose sorted block sizes equal the given shape."""
    shape = tuple(sorted(shape, reverse=True))
    if sum(shape) != n or any(s < 1 for s in shape):
        raise DomainError("shape %r is not a partition of %d" % (shape, n))
    for part in enumerate_partitions(n, k=len(shape)):
        if part.shape() == shape:
            yield part


def bell_number(n: int) -> int:
    """Number of set partitions of an n-set (Bell triangle recurrence)."""
    if n < 0:
        raise DomainError("bell_number needs n >= 0")
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[0]


def stirling2(n: int, k: int) -> int:
    """Number of partitions of an n-set into exactly k blocks."""
    if n < 0 or k < 0:
        raise DomainError("stirling2 needs n, k >= 0")
    if k > n:
        return 0
    prev = [1] + [0] * k
    for m in range(1, n + 1):
        cur = [0] * (k + 1)
        for j in range(1, min(m, k) + 1):
            cur[j] = j * prev[j] + prev[j - 1]
        prev = cur
    return prev[k]


def shape_partition_count(n: int, shape) -> int:
    """Number of set partitions of an n-set with the given block sizes."""
    shape = tuple(sorted(shape, reverse=True))
    if sum(shape) != n or any(s < 1 for s in shape):
        raise DomainError("shape %r is not a partition of %d" % (shape, n))
    count = math.factorial(n)
    for s in shape:
        count //= math.factorial(s)
    for m in Counter(shape).values():
        count //= math.factorial(m)
    return count


# ---------------------------------------------------------------------------
# expansion formulas
# ---------------------------------------------------------------------------

def graded_partition_sums(f, n: int, masks=None) -> list:
    """P[T][k] = sum over k-block set partitions of T of prod f(block), for
    every index set T (a bitmask) and 0 <= k <= |T|; P[T][0] is the int 0
    for nonempty T.

    f is indexed by bitmask (f[0] is not read), over any commutative ring:
    ints, Fractions, floats, GaussianRationals. As in the subset DP of
    per_alpha_dp, the block through min(T) is distinguished:
    P[T][k] = sum over S subseteq T with min(T) in S of f(S) P[T - S][k-1].
    The terms with k = 1 and S != T read P[T - S][0] = 0 and are skipped,
    so on a pair (T, S) the step costs |T - S| multiply-adds, or one for
    S = T. With masks, only those index sets are filled, in
    kernels._dp_masks order, and the others stay None.
    """
    P = [[1]] + [None] * ((1 << n) - 1)
    for mask in range(1, 1 << n) if masks is None else masks:
        P[mask] = _graded_row(f, P, mask)
    return P


def _graded_row(f, P, mask: int) -> list:
    """Row mask of graded_partition_sums from the rows P already holds:
    those of the index sets mask - S, for S subseteq mask with min(mask)
    in S."""
    lowbit = mask & -mask
    rest = mask ^ lowbit
    row = [0] * (mask.bit_count() + 1)
    row[1] += f[mask]
    s = (rest - 1) & rest
    while s != rest:
        w = f[lowbit | s]
        Q = P[rest ^ s]
        for k in range(1, len(Q)):
            row[k + 1] += w * Q[k]
        s = (s - 1) & rest
    return row


def shape_partition_sums(f, n: int) -> dict:
    """{shape: sum over set partitions of {0..n-1} with that shape of
    prod f(block)}, shapes as block sizes largest first; a shape no
    partition has is absent, and n = 0 gives {(): 1}.

    f is read as by graded_partition_sums, whose anchored recursion this
    runs keyed by shape instead of block count:
    P[T][shape] = sum over S subseteq T with min(T) in S of
    f(S) P[T - S][shape minus one part |S|].
    """
    size = 1 << n
    P = [{(): 1}] + [None] * (size - 1)
    for mask in range(1, size):
        lowbit = mask & -mask
        rest = mask ^ lowbit
        row = {}
        s = rest
        while True:
            block = lowbit | s
            w = f[block]
            b = block.bit_count()
            for shape, v in P[rest ^ s].items():
                key = tuple(sorted(shape + (b,), reverse=True))
                row[key] = row.get(key, 0) + w * v
            if s == 0:
                break
            s = (s - 1) & rest
        P[mask] = row
    return P[-1]


class CyclePolynomials(NamedTuple):
    """A's cycle polynomials, kept by cycle_polynomials: row(T)[k] is
    L^|T| c_k(A[T]), where c_k(A[T]) sums prod over blocks B of C(B) over
    the k-block partitions of T, so per_alpha(A[T]) = sum over k of
    alpha^k c_k(A[T]). L (base) is the base of A's cycle table and f its
    entries as the table hands them out: ints, or GaussianRationals with
    integer parts when the table keeps imaginary parts (never for
    Hermitian A), as are the rows; for a float A, floats or complex
    floats, with base 1. rows holds the rows of the index sets the
    full-set DP walks; any other row T is built on first read from those,
    as T - S never holds element 0.
    """
    base: int
    f: list
    rows: list

    def row(self, mask: int) -> list:
        row = self.rows[mask]
        if row is None:
            row = self.rows[mask] = _graded_row(self.f, self.rows, mask)
        return row

    def at(self, x, y, mask: int = -1):
        """sum over k of row(T)[k] x^k y^(|T|-k), T the full set when left
        out, in the rows' ring. At x/y = alpha it is (y L)^|T|
        per_alpha(A[T])."""
        c = self.rows[mask] or self.row(mask)
        n = len(c) - 1
        total = c[n]
        y_pow = 1
        for k in range(n - 1, -1, -1):
            y_pow *= y
            total = total * x + c[k] * y_pow
        return total

    def per_by_k(self, beta) -> list:
        """[L^n per_beta(A, k) for k = 0..n] in the rows' ring, from the
        full set's row: per_beta(A, k) = k! sum over j of S(j, k) beta^j
        c_j(A), as the k-block partitions of a permutation's j cycles
        number S(j, k)."""
        c = self.rows[-1]
        n = len(c) - 1
        return [math.factorial(k) * sum(stirling2(j, k) * beta ** j * c[j]
                                        for j in range(k, n + 1))
                for k in range(n + 1)]


def cycle_polynomials(A: Matrix) -> CyclePolynomials:
    """A's CyclePolynomials, which A keeps. The build makes
    (3^(n-2) (2n - 5) + 1)/4 + 2^(n-1) + (n-1) 2^(n-2) multiply-adds
    (n >= 2), about (2n - 5)/6 times the subset pairs of one full-set DP.
    """
    def build():
        n = A.n
        C = cycle_sum_table(A)
        f, _ = C.ring()
        rows = graded_partition_sums(f, n, _dp_masks(n, full_set=True))
        return CyclePolynomials(C.base, f, rows)

    return kept(A, "cycle-polynomial", build)


def _subset_convolution(F, G, n: int) -> list:
    """H(T) = sum over S subseteq T of F(T minus S) G(S), for every T."""
    H = []
    for mask in range(1 << n):
        acc = 0
        s = mask
        while True:
            acc += F[mask ^ s] * G[s]
            if s == 0:
                break
            s = (s - 1) & mask
        H.append(acc)
    return H


def per_beta_by_k(minors) -> list:
    """[per_beta(A, k) for k = 0..n] from minors = per_alpha_minors(A, beta):
    one graded table serves every k."""
    f, unit = minors.ring()
    row = graded_partition_sums(f, len(minors).bit_length() - 1)[-1]
    return [math.factorial(k) * x * unit for k, x in enumerate(row)]


def per_beta_k(A: Matrix, beta, k: int, cap=None):
    """per_beta(A, k): ordered k-tuples of nonempty blocks, as k! times the
    unordered sum."""
    n = A.n
    if not 1 <= k <= n:
        raise DomainError("per_beta_k needs 1 <= k <= n, got k=%r n=%d" % (k, n))
    return per_beta_by_k(per_alpha_minors(A, beta, cap=cap))[k]


def sum_formula_rhs(A: Matrix, betas, cap=None):
    """Right-hand side of the sum formula for per_{b_1 + ... + b_m}(A).

    The m-fold subset convolution of the principal-minor tables at
    b_1..b_m, which share A's cycle table: O(m 3^n) subset pairs. cap is
    the DP size cap.
    """
    betas = [as_scalar(b) for b in betas]
    if not betas:
        raise DomainError("sum_formula_rhs needs at least one beta")
    n = A.n
    if n == 0:
        return ONE_OF[scalar_kind(betas[0])]
    tables = [per_alpha_minors(A, b, cap=cap) for b in betas]
    base = math.lcm(*(M.base for M in tables))
    total, unit = tables[0].ring(base)
    for M in tables[1:]:
        total = _subset_convolution(total, M.ring(base)[0], n)
    return total[-1] * unit


def product_formula_rhs(A: Matrix, alpha, beta, cap=None):
    """sum_{k=1}^n binom(alpha, k) per_beta(A, k), equal to per_{alpha beta}(A);
    every k reads one graded table."""
    n = A.n
    if n < 1:
        raise DomainError("product_formula_rhs needs n >= 1")
    alpha = require_alpha_kind(A, alpha)
    ks = per_beta_by_k(per_alpha_minors(A, beta, cap=cap))
    return sum(gen_binomial(alpha, k) * ks[k] for k in range(1, n + 1))


def half_formula_rhs(A: Matrix, alpha, cap=None):
    """Hafnian expansion of per_{alpha/2} for real symmetric A:

        2^-n sum_{k=1}^n binom(alpha, k) k!
             sum over k-block partitions of prod_j haf(doubled(A[I_j]))

    The blocks come from doubled_hafnian_table(A); cap is the hafnian cap
    on dimension 2n.
    """
    n = A.n
    if n < 1:
        raise DomainError("half_formula_rhs needs n >= 1")
    if not A.is_symmetric_entrywise():
        raise DomainError("half_formula_rhs needs a symmetric matrix")
    alpha = require_alpha_kind(A, alpha)
    f, unit = doubled_hafnian_table(A, cap=cap).ring()
    row = graded_partition_sums(f, n)[-1]
    total = sum(gen_binomial(alpha, k) * math.factorial(k) * row[k]
                for k in range(1, n + 1))
    return total * unit / 2 ** n
