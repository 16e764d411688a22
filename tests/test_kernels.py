"""Kernel correctness against independent brute-force oracles.

The oracles here are written from the definitions, not shared with the
package: permanents by permutation sums, hafnians by recursive matching
enumeration, cycle sums by enumerating cyclic arrangements directly.
"""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from alphaperm import kernels
from alphaperm.errors import CapacityError, DomainError, MixedModeError
from alphaperm import fastpath
from alphaperm.inequalities import shape_averages
from alphaperm.kernels import (
    alpha_determinant,
    cycle_sum_table,
    determinant,
    diagonal_product,
    doubled_hafnian_table,
    hafnian,
    per_alpha_dp,
    per_alpha_minors,
    per_alpha_naive,
    permanent,
    require_alpha_kind,
)
from alphaperm.matrices import (
    HERMITIAN,
    Matrix,
    doubled,
    full_mask,
    indices_from_mask,
    random_matrix,
    random_psd,
    random_symmetric_matrix,
    submatrix,
)
from alphaperm.scalars import (
    GaussianRational,
    clear_denominators,
    from_scaled,
    to_float_scalar,
)

F = Fraction
G = GaussianRational


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def oracle_permanent(A):
    n = A.n
    total = 0
    for pi in itertools.permutations(range(n)):
        prod = 1
        for i in range(n):
            prod = prod * A.entry(i, pi[i])
        total = total + prod
    return total if n else Fraction(1)


def oracle_determinant(A):
    n = A.n
    total = 0
    for pi in itertools.permutations(range(n)):
        inversions = sum(
            1 for i in range(n) for j in range(i + 1, n) if pi[i] > pi[j]
        )
        prod = 1 if inversions % 2 == 0 else -1
        for i in range(n):
            prod = prod * A.entry(i, pi[i])
        total = total + prod
    return total if n else Fraction(1)


def oracle_hafnian(A):
    """Sum over perfect matchings by explicit recursion on index lists."""
    def rec(idx):
        if not idx:
            return 1
        i = idx[0]
        total = 0
        for pos in range(1, len(idx)):
            j = idx[pos]
            rest = idx[1:pos] + idx[pos + 1:]
            total = total + A.entry(i, j) * rec(rest)
        return total

    return rec(list(range(A.n)))


def oracle_per_alpha(A, alpha):
    n = A.n
    total = 0
    for pi in itertools.permutations(range(n)):
        seen = [False] * n
        cycles = 0
        for s in range(n):
            if not seen[s]:
                cycles += 1
                j = s
                while not seen[j]:
                    seen[j] = True
                    j = pi[j]
        prod = alpha ** cycles
        for i in range(n):
            prod = prod * A.entry(i, pi[i])
        total = total + prod
    return total if n else alpha ** 0


def oracle_cycle_sum(A, indices):
    """Sum over cyclic arrangements of the index set of the entry products."""
    indices = list(indices)
    if len(indices) == 1:
        return A.entry(indices[0], indices[0])
    first, rest = indices[0], indices[1:]
    total = 0
    for order in itertools.permutations(rest):
        cycle = (first,) + order
        prod = 1
        for a, b in zip(cycle, cycle[1:] + (first,)):
            prod = prod * A.entry(a, b)
        total = total + prod
    return total


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------

class TestPermanent:
    def test_small_pinned(self):
        assert permanent(Matrix([], kind="rational")) == 1
        assert permanent(Matrix([[F(7)]])) == 7
        assert permanent(Matrix([[F(1), F(2)], [F(3), F(4)]])) == 10
        assert permanent(Matrix.identity(5, "rational")) == 1

    def test_all_ones(self):
        for n in range(1, 7):
            A = Matrix([[F(1)] * n for _ in range(n)])
            assert permanent(A) == math.factorial(n)

    @pytest.mark.parametrize("n", range(6))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_vs_oracle(self, n, seed):
        A = random_matrix(n, "rational", scale=4, seed=seed)
        assert permanent(A) == oracle_permanent(A)

    def test_vs_oracle_complex(self):
        for seed in range(4):
            A = random_matrix(4, "complex-rational", scale=3, seed=seed)
            assert permanent(A) == oracle_permanent(A)

    def test_cap(self):
        A = Matrix.identity(6, "rational")
        with pytest.raises(CapacityError):
            permanent(A, cap=5)

    def test_float_accuracy_pinned(self):
        # positive entries p/q, 1 <= p, q <= 3, at n = 13: Glynn's sums
        # stay within about 1e-15 of the exact value here, where Ryser's
        # alternating subset sums cancel down to about 2e-11
        rng = random.Random(0)
        A = Matrix([[F(rng.randint(1, 3), rng.randint(1, 3))
                     for _ in range(13)] for _ in range(13)])
        exact = permanent(A)
        assert abs(F(permanent(A.to_float())) - exact) <= exact / 10 ** 12


class TestDeterminant:
    @pytest.mark.parametrize("n", range(6))
    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_vs_oracle(self, n, seed):
        A = random_matrix(n, "rational", scale=4, seed=seed)
        assert determinant(A) == oracle_determinant(A)

    def test_vs_oracle_complex(self):
        for seed in range(4):
            A = random_matrix(4, "complex-rational", scale=3, seed=seed)
            assert determinant(A) == oracle_determinant(A)

    def test_singular(self):
        A = Matrix([[F(1), F(2)], [F(2), F(4)]])
        assert determinant(A) == 0
        B = Matrix([[F(0), F(1)], [F(0), F(2)]])
        assert determinant(B) == 0

    def test_needs_pivoting(self):
        A = Matrix([[F(0), F(1)], [F(1), F(0)]])
        assert determinant(A) == -1

    def test_float_route(self):
        A = random_matrix(5, "rational", scale=4, seed=8)
        exact = determinant(A)
        approx = determinant(A.to_float())
        assert approx == pytest.approx(float(exact), rel=1e-10, abs=1e-12)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), n=st.integers(1, 6), complex_entries=st.booleans())
    def test_float_is_the_rounded_exact_determinant(self, data, n,
                                                    complex_entries):
        # wide exponents, subnormals included, kept where n! products of
        # n entries stay below binary64's range
        part = st.floats(-1e40, 1e40, allow_nan=False, allow_infinity=False)
        entry = st.builds(complex, part, part) if complex_entries else part
        rows = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                                  min_size=n, max_size=n))
        Af = Matrix(rows)
        exact = Matrix([[G(x.real, x.imag) if complex_entries else F(x)
                         for x in row] for row in rows])
        # the oracle, not Bareiss: per_{-1}(A) = (-1)^n det(A)
        ref = (-1) ** n * per_alpha_naive(exact, F(-1))
        got = determinant(Af)
        if complex_entries:
            assert type(got) is complex
            assert got == complex(float(ref.re), float(ref.im))
        else:
            assert type(got) is float and got == float(ref)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_float_overflow_rounds_to_inf(self, sign):
        A = Matrix([[1e200, 0.0], [0.0, sign * 1e200]])
        assert determinant(A) == sign * math.inf
        # complex rounds per part: only the part beyond range is infinite
        C = Matrix([[1e200 + 0j, 0j], [0j, sign * 1e200 + 1j]])
        assert determinant(C) == complex(sign * math.inf, 1e200)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan,
                                     complex(1, math.inf),
                                     complex(math.nan, 0)])
    def test_float_non_finite_entry(self, bad):
        with pytest.raises(DomainError):
            determinant(Matrix([[1.0, bad], [0.0, 1.0]]))


class TestHafnian:
    def test_small_pinned(self):
        assert hafnian(Matrix([], kind="rational")) == 1
        A = Matrix([[F(0), F(5)], [F(5), F(0)]], real_symmetric=True)
        assert hafnian(A) == 5
        # diagonal entries never contribute
        B = Matrix([[F(9), F(5)], [F(5), F(9)]], real_symmetric=True)
        assert hafnian(B) == 5

    def test_doubled_identity(self):
        # doubled I_2 is the 4x4 all-ones-in-blocks pattern with 3 matchings:
        # {12,34}, {13,24}, {14,23} contribute 0*0? enumerated by the oracle
        D = doubled(Matrix.identity(2, "rational"))
        assert hafnian(D) == oracle_hafnian(D)

    def test_odd_dimension_rejected(self):
        with pytest.raises(DomainError):
            hafnian(Matrix([[F(1)]]))

    def test_asymmetric_rejected(self):
        with pytest.raises(DomainError):
            hafnian(Matrix([[F(0), F(1)], [F(2), F(0)]]))

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_vs_oracle(self, n):
        for seed in range(3):
            A = random_symmetric_matrix(n, scale=4, seed=seed + 10 * n)
            assert hafnian(A) == oracle_hafnian(A)

    def test_matching_count(self):
        for n in (2, 4, 6, 8):
            A = Matrix([[F(1)] * n for _ in range(n)], real_symmetric=True)
            expect = 1
            for k in range(1, n, 2):
                expect *= k
            assert hafnian(A) == expect  # (n-1)!! perfect matchings

    def test_cap(self):
        A = Matrix([[F(1)] * 8 for _ in range(8)], real_symmetric=True)
        with pytest.raises(CapacityError):
            hafnian(A, cap=7)


def _recursive_hafnian(A):
    """The lowest-index expansion of A as a memoized top-down recursion,
    on A's entries: its order of terms is the reference for float and
    GaussianRational bits."""
    rows, one = A.rows, A.rows[0][0] * 0 + 1
    memo = {0: one}

    def rec(mask):
        if mask not in memo:
            ibit = mask & -mask
            i, rest = ibit.bit_length() - 1, mask ^ ibit
            acc = None
            for j in indices_from_mask(rest):
                if rows[i][j]:
                    t = rows[i][j] * rec(rest ^ 1 << j)
                    acc = t if acc is None else acc + t
            memo[mask] = one - one if acc is None else acc
        return memo[mask]

    return rec(full_mask(A.n))


def _symmetric(n, kind, zeros, seed):
    """A random symmetric n x n matrix of kind, each entry zero with
    probability zeros; float zeros are signed at random."""
    rng = random.Random("%s:%d:%s:%d" % (kind, n, zeros, seed))
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            x = F(rng.randint(-9, 9), rng.randint(1, 6))
            if rng.random() < zeros:
                x = F(0)
            if kind == "complex-rational":
                x = G(x, 0 if not x else F(rng.randint(-5, 5),
                                             rng.randint(1, 4)))
            elif kind == "float":
                x = float(x) or rng.choice((0.0, -0.0))
            rows[i][j] = rows[j][i] = x
    return Matrix(rows, kind=kind)


def _reached(roots) -> set:
    """The nonempty index sets the lowest-index expansion reaches from
    roots, by a plain search."""
    seen, stack = set(), list(roots)
    while stack:
        mask = stack.pop()
        if mask and mask not in seen:
            seen.add(mask)
            ibit = mask & -mask
            rest = mask ^ ibit
            stack += [rest ^ 1 << j for j in indices_from_mask(rest)]
    return seen


def _level_masks(levels) -> list:
    """The sets of levels as masks, checking that each level holds
    ascending tuples of one size, the sizes ascending by two."""
    masks = []
    for size, level in enumerate(levels, 1):
        for c in level:
            assert len(c) == 2 * size and list(c) == sorted(set(c))
            masks.append(sum(1 << j for j in c))
    return masks


class TestBottomUpHafnian:
    @pytest.mark.parametrize("kind", ["rational", "complex-rational",
                                      "float"])
    @pytest.mark.parametrize("n", range(0, 13, 2))
    def test_equals_the_oracle_and_the_recursion(self, kind, n):
        for zeros, seed in ((0, 0), (0.3, 1), (0.6, 2)):
            A = _symmetric(n, kind, zeros, seed)
            got = hafnian(A)
            if n:
                reference = _recursive_hafnian(A)
                assert type(got) is type(reference)
                assert repr(got) == repr(reference)
            if kind == "float":
                exact = Matrix([[F(x) for x in row] for row in A.rows])
                bound = oracle_hafnian(Matrix([[abs(x) for x in row]
                                               for row in exact.rows]))
                assert abs(F(got) - oracle_hafnian(exact)) <= bound * 1e-12
            else:
                assert got == oracle_hafnian(A)

    def test_signed_zeros_and_empty_sums(self):
        # row 0 meets only zeros: every term is skipped, the sum is 0.0
        A = Matrix([[1.0, -0.0, 0.0, -0.0], [-0.0, 1.0, 2.0, 3.0],
                    [0.0, 2.0, 1.0, -4.0], [-0.0, 3.0, -4.0, 1.0]])
        assert repr(hafnian(A)) == repr(_recursive_hafnian(A)) == "0.0"
        B = Matrix([[0.0, -0.0], [-0.0, 0.0]])
        assert repr(hafnian(B)) == "0.0"
        # the first term is a_01 * haf(empty) = a_01 * (1+0j), whose real
        # part is -0.0 - (-1.0 * 0.0) = 0.0: a_01 itself would keep -0.0
        a01 = complex(-0.0, -1.0)
        C = Matrix([[0j, a01], [a01, 0j]])
        assert repr(hafnian(C)) == repr(_recursive_hafnian(C)) == "-1j"

    @pytest.mark.parametrize("n", range(0, 15, 2))
    def test_full_set_levels_are_the_reached_sets(self, n):
        masks = _level_masks(list(kernels._full_set_levels(n)))
        assert len(masks) == len(set(masks))
        assert set(masks) == _reached([full_mask(n)])
        fib = [0, 1]
        while len(fib) <= n + 1:
            fib.append(fib[-1] + fib[-2])
        assert len(masks) == fib[n + 1] - 1     # the empty set is not listed

    @pytest.mark.parametrize("n", range(0, 7))
    def test_doubled_levels_are_the_reached_sets(self, n):
        levels = kernels._doubled_levels(n)
        assert len(levels) == n
        masks = _level_masks(levels)
        assert len(masks) == len(set(masks))
        assert set(masks) == _reached([T | T << n for T in range(1 << n)])
        assert len(masks) == (2 * 3 ** (n - 1) - 1 if n else 0)

    @pytest.mark.parametrize("kind", ["rational", "float"])
    @pytest.mark.parametrize("n", range(0, 6))
    def test_table_entries_are_hafnians_of_the_doubled_blocks(self, kind,
                                                              n):
        for zeros, seed in ((0, 0), (0.4, 1)):
            A = _symmetric(n, kind, zeros, seed)
            table = doubled_hafnian_table(A)
            for T in range(1 << n):
                expect = hafnian(doubled(submatrix(A, T)))
                assert table[T] == expect
                assert repr(table[T]) == repr(expect)


class TestCycleSum:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_vs_oracle(self, seed):
        A = random_matrix(5, "rational", scale=4, seed=seed)
        table = cycle_sum_table(A)
        for mask in range(1, 1 << 5):
            combo = indices_from_mask(mask)
            assert table[mask] == oracle_cycle_sum(A, combo), combo

    def test_table_matches_single(self):
        # every entry of a complex table against the one-subset oracle
        A = random_matrix(5, "complex-rational", scale=3, seed=7)
        table = cycle_sum_table(A)
        for mask in range(1, 1 << 5):
            assert table[mask] == oracle_cycle_sum(A, indices_from_mask(mask))


class TestPerAlpha:
    def test_empty_matrix_is_one(self):
        A = Matrix([], kind="rational")
        assert per_alpha_dp(A, F(7, 3)) == 1
        assert per_alpha_naive(A, F(7, 3)) == 1

    def test_worked_2x2(self):
        # [[1,2],[3,4]]: identity perm has 2 cycles (a^2 * 4), swap has 1
        # cycle (a * 6)
        A = Matrix([[F(1), F(2)], [F(3), F(4)]])
        a = F(5, 3)
        assert per_alpha_naive(A, a) == 4 * a * a + 6 * a
        assert per_alpha_dp(A, a) == 4 * a * a + 6 * a
        assert per_alpha_dp(A, F(-1)) == -2  # (-1)^n det A

    @pytest.mark.parametrize("n", range(7))
    def test_dp_vs_naive_vs_oracle(self, n):
        for seed in (0, 1):
            A = random_matrix(n, "rational", scale=4, seed=seed + 10 * n)
            for a in (F(0), F(1), F(-1), F(1, 2), F(-7, 5), F(3)):
                expect = oracle_per_alpha(A, a)
                assert per_alpha_naive(A, a) == expect
                assert per_alpha_dp(A, a) == expect

    def test_complex_alpha_complex_matrix(self):
        A = random_matrix(4, "complex-rational", scale=3, seed=2)
        a = G(F(1, 2), F(-1, 3))
        expect = oracle_per_alpha(A, a)
        assert per_alpha_naive(A, a) == expect
        assert per_alpha_dp(A, a) == expect

    def test_specializations(self):
        for seed in range(5):
            A = random_matrix(5, "rational", scale=4, seed=seed)
            n = A.n
            assert per_alpha_dp(A, F(1)) == permanent(A)
            det_sign = determinant(A) if n % 2 == 0 else -determinant(A)
            assert per_alpha_dp(A, F(-1)) == det_sign

    def test_wick_half(self):
        for seed in range(5):
            A = random_symmetric_matrix(4, scale=4, seed=seed)
            lhs = per_alpha_dp(A, F(1, 2)) * 2 ** 4
            assert lhs == hafnian(doubled(A))

    def test_alpha_kind_mixing_rejected(self):
        A = random_matrix(3, "rational", scale=3, seed=0)
        with pytest.raises(MixedModeError):
            per_alpha_dp(A, 0.5)
        with pytest.raises(MixedModeError):
            per_alpha_naive(A, 0.5)
        with pytest.raises(MixedModeError):
            require_alpha_kind(A, 1.5)

    def test_float_matrix_takes_float_alpha(self):
        A = random_matrix(4, "rational", scale=3, seed=3)
        exact = per_alpha_dp(A, F(3, 2))
        approx = per_alpha_dp(A.to_float(), 1.5)
        assert approx == pytest.approx(float(exact), rel=1e-10)

    def test_caps(self):
        A = Matrix.identity(4, "rational")
        with pytest.raises(CapacityError):
            per_alpha_dp(A, F(1), cap=3)
        with pytest.raises(CapacityError):
            per_alpha_naive(A, F(1), cap=3)
        with pytest.raises(CapacityError):
            per_alpha_minors(A, F(1), cap=3)

    def test_identity_and_all_ones_values(self):
        a = F(2, 3)
        for n in range(1, 6):
            # only the identity permutation survives on I_n
            assert per_alpha_dp(Matrix.identity(n, "rational"), a) == a ** n
            # on the all-ones matrix the cycle-counting identity gives the
            # rising factorial a(a+1)...(a+n-1)
            J = Matrix([[F(1)] * n for _ in range(n)], real_symmetric=True)
            expect = F(1)
            for k in range(n):
                expect *= a + k
            assert per_alpha_dp(J, a) == expect

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=20, deadline=None)
    def test_dp_vs_naive_random(self, seed):
        A = random_matrix(4, "rational", scale=5, seed=seed)
        a = F(seed % 13 - 6, 1 + seed % 7)
        assert per_alpha_dp(A, a) == per_alpha_naive(A, a)


class TestAlphaDeterminant:
    def test_specializations(self):
        for seed in range(4):
            A = random_matrix(4, "rational", scale=4, seed=seed)
            assert alpha_determinant(A, F(1)) == permanent(A)
            assert alpha_determinant(A, F(-1)) == determinant(A)

    def test_scaling_identity(self):
        A = random_matrix(3, "rational", scale=4, seed=6)
        a = F(3, 7)
        assert alpha_determinant(A, a) == a ** 3 * per_alpha_dp(A, 1 / a)

    def test_zero_alpha_rejected(self):
        A = random_matrix(2, "rational", scale=3, seed=0)
        with pytest.raises(DomainError):
            alpha_determinant(A, F(0))


class TestDiagonalProduct:
    def test_values(self):
        A = Matrix([[F(2), F(5)], [F(7), F(3)]])
        assert diagonal_product(A) == 6
        assert diagonal_product(Matrix([], kind="rational")) == 1


# ---------------------------------------------------------------------------
# integer lane: property tests against the Fraction-only oracle
# ---------------------------------------------------------------------------

# large primes as denominators, so that clearing them grows L quickly
_DENOMINATORS = (1, 2, 3, 7, 9973, 65537, 999983, 1000003, 2147483647)


def _rationals():
    return st.builds(F, st.integers(-10 ** 6, 10 ** 6),
                     st.sampled_from(_DENOMINATORS))


def _scalars(kind):
    if kind == "rational":
        return _rationals()
    return st.builds(G, _rationals(), _rationals())


@st.composite
def exact_matrices(draw, max_n=6, kind=None, hermitian=False):
    """Exact matrices with large coprime denominators; general ones get
    some zero rows, Hermitian ones (real symmetric for the rational kind)
    mirror their upper triangle."""
    kind = kind or draw(st.sampled_from(["rational", "complex-rational"]))
    n = draw(st.integers(0, max_n))
    rows = [[draw(_scalars(kind)) for _ in range(n)] for _ in range(n)]
    if hermitian:
        for i in range(n):
            rows[i][i] = rows[i][i] + rows[i][i].conjugate()
            for j in range(i):
                rows[i][j] = rows[j][i].conjugate()
    else:
        for i in draw(st.sets(st.integers(0, max(n - 1, 0)), max_size=2)):
            if i < n:
                rows[i] = [rows[i][0] * 0] * n
    return Matrix(rows, kind=kind, hermitian=hermitian,
                  real_symmetric=hermitian and kind == "rational")


def any_exact_matrices(max_n=6):
    return st.one_of(exact_matrices(max_n),
                     exact_matrices(max_n, hermitian=True))


_alphas = st.one_of(
    st.just(F(0)),
    _rationals(),
    st.builds(F, st.integers(-9, -1), st.integers(1, 5)),
    st.builds(G, _rationals(), _rationals()),
)


def _same(got, expect):
    assert type(got) is type(expect)
    assert got == expect


def _fresh(A):
    """A copy of A that keeps no tables yet."""
    return submatrix(A, full_mask(A.n))


@st.composite
def exact_matrices_with_zero_line(draw, max_n=7):
    """exact_matrices, some with one row or one column zeroed."""
    A = draw(exact_matrices(max_n))
    line = draw(st.sampled_from([None, "row", "column"]))
    if A.n == 0 or line is None:
        return A
    k = draw(st.integers(0, A.n - 1))
    zero = A.rows[0][0] * 0
    rows = [[zero if k == (j if line == "column" else i) else x
             for j, x in enumerate(row)] for i, row in enumerate(A.rows)]
    return Matrix(rows, kind=A.kind)


class TestIntegerLane:
    @given(any_exact_matrices(), _alphas)
    @settings(max_examples=80, deadline=None)
    def test_dp_equals_naive(self, A, alpha):
        _same(per_alpha_dp(A, alpha), per_alpha_naive(A, alpha))

    @given(any_exact_matrices(), st.lists(_alphas, min_size=2, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_shared_table_equals_unshared(self, A, alphas):
        table = cycle_sum_table(A)
        for alpha in alphas:
            _same(per_alpha_dp(A, alpha, cycle_table=table),
                  per_alpha_dp(_fresh(A), alpha))

    @given(any_exact_matrices(max_n=5))
    @settings(max_examples=40, deadline=None)
    def test_table_entries_are_exact_cycle_sums(self, A):
        table = cycle_sum_table(A)
        assert len(table) == 1 << A.n
        assert table[0] is None
        for mask in range(1, 1 << A.n):
            _same(table[mask], oracle_cycle_sum(A, indices_from_mask(mask)))

    @given(exact_matrices_with_zero_line())
    @example(Matrix([[F(5, 7)]]))
    @example(Matrix([[G(3, -2)]]))
    @settings(max_examples=60, deadline=None)
    def test_permanent_equals_naive_and_dp(self, A):
        per = permanent(A)
        _same(per, per_alpha_naive(A, F(1)))
        _same(per, per_alpha_dp(A, F(1)))

    @given(exact_matrices())
    @example(Matrix([], kind="complex-rational"))
    @settings(max_examples=40, deadline=None)
    def test_ryser_and_bareiss_equal_naive(self, A):
        per, det = permanent(A), determinant(A)
        sign = -1 if A.n % 2 else 1
        _same(per, per_alpha_naive(A, F(1)))
        _same(det, sign * per_alpha_naive(A, F(-1)))

    @given(exact_matrices(max_n=5, kind="rational", hermitian=True))
    @settings(max_examples=30, deadline=None)
    def test_hafnian_of_doubled_equals_naive_half(self, S):
        _same(hafnian(doubled(S)), 2 ** S.n * per_alpha_naive(S, F(1, 2)))

    @given(exact_matrices(max_n=4, kind="rational", hermitian=True))
    @settings(max_examples=30, deadline=None)
    def test_doubled_hafnian_table_equals_block_hafnians(self, S):
        # the float table runs the same recursion in the same order as the
        # hafnian of each block, so it is bit-identical to it
        table = doubled_hafnian_table(S)
        float_table = doubled_hafnian_table(S.to_float())
        assert len(table) == len(float_table) == 1 << S.n
        for T in range(1 << S.n):
            B = submatrix(S, T)
            _same(table[T], hafnian(doubled(B)))
            expect = hafnian(doubled(B.to_float()))
            assert type(float_table[T]) is type(expect)
            assert repr(float_table[T]) == repr(expect)

    @given(exact_matrices())
    @settings(max_examples=60, deadline=None)
    def test_clear_denominators_round_trip(self, A):
        L, re, im = clear_denominators(A.rows)
        assert isinstance(L, int) and L >= 1
        assert (im is None) == (A.kind == "rational" or A.n == 0)
        for i in range(A.n):
            for j in range(A.n):
                assert type(re[i][j]) is int
                if im is None:
                    assert re[i][j] == L * A.rows[i][j]
                    _same(from_scaled(L, re[i][j]), A.rows[i][j])
                else:
                    assert type(im[i][j]) is int
                    _same(from_scaled(L, re[i][j], im[i][j]), A.rows[i][j])
        dens = [x.denominator for row in A.rows for x in row] if im is None \
            else [p.denominator for row in A.rows for x in row
                  for p in (x.re, x.im)]
        assert L == math.lcm(*dens)


class TestFloatCycleTable:
    @pytest.mark.parametrize("kind", ["rational", "complex-rational"])
    @pytest.mark.parametrize("n", [1, 4, 6])
    def test_shared_table_matches_fastpath(self, kind, n):
        Af = random_matrix(n, kind, scale=4, seed=n).to_float()
        table = cycle_sum_table(Af)
        a = 1.5 if kind == "rational" else 1.5 - 0.25j
        got = per_alpha_dp(Af, a, cycle_table=table)
        assert got == pytest.approx(per_alpha_naive(Af, a), rel=1e-12)
        _same(got, per_alpha_dp(_fresh(Af), a))
        _same(got, fastpath.per_alpha_dp(np.array(Af.rows), a))


# ---------------------------------------------------------------------------
# the oracle: one walk over the permutations gives the cycle polynomial
# ---------------------------------------------------------------------------

_oracle_alphas = st.one_of(
    st.just(F(0)),
    st.builds(F, st.integers(-9, -1), st.integers(1, 5)),
    st.integers(-4, 4).map(F),
    st.integers(-9, 9).map(lambda k: F(k, 2)),
    st.builds(G, _rationals(), _rationals()),
)


class TestCyclePolynomialOracle:
    @given(any_exact_matrices(), _oracle_alphas)
    @example(Matrix([], kind="rational"), F(0))
    @example(Matrix([], kind="complex-rational"), F(3))
    @example(Matrix([], kind="rational"), G(F(1, 2), F(1)))
    @example(Matrix([[F(2, 3), F(0)], [F(0), F(5)]], kind="rational"),
             G(F(0), F(1)))
    @example(random_matrix(4, "complex-rational", scale=3, seed=2), F(3, 2))
    @settings(max_examples=60, deadline=None)
    def test_equals_the_permutation_oracle(self, A, alpha):
        expect = oracle_per_alpha(A, alpha)
        if A.n == 0 and A.kind == "complex-rational":
            # the empty complex matrix gives 1 of its kind, as per_alpha_dp
            expect = G(1) if not isinstance(expect, G) else expect
        _same(per_alpha_naive(A, alpha), expect)

    @given(any_exact_matrices(), _oracle_alphas)
    @settings(max_examples=30, deadline=None)
    def test_float_walk_is_close_and_of_the_float_kind(self, A, alpha):
        Af, af = A.to_float(), to_float_scalar(alpha)
        got = per_alpha_naive(Af, af)
        expect = per_alpha_dp(Af, af)
        assert type(got) is type(expect)
        assert abs(got - expect) <= 1e-9 * (1 + abs(expect))

    @given(any_exact_matrices())
    @settings(max_examples=40, deadline=None)
    def test_coefficients_give_permanent_and_determinant(self, A):
        c = kernels._naive_cycle_polynomial(A)
        assert len(c) == A.n + 1
        assert all(type(x) is type(c[0]) for x in c)
        assert sum(c) == permanent(A)
        sign = -1 if A.n % 2 else 1
        assert sum(x if k % 2 == 0 else -x for k, x in enumerate(c)) \
            == sign * determinant(A)

    def test_coefficients_count_permutations_by_cycles(self):
        # on the all-ones matrix c_k is the number of permutations of n
        # with k cycles, the unsigned Stirling number of the first kind
        for n, stirling in ((1, [0, 1]), (4, [0, 6, 11, 6, 1]),
                            (5, [0, 24, 50, 35, 10, 1])):
            J = Matrix([[F(1)] * n for _ in range(n)])
            assert kernels._naive_cycle_polynomial(J) == stirling

    def test_runs_without_the_integer_lane(self, monkeypatch):
        from alphaperm import inequalities, scalars
        from alphaperm.matrices import random_unit_diag_psd
        instances = [random_unit_diag_psd(4, kind, 3, 141)
                     for kind in ("real-symmetric", "hermitian")]
        instances.append(random_matrix(4, "complex-rational", 3, seed=5))
        alpha = F(13, 10)
        names = ("lieb", "fischer", "lieb-alpha", "neg-nonneg",
                 "neg-block", "marcus-upper", "marcus-lower")
        expect = [(per_alpha_naive(A, alpha),
                   [inequalities._naive_slack(x, A, alpha, 1) for x in names])
                  for A in instances[:2]]
        expect.append((per_alpha_naive(instances[2], alpha), None))

        def refuse(*args, **kwargs):
            raise AssertionError("the oracle read the integer lane")

        for module in (kernels, scalars):
            monkeypatch.setattr(module, "clear_denominators", refuse)
        monkeypatch.setattr(kernels, "ScaledTable", refuse)
        monkeypatch.setattr(Matrix, "cleared", property(refuse))
        for A, (value, slacks) in zip(instances, expect):
            fresh = _fresh(A)
            _same(per_alpha_naive(fresh, alpha), value)
            if slacks is not None:
                assert [inequalities._naive_slack(x, fresh, alpha, 1)
                        for x in names] == slacks
        with pytest.raises(AssertionError, match="integer lane"):
            per_alpha_dp(_fresh(instances[2]), alpha)


# ---------------------------------------------------------------------------
# full-set DP: per_alpha_dp fills only the index sets per_alpha(A) reads
# ---------------------------------------------------------------------------

_full_set_alphas = st.one_of(
    st.just(F(0)),
    st.builds(F, st.integers(-9, -1), st.integers(1, 5)),
    st.just(F(1, 2)),
    st.builds(G, _rationals(), _rationals()),
)


def _abs_matrix(A):
    return Matrix([[abs(x) for x in row] for row in A.rows], kind="float")


class TestFullSetDP:
    @given(any_exact_matrices(max_n=7), _full_set_alphas, st.booleans())
    @example(Matrix([], kind="rational"), F(0), False)
    @example(Matrix([], kind="complex-rational"), F(-3, 2), True)
    @example(Matrix([[F(5, 3)]], kind="rational"), F(1, 2), False)
    @example(Matrix([[G(F(1, 3), F(-2))]], kind="complex-rational"),
             G(F(1, 2), F(1)), True)
    @settings(max_examples=80, deadline=None)
    def test_equals_whole_table_and_naive(self, A, alpha, to_float):
        # all four kinds: exact values and float bits equal the whole
        # table's full-set entry, and the oracle's value
        if to_float:
            A, alpha = A.to_float(), to_float_scalar(alpha)
        got = per_alpha_dp(A, alpha)
        _same(got, per_alpha_minors(A, alpha)[-1])
        if A.n > 6:
            return
        naive = per_alpha_naive(A, alpha)
        if not to_float:
            _same(got, naive)
            return
        assert type(got) is type(naive)
        # rounding is bounded by the sum of the terms' magnitudes
        bound = per_alpha_naive(_abs_matrix(A), abs(alpha))
        assert abs(got - naive) <= 1e-9 * bound

    @given(any_exact_matrices(max_n=6), _full_set_alphas)
    @settings(max_examples=30, deadline=None)
    def test_shared_table_weighs_once_per_q(self, A, alpha):
        # alpha and -alpha share the table's weights; a shared table gives
        # the values an unshared one does, in any order of alphas. Fresh
        # copies keep no values, so every call on one runs its DP
        table = cycle_sum_table(A)
        for a in (alpha, -alpha, alpha / 2, alpha, -alpha):
            want = per_alpha_dp(_fresh(A), a)
            _same(per_alpha_dp(_fresh(A), a, cycle_table=table), want)
            _same(per_alpha_minors(A, a)[-1], want)
        assert cycle_sum_table(A) is table

    def test_weights_built_once_per_q_in_any_order(self):
        # the DP's weights at q: entry S of the cycle table times
        # q^(|S|-1), alpha and -alpha alike, the table itself at q = 1
        A = random_matrix(4, "complex-rational", seed=2)
        C = cycle_sum_table(A)
        assert kernels._weights(C, 1) == (C.values, C.imag)
        for q in (3, 6):
            values, imag = kernels._weights(C, q)
            for m in range(1, 16):
                # entry S is q^(|S|-1) C_B(S), with C_B(S) = L^|S| C_A(S)
                C_B = C.base ** m.bit_count() * C[m]
                assert G(values[m], imag[m]) == q ** (m.bit_count() - 1) * C_B
        # A keeps its cycle table, not the weights nor the DPs' tables
        for a in (F(5, 3), F(5, 6), F(-5, 3)):
            per_alpha_minors(A, a)
            per_alpha_dp(A, a)
        assert list(A._tables) == ["cycle"]

    def test_weights_skip_the_default_cap(self, monkeypatch):
        # an explicit cap above the default lets the DP run: the weights
        # lookup checks no cap of its own
        A = random_matrix(4, "rational", seed=7)
        monkeypatch.setenv("ALPHAPERM_CAP_DP", "3")
        _same(per_alpha_dp(A, F(3, 2), cap=4), per_alpha_naive(A, F(3, 2)))


# ---------------------------------------------------------------------------
# tables a matrix keeps
# ---------------------------------------------------------------------------

class TestKeptTables:
    def test_exact_alpha_types_keep_apart(self):
        # Fraction(1) == GaussianRational(1), and they hash alike, but a
        # rational matrix's per_alpha is a Fraction at one and a
        # GaussianRational at the other
        A = random_matrix(3, "rational", seed=5)
        for first, second in ((F(1), G(1)), (G(1), F(1))):
            B = _fresh(A)
            per_alpha_minors(B, first)
            per_alpha_dp(B, first)
            minors = per_alpha_minors(B, second)
            for mask in range(8):
                _same(minors[mask], per_alpha_dp(submatrix(A, mask), second))
            C = _fresh(A)
            per_alpha_dp(C, first)
            _same(per_alpha_dp(C, second), per_alpha_dp(_fresh(A), second))
            assert type(per_alpha_dp(C, second)) is type(second)

    def test_signed_zero_alphas_keep_apart(self):
        # per_{-0.0} and per_{0.0} are zeros of opposite sign (here C(full),
        # the full-set cycle sum, is nonzero)
        Af = random_matrix(3, "rational", seed=5).to_float()
        zeros = {repr(per_alpha_dp(_fresh(Af), a)) for a in (0.0, -0.0)}
        assert zeros == {"0.0", "-0.0"}
        for first, second in ((0.0, -0.0), (-0.0, 0.0)):
            B = _fresh(Af)
            per_alpha_minors(B, first)
            per_alpha_dp(B, first)
            want = per_alpha_dp(_fresh(Af), second)
            assert repr(per_alpha_dp(B, second)) == repr(want)
            assert repr(per_alpha_minors(B, second)[-1]) == repr(want)

    def test_one_build_per_matrix_and_key(self):
        # A keeps its cycle table and shape averages; a table at any alpha,
        # +-1 included, is a new DP at each call
        A = random_psd(4, HERMITIAN, 3, seed=3)
        table = cycle_sum_table(A)
        averages = [shape_averages(A, s) for s in (1, -1)]
        assert cycle_sum_table(A) is table
        for s, kept in zip((1, -1), averages):
            assert shape_averages(A, s) is kept
            assert shape_averages(_fresh(A), s) is not kept
            assert shape_averages(A.to_float(), s) is not kept
            assert per_alpha_minors(A, F(s)) is not per_alpha_minors(A, F(s))
        minors = per_alpha_minors(A, F(3, 2))
        again = per_alpha_minors(A, F(6, 4))
        assert again is not minors
        assert [repr(x) for x in again] == [repr(x) for x in minors]
        assert sorted(A._tables, key=repr) == [
            "cycle", ("shape-averages", -1, 0.0), ("shape-averages", 1, 0.0)]

    def test_kept_tables_stay_under_an_explicit_cap(self):
        A = random_matrix(4, "rational", seed=6)
        per_alpha_minors(A, F(2))
        per_alpha_dp(A, F(3))
        for call in (lambda: cycle_sum_table(A, cap=3),
                     lambda: per_alpha_minors(A, F(2), cap=3),
                     lambda: per_alpha_dp(A, F(2), cap=3),
                     lambda: per_alpha_dp(A, F(3), cap=3)):
            with pytest.raises(CapacityError):
                call()

    def test_kept_tables_read_under_a_lowered_default_cap(self, monkeypatch):
        # ALPHAPERM_CAP_DP lowers the default cap: it stops a new build and
        # every DP, not the read of a kept table
        A = random_matrix(4, "rational", seed=6)
        table = cycle_sum_table(A)
        averages = [shape_averages(A, s) for s in (1, -1)]
        monkeypatch.setenv("ALPHAPERM_CAP_DP", "3")
        assert cycle_sum_table(A) is table
        assert all(shape_averages(A, s) is t for s, t in zip((1, -1),
                                                             averages))
        for B in (A, _fresh(A)):
            for dp in (per_alpha_dp, per_alpha_minors):
                with pytest.raises(CapacityError, match="exceeds cap 3"):
                    dp(B, F(3, 2))
        with pytest.raises(CapacityError, match="exceeds cap 3"):
            shape_averages(_fresh(A), 1)

    @pytest.mark.parametrize("kind", ["rational", "complex-rational"])
    def test_kept_cycle_table_leaves_the_dp_cap_checked(self, kind):
        # the cycle table A keeps does not lift the cap of a DP on it
        A = random_matrix(4, kind, seed=8)
        C = cycle_sum_table(A)
        for call in (lambda cap: per_alpha_dp(A, F(3, 2), cap=cap),
                     lambda cap: per_alpha_dp(A, F(3, 2), cap=cap,
                                              cycle_table=C),
                     lambda cap: per_alpha_minors(A, F(3, 2), cap=cap)[-1]):
            with pytest.raises(CapacityError, match="size 4 exceeds cap 3"):
                call(3)
            _same(call(4), per_alpha_naive(A, F(3, 2)))
        assert cycle_sum_table(A) is C


# ---------------------------------------------------------------------------
# principal-minor table: one DP, every A[T]
# ---------------------------------------------------------------------------

class TestPrincipalMinors:
    @given(any_exact_matrices(), _alphas)
    @settings(max_examples=60, deadline=None)
    def test_entries_equal_dp_of_submatrix(self, A, alpha):
        minors = per_alpha_minors(A, alpha)
        assert len(minors) == 1 << A.n
        for mask in range(1 << A.n):
            _same(minors[mask], per_alpha_dp(submatrix(A, mask), alpha))
        _same(minors[-1], per_alpha_dp(_fresh(A), alpha))

    @given(any_exact_matrices(max_n=5), _alphas)
    @settings(max_examples=30, deadline=None)
    def test_entries_equal_naive(self, A, alpha):
        minors = per_alpha_minors(A, alpha)
        for mask in range(1 << A.n):
            _same(minors[mask], per_alpha_naive(submatrix(A, mask), alpha))

    @given(any_exact_matrices(), _alphas)
    @settings(max_examples=60, deadline=None)
    def test_float_entries_are_bit_identical(self, A, alpha):
        Af, a = A.to_float(), to_float_scalar(alpha)
        minors = per_alpha_minors(Af, a)
        for mask in range(1 << A.n):
            expect = per_alpha_dp(submatrix(Af, mask), a)
            got = minors[mask]
            assert type(got) is type(expect)
            assert repr(got) == repr(expect)

    def test_index_range(self):
        A = random_matrix(3, "rational", seed=4)
        minors = per_alpha_minors(A, F(2))
        table = cycle_sum_table(A)
        for t in (minors, table):
            assert repr(t[-1]) == repr(t[7])
            with pytest.raises(IndexError):
                t[8]
            with pytest.raises(IndexError):
                t[-9]
