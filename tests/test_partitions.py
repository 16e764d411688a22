"""Set partitions, counting recurrences, and the expansion formulas."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphaperm.errors import CapacityError, DomainError, MixedModeError
from alphaperm.kernels import (
    _dp_masks,
    hafnian,
    per_alpha_dp,
    per_alpha_minors,
    permanent,
)
from alphaperm.matrices import (
    HERMITIAN,
    REAL_SYMMETRIC,
    Matrix,
    doubled,
    indices_from_mask,
    random_matrix,
    random_psd,
    random_symmetric_matrix,
    submatrix,
)
from alphaperm.partitions import (
    SetPartition,
    bell_number,
    cycle_polynomials,
    enumerate_partitions,
    enumerate_shape_partitions,
    graded_partition_sums,
    half_formula_rhs,
    per_beta_by_k,
    per_beta_k,
    product_formula_rhs,
    shape_partition_count,
    shape_partition_sums,
    stirling2,
    sum_formula_rhs,
)
from alphaperm.scalars import GaussianRational, gen_binomial

F = Fraction
G = GaussianRational


class TestSetPartition:
    def test_from_rgs(self):
        p = SetPartition((0, 1, 0, 2))
        assert p.k == 3
        assert p.blocks == (0b0101, 0b0010, 0b1000)
        assert p.shape() == (2, 1, 1)

    def test_bad_rgs(self):
        with pytest.raises(DomainError):
            SetPartition((1, 0))        # must start at 0
        with pytest.raises(DomainError):
            SetPartition((0, 2))        # cannot skip a label


class TestEnumeration:
    def test_counts_match_bell(self):
        for n in range(9):
            assert sum(1 for _ in enumerate_partitions(n)) == bell_number(n)

    def test_counts_match_stirling(self):
        for n in range(1, 8):
            for k in range(1, n + 1):
                got = sum(1 for _ in enumerate_partitions(n, k))
                assert got == stirling2(n, k)

    def test_every_rgs_in_lexicographic_order(self):
        # against every restricted-growth string, filtered from all words
        for n in range(7):
            words = [w for w in itertools.product(range(n), repeat=n)
                     if all(w[i] <= max(w[:i], default=-1) + 1
                            for i in range(n))]
            got = [p.rgs for p in enumerate_partitions(n)]
            assert got == sorted(words)
            for k in range(1, n + 1):
                assert [p.rgs for p in enumerate_partitions(n, k)] == [
                    w for w in got if max(w) + 1 == k]

    def test_all_distinct_and_valid(self):
        seen = set()
        for p in enumerate_partitions(5):
            assert sum(bin(b).count("1") for b in p.blocks) == 5
            union = 0
            for b in p.blocks:
                assert union & b == 0
                union |= b
            assert union == 0b11111
            seen.add(p.blocks)
        assert len(seen) == bell_number(5)

    def test_shape_enumeration(self):
        for shape, count in [((4, 1), 5), ((3, 2), 10), ((3, 1, 1), 10),
                             ((2, 2, 1), 15)]:
            parts = list(enumerate_shape_partitions(5, shape))
            assert len(parts) == count
            assert len(set(p.blocks for p in parts)) == count
            for p in parts:
                assert p.shape() == tuple(sorted(shape, reverse=True))
            assert count == shape_partition_count(5, shape)

    def test_shape_counts_sum_to_stirling(self):
        # sum of shape counts over all shapes with k parts = S(n, k)
        def shapes(n, k, largest):
            if k == 0:
                if n == 0:
                    yield ()
                return
            for first in range(min(n - k + 1, largest), 0, -1):
                for rest in shapes(n - first, k - 1, first):
                    yield (first,) + rest

        for n in range(1, 8):
            for k in range(1, n + 1):
                total = sum(
                    shape_partition_count(n, s) for s in shapes(n, k, n))
                assert total == stirling2(n, k)


class TestCountingFunctions:
    def test_bell_pinned(self):
        assert [bell_number(k) for k in range(9)] == [
            1, 1, 2, 5, 15, 52, 203, 877, 4140]

    def test_stirling_pinned(self):
        assert stirling2(4, 2) == 7
        assert stirling2(5, 3) == 25
        assert stirling2(0, 0) == 1
        assert stirling2(3, 0) == 0
        assert stirling2(3, 4) == 0

    def test_stirling_recurrence(self):
        for n in range(1, 9):
            for k in range(1, n + 1):
                assert stirling2(n, k) == (
                    k * stirling2(n - 1, k) + stirling2(n - 1, k - 1))

    def test_shape_count_errors(self):
        with pytest.raises(DomainError):
            shape_partition_count(4, (3, 2))
        with pytest.raises(DomainError):
            shape_partition_count(3, (3, 0))


def _brute_partition_sums(f, n):
    """P[T][k] by listing the set partitions of every T."""
    P = []
    for T in range(1 << n):
        idx = [i for i in range(n) if T >> i & 1]
        row = [0] * (len(idx) + 1)
        for part in enumerate_partitions(len(idx)):
            prod = 1
            for block in part.blocks:
                prod = prod * f[sum(1 << idx[i] for i in range(len(idx))
                                    if block >> i & 1)]
            row[part.k] += prod
        P.append(row)
    return P


_RING_ENTRIES = {
    "int": st.integers(-20, 20),
    "fraction": st.fractions(min_value=-5, max_value=5, max_denominator=9),
    "float": st.floats(-3, 3, allow_nan=False),
    "gaussian": st.builds(G, st.fractions(-3, 3, max_denominator=5),
                          st.fractions(-3, 3, max_denominator=5)),
}


class TestGradedPartitionSums:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), n=st.integers(0, 6),
           ring=st.sampled_from(sorted(_RING_ENTRIES)))
    def test_against_enumeration(self, data, n, ring):
        f = [None] + data.draw(st.lists(_RING_ENTRIES[ring],
                                        min_size=(1 << n) - 1,
                                        max_size=(1 << n) - 1))
        got = graded_partition_sums(f, n)
        want = _brute_partition_sums(f, n)
        assert [len(row) for row in got] == [len(row) for row in want]
        if ring != "float":
            assert got == want
            return
        # summation order differs; bound the error by the terms' size
        scale = _brute_partition_sums([None] + [abs(x) for x in f[1:]], n)
        for T in range(1 << n):
            for g, w, s in zip(got[T], want[T], scale[T]):
                assert abs(g - w) <= 1e-12 * (1 + s)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(0, 6),
           ring=st.sampled_from(sorted(_RING_ENTRIES) + ["complex"]),
           full_set=st.booleans())
    def test_skipped_zero_terms_change_no_bit(self, data, n, ring, full_set):
        # the recursion with every term f(S) P[T - S][k-1] added, including
        # those with P[T - S][0] = 0, gives the same values and types, and
        # the same signed zeros on floats
        if ring in _RING_ENTRIES:
            entry = _RING_ENTRIES[ring]
        else:
            entry = st.builds(
                complex, st.sampled_from([0.0, -0.0, 1.5, -2.25]),
                st.sampled_from([0.0, -0.0, 0.5, -3.0]))
        if ring == "float":
            entry = st.one_of(entry, st.sampled_from([0.0, -0.0]))
        f = [None] + data.draw(st.lists(entry, min_size=(1 << n) - 1,
                                        max_size=(1 << n) - 1))
        masks = list(_dp_masks(n, full_set)) if full_set else None
        P = [[1]] + [None] * ((1 << n) - 1)
        for mask in range(1, 1 << n) if masks is None else masks:
            lowbit = mask & -mask
            rest = mask ^ lowbit
            row = [0] * (mask.bit_count() + 1)
            s = rest
            while True:
                for k, v in enumerate(P[rest ^ s]):
                    row[k + 1] += f[lowbit | s] * v
                if s == 0:
                    break
                s = (s - 1) & rest
            P[mask] = row
        got = graded_partition_sums(f, n, masks)
        assert [None if row is None else [(type(x), repr(x)) for x in row]
                for row in got] \
            == [None if row is None else [(type(x), repr(x)) for x in row]
                for row in P]

    def test_pinned_counts(self):
        # f = 1 counts partitions: the full-set row is Stirling's row
        P = graded_partition_sums([1] * 32, 5)
        assert P[31] == [stirling2(5, k) for k in range(6)]
        assert P[0] == [1]
        assert P[0b10100] == [0, 1, 1]


def _brute_shape_sums(f, n):
    """{shape: sum of block products} by listing the partitions of the full
    set."""
    out = {}
    for part in enumerate_partitions(n):
        prod = 1
        for block in part.blocks:
            prod = prod * f[block]
        out[part.shape()] = out.get(part.shape(), 0) + prod
    return out


class TestShapePartitionSums:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), n=st.integers(0, 6),
           ring=st.sampled_from(sorted(_RING_ENTRIES)))
    def test_against_enumeration(self, data, n, ring):
        f = [None] + data.draw(st.lists(_RING_ENTRIES[ring],
                                        min_size=(1 << n) - 1,
                                        max_size=(1 << n) - 1))
        got = shape_partition_sums(f, n)
        want = _brute_shape_sums(f, n)
        assert sorted(got) == sorted(want)
        if ring != "float":
            assert got == want
            assert all(type(got[s]) is type(want[s]) for s in want)
            return
        # summation order differs; bound the error by the terms' size
        scale = _brute_shape_sums([None] + [abs(x) for x in f[1:]], n)
        for shape, w in want.items():
            assert abs(got[shape] - w) <= 1e-12 * (1 + scale[shape])

    def test_counts_shapes(self):
        # f = 1 counts the partitions of each shape
        got = shape_partition_sums([1] * 64, 6)
        assert got == {shape: shape_partition_count(6, shape)
                       for shape in got}
        assert len(got) == 11           # integer partitions of 6
        assert sum(got.values()) == bell_number(6)
        assert shape_partition_sums([None], 0) == {(): 1}


class TestPerBetaK:
    def test_identity_blocks(self):
        # on I_3 with beta=1 each block contributes 1, so per(I_3, k) counts
        # ordered partitions: k! * S(3, k)
        I3 = Matrix.identity(3, "rational")
        for k in range(1, 4):
            assert per_beta_k(I3, F(1), k) == math.factorial(k) * stirling2(3, k)

    def test_brute_force(self):
        A = random_matrix(4, "rational", scale=3, seed=21)
        beta = F(-3, 2)
        for k in range(1, 5):
            total = F(0)
            for p in enumerate_partitions(4, k):
                prod = F(1)
                for b in p.blocks:
                    prod *= per_alpha_dp(submatrix(A, b), beta)
                total += prod
            assert per_beta_k(A, beta, k) == math.factorial(k) * total

    def test_bad_k(self):
        A = Matrix.identity(2, "rational")
        with pytest.raises(DomainError):
            per_beta_k(A, F(1), 0)
        with pytest.raises(DomainError):
            per_beta_k(A, F(1), 3)


class TestPerByK:
    """CyclePolynomials.per_by_k against per_beta_by_k on the graded
    table of per_alpha_minors, the path the block lifts read before."""

    @staticmethod
    def _cases():
        for n in range(0, 6):
            yield random_matrix(n, "rational", 3, seed=n)
            yield random_matrix(n, "complex-rational", 3, seed=n)
            yield random_psd(n, REAL_SYMMETRIC, 3, seed=n)
            yield random_psd(n, HERMITIAN, 3, seed=n)
            if n:
                A = random_matrix(n, "rational", 3, seed=n + 10)
                yield Matrix([[F(0)] * n] + [list(r) for r in A.rows[1:]])

    @pytest.mark.parametrize("beta", [F(1), F(-1), F(3, 2), F(-2, 3),
                                      G(1, 1)])
    def test_equals_the_graded_table(self, beta):
        for A in self._cases():
            polynomials = cycle_polynomials(A)
            unit = F(1, polynomials.base ** A.n)
            got = [x * unit for x in polynomials.per_by_k(beta)]
            expect = per_beta_by_k(per_alpha_minors(A, beta))
            assert len(got) == A.n + 1
            assert got[1:] == expect[1:]
            assert got[0] == (1 if A.n == 0 else 0)

    def test_pinned_identity(self):
        # I_3: each of the S(3, k) k-block partitions weighs beta^3
        P = cycle_polynomials(Matrix.identity(3, "rational"))
        assert P.per_by_k(2) == [0, 8, 48, 48]


class TestSumFormula:
    def test_split_into_ones(self):
        # per_m(A) as m copies of beta=1: sum over assignments of permanent
        # products
        A = random_matrix(3, "rational", scale=3, seed=31)
        for m in (2, 3):
            assert sum_formula_rhs(A, [F(1)] * m) == per_alpha_dp(A, F(m))

    def test_mixed_betas(self):
        A = random_matrix(4, "rational", scale=3, seed=32)
        betas = [F(1, 2), F(-2), F(5, 3)]
        total = sum(betas, F(0))
        assert sum_formula_rhs(A, betas) == per_alpha_dp(A, total)

    def test_complex_matrix(self):
        A = random_matrix(3, "complex-rational", scale=3, seed=33)
        betas = [F(1, 2), F(3, 4)]
        assert sum_formula_rhs(A, betas) == per_alpha_dp(A, F(5, 4))

    def test_empty_matrix(self):
        A = Matrix([], kind="rational")
        assert sum_formula_rhs(A, [F(1), F(2)]) == 1

    def test_no_betas(self):
        with pytest.raises(DomainError):
            sum_formula_rhs(Matrix.identity(2, "rational"), [])

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(0, 4), m=st.integers(1, 3),
           kind=st.sampled_from(["rational", "complex-rational"]),
           seed=st.integers(0, 10 ** 6),
           nums=st.lists(st.integers(-12, 12), min_size=3, max_size=3),
           dens=st.lists(st.integers(1, 5), min_size=3, max_size=3))
    def test_against_assignment_sum(self, n, m, kind, seed, nums, dens):
        # the sum over all m^n assignments of indices to the m summands
        A = (random_matrix(n, kind, scale=3, seed=seed) if n
             else Matrix([], kind=kind))
        betas = [F(a, d) for a, d in zip(nums, dens)][:m]
        want = F(0)
        for assignment in itertools.product(range(m), repeat=n):
            masks = [0] * m
            for i, label in enumerate(assignment):
                masks[label] |= 1 << i
            prod = F(1)
            for mask, beta in zip(masks, betas):
                if mask:
                    prod = prod * per_alpha_dp(submatrix(A, mask), beta)
            want = want + prod
        assert sum_formula_rhs(A, betas) == want

    def test_many_betas_past_the_old_assignment_count(self):
        # 7^9 (about 4.0e7) assignments; the convolution costs 7 * 3^9
        A = random_matrix(9, "rational", scale=2, seed=34)
        betas = [F(1), F(-1, 2), F(2, 3), F(3), F(-5, 4), F(1, 6), F(7, 5)]
        assert sum_formula_rhs(A, betas) == per_alpha_dp(A, sum(betas))

    def test_cap_is_the_dp_cap(self):
        A = random_matrix(5, "rational", scale=2, seed=34)
        with pytest.raises(CapacityError):
            sum_formula_rhs(A, [F(1)] * 3, cap=4)


class TestProductFormula:
    def test_pinned_identity(self):
        # per_6(I_2) = 6^2 = 36 via alpha=3, beta=2
        I2 = Matrix.identity(2, "rational")
        assert product_formula_rhs(I2, F(3), F(2)) == 36
        assert per_alpha_dp(I2, F(6)) == 36

    @pytest.mark.parametrize("seed", range(4))
    def test_random(self, seed):
        A = random_matrix(4, "rational", scale=3, seed=seed + 41)
        for alpha, beta in [(F(1, 2), F(1)), (F(5, 2), F(-1)),
                            (F(-3, 4), F(2)), (F(2, 3), F(-5, 7))]:
            assert product_formula_rhs(A, alpha, beta) == \
                per_alpha_dp(A, alpha * beta)

    def test_beta_one_collapses_to_binomial_sum(self):
        A = random_matrix(3, "rational", scale=3, seed=43)
        a = F(7, 5)
        rhs = sum(
            gen_binomial(a, k) * per_beta_k(A, F(1), k) for k in range(1, 4)
        )
        assert product_formula_rhs(A, a, F(1)) == rhs == per_alpha_dp(A, a)

    def test_alpha_kind_gate(self):
        A = random_matrix(2, "rational", scale=3, seed=44)
        with pytest.raises(MixedModeError):
            product_formula_rhs(A, 0.5, F(1))

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            product_formula_rhs(Matrix([], kind="rational"), F(1), F(1))


class TestHalfFormula:
    @pytest.mark.parametrize("seed", range(4))
    def test_random(self, seed):
        A = random_symmetric_matrix(4, scale=3, seed=seed + 51)
        for a in (F(1), F(2), F(7, 3), F(-1, 2)):
            assert half_formula_rhs(A, a) == per_alpha_dp(A, a / 2)

    def test_asymmetric_rejected(self):
        A = random_matrix(3, "rational", scale=3, seed=52)
        assert not A.is_symmetric_entrywise()
        with pytest.raises(DomainError):
            half_formula_rhs(A, F(1))

    def test_terms_are_haf_products(self):
        # k = n term: every block is a singleton, haf(doubled([a])) = a
        A = random_symmetric_matrix(3, scale=3, seed=53)
        prod = F(1)
        for i in range(3):
            block = submatrix(A, 1 << i)
            assert hafnian(doubled(block)) == block.entry(0, 0)
            prod *= block.entry(0, 0)
