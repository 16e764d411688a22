"""Comparisons, inequality checks, shape averages, findings, and the hunter."""

import json
import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphaperm.errors import (
    CapacityError,
    DomainError,
    MixedModeError,
    ScalarFormatError,
)
from alphaperm.inequalities import (
    EQUALITY,
    HOLDS,
    VIOLATED,
    ComparisonResult,
    Finding,
    HuntConfig,
    OracleMismatch,
    binomials_nonnegative,
    check_fischer,
    check_haf_per,
    check_lieb,
    check_lieb_type,
    check_majorization_step,
    check_marcus,
    check_neg_positivity,
    compare,
    evaluate_comparison,
    hunt,
    merge_pairs,
    p_shape,
    replay_finding,
    shape_averages,
    _exact_result,
    _naive_slack,
    _real_value,
)
from alphaperm.kernels import (
    ScaledTable,
    _naive_cycle_polynomial,
    cycle_sum_table,
    determinant,
    diagonal_product,
    hafnian,
    per_alpha_dp,
    per_alpha_minors,
    per_alpha_naive,
    permanent,
)
from alphaperm.matrices import (
    HERMITIAN,
    REAL_SYMMETRIC,
    Matrix,
    direct_sum,
    doubled,
    dumps_matrix,
    full_mask,
    loads_matrix,
    matrix_digest,
    random_matrix,
    random_psd,
    random_unit_diag_psd,
    split_masks,
    submatrix,
)
from alphaperm.partitions import (
    cycle_polynomials,
    enumerate_shape_partitions,
    shape_partition_count,
    shape_partition_sums,
)
from alphaperm.scalars import (
    COMPLEX_RATIONAL,
    GaussianRational,
    from_scaled,
    kind_is_exact,
    to_float_scalar,
)

F = Fraction
G = GaussianRational


def _at(results, m):
    """A family's results at the split m; None gives the whole matrix's."""
    return [r for r in results if r.split == m]


class TestCompare:
    def test_exact_verdicts(self):
        assert compare("x", F(2), F(1), ">=").verdict == HOLDS
        assert compare("x", F(1), F(1), ">=").verdict == EQUALITY
        assert compare("x", F(0), F(1), ">=").verdict == VIOLATED
        assert compare("x", F(0), F(1), "<=").verdict == HOLDS
        assert compare("x", F(2), F(1), "<=").verdict == VIOLATED

    def test_slack_orientation(self):
        r = compare("x", F(5), F(2), ">=")
        assert r.slack == 3
        r = compare("x", F(5), F(2), "<=")
        assert r.slack == -3
        # slack is "room to spare": nonnegative iff the comparison holds

    def test_float_tolerance(self):
        assert compare("x", 1.0, 1.0 + 1e-12, ">=", tol=1e-9).verdict == EQUALITY
        assert compare("x", 1.0, 1.1, ">=", tol=1e-9).verdict == VIOLATED
        assert compare("x", 1.1, 1.0, ">=", tol=1e-9).verdict == HOLDS

    def test_float_band_is_relative(self):
        # exact equalities on a large diagonal stay equalities in floats,
        # where both sides are about 7.1e19
        D = Matrix([[F(20001, 3) if i == j else F(0) for j in range(5)]
                    for i in range(5)], real_symmetric=True)
        assert all(r.verdict == EQUALITY for r in check_marcus(D, F(7, 5)))
        rs = check_marcus(D.to_float(), 1.4, tol=1e-9)
        assert [r.verdict for r in rs] == [EQUALITY] * 3
        # the cycle polynomial reads alpha^n prod a_ii on both sides
        assert rs[1].name == "marcus-lower" and rs[1].slack == 0.0
        # one unit in the last place there is 8192: the band scales with
        # the values, and a zero band does not
        big = 7.084226758140209e19
        r = compare("x", big, big + 8192, ">=", tol=1e-9)
        assert r.slack == -8192 and r.verdict == EQUALITY
        assert compare("x", big, big + 8192, ">=").verdict == VIOLATED

    def test_complex_float_small_imag(self):
        r = compare("x", 2 + 1e-14j, 1 + 0j, ">=", tol=1e-9)
        assert r.verdict == HOLDS

    def test_exact_complex_nonreal_rejected(self):
        with pytest.raises(ArithmeticError):
            compare("x", G(1, 1), G(0), ">=")

    def test_ok_property(self):
        assert compare("x", F(1), F(0), ">=").ok
        assert compare("x", F(1), F(1), ">=").ok
        assert not compare("x", F(0), F(1), ">=").ok

    def test_hypothesis_carried(self):
        r = compare("x", F(1), F(0), ">=", hypothesis=False)
        assert r.hypothesis is False

    @pytest.mark.parametrize("lhs, rhs", [
        (F(7, 3), F(5, 2)), (F(-4), F(-4)), (7, -2), (F(7, 3), 2),
        (True, F(1, 2)), (G(F(7, 3)), G(F(5, 2))), (G(F(-1, 6)), F(1, 3)),
        (G(4), 4), (3, G(F(9, 4)))])
    @pytest.mark.parametrize("direction", [">=", "<="])
    def test_exact_fields_are_fractions(self, lhs, rhs, direction):
        # whatever exact type comes in, lhs, rhs and slack are Fractions
        # of the real parts, and the verdict is the slack's sign
        def re(x):
            return x.re if isinstance(x, GaussianRational) else x

        r = compare("x", lhs, rhs, direction)
        slack = re(lhs) - re(rhs) if direction == ">=" else re(rhs) - re(lhs)
        assert (r.lhs, r.rhs, r.slack) == (re(lhs), re(rhs), slack)
        assert [type(x) for x in (r.lhs, r.rhs, r.slack)] == [Fraction] * 3
        assert r.verdict == (EQUALITY if slack == 0
                             else HOLDS if slack > 0 else VIOLATED)
        assert (r.direction, r.mode, r.tol) == (direction, "exact", 0.0)
        # the same comparison as ring elements over a denominator
        assert _exact_result("x", 6 * lhs, 6 * rhs, 6, direction, None) == r


class TestBinomialsNonnegative:
    def test_nonnegative_integers(self):
        for a in (0, 1, 2, 7):
            assert binomials_nonnegative(F(a), 9)

    def test_threshold(self):
        assert binomials_nonnegative(F(4), 5)        # n-1 boundary
        assert binomials_nonnegative(F(9, 2), 5)     # above n-1
        assert not binomials_nonnegative(F(7, 2), 5)  # below n-1, non-integer
        assert not binomials_nonnegative(F(-1), 3)
        assert not binomials_nonnegative(F(1, 2), 2)
        assert binomials_nonnegative(F(1, 2), 1)     # only binom(a,1)=a needed

    def test_small_n(self):
        assert binomials_nonnegative(F(5, 2), 3)     # 5/2 >= 2 = n-1


class TestClassicChecks:
    def test_lieb_worked_example(self):
        A = Matrix([[F(1), F(1)], [F(1), F(1)]], real_symmetric=True)
        (r,) = check_lieb(A)
        assert r.lhs == 2 and r.rhs == 1 and r.verdict == HOLDS
        assert r.split == 1

    def test_lieb_block_diagonal_equality(self):
        B = random_psd(2, REAL_SYMMETRIC, 3, seed=1)
        C = random_psd(2, REAL_SYMMETRIC, 3, seed=2)
        r = check_lieb(direct_sum(B, C))[1]
        assert r.split == 2 and r.verdict == EQUALITY

    def test_fischer_worked_example(self):
        A = Matrix([[F(1), F(1)], [F(1), F(1)]], real_symmetric=True)
        (r,) = check_fischer(A)
        assert r.verdict == HOLDS
        assert r.lhs == 0 and r.rhs == 1
        assert r.slack == 1  # oriented so holding means nonnegative slack

    def test_fischer_random(self):
        for seed in range(5):
            A = random_psd(5, HERMITIAN, 3, seed=seed)
            rs = check_fischer(A)
            assert [(r.split, r.ok) for r in rs] \
                == [(m, True) for m in range(1, 5)]

    def test_haf_per_one_by_one(self):
        r = check_haf_per(Matrix([[F(1)]], real_symmetric=True))
        assert r.verdict == EQUALITY

    def test_haf_per_identity(self):
        I2 = Matrix.identity(2, "rational")
        r = check_haf_per(I2)
        assert r.lhs == hafnian(doubled(I2)) == 1
        assert r.rhs == permanent(I2) == 1
        assert r.verdict == EQUALITY

    def test_haf_per_random(self):
        for seed in range(5):
            A = random_psd(4, REAL_SYMMETRIC, 3, seed=seed + 20)
            assert check_haf_per(A).ok

    def test_lieb_random_all_splits(self):
        for seed in range(5):
            A = random_psd(5, HERMITIAN, 3, seed=seed + 40)
            rs = check_lieb(A)
            assert [(r.split, r.ok) for r in rs] \
                == [(m, True) for m in range(1, 5)]


@st.composite
def _psd_instances(draw, max_n=5):
    # largest n first: hypothesis favours (and shrinks towards) the front
    n = draw(st.sampled_from(range(max_n, 0, -1)))
    kind = draw(st.sampled_from([REAL_SYMMETRIC, HERMITIAN]))
    make = draw(st.sampled_from([random_psd, random_unit_diag_psd]))
    return make(n, kind, 3, draw(st.integers(0, 10 ** 6)))


class TestSignTables:
    @given(_psd_instances(), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_lieb_fischer_tables_equal_ryser_bareiss(self, A, float_mode):
        tol = 1e-9 if float_mode else 0.0
        if float_mode:
            A = A.to_float()
        got_by = {check: check(A, tol=tol)
                  for check in (check_lieb, check_fischer)}
        for m in range(1, A.n):
            low, high = split_masks(A.n, m)
            Ap, App = submatrix(A, low), submatrix(A, high)
            wants = {
                check_lieb: compare("lieb", permanent(A),
                                    permanent(Ap) * permanent(App), ">=",
                                    tol)._replace(split=m),
                check_fischer: compare("fischer", determinant(A),
                                       determinant(Ap) * determinant(App),
                                       "<=", tol)._replace(split=m),
            }
            for check, want in wants.items():
                got = got_by[check][m - 1]
                assert got.split == m
                if not float_mode:
                    assert got == want
                    assert [type(x) for x in (got.lhs, got.rhs, got.slack)] \
                        == [type(x) for x in (want.lhs, want.rhs, want.slack)]
                    continue
                assert got.verdict == want.verdict
                band = tol * (1.0 + max(abs(want.lhs), abs(want.rhs)))
                assert abs(got.slack - want.slack) <= band

    def test_float_tables_keep_the_sign_of_zero(self):
        # a zero row gives complex zero values; lieb and fischer read the
        # cycle polynomials at (1, 1) and (-1, 1) as lieb-alpha and
        # neg-block do, (-1)^n signing fischer's sides, and take each real
        # part before any division, which could otherwise flip a zero's
        # sign
        zero = Matrix([[F(0)]], kind=COMPLEX_RATIONAL)
        for n, seed in ((3, 0), (3, 1), (4, 0), (4, 1)):
            B = random_psd(n - 1, HERMITIAN, 3, seed=seed)
            sign_n = (-1) ** n
            for A in (direct_sum(B, zero), direct_sum(zero, B)):
                A = A.to_float()
                at = cycle_polynomials(A).at
                lieb, fischer = check_lieb(A), check_fischer(A)
                for m in range(1, n):
                    low, high = split_masks(n, m)
                    assert repr(lieb[m - 1]) == repr(compare(
                        "lieb", at(1.0, 1.0),
                        at(1.0, 1.0, low) * at(1.0, 1.0, high),
                        ">=")._replace(split=m))
                    assert repr(fischer[m - 1]) == repr(compare(
                        "fischer", sign_n * at(-1.0, 1.0),
                        sign_n * (at(-1.0, 1.0, low) * at(-1.0, 1.0, high)),
                        "<=")._replace(split=m))
        # the zeros' signs these give, n = 4 and the zero row last
        A = direct_sum(random_psd(3, HERMITIAN, 3, seed=0), zero).to_float()
        assert [repr((r.lhs, r.rhs, r.slack)) for r in check_fischer(A)] \
            == ["(0.0, -0.0, -0.0)", "(0.0, 0.0, 0.0)", "(0.0, -0.0, -0.0)"]

    @pytest.mark.parametrize("float_mode", [False, True])
    def test_entries_equal_the_oracle_on_edge_cases(self, float_mode):
        # n = 0 and 1, Hermitian, and direct sums with a zero row or an
        # empty block: the cycle polynomials at (+-1, 1) give
        # base^|T| per_{+-1}(A[T]) for every T
        H = random_psd(3, HERMITIAN, 3, seed=5)
        zero = Matrix([[F(0)]], kind=COMPLEX_RATIONAL)
        empty = Matrix([], kind=COMPLEX_RATIONAL)
        cases = [Matrix([], kind="rational"), empty,
                 Matrix([[F(5, 3)]]), Matrix([[G(F(-2, 7))]], hermitian=True),
                 H, direct_sum(H, zero), direct_sum(zero, H),
                 direct_sum(empty, zero), direct_sum(H, empty)]
        for A in cases:
            if float_mode:
                A = A.to_float()
            polynomials = cycle_polynomials(A)
            one = 1 if kind_is_exact(A.kind) else 1.0
            for a in (one, -one):
                for T in range(1 << A.n):
                    got = polynomials.at(a, one, T)
                    want = (polynomials.base ** T.bit_count()
                            * per_alpha_naive(submatrix(A, T), a))
                    if float_mode:
                        assert abs(got - want) <= 1e-9 * (1 + abs(want))
                    else:
                        assert got == want

    def test_above_n_10_no_dp_and_equal_values(self, monkeypatch):
        # there the cycle polynomials cost more than Glynn and Bareiss at
        # every split, so lieb and fischer run those, with the DP's values
        import alphaperm.inequalities as ineq
        import alphaperm.kernels as kernels
        A = random_unit_diag_psd(11, REAL_SYMMETRIC, 2, seed=3)
        per, det = per_alpha_minors(A, F(1)), per_alpha_minors(A, F(-1))

        def forbidden(*args, **kwargs):
            raise AssertionError("lieb or fischer ran the subset DP")

        monkeypatch.setattr(kernels, "_principal_dp", forbidden)
        monkeypatch.setattr(ineq, "cycle_polynomials", forbidden)
        lieb, fischer = check_lieb(A), check_fischer(A)
        for m in (1, 4, 10):
            low, high = split_masks(11, m)
            assert lieb[m - 1] == compare(
                "lieb", per[-1], per[low] * per[high], ">=",
                0.0)._replace(split=m)
            assert fischer[m - 1] == compare(
                "fischer", -det[-1], (-1) ** 11 * det[low] * det[high],
                "<=", 0.0)._replace(split=m)

    def test_above_n_10_one_whole_matrix_run_per_instance(self, monkeypatch):
        # each call runs Glynn or Bareiss on A once, and on the two blocks
        # of every split
        import alphaperm.inequalities as ineq
        calls = []

        def spy(kernel):
            def run(B):
                calls.append((kernel.__name__, B.n))
                return kernel(B)
            return run

        monkeypatch.setattr(ineq, "permanent", spy(permanent))
        monkeypatch.setattr(ineq, "determinant", spy(determinant))
        for seed in (1, 2):
            A = random_unit_diag_psd(11, REAL_SYMMETRIC, 2, seed=seed)
            check_lieb(A)
            check_fischer(A)
        assert sorted(name for name, n in calls if n == 11) \
            == ["determinant"] * 2 + ["permanent"] * 2
        assert len(calls) == 4 + 2 * 10 * 2 * 2

    def test_above_n_10_runs_under_a_lowered_dp_cap(self, monkeypatch):
        # nothing there goes through kernels.kept, whose default DP cap
        # would refuse this n = 12 matrix
        monkeypatch.setenv("ALPHAPERM_CAP_DP", "11")
        A = random_unit_diag_psd(12, REAL_SYMMETRIC, 2, seed=5)
        fresh = submatrix(A, full_mask(12))
        per, det = permanent(fresh), determinant(fresh)
        for _ in range(2):
            lieb, fischer = check_lieb(A), check_fischer(A)
            for m in (1, 6, 11):
                blocks = [submatrix(A, T) for T in split_masks(12, m)]
                assert lieb[m - 1] == compare(
                    "lieb", per, permanent(blocks[0]) * permanent(blocks[1]),
                    ">=", 0.0)._replace(split=m)
                assert fischer[m - 1] == compare(
                    "fischer", det,
                    determinant(blocks[0]) * determinant(blocks[1]), "<=",
                    0.0)._replace(split=m)


@st.composite
def _split_instances(draw):
    """An exact matrix at n = 2..7: real or Hermitian PSD, non-Hermitian
    complex-rational, PSD with a zero row, or a direct sum of two PSD
    blocks."""
    n = draw(st.integers(2, 7))
    seed = draw(st.integers(0, 10 ** 6))
    kind = draw(st.sampled_from([REAL_SYMMETRIC, HERMITIAN]))
    shape = draw(st.sampled_from(["psd", "complex", "zero-row",
                                  "direct-sum"]))
    if shape == "psd":
        return random_psd(n, kind, 3, seed)
    if shape == "complex":
        return random_matrix(n, COMPLEX_RATIONAL, 3, seed)
    if shape == "zero-row":
        zero = Matrix([[F(0)]], kind=random_psd(1, kind, 3, 0).kind)
        B = random_psd(n - 1, kind, 3, seed)
        return direct_sum(B, zero) if seed % 2 else direct_sum(zero, B)
    k = draw(st.integers(1, n - 1))
    return direct_sum(random_psd(k, kind, 3, seed),
                      random_psd(n - k, kind, 3, seed + 1))


def _split_branch_failures(module) -> int:
    """The (instance, split, family) cases, real and Hermitian at
    n = 2..5, where module's check_lieb or check_fischer differs from
    compare on Glynn's and Bareiss's values of the whole matrix and its
    blocks."""
    failures = 0
    for n in range(2, 6):
        for kind in (REAL_SYMMETRIC, HERMITIAN):
            for make in (random_psd, random_unit_diag_psd):
                A = make(n, kind, 3, n)
                lieb, fischer = module.check_lieb(A), module.check_fischer(A)
                failures += len(lieb) != n - 1 or len(fischer) != n - 1
                for m in range(1, n):
                    blocks = [submatrix(A, T) for T in split_masks(n, m)]
                    failures += lieb[m - 1] != compare(
                        "lieb", permanent(A),
                        permanent(blocks[0]) * permanent(blocks[1]),
                        ">=")._replace(split=m)
                    failures += fischer[m - 1] != compare(
                        "fischer", determinant(A),
                        determinant(blocks[0]) * determinant(blocks[1]),
                        "<=")._replace(split=m)
    return failures


class TestLiebFischerFromPolynomials:
    """Up to the cut, Lieb and Fischer are lieb-alpha and neg-block at
    alpha = 1, read from the cycle polynomials; above it Glynn and
    Bareiss give the same results."""

    @given(_psd_instances(), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_equal_lieb_alpha_and_neg_block_at_one(self, A, float_mode):
        # bit for bit on a float A: reprs keep types and signed zeros
        one = F(1)
        if float_mode:
            A, one = A.to_float(), 1.0
        lieb, fischer = check_lieb(A), check_fischer(A)
        for m in range(1, A.n):
            lieb_alpha, neg_block = _at(check_lieb_type(A, one), m)
            assert repr(lieb[m - 1]) == repr(
                lieb_alpha._replace(name="lieb", hypothesis=None))
            assert repr(fischer[m - 1]) == repr(
                neg_block._replace(name="fischer", hypothesis=None))

    @given(_split_instances())
    @settings(max_examples=60, deadline=None)
    def test_both_branches_agree(self, A):
        import unittest.mock
        import alphaperm.inequalities as ineq
        n = A.n
        below = [_outcome(lambda: list(map(_typed, check(A))))
                 for check in (check_lieb, check_fischer)]
        B = submatrix(A, full_mask(n))   # a copy that keeps nothing
        with unittest.mock.patch.object(ineq, "_SPLIT_POLYNOMIAL_MAX_N", 0):
            above = [_outcome(lambda: list(map(_typed, check(B))))
                     for check in (check_lieb, check_fischer)]
        assert "cycle-polynomial" not in B._tables
        assert below == above

    def test_unbroken_code_passes(self):
        import alphaperm.inequalities as ineq
        assert _split_branch_failures(ineq) == 0

    @pytest.mark.parametrize("old, new", [
        # fischer without its (-1)^n
        ("sign_n = -1 if n % 2 else 1", "sign_n = 1"),
        # lieb evaluated at (-1, 1)
        ("x = sign * p", "x = -p"),
    ])
    def test_mutant_fails(self, monkeypatch, old, new):
        import inspect
        import alphaperm.inequalities as ineq
        source = inspect.getsource(ineq._split_checks)
        assert source.count(old) == 1
        namespace = dict(vars(ineq))
        exec(source.replace(old, new), namespace)
        monkeypatch.setattr(ineq, "_split_checks", namespace["_split_checks"])
        assert _split_branch_failures(ineq) > 0


class TestWholeMatrixOncePerCall:
    """A family call answers every split, and reads the whole matrix's
    values once, however many splits there are."""

    @staticmethod
    def _whole_reads(monkeypatch, call, A) -> dict:
        """How often call(A) reads the cycle polynomials of the whole set
        and runs _cycle_polynomial_at."""
        import alphaperm.inequalities as ineq
        import alphaperm.partitions as partitions
        counts = {"at": 0, "_cycle_polynomial_at": 0}
        at = partitions.CyclePolynomials.at
        polynomial_at = ineq._cycle_polynomial_at
        full = full_mask(A.n)

        def spy_at(self, x, y, mask=-1):
            counts["at"] += mask in (-1, full)
            return at(self, x, y, mask)

        def spy_polynomial_at(*args):
            counts["_cycle_polynomial_at"] += 1
            return polynomial_at(*args)

        with monkeypatch.context() as patch:
            patch.setattr(partitions.CyclePolynomials, "at", spy_at)
            patch.setattr(ineq, "_cycle_polynomial_at", spy_polynomial_at)
            results = call(A)
        assert len({r.split for r in results} - {None}) == A.n - 1
        return counts

    @pytest.mark.parametrize("family, kind, reads", [
        # at (p, -q), (p, 2q), (p, q) and (-p, q); no half-scaled on
        # Hermitian A
        ("lieb-type", REAL_SYMMETRIC, 4),
        ("lieb-type", HERMITIAN, 3),
        ("lieb", REAL_SYMMETRIC, 1),
        ("lieb", HERMITIAN, 1),
        ("fischer", REAL_SYMMETRIC, 1),
        ("fischer", HERMITIAN, 1),
    ])
    def test_counts_do_not_grow_with_n(self, monkeypatch, family, kind,
                                       reads):
        call = {"lieb-type": lambda A: check_lieb_type(A, F(13, 10)),
                "lieb": check_lieb, "fischer": check_fischer}[family]
        for n in (5, 8):
            A = random_unit_diag_psd(n, kind, 3, seed=n)
            assert self._whole_reads(monkeypatch, call, A) \
                == {"at": reads, "_cycle_polynomial_at": 1}

    def test_above_the_cut_one_kernel_run_on_A_per_call(self, monkeypatch):
        import alphaperm.inequalities as ineq
        A = random_unit_diag_psd(11, REAL_SYMMETRIC, 2, seed=1)
        runs = []

        def spy(kernel):
            def run(B):
                runs.append((kernel.__name__, B is A))
                return kernel(B)
            return run

        monkeypatch.setattr(ineq, "permanent", spy(permanent))
        monkeypatch.setattr(ineq, "determinant", spy(determinant))
        for check, kernel in ((check_lieb, "permanent"),
                              (check_fischer, "determinant")):
            for _ in range(2):
                runs.clear()
                assert len(check(A)) == 10
                assert sorted(runs) == [(kernel, False)] * 20 \
                    + [(kernel, True)]


_memo_alphas = st.one_of(
    st.just(F(0)),
    st.builds(F, st.integers(-9, -1), st.integers(1, 4)),
    st.integers(1, 5).map(F),
    st.integers(-4, 4).map(lambda k: F(2 * k + 1, 2)),
)

# what a caller may build first; every order of them is drawn
_WARM_UPS = {
    "lieb-type": lambda A, alpha: check_lieb_type(A, alpha),
    "marcus": lambda A, alpha: check_marcus(A, alpha),
    "lieb-fischer": lambda A, alpha: (check_lieb(A), check_fischer(A)),
}


def _reads(alpha, tol):
    """Every family result and table the package reads from a matrix at
    alpha, as functions of the matrix that give reprs, so that
    types and signed zeros count."""
    def entries(table):
        return [repr(x) for x in table]

    reads = [lambda A: repr(check_marcus(A, alpha, tol)),
             lambda A: repr(check_neg_positivity(A, alpha, tol)),
             lambda A: repr(check_lieb_type(A, alpha, tol=tol)),
             lambda A: entries(cycle_sum_table(A)),
             lambda A: repr(check_lieb(A, tol=tol)),
             lambda A: repr(check_fischer(A, tol=tol))]
    for sign in (1, -1):
        reads.append(lambda A, s=sign: repr(sorted(
            shape_averages(A, s, tol).items())))
    for a in (alpha, -alpha, alpha / 2):
        reads += [lambda A, a=a: repr(per_alpha_dp(A, a)),
                  lambda A, a=a: entries(per_alpha_minors(A, a))]
    return reads


class TestKeptTables:
    @given(_psd_instances(), _memo_alphas, st.booleans(),
           st.permutations(sorted(_WARM_UPS)))
    @settings(max_examples=40, deadline=None)
    def test_warm_matrix_reads_what_a_fresh_copy_computes(self, A, alpha,
                                                          float_mode, order):
        text = dumps_matrix(A)
        tol = 1e-9 if float_mode else 0.0

        def fresh():
            B = loads_matrix(text)
            return B.to_float() if float_mode else B

        if float_mode:
            A, alpha = A.to_float(), to_float_scalar(alpha)
        for name in order:
            _WARM_UPS[name](A, alpha)
        reads = _reads(alpha, tol)
        # each read of the warm matrix against one on a copy of its own,
        # which keeps nothing yet
        assert [read(A) for read in reads] == [read(fresh())
                                               for read in reads]
        cap = A.n - 1
        for call in (lambda: cycle_sum_table(A, cap=cap),
                     lambda: per_alpha_minors(A, alpha, cap=cap),
                     lambda: per_alpha_dp(A, alpha, cap=cap)):
            with pytest.raises(CapacityError):
                call()


_real_alphas = st.one_of(
    st.sampled_from([F(0), F(1), F(2), F(-1)]),
    st.builds(F, st.integers(-40, 40), st.integers(1, 16)),
)


def _lieb_type_by_submatrices(A, alpha):
    """check_lieb_type recomputed on submatrix copies, which keep no
    tables: every per_alpha of an exact A by its own DP, and of a float A
    by the copy's own cycle polynomial. The whole matrix's comparisons
    are made first, as check_lieb_type makes them, so that both raise the
    same error first."""
    n = A.n
    hyp = binomials_nonnegative(alpha, n)
    A = submatrix(A, full_mask(n))
    if kind_is_exact(A.kind):
        per_alpha = per_alpha_dp
    else:
        def per_alpha(B, a):
            return cycle_polynomials(B).at(a, 1.0)
    per_a, per_na = per_alpha(A, alpha), per_alpha(A, -alpha)
    sign_n = (-1) ** n
    whole = [compare("neg-nonneg", sign_n * per_na, 0, ">=", 0.0, hyp)]
    if A.kind in ("rational", "float"):
        scaled = per_a * (F(1, 2 ** n) if A.kind == "rational"
                          else 0.5 ** n)
        whole.append(compare("half-scaled", per_alpha(A, alpha / 2),
                             scaled, ">=", 0.0, hyp))
    out = []
    for m in range(1, n):
        low, high = split_masks(n, m)
        Ap, App = submatrix(A, low), submatrix(A, high)
        sign_m, sign_nm = (-1) ** m, (-1) ** (n - m)
        out += [
            compare("lieb-alpha", per_a,
                    per_alpha(Ap, alpha) * per_alpha(App, alpha),
                    ">=", 0.0, hyp)._replace(split=m),
            compare("neg-block", sign_n * per_na,
                    (sign_m * per_alpha(Ap, -alpha))
                    * (sign_nm * per_alpha(App, -alpha)), "<=", 0.0,
                    hyp)._replace(split=m),
        ]
    # the record order: lieb-alpha(1), neg-nonneg, neg-block(1), half-scaled
    return out[:1] + whole[:1] + out[1:2] + whole[1:] + out[2:]


class TestLiebType:
    def test_result_names_real(self):
        A = random_psd(3, REAL_SYMMETRIC, 3, seed=0)
        names = [(r.name, r.split) for r in check_lieb_type(A, F(2))]
        assert names == [("lieb-alpha", 1), ("neg-nonneg", None),
                         ("neg-block", 1), ("half-scaled", None),
                         ("lieb-alpha", 2), ("neg-block", 2)]

    def test_result_names_hermitian(self):
        A = random_psd(3, HERMITIAN, 3, seed=0)
        names = [(r.name, r.split) for r in check_lieb_type(A, F(2))]
        assert names == [("lieb-alpha", 1), ("neg-nonneg", None),
                         ("neg-block", 1), ("lieb-alpha", 2),
                         ("neg-block", 2)]

    @pytest.mark.parametrize("kind, names", [
        (REAL_SYMMETRIC, ["neg-nonneg", "half-scaled"]),
        (HERMITIAN, ["neg-nonneg"])])
    def test_without_a_split_only_the_whole_matrix(self, kind, names):
        for A in (Matrix([], kind=random_psd(1, kind, 3, 0).kind),
                  random_psd(1, kind, 3, seed=2)):
            rs = check_lieb_type(A, F(2))
            assert [(r.name, r.split) for r in rs] \
                == [(name, None) for name in names]

    def test_alpha_is_not_positional_after_the_matrix(self):
        # a call in the per-split form check_lieb_type(A, m, alpha) fails
        # instead of reading m as alpha
        A = random_psd(3, REAL_SYMMETRIC, 3, seed=0)
        for call in (lambda: check_lieb_type(A, 1, F(2)),
                     lambda: check_lieb(A, 1), lambda: check_fischer(A, 1)):
            with pytest.raises(TypeError):
                call()

    def test_in_regime_holds(self):
        for seed in range(4):
            A = random_psd(4, REAL_SYMMETRIC, 3, seed=seed + 60)
            for alpha in (F(0), F(1), F(2), F(3), F(4), F(7, 2)):
                for r in check_lieb_type(A, alpha):
                    assert r.hypothesis is True
                    assert r.ok, (r.name, alpha, r.split, seed)

    def test_alpha_zero_equalities(self):
        A = random_psd(3, REAL_SYMMETRIC, 3, seed=5)
        for r in check_lieb_type(A, F(0)):
            assert r.verdict == EQUALITY

    def test_out_of_regime_flagged(self):
        A = random_psd(4, REAL_SYMMETRIC, 3, seed=7)
        for r in check_lieb_type(A, F(3, 2)):
            assert r.hypothesis is False

    def test_block_diagonal_equality_in_lieb_alpha(self):
        B = random_psd(2, REAL_SYMMETRIC, 3, seed=8)
        C = random_psd(2, REAL_SYMMETRIC, 3, seed=9)
        A = direct_sum(B, C)
        r = _at(check_lieb_type(A, F(3)), 2)[0]
        assert r.name == "lieb-alpha" and r.verdict == EQUALITY

    def test_neg_positivity_full_matrix(self):
        A = random_psd(3, REAL_SYMMETRIC, 3, seed=11)
        r = check_neg_positivity(A, F(2))
        assert r.name == "neg-nonneg"
        lhs = -per_alpha_dp(A, F(-2))  # (-1)^3 per_{-2}
        assert r.lhs == lhs
        assert r.ok

    def test_all_ones_matrix_breaks_the_signed_families(self):
        # J_n is PSD of rank 1, and (-1)^n per_{-a}(J_n) is the falling
        # factorial a (a-1) ... (a-n+1): negative when an odd number of its
        # factors are, inside 1 <= a < n-1
        def ones(n):
            return Matrix([[F(1)] * n for _ in range(n)], real_symmetric=True)

        for n in range(1, 6):
            J = ones(n)
            for a in (F(3, 2), F(13, 10), F(7, 3), F(2)):
                falling = math.prod(a - j for j in range(n))
                assert (-1) ** n * per_alpha_naive(J, -a) == falling
                assert (-1) ** n * per_alpha_dp(J, -a) == falling
        (r, *_) = _at(check_lieb_type(ones(3), F(3, 2)), None)
        assert r.name == "neg-nonneg"
        assert r.slack == F(-3, 8)
        assert r.hypothesis is False
        results = check_lieb_type(ones(4), F(13, 10))
        for m, want in ((1, F(-819, 1000)), (2, F(-39, 125)),
                        (3, F(-819, 1000))):
            r = {r.name: r for r in _at(results, m)}
            assert r["neg-block"].slack == want
            assert r["neg-block"].hypothesis is False

    @given(_psd_instances(), _real_alphas, st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_shared_tables_equal_per_split_recomputation(self, A, alpha,
                                                         float_mode):
        # a float A's values equal those of its blocks' own polynomials
        if float_mode:
            A, alpha = A.to_float(), to_float_scalar(alpha)
        kept = cycle_polynomials(A)
        expect = _lieb_type_by_submatrices(A, alpha)
        assert check_lieb_type(A, alpha) == expect
        # a copy builds its own polynomials
        copy = submatrix(A, full_mask(A.n))
        assert check_lieb_type(copy, alpha) == expect
        assert cycle_polynomials(A) is kept


def _lieb_type_gate_failures(check):
    """The (instance, alpha, result) cases, real and Hermitian at
    n = 2..5, where check(A, alpha) is not _lieb_type_by_submatrices."""
    failures = 0
    for n in range(2, 6):
        for kind in (REAL_SYMMETRIC, HERMITIAN):
            A = random_psd(n, kind, 3, seed=n)
            for alpha in (F(13, 10), F(-7, 4), F(5, 2)):
                got = check(A, alpha)
                want = _lieb_type_by_submatrices(A, alpha)
                failures += len(got) != len(want)
                failures += sum(map(operator.ne, got, want))
    return failures


class TestLiebTypeMutations:
    """Broken copies of the polynomial reads fail the per-submatrix gate."""

    def test_unbroken_code_passes(self):
        assert _lieb_type_gate_failures(check_lieb_type) == 0

    def test_prefix_row_on_the_wrong_mask_fails(self, monkeypatch):
        # the row of {0..m-1} built as that of {0..m-2}
        import inspect
        import textwrap
        import alphaperm.partitions as partitions
        source = textwrap.dedent(inspect.getsource(
            partitions.CyclePolynomials.row))
        old = "_graded_row(self.f, self.rows, mask)"
        assert old in source
        namespace = dict(vars(partitions))
        exec(source.replace(old, "_graded_row(self.f, self.rows, "
                                 "mask >> 1 | 1)"), namespace)
        monkeypatch.setattr(partitions.CyclePolynomials, "row",
                            namespace["row"])
        assert _lieb_type_gate_failures(check_lieb_type) > 0

    def test_neg_at_minus_q_without_its_sign_fails(self):
        # the sum at (p, -q) is (-1)^|T| that at (-p, q)
        import inspect
        import alphaperm.inequalities as ineq
        source = inspect.getsource(ineq.check_lieb_type)
        assert source.count("at(-p, q") == 3
        namespace = dict(vars(ineq))
        exec(source.replace("at(-p, q", "at(p, -q"), namespace)
        assert _lieb_type_gate_failures(namespace["check_lieb_type"]) > 0


def _float_families_by_dps(A, alpha) -> dict:
    """{(name, split): (lhs, rhs)} of every alpha-family of a float A,
    recomputed with per_alpha_dp on a copy of each block, which keeps no
    tables: split None for the comparisons of the whole matrix."""
    n = A.n
    sign_n = (-1) ** n
    B = submatrix(A, full_mask(n))

    def per(mask, a):
        return per_alpha_dp(submatrix(A, mask), a)

    diag = diagonal_product(B)
    per_a, per_na = per_alpha_dp(B, alpha), per_alpha_dp(B, -alpha)
    out = {("neg-nonneg", None): (sign_n * per_na, 0.0),
           ("marcus-upper", None): (per_a, alpha ** n * diag),
           ("marcus-lower", None): (alpha ** n * diag, sign_n * per_na)}
    if A.kind == "float":
        half = per_alpha_dp(B, alpha / 2)
        out["half-scaled", None] = (half, per_a * 0.5 ** n)
        out["marcus-half", None] = (half, (alpha / 2) ** n * diag)
    for m in range(1, n):
        low, high = split_masks(n, m)
        out["lieb-alpha", m] = (per_a, per(low, alpha) * per(high, alpha))
        out["neg-block", m] = (sign_n * per_na,
                               (-1) ** m * per(low, -alpha)
                               * (-1) ** (n - m) * per(high, -alpha))
    return out


def _float_family_misses(tol=1e-9) -> list:
    """The float alpha-family results, real and Hermitian at n = 2..5,
    whose lhs or rhs lies outside compare's band around
    _float_families_by_dps's."""
    def close(x, y):
        x, y = _real_value(x, tol), _real_value(y, tol)
        return abs(x - y) <= tol * (1.0 + max(abs(x), abs(y)))

    misses = []
    for n in range(2, 6):
        for kind in (REAL_SYMMETRIC, HERMITIAN):
            A = random_psd(n, kind, 3, seed=n).to_float()
            for alpha in (0.0, 1.0, 1.3, -1.75, n - 1.0, float(n)):
                want = _float_families_by_dps(A, alpha)
                got = (check_lieb_type(A, alpha, tol=tol)
                       + check_marcus(A, alpha, tol))
                assert len(got) == len(want)
                for r in got:
                    lhs, rhs = want[r.name, r.split]
                    if not (close(r.lhs, lhs) and close(r.rhs, rhs)):
                        misses.append((n, kind, alpha, r.name, r.split))
    return misses


class TestFloatFamilies:
    """Float alpha-families read A's float cycle polynomials; their values
    agree with per_alpha_dp's on each block within compare's band, and
    their verdicts equal the exact lane's on the edge cases."""

    def test_lhs_and_rhs_agree_with_the_subset_dps(self):
        assert _float_family_misses() == []

    def test_result_without_its_denominator_fails(self, monkeypatch):
        # half-scaled and marcus-half carry 2^n in their denominator
        import inspect
        import textwrap
        import alphaperm.inequalities as ineq
        source = textwrap.dedent(inspect.getsource(ineq._result))
        old = "_real_value(x, tol) / den"
        assert source.count(old) == 1
        namespace = dict(vars(ineq))
        exec(source.replace(old, "_real_value(x, tol)"), namespace)
        monkeypatch.setattr(ineq, "_result", namespace["_result"])
        misses = _float_family_misses()
        assert {name for *_, name, _ in misses} \
            == {"half-scaled", "marcus-half"}

    @pytest.mark.parametrize("A", [
        Matrix([], kind="rational"),
        random_psd(1, REAL_SYMMETRIC, 3, seed=2),
        direct_sum(random_psd(3, REAL_SYMMETRIC, 3, seed=4),
                   Matrix([[F(0)]])),
        random_psd(4, HERMITIAN, 3, seed=6),
        direct_sum(random_psd(3, HERMITIAN, 3, seed=4),
                   Matrix([[F(0)]], kind=COMPLEX_RATIONAL)),
    ], ids=["n0", "n1", "zero-row", "hermitian", "hermitian-zero-row"])
    def test_float_verdicts_equal_the_exact_ones(self, A):
        n = A.n
        Af = A.to_float()

        def verdicts(B, alpha, tol):
            rs = check_marcus(B, alpha, tol) \
                + check_lieb_type(B, alpha, tol=tol)
            return [(r.name, r.split, r.verdict) for r in rs]

        for alpha in (F(0), F(1), F(13, 10), F(-7, 4), F(n - 1), F(n)):
            exact = verdicts(A, alpha, 0.0)
            assert verdicts(Af, to_float_scalar(alpha), 1e-9) == exact
            if A.rows and not any(A.rows[-1]):
                assert {v for *_, v in exact} == {EQUALITY}


def _typed(r):
    """A comparison with the types of its fields."""
    return r, [type(x) for x in r]


def _outcome(call):
    """_typed(call()), or the message of the ArithmeticError it raises."""
    try:
        r = call()
    except ArithmeticError as e:
        return "raises", str(e)
    return _typed(r)


@st.composite
def _gaussian_tables(draw):
    """(table, m): an exact complex table whose whole entry and split-m
    block product are real although the two blocks are not. The high
    entry is t conj(low entry) up to the bases, so I[low] I[high] is part
    of the product's real part; poison then puts an imaginary part on the
    whole entry or on the block product, or leaves the table alone."""
    n = draw(st.integers(2, 5))
    m = draw(st.integers(1, n - 1))
    size = 1 << n
    ints = st.lists(st.integers(-60, 60), min_size=size, max_size=size)
    values, imag = draw(ints), draw(ints)
    low, high = split_masks(n, m)
    t = draw(st.integers(-4, 4).filter(bool))
    values[high], imag[high], imag[-1] = t * values[low], -t * imag[low], 0
    poison = draw(st.sampled_from([None, "whole", "block"]))
    if poison == "whole":
        imag[-1] = draw(st.integers(-9, 9).filter(bool))
    elif poison == "block":
        imag[high] += 1
    return ScaledTable(COMPLEX_RATIONAL, draw(st.integers(1, 6)), values,
                       imag), m


def _poison_row(A, mask):
    """Keep A's cycle polynomials with their rows as Gaussian integers, and
    row mask with an imaginary top coefficient: the sum at (+-p, q) on
    that index set is then not real."""
    polynomials = cycle_polynomials(A)
    polynomials.row(mask)
    rows = [None if row is None else [G(x) for x in row]
            for row in polynomials.rows]
    rows[mask][-1] += G(0, 1)
    A._tables["cycle-polynomial"] = polynomials._replace(rows=rows)


class TestTableCompare:
    """The table comparisons decided on the tables' integers equal compare
    on the converted entries: the same fields of the same types, or the
    same ArithmeticError."""

    @given(_psd_instances(), _memo_alphas)
    @settings(max_examples=40, deadline=None)
    def test_equals_compare_of_submatrix_dps(self, A, alpha):
        n = A.n
        assert list(map(_typed, check_lieb_type(A, alpha))) \
            == list(map(_typed, _lieb_type_by_submatrices(A, alpha)))
        whole = submatrix(A, full_mask(n))
        lieb, fischer = check_lieb(A), check_fischer(A)
        for m in range(1, n):
            blocks = (whole, *(submatrix(A, T) for T in split_masks(n, m)))
            per = [per_alpha_dp(B, F(1)) for B in blocks]
            det = [(-1) ** B.n * per_alpha_dp(B, F(-1)) for B in blocks]
            assert _typed(lieb[m - 1]) == _typed(compare(
                "lieb", per[0], per[1] * per[2], ">=")._replace(split=m))
            assert _typed(fischer[m - 1]) == _typed(compare(
                "fischer", det[0], det[1] * det[2], "<=")._replace(split=m))

    @given(_gaussian_tables(), st.sampled_from([1, -1]),
           st.sampled_from([">=", "<="]),
           st.sampled_from([None, False, True]))
    @settings(max_examples=200, deadline=None)
    def test_gaussian_entries_equal_compare(self, drawn, sign, direction,
                                            hyp):
        table, m = drawn
        n = len(table).bit_length() - 1
        low, high = split_masks(n, m)
        f, _ = table.ring()
        assert _outcome(lambda: _exact_result(
            "x", sign * f[-1], sign * (f[low] * f[high]), table.base ** n,
            direction, hyp)) \
            == _outcome(lambda: compare(
                "x", sign * table[-1], sign * (table[low] * table[high]),
                direction, 0.0, hyp))

    @pytest.mark.parametrize("where", ["whole", "block"])
    def test_poisoned_imaginary_part_raises(self, where):
        # lieb and fischer read the polynomials lieb-alpha reads
        A = random_psd(4, HERMITIAN, 3, seed=2)
        alpha = F(3, 2)
        low, _ = split_masks(4, 1)
        _poison_row(A, -1 if where == "whole" else low)
        calls = [lambda: check_lieb_type(A, alpha),
                 lambda: check_lieb(A), lambda: check_fischer(A)]
        if where == "whole":
            calls.append(lambda: check_neg_positivity(A, alpha))
        for call in calls:
            with pytest.raises(ArithmeticError, match="imaginary residue"):
                call()

    def test_no_gaussian_rational_arithmetic(self, monkeypatch):
        # once a Hermitian instance keeps its tables, every comparison of
        # their entries runs on integers
        A = random_psd(5, HERMITIAN, 3, seed=4)
        alpha = F(7, 5)
        cycle_polynomials(A)

        def forbidden(self, other):
            raise AssertionError("GaussianRational arithmetic")

        for name in ("__mul__", "__rmul__", "__sub__", "__rsub__"):
            monkeypatch.setattr(GaussianRational, name, forbidden)
        results = check_lieb_type(A, alpha) + check_lieb(A) + check_fischer(A)
        assert len(results) == 17
        assert {(r.mode, r.tol) for r in results} == {("exact", 0.0)}


class TestMarcus:
    def test_diagonal_equalities(self):
        rows = [[F(0)] * 3 for _ in range(3)]
        for i, d in enumerate((F(2), F(1, 3), F(5))):
            rows[i][i] = d
        A = Matrix(rows, real_symmetric=True)
        for alpha in (F(1), F(2), F(7, 2), F(1, 2)):
            for r in check_marcus(A, alpha):
                assert r.verdict == EQUALITY, (r.name, alpha)

    def test_in_regime_holds(self):
        for seed in range(4):
            A = random_psd(4, HERMITIAN, 3, seed=seed + 80)
            for alpha in (F(0), F(1), F(3), F(4)):
                for r in check_marcus(A, alpha):
                    assert r.ok, (r.name, alpha)

    def test_worked_example(self):
        A = Matrix([[F(1), F(1)], [F(1), F(1)]], real_symmetric=True)
        rs = check_marcus(A, F(1))
        by = {r.name: r for r in rs}
        assert by["marcus-upper"].lhs == 2   # permanent
        assert by["marcus-upper"].rhs == 1   # alpha^n prod a_ii
        assert by["marcus-lower"].rhs == 0   # (-1)^2 per_{-1} = det = 0
        assert all(r.ok for r in rs)

    def test_hypothesis_extension_for_small_n(self):
        # alpha in [1,2] at n <= 5 is proven even though binomials go negative
        A = random_psd(4, REAL_SYMMETRIC, 3, seed=13)
        rs = {r.name: r for r in check_marcus(A, F(3, 2))}
        assert not binomials_nonnegative(F(3, 2), 4)
        assert rs["marcus-upper"].hypothesis is True
        assert rs["marcus-lower"].hypothesis is True
        assert rs["marcus-half"].hypothesis is False

    def test_theorem3_range_holds(self):
        for seed in range(6):
            A = random_unit_diag_psd(5, REAL_SYMMETRIC, 3, seed=seed)
            for alpha in (F(1), F(13, 10), F(3, 2), F(2)):
                rs = check_marcus(A, alpha)
                assert rs[0].ok and rs[1].ok


_poly_alphas = st.one_of(
    _memo_alphas, st.builds(F, st.integers(-20, 20), st.integers(3, 12)))

# a PSD instance of either exact kind at n = 1..6, or an empty one
_exact_instances = st.one_of(
    _psd_instances(max_n=6),
    st.sampled_from(["rational", COMPLEX_RATIONAL]).map(
        lambda kind: Matrix([], kind=kind)))


def _row_types(A):
    """The types of the coefficients k >= 1 in A's kept polynomial rows,
    after checking that they have integer parts."""
    types = set()
    for row in cycle_polynomials(A).rows:
        for x in row[1:] if row is not None else ():
            parts = (x.re, x.im) if isinstance(x, GaussianRational) else (x,)
            assert all(y.denominator == 1 for y in parts)
            types.add(type(x))
    return types


def _marcus_by_dps(A, alpha):
    """check_marcus and check_neg_positivity, as functions giving their
    results, recomputed as compare on per_alpha_dp of a fresh copy of A,
    which keeps no tables."""
    n = A.n
    B = Matrix(A.rows, kind=A.kind)
    hyp = binomials_nonnegative(alpha, n)
    hyp_chain = hyp or (alpha >= 1 and n <= 5)
    diag = diagonal_product(B)
    mid = alpha ** n * diag
    sign_n = (-1) ** n

    def marcus():
        out = [compare("marcus-upper", per_alpha_dp(B, alpha), mid, ">=",
                       0.0, hyp_chain),
               compare("marcus-lower", mid, sign_n * per_alpha_dp(B, -alpha),
                       ">=", 0.0, hyp_chain)]
        if A.kind == "rational":
            out.append(compare("marcus-half", per_alpha_dp(B, alpha / 2),
                               (alpha / 2) ** n * diag, ">=", 0.0, hyp))
        return list(map(_typed, out))

    def neg_positivity():
        return _typed(compare("neg-nonneg", sign_n * per_alpha_dp(B, -alpha),
                              0, ">=", 0.0, hyp))

    return marcus, neg_positivity


class TestMarcusPolynomial:
    """Exact check_marcus and check_neg_positivity read A's integer cycle
    polynomial, kept on A; they equal compare on per_alpha_dp's values."""

    @given(_exact_instances, _poly_alphas)
    @settings(max_examples=300, deadline=None)
    def test_equals_compare_of_full_set_dps(self, A, alpha):
        marcus, neg_positivity = _marcus_by_dps(A, alpha)
        assert list(map(_typed, check_marcus(A, alpha))) == marcus()
        assert _typed(check_neg_positivity(A, alpha)) == neg_positivity()

    @staticmethod
    def _rows_are_the_oracles(A):
        # every row T, kept or built on its first read, is the oracle's
        # cycle polynomial of A[T] times L^|T|
        polynomials = cycle_polynomials(A)
        L = polynomials.base
        assert L == cycle_sum_table(A).base
        assert cycle_polynomials(A) is polynomials
        assert polynomials.row(0) == [1]
        for T in range(1, 1 << A.n):
            want = [x * L ** T.bit_count()
                    for x in _naive_cycle_polynomial(submatrix(A, T))]
            assert polynomials.row(T) == want
            assert polynomials.row(T) is polynomials.rows[T]

    @given(_exact_instances)
    @settings(max_examples=60, deadline=None)
    def test_kept_polynomial_is_the_oracles_times_L_to_the_n(self, A):
        self._rows_are_the_oracles(A)
        # a Hermitian A's cycle sums are real, so its rows are ints
        assert _row_types(A) <= {int}

    # non-Hermitian complex input: per_a imaginary; per_a real but
    # a^n prod a_ii not (alpha = 1); both real but (-1)^n per_{-a} not
    # (alpha = 1); and a cycle table with imaginary parts whose values
    # are real
    _NON_HERMITIAN = [
        [[G(1, 1), G(2)], [G(0, 3), G(1)]],
        [[G(0, 1), G(1)], [G(0, -1), G(1)]],
        [[G(1), G(1), G(0)], [G(0, 1), G(1), G(1)], [G(0, -1), G(0), G(1)]],
        [[G(1), G(0, 1), G(0, -1)], [G(1), G(1), G(0)], [G(1), G(0), G(1)]],
    ]

    @pytest.mark.parametrize("rows", _NON_HERMITIAN)
    def test_non_hermitian_input_raises_as_compare_does(self, rows):
        A = Matrix(rows)
        assert _row_types(A) == {GaussianRational}
        marcus, neg_positivity = _marcus_by_dps(A, F(1))
        assert _outcome(lambda: list(map(_typed, check_marcus(A, F(1))))) \
            == _outcome(marcus)
        assert _outcome(lambda: _typed(check_neg_positivity(A, F(1)))) \
            == _outcome(neg_positivity)

    def test_non_hermitian_cases_raise_at_each_quantity(self):
        # the cases above raise on per_a, on a^n prod a_ii and on
        # (-1)^n per_{-a}; the last one does not raise
        messages = []
        for rows in self._NON_HERMITIAN:
            try:
                check_marcus(Matrix(rows), F(1))
            except ArithmeticError as e:
                messages.append(str(e))
            else:
                messages.append(None)
        assert messages == ["imaginary residue 7 in a real quantity",
                            "imaginary residue 1 in a real quantity",
                            "imaginary residue -2 in a real quantity",
                            None]

    @given(st.integers(1, 4), st.integers(0, 10 ** 6), _poly_alphas)
    @settings(max_examples=60, deadline=None)
    def test_random_complex_input_equals_compare(self, n, seed, alpha):
        rng = random.Random(seed)

        def part():
            return F(rng.randint(-3, 3), rng.randint(1, 3))

        A = Matrix([[G(part(), part()) for _ in range(n)] for _ in range(n)])
        marcus, neg_positivity = _marcus_by_dps(A, alpha)
        assert _outcome(lambda: list(map(_typed, check_marcus(A, alpha)))) \
            == _outcome(marcus)
        assert _outcome(lambda: _typed(check_neg_positivity(A, alpha))) \
            == _outcome(neg_positivity)
        # lieb-type reads Gaussian rows, prefix rows built on first read
        self._rows_are_the_oracles(Matrix(A.rows))
        assert _outcome(lambda: list(map(_typed, check_lieb_type(
            A, alpha)))) == _outcome(lambda: list(map(
                _typed, _lieb_type_by_submatrices(A, alpha))))

    def test_marcus_lower_fails_for_J6_and_J8(self):
        # the chain at alpha >= 1 is proven only for n <= 5; the all-ones
        # J_n breaks its lower link at n = 6 and n = 8, outside the regime
        for n, slack in ((6, F(-425, 1024)), (8, F(-448775, 4096))):
            J = Matrix([[F(1)] * n for _ in range(n)], real_symmetric=True)
            alpha = F(5, 4)
            r = {r.name: r for r in check_marcus(J, alpha)}["marcus-lower"]
            assert (r.verdict, r.slack, r.hypothesis) \
                == (VIOLATED, slack, False)
            assert r.lhs == alpha ** n
            assert _naive_slack("marcus-lower", J, alpha, None) == slack

    def test_mixed_mode_alpha_is_rejected(self):
        A = random_psd(3, REAL_SYMMETRIC, 3, seed=1)
        for call in (check_marcus, check_neg_positivity):
            with pytest.raises(MixedModeError):
                call(A, 1.5)


@st.composite
def _complex_matrices(draw):
    """A random complex-rational matrix at n = 1..4."""
    n = draw(st.integers(1, 4))
    part = st.builds(F, st.integers(-3, 3), st.integers(1, 3))
    return Matrix([[G(draw(part), draw(part)) for _ in range(n)]
                   for _ in range(n)])


class TestScaledEntries:
    """A table's ring() hands out entry T as the kernels hold it: converted
    over base^|T|, it is the entry indexing gives, of the same type."""

    @given(st.one_of(_exact_instances, _complex_matrices()), _poly_alphas,
           st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_scaled_entries_convert_to_the_indexed_ones(self, A, alpha,
                                                        complex_alpha):
        # the minors at a complex alpha keep imaginary parts on every kind
        if complex_alpha:
            alpha = G(alpha, 1)
        tables = [cycle_sum_table(A), per_alpha_minors(A, alpha),
                  per_alpha_minors(A, -alpha), per_alpha_minors(A, F(-1))]
        for table in tables:
            f, _ = table.ring()
            assert len(f) == len(table)
            if table.imag is None:
                assert f is table.values
            for T in range(len(table)):
                x = f[T]
                if x is None:
                    assert table[T] is None
                    continue
                if isinstance(x, GaussianRational):
                    assert x.re.denominator == x.im.denominator == 1
                    parts = int(x.re), int(x.im)
                else:
                    assert type(x) is int
                    parts = x, None if A.kind == "rational" else 0
                assert repr(from_scaled(table.base ** T.bit_count(),
                                        *parts)) == repr(table[T])


def _exact_result_gate_failures():
    """The exact results, on real and Hermitian instances at n = 2..4,
    whose verdict is not the sign of their slack or whose slack is not the
    oracle's, plus the imaginary residues not raised as compare raises
    them: on the rhs of compare, and on a poisoned block product."""
    failures = 0
    for n in range(2, 5):
        for kind in (REAL_SYMMETRIC, HERMITIAN):
            A = random_psd(n, kind, 3, seed=n)
            for alpha in (F(13, 10), F(-7, 4), F(5, 2)):
                results = (check_marcus(A, alpha) + check_lieb(A)
                           + check_fischer(A) + check_lieb_type(A, alpha))
                for r in results:
                    sign = EQUALITY if r.slack == 0 else (
                        HOLDS if r.slack > 0 else VIOLATED)
                    failures += r.verdict != sign
                    failures += r.slack != _naive_slack(r.name, A, alpha,
                                                        r.split)
    failures += _outcome(lambda: compare("x", F(1), G(1, 2), ">=")) \
        != ("raises", "imaginary residue 2 in a real quantity")
    A = random_psd(4, HERMITIAN, 3, seed=2)
    _poison_row(A, split_masks(4, 1)[0])
    failures += _outcome(lambda: check_lieb(A))[0] != "raises"
    return failures


class TestExactResultMutations:
    """Broken copies of _exact_result, the one builder of every exact
    result, fail the gate."""

    def test_unbroken_code_passes(self):
        assert _exact_result_gate_failures() == 0

    @pytest.mark.parametrize("old, new", [
        # the rhs residue check skipped
        ("rhs = _rational(rhs, den)",
         "rhs = rhs.re if isinstance(rhs, GaussianRational) else rhs"),
        # the verdict's sign flipped
        ("HOLDS if diff > 0 else VIOLATED", "HOLDS if diff < 0 else VIOLATED"),
    ])
    def test_mutant_fails(self, monkeypatch, old, new):
        import inspect
        import alphaperm.inequalities as ineq
        source = inspect.getsource(ineq._exact_result)
        assert source.count(old) == 1
        namespace = dict(vars(ineq))
        exec(source.replace(old, new), namespace)
        monkeypatch.setattr(ineq, "_exact_result", namespace["_exact_result"])
        assert _exact_result_gate_failures() > 0


def _set_partitions(items):
    """Every set partition of items, as lists of blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        yield [[first]] + part
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]


def _shapes(n, largest=None):
    """Every integer partition of n, parts in decreasing order."""
    if n == 0:
        return [()]
    largest = n if largest is None else largest
    return [(p,) + rest for p in range(min(n, largest), 0, -1)
            for rest in _shapes(n - p, p)]


class TestPShape:
    def test_single_block_is_kernel(self):
        A = random_psd(4, REAL_SYMMETRIC, 3, seed=17)
        assert p_shape(A, (4,), 1) == permanent(A)
        assert p_shape(A, (4,), -1) == determinant(A)  # (-1)^4 det

    def test_single_block_odd_sign(self):
        A = random_psd(3, REAL_SYMMETRIC, 3, seed=18)
        assert p_shape(A, (3,), -1) == -determinant(A)

    def test_all_singletons_unit_diag(self):
        A = random_unit_diag_psd(5, REAL_SYMMETRIC, 3, seed=19)
        assert p_shape(A, (1,) * 5, 1) == 1
        assert p_shape(A, (1,) * 5, -1) == -1  # five factors of -a_ii

    def test_identity_any_shape(self):
        I5 = Matrix.identity(5, "rational")
        for shape in [(5,), (4, 1), (3, 2), (2, 2, 1), (1, 1, 1, 1, 1)]:
            assert p_shape(I5, shape, 1) == 1
            assert p_shape(I5, shape, -1) == -1  # n odd: sign product is -1

    def test_average_normalization(self):
        # p over (2,1) shapes of a 3x3: 3 partitions averaged
        A = random_psd(3, REAL_SYMMETRIC, 3, seed=21)
        total = F(0)
        for pair_mask, single_mask in [(0b011, 0b100), (0b101, 0b010),
                                       (0b110, 0b001)]:
            total += (permanent(submatrix(A, pair_mask))
                      * permanent(submatrix(A, single_mask)))
        assert p_shape(A, (2, 1), 1) == total / 3

    def test_shape_mismatch_rejected(self):
        A = random_psd(3, REAL_SYMMETRIC, 3, seed=22)
        with pytest.raises(DomainError):
            p_shape(A, (2, 2), 1)
        with pytest.raises(DomainError):
            p_shape(A, (3,), 0)

    @given(_psd_instances(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_equals_average_of_block_products(self, A, data):
        shape = data.draw(st.sampled_from(_shapes(A.n)))
        sign = data.draw(st.sampled_from([1, -1]))
        total, count = F(0), 0
        for blocks in _set_partitions(list(range(A.n))):
            if sorted(map(len, blocks), reverse=True) != list(shape):
                continue
            prod = F(1)
            for block in blocks:
                B = submatrix(A, sum(1 << i for i in block))
                if sign == 1:
                    prod *= permanent(B)
                else:
                    prod *= (-1) ** B.n * determinant(B)
            total += prod
            count += 1
        got = p_shape(A, shape, sign)
        assert type(got) is F
        assert got == total / count


    @given(_psd_instances(), st.sampled_from([1, -1]), st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_shape_averages_equal_enumeration(self, A, sign, float_mode):
        tol = 1e-9 if float_mode else 0.0
        if float_mode:
            A = A.to_float()
        minors = per_alpha_minors(A, sign if kind_is_exact(A.kind)
                                  else float(sign))
        got = shape_averages(A, sign, tol)
        assert sorted(got) == sorted(_shapes(A.n))
        for shape in _shapes(A.n):
            total = size = 0
            for part in enumerate_shape_partitions(A.n, shape):
                prod = 1
                for mask in part.blocks:
                    prod = prod * minors[mask]
                total += prod
                if float_mode:
                    size += abs(prod)
            want = _real_value(total, tol) / shape_partition_count(A.n, shape)
            if float_mode:
                assert abs(got[shape] - want) <= 1e-12 * (1 + size)
            else:
                assert type(got[shape]) is F and got[shape] == want

    @given(st.one_of(_exact_instances, _complex_matrices(),
                     st.builds(random_matrix, st.integers(1, 4),
                               st.just("rational"), st.just(3),
                               st.integers(0, 10 ** 6))),
           st.sampled_from([1, -1]))
    @settings(max_examples=60, deadline=None)
    def test_blocks_equal_the_sign_tables(self, A, sign):
        # on every block the cycle polynomials at (sign, 1) hand out the
        # entry the subset DP at alpha = sign does, of the same type over
        # the same base, so the averages are those the DP's table gives
        at = cycle_polynomials(A).at
        f, unit = per_alpha_minors(A, F(sign)).ring()
        assert [(at(sign, 1, T), type(at(sign, 1, T)))
                for T in range(1, len(f))] \
            == [(x, type(x)) for x in f[1:]]

        def averages_by_the_table():
            return {shape: _real_value(total * unit, 0.0)
                    / shape_partition_count(A.n, shape)
                    for shape, total in shape_partition_sums(f, A.n).items()}

        assert _outcome(lambda: sorted(shape_averages(A, sign).items())) \
            == _outcome(lambda: sorted(averages_by_the_table().items()))


class TestMajorization:
    def test_merge_pairs_five(self):
        assert merge_pairs(5) == [
            ((5,), (4, 1)),
            ((5,), (3, 2)),
            ((4, 1), (3, 1, 1)),
            ((3, 2), (3, 1, 1)),
            ((4, 1), (2, 2, 1)),
            ((3, 2), (2, 2, 1)),
            ((3, 1, 1), (2, 1, 1, 1)),
            ((2, 2, 1), (2, 1, 1, 1)),
            ((2, 1, 1, 1), (1, 1, 1, 1, 1)),
        ]

    def test_merge_validation(self):
        A = random_psd(5, REAL_SYMMETRIC, 3, seed=23)
        with pytest.raises(DomainError):
            check_majorization_step(A, (5,), (2, 2, 1), 1)  # merges 3 parts
        with pytest.raises(DomainError):
            check_majorization_step(A, (4, 1), (4, 1), 1)

    def test_direction_odd_n(self):
        A = random_psd(5, REAL_SYMMETRIC, 3, seed=24)
        r = check_majorization_step(A, (2, 1, 1, 1), (1,) * 5, 1)
        assert r.direction == ">=" and r.name == \
            "majorization-per-2.1.1.1-1.1.1.1.1"
        r = check_majorization_step(A, (2, 1, 1, 1), (1,) * 5, -1)
        assert r.direction == ">="  # odd n keeps >= for the signed det case

    def test_direction_even_n(self):
        A = random_psd(4, REAL_SYMMETRIC, 3, seed=25)
        r = check_majorization_step(A, (2, 1, 1), (1,) * 4, -1)
        assert r.direction == "<="

    def test_identity_equality(self):
        I5 = Matrix.identity(5, "rational")
        for lam, mu in merge_pairs(5):
            for sign in (1, -1):
                assert check_majorization_step(I5, lam, mu, sign).verdict == \
                    EQUALITY

    @pytest.mark.parametrize("seed", range(5))
    def test_gram_instances_all_merges(self, seed):
        A = random_unit_diag_psd(5, REAL_SYMMETRIC, 3, seed=seed + 100)
        for lam, mu in merge_pairs(5):
            for sign in (1, -1):
                r = check_majorization_step(A, lam, mu, sign)
                assert r.ok, (lam, mu, sign)

    def test_reads_the_minors_table_only(self, monkeypatch):
        import alphaperm.inequalities as ineq
        import alphaperm.kernels as kernels

        def forbidden(*args, **kwargs):
            raise AssertionError("p_shape called Glynn or Bareiss")

        for module in (ineq, kernels):
            for name in ("permanent", "determinant"):
                if name in vars(module):
                    monkeypatch.setattr(module, name, forbidden)
        A = random_unit_diag_psd(5, REAL_SYMMETRIC, 3, seed=32)
        for lam, mu in merge_pairs(5):
            for sign in (1, -1):
                assert check_majorization_step(A, lam, mu, sign).ok

    def test_paper_chain_values(self):
        # p(5) >= max(p(4,1), p(3,2)) on a sampled instance, both signs
        A = random_unit_diag_psd(5, REAL_SYMMETRIC, 3, seed=31)
        for sign in (1, -1):
            top = p_shape(A, (5,), sign)
            assert top >= p_shape(A, (4, 1), sign)
            assert top >= p_shape(A, (3, 2), sign)


class TestFinding:
    def _sample(self):
        A = random_unit_diag_psd(3, REAL_SYMMETRIC, 3, seed=41)
        from alphaperm.matrices import dumps_matrix
        r = check_marcus(A, F(3, 2))[0]
        return Finding(
            name="marcus-upper", record="min-slack",
            matrix=dumps_matrix(A), sha256=matrix_digest(A),
            alpha="3/2", split=None,
            slack=str(r.slack), seed=3, trial=0,
        )

    def test_json_round_trip(self):
        f = self._sample()
        g = Finding.from_json(f.to_json())
        assert g == f

    def test_json_key_order_fixed(self):
        f = self._sample()
        keys = list(json.loads(f.to_json()).keys())
        assert keys == ["name", "record", "matrix", "sha256", "alpha",
                        "split", "slack", "seed", "trial", "timestamp"]

    def test_replay_reproduces_slack(self):
        f = self._sample()
        assert str(replay_finding(f)) == f.slack

    @pytest.mark.parametrize("name", ["lieb", "fischer", "lieb-alpha",
                                      "neg-block"])
    def test_split_comparison_without_split_is_domain_error(self, name):
        A = random_psd(4, REAL_SYMMETRIC, 3, seed=43)
        for split in (None, 0, 4, "2"):
            with pytest.raises(DomainError):
                evaluate_comparison(name, A, F(3, 2), split)
        f = Finding(name=name, record="violation", matrix=dumps_matrix(A),
                    sha256=matrix_digest(A), alpha="3/2", split=None,
                    slack="0", seed=0, trial=0)
        with pytest.raises(DomainError):
            replay_finding(f)

    def test_half_scaled_replays_without_split(self):
        # half-scaled compares the whole matrix: a record without a split
        # replays to the oracle's slack, and an integer split is not read
        import alphaperm.inequalities as ineq
        A = random_psd(4, REAL_SYMMETRIC, 3, seed=43)
        alpha = F(3, 2)
        slack = ineq._naive_slack("half-scaled", A, alpha, None)
        f = Finding(name="half-scaled", record="min-slack",
                    matrix=dumps_matrix(A), sha256=matrix_digest(A),
                    alpha="3/2", split=None, slack=str(slack), seed=0,
                    trial=0)
        assert replay_finding(f) == slack
        for m in (1, 2, 3):
            assert evaluate_comparison("half-scaled", A, alpha, m).slack \
                == slack

    def test_neg_nonneg_with_and_without_split(self):
        A = random_psd(4, HERMITIAN, 3, seed=44)
        full = evaluate_comparison("neg-nonneg", A, F(3), None)
        for m in (1, 2, 3):
            assert evaluate_comparison("neg-nonneg", A, F(3), m) == full
        with pytest.raises(DomainError):
            evaluate_comparison("neg-nonneg", A, F(3), "2")

    def test_evaluate_comparison_dispatch(self):
        A = random_psd(4, HERMITIAN, 3, seed=42)
        assert evaluate_comparison("lieb", A, None, 2).name == "lieb"
        assert evaluate_comparison("fischer", A, None, 1).name == "fischer"
        r = evaluate_comparison("neg-block", A, F(3), 2)
        assert r.name == "neg-block"
        r = evaluate_comparison("marcus-lower", A, F(3), None)
        assert r.name == "marcus-lower"
        with pytest.raises(DomainError):
            evaluate_comparison("nonsense", A, F(1), None)


class TestHunt:
    def test_determinism(self):
        cfg = HuntConfig(targets=("marcus",), n=4, trials=40, seed=9)
        r1 = hunt(cfg)
        r2 = hunt(cfg)
        assert [f.to_json() for f in r1.findings] == \
            [f.to_json() for f in r2.findings]
        assert r1.min_slack == r2.min_slack
        assert r1.argmin == r2.argmin

    def test_jobs_equivalence(self):
        cfg1 = HuntConfig(targets=("marcus", "lieb"), n=4, trials=30, seed=5,
                          jobs=1)
        cfg2 = HuntConfig(targets=("marcus", "lieb"), n=4, trials=30, seed=5,
                          jobs=2)
        r1, r2 = hunt(cfg1), hunt(cfg2)
        assert [f.to_json() for f in r1.findings] == \
            [f.to_json() for f in r2.findings]
        assert (r1.violations, r1.observations) == \
            (r2.violations, r2.observations)
        assert r1.min_slack == r2.min_slack

    @pytest.mark.parametrize("trials, jobs, cpus, workers", [
        (2, 5000, 64, 2), (100, 5000, 3, 3), (100, 4, 8, 4), (7, 3, None, 1)])
    def test_pool_workers_bounded(self, monkeypatch, trials, jobs, cpus,
                                  workers):
        # a fork-started pool forks all max_workers at the first submit:
        # the bound is on max_workers, checked on a pool that starts no
        # process and runs each chunk when it is submitted
        import concurrent.futures
        import os
        from alphaperm.inequalities import run_trials
        seen = []

        class InlinePool:
            def __init__(self, max_workers):
                seen.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = concurrent.futures.Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            InlinePool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        got = run_trials(pow, (2,), trials, jobs)
        assert seen == [workers]
        assert got == [(t, 2 ** t) for t in range(trials)]

    def test_marcus_range_clean(self):
        cfg = HuntConfig(targets=("marcus",), n=5, trials=60, seed=2)
        r = hunt(cfg)
        assert r.violations == 0
        assert r.min_slack is not None and r.min_slack >= 0

    def test_boundary_alphas_first(self):
        from alphaperm.inequalities import _alpha_bounds, _trial_alpha
        cfg = HuntConfig(targets=("marcus",), n=4, trials=10, seed=0)
        bounds = _alpha_bounds(cfg)
        assert bounds == (F(1), F(2))
        assert _trial_alpha(cfg, bounds, 0) == F(1)
        assert _trial_alpha(cfg, bounds, 1) == F(2)
        a = _trial_alpha(cfg, bounds, 7)
        assert F(1) <= a <= F(2) and a.denominator <= 16

    def test_fixed_alpha(self):
        cfg = HuntConfig(targets=("marcus",), n=3, trials=5, seed=0,
                         alpha_fixed="7/4")
        from alphaperm.inequalities import _alpha_bounds, _trial_alpha
        bounds = _alpha_bounds(cfg)
        assert all(_trial_alpha(cfg, bounds, t) == F(7, 4) for t in range(5))
        # a decimal alpha is exact
        cfg = HuntConfig(targets=("marcus",), n=3, trials=5, seed=0,
                         alpha_fixed="1.5")
        cfg.validate()
        assert _trial_alpha(cfg, _alpha_bounds(cfg), 0) == F(3, 2)

    def test_alpha_bounds_parsed_once_per_hunt(self, monkeypatch):
        # the range is parsed by validate and once for the trials, not per
        # trial, and the alpha stream does not depend on it
        import alphaperm.inequalities as ineq
        cfg = HuntConfig(targets=("marcus",), n=3, trials=70, seed=5,
                         alpha_lo="3/2", alpha_hi="2.25")
        expected = hunt(cfg)
        parsed = []
        original = ineq._hunt_alpha

        def counting(text):
            parsed.append(text)
            return original(text)

        monkeypatch.setattr(ineq, "_hunt_alpha", counting)
        again = hunt(cfg)
        assert len(parsed) == 4
        assert again.argmin.alpha == expected.argmin.alpha
        assert again.min_slack == expected.min_slack
        bounds = ineq._alpha_bounds(cfg)
        alphas = {ineq._trial_alpha(cfg, bounds, t) for t in range(70)}
        assert min(alphas) == F(3, 2) and max(alphas) == F(9, 4)

    def test_equal_bounds_give_that_alpha(self):
        from alphaperm.inequalities import _alpha_bounds, _trial_alpha
        cfg = HuntConfig(targets=("marcus",), n=3, trials=5, seed=0,
                         alpha_lo="5/4", alpha_hi="1.25")
        bounds = _alpha_bounds(cfg)
        assert all(_trial_alpha(cfg, bounds, t) == F(5, 4)
                   for t in range(70))

    def test_keep_smallest(self):
        cfg = HuntConfig(targets=("marcus",), n=4, trials=25, seed=11,
                         keep_smallest=3)
        r = hunt(cfg)
        kept = [f for f in r.findings if f.record == "min-slack"]
        assert len(kept) == 3
        slacks = [F(f.slack) for f in kept]
        assert slacks == sorted(slacks)
        # each kept record replays to its recorded slack
        for f in kept:
            assert str(replay_finding(f)) == f.slack

    def test_known_conjecture_counterexample(self):
        # the signed block comparison genuinely fails outside the proven
        # regime; this pinned instance was triple-checked by brute force
        cfg = HuntConfig(targets=("lieb-type",), n=4, trials=143, seed=3)
        r = hunt(cfg)
        viols = [f for f in r.findings if f.record == "violation"]
        assert len(viols) == 1
        v = viols[0]
        assert v.name == "neg-block" and v.trial == 142
        assert v.alpha == "13/10"
        assert v.slack == "-308180603449/1550095547000"
        assert str(replay_finding(v)) == v.slack

    def test_oracle_mismatch_guard(self, monkeypatch):
        # if the fast kernel and the naive oracle ever disagree on a flagged
        # violation, the hunter must refuse to report it
        import alphaperm.inequalities as ineq
        polynomial = ineq._naive_cycle_polynomial

        def poisoned(A, cap=None):
            # per_alpha off by alpha^n
            coeffs = polynomial(A, cap)
            return coeffs[:-1] + [coeffs[-1] + 1]

        monkeypatch.setattr(ineq, "_naive_cycle_polynomial", poisoned)
        cfg = HuntConfig(targets=("lieb-type",), n=4, trials=143, seed=3)
        with pytest.raises(OracleMismatch):
            hunt(cfg)

    @pytest.mark.parametrize("targets", [("lieb-type",),
                                         ("marcus", "lieb-type"),
                                         ("lieb-type", "marcus"),
                                         ("marcus",),
                                         ("marcus", "neg-positivity"),
                                         ("lieb-type", "marcus",
                                          "neg-positivity")])
    def test_one_cycle_table_per_trial(self, monkeypatch, targets):
        # one cycle table and one cycle polynomial build per trial, a
        # graded recursion on the full set's index sets, and no subset DP:
        # every alpha-family reads the polynomials
        import alphaperm.kernels as kernels
        import alphaperm.partitions as partitions
        built = []
        runs = []
        graded = []
        table, dp = kernels._cycle_sums, kernels._principal_dp
        sums = partitions.graded_partition_sums

        def counting_table(A):
            built.append(A.n)
            return table(A)

        def counting_dp(A, alpha, C, full_set=False):
            runs.append((alpha, full_set))
            return dp(A, alpha, C, full_set=full_set)

        def counting_sums(f, n, masks=None):
            graded.append(n)
            return sums(f, n, masks)

        monkeypatch.setattr(kernels, "_cycle_sums", counting_table)
        monkeypatch.setattr(kernels, "_principal_dp", counting_dp)
        monkeypatch.setattr(partitions, "graded_partition_sums", counting_sums)
        alpha = Fraction(1)     # trial 0 takes the low end of the range
        for kind in (REAL_SYMMETRIC, HERMITIAN):
            built.clear()
            runs.clear()
            graded.clear()
            hunt(HuntConfig(targets=targets, n=5, trials=1, seed=6,
                            kind=kind))
            assert built == [5]
            assert graded == [5]
            assert runs == []

    def test_only_lieb_type_fills_prefix_rows(self, monkeypatch):
        # the polynomials' rows are those the full-set DP walks; lieb-type
        # adds each prefix block {0..m-1} once, marcus and neg-positivity
        # none
        import alphaperm.kernels as kernels
        import alphaperm.partitions as partitions
        filled = []
        row = partitions._graded_row

        def spy(f, P, mask):
            filled.append(mask)
            return row(f, P, mask)

        monkeypatch.setattr(partitions, "_graded_row", spy)
        walked = list(kernels._dp_masks(5, full_set=True))
        prefixes = [(1 << m) - 1 for m in range(1, 5)]
        for targets, extra in ((("marcus",), []),
                               (("marcus", "neg-positivity"), []),
                               (("lieb-type", "marcus"), prefixes)):
            for kind in (REAL_SYMMETRIC, HERMITIAN):
                filled.clear()
                hunt(HuntConfig(targets=targets, n=5, trials=2, seed=6,
                                kind=kind, alpha_lo="1/2", alpha_hi="3"))
                assert sorted(filled) == sorted(2 * (walked + extra))

    def test_findings_build_no_extra_matrices(self, monkeypatch):
        # the merge reads each trial's matrix text from its chunk; only
        # keep-smallest and the argmin may build a matrix again
        import alphaperm.inequalities as ineq
        built = []
        original = ineq._trial_matrix

        def counting(cfg, t):
            built.append(t)
            return original(cfg, t)

        monkeypatch.setattr(ineq, "_trial_matrix", counting)
        cfg = HuntConfig(targets=("lieb-type",), n=5, trials=16, seed=0,
                         kind=HERMITIAN, keep_smallest=2)
        r = hunt(cfg)
        assert r.observations > 0
        assert len(built) <= cfg.trials + cfg.keep_smallest + 1
        for f in r.findings:
            assert f.sha256 == matrix_digest(original(cfg, f.trial))
            assert str(replay_finding(f)) == f.slack

    def test_config_validation(self):
        with pytest.raises(DomainError):
            HuntConfig(targets=("bogus",), n=4, trials=1, seed=0).validate()
        with pytest.raises(DomainError):
            HuntConfig(targets=("haf-per",), n=3, trials=1, seed=0,
                       kind=HERMITIAN).validate()
        for bad in ({"alpha_fixed": "x"}, {"alpha_fixed": "1/0"},
                    {"alpha_fixed": "1+1i"}, {"alpha_hi": "x"}):
            with pytest.raises(ScalarFormatError):
                HuntConfig(n=3, trials=1, **bad).validate()
        with pytest.raises(DomainError):
            HuntConfig(n=3, trials=1, alpha_lo="2", alpha_hi="1").validate()
        with pytest.raises(DomainError, match="keep_smallest"):
            HuntConfig(n=3, trials=1, keep_smallest=-1).validate()
        HuntConfig(n=3, trials=1, alpha_lo="3/2", alpha_hi="1.5").validate()


def _observations_per_split(cfg):
    """The records a hunt of lieb-type alone writes when every split
    records every comparison, neg-nonneg and half-scaled included, each
    recomputed on submatrix copies: the set of (record, trial, name,
    split, slack), the split None for the whole-matrix comparisons, and
    the least gated slack."""
    from alphaperm.inequalities import _alpha_bounds, _trial_alpha, \
        _trial_matrix
    seen = set()
    least = None
    for t in range(cfg.trials):
        A = _trial_matrix(cfg, t)
        alpha = _trial_alpha(cfg, _alpha_bounds(cfg), t)
        results = _lieb_type_by_submatrices(A, alpha)
        for m in range(1, cfg.n):
            for r in _at(results, m) + _at(results, None):
                gated = r.name != "neg-nonneg" or r.hypothesis
                if gated and r.verdict == VIOLATED:
                    seen.add(("violation", t, r.name, r.split, r.slack))
                elif not gated and r.slack < 0:
                    seen.add(("sign", t, r.name, r.split, r.slack))
                if gated and (least is None or r.slack < least):
                    least = r.slack
    return seen, least


class TestOneRecordPerObservation:
    @given(st.integers(2, 5), st.sampled_from([REAL_SYMMETRIC, HERMITIAN]),
           st.sampled_from([None, "13/10", "6/5", "3/2", "1", "2"]),
           st.integers(0, 10 ** 6), st.integers(1, 4))
    @settings(max_examples=30, deadline=None)
    def test_same_distinct_observations(self, n, kind, alpha, seed, trials):
        cfg = HuntConfig(targets=("lieb-type",), n=n, trials=trials,
                         seed=seed, kind=kind, alpha_fixed=alpha)
        r = hunt(cfg)
        got = [(f.record, f.trial, f.name, f.split, F(f.slack))
               for f in r.findings]
        expect, least = _observations_per_split(cfg)
        assert len(got) == len(set(got))   # no observation twice
        assert set(got) == expect
        assert r.violations + r.observations == len(got)
        assert r.min_slack == least
        for f in r.findings:
            if f.name in ("neg-nonneg", "half-scaled"):
                assert f.split is None
            assert str(replay_finding(f)) == f.slack

    @pytest.mark.parametrize("targets", [("lieb-type",),
                                         ("lieb-type", "neg-positivity"),
                                         ("neg-positivity", "lieb-type")])
    def test_pinned_sign_record(self, targets):
        # the known counterexample's instance: one violation, and its
        # negative (-1)^n per_{-alpha} once, without a split, also when
        # the neg-positivity target asks for the same comparison
        cfg = HuntConfig(targets=targets, n=4, trials=1, seed=141,
                         alpha_fixed="13/10")
        r = hunt(cfg)
        assert (r.violations, r.observations) == (1, 1)
        (sign,) = [f for f in r.findings if f.record == "sign"]
        assert (sign.name, sign.split) == ("neg-nonneg", None)
        assert sign.slack == "-638210221541/263516242990000"
        assert str(replay_finding(sign)) == sign.slack

    def test_min_slack_of_a_whole_matrix_comparison_has_no_split(self):
        cfg = HuntConfig(targets=("lieb-type",), n=5, trials=40, seed=1,
                         kind=HERMITIAN, keep_smallest=1)
        r = hunt(cfg)
        assert (r.argmin.name, r.argmin.split, r.argmin.trial) == (
            "neg-nonneg", None, 22)
        (kept,) = [f for f in r.findings if f.record == "min-slack"]
        assert (kept.name, kept.split) == ("neg-nonneg", None)
        assert F(kept.slack) == r.min_slack
        assert replay_finding(kept) == r.min_slack

    def test_oracle_walks_each_block_once_per_trial(self, monkeypatch):
        # trial 0 of seed 181 at n = 5, alpha = 6/5 has two neg-block
        # violations, at splits 1 and 4: A, which both read at -a, and the
        # four blocks, each walked once
        import alphaperm.inequalities as ineq
        walked = []
        polynomial = ineq._naive_cycle_polynomial

        def counting(A, cap=None):
            walked.append(A.rows)
            return polynomial(A, cap)

        monkeypatch.setattr(ineq, "_naive_cycle_polynomial", counting)
        r = hunt(HuntConfig(targets=("lieb-type",), n=5, trials=1, seed=181,
                            alpha_fixed="6/5"))
        assert [(f.name, f.split) for f in r.findings] == [
            ("neg-block", 1), ("neg-block", 4)]
        assert sorted(map(len, walked)) == [1, 1, 4, 4, 5]

    def test_suite_oracle_walks_each_block_once_per_trial(self,
                                                          monkeypatch):
        # every lieb comparison reported violated, with its true slack: the
        # oracle confirms each, and an n = 3 trial walks A once for both
        # splits
        import alphaperm.inequalities as ineq
        import alphaperm.suites as suites
        from alphaperm.suites import run_inequality_suite
        walked = []
        polynomial = ineq._naive_cycle_polynomial
        lieb = suites.check_lieb

        def counting(A, cap=None):
            walked.append(A.rows)
            return polynomial(A, cap)

        def violated(A, *, tol=0.0):
            return [r._replace(verdict=VIOLATED) for r in lieb(A, tol=tol)]

        monkeypatch.setattr(ineq, "_naive_cycle_polynomial", counting)
        monkeypatch.setattr(suites, "check_lieb", violated)
        (oc, *_) = run_inequality_suite(n_max=3, trials=2, seed=0)
        assert oc.name == "lieb" and len(oc.findings) == 3
        # trial 0 (n = 2): A, A', A''; trial 1 (n = 3): A and four blocks
        assert sorted(map(len, walked)) == [1, 1, 1, 1, 2, 2, 2, 3]


class TestInequalityTrial:
    def test_one_table_pair_per_instance(self, monkeypatch):
        # trial 3 is an n = 5 real instance: one cycle table, no subset
        # DP, one cycle polynomial build for lieb, fischer, the seven
        # alphas and the shape averages, one shape-average build per sign,
        # and Glynn only inside check_haf_per
        import alphaperm.inequalities as ineq
        import alphaperm.kernels as kernels
        import alphaperm.partitions as partitions
        import alphaperm.suites as suites
        from alphaperm.suites import alpha_set_for

        calls = {"table": [], "dp": [], "graded": [], "averages": [],
                 "ryser": [], "bareiss": []}
        inside_haf_per = []

        def counting(key, original, note=lambda *a, **kw: None):
            def wrapper(*args, **kwargs):
                calls[key].append(note(*args, **kwargs))
                return original(*args, **kwargs)
            return wrapper

        originals = {name: getattr(kernels, name)
                     for name in ("_cycle_sums", "_principal_dp",
                                  "permanent", "determinant")}
        originals["_shape_averages"] = ineq._shape_averages
        originals["check_haf_per"] = ineq.check_haf_per
        patches = {
            "_cycle_sums": counting("table", originals["_cycle_sums"],
                                    lambda A: A.n),
            "_principal_dp": counting("dp", originals["_principal_dp"],
                                      lambda A, alpha, C, full_set=False:
                                      (alpha, full_set)),
            "graded_partition_sums": counting(
                "graded", partitions.graded_partition_sums,
                lambda f, n, masks=None: n),
            "permanent": counting("ryser", originals["permanent"],
                                  lambda *a, **kw: bool(inside_haf_per)),
            "determinant": counting("bareiss", originals["determinant"]),
            "_shape_averages": counting("averages",
                                        originals["_shape_averages"],
                                        lambda A, sign, tol: sign),
        }

        def haf_per(*args, **kwargs):
            inside_haf_per.append(True)
            try:
                return originals["check_haf_per"](*args, **kwargs)
            finally:
                inside_haf_per.pop()

        patches["check_haf_per"] = haf_per
        for module in (kernels, ineq, partitions, suites):
            for name, fn in patches.items():
                if name in vars(module):
                    monkeypatch.setattr(module, name, fn)
        rows = suites._inequality_trial(5, 0, "theorem2", False, 1e-9, 3)
        assert {name for name, *_ in rows} >= {"lieb", "fischer", "haf-per",
                                               "majorization-per",
                                               "majorization-det"}
        assert calls["table"] == [5]
        assert len(alpha_set_for("theorem2", 5, 0, 3)) == 7
        # lieb, fischer, every alpha-family and the shape averages read
        # the one polynomial
        assert calls["dp"] == []
        assert calls["graded"] == [5]
        assert calls["averages"] == [1, -1]
        assert calls["ryser"] == [True]
        assert calls["bareiss"] == []
