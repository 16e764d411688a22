"""Identity and inequality suite drivers: coverage, determinism, jobs."""

import math
from fractions import Fraction

import pytest

from alphaperm.errors import DomainError
from alphaperm.inequalities import VIOLATED, OracleMismatch
from alphaperm.kernels import diagonal_product, per_alpha_minors
from alphaperm.partitions import per_beta_by_k, stirling2
from alphaperm.scalars import exact_real
from alphaperm.suites import (
    IDENTITY_CHECKS,
    INEQUALITY_CHECKS,
    _inequality_trial,
    _trial_psd,
    alpha_set_for,
    run_identity_suite,
    run_inequality_suite,
)

F = Fraction


def _block_lift_by_tables(A):
    """The block-lift row of A from the graded tables of
    per_alpha_minors(A, +-1), one subset DP per sign."""
    n = A.n
    per_A, det_A = (per_beta_by_k(per_alpha_minors(A, s)) for s in (1, -1))
    diag = diagonal_product(A)
    sign = -1 if n % 2 else 1
    ok, worst = True, None
    for k in range(1, n + 1):
        per_D = math.factorial(k) * stirling2(n, k) * diag
        for s in (exact_real(per_A[k] - per_D),
                  exact_real(per_D - sign * det_A[k])):
            ok = ok and s >= 0
            worst = s if worst is None else min(worst, s)
    return ("block-lift", ok, worst, None)


def _snapshot(outcomes):
    return [
        (oc.name, oc.passed, oc.total, oc.min_slack,
         [f.to_json() for f in oc.findings])
        for oc in outcomes
    ]


class TestAlphaSets:
    def test_theorem_regime_set(self):
        got = alpha_set_for("theorem2", 5, 0, 0)
        assert got == [F(0), F(1), F(2), F(3), F(4), F(9, 2), F(5)]

    def test_theorem_regime_set_small_n(self):
        got = alpha_set_for("theorem2", 3, 0, 0)
        assert got == [F(0), F(1), F(2), F(5, 2), F(3)]

    def test_unit_set(self):
        got = alpha_set_for("unit", 5, 0, 0)
        assert F(1) in got and F(2) in got and 2 <= len(got) <= 4
        assert all(F(1) <= a <= F(2) for a in got)
        assert got == alpha_set_for("unit", 5, 0, 0)
        assert got != alpha_set_for("unit", 5, 0, 1)

    def test_unknown_set(self):
        with pytest.raises(ValueError):
            alpha_set_for("bogus", 4, 0, 0)


class TestIdentitySuite:
    def test_all_rows_present_and_green(self):
        outcomes = run_identity_suite(n_max=5, trials=8, seed=0)
        assert [oc.name for oc in outcomes] == list(IDENTITY_CHECKS)
        for oc in outcomes:
            assert oc.total == 8
            assert oc.passed == oc.total, oc.name

    def test_deterministic(self):
        a = run_identity_suite(n_max=4, trials=5, seed=1)
        b = run_identity_suite(n_max=4, trials=5, seed=1)
        assert _snapshot(a) == _snapshot(b)

    def test_jobs_equivalence(self):
        a = run_identity_suite(n_max=4, trials=6, seed=2, jobs=1)
        b = run_identity_suite(n_max=4, trials=6, seed=2, jobs=2)
        assert _snapshot(a) == _snapshot(b)

    def test_no_trials_with_jobs(self):
        # zero trials would print every check as 0/0 and pass
        for jobs in (1, 2):
            for suite in (run_identity_suite, run_inequality_suite):
                with pytest.raises(DomainError, match="trials >= 1"):
                    suite(trials=0, jobs=jobs)

    @pytest.mark.parametrize("float_mode", [False, True])
    def test_dp_sides_read_no_kept_table(self, monkeypatch, float_mode):
        # each identity compares a DP with a formula on the same entries; a
        # DP answered from a table the formula side kept would compare that
        # table with itself. At every DP call the matrix keeps at most its
        # cycle table, which is no value at any alpha
        import alphaperm.suites as suites
        kept = []
        dp = suites.per_alpha_dp

        def spy(A, alpha, *args, **kwargs):
            kept.append(sorted(A._tables, key=repr))
            return dp(A, alpha, *args, **kwargs)

        monkeypatch.setattr(suites, "per_alpha_dp", spy)
        for t in range(12):
            suites._identity_trial(5, 0, float_mode, 1e-7, t)
        assert len(kept) == 12 * 7
        assert all(keys in ([], ["cycle"]) for keys in kept)

    def test_float_mode(self):
        outcomes = run_identity_suite(n_max=4, trials=5, seed=3,
                                      float_mode=True, tol=1e-7)
        for oc in outcomes:
            assert oc.passed == oc.total, oc.name

    @pytest.mark.parametrize("old, new, failing", [
        # the block that is the anchor alone never counted: every n fails
        ("w = f[block]", "w = f[block] if s else 0", 8),
        # shapes keyed unsorted: the Bell and Stirling totals still hold,
        # only the per-shape counts catch it, from n = 3 up
        ("key = tuple(sorted(shape + (b,), reverse=True))",
         "key = shape + (b,)", 6),
    ])
    def test_partition_counts_catch_a_broken_shape_dp(self, monkeypatch,
                                                      old, new, failing):
        import inspect
        import alphaperm.partitions as partitions
        import alphaperm.suites as suites
        source = inspect.getsource(partitions.shape_partition_sums)
        assert old in source
        namespace = dict(vars(partitions))
        exec(source.replace(old, new), namespace)
        monkeypatch.setattr(suites, "shape_partition_sums",
                            namespace["shape_partition_sums"])
        # the row's verdict is kept per n and process: run the broken DP,
        # and keep none of its verdicts for later tests
        suites._partition_counts_hold.cache_clear()
        # trials 0..7 give n = 1..8
        try:
            outcomes = run_identity_suite(n_max=2, trials=8, seed=0)
        finally:
            suites._partition_counts_hold.cache_clear()
        row = {oc.name: oc for oc in outcomes}["partition-counts"]
        assert row.total - row.passed == failing


class TestInequalitySuite:
    def test_block_lift_rows_equal_the_tables(self):
        # the rows read the kept cycle polynomials; every trial n <= 4
        for seed in (0, 3):
            for t in range(24):
                rows = _inequality_trial(4, seed, "theorem2", False, 1e-9, t)
                lift = [r for r in rows if r[0] == "block-lift"]
                assert lift == [_block_lift_by_tables(_trial_psd(4, seed, t))]
                assert type(lift[0][2]) is Fraction

    def test_all_rows_green_theorem_regime(self):
        outcomes = run_inequality_suite(n_max=5, trials=8, seed=0)
        assert [oc.name for oc in outcomes] == list(INEQUALITY_CHECKS)
        for oc in outcomes:
            assert oc.passed == oc.total, oc.name
        by = {oc.name: oc for oc in outcomes}
        # every family must actually have been exercised
        for name in ("lieb", "fischer", "haf-per", "lieb-alpha", "neg-nonneg",
                     "neg-block", "half-scaled", "marcus-upper",
                     "marcus-lower", "block-lift"):
            assert by[name].total > 0, name

    def test_majorization_rows_need_n5(self):
        outcomes = run_inequality_suite(n_max=5, trials=8, seed=0)
        by = {oc.name: oc for oc in outcomes}
        assert by["majorization-per"].total > 0
        assert by["majorization-det"].total > 0
        outcomes = run_inequality_suite(n_max=4, trials=6, seed=0)
        by = {oc.name: oc for oc in outcomes}
        assert by["majorization-per"].total == 0

    def test_deterministic(self):
        a = run_inequality_suite(n_max=4, trials=5, seed=4)
        b = run_inequality_suite(n_max=4, trials=5, seed=4)
        assert _snapshot(a) == _snapshot(b)

    def test_jobs_equivalence(self):
        a = run_inequality_suite(n_max=4, trials=6, seed=5, jobs=1)
        b = run_inequality_suite(n_max=4, trials=6, seed=5, jobs=3)
        assert _snapshot(a) == _snapshot(b)

    def test_unit_alpha_set_green(self):
        # conjecture-territory rows are skipped, theorem rows must hold
        outcomes = run_inequality_suite(n_max=5, trials=6, seed=6,
                                        alpha_set="unit")
        for oc in outcomes:
            assert oc.passed == oc.total, oc.name

    def test_float_mode(self):
        outcomes = run_inequality_suite(n_max=4, trials=4, seed=7,
                                        float_mode=True, tol=1e-7)
        for oc in outcomes:
            assert oc.passed == oc.total, oc.name

    def test_oracle_mismatch_guard(self, monkeypatch):
        # a gated violation the oracle does not re-derive is refused, not
        # reported as a finding
        import alphaperm.suites as suites
        lieb = suites.check_lieb

        def poisoned(A, m, tol=0.0):
            return lieb(A, m, tol)._replace(slack=Fraction(-1),
                                            verdict=VIOLATED)

        monkeypatch.setattr(suites, "check_lieb", poisoned)
        with pytest.raises(OracleMismatch, match="lieb at trial 0"):
            run_inequality_suite(n_max=3, trials=1, seed=0)

    def test_violation_row_carries_its_finding(self, monkeypatch):
        # families made to call their true slacks violations, which the
        # oracle re-derives: each row's Finding names the comparison, the
        # trial's alpha, split, slack, seed and trial, and its instance
        import alphaperm.suites as suites
        from alphaperm.matrices import dumps_matrix, matrix_digest
        lieb, marcus = suites.check_lieb, suites.check_marcus

        def violated(r):
            return r._replace(verdict=VIOLATED)

        monkeypatch.setattr(suites, "check_lieb",
                            lambda A, m, tol=0.0: violated(lieb(A, m, tol)))
        monkeypatch.setattr(suites, "check_marcus", lambda A, a, tol=0.0: [
            violated(r) if r.name == "marcus-upper" else r
            for r in marcus(A, a, tol)])
        n_max, seed = 3, 7
        by = {oc.name: oc for oc in run_inequality_suite(
            n_max=n_max, trials=2, seed=seed)}
        expect = {"lieb": [], "marcus-upper": []}
        for t in range(2):
            A = suites._trial_psd(n_max, seed, t)
            expect["lieb"] += [(None, m, lieb(A, m).slack, t)
                               for m in range(1, A.n)]
            expect["marcus-upper"] += [
                (str(a), None, marcus(A, a)[0].slack, t)
                for a in alpha_set_for("theorem2", A.n, seed, t)]
        for name, rows in expect.items():
            assert by[name].passed == 0 and by[name].total == len(rows)
            assert len(by[name].findings) == len(rows)
            for f, (alpha, split, slack, t) in zip(by[name].findings, rows):
                A = suites._trial_psd(n_max, seed, t)
                assert (f.record, f.name, f.alpha, f.split, f.slack, f.seed,
                        f.trial) == ("violation", name, alpha, split,
                                     str(slack), seed, t)
                assert f.sha256 == matrix_digest(A)
                assert f.matrix == dumps_matrix(A)

    def test_min_slack_nonnegative_in_regime(self):
        outcomes = run_inequality_suite(n_max=5, trials=6, seed=8)
        for oc in outcomes:
            if oc.min_slack is not None:
                slack, trial = oc.min_slack
                assert slack >= 0
                assert 0 <= trial < 6
