"""Acceptance gate: twelve pinned criteria, one printed PASS/FAIL line each.

Every check is exact (rational / complex-rational arithmetic, zero
tolerance) except the two wall-clock capacity bounds, which are pinned in
seconds.  Instance counts and size ranges are part of the contract and are
asserted, not merely attempted.
"""

import contextlib
import io
import random
import time
from fractions import Fraction

import pytest

from alphaperm import (
    HuntConfig,
    Matrix,
    check_lieb_type,
    check_majorization_step,
    check_marcus,
    determinant,
    doubled,
    hafnian,
    half_formula_rhs,
    hunt,
    merge_pairs,
    per_alpha_dp,
    per_alpha_naive,
    permanent,
    product_formula_rhs,
    random_matrix,
    random_psd,
    random_symmetric_matrix,
    shape_partition_count,
    sum_formula_rhs,
)
from alphaperm.cli import main as cli_main
from alphaperm.inequalities import EQUALITY, VIOLATED
from alphaperm.suites import alpha_set_for

MASTER_SEED = 20260817


@pytest.fixture
def report(capsys, request):
    """Print one always-visible PASS/FAIL line, then assert."""

    def emit(ok, detail):
        label = request.node.name
        if label.startswith("test_"):
            label = label[len("test_"):]
        line = "ACCEPT %-36s %s  %s" % (label, "PASS" if ok else "FAIL", detail)
        with capsys.disabled():
            print(line)
        assert ok, line

    return emit


def rand_alpha(rng, lo=-4, hi=4, max_den=16):
    den = rng.randint(1, max_den)
    return Fraction(rng.randint(lo * den, hi * den), den)


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_01_oracle_equivalence(report):
    # dp vs naive, exactly, on random rational matrices with random rational
    # alpha (denominators <= 16); sizes weighted toward the cheap end but
    # reaching n = 8.
    rng = random.Random(MASTER_SEED)
    sizes = [n for n in range(7) for _ in range(30)] + [7] * 10 + [8] * 6
    t0 = time.perf_counter()
    checked = 0
    for n in sizes:
        A = random_matrix(n, "rational", scale=4, seed=rng.randrange(2**32))
        alpha = rand_alpha(rng)
        assert per_alpha_dp(A, alpha) == per_alpha_naive(A, alpha)
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = checked >= 200 and elapsed < 120.0
    report(ok, "instances=%d n<=8 exact elapsed=%.1fs (bound 120s)" % (checked, elapsed))


def test_02_specializations(report):
    # per_alpha at alpha=1 is the permanent; at alpha=-1 it is (-1)^n det.
    rng = random.Random(MASTER_SEED + 2)
    checked = 0
    for n in range(9):
        for i in range(12):
            kind = "complex-rational" if i % 3 == 2 else "rational"
            A = random_matrix(n, kind, scale=4, seed=rng.randrange(2**32))
            assert per_alpha_dp(A, Fraction(1)) == permanent(A)
            assert per_alpha_dp(A, Fraction(-1)) == (-1) ** n * determinant(A)
            checked += 1
    report(checked >= 100, "instances=%d n<=8 exact" % checked)


def test_03_half_alpha_hafnian(report):
    # per_{1/2}(A) * 2^n == hafnian(doubled(A)) for real symmetric A.
    rng = random.Random(MASTER_SEED + 3)
    checked = 0
    for n in range(1, 7):
        for _ in range(17):
            A = random_symmetric_matrix(n, scale=4, seed=rng.randrange(2**32))
            assert per_alpha_dp(A, Fraction(1, 2)) * 2**n == hafnian(doubled(A))
            checked += 1
    report(checked >= 100, "instances=%d n<=6 exact" % checked)


def test_04_sum_formula(report):
    # per_{b1+b2+b3}(A) equals the ordered-assignment expansion, m = 3.
    rng = random.Random(MASTER_SEED + 4)
    checked = 0
    for t in range(52):
        n = (0, 1, 2, 3, 4)[t % 5]
        A = random_matrix(n, "rational", scale=3, seed=rng.randrange(2**32))
        betas = tuple(rand_alpha(rng, -3, 3) for _ in range(3))
        assert per_alpha_dp(A, sum(betas)) == sum_formula_rhs(A, betas)
        checked += 1
    report(checked >= 50, "instances=%d n<=4 m=3 exact" % checked)


def test_05_product_formula(report):
    # per_{alpha*beta}(A) == sum_k binom(alpha,k) per_beta(A,k), including
    # the beta = 1 and beta = -1 specializations on every matrix.
    rng = random.Random(MASTER_SEED + 5)
    checked = 0
    for t in range(24):
        n = (1, 2, 3, 4, 5)[t % 5]
        A = random_matrix(n, "rational", scale=3, seed=rng.randrange(2**32))
        betas = [Fraction(1), Fraction(-1)]
        betas += [rand_alpha(rng, -3, 3) for _ in range(3)]
        for beta in betas:
            alpha = rand_alpha(rng, -3, 3)
            assert per_alpha_dp(A, alpha * beta) == product_formula_rhs(A, alpha, beta)
            checked += 1
    report(checked >= 100, "triples=%d n<=5 beta=+-1 included exact" % checked)


def test_06_half_formula(report):
    # pair/singleton expansion equals per_{alpha/2} on real symmetric A.
    rng = random.Random(MASTER_SEED + 6)
    checked = 0
    for t in range(55):
        n = (1, 2, 3, 4, 5)[t % 5]
        A = random_symmetric_matrix(n, scale=3, seed=rng.randrange(2**32))
        alpha = rand_alpha(rng, -3, 3)
        assert half_formula_rhs(A, alpha) == per_alpha_dp(A, alpha / 2)
        checked += 1
    report(checked >= 50, "instances=%d n<=5 exact" % checked)


def test_07_inequality_regime(report):
    # All three inequality families, exactly, over Gram PSD instances at
    # every split and alpha in {0,1,2,3,n-1,n-1+1/2,n}; zero violations.
    rng = random.Random(MASTER_SEED + 7)
    instances = 0
    rows = 0
    violations = 0
    for n, count in ((2, 170), (3, 150), (4, 100), (5, 80)):
        alphas = alpha_set_for("theorem2", n, 0, 0)
        for i in range(count):
            kind = "hermitian" if i % 3 == 2 else "real-symmetric"
            A = random_psd(n, kind, scale=3, seed=rng.randrange(2**32))
            instances += 1
            for alpha in alphas:
                for r in check_lieb_type(A, alpha):
                    assert r.hypothesis is True
                    rows += 1
                    if r.verdict == VIOLATED:
                        violations += 1
    ok = instances >= 500 and violations == 0
    report(ok, "instances=%d comparisons=%d violations=%d exact" % (instances, rows, violations))


def test_08_diagonal_chain(report):
    # per_alpha A >= alpha^n prod a_ii >= (-1)^n per_{-alpha} A in the same
    # regime; exact equality throughout for diagonal A.
    rng = random.Random(MASTER_SEED + 8)
    rows = 0
    violations = 0
    for n in range(1, 6):
        alphas = alpha_set_for("theorem2", n, 0, 0)
        for i in range(40):
            kind = "hermitian" if i % 4 == 3 else "real-symmetric"
            A = random_psd(n, kind, scale=3, seed=rng.randrange(2**32))
            for alpha in alphas:
                for r in check_marcus(A, alpha):
                    assert r.hypothesis is True
                    rows += 1
                    if r.verdict == VIOLATED:
                        violations += 1
    equalities = 0
    for n in range(1, 6):
        alphas = alpha_set_for("theorem2", n, 0, 0)
        for _ in range(10):
            diag = [rand_alpha(rng, 0, 3) ** 2 for _ in range(n)]
            entries = tuple(
                tuple(diag[i] if i == j else Fraction(0) for j in range(n))
                for i in range(n)
            )
            D = Matrix(entries, real_symmetric=True)
            for alpha in alphas:
                for r in check_marcus(D, alpha):
                    assert r.verdict == EQUALITY
                    equalities += 1
    ok = violations == 0 and equalities > 0
    report(ok, "chain-rows=%d violations=%d diagonal-equalities=%d exact"
           % (rows, violations, equalities))


def test_09_hunter_proven_regime(report):
    # 10^4 unit-diagonal Gram PSD 5x5 trials, alpha random in [1,2]:
    # the diagonal-product chain admits no violation.  Every flagged
    # violation is re-verified against the naive oracle inside the hunter
    # (a kernel/oracle disagreement raises instead of reporting), so any
    # nonzero count here is a genuine counterexample and fails the build.
    cfg = HuntConfig(
        targets=("marcus",),
        n=5,
        trials=10_000,
        seed=MASTER_SEED,
        unit_diagonal=True,
        alpha_lo="1",
        alpha_hi="2",
        alpha_max_den=16,
    )
    t0 = time.perf_counter()
    result = hunt(cfg)
    elapsed = time.perf_counter() - t0
    ok = result.trials >= 10_000 and result.violations == 0
    report(ok, "trials=%d violations=%d min-slack=%s elapsed=%.1fs"
           % (result.trials, result.violations, result.min_slack, elapsed))


def test_10_shape_average_majorization(report):
    # p(lambda) >= p(mu) for every merge pair and both signs on PSD 5x5
    # instances; the shape counts behind the averaging match 5/10/10/15.
    assert shape_partition_count(5, (4, 1)) == 5
    assert shape_partition_count(5, (3, 2)) == 10
    assert shape_partition_count(5, (3, 1, 1)) == 10
    assert shape_partition_count(5, (2, 2, 1)) == 15
    rng = random.Random(MASTER_SEED + 10)
    pairs = merge_pairs(5)
    instances = 0
    steps = 0
    violations = 0
    for i in range(200):
        kind = "hermitian" if i % 4 == 3 else "real-symmetric"
        A = random_psd(5, kind, scale=3, seed=rng.randrange(2**32))
        instances += 1
        for lam, mu in pairs:
            for sign in (1, -1):
                r = check_majorization_step(A, lam, mu, sign)
                steps += 1
                if r.verdict == VIOLATED:
                    violations += 1
    ok = instances >= 200 and violations == 0
    report(ok, "instances=%d merge-steps=%d violations=%d shape-counts=5/10/10/15 exact"
           % (instances, steps, violations))


def test_11_determinism(report, tmp_path):
    # check and hunt: byte-identical stdout (and findings files) across
    # reruns and across --jobs settings.
    check_args = ["check", "--suite", "all", "--n-max", "4",
                  "--trials", "3", "--seed", "7"]
    c1 = run_cli(check_args + ["--jobs", "1"])
    c2 = run_cli(check_args + ["--jobs", "1"])
    c3 = run_cli(check_args + ["--jobs", "2"])
    check_ok = c1 == c2 == c3 and c1[0] == 0

    out = tmp_path / "hunt.jsonl"
    hunt_args = ["hunt", "--target", "marcus", "--n", "4", "--trials", "300",
                 "--seed", "11", "--out", str(out)]
    h1 = run_cli(hunt_args + ["--jobs", "1"])
    f1 = out.read_bytes()
    h2 = run_cli(hunt_args + ["--jobs", "1"])
    f2 = out.read_bytes()
    h3 = run_cli(hunt_args + ["--jobs", "2"])
    f3 = out.read_bytes()
    hunt_ok = h1 == h2 == h3 and f1 == f2 == f3 and h1[0] == 0

    ok = check_ok and hunt_ok
    report(ok, "check-identical=%s hunt-identical=%s (reruns and --jobs 1/2)"
           % (check_ok, hunt_ok))


def test_12_capacity(report):
    # Exact dp at n = 14 and exact hafnian at dimension 16, each under 60 s.
    A = random_matrix(14, "rational", scale=3, seed=MASTER_SEED)
    t0 = time.perf_counter()
    per_alpha_dp(A, Fraction(3, 2))
    dp_elapsed = time.perf_counter() - t0

    B = random_symmetric_matrix(16, scale=3, seed=MASTER_SEED + 1)
    t0 = time.perf_counter()
    hafnian(B)
    haf_elapsed = time.perf_counter() - t0

    ok = dp_elapsed < 60.0 and haf_elapsed < 60.0
    report(ok, "per-alpha-dp n=14 %.1fs, hafnian dim=16 %.1fs (bound 60s each)"
           % (dp_elapsed, haf_elapsed))
