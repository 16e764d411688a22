"""Batch identity and inequality suites behind the check subcommand.

Both suites are deterministic functions of (n_max, trials, seed, ...) and
split cleanly across worker processes: each trial is evaluated from its
index alone, so results are byte-identical whatever the job count.

The expansion checks read their blocks from per_alpha_minors, the
whole-table form of the DP per_alpha_dp runs over the full set, and stay
real checks: each compares the DP at one alpha with products of
minors at other alphas (or of hafnians), equal only if the expansion
formula holds, and per-dp-vs-naive guards the DP against the oracle.
Both sides share at most the cycle table, as a matrix keeps nothing
keyed by alpha; an inequality instance keeps the cycle polynomials every
family reads, lieb and fischer included, and the block lifts read them
too, at +-1.
An inequality trial's rows carry each violation's Finding, made by
inequalities.make_finding once the oracle has re-derived it.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .errors import DomainError
from .inequalities import (
    VIOLATED,
    check_fischer,
    check_haf_per,
    check_lieb,
    check_lieb_type,
    check_majorization_step,
    check_marcus,
    confirm_violation,
    make_finding,
    merge_pairs,
    run_trials,
)
from .kernels import (
    determinant,
    diagonal_product,
    hafnian,
    per_alpha_dp,
    per_alpha_naive,
    permanent,
)
from .matrices import (
    HERMITIAN,
    REAL_SYMMETRIC,
    Matrix,
    doubled,
    random_matrix,
    random_psd,
    random_symmetric_matrix,
    random_unit_diag_psd,
)
from .partitions import (
    bell_number,
    cycle_polynomials,
    half_formula_rhs,
    product_formula_rhs,
    shape_partition_count,
    shape_partition_sums,
    stirling2,
    sum_formula_rhs,
)
from .scalars import exact_real, to_float_scalar
import random as _random


class CheckOutcome:
    """One check's tally over a suite's trials."""

    def __init__(self, name: str):
        self.name = name
        self.passed = 0
        self.total = 0
        self.min_slack = None     # (slack, trial) or None
        self.findings = []

    def absorb(self, ok: bool):
        self.total += 1
        if ok:
            self.passed += 1

    def see_slack(self, slack, trial: int):
        if self.min_slack is None or slack < self.min_slack[0]:
            self.min_slack = (slack, trial)


def _alpha_rng(seed: int, label: str, t: int) -> _random.Random:
    return _random.Random("%s:%d:%d" % (label, seed, t))


def _random_alpha(rng: _random.Random, lo=-2, hi=2, max_den=16) -> Fraction:
    den = rng.randint(1, max_den)
    return Fraction(rng.randint(lo * den, hi * den), den)


def alpha_set_for(set_name: str, n: int, seed: int, t: int) -> list:
    """The alpha values a trial exercises, ascending and duplicate-free."""
    if set_name == "theorem2":
        values = {Fraction(0), Fraction(1), Fraction(2), Fraction(3),
                  Fraction(n - 1), Fraction(n - 1) + Fraction(1, 2),
                  Fraction(n)}
    elif set_name == "unit":
        rng = _alpha_rng(seed, "unit-alpha", t)
        values = {Fraction(1), Fraction(2),
                  1 + (_random_alpha(rng, 0, 1)) % 1,
                  1 + (_random_alpha(rng, 0, 1)) % 1}
    else:
        raise DomainError("unknown alpha set %r" % (set_name,))
    return sorted(values)


# ---------------------------------------------------------------------------
# identity suite
# ---------------------------------------------------------------------------

IDENTITY_CHECKS = (
    "per-dp-vs-naive",
    "per-at-1-vs-permanent",
    "per-at-neg1-vs-det",
    "wick-half-haf",
    "sum-formula",
    "product-formula",
    "half-formula",
    "partition-counts",
)


def _close(a, b, tol: float) -> bool:
    return abs(a - b) <= tol * (1.0 + max(abs(a), abs(b)))


def _exact_eq(a, b, tol, float_mode: bool) -> bool:
    if not float_mode:
        return a == b
    if isinstance(a, complex) or isinstance(b, complex):
        return _close(complex(a), complex(b), tol)
    return _close(a, b, tol)


def _identity_trial(n_max: int, seed: int, float_mode: bool, tol: float,
                    t: int) -> list:
    """Evaluate every identity check once; return (name, ok) pairs."""
    out = []

    def prep(A, alpha):
        if float_mode:
            return A.to_float(), to_float_scalar(alpha)
        return A, alpha

    # dp against the permutation oracle, alternating scalar fields
    n = t % (min(n_max, 6) + 1)
    kind = "complex-rational" if t % 3 == 2 else "rational"
    A = random_matrix(n, kind, scale=3, seed=seed ^ t) if n else Matrix(
        [], kind=kind)
    alpha = _random_alpha(_alpha_rng(seed, "id-alpha", t))
    Af, af = prep(A, alpha)
    out.append(("per-dp-vs-naive",
                _exact_eq(per_alpha_dp(Af, af), per_alpha_naive(Af, af),
                          tol, float_mode)))

    # specializations at alpha = 1 and alpha = -1
    n = 1 + t % min(n_max, 7)
    B = random_matrix(n, "rational", scale=3, seed=(seed ^ t) + 1)
    Bf, one = prep(B, Fraction(1))
    out.append(("per-at-1-vs-permanent",
                _exact_eq(per_alpha_dp(Bf, one), permanent(Bf), tol,
                          float_mode)))
    sign = -1 if n % 2 else 1
    Bf, neg = prep(B, Fraction(-1))
    out.append(("per-at-neg1-vs-det",
                _exact_eq(per_alpha_dp(Bf, neg), sign * determinant(Bf),
                          tol, float_mode)))

    # per_{1/2} against the hafnian of the doubled matrix
    n = t % (min(n_max, 6) + 1)
    S = random_symmetric_matrix(n, scale=3, seed=seed ^ t)
    Sf, half = prep(S, Fraction(1, 2))
    lhs = per_alpha_dp(Sf, half)
    haf = hafnian(doubled(Sf))
    scale = Fraction(1, 2 ** n) if not float_mode else 0.5 ** n
    out.append(("wick-half-haf", _exact_eq(lhs, scale * haf, tol, float_mode)))

    # sum formula with m = 2 or 3 parts
    n = 1 + t % min(n_max, 4)
    m = 2 + t % 2
    C = random_matrix(n, "rational", scale=3, seed=(seed ^ t) + 2)
    rng = _alpha_rng(seed, "sum-beta", t)
    betas = [_random_alpha(rng) for _ in range(m)]
    total = sum(betas, Fraction(0))
    Cf, tot = prep(C, total)
    bf = [to_float_scalar(b) for b in betas] if float_mode else betas
    out.append(("sum-formula",
                _exact_eq(per_alpha_dp(Cf, tot), sum_formula_rhs(Cf, bf),
                          tol, float_mode)))

    # product formula, forcing beta = 1 and beta = -1 regularly
    n = 1 + t % min(n_max, 5)
    D = random_matrix(n, "rational", scale=3, seed=(seed ^ t) + 3)
    rng = _alpha_rng(seed, "prod-ab", t)
    alpha = _random_alpha(rng)
    beta = (Fraction(1), Fraction(-1), _random_alpha(rng))[t % 3]
    Df, _ = prep(D, alpha)
    af = to_float_scalar(alpha) if float_mode else alpha
    bf = to_float_scalar(beta) if float_mode else beta
    out.append(("product-formula",
                _exact_eq(per_alpha_dp(Df, af * bf),
                          product_formula_rhs(Df, af, bf), tol, float_mode)))

    # half formula on a symmetric instance
    n = 1 + t % min(n_max, 5)
    E = random_symmetric_matrix(n, scale=3, seed=(seed ^ t) + 4)
    alpha = _random_alpha(_alpha_rng(seed, "half-alpha", t))
    Ef, af = prep(E, alpha)
    out.append(("half-formula",
                _exact_eq(per_alpha_dp(Ef, af / 2), half_formula_rhs(Ef, af),
                          tol, float_mode)))

    out.append(("partition-counts", _partition_counts_hold(1 + t % 8)))
    return out


@functools.lru_cache(maxsize=None)
def _partition_counts_hold(n: int) -> bool:
    """The shape DP on unit weights counts the set partitions of each
    shape of n. It reads no instance, so a process runs it once per n."""
    counts = shape_partition_sums([1] * (1 << n), n)
    return (all(c == shape_partition_count(n, s) for s, c in counts.items())
            and all(sum(c for s, c in counts.items() if len(s) == k)
                    == stirling2(n, k) for k in range(1, n + 1))
            and sum(counts.values()) == bell_number(n))


# ---------------------------------------------------------------------------
# inequality suite
# ---------------------------------------------------------------------------

INEQUALITY_CHECKS = (
    "lieb",
    "fischer",
    "haf-per",
    "lieb-alpha",
    "neg-nonneg",
    "neg-block",
    "half-scaled",
    "marcus-upper",
    "marcus-lower",
    "marcus-half",
    "block-lift",
    "majorization-per",
    "majorization-det",
)


def _trial_psd(n_max: int, seed: int, t: int) -> Matrix:
    """The PSD instance of inequality trial t; n, field, and unit-diagonal
    choice cycle with coprime periods so every combination occurs."""
    n = 2 + t % (min(n_max, 5) - 1)
    kind = HERMITIAN if t % 3 == 2 else REAL_SYMMETRIC
    unit = t % 2 == 0
    if unit:
        return random_unit_diag_psd(n, kind, 3, seed ^ t)
    return random_psd(n, kind, 3, seed ^ t)


def _inequality_trial(n_max: int, seed: int, alpha_set: str,
                      float_mode: bool, tol: float, t: int) -> list:
    """Evaluate the inequality checks on one PSD instance.

    Returns (check_name, ok, slack_or_None, violation_Finding_or_None) rows.
    """
    A = _trial_psd(n_max, seed, t)
    n = A.n
    A_eval = A.to_float() if float_mode else A
    is_real = A.kind == "rational"
    rows = []
    polynomials = {}   # the oracle's, shared by the trial's violations

    def record(result, alpha, gated=True):
        if not gated:
            # outside the proven regime the verdict is conjecture evidence,
            # not a check; the hunter is the tool for collecting it
            return
        ok = result.verdict != VIOLATED
        finding = None
        if result.verdict == VIOLATED and not float_mode:
            confirm_violation(result, A, alpha, result.split, t, polynomials)
            finding = make_finding("violation", result.name, A, alpha,
                                   result.split, result.slack, seed, t)
        rows.append((result.name, ok, result.slack, finding))

    for r in check_lieb(A_eval, tol=tol) + check_fischer(A_eval, tol=tol):
        record(r, None)
    if is_real:
        record(check_haf_per(A_eval, tol), None)

    alphas = alpha_set_for(alpha_set, n, seed, t)
    for alpha in alphas:
        a_eval = to_float_scalar(alpha) if float_mode else alpha
        for r in (check_lieb_type(A_eval, a_eval, tol=tol)
                  + check_marcus(A_eval, a_eval, tol)):
            record(r, alpha, r.hypothesis is not False)

    # lifted block sums against the diagonal D = diag(A): A's side from
    # the cycle polynomials its checks keep, per sign; D's side is closed,
    # as per_{+-1}(D[B]) is (+-1)^|B| prod_{i in B} a_ii, so
    # per_{+-1}(D, k) = k! S(n, k) (+-1)^n prod a_ii
    if n <= 4 and not float_mode:
        kept = cycle_polynomials(A)
        unit = Fraction(1, kept.base ** n)
        per_A, det_A = ([x * unit for x in kept.per_by_k(s)]
                        for s in (1, -1))
        diag = diagonal_product(A)
        sign = -1 if n % 2 else 1
        ok = True
        worst = None
        for k in range(1, n + 1):
            per_D = math.factorial(k) * stirling2(n, k) * diag
            per_lift = per_A[k] - per_D
            det_lift = per_D - sign * det_A[k]
            for s in (exact_real(per_lift), exact_real(det_lift)):
                ok = ok and s >= 0
                worst = s if worst is None else min(worst, s)
        rows.append(("block-lift", ok, worst, None))

    if n == 5 and is_real and not float_mode:
        for lam, mu in merge_pairs(5):
            for sign_ in (1, -1):
                r = check_majorization_step(A, lam, mu, sign_, tol)
                name = "majorization-per" if sign_ == 1 else "majorization-det"
                rows.append((name, r.verdict != VIOLATED, r.slack, None))
    return rows


# ---------------------------------------------------------------------------
# drivers
# ---------------------------------------------------------------------------

def check_suite_args(suite: str, n_max: int, trials: int, tol) -> None:
    """Raise DomainError unless check --suite SUITE can run with these."""
    if suite != "inequalities" and n_max < 1:
        raise DomainError("check needs n_max >= 1, got %d" % n_max)
    if suite != "identities" and n_max < 2:
        raise DomainError("the inequality suite needs n_max >= 2 for a "
                          "split, got %d" % n_max)
    if trials < 1:
        raise DomainError("check needs trials >= 1, got %d" % trials)
    # a negative tolerance fails every float comparison; NaN compares false
    if not tol >= 0:
        raise DomainError("check needs tol >= 0, got %r" % (tol,))


def run_identity_suite(n_max: int = 5, trials: int = 25, seed: int = 0,
                       jobs: int = 1, float_mode: bool = False,
                       tol: float = 1e-9) -> list:
    check_suite_args("identities", n_max, trials, tol)
    outcomes = {name: CheckOutcome(name) for name in IDENTITY_CHECKS}
    rows = run_trials(_identity_trial, (n_max, seed, float_mode, tol),
                      trials, jobs)
    for _t, pairs in rows:
        for name, ok in pairs:
            outcomes[name].absorb(ok)
    return [outcomes[name] for name in IDENTITY_CHECKS]


def run_inequality_suite(n_max: int = 5, trials: int = 25, seed: int = 0,
                         alpha_set: str = "theorem2", jobs: int = 1,
                         float_mode: bool = False, tol: float = 1e-9) -> list:
    check_suite_args("inequalities", n_max, trials, tol)
    outcomes = {name: CheckOutcome(name) for name in INEQUALITY_CHECKS}
    rows = run_trials(_inequality_trial,
                      (n_max, seed, alpha_set, float_mode, tol), trials, jobs)
    for t, entries in rows:
        for name, ok, slack, finding in entries:
            oc = outcomes[name]
            oc.absorb(ok)
            if slack is not None:
                oc.see_slack(slack, t)
            if finding is not None:
                oc.findings.append(finding)
    return [outcomes[name] for name in INEQUALITY_CHECKS]
