"""The benchmark's four workloads.

Each workload turns (seed, batch index) into a batch of alphaperm command
lines, runs them in-process through alphaperm.cli.main, and afterwards checks
the outputs by a route that shares as little as possible with the timed one.
A unit is one hunt trial, one check trial (summed over both suites) or one
compute request.

Program seeds. hunt and check derive trial t from `seed ^ t`, so two runs
whose seeds differ only in low bits revisit the same instances. Batch b of
a run with benchmark seed s therefore passes the program the seed
(s << 20) | (b << 8): bits 0-7 are left to the trial index (batches have at
most 256 trials), bits 8-19 number the batch, and every benchmark seed owns
a disjoint instance stream.
"""

from __future__ import annotations

import io
import math
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

TRIAL_BITS = 8
BATCH_BITS = 12
FLOAT_RTOL = 1e-9


def program_seed(seed: int, batch: int) -> int:
    if not 0 <= batch < 1 << BATCH_BITS:
        raise ValueError("batch index %d out of range" % batch)
    return (seed << (TRIAL_BITS + BATCH_BITS)) | (batch << TRIAL_BITS)


class Batch:
    """One timed batch: command lines to run, units they complete, and the
    files and facts the correctness check needs."""

    def __init__(self, index, argvs, units, files=(), facts=None):
        self.index = index
        self.argvs = argvs
        self.units = units
        self.files = files
        self.facts = facts


class Outcome:
    """What a batch produced: per command (return code or exception text,
    stdout), plus the bytes of the files the commands wrote."""

    def __init__(self, calls, files):
        self.calls = calls
        self.files = files

    def as_bytes(self) -> bytes:
        parts = [repr(rc).encode() + b"\0" + out.encode()
                 for rc, out in self.calls]
        parts += [name.encode() + b"\0" + data
                  for name, data in sorted(self.files.items())]
        return b"\1".join(parts)


def run_call(cli, argv: list) -> tuple:
    """One command line in-process: (return code or exception text, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(argv)
    except (Exception, SystemExit) as exc:  # a failed unit, not a crash
        rc = "%s: %s" % (type(exc).__name__, exc)
    return rc, out.getvalue()


def collect(batch: Batch, calls: list) -> Outcome:
    files = {}
    for path in batch.files:
        if os.path.exists(path):
            with open(path, "rb") as fh:
                files[os.path.basename(path)] = fh.read()
    return Outcome(calls, files)


class Workload:
    """A workload's batches and their correctness check; BENCHMARK.json
    says why each workload is in the benchmark."""

    name = None

    def __init__(self, seed: int, tmp: str):
        self.seed = seed
        self.tmp = tmp

    def path(self, stem: str) -> str:
        return os.path.join(self.tmp, stem)

    def warmup_batch(self) -> Batch:
        """A one-unit batch whose run is the first-call warm-up in set-up."""
        raise NotImplementedError

    def batch(self, b: int) -> Batch:
        raise NotImplementedError

    def failed_units(self, batch: Batch, outcome: Outcome) -> int:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# hunts
# ---------------------------------------------------------------------------

def _hunt_lines(stdout: str) -> dict:
    """First token of each hunt output line -> the rest of the line."""
    out = {}
    for line in stdout.splitlines():
        head, _, rest = line.partition(" ")
        out[head] = rest
    return out


class _Hunt(Workload):
    trials = None
    extra = ()

    def _argv(self, seed: int, trials: int, out: str) -> list:
        return ["hunt", "--n", "5", "--trials", str(trials),
                "--seed", str(seed), "--jobs", "1", "--out", out,
                *self.extra]

    def warmup_batch(self) -> Batch:
        out = self.path("%s-warmup.jsonl" % self.name)
        return Batch(-1, [self._argv(0, 1, out)], 1)

    def batch(self, b: int) -> Batch:
        out = self.path("%s-%d.jsonl" % (self.name, b))
        argmin = os.path.splitext(out)[0] + ".argmin.mat"
        return Batch(b, [self._argv(program_seed(self.seed, b), self.trials,
                                    out)],
                     self.trials, files=(out, argmin))


class HuntMarcus(_Hunt):
    name = "hunt-marcus"
    trials = 64  # a multiple of 64, so alpha = lo, hi recur as in long hunts
    extra = ("--target", "marcus")

    def failed_units(self, batch, outcome):
        from alphaperm import loads_matrix, per_alpha_naive
        ((rc, stdout),) = outcome.calls
        lines = _hunt_lines(stdout)
        if rc != 0 or lines.get("violations") != "0":
            return batch.units
        # recompute the reported minimum slack with the permutation oracle
        slack_text, *where = lines["min-slack"].split()
        fields = dict(w.split("=", 1) for w in where)
        A = loads_matrix(outcome.files[os.path.basename(batch.files[1])]
                         .decode("ascii"))
        alpha = Fraction(fields["alpha"])
        if _marcus_slack_naive(per_alpha_naive, fields["name"], A, alpha) \
                != Fraction(slack_text):
            return batch.units
        return 0


def _marcus_slack_naive(per_alpha_naive, name: str, A, alpha) -> Fraction:
    n = A.n
    diag = math.prod(A.rows[i][i] for i in range(n))
    if name == "marcus-upper":
        return per_alpha_naive(A, alpha) - alpha ** n * diag
    if name == "marcus-lower":
        return alpha ** n * diag - (-1) ** n * per_alpha_naive(A, -alpha)
    if name == "marcus-half":
        return per_alpha_naive(A, alpha / 2) - (alpha / 2) ** n * diag
    raise ValueError("not a marcus comparison: %r" % name)


class HuntLiebHerm(_Hunt):
    name = "hunt-lieb-herm"
    trials = 8
    extra = ("--target", "lieb-type", "--kind", "hermitian")
    # Hermitian lieb-type hunts at n=5 turn up sign findings but, in
    # practice, no violations, which leaves the oracle idle. So every batch
    # also replays the known counterexample (real n=4, trial 142 of seed 3
    # in the program's own tests: program seed 3 ^ 142 = 141, trial 0),
    # whose violation the oracle must re-verify before it is reported.
    PIN_ARGV = ("hunt", "--target", "lieb-type", "--n", "4", "--trials", "1",
                "--seed", "141", "--alpha", "13/10", "--jobs", "1")
    PIN_SLACK = "-308180603449/1550095547000"

    def batch(self, b: int) -> Batch:
        hunt = super().batch(b)
        pin = self.path("%s-%d-pin.jsonl" % (self.name, b))
        return Batch(b, hunt.argvs + [[*self.PIN_ARGV, "--out", pin]],
                     hunt.units + 1, files=hunt.files + (pin,))

    def failed_units(self, batch, outcome):
        (rc, _stdout), (pin_rc, pin_stdout) = outcome.calls
        if rc in (0, 1):
            hunt_failed = len({f.trial for f in _findings(outcome,
                                                          batch.files[0])
                               if not _replays(f)})
        else:
            hunt_failed = self.trials
        # the counterexample must come out as exactly one violation, with
        # the slack the program's tests pin, and all its findings replay
        pin = _findings(outcome, batch.files[2])
        pin_ok = (pin_rc == 1
                  and _hunt_lines(pin_stdout).get("violations") == "1"
                  and [f.slack for f in pin if f.record == "violation"]
                  == [self.PIN_SLACK]
                  and all(map(_replays, pin)))
        return hunt_failed + (0 if pin_ok else 1)


def _findings(outcome: Outcome, path: str) -> list:
    from alphaperm import Finding
    data = outcome.files.get(os.path.basename(path), b"")
    return [Finding.from_json(line) for line in data.decode("ascii").splitlines()]


def _replays(finding) -> bool:
    """Whether a finding gives back its slack through replay_finding."""
    from alphaperm import format_scalar, replay_finding
    return format_scalar(replay_finding(finding)) == finding.slack


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

class CheckAll(Workload):
    name = "check-all"
    # check always runs trials 0..T-1, whose n, field and unit diagonal
    # cycle with periods 4, 3 and 2: every batch has the same mix, and six
    # trials hold one n=5 real trial (the majorization steps) and two
    # Hermitian ones while keeping a batch under a second
    trials = 6

    def _argv(self, seed: int, trials: int) -> list:
        return ["check", "--suite", "all", "--n-max", "5",
                "--alpha-set", "theorem2", "--trials", str(trials),
                "--seed", str(seed), "--jobs", "1"]

    def warmup_batch(self) -> Batch:
        return Batch(-1, [self._argv(0, 1)], 1)

    def batch(self, b: int) -> Batch:
        return Batch(b, [self._argv(program_seed(self.seed, b), self.trials)],
                     self.trials)

    def failed_units(self, batch, outcome):
        ((rc, stdout),) = outcome.calls
        lines = stdout.splitlines()
        if rc != 0 or not lines or lines[-1] != "result PASS":
            return batch.units
        return 0


# ---------------------------------------------------------------------------
# compute
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    if isinstance(x, tuple):
        re, im = x
        return "%s%s%si" % (re, "-" if im < 0 else "+", abs(im))
    return str(x)


def _dumps(rows, field: str) -> str:
    lines = ["n %d" % len(rows), "field %s" % field, "flags"]
    lines += [" ".join(_fmt(x) for x in row) for row in rows]
    return "\n".join(lines) + "\n"


def _rat(rng, lo: int, hi: int, den: int = 3) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, den))


def _parse_exact(text: str):
    """Rational or complex-rational value printed by `compute`, as a
    Fraction or a (re, im) pair of Fractions."""
    text = text.strip()
    if not text.endswith("i"):
        return Fraction(text)
    body = text[:-1]
    cut = max(body.rfind("+"), body.rfind("-"))
    return Fraction(body[:cut]), Fraction(body[cut:])


def _close(value: float, exact: float, scale: float) -> bool:
    return abs(value - exact) <= FLOAT_RTOL * scale


class ComputeLarge(Workload):
    name = "compute-large"

    M_N, H_N, P_N, D_N, S_N = 11, 9, 13, 40, 9

    def warmup_batch(self) -> Batch:
        path = self.path("warmup.mat")
        with open(path, "w", encoding="ascii") as fh:
            fh.write(_dumps([[Fraction(1), Fraction(1, 2)],
                             [Fraction(1, 3), Fraction(2)]], "rational"))
        return Batch(-1, [["compute", "per-alpha", path, "--alpha", "3/2"]], 1)

    def batch(self, b: int) -> Batch:
        rng = random.Random("perfbench:%s:%d:%d" % (self.name, self.seed, b))
        # positive entries and alpha keep the float lane free of cancellation
        M = [[_rat(rng, 1, 3) for _ in range(self.M_N)]
             for _ in range(self.M_N)]
        # fixed denominators, so that the size of the numbers, and with it
        # the cost of a pass, does not hang on one draw
        alpha = Fraction(rng.randint(1, 13), 7)
        H = [[(_rat(rng, -3, 3), _rat(rng, -3, 3)) for _ in range(self.H_N)]
             for _ in range(self.H_N)]
        beta = (Fraction(rng.randint(-9, 9), 5), Fraction(rng.randint(1, 9), 5))
        P = [[_rat(rng, 1, 3) for _ in range(self.P_N)]
             for _ in range(self.P_N)]
        D, det_D = self._lu_product(rng)
        S = [[None] * self.S_N for _ in range(self.S_N)]
        for i in range(self.S_N):
            for j in range(i, self.S_N):
                S[i][j] = S[j][i] = _rat(rng, -3, 3)
        S2 = [row + row for row in S] * 2
        paths = {}
        for key, rows, field in (("M", M, "rational"),
                                 ("H", H, "complex-rational"),
                                 ("P", P, "rational"), ("D", D, "rational"),
                                 ("S", S, "rational"), ("S2", S2, "rational")):
            paths[key] = self.path("%s.mat" % key)
            with open(paths[key], "w", encoding="ascii") as fh:
                fh.write(_dumps(rows, field))
        argvs = [
            ["compute", "per-alpha", paths["M"], "--alpha=" + _fmt(alpha)],
            # "--alpha=" because a value like -1/2+1i reads as an option
            ["compute", "per-alpha", paths["H"], "--alpha=" + _fmt(beta)],
            ["compute", "per", paths["P"]],
            ["compute", "det", paths["D"]],
            ["compute", "per", paths["S"]],
            ["compute", "det", paths["S"]],
            ["compute", "haf", paths["S2"]],
            ["compute", "per-alpha", paths["M"], "--alpha=" + _fmt(alpha),
             "--mode", "float"],
            ["compute", "per", paths["P"], "--mode", "float"],
        ]
        facts = {"H": H, "beta": beta, "det_D": det_D, "S": S}
        return Batch(b, argvs, len(argvs), facts=facts)

    def _lu_product(self, rng):
        """D = L U with L unit lower and U upper triangular, so det D is the
        product of U's diagonal, known without any alphaperm kernel."""
        n = self.D_N
        L = [[Fraction(int(i == j)) if j >= i else _rat(rng, -2, 2, 2)
              for j in range(n)] for i in range(n)]
        U = [[Fraction(0) if j < i else _rat(rng, -2, 2, 2)
              for j in range(n)] for i in range(n)]
        for i in range(n):
            U[i][i] = _rat(rng, 1, 3) * rng.choice((1, -1))
        D = [[sum((L[i][k] * U[k][j] for k in range(min(i, j) + 1)),
                  Fraction(0)) for j in range(n)] for i in range(n)]
        return D, math.prod(U[i][i] for i in range(n))

    def failed_units(self, batch, outcome):
        from alphaperm import Matrix, cycle_sum_table, per_alpha_dp
        from alphaperm.scalars import GaussianRational
        if any(rc != 0 for rc, _out in outcome.calls):
            return batch.units
        bad = set()
        v = [_parse_exact(out) if i < 7 else float(out)
             for i, (_rc, out) in enumerate(outcome.calls)]
        facts = batch.facts
        # float lane against the exact values of the same requests
        for fl, ex in ((7, 0), (8, 2)):
            if not _close(v[fl], float(v[ex]), abs(float(v[ex]))):
                bad.add(fl)
        # complex DP against the float lane, scaled by the sum of the
        # absolute values of its terms
        H = Matrix([[GaussianRational(re, im) for re, im in row]
                    for row in facts["H"]])
        beta = complex(*map(float, facts["beta"]))
        approx = per_alpha_dp(H.to_float(), beta)
        scale = per_alpha_dp(Matrix([[abs(complex(x)) for x in row]
                                     for row in H.to_float().rows]), abs(beta))
        if not _close(approx, complex(*map(float, v[1])), scale):
            bad.add(1)
        # Bareiss at n=40 against the determinant known by construction
        if v[3] != facts["det_D"]:
            bad.add(3)
        # Ryser against per_1, Bareiss against per_-1, and the hafnian of
        # the doubled matrix against 2^n per_1/2, all by the subset DP
        S = Matrix(facts["S"])
        table = cycle_sum_table(S)
        n = S.n
        if v[4] != per_alpha_dp(S, Fraction(1), cycle_table=table):
            bad.add(4)
        if (-1) ** n * v[5] != per_alpha_dp(S, Fraction(-1), cycle_table=table):
            bad.add(5)
        if v[6] != 2 ** n * per_alpha_dp(S, Fraction(1, 2), cycle_table=table):
            bad.add(6)
        return len(bad)


WORKLOADS = {w.name: w for w in (HuntMarcus, HuntLiebHerm, CheckAll,
                                 ComputeLarge)}
