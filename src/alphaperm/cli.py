"""Command line front end.

Subcommands: compute (one quantity on one matrix), gen (random exactly-PSD
instances), check (identity and inequality suites), hunt (counterexample
search).

Exit codes: 0 success or no violation, 1 a verified violation was found,
2 usage error, 3 malformed or unsuitable input, 4 capacity cap exceeded.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import (
    CapacityError,
    DomainError,
    MatrixFormatError,
    MixedModeError,
    ScalarFormatError,
)
from .inequalities import HuntConfig, hunt
from .kernels import (
    alpha_determinant,
    determinant,
    hafnian,
    per_alpha_dp,
    per_alpha_naive,
    permanent,
)
from .matrices import (
    HERMITIAN,
    REAL_SYMMETRIC,
    Matrix,
    loads_matrix,
    random_psd,
    random_symmetric_matrix,
    random_unit_diag_psd,
    read_matrix,
    write_matrix,
)
from .scalars import format_scalar, parse_scalar, to_float_scalar
from .suites import run_identity_suite, run_inequality_suite


def _load_matrix_arg(path: str) -> Matrix:
    if path != "-":
        return read_matrix(path)
    # stdin's bytes, decoded as read_matrix decodes a file's; a text stream
    # without them, such as an io.StringIO, is read as text
    buffer = getattr(sys.stdin, "buffer", None)
    if buffer is None:
        return loads_matrix(sys.stdin.read())
    return loads_matrix(buffer.read().decode("latin-1"))


def _parse_alpha_text(text: str):
    if "i" in text:
        return parse_scalar(text, "complex-rational")
    return parse_scalar(text, "rational")


# ---------------------------------------------------------------------------
# compute
# ---------------------------------------------------------------------------

def cmd_compute(args) -> int:
    A = _load_matrix_arg(args.matrix)
    needs_alpha = args.quantity in ("per-alpha", "det-alpha")
    if needs_alpha and args.alpha is None:
        print("error: %s needs --alpha" % args.quantity, file=sys.stderr)
        return 2
    alpha = _parse_alpha_text(args.alpha) if needs_alpha else None
    if args.mode == "exact":
        if A.kind in ("float", "complex-float"):
            raise MatrixFormatError("exact mode rejects float matrices")
    else:
        A = A.to_float()
        alpha = to_float_scalar(alpha) if alpha is not None else None
    cap = args.cap
    if args.quantity == "per-alpha":
        if args.algo == "naive":
            value = per_alpha_naive(A, alpha, cap=cap)
        else:
            value = per_alpha_dp(A, alpha, cap=cap)
    elif args.quantity == "per":
        value = permanent(A, cap=cap)
    elif args.quantity == "det":
        value = determinant(A)
    elif args.quantity == "haf":
        value = hafnian(A, cap=cap)
    else:
        value = alpha_determinant(A, alpha, cap=cap)
    print(format_scalar(value))
    return 0


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

def cmd_gen(args) -> int:
    if args.unit_diagonal:
        A = random_unit_diag_psd(args.n, args.kind, args.scale, args.seed)
    elif args.symmetric_only:
        A = random_symmetric_matrix(args.n, args.scale, args.seed)
    else:
        A = random_psd(args.n, args.kind, args.scale, args.seed)
    out = args.out
    if out is None:
        stem = "gram-%s-n%d-scale%d-seed%d" % (
            args.kind, args.n, args.scale, args.seed)
        if args.unit_diagonal:
            stem += "-unit"
        if args.symmetric_only:
            stem = "sym-n%d-scale%d-seed%d" % (args.n, args.scale, args.seed)
        out = stem + ".mat"
    write_matrix(A, out)
    print(out)
    return 0


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def _print_outcomes(header: str, outcomes) -> bool:
    print(header)
    all_ok = True
    for oc in outcomes:
        line = "  %-22s %d/%d" % (oc.name, oc.passed, oc.total)
        if oc.min_slack is not None:
            slack, trial = oc.min_slack
            line += " min-slack=%s trial=%d" % (format_scalar(slack), trial)
        print(line)
        all_ok = all_ok and oc.passed == oc.total
    return all_ok


def cmd_check(args) -> int:
    float_mode = args.mode == "float"
    ok = True
    findings = []
    if args.suite in ("identities", "all"):
        outcomes = run_identity_suite(
            n_max=args.n_max, trials=args.trials, seed=args.seed,
            jobs=args.jobs, float_mode=float_mode, tol=args.tol)
        header = "check suite=identities n-max=%d trials=%d seed=%d mode=%s" % (
            args.n_max, args.trials, args.seed, args.mode)
        ok = _print_outcomes(header, outcomes) and ok
    if args.suite in ("inequalities", "all"):
        outcomes = run_inequality_suite(
            n_max=args.n_max, trials=args.trials, seed=args.seed,
            alpha_set=args.alpha_set, jobs=args.jobs,
            float_mode=float_mode, tol=args.tol)
        header = ("check suite=inequalities n-max=%d trials=%d seed=%d "
                  "alpha-set=%s mode=%s" % (args.n_max, args.trials,
                                            args.seed, args.alpha_set,
                                            args.mode))
        ok = _print_outcomes(header, outcomes) and ok
        for oc in outcomes:
            findings.extend(oc.findings)
    if findings:
        if args.findings:
            with open(args.findings, "w", encoding="ascii") as fh:
                for f in findings:
                    fh.write(f.to_json() + "\n")
            print("findings %s (%d records)" % (args.findings, len(findings)))
        else:
            for f in findings:
                print("FINDING " + f.to_json())
    if float_mode:
        print("result INFO (float mode is not gated)")
        return 0
    print("result %s" % ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# hunt
# ---------------------------------------------------------------------------

def cmd_hunt(args) -> int:
    lo, hi = "1", "2"
    if args.alpha_range:
        parts = args.alpha_range.split(":")
        if len(parts) != 2:
            print("error: --alpha-range wants LO:HI", file=sys.stderr)
            return 2
        lo, hi = parts
    cfg = HuntConfig(
        targets=tuple(args.target.split(",")),
        n=args.n,
        trials=args.trials,
        seed=args.seed,
        kind=args.kind,
        scale=args.scale,
        unit_diagonal=args.unit_diagonal,
        alpha_fixed=args.alpha,
        alpha_lo=lo,
        alpha_hi=hi,
        alpha_max_den=args.alpha_max_den,
        keep_smallest=args.keep_smallest,
        jobs=args.jobs,
    )
    result = hunt(cfg)
    alpha_desc = (cfg.alpha_fixed if cfg.alpha_fixed is not None
                  else "[%s,%s]" % (cfg.alpha_lo, cfg.alpha_hi))
    print("hunt targets=%s n=%d trials=%d seed=%d kind=%s scale=%d "
          "unit-diagonal=%s alpha=%s" % (
              ",".join(cfg.targets), cfg.n, cfg.trials, cfg.seed, cfg.kind,
              cfg.scale, "yes" if cfg.unit_diagonal else "no", alpha_desc))
    print("violations %d" % result.violations)
    print("observations %d" % result.observations)
    argmin = result.argmin
    if argmin is not None:
        where = "name=%s trial=%d" % (argmin.name, argmin.trial)
        if argmin.split is not None:
            where += " split=%d" % argmin.split
        if argmin.alpha is not None:
            where += " alpha=%s" % argmin.alpha
        print("min-slack %s %s" % (argmin.slack, where))
        argmin_path = os.path.splitext(args.out)[0] + ".argmin.mat"
        with open(argmin_path, "w", encoding="ascii") as fh:
            fh.write(argmin.matrix)
        print("argmin-matrix %s" % argmin_path)
    with open(args.out, "w", encoding="ascii") as fh:
        for f in result.findings:
            fh.write(f.to_json() + "\n")
    print("findings %s (%d records)" % (args.out, len(result.findings)))
    return 1 if result.violations else 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="alphaperm",
        description="Exact alpha-permanents, hafnians, and permanental "
                    "inequality checking.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compute", help="compute one quantity on one matrix")
    c.add_argument("quantity",
                   choices=["per-alpha", "per", "det", "haf", "det-alpha"])
    c.add_argument("matrix", help="matrix file path, or - for stdin")
    c.add_argument("--alpha", help="alpha as exact text, e.g. 3/2 or 1/2+1/3i")
    c.add_argument("--algo", choices=["dp", "naive"], default="dp")
    c.add_argument("--mode", choices=["exact", "float"], default="exact")
    c.add_argument("--cap", type=int, default=None,
                   help="override the size cap for this call")
    c.set_defaults(func=cmd_compute)

    g = sub.add_parser("gen", help="generate a random exactly-PSD matrix file")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--kind", choices=[REAL_SYMMETRIC, HERMITIAN],
                   default=REAL_SYMMETRIC)
    g.add_argument("--scale", type=int, default=4)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--unit-diagonal", action="store_true")
    g.add_argument("--symmetric-only", action="store_true",
                   help="plain symmetric instance, not PSD")
    g.add_argument("--out", default=None)
    g.set_defaults(func=cmd_gen)

    k = sub.add_parser("check", help="run identity / inequality suites")
    k.add_argument("--suite", choices=["identities", "inequalities", "all"],
                   default="all")
    k.add_argument("--n-max", type=int, default=5)
    k.add_argument("--trials", type=int, default=25)
    k.add_argument("--seed", type=int, default=0)
    k.add_argument("--alpha-set", choices=["theorem2", "unit"],
                   default="theorem2")
    k.add_argument("--jobs", type=int, default=1)
    k.add_argument("--mode", choices=["exact", "float"], default="exact")
    k.add_argument("--tol", type=float, default=1e-9)
    k.add_argument("--findings", default=None,
                   help="write violation records to this JSONL file")
    k.set_defaults(func=cmd_check)

    h = sub.add_parser("hunt", help="search for inequality violations")
    h.add_argument("--target", default="marcus",
                   help="comma list: marcus, lieb, fischer, haf-per, "
                        "lieb-type, neg-positivity")
    h.add_argument("--n", type=int, default=5)
    h.add_argument("--trials", type=int, default=1000)
    h.add_argument("--seed", type=int, default=0)
    h.add_argument("--kind", choices=[REAL_SYMMETRIC, HERMITIAN],
                   default=REAL_SYMMETRIC)
    h.add_argument("--scale", type=int, default=3)
    h.add_argument("--unit-diagonal", dest="unit_diagonal",
                   action="store_true", default=True)
    h.add_argument("--no-unit-diagonal", dest="unit_diagonal",
                   action="store_false")
    h.add_argument("--alpha", default=None, help="fixed alpha, e.g. 3/2")
    h.add_argument("--alpha-range", default=None, help="LO:HI, default 1:2")
    h.add_argument("--alpha-max-den", type=int, default=16)
    h.add_argument("--keep-smallest", type=int, default=0,
                   help="also record the k smallest slacks")
    h.add_argument("--jobs", type=int, default=1)
    h.add_argument("--out", default="hunt-findings.jsonl")
    h.set_defaults(func=cmd_hunt)

    return p


def main(argv=None) -> int:
    # exact values parse and print at any length: lift Python's int/str
    # digit limit (3.10.7 on) for the command, and restore it after
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except (ScalarFormatError, MatrixFormatError, DomainError,
            MixedModeError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    except CapacityError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 4
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
