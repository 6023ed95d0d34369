"""Command-line front end.

Exit codes: 0 success, 1 a checked identity failed, 2 a verify3 survivor
passed every stage (potential witness), 64 usage error, 70 internal error.
"""

import argparse
import os
import random
import sys
import traceback
from contextlib import ExitStack, contextmanager

from .ff import is_prime, prime_ctx

EX_USAGE = 64
EX_SOFTWARE = 70

CSV_HEADER = "p,C1,C2,C3,C4,T1,T2,T3,T4"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(EX_USAGE)


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _build_parser() -> _Parser:
    top = _Parser(prog="discdet", description=__doc__)
    sub = top.add_subparsers(dest="cmd", required=True)

    v3 = sub.add_parser("verify3", help="successive-testing pipeline over a prime range")
    v3.add_argument("--min-p", type=int, required=True)
    v3.add_argument("--max-p", type=int, required=True)
    v3.add_argument("--jobs", type=int, default=1)
    v3.add_argument("--out", help="write CSV rows here")
    v3.add_argument("--survivors", help="write per-candidate stage records here")

    t1 = sub.add_parser("th1sym", help="exact symbolic identity on all of B(p)")
    t1.add_argument("--max-p", type=int, required=True)
    t1.add_argument("--max-r", type=int, required=True)

    t5 = sub.add_parser("th5", help="structured inverse factorization checks")
    t5.add_argument("--p", type=int, required=True)
    t5.add_argument("--r", type=int, required=True)
    t5.add_argument("--e", type=int, required=True)
    t5.add_argument("--coeffs", help="c1,..,cr for monic f = x^r + c1 x^{r-1} + ...")
    t5.add_argument("--trials", type=positive_int, default=5)
    t5.add_argument("--seed", type=int, default=0)

    e1 = sub.add_parser("exp1", help="determinant-ratio equality over E(p)")
    e1.add_argument("--p", type=int, required=True)
    e1.add_argument("--max-r", type=int, required=True)
    e1.add_argument("--trials", type=positive_int, default=10)
    e1.add_argument("--seed", type=int, default=0)

    e2 = sub.add_parser("exp2", help="Glynn-coefficient ratio equality")
    e2.add_argument("--p", type=int, required=True)
    e2.add_argument("--r", type=positive_int, required=True)
    e2.add_argument("--trials", type=positive_int, default=20)
    e2.add_argument("--seed", type=int, default=0)

    pp = sub.add_parser("ppm", help="enumerate step-constrained permutations")
    pp.add_argument("--h", type=int, required=True)
    pp.add_argument("--k", type=int, required=True)
    pp.add_argument("--d", type=int, required=True)
    pp.add_argument("--oracle", action="store_true", help="use the brute-force path")

    ka = sub.add_parser("kappa", help="kappa invariants and surviving primes")
    ka.add_argument("--s-max", type=int, required=True)
    ka.add_argument("--p-max", type=int, required=True)
    return top


@contextmanager
def _replace_on_success(path):
    """A new file beside path that replaces path when the block ends normally
    and is removed when the block raises, so a failed run keeps the old path."""
    if os.path.isdir(path):
        raise IsADirectoryError(f"{path} is a directory")
    tmp = f"{path}.{os.getpid()}.tmp"
    fh = open(tmp, "x", newline="\n")
    try:
        with fh:
            yield fh
    except BaseException:
        os.unlink(tmp)
        raise
    os.replace(tmp, path)


def _cmd_verify3(args) -> int:
    from .verify3 import verify_range

    with ExitStack() as files:
        # Created before the run, so that a bad path costs no computation.
        try:
            out, surv = [
                files.enter_context(_replace_on_success(path)) if path else None
                for path in (args.out, args.survivors)
            ]
        except OSError as exc:
            raise ValueError(f"cannot open output file: {exc}") from None
        reports, stats = verify_range(args.min_p, args.max_p, workers=args.jobs)
        rows = [CSV_HEADER] + [rep.csv_row() for rep in reports]
        for row in rows:
            print(row.replace(",", " "))
        if stats.prime_count:
            for stage in range(1, 5):
                print(
                    f"# T{stage}: avg {stats.avg_str(stage)} "
                    f"max {stats.maxima[stage - 1]}  ({stats.prime_count} primes)"
                )
        if out:
            out.writelines(row + "\n" for row in rows)
        if surv:
            surv.write("p,r,e,d,stage_reached\n")
            for rep in reports:
                for t, stage in rep.stage_records:
                    surv.write(f"{rep.p},{t.r},{t.e},{t.d},{stage}\n")
    witnesses = [(rep.p, t) for rep in reports for t in rep.survivors]
    for p, t in witnesses:
        print(f"# WITNESS: p={p} (r,e,d)=({t.r},{t.e},{t.d}) passed all stages")
    return 2 if witnesses else 0


def _cmd_th1sym(args) -> int:
    from .sets import enumerate_B
    from .symbolic import check_desk_scale, theorem1_check

    check_desk_scale(args.max_p, args.max_r)
    failed = False
    for p in range(2, args.max_p + 1):
        if not is_prime(p):
            continue
        ctx = prime_ctx(p)
        for t in enumerate_B(ctx):
            if t.r > args.max_r:
                continue
            rep = theorem1_check(t)
            print(f"{p} {t.r} {t.e} {t.d} {rep['holds']} {rep['eps']} {rep['g']}")
            failed = failed or not rep["holds"]
    return 1 if failed else 0


def _cmd_th5(args) -> int:
    from .fpmat import Singular
    from .poly import FpPoly
    from .theorem5 import StructuredSpec, check_aux_lemmas, check_theorem5, random_spec

    ctx = prime_ctx(args.p)
    specs = []
    if args.coeffs:
        tail = [int(c) for c in args.coeffs.split(",")]
        if len(tail) != args.r:
            raise ValueError(f"--coeffs needs exactly {args.r} values")
        f = FpPoly(ctx, list(reversed(tail)) + [1])
        spec = StructuredSpec(ctx, args.r, args.e, f)
        try:
            spec.quotient
        except Singular:
            # f is the user's input, so a singular M_d(f^e) is a usage error.
            raise ValueError(
                f"--coeffs {args.coeffs}: M_{args.r - 1}(f^{args.e}) is singular"
            ) from None
        specs.append(spec)
    else:
        rng = random.Random(args.seed)
        specs = [random_spec(ctx, args.r, args.e, rng) for _ in range(args.trials)]
    failed = False
    for spec in specs:
        tail = ",".join(map(str, spec.s[1:]))
        main = check_theorem5(spec)
        aux = check_aux_lemmas(spec)
        checks = [("factorization", main["holds"])] + [
            (name, ok) for name, ok in aux.items() if name != "holds"
        ]
        for name, ok in checks:
            print(f"f=[{tail}] {name}: {'PASS' if ok else 'FAIL'}")
            failed = failed or not ok
    return 1 if failed else 0


def _random_poly(ctx, r, rng):
    from .poly import FpPoly

    p = ctx.p
    coeffs = [rng.randrange(p) for _ in range(r)] + [rng.randrange(1, p)]
    return FpPoly(ctx, coeffs)


def _cmd_exp1(args) -> int:
    from .experimental import NonInvertibleBase, check_equality1, enumerate_E
    from .fpmat import Singular

    ctx = prime_ctx(args.p)
    rng = random.Random(args.seed)
    failures = checks = 0
    for t in enumerate_E(ctx, args.max_r):
        for trial in range(args.trials):
            rep = None
            for _ in range(500):
                try:
                    rep = check_equality1(t, _random_poly(ctx, t.r, rng))
                    break
                except (Singular, NonInvertibleBase):
                    continue
            if rep is None:
                print(f"(r,e,d)=({t.r},{t.e},{t.d}) trial {trial}: EXHAUSTED")
                failures += 1
                continue
            checks += 1
            print(
                f"(r,e,d)=({t.r},{t.e},{t.d}) trial {trial}: "
                f"{'PASS' if rep['holds'] else 'FAIL'}"
            )
            failures += 0 if rep["holds"] else 1
    print(f"exp1 p={args.p}: {checks} checks, {failures} failures")
    return 1 if failures else 0


def _cmd_exp2(args) -> int:
    from .experimental import check_equality2, check_glynn_scale
    from .fpmat import FpMatrix, Singular

    p, r = args.p, args.r
    check_glynn_scale(r, p - 1)  # e = 0 takes adj(A)'s coefficient at p - 1
    ctx = prime_ctx(p)
    rng = random.Random(args.seed)
    failures = checks = zero_den = 0
    for trial in range(args.trials):
        while True:
            A = FpMatrix(ctx, r, r, [rng.randrange(p) for _ in range(r * r)])
            try:
                reports = check_equality2(A)
                break
            except Singular:
                continue
        for e, rep in enumerate(reports):
            if rep["zero_denominator"]:
                zero_den += 1
                print(f"trial {trial} e={e}: ZERO-DENOMINATOR")
                continue
            checks += 1
            print(f"trial {trial} e={e}: {'PASS' if rep['holds'] else 'FAIL'}")
            failures += 0 if rep["holds"] else 1
    print(
        f"exp2 p={p} r={r}: {checks} checks, {failures} failures, "
        f"{zero_den} zero denominators"
    )
    return 1 if failures else 0


def _cmd_ppm(args) -> int:
    from . import ppm as ppm_mod

    fn = ppm_mod.enumerate_bruteforce if args.oracle else ppm_mod.enumerate
    for M in fn(args.h, args.k, args.d):
        print(" ".join(str(v) for v in M.sigma))
    return 0


def _cmd_kappa(args) -> int:
    from .sets import in_B, kappa, kappa_survivor_primes

    for s in range(1, args.s_max + 1):
        for l in range(1, s + 1):
            kq = kappa(s, l)
            survivors = kappa_survivor_primes(s, l, args.p_max)
            if not survivors:
                print(f"{s} {l} {kq} - - -")
            for p, t in survivors:
                tag = in_B(t)
                tag = f"in-{tag}" if tag else "not-in-B"
                print(f"{s} {l} {kq} {p} ({t.r},{t.e},{t.d}) {tag}")
    return 0


_COMMANDS = {
    "verify3": _cmd_verify3,
    "th1sym": _cmd_th1sym,
    "th5": _cmd_th5,
    "exp1": _cmd_exp1,
    "exp2": _cmd_exp2,
    "ppm": _cmd_ppm,
    "kappa": _cmd_kappa,
}


def dispatch(argv) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.cmd](args)
    except ValueError as exc:
        sys.stderr.write(f"discdet {args.cmd}: error: {exc}\n")
        return EX_USAGE
    except Exception:
        traceback.print_exc()
        return EX_SOFTWARE


def main(argv=None) -> int:
    return dispatch(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
