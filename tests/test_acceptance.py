"""End-to-end acceptance checks.

Each test prints a single `CRITERION n ...: PASS|FAIL` line so the run log
doubles as a checklist.  Tolerances are zero everywhere: every comparison is
exact integer or exact string equality.
"""

import json
import random
import time
from functools import lru_cache

from discdet.ff import bracket, is_prime, prime_ctx
from discdet.fpmat import FpMatrix, Singular, det, m_matrix
from discdet.poly import XR_MINUS_X, monomial_sum, special_discriminant
from discdet.sets import (
    enumerate_B,
    enumerate_C,
    in_B,
    kappa,
    kappa_survivor_primes,
)
from discdet.verify3 import verify_prime, verify_range


def report(n: int, label: str, ok: bool) -> None:
    print(f"CRITERION {n} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {n}: {label}"


@lru_cache(maxsize=None)
def milestone(p: int):
    return verify_prime(prime_ctx(p))


def golden_rows():
    with open("tests/data/table1_3_43.csv") as fh:
        return fh.read().splitlines()


def test_criterion_1_small_prime_table():
    start = time.monotonic()
    reports, _ = verify_range(3, 43)
    rows = ["p,C1,C2,C3,C4,T1,T2,T3,T4"] + [r.csv_row() for r in reports]
    ok = rows == golden_rows() and time.monotonic() - start < 60
    report(1, "table rows p in 3..43", ok)


def test_criterion_2_milestone_primes():
    ok = True
    for p, c, t in (
        (193, (219, 32, 0, 20), (4, 1, 0, 0)),
        (6301, (13117, 17642, 0, 492), (8, 1, 1, 0)),
        (199523, (3, 0, 0, 0), (0, 0, 0, 0)),
    ):
        start = time.monotonic()
        rep = milestone(p)
        ok = ok and rep.c_counts == c and rep.t_counts == t
        ok = ok and time.monotonic() - start < 600
    report(2, "milestone primes 193/6301/199523", ok)


def test_criterion_3_first_nonzero_stages():
    ok = True
    for p in range(3, 200):
        if is_prime(p):
            ok = ok and (verify_prime(prime_ctx(p)).t_counts[1] != 0) == (p == 193)
    # T3 first appears at 6301; full scan below it is out of desk scale, so
    # check a fixed sample of smaller primes plus the exact 6301 row
    for p in (197, 199, 211, 499, 997, 1499, 1999, 2503, 3001, 4001, 4999, 6007, 6299):
        if is_prime(p):
            ok = ok and verify_prime(prime_ctx(p)).t_counts[2] == 0
    ok = ok and milestone(6301).t_counts[2] == 1
    report(3, "first nonzero T2 = 193, T3 = 6301 (sampled)", ok)


def test_criterion_4_stats_p_lt_2000_golden():
    with open("tests/data/stats_p2000.json") as fh:
        golden = json.load(fh)
    reports, stats = verify_range(3, 1999, workers=4)
    rows = [[r.p, *r.c_counts, *r.t_counts] for r in reports]
    ok = (
        rows == golden["rows"]
        and stats.prime_count == golden["prime_count"]
        and [stats.avg_str(s) for s in (1, 2, 3, 4)] == golden["averages"]
        and list(stats.maxima) == golden["maxima"]
    )
    report(4, "exact stats p < 2000 vs golden", ok)


def test_criterion_5_symbolic_identity_on_B():
    from discdet.symbolic import theorem1_check

    start = time.monotonic()
    ok = True
    for p in (2, 3, 5, 7):
        for t in enumerate_B(prime_ctx(p)):
            if t.r <= 4:
                ok = ok and theorem1_check(t)["holds"]
    ok = ok and time.monotonic() - start < 300
    report(5, "exact polynomial identity on B(p), p <= 7, r <= 4", ok)


def test_criterion_6_structured_factorization_suite():
    from discdet.theorem5 import (
        admissible_pairs,
        check_aux_lemmas,
        check_theorem5,
        random_spec,
    )

    start = time.monotonic()
    ok = True
    for p in (5, 7, 11, 13, 17, 19, 23, 29, 31):
        ctx = prime_ctx(p)
        rng = random.Random(p)
        for r, e in admissible_pairs(ctx):
            for _ in range(20):
                spec = random_spec(ctx, r, e, rng)
                ok = ok and check_theorem5(spec)["holds"]
                ok = ok and check_aux_lemmas(spec)["holds"]
    ok = ok and time.monotonic() - start < 120
    report(6, "factorization + aux lemmas, p <= 31, 20 seeds", ok)


def test_criterion_7_ppm_and_bracket():
    from math import gcd

    from discdet import ppm as ppm_mod

    ctx = prime_ctx(1009)
    ok = True
    for h in range(1, 7):
        for k in range(1, 7):
            if h + k > 7 or gcd(h, k) != 1:
                continue
            for d in range(1, 17):
                fast = ppm_mod.enumerate(h, k, d)
                ok = ok and fast == ppm_mod.enumerate_bruteforce(h, k, d)
                for M in fast:
                    ok = ok and ppm_mod.ppm_det(M) == M.parity()
                    ok = ok and det(M.to_matrix(ctx)) == M.parity() % 1009

    def parity_brute(k, d):
        perm = [k * i % d for i in range(d)]
        sign, seen = 1, [False] * d
        for s in range(d):
            if seen[s]:
                continue
            ln, x = 0, s
            while not seen[x]:
                seen[x] = True
                x = perm[x]
                ln += 1
            sign = -sign if ln % 2 == 0 else sign
        return sign

    for d in range(1, 501):
        for k in range(1, d + 1):
            if gcd(k, d) == 1:
                ok = ok and bracket(k, d) == parity_brute(k, d)
    report(7, "step-permutation enumeration and bracket signs", ok)


def test_criterion_8_kappa_table_and_survivors():
    from fractions import Fraction

    ok = (
        kappa(1, 1) == Fraction(-1, 2)
        and kappa(2, 1) == Fraction(-1, 6)
        and kappa(2, 2) == Fraction(4, 9)
        and kappa(3, 1) == Fraction(-1, 12)
        and kappa(3, 2) == Fraction(5, 48)
        and kappa(3, 3) == Fraction(-27, 64)
    )
    s32 = kappa_survivor_primes(3, 2, 500)
    ok = ok and [(p, t.as_tuple(), in_B(t)) for p, t in s32] == [
        (7, (2, 5, 1), "B0"),
        (43, (14, 29, 1), None),
    ]
    s33 = kappa_survivor_primes(3, 3, 100)
    ok = ok and [(p, t.as_tuple(), in_B(t)) for p, t in s33] == [
        (7, (2, 6, 1), "B0"),
        (13, (4, 12, 1), None),
    ]
    report(8, "kappa table values and surviving primes", ok)


def test_criterion_9_experimental_equalities():
    from discdet.experimental import (
        NonInvertibleBase,
        check_equality1,
        check_equality2,
        check_glynn_theorem,
        enumerate_E,
    )
    from discdet.poly import FpPoly

    start = time.monotonic()
    ok = True
    rng = random.Random(9)
    for p in (3, 5, 7, 11, 13):
        ctx = prime_ctx(p)
        for t in enumerate_E(ctx, 4):
            done = 0
            for _ in range(1000):
                if done == 10:
                    break
                f = FpPoly(
                    ctx,
                    [rng.randrange(p) for _ in range(t.r)] + [rng.randrange(1, p)],
                )
                try:
                    rep = check_equality1(t, f)
                except (Singular, NonInvertibleBase):
                    continue
                done += 1
                if not rep["holds"]:
                    ok = False
                    print(f"counterexample? equality1 {t.as_tuple()} f={f.coeffs}")
    for p in (3, 5, 7, 11):
        ctx = prime_ctx(p)
        for r in (2, 3):
            done = 0
            while done < 200:
                A = FpMatrix(ctx, r, r, [rng.randrange(p) for _ in range(r * r)])
                if det(A) == 0:
                    ok = ok and check_glynn_theorem(A)["holds"]
                    continue
                done += 1
                ok = ok and check_glynn_theorem(A)["holds"]
                for e, rep in enumerate(check_equality2(A)):
                    if rep["holds"] is False:
                        ok = False
                        print(f"counterexample? equality2 p={p} e={e} A={A.data}")
    ok = ok and time.monotonic() - start < 60
    report(9, "experimental determinant/coefficient equalities", ok)


def test_criterion_10_closed_forms_vs_direct():
    start = time.monotonic()
    ok = True
    for p in range(3, 102):
        if not is_prime(p):
            continue
        ctx = prime_ctx(p)
        for j in (1, 2, 3, 4):
            for t, closed in enumerate_C(j, ctx):
                if closed is None:
                    continue
                f = monomial_sum(ctx, [(t.r, 1), (1, -1)])
                ok = ok and closed == det(m_matrix(f, t.e, t.d))
        # discriminant closed form for x^r - x vs the resultant-based path
        from discdet.poly import discriminant

        for r in range(2, min(p, 12)):
            f = monomial_sum(ctx, [(r, 1), (1, -1)])
            if r % p:
                ok = ok and special_discriminant(XR_MINUS_X, r, ctx) == discriminant(f)
    ok = ok and time.monotonic() - start < 300
    report(10, "closed-form determinants and discriminants vs direct", ok)
