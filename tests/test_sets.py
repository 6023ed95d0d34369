import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

from discdet.ff import is_prime, prime_ctx
from discdet.fpmat import det, m_matrix
from discdet.poly import monomial_sum
from discdet.sets import (
    B_MINUS,
    B_PLUS,
    B_ZERO,
    NotInB,
    NotInD,
    Triple,
    _divisors,
    _in_B,
    _in_U,
    _params,
    degree_balance,
    det_xr1,
    enumerate_B,
    enumerate_C,
    epsilon,
    g_exponent,
    half_g,
    in_B,
    in_D,
    in_U,
    kappa,
    kappa_survivor_primes,
    t1_survivors,
)


def T(p, r, e, d):
    return Triple(prime_ctx(p), r, e, d)


def test_g_exponent_examples():
    assert g_exponent(T(13, 2, 7, 1)) == 2
    assert g_exponent(T(5, 2, 3, 1)) == 2
    assert g_exponent(T(7, 3, 4, 1)) == 2


def test_in_B_examples():
    assert in_B(T(5, 2, 3, 1)) == B_ZERO
    assert in_B(T(13, 3, 8, 1)) == B_MINUS
    assert in_B(T(7, 7, 6, 7)) == B_PLUS
    assert in_B(T(7, 3, 3, 1)) is None


def test_in_U_examples():
    assert in_U(T(13, 12, 12, 1))
    assert not in_U(T(7, 3, 3, 1))  # g = 1, odd
    for p in (3, 5, 7, 13, 31):
        for t in enumerate_B(prime_ctx(p)):
            assert in_U(t), t


def test_g_on_B_is_2e_minus_pm1():
    for p in (2, 3, 5, 7, 13, 31):
        for t in enumerate_B(prime_ctx(p)):
            assert g_exponent(t) == 2 * t.e - (p - 1), t


def test_enumerate_B_members_have_expected_d():
    for t in enumerate_B(prime_ctx(11)):
        tag = in_B(t)
        assert tag is not None
        assert t.d == {B_PLUS: t.r, B_ZERO: t.r - 1, B_MINUS: t.r - 2}[tag]


def test_epsilon_examples():
    assert epsilon(T(5, 2, 3, 1)) == 3
    assert epsilon(T(5, 5, 4, 4)) == 1
    assert epsilon(T(3, 2, 2, 1)) == 1
    with pytest.raises(NotInB):
        epsilon(T(7, 3, 3, 1))


def test_epsilon_sign_relations():
    for p in (5, 7, 13):
        ctx = prime_ctx(p)
        for t in enumerate_B(ctx):
            tag = in_B(t)
            if tag == B_PLUS and in_B(Triple(ctx, t.r, t.e, t.d - 1)) == B_ZERO:
                base = epsilon(Triple(ctx, t.r, t.e, t.d - 1))
                assert epsilon(t) == (-1) ** ((t.r - 1) % 2) * base % p
            if tag == B_MINUS:
                base = epsilon(Triple(ctx, t.r, t.e, t.d + 1))
                assert epsilon(t) == (-1) ** (t.r % 2) * base % p


def test_det_xr1_examples():
    assert det_xr1(T(7, 3, 4, 1)) == 6
    assert det_xr1(T(13, 2, 7, 1)) == 6
    assert det_xr1(T(5, 2, 3, 1)) == 2


def test_det_xr1_matches_direct():
    for p in (5, 7, 13, 31):
        ctx = prime_ctx(p)
        f = monomial_sum(ctx, [(0, -1)])
        for r in range(2, p):
            if (p - 1) % r:
                continue
            f = monomial_sum(ctx, [(r, 1), (0, -1)])
            for e in range(1, p):
                for d in range(1, r + 1):
                    t = Triple(ctx, r, e, d)
                    if in_U(t):
                        assert det_xr1(t) == det(m_matrix(f, e, d)), t


def test_enumerate_C_counts():
    c1_13 = enumerate_C(1, prime_ctx(13))
    assert len(c1_13) == 16
    assert sum(1 for t, _ in c1_13 if in_B(t) is None) == 9
    ctx31 = prime_ctx(31)
    assert sum(1 for t, _ in enumerate_C(2, ctx31) if in_B(t) is None) == 11
    assert sum(1 for t, _ in enumerate_C(3, ctx31) if in_B(t) is None) == 7
    # C3(5) has the single member (4,3,2), which lies in B- and therefore
    # never reaches the candidate list
    c3_5 = enumerate_C(3, prime_ctx(5))
    assert [t.as_tuple() for t, _ in c3_5] == [(4, 3, 2)]
    assert in_B(c3_5[0][0]) == B_MINUS


def test_C_partition_matches_direct_scan():
    # C1..C4 are pairwise disjoint and cover exactly the U-members with
    # r | p-1 whose det M_d((x^r-x)^e) is nonzero
    for p in (5, 7, 11, 13, 17, 19, 23, 29, 31):
        ctx = prime_ctx(p)
        tagged = {}
        for j in (1, 2, 3, 4):
            for t, _ in enumerate_C(j, ctx):
                assert t.as_tuple() not in tagged, (p, j, t)
                tagged[t.as_tuple()] = j
        direct = set()
        for r in range(2, p):
            if (p - 1) % r:
                continue
            f = monomial_sum(ctx, [(r, 1), (1, -1)])
            for e in range(1, p):
                for d in range(1, r + 1):
                    t = Triple(ctx, r, e, d)
                    if in_U(t) and det(m_matrix(f, e, d)) != 0:
                        direct.add(t.as_tuple())
        assert set(tagged) == direct, p


def test_closed_form_xrx_dets_match_direct():
    for p in (5, 7, 13, 31, 37):
        ctx = prime_ctx(p)
        for j in (1, 2, 3, 4):
            for t, cd in enumerate_C(j, ctx):
                if cd is None:
                    continue
                f = monomial_sum(ctx, [(t.r, 1), (1, -1)])
                assert det(m_matrix(f, t.e, t.d)) == cd, (p, j, t)


def test_ranges_the_kernel_skips_lie_in_B():
    # t1_survivors() never visits r = 2 or C4 with d in {r-1, r}
    for p in range(3, 400):
        if not is_prime(p):
            continue
        ctx = prime_ctx(p)
        for j in (1, 2, 3, 4):
            for t, _ in enumerate_C(j, ctx):
                if t.r == 2 or (j == 4 and t.d >= t.r - 1):
                    assert in_B(t) is not None, (j, t)


def test_c2_c3_half_g_closed_forms():
    # the carry of (-rho)^{g/2} in t1_survivors relies on
    # g/2 = l d - m d(d+1)/2 + h: m = s/(r-1) for C2 and m = (s+2)/(r-1)
    # for C3 (s = (p-1)/r) with h = 0, g/2 = l for C1 (d = 1) and
    # 2 g/2 = (r-2)(s+2l) for C4 (d = r-2)
    checked = [0, 0, 0, 0]
    for p in range(3, 2000):
        if not is_prime(p):
            continue
        for r in _divisors(p - 1):
            s = (p - 1) // r
            for j in (1, 2, 3, 4):
                members = [(e, d, l) for e, d, l in _params(j, p, r)
                           if _in_B(p, r, e, d) is None and (j < 4 or _in_U(p, r, e, d))]
                if not members:
                    continue
                if j == 3:
                    assert (s + 2) % (r - 1) == 0, (p, r)
                m = (s if j == 2 else s + 2) // (r - 1)
                for e, d, l in members:
                    if j == 1:
                        want = 2 * l
                    elif j == 4:
                        want = (r - 2) * (s + 2 * l)
                    else:
                        want = 2 * l * d - m * d * (d + 1)
                    assert 2 * half_g(p, r, e, d) == want, (p, j, r, e, d)
                checked[j - 1] += len(members)
    assert min(checked) > 10000


def test_invariants_raise_under_python_O():
    script = textwrap.dedent("""
        import sys
        from discdet.sets import BadExponent, half_g

        if __debug__:
            sys.exit("not running under -O")
        checks = [
            (BadExponent, half_g, (7, 3, 3, 1)),  # g = 1, odd
            (BadExponent, half_g, (7, 4, 5, 1)),  # g = 7/3
        ]
        for exc, fn, args in checks:
            try:
                fn(*args)
            except exc:
                continue
            sys.exit(f"{fn.__name__}{args} did not raise {exc.__name__}")
        print("ok")
    """)
    src_dir = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src_dir))
    res = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert (res.returncode, res.stdout.strip()) == (0, "ok"), res.stderr


def test_degree_balance():
    assert degree_balance(T(11, 4, 10, 3)) == 0
    assert degree_balance(T(11, 5, 7, 3)) != 0
    with pytest.raises(NotInD):
        degree_balance(T(11, 3, 2, 1))
    for p in (7, 11):
        ctx = prime_ctx(p)
        for r in range(2, p + 2):
            for e in range(p):
                for d in range(0, p + 1):
                    t = Triple(ctx, r, e, d)
                    if in_D(t):
                        assert (degree_balance(t) == 0) == (in_B(t) is not None), t


def test_kappa_table_values():
    assert kappa(1, 1) == Fraction(-1, 2)
    assert kappa(2, 1) == Fraction(-1, 6)
    assert kappa(2, 2) == Fraction(4, 9)
    assert kappa(3, 1) == Fraction(-1, 12)
    assert kappa(3, 2) == Fraction(5, 48)
    assert kappa(3, 3) == Fraction(-27, 64)


def test_kappa_survivors():
    out = kappa_survivor_primes(3, 2, 500)
    assert [(p, t.as_tuple()) for p, t in out] == [(7, (2, 5, 1)), (43, (14, 29, 1))]
    out = kappa_survivor_primes(3, 3, 100)
    assert [(p, t.as_tuple()) for p, t in out] == [(7, (2, 6, 1)), (13, (4, 12, 1))]
    out = kappa_survivor_primes(1, 1, 100)
    assert [(p, t.as_tuple()) for p, t in out] == [(3, (2, 2, 1))]


def test_kappa_survivors_actually_survive_t1():
    # every survivor's d=1 candidate passes the x^r - x test
    from discdet.verify3 import verify_prime

    for p, t in kappa_survivor_primes(3, 2, 500) + kappa_survivor_primes(3, 3, 100):
        if in_B(t) is not None:
            continue  # members of B are not pipeline candidates
        rep = verify_prime(prime_ctx(p))
        assert t.as_tuple() in {u.as_tuple() for u, _ in rep.stage_records}, (p, t)


def test_kappa_predicts_every_small_s_c1_survivor():
    # an oracle for the C1 closed forms that takes no binomial: for every odd
    # prime p <= 3000, the d = 1 T1 survivors with s = (p-1)/r <= 20 are
    # exactly the kappa survivors with s <= 20 outside B
    got = set()
    for p in range(3, 3001):
        if not is_prime(p):
            continue
        for r, e, d, _ in t1_survivors(prime_ctx(p))[1]:
            if d == 1 and (p - 1) // r <= 20:
                got.add((p, r, e))
    want = {
        (p, t.r, t.e)
        for s in range(1, 21)
        for l in range(1, s + 1)
        for p, t in kappa_survivor_primes(s, l, 3000)
        if in_B(t) is None
    }
    assert len(want) == 47
    assert got == want


def test_divisors_match_brute_force():
    for n in range(1, 5000):
        assert _divisors(n) == [q for q in range(2, n + 1) if n % q == 0], n
