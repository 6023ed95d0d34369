import random

import pytest

from discdet.ff import is_prime, prime_ctx
from discdet.fpmat import det, m_matrix
from discdet.poly import FpPoly, XR_MINUS_X, discriminant, monomial_sum, special_discriminant
from discdet.sets import Triple, candidates, enumerate_B, enumerate_C, epsilon, g_exponent, in_B
from discdet.verify3 import RangeStats, baseline_eps0, verify_prime, verify_range
from discdet.verify3 import test_candidate as det_identity_holds
from fractions import Fraction


def test_b_members_pass_for_any_squarefree_f():
    # on B(p) the determinant identity holds for every f with Delta != 0,
    # and the baseline scalar agrees with the closed-form unit
    rng = random.Random(0)
    for p in (5, 7, 13):
        ctx = prime_ctx(p)
        for t in enumerate_B(ctx):
            if t.r < 2 or t.r > 6 or (p - 1) % t.r:
                continue
            assert baseline_eps0(t) == epsilon(t), t
            done = 0
            while done < 3:
                f = FpPoly(
                    ctx, [rng.randrange(p) for _ in range(t.r)] + [1]
                )
                if discriminant(f) == 0:
                    continue
                done += 1
                assert det_identity_holds(t, f, epsilon(t)), (t, f.coeffs)


def test_candidate_fails_on_zero_discriminant_with_nonzero_det():
    # f = x(x-1)^2 over F_7 at (r,e,d) = (3,6,1): Delta = 0 makes the right
    # side vanish while det M is nonzero
    ctx = prime_ctx(7)
    t = Triple(ctx, 3, 6, 1)
    f = FpPoly(ctx, [0, 1, 5, 1])
    assert discriminant(f) == 0
    assert det(m_matrix(f, t.e, t.d)) != 0
    assert not det_identity_holds(t, f, baseline_eps0(t))


def test_verify_prime_pinned_rows():
    assert verify_prime(prime_ctx(3)).csv_row() == "3,0,0,0,0,0,0,0,0"
    assert verify_prime(prime_ctx(13)).csv_row() == "13,9,2,0,0,1,0,0,0"
    assert verify_prime(prime_ctx(31)).csv_row() == "31,26,11,7,0,10,0,0,0"


def test_verify_prime_rejects_p2():
    with pytest.raises(ValueError):
        verify_prime(prime_ctx(2))


def test_t_counts_monotone_and_bounded():
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 193):
        rep = verify_prime(prime_ctx(p))
        assert rep.t_counts[0] <= sum(rep.c_counts)
        for s in range(3):
            assert rep.t_counts[s] >= rep.t_counts[s + 1], p
        assert len(rep.survivors) == rep.t_counts[3]
        for t, stage in rep.stage_records:
            assert 1 <= stage <= 4
            assert in_B(t) is None


def test_first_t2_survivor_is_193():
    rep = verify_prime(prime_ctx(193))
    assert rep.c_counts == (219, 32, 0, 20)
    assert rep.t_counts == (4, 1, 0, 0)
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 191):
        assert verify_prime(prime_ctx(p)).t_counts[1] == 0, p


def test_verify_range_stats_and_order():
    reports, stats = verify_range(3, 50)
    assert [r.p for r in reports] == [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]
    assert stats.prime_count == 14
    assert stats.averages[0] == Fraction(
        sum(r.t_counts[0] for r in reports), 14
    )
    assert stats.maxima[1] == 0


def test_verify_range_leaves_ctx_cache_alone():
    # a range visits each prime once, so its contexts are built uncached
    prime_ctx.cache_clear()
    verify_range(3, 50)
    info = prime_ctx.cache_info()
    assert (info.currsize, info.hits, info.misses) == (0, 0, 0)


def test_verify_range_worker_determinism():
    serial, s_stats = verify_range(3, 100, workers=1)
    parallel, p_stats = verify_range(3, 100, workers=2)
    assert [r.csv_row() for r in serial] == [r.csv_row() for r in parallel]
    assert s_stats == p_stats


def test_avg_str_rounding():
    stats = RangeStats(1, (Fraction(1, 3), Fraction(1, 2) / 10**5,
                           Fraction(0), Fraction(419536, 10**5)), (0, 0, 0, 0))
    assert stats.avg_str(1) == "0.33333"
    assert stats.avg_str(2) == "0.00001"  # half rounds up
    assert stats.avg_str(3) == "0.00000"
    assert stats.avg_str(4) == "4.19536"


def test_stage1_closed_form_matches_direct_det():
    # the integer kernel's candidates, per-class counts and T1 decisions
    # agree with the reference enumerate_C + in_B + baseline_eps0, and for
    # the smaller primes the T1 decisions agree with evaluating
    # det M_d((x^r-x)^e) directly
    for p in range(3, 300):
        if not is_prime(p):
            continue
        ctx = prime_ctx(p)
        rep = verify_prime(ctx)
        passed_t1 = {t.as_tuple() for t, _ in rep.stage_records}
        rows, closed, direct = [], set(), set()
        counts = [0, 0, 0, 0]
        for j in (1, 2, 3, 4):
            for t, cd in enumerate_C(j, ctx):
                if in_B(t) is not None:
                    continue
                counts[j - 1] += 1
                gh = g_exponent(t).numerator // 2
                rows.append((j, *t.as_tuple(), gh, cd))
                d_xrx = special_discriminant(XR_MINUS_X, t.r, ctx)
                if cd == baseline_eps0(t) * pow(d_xrx, gh, p) % p:
                    closed.add(t.as_tuple())
                if p in (5, 7, 13, 31, 61):
                    f = monomial_sum(ctx, [(t.r, 1), (1, -1)])
                    if det_identity_holds(t, f, baseline_eps0(t), d_xrx):
                        direct.add(t.as_tuple())
        assert list(candidates(ctx)) == sorted(rows, key=lambda row: row[1:4]), p
        assert rep.c_counts == tuple(counts), p
        assert passed_t1 == closed, p
        if p in (5, 7, 13, 31, 61):
            assert passed_t1 == direct, p
