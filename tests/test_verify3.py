import csv
import hashlib
import random
from collections import Counter
from pathlib import Path

import pytest

from discdet.ff import is_prime, prime_ctx
from discdet.fpmat import det, m_matrix
from discdet.poly import FpPoly, XR_MINUS_1, XR_MINUS_X, discriminant, monomial_sum, special_discriminant
from discdet.sets import Triple, enumerate_B, enumerate_C, epsilon, g_exponent, in_B, t1_survivors
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
                assert det_identity_holds(t, f, epsilon(t), discriminant(f)), (t, f.coeffs)


def test_candidate_fails_on_zero_discriminant_with_nonzero_det():
    # f = x(x-1)^2 over F_7 at (r,e,d) = (3,6,1): Delta = 0 makes the right
    # side vanish while det M is nonzero
    ctx = prime_ctx(7)
    t = Triple(ctx, 3, 6, 1)
    f = FpPoly(ctx, [0, 1, 5, 1])
    assert discriminant(f) == 0
    assert det(m_matrix(f, t.e, t.d)) != 0
    assert not det_identity_holds(t, f, baseline_eps0(t), discriminant(f))


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


def test_verify_range_starts_at_most_one_worker_per_prime(monkeypatch):
    import concurrent.futures

    started = []

    class SerialPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    reports, stats = verify_range(3, 20, workers=16)
    assert started == [7]
    assert [r.p for r in reports] == [3, 5, 7, 11, 13, 17, 19]
    assert stats == verify_range(3, 20)[1]
    with pytest.raises(ValueError):
        verify_range(3, 20, workers=-1)


def test_avg_str_rounding():
    stats = RangeStats(1, (Fraction(1, 3), Fraction(1, 2) / 10**5,
                           Fraction(0), Fraction(419536, 10**5)), (0, 0, 0, 0))
    assert stats.avg_str(1) == "0.33333"
    assert stats.avg_str(2) == "0.00001"  # half rounds up
    assert stats.avg_str(3) == "0.00000"
    assert stats.avg_str(4) == "4.19536"


def _reference_t1(ctx):
    """T1 by the reference enumerate_C + in_B + baseline_eps0: the per-class
    counts, the sorted (r, e, d, eps0) of the survivors and every member
    outside B."""
    p = ctx.p
    closed, members = [], []
    counts = [0, 0, 0, 0]
    for j in (1, 2, 3, 4):
        for t, cd in enumerate_C(j, ctx):
            if in_B(t) is not None:
                continue
            counts[j - 1] += 1
            members.append(t)
            gh = g_exponent(t).numerator // 2
            eps0 = baseline_eps0(t)
            if cd == eps0 * pow(special_discriminant(XR_MINUS_X, t.r, ctx), gh, p) % p:
                closed.append((*t.as_tuple(), eps0))
    return tuple(counts), sorted(closed), members


def test_stage1_closed_form_matches_direct_det():
    # the integer kernel's per-class counts, T1 survivors and their eps0
    # agree with the reference, and for the smaller primes the T1 decisions
    # agree with evaluating det M_d((x^r-x)^e) directly
    for p in range(3, 300):
        if not is_prime(p):
            continue
        ctx = prime_ctx(p)
        rep = verify_prime(ctx)
        passed_t1 = {t.as_tuple() for t, _ in rep.stage_records}
        counts, closed, members = _reference_t1(ctx)
        assert t1_survivors(ctx) == (counts, closed), p
        assert rep.c_counts == counts, p
        assert passed_t1 == {row[:3] for row in closed}, p
        if p in (5, 7, 13, 31, 61):
            d_xrx = {t.r: special_discriminant(XR_MINUS_X, t.r, ctx) for t in members}
            direct = {
                t.as_tuple() for t in members
                if det_identity_holds(t, monomial_sum(ctx, [(t.r, 1), (1, -1)]),
                                      baseline_eps0(t), d_xrx[t.r])
            }
            assert passed_t1 == direct, p


# (class index, fewest members outside B) per prime
_AT_SCALE = {1801: (1, 3000), 2161: (1, 3000), 6301: (1, 3000), 7561: (1, 3000),
             10099: (2, 15000), 11969: (2, 15000)}


@pytest.mark.parametrize("p", list(_AT_SCALE))
def test_stage1_closed_form_matches_reference_at_c2_scale(p):
    # 1801-7561: p-1 with many divisors r where (r-1) | (p-1)/r, 3.5k-30k C2
    # members outside B, so the C2 walk's running products reach d = r at
    # large r; 10099 and 11969: p+1 with many divisors r-1, 17k and 27k C3
    # members outside B, so the C3 walk reaches d = r-1 at large r
    ctx = prime_ctx(p)
    counts, closed, _ = _reference_t1(ctx)
    j, least = _AT_SCALE[p]
    assert counts[j] > least
    assert t1_survivors(ctx) == (counts, closed)


@pytest.mark.parametrize("p", [6301, 20161])
def test_t1_decisions_match_direct_dets_at_scale(p):
    # criterion 10 beyond p <= 101: every T1 survivor with d <= 3 and a
    # seeded sample of C1/C2 members outside B with d <= 3 are decided again
    # with both determinants taken directly, as
    # det M_d((x^r-x)^e) * D1^{g/2} == det M_d((x^r-1)^e) * Dx^{g/2},
    # where D1 = Delta(x^r-1) and Dx = Delta(x^r-x)
    ctx = prime_ctx(p)
    survived = {(r, e, d) for r, e, d, _ in t1_survivors(ctx)[1]}
    members = sorted(
        t.as_tuple()
        for j in (1, 2)
        for t, _ in enumerate_C(j, ctx)
        if t.d <= 3 and in_B(t) is None
    )
    picked = {m for m in survived if m[2] <= 3}
    picked |= set(random.Random(p).sample(members, 20))
    for r, e, d in sorted(picked):
        gh = g_exponent(Triple(ctx, r, e, d)).numerator // 2
        xrx = det(m_matrix(monomial_sum(ctx, [(r, 1), (1, -1)]), e, d))
        xr1 = det(m_matrix(monomial_sum(ctx, [(r, 1), (0, -1)]), e, d))
        d1 = special_discriminant(XR_MINUS_1, r, ctx)
        dx = special_discriminant(XR_MINUS_X, r, ctx)
        holds = xrx * pow(d1, gh, p) % p == xr1 * pow(dx, gh, p) % p
        assert holds == ((r, e, d) in survived), (p, r, e, d)


def test_t1_takes_discriminants_only_at_r_with_candidates(monkeypatch):
    # p = 199523 is a safe prime: every member at r = 2 lies in B, so r = 2
    # costs no discriminant, and each other r takes Delta(x^r-1) and
    # Delta(x^r-x) once.  C4 is set up (its offsets and its sign, a bracket)
    # only at a member outside B: 199523 has none, nor have 61 and 113, whose
    # C4 is walked at r = 3..6 and r = 4, 7, 8.
    import discdet.sets as sets_mod

    calls = []

    def counted(kind, r, ctx):
        calls.append((kind, r))
        return special_discriminant(kind, r, ctx)

    def forbidden(*args):
        raise AssertionError("C4 set up without a member outside B")

    ctx = prime_ctx(199523)
    members = [(j, t.r) for j in (1, 2, 3, 4) for t, _ in enumerate_C(j, ctx) if in_B(t) is None]
    with_members = {r for _, r in members}
    assert with_members and 2 not in with_members
    assert all(j < 4 for j, _ in members)
    monkeypatch.setattr(sets_mod, "special_discriminant", counted)
    monkeypatch.setattr(sets_mod, "bracket", forbidden)
    t1_survivors(ctx)
    assert Counter(calls) == {(kind, r): 1 for kind in (XR_MINUS_1, XR_MINUS_X) for r in with_members}
    for q in (61, 113):
        assert t1_survivors(prime_ctx(q))[0][3] == 0


def test_t1_takes_no_per_member_closed_form(monkeypatch):
    # the T1 pass reads the factorial tables itself: the reference closed
    # forms and ff.binom are never called
    import discdet.sets as sets_mod

    ctx = prime_ctx(1801)
    want = t1_survivors(ctx)

    def forbidden(*args):
        raise AssertionError("per-member closed form called")

    for name in ("det_xr1", "_xrx_det", "binom"):
        monkeypatch.setattr(sets_mod, name, forbidden)
    assert t1_survivors(ctx) == want
    assert want[0][1] > 0 and all(want[0])


def test_t1_takes_no_pow_per_c2_or_c3_member(monkeypatch):
    # every class carries (-rho)^{g/2} along its walk: pow is taken once per
    # survivor, plus at most four times per class and r
    import discdet.sets as sets_mod

    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return pow(*args)

    p = 10099
    ctx = prime_ctx(p)
    want = t1_survivors(ctx)
    monkeypatch.setattr(sets_mod, "pow", counted, raising=False)
    counts, survivors = t1_survivors(ctx)
    assert (counts, survivors) == want
    assert counts[1] > 5000 and counts[2] > 15000
    tau = sum(1 for i in range(1, p) if (p - 1) % i == 0)
    assert calls <= counts[0] + counts[3] + len(survivors) + 4 * tau
    assert calls <= len(survivors) + 16 * tau


def test_t1_survivors_pinned_at_scale():
    # 55441 (p-1 = 2^4 3^2 5 7 11) and 84389 (p+1 = 2 3 5 29 97) are past the
    # reach of the reference in tier-1 time: per-class counts literally,
    # survivors by the sha256 of their repr, both recorded from an earlier,
    # separately written version of the kernel
    pinned = {
        55441: ((148967, 342557, 24802, 2196),
                "4ab372a781e750bdb4191047921fcf7a508fc31f91d166aecddb4a7777bf0128"),
        84389: ((32444, 0, 97580, 840),
                "a4e5a868f397f90eb9626cdf7d83d42eb4f27b57c59e2465e337cf607206504b"),
    }
    for p, (counts, digest) in pinned.items():
        got_counts, survivors = t1_survivors(prime_ctx(p))
        assert got_counts == counts, p
        assert hashlib.sha256(repr(survivors).encode()).hexdigest() == digest, p


def test_verify_prime_builds_one_polynomial_per_test(monkeypatch):
    # each T2-T4 test polynomial is built when a test draws it, so a survivor
    # that stops at its first test costs one polynomial, not its degree's 2r
    import discdet.verify3 as verify3_mod

    built, tested = [], []
    real_sum, real_test = verify3_mod.monomial_sum, verify3_mod.test_candidate

    def counting_sum(*args):
        built.append(args)
        return real_sum(*args)

    def counting_test(*args):
        tested.append(args)
        return real_test(*args)

    monkeypatch.setattr(verify3_mod, "monomial_sum", counting_sum)
    monkeypatch.setattr(verify3_mod, "test_candidate", counting_test)
    verify_prime(prime_ctx(7561))
    assert len(built) == len(tested) > 0


@pytest.mark.parametrize("p", [7561, 15121, 20161, 30241, 55441])
def test_stage_records_match_direct_records(p):
    # the stages reached past T1, as recorded for the benchmark's direct_stages
    path = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "direct_records.csv"
    with open(path) as fh:
        want = sorted(tuple(int(v) for v in row) for row in list(csv.reader(fh))[1:] if int(row[0]) == p)
    got = sorted((p, t.r, t.e, t.d, stage) for t, stage in verify_prime(prime_ctx(p)).stage_records)
    assert want and got == want
