"""Per-prime candidate pipeline: successive testing against fixed families.

For each prime p the candidate triples are the C_j(p) \\ B(p) members with
closed-form det M_d((x^r-x)^e).  Each candidate's baseline scalar eps0 comes
from the x^r-1 closed forms; a candidate survives stage T1 if the x^r-x
closed-form determinant matches eps0 * Delta(x^r-x)^{g/2}, and survives the
later stages if the same identity holds, computed directly, for every test
polynomial of the stage:

    T2: x^r + x^k + 1      (r > k > 0)
    T3: x^r + x^k + x      (r > k > 1)
    T4: x^r + x + b        (b = 2, 3)
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from .ff import PrimeCtx, is_prime
from .fpmat import det, m_matrix
from .poly import (
    XR_MINUS_1,
    XR_MINUS_X,
    discriminant,
    monomial_sum,
    special_discriminant,
    trinomial_discriminant,
)
# enumerate_C and g_exponent are not called here; perfbench/tracer.py wraps them
# under this module's name.
from .sets import Triple, candidates, det_xr1, enumerate_C, g_exponent, half_g, xr1_det  # noqa: F401

STAGES = 4


@dataclass
class PrimeReport:
    p: int
    c_counts: Tuple[int, int, int, int]
    t_counts: Tuple[int, int, int, int]
    survivors: List[Triple]
    stage_records: List[Tuple[Triple, int]]  # candidates past T1, stage reached

    def csv_row(self) -> str:
        return ",".join(str(v) for v in (self.p, *self.c_counts, *self.t_counts))


@dataclass
class RangeStats:
    prime_count: int
    averages: Tuple[Fraction, Fraction, Fraction, Fraction]
    maxima: Tuple[int, int, int, int]

    def avg_str(self, stage: int) -> str:
        """Stage average rendered to 5 decimals, round half up."""
        q = self.averages[stage - 1] * 10**5
        scaled = (q.numerator * 2 + q.denominator) // (2 * q.denominator)
        return f"{scaled // 10**5}.{scaled % 10**5:05d}"


def _eps0(xr1: int, gh: int, inv_d1: int, p: int) -> int:
    """det M_d((x^r-1)^e) / Delta(x^r-1)^{g/2}, given the det and 1/Delta."""
    return xr1 * pow(inv_d1, gh, p) % p


def baseline_eps0(t: Triple) -> int:
    """det M_d((x^r-1)^e) / Delta(x^r-1)^{g/2}, both by closed form."""
    ctx = t.ctx
    inv_d1 = ctx.inv(special_discriminant(XR_MINUS_1, t.r, ctx))
    return _eps0(det_xr1(t), half_g(ctx.p, t.r, t.e, t.d), inv_d1, ctx.p)


def test_candidate(t: Triple, f, eps0: int, delta: Optional[int] = None) -> bool:
    """True iff det M_d(f^e) = eps0 * Delta(f)^{g/2}."""
    p = t.p
    gh = half_g(p, t.r, t.e, t.d)
    if delta is None:
        delta = discriminant(f)
    lhs = det(m_matrix(f, t.e, t.d))
    return lhs == eps0 * pow(delta, gh, p) % p


def _stage_families(ctx: PrimeCtx, r: int):
    """Test polynomials with precomputed discriminants for stages 2..4."""
    t2 = [
        (monomial_sum(ctx, [(r, 1), (k, 1), (0, 1)]),
         trinomial_discriminant(ctx, r, k, 1, 1))
        for k in range(1, r)
    ]
    # Delta(x(g(x))) = Delta(g) * g(0)^2 with g = x^{r-1}+x^{k-1}+1; g(0)=1.
    t3 = [
        (monomial_sum(ctx, [(r, 1), (k, 1), (1, 1)]),
         trinomial_discriminant(ctx, r - 1, k - 1, 1, 1))
        for k in range(2, r)
    ]
    t4 = [
        (monomial_sum(ctx, [(r, 1), (1, 1), (0, b)]),
         trinomial_discriminant(ctx, r, 1, 1, b))
        for b in (2, 3)
    ]
    return [t2, t3, t4]


def verify_prime(ctx: PrimeCtx) -> PrimeReport:
    p = ctx.p
    if p == 2:
        raise ValueError("p = 2 has no candidates (r | p-1 is impossible)")
    c_counts = [0, 0, 0, 0]
    t_counts = [0, 0, 0, 0]
    stage_records = []
    survivors = []
    disc_r = None
    for j, r, e, d, gh, closed_det in candidates(ctx):
        c_counts[j - 1] += 1
        if r != disc_r:
            disc_r = r
            inv_d1 = ctx.inv(special_discriminant(XR_MINUS_1, r, ctx))
            d_xrx = special_discriminant(XR_MINUS_X, r, ctx)
            families = None  # built at this r's first T1 survivor
        eps0 = _eps0(xr1_det(ctx, r, e, d, gh), gh, inv_d1, p)
        if closed_det != eps0 * pow(d_xrx, gh, p) % p:
            continue
        t = Triple(ctx, r, e, d)
        t_counts[0] += 1
        stage = 1
        if families is None:
            families = _stage_families(ctx, r)
        for family in families:
            if all(test_candidate(t, f, eps0, delta) for f, delta in family):
                stage += 1
            else:
                break
        for s in range(1, stage):
            t_counts[s] += 1
        stage_records.append((t, stage))
        if stage == STAGES:
            survivors.append(t)
    return PrimeReport(p, tuple(c_counts), tuple(t_counts), survivors, stage_records)


def _verify_one(p: int) -> PrimeReport:
    # Each prime is visited once, so its tables stay out of the shared cache.
    return verify_prime(PrimeCtx(p))


def verify_range(p_min: int, p_max: int, workers: int = 1):
    """Reports for every odd prime in [p_min, p_max], ascending, plus stats.

    Runs in min(workers, number of primes) processes.
    """
    if p_min > p_max:
        raise ValueError("need p_min <= p_max")
    if workers < 1:
        raise ValueError("need workers >= 1")
    primes = [p for p in range(max(p_min, 3), p_max + 1) if is_prime(p)]
    workers = min(workers, len(primes))
    if workers > 1:
        # Imported here so that serial callers do not pay for importing multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(_verify_one, primes, chunksize=8))
    else:
        reports = [_verify_one(p) for p in primes]
    n = len(reports)
    sums = [0] * STAGES
    maxima = [0] * STAGES
    for rep in reports:
        for s in range(STAGES):
            sums[s] += rep.t_counts[s]
            maxima[s] = max(maxima[s], rep.t_counts[s])
    averages = tuple(Fraction(sums[s], n) if n else Fraction(0) for s in range(STAGES))
    return reports, RangeStats(n, averages, tuple(maxima))
