"""Per-prime candidate pipeline: successive testing against fixed families.

For each prime p the candidate triples are the C_j(p) \\ B(p) members with
closed-form det M_d((x^r-x)^e).  Each candidate's baseline scalar eps0 comes
from the x^r-1 closed forms; a candidate survives stage T1 (sets.t1_survivors)
if the x^r-x closed-form determinant matches eps0 * Delta(x^r-x)^{g/2}, and
survives the later stages if the same identity holds, computed directly, for
every test polynomial of the stage:

    T2: x^r + x^k + 1      (r > k > 0)
    T3: x^r + x^k + x      (r > k > 1)
    T4: x^r + x + b        (b = 2, 3)
"""

from fractions import Fraction
from itertools import groupby
from operator import itemgetter
from typing import List, NamedTuple, Tuple

from .ff import PrimeCtx, is_prime
# enumerate_C, g_exponent, det and m_matrix are not called here;
# perfbench/tracer.py wraps them under this module's name.
from .fpmat import det, m_dets, m_matrix  # noqa: F401
from .poly import (
    XR_MINUS_1,
    monomial_sum,
    special_discriminant,
    trinomial_discriminant,
)
from .sets import Triple, det_xr1, enumerate_C, g_exponent, half_g, t1_survivors  # noqa: F401

STAGES = 4
_T_COUNTS = {}  # each distinct t_counts tuple, shared by the reports that have it


class Candidate(NamedTuple):
    """A T1 survivor's (r, e, d), without its prime's tables."""
    r: int
    e: int
    d: int


class PrimeReport(NamedTuple):
    p: int
    c_counts: Tuple[int, int, int, int]
    t_counts: Tuple[int, int, int, int]
    stage_records: List[Tuple[Candidate, int]]  # candidates past T1, stage reached

    @property
    def survivors(self) -> List[Candidate]:
        """The candidates that passed every stage."""
        return [t for t, stage in self.stage_records if stage == STAGES]

    def csv_row(self) -> str:
        return ",".join(str(v) for v in (self.p, *self.c_counts, *self.t_counts))


class RangeStats(NamedTuple):
    prime_count: int
    averages: Tuple[Fraction, Fraction, Fraction, Fraction]
    maxima: Tuple[int, int, int, int]

    def avg_str(self, stage: int) -> str:
        """Stage average rendered to 5 decimals, round half up."""
        q = self.averages[stage - 1] * 10**5
        scaled = (q.numerator * 2 + q.denominator) // (2 * q.denominator)
        return f"{scaled // 10**5}.{scaled % 10**5:05d}"


def baseline_eps0(t: Triple) -> int:
    """det M_d((x^r-1)^e) / Delta(x^r-1)^{g/2}, both by closed form."""
    ctx = t.ctx
    inv_d1 = pow(special_discriminant(XR_MINUS_1, t.r, ctx), -1, ctx.p)
    return det_xr1(t) * pow(inv_d1, half_g(ctx.p, t.r, t.e, t.d), ctx.p) % ctx.p


def _passes(p: int, r: int, e: int, f, delta: int, members) -> List[bool]:
    """For each (d, eps0) of members: det M_d(f^e) = eps0 * delta^{g/2}."""
    dets = m_dets(f, e, [d for d, _ in members])
    return [lhs == eps0 * pow(delta, half_g(p, r, e, d), p) % p
            for lhs, (d, eps0) in zip(dets, members)]


def test_candidate(t: Triple, f, eps0: int, delta: int) -> bool:
    """True iff det M_d(f^e) = eps0 * delta^{g/2}, with delta = Delta(f)."""
    return _passes(t.p, t.r, t.e, f, delta, [(t.d, eps0)])[0]


def _stage_families(ctx: PrimeCtx, r: int):
    """Stage 2..4 test polynomials with their discriminants, each built when drawn."""
    t2 = (
        (monomial_sum(ctx, [(r, 1), (k, 1), (0, 1)]),
         trinomial_discriminant(ctx, r, k, 1, 1))
        for k in range(1, r)
    )
    # Delta(x(g(x))) = Delta(g) * g(0)^2 with g = x^{r-1}+x^{k-1}+1; g(0)=1.
    t3 = (
        (monomial_sum(ctx, [(r, 1), (k, 1), (1, 1)]),
         trinomial_discriminant(ctx, r - 1, k - 1, 1, 1))
        for k in range(2, r)
    )
    t4 = (
        (monomial_sum(ctx, [(r, 1), (1, 1), (0, b)]),
         trinomial_discriminant(ctx, r, 1, 1, b))
        for b in (2, 3)
    )
    return [t2, t3, t4]


def _group_stages(ctx: PrimeCtx, r: int, e: int, members) -> List[int]:
    """The stage each (d, eps0) of one (r, e) group reaches.

    The members still alive share each test: one window of f^e, sized to
    their largest d, and one elimination.  A member leaves at its first
    failing test.
    """
    stages = [1] * len(members)
    alive = list(range(len(members)))
    for family in _stage_families(ctx, r):
        for f, delta in family:
            held = _passes(ctx.p, r, e, f, delta, [members[i] for i in alive])
            alive = [i for i, ok in zip(alive, held) if ok]
            if not alive:
                return stages
        for i in alive:
            stages[i] += 1
    return stages


def verify_prime(ctx: PrimeCtx) -> PrimeReport:
    p = ctx.p
    if p == 2:
        raise ValueError("p = 2 has no candidates (r | p-1 is impossible)")
    c_counts, passed_t1 = t1_survivors(ctx)
    stage_records = []
    # passed_t1 ascends by (r, e, d), so each (r, e) group is one run of it
    for (r, e), group in groupby(passed_t1, key=itemgetter(0, 1)):
        members = [(d, eps0) for _, _, d, eps0 in group]
        stages = _group_stages(ctx, r, e, members)
        stage_records += [(Candidate(r, e, d), stage) for (d, _), stage in zip(members, stages)]
    # t_counts[i] counts the candidates that passed stage T(i+1).  Few
    # distinct t_counts occur (13 at p < 2000), so the reports share them.
    t_counts = tuple(sum(stage > i for _, stage in stage_records) for i in range(STAGES))
    t_counts = _T_COUNTS.setdefault(t_counts, t_counts)
    return PrimeReport(p, c_counts, t_counts, stage_records)


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
