"""Classification of exponent triples (r, e, d) and their closed-form data.

A triple determines the matrix M_d(f^e) for degree-r polynomials f over F_p.
This module supplies the exponent g, membership predicates for the B and U
families, the epsilon scalar on B, closed-form determinants for the
specialized polynomials x^r - 1 and x^r - x, the candidate classes C1-C4
(``enumerate_C``) and their stage T1 test (``t1_survivors``, the integer
kernel that verify3 runs, tested against ``enumerate_C``), and the kappa
invariant that controls which d = 1 candidates survive the x^r - x test.

``t1_survivors`` compares the ratio of the two closed forms' binomial
products, with their common fact[e]^d cancelled, against a sign times
(-rho)^{g/2}.  It walks C2 and C3 as r -> l -> d, where g/2 is quadratic in
d, so (-rho)^{g/2} is carried along d with no pow per member; C1 and C4 keep
one pow per member.  C2 carries its whole ratio along d; C3, whose e moves
with d, carries the half that does not depend on e.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .ff import PrimeCtx, binom, bracket, is_prime, prime_ctx
from .poly import XR_MINUS_1, XR_MINUS_X, special_discriminant

B_PLUS = "B+"
B_ZERO = "B0"
B_MINUS = "B-"


class NotInB(ValueError):
    pass


class NotInD(ValueError):
    pass


class BadExponent(ArithmeticError):
    """g is not a positive even integer where a closed form needs g/2."""


@dataclass(frozen=True)
class Triple:
    ctx: PrimeCtx
    r: int
    e: int
    d: int

    @property
    def p(self) -> int:
        return self.ctx.p

    def as_tuple(self):
        return (self.r, self.e, self.d)

    def __repr__(self):
        return f"Triple(p={self.p}, r={self.r}, e={self.e}, d={self.d})"


def _g_num(p: int, r: int, e: int, d: int) -> int:
    """r(r-1) * g, an integer."""
    return 2 * r * e * d - d * (d + 1) * (p - 1)


def g_exponent(t: Triple) -> Fraction:
    """The degree-balancing exponent (red - d(d+1)(p-1)/2) / (r(r-1)/2)."""
    return Fraction(_g_num(t.p, t.r, t.e, t.d), t.r * (t.r - 1))


def half_g(p: int, r: int, e: int, d: int) -> int:
    """g/2 as an int; raises BadExponent unless g is a positive even integer."""
    num = _g_num(p, r, e, d)
    if num <= 0 or num % (2 * r * (r - 1)):
        raise BadExponent(f"g is not a positive even integer at p={p}, (r,e,d)=({r},{e},{d})")
    return num // (2 * r * (r - 1))


def _in_B(p: int, r: int, e: int, d: int):
    if 2 <= r <= p and e == p - 1 and d == r:
        return B_PLUS
    if 2 <= r <= p + 1 and 2 * e > p - 1 and e <= p - 1 and r * (p - 1 - e) <= p - 1 and d == r - 1:
        return B_ZERO
    if r >= 2 and 2 * e > p - 1 and e <= p - 1 and r * (p - 1 - e) == p - 1 and d == r - 2:
        return B_MINUS
    return None


def in_B(t: Triple):
    """B+/B0/B- tag, or None."""
    return _in_B(t.p, t.r, t.e, t.d)


def _in_U(p: int, r: int, e: int, d: int) -> bool:
    if r < 2 or e < 1 or not 1 <= d <= p:
        return False
    if not d * (p - 1) <= r * e <= r * (p - 1):
        return False
    num = _g_num(p, r, e, d)
    # g = num / (r(r-1)) must be a positive integer, and even unless p = 2.
    return num > 0 and num % (r * (r - 1) * (1 if p == 2 else 2)) == 0


def in_U(t: Triple) -> bool:
    return _in_U(t.p, t.r, t.e, t.d)


def in_D(t: Triple) -> bool:
    p, r, e, d = t.p, t.r, t.e, t.d
    return 2 * e > p - 1 and e <= p - 1 and d * (p - 1) <= r * e <= (d + 1) * (p - 1)


def degree_balance(t: Triple) -> Fraction:
    """(p-1)(r-d-1)((r-d)/2 - (re/(p-1) - d)); zero exactly on B."""
    if not in_D(t):
        raise NotInD(f"{t} is not in the D window")
    p, r, e, d = t.p, t.r, t.e, t.d
    return (
        (p - 1)
        * (r - d - 1)
        * (Fraction(r - d, 2) - (Fraction(r * e, p - 1) - d))
    )


def epsilon(t: Triple) -> int:
    """The scalar in det M_d(f^e) = eps * delta^g on B, mod p."""
    tag = in_B(t)
    if tag is None:
        raise NotInB(f"{t} is not in B")
    ctx, p, r, e = t.ctx, t.p, t.r, t.e
    if tag == B_PLUS:
        base = epsilon(Triple(ctx, r, e, t.d - 1))
        return (-base if (r - 1) % 2 else base) % p
    if tag == B_MINUS:
        base = epsilon(Triple(ctx, r, e, t.d + 1))
        return (-base if r % 2 else base) % p
    # B0 closed forms: p | r forces r = p (and e = p-1, d = p-1).
    if r % p == 0:
        return 1 if p % 4 in (1, 2) else p - 1
    sign = (r + 1) * (r + 2) // 2 + r * (r + 1) // 2 * e
    out = ctx.fact[r * (p - 1 - e)] * pow(ctx.fact[e], r, p) % p
    return (-out if sign % 2 else out) % p


def enumerate_B(ctx: PrimeCtx):
    """All of B(p), ascending (r, e, d)."""
    p = ctx.p
    out = []
    for r in range(2, p + 2):
        for e in range((p - 1) // 2 + 1, p):
            if r * (p - 1 - e) <= p - 1:
                out.append(Triple(ctx, r, e, r - 1))
            if r * (p - 1 - e) == p - 1 and r - 2 >= 1:
                out.append(Triple(ctx, r, e, r - 2))
        if r <= p:
            out.append(Triple(ctx, r, p - 1, r))
    return sorted(out, key=Triple.as_tuple)


def det_xr1(t: Triple) -> int:
    """Closed-form det M_d((x^r-1)^e) for t in U with r | p-1:
    (-1)^{d(d-1)/2 + (r-1)g/2} prod_{i=1..d} C(e, i(p-1)/r)."""
    ctx, p, r, e, d = t.ctx, t.p, t.r, t.e, t.d
    if (p - 1) % r or not in_U(t):
        raise ValueError(f"{t} needs r | p-1 and membership in U")
    s = (p - 1) // r
    out = -1 if (d * (d - 1) // 2 + (r - 1) * half_g(p, r, e, d)) % 2 else 1
    for i in range(1, d + 1):
        out = out * binom(ctx, e, i * s) % p
    return out % p


def _xrx_det(ctx: PrimeCtx, j: int, r: int, e: int, d: int, l: int, gh: int) -> int:
    """Closed-form det M_d((x^r-x)^e) of the C_j member with parameter l.

    Every class's form is a sign times prod_{i=1..d} C(e, k_i); the signs
    share the factor (-1)^{r g/2}.
    """
    p = ctx.p
    s = (p - 1) // r
    if j == 1:
        ks, sign = (s - l,), 1
    elif j == 2:
        ks = [(p - 1) // (r - 1) * i - l for i in range(1, d + 1)]
        sign = -1 if d * (d - 1) // 2 % 2 else 1
    elif j == 3:
        ks, sign = [(p + 1) // (r - 1) * i - l for i in range(1, d + 1)], 1
    else:
        ks = [-((i * p - d) // -(r - 1)) - s - l for i in range(1, d + 1)]
        sign = bracket(-p, r - 1)
    out = -sign if r * gh % 2 else sign
    for k in ks:
        out = out * binom(ctx, e, k) % p
    return out % p


def _params(j: int, p: int, r: int):
    """(e, d, l) for each member of the C_j parametrisation at r | p-1.

    For j = 4 these are the d = r-2 members only, and a member counts only
    if it lies in U and in none of C1-C3.  Every e is < p.
    """
    s = (p - 1) // r
    if j == 1:
        for l in range(1, s + 1):
            yield s + (r - 1) * l, 1, l
    elif j == 2:
        if s % (r - 1):
            return
        tt = s // (r - 1)
        for d in range(2, r + 1):
            for l in range(d * tt, r * tt + 1):
                yield (r - 1) * l, d, l
    elif j == 3:
        if r < 3 or (p + 1) % (r - 1):
            return
        tt = (p + 1) // (r - 1)
        for d in range(2, r):
            for l in range(d * (tt - s), tt + 1):
                yield (r - 1) * l - (d + 1), d, l
    elif r >= 3:
        for l in range(-(s // (r - 1)) + (r == 3), s // (r - 1) + 1):
            yield (r - 1) * (s + l), r - 2, l


def _divisors(n: int):
    """Divisors of n that are at least 2, ascending."""
    small = [i for i in range(2, isqrt(n) + 1) if n % i == 0]
    return sorted({*small, *(n // i for i in small), n} - {1})


def enumerate_C(j: int, ctx: PrimeCtx):
    """Members of C_j(p) with closed-form det M_d((x^r-x)^e).

    Returns (Triple, det) pairs in ascending (r, e, d) order.  For the C4
    members with d in {r-1, r} (all of which lie in B) no closed form is
    stated, and det is None.  This is the reference that ``t1_survivors`` is
    tested against.
    """
    if j not in (1, 2, 3, 4):
        raise ValueError("j must be 1..4")
    p = ctx.p
    out = []
    for r in _divisors(p - 1):
        taken = {(e, d) for jj in (1, 2, 3) for e, d, _ in _params(jj, p, r)} if j == 4 else ()
        for e, d, l in _params(j, p, r):
            if j == 4 and ((e, d) in taken or not _in_U(p, r, e, d)):
                continue
            det = _xrx_det(ctx, j, r, e, d, l, half_g(p, r, e, d))
            out.append((Triple(ctx, r, e, d), det))
        if j == 4 and r >= 3:
            for d in (r - 1, r):
                for e in range(max(-(-d * (p - 1) // r), 1), p):
                    if (e, d) not in taken and _in_U(p, r, e, d):
                        out.append((Triple(ctx, r, e, d), None))
    return sorted(out, key=lambda pair: pair[0].as_tuple())


def _bare_products(ctx: PrimeCtx, r: int, neg_rho: int):
    """(j, e, d, gh, lhs, rhs) for every member of C1-C4 outside B at r | p-1, r >= 3.

    gh = g/2, and the member passes T1 iff lhs == rhs, the ratio form of the
    identity in ``t1_survivors``: lhs = prod_{i=1..d} C(e, k_i) / C(e, i(p-1)/r)
    over the binomials of the C_j closed form for x^r-x (as in ``_xrx_det``)
    and of x^r-1, and rhs = sign_j (-rho)^{g/2} with neg_rho = -rho.  The
    common fact[e]^d cancels (e < p), so each quotient is read from the
    factorial tables as inv_fact[k] inv_fact[e-k] fact[is] fact[e-is], with no
    range check: the parameter ranges of ``_params`` give 0 <= k <= e < p.

    C2 and C3 are walked as l -> d, and both have g/2 = l d - m d(d+1)/2
    (m = (p-1)/(r(r-1)) for C2, ((p-1)/r + 2)/(r-1) for C3), so (-rho)^{g/2}
    is carried along d by two running factors, (-rho)^{l-md} and (-rho)^{-m},
    the first started from its value at the previous l: two pows per r and
    class, none per member.  C2 (e = (r-1)l) carries lhs itself along d.  C3
    (e = (r-1)l - d - 1) carries only its e-free half prod 1/k_i!
    (k_i = (p+1)/(r-1) i - l) and takes the rest in d steps per member.  C4 is
    small and takes one pow per member.  So does C1, whose g/2 = l could be
    carried as well; it is left as it is while the benchmark's peak RSS grows
    with the number of rounds a faster T1 fits into a run (ROADMAP item 1).
    """
    p, fact, inv_fact = ctx.p, ctx.fact, ctx.inv_fact
    s = (p - 1) // r
    fs = fact[s]
    # C4 members repeat a C1-C3 member only at d = r-2, so only those are kept.
    taken = set()
    for e, d, l in _params(1, p, r):
        if _in_B(p, r, e, d) is None:
            if d == r - 2:
                taken.add(e)
            gh = half_g(p, r, e, d)
            yield 1, e, d, gh, fs * inv_fact[s - l] % p * inv_fact[e - s + l] % p * fact[e - s] % p, \
                pow(neg_rho, gh, p)
    if s % (r - 1) == 0:
        # _params(2) with l outermost: d runs 2..min(r, l // m).  B can hold
        # a member only at d in {r-2, r-1, r}, and which of those it holds
        # depends on (r, l) alone.
        m = s // (r - 1)
        step = r * m  # (p-1)/(r-1)
        up, down = pow(neg_rho, m, p), pow(neg_rho, -m, p)  # up = (-rho)^{l-m} at d = 1
        for l in range(2 * m, step + 1):
            e, top = (r - 1) * l, min(r, l // m)
            in_b = [d for d in range(max(2, r - 2), top + 1) if _in_B(p, r, e, d) is not None]
            q = fs * inv_fact[step - l] % p * inv_fact[e - step + l] % p * fact[e - s] % p
            w, v = up, up * down % p
            up = up * neg_rho % p
            for d in range(2, top + 1):
                k1, kx = d * s, d * step - l
                q = q * inv_fact[kx] % p * inv_fact[e - kx] % p * fact[k1] % p * fact[e - k1] % p
                w = w * v % p
                v = v * down % p
                if d in in_b:
                    continue
                if d == r - 2:
                    taken.add(e)
                yield 2, e, d, half_g(p, r, e, d), q, w
    if (p + 1) % (r - 1) == 0:
        # _params(3) with l outermost: d runs 2..min(r-1, l // m), where
        # m = T - s is an integer because (r-1)(T+2) = r(s+2).
        big = (p + 1) // (r - 1)  # T
        m = big - s
        facts = [1]  # facts[d] = prod_{i=1..d} (is)!
        for i in range(1, r):
            facts.append(facts[-1] * fact[i * s] % p)
        up, down = pow(neg_rho, m, p), pow(neg_rho, -m, p)
        for l in range(2 * m, big + 1):
            top = min(r - 1, l // m)
            a = inv_fact[big - l]
            w, v = up, up * down % p
            up = up * neg_rho % p
            for d in range(2, top + 1):
                a = a * inv_fact[big * d - l] % p
                w = w * v % p
                v = v * down % p
                e = (r - 1) * l - d - 1
                if d >= r - 2 and _in_B(p, r, e, d) is not None:
                    continue
                if d == r - 2:
                    taken.add(e)
                q = a * facts[d] % p
                for i in range(1, d + 1):
                    q = q * inv_fact[e + l - big * i] % p * fact[e - s * i] % p
                yield 3, e, d, half_g(p, r, e, d), q, p - w if d * (d - 1) // 2 % 2 else w
    # C4 with d in {r-1, r} lies wholly in B, so _params(4) stops at
    # d = r-2: U's d(p-1) <= re <= r(p-1) gives r(p-1-e) <= p-1 for
    # d = r-1 (B0, as e > (p-1)/2 for r >= 3) and e = p-1 for d = r (B+).
    offs = None
    for e, d, l in _params(4, p, r):
        if _in_B(p, r, e, d) is None and e not in taken and _in_U(p, r, e, d):
            if offs is None:
                offs = [-((i * p - d) // -(r - 1)) - s for i in range(1, d + 1)]
                sign = bracket(-p, r - 1) * (-1 if d * (d - 1) // 2 % 2 else 1)
            q = 1
            for i, off in enumerate(offs, 1):
                k = off - l
                q = q * inv_fact[k] % p * inv_fact[e - k] % p * fact[i * s] % p * fact[e - i * s] % p
            gh = half_g(p, r, e, d)
            yield 4, e, d, gh, q, sign * pow(neg_rho, gh, p) % p


def t1_survivors(ctx: PrimeCtx):
    """Stage T1 over every member of C1-C4 outside B, in one pass.

    Returns (c_counts, survivors): the number of members of each class, and
    the ascending (r, e, d, eps0) of the members whose closed-form
    det M_d((x^r-x)^e) equals eps0 * Delta(x^r-x)^{g/2}, where
    eps0 = det M_d((x^r-1)^e) / Delta(x^r-1)^{g/2}.

    Sign identity: the closed forms are
    det M_d((x^r-1)^e) = (-1)^{d(d-1)/2 + (r-1)g/2} p1 and
    det M_d((x^r-x)^e) = sign_j (-1)^{r g/2} px, so with
    rho = Delta(x^r-x) / Delta(x^r-1) the T1 identity reads
    px / p1 = sign_j (-1)^{d(d-1)/2} (-rho)^{g/2}; the product of signs is 1
    for C1 and C2, (-1)^{d(d-1)/2} for C3 and bracket(-p, r-1) (-1)^{d(d-1)/2}
    for C4.  ``_bare_products`` yields both sides with fact[e]^d cancelled;
    C2 and C3 carry (-rho)^{g/2} along their walk, and C1 and C4 take one pow
    per member.  p1 and eps0 are taken for survivors only.  Every C1-C4
    member at r = 2 lies in B (C1 in B0, C2 in B+, no C3 or C4), so r = 2 is
    skipped, and each r >= 3 has a C1 member outside B, so rho and
    Delta(x^r-1)^{-1} are taken once per r >= 3.  B can hold a member only at
    d in {r-2, r-1, r}; the walk never visits C4 with d in {r-1, r}, which
    lies wholly in B.  half_g is taken for every member, so a g that is not a
    positive even integer raises BadExponent.
    """
    p, fact, inv_fact = ctx.p, ctx.fact, ctx.inv_fact
    counts = [0, 0, 0, 0]
    survivors = []
    for r in _divisors(p - 1)[1:]:  # skips r = 2, as p-1 is even
        s = (p - 1) // r
        inv_d1 = ctx.inv(special_discriminant(XR_MINUS_1, r, ctx))
        neg_rho = -special_discriminant(XR_MINUS_X, r, ctx) * inv_d1 % p
        for j, e, d, gh, lhs, rhs in _bare_products(ctx, r, neg_rho):
            counts[j - 1] += 1
            if lhs == rhs:
                xr1 = 1
                for i in range(1, d + 1):
                    xr1 = xr1 * fact[e] % p * inv_fact[i * s] % p * inv_fact[e - i * s] % p
                if (d * (d - 1) // 2 + (r - 1) * gh) % 2:
                    xr1 = -xr1
                survivors.append((r, e, d, xr1 * pow(inv_d1, gh, p) % p))
    survivors.sort()
    return tuple(counts), survivors


def kappa(s: int, l: int) -> Fraction:
    """(-1/(s+1))^l * l(l+s)...(l+(l-1)s) / (s(s-1)...(s-l+1))."""
    if not 1 <= l <= s:
        raise ValueError("need 1 <= l <= s")
    num = 1
    for i in range(l):
        num *= l + i * s
    den = 1
    for i in range(l):
        den *= s - i
    return Fraction(-1, s + 1) ** l * Fraction(num, den)


def kappa_survivor_primes(s: int, l: int, p_max: int):
    """Primes p <= p_max whose d = 1 candidate with this (s, l) survives
    the x^r - x test, paired with the surviving triple (r, s+(r-1)l, 1)."""
    kq = kappa(s, l)
    out = []
    for p in range(2 * s + 1, p_max + 1):
        if (p - 1) % s or not is_prime(p):
            continue
        r = (p - 1) // s
        if r < 2:
            continue
        k_mod = kq.numerator % p * pow(kq.denominator % p, p - 2, p) % p
        if pow(k_mod, s, p) != 1:
            continue
        base = (-pow(s + 1, p - 2, p)) % p
        if k_mod != pow(base, r * l, p):
            continue
        ctx = prime_ctx(p)
        out.append((p, Triple(ctx, r, s + (r - 1) * l, 1)))
    return out
