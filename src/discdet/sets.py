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
(-rho)^{g/2}.  Every class has the same shape (``_classes`` gives it as
data), so one walk r -> l -> d serves C1-C4 and carries both sides along
d with no pow per member:

    class  a_i (k_i = a_i - l)     e               d                  m        h         sign
    C1     s                       s + (r-1)l      1                  0        0         1
    C2     K i, K = (p-1)/(r-1)    (r-1)l          2..min(r, l//m)    s/(r-1)  0         1
    C3     K i, K = (p+1)/(r-1)    (r-1)l - d - 1  2..min(r-1, l//m)  K - s    0         (-1)^{d(d-1)/2}
    C4     ceil((ip-d)/(r-1)) - s  (r-1)(s+l)      r-2                0        (r-2)s/2  [-p/(r-1)] (-1)^{d(d-1)/2}

with s = (p-1)/r and g/2 = d l - m d(d+1)/2 + h.
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
    """Divisors of n that are at least 2, ascending.

    They are built from the prime powers of n: the 2s are stripped, then the
    next odd q that divides the cofactor m is searched for while q^2 <= m,
    and what is left of m is 1 or a prime.
    """
    k = (n & -n).bit_length() - 1
    divs = [1 << i for i in range(k + 1)]
    m, q = n >> k, 3
    while q := next((t for t in range(q, isqrt(m) + 1, 2) if m % t == 0), 0):
        power = divs
        while m % q == 0:
            m //= q
            power = [d * q for d in power]
            divs = divs + power
    if m > 1:
        divs += [d * m for d in divs]
    return sorted(divs)[1:]


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


def _classes(p: int, r: int):
    """C1-C4 at r | p-1 (r >= 3) as data for the walk of ``t1_survivors``.

    Yields (j, setup, c, moves, ls, d0, dmax, m, h, alt) for each class that
    can have members outside B at r, as in the module docstring's table: the
    members are l in ls and d0 <= d <= min(dmax, l // m) (only d0 = dmax
    where m = 0), with e = (r-1)l + c - moves d and g/2 = d l - m d(d+1)/2 + h.
    setup() gives the a_i, indexed from i = 0, and the constant factor of
    the sign, which is that factor times (-1)^{alt d(d-1)/2}.  The walk calls
    it at the class's first member outside B, so C4 builds its offsets and
    takes its ``bracket`` only then.
    """
    s = (p - 1) // r
    yield 1, lambda: ((0, s), 1), s, 0, range(1, s + 1), 1, 1, 0, 0, 0
    if s % (r - 1) == 0:
        m = s // (r - 1)
        k2 = r * m  # (p-1)/(r-1)
        yield 2, lambda: (list(range(0, (r + 1) * k2, k2)), 1), 0, 0, range(2 * m, k2 + 1), 2, r, m, 0, 0
    if (p + 1) % (r - 1) == 0:
        k3 = (p + 1) // (r - 1)
        yield (3, lambda: (list(range(0, r * k3, k3)), 1), -1, 1, range(2 * (k3 - s), k3 + 1),
               2, r - 1, k3 - s, 0, 1)
    # C4 with d in {r-1, r} lies wholly in B, so only d = r-2 is walked:
    # U's d(p-1) <= re <= r(p-1) gives r(p-1-e) <= p-1 for d = r-1 (B0, as
    # e > (p-1)/2 for r >= 3) and e = p-1 for d = r (B+).  Its l = 0 member,
    # e = p-1-s, lies in B-, so with t = 0 (r > 3, as s is even at r = 3)
    # C4 has no member outside B.
    t = s // (r - 1)
    if t:
        yield (4, lambda: ([-((i * p - r + 2) // -(r - 1)) - s for i in range(r - 1)],
                           bracket(-p, r - 1)),
               (r - 1) * s, 0, range(-t + (r == 3), t + 1), r - 2, r - 2, 0, (r - 2) * s // 2, 1)


def t1_survivors(ctx: PrimeCtx):
    """Stage T1 over every member of C1-C4 outside B, in one walk.

    Returns (c_counts, survivors): the number of members of each class, and
    the ascending (r, e, d, eps0) of the members whose closed-form
    det M_d((x^r-x)^e) equals eps0 * Delta(x^r-x)^{g/2}, where
    eps0 = det M_d((x^r-1)^e) / Delta(x^r-1)^{g/2}.

    Ratio form: the closed forms are
    det M_d((x^r-1)^e) = (-1)^{d(d-1)/2 + (r-1)g/2} prod_i C(e, is) and
    det M_d((x^r-x)^e) = sign_j (-1)^{r g/2} prod_i C(e, k_i) (s = (p-1)/r),
    so with rho = Delta(x^r-x) / Delta(x^r-1) the T1 identity reads
    prod_i C(e, k_i) / C(e, is) = sign (-rho)^{g/2}, sign as in ``_classes``.
    The common fact[e]^d cancels (e < p), so the left side is a product of
    inv_fact[k_i] inv_fact[e-k_i] fact[is] fact[e-is], read from the tables
    with no range check: the ranges of ``_params`` give 0 <= k_i <= e < p.

    One walk serves every class: r -> class -> l -> d.  Along d it carries
    prod_i inv_fact[k_i] fact[is], and the e half as well where e does not
    move with d (C3 retakes that half in d steps per member).  The right side
    is carried too: g/2 = d l - m d(d+1)/2 + h steps by l - m(d+1) along d
    and by d0 along l, so it takes four pows per class and r and none per
    member.  A class's a_i, sign and powers are set up at its first member
    outside B, and a member's products are built only once it has passed
    the membership checks, so a class whose members all lie in B (C4 at
    r = 3..6 for p = 61) costs no more than its checks.

    B can hold a member only at d in {r-2, r-1, r}, so ``_in_B`` is asked
    only there, and C4 keeps the members at d = r-2 that lie in U and in
    none of C1-C3.  Every C1-C4 member at r = 2 lies in B (C1 in B0, C2 in
    B+, no C3 or C4), so r = 2 is skipped, and each r >= 3 has a C1 member
    outside B, so rho and Delta(x^r-1)^{-1} are taken once per r >= 3.
    half_g is taken for every member, so a g that is not a positive even
    integer raises BadExponent; the x^r-1 product and eps0 are taken for the
    survivors only.
    """
    p, fact, inv_fact = ctx.p, ctx.fact, ctx.inv_fact
    counts = [0, 0, 0, 0]
    survivors = []
    for r in _divisors(p - 1)[1:]:  # skips r = 2, as p-1 is even
        s = (p - 1) // r
        inv_d1 = ctx.inv(special_discriminant(XR_MINUS_1, r, ctx))
        neg_rho = -special_discriminant(XR_MINUS_X, r, ctx) * inv_d1 % p
        taken = set()  # e of the C1-C3 members at d = r-2
        for j, setup, c, moves, ls, d0, dmax, m, h, alt in _classes(p, r):
            # At each l, w0 = sign (-rho)^{g/2} at d = d0 and v0 is its step to
            # d0+1; w and v carry them along d.  Until the class's first member
            # outside B sets them up, they and offs (the a_i) are placeholders.
            offs, w0, v0, lstep, down, n = None, 1, 1, 1, 1, 0
            for l in ls:
                el = (r - 1) * l + c
                i, x, w, v = 0, 1, w0, v0  # x carries i factors
                for d in range(d0, min(dmax, l // m) + 1 if m else dmax + 1):
                    e = el - moves * d
                    if d < r - 2 or _in_B(p, r, e, d) is None and (
                            j < 4 or e not in taken and _in_U(p, r, e, d)):
                        if d == r - 2 and j < 4:
                            taken.add(e)
                        if offs is None:
                            offs, sign = setup()
                            g0 = d0 * l - m * d0 * (d0 + 1) // 2 + h
                            w0 = sign * (-1) ** (alt * d0 * (d0 - 1) // 2) * pow(neg_rho, g0, p) % p
                            v0 = (-1) ** (alt * d0) * pow(neg_rho, l - m * (d0 + 1), p) % p
                            lstep = pow(neg_rho, d0, p)
                            down = (-1) ** alt * pow(neg_rho, -m, p) % p
                            w, v = w0, v0
                            for _ in range(d0, d):
                                w, v = w * v % p, v * down % p
                        while i < d:
                            i += 1
                            k = offs[i] - l
                            x = x * inv_fact[k] % p * fact[i * s] % p
                            if not moves:
                                x = x * inv_fact[e - k] % p * fact[e - i * s] % p
                        q = x
                        if moves:
                            for i2 in range(1, d + 1):
                                q = q * inv_fact[e - offs[i2] + l] % p * fact[e - i2 * s] % p
                        n += 1
                        gh = half_g(p, r, e, d)
                        if q == w:
                            xr1 = 1
                            for i2 in range(1, d + 1):
                                xr1 = xr1 * fact[e] % p * inv_fact[i2 * s] % p * inv_fact[e - i2 * s] % p
                            if (d * (d - 1) // 2 + (r - 1) * gh) % 2:
                                xr1 = -xr1
                            survivors.append((r, e, d, xr1 * pow(inv_d1, gh, p) % p))
                    w, v = w * v % p, v * down % p
                w0, v0 = w0 * lstep % p, v0 * neg_rho % p
            counts[j - 1] += n
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
