"""Classification of exponent triples (r, e, d) and their closed-form data.

A triple determines the matrix M_d(f^e) for degree-r polynomials f over F_p.
This module supplies the exponent g, the (r, d) windows that E(p), D and B
are read off (``e_window``, ``b_span``), membership in U, the epsilon scalar
on B, closed-form determinants for x^r - 1 and x^r - x, the classes C1-C4
(``enumerate_C``) and their stage T1 test (``t1_survivors``, the integer
kernel that verify3 runs, tested against ``enumerate_C``), and the kappa
invariant that controls which d = 1 candidates survive the x^r - x test.

``t1_survivors`` compares the ratio of the two closed forms' binomial
products, with their common fact[e]^d cancelled, against a sign times
(-rho)^{g/2}.  Every class has the same shape (``_classes`` gives it as
data), so one walk r -> class -> d serves C1-C4.  For fixed (r, class, d)
every factorial index the ratio reads is linear in l and (-rho)^{g/2} is
geometric in l, so the walk takes a column, every l of the (r, class, d),
at once, as strided slices of the factorial tables:

    class  a_i (k_i = a_i - l)         e                 d                  m        h              sign
    C1     s                           s + (r-1)l        1                  0        0              1
    C2     K i, K = (p-1)/(r-1)        (r-1)l            2..min(r, l//m)    s/(r-1)  0              1
    C3     K i, K = (p+1)/(r-1)        (r-1)l - d - 1    2..min(r-1, l//m)  K - s    0              (-1)^{d(d-1)/2}
    C4     ceil((ip-d)/(r-1)) - s + t  (r-1)(s - t + l)  r-2                0        (r-2)(s-2t)/2  [-p/(r-1)] (-1)^{d(d-1)/2}

with s = (p-1)/r, t = floor(s/(r-1)) and g/2 = d l - m d(d+1)/2 + h.  C4's
l is the paper's plus t, so it runs over 0..2t.
"""

from fractions import Fraction
from math import gcd, isqrt, prod
from typing import NamedTuple

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


class Triple(NamedTuple):
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


def e_window(p: int, r: int, d: int) -> range:
    """The e in 0..p-1 with d(p-1) <= re <= (d+1)(p-1), r >= 1: E(p), D and B read off it."""
    lo, hi = -(-d * (p - 1) // r), (d + 1) * (p - 1) // r + 1
    return range(lo if lo > 0 else 0, hi if hi < p else p)


def b_span(p: int, r: int, d: int) -> range:
    """The e with (r, e, d) in B, ascending: the D window (``e_window`` cut to
    2e > p-1) where the degree balance vanishes, all of it at d = r (B+) and
    d = r-1 (B0) and at d = r-2 (B-) its top e if r e = (r-1)(p-1).  Empty
    unless r >= 2 and r-2 <= d <= min(r, p)."""
    if r < 2 or d < r - 2 or d > r or d > p:
        return range(0)
    w, half = e_window(p, r, d), (p + 1) // 2
    if w.start < half:
        w = range(half, w.stop)
    if d == r - 2:
        return w[-1:] if w and r * w[-1] == (r - 1) * (p - 1) else range(0)
    return w


def _in_B(p: int, r: int, e: int, d: int):
    return (B_PLUS, B_ZERO, B_MINUS)[r - d] if e in b_span(p, r, d) else None


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
    """2e > p-1 and e in the (r, d) window; False at r <= 0, where it has none."""
    return t.r >= 1 and 2 * t.e > t.p - 1 and t.e in e_window(t.p, t.r, t.d)


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


def eps_E(ctx: PrimeCtx, r: int, e: int, d: int) -> int:
    """The scalar of the first experimental equality on E(p), mod p:
    (-1)^{r(r+1)(1+e)/2 + (r+1)d} ((d+1)(p-1) - re)! (e!)^r."""
    p = ctx.p
    out = ctx.fact[(d + 1) * (p - 1) - r * e] * pow(ctx.fact[e], r, p) % p
    return (-out if (r * (r + 1) // 2 * (1 + e) + (r + 1) * d) % 2 else out) % p


def epsilon(t: Triple) -> int:
    """The scalar in det M_d(f^e) = eps * delta^g on B, mod p.

    It is ``eps_E`` on B0 and B-, and -``eps_E`` on B+, whose d = r lies
    outside E(p): there (d+1)(p-1) - re = p-1.
    """
    tag = in_B(t)
    if tag is None:
        raise NotInB(f"{t} is not in B")
    out = eps_E(t.ctx, t.r, t.e, t.d)
    return -out % t.p if tag == B_PLUS else out


def enumerate_B(ctx: PrimeCtx):
    """All of B(p), ascending (r, e, d): three ``b_span`` ranges per r."""
    p = ctx.p
    return sorted((Triple(ctx, r, e, d) for r in range(2, p + 2) for d in (r - 2, r - 1, r)
                   for e in b_span(p, r, d)), key=Triple.as_tuple)


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


# The odd primes below 2^10, multiplied: an odd m < 2^20 coprime to it is 1 or
# a prime.
_ODD_PRIMORIAL = prod(q for q in range(3, 1 << 10, 2) if all(q % t for t in range(3, isqrt(q) + 1, 2)))


def _divisors(n: int):
    """Divisors of n that are at least 2, ascending.

    They are built from the prime powers of n: the 2s are stripped, then the
    next odd q that divides the cofactor m is searched for while q^2 <= m,
    and what is left of m is 1 or a prime.  The search is skipped once m is
    below 2^20 and has no prime factor below 2^10 (one gcd), which is where a
    safe prime's (p-1)/2 starts.
    """
    k = (n & -n).bit_length() - 1
    divs = [1 << i for i in range(k + 1)]
    m, q = n >> k, 3
    while (m >= 1 << 20 or gcd(m, _ODD_PRIMORIAL) > 1) and (
            q := next((t for t in range(q, isqrt(m) + 1, 2) if m % t == 0), 0)):
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
    """C1-C4 at r | p-1 (r >= 3) as data for the column walk of ``t1_survivors``.

    Yields (j, offs, sign, c, moves, ls, d0, dmax, m, h, alt) for each class
    that can have members outside B at r, as in the module docstring's table:
    the members are l in ls and d0 <= d <= min(dmax, l // m) (only d0 = dmax
    where m = 0), with e = (r-1)l + c - moves d, k_i = offs[i] - l (offs is
    indexed from i = 0) and g/2 = d l - m d(d+1)/2 + h.  A column's sign is
    sign (-1)^{alt d(d-1)/2}.  C4 comes only where it has a member outside B
    and C1-C3 (the four facts of ``t1_survivors``), so only there does it take
    a ``bracket``.
    """
    s = (p - 1) // r
    yield 1, (0, s), 1, s, 0, range(1, s + 1), 1, 1, 0, 0, 0
    if s % (r - 1) == 0:
        m = s // (r - 1)
        k2 = r * m  # (p-1)/(r-1)
        yield 2, range(0, (r + 1) * k2, k2), 1, 0, 0, range(2 * m, k2 + 1), 2, r, m, 0, 0
    if (p + 1) % (r - 1) == 0:
        k3 = (p + 1) // (r - 1)
        yield 3, range(0, r * k3, k3), 1, -1, 1, range(2 * (k3 - s), k3 + 1), 2, r - 1, k3 - s, 0, 1
    t = s // (r - 1)
    if t and s % (r - 1) not in (0, r - 3):  # r = 3 fails too: s is even there
        yield (4, [-((i * p - r + 2) // -(r - 1)) - s + t for i in range(r - 1)], bracket(-p, r - 1),
               (r - 1) * (s - t), 0, range(2 * t + 1), r - 2, r - 2, 0, (r - 2) * (s - 2 * t) // 2, 1)


def _in_B_span(p: int, r: int, d: int, e_lo: int, n: int) -> range:
    """The positions i < n at which e = e_lo + (r-1)i lies in ``b_span(p, r, d)``, r >= 2.
    T1 calls it per column, so it and the windows clamp by conditionals, not max/min."""
    span = b_span(p, r, d)
    lo, hi = -((e_lo - span.start) // (r - 1)), (span.stop - 1 - e_lo) // (r - 1) + 1
    return range(lo if lo > 0 else 0, hi if hi < n else n)


def t1_survivors(ctx: PrimeCtx):
    """Stage T1 over every member of C1-C4 outside B, a column at a time.

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

    The walk goes r -> class -> d, and a column, the members of one
    (r, class, d), is every l of its range at once: k_i = a_i - l,
    e - k_i and e - is step by -1, r and r-1 along l, so each factor of the
    column is one strided slice of ``ctx.inv_fact`` or ``ctx.fact``.  The
    right side goes over to the left: g/2 steps by l - m d from d-1 to d, so
    step d also multiplies by (-rho)^{-(l - m d)}, a slice of one table of
    the powers of (-rho)^{-1} (its indices stay in 0..s), and what is left
    of the right side is a constant of the column: the sign, prod_i 1/fact[is]
    and, where h > 0 (C4), one pow.  The list over l is carried along d and
    trimmed from the front as the range l >= d m shrinks; where e moves with
    d (C3), each column still multiplies its d e-dependent factor pairs, as
    slices.  A member survives where its column's list holds the constant,
    so the list is only scanned.

    B holds a member only at d in {r-2, r-1, r}, and there a column's B
    members are the l whose e lies in ``b_span`` (``_in_B_span``); a
    column wholly in B (C2 at d = r-1 and r) is stepped through but not
    scanned.  Every C1-C4 member at r = 2 lies in B (C1 in B0, C2 in B+,
    no C3 or C4), so r = 2 is skipped, and each r >= 3 has a C1 member
    outside B, so the two discriminants and one inverse are taken once per
    r >= 3.

    C4, whose members must lie in U and in none of C1-C3, needs no test of
    either.  Its members at d in {r-1, r} lie in B: there U's
    d(p-1) <= re <= r(p-1) is ``e_window``, past (p-1)/2 at r >= 3, so
    ``b_span``.  With t = floor(s/(r-1)), its d = r-2 members are
    e = (r-1)(s+l), |l| <= t (l > -t at r = 3), and
    - all of them lie in U: |l| <= t gives d(p-1) <= re <= r(p-1), and
      g/2 = (r-2)(l + s/2) > 0 is an integer, as s is even where r is odd;
    - at r = 3, each is the C1 member with l + s/2 in place of l;
    - where (r-1) | s, their e/(r-1) fill [(r-2)m, rm], C2's column at
      d = r-2 (m = s/(r-1) = t);
    - where (r-1) | s+2, t = m - 1 with m = (s+2)/(r-1) of C3, whose column
      at d = r-2 has e/(r-1) in [s-t, s+t];
    - elsewhere (r >= 4) C1-C3 have no d = r-2 member, and B holds only
      l = 0 (e = p-1-s, in B-), so with t = 0 no member is left.
    So ``_classes`` gives C4, re-indexed by l + t, only where t >= 1 and
    s mod (r-1) is neither 0 nor r-3, and it is a column like the others.

    half_g and d l - m d(d+1)/2 + h are both affine in l, so checking them
    equal at both ends of each column with a member outside B checks every
    member of it, and a g that is not a positive even integer raises
    BadExponent.  The x^r-1 product and eps0 are taken for the survivors
    only.
    """
    p, fact, inv_fact = ctx.p, ctx.fact, ctx.inv_fact
    counts = [0, 0, 0, 0]
    survivors = []
    for r in _divisors(p - 1)[1:]:  # skips r = 2, as p-1 is even
        s = (p - 1) // r
        d1 = special_discriminant(XR_MINUS_1, r, ctx)
        dx = special_discriminant(XR_MINUS_X, r, ctx)
        w = pow(d1 * dx, -1, p)
        inv_d1, neg_rho = dx * w % p, -dx * dx * w % p
        # down[t] = (-rho)^{-t} for t = 0..s: four powers, then the list is
        # doubled with q^4, q^8, ...
        q = -d1 * d1 * w % p
        q2 = q * q % p
        down, qk = [1, q, q2, q2 * q % p][:s + 1], q2 * q2 % p
        while len(down) <= s:
            down += [x * qk % p for x in down[:s + 1 - len(down)]]
            qk = qk * qk % p
        for j, offs, sign, c, moves, ls, d0, dmax, m, h, alt in _classes(p, r):
            lo0, hi = ls[0], ls[-1]
            y, prev, inv_is = [1] * len(ls), lo0, 1
            for d in range(1, dmax + 1):
                lo = max(lo0, d * m)
                if lo > hi:
                    break
                # Step d multiplies y, over l = lo..hi, by 1/k_d! and the
                # (-rho)^{-1} power, and by the e half of pair d where e does
                # not move with d.
                n, a, trim, prev = hi - lo + 1, offs[d], lo - prev, lo
                ks = inv_fact[a - lo:a - hi - 1 if a > hi else None:-1]
                rs = down[lo - m * d:hi - m * d + 1]
                if moves:
                    y = [v * k * t % p for v, k, t in zip(y[trim:], ks, rs)]
                else:
                    y = [v * k * ek * ei * t % p for v, k, ek, ei, t in zip(
                        y[trim:], ks, inv_fact[r * lo + c - a:r * hi + c - a + 1:r],
                        fact[(r - 1) * lo + c - d * s:(r - 1) * hi + c - d * s + 1:r - 1], rs)]
                inv_is = inv_is * inv_fact[d * s] % p
                if d < d0:
                    continue
                e_lo = (r - 1) * lo + c - moves * d
                out = _in_B_span(p, r, d, e_lo, n) if d >= r - 2 else ()
                if len(out) == n:
                    continue
                counts[j - 1] += n - len(out)
                z = y
                if moves:  # C3: the e half of all d pairs, at this column's e
                    for i in range(1, d + 1):
                        ek, ei = c - d - offs[i], c - d - i * s
                        z = [v * x * u % p for v, x, u in zip(
                            z, inv_fact[r * lo + ek:r * hi + ek + 1:r],
                            fact[(r - 1) * lo + ei:(r - 1) * hi + ei + 1:r - 1])]
                for l in (lo, hi):
                    # half_g's test (divided through by r) against the closed form
                    gh = d * l - m * d * (d + 1) // 2 + h
                    if gh <= 0 or 2 * ((r - 1) * l + c - moves * d) * d - d * (d + 1) * s != 2 * (r - 1) * gh:
                        raise BadExponent(f"g/2 of C{j} is not d l - m d(d+1)/2 + h at p={p}, r={r}, d={d}")
                target = (-sign if alt and d * (d - 1) // 2 % 2 else sign) * inv_is % p
                if h:
                    target = target * pow(neg_rho, h, p) % p
                at = -1
                for _ in range(z.count(target)):
                    at = z.index(target, at + 1)
                    if at in out:
                        continue
                    l = lo + at
                    e = e_lo + (r - 1) * at
                    gh = d * l - m * d * (d + 1) // 2 + h
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
    for p in range(2 * s + 1, p_max + 1, s):
        if not is_prime(p):
            continue
        r = (p - 1) // s
        k_mod = kq.numerator % p * pow(kq.denominator, -1, p) % p
        if pow(k_mod, s, p) != 1:
            continue
        base = (-pow(s + 1, -1, p)) % p
        if k_mod != pow(base, r * l, p):
            continue
        ctx = prime_ctx(p)
        out.append((p, Triple(ctx, r, s + (r - 1) * l, 1)))
    return out
