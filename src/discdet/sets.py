"""Classification of exponent triples (r, e, d) and their closed-form data.

A triple determines the matrix M_d(f^e) for degree-r polynomials f over F_p.
This module supplies the exponent g, membership predicates for the B and U
families, the epsilon scalar on B, closed-form determinants for the
specialized polynomials x^r - 1 and x^r - x, the candidate classes C1-C4
(``candidates`` is the integer kernel that verify3 runs, ``enumerate_C`` its
reference), and the kappa invariant that controls which d = 1 candidates
survive the x^r - x test.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .ff import PrimeCtx, binom, bracket, is_prime, prime_ctx

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


def xr1_det(ctx: PrimeCtx, r: int, e: int, d: int, gh: int) -> int:
    """Closed-form det M_d((x^r-1)^e) for (r, e, d) in U with r | p-1 and
    g/2 = gh."""
    p = ctx.p
    s = (p - 1) // r
    out = -1 if (d * (d - 1) // 2 + (r - 1) * gh) % 2 else 1
    for i in range(1, d + 1):
        out = out * binom(ctx, e, i * s) % p
    return out % p


def det_xr1(t: Triple) -> int:
    """Closed-form det M_d((x^r-1)^e) for t in U with r | p-1."""
    p, r, e, d = t.p, t.r, t.e, t.d
    if (p - 1) % r or not in_U(t):
        raise ValueError(f"{t} needs r | p-1 and membership in U")
    return xr1_det(t.ctx, r, e, d, half_g(p, r, e, d))


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
    stated, and det is None.  This is the reference that ``candidates`` is
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


def candidates(ctx: PrimeCtx):
    """Every member of C1-C4 outside B, once, in ascending (r, e, d) order.

    Yields plain ints (j, r, e, d, g/2, det M_d((x^r-x)^e)), with j the
    class.  B members are rejected before any binomial is taken, and two
    ranges are never visited because they lie wholly in B:
      * C1 at r = 2: d = 1 = r-1 and e = s+l > s = (p-1)/2, so B0;
      * C4 with d in {r-1, r}: U's d(p-1) <= re <= r(p-1) gives
        r(p-1-e) <= p-1 for d = r-1 (so B0, as e > (p-1)/2 for r >= 3)
        and e = p-1 for d = r (so B+).
    """
    p = ctx.p
    for r in _divisors(p - 1):
        found = []
        for j in (1, 2, 3) if r > 2 else (2, 3):
            for e, d, l in _params(j, p, r):
                if _in_B(p, r, e, d) is None:
                    gh = half_g(p, r, e, d)
                    found.append((e, d, j, gh, _xrx_det(ctx, j, r, e, d, l, gh)))
        taken = {(e, d) for e, d, *_ in found}
        for e, d, l in _params(4, p, r):
            if (e, d) in taken or _in_B(p, r, e, d) is not None or not _in_U(p, r, e, d):
                continue
            gh = half_g(p, r, e, d)
            found.append((e, d, 4, gh, _xrx_det(ctx, 4, r, e, d, l, gh)))
        found.sort()
        for e, d, j, gh, det in found:
            yield j, r, e, d, gh, det


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
