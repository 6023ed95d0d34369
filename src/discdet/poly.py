"""Dense univariate polynomial algebra over F_p.

Coefficients are stored ascending (index i = coefficient of x^i) with no
trailing zeros; the zero polynomial has an empty coefficient list.
"""

from array import array
from math import gcd, prod
from operator import mul

from .ff import PrimeCtx


class FpPoly:
    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: PrimeCtx, coeffs):
        p = ctx.p
        c = [a % p for a in coeffs]
        while c and c[-1] == 0:
            c.pop()
        self.ctx = ctx
        self.coeffs = c

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def lead(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __eq__(self, other):
        return (
            isinstance(other, FpPoly)
            and self.ctx.p == other.ctx.p
            and self.coeffs == other.coeffs
        )

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, v in enumerate(b):
            out[i] = (out[i] + v) % self.ctx.p
        return FpPoly(self.ctx, out)

    def __sub__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        p = self.ctx.p
        return FpPoly(
            self.ctx, [(self.coeff(i) - other.coeff(i)) % p for i in range(n)]
        )

    def __mul__(self, other):
        return FpPoly(self.ctx, _mul(self.coeffs, other.coeffs, self.ctx.p))

    def derivative(self) -> "FpPoly":
        return FpPoly(self.ctx, [i * a for i, a in enumerate(self.coeffs)][1:])

    def monomials(self):
        """Nonzero (exponent, coefficient) pairs, ascending."""
        return [(i, a) for i, a in enumerate(self.coeffs) if a]

    def __repr__(self):
        return f"FpPoly(p={self.ctx.p}, {self.coeffs})"


# (bits, type code) of the unsigned array types, narrowest first
_WORDS = [(8 * array(code).itemsize, code) for code in "BHIQ"]


def monomial_sum(ctx: PrimeCtx, terms) -> FpPoly:
    """Build a polynomial from (exponent, coefficient) pairs."""
    if not terms:
        return FpPoly(ctx, [])
    out = [0] * (max(e for e, _ in terms) + 1)
    for e, c in terms:
        out[e] += c
    return FpPoly(ctx, out)


def _slot(bound: int):
    """(width, code, k): slots of k words of ``array`` type ``code`` (width
    bits each) that hold every integer in [0, bound].  The word is the
    narrowest of B, H, I and Q that does; past 64 bits a slot takes as many
    8-byte words as it needs."""
    bits = max(bound.bit_length(), 1)
    for width, code in _WORDS:
        if bits <= width:
            break
    return width, code, -(-bits // width)


def _pack(z, slot) -> int:
    """The entries of z (each below 2^width), one per slot, as one integer;
    past 64 bits each entry sits in the low word of its slot."""
    width, code, k = slot
    words = array(code, z)
    if k > 1:
        words, low = array(code, bytes(len(z) * k * width >> 3)), words
        words[::k] = low
    return int.from_bytes(words, "little")


def _unpack(v: int, count: int, slot) -> list:
    """The first ``count`` slots of v, as a list; the inverse of _pack."""
    width, code, k = slot
    words = array(code, v.to_bytes(count * k * width >> 3, "little"))
    out = words[::k].tolist()
    for j in range(1, k):
        out = [a | b << width * j for a, b in zip(out, words[j::k])]
    return out


def _mul(x, y, p: int):
    """Exact product of two coefficient lists with entries in [0, p), as a
    list of unreduced integers (no trailing zeros are stripped).

    Kronecker substitution (Harvey 2009): each operand is packed into one
    integer, one slot per coefficient, so CPython's subquadratic integer
    multiply does the work.  A slot holds min(la, lb) (p-1)^2 (``_slot``),
    so packing (``_pack``) and unpacking (``_unpack``) are one ``array``
    conversion each, with no loop per slot.  One list given as both operands
    is packed once and squared.
    """
    if not x or not y:
        return []
    slot = _slot(min(len(x), len(y)) * (p - 1) ** 2)
    a = _pack(x, slot)
    b = a if y is x else _pack(y, slot)
    return _unpack(a * b, len(x) + len(y) - 1, slot)


def divmod_poly(a: FpPoly, b: FpPoly):
    """Quotient and remainder of a by b over F_p."""
    if b.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    p = a.ctx.p
    rem = list(a.coeffs)
    db = b.degree
    inv_lead = pow(b.lead(), -1, p)
    quot = [0] * max(len(rem) - db, 0)
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem[i] % p
        if c == 0:
            continue
        q = c * inv_lead % p
        quot[i - db] = q
        for j, bj in enumerate(b.coeffs):
            rem[i - db + j] = (rem[i - db + j] - q * bj) % p
    return FpPoly(a.ctx, quot), FpPoly(a.ctx, rem)


def poly_pow(f: FpPoly, e: int) -> FpPoly:
    """f^e by binary exponentiation; f^0 = 1."""
    if e < 0:
        raise ValueError("exponent must be nonnegative")
    result = FpPoly(f.ctx, [1])
    base = f
    while e:
        if e & 1:
            result = result * base
        e >>= 1
        if e:
            base = base * base
    return result


def _sparse_window(f: FpPoly, e: int, indices):
    """[x^n] f^e for each n in indices, for f with at most 3 nonzero terms
    and e < p.

    Multinomial expansion: with f = sum c_t x^{g_t}, [x^n] f^e is
    e! * sum prod c_t^{k_t} / k_t! over k_0 + k_1 + k_2 = e and
    sum k_t g_t = n.  With b = (n - e g_0) / g, s = (g_1 - g_0) / g and
    t = (g_2 - g_0) / g, where g = gcd(g_1 - g_0, g_2 - g_0), the solutions
    form one progression: k_2 steps by s through the class b / t mod s,
    k_1 = (b - k_2 t) / s steps by -t and k_0 by t - s.  Each coefficient
    is then e! c_0^{k_0} c_1^{k_1} c_2^{k_2} at the first solution times one
    sum over three strided slices of ``inv_fact``, whose j-th term is also
    weighted by rho^j, rho = c_0^{t-s} c_1^{-t} c_2^s, when rho != 1.  The
    powers of rho are built by doubling up to the longest progression read,
    so a window costs O(terms), not O(e).
    """
    ctx = f.ctx
    p = ctx.p
    if e >= p:
        raise ValueError("multinomial path needs e < p")
    terms = f.monomials()
    if len(terms) > 3:
        raise ValueError("multinomial path supports at most 3 terms")
    inv_fact = ctx.inv_fact
    fe = ctx.fact[e]
    g0 = terms[0][0]
    cs = [c for _, c in terms]
    unit = all(c == 1 for c in cs)

    def lead(*ks):
        """e! * prod c_t^{k_t} mod p, for f with a coefficient other than 1."""
        return fe * prod(pow(c, k, p) for c, k in zip(cs, ks) if c != 1) % p

    if len(terms) == 1:
        top = pow(cs[0], e, p)
        return [top if n == e * g0 else 0 for n in indices]
    out = []
    if len(terms) == 2:
        d1 = terms[1][0] - g0
        for n in indices:
            k1, rem = divmod(n - e * g0, d1)
            if rem or not 0 <= k1 <= e:
                out.append(0)
                continue
            out.append((fe if unit else lead(e - k1, k1)) * inv_fact[e - k1] * inv_fact[k1] % p)
        return out
    d1, d2 = terms[1][0] - g0, terms[2][0] - g0
    g = gcd(d1, d2)
    s, t = d1 // g, d2 // g
    u = t - s
    t_inv = pow(t, -1, s)
    rho = 1 if unit else pow(cs[0], u, p) * pow(cs[1], -t, p) * pow(cs[2], s, p) % p
    rhos = [1]  # rho^j for j below the longest progression so far
    for n in indices:
        b, rem = divmod(n - e * g0, g)
        # k0 >= 0 bounds k2 below, k1 >= 0 bounds it above.
        lo = max(0, -((e * s - b) // u))
        lo += (b * t_inv - lo) % s
        hi = min(e, b // t)
        if rem or lo > hi:
            out.append(0)
            continue
        k1 = (b - lo * t) // s
        k0 = e - k1 - lo
        count = (hi - lo) // s + 1
        w2 = inv_fact[lo:hi + 1:s]
        if rho != 1:
            while len(rhos) < count:
                step = pow(rho, len(rhos), p)
                rhos += [x * step % p for x in rhos]
            w2 = map(mul, w2, rhos)  # rho^j on the k2 side keeps each factor small
        # map stops at the k2 slice, so k1's may run on down to k1 = 0.
        acc = sum(map(mul, map(mul, inv_fact[k0:k0 + count * u:u], inv_fact[k1::-t]), w2))
        out.append((fe if unit else lead(k0, k1, lo)) * acc % p)
    return out


def _frobenius_window(f: FpPoly, indices):
    """[x^n] f^(p-1) for each n in indices, for f with at least 2 terms.

    Write f = c x^v g with g(0) = 1, g = sum g_t x^{k_t} and r = deg g.  As
    c^(p-1) = 1 and g^p = g(x^p) over F_p, f^(p-1) = x^{v(p-1)} g(x^p) / g,
    so [x^n] f^(p-1) = sum_t g_t a_{n - v(p-1) - p k_t} with a = 1/g.  The
    series a obeys the recurrence of chi = x^r g(1/x), so for B = x^M mod chi,
    a_{M+m} = sum_q B_q a_{q+m} (Fiduccia): the needed positions are cut into
    runs of consecutive integers, each run is one middle product of B with
    a_0 .. a_{r+L-2}, and B steps from run to run by x^gap mod chi.
    """
    p = f.ctx.p
    terms = f.monomials()
    if len(terms) < 2:
        raise ValueError("Frobenius path needs at least 2 terms")
    v, c = terms[0]
    c_inv = pow(c, -1, p)  # c is f's lowest nonzero coefficient
    g = [(k - v, gk * c_inv % p) for k, gk in terms[1:]]  # and g_0 = 1
    r = g[-1][0]
    shift = v * (p - 1)
    offsets = [(shift + p * k, gk) for k, gk in [(0, 1)] + g]
    runs = []  # [start, length] over the needed positions, ascending
    for m in sorted({n - o for n in indices for o, _ in offsets}):
        if runs and m == runs[-1][0] + runs[-1][1]:
            runs[-1][1] += 1
        elif m >= 0:
            runs.append([m, 1])
    if not runs:
        return [0] * len(indices)
    longest = max(length for _, length in runs)
    a = [0] * r + [1]  # r zeros stand for a_{-r} .. a_{-1}
    for n in range(r + 1, 2 * r + longest - 1):
        a.append(-sum(gk * a[n - k] for k, gk in g) % p)
    a = a[r:]
    tail = [(r - k, gk) for k, gk in g]  # chi's non-leading terms

    def reduced(y):
        """y mod chi as r residues, for y of length at most 2r - 1."""
        for i in range(len(y) - 1, r - 1, -1):
            q = y[i] % p
            if q:
                for j, cj in tail:
                    y[i - r + j] -= q * cj
        return [t % p for t in y[:r]] + [0] * (r - len(y))

    def mulmod(y, z):
        return reduced(_mul(y, z, p))

    powers = {0: reduced([1])}

    def xpow(n):
        """x^n mod chi: x times a known power while that is cheaper than
        squaring from the top bit of n (one product costs about 30 shifts)."""
        k = max(k for k in powers if k <= n)
        if n - k <= 30 * n.bit_length():
            y = powers[k]
            for _ in range(n - k):
                y = reduced([0] + y)
        else:
            y = powers[0]
            for bit in bin(n)[2:]:
                y = mulmod(y, y)
                if bit == "1":
                    y = reduced([0] + y)
        powers[n] = y
        return y

    val = {}
    for m, length in runs:
        b = xpow(m) if not val else mulmod(b, xpow(m - prev))
        prev = m
        top = r + length - 1
        mid = _mul(b, a[top - 1::-1], p)
        val.update(zip(range(m, m + length), reversed(mid[r - 1:top])))
    out = [0] * len(indices)
    for o, gk in offsets:
        out = [x + gk * val.get(n - o, 0) for x, n in zip(out, indices)]
    return [x % p for x in out]


def _frobenius_cheaper(terms, p: int, indices) -> bool:
    """Whether ``_frobenius_window`` is cheaper than ``_sparse_window`` at
    e = p-1, for f = sum c_t x^{g_t} with 2 or 3 terms and nonempty ascending
    indices.

    Both costs are in units of one multinomial term, with weights fitted on
    measured per-call times of both paths: p from 211 to 176419, r up to 256
    and M_d windows up to d = 8 of x^r + x^k + 1, x^r + x^2 + x and
    x^r + x + 2, and the 66 such windows ``verify3.verify_prime`` takes at 63
    primes from 3 to 55441.  The sum pays 10 per index and 1 per term, or 1.5
    when some c_t is not 1 (a term then also takes a power of rho).  Each run
    of consecutive indices counts its n with g | n - e g_0 (notation of
    ``_sparse_window``) times the terms of the progression at its middle,
    from the bounds on k_2 that the sum uses; with 2 terms an index has at
    most one.  The Frobenius path pays 4 (r + 10) per product mod chi: about
    log2 p of them to reach the first run, then a step and a middle product
    per run.
    """
    e = p - 1
    g0, r = terms[0][0], terms[-1][0] - terms[0][0]
    cuts = [i for i in range(1, len(indices)) if indices[i] != indices[i - 1] + 1]
    sums = len(indices)
    if len(terms) == 3:
        d1 = terms[1][0] - g0
        g = gcd(d1, r)
        s, t = d1 // g, r // g
        sums = 0
        for i, j in zip([0] + cuts, cuts + [len(indices)]):
            n0, n1 = indices[i] - e * g0, indices[j - 1] - e * g0
            b = (n0 + n1) // 2 // g
            lo, hi = max(0, -((e * s - b) // (t - s))), min(e, b // t)
            sums += (n1 // g - (n0 - 1) // g) * max(0, (hi - lo) // s + 1)
    if any(c != 1 for _, c in terms):
        sums *= 1.5
    return 4 * (r + 10) * (p.bit_length() + 2 * len(cuts) + 2) < 10 * len(indices) + sums


def coeff_window(f: FpPoly, e: int, indices):
    """Selected coefficients of f^e, without materializing it when possible.

    Three paths, chosen from f, e and the indices:
      - e = p-1 and f with 2 or 3 terms, when the cost model of
        ``_frobenius_cheaper`` says so: the series 1/g read by recurrence
        jumps (``_frobenius_window``);
      - other f with at most 3 terms and e < p: the multinomial sweep
        (``_sparse_window``);
      - any other f^e: dense expansion by ``poly_pow``.
    """
    indices = list(indices)
    if any(i < 0 for i in indices):
        raise ValueError("indices must be nonnegative")
    if e == 0:
        return [1 if i == 0 else 0 for i in indices]
    if f.is_zero() or not indices:
        return [0] * len(indices)
    terms = f.monomials()
    p = f.ctx.p
    if e == p - 1 and 2 <= len(terms) <= 3 and _frobenius_cheaper(terms, p, sorted(indices)):
        return _frobenius_window(f, indices)
    if len(terms) <= 3 and e < p:
        return _sparse_window(f, e, indices)
    g = poly_pow(f, e)
    return [g.coeff(n) for n in indices]


def m_exponents(p: int, d: int, cols=None):
    """The exponents ip+j-d-1 of M_d(f^e) = ([x^{ip+j-d-1}] f^e)_{1<=i,j<=d},
    row by row, over the columns j in ``cols`` (1..d by default)."""
    cols = range(1, d + 1) if cols is None else cols
    return [i * p + j - d - 1 for i in range(1, d + 1) for j in cols]


def sylvester_rows(fd, gd, zero=0):
    """Rows of the Sylvester matrix of F and G from their descending
    coefficient lists fd and gd: deg G shifted copies of fd, then deg F of gd,
    padded with ``zero``."""
    m, n = len(fd) - 1, len(gd) - 1
    return ([[zero] * i + fd + [zero] * (n - 1 - i) for i in range(n)]
            + [[zero] * i + gd + [zero] * (m - 1 - i) for i in range(m)])


def resultant(F: FpPoly, G: FpPoly) -> int:
    """Res(F, G) by Euclidean iteration over F_p."""
    if F.is_zero() or G.is_zero():
        raise ValueError("resultant needs nonzero polynomials")
    p = F.ctx.p
    res = 1
    while True:
        m, n = F.degree, G.degree
        if n == 0:
            return res * pow(G.coeffs[0], m, p) % p
        if m < n:
            F, G = G, F
            if m * n % 2:
                res = (-res) % p
            continue
        _, R = divmod_poly(F, G)
        if R.is_zero():
            return 0
        res = res * pow(G.lead(), m - R.degree, p) % p
        if m * n % 2:
            res = (-res) % p
        F, G = G, R


def bezout_rows(F: FpPoly, G: FpPoly):
    """Rows of the Bezout matrix of F and G, the coefficients of
    (F(x)G(y) - F(y)G(x)) / (x - y) in the monomial basis, unreduced."""
    dim = max(F.degree, G.degree)
    if dim < 1:
        raise ValueError("bezout_rows needs max degree >= 1")
    rows = [[0] * dim for _ in range(dim)]
    # (x^i y^j - x^j y^i)/(x - y) = sum_t x^{j+t} y^{i-1-t}, t = 0..i-j-1 (i > j).
    for i in range(dim + 1):
        fi, gi = F.coeff(i), G.coeff(i)
        for j in range(i):
            w = fi * G.coeff(j) - F.coeff(j) * gi
            for t in range(i - j):
                rows[j + t][i - 1 - t] += w
    return rows


def discriminant(f: FpPoly) -> int:
    """Discriminant of f of degree m >= 2, for every p.

    Res_{m,m-1}(f, f') = (-1)^{m(m-1)/2} lc(f) Delta(f) holds over Z, so
    also mod p.  It takes f' at formal degree m-1; when p | m, f' has lower
    degree k, and expanding the Sylvester determinant along its first column
    gives Res_{m,m-1}(f, f') = lc(f)^{m-1-k} Res(f, f').
    """
    m = f.degree
    if m < 2:
        raise ValueError("discriminant needs degree >= 2")
    p = f.ctx.p
    fp = f.derivative()
    if fp.is_zero():
        return 0
    sign = -1 if (m * (m - 1) // 2) % 2 else 1
    return sign * resultant(f, fp) * pow(f.lead(), m - 2 - fp.degree, p) % p


XR_MINUS_1 = "XR_MINUS_1"
XR_MINUS_X = "XR_MINUS_X"


def special_discriminant(kind: str, r: int, ctx: PrimeCtx) -> int:
    """Closed-form discriminants of x^r-1 and x^r-x."""
    if r < 2:
        raise ValueError("r must be >= 2")
    p = ctx.p
    if kind == XR_MINUS_1:
        sign = -1 if ((r - 1) * (r - 2) // 2) % 2 else 1
        return sign * pow(r, r, p) % p
    if kind == XR_MINUS_X:
        sign = -1 if ((r + 1) * (r + 2) // 2) % 2 else 1
        return sign * pow(r - 1, r - 1, p) % p
    raise ValueError(f"unknown kind {kind!r}")


def trinomial_discriminant(ctx: PrimeCtx, n: int, m: int, a: int, b: int) -> int:
    """Discriminant of x^n + a x^m + b (0 < m < n) mod p.

    Closed form over Z, reduced mod p: with d = gcd(n, m), N = n/d, M = m/d,
        disc = (-1)^{n(n-1)/2} b^{m-1}
               * (n^N b^{N-M} - (-1)^N (n-m)^{N-M} m^M a^N)^d.
    """
    if not 0 < m < n:
        raise ValueError("need 0 < m < n")
    p = ctx.p
    d = gcd(n, m)
    N, M = n // d, m // d
    core = (
        pow(n, N, p) * pow(b, N - M, p)
        - (-1) ** (N % 2) * pow(n - m, N - M, p) * pow(m, M, p) * pow(a, N, p)
    ) % p
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return sign * pow(b, m - 1, p) % p * pow(core, d, p) % p
