"""Dense univariate polynomial algebra over F_p.

Coefficients are stored ascending (index i = coefficient of x^i) with no
trailing zeros; the zero polynomial has an empty coefficient list.
"""

from math import gcd
from operator import mul

from .ff import PrimeCtx

# Below this length schoolbook multiplication wins; above it we pack the
# operands into big integers (Kronecker substitution) and let CPython's
# subquadratic integer multiply do the work.
_SCHOOLBOOK_CUTOFF = 64


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

    def __hash__(self):
        return hash((self.ctx.p, tuple(self.coeffs)))

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

    def __neg__(self):
        return FpPoly(self.ctx, [-a for a in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, int):
            return FpPoly(self.ctx, [a * other for a in self.coeffs])
        return _mul(self, other)

    __rmul__ = __mul__

    def __call__(self, x: int) -> int:
        acc = 0
        for a in reversed(self.coeffs):
            acc = (acc * x + a) % self.ctx.p
        return acc

    def derivative(self) -> "FpPoly":
        return FpPoly(self.ctx, [i * a for i, a in enumerate(self.coeffs)][1:])

    def shift(self, k: int) -> "FpPoly":
        """Multiply by x^k."""
        if not self.coeffs:
            return self
        return FpPoly(self.ctx, [0] * k + self.coeffs)

    def monomials(self):
        """Nonzero (exponent, coefficient) pairs, ascending."""
        return [(i, a) for i, a in enumerate(self.coeffs) if a]

    def __repr__(self):
        return f"FpPoly(p={self.ctx.p}, {self.coeffs})"


def monomial_sum(ctx: PrimeCtx, terms) -> FpPoly:
    """Build a polynomial from (exponent, coefficient) pairs."""
    if not terms:
        return FpPoly(ctx, [])
    out = [0] * (max(e for e, _ in terms) + 1)
    for e, c in terms:
        out[e] += c
    return FpPoly(ctx, out)


def _mul(a: FpPoly, b: FpPoly) -> FpPoly:
    if a.is_zero() or b.is_zero():
        return FpPoly(a.ctx, [])
    p = a.ctx.p
    la, lb = len(a.coeffs), len(b.coeffs)
    if min(la, lb) < _SCHOOLBOOK_CUTOFF:
        out = [0] * (la + lb - 1)
        if la > lb:
            a, b = b, a
        for i, ai in enumerate(a.coeffs):
            if ai:
                for j, bj in enumerate(b.coeffs):
                    out[i + j] += ai * bj
        return FpPoly(a.ctx, out)
    # Kronecker substitution: slot width covers min(la, lb) * (p-1)^2.
    bits = (min(la, lb) * (p - 1) * (p - 1)).bit_length() + 1
    na = sum(c << (bits * i) for i, c in enumerate(a.coeffs))
    nb = sum(c << (bits * i) for i, c in enumerate(b.coeffs))
    prod = na * nb
    mask = (1 << bits) - 1
    out = []
    for _ in range(la + lb - 1):
        out.append((prod & mask) % p)
        prod >>= bits
    return FpPoly(a.ctx, out)


def divmod_poly(a: FpPoly, b: FpPoly):
    """Quotient and remainder of a by b over F_p."""
    if b.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    p = a.ctx.p
    rem = list(a.coeffs)
    db = b.degree
    inv_lead = pow(b.lead(), p - 2, p)
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
    is then one sum over three strided slices of the c^k / k! tables.
    """
    ctx = f.ctx
    p = ctx.p
    if e >= p:
        raise ValueError("multinomial path needs e < p")
    terms = f.monomials()
    if len(terms) > 3:
        raise ValueError("multinomial path supports at most 3 terms")
    inv_fact = ctx.inv_fact
    # tables[i][k] = c_i^k / k!; a unit coefficient reuses inv_fact as is.
    tables = []
    for _, c in terms:
        if c == 1:
            tables.append(inv_fact)
            continue
        w, ck = [], 1
        for k in range(e + 1):
            w.append(ck * inv_fact[k] % p)
            ck = ck * c % p
        tables.append(w)
    fe = ctx.fact[e]
    g0 = terms[0][0]
    if len(terms) == 1:
        top = fe * tables[0][e] % p
        return [top if n == e * g0 else 0 for n in indices]
    out = []
    if len(terms) == 2:
        w0, w1 = tables
        d1 = terms[1][0] - g0
        for n in indices:
            k1, rem = divmod(n - e * g0, d1)
            out.append(fe * w0[e - k1] * w1[k1] % p if not rem and 0 <= k1 <= e else 0)
        return out
    w0, w1, w2 = tables
    d1, d2 = terms[1][0] - g0, terms[2][0] - g0
    g = gcd(d1, d2)
    s, t = d1 // g, d2 // g
    u = t - s
    t_inv = pow(t, -1, s)
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
        # map stops at the k2 slice, so k1's may run on down to k1 = 0.
        acc = sum(map(mul, map(mul, w0[k0:k0 + count * u:u], w1[k1::-t]),
                      w2[lo:hi + 1:s]))
        out.append(fe * acc % p)
    return out


def coeff_window(f: FpPoly, e: int, indices):
    """Selected coefficients of f^e, without materializing it when possible.

    f with at most 3 terms and e < p goes through the multinomial sweep;
    any other f^e is expanded densely.
    """
    indices = list(indices)
    if any(i < 0 for i in indices):
        raise ValueError("indices must be nonnegative")
    if e == 0:
        return [1 if i == 0 else 0 for i in indices]
    if f.is_zero():
        return [0] * len(indices)
    if len(f.monomials()) <= 3 and e < f.ctx.p:
        return _sparse_window(f, e, indices)
    g = poly_pow(f, e)
    return [g.coeff(n) for n in indices]


def sylvester(F: FpPoly, G: FpPoly):
    """Sylvester matrix of F and G; its determinant is Res(F, G)."""
    from .fpmat import FpMatrix

    if F.is_zero() or G.is_zero():
        raise ValueError("sylvester needs nonzero polynomials")
    m, n = F.degree, G.degree
    if m + n < 1:
        raise ValueError("need deg F + deg G >= 1")
    size = m + n
    data = [0] * (size * size)
    # Descending coefficient lists, as rows of the band matrix.
    fd = list(reversed(F.coeffs))
    gd = list(reversed(G.coeffs))
    for i in range(n):
        for j, c in enumerate(fd):
            data[i * size + i + j] = c
    for i in range(m):
        for j, c in enumerate(gd):
            data[(n + i) * size + i + j] = c
    return FpMatrix(F.ctx, size, size, data)


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


def bezout_matrix(F: FpPoly, G: FpPoly):
    """Bezout matrix: (F(x)G(y) - F(y)G(x)) / (x - y) in the monomial basis."""
    from .fpmat import FpMatrix

    dim = max(F.degree, G.degree)
    if dim < 1:
        raise ValueError("bezout_matrix needs max degree >= 1")
    p = F.ctx.p
    data = [0] * (dim * dim)
    # (x^i y^j - x^j y^i)/(x - y) = sum_t x^{j+t} y^{i-1-t}, t = 0..i-j-1 (i > j).
    for i in range(dim + 1):
        fi, gi = F.coeff(i), G.coeff(i)
        for j in range(i):
            w = (fi * G.coeff(j) - F.coeff(j) * gi) % p
            if w == 0:
                continue
            for t in range(i - j):
                row = j + t
                col = i - 1 - t
                data[row * dim + col] = (data[row * dim + col] + w) % p
    return FpMatrix(F.ctx, dim, dim, data)


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
XR_MINUS_X_MINUS_1 = "XR_MINUS_X_MINUS_1"
XR_MINUS_X = "XR_MINUS_X"


def special_discriminant(kind: str, r: int, ctx: PrimeCtx) -> int:
    """Closed-form discriminants of x^r-1, x^r-x-1 (p | r), x^r-x."""
    if r < 2:
        raise ValueError("r must be >= 2")
    p = ctx.p
    if kind == XR_MINUS_1:
        sign = -1 if ((r - 1) * (r - 2) // 2) % 2 else 1
        return sign * pow(r, r, p) % p
    if kind == XR_MINUS_X_MINUS_1:
        if r % p:
            raise ValueError("x^r - x - 1 closed form needs p | r")
        return (-1 if (r * (r + 1) // 2) % 2 else 1) % p
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
