"""Reference arithmetic for the benchmark's output checks.

Nothing here imports discdet: coefficients of f^e are multinomial sums taken
with ``math.comb`` and reduced mod p, determinants come from a separate
Gaussian elimination, and discriminants from a Sylvester matrix.  It is slow
on purpose (plain big-integer binomials), so the benchmark applies it to a
seeded subset of each run's outputs.
"""

from math import comb


def binom_mod(n, k, p):
    """C(n, k) mod p; 0 outside 0 <= k <= n."""
    return comb(n, k) % p if 0 <= k <= n else 0


def power_coeff(terms, e, n, p):
    """[x^n] (sum c x^g)^e mod p for one to three (g, c) terms, g distinct."""
    terms = sorted(terms)
    if not 1 <= len(terms) <= 3:
        raise ValueError("reference expansion takes one to three terms")
    if len(terms) == 1:
        (g, c), = terms
        return pow(c, e, p) if n == e * g else 0
    if len(terms) == 2:
        (g0, c0), (g1, c1) = terms
        k, rest = divmod(n - e * g0, g1 - g0)
        if rest or not 0 <= k <= e:
            return 0
        return binom_mod(e, k, p) * pow(c0, e - k, p) * pow(c1, k, p) % p
    (g0, c0), (g1, c1), (g2, c2) = terms
    total = 0
    for k2 in range(e + 1):
        k1, rest = divmod(n - e * g0 - k2 * (g2 - g0), g1 - g0)
        if k1 < 0:
            break
        if rest or k1 + k2 > e:
            continue
        k0 = e - k1 - k2
        total += (
            comb(e, k2) * comb(e - k2, k1)
            * pow(c0, k0, p) * pow(c1, k1, p) * pow(c2, k2, p)
        )
    return total % p


def m_rows(coeff, d, p):
    """Rows of M_d: entry (i, j) = coeff(i p + j - d - 1), 1-based i, j."""
    return [[coeff(i * p + j - d - 1) for j in range(1, d + 1)] for i in range(1, d + 1)]


def det_mod(rows, p):
    """Determinant mod p by row reduction with row swaps."""
    a = [[x % p for x in row] for row in rows]
    n = len(a)
    out = 1
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c]), None)
        if piv is None:
            return 0
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            out = -out
        out = out * a[c][c] % p
        inv = pow(a[c][c], -1, p)
        for i in range(c + 1, n):
            f = a[i][c] * inv % p
            if f:
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[c])]
    return out % p


def matmul_mod(a, b, p):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) % p for col in cols] for row in a]


def poly_power(coeffs, e, p):
    """Ascending coefficients of f^e mod p by e schoolbook multiplications."""
    out = [1]
    for _ in range(e):
        nxt = [0] * (len(out) + len(coeffs) - 1)
        for i, x in enumerate(out):
            if x:
                for j, y in enumerate(coeffs):
                    nxt[i + j] += x * y
        out = [x % p for x in nxt]
    return out


def discriminant(coeffs, p):
    """Delta(f) = (-1)^{m(m-1)/2} Res(f, f') / lc(f) via the Sylvester matrix.

    coeffs are ascending; the leading one must be nonzero mod p and p must
    not divide the degree m.
    """
    m = len(coeffs) - 1
    if m < 2 or coeffs[-1] % p == 0 or m % p == 0:
        raise ValueError("need degree >= 2, a unit leading coefficient and p not dividing it")
    desc = list(reversed(coeffs))
    ddesc = [(m - i) * c for i, c in enumerate(desc[:-1])]
    size = 2 * m - 1
    rows = [[0] * i + desc + [0] * (size - m - 1 - i) for i in range(m - 1)]
    rows += [[0] * i + ddesc + [0] * (size - m - i) for i in range(m)]
    sign = -1 if m * (m - 1) // 2 % 2 else 1
    return sign * det_mod(rows, p) * pow(desc[0], -1, p) % p


def half_g(p, r, e, d):
    """g/2 for g = (r e d - d(d+1)(p-1)/2) / (r(r-1)/2); g must be even."""
    num = 2 * r * e * d - d * (d + 1) * (p - 1)
    g, rest = divmod(num, r * (r - 1))
    if rest or g % 2:
        raise ValueError(f"g is not an even integer at p={p}, (r,e,d)=({r},{e},{d})")
    return g // 2


def sparse_det(p, e, d, terms):
    """det M_d(f^e) mod p for f = sum c x^g given as (g, c) pairs."""
    return det_mod(m_rows(lambda n: power_coeff(terms, e, n, p), d, p), p)


def dense_coeffs(terms):
    out = [0] * (max(g for g, _ in terms) + 1)
    for g, c in terms:
        out[g] += c
    return out


def eps0(p, r, e, d):
    """det M_d((x^r-1)^e) / Delta(x^r-1)^{g/2}, both computed directly."""
    xr1 = [(0, -1), (r, 1)]
    delta = discriminant(dense_coeffs(xr1), p)
    return sparse_det(p, e, d, xr1) * pow(delta, -half_g(p, r, e, d), p) % p


def identity_holds(p, r, e, d, terms, eps):
    """det M_d(f^e) == eps * Delta(f)^{g/2}, all computed directly."""
    delta = discriminant(dense_coeffs(terms), p)
    return sparse_det(p, e, d, terms) == eps * pow(delta, half_g(p, r, e, d), p) % p


def xr_minus_x(r):
    return [(1, -1), (r, 1)]


def t1_passes(p, r, e, d):
    """The T1 decision: does x^r - x satisfy the identity with scalar eps0?"""
    return identity_holds(p, r, e, d, xr_minus_x(r), eps0(p, r, e, d))


def in_B(p, r, e, d):
    """Membership in B+ / B0 / B- by the paper's defining inequalities."""
    window = 2 * e > p - 1 and e <= p - 1
    return r >= 2 and (
        (r <= p and e == p - 1 and d == r)
        or (r <= p + 1 and window and r * (p - 1 - e) <= p - 1 and d == r - 1)
        or (window and r * (p - 1 - e) == p - 1 and d == r - 2)
    )


def c1_candidates(p):
    """C_1(p) \\ B(p): (r, s + (r-1) l, 1) for r | p-1, 2 <= r < p, 1 <= l <= s."""
    out = []
    for r in range(2, p):
        if (p - 1) % r:
            continue
        s = (p - 1) // r
        out += [(r, s + (r - 1) * l, 1) for l in range(1, s + 1)
                if not in_B(p, r, s + (r - 1) * l, 1)]
    return out
