"""Sparse multivariate polynomials over F_p and a division-free determinant.

Used to check the determinant identity det M_d(f^e) = eps * delta^g as an
exact polynomial identity in the roots x_1..x_r at desk scale, and to track
single-variable (s_0-adic) valuations in the experimental checks.
"""

from operator import mul

from .ff import PrimeCtx
from .poly import m_exponents
from .sets import epsilon, g_exponent, in_B


class ScaleRefusal(ValueError):
    """Desk-scale guard tripped; symbolic blowup is super-exponential."""


def check_desk_scale(p: int, r: int):
    """Raise ScaleRefusal beyond the desk scale of the Theorem 1 check."""
    if r > 5 or p > 7:
        raise ScaleRefusal(f"desk scale is r <= 5, p <= 7; got p = {p}, r = {r}")


def _grlex_key(mono):
    return (sum(mono), mono)


def _top_exponent(terms) -> int:
    """Largest exponent in any monomial of terms; 0 when there is none."""
    return max((a for mono in terms for a in mono), default=0)


class MultiPoly:
    """Map from exponent tuples to nonzero residues; graded lex ordering."""

    __slots__ = ("ctx", "nvars", "terms")

    def __init__(self, ctx: PrimeCtx, nvars: int, terms=None):
        self.ctx = ctx
        self.nvars = nvars
        t = {}
        if terms:
            p = ctx.p
            for mono, c in terms.items():
                c %= p
                if c:
                    t[mono] = c
        self.terms = t

    @classmethod
    def constant(cls, ctx, nvars, c):
        return cls(ctx, nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, ctx, nvars, i):
        mono = tuple(1 if j == i else 0 for j in range(nvars))
        return cls(ctx, nvars, {mono: 1})

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return (
            isinstance(other, MultiPoly)
            and self.ctx.p == other.ctx.p
            and self.terms == other.terms
        )

    def __add__(self, other):
        out = dict(self.terms)
        p = self.ctx.p
        for mono, c in other.terms.items():
            v = (out.get(mono, 0) + c) % p
            if v:
                out[mono] = v
            else:
                out.pop(mono, None)
        res = MultiPoly(self.ctx, self.nvars)
        res.terms = out
        return res

    def __neg__(self):
        p = self.ctx.p
        res = MultiPoly(self.ctx, self.nvars)
        res.terms = {m: p - c for m, c in self.terms.items()}
        return res

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        p, nv = self.ctx.p, self.nvars
        # Monomials packed as the digits of one int in base B: no digit of a
        # product reaches B, so multiplying monomials is adding keys, no carry.
        base = _top_exponent(self.terms) + _top_exponent(other.terms) + 1
        weights = [base**i for i in range(nv)]
        right = [(sum(map(mul, m, weights)), c) for m, c in other.terms.items()]
        out = {}
        get = out.get
        for m1, c1 in self.terms.items():
            k1 = sum(map(mul, m1, weights))
            for k2, c2 in right:
                k = k1 + k2
                out[k] = get(k, 0) + c1 * c2
        terms = {}
        for k, c in out.items():
            c %= p
            if c:
                terms[tuple([k // w % base for w in weights])] = c
        res = MultiPoly(self.ctx, nv)
        res.terms = terms
        return res

    def scale(self, c: int):
        c %= self.ctx.p
        res = MultiPoly(self.ctx, self.nvars)
        if c:
            res.terms = {m: v * c % self.ctx.p for m, v in self.terms.items()}
        return res

    def __pow__(self, e: int):
        # e products by self, no squaring: a product costs one key sum per pair of terms.
        if e < 0:
            raise ValueError("exponent must be nonnegative")
        result = MultiPoly.constant(self.ctx, self.nvars, 1)
        for _ in range(e):
            result = result * self
        return result

    def lead(self):
        """(monomial, coefficient) maximal in graded lex."""
        mono = max(self.terms, key=_grlex_key)
        return mono, self.terms[mono]

    def evaluate(self, point) -> int:
        p = self.ctx.p
        out = 0
        for mono, c in self.terms.items():
            v = c
            for x, a in zip(point, mono):
                if a:
                    v = v * pow(x, a, p) % p
            out = (out + v) % p
        return out

    def total_degree(self) -> int:
        return max((sum(m) for m in self.terms), default=-1)

    def __repr__(self):
        items = sorted(self.terms.items(), key=lambda kv: _grlex_key(kv[0]), reverse=True)
        return f"MultiPoly(p={self.ctx.p}, {items})"


def exact_div(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """f / g when g divides f exactly; raises ValueError otherwise."""
    if g.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    p = f.ctx.p
    quot = {}
    rem = f
    gm, gc = g.lead()
    gc_inv = pow(gc, -1, p)
    while not rem.is_zero():
        rm, rc = rem.lead()
        mono = tuple(a - b for a, b in zip(rm, gm))
        if any(a < 0 for a in mono):
            raise ValueError("not an exact multiple")
        c = rc * gc_inv % p
        quot[mono] = c
        piece = MultiPoly(f.ctx, f.nvars, {mono: c})
        rem = rem - piece * g
    return MultiPoly(f.ctx, f.nvars, quot)


def det_bareiss(entries) -> MultiPoly:
    """Exact determinant of a square array of MultiPoly by expansion by minors
    over column subsets: row by row, minor[S] is the determinant of the rows
    done so far on the columns in bitmask S. At most n*2^(n-1) products, no
    pivot search and no division."""
    # Named for the elimination it replaced; the benchmark's tracer hooks it.
    n = len(entries)
    if n == 0 or any(len(row) != n for row in entries):
        raise ValueError("non-empty square array required")
    ctx, nv = entries[0][0].ctx, entries[0][0].nvars
    minors = {0: MultiPoly.constant(ctx, nv, 1)}
    for row in entries:
        grown = {}
        for cols, minor in minors.items():
            for c, a in enumerate(row):
                if cols >> c & 1 or a.is_zero():
                    continue
                term = a * minor
                if (cols >> c).bit_count() & 1:  # odd number of columns above c
                    term = -term
                key = cols | 1 << c
                grown[key] = grown[key] + term if key in grown else term
        minors = {cols: m for cols, m in grown.items() if not m.is_zero()}
    return minors.get((1 << n) - 1, MultiPoly(ctx, nv))


def delta_power(r: int, g: int, ctx: PrimeCtx) -> MultiPoly:
    """prod_{i<j} (x_i - x_j)^g."""
    if g < 0:
        raise ValueError("need g >= 0")
    delta = MultiPoly.constant(ctx, r, 1)
    for i in range(r):
        for j in range(i + 1, r):
            delta = delta * (
                MultiPoly.variable(ctx, r, i) - MultiPoly.variable(ctx, r, j)
            )
    return delta ** g


def m_entries(F: MultiPoly, e: int, d: int):
    """Entries of M_d(f^e), row by row, for f = F with x its last variable:
    entry (i, j) is [x^{ip+j-d-1}] F^e (1-based), a MultiPoly in the others."""
    by_degree = {}
    for mono, c in (F ** e).terms.items():
        by_degree.setdefault(mono[-1], {})[mono[:-1]] = c
    nv = F.nvars - 1
    flat = [MultiPoly(F.ctx, nv, by_degree.get(n)) for n in m_exponents(F.ctx.p, d)]
    return [flat[i:i + d] for i in range(0, d * d, d)]


def symbolic_m_matrix(r: int, e: int, d: int, ctx: PrimeCtx):
    """Entries of M_d(f^e) for f = prod (x - x_i), as MultiPoly in the roots."""
    x = MultiPoly.variable(ctx, r + 1, r)
    f = MultiPoly.constant(ctx, r + 1, 1)
    for i in range(r):
        f = f * (x - MultiPoly.variable(ctx, r + 1, i))
    return m_entries(f, e, d)


def theorem1_check(t) -> dict:
    """Exact polynomial identity det M_d(f^e) = eps * delta^g in the roots."""
    if in_B(t) is None:
        raise ValueError(f"{t} is not in B")
    check_desk_scale(t.p, t.r)
    g = 2 * t.e - (t.p - 1)
    if g_exponent(t) != g:
        raise ArithmeticError(f"g on the B member {t} is not 2e - (p-1) = {g}")
    eps = epsilon(t)
    lhs = det_bareiss(symbolic_m_matrix(t.r, t.e, t.d, t.ctx))
    rhs = delta_power(t.r, g, t.ctx).scale(eps)
    return {"holds": lhs == rhs, "lhs": lhs, "rhs": rhs, "eps": eps, "g": g}
