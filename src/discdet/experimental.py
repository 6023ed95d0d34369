"""Checkers for two conjectural determinant/coefficient ratio identities.

The first relates det M_d(f^e) to det M_{d_hat}(f^{e_hat}) across the
involution e_hat = (p-1)-e, d_hat = (r-1)-d on the window E(p).  The second
relates the central coefficient G^e(A) of a product of powers of linear
forms to the same coefficient for the adjugate matrix.  Both are checked
numerically; neither is proved.
"""

from dataclasses import dataclass

from .ff import PrimeCtx, binom
from .fpmat import FpMatrix, det, m_matrix
from .poly import FpPoly, discriminant
from .sets import Triple
from .symbolic import MultiPoly, ScaleRefusal, det_bareiss, exact_div, m_entries

GLYNN_SCALE_LIMIT = 10**7


class SingularDenominator(ArithmeticError):
    """det M_{d_hat}(f^{e_hat}) = 0; resample f."""


class NonInvertibleBase(ArithmeticError):
    """A base raised to a negative power is 0 mod p."""


class SingularA(ArithmeticError):
    pass


def hat(t: Triple) -> Triple:
    """The involution (r, e, d) -> (r, p-1-e, r-1-d) of E(p)."""
    return Triple(t.ctx, t.r, t.p - 1 - t.e, t.r - 1 - t.d)


def in_E(ctx: PrimeCtx, r: int, e: int, d: int) -> bool:
    p = ctx.p
    return (
        r >= 2
        and 0 <= e <= p - 1
        and 0 <= d <= r - 1
        and d <= p
        and r - 1 - d <= p
        and d * (p - 1) <= r * e <= (d + 1) * (p - 1)
    )


def enumerate_E(ctx: PrimeCtx, r_max: int):
    """All (r, e, d) in the E(p) window with r <= r_max, lexicographic."""
    if r_max < 2:
        raise ValueError("need r_max >= 2")
    return [
        Triple(ctx, r, e, d)
        for r in range(2, r_max + 1)
        for e in range(ctx.p)
        for d in range(r)
        if in_E(ctx, r, e, d)
    ]


def _det_m(f: FpPoly, e: int, d: int) -> int:
    return 1 if d == 0 else det(m_matrix(f, e, d))


def check_equality1(t: Triple, f: FpPoly) -> dict:
    """det M_d(f^e) / det M_{d_hat}(f^{e_hat}) = eps * s0^a * delta^b.

    Here a = d(p-1)-(r-1)e, b = e-(p-1)/2, eps is the explicit sign and
    factorial scalar, and s0 is the leading coefficient of f.  Checked
    multiplied through so negative exponents never require an inversion.
    """
    p, r, e, d = t.p, t.r, t.e, t.d
    if p == 2:
        raise ValueError("p = 2 is excluded: (p-1)/2 is not an integer")
    if f.degree != r:
        raise ValueError(f"f must have degree {r} (s0 != 0)")
    s0 = f.lead()
    a = d * (p - 1) - (r - 1) * e
    b = e - (p - 1) // 2
    delta = discriminant(f)
    if delta == 0 and b != 0:
        raise NonInvertibleBase("discriminant is 0 but appears to a nonzero power")

    lhs = _det_m(f, e, d)
    th = hat(t)
    rhs_det = _det_m(f, th.e, th.d)
    if rhs_det == 0:
        raise SingularDenominator(f"det M_{th.d}(f^{th.e}) = 0")

    sign = r * (r + 1) // 2 * (1 + e) + (r + 1) * d
    eps = t.ctx.fact[(d + 1) * (p - 1) - r * e] * pow(t.ctx.fact[e], r, p) % p
    if sign % 2:
        eps = (-eps) % p

    left = lhs * pow(s0, max(0, -a), p) % p * pow(delta, max(0, -b), p) % p
    right = eps * rhs_det % p * pow(s0, max(0, a), p) % p * pow(delta, max(0, b), p) % p
    return {
        "holds": left == right,
        "det": lhs,
        "det_hat": rhs_det,
        "eps": eps,
        "s0_exponent": a,
        "delta_exponent": b,
        "delta": delta,
    }


# -- symbolic-in-s0 structure of det M_d(f^e) --------------------------------

def det_poly_in_s0(ctx: PrimeCtx, r: int, e: int, d: int, tail) -> MultiPoly:
    """det M_d(f^e) as a polynomial in s0, with f = s0 x^r + tail.

    tail = [s1, ..., sr] gives the lower coefficients (s1 multiplies
    x^{r-1} and so on); they are fixed residues, only s0 stays symbolic.
    """
    if len(tail) != r:
        raise ValueError(f"tail must have length {r}")
    if d == 0:
        return MultiPoly.constant(ctx, 1, 1)
    ascending = [MultiPoly.constant(ctx, 1, tail[r - 1 - i]) for i in range(r)]
    ascending.append(MultiPoly.variable(ctx, 1, 0))
    return det_bareiss(m_entries(ascending, e, d))


def disc_poly_in_s0(ctx: PrimeCtx, r: int, tail) -> MultiPoly:
    """Discriminant of s0 x^r + tail as a polynomial in s0.

    The Sylvester rows take the derivative at formal degree r-1, so the
    result also holds when p | r.
    """
    if len(tail) != r:
        raise ValueError(f"tail must have length {r}")
    zero = MultiPoly(ctx, 1)
    fdesc = [MultiPoly.variable(ctx, 1, 0)] + [
        MultiPoly.constant(ctx, 1, s) for s in tail
    ]
    ddesc = [fdesc[i].scale(r - i) for i in range(r)]  # derivative, descending
    size = 2 * r - 1
    rows = []
    for i in range(r - 1):
        rows.append([zero] * i + fdesc + [zero] * (size - i - r - 1))
    for i in range(r):
        rows.append([zero] * i + ddesc + [zero] * (size - i - r))
    res = det_bareiss(rows)
    if res.is_zero():
        return res
    quot = exact_div(res, MultiPoly.variable(ctx, 1, 0))
    return quot if (r * (r - 1) // 2) % 2 == 0 else -quot


def s0_valuation(mp: MultiPoly) -> int:
    """Order of vanishing at s0 = 0; the polynomial must be nonzero."""
    if mp.is_zero():
        raise ValueError("zero polynomial has no finite valuation")
    return min(m[0] for m in mp.terms)


def adic_valuation(mp: MultiPoly, divisor: MultiPoly) -> int:
    """Largest v with divisor^v dividing mp exactly."""
    if mp.is_zero():
        raise ValueError("zero polynomial has no finite valuation")
    if divisor.total_degree() < 1:
        raise ValueError("valuation needs a non-unit divisor")
    v = 0
    while True:
        try:
            mp = exact_div(mp, divisor)
        except ValueError:
            return v
        v += 1


def check_s0_structure(ctx: PrimeCtx, r: int, e: int, d: int, tail) -> dict:
    """Valuation and specialization behaviour of det M_d(f^e) at s0 = 0.

    Divisibility by s0^{max(0, d(p-1)-(r-1)e)} and by Delta^{max(0, e-(p-1)/2)}
    holds for every specialization of s1..sr; the valuations are EXACT only
    for generic tails, so ``s0_exact``/``delta_exact`` may be False for
    unlucky tails (callers wanting exactness resample for a witness).  Also
    checks the two recursions relating the specialized determinant to
    f1 = s1 x^{r-1} + ... + sr; requires s1 != 0 so f1 has degree r-1.
    """
    p = ctx.p
    if not in_E(ctx, r, e, d):
        raise ValueError(f"({r},{e},{d}) not in E({p})")
    if tail[0] % p == 0:
        raise ValueError("need s1 != 0")
    dp = det_poly_in_s0(ctx, r, e, d, tail)
    if dp.is_zero():
        # the generic determinant is nonzero; this tail is degenerate
        return {"degenerate": True, "holds": None}
    out = {"degenerate": False}
    a = d * (p - 1) - (r - 1) * e
    val = s0_valuation(dp)
    out["s0_expected"] = max(0, a)
    out["s0_valuation"] = val
    out["s0_divisible"] = val >= max(0, a)
    out["s0_exact"] = val == max(0, a)
    if p > 2 and r % p != 0:
        disc = disc_poly_in_s0(ctx, r, tail)
        # a constant (unit) specialization carries no valuation information
        if disc.total_degree() >= 1:
            b = max(0, e - (p - 1) // 2)
            dval = adic_valuation(dp, disc)
            out["delta_expected"] = b
            out["delta_valuation"] = dval
            out["delta_divisible"] = dval >= b
            out["delta_exact"] = dval == b
    f1 = FpPoly(ctx, list(reversed(tail)))
    if in_E(ctx, r - 1, e, d - 1) and a >= 0:
        # coefficient of s0^a, evaluated against the shrunken determinant
        lead = dp.terms.get((a,), 0)
        m = r * e - d * (p - 1)
        rhs = (
            binom(ctx, e, m)
            * pow(tail[0] % p, m, p)
            * _det_m(f1, e, d - 1)
            % p
        )
        if (d - 1) % 2:
            rhs = (-rhs) % p
        out["recursive1_holds"] = lead == rhs
    if in_E(ctx, r - 1, e, d) and a <= 0:
        const = dp.terms.get((0,), 0)
        out["recursive2_holds"] = const == _det_m(f1, e, d)
    out["holds"] = all(
        v for k, v in out.items()
        if k.endswith("_holds") or k.endswith("_divisible")
    )
    return out


# -- Glynn coefficients and the second equality ------------------------------

@dataclass(frozen=True)
class CoeffQuery:
    A: FpMatrix
    e: int

    def __post_init__(self):
        if self.A.rows != self.A.cols or self.A.rows < 1:
            raise ValueError("A must be square, size >= 1")
        if not 0 <= self.e <= self.A.ctx.p - 1:
            raise ValueError("need 0 <= e <= p-1")


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def glynn_coeff(q: CoeffQuery) -> int:
    """Coefficient of prod_j X_j^e in prod_i (sum_j a_ij X_j)^e."""
    A, e = q.A, q.e
    ctx = A.ctx
    p = ctx.p
    r = A.rows
    if (e + 1) ** r > GLYNN_SCALE_LIMIT:
        raise ScaleRefusal(f"(e+1)^r = {(e + 1) ** r} exceeds {GLYNN_SCALE_LIMIT}")
    if e == 0:
        return 1
    acc = {(0,) * r: 1}
    for i in range(r):
        arow = A.row(i)
        row_pow = {}
        for ks in _compositions(e, r):
            c = ctx.fact[e]
            for j, kj in enumerate(ks):
                c = c * ctx.inv_fact[kj] % p * pow(arow[j], kj, p) % p
            if c:
                row_pow[ks] = c
        nxt = {}
        for m1, c1 in acc.items():
            for m2, c2 in row_pow.items():
                mono = tuple(x + y for x, y in zip(m1, m2))
                if any(x > e for x in mono):
                    continue
                v = (nxt.get(mono, 0) + c1 * c2) % p
                if v:
                    nxt[mono] = v
                else:
                    nxt.pop(mono, None)
        acc = nxt
    return acc.get((e,) * r, 0)


def check_glynn_theorem(A: FpMatrix) -> dict:
    """G^{p-1}(A) = det(A)^{p-1} (i.e. 0 or 1)."""
    p = A.ctx.p
    lhs = glynn_coeff(CoeffQuery(A, p - 1))
    rhs = pow(det(A), p - 1, p)
    return {"holds": lhs == rhs, "lhs": lhs, "rhs": rhs}


def adjugate(A: FpMatrix) -> FpMatrix:
    """Cofactor-transpose adjugate: A @ adjugate(A) = det(A) * I."""
    n = A.rows
    if n != A.cols:
        raise ValueError("adjugate needs a square matrix")
    if n == 1:
        return FpMatrix(A.ctx, 1, 1, [1])
    rows = A.to_rows()
    out = [0] * (n * n)
    for i in range(n):
        for j in range(n):
            minor = [
                [rows[ii][jj] for jj in range(n) if jj != j]
                for ii in range(n) if ii != i
            ]
            c = det(FpMatrix.from_rows(A.ctx, minor))
            out[j * n + i] = -c if (i + j) % 2 else c
    return FpMatrix(A.ctx, n, n, out)


def check_equality2(q: CoeffQuery) -> dict:
    """G^e(A) / G^{e_hat}(adjugate A) = det(A)^{p-1-r*e_hat}, e_hat = p-1-e.

    When the denominator coefficient vanishes the case is reported via
    ``zero_denominator`` instead of being counted as a failure.
    """
    A, e = q.A, q.e
    p = A.ctx.p
    r = A.rows
    dA = det(A)
    if dA == 0:
        raise SingularA("det A = 0")
    e_hat = p - 1 - e
    g_num = glynn_coeff(q)
    g_den = glynn_coeff(CoeffQuery(adjugate(A), e_hat))
    out = {"num": g_num, "den": g_den, "zero_denominator": g_den == 0}
    if g_den == 0:
        out["holds"] = None
        return out
    t = p - 1 - r * e_hat
    power = pow(dA if t >= 0 else A.ctx.inv(dA), abs(t), p)
    out["holds"] = g_num == g_den * power % p
    return out
