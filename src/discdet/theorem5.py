"""Structured matrices behind the update formula for M_d(f^e)^{-1} M_d(f^{e+1}).

For (r, e, r-1) and (r, e+1, r-1) both in the B0 family, the quotient
matrix factors as B_r Q_r Z_{r,n} P_r where B_r is a reversed Bezout matrix
of f' and f - (1/r) x f', Q_r / P_r are unit triangular matrices of power
series coefficients beta_l(lambda) = [t^l] phi(t)^lambda, and Z is diagonal
in zeta_i = n / (rn - (r - i)) with n = p - 1 - e.
"""

from fractions import Fraction
from functools import cached_property
from operator import mul

from .ff import PrimeCtx, rational_mod_p
from .poly import FpPoly, bezout_matrix, discriminant, poly_pow
# inverse stays imported: perfbench/tracer.py hooks it by this name
from .fpmat import FpMatrix, Singular, det, inverse, m_matrix, solve  # noqa: F401
from .sets import Triple, in_B, B_ZERO

SPEC_TRIES = 100  # random f drawn by random_spec before it gives up


class IndexTooLarge(ValueError):
    pass


class SingularM(ArithmeticError):
    pass


class StructuredSpec:
    def __init__(self, ctx: PrimeCtx, r: int, e: int, f: FpPoly):
        if in_B(Triple(ctx, r, e, r - 1)) != B_ZERO or in_B(Triple(ctx, r, e + 1, r - 1)) != B_ZERO:
            raise ValueError(f"(r={r}, e={e}) and e+1 must both be B0 at p={ctx.p}")
        if f.degree != r or f.lead() != 1:
            raise ValueError("f must be monic of degree r")
        self.ctx, self.r, self.e, self.f = ctx, r, e, f

    @property
    def p(self) -> int:
        return self.ctx.p

    @property
    def n(self) -> int:
        return self.p - 1 - self.e

    @property
    def d(self) -> int:
        return self.r - 1

    def s(self, i: int) -> int:
        """s_i = coefficient of x^{r-i}; zero outside 0..r."""
        return self.s_padded[i + self.r] if 0 <= i <= self.r else 0

    # Derived once per spec; every check reads them from here.
    @cached_property
    def s_padded(self) -> list:
        """s_{-r}..s_{2r}: s_i at position i + r, zero outside 0..r."""
        return [0] * self.r + self.f.coeffs[::-1] + [0] * self.r

    @cached_property
    def L(self) -> FpMatrix:
        """The d x (r+d) window [x^{ip+j-2r}] f^e, from one expansion of f^e."""
        fe, r, d, p = poly_pow(self.f, self.e), self.r, self.d, self.p
        indices = (i * p + j - 2 * r for i in range(1, d + 1) for j in range(1, r + d + 1))
        return FpMatrix(self.ctx, d, r + d, [fe.coeff(n) for n in indices])

    @cached_property
    def Me(self) -> FpMatrix:
        """M_d(f^e): the last d columns of L, as ip+j-d-1 = ip+(r+j)-2r."""
        return self.L.submatrix(0, self.d, self.r, self.r + self.d)

    @cached_property
    def Me1(self) -> FpMatrix:
        """M_d(f^{e+1})."""
        return m_matrix(self.f, self.e + 1, self.d)

    @cached_property
    def quotient(self) -> FpMatrix:
        """M_d(f^e)^{-1} M_d(f^{e+1}); raises SingularM when det M_d(f^e) = 0."""
        try:
            return solve(self.Me, self.Me1)
        except Singular:
            raise SingularM("det M_d(f^e) = 0; resample f") from None

    @cached_property
    def factors(self):
        """(B, Q, Z, P), as built by build_PQZB."""
        return build_PQZB(self)


def admissible_pairs(ctx: PrimeCtx):
    """(r, e) with both (r, e, r-1) and (r, e+1, r-1) in B0."""
    p = ctx.p
    out = []
    for r in range(2, p):
        for e in range((p - 1) // 2 + 1, p - 1):
            if r * (p - 1 - e) <= p - 1:
                out.append((r, e))
    return out


def beta_coeffs(ctx: PrimeCtx, s, lam_mod: int, max_l: int):
    """beta_0..beta_max of phi^lambda, phi = 1 + s_1 t + ... + s_r t^r.

    Recurrence from phi * (phi^lam)' = lam * phi' * phi^lam:
        k beta_k = sum_{j=1..min(k,r)} ((lam+1) j - k) s_j beta_{k-j}.
    """
    p = ctx.p
    if max_l >= p:
        raise IndexTooLarge(f"recurrence divides by k; need l < p = {p}")
    r = len(s) - 1
    fact, inv_fact = ctx.fact, ctx.inv_fact
    s1 = s[1:]
    js = [j * c for j, c in enumerate(s1, 1)]
    lam1 = lam_mod + 1
    beta = [1]
    for k in range(1, max_l + 1):
        back = beta[:k - 1 - r:-1] if k > r else beta[::-1]  # beta_{k-1} .. beta_{max(k-r, 0)}
        acc = lam1 * sum(map(mul, js, back)) - k * sum(map(mul, s1, back))
        beta.append(acc % p * inv_fact[k] * fact[k - 1] % p)  # 1/k = (k-1)!/k!
    return beta


def beta(spec: StructuredSpec, l: int, lam: Fraction) -> int:
    s = [spec.s(i) for i in range(spec.r + 1)]
    return beta_coeffs(spec.ctx, s, rational_mod_p(spec.ctx, Fraction(lam)), l)[l]


def _beta_rows(ctx: PrimeCtx, s, lams, m: int):
    """beta_0..beta_{m-1} of phi^lam for each lam, one row per lam."""
    return [beta_coeffs(ctx, s, rational_mod_p(ctx, lam), m - 1) for lam in lams]


def _p_of(ctx: PrimeCtx, tab) -> FpMatrix:
    """Entry (i, j) = tab[i][i-j]: row i holds the beta row of lam_i."""
    m = len(tab)
    return FpMatrix.from_rows(ctx, [[tab[i][i - j] if i >= j else 0 for j in range(m)] for i in range(m)])


def _q_of(ctx: PrimeCtx, tab) -> FpMatrix:
    """Entry (i, j) = tab[j][i-j]: column j holds the beta row of mu_j."""
    m = len(tab)
    return FpMatrix.from_rows(ctx, [[tab[j][i - j] if i >= j else 0 for j in range(m)] for i in range(m)])


def p_matrix(ctx: PrimeCtx, s, lams) -> FpMatrix:
    """P(lam_1..lam_m): entry (i, j) = beta_{i-j}(lam_i)."""
    return _p_of(ctx, _beta_rows(ctx, s, lams, len(lams)))


def q_matrix(ctx: PrimeCtx, s, mus) -> FpMatrix:
    """Q(mu_1..mu_m): entry (i, j) = beta_{i-j}(mu_j)."""
    return _q_of(ctx, _beta_rows(ctx, s, mus, len(mus)))


def u_matrix(ctx: PrimeCtx, s, lam, m: int) -> FpMatrix:
    """P(lam, .., lam), whose m rows share one beta row."""
    return _p_of(ctx, _beta_rows(ctx, s, [lam], m) * m)


def s_matrix(ctx: PrimeCtx, coeffs, m: int) -> FpMatrix:
    """Lower-triangular Toeplitz S_m(psi) from the first m series coefficients."""
    rows = [
        [coeffs[i - j] if 0 <= i - j < len(coeffs) else 0 for j in range(m)]
        for i in range(m)
    ]
    return FpMatrix.from_rows(ctx, rows)


def series_inverse(ctx: PrimeCtx, phi, m: int):
    """First m coefficients of 1/phi for phi with phi[0] != 0."""
    p = ctx.p
    inv0 = pow(phi[0], p - 2, p)
    out = [inv0] + [0] * (m - 1)
    for k in range(1, m):
        acc = 0
        for j in range(1, min(k, len(phi) - 1) + 1):
            acc += phi[j] * out[k - j]
        out[k] = (-acc * inv0) % p
    return out


def psi_series(ctx: PrimeCtx, s, m: int):
    """First m coefficients of r - t phi'(t)/phi(t)."""
    r = len(s) - 1
    p = ctx.p
    num = [(r - j) * s[j] % p for j in range(r + 1)]  # r*phi - t*phi'
    inv = series_inverse(ctx, s, m)
    out = [0] * m
    for i in range(m):
        acc = 0
        for j in range(0, min(i, r) + 1):
            acc += num[j] * inv[i - j]
        out[i] = acc % p
    return out


def _zeta(spec: StructuredSpec, m: int):
    """zeta_1..zeta_m, zeta_i = n / (rn - (r - i))."""
    ctx, r, n = spec.ctx, spec.r, spec.n
    return [rational_mod_p(ctx, Fraction(n, r * n - (r - i))) for i in range(1, m + 1)]


def build_PQZB(spec: StructuredSpec):
    """The four (r-1) x (r-1) factors B_r, Q_r, Z_{r,n}, P_r.

    Q takes lambda = -j/r (j = 1..d) by columns and P takes -(r-i)/r
    (i = 1..d) by rows: the same d values, so each beta row is computed once.
    """
    ctx, r, d = spec.ctx, spec.r, spec.d
    p = ctx.p
    s = [spec.s(i) for i in range(r + 1)]
    fp = spec.f.derivative()
    # f - (1/r) x f'
    inv_r = pow(r % p, p - 2, p)
    g = spec.f - FpPoly(ctx, [0] + [c * inv_r % p for c in fp.coeffs])
    B = FpMatrix.from_rows(ctx, bezout_matrix(fp, g).to_rows()[::-1])
    tab = _beta_rows(ctx, s, [Fraction(-j, r) for j in range(1, d + 1)], d)
    return B, _q_of(ctx, tab), FpMatrix.identity(ctx, d).scale_rows(_zeta(spec, d)), _p_of(ctx, tab[::-1])


def check_theorem5(spec: StructuredSpec) -> dict:
    """Compare M_d(f^e)^{-1} M_d(f^{e+1}) with B_r Q_r Z_{r,n} P_r entrywise.

    Z is diagonal, so Z P is P with its rows scaled.
    """
    lhs = spec.quotient
    B, Q, Z, P = spec.factors
    rhs = B @ Q @ P.scale_rows([Z[i, i] for i in range(Z.rows)])
    return {"holds": lhs == rhs, "lhs": lhs, "rhs": rhs}


def build_LVR(spec: StructuredSpec):
    """L (d x (r+d)), V ((r+d) x d), R ((r+d) x r) of the elimination route."""
    ctx, r, d, p, n = spec.ctx, spec.r, spec.d, spec.p, spec.n
    s = spec.s_padded  # s_{i-j} at i - j + r
    V = FpMatrix.from_rows(
        ctx, [[s[i - j + r] for j in range(1, d + 1)] for i in range(1, r + d + 1)]
    )
    R = FpMatrix.from_rows(
        ctx,
        [
            [
                (n * (r - i + j) - (r - j)) * s[i - j + r] % p
                for j in range(1, r + 1)
            ]
            for i in range(1, r + d + 1)
        ],
    )
    return spec.L, V, R


def claimed_r1_inverse(spec: StructuredSpec) -> FpMatrix:
    """(1/n) Q((r-1)/r..0/r) diag(zeta_1..zeta_r) P(-(2r-1)/r..-r/r)."""
    ctx, r, n = spec.ctx, spec.r, spec.n
    s = [spec.s(i) for i in range(r + 1)]
    Q = q_matrix(ctx, s, [Fraction(r - j, r) for j in range(1, r + 1)])
    P = p_matrix(ctx, s, [Fraction(-(2 * r - i), r) for i in range(1, r + 1)])
    n_inv = pow(n % ctx.p, ctx.p - 2, ctx.p)
    return Q @ P.scale_rows([z * n_inv for z in _zeta(spec, r)])


def r_um(spec: StructuredSpec) -> FpMatrix:
    """R^u reduced modulo the zeta ideal: s_{i-j} off the last column,
    (1 - (i-r)/r) s_{i-r} in column r."""
    ctx, r, d, p = spec.ctx, spec.r, spec.d, spec.p
    s = spec.s_padded  # s_{i-j} at i - j + r
    inv_r = pow(r % p, p - 2, p)
    rows = []
    for i in range(1, r + d + 1):
        row = [s[i - j + r] for j in range(1, r)]
        row.append((1 - (i - r) * inv_r) * s[i] % p)
        rows.append(row)
    return FpMatrix.from_rows(ctx, rows)


def formula_br_lhs(spec: StructuredSpec) -> FpMatrix:
    """The three-term expression claimed to equal B_r."""
    ctx, r, p = spec.ctx, spec.r, spec.p
    m = r - 1
    # s_k at k + r. The s_k outside 0..r are zero, which makes s_{i-j} lower
    # and s_{r-j+i} upper triangular.
    s = spec.s_padded
    lower = [[s[r + i - j] for j in range(m)] for i in range(m)]
    upper = [[s[2 * r - j + i] for j in range(m)] for i in range(m)]
    A1 = FpMatrix.from_rows(
        ctx, [[(j - i) * upper[i][j] % p for j in range(m)] for i in range(m)]
    )
    A2 = FpMatrix.from_rows(ctx, lower)
    A3 = FpMatrix.from_rows(ctx, upper)
    A4 = FpMatrix.from_rows(
        ctx, [[(r - i + j) * lower[i][j] % p for j in range(m)] for i in range(m)]
    )
    col = FpMatrix(ctx, m, 1, [(r - i) * s[r + i] % p for i in range(1, r)])
    row = FpMatrix(ctx, 1, m, [(r - j) * s[2 * r - j] % p for j in range(1, r)])
    inv_r = pow(r % p, p - 2, p)
    return (A3 @ A4) - (A1 @ A2) - (col @ row).scale(inv_r)


def check_aux_lemmas(spec: StructuredSpec) -> dict:
    """Numeric checks of the elimination-route identities; keyed by name."""
    ctx, r, d = spec.ctx, spec.r, spec.d
    L, V, R = build_LVR(spec)
    report = {}
    report["LV=M_next"] = (L @ V) == spec.Me1
    report["LR=0"] = (L @ R) == FpMatrix(ctx, d, r, [0] * (d * r))
    R1 = R.submatrix(0, r, 0, r)
    R2 = R.submatrix(r, r + d, 0, r)
    R1inv = claimed_r1_inverse(spec)
    report["R1_inverse"] = (R1 @ R1inv) == FpMatrix.identity(ctx, r)
    report["formula_Br"] = formula_br_lhs(spec) == spec.factors[0]
    # R2 R1^{-1} and its reduction below, each as a solve on the transposes
    quot = solve(R1.transpose(), R2.transpose()).transpose()
    bracket_row = quot.scale(-1).hstack(FpMatrix.identity(ctx, d))
    report["bracket_V=quotient"] = (bracket_row @ V) == spec.quotient
    # Reduction modulo the zeta ideal.
    Rum = r_um(spec)
    R1um = Rum.submatrix(0, r, 0, r)
    R2um = Rum.submatrix(r, r + d, 0, r)
    quot_um = solve(R1um.transpose(), R2um.transpose()).transpose()
    report["um_bracket_V=0"] = (
        quot_um.scale(-1).hstack(FpMatrix.identity(ctx, d)) @ V
    ) == FpMatrix(ctx, d, d, [0] * (d * d))
    diff = quot - quot_um
    report["um_last_column_0"] = all(
        diff[(i, r - 1)] == 0 for i in range(d)
    )
    report["holds"] = all(v for kk, v in report.items() if kk != "holds")
    return report


def det_br_identity(spec: StructuredSpec) -> bool:
    """det B_r = (-1)^{r(r-1)/2} (1/r) Delta(f)."""
    B = spec.factors[0]
    p, r = spec.p, spec.r
    sign = -1 if (r * (r - 1) // 2) % 2 else 1
    want = sign * pow(r % p, p - 2, p) * discriminant(spec.f) % p
    return det(B) == want


def random_spec(ctx: PrimeCtx, r: int, e: int, rng) -> StructuredSpec:
    """Monic f with Delta(f) != 0 and det M_{r-1}(f^e) != 0."""
    p = ctx.p
    for _ in range(SPEC_TRIES):
        f = FpPoly(ctx, [rng.randrange(p) for _ in range(r)] + [1])
        if discriminant(f) == 0:
            continue
        spec = StructuredSpec(ctx, r, e, f)
        try:
            spec.quotient
        except SingularM:
            continue
        return spec
    raise SingularM(f"no admissible f found in {SPEC_TRIES} tries at p={p}, r={r}, e={e}")
