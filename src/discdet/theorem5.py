"""Structured matrices behind the update formula for M_d(f^e)^{-1} M_d(f^{e+1}).

For (r, e, r-1) and (r, e+1, r-1) both in the B0 family, the quotient
matrix factors as B_r Q_r Z_{r,n} P_r where B_r is a reversed Bezout matrix
of f' and f - (1/r) x f', Q_r / P_r are unit triangular matrices of power
series coefficients beta_l(lambda) = [t^l] phi(t)^lambda, and Z is diagonal
in zeta_i = n / (rn - (r - i)) with n = p - 1 - e.
"""

from functools import cached_property
from operator import mul

from .ff import PrimeCtx, rational_mod_p
from .poly import FpPoly, _mul, _pack, _slot, _unpack, bezout_rows, discriminant, m_exponents, poly_pow
# inverse is not called here; perfbench/tracer.py wraps it under this module's name.
from .fpmat import FpMatrix, Singular, det, inverse, m_matrix, solve  # noqa: F401
from .sets import b_span

SPEC_TRIES = 100  # random f drawn by random_spec before it gives up


class IndexTooLarge(ValueError):
    pass


class StructuredSpec:
    def __init__(self, ctx: PrimeCtx, r: int, e: int, f: FpPoly):
        if not _b0_pair(ctx, r, e):
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

    # Derived once per spec; every check reads them from here.
    @cached_property
    def s(self) -> list:
        """s_0..s_r: s_i is the coefficient of x^{r-i}."""
        return self.f.coeffs[::-1]

    @cached_property
    def s_padded(self) -> list:
        """s_{-r}..s_{2r}: s_i at position i + r, zero outside 0..r."""
        return [0] * self.r + self.s + [0] * self.r

    @cached_property
    def inv_r(self) -> int:
        """1/r in F_p."""
        return pow(self.r, -1, self.p)

    @cached_property
    def zeta(self) -> list:
        """zeta_1..zeta_r in F_p, zeta_i = n / (rn - (r - i))."""
        p, r, n = self.p, self.r, self.n
        return [n * pow(r * n - (r - i), -1, p) % p for i in range(1, r + 1)]

    @cached_property
    def beta(self) -> list:
        """beta_0..beta_{r-1} of phi^lambda at lambda = k/r, k = 1-2r..r-1, from
        one beta_coeffs call: beta[k] is the row of k/r (a negative k counts
        from the end).  Q and P of build_PQZB and claimed_r1_inverse read it."""
        r, inv_r, p = self.r, self.inv_r, self.p
        ks = list(range(r)) + list(range(1 - 2 * r, 0))
        return beta_coeffs(self.ctx, self.s, [k * inv_r % p for k in ks], r - 1)

    @cached_property
    def L(self) -> FpMatrix:
        """M_d(f^e)'s rows read r columns further left, d x (r+d), from one
        expansion of f^e."""
        fe, r, d = poly_pow(self.f, self.e), self.r, self.d
        indices = m_exponents(self.p, d, range(1 - r, d + 1))
        return FpMatrix(self.ctx, d, r + d, [fe.coeff(n) for n in indices])

    @cached_property
    def Me(self) -> FpMatrix:
        """M_d(f^e): the last d columns of L."""
        return self.L.submatrix(0, self.d, self.r, self.r + self.d)

    @cached_property
    def Me1(self) -> FpMatrix:
        """M_d(f^{e+1})."""
        return m_matrix(self.f, self.e + 1, self.d)

    @cached_property
    def quotient(self) -> FpMatrix:
        """M_d(f^e)^{-1} M_d(f^{e+1}); raises Singular when det M_d(f^e) = 0."""
        return solve(self.Me, self.Me1)

    @cached_property
    def factors(self):
        """(B, Q, Z, P), as built by build_PQZB."""
        return build_PQZB(self)


def _b0_pair(ctx: PrimeCtx, r: int, e: int) -> bool:
    """Both (r, e, r-1) and (r, e+1, r-1) in B0."""
    return e in b_span(ctx.p, r, r - 1)[:-1]


def admissible_pairs(ctx: PrimeCtx):
    """(r, e) with both (r, e, r-1) and (r, e+1, r-1) in B0, ascending."""
    p = ctx.p
    return [(r, e) for r in range(2, p + 2) for e in b_span(p, r, r - 1)[:-1]]


def beta_coeffs(ctx: PrimeCtx, s, lam_mods, max_l: int):
    """beta_0..beta_max of phi^lambda, phi = 1 + s_1 t + ... + s_r t^r, one row
    per residue lambda in lam_mods.

    Recurrence from phi * (phi^lam)' = lam * phi' * phi^lam:
        k beta_k = (lam+1) sum_j j s_j beta_{k-j} - k sum_j s_j beta_{k-j},
    j = 1..min(k, r).  It runs once for every lambda: beta_k over the lambdas
    is packed into one integer, a slot per lambda (as in FpMatrix.__matmul__),
    so each sum over j is one dot product of the packed steps.
    """
    p = ctx.p
    if max_l >= p:
        raise IndexTooLarge(f"recurrence divides by k; need l < p = {p}")
    r = len(s) - 1
    fact, inv_fact = ctx.fact, ctx.inv_fact
    s1 = [c % p for c in s[1:]]
    js = [j * c % p for j, c in enumerate(s1, 1)]
    lam1 = [lam + 1 for lam in lam_mods]
    m = len(lam1)
    slot = _slot(r * (p - 1) ** 2)
    step = [1] * m
    steps, packed = [step], [_pack(step, slot)]
    for k in range(1, max_l + 1):
        back = packed[:k - 1 - r:-1] if k > r else packed[::-1]  # beta_{k-1} .. beta_{max(k-r, 0)}
        wsum = _unpack(sum(map(mul, js, back)), m, slot)
        ssum = _unpack(sum(map(mul, s1, back)), m, slot)
        inv_k = inv_fact[k] * fact[k - 1] % p  # 1/k = (k-1)!/k!
        step = [(a * x - k * y) * inv_k % p for a, x, y in zip(lam1, wsum, ssum)]
        steps.append(step)
        packed.append(_pack(step, slot))
    return [list(row) for row in zip(*steps)]


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
    return _p_of(ctx, beta_coeffs(ctx, s, [rational_mod_p(ctx, lam) for lam in lams], len(lams) - 1))


def q_matrix(ctx: PrimeCtx, s, mus) -> FpMatrix:
    """Q(mu_1..mu_m): entry (i, j) = beta_{i-j}(mu_j)."""
    return _q_of(ctx, beta_coeffs(ctx, s, [rational_mod_p(ctx, mu) for mu in mus], len(mus) - 1))


def u_matrix(ctx: PrimeCtx, s, lam, m: int) -> FpMatrix:
    """P(lam, .., lam), whose m rows share one beta row."""
    return _p_of(ctx, beta_coeffs(ctx, s, [rational_mod_p(ctx, lam)], m - 1) * m)


def s_matrix(ctx: PrimeCtx, coeffs, m: int) -> FpMatrix:
    """Lower-triangular Toeplitz S_m(psi) from the first m series coefficients."""
    return _p_of(ctx, [list(coeffs[:m]) + [0] * (m - len(coeffs))] * m)


def psi_series(ctx: PrimeCtx, s, m: int):
    """First m coefficients of r - t phi'(t)/phi(t), for phi(0) = 1 and m <= p.

    1/phi is phi^lambda at lambda = -1; past m = p, IndexTooLarge.
    """
    r = len(s) - 1
    p = ctx.p
    num = [(r - j) * s[j] % p for j in range(r + 1)]  # r*phi - t*phi'
    return [c % p for c in _mul(num, beta_coeffs(ctx, s, [p - 1], m - 1)[0], p)[:m]]


def build_PQZB(spec: StructuredSpec):
    """The four (r-1) x (r-1) factors B_r, Q_r, Z_{r,n}, P_r.

    Q takes lambda = -j/r (j = 1..d) by columns and P takes -(r-i)/r
    (i = 1..d) by rows: the same d rows of the spec's beta table.
    """
    ctx, d, inv_r = spec.ctx, spec.d, spec.inv_r
    fp = spec.f.derivative()
    # f - (1/r) x f'
    g = spec.f - FpPoly(ctx, [0] + [c * inv_r for c in fp.coeffs])
    B = FpMatrix.from_rows(ctx, bezout_rows(fp, g)[::-1])
    tab = [spec.beta[-j] for j in range(1, d + 1)]
    return B, _q_of(ctx, tab), FpMatrix.identity(ctx, d).scale_rows(spec.zeta[:d]), _p_of(ctx, tab[::-1])


def check_theorem5(spec: StructuredSpec) -> dict:
    """Compare M_d(f^e)^{-1} M_d(f^{e+1}) with B_r Q_r Z_{r,n} P_r entrywise.

    Z is diagonal, so Z P is P with its rows scaled by zeta_1..zeta_d.
    """
    lhs = spec.quotient
    B, Q, _, P = spec.factors
    rhs = B @ Q @ P.scale_rows(spec.zeta[:spec.d])
    return {"holds": lhs == rhs, "lhs": lhs, "rhs": rhs}


def claimed_r1_inverse(spec: StructuredSpec) -> FpMatrix:
    """(1/n) Q((r-1)/r..0/r) diag(zeta_1..zeta_r) P(-(2r-1)/r..-r/r)."""
    ctx, r, beta = spec.ctx, spec.r, spec.beta
    Q = _q_of(ctx, [beta[r - j] for j in range(1, r + 1)])
    P = _p_of(ctx, [beta[i - 2 * r] for i in range(1, r + 1)])
    n_inv = pow(spec.n, -1, spec.p)
    return Q @ P.scale_rows([z * n_inv for z in spec.zeta])


def _band(spec: StructuredSpec, rows: int, cols: int, shift: int, weight=lambda i, j: 1) -> FpMatrix:
    """Entry (i, j) = weight(i, j) * s_{i-j+shift} (0-based), s_k = 0 outside 0..r;
    i - j + shift must lie in -r..2r, the span of s_padded."""
    s, r = spec.s_padded, spec.r  # s_k at k + r
    return FpMatrix(spec.ctx, rows, cols,
                    [weight(i, j) * s[i - j + shift + r] for i in range(rows) for j in range(cols)])


def formula_br_lhs(spec: StructuredSpec) -> FpMatrix:
    """The three-term expression claimed to equal B_r.

    lower = (s_{i-j}) and upper = (s_{r-j+i}) are triangular, as s_k = 0
    outside 0..r.
    """
    r, m = spec.r, spec.r - 1
    lower = _band(spec, m, m, 0)
    upper = _band(spec, m, m, r)
    A1 = _band(spec, m, m, r, lambda i, j: j - i)
    A4 = _band(spec, m, m, 0, lambda i, j: r - i + j)
    col = _band(spec, m, 1, 1, lambda i, j: r - 1 - i)  # (r-i) s_i, i = 1..r-1
    row = _band(spec, 1, m, r - 1, lambda i, j: r - 1 - j)  # (r-j) s_{r-j}, j = 1..r-1
    return (upper @ A4) - (A1 @ lower) - (col @ row).scale(spec.inv_r)


def check_aux_lemmas(spec: StructuredSpec) -> dict:
    """Numeric checks of the elimination-route identities; keyed by name.

    L is M_d(f^e) read r columns further left (d x (r+d)); V (r+d) x d holds
    s_{i-j} and R (r+d) x r holds (n(r-i+j) - (r-j)) s_{i-j} (1-based i, j).
    With V_t the top r rows of V and V_b its last d rows,
    [-R2 R1^{-1} | I] V = V_b - (R2 R1^{-1}) V_t.  R1^{-1} is the paper's
    closed form C = claimed_r1_inverse(spec); "R1_inverse" checks R1 C = I,
    which forces C = R1^{-1}, so "holds" means what it would with a computed
    inverse.  R^u's top r x r block is S_r(phi), inverted by U_r(-1), every
    row the lambda = -1 row beta[-r], so only R^u's last d rows are built.
    That row is also the last row of claimed_r1_inverse's P; as Q is unit
    triangular and every zeta_i and n nonzero, C = R1^{-1} fixes P, and so
    the row, for the Q read from the same table.
    """
    ctx, r, d, n, inv_r = spec.ctx, spec.r, spec.d, spec.n, spec.inv_r
    V = _band(spec, r + d, d, 0)
    R = _band(spec, r + d, r, 0, lambda i, j: n * (r - i + j) - (r - 1 - j))
    Vt, Vb = V.submatrix(0, r, 0, d), V.submatrix(r, r + d, 0, d)
    report = {}
    report["LV=M_next"] = (spec.L @ V) == spec.Me1
    report["LR=0"] = not any((spec.L @ R).data)
    C = claimed_r1_inverse(spec)
    report["R1_inverse"] = (R.submatrix(0, r, 0, r) @ C) == FpMatrix.identity(ctx, r)
    report["formula_Br"] = formula_br_lhs(spec) == spec.factors[0]
    quot = R.submatrix(r, r + d, 0, r) @ C
    report["bracket_V=quotient"] = (Vb - quot @ Vt) == spec.quotient
    # Reduction modulo the zeta ideal: R^u has s_{i-j} off its last column and
    # (1 - (i-r)/r) s_{i-r} in column r, which is e_r in the top block S_r(phi).
    R2u = _band(spec, d, r, r, lambda i, j: 1 if j < r - 1 else 1 - (i + 1) * inv_r)
    quot_um = R2u @ _p_of(ctx, [spec.beta[-r]] * r)
    report["um_bracket_V=0"] = (quot_um @ Vt) == Vb
    report["um_last_column_0"] = all(quot[i, r - 1] == quot_um[i, r - 1] for i in range(d))
    report["holds"] = all(v for kk, v in report.items() if kk != "holds")
    return report


def det_br_identity(spec: StructuredSpec) -> bool:
    """det B_r = (-1)^{r(r-1)/2} (1/r) Delta(f)."""
    B = spec.factors[0]
    p, r = spec.p, spec.r
    sign = -1 if (r * (r - 1) // 2) % 2 else 1
    want = sign * spec.inv_r * discriminant(spec.f) % p
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
        except Singular:
            continue
        return spec
    raise Singular(f"no admissible f found in {SPEC_TRIES} tries at p={p}, r={r}, e={e}")
