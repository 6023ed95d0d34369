import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from discdet.ff import prime_ctx, rational_mod_p
from discdet.fpmat import FpMatrix, det, inverse, m_matrix
from discdet.poly import FpPoly, discriminant, monomial_sum
from discdet import theorem5
from discdet.theorem5 import (
    SingularM,
    StructuredSpec,
    admissible_pairs,
    beta,
    beta_coeffs,
    build_PQZB,
    check_aux_lemmas,
    check_theorem5,
    det_br_identity,
    p_matrix,
    psi_series,
    q_matrix,
    random_spec,
    s_matrix,
    u_matrix,
)


def make_spec(p, r, e, coeffs):
    """coeffs = [c1..cr] for monic x^r + c1 x^{r-1} + ... + cr."""
    ctx = prime_ctx(p)
    f = FpPoly(ctx, list(reversed(coeffs)) + [1])
    return StructuredSpec(ctx, r, e, f)


def test_admissible_pairs_examples():
    assert (3, 4) in admissible_pairs(prime_ctx(7))
    assert (2, 3) in admissible_pairs(prime_ctx(5))
    # e = p-1 never admissible: e+1 leaves the exponent window
    for r, e in admissible_pairs(prime_ctx(13)):
        assert e < 12 and 2 <= r < 13


def test_spec_validation():
    with pytest.raises(ValueError):
        make_spec(7, 3, 6, [0, 0, 6])  # (3,7,2) invalid
    spec = make_spec(7, 3, 4, [0, 0, 6])  # f = x^3 - 1
    assert spec.n == 2 and spec.d == 2


def test_beta_basics():
    spec = make_spec(7, 3, 4, [1, 2, 3])
    assert beta(spec, 0, Fraction(5)) == 1
    for l in range(1, 4):
        assert beta(spec, l, Fraction(1)) == spec.s(l)


def test_beta_binomial_series():
    # phi = 1 + t: beta_l(lambda) = C(lambda, l); lambda = -1/2 = 3 mod 7
    ctx = prime_ctx(7)
    out = beta_coeffs(ctx, [1, 1], rational_mod_p(ctx, Fraction(-1, 2)), 2)
    lam = 3
    assert out[1] == lam % 7
    assert out[2] == lam * (lam - 1) // 2 % 7 if lam * (lam - 1) % 2 == 0 else True


def test_beta_matches_integer_powers():
    # for integer lambda >= 0, phi^lambda is a plain polynomial power
    from discdet.poly import poly_pow

    ctx = prime_ctx(13)
    rng = random.Random(0)
    for _ in range(10):
        s = [1] + [rng.randrange(13) for _ in range(3)]
        lam = rng.randrange(5)
        phi = FpPoly(ctx, s)
        ref = poly_pow(phi, lam)
        got = beta_coeffs(ctx, s, lam, 6)
        assert got == [ref.coeff(i) for i in range(7)]


def test_z_entries_pinned():
    spec = make_spec(7, 3, 4, [0, 0, 6])
    _, _, Z, _ = build_PQZB(spec)
    assert Z[0, 0] == 4 and Z[1, 1] == 6
    assert Z[0, 1] == 0 and Z[1, 0] == 0


def test_pq_unit_lower_triangular():
    spec = make_spec(13, 4, 10, [1, 5, 2, 7])
    _, Q, _, P = build_PQZB(spec)
    for M in (P, Q):
        for i in range(3):
            assert M[i, i] == 1
            for j in range(i + 1, 3):
                assert M[i, j] == 0


def test_det_br_identity():
    rng = random.Random(1)
    for p, r, e in ((7, 3, 4), (13, 4, 10), (11, 2, 7)):
        for _ in range(5):
            spec = random_spec(prime_ctx(p), r, e, rng)
            assert det_br_identity(spec)


def test_check_theorem5_pinned_cases():
    assert check_theorem5(make_spec(7, 3, 4, [0, 0, 6]))["holds"]
    assert check_theorem5(make_spec(5, 2, 3, [1, 1]))["holds"]
    for e in (6, 7, 8):
        if (2, e) in admissible_pairs(prime_ctx(11)):
            assert check_theorem5(make_spec(11, 2, e, [1, 1]))["holds"]


def test_check_aux_lemmas_pinned_cases():
    rep = check_aux_lemmas(make_spec(7, 3, 4, [0, 0, 6]))
    assert rep["holds"] and all(rep.values())
    rng = random.Random(2)
    spec = random_spec(prime_ctx(13), 4, 10, rng)
    rep = check_aux_lemmas(spec)
    assert rep["holds"], rep


def test_spec_derives_its_matrices_once(monkeypatch):
    # random_spec and both checks share one expansion of f^e (L, with M_d(f^e)
    # as its last d columns), one M_d(f^{e+1}) and one solve against M_d(f^e),
    # and no inverse of it.
    built, powered, solved, inverted = [], [], [], []
    real_m, real_pow = theorem5.m_matrix, theorem5.poly_pow
    real_solve, real_inverse = theorem5.solve, theorem5.inverse

    def counting_m(f, e, d):
        built.append((f, e, d))
        return real_m(f, e, d)

    def counting_pow(f, e):
        powered.append((f, e))
        return real_pow(f, e)

    def counting_solve(M, B):
        solved.append(M)
        return real_solve(M, B)

    def counting_inverse(M):
        inverted.append(M)
        return real_inverse(M)

    monkeypatch.setattr(theorem5, "m_matrix", counting_m)
    monkeypatch.setattr(theorem5, "poly_pow", counting_pow)
    monkeypatch.setattr(theorem5, "solve", counting_solve)
    monkeypatch.setattr(theorem5, "inverse", counting_inverse)
    spec = random_spec(prime_ctx(13), 4, 10, random.Random(2))
    assert check_theorem5(spec)["holds"]
    assert check_aux_lemmas(spec)["holds"]
    assert [(e, d) for f, e, d in built if f == spec.f] == [(11, 3)]
    assert [e for f, e in powered if f == spec.f] == [10]
    assert sum(M == spec.Me for M in solved) == 1
    assert not any(M == spec.Me for M in inverted)


def test_beta_rows_taken_once_per_lambda(monkeypatch):
    # Q (lambda = -j/r) and P (lambda = -(r-i)/r) of build_PQZB share their
    # d beta rows, and the m equal rows of u_matrix are one beta row
    calls = []
    real = theorem5.beta_coeffs

    def counting(ctx, s, lam_mod, max_l):
        calls.append(lam_mod)
        return real(ctx, s, lam_mod, max_l)

    monkeypatch.setattr(theorem5, "beta_coeffs", counting)
    spec = random_spec(prime_ctx(23), 6, 19, random.Random(3))
    B, Q, Z, P = build_PQZB(spec)
    assert len(calls) == spec.d == len(set(calls))
    s = [spec.s(i) for i in range(spec.r + 1)]
    d = spec.d
    assert Q == q_matrix(spec.ctx, s, [Fraction(-j, spec.r) for j in range(1, d + 1)])
    assert P == p_matrix(spec.ctx, s, [Fraction(-(spec.r - i), spec.r) for i in range(1, d + 1)])
    calls.clear()
    U = u_matrix(spec.ctx, s, Fraction(2, 5), 7)
    assert len(calls) == 1
    assert U == p_matrix(spec.ctx, s, [Fraction(2, 5)] * 7)


def test_zeta_scaling_matches_dense_products():
    # check_theorem5 and claimed_r1_inverse scale by zeta instead of taking a
    # dense product with diag(zeta); both give the dense products' entries
    rng = random.Random(4)
    for p, r, e in ((7, 3, 4), (13, 4, 10), (23, 6, 19), (11, 2, 7)):
        spec = random_spec(prime_ctx(p), r, e, rng)
        B, Q, Z, P = build_PQZB(spec)
        assert check_theorem5(spec)["rhs"] == B @ Q @ Z @ P
        ctx, n = spec.ctx, spec.n
        zeta = [rational_mod_p(ctx, Fraction(n, r * n - (r - i))) for i in range(1, r + 1)]
        Zr = FpMatrix(ctx, r, r, [zeta[i] if i == j else 0 for i in range(r) for j in range(r)])
        s = [spec.s(i) for i in range(r + 1)]
        Qr = q_matrix(ctx, s, [Fraction(r - j, r) for j in range(1, r + 1)])
        Pr = p_matrix(ctx, s, [Fraction(-(2 * r - i), r) for i in range(1, r + 1)])
        want = (Qr @ Zr @ Pr).scale(pow(n, -1, p))
        assert theorem5.claimed_r1_inverse(spec) == want


@pytest.mark.parametrize("p", [5, 13, 23])
def test_me_read_from_l_matches_m_matrix(p):
    # M_d(f^e) taken from the window L equals an independent m_matrix build,
    # for a dense f and for x^r + x + 1 (m_matrix's sparse window)
    ctx = prime_ctx(p)
    rng = random.Random(p)
    for r, e in admissible_pairs(ctx):
        for f in (
            FpPoly(ctx, [rng.randrange(p) for _ in range(r)] + [1]),
            monomial_sum(ctx, [(r, 1), (1, 1), (0, 1)]),
        ):
            spec = StructuredSpec(ctx, r, e, f)
            assert spec.Me == m_matrix(f, e, spec.d), (r, e, f.coeffs)


def test_singular_m_raises_from_both_checks():
    spec = make_spec(7, 3, 4, [0, 0, 0])  # f = x^3: det M_2(f^4) = 0
    for check in (check_theorem5, check_aux_lemmas):
        with pytest.raises(SingularM):
            check(spec)


def test_formula_br_r2_reduces_to_scalar_bezout():
    # at r = 2 the expression is the 1x1 value 2 s2 - s1^2 / 2
    from discdet.theorem5 import formula_br_lhs

    for p in (5, 11, 13):
        ctx = prime_ctx(p)
        rng = random.Random(p)
        for _ in range(10):
            s1, s2 = rng.randrange(p), rng.randrange(p)
            e = next(e for r, e in admissible_pairs(ctx) if r == 2)
            f = FpPoly(ctx, [s2, s1, 1])
            try:
                spec = StructuredSpec(ctx, 2, e, f)
            except ValueError:
                continue
            want = (2 * s2 - s1 * s1 * pow(2, p - 2, p)) % p
            assert formula_br_lhs(spec)[0, 0] == want


def test_semigroup_laws():
    ctx = prime_ctx(31)
    rng = random.Random(3)
    m = 4
    for _ in range(10):
        s = [1] + [rng.randrange(31) for _ in range(3)]
        lam = Fraction(rng.randrange(1, 20), rng.randrange(1, 10))
        mu = Fraction(rng.randrange(1, 20), rng.randrange(1, 10))
        U1 = u_matrix(ctx, s, lam, m)
        U2 = u_matrix(ctx, s, mu, m)
        assert U1 @ U2 == u_matrix(ctx, s, lam + mu, m)
        assert u_matrix(ctx, s, Fraction(0), m) == FpMatrix.identity(ctx, m)
        # componentwise law {P Q}_{ij} = beta_{i-j}(lam_i + mu_j)
        lams = [Fraction(rng.randrange(1, 9), 2) for _ in range(m)]
        mus = [Fraction(rng.randrange(1, 9), 2) for _ in range(m)]
        PQ = p_matrix(ctx, s, lams) @ q_matrix(ctx, s, mus)
        for i in range(m):
            for j in range(m):
                want = (
                    beta_coeffs(ctx, s, rational_mod_p(ctx, lams[i] + mus[j]), m)[i - j]
                    if i >= j else 0
                )
                assert PQ[i, j] == want


def test_s_matrix_multiplicative():
    ctx = prime_ctx(31)
    rng = random.Random(4)
    m = 4
    for _ in range(10):
        a = [rng.randrange(1, 31)] + [rng.randrange(31) for _ in range(m - 1)]
        b = [rng.randrange(1, 31)] + [rng.randrange(31) for _ in range(m - 1)]
        prod = [
            sum(a[i] * b[k - i] for i in range(k + 1)) % 31 for k in range(m)
        ]
        assert s_matrix(ctx, a, m) @ s_matrix(ctx, b, m) == s_matrix(ctx, prod, m)
        assert s_matrix(ctx, [1], m) == FpMatrix.identity(ctx, m)


def test_s_of_phi_power_is_u():
    ctx = prime_ctx(13)
    s = [1, 3, 5, 2]
    for lam in (Fraction(2), Fraction(-1, 3), Fraction(5, 2)):
        m = 4
        coeffs = beta_coeffs(ctx, s, rational_mod_p(ctx, lam), m - 1)
        assert s_matrix(ctx, coeffs, m) == u_matrix(ctx, s, lam, m)


def test_using_res_identities():
    # P(-(r-1)/r..-(r-m)/r) S_m(r - t phi'/phi) Q((r-1)/r..(r-m)/r) = r I
    for p in (7, 13, 31):
        ctx = prime_ctx(p)
        rng = random.Random(p)
        for r in (2, 3, 4):
            s = [1] + [rng.randrange(p) for _ in range(r)]
            for m in range(1, r):
                lamsP = [Fraction(-(r - i), r) for i in range(1, m + 1)]
                lamsQ = [Fraction(r - j, r) for j in range(1, m + 1)]
                P = p_matrix(ctx, s, lamsP)
                Q = q_matrix(ctx, s, lamsQ)
                S = s_matrix(ctx, psi_series(ctx, s, m), m)
                assert P @ S @ Q == FpMatrix.identity(ctx, m).scale(r)
                D = FpMatrix(ctx, m, m, [
                    (r - 1 - i) if i == j else 0 for i in range(m) for j in range(m)
                ])
                assert P @ D @ Q == D


def test_full_sweep_p_le_13():
    rng = random.Random(5)
    for p in (5, 7, 11, 13):
        ctx = prime_ctx(p)
        for r, e in admissible_pairs(ctx):
            for _ in range(3):
                spec = random_spec(ctx, r, e, rng)
                assert check_theorem5(spec)["holds"], (p, r, e)
                assert check_aux_lemmas(spec)["holds"], (p, r, e)


def theorem5_digests():
    """sha256 per admissible (p, r, e), p <= 23, of f, the quotient, the
    right side B Q Z P, every check_aux_lemmas value and claimed_r1_inverse."""
    rng = random.Random(5)
    out = {}
    for p in (5, 7, 11, 13, 17, 19, 23):
        for r, e in admissible_pairs(prime_ctx(p)):
            spec = random_spec(prime_ctx(p), r, e, rng)
            main = check_theorem5(spec)
            aux = check_aux_lemmas(spec)
            assert main["holds"] and aux["holds"], (p, r, e)
            parts = (spec.f.coeffs, spec.quotient.data, main["rhs"].data,
                     sorted(aux.items()), theorem5.claimed_r1_inverse(spec).data)
            out[f"{p} {r} {e}"] = hashlib.sha256(repr(parts).encode()).hexdigest()
    return out


def test_theorem5_outputs_pinned():
    # Recorded before the products were packed and the inverses became
    # solves; "holds" compares two sides that share the same products, so
    # only the digests see a fault that hits both alike.
    path = Path(__file__).resolve().parent / "data" / "theorem5_sha256.json"
    with open(path) as fh:
        assert theorem5_digests() == json.load(fh)
