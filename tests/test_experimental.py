import random
from itertools import product

import pytest

from discdet.experimental import (
    NonInvertibleBase,
    adic_valuation,
    check_equality1,
    check_equality2,
    check_glynn_theorem,
    check_s0_structure,
    det_poly_in_s0,
    disc_poly_in_s0,
    enumerate_E,
    glynn_coeff,
    hat,
    in_E,
    s0_valuation,
)
from discdet.ff import prime_ctx
from discdet.fpmat import FpMatrix, Singular, det
from discdet.poly import FpPoly
from discdet.sets import Triple
from discdet.symbolic import MultiPoly, ScaleRefusal


def rand_poly(ctx, r, rng):
    return FpPoly(
        ctx, [rng.randrange(ctx.p) for _ in range(r)] + [rng.randrange(1, ctx.p)]
    )


def checked_eq1(t, rng, tries=500):
    while tries:
        tries -= 1
        try:
            return check_equality1(t, rand_poly(t.ctx, t.r, rng))
        except (Singular, NonInvertibleBase):
            continue
    raise RuntimeError("no valid sample found")


def test_enumerate_E_window_example():
    ctx = prime_ctx(5)
    got = [t.as_tuple() for t in enumerate_E(ctx, 3) if t.r == 3]
    assert got == [(3, 0, 0), (3, 1, 0), (3, 2, 1), (3, 3, 2), (3, 4, 2)]


def test_hat_involution():
    for p in (3, 5, 11):
        ctx = prime_ctx(p)
        members = enumerate_E(ctx, 5)
        keys = {t.as_tuple() for t in members}
        for t in members:
            h = hat(t)
            assert h.as_tuple() in keys
            assert hat(h) == t
    assert hat(Triple(prime_ctx(5), 3, 1, 0)).as_tuple() == (3, 3, 2)


def test_equality1_self_dual_case():
    # e = (p-1)/2 with d = d_hat: both determinants coincide, ratio is eps = 1
    ctx = prime_ctx(5)
    t = Triple(ctx, 3, 2, 1)
    rng = random.Random(0)
    for _ in range(5):
        rep = checked_eq1(t, rng)
        assert rep["holds"] and rep["eps"] == 1 and rep["delta_exponent"] == 0


def test_equality1_reduces_to_theorem1():
    # (p=5, r=2, e=3, d=1) lies in B0; the ratio identity holds there
    ctx = prime_ctx(5)
    rng = random.Random(1)
    rep = checked_eq1(Triple(ctx, 2, 3, 1), rng)
    assert rep["holds"]


def test_equality1_sweep():
    rng = random.Random(2)
    for p in (3, 5, 7, 11, 13):
        ctx = prime_ctx(p)
        for t in enumerate_E(ctx, 4):
            for _ in range(3):
                assert checked_eq1(t, rng)["holds"], t


def test_equality1_checks_zero_discriminant_at_nonnegative_power():
    # f = x^2 has Delta = 0; at p = 7, b = e - 3
    ctx = prime_ctx(7)
    f = FpPoly(ctx, [0, 0, 1])
    rep = check_equality1(Triple(ctx, 2, 4, 1), f)  # b = 1: Delta^1 = 0
    assert rep["holds"] and rep["delta"] == 0 and rep["delta_exponent"] == 1
    assert check_equality1(Triple(ctx, 2, 3, 0), f)["holds"]  # b = 0
    with pytest.raises(NonInvertibleBase):
        check_equality1(Triple(ctx, 2, 0, 0), f)  # b = -3 needs 1/Delta


def test_equality1_refuses_before_the_numerator(monkeypatch):
    # det M_{d_hat}(f^{e_hat}) is taken first: a draw refused for a zero
    # denominator pays one determinant, a checked draw two
    from discdet import experimental

    calls = []
    real = experimental._det_m

    def counting(f, e, d):
        calls.append((e, d))
        return real(f, e, d)

    monkeypatch.setattr(experimental, "_det_m", counting)
    ctx = prime_ctx(7)
    f = FpPoly(ctx, [0, 1, 0, 0, 1])  # x^4 + x; hat(4, 2, 1) = (4, 4, 2)
    with pytest.raises(Singular):
        check_equality1(Triple(ctx, 4, 2, 1), f)
    assert calls == [(4, 2)]
    calls.clear()
    assert check_equality1(Triple(ctx, 4, 2, 1), FpPoly(ctx, [0, 1, 0, 1, 1]))["holds"]  # x^4 + x^3 + x
    assert calls == [(4, 2), (2, 1)]


def test_equality1_rejects_p2():
    with pytest.raises(ValueError):
        check_equality1(
            Triple(prime_ctx(2), 2, 1, 0), FpPoly(prime_ctx(2), [1, 1, 1])
        )


def test_s0_structure_witnesses():
    rng = random.Random(3)
    for p in (3, 5, 7):
        ctx = prime_ctx(p)
        for r in (2, 3, 4):
            if r % p == 0:
                continue
            for e in range(p):
                for d in range(r):
                    if not in_E(ctx, r, e, d):
                        continue
                    s0_exact = delta_exact = False
                    for _ in range(8):
                        tail = [rng.randrange(1, p)] + [
                            rng.randrange(p) for _ in range(r - 1)
                        ]
                        rep = check_s0_structure(ctx, r, e, d, tail)
                        if rep.get("degenerate"):
                            continue
                        assert rep["holds"], (p, r, e, d, tail, rep)
                        s0_exact = s0_exact or rep["s0_exact"]
                        delta_exact = delta_exact or rep.get("delta_exact", True)
                    assert s0_exact and delta_exact, (p, r, e, d)


def test_det_poly_in_s0_specializes():
    from discdet.fpmat import m_matrix

    ctx = prime_ctx(7)
    r, tail = 3, [2, 0, 5]
    # at e = 4 the d = 3 determinant is the zero polynomial, at e = 6 it is not
    for e, d in product((4, 6), (1, 2, 3)):
        dp = det_poly_in_s0(ctx, r, e, d, tail)
        assert dp.nvars == 1 and dp.is_zero() == ((e, d) == (4, 3))
        for s0 in range(1, 7):
            f = FpPoly(ctx, list(reversed(tail)) + [s0])
            assert dp.evaluate([s0]) == det(m_matrix(f, e, d)), (e, d, s0)


def test_disc_poly_in_s0_specializes():
    from discdet.poly import discriminant

    # p = 3, r = 3 takes discriminant's p | deg f branch
    for p, tail in ((11, [3, 1, 7]), (3, [1, 2, 1])):
        ctx = prime_ctx(p)
        dpoly = disc_poly_in_s0(ctx, 3, tail)
        for s0 in range(1, p):
            f = FpPoly(ctx, list(reversed(tail)) + [s0])
            assert dpoly.evaluate([s0]) == discriminant(f)


def test_valuation_helpers():
    ctx = prime_ctx(5)
    x = MultiPoly.variable(ctx, 1, 0)
    one = MultiPoly.constant(ctx, 1, 1)
    f = x * x * (x + one)
    assert s0_valuation(f) == 2
    assert adic_valuation(f, x) == 2
    assert adic_valuation(f, x + one) == 1
    with pytest.raises(ValueError):
        adic_valuation(f, one)


def test_glynn_coeff_examples():
    ctx3 = prime_ctx(3)
    # coefficient of X^2 Y^2 in ((X+Y)(X+2Y))^2 mod 3
    assert glynn_coeff(FpMatrix(ctx3, 2, 2, [1, 1, 1, 2]), 2) == 1
    # r = 1: G^e([a]) = a^e
    ctx7 = prime_ctx(7)
    assert glynn_coeff(FpMatrix(ctx7, 1, 1, [3]), 4) == pow(3, 4, 7)
    # e = 1: the permanent
    A = FpMatrix(ctx7, 2, 2, [2, 3, 4, 5])
    assert glynn_coeff(A, 1) == (2 * 5 + 3 * 4) % 7


def test_glynn_coeff_matches_multipoly_expansion():
    # oracle: expand prod_i (sum_j a_ij X_j)^e and read [prod_j X_j^e]
    rng = random.Random(16)
    cases = nonzero = 0
    for p, r_max in ((2, 4), (3, 4), (5, 4), (7, 4), (11, 3)):
        ctx = prime_ctx(p)
        for r in range(1, r_max + 1):
            xs = [MultiPoly.variable(ctx, r, j) for j in range(r)]
            for shape in ("random", "random", "zero row", "repeated row"):
                rows = [[rng.randrange(p) for _ in range(r)] for _ in range(r)]
                if shape == "zero row":
                    rows[-1] = [0] * r
                elif shape == "repeated row" and r >= 2:
                    rows[-1] = rows[0]
                A = FpMatrix.from_rows(ctx, rows)
                forms = [
                    sum((x.scale(a) for x, a in zip(xs, row)), MultiPoly(ctx, r))
                    for row in rows
                ]
                for e in range(p):
                    expanded = MultiPoly.constant(ctx, r, 1)
                    for form in forms:
                        expanded = expanded * form**e
                    want = expanded.terms.get((e,) * r, 0)
                    assert glynn_coeff(A, e) == want, (p, e, A.data)
                    cases += 1
                    nonzero += want != 0
    assert cases == 404 and nonzero > 200


def test_glynn_scale_refusal():
    ctx = prime_ctx(199523)
    A = FpMatrix(ctx, 3, 3, list(range(9)))
    with pytest.raises(ScaleRefusal):
        glynn_coeff(A, ctx.p - 1)


def test_glynn_coeff_rejects_bad_input():
    ctx = prime_ctx(5)
    with pytest.raises(ValueError, match="square"):
        glynn_coeff(FpMatrix(ctx, 2, 3, list(range(6))), 2)
    A = FpMatrix(ctx, 2, 2, [1, 2, 3, 4])
    for e in (ctx.p, -1):
        with pytest.raises(ValueError, match="0 <= e <= p-1"):
            glynn_coeff(A, e)


def test_glynn_theorem_random_and_singular():
    rng = random.Random(4)
    for p in (2, 3, 5, 7, 11):
        ctx = prime_ctx(p)
        for r in (1, 2, 3):
            for _ in range(20):
                A = FpMatrix(ctx, r, r, [rng.randrange(p) for _ in range(r * r)])
                rep = check_glynn_theorem(A)
                assert rep["holds"]
                assert rep["rhs"] == (0 if det(A) == 0 else 1)
            # forced singular: duplicate a row
            if r >= 2:
                rows = [[rng.randrange(p) for _ in range(r)] for _ in range(r - 1)]
                A = FpMatrix.from_rows(ctx, rows + [rows[0]])
                rep = check_glynn_theorem(A)
                assert rep["holds"] and rep["lhs"] == 0


def test_equality2_consistency_cases():
    rng = random.Random(6)
    ctx = prime_ctx(7)
    for _ in range(10):
        A = FpMatrix(ctx, 2, 2, [rng.randrange(7) for _ in range(4)])
        if det(A) == 0:
            with pytest.raises(Singular):
                check_equality2(A)
            continue
        reports = check_equality2(A)
        assert len(reports) == 7
        # e = p-1: denominator G^0 = 1, reduces to Glynn's theorem
        assert reports[6]["holds"]
        # e = 0: reduces to Glynn on the adjugate
        assert reports[0]["holds"] in (True, None)


def test_equality2_sweep():
    rng = random.Random(7)
    for p in (3, 5, 7, 11):
        ctx = prime_ctx(p)
        for r in (2, 3):
            done = 0
            while done < 20:
                A = FpMatrix(ctx, r, r, [rng.randrange(p) for _ in range(r * r)])
                if det(A) == 0:
                    continue
                done += 1
                for e, rep in enumerate(check_equality2(A)):
                    assert rep["holds"] is not False, (p, r, e, A.data)
