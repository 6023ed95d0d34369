import random

import pytest

from discdet.ff import prime_ctx
from discdet.fpmat import FpMatrix, det
from discdet.sets import Triple
from discdet.symbolic import (
    MultiPoly,
    ScaleRefusal,
    delta_power,
    det_bareiss,
    exact_div,
    generic_monic,
    poly_power_coeffs,
    symbolic_m_matrix,
    theorem1_check,
)


def test_multipoly_arithmetic():
    ctx = prime_ctx(7)
    x = MultiPoly.variable(ctx, 2, 0)
    y = MultiPoly.variable(ctx, 2, 1)
    square = (x + y) * (x + y)
    assert square.terms == {(2, 0): 1, (1, 1): 2, (0, 2): 1}
    assert (square - square).is_zero()
    assert (x - y).evaluate([5, 3]) == 2
    assert square ** 3 == square * square * square


def test_exact_div_roundtrip_and_failure():
    ctx = prime_ctx(13)
    rng = random.Random(0)
    for _ in range(30):
        f = MultiPoly(
            ctx, 2,
            {(rng.randrange(4), rng.randrange(4)): rng.randrange(1, 13) for _ in range(4)},
        )
        g = MultiPoly(
            ctx, 2,
            {(rng.randrange(3), rng.randrange(3)): rng.randrange(1, 13) for _ in range(3)},
        )
        if f.is_zero() or g.is_zero():
            continue
        assert exact_div(f * g, g) == f
    x = MultiPoly.variable(ctx, 2, 0)
    y = MultiPoly.variable(ctx, 2, 1)
    with pytest.raises(ValueError):
        exact_div(x * x + y, x)


def test_det_bareiss_matches_numeric_det():
    p = 31
    ctx = prime_ctx(p)
    rng = random.Random(1)

    def entry():
        if rng.random() < 0.2:
            return MultiPoly(ctx, 2)
        return MultiPoly(ctx, 2, {
            (rng.randrange(3), rng.randrange(3)): rng.randrange(1, p)
            for _ in range(rng.randrange(1, 4))
        })

    for n in range(1, 6):
        for _ in range(10):
            entries = [[entry() for _ in range(n)] for _ in range(n)]
            got = det_bareiss(entries)
            for _ in range(4):
                point = [rng.randrange(p) for _ in range(2)]
                vals = [a.evaluate(point) for row in entries for a in row]
                assert got.evaluate(point) == det(FpMatrix(ctx, n, n, vals))
    # a repeated row and a zero column give the zero polynomial
    x = MultiPoly.variable(ctx, 2, 0)
    zero = MultiPoly(ctx, 2)
    assert det_bareiss([[x, x + x], [x, x + x]]).is_zero()
    assert det_bareiss([[zero, x], [zero, x * x]]).is_zero()


def test_generic_monic_specializes_to_product_of_roots():
    ctx = prime_ctx(11)
    r = 3
    coeffs = generic_monic(r, ctx)
    roots = [2, 5, 7]
    # f(x) = (x-2)(x-5)(x-7): specialize each symmetric coefficient
    vals = [c.evaluate(roots) for c in coeffs]  # s_0..s_r, descending powers
    prod = [1]
    for a in roots:
        prod = [
            (prod[i] if i < len(prod) else 0) - a * (prod[i - 1] if i >= 1 else 0)
            for i in range(len(prod) + 1)
        ]  # multiply by (x - a), descending
    assert vals == [c % 11 for c in prod]


def test_delta_power_total_degree():
    ctx = prime_ctx(7)
    for r, g in ((2, 2), (3, 2), (4, 4)):
        assert delta_power(r, g, ctx).total_degree() == r * (r - 1) // 2 * g


def test_poly_power_coeffs_truncated():
    ctx = prime_ctx(5)
    one = MultiPoly.constant(ctx, 1, 1)
    # (1 + x)^4 coefficients mod 5
    got = poly_power_coeffs([one, one], 4, 4)
    assert [c.terms.get((0,), 0) for c in got] == [1, 4, 1, 4, 1]


def test_symbolic_m_matrix_matches_numeric():
    from discdet.fpmat import m_matrix
    from discdet.poly import FpPoly

    ctx = prime_ctx(5)
    r, e, d = 3, 3, 2
    roots = [1, 2, 4]
    sym = symbolic_m_matrix(r, e, d, ctx)
    f = FpPoly(ctx, [1])
    for a in roots:
        f = f * FpPoly(ctx, [-a, 1])
    M = m_matrix(f, e, d)
    for i in range(d):
        for j in range(d):
            assert sym[i][j].evaluate(roots) == M[i, j]


def test_theorem1_check_pinned_case():
    rep = theorem1_check(Triple(prime_ctx(5), 2, 3, 1))
    assert rep["holds"] and rep["eps"] == 3 and rep["g"] == 2


def test_theorem1_check_takes_no_division(monkeypatch):
    import discdet.symbolic as symbolic

    def refuse(f, g):
        raise AssertionError("exact_div called")

    monkeypatch.setattr(symbolic, "exact_div", refuse)
    rep = theorem1_check(Triple(prime_ctx(5), 4, 4, 3))
    assert rep["holds"] and rep["g"] == 4


def test_theorem1_check_guards():
    with pytest.raises(ValueError):
        theorem1_check(Triple(prime_ctx(7), 3, 3, 1))  # not in B
    with pytest.raises(ScaleRefusal):
        theorem1_check(Triple(prime_ctx(11), 2, 10, 2))
