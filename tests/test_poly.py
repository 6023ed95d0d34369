import random

from hypothesis import given, settings, strategies as st

from discdet.ff import prime_ctx
from discdet.fpmat import det, m_matrix
from discdet.poly import (
    XR_MINUS_1,
    XR_MINUS_X,
    XR_MINUS_X_MINUS_1,
    FpPoly,
    coeff_window,
    discriminant,
    divmod_poly,
    monomial_sum,
    poly_pow,
    resultant,
    special_discriminant,
    sylvester,
    trinomial_discriminant,
)


def rand_poly(ctx, deg, rng, monic=False):
    c = [rng.randrange(ctx.p) for _ in range(deg)]
    c.append(1 if monic else rng.randrange(1, ctx.p))
    return FpPoly(ctx, c)


def test_normalization_and_degree():
    ctx = prime_ctx(5)
    f = FpPoly(ctx, [1, 2, 0, 0])
    assert f.degree == 1 and f.coeffs == [1, 2]
    assert FpPoly(ctx, [0, 0]).degree == -1
    assert FpPoly(ctx, [5, 10]).is_zero()


def test_mul_schoolbook_reference():
    ctx = prime_ctx(7)
    f = FpPoly(ctx, [1, 2, 3])
    g = FpPoly(ctx, [4, 5])
    assert (f * g).coeffs == [4, 13 % 7, 22 % 7, 15 % 7]


def test_mul_kronecker_agrees_with_schoolbook():
    # sizes straddling the dense-multiply cutoff
    rng = random.Random(7)
    ctx = prime_ctx(10007)
    for deg in (50, 63, 64, 65, 200):
        f = rand_poly(ctx, deg, rng)
        g = rand_poly(ctx, deg + 3, rng)
        ref = [0] * (len(f.coeffs) + len(g.coeffs) - 1)
        for i, a in enumerate(f.coeffs):
            for j, b in enumerate(g.coeffs):
                ref[i + j] = (ref[i + j] + a * b) % ctx.p
        assert (f * g).coeffs == ref


def test_divmod_roundtrip():
    rng = random.Random(1)
    ctx = prime_ctx(13)
    for _ in range(50):
        a = rand_poly(ctx, rng.randrange(8), rng)
        b = rand_poly(ctx, rng.randrange(1, 5), rng)
        q, r = divmod_poly(a, b)
        assert (q * b + r).coeffs == a.coeffs
        assert r.degree < b.degree


def test_call_and_derivative():
    ctx = prime_ctx(11)
    f = monomial_sum(ctx, [(3, 1), (1, 4), (0, 6)])  # x^3 + 4x + 6
    assert f(2) == (8 + 8 + 6) % 11
    assert f.derivative().coeffs == [4, 0, 3]


@st.composite
def window_cases(draw):
    """(f, e, d, indices): f dense or with 1-3 terms, e up to p-1 (or past p
    for small p), and indices that take every deg f-th coefficient, the
    M_d(f^e) window, and a run across a multiple of p."""
    p = draw(st.sampled_from([5, 13, 101, 211]))
    ctx = prime_ctx(p)
    if draw(st.booleans()):
        f = FpPoly(ctx, draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=4)))
    else:
        # Support g0 + m * gap: shifted when g0 > 0; for 3 terms m divides gcd(d1, d2).
        g0 = draw(st.integers(0, 4))
        m = draw(st.integers(1, 3))
        gaps = draw(st.lists(st.integers(1, 12), max_size=2, unique=True))
        exps = [g0] + [g0 + m * gap for gap in gaps]
        unit_or_any = st.one_of(st.just(1), st.integers(1, p - 1))
        f = monomial_sum(ctx, [(g, draw(unit_or_any)) for g in exps])
    if f.is_zero():
        f = FpPoly(ctx, [1])
    e = draw(st.integers(1, max(p - 1, 30)))
    deg = f.degree
    d = draw(st.integers(1, min(p, deg + 1)))
    k = draw(st.integers(1, deg * e // p + 1))
    w = draw(st.integers(1, 6))
    indices = set(range(0, deg * e + 2, max(1, deg)))
    indices.update(i * p + j - d - 1 for i in range(1, d + 1) for j in range(1, d + 1))
    indices.update(range(max(0, k * p - w), k * p + w))
    return f, e, d, sorted(indices)


@settings(deadline=None, max_examples=120)
@given(window_cases())
def test_coeff_window_strategies_agree(case):
    f, e, d, indices = case
    fe = poly_pow(f, e)
    dense = [fe.coeff(n) for n in indices]
    assert coeff_window(f, e, indices) == dense
    # indices need not be sorted
    assert coeff_window(f, e, reversed(indices)) == dense[::-1]
    p = f.ctx.p
    window = [fe.coeff(i * p + j - d - 1) for i in range(1, d + 1) for j in range(1, d + 1)]
    assert m_matrix(f, e, d).data == window


def test_resultant_equals_sylvester_det():
    rng = random.Random(3)
    for p in (5, 13, 31):
        ctx = prime_ctx(p)
        for _ in range(40):
            f = rand_poly(ctx, rng.randrange(1, 6), rng)
            g = rand_poly(ctx, rng.randrange(1, 6), rng)
            assert resultant(f, g) == det(sylvester(f, g))


def test_resultant_swap_sign():
    ctx = prime_ctx(31)
    rng = random.Random(4)
    for _ in range(30):
        f = rand_poly(ctx, 3, rng)
        g = rand_poly(ctx, 4, rng)
        sign = -1 if (f.degree * g.degree) % 2 else 1
        assert resultant(f, g) == sign * resultant(g, f) % 31


def test_discriminant_quadratic_cubic():
    ctx = prime_ctx(101)
    rng = random.Random(5)
    for _ in range(30):
        b, c = rng.randrange(101), rng.randrange(101)
        assert discriminant(FpPoly(ctx, [c, b, 1])) == (b * b - 4 * c) % 101
        u, v = rng.randrange(101), rng.randrange(101)
        f = monomial_sum(ctx, [(3, 1), (1, u), (0, v)])
        assert discriminant(f) == (-4 * u**3 - 27 * v * v) % 101


def test_discriminant_at_p_dividing_degree():
    # x^5 + x + 1 at p = 5: f' = 1, so Delta = Res(f, 1) lc^{5-2-0} = 1, and
    # the integer discriminant 5^5 + 4^4 = 3381 is 1 mod 5.
    ctx = prime_ctx(5)
    assert discriminant(monomial_sum(ctx, [(5, 1), (1, 1), (0, 1)])) == 1
    # f' = 0 when every exponent is a multiple of p: f is a p-th power.
    assert discriminant(monomial_sum(ctx, [(10, 2), (5, 1), (0, 3)])) == 0


def test_discriminant_product_rule():
    # disc(FG) = disc(F) disc(G) Res(F, G)^2; p | deg FG is checked against
    # factors whose degree p does not divide.
    rng = random.Random(8)
    for p in (3, 5, 7, 101):
        ctx = prime_ctx(p)
        for _ in range(2000):
            f = rand_poly(ctx, rng.randrange(2, 7), rng)
            g = rand_poly(ctx, rng.randrange(2, 7), rng)
            if f.degree % p == 0 or g.degree % p == 0:
                continue
            lhs = discriminant(f * g)
            rhs = discriminant(f) * discriminant(g) * pow(resultant(f, g), 2, p) % p
            assert lhs == rhs, (p, f, g)


def test_res_disc_relations():
    # Res(F, F') = (-1)^{m(m-1)/2} a0 disc(F)
    # Res(F', F - (1/m) x F') = (-1)^{m(m-1)/2} (1/m) disc(F)
    rng = random.Random(9)
    ctx = prime_ctx(103)
    p = 103
    for _ in range(30):
        m = rng.randrange(2, 6)
        f = rand_poly(ctx, m, rng)
        a0 = f.lead()
        dd = discriminant(f)
        sign = -1 if (m * (m - 1) // 2) % 2 else 1
        fp = f.derivative()
        assert resultant(f, fp) == sign * a0 * dd % p
        inv_m = pow(m, p - 2, p)
        h = f - FpPoly(ctx, [0, inv_m]) * fp
        # the relation reads the resultant at formal degree m-1; skip the
        # degenerate cases where the leading coefficient of h vanishes
        if fp.is_zero() or h.degree != m - 1:
            continue
        assert resultant(fp, h) == sign * inv_m * dd % p


def test_special_discriminants_match_direct():
    for p in (5, 7, 13, 31):
        ctx = prime_ctx(p)
        for r in range(2, 10):
            if r % p:
                f1 = monomial_sum(ctx, [(r, 1), (0, -1)])
                assert special_discriminant(XR_MINUS_1, r, ctx) == discriminant(f1)
                fx = monomial_sum(ctx, [(r, 1), (1, -1)])
                assert special_discriminant(XR_MINUS_X, r, ctx) == discriminant(fx)


def test_special_discriminant_xr_x_1_lift():
    # the closed form needs p | r, so it checks discriminant's p | deg f branch
    for p in (3, 5, 7):
        ctx = prime_ctx(p)
        for r in (p, 2 * p):
            f = monomial_sum(ctx, [(r, 1), (1, -1), (0, -1)])
            assert special_discriminant(XR_MINUS_X_MINUS_1, r, ctx) == discriminant(f)


def test_trinomial_discriminant_matches_resultant():
    rng = random.Random(11)
    for p in (7, 31, 101):
        ctx = prime_ctx(p)
        for _ in range(40):
            n = rng.randrange(2, 9)
            m = rng.randrange(1, n)
            a, b = rng.randrange(1, p), rng.randrange(1, p)
            f = monomial_sum(ctx, [(n, 1), (m, a), (0, b)])
            assert trinomial_discriminant(ctx, n, m, a, b) == discriminant(f)


def test_poly_pow_matches_repeated_mul():
    ctx = prime_ctx(13)
    f = FpPoly(ctx, [2, 1, 1])
    acc = FpPoly(ctx, [1])
    for e in range(6):
        assert poly_pow(f, e).coeffs == acc.coeffs
        acc = acc * f
