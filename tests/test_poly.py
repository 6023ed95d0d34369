import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from discdet import poly
from discdet.ff import prime_ctx
from discdet.fpmat import det, m_matrix, sylvester
from discdet.poly import (
    XR_MINUS_1,
    XR_MINUS_X,
    FpPoly,
    _frobenius_window,
    _mul,
    _sparse_window,
    coeff_window,
    discriminant,
    divmod_poly,
    m_exponents,
    monomial_sum,
    poly_pow,
    resultant,
    special_discriminant,
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
    def schoolbook(f, g):
        ref = [0] * (len(f.coeffs) + len(g.coeffs) - 1)
        for i, a in enumerate(f.coeffs):
            for j, b in enumerate(g.coeffs):
                ref[i + j] = (ref[i + j] + a * b) % f.ctx.p
        return ref

    rng = random.Random(7)
    pairs = []
    # random operands of several sizes, including 1-byte slots at p = 2, 3
    for p in (2, 3, 10007):
        ctx = prime_ctx(p)
        for deg in (0, 1, 7, 50, 200):
            pairs.append((rand_poly(ctx, deg, rng), rand_poly(ctx, deg + 3, rng)))
    # all coefficients p-1, with min(la, lb) (p-1)^2 just below and at the
    # next slot width: 256 = 256 * 1^2 = 64 * 2^2 = 16 * 4^2 needs 2 bytes,
    # and 70000 = 7 * 100^2 needs 3
    for p, sizes in ((2, (255, 256)), (3, (63, 64)), (5, (15, 16)), (101, (6, 7))):
        ctx = prime_ctx(p)
        for n in sizes:
            top = FpPoly(ctx, [p - 1] * n)
            pairs.append((top, top))
            pairs.append((top, FpPoly(ctx, [p - 1] * (n + 5))))
    ctx = prime_ctx(10007)
    pairs.append((rand_poly(ctx, 1, rng), rand_poly(ctx, 299, rng)))  # 2 x 300
    pairs.append((FpPoly(ctx, [4]), rand_poly(ctx, 40, rng)))  # constant operand
    for f, g in pairs:
        assert (f * g).coeffs == schoolbook(f, g)
        assert (g * f).coeffs == schoolbook(f, g)
    f = rand_poly(ctx, 120, rng)
    assert (f * f).coeffs == schoolbook(f, f)  # both operands one object


def test_mul_slot_widths():
    # _mul returns exact, unreduced products.  With every coefficient p-1, its
    # largest entry is the slot bound min(la, lb) (p-1)^2 itself: with
    # (p-1)^2 = 2^(bits-8), n = 255 fills a slot of 8, 16, 32 or 64 bits and
    # n = 256 needs the next width; past 64 bits a slot takes 2 or 3 words.
    # p only needs to bound the entries, so no PrimeCtx is built.
    def top(n, m, p):
        return [(p - 1) ** 2 * min(k + 1, n, m, n + m - 1 - k) for k in range(n + m - 1)]

    for bits in (8, 16, 32, 64, 128):
        p = 2 ** ((bits - 8) // 2) + 1
        for n in (255, 256):
            assert (n * (p - 1) ** 2).bit_length() == bits + (n > 255)
            x = [p - 1] * n
            assert _mul(x, [p - 1] * (n + 3), p) == top(n, n + 3, p)
            assert _mul([p - 1] * (n + 3), x, p) == top(n + 3, n, p)
            assert _mul(x, x, p) == top(n, n, p)

    def schoolbook(x, y):
        out = [0] * (len(x) + len(y) - 1)
        for i, a in enumerate(x):
            for j, b in enumerate(y):
                out[i + j] += a * b
        return out

    rng = random.Random(11)
    for p in (2, 251, 65521, 4294967291, 2**61 - 1):
        for n, m in ((1, 1), (1, 9), (9, 1), (5, 40), (33, 33)):
            x = [rng.randrange(p) for _ in range(n)]
            y = [rng.randrange(p) for _ in range(m)]
            assert _mul(x, y, p) == schoolbook(x, y)
            assert _mul(x, x, p) == schoolbook(x, x)  # one list, packed once
            assert _mul(x, [], p) == _mul([], y, p) == []
    # the FpPoly product reduces and strips; its context only needs p
    ctx = SimpleNamespace(p=2**61 - 1)
    f = FpPoly(ctx, [ctx.p - 1, 0, 3, ctx.p - 1])
    g = FpPoly(ctx, [ctx.p - 1, 1])
    assert (f * g).coeffs == [1, ctx.p - 1, ctx.p - 3, 4, ctx.p - 1]
    assert (f * f).coeffs == [1, 0, ctx.p - 6, 2, 9, ctx.p - 6, 1]
    assert (f * FpPoly(ctx, [])).is_zero()


def test_divmod_roundtrip():
    rng = random.Random(1)
    ctx = prime_ctx(13)
    for _ in range(50):
        a = rand_poly(ctx, rng.randrange(8), rng)
        b = rand_poly(ctx, rng.randrange(1, 5), rng)
        q, r = divmod_poly(a, b)
        assert (q * b + r).coeffs == a.coeffs
        assert r.degree < b.degree


def test_derivative():
    ctx = prime_ctx(11)
    f = monomial_sum(ctx, [(3, 1), (1, 4), (0, 6)])  # x^3 + 4x + 6
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


def test_sparse_window_non_unit_coefficient_pinned():
    # M_3((x^96 + x + b)^150000) at p = 176419, recorded when each non-unit
    # coefficient still had its full c^k / k! table; M_1 is its third entry
    ctx = prime_ctx(176419)
    pinned = {
        2: [112249, 148842, 43221, 73264, 157083, 37028, 141510, 37954, 157910],
        3: [154639, 56118, 4632, 66393, 170629, 89232, 111418, 17154, 88352],
    }
    for b, window in pinned.items():
        f = monomial_sum(ctx, [(96, 1), (1, 1), (0, b)])
        assert m_matrix(f, 150000, 3).data == window
        assert m_matrix(f, 150000, 1).data == [window[2]]


def test_frobenius_window_matches_sum_and_dense():
    # [x^n] f^(p-1) read from 1/g equals the multinomial sum (up to 3 terms)
    # or the dense power (4 or more), on the stage polynomials, random
    # coefficients, f(0) = 0 and deg g = 1, every M_d window and unsorted
    # index sets with runs across multiples of p
    rng = random.Random(3)
    checked = 0
    for p in (3, 5, 7, 13, 31, 101, 211):
        ctx = prime_ctx(p)
        fs = []
        for r in {2, 3, 5, min(12, p - 1)}:
            fs += [monomial_sum(ctx, [(r, 1), (k, 1), (0, 1)]) for k in range(1, r)]
            fs += [monomial_sum(ctx, [(r, 1), (k, 1), (1, 1)]) for k in range(2, r)]
            fs += [monomial_sum(ctx, [(r, 1), (1, 1), (0, b)]) for b in (2, 3)]
        for _ in range(12):
            v = rng.randrange(3)
            exps = [v] + sorted(rng.sample(range(v + 1, v + 14), rng.choice([1, 2])))
            fs.append(monomial_sum(ctx, [(x, rng.randrange(1, p)) for x in exps]))
        fs.append(monomial_sum(ctx, [(2, rng.randrange(1, p)), (3, rng.randrange(1, p))]))
        for deg in (3, 6):
            fs.append(FpPoly(ctx, [0] + [rng.randrange(p) for _ in range(deg - 1)] + [1]))
        for f in fs:
            if len(f.monomials()) < 2:
                continue
            deg = f.degree
            windows = [[i * p + j - d - 1 for i in range(1, d + 1) for j in range(1, d + 1)]
                       for d in range(1, min(p, deg + 1) + 1)]
            k = rng.randrange(1, deg + 1)
            odd = list(range(max(0, k * p - 4), k * p + 4)) + rng.sample(range(deg * (p - 1) + 3), 6)
            rng.shuffle(odd)
            windows.append(odd)
            if len(f.monomials()) <= 3:
                want = [_sparse_window(f, p - 1, w) for w in windows]
            else:
                fe = poly_pow(f, p - 1)
                want = [[fe.coeff(n) for n in w] for w in windows]
            assert [_frobenius_window(f, w) for w in windows] == want, f
            checked += 1
    assert checked > 300
    # above 2^16, (p-1)^2 > 2^32, so every product mod chi and every middle
    # product runs on 8-byte slots: the stage shapes for a few r | p-1
    p = 176419  # p - 1 = 2 3^6 11^2
    ctx = prime_ctx(p)
    for r in (2, 6, 11, 27):
        fs = [monomial_sum(ctx, [(r, 1), (k, 1), (0, 1)]) for k in range(1, r)]
        fs += [monomial_sum(ctx, [(r, 1), (k, 1), (1, 1)]) for k in range(2, r)]
        fs += [monomial_sum(ctx, [(r, 1), (1, 1), (0, b)]) for b in (2, 3)]
        for f in fs:
            for d in (1, 2, 3):
                w = [i * p + j - d - 1 for i in range(1, d + 1) for j in range(1, d + 1)]
                assert _frobenius_window(f, w) == _sparse_window(f, p - 1, w), (f, d)


def test_coeff_window_rejects_a_negative_exponent():
    # every path raises, not only the dense one that goes through poly_pow
    ctx = prime_ctx(7)
    fs = [FpPoly(ctx, []), monomial_sum(ctx, [(3, 1)]), monomial_sum(ctx, [(3, 1), (0, 2)]),
          monomial_sum(ctx, [(3, 1), (1, 1), (0, 1)]), FpPoly(ctx, [1, 1, 1, 1])]
    for f in fs:
        for e in (-1, -2, -6):
            for indices in ([0, 1, 2, 3], []):
                with pytest.raises(ValueError):
                    coeff_window(f, e, indices)


def test_coeff_window_routes_on_cost(monkeypatch):
    # 30241 = 2^5 3^3 5 7 + 1: M_8((x^15+x+1)^30240) reads 1/g, and the sum
    # must not run (nor for the M_1 window at 55441 below); at r = 448 and
    # d = 1 the sum is cheaper than the log p products of degree 448 that
    # reading 1/g would take
    def refuse(*args):
        raise AssertionError("this path should not be taken")

    ctx = prime_ctx(30241)
    monkeypatch.setattr(poly, "_sparse_window", refuse)
    got = m_matrix(monomial_sum(ctx, [(15, 1), (1, 1), (0, 1)]), 30240, 8).data
    assert got == [
        14123, 25084, 23639, 26308, 6589, 29403, 23365, 4481,
        5066, 9577, 21814, 4400, 5057, 11491, 13358, 989,
        14678, 15787, 25529, 21138, 7133, 15043, 8494, 25663,
        9686, 25509, 8648, 27588, 17540, 13360, 29513, 9170,
        5952, 9138, 10472, 12838, 27201, 16075, 21930, 28253,
        21555, 16781, 4461, 14065, 10594, 24200, 26880, 10298,
        17161, 19384, 11580, 20286, 14780, 29710, 3480, 13854,
        28180, 10636, 15691, 19734, 13236, 27435, 23493, 18146,
    ]
    # M_1((x^12+x+1)^55440) at 55441: one index with 4621 terms, against
    # log2 p + 2 products of degree 12
    ctx = prime_ctx(55441)
    assert m_matrix(monomial_sum(ctx, [(12, 1), (1, 1), (0, 1)]), 55440, 1).data == [50657]
    monkeypatch.undo()
    monkeypatch.setattr(poly, "_frobenius_window", refuse)
    ctx = prime_ctx(20161)
    assert m_matrix(monomial_sum(ctx, [(448, 1), (1, 1), (0, 1)]), 20160, 1).data == [8191]


def test_m_exponents_follow_the_paper_layout():
    # M_d(f^e) = (c_{ip+j-d-1})_{1<=i,j<=d}; m_dets reads it with the columns
    # reversed (entry (i, j) = c_{ip-j}), and theorem5's L at r = d + 1 reads
    # its rows r columns further left (entry (i, j) = c_{ip+j-2r}, j <= r+d)
    for p in (2, 5, 23):
        for d in range(1, 5):
            rows, r = range(1, d + 1), d + 1
            assert m_exponents(p, d) == [i * p + j - d - 1 for i in rows for j in rows]
            assert m_exponents(p, d, range(d, 0, -1)) == [i * p - j for i in rows for j in rows]
            assert m_exponents(p, d, range(1 - r, d + 1)) == [
                i * p + j - 2 * r for i in rows for j in range(1, r + d + 1)]


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
    # Delta(x^r - x - 1) = (-1)^{r(r+1)/2} mod p when p | r: checks
    # discriminant's p | deg f branch
    for p in (3, 5, 7):
        ctx = prime_ctx(p)
        for r in (p, 2 * p):
            f = monomial_sum(ctx, [(r, 1), (1, -1), (0, -1)])
            assert discriminant(f) == (-1) ** (r * (r + 1) // 2) % p


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
