import hashlib
import json
import random
from math import comb
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from discdet.ff import prime_ctx
from discdet.fpmat import FpMatrix, det
from discdet.sets import Triple, enumerate_B
from discdet.symbolic import (
    MultiPoly,
    ScaleRefusal,
    delta_power,
    det_bareiss,
    exact_div,
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


def test_power_matches_the_binomial_theorem():
    # [x^(e-k) y^k] (x + c y)^e = C(e, k) c^k mod p; at e >= p Lucas' theorem
    # makes some of those zero, which the terms must leave out
    for p in (2, 3, 7):
        ctx = prime_ctx(p)
        x = MultiPoly.variable(ctx, 2, 0)
        y = MultiPoly.variable(ctx, 2, 1)
        for c in range(p):
            base = x + y.scale(c)
            for e in range(2 * p + 2):
                want = {(e - k, k): comb(e, k) * pow(c, k, p) % p for k in range(e + 1)}
                assert (base ** e).terms == {m: v for m, v in want.items() if v}, (p, c, e)
        zero = MultiPoly(ctx, 2)
        assert zero ** 0 == MultiPoly.constant(ctx, 2, 1)
        assert all((zero ** e).is_zero() for e in range(1, 4))
        three = MultiPoly.constant(ctx, 0, 3)
        assert all(three ** e == MultiPoly.constant(ctx, 0, pow(3, e, p)) for e in range(5))


def test_power_rejects_a_negative_exponent():
    x = MultiPoly.variable(prime_ctx(7), 2, 0)
    for e in (-1, -3):
        with pytest.raises(ValueError):
            x ** e


def test_power_multiplies_by_the_base_and_never_squares(monkeypatch):
    # A MultiPoly product costs one key sum per pair of terms, so F ** e is
    # e products by F itself, never a square of a large intermediate power.
    ctx = prime_ctx(7)
    x = MultiPoly.variable(ctx, 4, 3)
    F = MultiPoly.constant(ctx, 4, 1)
    for i in range(3):
        F = F * (x - MultiPoly.variable(ctx, 4, i))
    right = []
    real_mul = MultiPoly.__mul__
    monkeypatch.setattr(MultiPoly, "__mul__", lambda a, b: right.append(b) or real_mul(a, b))
    for e in (0, 1, 2, 3, 6):
        right.clear()
        F ** e
        assert len(right) == e and all(b is F for b in right), e


def schoolbook(f, g):
    """Terms of f * g by the tuple-key product, reduced once at the end."""
    out = {}
    for m1, c1 in f.terms.items():
        for m2, c2 in g.terms.items():
            mono = tuple(a + b for a, b in zip(m1, m2))
            out[mono] = out.get(mono, 0) + c1 * c2
    p = f.ctx.p
    return {m: c % p for m, c in out.items() if c % p}


@st.composite
def product_cases(draw):
    p = draw(st.sampled_from([2, 3, 5, 7, 13]))
    nvars = draw(st.integers(0, 5))
    # Both sides draw from one small pool of monomials, so many products share
    # a monomial and their coefficients can cancel mod p.
    mono = st.tuples(*[st.integers(0, 9)] * nvars)
    pool = draw(st.lists(mono, min_size=1, max_size=6, unique=True))
    side = st.dictionaries(st.sampled_from(pool), st.integers(1, p - 1), max_size=12)
    ctx = prime_ctx(p)
    return MultiPoly(ctx, nvars, draw(side)), MultiPoly(ctx, nvars, draw(side))


@settings(deadline=None, max_examples=300)
@given(product_cases())
@example((MultiPoly(prime_ctx(2), 0, {(): 1}), MultiPoly(prime_ctx(2), 0, {(): 1})))
@example((  # every digit of the product is B - 1 = 18
    MultiPoly(prime_ctx(13), 2, {(9, 9): 2}), MultiPoly(prime_ctx(13), 2, {(9, 9): 3})
))
@example((  # (x + y)(x - y): the two xy terms cancel
    MultiPoly(prime_ctx(7), 2, {(1, 0): 1, (0, 1): 1}),
    MultiPoly(prime_ctx(7), 2, {(1, 0): 1, (0, 1): 6}),
))
def test_packed_product_matches_schoolbook(case):
    f, g = case
    got = (f * g).terms
    assert got == schoolbook(f, g)
    assert all(0 < c < f.ctx.p for c in got.values())
    assert all(len(m) == f.nvars for m in got)


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


def test_delta_power_total_degree():
    ctx = prime_ctx(7)
    for r, g in ((2, 2), (3, 2), (4, 4)):
        assert delta_power(r, g, ctx).total_degree() == r * (r - 1) // 2 * g


def test_symbolic_m_matrix_matches_numeric():
    from discdet.fpmat import m_matrix
    from discdet.poly import FpPoly

    rng = random.Random(3)
    # e = p - 1 at d = 1 puts r*e past d*p - 1, and d = r fills the window
    cases = [(p, r, e, d) for p in (3, 5, 7) for r in (2, 3, 4)
             for e in sorted({1, (p + 1) // 2, p - 1}) for d in range(1, min(r, p) + 1)]
    cases.append((7, 5, 6, 2))
    assert any(r * e > d * p - 1 for p, r, e, d in cases)
    assert any(d == r for p, r, e, d in cases)
    for p, r, e, d in cases:
        ctx = prime_ctx(p)
        sym = symbolic_m_matrix(r, e, d, ctx)
        assert all(a.nvars == r for row in sym for a in row)
        for _ in range(3):
            roots = [rng.randrange(p) for _ in range(r)]
            f = FpPoly(ctx, [1])
            for a in roots:
                f = f * FpPoly(ctx, [-a, 1])
            M = m_matrix(f, e, d)
            got = [a.evaluate(roots) for row in sym for a in row]
            assert got == [M[i, j] for i in range(d) for j in range(d)], (p, r, e, d, roots)


def test_theorem1_check_pinned_case():
    rep = theorem1_check(Triple(prime_ctx(5), 2, 3, 1))
    assert rep["holds"] and rep["eps"] == 3 and rep["g"] == 2


def lhs_digest(rep):
    return hashlib.sha256(repr(rep["lhs"]).encode()).hexdigest()  # repr sorts the terms


def test_theorem1_lhs_pinned():
    # Both sides of the identity go through the same product, so "holds"
    # alone cannot see a fault that hits both alike; the digests can. They
    # were recorded from the tuple-key product, before monomials were packed.
    path = Path(__file__).resolve().parent / "data" / "theorem1_lhs_sha256.json"
    with open(path) as fh:
        pinned = json.load(fh)
    got = {}
    for p in (2, 3, 5, 7):
        for t in enumerate_B(prime_ctx(p)):
            if t.r <= 4:
                rep = theorem1_check(t)
                assert rep["holds"], t
                got[f"{p} {t.r} {t.e} {t.d}"] = lhs_digest(rep)
    assert got == pinned


def test_theorem1_check_at_r5():
    # the desk-scale edge: M_4(f^4) at p = 5 for the generic quintic
    rep = theorem1_check(Triple(prime_ctx(5), 5, 4, 4))
    assert rep["holds"] and rep["eps"] == 1 and rep["g"] == 4
    assert len(rep["lhs"].terms) == 29020
    assert lhs_digest(rep) == "15ee12ba0d5fe4090dc094d8022b12d3a626df642632c36b2054ce1468b2de62"


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
