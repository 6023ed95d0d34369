import random
from itertools import permutations, product
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import discdet.fpmat as fpmat_mod
from discdet.ff import prime_ctx
from discdet.fpmat import FpMatrix, Singular, det, inverse, m_dets, m_matrix, solve
from discdet.poly import FpPoly, _slot, monomial_sum, poly_pow


def rand_rect(ctx, n, m, rng):
    return FpMatrix(ctx, n, m, [rng.randrange(ctx.p) for _ in range(n * m)])


def rand_matrix(ctx, n, rng):
    return rand_rect(ctx, n, n, rng)


def det_leibniz(M):
    """Permutation-expansion oracle (n <= 6)."""
    n = M.rows
    p = M.ctx.p
    total = 0
    for perm in permutations(range(n)):
        sign = 1
        seen = [False] * n
        for s in range(n):
            if seen[s]:
                continue
            ln = 0
            x = s
            while not seen[x]:
                seen[x] = True
                x = perm[x]
                ln += 1
            if ln % 2 == 0:
                sign = -sign
        term = sign
        for i in range(n):
            term = term * M[i, perm[i]]
        total += term
    return total % p


def test_det_matches_leibniz():
    rng = random.Random(0)
    for p in (2, 3, 5, 13):
        ctx = prime_ctx(p)
        for n in range(7):
            for _ in range(20):
                M = rand_matrix(ctx, n, rng)
                assert det(M) == det_leibniz(M)


def test_det_empty_matrix_is_one():
    assert det(FpMatrix(prime_ctx(7), 0, 0, [])) == 1


def test_inverse_roundtrip():
    # small p makes zero leading entries common, so the row swaps are exercised
    rng = random.Random(1)
    swapped = 0
    for p in (2, 3, 31):
        ctx = prime_ctx(p)
        for n in range(7):
            eye = FpMatrix.identity(ctx, n)
            for _ in range(12):
                M = rand_matrix(ctx, n, rng)
                if det_leibniz(M) == 0:
                    with pytest.raises(Singular):
                        inverse(M)
                    continue
                Minv = inverse(M)
                assert Minv @ M == eye and M @ Minv == eye, (p, M)
                swapped += n > 0 and M[0, 0] == 0
    assert swapped >= 10


def test_matmul_submatrix():
    ctx = prime_ctx(7)
    A = FpMatrix(ctx, 2, 3, [1, 2, 3, 4, 5, 6])
    B = FpMatrix(ctx, 3, 2, [1, 0, 0, 1, 1, 1])
    assert (A @ B).to_rows() == [[4, 5], [3, 4]]
    assert A.submatrix(0, 2, 1, 3).to_rows() == [[2, 3], [5, 6]]


def matmul_loops(A, B):
    """Triple-loop oracle for A @ B, as rows."""
    p = A.ctx.p
    return [[sum(A[i, k] * B[k, j] for k in range(A.cols)) % p for j in range(B.cols)]
            for i in range(A.rows)]


def test_packed_matmul_matches_triple_loop_on_rectangular_shapes():
    rng = random.Random(3)
    for p in (2, 3, 31, 251):
        ctx = prime_ctx(p)
        shapes = [*product(range(4), repeat=3), (5, 7, 3), (1, 9, 6), (8, 2, 8)]
        for n, m, q in shapes:
            A, B = rand_rect(ctx, n, m, rng), rand_rect(ctx, m, q, rng)
            C = A @ B
            assert (C.rows, C.cols) == (n, q)
            assert C.to_rows() == matmul_loops(A, B), (p, n, m, q)


def test_packed_matmul_slots_at_their_bound():
    # Entries at p - 1 fill each slot to its bound m (p-1)^2.  FpMatrix reads
    # only ctx.p, so a stub context reaches every word: B, H, I and Q, and
    # slots of two and three 8-byte words.
    seen = set()
    for p, m in ((5, 3), (31, 10), (251, 4), (65521, 6), (2**61 - 1, 3), (2**61 - 1, 100)):
        ctx = SimpleNamespace(p=p)
        width, _, k = _slot(m * (p - 1) ** 2)
        seen.add((width, k))
        rng = random.Random(p)
        full = FpMatrix(ctx, 2, m, [p - 1] * (2 * m)) @ FpMatrix(ctx, m, 3, [p - 1] * (3 * m))
        assert full.data == [m * (p - 1) ** 2 % p] * 6
        A, B = rand_rect(ctx, 4, m, rng), rand_rect(ctx, m, 5, rng)
        B.data[:5] = [p - 1] * 5
        A.data[::m] = [p - 1] * 4
        assert (A @ B).to_rows() == matmul_loops(A, B), (p, m)
    assert seen == {(8, 1), (16, 1), (32, 1), (64, 1), (64, 2), (64, 3)}


def test_solve_matches_inverse_and_raises_exactly_when_singular():
    # solve(M, B) = M^{-1} B, and it raises Singular exactly when det M = 0
    rng = random.Random(6)
    singular = 0
    for p in (2, 3, 31):
        ctx = prime_ctx(p)
        for n in range(7):
            for q in (0, 1, n, n + 2):
                for _ in range(4):
                    M = rand_matrix(ctx, n, rng)
                    B = rand_rect(ctx, n, q, rng)
                    if det_leibniz(M) == 0:
                        singular += 1
                        with pytest.raises(Singular):
                            solve(M, B)
                        continue
                    X = solve(M, B)
                    assert X == inverse(M) @ B and M @ X == B, (p, M, B)
    assert singular >= 20
    ctx = prime_ctx(5)
    with pytest.raises(ValueError):
        solve(rand_rect(ctx, 2, 3, rng), rand_rect(ctx, 2, 2, rng))
    with pytest.raises(ValueError):
        solve(rand_matrix(ctx, 2, rng), rand_rect(ctx, 3, 2, rng))


def test_m_matrix_entries_against_dense_power():
    rng = random.Random(2)
    for p in (5, 13):
        ctx = prime_ctx(p)
        for _ in range(20):
            r = rng.randrange(2, 5)
            e = rng.randrange(1, p)
            d = rng.randrange(1, min(r + 1, p) + 1)
            f = FpPoly(ctx, [rng.randrange(p) for _ in range(r)] + [rng.randrange(1, p)])
            fe = poly_pow(f, e)
            M = m_matrix(f, e, d)
            for i in range(1, d + 1):
                for j in range(1, d + 1):
                    assert M[i - 1, j - 1] == fe.coeff(i * p + j - d - 1)


def test_m_matrix_sparse_matches_dense_on_t1_survivors():
    # (r, e, d) past T1 at p = 7561, from perfbench/data/direct_records.csv
    p = 7561
    ctx = prime_ctx(p)
    for r, e, d in ((5, 6552, 1), (5, 7432, 2), (21, 2540, 6)):
        f = monomial_sum(ctx, [(r, 1), (1, 1), (0, 1)])
        fe = poly_pow(f, e)
        dense = [fe.coeff(i * p + j - d - 1) for i in range(1, d + 1) for j in range(1, d + 1)]
        assert m_matrix(f, e, d).data == dense, (r, e, d)


def test_m_matrix_rejects_bad_d():
    ctx = prime_ctx(5)
    f = monomial_sum(ctx, [(2, 1), (0, 1)])
    with pytest.raises(ValueError):
        m_matrix(f, 2, 0)
    with pytest.raises(ValueError):
        m_matrix(f, 2, 6)
    for ds in ([0, 1], [6], []):
        with pytest.raises(ValueError):
            m_dets(f, 2, ds)


def test_m_matrix_and_m_dets_reject_a_negative_exponent():
    ctx = prime_ctx(7)
    for f in (monomial_sum(ctx, [(3, 1), (1, 1), (0, 1)]), FpPoly(ctx, [1, 1, 1, 1])):
        for e in (-1, -2):
            with pytest.raises(ValueError):
                m_matrix(f, e, 2)
            with pytest.raises(ValueError):
                m_dets(f, e, [1, 2])


@st.composite
def trinomial_dets_cases(draw):
    """(f, e, ds): f = x^r + a x^k + b over a small F_p, e < p, and 1-4
    sizes d <= min(p, 8), unsorted and possibly repeated."""
    p = draw(st.sampled_from([5, 7, 13, 31, 101]))
    ctx = prime_ctx(p)
    r = draw(st.integers(2, 6))
    k = draw(st.integers(1, r - 1))
    f = monomial_sum(ctx, [(r, 1), (k, draw(st.integers(1, p - 1))), (0, draw(st.integers(0, p - 1)))])
    e = draw(st.integers(1, p - 1))
    ds = draw(st.lists(st.integers(1, min(p, 8)), min_size=1, max_size=4))
    return f, e, ds


@settings(deadline=None, max_examples=150)
@given(trinomial_dets_cases())
def test_m_dets_matches_det_of_each_m_matrix(case):
    # det and m_dets share one elimination; the Leibniz oracle does not
    f, e, ds = case
    want = [det(m_matrix(f, e, d)) for d in ds]
    assert m_dets(f, e, ds) == want
    assert all(det_leibniz(m_matrix(f, e, d)) == w for d, w in zip(ds, want) if d <= 6)


def test_m_dets_reads_a_zero_pivot_and_falls_back_past_it(monkeypatch):
    # at p = 20023, (x^142 + x + 1)^423 has a zero 4th pivot: det M_4 = 0 is
    # read from the pivots, and only d = 5 takes det of its block
    ctx = prime_ctx(20023)
    f = monomial_sum(ctx, [(142, 1), (1, 1), (0, 1)])
    ds = [1, 2, 3, 4, 5]
    want = [det(m_matrix(f, 423, d)) for d in ds]
    assert want == [11967, 13656, 13656, 0, 0]
    sizes = []

    def counted(M):
        sizes.append(M.rows)
        return det(M)

    monkeypatch.setattr(fpmat_mod, "det", counted)
    assert m_dets(f, 423, ds) == want
    assert sizes == [5]
