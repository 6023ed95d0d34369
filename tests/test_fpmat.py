import random
from itertools import permutations

import pytest

from discdet.ff import prime_ctx
from discdet.fpmat import FpMatrix, Singular, det, inverse, m_matrix
from discdet.poly import FpPoly, monomial_sum, poly_pow


def rand_matrix(ctx, n, rng):
    return FpMatrix(ctx, n, n, [rng.randrange(ctx.p) for _ in range(n * n)])


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
    for p in (2, 5, 13):
        ctx = prime_ctx(p)
        for n in range(5):
            for _ in range(20):
                M = rand_matrix(ctx, n, rng)
                assert det(M) == det_leibniz(M)


def test_det_empty_matrix_is_one():
    assert det(FpMatrix(prime_ctx(7), 0, 0, [])) == 1


def test_inverse_roundtrip():
    rng = random.Random(1)
    ctx = prime_ctx(31)
    done = 0
    while done < 25:
        M = rand_matrix(ctx, 4, rng)
        if det(M) == 0:
            with pytest.raises(Singular):
                inverse(M)
            continue
        assert inverse(M) @ M == FpMatrix.identity(ctx, 4)
        done += 1


def test_matmul_hstack_submatrix():
    ctx = prime_ctx(7)
    A = FpMatrix(ctx, 2, 3, [1, 2, 3, 4, 5, 6])
    B = FpMatrix(ctx, 3, 2, [1, 0, 0, 1, 1, 1])
    assert (A @ B).to_rows() == [[4, 5], [3, 4]]
    assert A.hstack(A).rows == 2 and A.hstack(A).cols == 6
    assert A.submatrix(0, 2, 1, 3).to_rows() == [[2, 3], [5, 6]]


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
