from math import gcd

import pytest

from discdet import ppm
from discdet.ff import bracket, prime_ctx


def test_validate_rejects_bad_input():
    with pytest.raises(ppm.NotPermutation):
        ppm.validate(2, 3, 3, [1, 1, 2])
    with pytest.raises(ppm.StepViolation):
        ppm.validate(2, 3, 3, [1, 2, 3])  # +1 is neither -2 nor +3
    with pytest.raises(ValueError):
        ppm.validate(2, 4, 5, [1, 5, 3, 2, 4])  # h, k not coprime


def test_a_matrix_basics():
    # A_m has sigma(1) = m and steps -h/+k; B_j = A_{h+k+1-j}
    for h, k in ((1, 2), (2, 3), (3, 4), (1, 5)):
        d = h + k
        for m in range(1, d + 1):
            A = ppm.a_matrix(h, k, m)
            assert A.sigma[0] == m
            assert sorted(A.sigma) == list(range(1, d + 1))
        assert ppm.b_matrix(h, k, 1) == ppm.a_matrix(h, k, d)


def test_k_matrix_is_truncated_a_k():
    for h, k in ((2, 3), (3, 2), (2, 5), (4, 3)):
        K = ppm.k_matrix(h, k)
        assert K.d == h + k - 1
        assert K.sigma == ppm.a_matrix(h, k, k).sigma[: h + k - 1]


def test_enumerate_matches_bruteforce_small():
    # up to the oracle's limit d <= 24: q >= 2 blocks of every mirrored shape
    for h in range(1, 8):
        for k in range(1, 8):
            if gcd(h, k) != 1:
                continue
            for d in range(1, 25):
                fast = ppm.enumerate(h, k, d)
                slow = ppm.enumerate_bruteforce(h, k, d)
                assert fast == slow, (h, k, d)


def test_nonexistence_remainders():
    # h,k >= 2: sizes with d mod (h+k) not in {0, 1, h+k-1} admit no PPM
    assert ppm.enumerate(2, 3, 7) == []
    assert ppm.enumerate(2, 3, 8) == []
    assert ppm.enumerate(3, 4, 9) == []


def test_ppm_det_matches_parity_and_matrix_det():
    from discdet.fpmat import det

    ctx = prime_ctx(1009)
    for h, k in ((1, 1), (1, 3), (2, 3), (3, 2), (2, 5), (5, 2), (3, 4)):
        for d in range(1, 15):
            for M in ppm.enumerate(h, k, d):
                sign = ppm.ppm_det(M)
                assert sign == M.parity()
                assert det(M.to_matrix(ctx)) == sign % ctx.p


def test_block_determinant_closed_forms():
    # det A_m = (-1)^{(d-1)(m-1)} [k/d] with d = h+k; det K = [k/d]
    for h, k in ((2, 3), (3, 2), (2, 5), (4, 3), (1, 4)):
        d = h + k
        for m in range(1, d + 1):
            A = ppm.a_matrix(h, k, m)
            want = bracket(k, d) * (-1 if ((d - 1) * (m - 1)) % 2 else 1)
            assert A.parity() == want
        assert ppm.k_matrix(h, k).parity() == bracket(k, d)
