import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from discdet.ff import (
    DenominatorVanishes,
    binom,
    bracket,
    bracket_bruteforce,
    is_prime,
    jacobi,
    prime_ctx,
    rational_mod_p,
)

SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 31, 101]


def test_is_prime_small():
    known = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(50):
        assert is_prime(n) == (n in known)


def test_is_prime_large():
    assert is_prime(199523)
    assert is_prime(2**61 - 1)
    assert not is_prime(199523 * 199523)


def test_prime_ctx_tables():
    ctx = prime_ctx(13)
    for n in range(13):
        assert ctx.fact[n] == math.factorial(n) % 13
        assert ctx.fact[n] * ctx.inv_fact[n] % 13 == 1


def test_prime_ctx_rejects_composite():
    with pytest.raises(ValueError):
        prime_ctx(15)


@given(st.data())
def test_binom_matches_comb_below_p(data):
    p = data.draw(st.sampled_from(SMALL_PRIMES))
    n = data.draw(st.integers(0, p - 1))
    k = data.draw(st.integers(-3, n + 3))
    expected = math.comb(n, k) % p if k >= 0 else 0
    assert binom(prime_ctx(p), n, k) == expected


def test_jacobi_euler_criterion():
    # for odd primes the Jacobi symbol is the quadratic residue character
    for p in (3, 5, 7, 11, 13, 31):
        for a in range(1, p):
            euler = pow(a, (p - 1) // 2, p)
            assert jacobi(a, p) == (1 if euler == 1 else -1)


def test_jacobi_non_coprime_is_zero():
    assert jacobi(6, 9) == 0
    assert jacobi(0, 5) == 0


def test_bracket_matches_bruteforce_sampled():
    for d in list(range(1, 60)) + [128, 243, 500]:
        for k in range(-2 * d, 2 * d + 1):
            if math.gcd(k, d) != 1:
                continue
            assert bracket(k, d) == bracket_bruteforce(k, d), (k, d)


def test_bracket_special_values():
    # [-1/d] and [2/d] closed forms
    for d in range(1, 200):
        assert bracket(-1, d) == (-1) ** ((d - 1) * (d - 2) // 2 % 2)
        if d % 2 == 1:
            assert bracket(2, d) == (-1) ** ((d * d - 1) // 8 % 2)


@given(st.integers(1, 400), st.integers(1, 400), st.integers(1, 400))
def test_bracket_multiplicative(k1, k2, d):
    if math.gcd(k1, d) != 1 or math.gcd(k2, d) != 1:
        return
    assert bracket(k1 * k2, d) == bracket(k1, d) * bracket(k2, d)


def test_rational_mod_p():
    ctx = prime_ctx(7)
    assert rational_mod_p(ctx, Fraction(1, 2)) == 4
    assert rational_mod_p(ctx, Fraction(-1, 3)) == 2
    with pytest.raises(DenominatorVanishes):
        rational_mod_p(ctx, Fraction(1, 7))
