"""Exact modular and rational arithmetic primitives.

Residues are canonical ints in [0, p-1].  Rationals are stdlib
``fractions.Fraction`` (arbitrary precision, always reduced).
"""

from fractions import Fraction
from functools import lru_cache
from math import gcd


class DenominatorVanishes(ValueError):
    """Raised when reducing a fraction whose denominator is 0 mod p."""


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all 64-bit inputs."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    # These witnesses are known sufficient for n < 3.3 * 10^24.
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeCtx:
    """A prime p with factorial and inverse-factorial tables mod p.

    Immutable after construction; safe to share between workers.
    """

    __slots__ = ("p", "fact", "inv_fact")

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        fact = [1] * p
        for i in range(1, p):
            fact[i] = fact[i - 1] * i % p
        inv_fact = [1] * p
        inv_fact[p - 1] = pow(fact[p - 1], p - 2, p)
        for i in range(p - 1, 0, -1):
            inv_fact[i - 1] = inv_fact[i] * i % p
        self.fact = fact
        self.inv_fact = inv_fact

    def inv(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise ZeroDivisionError(f"0 is not invertible mod {self.p}")
        return pow(a, self.p - 2, self.p)

    def __repr__(self):
        return f"PrimeCtx({self.p})"


@lru_cache(maxsize=64)
def prime_ctx(p: int) -> PrimeCtx:
    """Shared per-prime context; tables are built once."""
    return PrimeCtx(p)


def binom(ctx: PrimeCtx, n: int, k: int) -> int:
    """C(n, k) mod p for 0 <= n < p, read from the factorial tables; 0 unless
    0 <= k <= n."""
    if k < 0 or k > n:
        return 0
    return ctx.fact[n] * ctx.inv_fact[k] * ctx.inv_fact[n - k] % ctx.p


def jacobi(k: int, d: int) -> int:
    """Jacobi symbol (k/d) for odd positive d; 0 iff gcd(k, d) > 1."""
    if d <= 0 or d % 2 == 0:
        raise ValueError("jacobi requires positive odd d")
    k %= d
    result = 1
    while k != 0:
        while k % 2 == 0:
            k //= 2
            if d % 8 in (3, 5):
                result = -result
        k, d = d, k
        if k % 4 == 3 and d % 4 == 3:
            result = -result
        k %= d
    return result if d == 1 else 0


def bracket(k: int, d: int) -> int:
    """Sign of x -> kx on Z/dZ, by the closed forms.

    Jacobi symbol for odd d; (-1)^{((k-1)/2)((d-2)/2)} for even d.
    """
    if d < 1:
        raise ValueError("d must be positive")
    if gcd(k, d) != 1:
        raise ValueError(f"bracket needs gcd(k, d) = 1, got k={k}, d={d}")
    if d % 2 == 1:
        return jacobi(k, d)
    # k is odd here; normalize so the exponent formula sees a positive k
    k %= 2 * d
    return -1 if ((k - 1) // 2) * ((d - 2) // 2) % 2 else 1


def bracket_bruteforce(k: int, d: int) -> int:
    """Oracle for bracket: parity of x -> kx mod d by cycle decomposition."""
    if d < 1 or d > 10**4:
        raise ValueError("oracle scale is 1 <= d <= 10^4")
    if gcd(k, d) != 1:
        raise ValueError("gcd(k, d) must be 1")
    k %= d
    seen = [False] * d
    sign = 1
    for start in range(d):
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = x * k % d
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def rational_mod_p(ctx: PrimeCtx, q: Fraction) -> int:
    """num * den^{-1} mod p."""
    den = q.denominator % ctx.p
    if den == 0:
        raise DenominatorVanishes(f"{q} has denominator divisible by {ctx.p}")
    return q.numerator % ctx.p * pow(den, ctx.p - 2, ctx.p) % ctx.p

