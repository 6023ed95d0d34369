"""Periodic permutation matrices: step-constrained permutations.

A PPM of type (h, k) is a permutation sigma of {1..d} such that every
consecutive difference sigma(i+1) - sigma(i) is -h or +k.  Stored as the
image sequence [sigma(1), ..., sigma(d)].
"""

from math import gcd

from .ff import bracket, perm_sign


class NotPermutation(ValueError):
    pass


class StepViolation(ValueError):
    def __init__(self, i: int):
        self.index = i
        super().__init__(f"step at index {i} is not -h or +k")


class Ppm:
    __slots__ = ("h", "k", "d", "sigma")

    def __init__(self, h: int, k: int, sigma):
        self.h = h
        self.k = k
        self.d = len(sigma)
        self.sigma = tuple(sigma)

    def __eq__(self, other):
        return (
            isinstance(other, Ppm)
            and (self.h, self.k, self.sigma) == (other.h, other.k, other.sigma)
        )

    def __hash__(self):
        return hash((self.h, self.k, self.sigma))

    def __repr__(self):
        return f"Ppm(h={self.h}, k={self.k}, sigma={list(self.sigma)})"

    def parity(self) -> int:
        """Sign of sigma."""
        return perm_sign([s - 1 for s in self.sigma])

    def to_matrix(self, ctx):
        """Dense 0/1 matrix; for tests only."""
        from .fpmat import FpMatrix

        d = self.d
        data = [0] * (d * d)
        # NB: builtins.enumerate is shadowed by the module-level enumerate()
        for i in range(d):
            data[i * d + self.sigma[i] - 1] = 1
        return FpMatrix(ctx, d, d, data)


def validate(h: int, k: int, d: int, sigma) -> Ppm:
    """Check the bijection and step invariants; return the Ppm."""
    if h < 1 or k < 1 or d < 1 or gcd(h, k) != 1:
        raise ValueError("need h, k >= 1 coprime and d >= 1")
    sigma = list(sigma)
    if len(sigma) != d or sorted(sigma) != list(range(1, d + 1)):
        raise NotPermutation(f"{sigma} is not a permutation of 1..{d}")
    for i in range(d - 1):
        if sigma[i + 1] - sigma[i] not in (-h, k):
            raise StepViolation(i + 1)
    return Ppm(h, k, sigma)


def a_matrix(h: int, k: int, m: int) -> Ppm:
    """A_m(h, k): the unique size h+k PPM with sigma(1) = m."""
    d = h + k
    if not 1 <= m <= d:
        raise ValueError(f"need 1 <= m <= {d}")
    sigma = [(k * i + m - k - 1) % d + 1 for i in range(1, d + 1)]
    return validate(h, k, d, sigma)


def b_matrix(h: int, k: int, j: int) -> Ppm:
    """B_j = A_{h+k+1-j}."""
    return a_matrix(h, k, h + k + 1 - j)


def k_matrix(h: int, k: int) -> Ppm:
    """K(h, k): top-left (h+k-1) block of A_k (whose last row is e_{h+k})."""
    ak = a_matrix(h, k, k)
    if ak.sigma[-1] != h + k:
        raise RuntimeError(f"A_k({h}, {k}) does not end in e_{h + k}")
    return validate(h, k, h + k - 1, ak.sigma[:-1])


def identity_ppm(h: int, k: int, d: int) -> Ppm:
    return Ppm(h, k, range(1, d + 1))


def j_ppm(h: int, k: int, d: int) -> Ppm:
    return Ppm(h, k, range(d, 0, -1))


def _block_diag(blocks):
    """The image sequence of the block-diagonal sum of ``blocks``."""
    sigma = []
    off = 0
    for b in blocks:
        sigma.extend(off + s for s in b.sigma)
        off += b.d
    return sigma


def _block_diag_family(h, k, d):
    """The block lists of the block-diagonal PPMs of type (h, k) and size d; where
    cases overlap they agree, as K(1, k) = J_k and, at k = 1, K(h, 1) and A_k are I."""
    q, rem = divmod(d, h + k)
    if rem == 0:
        for m in range(1, k + 1):
            yield [a_matrix(h, k, m)] * q
    elif h == 1:
        yield [a_matrix(h, k, rem)] * q + [j_ppm(h, k, rem)]
    elif k == 1:
        yield [a_matrix(h, k, 1)] * q + [identity_ppm(h, k, rem)]
    elif rem == 1:
        yield [a_matrix(h, k, 1)] * q + [identity_ppm(h, k, 1)]
    elif rem == h + k - 1:
        yield [a_matrix(h, k, k)] * q + [k_matrix(h, k)]


def enumerate(h: int, k: int, d: int):
    """All PPMs of type (h, k) of size d, by the classification patterns.

    These are the block-diagonal ones of type (h, k) and the block-anti-
    diagonal ones.  Reversing the columns (sigma -> d + 1 - sigma) turns a
    type-(k, h) PPM into a type-(h, k) one and A_m(k, h) into B_m(h, k), so
    the block-anti-diagonal ones are the block-diagonal ones of type (k, h)
    with their columns reversed.
    """
    if h < 1 or k < 1 or gcd(h, k) != 1 or d < 1:
        raise ValueError("need h, k >= 1 coprime and d >= 1")
    out = {validate(h, k, d, _block_diag(blocks)) for blocks in _block_diag_family(h, k, d)}
    for blocks in _block_diag_family(k, h, d):
        out.add(validate(h, k, d, [d + 1 - s for s in _block_diag(blocks)]))
    return sorted(out, key=lambda M: M.sigma)


def enumerate_bruteforce(h: int, k: int, d: int):
    """Oracle: depth-first over sigma(1) and the two step choices."""
    if d > 24:
        raise ValueError("oracle scale is d <= 24")
    if h < 1 or k < 1 or gcd(h, k) != 1 or d < 1:
        raise ValueError("need h, k >= 1 coprime and d >= 1")
    out = []
    def dfs(prefix, used):
        if len(prefix) == d:
            out.append(Ppm(h, k, prefix))
            return
        last = prefix[-1]
        for step in (-h, k):
            nxt = last + step
            if 1 <= nxt <= d and nxt not in used:
                used.add(nxt)
                prefix.append(nxt)
                dfs(prefix, used)
                prefix.pop()
                used.discard(nxt)
    for start in range(1, d + 1):
        dfs([start], {start})
    return sorted(set(out), key=lambda M: M.sigma)


def ppm_det(M: Ppm) -> int:
    """Determinant sign: closed form for the A_m and K shapes, parity otherwise."""
    s = M.h + M.k
    if M.d == s:
        m = M.sigma[0]
        sign = -1 if (M.d - 1) * (m - 1) % 2 else 1
        return sign * bracket(M.k, s)
    if M.d == s - 1 and M == k_matrix(M.h, M.k):
        return bracket(M.k, s)
    return M.parity()
