"""Dense linear algebra over F_p and the coefficient matrices M_d(f^e)."""

from operator import mul

from .ff import PrimeCtx
from .poly import FpPoly, _pack, _slot, _unpack, coeff_window


class Singular(ArithmeticError):
    pass


class FpMatrix:
    __slots__ = ("ctx", "rows", "cols", "data")

    def __init__(self, ctx: PrimeCtx, rows: int, cols: int, data):
        if rows < 0 or cols < 0 or len(data) != rows * cols:
            raise ValueError("bad dimensions")
        p = ctx.p
        self.ctx = ctx
        self.rows = rows
        self.cols = cols
        self.data = [a % p for a in data]

    @classmethod
    def identity(cls, ctx: PrimeCtx, n: int) -> "FpMatrix":
        data = [0] * (n * n)
        for i in range(n):
            data[i * n + i] = 1
        return cls(ctx, n, n, data)

    @classmethod
    def from_rows(cls, ctx: PrimeCtx, rows) -> "FpMatrix":
        rows = [list(r) for r in rows]
        n = len(rows)
        m = len(rows[0]) if rows else 0
        if any(len(r) != m for r in rows):
            raise ValueError("ragged rows")
        return cls(ctx, n, m, [a for r in rows for a in r])

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i * self.cols + j]

    def row(self, i):
        return self.data[i * self.cols : (i + 1) * self.cols]

    def to_rows(self):
        return [self.row(i) for i in range(self.rows)]

    def __eq__(self, other):
        return (
            isinstance(other, FpMatrix)
            and self.ctx.p == other.ctx.p
            and (self.rows, self.cols) == (other.rows, other.cols)
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.ctx.p, self.rows, self.cols, tuple(self.data)))

    def __matmul__(self, other: "FpMatrix") -> "FpMatrix":
        """Each row of ``other`` packed into one integer, a slot per entry
        (Kronecker substitution, as in ``poly._mul``), so row i of the product
        is one dot product of row i with the packed rows."""
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        m = other.cols
        slot = _slot(self.cols * (self.ctx.p - 1) ** 2)
        packed = [_pack(row, slot) for row in other.to_rows()]
        out = []
        for row in self.to_rows():
            out += _unpack(sum(map(mul, row, packed)), m, slot)
        return FpMatrix(self.ctx, self.rows, m, out)

    def __sub__(self, other: "FpMatrix") -> "FpMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("dimension mismatch")
        return FpMatrix(
            self.ctx,
            self.rows,
            self.cols,
            [a - b for a, b in zip(self.data, other.data)],
        )

    def scale(self, c: int) -> "FpMatrix":
        return FpMatrix(self.ctx, self.rows, self.cols, [c * a for a in self.data])

    def scale_rows(self, cs) -> "FpMatrix":
        """diag(cs) @ self: row i times cs[i]."""
        m = self.cols
        return FpMatrix(self.ctx, self.rows, m, [cs[k // m] * a for k, a in enumerate(self.data)])

    def transpose(self) -> "FpMatrix":
        m = self.cols
        return FpMatrix(self.ctx, m, self.rows, [a for j in range(m) for a in self.data[j::m]])

    def hstack(self, other: "FpMatrix") -> "FpMatrix":
        if self.rows != other.rows:
            raise ValueError("row mismatch")
        rows = [self.row(i) + other.row(i) for i in range(self.rows)]
        return FpMatrix.from_rows(self.ctx, rows)

    def submatrix(self, r0, r1, c0, c1) -> "FpMatrix":
        rows = [self.row(i)[c0:c1] for i in range(r0, r1)]
        return FpMatrix(self.ctx, r1 - r0, c1 - c0, [a for r in rows for a in r])

    def __repr__(self):
        return f"FpMatrix(p={self.ctx.p}, {self.to_rows()})"


def _eliminate(rows, p, swap):
    """Forward elimination over F_p: a (pivot, tail, swapped) step per column.

    tail is the rest of the pivot row divided by the pivot, and swapped says
    whether a row swap brought that row up; the steps end at the first zero
    pivot.  Without ``swap`` the pivots' prefix products are the leading
    principal minors.  Only the pivot row is reduced mod p: after k steps an
    entry is below (k + 1) * p^2.  ``rows`` may be reordered, not changed.
    """
    steps = []
    a = rows
    while a:
        head = a[0][0] % p
        i = 0
        if swap and not head:
            i = next((i for i, row in enumerate(a) if row[0] % p), 0)
            a[0], a[i] = a[i], a[0]
            head = a[0][0] % p
        if not head:
            return steps + [(0, None, False)]
        inv = pow(head, p - 2, p)
        tail = [y * inv % p for y in a[0][1:]]
        steps.append((head, tail, i > 0))
        # In place on copied rows: on CPython 3.11 this beats a comprehension per row.
        nxt = []
        for row in a[1:]:
            c = -row[0] % p
            row = row[1:]
            if c:
                for j, y in enumerate(tail):
                    row[j] += c * y
            nxt.append(row)
        a = nxt
    return steps


def det(M: FpMatrix) -> int:
    """Determinant by elimination, first nonzero pivot in column order."""
    if M.rows != M.cols:
        raise ValueError("det needs a square matrix")
    p = M.ctx.p
    out = 1
    for pivot, _, swapped in _eliminate(M.to_rows(), p, True):
        out = (-out if swapped else out) * pivot % p
    return out


def solve(M: FpMatrix, B: FpMatrix) -> FpMatrix:
    """M^{-1} B: elimination on [M | B], then back substitution; raises
    Singular when det M = 0."""
    if M.rows != M.cols or B.rows != M.rows:
        raise ValueError("solve needs a square M with as many rows as B")
    n, q, p = M.rows, B.cols, M.ctx.p
    kept = []
    for pivot, tail, _ in _eliminate([M.row(i) + B.row(i) for i in range(n)], p, True):
        if not pivot:
            raise Singular("matrix is singular")
        kept.append(tail)
    # Row k of the solution is the right part of pivot row k, less the entries
    # of that row right of the diagonal times the rows of the solution below k.
    below = []
    for tail in reversed(kept):
        m = len(tail) - q
        acc = tail[m:]
        for u, x in zip(tail, below):
            if u:
                for j, b in enumerate(x):
                    acc[j] -= u * b
        below.insert(0, [a % p for a in acc])
    return FpMatrix(M.ctx, n, q, [a for row in below for a in row])


def inverse(M: FpMatrix) -> FpMatrix:
    """solve(M, I); raises Singular when det = 0."""
    return solve(M, FpMatrix.identity(M.ctx, M.rows))


def m_matrix(f: FpPoly, e: int, d: int) -> FpMatrix:
    """The d x d matrix with entry (i, j) = [x^{ip+j-d-1}] f^e (1-based i, j)."""
    ctx = f.ctx
    p = ctx.p
    if not 1 <= d <= p:
        raise ValueError(f"need 1 <= d <= p, got d={d}")
    indices = [i * p + j - d - 1 for i in range(1, d + 1) for j in range(1, d + 1)]
    return FpMatrix(ctx, d, d, coeff_window(f, e, indices))


def m_dets(f: FpPoly, e: int, ds):
    """[det M_d(f^e) for d in ds], from one window and one elimination.

    M_d is the top-right d x d block of M_D (D = max ds).  With its columns
    reversed, entry (i, j) of M_D is [x^{ip-j}] f^e, so each M_d is the
    leading d x d block with its columns reversed, and det M_d is
    (-1)^{floor(d/2)} times the d-th leading principal minor.  Elimination
    without row swaps gives the minors as prefix products of the pivots.  A
    zero k-th pivot makes the k-th minor 0; a larger d takes ``det`` of its
    block of the window.
    """
    ctx = f.ctx
    p = ctx.p
    ds = list(ds)
    if not ds or min(ds) < 1 or max(ds) > p:
        raise ValueError(f"need some d, each 1 <= d <= p, got ds={ds}")
    top = max(ds)
    window = coeff_window(f, e, [i * p - j for i in range(1, top + 1) for j in range(1, top + 1)])
    rows = [window[i * top:(i + 1) * top] for i in range(top)]
    minors = [1]  # minors[k]: the k-th leading minor, while the pivots are nonzero
    for pivot, _, _ in _eliminate(rows, p, False):
        minors.append(minors[-1] * pivot % p)
    out = []
    for d in ds:
        if d < len(minors):
            minor = minors[d]
        else:
            minor = det(FpMatrix(ctx, d, d, [v for row in rows[:d] for v in row[:d]]))
        out.append(minor if d // 2 % 2 == 0 else -minor % p)
    return out

