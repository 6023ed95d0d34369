"""Dense linear algebra over F_p and the coefficient matrices M_d(f^e)."""

from .ff import PrimeCtx
from .poly import FpPoly, coeff_window


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
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        p = self.ctx.p
        n, m, k = self.rows, other.cols, self.cols
        out = [0] * (n * m)
        for i in range(n):
            base = i * k
            orow = i * m
            for t in range(k):
                a = self.data[base + t]
                if a:
                    obase = t * m
                    for j in range(m):
                        out[orow + j] += a * other.data[obase + j]
        return FpMatrix(self.ctx, n, m, [v % p for v in out])

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


def det(M: FpMatrix) -> int:
    """Determinant by Gaussian elimination, first nonzero pivot in column order."""
    if M.rows != M.cols:
        raise ValueError("det needs a square matrix")
    n = M.rows
    if n == 0:
        return 1
    p = M.ctx.p
    a = [M.row(i) for i in range(n)]
    sign = 1
    for col in range(n):
        piv = next((i for i in range(col, n) if a[i][col]), None)
        if piv is None:
            return 0
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            sign = -sign
        inv = pow(a[col][col], p - 2, p)
        arow = a[col]
        for i in range(col + 1, n):
            f = a[i][col]
            if f:
                f = f * inv % p
                ai = a[i]
                for j in range(col, n):
                    ai[j] = (ai[j] - f * arow[j]) % p
    out = sign
    for i in range(n):
        out = out * a[i][i] % p
    return out % p


def inverse(M: FpMatrix) -> FpMatrix:
    """Gauss-Jordan inverse; raises Singular when det = 0."""
    if M.rows != M.cols:
        raise ValueError("inverse needs a square matrix")
    n = M.rows
    p = M.ctx.p
    a = [M.row(i) + [1 if j == i else 0 for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next((i for i in range(col, n) if a[i][col]), None)
        if piv is None:
            raise Singular("matrix is singular")
        a[col], a[piv] = a[piv], a[col]
        inv = pow(a[col][col], p - 2, p)
        a[col] = [v * inv % p for v in a[col]]
        arow = a[col]
        for i in range(n):
            if i != col and a[i][col]:
                f = a[i][col]
                ai = a[i]
                for j in range(col, 2 * n):
                    ai[j] = (ai[j] - f * arow[j]) % p
    return FpMatrix(M.ctx, n, n, [a[i][n + j] for i in range(n) for j in range(n)])


def m_matrix(f: FpPoly, e: int, d: int) -> FpMatrix:
    """The d x d matrix with entry (i, j) = [x^{ip+j-d-1}] f^e (1-based i, j)."""
    ctx = f.ctx
    p = ctx.p
    if not 1 <= d <= p:
        raise ValueError(f"need 1 <= d <= p, got d={d}")
    indices = [i * p + j - d - 1 for i in range(1, d + 1) for j in range(1, d + 1)]
    return FpMatrix(ctx, d, d, coeff_window(f, e, indices))

