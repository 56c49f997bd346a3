"""General integer homology by Smith normal forms: the oracle the page
turn's two routes are checked against.

The package turns a page only where a part is all order 2 or a single
summand.  This module computes ker(d_out)/im(d_in) for any complex of
cyclic-sum groups with dense ``Mat`` blocks, from six Smith forms per
block.  It shares nothing with the package: it imports nothing from it,
its Smith form tracks both unimodular transforms, and it reads the
package's ``ColMat`` blocks and ``F2Homology`` objects only through their
stored fields.  Ill-posed inputs raise ``ValueError``.
"""

from typing import List, Optional, Sequence, Tuple


class Mat:
    """A dense integer matrix with explicit shape, so 0 x n and n x 0 work."""

    __slots__ = ("m", "n", "rows")

    def __init__(self, rows: Sequence[Sequence[int]], m: Optional[int] = None, n: Optional[int] = None):
        self.rows: List[List[int]] = [list(r) for r in rows]
        self.m = len(self.rows) if m is None else m
        if n is None:
            n = len(self.rows[0]) if self.rows else 0
        self.n = n
        if len(self.rows) != self.m:
            raise ValueError("row count mismatch")
        for r in self.rows:
            if len(r) != self.n:
                raise ValueError("ragged matrix")

    @classmethod
    def zeros(cls, m: int, n: int) -> "Mat":
        return cls([[0] * n for _ in range(m)], m, n)

    @classmethod
    def identity(cls, n: int) -> "Mat":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)], n, n)

    @classmethod
    def from_cols(cls, cols: Sequence[Sequence[int]], m: int) -> "Mat":
        return cls([[col[i] for col in cols] for i in range(m)], m, len(cols))

    def col(self, j: int) -> List[int]:
        return [self.rows[i][j] for i in range(self.m)]

    def hstack(self, other: "Mat") -> "Mat":
        if self.m != other.m:
            raise ValueError("hstack shape mismatch")
        return Mat([self.rows[i] + other.rows[i] for i in range(self.m)], self.m, self.n + other.n)

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.n != other.m:
            raise ValueError("matmul shape mismatch")
        out = [[0] * other.n for _ in range(self.m)]
        for i in range(self.m):
            ri = self.rows[i]
            oi = out[i]
            for k in range(self.n):
                a = ri[k]
                if a:
                    rk = other.rows[k]
                    for j in range(other.n):
                        oi[j] += a * rk[j]
        return Mat(out, self.m, other.n)

    def vec(self, x: Sequence[int]) -> List[int]:
        if len(x) != self.n:
            raise ValueError("vector length mismatch")
        return [sum(self.rows[i][j] * x[j] for j in range(self.n)) for i in range(self.m)]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Mat)
            and self.m == other.m
            and self.n == other.n
            and self.rows == other.rows
        )

    def __hash__(self):  # pragma: no cover - Mats are not dict keys
        raise TypeError("Mat is mutable, not hashable")

    def __repr__(self) -> str:
        return "Mat(%r)" % (self.rows,)


def pack_columns(cols):
    """The compressed-column arrays (ptr, rows, vals) of a list of
    {row: nonzero coefficient} columns, keeping each column's order:
    ``ColMat(*pack_columns(cols), m)`` is their sparse matrix."""
    ptr, rows, vals = [0], [], []
    for col in cols:
        rows.extend(col)
        vals.extend(col.values())
        ptr.append(len(rows))
    return ptr, rows, vals


def dense(M) -> Mat:
    """The dense copy of a sparse ``ColMat``."""
    rows = [[0] * M.n for _ in range(M.m)]
    for j in range(M.n):
        for i, c in M.col(j):
            rows[i][j] = c
    return Mat(rows, M.m, M.n)


def is_cycle(H, x) -> bool:
    """True when the outgoing map of an ``F2Homology`` kills x mod 2."""
    acc = 0
    for v, out in zip(x, H._out_cols):
        if v & 1:
            acc ^= out
    return acc == 0


def smith_form(M: Mat) -> Tuple[Mat, Mat, Mat]:
    """Return (D, U, V) with U @ M @ V = D diagonal, d_i | d_{i+1} and
    d_i >= 0.

    U and V are unimodular.  Pivot choice is the smallest absolute value in
    the remaining block, scanned row-major, so the output is deterministic.
    """
    m, n = M.m, M.n
    A = [row[:] for row in M.rows]
    U = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    V = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        if i != j:
            A[i], A[j] = A[j], A[i]
            U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        if i != j:
            for r in A:
                r[i], r[j] = r[j], r[i]
            for r in V:
                r[i], r[j] = r[j], r[i]

    def addmul_row(dst, src, q):
        # row_dst += q * row_src
        Ad, As = A[dst], A[src]
        for j in range(n):
            Ad[j] += q * As[j]
        Ud, Us = U[dst], U[src]
        for j in range(m):
            Ud[j] += q * Us[j]

    def addmul_col(dst, src, q):
        for r in A:
            r[dst] += q * r[src]
        for r in V:
            r[dst] += q * r[src]

    def negate_row(i):
        A[i] = [-a for a in A[i]]
        U[i] = [-a for a in U[i]]

    t = 0
    while t < m and t < n:
        # locate the smallest nonzero entry of the trailing block
        piv = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                a = abs(A[i][j])
                if a and (best is None or a < best):
                    best = a
                    piv = (i, j)
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])

        while True:
            # clear column t with row operations
            restart = False
            for i in range(t + 1, m):
                if A[i][t]:
                    q = A[i][t] // A[t][t]
                    addmul_row(i, t, -q)
                    if A[i][t]:
                        swap_rows(t, i)
                        restart = True
            if restart:
                continue
            for j in range(t + 1, n):
                if A[t][j]:
                    q = A[t][j] // A[t][t]
                    addmul_col(j, t, -q)
                    if A[t][j]:
                        swap_cols(t, j)
                        restart = True
            if restart:
                continue
            # both clear; enforce divisibility of the rest of the block
            d = A[t][t]
            offender = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if A[i][j] % d:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            addmul_row(t, offender, 1)

        if A[t][t] < 0:
            negate_row(t)
        t += 1

    return Mat(A, m, n), Mat(U, m, m), Mat(V, n, n)


def diagonal(D: Mat) -> List[int]:
    """The diagonal d_1, d_2, ... of a Smith form D."""
    return [D.rows[i][i] for i in range(min(D.m, D.n))]


def kernel_basis(M: Mat) -> Mat:
    """Columns form a lattice basis of the integer kernel of M."""
    D, _U, V = smith_form(M)
    dia = diagonal(D)
    return Mat.from_cols([V.col(j) for j in range(M.n) if j >= len(dia) or dia[j] == 0], M.n)


def snf_solve(snf, b):
    """One integer solution of M x = b given the Smith form (D, U, V) of M,
    or None when there is none."""
    D, U, V = snf
    y = U.vec(list(b))
    dia = diagonal(D)
    z = [0] * D.n
    for i in range(D.m):
        d = dia[i] if i < len(dia) else 0
        if d:
            if y[i] % d:
                return None
            if i < D.n:
                z[i] = y[i] // d
        elif y[i]:
            return None
    return V.vec(z)


def solve(M: Mat, b):
    """One integer solution of M x = b, or None when there is none."""
    return snf_solve(smith_form(M), b)


def unimodular_inverse(U: Mat) -> Mat:
    """Exact inverse of a unimodular matrix by a second Smith form."""
    D, A, B = smith_form(U)
    if diagonal(D) != [1] * U.m or U.m != U.n:
        raise ValueError("matrix is not unimodular")
    return B @ A


def lattice_basis(P: Mat) -> Mat:
    """Independent columns K spanning the column span of P: with
    U @ P @ V = D, K is U^-1's columns times the nonzero d_i."""
    D, U, _V = smith_form(P)
    W = unimodular_inverse(U)
    dia = diagonal(D)
    return Mat.from_cols([[d * W.rows[r][i] for r in range(P.m)] for i, d in enumerate(dia) if d], P.m)


def cycle_lattice(d_out: Mat, orders_next) -> Mat:
    """Columns spanning the x with d_out(x) = 0 in the target group."""
    n = d_out.n
    tors = [[o if r == i else 0 for r in range(len(orders_next))]
            for i, o in enumerate(orders_next) if o]
    big = kernel_basis(d_out.hstack(Mat.from_cols(tors, len(orders_next))))
    return Mat([big.rows[i] for i in range(n)], n, big.n)


def _raise():
    raise ValueError("not a cycle")


def six_form_homology(d_in: Mat, d_out: Mat, orders, orders_next):
    """ker(d_out)/im(d_in) at a middle group with the given summand orders.

    The cycle lattice basis K comes from ``lattice_basis``, cycles are
    solved through a fresh Smith form of K, and the generators through the
    inverted row transform of Y, the boundaries and torsion in cycle
    coordinates.  Each
    generator's sign makes its first nonzero coordinate positive (free
    summand) or in the lower half of its cyclic group.  Returns (orders,
    gens, project), project raising on a non-cycle.
    """
    n = len(orders)
    K = lattice_basis(cycle_lattice(d_out, orders_next))
    if K.n == 0:
        return [], [], lambda x: [] if not any(x) else _raise()
    K_snf = smith_form(K)

    def coords(x):
        z = snf_solve(K_snf, x)
        if z is None:
            _raise()
        return z

    ycols = [coords(d_in.col(j)) for j in range(d_in.n)]
    ycols += [coords([o if r == i else 0 for r in range(n)])
              for i, o in enumerate(orders) if o]
    Dy, Uy, _Vy = smith_form(Mat.from_cols(ycols, K.n))
    dy = diagonal(Dy)
    gen_mat = K @ unimodular_inverse(Uy)
    kept, out_orders, gens, signs = [], [], [], []
    for i in range(K.n):
        d = dy[i] if i < len(dy) else 0
        if d == 1:
            continue
        g = gen_mat.col(i)
        sign = 1
        for gi, o in zip(g, orders):
            v = gi % o if o else gi
            if v:
                if (o == 0 and v < 0) or (o and v > o - v):
                    sign = -1
                break
        kept.append(i)
        out_orders.append(d)
        gens.append([sign * gi % o if o else sign * gi for gi, o in zip(g, orders)])
        signs.append(sign)

    def project(x):
        h = Uy.vec(coords(x))
        return [sg * h[i] % d if d else sg * h[i]
                for i, d, sg in zip(kept, out_orders, signs)]

    return out_orders, gens, project
