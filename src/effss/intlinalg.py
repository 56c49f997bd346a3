"""Exact integer linear algebra: Smith form, kernels, homology of complexes.

Page turning reduces to one computation: the homology of

    G_prev --d_in--> G --d_out--> G_next

where each group is a finite direct sum of cyclic groups Z/o_i (o_i = 0 for a
free summand) with a preferred basis.  ``homology`` returns the subquotient
in invariant-factor form together with explicit generator vectors and a
projection map, so that classes on the next page can be expressed in the old
coordinates and old classes can be pushed forward.  The Smith form keeps
the inverse of its row transform as it goes, so a Smith-path ``homology``
costs three Smith forms: the cycle kernel, the cycle lattice basis K
(which also solves for cycle coordinates) and the boundaries in K.  A
group of one summand is solved in closed form, with no Smith form.

Everything here is plain Python integers.  ``Mat`` is a dense list of rows,
which the Smith form works on.  Differential blocks are ``ColMat``: sparse
columns, since on the fibers only about a tenth of their cells are nonzero,
in compressed-column form (column offsets, rows and coefficients, each one
tuple), which keeps a block of a few entries to a few small objects.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from .grading import EffssError


class LinearAlgebraError(EffssError):
    """Raised for ill-posed inputs: maps not well defined, non-cycles, etc."""


def two_adic_valuation(n: int) -> int:
    """Largest e with 2^e dividing n.

    >>> two_adic_valuation(48)
    4
    """
    if n == 0:
        raise LinearAlgebraError("the 2-adic valuation of 0 is infinite")
    return (n & -n).bit_length() - 1


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
            raise LinearAlgebraError("row count mismatch")
        for r in self.rows:
            if len(r) != self.n:
                raise LinearAlgebraError("ragged matrix")

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
            raise LinearAlgebraError("hstack shape mismatch")
        return Mat([self.rows[i] + other.rows[i] for i in range(self.m)], self.m, self.n + other.n)

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.n != other.m:
            raise LinearAlgebraError("matmul shape mismatch")
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
            raise LinearAlgebraError("vector length mismatch")
        return [sum(self.rows[i][j] * x[j] for j in range(self.n)) for i in range(self.m)]

    def is_zero(self) -> bool:
        return all(all(a == 0 for a in r) for r in self.rows)

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


class ColMat:
    """A sparse m x n integer matrix in compressed-column form (Davis,
    *Direct Methods for Sparse Linear Systems*, 2.2): column j holds the
    rows ``rows[ptr[j]:ptr[j + 1]]`` with the coefficients at the same
    places of ``vals``.  ``ColMat(cols, m)`` packs a list of {row: nonzero
    coefficient} mappings, keeping each mapping's order.  The Smith form
    routines work on the ``dense`` copy."""

    __slots__ = ("m", "n", "ptr", "rows", "vals")

    def __init__(self, cols: Sequence[Mapping[int, int]], m: int):
        ptr, rows, vals = [0], [], []
        for col in cols:
            rows.extend(col)
            vals.extend(col.values())
            ptr.append(len(rows))
        self._pack(ptr, rows, vals, m)

    @classmethod
    def packed(cls, ptr: Sequence[int], rows: Sequence[int], vals: Sequence[int], m: int) -> "ColMat":
        """The matrix of the given compressed-column arrays."""
        M = cls.__new__(cls)
        M._pack(ptr, rows, vals, m)
        return M

    def _pack(self, ptr, rows, vals, m) -> None:
        self.ptr, self.rows, self.vals = tuple(ptr), tuple(rows), tuple(vals)
        self.m = m
        self.n = len(ptr) - 1

    def col(self, j: int) -> Iterator[Tuple[int, int]]:
        """The (row, coefficient) pairs of column j, in stored order."""
        a, b = self.ptr[j], self.ptr[j + 1]
        return zip(self.rows[a:b], self.vals[a:b])

    def is_zero(self) -> bool:
        return not self.rows

    def dense(self) -> Mat:
        rows = [[0] * self.n for _ in range(self.m)]
        for j in range(self.n):
            for i, c in self.col(j):
                rows[i][j] = c
        return Mat(rows, self.m, self.n)


def smith_normal_form(M: Mat) -> Tuple[Mat, Mat, Mat, Mat]:
    """Return (D, U, V, W) with U @ M @ V = D diagonal, d_i | d_{i+1},
    d_i >= 0, and W the inverse of U.

    U and V are unimodular.  Pivot choice is the smallest absolute value in
    the remaining block, scanned row-major, so the output is deterministic.
    W is kept by undoing each row operation on the columns of W (Cohen,
    GTM 138, 2.4): a swap swaps, row_dst += q row_src is col_src -= q col_dst,
    a negation negates.
    """
    m, n = M.m, M.n
    A = [row[:] for row in M.rows]
    U = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    V = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    Wt = [r[:] for r in U]  # the columns of W = U^-1

    def swap_rows(i, j):
        if i != j:
            A[i], A[j] = A[j], A[i]
            U[i], U[j] = U[j], U[i]
            Wt[i], Wt[j] = Wt[j], Wt[i]

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
        Ws, Wd = Wt[src], Wt[dst]
        for j in range(m):
            Ud[j] += q * Us[j]
            Ws[j] -= q * Wd[j]

    def addmul_col(dst, src, q):
        for r in A:
            r[dst] += q * r[src]
        for r in V:
            r[dst] += q * r[src]

    def negate_row(i):
        A[i] = [-a for a in A[i]]
        U[i] = [-a for a in U[i]]
        Wt[i] = [-a for a in Wt[i]]

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

    return Mat(A, m, n), Mat(U, m, m), Mat(V, n, n), Mat.from_cols(Wt, m)


def diagonal(D: Mat) -> List[int]:
    return [D.rows[i][i] for i in range(min(D.m, D.n))]


def kernel_basis(M: Mat) -> Mat:
    """Columns form a lattice basis of the integer kernel of M."""
    D, _U, V, _W = smith_normal_form(M)
    dia = diagonal(D)
    cols = []
    for j in range(M.n):
        if j >= len(dia) or dia[j] == 0:
            cols.append(V.col(j))
    return Mat.from_cols(cols, M.n)


def solve(M: Mat, b: Sequence[int]) -> Optional[List[int]]:
    """One integer solution of M x = b, or None when there is none.

    Tests are its only callers; they use it to check that kernel and
    lattice bases span the vectors they should.
    """
    if len(b) != M.m:
        raise LinearAlgebraError("rhs length mismatch")
    return _snf_solve(smith_normal_form(M)[:3], b)


def _snf_solve(snf: Tuple[Mat, Mat, Mat], b: Sequence[int]) -> Optional[List[int]]:
    """Solve M x = b given the Smith form (D, U, V) of M."""
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


def lattice_basis(P: Mat) -> Tuple[Mat, Optional[Tuple[Mat, Mat, Mat]]]:
    """Independent columns K spanning the column span of P (a lattice
    basis), with a Smith form of K for ``_snf_solve``, or None when P has
    no columns.

    With U @ P @ V = D and W = U^-1, K is W's first r columns times the
    nonzero d_1..d_r, so U @ K is diag(d) over 0 and (that, U, I) is the
    Smith form.
    """
    if P.n == 0:
        return Mat.zeros(P.m, 0), None
    D, U, _V, W = smith_normal_form(P)
    dia = [d for d in diagonal(D) if d]
    K = Mat.from_cols([[d * W.rows[i][j] for i in range(P.m)] for j, d in enumerate(dia)], P.m)
    Dk = Mat([[d if i == j else 0 for j, d in enumerate(dia)] for i in range(P.m)], P.m, len(dia))
    return K, (Dk, U, Mat.identity(len(dia)))


# ---------------------------------------------------------------------------
# homology of a two-step complex of finitely generated abelian groups
# ---------------------------------------------------------------------------


def _check_well_defined(M: Mat, src_orders, tgt_orders, what: str) -> None:
    for j, o in enumerate(src_orders):
        if not o:
            continue
        for i, ot in enumerate(tgt_orders):
            v = o * M.rows[i][j]
            if (ot and v % ot) or (not ot and v):
                raise LinearAlgebraError(
                    "%s does not respect torsion at column %d row %d" % (what, j, i)
                )


class Homology:
    """ker(d_out)/im(d_in) with generators and a projection back onto it.

    orders   invariant factors of the summands, 0 meaning a free summand,
             entries 1 already dropped.
    gens     one ambient coordinate vector per summand.
    K_snf    Smith form of the cycle lattice basis K, or None when there
             are no cycles.
    """

    def __init__(self, ambient_rank, orders, gens, K_snf, Uy, kept, signs):
        self.ambient_rank = ambient_rank
        self.orders: List[int] = orders
        self.gens: List[List[int]] = gens
        self._K_snf = K_snf
        self._Uy = Uy
        self._kept = kept
        self._signs = signs

    @property
    def is_zero(self) -> bool:
        """True when the group is 0; tests are its only callers."""
        return not self.orders

    def cycle_coordinates(self, x: Sequence[int]) -> Optional[List[int]]:
        """Coordinates of x in the cycle lattice, or None when x is no cycle."""
        if self._K_snf is None:
            return None
        return _snf_solve(self._K_snf, x)

    def project(self, x: Sequence[int]) -> List[int]:
        """Express a cycle x as coefficients over the homology generators."""
        if len(x) != self.ambient_rank:
            raise LinearAlgebraError("projection input has wrong length")
        if self._K_snf is None:
            if any(x):
                raise LinearAlgebraError("nonzero vector in a zero group")
            return []
        z = self.cycle_coordinates(x)
        if z is None:
            raise LinearAlgebraError("vector is not a cycle")
        h = self._Uy.vec(z)
        out = []
        for i, d, sg in zip(self._kept, self.orders, self._signs):
            v = sg * h[i]
            out.append(v % d if d else v)
        return out

    def is_cycle(self, x: Sequence[int]) -> bool:
        """True when d_out kills x; tests are its only callers."""
        if self._K_snf is None:
            return not any(x)
        return self.cycle_coordinates(x) is not None


class F2Homology:
    """Same interface as Homology, specialized to all-order-2 ambient groups.

    Int bitsets stand in for vectors and for sets of generator indices, so
    kernel, image and quotient are a handful of xor reductions per class.
    Each pivot row of the cycle span holds its ambient mask in the low n
    bits and the generators it stands for above them.  The long-lived state
    is ints in tuples and an int-keyed dict, which the cyclic garbage
    collector does not track.  This is the path almost every tri-degree
    takes: any monomial carrying a torsion letter is killed by 2, so away
    from the bottom filtration rows the groups are elementary abelian.
    """

    __slots__ = ("ambient_rank", "_out_cols", "_piv", "_gens_masks")

    def __init__(self, n: int, in_masks: Sequence[int], out_cols: Sequence[int]):
        self.ambient_rank = n
        self._out_cols = tuple(out_cols)
        if len(self._out_cols) != n:
            raise LinearAlgebraError("need one outgoing column per coordinate")

        # reduced span of Z = ker(out), as lowest ambient bit -> augmented row
        self._piv: Dict[int, int] = {}
        for b in in_masks:
            if self._cycle_defect(b):
                raise LinearAlgebraError("boundary is not a cycle")
            m = self._reduce(b)
            if m:
                self._piv[m & -m] = m

        # kernel of the outgoing map, found by reducing the value columns
        gens_masks: List[int] = []
        vp: Dict[int, Tuple[int, int]] = {}
        for i, v in enumerate(self._out_cols):
            c = 1 << i
            while v:
                hit = vp.get(v & -v)
                if hit is None:
                    vp[v & -v] = (v, c)
                    break
                v ^= hit[0]
                c ^= hit[1]
            else:
                m = self._reduce(c) & ((1 << n) - 1)
                if m:  # a new class, standing for itself alone
                    self._piv[m & -m] = m | 1 << (n + len(gens_masks))
                    gens_masks.append(m)
        self._gens_masks = tuple(gens_masks)

    @property
    def orders(self) -> List[int]:
        return [2] * len(self._gens_masks)

    @property
    def gens(self) -> List[List[int]]:
        """One 0/1 coordinate vector per summand, computed on each read.

        The engine reads ``gen_masks`` instead; this is the interface shared
        with ``Homology``, which the tests compare."""
        n = self.ambient_rank
        return [[g >> i & 1 for i in range(n)] for g in self._gens_masks]

    @property
    def gen_masks(self) -> Tuple[int, ...]:
        """One bitmask per summand: bit i set where coordinate i is 1."""
        return self._gens_masks

    def _reduce(self, row: int) -> int:
        """Xor recorded rows into row until its ambient part is zero or
        starts at a bit no row has as its pivot."""
        ambient = (1 << self.ambient_rank) - 1
        while row & ambient:
            hit = self._piv.get(row & -row)
            if hit is None:
                break
            row ^= hit
        return row

    def _to_mask(self, x: Sequence[int]) -> int:
        if len(x) != self.ambient_rank:
            raise LinearAlgebraError("projection input has wrong length")
        m = 0
        for i, v in enumerate(x):
            if v & 1:
                m |= 1 << i
        return m

    def _cycle_defect(self, mask: int) -> int:
        acc = 0
        m = mask
        while m:
            low = m & -m
            acc ^= self._out_cols[low.bit_length() - 1]
            m ^= low
        return acc

    def is_cycle(self, x: Sequence[int]) -> bool:
        """True when the outgoing map kills x; tests are its only callers."""
        return self._cycle_defect(self._to_mask(x)) == 0

    def project(self, x: Sequence[int]) -> List[int]:
        m = self._to_mask(x)
        if self._cycle_defect(m):
            raise LinearAlgebraError("vector is not a cycle")
        n = self.ambient_rank
        row = self._reduce(m)
        if row & ((1 << n) - 1):
            raise LinearAlgebraError("cycle outside the recorded span")
        return [row >> (n + k) & 1 for k in range(len(self._gens_masks))]


def _cyclic_homology(d_in: Mat, d_out: Mat, o: int, orders_next: Sequence[int]) -> Homology:
    """``homology`` at a single summand Z/o, in closed form.

    The cycles are mZ, with m the lcm over target rows Z/t (t > 0) of
    t / gcd(t, c) for the row's coefficient c; a nonzero c into a free row
    leaves no cycles.  Boundaries and torsion span gZ, with g the gcd of o
    and the incoming entries, so the homology is cyclic of order g / m and
    generated by m.  (diag(m), 1, 1) is the Smith form of the cycle basis.
    """
    m = 1
    for (c,), t in zip(d_out.rows, orders_next):
        if t:
            m = lcm(m, t // gcd(t, c))
        elif c:
            return Homology(1, [], [], None, None, [], [])
    g = gcd(o, *d_in.rows[0])
    if g % m:
        raise LinearAlgebraError("image of incoming differential is not a cycle")
    d = g // m
    orders, gens = ([], []) if d == 1 else ([d], [[m % o if o else m]])
    one = Mat([[1]], 1, 1)
    return Homology(1, orders, gens, (Mat([[m]], 1, 1), one, one), one, [0], [1])


def homology(
    d_in: Mat,
    d_out: Mat,
    orders_prev: Sequence[int],
    orders: Sequence[int],
    orders_next: Sequence[int],
) -> Homology:
    """Homology of G_prev -> G -> G_next at the middle spot.

    The groups are given by their summand orders; the matrices act on the
    corresponding preferred bases.  Both maps are verified to respect
    torsion and the composite is verified to vanish.
    """
    n = len(orders)
    if d_in.m != n or d_out.n != n:
        raise LinearAlgebraError("differential shapes do not match the group")
    if d_in.n != len(orders_prev) or d_out.m != len(orders_next):
        raise LinearAlgebraError("differential shapes do not match neighbors")

    _check_well_defined(d_out, orders, orders_next, "outgoing differential")
    _check_well_defined(d_in, orders_prev, orders, "incoming differential")
    comp = d_out @ d_in
    for i, ot in enumerate(orders_next):
        for j in range(comp.n):
            v = comp.rows[i][j]
            if (ot and v % ot) or (not ot and v):
                raise LinearAlgebraError("composite of differentials is nonzero")

    if n == 0:
        return Homology(0, [], [], None, None, [], [])
    if n == 1:
        return _cyclic_homology(d_in, d_out, orders[0], orders_next)

    # cycle lattice: x with d_out(x) = 0 in the target group
    tors_cols = [
        [orders_next[i] if r == i else 0 for r in range(len(orders_next))]
        for i in range(len(orders_next))
        if orders_next[i]
    ]
    stacked = d_out.hstack(Mat.from_cols(tors_cols, len(orders_next)))
    big = kernel_basis(stacked)
    proj = Mat([big.rows[i] for i in range(n)], n, big.n)
    K, K_snf = lattice_basis(proj)
    if K.n == 0:
        return Homology(n, [], [], None, None, [], [])

    # boundaries and ambient torsion, written in cycle coordinates
    ycols = []
    for j in range(d_in.n):
        z = _snf_solve(K_snf, d_in.col(j))
        if z is None:
            raise LinearAlgebraError("image of incoming differential is not a cycle")
        ycols.append(z)
    for i, o in enumerate(orders):
        if o:
            z = _snf_solve(K_snf, [o if r == i else 0 for r in range(n)])
            if z is None:
                raise LinearAlgebraError("torsion relation is not a cycle")
            ycols.append(z)
    Y = Mat.from_cols(ycols, K.n)

    Dy, Uy, _Vy, Uy_inv = smith_normal_form(Y)
    dia = diagonal(Dy)
    gen_mat = K @ Uy_inv

    kept, dys, gens, signs = [], [], [], []
    for i in range(K.n):
        d = dia[i] if i < len(dia) else 0
        if d == 1:
            continue
        kept.append(i)
        dys.append(d)
        g = gen_mat.col(i)
        # fix the sign so the first nonzero coordinate is positive (free
        # ambient summand) or in the lower half of its cyclic group
        sign = 1
        for gi, o in zip(g, orders):
            v = gi % o if o else gi
            if v == 0:
                continue
            if (o == 0 and v < 0) or (o and v > o - v):
                sign = -1
            break
        if sign < 0:
            g = [-x for x in g]
        g = [
            gi % o if o else gi
            for gi, o in zip(g, orders)
        ]
        gens.append(g)
        signs.append(sign)

    return Homology(n, dys, gens, K_snf, Uy, kept, signs)
