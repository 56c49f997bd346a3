"""Exact integer linear algebra: Smith form and the homology of page turns.

Page turning reduces to one computation: the homology of

    G_prev --d_in--> G --d_out--> G_next

where each group is a finite direct sum of cyclic groups Z/o_i (o_i = 0 for a
free summand) with a preferred basis.  The engine only asks for it where G is
a single summand, which ``homology`` solves in closed form, or all order 2,
which ``F2Homology`` solves with bitsets.  Either returns the subquotient's
orders, generators in the old coordinates and a projection onto it, so that
classes on the next page can be expressed in the old coordinates and old
classes can be pushed forward.

Everything here is plain Python integers.  ``Mat`` is a dense list of rows,
which the Smith form works on; it gives the invariant factors of assembled
groups and of fiber splittings.  Differential blocks are ``ColMat``: sparse
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
    coefficient} mappings, keeping each mapping's order."""

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


def smith_normal_form(M: Mat) -> Tuple[Mat, Mat, Mat]:
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
    return [D.rows[i][i] for i in range(min(D.m, D.n))]


# ---------------------------------------------------------------------------
# homology of a two-step complex at one summand, or at order 2 summands
# ---------------------------------------------------------------------------


def _vanishes(v: int, o: int) -> bool:
    """True when v is 0 in Z/o (in Z when o = 0)."""
    return v % o == 0 if o else v == 0


class CyclicHomology:
    """ker(d_out)/im(d_in) at a single summand Z/o.

    The cycles are mZ (m = 0 when there are none), and the homology is
    cyclic of order d, generated by m; it is 0 when d = 1.
    """

    __slots__ = ("orders", "gens", "_m")

    def __init__(self, o: int, m: int, d: int):
        self._m = m
        self.orders: List[int] = [] if d == 1 else [d]
        self.gens: List[List[int]] = [] if d == 1 else [[m % o if o else m]]

    def project(self, x: Sequence[int]) -> List[int]:
        """Express a cycle x, one coordinate, over the homology generator."""
        if len(x) != 1:
            raise LinearAlgebraError("projection input has wrong length")
        m, v = self._m, x[0]
        if not _vanishes(v, m):
            raise LinearAlgebraError("vector is not a cycle")
        if not self.orders:
            return []
        d = self.orders[0]
        return [v // m % d if d else v // m]


def homology(
    o: int,
    incoming: Sequence[Tuple[int, int]],
    outgoing: Sequence[Tuple[int, int]],
) -> CyclicHomology:
    """Homology of G_prev -> Z/o -> G_next at the middle spot, in closed form.

    ``incoming`` holds one (coefficient, source order) pair per incoming
    column and ``outgoing`` one (coefficient, target order) pair per entry
    of the outgoing column; order 0 means a free summand.  Both maps are
    verified to respect torsion, and the composite to vanish.

    The cycles are mZ, with m the lcm over target rows Z/t (t > 0) of
    t / gcd(t, c) for the row's coefficient c; a nonzero c into a free row
    leaves no cycles.  Boundaries and torsion span gZ, with g the gcd of o
    and the incoming coefficients, so the homology is cyclic of order g / m
    and generated by m.
    """
    for c, t in outgoing:
        if not _vanishes(o * c, t):
            raise LinearAlgebraError("outgoing differential does not respect torsion")
    for a, p in incoming:
        if not _vanishes(p * a, o):
            raise LinearAlgebraError("incoming differential does not respect torsion")
        if any(not _vanishes(c * a, t) for c, t in outgoing):
            raise LinearAlgebraError("composite of differentials is nonzero")

    m = 1
    for c, t in outgoing:
        if t:
            m = lcm(m, t // gcd(t, c))
        elif c:
            return CyclicHomology(o, 0, 1)
    g = gcd(o, *[a for a, _p in incoming])
    if g % m:
        raise LinearAlgebraError("image of incoming differential is not a cycle")
    return CyclicHomology(o, m, g // m)


class F2Homology:
    """ker(d_out)/im(d_in) where every summand of the middle group has
    order 2, with ``orders`` and ``project`` as on ``CyclicHomology``.

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
