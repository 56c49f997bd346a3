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

Everything here is plain Python integers.  ``smith_normal_form`` returns the
Smith diagonal only: the invariant factors of assembled groups and of fiber
splittings.  Differential blocks are ``ColMat``: sparse columns, since on the
fibers only about a tenth of their cells are nonzero, in compressed-column
form (column offsets, rows and coefficients, each one tuple), which keeps a
block of a few entries to a few small objects.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import Dict, Iterator, List, Sequence, Tuple

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


class ColMat:
    """A sparse m x n integer matrix in compressed-column form (Davis,
    *Direct Methods for Sparse Linear Systems*, 2.2): column j holds the
    rows ``rows[ptr[j]:ptr[j + 1]]`` with the coefficients at the same
    places of ``vals``."""

    __slots__ = ("m", "n", "ptr", "rows", "vals")

    def __init__(self, ptr: Sequence[int], rows: Sequence[int], vals: Sequence[int], m: int):
        self.ptr, self.rows, self.vals = tuple(ptr), tuple(rows), tuple(vals)
        self.m = m
        self.n = len(ptr) - 1

    def col(self, j: int) -> Iterator[Tuple[int, int]]:
        """The (row, coefficient) pairs of column j, in stored order."""
        a, b = self.ptr[j], self.ptr[j + 1]
        return zip(self.rows[a:b], self.vals[a:b])

    def is_zero(self) -> bool:
        return not self.rows


def smith_normal_form(cols: Sequence[Sequence[int]], m: int) -> List[int]:
    """The Smith diagonal d_1 | d_2 | ... (d_i >= 0, one per row or column
    of the shorter side) of the m x len(cols) matrix with these columns.

    A matrix and its transpose share their invariant factors, so the
    columns are eliminated as rows, and no transform is kept (Cohen, *A
    Course in Computational Algebraic Number Theory*, 2.4.4).  Each pivot
    is the smallest nonzero entry left.  Reducing its row and column by it
    leaves remainders smaller than it, or clears both; a pivot with both
    clear that divides every entry left is the next d_i, and leaves with
    its row, its column and any row left zero.
    """
    size = min(m, len(cols))
    A = [list(c) for c in cols if any(c)]
    dia: List[int] = []
    while True:
        piv = min(((abs(a), i, j) for i, row in enumerate(A) for j, a in enumerate(row) if a), default=None)
        if piv is None:
            return dia + [0] * (size - len(dia))
        _, i, j = piv
        P = A[i]
        p = P[j]
        rest = A[:i] + A[i + 1:]
        while True:
            for r in rest:
                if r[j]:
                    q = r[j] // p
                    for c, a in enumerate(P):
                        r[c] -= q * a
            for c, a in enumerate(P):
                if a and c != j:
                    q = a // p
                    for r in A:
                        r[c] -= q * r[j]
            if any(r[j] for r in rest) or any(a for c, a in enumerate(P) if c != j):
                break  # a remainder is the smaller pivot
            bad = next((r for r in rest if any(a % p for a in r)), None)
            if bad is None:
                dia.append(abs(p))
                A = [r[:j] + r[j + 1:] for r in rest if any(r)]
                break
            # keep d_i | d_{i+1}: a row p does not divide leaves a remainder
            for c, a in enumerate(bad):
                P[c] += a


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

    def project(self, x: Sequence[int]) -> List[int]:
        m = self._to_mask(x)
        if self._cycle_defect(m):
            raise LinearAlgebraError("vector is not a cycle")
        n = self.ambient_rank
        row = self._reduce(m)
        if row & ((1 << n) - 1):
            raise LinearAlgebraError("cycle outside the recorded span")
        return [row >> (n + k) & 1 for k in range(len(self._gens_masks))]
