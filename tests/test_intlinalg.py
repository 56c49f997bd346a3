"""Integer matrix routines and the homology of page turns, against the
general Smith-form route of ``smith_oracle``, and that oracle's own Smith
form."""

import random
from itertools import combinations
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from effss.intlinalg import (
    ColMat,
    F2Homology,
    LinearAlgebraError,
    homology,
    smith_normal_form,
    two_adic_valuation,
)
from smith_oracle import (
    Mat,
    cycle_lattice,
    dense,
    diagonal,
    is_cycle,
    kernel_basis,
    lattice_basis,
    pack_columns,
    six_form_homology,
    smith_form,
    solve,
    unimodular_inverse,
)


def det(M: Mat) -> int:
    """Determinant by fraction-free (Bareiss) elimination."""
    if M.m != M.n:
        raise LinearAlgebraError("determinant of a non-square matrix")
    n = M.m
    if n == 0:
        return 1
    A = [row[:] for row in M.rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if A[k][k] == 0:
            for i in range(k + 1, n):
                if A[i][k]:
                    A[k], A[i] = A[i], A[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // prev
        prev = A[k][k]
    return sign * A[n - 1][n - 1]


def test_two_adic_valuation():
    assert two_adic_valuation(1) == 0
    assert two_adic_valuation(48) == 4
    assert two_adic_valuation(-8) == 3
    assert two_adic_valuation(2**40) == 40
    with pytest.raises(LinearAlgebraError):
        two_adic_valuation(0)


def determinantal_factors(cols, m):
    """Invariant factors of the m x len(cols) matrix from its determinantal
    divisors: D_k is the gcd of all k x k minors, d_k = D_k / D_{k-1}, and
    every d_k from the first zero D_k on is 0."""
    r = min(m, len(cols))
    out, prev = [], 1
    for k in range(1, r + 1):
        Dk = 0
        for rs in combinations(range(m), k):
            for cs in combinations(range(len(cols)), k):
                Dk = gcd(Dk, det(Mat([[cols[j][i] for j in cs] for i in rs], k, k)))
        if Dk == 0:
            return out + [0] * (r - k + 1)
        out.append(Dk // prev)
        prev = Dk
    return out


@st.composite
def small_matrices(draw):
    """(m, cols): 0-4 rows and 0-4 columns with entries in -9..9, any row
    or column possibly forced to zero."""
    m, n = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    zero_rows = draw(st.sets(st.integers(0, 3), max_size=2))
    zero_cols = draw(st.sets(st.integers(0, 3), max_size=2))
    entry = st.sampled_from(range(-9, 10))
    return m, [[0 if i in zero_rows or j in zero_cols else draw(entry) for i in range(m)]
               for j in range(n)]


@settings(derandomize=True, max_examples=400, deadline=None)
@given(small_matrices())
@example((2, [[2, 0], [0, 3]]))  # a diagonal that is no divisor chain: (1, 6)
@example((3, [[0, 4, 0], [6, 0, 0]]))
def test_invariant_factors_match_determinantal_divisors(matrix):
    m, cols = matrix
    got = smith_normal_form(cols, m)
    assert got == determinantal_factors(cols, m)


def test_snf_euclidean_oracle():
    # gcd of entries is 2 and |det| = 8, so the invariant factors are 2, 4.
    M = Mat([[2, 4], [6, 8]])
    D, U, V = smith_form(M)
    assert diagonal(D) == [2, 4]
    assert U @ M @ V == D
    assert abs(det(U)) == 1
    assert abs(det(V)) == 1


def test_snf_properties_random():
    rng = random.Random(23)
    for _ in range(60):
        m = rng.randint(0, 5)
        n = rng.randint(0, 5)
        M = Mat([[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)], m, n)
        D, U, V = smith_form(M)
        assert U @ M @ V == D
        dia = diagonal(D)
        for i in range(len(dia)):
            assert dia[i] >= 0
            for j in range(D.n):
                if j != i:
                    assert D.rows[i][j] == 0
        for a, b in zip(dia, dia[1:]):
            if a:
                assert b % a == 0
            else:
                assert b == 0
        if m:
            assert abs(det(U)) == 1
        if n:
            assert abs(det(V)) == 1


def test_unimodular_inverse():
    U = Mat([[3, 5], [1, 2]])  # det 1
    Ui = unimodular_inverse(U)
    assert U @ Ui == Mat.identity(2)
    with pytest.raises(ValueError):
        unimodular_inverse(Mat([[2, 0], [0, 1]]))


def test_kernel_basis():
    M = Mat([[1, 2, 3], [2, 4, 6]])
    K = kernel_basis(M)
    assert K.n == 2
    for c in (K.col(j) for j in range(K.n)):
        assert M.vec(c) == [0, 0]
    # both obvious kernel vectors lie in the lattice spanned by K
    for v in ([2, -1, 0], [3, 0, -1]):
        assert solve(K, v) is not None


def test_solve():
    M = Mat([[2, 0], [0, 3]])
    assert M.vec(solve(M, [4, 9])) == [4, 9]
    assert solve(M, [1, 0]) is None
    wide = Mat([[1, 2, 3]])
    x = solve(wide, [7])
    assert wide.vec(x) == [7]


def test_lattice_basis():
    P = Mat.from_cols([[2, 0], [4, 0], [0, 3]], 2)
    B = lattice_basis(P)
    assert B.n == 2
    # span check in both directions
    for c in (P.col(j) for j in range(P.n)):
        assert solve(B, c) is not None
    for c in (B.col(j) for j in range(B.n)):
        assert solve(P, c) is not None


def test_homology_free_times_two():
    # Z --2--> Z --> 0 gives Z/2 at the middle
    H = homology(0, [(2, 0)], [])
    assert H.orders == [2]
    assert H.gens == [[1]]
    assert H.project([1]) == [1]
    assert H.project([2]) == [0]
    assert H.project([3]) == [1]


def test_homology_diag_two_three():
    # Z^2 --diag(2,3)--> Z^2 --> 0 is Z/2 + Z/3 = Z/6 in invariant form
    orders, _gens, _project = six_form_homology(Mat([[2, 0], [0, 3]]), Mat.zeros(0, 2), [0, 0], [])
    assert orders == [6]


def test_homology_torsion_quotient():
    # Z --2--> Z/4 --> 0 gives Z/2
    H = homology(4, [(2, 0)], [])
    assert H.orders == [2]
    assert H.gens == [[1]]
    assert H.project([2]) == [0]


def test_homology_kernel_into_torsion():
    # Z --1--> Z/2: the kernel is 2Z, so homology is Z on generator 2x
    H = homology(0, [], [(1, 2)])
    assert H.orders == [0]
    assert H.gens == [[2]]
    with pytest.raises(LinearAlgebraError):
        H.project([1])
    assert H.project([2]) == [1]


def test_homology_zero():
    # Z --2--> Z with free target has trivial kernel
    H = homology(0, [], [(2, 0)])
    assert H.orders == [] and H.gens == []
    assert H.project([0]) == []


def test_homology_mixed():
    # middle group Z/4{a} + Z{b}; d_out kills nothing, d_in hits 2a
    orders, _gens, _project = six_form_homology(Mat([[2], [0]]), Mat.zeros(0, 2), [4, 0], [])
    assert sorted(orders) == [0, 2]


def test_homology_projection_consistency():
    # generators must project to unit vectors
    for H in (homology(0, [(6, 0)], []), homology(8, [(4, 2)], [(2, 4)]), homology(0, [], [(3, 4)])):
        assert H.orders and [H.project(g) for g in H.gens] == [[1]]
    orders, gens, project = six_form_homology(Mat([[2, 0], [0, 3]]), Mat.zeros(0, 2), [0, 0], [])
    for i, g in enumerate(gens):
        p = project(g)
        expected = [0] * len(orders)
        expected[i] = 1
        assert p == expected


def test_homology_checks():
    with pytest.raises(LinearAlgebraError):
        # 1: Z/2 -> Z by 1 is not well defined
        homology(2, [], [(1, 0)])
    with pytest.raises(LinearAlgebraError):
        # Z -> Z/2 by 1 is well defined, Z/2 -> Z/4 by 1 is not
        homology(4, [(1, 2)], [])
    with pytest.raises(LinearAlgebraError):
        # composite 2 != 0: Z --1--> Z --2--> Z
        homology(0, [(1, 0)], [(2, 0)])


def test_homology_non_cycle_rejected():
    H = homology(0, [], [(2, 0)])
    with pytest.raises(LinearAlgebraError):
        H.project([1])
    with pytest.raises(LinearAlgebraError):
        homology(0, [], [(1, 2)]).project([1, 0])


def test_f2_homology_basic():
    # ambient (Z/2)^3, boundary e0+e1, outgoing kills e2
    H = F2Homology(3, [0b011], [0, 0, 1])
    assert H.orders == [2]
    assert H.project([1, 0, 0]) == [1]
    assert H.project([0, 1, 0]) == [1]  # differs from e0 by a boundary
    assert H.project([1, 1, 0]) == [0]
    assert not is_cycle(H, [0, 0, 1])
    with pytest.raises(LinearAlgebraError):
        H.project([0, 0, 1])


def check_f2_matches_generic(n, out, n_bounds, pick):
    """F2Homology against the oracle on one complex of order 2 classes.

    ``out`` is the outgoing map; the ``n_bounds`` boundaries and ten test
    cycles are sums ``pick(zmasks)`` of the mod 2 cycle basis, so both
    sides accept them.
    """
    mt = out.m
    out_cols = [sum((out.rows[i][j] & 1) << i for i in range(mt)) for j in range(n)]
    zmasks = F2Homology(n, [], out_cols)._gens_masks

    def cycle():
        m = pick(zmasks)
        return [1 if m & (1 << i) else 0 for i in range(n)]

    cols = [cycle() for _ in range(n_bounds)]
    fast = F2Homology(n, [sum((c[i] & 1) << i for i in range(n)) for c in cols], out_cols)
    slow_orders, _gens, slow_project = six_form_homology(Mat.from_cols(cols, n), out, [2] * n, [2] * mt)
    assert len(fast.orders) == len(slow_orders)
    assert all(o == 2 for o in slow_orders)
    # same subgroup: vanishing of projections must agree on random cycles
    for _ in range(10):
        x = cycle()
        assert (fast.project(x) == [0] * len(fast.orders)) == (
            slow_project(x) == [0] * len(slow_orders)
        )


def test_f2_homology_matches_generic():
    rng = random.Random(17)

    def pick(zmasks):
        m = 0
        for z in zmasks:
            if rng.random() < 0.5:
                m ^= z
        return m

    for _ in range(50):
        n = rng.randint(1, 6)
        mt = rng.randint(0, 3)
        out = Mat([[rng.randint(0, 1) for _ in range(n)] for _ in range(mt)], mt, n)
        check_f2_matches_generic(n, out, rng.randint(0, 3), pick)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(data=st.data())
def test_f2_homology_matches_generic_property(data):
    n = data.draw(st.integers(1, 8))
    mt = data.draw(st.integers(0, 4))
    out = Mat(data.draw(st.lists(st.lists(st.integers(0, 1), min_size=n, max_size=n),
                                 min_size=mt, max_size=mt)), mt, n)

    def pick(zmasks):
        bits = data.draw(st.lists(st.booleans(), min_size=len(zmasks), max_size=len(zmasks)))
        m = 0
        for z, b in zip(zmasks, bits):
            if b:
                m ^= z
        return m

    check_f2_matches_generic(n, out, data.draw(st.integers(0, 4)), pick)


def sparse_columns(data, m):
    """0-8 columns, each a mapping from distinct rows below m to nonzero
    coefficients in -64..64; any of them may be empty."""
    nonzero = st.integers(-64, 64).filter(bool)
    n = data.draw(st.integers(0, 8))
    return [
        data.draw(st.dictionaries(st.integers(0, m - 1), nonzero, max_size=m) if m else st.just({}))
        for _ in range(n)
    ]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(data=st.data())
def test_colmat_agrees_with_a_dense_oracle(data):
    """Shape, dense copy, zero test and column reads of a packed ColMat."""
    m = data.draw(st.integers(0, 12))
    cols = sparse_columns(data, m)
    M = ColMat(*pack_columns(cols), m)
    want = [[col.get(i, 0) for col in cols] for i in range(m)]
    assert (M.m, M.n) == (m, len(cols))
    D = dense(M)
    assert (D.m, D.n, D.rows) == (m, len(cols), want)
    assert M.is_zero() == (not any(cols))
    for j, col in enumerate(cols):
        assert list(M.col(j)) == list(col.items()), j



def test_random_complexes_sanity():
    """The oracle on random two-step complexes with d_out * d_in = 0 by
    construction."""
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(1, 4)
        # build d_out, then pick d_in columns from its kernel lattice
        d_out = Mat([[rng.randint(-3, 3) for _ in range(n)] for _ in range(2)], 2, n)
        K = kernel_basis(d_out)
        cols = []
        for _ in range(rng.randint(0, 2)):
            z = [rng.randint(-2, 2) for _ in range(K.n)]
            cols.append(K.vec(z))
        orders, gens, project = six_form_homology(Mat.from_cols(cols, n), d_out, [0] * n, [0, 0])
        # every generator is a cycle and projects to a unit vector
        for i, g in enumerate(gens):
            assert d_out.vec(g) == [0, 0]
            assert project(g) == [1 if j == i else 0 for j in range(len(orders))]
        # boundaries die
        for c in cols:
            assert project(c) == [0] * len(orders)


# ---------------------------------------------------------------------------
# route agreement: homology against the six-Smith-form route
# ---------------------------------------------------------------------------


ORDERS = st.sampled_from([0, 2, 4, 8])


@settings(derandomize=True, max_examples=300, deadline=None)
@given(data=st.data())
def test_homology_agrees_with_the_six_form_route(data):
    o = data.draw(ORDERS)
    orders_next = data.draw(st.lists(ORDERS, min_size=0, max_size=3))
    # a well-defined outgoing map: a torsion source hits only multiples of
    # the target order over its own, and nothing free
    out = []
    for ot in orders_next:
        c = data.draw(st.integers(-4, 4))
        out.append([c if not o else (0 if not ot else c * (ot // min(o, ot)))])
    d_out = Mat(out, len(orders_next), 1)
    cycles = cycle_lattice(d_out, orders_next)

    def cycle():
        return cycles.vec(data.draw(st.lists(st.integers(-3, 3), min_size=cycles.n,
                                             max_size=cycles.n)))

    # 0-2 incoming columns, each a cycle; a torsion source of order p hits
    # 8/p times a cycle of a torsion summand
    cols, orders_prev = [], []
    for _ in range(data.draw(st.integers(0, 2))):
        x, p = cycle(), data.draw(ORDERS) if o else 0
        cols.append([(8 // p) * xi for xi in x] if p else x)
        orders_prev.append(p)
    d_in = Mat.from_cols(cols, 1)

    H = homology(o, list(zip(d_in.rows[0], orders_prev)), [(row[0], t) for row, t in zip(out, orders_next)])
    want_orders, want_gens, want_project = six_form_homology(d_in, d_out, [o], orders_next)
    assert H.orders == want_orders
    assert H.gens == want_gens
    for x in [cycle() for _ in range(4)] + cols + want_gens:
        assert H.project(x) == want_project(x)
    x = [data.draw(st.integers(-3, 3))]
    try:
        want = want_project(x)
    except ValueError:
        with pytest.raises(LinearAlgebraError):
            H.project(x)
    else:
        assert H.project(x) == want


# ---------------------------------------------------------------------------
# one summand: every small shape against the six-form route
# ---------------------------------------------------------------------------

ONE_ORDERS = range(0, 65, 2)
#: incoming entries, every 2-adic valuation 0..6 with both signs
IN_ENTRIES = [s * (k << v) for v in range(7) for s, k in ((1, 1), (-1, 3))]
#: outgoing rows (target order, coefficient): every coefficient modulo each order
ROWS = [(t, c) for t in ONE_ORDERS for c in (range(t) if t else range(-2, 3))]
ONE_OUTS = [[row] for row in ROWS] + [[row, ROWS[7 * i % len(ROWS)]] for i, row in enumerate(ROWS)]
IN_COLS = [(p, a) for p in (0, 2, 8) for a in IN_ENTRIES]
ONE_INS = [[]] + [[col] for col in IN_COLS] + [
    [col, IN_COLS[5 * i % len(IN_COLS)]] for i, col in enumerate(IN_COLS)]


def _vanishes(v, t):
    return v % t == 0 if t else v == 0


def test_one_summand_homology_agrees_with_the_six_form_route():
    # Every middle order o, every outgoing shape of one and two rows, and
    # 0-2 incoming columns taken in turn.  Ill-posed inputs must raise; on
    # the rest orders, gens and the projection of every x with |x| <= 2o + 2
    # (130 on a free summand) must match.
    k = 0
    for o in ONE_ORDERS:
        for out in ONE_OUTS:
            ins = ONE_INS[k % len(ONE_INS)]
            k += 1
            d_out = Mat([[c] for _t, c in out], len(out), 1)
            d_in = Mat([[a for _p, a in ins]], 1, len(ins))
            orders_next = [t for t, _c in out]
            incoming, outgoing = [(a, p) for p, a in ins], [(c, t) for t, c in out]
            ill_posed = (
                any(o and not _vanishes(o * c, t) for t, c in out)
                or any(p and not _vanishes(p * a, o) for p, a in ins)
                or any(not _vanishes(c * a, t) for t, c in out for _p, a in ins)
            )
            if ill_posed:
                with pytest.raises(LinearAlgebraError):
                    homology(o, incoming, outgoing)
                continue
            H = homology(o, incoming, outgoing)
            want_orders, want_gens, want_project = six_form_homology(d_in, d_out, [o], orders_next)
            assert (H.orders, H.gens) == (want_orders, want_gens), (o, out, ins)
            span = 2 * (o or 64) + 2
            for x in range(-span, span + 1):
                try:
                    want = want_project([x])
                except ValueError:
                    with pytest.raises(LinearAlgebraError):
                        H.project([x])
                else:
                    assert H.project([x]) == want, (o, out, ins, x)
