"""Integer matrix routines and homology of complexes of cyclic-sum groups."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effss.intlinalg import (
    F2Homology,
    LinearAlgebraError,
    Mat,
    diagonal,
    homology,
    kernel_basis,
    lattice_basis,
    smith_normal_form,
    solve,
    two_adic_valuation,
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


def test_snf_euclidean_oracle():
    # gcd of entries is 2 and |det| = 8, so the invariant factors are 2, 4.
    M = Mat([[2, 4], [6, 8]])
    D, U, V = smith_normal_form(M)
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
        D, U, V = smith_normal_form(M)
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
    with pytest.raises(LinearAlgebraError):
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
    H = homology(Mat([[2]]), Mat.zeros(0, 1), [0], [0], [])
    assert H.orders == [2]
    assert H.gens == [[1]]
    assert H.project([1]) == [1]
    assert H.project([2]) == [0]
    assert H.project([3]) == [1]


def test_homology_diag_two_three():
    # Z^2 --diag(2,3)--> Z^2 --> 0 is Z/2 + Z/3 = Z/6 in invariant form
    H = homology(Mat([[2, 0], [0, 3]]), Mat.zeros(0, 2), [0, 0], [0, 0], [])
    assert H.orders == [6]


def test_homology_torsion_quotient():
    # Z --2--> Z/4 --> 0 gives Z/2
    H = homology(Mat([[2]]), Mat.zeros(0, 1), [0], [4], [])
    assert H.orders == [2]
    assert H.gens == [[1]]
    assert H.project([2]) == [0]


def test_homology_kernel_into_torsion():
    # Z --1--> Z/2: the kernel is 2Z, so homology is Z on generator 2x
    H = homology(Mat.zeros(1, 0), Mat([[1]]), [], [0], [2])
    assert H.orders == [0]
    assert [abs(a) for a in H.gens[0]] == [2]
    assert not H.is_cycle([1])
    assert H.is_cycle([2])


def test_homology_zero():
    # Z --2--> Z with free target has trivial kernel
    H = homology(Mat.zeros(1, 0), Mat([[2]]), [], [0], [0])
    assert H.is_zero
    assert H.project([0]) == []


def test_homology_mixed():
    # middle group Z/4{a} + Z{b}; d_out kills nothing, d_in hits 2a
    H = homology(Mat([[2], [0]]), Mat.zeros(0, 2), [0], [4, 0], [])
    assert sorted(H.orders) == [0, 2]


def test_homology_projection_consistency():
    # generators must project to unit vectors
    H = homology(Mat([[2, 0], [0, 3]]), Mat.zeros(0, 2), [0, 0], [0, 0], [])
    for i, g in enumerate(H.gens):
        p = H.project(g)
        expected = [0] * len(H.orders)
        expected[i] = 1
        assert p == expected


def test_homology_checks():
    with pytest.raises(LinearAlgebraError):
        # 1: Z/2 -> Z by 1 is not well defined
        homology(Mat.zeros(1, 0), Mat([[1]]), [], [2], [0])
    with pytest.raises(LinearAlgebraError):
        # composite 2 != 0: Z --1--> Z --2--> Z
        homology(Mat([[1]]), Mat([[2]]), [0], [0], [0])


def test_homology_non_cycle_rejected():
    H = homology(Mat.zeros(1, 0), Mat([[2]]), [], [0], [0])
    with pytest.raises(LinearAlgebraError):
        H.project([1])


def test_f2_homology_basic():
    # ambient (Z/2)^3, boundary e0+e1, outgoing kills e2
    H = F2Homology(3, [0b011], [0, 0, 1])
    assert H.orders == [2]
    assert H.project([1, 0, 0]) == [1]
    assert H.project([0, 1, 0]) == [1]  # differs from e0 by a boundary
    assert H.project([1, 1, 0]) == [0]
    assert not H.is_cycle([0, 0, 1])
    with pytest.raises(LinearAlgebraError):
        H.project([0, 0, 1])


def check_f2_matches_generic(n, out, n_bounds, pick):
    """F2Homology against homology on one complex of order 2 classes.

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
    slow = homology(Mat.from_cols(cols, n), out, [2] * len(cols), [2] * n, [2] * mt)
    assert len(fast.orders) == len(slow.orders)
    assert all(o == 2 for o in slow.orders)
    # same subgroup: vanishing of projections must agree on random cycles
    for _ in range(10):
        x = cycle()
        assert (fast.project(x) == [0] * len(fast.orders)) == (
            slow.project(x) == [0] * len(slow.orders)
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


def test_random_complexes_sanity():
    """Random two-step complexes with d_out * d_in = 0 by construction."""
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
        d_in = Mat.from_cols(cols, n)
        H = homology(d_in, d_out, [0] * d_in.n, [0] * n, [0, 0])
        # every generator is a cycle and projects to a unit vector
        for i, g in enumerate(H.gens):
            assert H.is_cycle(g)
            p = H.project(g)
            assert p == [1 if j == i else 0 for j in range(len(H.orders))]
        # boundaries die
        for c in cols:
            assert H.project(c) == [0] * len(H.orders)
