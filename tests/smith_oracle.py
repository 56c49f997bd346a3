"""General integer homology by Smith normal forms: the oracle the page
turn's two routes are checked against.

The package turns a page only where a part is all order 2 or a single
summand.  This module computes ker(d_out)/im(d_in) for any complex of
cyclic-sum groups with dense ``Mat`` blocks, from six Smith forms per
block, sharing only ``smith_normal_form`` with the package.
"""

from effss.intlinalg import LinearAlgebraError, Mat, diagonal, smith_normal_form


def kernel_basis(M: Mat) -> Mat:
    """Columns form a lattice basis of the integer kernel of M."""
    D, _U, V = smith_normal_form(M)
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
    return snf_solve(smith_normal_form(M), b)


def unimodular_inverse(U: Mat) -> Mat:
    """Exact inverse of a unimodular matrix by a second Smith form."""
    D, A, B = smith_normal_form(U)
    if diagonal(D) != [1] * U.m or U.m != U.n:
        raise LinearAlgebraError("matrix is not unimodular")
    return B @ A


def lattice_basis(P: Mat) -> Mat:
    """Independent columns K spanning the column span of P: with
    U @ P @ V = D, K is U^-1's columns times the nonzero d_i."""
    D, U, _V = smith_normal_form(P)
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
    raise LinearAlgebraError("not a cycle")


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
    K_snf = smith_normal_form(K)

    def coords(x):
        z = snf_solve(K_snf, x)
        if z is None:
            _raise()
        return z

    ycols = [coords(d_in.col(j)) for j in range(d_in.n)]
    ycols += [coords([o if r == i else 0 for r in range(n)])
              for i, o in enumerate(orders) if o]
    Dy, Uy, _Vy = smith_normal_form(Mat.from_cols(ycols, K.n))
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
