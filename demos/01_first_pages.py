"""
First pages as polynomial rings
===============================

The whole calculation starts from four finitely presented rings.  This
script prints small windows of two of them and shows how the monomial
normal form and the order bookkeeping behave.
"""

from effss import TriDegree, get_object

# the complex connective object: Z[tau, h1, v2] with 2*h1 = 0
ko_C = get_object("ko_C")
pres = ko_C.pres

print("generators of E1(%s):" % ko_C.name)
for g in pres.generators:
    print("  %-4s degree (s,f,w) = (%d,%d,%d)" % (g.name, *g.degree))

# every tri-degree carries at most one monomial here; the interesting
# part is the order: free once the h1 exponent is zero, else 2-torsion
print("\nstems 0..8 in filtration <= 2, weights 0..4:")
basis = pres.basis_window((0, 8), (0, 2), (0, 4))
for d, (orders, _marked, codes) in sorted(basis.items()):
    for k, o in zip(codes, orders):
        m = basis.coding.decode(k)  # the basis holds each monomial as its code
        print("  (%d,%d,%d)  %-14s order %s"
              % (d.s, d.f, d.w, pres.render_monomial(m), o if o else "infinite"))

# over the reals the ring picks up rho and the square relation
# (tau*h1)^2 = tau^2*h1^2 + rho^2*v2, so normal forms keep the
# tau*h1 exponent at most 1 and reduction does the rest
ko = get_object("ko")
x = ko.pres.parse("th1^2")
print("\nreduction in E1(ko): th1^2 =", ko.pres.render(ko.pres.reduce(x)))

# multiplication respects the 2-torsion: 2*h1 = 0 kills cross terms
y = ko.pres.multiply(ko.pres.parse("h1 + rho"), ko.pres.parse("h1 + rho"))
print("(h1 + rho)^2 =", ko.pres.render(y))

ko_basis = ko.pres.basis_window((-4, 40), (0, 20), (-20, 24))
count = sum(len(orders) for orders, _marked, _codes in ko_basis.values())
print("\n%d monomials of E1(ko) in the standard verification box" % count)
