"""Evaluate the generated diagrams in a zero-dimensional cubic model.

With a single field label, propagator g and cubic vertex value f3 = lam*g^3,
each diagram evaluates to weight * f3^v / g^(internal edges - n), and the sum
over a cell reproduces the coefficient of lam^v in the n-point connected
correlation function.  We cross-check the graph sums against an independent
formal power series for log Z.
"""

from fractions import Fraction

from feyngen import Model, Monomial, sigma_lv, zero_dim_log_z

g = Fraction(1, 3)
lam = Fraction(5, 7)
model = Model(("x",), {("x", "x"): g}, vertex_by_degree={3: lam * g**3})
series = zero_dim_log_z({3: lam}, g, max_sources=2, max_vertices=4, max_edges=6)

print(f"cubic model: propagator g = {g}, coupling lam = {lam}\n")
for n, title in ((0, "vacuum (log Z)"), (2, "connected 2-point")):
    m = Monomial(("x1", "x2")[:n])
    print(f"{title}:")
    if n == 2:
        # The vertex-free sector is just the bare propagator.
        print(f"  l=0 v=0: {sigma_lv(model, 0, 0, Monomial.of('x', 'x'))}")
    for v in range(1, 5):
        for l in range(0, 4):
            got = sigma_lv(model, l, v, m)
            want = series[(n, l, v)]
            if got == want == 0:
                continue
            assert got == want
            print(f"  l={l} v={v}: {got}")
    print()

print("2-point function summed over v >= 1 at each loop order:")
for l in range(0, 3):
    total = sum(sigma_lv(model, l, v, Monomial.of("x1", "x2")) for v in range(1, 5))
    print(f"  sigma^{l}(x1 x2) = {total}")
