"""Walk through the field tower GF(p) <= GF(q) <= GF(q^2).

Elements are integer codes; the context carries log/exp tables for the
extension and identifies the base field as the fixed set of x -> x^q.
"""

from hermcodes import make_field

ctx = make_field(2, 1)  # GF(2) inside GF(4)
print("GF(4) modulus (ascending coefficients):", ctx.modulus)
print("primitive element code:", ctx.generator)
print("base field codes inside GF(4):", ctx.base_embed)

w = 2  # the class of x, a primitive cube root of unity
print("w * w =", ctx.mul(w, w), " w^3 =", ctx.pow(w, 3))
print("conjugate / norm / trace of w:", ctx.frob(w), ctx.norm(w), ctx.trace(w))

# the norm maps GF(q^2)* onto GF(q)* with fibers of size q + 1
ctx9 = make_field(3, 1)
fibers = {}
for a in range(1, ctx9.q2):
    fibers.setdefault(ctx9.norm(a), []).append(a)
print("\nGF(9) norm fibers over GF(3)*:")
for b, fiber in sorted(fibers.items()):
    print(f"  norm == {b}: {fiber}")

# preimage solvers pick the smallest code deterministically
print("norm_preimage(2) in GF(9):", ctx9.norm_preimage(2))
print("trace_preimage(1) in GF(4):", ctx.trace_preimage(1))

# a proper prime-power tower: GF(4) inside GF(16)
ctx16 = make_field(2, 2)
print("\nGF(16) modulus:", ctx16.modulus)
print("GF(4) sitting inside GF(16):", ctx16.base_embed)
