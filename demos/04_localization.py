"""
Inverting z: the graded localization and the Weyl algebra inside it
===================================================================

z is central, so fractions b/z^k with a single right denominator give the
localized ring.  Setting z = 1 maps B(n) onto the Weyl algebra with
kernel (z-1)B(n); minimal z-padding is a section of that map.  The
degree-zero fractions are an exact copy of the Weyl algebra (the map
theta), and shifting by powers of z identifies the whole localized ring
with Laurent polynomials over it (the map mu).
"""

from weylkit import (
    AlgebraElement,
    AlgebraKind,
    Generator,
    dehomogenize,
    homogenize,
    kernel_witness,
    loc_multiply,
    make,
    mu,
    multiply,
    normal_form,
    parse,
    render,
    theta,
    theta_inverse,
)

A, B = AlgebraKind.A, AlgebraKind.B


def bel(text):
    return normal_form(parse(text, 1, B), B)


def ael(text):
    return normal_form(parse(text, 1, A), A)


# Canonical fractions strip common z factors:
print(render(make(bel("z^2*x1 + z^3"), 3)))   # (x1 + z)/z

# Dehomogenization sends z to 1:
print(dehomogenize(bel("x1*d1 + z^2")))                 # x1*d1 + 1

# Anything that dies under z -> 1 is divisible by (z - 1), with an
# explicit witness from the telescoping z^i - 1 = (z-1)(z^(i-1)+..+1):
b = bel("z^2*x1 - x1")
w = kernel_witness(b)
print("witness:", w)                                    # z*x1 + x1
zm1 = AlgebraElement.generator(B, 1, Generator.z()) - AlgebraElement.one(B, 1)
assert multiply(zm1, w) == b

# Homogenization pads each term up to the top partial degree:
hb, k = homogenize(ael("x1*d1 + 1"))
print(f"homogenize(x1*d1 + 1) = ({hb}, z-power {k})")

# theta: degree-zero fractions are exactly the Weyl algebra.
frac = make(bel("x1*d1 + z^2"), 2)
print("theta:", theta(frac))                            # x1*d1 + 1
assert theta_inverse(theta(frac)) == frac

# mu places a Weyl element in any graded degree; it is multiplicative
# across pairs, making the localized ring Laurent polynomials over A(n).
a, b2 = ael("x1*d1 + 1"), ael("d1")
lhs = loc_multiply(mu(a, 1), mu(b2, -2))
rhs = mu(multiply(a, b2), -1)
print("mu(a,1)*mu(b,-2) =", render(lhs))
assert lhs == rhs
