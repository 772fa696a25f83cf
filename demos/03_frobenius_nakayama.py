"""
The finite-dimensional dual, its Frobenius form, and the Nakayama map
=====================================================================

B(n)! lives on the 2^(2n+1) square-free words in x's, d's and one z.
Distinct generators anticommute, x and d generators square to zero, and
z^2 collapses to -(x_1 d_1 + ... + x_n d_n).  The coefficient of the top
word x_1..x_n d_1..d_n z defines a nondegenerate associative bilinear
form beta, and the Nakayama automorphism sigma measures its asymmetry
via beta(sigma(y), x) = beta(x, y).
"""

from weylkit import (
    Generator,
    ShriekElement,
    apply_automorphism,
    bilinear_form,
    decompose,
    degree_dimensions,
    gram_matrix,
    nakayama,
    reduce_word,
    shriek_basis,
)
from weylkit import linalg

x1, d1, z = Generator.x(1), Generator.d(1), Generator.z()

# Word reduction with sign tracking:
print("d1*x1  ->", reduce_word([d1, x1], 1))   # -x1*d1
print("z*z    ->", reduce_word([z, z], 1))     # -x1*d1
print("x1*x1  ->", reduce_word([x1, x1], 1))   # 0
print("z*x1*d1->", reduce_word([z, x1, d1], 1))  # x1*d1*z

# Graded dimensions are C(2n,j) + C(2n,j-1), a palindrome:
for n in (1, 2, 3):
    print(f"n={n} dims:", degree_dimensions(n))

# The z-free words form an exterior subalgebra and B! splits as its free
# rank-two module: e = (z-free part) + (z part).
e = reduce_word([x1], 1) + reduce_word([x1, z], 1)
print("decompose(x1 + x1*z) =", decompose(e))

# Gram matrices of beta between complementary degrees are invertible:
for j in range(4):
    det = linalg.det(gram_matrix(1, j))
    print(f"det gram(1,{j}) =", det)

# The Nakayama automorphism, read off the complement pairing.  The top degree
# 2n+1 is odd, so beta turns out symmetric here and sigma is the identity;
# the kit computes this rather than assuming it.
nm = nakayama(1)
for name, img in sorted(nm.images.items()):
    print(f"sigma({name}) =", img)
print("z scalar k =", nm.z_scalar)

# Its defining identity, spot-checked over the whole basis:
words = shriek_basis(1)
assert all(
    bilinear_form(apply_automorphism(nm, ShriekElement.word(1, u)), ShriekElement.word(1, v))
    == bilinear_form(ShriekElement.word(1, v), ShriekElement.word(1, u))
    for u in words
    for v in words
)
print("beta(sigma(y), x) = beta(x, y) holds on all basis pairs")
