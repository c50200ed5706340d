"""Polynomial kernels over a prime field F_p, on plain int coefficient lists.

They are the F_p path of the polynomial core in ffield.py; convolve is
also IntPolynomial's product over Z.  Coefficients are ascending ints in
[0, p) over F_p.

* convolve and divmod_p are schoolbook: products are summed unreduced
  and each output coefficient is reduced once mod p.  They serve single
  products and divisions, the Euclid of gcd_p, mulmod_p below
  _PACKED_DEGREE, and the tests as the oracle of mulmod_p.
* mulmod_p(g, p) is a*b mod g for a fixed modulus g of degree n, the
  step of every exponentiation.  From _PACKED_DEGREE on it works in
  packed form (Kronecker substitution): a coefficient list c is the one
  int sum c_i * 2^(s*i), with a slot width of s bits.  The product of two
  reduced operands has slots below n(p-1)^2, and the reduction adds at
  most as much again to its low n slots, so s is the width of 2n(p-1)^2
  rounded up to whole bytes, and no slot carries into the next.  Packing
  and unpacking go through to_bytes/from_bytes (an array of 64-bit words
  when s <= 64), not a shift per slot, which would cost O(n^2) bit work.
  a*b is then one big-int product (CPython multiplies large ints by
  Karatsuba), and its high part is reduced by the packed rows
  x^(n+i) mod g, i < n - 1, built once per g, so the reduction costs
  n - 1 scalar-by-int products.  The cut-off comes from timing: below
  degree 6 the rows and the packing cost more than a schoolbook product
  saves at the few products per modulus that factoring makes.

Reference: von zur Gathen & Gerhard, Modern Computer Algebra, ch. 2
(classical multiplication, division with remainder) and §8.4 (Kronecker
substitution).
"""

import operator
import sys
from array import array

_PACKED_DEGREE = 6


def convolve(a, b) -> list:
    """The product of two int coefficient sequences, each output an unreduced sum."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return out


def divmod_p(rem: list, div, p: int):
    """Quotient and remainder lists of rem by div over F_p; rem is overwritten.

    A coefficient of rem is reduced once, when it becomes a quotient digit
    or a remainder coefficient.
    """
    d = len(div) - 1
    inv = 1 if div[-1] == 1 else pow(div[-1], -1, p)
    low = div[:d]
    quot = [0] * (len(rem) - d)
    for k in range(len(rem) - d - 1, -1, -1):
        c = quot[k] = rem[k + d] * inv % p
        if c:
            for j, y in enumerate(low, k):
                rem[j] -= c * y
    return quot, [c % p for c in rem[:d]]


def _trim(cs: list) -> list:
    while cs and not cs[-1]:
        cs.pop()
    return cs


def gcd_p(a: list, b: list, p: int) -> list:
    """The monic gcd of two trimmed coefficient lists over F_p; a is overwritten.

    Euclid with divmod_p; a shorter dividend comes back as the remainder,
    so the first step also orders the pair.
    """
    while b:
        a, b = b, _trim(divmod_p(a, b, p)[1])
    if a and a[-1] != 1:
        inv = pow(a[-1], -1, p)
        a = [c * inv % p for c in a]
    return a


def _codec(bound: int):
    """(pack, unpack, slot bits) for slots holding ints below bound.

    pack(cs) is the int sum cs[i] * 2^(bits*i); unpack(x, m, p) reads the
    m lowest slots of x, each reduced mod p.  x must fit in m slots.
    Slots of up to 8 bytes are 64-bit array words: on the large_p
    benchmark cases (p from 10^3 to 10^5, slots of 5 bytes) that took
    about 10% less CPU in total than byte slices.
    """
    w = (bound.bit_length() + 7) // 8
    if w <= 8 and sys.byteorder == "little":

        def pack(cs):
            return int.from_bytes(array("Q", cs).tobytes(), "little")

        def unpack(x, m, p):
            return [c % p for c in array("Q", x.to_bytes(8 * m, "little"))]

        return pack, unpack, 64

    def pack(cs):
        return int.from_bytes(b"".join([c.to_bytes(w, "little") for c in cs]), "little")

    def unpack(x, m, p):
        data = x.to_bytes(w * m, "little")
        return [int.from_bytes(data[i : i + w], "little") % p for i in range(0, w * m, w)]

    return pack, unpack, 8 * w


def mulmod_p(g, p: int):
    """(a, b) -> a*b mod g over F_p as a trimmed tuple, for coefficient
    sequences a, b of degree < deg g; g is trimmed, of any leading coefficient."""
    n = len(g) - 1
    if n < 1:
        return lambda a, b: ()
    if n < _PACKED_DEGREE:
        return lambda a, b: tuple(_trim(divmod_p(convolve(a, b), g, p)[1]))
    pack, unpack, bits = _codec(2 * n * (p - 1) ** 2)
    low = (1 << bits * n) - 1
    # rows[i] = x^(n+i) mod g: x^n = -(g - lead*x^n)/lead, then times x
    scale = -pow(g[-1], -1, p)
    row = first = [c * scale % p for c in g[:n]]
    rows = [pack(row)]
    for _ in range(n - 2):
        top = row[-1]
        row = [(c + top * r) % p for c, r in zip([0] + row[:-1], first)]
        rows.append(pack(row))

    def mulmod(a, b):
        if not a or not b:
            return ()
        packed = pack(a)
        prod = packed * (packed if a is b else pack(b))
        m = len(a) + len(b) - 1
        if m > n:
            high = unpack(prod >> bits * n, m - n, p)
            prod, m = sum(map(operator.mul, high, rows), prod & low), n
        return tuple(_trim(unpack(prod, m, p)))

    return mulmod
