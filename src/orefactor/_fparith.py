"""Polynomial kernels over a prime field F_p, on plain int coefficient lists.

They are the F_p path of the polynomial core in ffield.py; convolve is
also IntPolynomial's product over Z.  Coefficients are ascending ints in
[0, p) over F_p.  Products are summed unreduced and each output
coefficient is reduced once mod p, so no step builds a polynomial object
or calls an element method.  Reference: von zur Gathen & Gerhard,
Modern Computer Algebra, ch. 2 (classical multiplication and division
with remainder).
"""


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
