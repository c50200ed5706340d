"""Exact integer polynomials, p-adic valuations and base-phi expansions.

A polynomial is a dense, immutable sequence of arbitrary-precision integer
coefficients in ascending order: IntPolynomial([1, 0, 3]) is 3x^2 + 1.
Everything here is pure integer arithmetic; nothing ever touches floats.

_DensePolynomial holds the shape methods that IntPolynomial shares with
the field polynomials of ffield.py; _format_poly is the package's one
polynomial printer and _trimmed its one tuple trimmer.

Valuations are plain nonnegative ints, except the valuation of zero which
is the module-level INFINITY singleton (it compares above every int).
"""

from __future__ import annotations

import functools
import math

from ._fparith import convolve, mulmod_p, power
from ._record import Record
from .errors import NonMonicModulus, NonPrime


@functools.total_ordering
class _PInfinity:
    """Valuation of zero: a single object larger than every integer.  Its <=,
    > and >= come from __lt__ by total_ordering and are slow, so hot code
    tests `is INFINITY` instead (see _vp_poly)."""

    __slots__ = ()

    def __lt__(self, other):
        return False

    def __add__(self, other):
        return INFINITY

    __radd__ = __add__

    def __repr__(self):
        return "INFINITY"


INFINITY = _PInfinity()

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


# Every composite below this fails Miller-Rabin to some base <= 37; the
# bound itself, 399165290221 * 798330580441, is the least strong
# pseudoprime to all twelve of them (Sorenson and Webster, 2015).
_MR_PROVEN_BELOW = 318_665_857_834_031_151_167_461


def is_prime(n: int) -> bool:
    """Primality test: deterministic below 3.18e23, Baillie-PSW above.

    Trial division by small primes, then Miller-Rabin with the fixed
    witness set {2,...,37}, which is deterministic for
    n < 318,665,857,834,031,151,167,461 (in particular for everything
    below 2^64).  From that bound on, a strong Lucas test with
    Selfridge's parameters follows, which together with the base-2
    Miller-Rabin round is the Baillie-PSW test: no composite is known to
    pass it.
    """
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < _MR_PROVEN_BELOW or _is_strong_lucas_prp(n)


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _is_strong_lucas_prp(n: int) -> bool:
    """Strong Lucas probable-prime test, Selfridge method A, for odd n > 37.

    D is the first of 5, -7, 9, -11, ... with (D/n) = -1, P = 1 and
    Q = (1 - D)/4.  With n + 1 = d * 2^s, n passes when U_d = 0 or
    V_(d*2^r) = 0 for some 0 <= r < s (all mod n).
    """
    if math.isqrt(n) ** 2 == n:  # no D would ever give (D/n) = -1
        return False
    D = 5
    while (jac := _jacobi(D, n)) != -1:
        if jac == 0:  # 1 < |D| < n shares a factor with n
            return False
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    # x^d = U_d*x - Q*U_(d-1) in (Z/n)[x]/(x^2 - x + Q), so V_d = c1 + 2*c0;
    # mulmod_p divides by a monic g only, so it needs no inverse mod n.
    c0, c1 = (power(mulmod_p((Q % n, n - 1, 1), n), (0, 1), d) + (0, 0))[:2]
    U, V, Qk = c1, (c1 + 2 * c0) % n, pow(Q, d, n)
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def _require_prime(p: int) -> None:
    if not is_prime(p):
        raise NonPrime(f"{p} is not prime")


def _trimmed(coeffs) -> tuple:
    """The coefficient sequence as a tuple, trailing zeros dropped."""
    n = len(coeffs)
    while n and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


def _format_poly(coeffs, var: str, coeff_str=str) -> str:
    """The one polynomial printer, highest term first.  A negative integer
    c prints as ' - |c|', or '-|c|' in front; field coefficients are >= 0."""
    out = ""
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c == 0:
            continue
        cs = coeff_str(-c if c < 0 else c)
        if i == 0:
            body = cs
        else:
            xpart = var if i == 1 else f"{var}^{i}"
            if cs == "1":
                body = xpart
            elif " " in cs:  # a sum of terms
                body = f"({cs})*{xpart}"
            else:
                body = f"{cs}*{xpart}"
        out += (" - " if c < 0 else " + ") + body
    if not out:
        return "0"
    return out[3:] if out[1] == "+" else "-" + out[3:]


class _DensePolynomial:
    """Shape of a dense polynomial: ascending coefficients, trailing zeros
    trimmed.  Subclasses supply +, neg and divmod; -, // and % follow."""

    __slots__ = ("coeffs",)

    @property
    def degree(self) -> int:
        """Degree; the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def leading(self):
        return self.coeffs[-1] if self.coeffs else 0

    def __getitem__(self, i: int):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __sub__(self, other):
        return self + (-other)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __str__(self) -> str:
        return _format_poly(self.coeffs, "x")


class IntPolynomial(_DensePolynomial):
    """Dense monic-friendly polynomial over Z.

    >>> f = IntPolynomial([-33] + [0] * 11 + [1])   # x^12 - 33
    >>> f.degree
    12
    >>> str(IntPolynomial([1, 1, 1]))
    'x^2 + x + 1'
    """

    __slots__ = ()

    def __init__(self, coeffs):
        self.coeffs = _trimmed(tuple(coeffs))

    @staticmethod
    def constant(c: int) -> IntPolynomial:
        return IntPolynomial([c])

    @staticmethod
    def pure(n: int, m: int) -> IntPolynomial:
        """x^n - m, the defining polynomial of a pure field; n >= 1."""
        if n < 1:
            raise ValueError(f"x^n - m needs n >= 1, got n = {n}")
        return IntPolynomial([-m] + [0] * (n - 1) + [1])

    def __eq__(self, other) -> bool:
        return isinstance(other, IntPolynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other: IntPolynomial) -> IntPolynomial:
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial(out)

    def __neg__(self) -> IntPolynomial:
        return IntPolynomial([-c for c in self.coeffs])

    def __mul__(self, other) -> IntPolynomial:
        if isinstance(other, int):
            return IntPolynomial([c * other for c in self.coeffs])
        return IntPolynomial(convolve(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> IntPolynomial:
        return IntPolynomial(power(convolve, self.coeffs, n))

    def __divmod__(self, other: IntPolynomial):
        """Euclidean division by a monic divisor (exact over Z)."""
        if not other.is_monic():
            raise NonMonicModulus("division requires a monic divisor")
        rem, d = list(self.coeffs), other.degree
        _divmod_monic(rem, other.coeffs)
        return IntPolynomial(rem[d:]), IntPolynomial(rem[:d])

    def derivative(self) -> IntPolynomial:
        return IntPolynomial([i * c for i, c in enumerate(self.coeffs)][1:])

    def __call__(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def shift(self, k: int) -> IntPolynomial:
        """Multiply by x^k."""
        if self.is_zero():
            return self
        return IntPolynomial((0,) * k + self.coeffs)

    def __repr__(self) -> str:
        return f"IntPolynomial('{self}')"


def _divmod_monic(rem: list, div: tuple) -> None:
    """The one monic division over Z, in place: afterwards rem[:d] is the
    remainder of rem by div and rem[d:] the quotient, d = deg div.  For
    div = x^d that already holds, so it returns at once (phi = x in
    _phi_digits).  Callers: IntPolynomial.__divmod__, _phi_digits and
    ResidueField.mul (F_{p^k} digits)."""
    d = len(div) - 1
    low = div[:d]
    if not any(low):
        return
    for k in range(len(rem) - d - 1, -1, -1):
        q = rem[k + d]  # the quotient's x^k coefficient, left in place
        if q:
            for j, c in enumerate(low, k):
                rem[j] -= q * c


def vp_int(n: int, p: int):
    """Largest k with p^k | n; INFINITY for n = 0.

    >>> vp_int(12, 2)
    2
    >>> vp_int(0, 3)
    INFINITY
    """
    return vp_poly(IntPolynomial.constant(n), p)


def vp_poly(P: IntPolynomial, p: int):
    """Gauss extension: minimum of vp_int over the coefficients."""
    _require_prime(p)
    return _vp_poly(P, p)


def _vp_poly(P: IntPolynomial, p: int):
    """vp_poly for a p already certified prime (no primality test)."""
    best = INFINITY
    for c in P.coeffs:
        if c == 0:
            continue
        v = 0
        while c % p == 0:
            c //= p
            v += 1
        if best is INFINITY or v < best:
            best = v
            if best == 0:
                break
    return best


class PhiExpansion(Record):
    """f written in base phi: f = sum terms[i] * phi^i, deg(terms[i]) < deg(phi)."""

    __slots__ = _fields = ("phi", "terms")

    def __init__(self, phi: IntPolynomial, terms: tuple):
        super().__init__(phi, terms)

    def recompose(self) -> IntPolynomial:
        acc = IntPolynomial([])
        for a in reversed(self.terms):
            acc = acc * self.phi + a
        return acc

    def __len__(self) -> int:
        return len(self.terms)


def phi_expand(f: IntPolynomial, phi: IntPolynomial) -> PhiExpansion:
    """Expand f in base phi by repeated euclidean division.

    Quotient-chain form: each pass splits off one digit, so no power of
    phi is ever formed explicitly.
    """
    if not phi.is_monic():
        raise NonMonicModulus("expansion base must be monic")
    if phi.degree < 1:
        raise NonMonicModulus("expansion base must have degree >= 1")
    return _phi_digits(f, phi, None)


def _phi_digits(f: IntPolynomial, phi: IntPolynomial, limit) -> PhiExpansion:
    """phi_expand for a monic phi of degree >= 1, stopped after the first
    `limit` digits (all of them for None).  A stopped expansion does not
    recompose to f; its digits are those of the full one.  The quotient
    chain runs on one int list: each _divmod_monic leaves the digit in
    rest[:d] and the next quotient in rest[d:], d = deg phi."""
    terms = []
    rest, d = list(f.coeffs), phi.degree
    while rest and len(terms) != limit:
        _divmod_monic(rest, phi.coeffs)
        terms.append(IntPolynomial(rest[:d]))
        del rest[:d]
    if not terms:
        terms.append(IntPolynomial([]))
    return PhiExpansion(phi=phi, terms=tuple(terms))


def _pseudo_rem(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """Pseudo-remainder: the remainder of lc(b)^(deg a - deg b + 1) * a by b."""
    db = b.degree
    lb = b.leading()
    e = a.degree - db + 1
    rem = a
    while not rem.is_zero() and rem.degree >= db:
        k = rem.degree - db
        rem = rem * lb - b.shift(k) * rem.leading()
        e -= 1
    if e > 0:
        rem = rem * (lb**e)
    return rem


def resultant(f: IntPolynomial, g: IntPolynomial) -> int:
    """Resultant over Z via the subresultant polynomial remainder sequence.

    Fraction-free: every intermediate value is an exact integer.
    """
    if f.is_zero() or g.is_zero():
        return 0
    if f.degree < g.degree:
        sign = -1 if (f.degree * g.degree) % 2 else 1
        return sign * resultant(g, f)
    if g.degree == 0:
        return g.leading() ** f.degree
    a, b = f, g
    s = 1
    gpart, h = 1, 1
    while True:
        da, db = a.degree, b.degree
        delta = da - db
        if (da % 2) and (db % 2):
            s = -s
        r = _pseudo_rem(a, b)
        a = b
        denom = gpart * h**delta
        b = IntPolynomial([c // denom for c in r.coeffs])
        gpart = a.leading()
        if delta > 0:
            h = gpart**delta // h ** (delta - 1)
        if b.is_zero():
            return 0
        if b.degree == 0:
            da = a.degree
            final = b.leading() ** da
            if da > 1:
                final //= h ** (da - 1)
            return s * final


def discriminant(f: IntPolynomial) -> int:
    """Discriminant of a monic polynomial: (-1)^(n(n-1)/2) * Res(f, f')."""
    if not f.is_monic():
        raise NonMonicModulus("discriminant requires a monic polynomial")
    n = f.degree
    if n < 1:
        raise ValueError("discriminant requires degree >= 1")
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return sign * resultant(f, f.derivative())
