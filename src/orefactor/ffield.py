"""Polynomials over prime fields F_p and residue fields F_p[x]/(phi).

Representation conventions:

* An element of F_q = F_p[x]/(modulus), q = p^k, is a Python int in
  [0, q): the element c0 + c1*j + ... + c_{k-1}*j^(k-1), with j the image
  of x, is the int c0 + c1*p + ... + c_{k-1}*p^(k-1).  Ordering elements
  by that int gives 0 < 1 < ... < j < j + 1 < ...  F_p is the degree-one
  case (modulus x), where the int is the residue itself.
* ResidueField owns the element operations on those ints (add, sub,
  neg, mul, inverse, pow).  add and sub work digit by digit; in F_p the
  one digit is the residue itself.  mul, inverse and pow are int
  arithmetic mod p in F_p.  In F_{p^k}, mul reduces the digit product
  through the modulus, pow is power of the digits through _mulmod of the
  modulus, and the inverse is one extended Euclid over F_p against it.
  The modulus must be monic, nonconstant and irreducible.  Fields are
  cached by _field(p, coeffs, check).  A factor of factor_mod_p, proved
  irreducible by its splitting, comes with check False and is never
  tested again.  A caller's modulus (ResidueField.get) comes with check
  True: Rabin's test and the other checks run once per cache entry, also
  when the same field was already built for a factor.
* _FieldPolynomial is the one dense polynomial over a field: a tuple of
  element ints, ascending, trailing zeros trimmed; its shape methods and
  printing in x are intpoly._DensePolynomial's, shared with IntPolynomial.
  Arithmetic, gcd, pow_mod, Rabin's irreducibility test and the
  factorization engine below are written once against it; operands over
  different fields raise ValueError.  Its public faces differ only in
  construction and printing: FpPolynomial lives over F_p and prints in
  x; ExtPolynomial lives over any ResidueField and prints in y, with
  coefficients written in j.
* Over F_p the core runs on plain int lists (_fparith.py); gcd is one
  Euclid on them.  _mulmod(g), built once per modulus, is the a*b mod g
  of every power (_fparith.power), the _frobenius rows and the
  characteristic-2 trace; over F_p, from degree 6, it packs each operand
  into one int, multiplies once and reduces by the rows x^(n+i) mod g.
* ResidueFieldElem is the public value type of a single element.

Factoring (factor_ext, factor_mod_p) is squarefree split, distinct-degree
split, then Cantor-Zassenhaus equal-degree splitting: gcds with
a^((q^d-1)/2) - 1 for odd q, or with the trace a + a^2 + ... +
a^(2^(dk-1)) for q = 2^k, over random trials a drawn from a fixed seed.
Rabin's test and the distinct-degree split exponentiate once per modulus
g, to x^q mod g; Frobenius is linear, so every further w^(q^i) mod g,
there and in the equal-degree split, is a matrix-vector product
(_frobenius).  Time and memory are polynomial in log q.  Factor lists
are sorted by (degree, coefficient ints), so every run is identical.
"""

from __future__ import annotations

import functools
import operator
import random

from ._fparith import convolve, divmod_p, gcd_p, mulmod_p, power
from .errors import NonMonicModulus, ReducibleModulus, ZeroModP
from .intpoly import (
    IntPolynomial, _DensePolynomial, _format_poly, _prime_divisors, _require_prime, _trimmed,
)


_CACHE_LIMIT = 64


class ResidueField:
    """F_p[x]/(modulus) with monic irreducible modulus, validated eagerly.

    Elements are ints in [0, order); the methods add, sub, neg, mul,
    inverse and pow act on them directly.

    >>> F9 = ResidueField.get(3, FpPolynomial(3, (1, 0, 1)))   # x^2 + 1
    >>> a = F9.gen() + F9.one()
    >>> str(a), a.value
    ('j + 1', 4)
    >>> F9.mul(4, 4), F9.format(6)
    (6, '2*j')
    """

    __slots__ = ("p", "modulus", "degree", "order", "key")

    def __init__(self, p: int, modulus: FpPolynomial):
        self._setup(p, modulus)
        if not modulus.is_irreducible():
            raise ReducibleModulus(f"{modulus} is reducible over F_{p}")

    def _setup(self, p: int, modulus: FpPolynomial) -> None:
        """Every check of __init__ but Rabin's test."""
        _require_prime(p)
        self.p = p
        self.modulus = modulus
        self.degree = modulus.degree
        self.order = p**modulus.degree
        self.key = (p, modulus.coeffs)
        if modulus.p != p:
            raise ValueError("modulus characteristic differs from p")
        if not modulus.is_monic():
            raise NonMonicModulus("residue-field modulus must be monic")
        if modulus.degree < 1:
            raise ReducibleModulus(f"{modulus} is a constant, not a residue-field modulus")

    @staticmethod
    def get(p: int, modulus: FpPolynomial) -> ResidueField:
        """The cached F_p[x]/(modulus); the constructor refuses a modulus over F_q, q != p."""
        return _field(p, modulus.coeffs, True) if modulus.p == p else ResidueField(p, modulus)

    @staticmethod
    def prime_field(p: int) -> ResidueField:
        """F_p itself, realized with modulus x."""
        return _field(p, (0, 1), False)

    # -- element operations on ints: mul, pow and inverse use int arithmetic in F_p --

    def add(self, a: int, b: int) -> int:
        return self.from_digits([x + y for x, y in zip(self.digits(a), self.digits(b))])

    def sub(self, a: int, b: int) -> int:
        return self.from_digits([x - y for x, y in zip(self.digits(a), self.digits(b))])

    def mul(self, a: int, b: int) -> int:
        if self.degree == 1:
            return a * b % self.p
        k, mod = self.degree, self.modulus.coeffs
        prod = convolve(self.digits(a), self.digits(b))
        for i in range(2 * k - 2, k - 1, -1):  # j^i = -(modulus - j^k) * j^(i-k)
            c = prod[i]
            if c:
                for t in range(k):
                    prod[i - k + t] -= c * mod[t]
        return self.from_digits(prod[:k])

    def pow(self, a: int, e: int) -> int:
        if self.degree == 1:
            return pow(a, e, self.p)
        return self.from_digits(power(_mulmod(self.modulus), self.digits(a), e))

    def neg(self, a: int) -> int:
        return self.sub(0, a)

    def digits(self, a: int) -> list:
        """Coefficients c0, ..., c_{k-1} of the element a as a polynomial in j."""
        out = []
        for _ in range(self.degree):
            a, c = divmod(a, self.p)
            out.append(c)
        return out

    def from_digits(self, cs) -> int:
        """The element c0 + c1*j + ... for at most k integer coefficients."""
        value = 0
        for c in reversed(cs):
            value = value * self.p + c % self.p
        return value

    def inverse(self, a: int) -> int:
        """a^-1: pow(a, -1, p) in F_p, one extended Euclid over F_p in F_{p^k}."""
        if a == 0:
            raise ZeroDivisionError("inverse of zero residue-field element")
        p = self.p
        if self.degree == 1:
            return pow(a, -1, p)
        # Keep s * a == r (mod modulus) while r runs down the remainder
        # sequence of (modulus, a); it ends at a nonzero constant r.
        r0, r1 = self.modulus, self.modulus._new(self.digits(a))
        s0, s1 = r1._new(()), r1._new((1,))
        while r1.degree > 0:
            quot, rem = divmod(r0, r1)
            r0, r1 = r1, rem
            s0, s1 = s1, s0 - quot * s1
        scale = pow(r1.coeffs[0], -1, p)
        return self.from_digits([c * scale for c in s1.coeffs])

    def format(self, a: int) -> str:
        return _format_poly(self.digits(a), "j")

    # -- public element values -------------------------------------------

    def element(self, rep: FpPolynomial) -> ResidueFieldElem:
        return ResidueFieldElem(self, self.from_digits((rep % self.modulus).coeffs))

    def from_int(self, c: int) -> ResidueFieldElem:
        return ResidueFieldElem(self, c % self.p)

    def zero(self) -> ResidueFieldElem:
        return ResidueFieldElem(self, 0)

    def one(self) -> ResidueFieldElem:
        return ResidueFieldElem(self, 1)

    def gen(self) -> ResidueFieldElem:
        """The image j of x in the residue field."""
        return self.element(FpPolynomial.x(self.p))

    def __eq__(self, other) -> bool:
        return isinstance(other, ResidueField) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self) -> str:
        return f"ResidueField(F_{self.p}[x]/({self.modulus}))"


@functools.lru_cache(maxsize=_CACHE_LIMIT)
def _field(p: int, coeffs: tuple, check: bool) -> ResidueField:
    """F_p[x]/(modulus with these coefficients); F_p itself for (0, 1).
    With check, the constructor's checks run first; either way the field
    is the unchecked entry's."""
    if check:
        ResidueField(p, FpPolynomial(p, coeffs))
        return _field(p, coeffs, False)
    field = ResidueField.__new__(ResidueField)
    if coeffs == (0, 1):  # x over F_p needs F_p, so F_p comes first
        field._setup(p, FpPolynomial._make(field, coeffs))
    else:
        field._setup(p, FpPolynomial(p, coeffs))
    return field


class ResidueFieldElem:
    """Element of a ResidueField: the field and the element's int."""

    __slots__ = ("field", "value")

    def __init__(self, field: ResidueField, value: int):
        self.field = field
        self.value = value

    @property
    def rep(self) -> FpPolynomial:
        """The element as a reduced polynomial in j over F_p."""
        return FpPolynomial(self.field.p, self.field.digits(self.value))

    def is_zero(self) -> bool:
        return self.value == 0

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ResidueFieldElem)
            and self.field == other.field
            and self.value == other.value
        )

    def __hash__(self):
        return hash((self.field.key, self.value))

    def sort_key(self) -> int:
        """The int c0 + c1*p + ..., so that 0 < 1 < ... < j < j+1."""
        return self.value

    def _of(self, value: int) -> ResidueFieldElem:
        return ResidueFieldElem(self.field, value)

    def __add__(self, other: ResidueFieldElem) -> ResidueFieldElem:
        return self._of(self.field.add(self.value, _value_in(self.field, other)))

    def __neg__(self) -> ResidueFieldElem:
        return self._of(self.field.neg(self.value))

    def __sub__(self, other: ResidueFieldElem) -> ResidueFieldElem:
        return self._of(self.field.sub(self.value, _value_in(self.field, other)))

    def __mul__(self, other: ResidueFieldElem) -> ResidueFieldElem:
        return self._of(self.field.mul(self.value, _value_in(self.field, other)))

    def inverse(self) -> ResidueFieldElem:
        return self._of(self.field.inverse(self.value))

    def __truediv__(self, other: ResidueFieldElem) -> ResidueFieldElem:
        return self * other.inverse()

    def __pow__(self, e: int) -> ResidueFieldElem:
        if e < 0:
            return self.inverse() ** (-e)
        return self._of(self.field.pow(self.value, e))

    def __str__(self) -> str:
        return self.field.format(self.value)

    def __repr__(self) -> str:
        return f"<{self} in {self.field!r}>"


def _value_in(field: ResidueField, elem: ResidueFieldElem) -> int:
    """elem's int, once elem is known to lie in field (the same or an equal one)."""
    if elem.field is not field and elem.field != field:
        raise ValueError(f"{elem!r} is not an element of {field!r}")
    return elem.value


class _FieldPolynomial(_DensePolynomial):
    """Dense polynomial over a ResidueField: ascending element ints, trimmed."""

    __slots__ = ("field",)

    @classmethod
    def _make(cls, field: ResidueField, coeffs):
        out = object.__new__(cls)
        out.field = field
        out.coeffs = _trimmed(coeffs)
        return out

    def _new(self, coeffs):
        return self._make(self.field, coeffs)

    def _field_with(self, other) -> ResidueField:
        """The field of self, once other is known to lie over it too."""
        field = self.field
        if other.field is not field and other.field != field:
            raise ValueError(f"{other!r} and {self!r} lie over different fields")
        return field

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field.key, self.coeffs))

    def sort_key(self):
        return (self.degree, self.coeffs)

    def __add__(self, other):
        field = self._field_with(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        if field.degree == 1:
            p = field.p
            for i, c in enumerate(b):
                out[i] = (out[i] + c) % p
            return self._new(out)
        add = field.add
        for i, c in enumerate(b):
            out[i] = add(out[i], c)
        return self._new(out)

    def __neg__(self):
        field = self.field
        if field.degree == 1:
            return self._new([-c % field.p for c in self.coeffs])
        return self._new([field.neg(c) for c in self.coeffs])

    def __mul__(self, other):
        field = self._field_with(other)
        if field.degree == 1:
            return self._new([c % field.p for c in convolve(self.coeffs, other.coeffs)])
        add, mul = field.add, field.mul
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] = add(out[i + j], mul(a, b))
        return self._new(out)

    def __divmod__(self, other):
        field = self._field_with(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        d = other.degree
        if len(self.coeffs) <= d:
            return self._new(()), self
        if field.degree == 1:
            quot, rem = divmod_p(list(self.coeffs), other.coeffs, field.p)
            return self._new(quot), self._new(rem)
        sub, mul = field.sub, field.mul
        rem = list(self.coeffs)
        div = other.coeffs
        inv_lead = 1 if div[-1] == 1 else field.inverse(div[-1])
        quot = [0] * (len(rem) - d)
        for k in range(len(rem) - d - 1, -1, -1):
            q = mul(rem[k + d], inv_lead)
            quot[k] = q
            if q:
                for j in range(d + 1):
                    rem[k + j] = sub(rem[k + j], mul(q, div[j]))
        return self._new(quot), self._new(rem[:d])

    def monic(self):
        if self.is_zero() or self.is_monic():
            return self
        field = self.field
        inv = field.inverse(self.coeffs[-1])
        return self._new([field.mul(c, inv) for c in self.coeffs])

    def gcd(self, other):
        if self._field_with(other).degree == 1:
            return self._new(gcd_p(list(self.coeffs), list(other.coeffs), self.field.p))
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic()

    def derivative(self):
        field = self.field
        return self._new(
            [field.mul(i % field.p, c) for i, c in enumerate(self.coeffs)][1:]
        )

    def pow_mod(self, e: int, modulus):
        """self^e mod modulus, by power through _mulmod(modulus)."""
        return self._new(power(_mulmod(modulus), (self % modulus).coeffs, e))

    def is_irreducible(self) -> bool:
        """Rabin's test, deterministic for any field and degree: one chain
        w_i = x^(q^i) mod g, i = 1..n, checks gcd(g, w_(n/r) - x) = 1 for
        each prime r | n, and w_n = x.  Only w_1 = x^q is an exponentiation;
        each later step applies the Frobenius matrix of g (_frobenius)."""
        n = self.degree
        if n < 1:
            return False
        if n == 1:
            return True
        g = self.monic()
        frobenius = _frobenius(g)
        x = self._new((0, 1))
        checks = {n // r for r in _prime_divisors(n)}
        w = x
        for i in range(1, n + 1):
            w = frobenius(w)
            if i in checks and g.gcd(w - x).degree != 0:
                return False
        return w == x


class FpPolynomial(_FieldPolynomial):
    """Dense polynomial over F_p, coefficients in [0, p), printed in x."""

    __slots__ = ()

    def __init__(self, p: int, coeffs):
        self.field = ResidueField.prime_field(p)
        self.coeffs = _trimmed([c % p for c in coeffs])

    @staticmethod
    def x(p: int) -> FpPolynomial:
        return FpPolynomial(p, (0, 1))

    @property
    def p(self) -> int:
        return self.field.p

    def lift(self) -> IntPolynomial:
        """Canonical lift to Z[x] with coefficients in [0, p)."""
        return IntPolynomial(self.coeffs)

    def __repr__(self) -> str:
        return f"FpPolynomial(p={self.p}, '{self}')"


class ExtPolynomial(_FieldPolynomial):
    """Polynomial in y over a ResidueField, built from ResidueFieldElems."""

    __slots__ = ()

    def __init__(self, field: ResidueField, coeffs):
        self.field = field
        self.coeffs = _trimmed([_value_in(field, c) for c in coeffs])

    @classmethod
    def from_ints(cls, field: ResidueField, ints) -> ExtPolynomial:
        return cls._make(field, [c % field.p for c in ints])

    @classmethod
    def y(cls, field: ResidueField) -> ExtPolynomial:
        return cls._make(field, (0, 1))

    def leading(self) -> ResidueFieldElem:
        return ResidueFieldElem(self.field, super().leading())

    def __getitem__(self, i: int) -> ResidueFieldElem:
        return ResidueFieldElem(self.field, super().__getitem__(i))

    def evaluate(self, x: ResidueFieldElem) -> ResidueFieldElem:
        field = self.field
        acc, value = 0, _value_in(field, x)
        for c in reversed(self.coeffs):
            acc = field.add(field.mul(acc, value), c)
        return ResidueFieldElem(field, acc)

    def __str__(self) -> str:
        return _format_poly(self.coeffs, "y", self.field.format)

    def __repr__(self) -> str:
        return f"ExtPolynomial('{self}' over {self.field!r})"


def _mulmod(g):
    """(a, b) -> a*b mod g on tuples of degree < deg g; over F_p, mulmod_p."""
    if g.field.degree > 1:
        return lambda a, b: (g._new(a) * g._new(b) % g).coeffs
    return mulmod_p(g.coeffs, g.field.p)


def _frobenius(g):
    """w -> w^q mod g for deg w < n = deg g, as a matrix-vector product.

    Frobenius is F_q-linear: (sum w_i x^i)^q = sum w_i x^(q*i).  One
    exponentiation x^q mod g gives the rows x^(q*i) mod g, i < n
    (Berlekamp's Q-matrix); each application then costs n^2 field operations.
    """
    n, field, mulmod = g.degree, g.field, _mulmod(g)
    xq = power(mulmod, (0, 1), field.order)
    rows = [(1,)]
    while len(rows) < n:
        rows.append(mulmod(rows[-1], xq))
    cols = list(zip(*[r + (0,) * (n - len(r)) for r in rows]))
    if field.degree == 1:
        p = field.p
        return lambda w: g._new([sum(map(operator.mul, w.coeffs, c)) % p for c in cols])
    add, mul = field.add, field.mul
    return lambda w: g._new([functools.reduce(add, map(mul, w.coeffs, c), 0) for c in cols])


# ---------------------------------------------------------------------------
# factorization engine: squarefree split, distinct-degree split, then
# Cantor-Zassenhaus equal-degree split on seeded random trials (the trace
# map in characteristic 2).  Every step costs polylog(q) field operations;
# no step enumerates field elements.

_EDF_SEED = 0x0E0F


def is_squarefree_ext(g) -> bool:
    """True iff gcd(g, g') is constant.  A zero derivative means a p-th power."""
    if g.is_zero():
        raise ValueError("squarefree test of the zero polynomial")
    return g.gcd(g.derivative()).degree == 0


def _p_th_root(g):
    """Inverse Frobenius on a polynomial of the form h(y^p)."""
    field = g.field
    root_exp = field.order // field.p  # c -> c^(q/p) is the p-th root in F_q
    return g._new([field.pow(c, root_exp) for c in g.coeffs[:: field.p]])


def _squarefree_split(g):
    """Monic g of degree >= 1 -> list of (monic squarefree part, multiplicity)."""
    out = []
    c = g.gcd(g.derivative())
    w = g // c
    i = 1
    while w.degree > 0:
        y = w.gcd(c)
        z = w // y
        if z.degree > 0:
            out.append((z, i))
        i += 1
        w = y
        c = c // y
    if c.degree > 0:
        out.extend((h, mult * g.field.p) for h, mult in _squarefree_split(_p_th_root(c)))
    return out


def _distinct_degree_split(g, frobenius):
    """Monic squarefree g and its _frobenius -> list of (product of
    irreducibles of degree d, d); w = y^(q^d) mod g costs one Frobenius
    product per d, and since rest | g, w % rest is y^(q^d) mod rest."""
    out = []
    rest = g
    if g.degree >= 2:
        y = w = g._new((0, 1))
        d = 0
        while rest.degree >= 2 * (d + 1):
            d += 1
            w = frobenius(w)
            h = rest.gcd(w % rest - y)
            if h.degree > 0:
                out.append((h, d))
                rest = rest // h
    if rest.degree > 0:
        out.append((rest, rest.degree))
    return out


def _split_equal_degree(g, d: int, frobenius, rng=None):
    """Monic product of distinct degree-d irreducibles -> its factors.

    Cantor-Zassenhaus: a random a of degree < deg g gives w = a^((q^d-1)/2) - 1
    for odd q, or the trace a + a^2 + ... + a^(2^(dk-1)) for q = 2^k, both
    mod g; gcd(g, w) is a proper factor with probability >= 1/2.  For odd q,
    a^((q^d-1)/2) = (a * a^q * ... * a^(q^(d-1)))^((q-1)/2), each a^(q^i) by
    frobenius (of a multiple of g) mod g.  rng is seeded once per top-level call.
    """
    if g.degree == d:
        return [g]
    if rng is None:
        rng = random.Random(_EDF_SEED)
    q = g.field.order
    mulmod = _mulmod(g)
    while True:
        a = g._new([rng.randrange(q) for _ in range(g.degree)])
        w = term = a
        if q % 2:
            for _ in range(d - 1):
                term = frobenius(term) % g
                w = g._new(mulmod(w.coeffs, term.coeffs))
            w = g._new(power(mulmod, w.coeffs, q // 2)) - g._new((1,))
        else:
            for _ in range(d * (q.bit_length() - 1) - 1):
                term = g._new(mulmod(term.coeffs, term.coeffs))
                w = w + term
        h = g.gcd(w)
        if 0 < h.degree < g.degree:
            return (_split_equal_degree(h, d, frobenius, rng)
                    + _split_equal_degree(g // h, d, frobenius, rng))


def factor_ext(g):
    """Complete factorization over the coefficient field of g.

    Returns [(monic irreducible, multiplicity), ...] sorted by
    (degree, coefficient order); the unit g.leading() is implicit.
    Every factor is irreducible by construction: y^(q^d) - y is the
    product of the monic irreducibles of degree dividing d, and each split
    returns a factor only once its degree shows it holds one irreducible.
    """
    if g.is_zero():
        raise ValueError("factorization of the zero polynomial")
    if g.degree < 1:
        raise ValueError("factorization requires degree >= 1")
    out = []
    for part, mult in _squarefree_split(g.monic()):
        frobenius = _frobenius(part) if part.degree >= 2 else None
        for prod, d in _distinct_degree_split(part, frobenius):
            for irr in _split_equal_degree(prod, d, frobenius):
                out.append((irr, mult))
    out.sort(key=lambda fm: fm[0].sort_key())
    return out


def factor_mod_p(f: IntPolynomial, p: int):
    """Factor f mod p into monic irreducibles over F_p.

    Returns a new list [(FpPolynomial, multiplicity), ...] sorted by
    (degree, coefficient order).  Results are cached on the reduced
    polynomial, for the _CACHE_LIMIT most recently used inputs.
    """
    fp = FpPolynomial(p, f.coeffs)
    if fp.is_zero():
        raise ZeroModP(f"polynomial vanishes identically mod {p}")
    return list(_factor_reduced(fp))


@functools.lru_cache(maxsize=_CACHE_LIMIT)
def _factor_reduced(fp: FpPolynomial) -> list:
    return factor_ext(fp) if fp.degree >= 1 else []
