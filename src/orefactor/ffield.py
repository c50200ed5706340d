"""Polynomials over prime fields F_p and residue fields F_p[x]/(phi).

Representation conventions:

* An element of F_q = F_p[x]/(modulus), q = p^k, is a Python int in
  [0, q): the element c0 + c1*j + ... + c_{k-1}*j^(k-1), with j the image
  of x, is the int c0 + c1*p + ... + c_{k-1}*p^(k-1).  Ordering elements
  by that int gives 0 < 1 < ... < j < j + 1 < ...  F_p is the degree-one
  case (modulus x), where the int is the residue itself.
* ResidueField owns the element operations on those ints (add, sub,
  neg, mul, inverse, pow): plain int arithmetic mod p in F_p, digit
  vectors reduced through the modulus in F_{p^k}.  The modulus must be
  monic and irreducible; both are checked eagerly at construction.
* _FieldPolynomial is the one dense polynomial over a field: a tuple of
  element ints, ascending, trailing zeros trimmed.  Arithmetic, gcd,
  pow_mod, Rabin's irreducibility test and the factorization engine
  below are written once against it.  Its public faces differ only in
  construction and printing: FpPolynomial lives over F_p and prints in
  x; ExtPolynomial lives over any ResidueField and prints in y, with
  coefficients written in j.
* ResidueFieldElem is the public value type of a single element.

Factor lists are always sorted by (degree, coefficient ints) so every
run of the engine produces identical output.
"""

from __future__ import annotations

import itertools
import math
import random

from .errors import NonMonicModulus, NonPrime, ReducibleModulus, ZeroModP
from .intpoly import IntPolynomial, is_prime


_CACHE_LIMIT = 64


def _cached(cache: dict, key, build):
    """cache[key], built on a miss; the least recently used entry goes when full."""
    value = cache.pop(key, None)
    if value is None:
        value = build()
        if len(cache) >= _CACHE_LIMIT:
            del cache[next(iter(cache))]
    cache[key] = value
    return value


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

    _cache: dict = {}

    def __init__(self, p: int, modulus: FpPolynomial):
        if not is_prime(p):
            raise NonPrime(f"{p} is not prime")
        self.p = p
        self.modulus = modulus
        self.degree = modulus.degree
        self.order = p**modulus.degree
        self.key = (p, modulus.coeffs)
        if modulus.p != p:
            raise ValueError("modulus characteristic differs from p")
        if not modulus.is_monic():
            raise NonMonicModulus("residue-field modulus must be monic")
        if not modulus.is_irreducible():
            raise ReducibleModulus(f"{modulus} is reducible over F_{p}")

    @classmethod
    def get(cls, p: int, modulus: FpPolynomial) -> ResidueField:
        return _cached(cls._cache, (p, modulus.coeffs), lambda: cls(p, modulus))

    @classmethod
    def prime_field(cls, p: int) -> ResidueField:
        """F_p itself, realized with modulus x."""

        def build():
            field = cls.__new__(cls)  # x over F_p needs F_p, so F_p comes first
            field.__init__(p, FpPolynomial._make(field, (0, 1)))
            return field

        return _cached(cls._cache, (p, (0, 1)), build)

    # -- element operations on ints: F_p when degree == 1, else F_{p^k} --

    def add(self, a: int, b: int) -> int:
        if self.degree == 1:
            return (a + b) % self.p
        return self.from_digits([x + y for x, y in zip(self.digits(a), self.digits(b))])

    def sub(self, a: int, b: int) -> int:
        if self.degree == 1:
            return (a - b) % self.p
        return self.from_digits([x - y for x, y in zip(self.digits(a), self.digits(b))])

    def mul(self, a: int, b: int) -> int:
        if self.degree == 1:
            return a * b % self.p
        k, mod = self.degree, self.modulus.coeffs
        db = self.digits(b)
        prod = [0] * (2 * k - 1)
        for i, x in enumerate(self.digits(a)):
            if x:
                for t, y in enumerate(db):
                    prod[i + t] += x * y
        for i in range(2 * k - 2, k - 1, -1):  # j^i = -(modulus - j^k) * j^(i-k)
            c = prod[i]
            if c:
                for t in range(k):
                    prod[i - k + t] -= c * mod[t]
        return self.from_digits(prod[:k])

    def pow(self, a: int, e: int) -> int:
        if self.degree == 1:
            return pow(a, e, self.p)
        result = 1
        while e:
            if e & 1:
                result = self.mul(result, a)
            a = self.mul(a, a)
            e >>= 1
        return result

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
        if a == 0:
            raise ZeroDivisionError("inverse of zero residue-field element")
        return self.pow(a, self.order - 2)

    def format(self, a: int) -> str:
        return _format_poly(self.digits(a), "j")

    # -- public element values -------------------------------------------

    def element(self, rep: FpPolynomial) -> ResidueFieldElem:
        return ResidueFieldElem(self, self.from_digits((rep % self.modulus).coeffs))

    def from_int(self, c: int) -> ResidueFieldElem:
        return ResidueFieldElem(self, c % self.p)

    def from_int_poly(self, f: IntPolynomial) -> ResidueFieldElem:
        return self.element(FpPolynomial(self.p, f.coeffs))

    def zero(self) -> ResidueFieldElem:
        return ResidueFieldElem(self, 0)

    def one(self) -> ResidueFieldElem:
        return ResidueFieldElem(self, 1)

    def gen(self) -> ResidueFieldElem:
        """The image j of x in the residue field."""
        return self.element(FpPolynomial.x(self.p))

    def values(self):
        """All q element ints, in deterministic order (j-coefficient tuples
        in lexicographic order)."""
        return map(self.from_digits, itertools.product(range(self.p), repeat=self.degree))

    def elements(self):
        """All q elements, in the order of values()."""
        return (ResidueFieldElem(self, v) for v in self.values())

    def __eq__(self, other) -> bool:
        return isinstance(other, ResidueField) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self) -> str:
        return f"ResidueField(F_{self.p}[x]/({self.modulus}))"


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
        return self._of(self.field.add(self.value, other.value))

    def __neg__(self) -> ResidueFieldElem:
        return self._of(self.field.neg(self.value))

    def __sub__(self, other: ResidueFieldElem) -> ResidueFieldElem:
        return self._of(self.field.sub(self.value, other.value))

    def __mul__(self, other: ResidueFieldElem) -> ResidueFieldElem:
        return self._of(self.field.mul(self.value, other.value))

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


def _trimmed(coeffs) -> tuple:
    n = len(coeffs)
    while n and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


class _FieldPolynomial:
    """Dense polynomial over a ResidueField: ascending element ints, trimmed."""

    __slots__ = ("field", "coeffs")

    @classmethod
    def _make(cls, field: ResidueField, coeffs):
        out = object.__new__(cls)
        out.field = field
        out.coeffs = _trimmed(coeffs)
        return out

    def _new(self, coeffs):
        return self._make(self.field, coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def leading(self):
        return self.coeffs[-1] if self.coeffs else 0

    def __getitem__(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

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
        add = self.field.add
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = add(out[i], c)
        return self._new(out)

    def __neg__(self):
        neg = self.field.neg
        return self._new([neg(c) for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        add, mul = self.field.add, self.field.mul
        if not self.coeffs or not other.coeffs:
            return self._new(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] = add(out[i + j], mul(a, b))
        return self._new(out)

    def __divmod__(self, other):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        field = self.field
        sub, mul = field.sub, field.mul
        d = other.degree
        rem = list(self.coeffs)
        if len(rem) <= d:
            return self._new(()), self
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

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self):
        if self.is_zero() or self.is_monic():
            return self
        field = self.field
        inv = field.inverse(self.coeffs[-1])
        return self._new([field.mul(c, inv) for c in self.coeffs])

    def gcd(self, other):
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
        result = self._new((1,))
        base = self % modulus
        while e:
            if e & 1:
                result = result * base % modulus
            base = base * base % modulus
            e >>= 1
        return result

    def is_irreducible(self) -> bool:
        """Rabin's test: deterministic for any field and degree."""
        n = self.degree
        if n < 1:
            return False
        if n == 1:
            return True
        q = self.field.order
        g = self.monic()
        x = self._new((0, 1))
        w = x
        for _ in range(n):
            w = w.pow_mod(q, g)
        if w != x % g:
            return False
        for r in _prime_divisors(n):
            w = x
            for _ in range(n // r):
                w = w.pow_mod(q, g)
            if g.gcd(w - x).degree != 0:
                return False
        return True


class FpPolynomial(_FieldPolynomial):
    """Dense polynomial over F_p, coefficients in [0, p), printed in x."""

    __slots__ = ()

    def __init__(self, p: int, coeffs):
        self.field = ResidueField.prime_field(p)
        self.coeffs = _trimmed([c % p for c in coeffs])

    @staticmethod
    def from_int_poly(f: IntPolynomial, p: int) -> FpPolynomial:
        return FpPolynomial(p, f.coeffs)

    @staticmethod
    def x(p: int) -> FpPolynomial:
        return FpPolynomial(p, (0, 1))

    @property
    def p(self) -> int:
        return self.field.p

    def lift(self) -> IntPolynomial:
        """Canonical lift to Z[x] with coefficients in [0, p)."""
        return IntPolynomial(self.coeffs)

    def __str__(self) -> str:
        return _format_poly(self.coeffs, "x")

    def __repr__(self) -> str:
        return f"FpPolynomial(p={self.p}, '{self}')"


class ExtPolynomial(_FieldPolynomial):
    """Polynomial in y over a ResidueField, built from ResidueFieldElems."""

    __slots__ = ()

    def __init__(self, field: ResidueField, coeffs):
        self.field = field
        self.coeffs = _trimmed([c.value for c in coeffs])

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
        acc = 0
        for c in reversed(self.coeffs):
            acc = field.add(field.mul(acc, x.value), c)
        return ResidueFieldElem(field, acc)

    def __str__(self) -> str:
        return _format_poly(self.coeffs, "y", self.field.format)

    def __repr__(self) -> str:
        return f"ExtPolynomial('{self}' over {self.field!r})"


def _prime_divisors(n: int):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _format_poly(coeffs, var: str, coeff_str=str) -> str:
    """Shared ascending-coefficients pretty printer."""
    terms = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c == 0:
            continue
        cs = coeff_str(c)
        if i == 0:
            body = cs
        else:
            xpart = var if i == 1 else f"{var}^{i}"
            if cs == "1":
                body = xpart
            elif any(ch in cs for ch in "+- ") and not cs.lstrip("-").isdigit():
                body = f"({cs})*{xpart}"
            else:
                body = f"{cs}*{xpart}"
        terms.append(body)
    return " + ".join(terms) if terms else "0"


# ---------------------------------------------------------------------------
# factorization engine (squarefree split + distinct degree + equal degree)

_EDF_FALLBACK_SEED = 0x0E0F


def is_squarefree_ext(g) -> bool:
    """True iff gcd(g, g') is constant.  A zero derivative means a p-th power."""
    if g.is_zero():
        raise ValueError("squarefree test of the zero polynomial")
    if g.degree == 0:
        return True
    return g.gcd(g.derivative()).degree == 0


def _p_th_root(g):
    """Inverse Frobenius on a polynomial of the form h(y^p)."""
    field = g.field
    root_exp = field.order // field.p  # c -> c^(q/p) is the p-th root in F_q
    return g._new([field.pow(c, root_exp) for c in g.coeffs[:: field.p]])


def _squarefree_split(g):
    """Monic g -> list of (monic squarefree part, multiplicity)."""
    out = []
    if g.degree < 1:
        return out
    d = g.derivative()
    if d.is_zero():
        return [(h, mult * g.field.p) for h, mult in _squarefree_split(_p_th_root(g))]
    c = g.gcd(d)
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


def _distinct_degree_split(g):
    """Monic squarefree g -> list of (product of irreducibles of degree d, d)."""
    q = g.field.order
    y = g._new((0, 1))
    out = []
    w = y % g
    rest = g
    d = 0
    while rest.degree >= 2 * (d + 1):
        d += 1
        w = w.pow_mod(q, rest)
        h = rest.gcd(w - y)
        if h.degree > 0:
            out.append((h, d))
            rest = rest // h
            w = w % rest
    if rest.degree > 0:
        out.append((rest, rest.degree))
    return out


def _edf_trials(g, max_det_degree: int):
    """Deterministic low-degree trial polynomials, then seeded random ones."""
    field = g.field
    values = list(field.values())
    for deg in range(1, max_det_degree + 1):
        lower = list(itertools.product(values, repeat=deg))
        for lead in values:
            if lead == 0:
                continue
            for tail in lower:
                yield g._new(tail + (lead,))
    rng = random.Random(_EDF_FALLBACK_SEED)
    p = field.p
    while True:
        deg = max_det_degree + 1
        yield g._new(
            [field.from_digits([rng.randrange(p) for _ in range(field.degree)]) for _ in range(deg + 1)]
        )


def _split_equal_degree(g, d: int):
    """Monic product of distinct degree-d irreducibles -> sorted factor list."""
    if g.degree == d:
        return [g]
    q = g.field.order
    one = g._new((1,))
    half = (q**d - 1) // 2
    trace_len = d * (q.bit_length() - 1) if q % 2 == 0 else 0
    for trial in _edf_trials(g, max_det_degree=2):
        if q % 2:
            w = trial.pow_mod(half, g) - one
        else:
            acc = trial % g
            term = trial % g
            for _ in range(trace_len - 1):
                term = term * term % g
                acc = acc + term
            w = acc
        h = g.gcd(w)
        if 0 < h.degree < g.degree:
            return _split_equal_degree(h, d) + _split_equal_degree(g // h, d)
    raise RuntimeError("equal-degree splitting failed")  # pragma: no cover


def factor_ext(g):
    """Complete factorization over the coefficient field of g.

    Returns [(monic irreducible, multiplicity), ...] sorted by
    (degree, coefficient order); the unit g.leading() is implicit.
    """
    if g.is_zero():
        raise ValueError("factorization of the zero polynomial")
    if g.degree < 1:
        raise ValueError("factorization requires degree >= 1")
    out = []
    for part, mult in _squarefree_split(g.monic()):
        for prod, d in _distinct_degree_split(part):
            for irr in _split_equal_degree(prod, d):
                out.append((irr, mult))
    out.sort(key=lambda fm: fm[0].sort_key())
    return out


_FACTOR_CACHE: dict = {}


def factor_mod_p(f: IntPolynomial, p: int):
    """Factor f mod p into monic irreducibles over F_p.

    Returns [(FpPolynomial, multiplicity), ...] sorted by (degree,
    coefficient order).  Results are cached on the reduced polynomial,
    for the _CACHE_LIMIT most recently used inputs.
    """
    fp = FpPolynomial.from_int_poly(f, p)
    if fp.is_zero():
        raise ZeroModP(f"polynomial vanishes identically mod {p}")
    return _cached(
        _FACTOR_CACHE, (p, fp.coeffs), lambda: factor_ext(fp) if fp.degree >= 1 else []
    )


def _mobius(n: int) -> int:
    primes = _prime_divisors(n)
    return (-1) ** len(primes) if math.prod(primes) == n else 0


def count_monic_irreducibles(p: int, d: int) -> int:
    """Number of monic irreducible degree-d polynomials over F_p.

    Standard necklace count: (1/d) * sum over e | d of mu(e) * p^(d/e).

    >>> count_monic_irreducibles(2, 2)
    1
    >>> count_monic_irreducibles(3, 2)
    3
    """
    if not is_prime(p):
        raise NonPrime(f"{p} is not prime")
    if d < 1:
        raise ValueError("degree must be positive")
    total = 0
    for e in range(1, d + 1):
        if d % e == 0:
            total += _mobius(e) * p ** (d // e)
    return total // d
