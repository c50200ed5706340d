"""The engine against sympy, which shares no code with it.

* factor_mod_p against sympy's factorization over F_p.  sympy prints
  coefficients in the symmetric range (-p/2, p/2]; they are mapped into
  [0, p) here.
* ore_factor and ore_index against sympy's number-field code: round_two
  (an integral basis and dK) once per f, prime_decomp per p.  sympy's
  answer counts only if disc(f) = dK * index^2.  It is sometimes wrong:
  for x^5 - 26x^4 + 30x^3 + 16x + 23, dK = -3289205227 does not divide
  disc(f), though (x + 1)^2 | f mod 5 and f(-1) = -50 put 5 in the index
  by Dedekind's criterion.  An exception inside sympy, an answer that
  fails the identity, or a call that outlasts its alarm is a skip, so
  pytest's skip count reports them.
* The paper's own fields x^12 - m against prime_decomp at p = 2 and 3.
  They take about 0.4 s a case, so they carry the slow marker, which
  the default run deselects; run them with `pytest -m slow`.

sympy is in the `test` extra, and this module is skipped where it is not
installed.
"""

import contextlib
import functools
import math
import random
import signal

import pytest

sympy = pytest.importorskip("sympy")

from sympy.polys.numberfields.basis import round_two  # noqa: E402
from sympy.polys.numberfields.primes import prime_decomp  # noqa: E402

from orefactor import (  # noqa: E402
    IntPolynomial,
    NotRegular,
    factor_mod_p,
    ore_factor,
    ore_index,
    vp_int,
)

_X = sympy.Symbol("x")
_PRIMES = (2, 3, 5, 7, 13, 101, 10007, 1000003, 10**9 + 7, 2**61 - 1)


def _sympy_factors(coeffs, p):
    """[(ascending coefficients in [0, p), multiplicity)] of f mod p, by sympy."""
    _, factors = sympy.Poly(coeffs[::-1], _X, modulus=p).factor_list()
    return sorted(
        (tuple(int(c) % p for c in reversed(h.all_coeffs())), mult) for h, mult in factors
    )


def _cases():
    """30 seeded (coefficients, p): dense f of degree up to 60 with a random
    leading coefficient, pure x^d - c, and products h^2 * k with a repeated
    factor."""
    rng = random.Random(20261019)
    cases = []
    for i in range(30):
        p = _PRIMES[i % len(_PRIMES)]
        kind = i % 3
        if kind == 0:
            degree = rng.randint(1, 60)
            coeffs = [rng.randrange(-p, p) for _ in range(degree)] + [rng.randrange(1, p)]
        elif kind == 1:
            degree = rng.randint(2, 60)
            coeffs = [-rng.randrange(2, 100)] + [0] * (degree - 1) + [1]
        else:
            h = IntPolynomial([rng.randrange(p) for _ in range(rng.randint(1, 4))] + [1])
            k = IntPolynomial([rng.randrange(p) for _ in range(rng.randint(1, 12))] + [1])
            coeffs = list((h * h * k).coeffs)
        cases.append((coeffs, p))
    return cases


@pytest.mark.parametrize("coeffs, p", _cases())
def test_factor_mod_p_matches_sympy(coeffs, p):
    if all(c % p == 0 for c in coeffs):
        pytest.skip("f vanishes mod p")
    ours = sorted((h.coeffs, mult) for h, mult in factor_mod_p(IntPolynomial(coeffs), p))
    assert ours == _sympy_factors(coeffs, p), (coeffs, p)


_NF_PRIMES = (2, 3, 5, 7)
_ALARM_SECONDS = 1


def _nf_cases(count=30):
    """Seeded monic f of degree 2-8, coefficients in [-30, 30], irreducible over Q."""
    rng = random.Random(20261020)
    cases = []
    while len(cases) < count:
        coeffs = [rng.randint(-30, 30) for _ in range(rng.randint(2, 8))] + [1]
        if sympy.Poly(coeffs[::-1], _X).is_irreducible:
            cases.append(tuple(coeffs))
    return cases


def _nf_id(value):
    """Test id part: f without spaces, or p2 for p = 2."""
    if isinstance(value, int):
        return f"p{value}"
    return str(IntPolynomial(list(value))).replace(" ", "")


@contextlib.contextmanager
def _alarm(seconds=_ALARM_SECONDS):
    """Raise TimeoutError in the body after `seconds`."""

    def expire(signum, frame):
        raise TimeoutError(f"sympy took over {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@functools.lru_cache(maxsize=None)
def _round_two(coeffs, seconds=_ALARM_SECONDS):
    """(T, ZK, dK, index) from sympy for f, or why sympy's answer is not used."""
    T = sympy.Poly(coeffs[::-1], _X, domain=sympy.ZZ)
    try:
        with _alarm(seconds):
            ZK, dK = round_two(T)
    except Exception as exc:
        return f"round_two raised {type(exc).__name__}: {exc}"
    disc, dK = int(T.discriminant()), int(dK)
    square, rem = divmod(disc, dK)
    index = math.isqrt(square) if square > 0 else 0
    if rem or index * index != square:
        return f"round_two's dK = {dK} fails disc(f) = {disc} = dK * index^2"
    return T, ZK, dK, index


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs SIGALRM")
@pytest.mark.parametrize(
    "coeffs, p",
    [(f, p) for f in _nf_cases() for p in _NF_PRIMES],
    ids=_nf_id,
)
def test_ore_factor_matches_sympy_prime_decomp(coeffs, p):
    """The (e, f) multiset of p Z_K and the exact v_p of the index agree
    with sympy; where the engine refuses, its lower bound holds."""
    known = _round_two(coeffs)
    if isinstance(known, str):
        pytest.skip(known)
    T, ZK, dK, index = known
    f = IntPolynomial(list(coeffs))
    v = vp_int(index, p)
    try:
        ours = ore_factor(f, p)
    except NotRegular as exc:
        assert exc.lower_bound <= v, (coeffs, p)
        assert ore_index(f, p) == (exc.lower_bound, False), (coeffs, p)
        return
    try:
        with _alarm():
            ideals = prime_decomp(p, T=T, ZK=ZK, dK=dK)
    except Exception as exc:
        pytest.skip(f"prime_decomp raised {type(exc).__name__}: {exc}")
    assert ours.ef_multiset() == sorted((P.e, P.f) for P in ideals), (coeffs, p)
    assert ours.index_valuation == v, (coeffs, p)
    assert ore_index(f, p) == (v, True), (coeffs, p)


_PURE_M = [m for m in range(-26, 27) if abs(m) >= 2 and all(m % (d * d) for d in (2, 3, 5))]
_SLOW_ALARM_SECONDS = 20


@pytest.mark.slow
@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs SIGALRM")
@pytest.mark.parametrize("p", (2, 3), ids=_nf_id)
@pytest.mark.parametrize("m", _PURE_M)
def test_pure_x12_matches_sympy_prime_decomp(m, p):
    """x^12 - m for squarefree 2 <= |m| <= 26, irreducible over Q: the
    (e, f) multiset and the exact v_p of the index agree with sympy."""
    f = IntPolynomial.pure(12, m)
    known = _round_two(f.coeffs, _SLOW_ALARM_SECONDS)
    if isinstance(known, str):
        pytest.skip(known)
    T, ZK, dK, index = known
    ours = ore_factor(f, p)
    try:
        with _alarm(_SLOW_ALARM_SECONDS):
            ideals = prime_decomp(p, T=T, ZK=ZK, dK=dK)
    except Exception as exc:
        pytest.skip(f"prime_decomp raised {type(exc).__name__}: {exc}")
    assert ours.ef_multiset() == sorted((P.e, P.f) for P in ideals), (m, p)
    assert ours.index_valuation == vp_int(index, p), (m, p)
