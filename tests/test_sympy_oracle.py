"""factor_mod_p against sympy's factorization over F_p.

sympy shares no code with the engine; it is in the `test` extra, and this
module is skipped where it is not installed.  sympy prints coefficients
in the symmetric range (-p/2, p/2]; they are mapped into [0, p) here.
"""

import random

import pytest

sympy = pytest.importorskip("sympy")

from orefactor import IntPolynomial, factor_mod_p  # noqa: E402

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
