"""Answers pinned by digest.

factor_mod_p, ore_index and ore_factor run on a fixed seeded corpus, and
a SHA-256 of their answers is compared with a recorded digest.  The
factor_mod_p and ore_factor answers are those of the polynomial core that
did every F_p coefficient step through ResidueField's element methods,
before the F_p int-list kernels replaced it; the ore_index answers were
added from the engine that still expanded f in every digit.  A change to the
finite-field arithmetic that alters any factor, its order, a ramification
index, a residue degree, a slope, a residual factor or a refusal changes
the digest.  If an answer is meant to change, record the new digest in
the same change and say why.
"""

import hashlib
import json
import random

from orefactor.errors import NotRegular, RepeatedFactor
from orefactor.ffield import factor_mod_p
from orefactor.intpoly import IntPolynomial
from orefactor.ore import ore_factor, ore_index

SEED = 90210
SMALL_PRIMES = (2, 3, 5, 7, 11, 13)
LARGE_PRIMES = (101, 10007, 99991, 2**61 - 1)
DIGEST = "aff74b1c04c483a5e4dd237c1bc70d4b71f771e8fa0aa16702a59195b0bd61d3"


def small_p_case(rng):
    """Monic f of degree <= 12 with coefficients scaled by 1, p or p^2, so
    that polygons have several sides and residual fields are extensions."""
    p = rng.choice(SMALL_PRIMES)
    scale = p ** rng.randint(0, 2)
    degree = rng.randint(1, 12)
    return IntPolynomial([scale * rng.randint(-40, 40) for _ in range(degree)] + [1]), p


def large_p_case(rng):
    """A product of random monic factors of degree 1-3 mod a large p, some
    repeated, plus p times a random tail: equal-degree splitting at large p."""
    p = rng.choice(LARGE_PRIMES)
    f = IntPolynomial([1])
    for _ in range(rng.randint(1, 5)):
        degree = rng.randint(1, 3)
        f = f * IntPolynomial([rng.randrange(p) for _ in range(degree)] + [1])
    if rng.random() < 0.3:
        f = f * IntPolynomial([rng.randrange(p), 1]) ** 2
    tail = IntPolynomial([p * rng.randint(-3, 3) for _ in range(max(f.degree, 1))])
    return f + tail, p


def corpus():
    rng = random.Random(SEED)
    cases = [small_p_case(rng) for _ in range(500)]
    cases += [large_p_case(rng) for _ in range(200)]
    return cases


def answer(f, p):
    factors = [[list(h.coeffs), mult] for h, mult in factor_mod_p(f, p)]
    try:
        index = list(ore_index(f, p))
    except RepeatedFactor as exc:
        index = type(exc).__name__
    try:
        result = ore_factor(f, p)
    except (NotRegular, RepeatedFactor) as exc:
        return [factors, type(exc).__name__, getattr(exc, "lower_bound", None), index]
    ideals = []
    for ideal in result.ideals:
        residual = ideal.residual_factor
        ideals.append([
            list(ideal.phi.coeffs),
            ideal.e,
            ideal.f,
            str(ideal.side_slope),
            None if residual is None else [list(residual.field.modulus.coeffs), list(residual.coeffs)],
        ])
    return [factors, result.index_valuation, ideals, index]


def test_answers_match_the_pinned_digest():
    cases = corpus()
    answers = [answer(f, p) for f, p in cases]
    # the corpus reaches refusals, and splitting into equal-degree factors at large p
    assert sum(isinstance(a[1], str) for a in answers) == 21
    assert sum(
        len({len(h) for h, _ in a[0]}) < len(a[0]) for (_, p), a in zip(cases, answers) if p > 13
    ) == 170
    digest = hashlib.sha256(json.dumps(answers).encode()).hexdigest()
    assert digest == DIGEST
