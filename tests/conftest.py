"""Shared oracles and corpora.

Oracles here are deliberately independent of the library code paths
they check: the resultant oracle is a Sylvester-matrix determinant over
exact fractions, the lattice oracle scans a bounding box against side
inequalities, and the irreducible-count oracle enumerates polynomials.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from orefactor.errors import RepeatedFactor
from orefactor.ffield import factor_mod_p
from orefactor.intpoly import IntPolynomial, phi_expand

FUZZ_SEED = 20260810
FUZZ_PRIMES = (2, 3, 5, 7, 11, 13)

_TESTS = Path(__file__).resolve().parent


def run_snippet(code: str, timeout: float = 20.0) -> subprocess.CompletedProcess:
    """Run Python code in a fresh interpreter that imports from src/ and tests/.

    A snippet still running after `timeout` seconds fails the calling
    test, so a search that never ends cannot stall the suite.  The
    caller checks returncode, stdout and stderr.
    """
    path = os.pathsep.join(
        [str(_TESTS.parent / "src"), str(_TESTS), os.environ.get("PYTHONPATH", "")]
    )
    try:
        return subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            timeout=timeout,
            env={**os.environ, "PYTHONPATH": path},
        )
    except subprocess.TimeoutExpired:
        pytest.fail(f"snippet did not finish within {timeout:g} s:\n{code}")


def patch_everywhere(monkeypatch, original, replacement):
    """Replace `original` at every orefactor module name that binds it."""
    for name, module in list(sys.modules.items()):
        if name == "orefactor" or name.startswith("orefactor."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, replacement)


def sylvester_resultant(f: IntPolynomial, g: IntPolynomial) -> int:
    """Determinant of the Sylvester matrix, by fraction-exact elimination."""
    m, n = f.degree, g.degree
    if m < 0 or n < 0:
        return 0
    size = m + n
    if size == 0:
        return 1
    fc = list(reversed(f.coeffs))
    gc = list(reversed(g.coeffs))
    rows = [[0] * i + fc + [0] * (n - 1 - i) for i in range(n)]
    rows += [[0] * i + gc + [0] * (m - 1 - i) for i in range(m)]
    mat = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for col in range(size):
        pivot = next((r for r in range(col, size) if mat[r][col] != 0), None)
        if pivot is None:
            return 0
        if pivot != col:
            mat[col], mat[pivot] = mat[pivot], mat[col]
            det = -det
        det *= mat[col][col]
        inv = 1 / mat[col][col]
        for r in range(col + 1, size):
            factor = mat[r][col] * inv
            if factor:
                for c in range(col, size):
                    mat[r][c] -= factor * mat[col][c]
    assert det.denominator == 1
    return det.numerator


def brute_force_lattice_count(principal_sides) -> int:
    """Count (x>=1, y>=1) on or below the principal polygon by box scan."""
    if not principal_sides:
        return 0
    x_last = principal_sides[-1].end[0]
    y_max = max(s.start[1] for s in principal_sides)
    count = 0
    for x in range(1, x_last + 1):
        for y in range(1, y_max + 1):
            on_or_below = any(
                s.start[0] <= x <= s.end[0] and Fraction(y) <= s.y_at(x)
                for s in principal_sides
            )
            if on_or_below:
                count += 1
    return count


def is_squarefree_int(n: int) -> bool:
    n = abs(n)
    d = 2
    while d * d <= n:
        if n % (d * d) == 0:
            return False
        if n % d == 0:
            n //= d
        d += 1
    return True


def random_monic(rng: random.Random, max_degree: int = 12, coeff_bound: int = 40):
    degree = rng.randint(1, max_degree)
    return IntPolynomial(
        [rng.randint(-coeff_bound, coeff_bound) for _ in range(degree)] + [1]
    )


def _degenerate(f: IntPolynomial, p: int) -> bool:
    """True when some lifted factor divides f twice over Z (engine refuses)."""
    try:
        for phibar, _ in factor_mod_p(f, p):
            terms = phi_expand(f, phibar.lift()).terms
            if len(terms) > 1 and terms[0].is_zero() and terms[1].is_zero():
                return True
    except RepeatedFactor:  # pragma: no cover
        return True
    return False


def build_fuzz_corpus(n_cases: int = 500, seed: int = FUZZ_SEED):
    """(f, p) pairs: random monic f of degree <= 12, p <= 13.

    Pairs where f is divisible by the square of a lifted mod-p factor
    are regenerated; the engine refuses them by contract.
    """
    rng = random.Random(seed)
    corpus = []
    while len(corpus) < n_cases:
        f = random_monic(rng)
        p = rng.choice(FUZZ_PRIMES)
        if _degenerate(f, p):
            continue
        corpus.append((f, p))
    return corpus


@pytest.fixture(scope="session")
def fuzz_corpus():
    return build_fuzz_corpus()


@pytest.fixture(scope="session")
def sweep_values():
    """Every squarefree m with 2 <= |m| <= 2000, ascending by |m|."""
    values = []
    for a in range(2, 2001):
        for m in (a, -a):
            if is_squarefree_int(m):
                values.append(m)
    return values
