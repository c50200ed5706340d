"""Monogenity of pure fields K = Q(m^(1/n)) defined by x^n - m.

Two independent routes for n = 12:

* classify_theorem: the closed-form congruence test.  Z[alpha] is the
  full ring of integers iff m = 2, 3 (mod 4) and m != +-1 (mod 9);
  otherwise K has no power integral basis at all.
* classify_engine: runs the polygon engine at every prime dividing the
  discriminant.  Index zero everywhere certifies Z_K = Z[alpha]; a
  counting witness (more primes of residue degree f above p than there
  are monic irreducibles of degree f over F_p) rules out every
  generator at once.

The two must agree; the engine also accepts other n as an experimental
mode and then flags its verdict.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import (
    ExcludedM,
    ExcludedN,
    NotRegular,
    NotSquarefree,
    RepeatedFactor,
    SquarefreeCheckInconclusive,
)
from .ffield import count_monic_irreducibles
from .intpoly import IntPolynomial, is_prime
from .ore import PrimeFactorization, ore_factor

DEFAULT_SQUAREFREE_BOUND = 10**7


def prime_factors_squarefree(m: int, bound: int = DEFAULT_SQUAREFREE_BOUND):
    """Prime factors of |m|, certifying squarefreeness along the way.

    Trial division up to `bound`; a leftover cofactor must be certified
    prime, else the check either refutes squarefreeness (perfect power)
    or gives up with SquarefreeCheckInconclusive.
    """
    rest = abs(m)
    primes = []
    d = 2
    while d <= bound and d * d <= rest:
        if rest % d == 0:
            rest //= d
            if rest % d == 0:
                raise NotSquarefree(f"{m} is divisible by {d}^2")
            primes.append(d)
        d += 1 if d == 2 else 2
    if rest > 1:
        if d * d > rest or is_prime(rest):
            primes.append(rest)
        else:
            root = _integer_sqrt(rest)
            if root * root == rest:
                raise NotSquarefree(f"{m} is divisible by {root}^2")
            raise SquarefreeCheckInconclusive(
                f"cannot certify squarefreeness of {m} with trial bound {bound}"
            )
    return primes


def _integer_sqrt(n: int) -> int:
    return math.isqrt(n)


@dataclass(frozen=True)
class PureFieldInput:
    """Validated parameters (n, m) of a pure field Q(m^(1/n))."""

    m: int
    n: int = 12
    squarefree_bound: int = DEFAULT_SQUAREFREE_BOUND

    def __post_init__(self):
        if self.m in (-1, 0, 1):
            raise ExcludedM(f"m = {self.m} does not define a pure field here")
        if self.n < 2:
            raise ExcludedN(f"n must be at least 2 (got n = {self.n})")
        prime_factors_squarefree(self.m, self.squarefree_bound)

    def polynomial(self) -> IntPolynomial:
        return IntPolynomial.pure(self.n, self.m)

    def ramified_candidates(self):
        """Primes dividing the discriminant of x^n - m: p | n*m."""
        ps = set(prime_factors_squarefree(self.m, self.squarefree_bound))
        n = self.n
        d = 2
        while d * d <= n:
            if n % d == 0:
                ps.add(d)
                while n % d == 0:
                    n //= d
            d += 1
        if n > 1:
            ps.add(n)
        return sorted(ps)


class Status(enum.Enum):
    MONOGENIC_Z_ALPHA = "monogenic (Z[alpha] is the ring of integers)"
    NOT_MONOGENIC = "not monogenic"
    UNDECIDED = "undecided"


@dataclass(frozen=True)
class MonogenityVerdict:
    """Classification result.

    Engine verdicts of NOT_MONOGENIC always carry at least one witness
    (p, f, P_f, N_f); theorem-route verdicts carry none, since the
    congruence test never counts ideals.
    """

    m: int
    n: int
    status: Status
    witness: tuple | None = None
    witnesses: tuple = ()
    per_prime_reports: tuple = ()
    index_valuations: tuple = ()  # (p, valuation-or-bound, exact)
    notes: tuple = ()


def classify_theorem(m: int, n: int = 12) -> MonogenityVerdict:
    """Closed-form congruence classification; n must be 12."""
    if n != 12:
        raise ValueError("the congruence classification is specific to n = 12")
    PureFieldInput(m=m, n=n)
    not_monogenic = (m % 4 == 1) or (m % 9 in (1, 8))
    status = Status.NOT_MONOGENIC if not_monogenic else Status.MONOGENIC_Z_ALPHA
    return MonogenityVerdict(m=m, n=n, status=status)


def witness_nonmonogenic(report: PrimeFactorization):
    """Smallest residue degree f with P_f > N_f, or None.

    P_f counts the distinct primes above p with residue degree f; N_f
    counts monic irreducible degree-f polynomials over F_p.  When the
    count bound fails, every generator's index is divisible by p.
    """
    if not report.is_regular:
        raise ValueError("witness counting requires exact (regular) ideal data")
    counts = report.residue_degree_counts()
    for fdeg in sorted(counts):
        n_f = count_monic_irreducibles(report.p, fdeg)
        if counts[fdeg] > n_f:
            return (fdeg, counts[fdeg], n_f)
    return None


_WITNESS_PRIMES = (2, 3)


def classify_engine(
    m: int,
    n: int = 12,
    squarefree_bound: int = DEFAULT_SQUAREFREE_BOUND,
) -> MonogenityVerdict:
    """Engine classification via polygon factorization at every p | disc.

    MONOGENIC_Z_ALPHA iff the index valuation is exactly zero at every
    prime dividing n*m.  NOT_MONOGENIC only through a counting witness;
    index divisibility alone never suffices, since it speaks about the
    single generator alpha.  Anything else is UNDECIDED (cannot occur
    for n = 12 and squarefree m).
    """
    inp = PureFieldInput(m=m, n=n, squarefree_bound=squarefree_bound)
    f = inp.polynomial()
    notes = [] if n == 12 else [f"n = {n} is outside the certified range (n = 12)"]
    reports: dict[int, PrimeFactorization] = {}
    valuations = []
    all_exact_zero = True
    for p in inp.ramified_candidates():
        try:
            report = ore_factor(f, p)
            reports[p] = report
            valuations.append((p, report.index_valuation, True))
            if report.index_valuation != 0:
                all_exact_zero = False
        except NotRegular as exc:
            valuations.append((p, exc.lower_bound, False))
            all_exact_zero = False
            notes.append(f"p = {p}: not p-regular, index valuation >= {exc.lower_bound}")
        except RepeatedFactor as exc:
            valuations.append((p, 0, False))
            all_exact_zero = False
            notes.append(f"p = {p}: {exc}")
    common = dict(
        m=m,
        n=n,
        per_prime_reports=tuple(reports[p] for p in sorted(reports)),
        index_valuations=tuple(valuations),
        notes=tuple(notes),
    )
    if all_exact_zero:
        return MonogenityVerdict(status=Status.MONOGENIC_Z_ALPHA, **common)
    witnesses = []
    for p in _WITNESS_PRIMES:
        report = reports.get(p)
        if report is None:
            continue
        found = witness_nonmonogenic(report)
        if found is not None:
            witnesses.append((p,) + found)
    if witnesses:
        return MonogenityVerdict(
            status=Status.NOT_MONOGENIC,
            witness=witnesses[0],
            witnesses=tuple(witnesses),
            **common,
        )
    return MonogenityVerdict(status=Status.UNDECIDED, **common)
