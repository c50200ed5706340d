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

from ._record import Record
from .errors import (
    ExcludedM,
    ExcludedN,
    NotRegular,
    NotSquarefree,
    SquarefreeCheckInconclusive,
)
from .intpoly import IntPolynomial, _require_prime, is_prime
from .ore import PrimeFactorization, ore_factor

DEFAULT_SQUAREFREE_BOUND = 10**7


def prime_factors_squarefree(m: int, bound: int = DEFAULT_SQUAREFREE_BOUND):
    """Prime factors of |m|, certifying squarefreeness along the way.

    Trial division up to `bound`, which stops early once the cofactor is
    a prime above `bound` (tested when it is set and after each division
    while it exceeds `bound`); a leftover cofactor must be certified
    prime, else the check either refutes squarefreeness (perfect power)
    or gives up with SquarefreeCheckInconclusive.
    """
    if m == 0:
        raise NotSquarefree("0 is divisible by every square")
    rest = abs(m)
    primes = []
    certified = rest > bound and is_prime(rest)
    d = 2
    while not certified and d <= bound and d * d <= rest:
        if rest % d == 0:
            rest //= d
            if rest % d == 0:
                raise NotSquarefree(f"{m} is divisible by {d}^2")
            primes.append(d)
            certified = rest > bound and is_prime(rest)
        d += 1 if d == 2 else 2
    if rest > 1:
        if certified or d * d > rest or is_prime(rest):
            primes.append(rest)
        else:
            root = math.isqrt(rest)
            if root * root == rest:
                raise NotSquarefree(f"{m} is divisible by {root}^2")
            raise SquarefreeCheckInconclusive(
                f"cannot certify squarefreeness of {m} with trial bound {bound}"
            )
    return primes


class PureFieldInput(Record):
    """Validated parameters (n, m) of a pure field Q(m^(1/n)).

    _m_primes, the prime factors of m certified on construction, is kept
    out of the fields: equality, hash and repr ignore it.
    """

    _fields = ("m", "n", "squarefree_bound")
    __slots__ = _fields + ("_m_primes",)

    def __init__(self, m: int, n: int = 12, squarefree_bound: int = DEFAULT_SQUAREFREE_BOUND):
        super().__init__(m, n, squarefree_bound)
        if m in (-1, 0, 1):
            raise ExcludedM(f"m = {m} does not define a pure field here")
        if n < 2:
            raise ExcludedN(f"n must be at least 2 (got n = {n})")
        object.__setattr__(self, "_m_primes", prime_factors_squarefree(m, squarefree_bound))

    def polynomial(self) -> IntPolynomial:
        return IntPolynomial.pure(self.n, self.m)

    def ramified_candidates(self):
        """Primes dividing the discriminant of x^n - m: p | n*m."""
        n = self.n
        n_primes = [q for q in range(2, n + 1) if n % q == 0 and is_prime(q)]
        return sorted(set(self._m_primes).union(n_primes))


class Status(enum.Enum):
    MONOGENIC_Z_ALPHA = "monogenic (Z[alpha] is the ring of integers)"
    NOT_MONOGENIC = "not monogenic"
    UNDECIDED = "undecided"


class MonogenityVerdict(Record):
    """Classification result.

    Engine verdicts of NOT_MONOGENIC always carry at least one witness
    (p, f, P_f, N_f); theorem-route verdicts carry none, since the
    congruence test never counts ideals.
    """

    __slots__ = _fields = (
        "m",
        "n",
        "status",
        "witness",
        "witnesses",
        "per_prime_reports",
        "index_valuations",
        "notes",
    )

    def __init__(
        self,
        m: int,
        n: int,
        status: Status,
        witness: tuple | None = None,
        witnesses: tuple = (),
        per_prime_reports: tuple = (),
        index_valuations: tuple = (),  # (p, valuation-or-bound, exact)
        notes: tuple = (),
    ):
        super().__init__(
            m, n, status, witness, witnesses, per_prime_reports, index_valuations, notes
        )


def classify_theorem(m: int, n: int = 12) -> MonogenityVerdict:
    """Closed-form congruence classification; n must be 12."""
    if n != 12:
        raise ValueError("the congruence classification is specific to n = 12")
    return _classify_theorem(PureFieldInput(m=m, n=n))


def _classify_theorem(inp: PureFieldInput) -> MonogenityVerdict:
    m = inp.m
    not_monogenic = (m % 4 == 1) or (m % 9 in (1, 8))
    status = Status.NOT_MONOGENIC if not_monogenic else Status.MONOGENIC_Z_ALPHA
    return MonogenityVerdict(m=m, n=inp.n, status=status)


def count_monic_irreducibles(p: int, d: int) -> int:
    """Number of monic irreducible degree-d polynomials over F_p.

    Gauss's identity p^k = sum over e | k of e * N_e, solved for N_k
    upward over the divisors k of d (Lidl-Niederreiter, Cor. 3.21).

    >>> count_monic_irreducibles(2, 2)
    1
    >>> count_monic_irreducibles(3, 2)
    3
    """
    _require_prime(p)
    if d < 1:
        raise ValueError("degree must be positive")
    counts = {}  # k -> N_k for the divisors k of d met so far
    for k in range(1, d + 1):
        if d % k == 0:
            counts[k] = (p**k - sum(e * n_e for e, n_e in counts.items() if k % e == 0)) // k
    return counts[d]


def witness_nonmonogenic(report: PrimeFactorization):
    """Smallest residue degree f with P_f > N_f, or None.

    P_f counts the distinct primes above p with residue degree f; N_f
    counts monic irreducible degree-f polynomials over F_p.  When the
    count bound fails, every generator's index is divisible by p.
    """
    counts = report.residue_degree_counts()
    for fdeg in sorted(counts):
        n_f = count_monic_irreducibles(report.p, fdeg)
        if counts[fdeg] > n_f:
            return (fdeg, counts[fdeg], n_f)
    return None


def classify_engine(
    m: int,
    n: int = 12,
    squarefree_bound: int = DEFAULT_SQUAREFREE_BOUND,
) -> MonogenityVerdict:
    """Engine classification via polygon factorization at every p | disc.

    MONOGENIC_Z_ALPHA iff the index valuation is exactly zero at every
    prime dividing n*m.  NOT_MONOGENIC only through a counting witness at
    any of those primes; index divisibility alone never suffices, since it
    speaks about the single generator alpha.  Anything else is UNDECIDED
    (cannot occur for n = 12 and squarefree m).
    """
    return _classify_engine(PureFieldInput(m=m, n=n, squarefree_bound=squarefree_bound))


def _classify_engine(inp: PureFieldInput) -> MonogenityVerdict:
    """classify_engine on an input whose m is already certified squarefree:
    x^n - m is Eisenstein at each p | m, so ore_factor meets no RepeatedFactor."""
    m, n = inp.m, inp.n
    f = inp.polynomial()
    notes = [] if n == 12 else [f"n = {n} is outside the certified range (n = 12)"]
    reports: dict[int, PrimeFactorization] = {}  # filled in ascending p
    valuations = []
    for p in inp.ramified_candidates():
        try:
            report = ore_factor(f, p)
        except NotRegular as exc:
            valuations.append((p, exc.lower_bound, False))
            notes.append(f"p = {p}: not p-regular, index valuation >= {exc.lower_bound}")
            continue
        reports[p] = report
        valuations.append((p, report.index_valuation, True))
    status, witnesses = Status.MONOGENIC_Z_ALPHA, ()
    if not all(exact and v == 0 for _, v, exact in valuations):
        found = [(p, witness_nonmonogenic(report)) for p, report in reports.items()]
        witnesses = tuple([(p,) + w for p, w in found if w is not None])
        status = Status.NOT_MONOGENIC if witnesses else Status.UNDECIDED
    return MonogenityVerdict(
        m=m,
        n=n,
        status=status,
        witness=witnesses[0] if witnesses else None,
        witnesses=witnesses,
        per_prime_reports=tuple(reports.values()),
        index_valuations=tuple(valuations),
        notes=tuple(notes),
    )
