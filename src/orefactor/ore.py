"""Index tests and prime-ideal factorization of p in Z_K = Z[x]/(f).

Three routes, increasingly powerful:

* dedekind_test decides whether p divides the index (Z_K : Z[alpha]).
* kummer_factor reads the splitting of p straight off the factorization
  of f mod p; valid exactly when the index test passes.
* ore_factor splits p through Newton polygons and residual polynomials;
  valid whenever f is p-regular, and then also certifies the exact
  p-valuation of the index.

Irreducibility of f over Q is the caller's obligation throughout; it is
assumed, not verified.  Inputs that are visibly incompatible with it
(f divisible by the square of a lifted factor) raise RepeatedFactor.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import IndexDivisible, NonMonicModulus, NotRegular, RepeatedFactor
from .ffield import (
    ExtPolynomial,
    FpPolynomial,
    factor_ext,
    factor_mod_p,
    is_squarefree_ext,
)
from .intpoly import IntPolynomial, phi_expand
from .polygon import (
    NewtonPolygon,
    _principal_lattice_count,
    build_polygon,
    residual_polynomial,
)


@dataclass(frozen=True)
class DedekindVerdict:
    """Outcome of the index-divisibility test at p."""

    divides_index: bool
    failing_phi: FpPolynomial | None = None


@dataclass(frozen=True)
class PrimeIdealData:
    """One prime of Z_K above p: ramification index e and residue degree f.

    side_slope and residual_factor record the polygon provenance; both
    are None for ideals read off a plain mod-p factor (Kummer route or
    an exact lifted factor of f).
    """

    phi: FpPolynomial
    e: int
    f: int
    side_slope: Fraction | None = None
    residual_factor: ExtPolynomial | None = None

    def ef(self) -> tuple:
        return (self.e, self.f)


@dataclass(frozen=True)
class PrimeFactorization:
    """Shape of p Z_K: the multiset of (e, f) plus index bookkeeping."""

    p: int
    ideals: tuple
    is_regular: bool
    index_valuation: int
    index_is_exact: bool

    def ef_multiset(self):
        return sorted(i.ef() for i in self.ideals)

    def residue_degree_counts(self) -> dict:
        counts: dict = {}
        for ideal in self.ideals:
            counts[ideal.f] = counts.get(ideal.f, 0) + 1
        return counts


def _require_monic(f: IntPolynomial) -> None:
    if not f.is_monic():
        raise NonMonicModulus("f must be monic")


def dedekind_test(f: IntPolynomial, p: int) -> DedekindVerdict:
    """Does p divide (Z_K : Z[alpha])?

    Computes M = (f - prod lifted_factors^l) / p with the canonical
    [0, p) lifts and applies the classical criterion: the index is
    p-free iff no repeated factor of f mod p divides M mod p.
    """
    _require_monic(f)
    factors = factor_mod_p(f, p)
    product = IntPolynomial([1])
    for phibar, mult in factors:
        product = product * phibar.lift() ** mult
    diff = f - product
    m_coeffs = []
    for c in diff.coeffs:
        if c % p:
            raise AssertionError("f and its lifted factorization differ mod p")
        m_coeffs.append(c // p)
    m_bar = FpPolynomial(p, m_coeffs)
    for phibar, mult in factors:
        if mult >= 2 and (m_bar % phibar).is_zero():
            return DedekindVerdict(divides_index=True, failing_phi=phibar)
    return DedekindVerdict(divides_index=False)


def kummer_factor(f: IntPolynomial, p: int) -> PrimeFactorization:
    """Splitting of p when p does not divide the index.

    Each irreducible factor of f mod p with multiplicity l yields one
    prime with e = l and residue degree deg(phi).  Raises IndexDivisible
    when the precondition fails; use ore_factor instead.
    """
    verdict = dedekind_test(f, p)
    if verdict.divides_index:
        raise IndexDivisible(
            f"{p} divides the index (failing factor {verdict.failing_phi}); "
            "use the polygon route"
        )
    ideals = tuple(
        PrimeIdealData(phi=phibar, e=mult, f=phibar.degree)
        for phibar, mult in factor_mod_p(f, p)
    )
    _check_fundamental_identity(ideals, f.degree)
    return PrimeFactorization(
        p=p,
        ideals=ideals,
        is_regular=True,
        index_valuation=0,
        index_is_exact=True,
    )


@dataclass(frozen=True)
class _PhiReport:
    """Everything the engine learns about one irreducible factor phi of f mod p."""

    phibar: FpPolynomial
    multiplicity: int
    exact_power: int  # 1 if the lift of phi divides f over Z, else 0
    polygon: NewtonPolygon
    residuals: tuple
    index: int

    def residuals_squarefree(self) -> bool:
        return all(is_squarefree_ext(r.poly) for r in self.residuals)


def _analyze(f: IntPolynomial, p: int):
    """Per-factor polygon and residual data for every phi dividing f mod p."""
    _require_monic(f)
    reports = []
    for phibar, mult in factor_mod_p(f, p):
        lift = phibar.lift()
        expansion = phi_expand(f, lift)
        exact_power = 0
        while expansion.terms[exact_power].is_zero():
            exact_power += 1
        if exact_power >= 2:
            raise RepeatedFactor(
                f"f is divisible by ({lift})^{exact_power} over Z; "
                "no squarefree p-adic factorization exists"
            )
        poly = build_polygon(f, lift, p)
        residuals = tuple(
            residual_polynomial(f, lift, p, side) for side in poly.principal_sides
        )
        index = lift.degree * _principal_lattice_count(poly.principal_sides)
        reports.append(
            _PhiReport(
                phibar=phibar,
                multiplicity=mult,
                exact_power=exact_power,
                polygon=poly,
                residuals=residuals,
                index=index,
            )
        )
    return reports


def ore_index(f: IntPolynomial, p: int):
    """(sum of phi-indices, exactness flag).

    The value is a lower bound for the p-valuation of the index,
    and is the exact valuation iff f is p-regular.
    """
    reports = _analyze(f, p)
    total = sum(r.index for r in reports)
    exact = all(r.residuals_squarefree() for r in reports)
    return total, exact


def is_p_regular(f: IntPolynomial, p: int) -> bool:
    """True iff every residual polynomial of every principal side is squarefree."""
    return all(r.residuals_squarefree() for r in _analyze(f, p))


def ore_factor(f: IntPolynomial, p: int) -> PrimeFactorization:
    """Full splitting of p Z_K through Newton polygons.

    One prime per (factor, side, residual factor) with e = side length /
    side degree and residue degree deg(phi) * deg(psi).  Refuses with
    NotRegular (carrying the index lower bound) when some residual
    polynomial has a repeated factor.
    """
    reports = _analyze(f, p)
    total_index = sum(r.index for r in reports)
    ideals = []
    for report in reports:
        if report.exact_power == 1:
            # the lift itself divides f: one unramified prime, no side data
            ideals.append(
                PrimeIdealData(phi=report.phibar, e=1, f=report.phibar.degree)
            )
        for residual in report.residuals:
            factors = factor_ext(residual.poly)
            if any(mult > 1 for _, mult in factors):
                raise NotRegular(
                    f"residual polynomial {residual.poly} is not squarefree at "
                    f"p={p}; index valuation >= {total_index}",
                    lower_bound=total_index,
                )
            for psi, _ in factors:
                ideals.append(
                    PrimeIdealData(
                        phi=report.phibar,
                        e=residual.side.e,
                        f=report.phibar.degree * psi.degree,
                        side_slope=residual.side.slope,
                        residual_factor=psi,
                    )
                )
    _check_fundamental_identity(ideals, f.degree)
    return PrimeFactorization(
        p=p,
        ideals=tuple(ideals),
        is_regular=True,
        index_valuation=total_index,
        index_is_exact=True,
    )


def _check_fundamental_identity(ideals, degree: int) -> None:
    total = sum(i.e * i.f for i in ideals)
    if total != degree:
        raise AssertionError(
            f"sum of e*f is {total}, expected the field degree {degree}"
        )
