"""Index tests and prime-ideal factorization of p in Z_K = Z[x]/(f).

Three routes, increasingly powerful:

* dedekind_test decides whether p divides the index (Z_K : Z[alpha]):
  it does iff v_p(f mod phi) >= 2 for a repeated factor phi of f mod p.
* kummer_factor reads the splitting of p straight off the factorization
  of f mod p; valid exactly when the index test passes.
* ore_factor splits p through Newton polygons and residual polynomials;
  valid whenever f is p-regular, and then also certifies the exact
  p-valuation of the index.

ore_factor, ore_index and is_p_regular all read one analysis per (f, p),
_analyze, which runs _phi_report once for each factor phi of f mod p:
it expands f in base phi once, fetches the field F_phi once and factors
each residual polynomial once.  The CLI's polygon command runs
_phi_report on a phi of its own.

_analyze computes only what the answers read.  Ore's theorem and the
theorem of the index read the principal part of each polygon, which for
a phi of multiplicity l in f mod p ends at (l, 0); so f is expanded only
to its first l + 1 phi-adic digits.  The CLI's factor command asks for
every digit, because it prints every point.  Each phi of _analyze is a
factor of factor_mod_p, so F_phi is not tested again (see ffield).

Irreducibility of f over Q is the caller's obligation throughout; it is
assumed, not verified.  Inputs that are visibly incompatible with it
(f divisible by the square of a lifted factor) raise RepeatedFactor.
"""

from __future__ import annotations

from ._record import Record
from .errors import IndexDivisible, NonMonicModulus, NotRegular, RepeatedFactor
from .ffield import (
    ExtPolynomial, FpPolynomial, ResidueField, _field, factor_ext, factor_mod_p,
)
from .intpoly import IntPolynomial, _phi_digits, _vp_poly
from .polygon import NewtonPolygon, _polygon, _principal_lattice_count, _residual


class DedekindVerdict(Record):
    """Outcome of the index-divisibility test at p."""

    __slots__ = _fields = ("divides_index", "failing_phi")

    def __init__(self, divides_index: bool, failing_phi: FpPolynomial | None = None):
        super().__init__(divides_index, failing_phi)


class PrimeIdealData(Record):
    """One prime of Z_K above p: ramification index e and residue degree f.

    side_slope (an exact Fraction) and residual_factor record the polygon
    provenance; both are None for ideals read off a plain mod-p factor
    (Kummer route or an exact lifted factor of f).
    """

    __slots__ = _fields = ("phi", "e", "f", "side_slope", "residual_factor")

    def __init__(
        self,
        phi: FpPolynomial,
        e: int,
        f: int,
        side_slope=None,
        residual_factor: ExtPolynomial | None = None,
    ):
        super().__init__(phi, e, f, side_slope, residual_factor)

    def ef(self) -> tuple:
        return (self.e, self.f)


class PrimeFactorization(Record):
    """Shape of p Z_K: the multiset of (e, f) and the exact v_p of the index."""

    __slots__ = _fields = ("p", "ideals", "index_valuation")

    def __init__(self, p: int, ideals: tuple, index_valuation: int):
        super().__init__(p, ideals, index_valuation)

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

    Dedekind's criterion on the first phi-adic digit: it does iff some phi
    of multiplicity >= 2 in f mod p has v_p(f mod phi) >= 2, dividing by
    the monic [0, p) lift over Z.  That lift divides the lifted product,
    so f mod phi = p * (M mod phi) for M = (f - lifted product) / p.
    """
    _require_monic(f)
    failing = None
    for phibar, mult in factor_mod_p(f, p):
        v = _vp_poly(f % phibar.lift(), p)
        if v == 0:
            raise AssertionError(f"{phibar} does not divide f mod {p}")
        if mult >= 2 and v >= 2 and failing is None:
            failing = phibar
    return DedekindVerdict(divides_index=failing is not None, failing_phi=failing)


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
    return PrimeFactorization(p=p, ideals=ideals, index_valuation=0)


class _PhiReport(Record):
    """Everything the engine learns about one irreducible factor phi of f mod p."""

    __slots__ = _fields = (
        "phibar",
        "multiplicity",
        "exact_power",
        "polygon",
        "residuals",
        "residual_factors",
        "index",
    )

    def __init__(
        self,
        phibar: FpPolynomial,
        multiplicity: int,  # of phibar in f mod p; 0 when phi was not read off f mod p
        exact_power: int,  # the power of phi dividing f over Z
        polygon: NewtonPolygon,  # of the digits expanded; its principal part is complete
        residuals: tuple,
        residual_factors: tuple,  # factor_ext of each residual, in side order
        index: int,
    ):
        super().__init__(phibar, multiplicity, exact_power, polygon, residuals,
                         residual_factors, index)


def _phi_report(expansion, field: ResidueField, multiplicity: int = 0):
    """Everything the engine learns about phi = expansion.phi from the
    expansion of f and F_phi, the field of phi mod p."""
    p = field.p
    poly = _polygon(expansion, p)
    residuals = tuple([_residual(expansion, field, s) for s in poly.principal_sides])
    return _PhiReport(
        phibar=field.modulus,
        multiplicity=multiplicity,
        exact_power=poly.points[0][0],  # the index of the first nonzero term
        polygon=poly,
        residuals=residuals,
        residual_factors=tuple([factor_ext(r.poly) for r in residuals]),
        index=expansion.phi.degree * _principal_lattice_count(poly.principal_sides),
    )


def _analyze(f: IntPolynomial, p: int, full: bool = False):
    """The _phi_report of every phi dividing f mod p, in factor order.

    f is expanded to the digit mult + 1 of each phi, where its principal
    polygon ends, or fully with full=True, for a caller that prints every
    point.
    """
    _require_monic(f)
    reports = []
    for phibar, mult in factor_mod_p(f, p):
        lift = phibar.lift()
        expansion = _phi_digits(f, lift, None if full else mult + 1)
        report = _phi_report(expansion, _field(p, phibar.coeffs, False), mult)
        if report.exact_power >= 2:
            raise RepeatedFactor(
                f"f is divisible by ({lift})^{report.exact_power} over Z; "
                "no squarefree p-adic factorization exists"
            )
        reports.append(report)
    return reports


def ore_index(f: IntPolynomial, p: int):
    """(sum of phi-indices, exactness flag).

    The value is a lower bound for the p-valuation of the index,
    and is the exact valuation iff f is p-regular.
    """
    reports = _analyze(f, p)
    squarefree = all(mult == 1 for r in reports for fs in r.residual_factors for _, mult in fs)
    return sum(r.index for r in reports), squarefree


def is_p_regular(f: IntPolynomial, p: int) -> bool:
    """True iff every residual polynomial of every principal side is squarefree."""
    return ore_index(f, p)[1]


def ore_factor(f: IntPolynomial, p: int) -> PrimeFactorization:
    """Full splitting of p Z_K through Newton polygons.

    One prime per (factor, side, residual factor) with e = side length /
    side degree and residue degree deg(phi) * deg(psi).  Refuses with
    NotRegular (carrying the index lower bound) when some residual
    polynomial has a repeated factor.
    """
    return _factorization(_analyze(f, p), f.degree, p)


def _factorization(reports, degree: int, p: int) -> PrimeFactorization:
    """ore_factor's answer from the reports of _analyze(f, p)."""
    total_index = sum(r.index for r in reports)
    ideals = []
    for report in reports:
        if report.exact_power == 1:
            # the lift itself divides f: one unramified prime, no side data
            ideals.append(
                PrimeIdealData(phi=report.phibar, e=1, f=report.phibar.degree)
            )
        for residual, factors in zip(report.residuals, report.residual_factors):
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
    _check_fundamental_identity(ideals, degree)
    return PrimeFactorization(p=p, ideals=tuple(ideals), index_valuation=total_index)


def _check_fundamental_identity(ideals, degree: int) -> None:
    total = sum(i.e * i.f for i in ideals)
    if total != degree:
        raise AssertionError(
            f"sum of e*f is {total}, expected the field degree {degree}"
        )
