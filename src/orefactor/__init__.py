"""Exact arithmetic for prime factorization in number rings.

Factor a rational prime p in Z[x]/(f) through phi-Newton polygons and
residual polynomials, test index divisibility, and classify monogenity
of pure fields Q(m^(1/12)).  Everything is exact integer / rational /
finite-field arithmetic; no floats anywhere.
"""

__version__ = "0.1.0"

from .errors import (
    EngineError,
    ExcludedM,
    ExcludedN,
    IndexDivisible,
    NonMonicModulus,
    NonPrime,
    NotRegular,
    NotSquarefree,
    PolyParseError,
    ReducibleModulus,
    RepeatedFactor,
    SquarefreeCheckInconclusive,
    ZeroModP,
)
from .intpoly import (
    INFINITY,
    IntPolynomial,
    PhiExpansion,
    discriminant,
    is_prime,
    phi_expand,
    resultant,
    vp_int,
    vp_poly,
)
from .ffield import (
    ExtPolynomial,
    FpPolynomial,
    ResidueField,
    ResidueFieldElem,
    factor_ext,
    factor_mod_p,
    is_squarefree_ext,
)
from .polygon import (
    NewtonPolygon,
    ResidualPolynomial,
    Side,
    build_polygon,
    phi_index,
    render_polygon,
    residual_polynomial,
)
from .ore import (
    DedekindVerdict,
    PrimeFactorization,
    PrimeIdealData,
    dedekind_test,
    is_p_regular,
    kummer_factor,
    ore_factor,
    ore_index,
)
from .monogenity import (
    MonogenityVerdict,
    PureFieldInput,
    Status,
    classify_engine,
    classify_theorem,
    count_monic_irreducibles,
    prime_factors_squarefree,
    witness_nonmonogenic,
)
