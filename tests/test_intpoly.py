import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import sylvester_resultant
from orefactor.errors import NonMonicModulus, NonPrime
from orefactor.intpoly import (
    INFINITY,
    IntPolynomial,
    PhiExpansion,
    _is_strong_lucas_prp,
    _phi_digits,
    discriminant,
    is_prime,
    phi_expand,
    resultant,
    vp_int,
    vp_poly,
)

X = IntPolynomial([0, 1])


def poly(*ascending):
    return IntPolynomial(ascending)


class TestIntPolynomial:
    def test_trims_trailing_zeros(self):
        assert poly(1, 2, 0, 0).coeffs == (1, 2)
        assert poly(0, 0).degree == -1
        assert poly().is_zero()
        assert IntPolynomial(iter([1, 2, 0])) == IntPolynomial([1, 2])

    def test_degree_and_leading(self):
        f = IntPolynomial.pure(12, 33)
        assert f.degree == 12
        assert f.leading() == 1
        assert f[0] == -33 and f[5] == 0 and f[12] == 1

    def test_arithmetic_ring_axioms_sample(self):
        rng = random.Random(3)
        for _ in range(50):
            a = poly(*[rng.randint(-9, 9) for _ in range(rng.randint(0, 5))])
            b = poly(*[rng.randint(-9, 9) for _ in range(rng.randint(0, 5))])
            c = poly(*[rng.randint(-9, 9) for _ in range(rng.randint(0, 5))])
            assert a + b == b + a
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c
            assert (a - b) + b == a

    def test_divmod_monic(self):
        f = poly(-1, 0, 1)  # x^2 - 1
        q, r = divmod(f, poly(1, 1))
        assert q == poly(-1, 1) and r.is_zero()
        q, r = divmod(poly(1, 2, 3), poly(5, 1))
        assert q * poly(5, 1) + r == poly(1, 2, 3)
        assert r.degree < 1

    def test_divmod_by_a_power_of_x_is_a_split(self):
        rng = random.Random(3)
        for _ in range(100):
            f = poly(*[rng.randint(-9, 9) for _ in range(rng.randint(0, 8))])
            for d in (1, 2, 3):
                q, r = divmod(f, X**d)
                assert (q, r) == (IntPolynomial(f.coeffs[d:]), IntPolynomial(f.coeffs[:d]))
                assert q * X**d + r == f

    def test_divmod_requires_monic(self):
        with pytest.raises(NonMonicModulus):
            divmod(poly(1, 1), poly(1, 2))

    def test_pow_and_call(self):
        assert (X + IntPolynomial.constant(1)) ** 2 == poly(1, 2, 1)
        assert IntPolynomial.pure(12, 5)(2) == 2**12 - 5

    @pytest.mark.parametrize("n", [-1, 0])
    def test_pure_refuses_n_below_one(self, n):
        with pytest.raises(ValueError):
            IntPolynomial.pure(n, 5)

    def test_pure_low_degrees(self):
        assert IntPolynomial.pure(1, 5) == poly(-5, 1)
        assert IntPolynomial.pure(2, 5) == poly(-5, 0, 1)

    def test_shift(self):
        assert poly(1, 2).shift(3) == poly(0, 0, 0, 1, 2)
        assert poly().shift(3) == poly()

    @pytest.mark.parametrize(
        "base", [poly(), poly(1), poly(-3), X, poly(2, -1, 3), IntPolynomial.pure(5, 7)]
    )
    def test_pow_is_repeated_product(self, base):
        expected = poly(1)
        for n in range(7):
            assert base**n == expected, (str(base), n)
            expected = expected * base
        with pytest.raises(ValueError):
            base ** -1

    def test_str_forms(self):
        assert str(poly()) == "0"
        assert str(poly(-33, *[0] * 11, 1)) == "x^12 - 33"
        assert str(poly(1, 1, 1)) == "x^2 + x + 1"
        assert str(poly(89, -144)) == "-144*x + 89"
        assert str(poly(0, -1)) == "-x"


class TestValuations:
    def test_vp_int_examples(self):
        # m = 5 mod 8 makes 1 - m exactly divisible by 4
        for m in (13, 5, 29, -3):
            assert m % 8 == 5
            assert vp_int(1 - m, 2) == 2
        assert vp_int(0, 3) is INFINITY
        # m = -1 mod 3 but not -1 mod 9 gives 89 - m exactly divisible by 3
        for m in (2, 5, 14, 23):
            assert m % 3 == 2 and m % 9 != 8
            assert vp_int(89 - m, 3) == 1

    def test_vp_poly_examples(self):
        for m in (26, -10, 17):
            assert m % 9 == 8
            assert vp_poly(poly(89 - m, -144), 3) == 2
        assert vp_poly(poly(), 2) is INFINITY
        assert vp_poly(poly(4, 12), 2) == 2

    def test_nonprime_rejected(self):
        with pytest.raises(NonPrime):
            vp_int(8, 4)
        with pytest.raises(NonPrime):
            vp_poly(poly(1, 1), 6)

    @given(st.integers(min_value=0, max_value=12), st.integers(min_value=1, max_value=10**6))
    def test_vp_prime_power_times_unit(self, k, u):
        p = 3
        if u % p == 0:
            u += 1
        assert vp_int(p**k * u, p) == k

    @given(
        st.lists(st.integers(-50, 50), min_size=1, max_size=6),
        st.lists(st.integers(-50, 50), min_size=1, max_size=6),
        st.sampled_from([2, 3, 5, 7]),
    )
    def test_gauss_multiplicativity(self, a, b, p):
        P, Q = IntPolynomial(a), IntPolynomial(b)
        if P.is_zero() or Q.is_zero():
            return
        assert vp_poly(P * Q, p) == vp_poly(P, p) + vp_poly(Q, p)

    def test_infinity_ordering(self):
        assert INFINITY > 10**100
        assert not (INFINITY < 5)
        assert min(3, INFINITY) == 3
        assert INFINITY + 7 is INFINITY
        assert INFINITY <= INFINITY and not (INFINITY <= 10**100)


class TestPhiExpansion:
    def test_base_x_is_coefficient_list(self):
        """In base x^d the digits are f's coefficients d at a time, zeros included."""
        f = IntPolynomial.pure(12, 7)
        exp = phi_expand(f, X)
        assert tuple(t[0] for t in exp.terms) == f.coeffs
        rng = random.Random(5)
        for _ in range(100):
            low = [rng.choice([0, rng.randint(-99, 99)]) for _ in range(rng.randint(0, 12))]
            f = poly(*low, rng.randint(1, 99))
            exp = phi_expand(f, X)
            assert [t.coeffs for t in exp.terms] == [(c,) if c else () for c in f.coeffs]
            assert exp.recompose() == f
            for d in (2, 3):
                terms = phi_expand(f, X**d).terms
                assert terms == tuple(
                    IntPolynomial(f.coeffs[i : i + d]) for i in range(0, len(f.coeffs), d)
                )

    def test_binomial_shift_expansion(self):
        # x^12 - m in base x - 1: digit i is C(12, i) except the constant 1 - m
        m = 33
        exp = phi_expand(IntPolynomial.pure(12, m), poly(-1, 1))
        assert exp.terms[0] == IntPolynomial.constant(1 - m)
        binom = [12, 66, 220, 495, 792, 924, 792, 495, 220, 66, 12, 1]
        assert [t[0] for t in exp.terms[1:]] == binom

    # frozen digit tables the engine must reproduce, here for m = 13
    DIGITS = {
        (1, 1, 1): [[-12], [-4, 4], [0, -18], [18, 24], [-25, -5], [9, -6], [1]],
        (1, 0, 1): [[-12], [-6], [15], [-20], [15], [-6], [1]],
        (-1, 1, 1): [
            [76, -144],
            [324, -420],
            [468, -474],
            [338, -256],
            [125, -65],
            [21, -6],
            [1],
        ],
        (-1, -1, 1): [
            [76, 144],
            [324, 420],
            [468, 474],
            [338, 256],
            [125, 65],
            [21, 6],
            [1],
        ],
    }

    @pytest.mark.parametrize("phi_coeffs", sorted(DIGITS))
    def test_quadratic_base_digits(self, phi_coeffs):
        f = IntPolynomial.pure(12, 13)
        exp = phi_expand(f, IntPolynomial(phi_coeffs))
        assert [list(t.coeffs) for t in exp.terms] == self.DIGITS[phi_coeffs]
        assert exp.recompose() == f

    def test_digits_stay_below_modulus_degree(self):
        f = IntPolynomial.pure(12, 10)
        for phi in (poly(-1, 1), poly(1, 1, 1), poly(2, 0, 0, 1)):
            exp = phi_expand(f, phi)
            assert len(exp) == 12 // phi.degree + 1
            assert all(t.degree < phi.degree for t in exp.terms)
            assert exp.recompose() == f

    def test_rejects_non_monic_or_constant(self):
        with pytest.raises(NonMonicModulus):
            phi_expand(poly(1, 1), poly(1, 2))
        with pytest.raises(NonMonicModulus):
            phi_expand(poly(1, 1), poly(1))

    def test_digits_match_the_divmod_chain(self):
        """_phi_digits, which runs the quotient chain in place on one list,
        gives the digits of a chain of separate schoolbook divisions."""

        def divmod_monic(f, phi):
            rem, d = list(f.coeffs), phi.degree
            quot = [0] * max(len(rem) - d, 0)
            for k in range(len(rem) - d - 1, -1, -1):
                quot[k] = rem[k + d]
                for j in range(d + 1):
                    rem[k + j] -= quot[k] * phi.coeffs[j]
            return IntPolynomial(quot), IntPolynomial(rem[:d])

        rng = random.Random(2006)
        for _ in range(600):
            f = IntPolynomial([rng.randint(-60, 60) for _ in range(rng.randint(0, 16))])
            phi = IntPolynomial([rng.randint(-9, 9) for _ in range(rng.randint(1, 4))] + [1])
            limit = rng.choice([None, 1, 2, 3, 4, 5, 6])
            terms, rest = [], f
            while not rest.is_zero() and len(terms) != limit:
                rest, digit = divmod_monic(rest, phi)
                terms.append(digit)
            expected = PhiExpansion(phi, tuple(terms) or (IntPolynomial([]),))
            assert _phi_digits(f, phi, limit) == expected, (f, phi, limit)

    @given(
        st.lists(st.integers(-100, 100), min_size=0, max_size=13),
        st.lists(st.integers(-20, 20), min_size=1, max_size=3),
    )
    @settings(max_examples=200)
    def test_recomposition_roundtrip(self, fc, tail):
        f = IntPolynomial(fc)
        phi = IntPolynomial(tail + [1])
        assert phi_expand(f, phi).recompose() == f


class TestResultantAndDiscriminant:
    def test_resultant_matches_sylvester_oracle(self):
        rng = random.Random(11)
        for _ in range(120):
            f = IntPolynomial(
                [rng.randint(-9, 9) for _ in range(rng.randint(1, 6))]
                + [rng.randint(1, 6)]
            )
            g = IntPolynomial(
                [rng.randint(-9, 9) for _ in range(rng.randint(1, 6))]
                + [rng.randint(1, 6)]
            )
            assert resultant(f, g) == sylvester_resultant(f, g)

    @pytest.mark.parametrize(
        "f, g, expected",
        [
            (poly(1, 2, 3), poly(), 0),
            (poly(), poly(5, 1), 0),
            (poly(1, 2, 3), poly(-2), (-2) ** 2),
            (poly(-2), poly(1, 2, 3), (-2) ** 2),
            (poly(7), poly(3), 1),
            (poly(-1, 0, 1) * poly(3, 1), poly(-1, 1) * poly(2, 0, 1), 0),
        ],
        ids=["zero-g", "zero-f", "constant-g", "constant-f", "two-constants", "common-factor"],
    )
    def test_resultant_degenerate_operands(self, f, g, expected):
        assert resultant(f, g) == expected == sylvester_resultant(f, g)

    def test_quadratic_discriminant(self):
        assert discriminant(poly(-1, 0, 1)) == 4
        assert discriminant(poly(1, 0, 1)) == -4

    def test_depressed_cubic_formula(self):
        rng = random.Random(5)
        for _ in range(40):
            a, b = rng.randint(-15, 15), rng.randint(-15, 15)
            f = poly(b, a, 0, 1)
            assert discriminant(f) == -4 * a**3 - 27 * b**2

    def test_pure_twelfth_degree(self):
        for m in (2, 13, 33, -7, 1000003):
            d = discriminant(IntPolynomial.pure(12, m))
            assert abs(d) == 12**12 * abs(m) ** 11
            assert d == -(12**12) * m**11

    def test_requires_monic(self):
        with pytest.raises(NonMonicModulus):
            discriminant(poly(1, 2))
        with pytest.raises(ValueError, match="degree >= 1"):
            discriminant(poly(1))


class TestPrimality:
    def test_small(self):
        primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41}
        for n in range(-2, 42):
            assert is_prime(n) == (n in primes)

    def test_carmichael_and_large(self):
        assert not is_prime(561)
        assert not is_prime(341550071728321)
        assert is_prime(2**61 - 1)
        assert not is_prime(2**61 + 1)
        assert is_prime(1000003)

    def test_strong_lucas_pseudoprimes(self):
        # the odd composites below 20,000 that pass the strong Lucas test
        # with Selfridge's parameters (OEIS A217255)
        odd = range(39, 20000, 2)
        passed = {n for n in odd if _is_strong_lucas_prp(n)}
        primes = {n for n in odd if is_prime(n)}
        assert primes <= passed
        assert sorted(passed - primes) == [5459, 5777, 10877, 16109, 18971]

    def test_beyond_the_miller_rabin_bound(self):
        # the least strong pseudoprime to every base <= 37, and to every base <= 41
        assert not is_prime(318665857834031151167461)
        assert 399165290221 * 798330580441 == 318665857834031151167461
        assert not is_prime(3317044064679887385961981)
        assert 1287836182261 * 2575672364521 == 3317044064679887385961981
        assert not is_prime(2**127 + 1)
        assert is_prime(2**89 - 1)
        assert is_prime(2**127 - 1)
        assert not is_prime((2**89 - 1) * (2**61 - 1))
        assert not is_prime((2**61 - 1) ** 2)
