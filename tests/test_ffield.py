import itertools
import random

import pytest

from orefactor.errors import NonPrime, ReducibleModulus, ZeroModP
from orefactor.ffield import (
    ExtPolynomial,
    FpPolynomial,
    ResidueField,
    count_monic_irreducibles,
    factor_ext,
    factor_mod_p,
    is_squarefree_ext,
)
from orefactor.intpoly import IntPolynomial


def fp(p, *ascending):
    return FpPolynomial(p, ascending)


@pytest.fixture(scope="module")
def F4():
    return ResidueField.get(2, fp(2, 1, 1, 1))


@pytest.fixture(scope="module")
def F9():
    return ResidueField.get(3, fp(3, 1, 0, 1))


@pytest.fixture(scope="module")
def F8():
    return ResidueField.get(2, fp(2, 1, 1, 0, 1))  # x^3 + x + 1


class TestFpPolynomial:
    def test_reduction_and_trim(self):
        assert fp(3, 4, 6, 3).coeffs == (1,)
        assert fp(5, -1).coeffs == (4,)

    def test_divmod_and_gcd(self):
        rng = random.Random(2)
        for _ in range(80):
            p = rng.choice([2, 3, 5, 7])
            a = fp(p, *[rng.randrange(p) for _ in range(rng.randint(1, 8))], 1)
            b = fp(p, *[rng.randrange(p) for _ in range(rng.randint(1, 8))], 1)
            q, r = divmod(a, b)
            assert q * b + r == a
            assert r.degree < b.degree
            g = a.gcd(b)
            assert (a % g).is_zero() and (b % g).is_zero()

    def test_irreducibility_known_cases(self):
        assert fp(2, 1, 1, 1).is_irreducible()
        assert not fp(2, 1, 0, 1).is_irreducible()  # (x+1)^2
        assert fp(3, 1, 0, 1).is_irreducible()
        assert not fp(3, 2, 0, 1).is_irreducible()  # x^2 - 1
        assert fp(2, 1, 1, 0, 0, 1).is_irreducible()  # x^4+x+1
        assert not fp(5, 1).is_irreducible()

    def test_irreducibility_vs_root_search_low_degree(self):
        # degree <= 3: irreducible iff no root
        for p in (2, 3, 5):
            for coeffs in itertools.product(range(p), repeat=3):
                g = FpPolynomial(p, list(coeffs) + [1])
                has_root = any(
                    sum(c * pow(a, i, p) for i, c in enumerate(g.coeffs)) % p == 0
                    for a in range(p)
                )
                assert g.is_irreducible() == (not has_root)

    def test_lift_is_canonical(self):
        g = fp(5, 3, 4, 1)
        lifted = g.lift()
        assert isinstance(lifted, IntPolynomial)
        assert lifted.coeffs == (3, 4, 1)


class TestFactorModP:
    def test_pure_twelfth_mod_2(self):
        for m in (13, 33, 41, -7):
            fac = factor_mod_p(IntPolynomial.pure(12, m), 2)
            assert fac == [(fp(2, 1, 1), 4), (fp(2, 1, 1, 1), 4)]

    def test_pure_twelfth_mod_3_m_1_mod_3(self):
        for m in (13, 10, 7):
            assert m % 3 == 1
            fac = factor_mod_p(IntPolynomial.pure(12, m), 3)
            assert fac == [
                (fp(3, 1, 1), 3),
                (fp(3, 2, 1), 3),
                (fp(3, 1, 0, 1), 3),
            ]

    def test_pure_twelfth_mod_3_m_minus_1_mod_3(self):
        for m in (26, 2, -10):
            assert m % 3 == 2
            fac = factor_mod_p(IntPolynomial.pure(12, m), 3)
            assert fac == [
                (fp(3, 2, 1, 1), 3),
                (fp(3, 2, 2, 1), 3),
            ]

    def test_zero_mod_p_rejected(self):
        with pytest.raises(ZeroModP):
            factor_mod_p(IntPolynomial([6, 9, 3]), 3)

    def test_nonprime_rejected(self):
        with pytest.raises(NonPrime):
            factor_mod_p(IntPolynomial([1, 1]), 9)

    def test_product_and_irreducibility_certificates(self):
        rng = random.Random(17)
        for _ in range(200):
            p = rng.choice([2, 3, 5, 7, 11, 13])
            g = FpPolynomial(
                p,
                [rng.randrange(p) for _ in range(rng.randint(1, 12))]
                + [rng.randrange(1, p) if p > 2 else 1],
            )
            factors = factor_mod_p(IntPolynomial(g.coeffs), p)
            product = fp(p, g.leading())
            for h, mult in factors:
                assert h.is_monic()
                assert h.is_irreducible()
                for _ in range(mult):
                    product = product * h
            assert product == g
            for (h1, _), (h2, _) in itertools.combinations(factors, 2):
                assert h1.gcd(h2).degree == 0

    def test_deterministic_sorted_output(self):
        f = IntPolynomial.pure(12, 10)
        first = factor_mod_p(f, 3)
        again = factor_mod_p(f, 3)
        assert first == again
        degrees = [h.degree for h, _ in first]
        assert degrees == sorted(degrees)


class TestResidueField:
    def test_modulus_validated_eagerly(self):
        with pytest.raises(ReducibleModulus):
            ResidueField(2, fp(2, 1, 0, 1))
        with pytest.raises(NonPrime):
            ResidueField(4, fp(2, 1, 1, 1))

    def test_order_and_elements(self, F4, F9):
        assert F4.order == 4 and F9.order == 9
        assert len(list(F4.elements())) == 4
        assert len(set(F9.elements())) == 9

    def test_field_axioms_sample(self, F9):
        els = list(F9.elements())
        for a in els:
            for b in els:
                assert a + b == b + a
                assert a * b == b * a
                if not a.is_zero():
                    assert a * a.inverse() == F9.one()
        for a, b, c in itertools.islice(itertools.product(els, repeat=3), 200):
            assert (a + b) + c == a + (b + c)
            assert a * (b + c) == a * b + a * c

    def test_generator_printing(self, F4):
        j = F4.gen()
        assert str(j) == "j"
        assert str(j + F4.one()) == "j + 1"
        assert str(F4.zero()) == "0"
        # j satisfies the modulus: j^2 + j + 1 = 0
        assert (j * j + j + F4.one()).is_zero()

    def test_prime_field_shortcut(self):
        F5 = ResidueField.prime_field(5)
        assert F5.order == 5
        assert F5.from_int(7) == F5.from_int(2)

    def test_element_int_is_its_j_polynomial_in_base_p(self, F8, F9):
        for field in (F8, F9):
            p = field.p
            keys = []
            for digits in itertools.product(range(p), repeat=field.degree):
                elem = field.element(FpPolynomial(p, digits))
                expected = sum(c * p**i for i, c in enumerate(digits))
                assert elem.sort_key() == elem.value == expected
                assert sum(c * p**i for i, c in enumerate(elem.rep.coeffs)) == expected
                keys.append(elem.sort_key())
            assert sorted(keys) == list(range(field.order))

    def test_cache_returns_same_object(self):
        a = ResidueField.get(2, fp(2, 1, 1, 1))
        b = ResidueField.get(2, fp(2, 1, 1, 1))
        assert a is b


class TestFactorExt:
    def test_residual_five_mod_eight(self, F4):
        one, j = F4.one(), F4.gen()
        g = ExtPolynomial(F4, [one, j, one + j])  # (1+j)y^2 + jy + 1
        assert is_squarefree_ext(g)
        factors = factor_ext(g)
        assert factors == [
            (ExtPolynomial(F4, [one, one]), 1),
            (ExtPolynomial(F4, [j, one]), 1),
        ]
        # unit * product reassembles g
        product = ExtPolynomial(F4, [g.leading()])
        for h, mult in factors:
            for _ in range(mult):
                product = product * h
        assert product == g

    def test_residual_nine_mod_sixteen(self, F4):
        one, j = F4.one(), F4.gen()
        g = ExtPolynomial(F4, [one, j + one, j])  # jy^2 + (j+1)y + 1
        factors = factor_ext(g)
        assert factors == [
            (ExtPolynomial(F4, [one, one]), 1),
            (ExtPolynomial(F4, [j * j, one]), 1),
        ]

    def test_equal_polynomials_hash_equally(self, F4):
        # the same field built twice, and the same polynomial reached two ways
        other_F4 = ResidueField(2, fp(2, 1, 1, 1))
        assert other_F4 is not F4 and other_F4 == F4
        one, j = F4.one(), F4.gen()
        g = ExtPolynomial(F4, [one, j, one + j])
        built = ExtPolynomial(other_F4, [other_F4.one(), other_F4.gen(), other_F4.gen() ** 2])
        product = ExtPolynomial(F4, [g.leading()])
        for h, mult in factor_ext(g):
            for _ in range(mult):
                product = product * h
        for same in (built, product):
            assert same == g
            assert hash(same) == hash(g)
        assert len({g, built, product}) == 1

    def test_irreducible_quadratic_over_f2(self):
        F2 = ResidueField.prime_field(2)
        g = ExtPolynomial.from_ints(F2, [1, 1, 1])
        assert factor_ext(g) == [(g, 1)]

    def test_repeated_root_and_pure_power(self, F4):
        F3 = ResidueField.prime_field(3)
        sq = ExtPolynomial.from_ints(F3, [1, -2, 1])  # (y-1)^2
        assert not is_squarefree_ext(sq)
        assert factor_ext(sq) == [(ExtPolynomial.from_ints(F3, [-1, 1]), 2)]
        y2 = ExtPolynomial.from_ints(F4, [0, 0, 1])
        assert factor_ext(y2) == [(ExtPolynomial.y(F4), 2)]

    def test_char_p_power_with_frobenius(self):
        # (y^2 + y + 2)^3 over F_3 has zero derivative
        F3 = ResidueField.prime_field(3)
        base = ExtPolynomial.from_ints(F3, [2, 1, 1])
        g = base * base * base
        assert g.derivative().is_zero()
        assert factor_ext(g) == [(base, 3)]

    def test_squarefree_agrees_with_multiplicities(self, F4, F8, F9):
        rng = random.Random(23)
        F25 = ResidueField.get(5, fp(5, 2, 0, 1))  # x^2 + 2
        F27 = ResidueField.get(3, fp(3, 1, 2, 0, 1))  # x^3 + 2x + 1
        fields = (ResidueField.prime_field(2), ResidueField.prime_field(5), F4, F9, F8, F25, F27)
        for field in fields:
            for _ in range(40):
                deg = rng.randint(1, 7)
                coeffs = [
                    field.element(
                        FpPolynomial(field.p, [rng.randrange(field.p) for _ in range(field.degree)])
                    )
                    for _ in range(deg + 1)
                ]
                g = ExtPolynomial(field, coeffs)
                if g.degree < 1:
                    continue
                factors = factor_ext(g)
                product = ExtPolynomial(field, [g.leading()])
                for h, mult in factors:
                    assert h.is_monic()
                    for _ in range(mult):
                        product = product * h
                assert product == g
                assert is_squarefree_ext(g) == all(m == 1 for _, m in factors)


class TestCountMonicIrreducibles:
    def test_examples(self):
        assert count_monic_irreducibles(2, 2) == 1
        assert count_monic_irreducibles(3, 1) == 3
        assert count_monic_irreducibles(3, 2) == 3
        assert count_monic_irreducibles(2, 1) == 2

    def test_against_exhaustive_enumeration(self):
        for p in (2, 3, 5, 7):
            for d in (1, 2, 3, 4):
                expected = sum(
                    1
                    for tail in itertools.product(range(p), repeat=d)
                    if FpPolynomial(p, list(tail) + [1]).is_irreducible()
                )
                assert count_monic_irreducibles(p, d) == expected

    def test_rejects_bad_inputs(self):
        with pytest.raises(NonPrime):
            count_monic_irreducibles(6, 2)
        with pytest.raises(ValueError):
            count_monic_irreducibles(3, 0)
