import itertools
import json
import operator
import random
from collections import Counter

import pytest

from conftest import run_snippet, sylvester_resultant
from orefactor import _fparith, ffield
from orefactor._fparith import convolve, divmod_p, gcd_p, mulmod_p
from orefactor.errors import NonMonicModulus, NonPrime, ReducibleModulus, ZeroModP
from orefactor.ffield import (
    ExtPolynomial,
    FpPolynomial,
    ResidueField,
    ResidueFieldElem,
    _distinct_degree_split,
    _frobenius,
    _split_equal_degree,
    factor_ext,
    factor_mod_p,
    is_squarefree_ext,
)
from orefactor.intpoly import IntPolynomial
from orefactor.monogenity import count_monic_irreducibles


def fp(p, *ascending):
    return FpPolynomial(p, ascending)


def elements(field):
    """All q elements of the field, in sort_key order."""
    return [ResidueFieldElem(field, v) for v in range(field.order)]


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

    def test_mod_2_product_of_two_quintics_returns(self):
        # x^12 + x^7 + x^5 + x^4 + x^3 + x^2 + x + 1: no trial of degree <= 3
        # separates its two quintic factors
        proc = run_snippet(
            "from orefactor import IntPolynomial, factor_mod_p\n"
            "f = IntPolynomial([1, 1, 1, 1, 1, 1, 0, 1, 0, 0, 0, 0, 1])\n"
            "print([(h.coeffs, m) for h, m in factor_mod_p(f, 2)])"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == str(
            [((1, 1), 2), ((1, 0, 1, 0, 0, 1), 1), ((1, 1, 1, 1, 0, 1), 1)]
        )

    @pytest.mark.parametrize("p", [10**9 + 7, 2**61 - 1])
    def test_split_quadratic_mod_large_p(self, p):
        # time and memory polynomial in log p: x^2 - 3x + 2 = (x - 1)(x - 2)
        proc = run_snippet(
            "import json, time, tracemalloc\n"
            "from orefactor import FpPolynomial, IntPolynomial, factor_ext, factor_mod_p\n"
            f"p = {p}\n"
            "start = time.perf_counter()\n"
            "factors = factor_mod_p(IntPolynomial([2, -3, 1]), p)\n"
            "seconds = time.perf_counter() - start\n"
            "tracemalloc.start()\n"
            "factor_ext(FpPolynomial(p, [2, -3, 1]))\n"
            "peak = tracemalloc.get_traced_memory()[1]\n"
            "print(json.dumps([[(h.coeffs, m) for h, m in factors], seconds, peak]))"
        )
        assert proc.returncode == 0, proc.stderr
        factors, seconds, peak = json.loads(proc.stdout)
        assert factors == [[[p - 2, 1], 1], [[p - 1, 1], 1]]
        assert seconds < 1.0
        assert peak < 1_000_000

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
        with pytest.raises(ValueError, match="characteristic"):
            ResidueField(3, fp(5, 1, 0, 1))
        with pytest.raises(NonMonicModulus):
            ResidueField(3, fp(3, 1, 0, 2))  # 2x^2 + 1

    def test_order_and_elements(self, F4, F9):
        assert F4.order == 4 and F9.order == 9
        assert len(elements(F4)) == 4
        assert len(set(elements(F9))) == 9

    def test_field_axioms_sample(self, F9):
        els = elements(F9)
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

    @pytest.mark.parametrize("p, modulus", [(5, (0, 1)), (3, (1, 0, 1))], ids=["F5", "F9"])
    def test_element_operators(self, p, modulus):
        """Binary and unary -, /, negative powers and repr of elements,
        against digit-wise int arithmetic mod p and against mul/inverse."""
        field = ResidueField.get(p, FpPolynomial(p, modulus))
        k = field.degree

        def digits(v):
            return [v // p**i % p for i in range(k)]

        def value(ds):
            return sum(c % p * p**i for i, c in enumerate(ds))

        for a in elements(field):
            da = digits(a.value)
            assert (-a).value == value([-c for c in da])
            if not a.is_zero():
                assert a**-1 == a.inverse()
                assert (a**-3).value == field.pow(field.inverse(a.value), 3)
                assert a**-2 * a**2 == field.one()
            for b in elements(field):
                db = digits(b.value)
                assert (a - b).value == value([x - y for x, y in zip(da, db)])
                if not b.is_zero():
                    assert (a / b).value == field.mul(a.value, field.inverse(b.value))
                    assert (a / b) * b == a
        if k == 1:
            for a, b in itertools.product(range(p), range(1, p)):
                quot = ResidueFieldElem(field, a) / ResidueFieldElem(field, b)
                assert quot.value == a * pow(b, -1, p) % p
            assert repr(field.from_int(3)) == "<3 in ResidueField(F_5[x]/(x))>"
        else:
            assert repr(field.gen() + field.one()) == "<j + 1 in ResidueField(F_3[x]/(x^2 + 1))>"

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

    def test_inverse_of_every_element(self, F8, F9):
        F25 = ResidueField.get(5, fp(5, 2, 0, 1))  # x^2 + 2
        for field in (F8, F9, F25):
            for a in range(1, field.order):
                inv = field.inverse(a)
                assert field.mul(a, inv) == 1
                assert inv == field.pow(a, field.order - 2)  # Fermat

    def test_inverse_in_large_extension(self):
        field = ResidueField.get(101, fp(101, -2, 0, 0, 0, 0, 1))  # x^5 - 2
        rng = random.Random(5)
        for _ in range(200):
            a = rng.randrange(1, field.order)
            assert field.mul(a, field.inverse(a)) == 1
        with pytest.raises(ZeroDivisionError):
            field.inverse(0)

    def test_cache_returns_same_object(self):
        a = ResidueField.get(2, fp(2, 1, 1, 1))
        b = ResidueField.get(2, fp(2, 1, 1, 1))
        assert a is b
        assert ResidueField.get(7, FpPolynomial.x(7)) is ResidueField.prime_field(7)

    def test_characteristic_checked_on_every_get(self):
        ResidueField.get(3, fp(3, 1, 0, 1))
        with pytest.raises(ValueError, match="characteristic"):
            ResidueField.get(3, fp(5, 1, 0, 1))

    def test_elements_of_other_fields_refused(self, F4, F9):
        a, b = F4.gen(), F9.gen()
        for op in (operator.add, operator.sub, operator.mul, operator.truediv):
            with pytest.raises(ValueError, match="not an element"):
                op(a, b)
        with pytest.raises(ValueError, match="not an element"):
            ExtPolynomial(F9, [F4.gen(), F9.one()])


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


def _monic_irreducibles(field, d, rng, tries=60):
    """Distinct monic irreducibles of degree d over field, from random candidates."""
    found = set()
    for _ in range(tries):
        h = ExtPolynomial._make(field, [rng.randrange(field.order) for _ in range(d)] + [1])
        if h.is_irreducible():
            found.add(h)
    return sorted(found, key=lambda h: h.sort_key())


def check_equal_degree_products():
    """Products of 1-4 distinct monic irreducibles of one degree d factor back exactly.

    Characteristic 2 (F_2, F_4, F_8) takes the trace branch of the
    equal-degree split, odd characteristic (F_3, F_9, F_25) the power
    branch; F_4, F_8, F_9 and F_25 are extension fields.
    """
    rng = random.Random(31)
    fields = [
        ResidueField.prime_field(2),
        ResidueField.prime_field(3),
        ResidueField.get(2, fp(2, 1, 1, 1)),  # F_4
        ResidueField.get(2, fp(2, 1, 1, 0, 1)),  # F_8
        ResidueField.get(3, fp(3, 1, 0, 1)),  # F_9
        ResidueField.get(5, fp(5, 2, 0, 1)),  # F_25
    ]
    for field in fields:
        for d in (1, 2, 3):
            irreducibles = _monic_irreducibles(field, d, rng)
            for _ in range(4):
                chosen = rng.sample(irreducibles, rng.randint(1, min(4, len(irreducibles))))
                g = ExtPolynomial.from_ints(field, [1])
                for h in chosen:
                    g = g * h
                expected = [(h, 1) for h in sorted(chosen, key=lambda h: h.sort_key())]
                assert factor_ext(g) == expected, (field, d, str(g))


class TestEqualDegreeSplit:
    def test_products_of_irreducibles_factor_back(self):
        proc = run_snippet("import test_ffield; test_ffield.check_equal_degree_products()")
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize(
        "p, modulus", [(13, (0, 1)), (65537, (0, 1)), (3, (1, 0, 1)), (5, (2, 0, 1))]
    )
    def test_power_through_the_frobenius_of_a_multiple(self, monkeypatch, p, modulus):
        """The first trial's (a * a^q * ... * a^(q^(d-1)))^((q-1)/2) is
        a^((q^d-1)/2) mod g, with the a^(q^i) read from the _frobenius of a
        multiple of g (g times an irreducible of another degree), as
        factor_ext passes the map of the whole squarefree part.  A wrong
        power still splits g, only more slowly, so the power is checked."""
        field = ResidueField.get(p, FpPolynomial(p, modulus))
        q, rng = field.order, random.Random(p)
        power, powers = ffield.power, []

        def recorded_power(mul, base, e):
            out = power(mul, base, e)
            powers.append((e, out))
            return out

        monkeypatch.setattr(ffield, "power", recorded_power)
        for d in (1, 2, 3):
            chosen = _monic_irreducibles(field, d, rng)[:3]
            other = _monic_irreducibles(field, d + 1, rng)[0]
            g = ExtPolynomial.from_ints(field, [1])
            for h in chosen:
                g = g * h
            frobenius = _frobenius(g * other)
            powers.clear()
            split = _split_equal_degree(g, d, frobenius, random.Random(7))
            assert sorted(split, key=lambda h: h.sort_key()) == chosen, (p, modulus, d)
            trial = random.Random(7)
            a = g._new([trial.randrange(q) for _ in range(g.degree)])
            e, first = powers[0]
            assert e == q // 2, (p, modulus, d)
            assert g._new(first) == a.pow_mod((q**d - 1) // 2, g), (p, modulus, d)


def _necklace_count(q, d):
    """(1/d) * sum over e | d of mu(e) * q^(d/e), with mu by trial division."""

    def mobius(n):
        sign, k = 1, 2
        while n > 1:
            if n % k == 0:
                n //= k
                if n % k == 0:
                    return 0
                sign = -sign
            k += 1
        return sign

    return sum(mobius(e) * q ** (d // e) for e in range(1, d + 1) if d % e == 0) // d


class TestRabinExhaustive:
    def test_extension_fields(self, F4, F9):
        """Over F_q, Rabin's test accepts as many monic polynomials of
        degree d as the necklace count of monic irreducibles."""
        for field in (F4, F9):
            els = elements(field)
            for d in (1, 2, 3):
                accepted = sum(
                    ExtPolynomial(field, list(tail) + [field.one()]).is_irreducible()
                    for tail in itertools.product(els, repeat=d)
                )
                assert accepted == _necklace_count(field.order, d), (field, d)


def _random_poly(rng, field, degree, monic):
    """ExtPolynomial over field with random coefficients below y^degree."""
    coeffs = [rng.randrange(field.order) for _ in range(degree)]
    if monic:
        coeffs.append(1)
    return ExtPolynomial(field, [ResidueFieldElem(field, c) for c in coeffs])


class TestFrobeniusKernel:
    """_frobenius(g) is w -> w^q mod g, and x.pow_mod(e, g) is x^(e-1) * x mod g."""

    FIELDS = {
        "F2": (2, (0, 1)),
        "F3": (3, (0, 1)),
        "F13": (13, (0, 1)),
        "F65537": (65537, (0, 1)),
        "F4": (2, (1, 1, 1)),
        "F8": (2, (1, 1, 0, 1)),
        "F9": (3, (1, 0, 1)),
    }

    @pytest.mark.parametrize("name", sorted(FIELDS))
    def test_matches_pow_mod(self, name):
        p, modulus = self.FIELDS[name]
        field = ResidueField.get(p, FpPolynomial(p, modulus))
        q = field.order
        rng = random.Random(q)
        for degree in range(1, 13):
            g = _random_poly(rng, field, degree, monic=True)
            x = g._new((0, 1))
            frobenius = _frobenius(g)
            for _ in range(2):
                w = power = _random_poly(rng, field, rng.randrange(degree + 1), monic=False)
                for i in range(1, 4):
                    power = frobenius(power)
                    assert power == w.pow_mod(q**i, g), (name, str(g), str(w), i)
            assert x.pow_mod(0, g) == g._new((1,))
            for e in (1, 2, q, q**2 - 1, 2**61 - 1):
                assert x.pow_mod(e, g) == x.pow_mod(e - 1, g) * x % g, (name, str(g), e)


class TestOneExponentiationPerModulus:
    """Rabin's test and distinct-degree splitting exponentiate by q once
    per modulus; every further Frobenius power is a matrix product."""

    @pytest.fixture
    def exponents(self, monkeypatch):
        seen = Counter()
        power = ffield.power

        def counted_power(mul, base, e):
            seen[e] += 1
            return power(mul, base, e)

        monkeypatch.setattr(ffield, "power", counted_power)
        return seen

    def test_rabin_degree_12_over_f13(self, exponents):
        g = fp(13, -2, *[0] * 11, 1)  # x^12 - 2: 2 has order 12 mod 13
        assert g.is_irreducible()
        assert exponents[13] == 1

    def test_distinct_degree_split_1_1_10(self, exponents):
        # over F_11: (x - 1)(x - 2)(x^10 - 2), 2 a primitive root mod 11
        g = fp(11, -1, 1) * fp(11, -2, 1) * fp(11, -2, *[0] * 9, 1)
        parts = _distinct_degree_split(g, _frobenius(g))
        assert [(h.coeffs, d) for h, d in parts] == [
            ((fp(11, -1, 1) * fp(11, -2, 1)).coeffs, 1),
            (fp(11, -2, *[0] * 9, 1).coeffs, 10),
        ]
        assert exponents[11] == 1


class TestOneProductPerModulus:
    """_mulmod(g) is built once per modulus: _frobenius builds one for its
    power and its rows, and equal-degree splitting one per polynomial it
    splits, shared by every trial's products and power."""

    FIELDS = [(13, (0, 1)), (65537, (0, 1)), (3, (1, 0, 1)), (2, (1, 1, 1))]

    @pytest.fixture
    def builds(self, monkeypatch):
        seen = Counter()
        mulmod = ffield._mulmod

        def counted_mulmod(g):
            seen[g] += 1
            return mulmod(g)

        monkeypatch.setattr(ffield, "_mulmod", counted_mulmod)
        return seen

    @pytest.mark.parametrize("p, modulus", FIELDS)
    def test_frobenius_builds_one(self, builds, p, modulus):
        field = ResidueField.get(p, FpPolynomial(p, modulus))
        rng = random.Random(p)
        for degree in (2, 5, 6, 9):
            g = _random_poly(rng, field, degree, monic=True)
            builds.clear()
            _frobenius(g)
            assert dict(builds) == {g: 1}, (p, modulus, degree)

    @pytest.mark.parametrize("p, modulus", FIELDS)
    def test_equal_degree_split_builds_one_per_split(self, builds, p, modulus):
        field = ResidueField.get(p, FpPolynomial(p, modulus))
        rng = random.Random(p)
        for d in (1, 2, 3):
            chosen = _monic_irreducibles(field, d, rng)[:4]
            g = ExtPolynomial.from_ints(field, [1])
            for h in chosen:
                g = g * h
            frobenius = _frobenius(g)
            builds.clear()
            split = _split_equal_degree(g, d, frobenius, random.Random(7))
            assert sorted(split, key=lambda h: h.sort_key()) == chosen, (p, modulus, d)
            # a split tree with len(chosen) leaves has len(chosen) - 1 inner nodes
            assert sum(builds.values()) == len(builds) == len(chosen) - 1, (p, modulus, d)
            assert all(h.degree > d for h in builds), (p, modulus, d)


def _z_mod(P, p):
    """An IntPolynomial's coefficient tuple reduced into [0, p), trimmed."""
    return IntPolynomial([c % p for c in P.coeffs]).coeffs


def _z_powmod(w, e, g, p):
    """w^e mod g over F_p by square-and-multiply in Z[x]: g is lifted to a
    monic IntPolynomial, and every product is reduced mod g, then mod p."""
    inv = pow(g[-1], -1, p)
    G = IntPolynomial([c * inv % p for c in g[:-1]] + [1])
    result, base = IntPolynomial([1]), IntPolynomial(_z_mod(IntPolynomial(w) % G, p))
    while e:
        if e & 1:
            result = IntPolynomial(_z_mod(result * base % G, p))
        base = IntPolynomial(_z_mod(base * base % G, p))
        e >>= 1
    return result.coeffs


class TestPrimeFieldKernels:
    """The F_p polynomial core (+, -, *, divmod, pow_mod and the rows of
    _frobenius) against IntPolynomial arithmetic reduced mod p,
    which shares no code with it."""

    PRIMES = (2, 3, 13, 10007, 2**61 - 1)

    @staticmethod
    def operands(rng, p):
        """Coefficient lists: zero, constants, and for each degree up to 9
        random ones with a random nonzero leading coefficient and monic ones."""
        out = [[], [1], [rng.randrange(1, p)]]
        for degree in range(1, 10):
            for _ in range(2):
                tail = [rng.randrange(p) for _ in range(degree)]
                out.append(tail + [rng.randrange(1, p)])
                out.append(tail + [1])
        return out

    @staticmethod
    def make(p, coeffs, ext):
        field = ResidueField.prime_field(p)
        return ExtPolynomial.from_ints(field, coeffs) if ext else FpPolynomial(p, coeffs)

    @pytest.mark.parametrize("ext", [False, True], ids=["Fp", "Ext"])
    @pytest.mark.parametrize("p", PRIMES)
    def test_ring_operations(self, p, ext):
        rng = random.Random(p + ext)
        ops = self.operands(rng, p)
        for a, b in itertools.product(ops, rng.sample(ops, 12)):
            A, B = IntPolynomial(a), IntPolynomial(b)
            x, y = self.make(p, a, ext), self.make(p, b, ext)
            assert (x + y).coeffs == _z_mod(A + B, p)
            assert (x - y).coeffs == _z_mod(A - B, p)
            assert (-x).coeffs == _z_mod(-A, p)
            assert (x * y).coeffs == _z_mod(A * B, p), (p, a, b)
            if not b:
                with pytest.raises(ZeroDivisionError):
                    divmod(x, y)
                continue
            # q, r are the quotient and remainder iff a = q*b + r, deg r < deg b
            quot, rem = divmod(x, y)
            assert type(quot) is type(rem) is type(x)
            assert rem.degree < y.degree
            check = IntPolynomial(quot.coeffs) * B + IntPolynomial(rem.coeffs) - A
            assert _z_mod(check, p) == (), (p, a, b)

    def test_divisor_of_equal_degree(self):
        for p in self.PRIMES:
            rng = random.Random(p)
            for _ in range(20):
                n = rng.randint(1, 8)
                a = [rng.randrange(p) for _ in range(n)] + [rng.randrange(1, p)]
                b = [rng.randrange(p) for _ in range(n)] + [rng.randrange(1, p)]
                quot, rem = divmod(FpPolynomial(p, a), FpPolynomial(p, b))
                assert quot.coeffs == (a[-1] * pow(b[-1], -1, p) % p,)
                check = IntPolynomial(quot.coeffs) * IntPolynomial(b) + IntPolynomial(rem.coeffs)
                assert _z_mod(check - IntPolynomial(a), p) == ()

    @staticmethod
    def schoolbook_mulmod(a, b, g, p):
        """a*b mod g by convolve and divmod_p, trimmed: the packed kernel's oracle."""
        rem = divmod_p(convolve(a, b), g, p)[1] if a and b else []
        return _z_mod(IntPolynomial(rem), p)

    @staticmethod
    def mulmod_operands(rng, p, n):
        """Zero, constants, short operands and full ones of degree n - 1."""
        out = [[], [1], [rng.randrange(1, p)]]
        for length in sorted({1, n // 3, n - 1, n}):
            out.append([rng.randrange(p) for _ in range(length - 1)] + [rng.randrange(1, p)])
        return [a for a in out if len(a) <= n]

    @pytest.mark.parametrize("p", PRIMES)
    def test_packed_mulmod_matches_schoolbook(self, p):
        """mulmod_p against the schoolbook pair at every modulus degree from
        1 to 110, on both sides of the schoolbook cut-off, with monic and
        non-monic moduli, squaring (a is b), zero and constant operands."""
        assert 1 < _fparith._PACKED_DEGREE < 110
        rng = random.Random(3 * p)
        for n in range(1, 111):
            lead = 1 if n % 2 else rng.randrange(1, p)
            g = [rng.randrange(p) for _ in range(n)] + [lead]
            mulmod = mulmod_p(tuple(g), p)
            ops = self.mulmod_operands(rng, p, n)
            for a, b in [(a, a) for a in ops] + list(zip(ops, ops[::-1])):
                assert mulmod(a, b) == self.schoolbook_mulmod(a, b, g, p), (p, n, a, b)
            a = ops[-1]
            assert mulmod(a, a) == self.schoolbook_mulmod(a, a, g, p), (p, n, a)

    @pytest.mark.parametrize("p", PRIMES + (2**29 - 3, 2**31 - 1))
    def test_extreme_operands_fill_the_slots(self, p):
        """Coefficients all p - 1 in the operands and in g, so that the middle
        product slot reaches n(p-1)^2, the most two reduced operands give.
        2^29 - 3 crosses from 64-bit word slots to byte slots at degree 32."""
        for n in range(1, 111):
            g, a = [p - 1] * (n + 1), [p - 1] * n
            mulmod = mulmod_p(tuple(g), p)
            assert mulmod(a, a) == self.schoolbook_mulmod(a, a, g, p), (p, n)
            assert mulmod(a, a[:-1]) == self.schoolbook_mulmod(a, a[:-1], g, p), (p, n)

    @pytest.mark.parametrize("p", PRIMES)
    def test_rows_reduction_at_every_small_degree(self, monkeypatch, p):
        """The packed rows reduction alone, from degree 1 up, so that it does
        not depend on the cut-off to avoid the smallest moduli."""
        monkeypatch.setattr(_fparith, "_PACKED_DEGREE", 1)
        rng = random.Random(5 * p)
        for n in range(1, 25):
            g = [rng.randrange(p) for _ in range(n)] + [rng.randrange(1, p)]
            mulmod = mulmod_p(tuple(g), p)
            ops = self.mulmod_operands(rng, p, n)
            for a, b in itertools.product(ops, repeat=2):
                assert mulmod(a, b) == self.schoolbook_mulmod(a, b, g, p), (p, n, a, b)

    @pytest.mark.parametrize("p", PRIMES)
    def test_gcd_on_int_lists(self, p):
        """gcd_p(a, b) = h is monic and divides a and b, and a/h and b/h have
        a resultant prime to p (Sylvester determinant over Z), so h is the
        greatest common divisor.  Common factors are planted."""
        rng = random.Random(7 * p)

        def poly(degree):
            return [rng.randrange(p) for _ in range(degree)] + [rng.randrange(1, p)]

        def product(*factors):
            out = [1]
            for f in factors:
                out = [c % p for c in convolve(out, f)]
            return out

        for _ in range(25):
            common = poly(rng.randint(0, 4))
            a = product(common, poly(rng.randint(0, 5)))
            b = product(common, poly(rng.randint(0, 5)))
            h = gcd_p(list(a), list(b), p)
            assert h[-1] == 1 and len(h) >= len(common), (p, a, b, h)
            cofactors = []
            for f in (a, b):
                quot, rem = divmod_p(list(f), h, p)
                assert not any(rem), (p, a, b, h)
                cofactors.append(IntPolynomial(quot))
            assert sylvester_resultant(*cofactors) % p != 0, (p, a, b, h)
            assert FpPolynomial(p, a).gcd(FpPolynomial(p, b)).coeffs == tuple(h)
        monic = tuple(gcd_p(list(a), [], p))
        assert gcd_p([], list(a), p) == list(monic) and monic[-1] == 1
        assert gcd_p([], [], p) == []

    @pytest.mark.parametrize("ext", [False, True], ids=["Fp", "Ext"])
    @pytest.mark.parametrize("p", PRIMES)
    def test_exponentiation_and_frobenius_rows(self, p, ext):
        rng = random.Random(2 * p + ext)
        exponents = (0, 1, 2, 3, p, p + 1, p * p - 1, rng.randrange(p**3))
        for n in range(1, 9):
            for monic in (True, False):
                g = [rng.randrange(p) for _ in range(n)] + [1 if monic else rng.randrange(1, p)]
                G = self.make(p, g, ext)
                for w in ([], [rng.randrange(1, p)], [rng.randrange(p) for _ in range(n + 3)]):
                    W = self.make(p, w, ext)
                    for e in exponents:
                        assert W.pow_mod(e, G).coeffs == _z_powmod(w, e, g, p), (p, g, w, e)
                if not monic:
                    continue
                for e in exponents:
                    X = self.make(p, [0, 1], ext)
                    assert X.pow_mod(e, G).coeffs == _z_powmod([0, 1], e, g, p), (p, g, e)
                if n >= 2:
                    frobenius = _frobenius(G)
                    for i in range(n):  # row i of the matrix is x^(p*i) mod g
                        row = frobenius(self.make(p, [0] * i + [1], ext)).coeffs
                        assert row == _z_powmod([0, 1], p * i, g, p), (p, g, i)


def test_large_q_regression():
    """Degree-12 factoring and a degree-10 Rabin test mod p near 10^9.

    x^10 - c is irreducible over F_p when 10 | p - 1 and c is neither a
    square nor a fifth power mod p (Lidl-Niederreiter, Thm 3.75)."""
    proc = run_snippet(
        """
import json, time
from orefactor import FpPolynomial, IntPolynomial, factor_mod_p, is_prime
p = next(p for p in range(10**9 + 1, 10**9 + 10**6, 10) if is_prime(p))
c = next(c for c in range(2, p) if pow(c, (p - 1) // 2, p) != 1 != pow(c, (p - 1) // 5, p))
a, b = 3, 5
tail = IntPolynomial([-c] + [0] * 9 + [1])
f = IntPolynomial([-a, 1]) * IntPolynomial([-b, 1]) * tail
start = time.perf_counter()
factors = factor_mod_p(f, p)
factor_s = time.perf_counter() - start
start = time.perf_counter()
irreducible = FpPolynomial(p, tail.coeffs).is_irreducible()
rabin_s = time.perf_counter() - start
expected = [((p - b, 1), 1), ((p - a, 1), 1), (FpPolynomial(p, tail.coeffs).coeffs, 1)]
print(json.dumps([[(h.coeffs, m) for h, m in factors] == expected, irreducible,
                  factor_s, rabin_s, p, c]))
"""
    )
    assert proc.returncode == 0, proc.stderr
    factors_ok, irreducible, factor_s, rabin_s, p, c = json.loads(proc.stdout)
    assert factors_ok, (p, c)
    assert irreducible, (p, c)
    assert factor_s < 1.0
    assert rabin_s < 1.0


class TestCountMonicIrreducibles:
    def test_examples(self):
        assert count_monic_irreducibles(2, 2) == 1
        assert count_monic_irreducibles(3, 1) == 3
        assert count_monic_irreducibles(3, 2) == 3
        assert count_monic_irreducibles(2, 1) == 2

    def test_against_exhaustive_enumeration(self):
        for p, max_degree in ((2, 8), (3, 5), (5, 4), (7, 4)):
            for d in range(1, max_degree + 1):
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
