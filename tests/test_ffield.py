import functools
import itertools
import json
import operator
import random
from collections import Counter

import pytest

from conftest import is_squarefree_int, run_snippet, sylvester_resultant
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
from orefactor.intpoly import IntPolynomial, is_prime
from orefactor.monogenity import count_monic_irreducibles
from orefactor.ore import ore_factor


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

    def test_each_call_returns_its_own_list(self):
        f = IntPolynomial.pure(12, 13)
        expected = factor_mod_p(f, 3)
        factor_mod_p(f, 3).clear()
        assert factor_mod_p(f, 3) == expected
        assert ore_factor(f, 3).ef_multiset() == [(3, 1), (3, 1), (3, 2)]

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

    def test_nonprime_refused_before_other_checks(self):
        """F_p's build tests p, and the constructor tests it again only for
        a modulus over another characteristic, so a composite p is still
        refused as NonPrime, ahead of the mismatch of characteristics."""
        with pytest.raises(NonPrime):
            ResidueField(15, FpPolynomial(5, (0, 1)))
        with pytest.raises(NonPrime):
            FpPolynomial(4, (1, 1))
        with pytest.raises(NonPrime):
            ResidueField.get(9, FpPolynomial(9, (1, 0, 1)))

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

    def test_element_int_outside_the_field_refused(self, F9):
        """An element int outside [0, q) is refused, not kept beside the
        reduced int of the element it prints as."""
        for value in (100, 9, -1, -9):
            with pytest.raises(ValueError, match=r"outside \[0, 9\)"):
                ResidueFieldElem(F9, value)
        with pytest.raises(ValueError, match="outside"):
            ExtPolynomial(F9, [ResidueFieldElem(F9, 100), F9.one()])
        with pytest.raises(ValueError, match="outside"):
            ResidueFieldElem(ResidueField.prime_field(5), 5)
        assert ResidueFieldElem(F9, 8).value == 8

    @pytest.mark.parametrize("p, modulus", [
        (2, (1, 1, 1)),  # F4
        (2, (1, 1, 0, 1)),  # F8
        (3, (1, 0, 1)),  # F9
        (5, (2, 1, 1)),  # F25: x^2 + x + 2
        (2, (1, 1, 0, 0, 1)),  # F16: x^4 + x + 1
        (2, (1, 0, 1, 0, 0, 1)),  # F32: x^5 + x^2 + 1
        (2, (1, 1, 0, 0, 0, 0, 1)),  # F64: x^6 + x + 1
        (3, (2, 1, 0, 0, 1)),  # F81: x^4 + x + 2
    ], ids=["F4", "F8", "F9", "F25", "F16", "F32", "F64", "F81"])
    def test_element_operations_exhaustive(self, p, modulus):
        """add, sub, mul and neg on every pair of element ints, the 0 and 1
        operands included, against FpPolynomial arithmetic on the digit
        polynomials reduced mod the modulus."""
        field = ResidueField.get(p, FpPolynomial(p, modulus))
        mod, k = FpPolynomial(p, modulus), len(modulus) - 1

        def poly(v):
            return FpPolynomial(p, [v // p**i % p for i in range(k)])

        def value(f):
            return sum(c * p**i for i, c in enumerate((f % mod).coeffs))

        for a in range(field.order):
            assert field.neg(a) == value(-poly(a))
            for b in range(field.order):
                assert field.add(a, b) == value(poly(a) + poly(b)), (a, b)
                assert field.sub(a, b) == value(poly(a) - poly(b)), (a, b)
                assert field.mul(a, b) == value(poly(a) * poly(b)), (a, b)

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
        extra = [(5, (2, 0, 1)), (2, (1, 1, 0, 0, 1)), (3, (1, 2, 0, 1)), (2, (1, 0, 1, 0, 0, 1))]
        for field in [F8, F9] + [ResidueField.get(p, FpPolynomial(p, m)) for p, m in extra]:
            for a in range(1, field.order):  # F_8, F_9, F_25, F_16, F_27 and F_32
                inv = field.inverse(a)
                assert field.mul(a, inv) == 1, (field, a)
                assert inv == field.pow(a, field.order - 2), (field, a)  # Fermat

    def test_negative_pow_is_pow_of_the_inverse(self, F4, F9):
        """pow(a, -e) = pow(a^-1, e) in every field; over F_9 = F_3[x]/(x^2 + 1),
        (j + 1)^-1 = j + 2 (int 5) and (j + 1)^-2 = j (int 3)."""
        for field in (ResidueField.prime_field(5), F4, F9):
            for a in range(1, field.order):
                for e in (1, 2, 3):
                    assert field.pow(a, -e) == field.pow(field.inverse(a), e), (field, a, e)
        assert (F9.pow(4, -1), F9.pow(4, -2)) == (5, 3)
        with pytest.raises(ZeroDivisionError):
            F9.pow(0, -1)

    def test_negative_exponent_refused_by_power(self, F9):
        """power refuses e < 0 for every product, so pow_mod does too."""
        g = fp(5, 2, 0, 1)  # x^2 + 2
        for e in (-1, -3):
            with pytest.raises(ValueError, match="negative exponent"):
                fp(5, 0, 1).pow_mod(e, g)
        with pytest.raises(ValueError, match="negative exponent"):
            ExtPolynomial.y(F9).pow_mod(-1, ExtPolynomial.from_ints(F9, [1, 0, 1]))
        with pytest.raises(ValueError, match="negative exponent"):
            _fparith.power(convolve, (1, 1), -1)

    def test_inverse_in_large_extension(self):
        """200 seeded elements each of F_{101^5}, of F_{p^10} with p near 10^5
        (large_p's x^10 - c) and of F_{(2^61-1)^2}, plus prime-subfield
        constants, whose remainder sequence is one step, and j, whose is longest."""
        p10 = next(p for p in range(10**5 + 1, 10**5 + 1000, 10) if is_prime(p))  # 1 mod 10
        c = next(c for c in range(2, p10) if all(pow(c, (p10 - 1) // r, p10) != 1 for r in (2, 5)))
        rng = random.Random(5)
        for p, modulus in [  # each checked irreducible by ResidueField.get
            (101, (-2, 0, 0, 0, 0, 1)),
            (p10, (-c,) + (0,) * 9 + (1,)),
            (2**61 - 1, (1, 0, 1)),
        ]:
            field = ResidueField.get(p, FpPolynomial(p, modulus))
            sample = [1, 2, p - 1, p] + [rng.randrange(1, field.order) for _ in range(200)]
            for a in sample:
                inv = field.inverse(a)
                assert field.mul(a, inv) == 1, (field, a)
                assert inv == field.pow(a, field.order - 2), (field, a)
            assert field.inverse(2) == pow(2, -1, p)  # a constant's inverse stays in F_p
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
        ops = (operator.add, operator.sub, operator.mul, operator.floordiv,
               operator.mod, divmod, lambda u, v: u.gcd(v))
        F3 = ResidueField.prime_field(3)
        g9 = ExtPolynomial.from_ints(F9, (1, 2, 1))
        pairs = [
            (fp(3, 1, 2), fp(5, 4, 4)),
            (g9, ExtPolynomial.from_ints(F4, (1, 1))),
            (g9, ExtPolynomial.from_ints(F3, (1, 1))),
        ]
        for u, v in pairs:
            for op in ops:
                for x, y in ((u, v), (v, u)):
                    with pytest.raises(ValueError, match="different fields"):
                        op(x, y)
        with pytest.raises(ValueError, match="not an element"):
            g9.evaluate(ResidueField.prime_field(5).from_int(4))
        # an equal field built apart from the cache still combines
        F9_apart = ResidueField(3, F9.modulus)
        assert F9_apart is not F9
        h = ExtPolynomial.from_ints(F9_apart, (0, 1))
        assert g9 + h == ExtPolynomial.from_ints(F9, (1, 0, 1))
        assert h.evaluate(F9.gen()) == F9_apart.gen()


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
        assert other_F4 is not F4 and other_F4 == F4 and hash(other_F4) == hash(F4)
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

    @pytest.mark.parametrize("ints", [(), (0,), (2,)], ids=["zero", "zero-digits", "constant"])
    def test_zero_and_constants(self, F9, ints):
        for field in (ResidueField.prime_field(3), F9):
            g = ExtPolynomial.from_ints(field, ints)
            with pytest.raises(ValueError, match="zero polynomial|degree >= 1"):
                factor_ext(g)
            if g.is_zero():
                with pytest.raises(ValueError, match="zero polynomial"):
                    is_squarefree_ext(g)
            else:
                assert is_squarefree_ext(g)

    def test_degree_one_is_its_own_monic_factor(self, F4, F8, F9):
        """Every c1*y + c0, c1 != 0, over F_2, F_3, F_4, F_8 and F_9 (c*y
        included) factors as [(g.monic(), 1)], a fresh list on each call."""
        prime_fields = (ResidueField.prime_field(2), ResidueField.prime_field(3))
        for field in prime_fields + (F4, F8, F9):
            for c1 in range(1, field.order):
                for c0 in range(field.order):
                    g = ExtPolynomial._make(field, (c0, c1))
                    factors = factor_ext(g)
                    assert factors == [(g.monic(), 1)], (field, g)
                    [(h, _)] = factors
                    assert h.is_monic() and h.coeffs[0] == field.mul(c0, field.inverse(c1))
                    assert ExtPolynomial(field, [g.leading()]) * h == g
                    assert factor_ext(g) is not factors

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
        # one degree, three multiplicities: (y-1)(y-2)^2(y-3)^3 over F_5
        F5 = ResidueField.prime_field(5)
        roots = [ExtPolynomial.from_ints(F5, [-r, 1]) for r in (1, 2, 3)]
        g = roots[0] * _power(roots[1], 2) * _power(roots[2], 3)
        assert factor_ext(g) == [(roots[2], 3), (roots[1], 2), (roots[0], 1)]  # y + 2 first
        # h^2 has degree 2 * deg h: the split's n/2 bound still reaches h
        F2 = ResidueField.prime_field(2)
        h = ExtPolynomial.from_ints(F2, [1, 0, 1, 0, 0, 1])  # y^5 + y^2 + 1
        assert h.is_irreducible() and not (h * h).is_irreducible()
        assert factor_ext(h * h) == [(h, 2)]

    def test_char_p_power_with_frobenius(self):
        # (y^2 + y + 2)^3 and (y^2 + y + 2)^9 over F_3 have zero derivative
        F3 = ResidueField.prime_field(3)
        base = ExtPolynomial.from_ints(F3, [2, 1, 1])
        for e in (3, 9):
            g = _power(base, e)
            assert g.derivative().is_zero()
            assert factor_ext(g) == [(base, e)]

    def test_squarefree_agrees_with_multiplicities(self, F4, F8, F9):
        rng = random.Random(23)
        F2 = ResidueField.prime_field(2)
        F25 = ResidueField.get(5, fp(5, 2, 0, 1))  # x^2 + 2
        F27 = ResidueField.get(3, fp(3, 1, 2, 0, 1))  # x^3 + 2x + 1
        inputs = []
        for field in (F2, ResidueField.prime_field(5), F4, F9, F8, F25, F27):
            for _ in range(40):
                deg = rng.randint(1, 7)
                coeffs = [
                    field.element(
                        FpPolynomial(field.p, [rng.randrange(field.p) for _ in range(field.degree)])
                    )
                    for _ in range(deg + 1)
                ]
                inputs.append(ExtPolynomial(field, coeffs))
        # p-th powers and h1 * h2^2 * h3^p: multiplicities p and above, and mixed ones
        for field in (F2, F4, F9):
            for _ in range(15):
                h1, h2, h3 = (
                    ExtPolynomial._make(field, [rng.randrange(field.order) for _ in range(d)] + [1])
                    for d in (rng.randint(1, 3), rng.randint(1, 2), rng.randint(1, 2))
                )
                inputs += [_power(h1, field.p), h1 * _power(h2, 2) * _power(h3, field.p)]
        for g in inputs:
            if g.degree < 1:
                continue
            factors = factor_ext(g)
            product = ExtPolynomial(g.field, [g.leading()])
            for h, mult in factors:
                assert h.is_monic()
                for _ in range(mult):
                    product = product * h
            assert product == g
            # the derivative gcd is an oracle apart from the split's multiplicities
            assert is_squarefree_ext(g) == all(m == 1 for _, m in factors)


def _power(h, e):
    return functools.reduce(operator.mul, [h] * e)


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
        factor_ext passes the map of its whole input.  A wrong
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


class TestIrreducibilityExhaustive:
    def test_extension_fields(self, F4, F9):
        """Over F_q, the irreducibility test accepts as many monic
        polynomials of degree d as the necklace count of monic irreducibles."""
        for field in (F4, F9):
            els = elements(field)
            for d in (1, 2, 3):
                accepted = sum(
                    ExtPolynomial(field, list(tail) + [field.one()]).is_irreducible()
                    for tail in itertools.product(els, repeat=d)
                )
                assert accepted == _necklace_count(field.order, d), (field, d)


def _monic_polys(field, d):
    """Every monic polynomial of degree d over field."""
    return [
        ExtPolynomial._make(field, tail + (1,))
        for tail in itertools.product(range(field.order), repeat=d)
    ]


def _sieved_irreducibles(field, max_degree):
    """{degree: set of monic irreducibles} by a product sieve: a monic
    polynomial is irreducible iff no product of two monic polynomials of
    lower positive degree equals it.  No irreducibility test is used."""
    monic = {d: _monic_polys(field, d) for d in range(1, max_degree + 1)}
    irreducible = {}
    for d, polys in monic.items():
        products = {a * b for k in range(1, d // 2 + 1) for a in monic[k] for b in monic[d - k]}
        irreducible[d] = set(polys) - products
    return monic, irreducible


class TestFactorExtExhaustive:
    """factor_ext on every monic g of degree <= 4 over F_4 and <= 3 over F_9,
    checked against irreducibles found by a product sieve.  Of the 1,159
    inputs, 174 have a repeated factor and 77 a multiplicity divisible by p."""

    def test_every_small_polynomial(self, F4, F9):
        checked = repeated = p_divisible = 0
        for field, max_degree, counts in ((F4, 4, [4, 6, 20, 60]), (F9, 3, [9, 36, 240])):
            monic, irreducible = _sieved_irreducibles(field, max_degree)
            assert [len(irreducible[d]) for d in monic] == counts, field
            assert counts == [_necklace_count(field.order, d) for d in monic], field
            sieved = set().union(*irreducible.values())
            one = ExtPolynomial._make(field, (1,))
            for g in (g for polys in monic.values() for g in polys):
                factors = factor_ext(g)
                assert all(irr in sieved for irr, _ in factors), g
                assert len({irr for irr, _ in factors}) == len(factors), g
                product = one
                for irr, mult in factors:
                    for _ in range(mult):
                        product = product * irr
                assert product == g, g
                checked += 1
                repeated += any(mult > 1 for _, mult in factors)
                p_divisible += any(mult % field.p == 0 for _, mult in factors)
        assert (checked, repeated, p_divisible) == (1159, 174, 77)


class TestPowerOfTheVariable:
    """factor_ext reads the factor y^v off the v low zero coefficients and
    splits only the cofactor."""

    def test_pure_twelfth_at_primes_dividing_m(self):
        """x^12 - m is Eisenstein at every p | m, so it is x^12 mod p."""
        checked = 0
        for m in range(2, 2001):
            if not is_squarefree_int(m):
                continue
            primes = [q for q in range(2, m + 1) if m % q == 0 and all(q % r for r in range(2, q))]
            for signed, p in itertools.product((m, -m), primes):
                assert factor_mod_p(IntPolynomial.pure(12, signed), p) == [(fp(p, 0, 1), 12)]
                checked += 1
        assert checked == 2 * 2519  # prime divisors of the 1,214 squarefree m

    def test_power_times_small_cofactor(self, F4, F9):
        for field in (ResidueField.prime_field(2), ResidueField.prime_field(3), F4, F9):
            monic, irreducible = _sieved_irreducibles(field, 2)
            sieved = set().union(*irreducible.values())
            one, y = ExtPolynomial._make(field, (1,)), ExtPolynomial.y(field)
            for g in [one] + [g for g in monic[1] + monic[2] if g.coeffs[0]]:
                for v in range(1, 14):
                    h = g._new((0,) * v + g.coeffs)  # y^v * g
                    factors = factor_ext(h)
                    assert dict(factors)[y] == v, h
                    assert len({irr for irr, _ in factors}) == len(factors), h
                    assert all(irr in sieved for irr, _ in factors), h
                    product = one
                    for irr, mult in factors:
                        for _ in range(mult):
                            product = product * irr
                    assert product == h, h


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


@pytest.fixture
def exponents(monkeypatch):
    """How often ffield's power ran, by exponent."""
    seen = Counter()
    power = ffield.power

    def counted_power(mul, base, e):
        seen[e] += 1
        return power(mul, base, e)

    monkeypatch.setattr(ffield, "power", counted_power)
    return seen


class TestOneExponentiationPerModulus:
    """The irreducibility test and distinct-degree splitting exponentiate
    once per modulus: for odd q to (q - 1)/2, giving s = x^((q-1)/2) and
    x^q = x * s^2.  Every further Frobenius power is a matrix product."""

    def test_irreducibility_degree_12_over_f13(self, exponents):
        g = fp(13, -2, *[0] * 11, 1)  # x^12 - 2: 2 has order 12 mod 13
        assert g.is_irreducible()
        assert exponents == {6: 1}

    def test_degree_1_needs_no_exponentiation(self, exponents):
        assert fp(2**61 - 1, 3, 1).is_irreducible()
        assert not exponents

    def test_degree_1_factors_without_a_split(self, monkeypatch, F9):
        def refuse(*args):
            raise AssertionError("a degree-1 input needs no Frobenius and no split")

        monkeypatch.setattr(ffield, "_frobenius", refuse)
        monkeypatch.setattr(ffield, "_distinct_degree_split", refuse)
        g = ExtPolynomial._make(F9, (0, 5))  # (j + 2)*y
        assert factor_ext(g) == [(ExtPolynomial.y(F9), 1)]
        p = 2**61 - 1
        assert factor_ext(fp(p, 3, 7)) == [(fp(p, 3 * pow(7, -1, p), 1), 1)]  # 7x + 3

    def test_distinct_degree_split_1_1_10(self, exponents):
        # over F_11: (x - 1)(x - 2)(x^10 - 2), 2 a primitive root mod 11
        g = fp(11, -1, 1) * fp(11, -2, 1) * fp(11, -2, *[0] * 9, 1)
        parts = _distinct_degree_split(g, _frobenius(g))
        assert [(h.coeffs, d, e) for h, d, e in parts] == [
            ((fp(11, -1, 1) * fp(11, -2, 1)).coeffs, 1, 1),
            (fp(11, -2, *[0] * 9, 1).coeffs, 10, 1),
        ]
        assert exponents == {5: 1}

    def test_repeated_factor_shares_the_exponentiation(self, exponents):
        # over F_11: (x^2 - 2)^2 (x^10 - 2), both irreducible
        quadratic, decic = fp(11, -2, 0, 1), fp(11, -2, *[0] * 9, 1)
        assert factor_ext(quadratic * quadratic * decic) == [(quadratic, 2), (decic, 1)]
        assert exponents == {5: 1}


class TestFreeFirstTrial:
    """For odd q, equal-degree splitting first tries a = y.  Its character
    y^((q^d-1)/2) is a product of Frobenius powers of the half power
    y^((q-1)/2) that _frobenius computes on its way to y^q, so the trial
    costs no exponentiation; only what it leaves unsplit is drawn at random."""

    @pytest.fixture
    def seeds(self, monkeypatch):
        """The seed of every random.Random built in ffield."""
        seen, Random = [], random.Random

        def recorded(seed):
            seen.append(seed)
            return Random(seed)

        monkeypatch.setattr(ffield.random, "Random", recorded)
        return seen

    @staticmethod
    def refuse_random(monkeypatch):
        def refuse(seed):
            raise AssertionError("the character of y should have split this input")

        monkeypatch.setattr(ffield.random, "Random", refuse)

    @staticmethod
    def character(h):
        """y^((q^d-1)/2) mod the irreducible h of degree d: 1 or -1."""
        q = h.field.order
        return h._new((0, 1)).pow_mod((q**h.degree - 1) // 2, h).coeffs

    def test_nonresidue_root_splits_with_no_random_trial(self, monkeypatch, exponents):
        p = 1000003
        assert pow(2, (p - 1) // 2, p) == p - 1  # 2 a non-residue, 1 a residue
        self.refuse_random(monkeypatch)
        assert factor_ext(fp(p, 2, -3, 1)) == [(fp(p, -2, 1), 1), (fp(p, -1, 1), 1)]
        assert exponents == {p // 2: 1}

    def test_residue_roots_go_on_to_the_seeded_trials(self, seeds):
        p = 10**9 + 7
        assert pow(2, (p - 1) // 2, p) == 1  # 1 and 2 both residues
        assert factor_ext(fp(p, 2, -3, 1)) == [(fp(p, -2, 1), 1), (fp(p, -1, 1), 1)]
        assert seeds == [ffield._EDF_SEED]

    @pytest.mark.parametrize(
        "p, modulus, d",
        [(3, (0, 1), 2), (3, (1, 0, 1), 1), (5, (2, 0, 1), 1)],  # F_3, F_9, F_25
    )
    def test_blocks_split_by_the_character_of_y(self, monkeypatch, exponents, seeds, p, modulus, d):
        field = ResidueField.get(p, FpPolynomial(p, modulus))
        q = field.order
        rng = random.Random(q + d)
        irreducibles = [h for h in _monic_irreducibles(field, d, rng) if h.coeffs[0]]
        by_character = {}
        for h in irreducibles:
            by_character.setdefault(self.character(h), []).append(h)
        minus_one = (p - 1,)  # the element int of -1, in the prime subfield
        assert sorted(by_character) == [(1,), minus_one], (p, modulus, d)
        residue, nonresidue = by_character[(1,)][0], by_character[minus_one][0]
        # the whole degree-d block: what the random trials split, in sorted order
        g = functools.reduce(operator.mul, irreducibles)
        seeds.clear()
        assert factor_ext(g) == [(h, 1) for h in irreducibles], (p, modulus, d)
        assert seeds == [ffield._EDF_SEED]
        # one factor of each character: y alone splits them
        self.refuse_random(monkeypatch)
        exponents.clear()
        assert factor_ext(residue * nonresidue) == sorted(
            [(residue, 1), (nonresidue, 1)], key=lambda hm: hm[0].sort_key()
        )
        assert exponents == {q // 2: 1}, (p, modulus, d)

    def test_root_zero_and_multiplicities_stay_out(self, monkeypatch):
        """y^v is peeled before the split and each multiplicity is its own
        block, so the character split sees only squarefree blocks prime to y."""
        F5 = ResidueField.prime_field(5)
        y, one = ExtPolynomial.y(F5), ExtPolynomial.from_ints(F5, [1])
        blocks, split = [], ffield._split_equal_degree

        def recorded(g, d, frobenius, rng=None):
            if rng is None:
                blocks.append((g, d))
            return split(g, d, frobenius, rng)

        monkeypatch.setattr(ffield, "_split_equal_degree", recorded)
        self.refuse_random(monkeypatch)
        g = _power(y, 2) * _power(y - one, 2) * (y - one - one)
        assert factor_ext(g) == [(y, 2), (y - one - one, 1), (y - one, 2)]
        assert blocks == [(y - one - one, 1), (y - one, 1)]  # multiplicity 1 is peeled first
        blocks.clear()
        # 1 a residue mod 5 and 2 not: the block (y - 1)(y - 2) splits by y
        assert factor_ext(_power(y, 3) * (y - one) * (y - one - one)) == [
            (y, 3), (y - one - one, 1), (y - one, 1),
        ]
        assert blocks == [((y - one) * (y - one - one), 1)]


def test_reducible_refused_at_the_first_block(monkeypatch):
    """x + 1 divides x^100 + 1 over F_2, so the irreducibility test stops at
    the split's first block, after one application of the Frobenius map."""
    applied = []
    frobenius = ffield._frobenius

    def counted_frobenius(g):
        step = frobenius(g)

        def counted(w):
            applied.append(w)
            return step(w)

        return counted

    monkeypatch.setattr(ffield, "_frobenius", counted_frobenius)
    assert not fp(2, 1, *[0] * 99, 1).is_irreducible()
    assert len(applied) == 1


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
        # modulo a nonzero constant every power is 0, x^0 included
        G = self.make(p, [rng.randrange(1, p)], ext)
        for e in exponents:
            assert self.make(p, [0, 1], ext).pow_mod(e, G).is_zero(), (p, e)


def test_large_q_regression():
    """Degree-12 factoring and a degree-10 irreducibility test mod p near 10^9.

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
irreducible_s = time.perf_counter() - start
expected = [((p - b, 1), 1), ((p - a, 1), 1), (FpPolynomial(p, tail.coeffs).coeffs, 1)]
print(json.dumps([[(h.coeffs, m) for h, m in factors] == expected, irreducible,
                  factor_s, irreducible_s, p, c]))
"""
    )
    assert proc.returncode == 0, proc.stderr
    factors_ok, irreducible, factor_s, irreducible_s, p, c = json.loads(proc.stdout)
    assert factors_ok, (p, c)
    assert irreducible, (p, c)
    assert factor_s < 1.0
    assert irreducible_s < 1.0


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

    @pytest.mark.parametrize("p", [2, 3, 13, 2**61 - 1])
    def test_against_the_mobius_sum(self, p):
        """Gauss's identity solved upward equals the Mobius sum, a separate formula."""
        for d in range(1, 61):
            assert count_monic_irreducibles(p, d) == _necklace_count(p, d), (p, d)

    def test_rejects_bad_inputs(self):
        with pytest.raises(NonPrime):
            count_monic_irreducibles(6, 2)
        with pytest.raises(ValueError):
            count_monic_irreducibles(3, 0)
