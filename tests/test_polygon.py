import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_force_lattice_count
from orefactor.errors import NonMonicModulus, ReducibleModulus, ZeroModP
from orefactor.ffield import factor_mod_p
from orefactor.intpoly import IntPolynomial, phi_expand
from orefactor.polygon import (
    Side,
    build_polygon,
    phi_index,
    render_polygon,
    residual_polynomial,
)

X_MINUS_1 = IntPolynomial([-1, 1])
PHI2 = IntPolynomial([1, 1, 1])


def pure(m):
    return IntPolynomial.pure(12, m)


class TestSide:
    def test_data_of_known_side(self):
        s = Side((0, 3), (2, 1))
        assert s.length == 2 and s.height == 2
        assert s.slope == Fraction(-1)
        assert s.degree == 2 and s.e == 1
        assert s.lattice_points() == [(0, 3), (1, 2), (2, 1)]

    def test_height_slope_relation(self):
        rng = random.Random(1)
        for _ in range(100):
            x0, y0 = rng.randint(0, 5), rng.randint(1, 9)
            dx, dy = rng.randint(1, 6), rng.randint(0, y0)
            s = Side((x0, y0), (x0 + dx, y0 - dy))
            assert s.height == -s.slope * s.length
            assert s.degree == s.length // s.e


class TestBuildPolygon:
    def test_nine_mod_sixteen_vertices(self):
        for m in (41, 73, -7):
            assert m % 16 == 9
            np1 = build_polygon(pure(m), X_MINUS_1, 2)
            assert np1.principal_vertices == ((0, 3), (2, 1), (4, 0))
            assert [s.slope for s in np1.principal_sides] == [
                Fraction(-1),
                Fraction(-1, 2),
            ]

    def test_single_side_for_p_dividing_m(self):
        x = IntPolynomial([0, 1])
        for m, p in ((10, 2), (10, 5), (21, 3), (21, 7)):
            np1 = build_polygon(pure(m), x, p)
            assert np1.principal_vertices == ((0, 1), (12, 0))
            side = np1.principal_sides[0]
            assert side.height == 1 and side.degree == 1 and side.e == 12

    def test_five_mod_eight_single_side(self):
        for m in (13, 5, -11):
            assert m % 8 == 5
            np1 = build_polygon(pure(m), X_MINUS_1, 2)
            assert np1.principal_vertices == ((0, 2), (4, 0))
            side = np1.principal_sides[0]
            assert side.slope == Fraction(-1, 2) and side.degree == 2

    def test_collinear_points_merged(self):
        # m = 13: (2, 1) sits exactly on the segment (0,2)-(4,0)
        np1 = build_polygon(pure(13), X_MINUS_1, 2)
        assert len(np1.principal_sides) == 1
        assert (2, 1) in np1.points

    def test_zero_slope_tail_kept_off_principal(self):
        np1 = build_polygon(pure(13), X_MINUS_1, 2)
        assert np1.sides[-1].slope == 0
        assert all(s.slope < 0 for s in np1.principal_sides)
        assert np1.vertices[-1] == (12, 0)

    def test_rejects_reducible_modulus(self):
        with pytest.raises(ReducibleModulus):
            build_polygon(pure(10), IntPolynomial([1, 0, 1]), 2)  # x^2+1 = (x+1)^2

    def test_rejects_non_monic_phi(self):
        # 2x - 1 reduces to the constant 1 mod 2; the refusal must name monicity
        with pytest.raises(NonMonicModulus, match="phi must be monic"):
            build_polygon(IntPolynomial.pure(12, 41), IntPolynomial([-1, 2]), 2)

    def test_rejects_vanishing_f(self):
        with pytest.raises(ZeroModP):
            build_polygon(IntPolynomial([2, 4, 6]), IntPolynomial([0, 1]), 2)

    def test_points_skip_zero_digits(self):
        # x^4 in base x has a single finite point (4, 0)
        np1 = build_polygon(IntPolynomial([0, 0, 0, 0, 1]), IntPolynomial([0, 1]), 3)
        assert np1.points == ((4, 0),)
        assert np1.sides == ()

    def test_slopes_strictly_increase_and_points_above_hull(self):
        rng = random.Random(9)
        for _ in range(200):
            deg = rng.randint(2, 12)
            f = IntPolynomial([rng.randint(-60, 60) for _ in range(deg)] + [1])
            p = rng.choice([2, 3, 5])
            for phibar, _ in factor_mod_p(f, p):
                lift = phibar.lift()
                poly = build_polygon(f, lift, p)
                slopes = [s.slope for s in poly.sides]
                assert slopes == sorted(slopes)
                assert len(set(slopes)) == len(slopes)
                for k in range(len(poly.sides) - 1):
                    assert poly.sides[k].end == poly.sides[k + 1].start
                for x, v in poly.points:
                    for side in poly.sides:
                        if side.start[0] <= x <= side.end[0]:
                            assert Fraction(v) >= side.y_at(x)

    def test_side_endpoint_valuation_recurrence(self):
        # v(end) = v(start) + length * slope along every side
        for m, phi, p in ((41, X_MINUS_1, 2), (13, PHI2, 2), (10, X_MINUS_1, 3)):
            poly = build_polygon(pure(m), phi, p)
            for side in poly.sides:
                assert (
                    Fraction(side.end[1])
                    == side.start[1] + side.length * side.slope
                )

    def test_principal_length_equals_multiplicity(self):
        rng = random.Random(31)
        checked = 0
        for _ in range(150):
            deg = rng.randint(2, 12)
            f = IntPolynomial([rng.randint(-60, 60) for _ in range(deg)] + [1])
            p = rng.choice([2, 3, 5])
            for phibar, mult in factor_mod_p(f, p):
                lift = phibar.lift()
                if phi_expand(f, lift).terms[0].is_zero():
                    continue  # exact divisibility shifts the polygon
                poly = build_polygon(f, lift, p)
                assert poly.principal_length() == mult
                checked += 1
        assert checked > 100


class TestResidualPolynomial:
    def test_five_mod_eight_linear_base(self):
        np1 = build_polygon(pure(13), X_MINUS_1, 2)
        res = residual_polynomial(pure(13), X_MINUS_1, 2, np1.principal_sides[0])
        assert str(res.poly) == "y^2 + y + 1"
        assert res.poly.degree == np1.principal_sides[0].degree

    def test_five_mod_eight_quadratic_base(self):
        np2 = build_polygon(pure(13), PHI2, 2)
        res = residual_polynomial(pure(13), PHI2, 2, np2.principal_sides[0])
        assert str(res.poly) == "(j + 1)*y^2 + j*y + 1"
        field = res.poly.field
        j, one = field.gen(), field.one()
        # distinct roots 1 and j
        assert res.poly.evaluate(one).is_zero()
        assert res.poly.evaluate(j).is_zero()

    def test_nine_mod_sixteen_sides(self):
        np2 = build_polygon(pure(41), PHI2, 2)
        first = residual_polynomial(pure(41), PHI2, 2, np2.principal_sides[0])
        second = residual_polynomial(pure(41), PHI2, 2, np2.principal_sides[1])
        assert str(first.poly) == "j*y^2 + (j + 1)*y + 1"
        assert second.poly.degree == 1

    def test_degree_one_side_always_linear(self):
        np1 = build_polygon(pure(33), X_MINUS_1, 2)
        for side in np1.principal_sides:
            res = residual_polynomial(pure(33), X_MINUS_1, 2, side)
            assert res.poly.degree == side.degree == 1

    def test_degree_matches_side_on_random_inputs(self):
        rng = random.Random(13)
        for _ in range(100):
            deg = rng.randint(2, 12)
            f = IntPolynomial([rng.randint(-60, 60) for _ in range(deg)] + [1])
            p = rng.choice([2, 3, 5])
            for phibar, _ in factor_mod_p(f, p):
                lift = phibar.lift()
                poly = build_polygon(f, lift, p)
                for side in poly.principal_sides:
                    res = residual_polynomial(f, lift, p, side)
                    assert res.poly.degree == side.degree
                    assert not res.poly.leading().is_zero()
                    assert not res.poly[0].is_zero()


class TestPhiIndex:
    def test_three_sided_reference_count(self):
        sides = [Side((0, 5), (1, 3)), Side((1, 3), (5, 1)), Side((5, 1), (9, 0))]
        assert brute_force_lattice_count(sides) == 9

    def test_empty_principal_part(self):
        # 7 is a unit mod 5, so the x-polygon of x^12 - 7 has no principal side
        f = pure(7)
        assert phi_index(f, IntPolynomial([0, 1]), 5) == 0

    def test_nine_mod_sixteen_counts(self):
        assert phi_index(pure(41), X_MINUS_1, 2) == 3
        assert phi_index(pure(41), PHI2, 2) == 6

    def test_matches_brute_force_on_random_inputs(self):
        rng = random.Random(29)
        for _ in range(150):
            deg = rng.randint(2, 12)
            f = IntPolynomial([rng.randint(-60, 60) for _ in range(deg)] + [1])
            p = rng.choice([2, 3, 5, 7])
            for phibar, _ in factor_mod_p(f, p):
                lift = phibar.lift()
                poly = build_polygon(f, lift, p)
                assert phi_index(f, lift, p) == lift.degree * brute_force_lattice_count(
                    poly.principal_sides
                )

    @given(st.integers(2, 2000))
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force_on_pure_polys(self, m):
        f = pure(m)
        for p in (2, 3):
            for phibar, _ in factor_mod_p(f, p):
                lift = phibar.lift()
                poly = build_polygon(f, lift, p)
                assert phi_index(f, lift, p) == lift.degree * brute_force_lattice_count(
                    poly.principal_sides
                )


class TestRender:
    def test_render_contains_structure(self):
        np1 = build_polygon(pure(41), X_MINUS_1, 2)
        art = render_polygon(np1)
        lines = art.splitlines()
        assert len(lines) == 4 + 2  # y rows 3..0 plus axis and labels
        assert "o" in art and "x" in art
        # counted points are (1,1), (1,2), (2,1); the last is also a vertex 'o'
        assert art.count("x") == 2

    def test_render_empty(self):
        np1 = build_polygon(pure(7), IntPolynomial([0, 1]), 5)
        assert render_polygon(np1)
