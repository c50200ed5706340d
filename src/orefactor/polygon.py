"""phi-Newton polygons: lower convex hulls of valuation points.

For f = sum a_i * phi^i the polygon is the lower convex envelope of the
points (i, v_p(a_i)) with a_i != 0.  Slopes are exact Fractions; nothing
here is ever rounded.  The principal part (negative slopes only) drives
index counting and prime-ideal splitting; zero-slope tails are kept on
the full polygon for inspection but never consumed downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import NonMonicModulus, ReducibleModulus, ZeroModP
from .ffield import ExtPolynomial, FpPolynomial, ResidueField
from .intpoly import IntPolynomial, phi_expand, vp_poly


@dataclass(frozen=True)
class Side:
    """One segment of a Newton polygon.

    length is the x-projection, height the y-projection (positive for
    principal sides), slope the exact rational -height/length, degree
    gcd(length, height); e = length/degree is the denominator of the
    reduced slope and becomes the ramification index downstream.
    """

    start: tuple
    end: tuple

    @property
    def length(self) -> int:
        return self.end[0] - self.start[0]

    @property
    def height(self) -> int:
        return self.start[1] - self.end[1]

    @property
    def slope(self) -> Fraction:
        return Fraction(self.end[1] - self.start[1], self.length)

    @property
    def degree(self) -> int:
        return math.gcd(self.length, abs(self.height))

    @property
    def e(self) -> int:
        return self.length // self.degree

    def y_at(self, x: int) -> Fraction:
        """Exact ordinate of the side's line at abscissa x."""
        return self.start[1] + self.slope * (x - self.start[0])

    def lattice_points(self):
        """Integer points on the side, from start to end."""
        step_h = self.height // self.degree
        return [
            (self.start[0] + t * self.e, self.start[1] - t * step_h)
            for t in range(self.degree + 1)
        ]

    def __str__(self) -> str:
        return (
            f"side {self.start}->{self.end} slope={self.slope} "
            f"l={self.length} h={self.height} d={self.degree} e={self.e}"
        )


@dataclass(frozen=True)
class NewtonPolygon:
    phi: IntPolynomial
    p: int
    points: tuple  # finite valuation points (i, v), ascending in i
    sides: tuple  # all hull sides, slopes strictly increasing
    principal_sides: tuple  # the negative-slope prefix

    @property
    def vertices(self) -> tuple:
        if not self.sides:
            return self.points[:1]
        return (self.sides[0].start,) + tuple(s.end for s in self.sides)

    @property
    def principal_vertices(self) -> tuple:
        if not self.principal_sides:
            return ()
        return (self.principal_sides[0].start,) + tuple(
            s.end for s in self.principal_sides
        )

    def principal_length(self) -> int:
        return sum(s.length for s in self.principal_sides)


def _lower_hull(points):
    """Andrew monotone chain, lower part; collinear points are merged."""
    hull = []
    for pt in points:
        while len(hull) >= 2:
            (x0, y0), (x1, y1) = hull[-2], hull[-1]
            if (x1 - x0) * (pt[1] - y0) - (y1 - y0) * (pt[0] - x0) <= 0:
                hull.pop()
            else:
                break
        hull.append(pt)
    return hull


def build_polygon(f: IntPolynomial, phi: IntPolynomial, p: int) -> NewtonPolygon:
    """Newton polygon of f with respect to phi and p.

    phi must be monic with irreducible reduction mod p, and f must not
    vanish identically mod p.
    """
    if not phi.is_monic():
        raise NonMonicModulus("phi must be monic")
    phibar = FpPolynomial.from_int_poly(phi, p)
    if not phibar.is_irreducible():
        raise ReducibleModulus(f"{phibar} is reducible mod {p}")
    if vp_poly(f, p) != 0:
        raise ZeroModP(f"polynomial vanishes identically mod {p}")
    expansion = phi_expand(f, phi)
    points = tuple(
        (i, vp_poly(a, p)) for i, a in enumerate(expansion.terms) if not a.is_zero()
    )
    hull = _lower_hull(points)
    sides = tuple(Side(hull[k], hull[k + 1]) for k in range(len(hull) - 1))
    principal = tuple(s for s in sides if s.slope < 0)
    return NewtonPolygon(
        phi=phi, p=p, points=points, sides=sides, principal_sides=principal
    )


@dataclass(frozen=True)
class ResidualPolynomial:
    """Residual polynomial of one principal side, over F_phi."""

    side: Side
    poly: ExtPolynomial

    @property
    def field(self) -> ResidueField:
        return self.poly.field


def residual_polynomial(
    f: IntPolynomial, phi: IntPolynomial, p: int, side: Side
) -> ResidualPolynomial:
    """Degree-d polynomial over F_phi attached to a principal side.

    Coefficient t_i comes from the expansion term at the i-th integer
    point of the side: terms on the side are divided by the exact power
    of p and reduced mod (p, phi); points strictly above contribute 0.
    """
    phibar = FpPolynomial.from_int_poly(phi, p)
    field = ResidueField.get(p, phibar)
    expansion = phi_expand(f, phi)
    s, u_s = side.start
    step_h = side.height // side.degree
    coeffs = []
    for t in range(side.degree + 1):
        idx = s + t * side.e
        y = u_s - t * step_h
        a = expansion.terms[idx] if idx < len(expansion.terms) else IntPolynomial([])
        v = vp_poly(a, p)
        if v == y:
            scaled = IntPolynomial([c // p**y for c in a.coeffs])
            coeffs.append(field.from_int_poly(scaled))
        else:
            if v < y:  # impossible below the hull
                raise AssertionError("valuation point below its own hull")
            coeffs.append(field.zero())
    poly = ExtPolynomial(field, coeffs)
    if poly.degree != side.degree:
        raise AssertionError("residual degree must equal the side degree")
    return ResidualPolynomial(side=side, poly=poly)


def _principal_lattice_count(principal_sides) -> int:
    """Lattice points (x>=1, y>=1) on or below the principal polygon."""
    count = 0
    for k, side in enumerate(principal_sides):
        x_first = side.start[0] if k == 0 else side.start[0] + 1
        for x in range(max(1, x_first), side.end[0] + 1):
            y = side.y_at(x)
            count += max(0, y.numerator // y.denominator)
    return count


def phi_index(f: IntPolynomial, phi: IntPolynomial, p: int) -> int:
    """deg(phi) times the lattice count under the principal polygon."""
    poly = build_polygon(f, phi, p)
    return phi.degree * _principal_lattice_count(poly.principal_sides)


def render_polygon(polygon: NewtonPolygon, width: int = 3) -> str:
    """Plain-text sketch: 'o' hull vertices, 'x' counted lattice points,
    '.' other valuation points."""
    pts = polygon.points
    if not pts:
        return "(empty polygon)"
    xmax = max(x for x, _ in pts)
    ymax = max(y for _, y in pts)
    grid = {}
    for x, y in pts:
        grid[(x, y)] = "."
    for k, side in enumerate(polygon.principal_sides):
        x_first = side.start[0] if k == 0 else side.start[0] + 1
        for x in range(max(1, x_first), side.end[0] + 1):
            yy = side.y_at(x)
            for y in range(1, yy.numerator // yy.denominator + 1):
                grid[(x, y)] = "x"
    for v in polygon.vertices:
        grid[v] = "o"
    lines = []
    for y in range(ymax, -1, -1):
        cells = "".join(grid.get((x, y), " ").ljust(width) for x in range(xmax + 1))
        lines.append(f"{y:3d} | {cells.rstrip()}")
    lines.append("    +-" + "-" * (width * (xmax + 1)))
    lines.append("      " + "".join(str(x).ljust(width) for x in range(xmax + 1)))
    return "\n".join(lines)
