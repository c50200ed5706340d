"""phi-Newton polygons: lower convex hulls of valuation points.

For f = sum a_i * phi^i the polygon is the lower convex envelope of the
points (i, v_p(a_i)) with a_i != 0.  Slopes are exact Fractions; nothing
here is ever rounded.  The principal part (negative slopes only), found
and counted in integers, drives index counting and prime-ideal splitting;
zero-slope tails are kept on the full polygon but never consumed downstream.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ._record import Record
from .errors import NonMonicModulus, ZeroModP
from .ffield import ExtPolynomial, FpPolynomial, ResidueField
from .intpoly import INFINITY, IntPolynomial, _phi_digits, _vp_poly

_CELL_WIDTH = 3  # characters per abscissa in render_polygon


class Side(Record):
    """One segment of a Newton polygon.

    length is the x-projection, height the y-projection (positive for
    principal sides), slope the exact rational -height/length, degree
    gcd(length, height); e = length/degree is the denominator of the
    reduced slope and becomes the ramification index downstream.
    degree is computed once, on construction, and kept out of the fields:
    equality, hash, repr and pickling see start and end only.
    """

    _fields = ("start", "end")
    __slots__ = _fields + ("degree",)

    def __init__(self, start: tuple, end: tuple):
        super().__init__(start, end)
        object.__setattr__(self, "degree", math.gcd(self.length, self.height))

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


class NewtonPolygon(Record):
    __slots__ = _fields = ("phi", "p", "points", "sides", "principal_sides")

    def __init__(
        self,
        phi: IntPolynomial,
        p: int,
        points: tuple,  # finite valuation points (i, v), ascending in i
        sides: tuple,  # all hull sides, slopes strictly increasing
        principal_sides: tuple,  # the negative-slope prefix
    ):
        super().__init__(phi, p, points, sides, principal_sides)

    @property
    def vertices(self) -> tuple:
        return _chain(self.sides) or self.points[:1]

    @property
    def principal_vertices(self) -> tuple:
        return _chain(self.principal_sides)


def _chain(sides) -> tuple:
    """The vertices of consecutive sides, from the first start to the last end."""
    if not sides:
        return ()
    return (sides[0].start,) + tuple([s.end for s in sides])


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


def _expand(f: IntPolynomial, phi: IntPolynomial, p: int):
    """The full phi-expansion of f and the field F_phi, for a caller's phi.

    A phi that is not monic is refused here, a constant or reducible one
    by ResidueField.get; so the expansion needs none of phi_expand's checks.
    """
    if not phi.is_monic():
        raise NonMonicModulus("phi must be monic")
    field = ResidueField.get(p, FpPolynomial(p, phi.coeffs))
    return _phi_digits(f, phi, None), field


def _polygon(expansion, p: int) -> NewtonPolygon:
    """Newton polygon from an expansion of f (f is 0 mod p iff every term is)."""
    points = tuple(
        [(i, _vp_poly(a, p)) for i, a in enumerate(expansion.terms) if not a.is_zero()]
    )
    if not points or min(y for _, y in points) != 0:
        raise ZeroModP(f"polynomial vanishes identically mod {p}")
    hull = _lower_hull(points)
    sides = tuple([Side(hull[k], hull[k + 1]) for k in range(len(hull) - 1)])
    principal = tuple([s for s in sides if s.end[1] < s.start[1]])
    return NewtonPolygon(
        phi=expansion.phi, p=p, points=points, sides=sides, principal_sides=principal
    )


def build_polygon(f: IntPolynomial, phi: IntPolynomial, p: int) -> NewtonPolygon:
    """Newton polygon of f with respect to phi and p.

    phi must be monic with irreducible reduction mod p, and f must not
    vanish identically mod p.
    """
    return _polygon(_expand(f, phi, p)[0], p)


class ResidualPolynomial(Record):
    """Residual polynomial of one principal side, over F_phi."""

    __slots__ = _fields = ("side", "poly")

    def __init__(self, side: Side, poly: ExtPolynomial):
        super().__init__(side, poly)

    @property
    def field(self) -> ResidueField:
        return self.poly.field


def residual_polynomial(
    f: IntPolynomial, phi: IntPolynomial, p: int, side: Side
) -> ResidualPolynomial:
    """Degree-d polynomial over F_phi attached to a principal side of the
    polygon of f with respect to phi and p; any other side is a ValueError."""
    expansion, field = _expand(f, phi, p)
    polygon = _polygon(expansion, p)
    if side not in polygon.principal_sides:
        raise ValueError(f"{side!r} is not a principal side of the polygon of f")
    return _residual(expansion, polygon, field, side)


def _residual(expansion, polygon, field: ResidueField, side: Side) -> ResidualPolynomial:
    """The residual polynomial of side, read off the expansion of f and its polygon.

    t_i comes from the term at the i-th integer point (x, y) of the side: of
    valuation y (its polygon point's ordinate) it gives the element of F_phi
    with the digits of term / p^y; of more, or INFINITY (a zero term), 0.
    """
    p = field.p
    valuations = dict(polygon.points)
    coeffs = []
    for idx, y in side.lattice_points():
        a = expansion.terms[idx]  # idx <= the side's end, the index of a nonzero term
        v = valuations.get(idx, INFINITY)
        if v < y:  # impossible below the hull
            raise AssertionError("valuation point below its own hull")
        coeffs.append(field.from_digits([c // p**y for c in a.coeffs]) if v == y else 0)
    poly = ExtPolynomial._make(field, coeffs)
    if poly.degree != side.degree:
        raise AssertionError("residual degree must equal the side degree")
    return ResidualPolynomial(side=side, poly=poly)


def _lattice_columns(principal_sides):
    """(x, h) for each x >= 1 under the principal polygon, h the floor of its
    ordinate at x: the points (x, 1..h) are on or below it.  In integers."""
    for k, side in enumerate(principal_sides):
        (x0, y0), (x1, y1) = side.start, side.end
        length, height = x1 - x0, y0 - y1
        x_first = x0 if k == 0 else x0 + 1
        for x in range(max(1, x_first), x1 + 1):
            yield x, (y0 * length - height * (x - x0)) // length


def _phi_index(polygon: NewtonPolygon) -> int:
    """The theorem of the index's term for polygon's phi: deg(phi) times the
    lattice points (x>=1, y>=1) on or below the principal polygon."""
    return polygon.phi.degree * sum([h for _, h in _lattice_columns(polygon.principal_sides)])


def phi_index(f: IntPolynomial, phi: IntPolynomial, p: int) -> int:
    """deg(phi) times the lattice count under the principal polygon."""
    return _phi_index(build_polygon(f, phi, p))


def render_polygon(polygon: NewtonPolygon) -> str:
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
    for x, h in _lattice_columns(polygon.principal_sides):
        for y in range(1, h + 1):
            grid[(x, y)] = "x"
    for v in polygon.vertices:
        grid[v] = "o"
    lines = []
    for y in range(ymax, -1, -1):
        cells = "".join(grid.get((x, y), " ").ljust(_CELL_WIDTH) for x in range(xmax + 1))
        lines.append(f"{y:3d} | {cells.rstrip()}")
    lines.append("    +-" + "-" * (_CELL_WIDTH * (xmax + 1)))
    lines.append("      " + "".join(str(x).ljust(_CELL_WIDTH) for x in range(xmax + 1)))
    return "\n".join(lines)
