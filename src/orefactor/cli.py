"""Command-line front end: classify, factor, polygon, sweep.

Output formats: text (default), json (canonical: sorted keys, 2-space
indent, so re-parsing and re-serializing is byte-identical), and csv
for sweeps.  User-scale integers (m, p, polynomial coefficients) are
serialized as decimal strings in JSON so consumers without big-integer
support never truncate; structural values (degrees, vertices, e, f,
indices) stay plain ints.

Exit codes: 0 success, 1 domain error, 2 parse/usage error.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import re
import sys

from . import __version__
from .errors import EngineError, NotRegular, NotSquarefree, PolyParseError
from .ffield import FpPolynomial, factor_ext
from .intpoly import IntPolynomial
from .monogenity import (
    DEFAULT_SQUAREFREE_BOUND,
    PureFieldInput,
    _classify_engine,
    _classify_theorem,
    classify_engine,
    classify_theorem,
)
from .ore import _analyze, _factorization, dedekind_test
from .polygon import _expand, _polygon, _principal_lattice_count, _residual, render_polygon

ENV_SQUAREFREE_BOUND = "OREFACTOR_SQUAREFREE_BOUND"
_MAX_EXPONENT = 100_000


class NonIntegerCoefficient(PolyParseError):
    """The expression contains a non-integer coefficient."""


class UsageError(EngineError):
    """A setting from the environment is malformed (exit code 2)."""


def parse_poly(text: str) -> IntPolynomial:
    """Parse an integer polynomial in x: terms c, x^k, c*x^k, signs.

    Whitespace-insensitive; implicit '*' as in '3x^2' is accepted.
    Printing the result with str() and re-parsing gives the same
    polynomial.
    """
    coeffs: dict[int, int] = {}
    n = len(text)

    def skip_ws(i: int) -> int:
        while i < n and text[i].isspace():
            i += 1
        return i

    i = skip_ws(0)
    if i == n:
        raise PolyParseError("empty polynomial expression", i)
    first = True
    while i < n:
        sign = 1
        if text[i] == "+":
            i = skip_ws(i + 1)
        elif text[i] == "-":
            sign = -1
            i = skip_ws(i + 1)
        elif not first:
            raise PolyParseError(f"expected '+' or '-', found {text[i]!r}", i)
        coeff = None
        if i < n and text[i].isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == ".":
                raise NonIntegerCoefficient("coefficients must be integers", j)
            coeff = int(text[i:j])
            i = skip_ws(j)
            if i < n and text[i] == "*":
                i = skip_ws(i + 1)
                if i >= n or text[i] != "x":
                    raise PolyParseError("expected 'x' after '*'", i)
        if i < n and text[i] == "x":
            i += 1
            k = 1
            j = skip_ws(i)
            if j < n and text[j] == "^":
                j = skip_ws(j + 1)
                if j >= n or not text[j].isdigit():
                    raise PolyParseError("expected an exponent after '^'", j)
                start = j
                while j < n and text[j].isdigit():
                    j += 1
                k = int(text[start:j])
                if k > _MAX_EXPONENT:
                    raise PolyParseError("exponent too large", start)
                i = j
            c = 1 if coeff is None else coeff
            coeffs[k] = coeffs.get(k, 0) + sign * c
        elif coeff is not None:
            coeffs[0] = coeffs.get(0, 0) + sign * coeff
        else:
            raise PolyParseError("expected a term", i)
        first = False
        i = skip_ws(i)
    out = [0] * (max(coeffs) + 1 if coeffs else 0)
    for k, c in coeffs.items():
        out[k] = c
    return IntPolynomial(out)


# ---------------------------------------------------------------------------
# report building


def _report(command: str, inputs: dict, results: dict) -> dict:
    return {
        "command": command,
        "engine_version": __version__,
        "inputs": inputs,
        "results": results,
    }


def _ideal_dict(ideal) -> dict:
    return {
        "phi": str(ideal.phi),
        "e": ideal.e,
        "f": ideal.f,
        "slope": None if ideal.side_slope is None else str(ideal.side_slope),
        "residual_factor": None
        if ideal.residual_factor is None
        else str(ideal.residual_factor),
    }


def _factorization_dict(rep) -> dict:
    return {
        "p": str(rep.p),
        "is_regular": rep.is_regular,
        "index_valuation": rep.index_valuation,
        "index_is_exact": rep.index_is_exact,
        "ideals": [_ideal_dict(i) for i in rep.ideals],
        "ef_multiset": [list(ef) for ef in rep.ef_multiset()],
    }


def _witness_dict(witness) -> dict | None:
    if witness is None:
        return None
    p, fdeg, count, bound = witness
    return {
        "p": str(p),
        "residue_degree": fdeg,
        "ideal_count": count,
        "irreducible_count": bound,
    }


def _verdict_dict(verdict) -> dict:
    return {
        "status": verdict.status.name,
        "witness": _witness_dict(verdict.witness),
        "witnesses": [_witness_dict(w) for w in verdict.witnesses],
        "index_valuations": [
            {"p": str(p), "valuation": v, "exact": exact}
            for p, v, exact in verdict.index_valuations
        ],
        "per_prime": [_factorization_dict(r) for r in verdict.per_prime_reports],
        "notes": list(verdict.notes),
    }


def _polygon_dict(poly, residuals, residual_factors) -> dict:
    sides = []
    for residual, factors in zip(residuals, residual_factors):
        side = residual.side
        sides.append(
            {
                "start": list(side.start),
                "end": list(side.end),
                "slope": str(side.slope),
                "length": side.length,
                "height": side.height,
                "degree": side.degree,
                "e": side.e,
                "residual": {
                    "poly": str(residual.poly),
                    "unit": str(residual.poly.leading()),
                    "factors": [
                        {"factor": str(psi), "multiplicity": mult}
                        for psi, mult in factors
                    ],
                },
            }
        )
    return {
        "phi": str(poly.phi),
        "points": [list(pt) for pt in poly.points],
        "vertices": [list(v) for v in poly.vertices],
        "principal_vertices": [list(v) for v in poly.principal_vertices],
        "sides": sides,
        "phi_index": poly.phi.degree * _principal_lattice_count(poly.principal_sides),
        "render": render_polygon(poly),
    }


def _irreducibility_screen(f: IntPolynomial) -> list[str]:
    """Rational-root and mod-q screens; warnings only, never a refusal."""
    if f.degree < 1:
        return ["f is constant"]
    notes = []
    const = f[0]
    if const == 0:
        notes.append("warning: f(0) = 0, so f is reducible; results assume irreducibility")
        return notes
    for r in _divisor_candidates(abs(const)):
        for root in (r, -r):
            if f(root) == 0:
                notes.append(
                    f"warning: f({root}) = 0, so f is reducible; results assume irreducibility"
                )
                return notes
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23):
        if FpPolynomial(q, f.coeffs).is_irreducible():
            return []  # monic and irreducible mod q, hence irreducible over Q
    notes.append(
        "note: irreducibility of f over Q was screened but not verified; "
        "results assume it"
    )
    return notes


def _divisor_candidates(n: int, cap: int = 10_000):
    out = []
    d = 1
    while d * d <= n and d <= cap:
        if n % d == 0:
            out.append(d)
            out.append(n // d)
        d += 1
    return sorted(set(out))


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (report dict, text string, csv string|None)


def _cmd_classify(args) -> tuple:
    bound = _squarefree_bound()
    mode = args.mode
    if args.n != 12 and mode in ("theorem", "both"):
        raise EngineError(
            f"the congruence route only covers n = 12 (got n = {args.n}); "
            "use --mode engine"
        )
    results: dict = {}
    text = [f"m = {args.m}  (mod 4: {args.m % 4}, mod 9: {args.m % 9}),  n = {args.n}"]
    theorem = engine = None
    if mode in ("theorem", "both"):
        theorem = classify_theorem(args.m, args.n)
        results["theorem"] = {"status": theorem.status.name}
        text.append(f"theorem route: {theorem.status.name}")
    if mode in ("engine", "both"):
        engine = classify_engine(args.m, args.n, squarefree_bound=bound)
        results["engine"] = _verdict_dict(engine)
        text.append(f"engine route:  {engine.status.name}")
        text.extend(_verdict_text(engine))
    if theorem is not None and engine is not None:
        results["agree"] = theorem.status is engine.status
        text.append(f"routes agree: {'yes' if results['agree'] else 'NO'}")
    report = _report(
        "classify",
        {"m": str(args.m), "n": args.n, "mode": mode},
        results,
    )
    return report, "\n".join(text), None


def _verdict_text(verdict) -> list[str]:
    lines = []
    vals = ", ".join(
        f"v_{p}(index) = {v}{' (exact)' if exact else '+ (lower bound)'}"
        for p, v, exact in verdict.index_valuations
    )
    lines.append(f"  {vals}")
    for w in verdict.witnesses:
        p, fdeg, count, bound = w
        lines.append(
            f"  witness at p = {p}: {count} primes of residue degree {fdeg}, "
            f"but only {bound} monic irreducible degree-{fdeg} polynomials over F_{p}"
        )
    for rep in verdict.per_prime_reports:
        shape = " ".join(f"(e={e},f={f})" for e, f in rep.ef_multiset())
        lines.append(f"  {rep.p}Z_K shape: {shape}")
    for note in verdict.notes:
        lines.append(f"  {note}")
    return lines


def _cmd_factor(args) -> tuple:
    f = parse_poly(args.f)
    p = args.p
    if f.degree < 1:
        raise EngineError("f must have degree >= 1")
    if not f.is_monic():
        raise EngineError("f must be monic")
    notes = _irreducibility_screen(f)
    verdict = dedekind_test(f, p)
    reports = _analyze(f, p)
    factors = [(r.phibar, r.multiplicity) for r in reports]
    polygons = [_polygon_dict(r.polygon, r.residuals, r.residual_factors) for r in reports]
    results: dict = {
        "dedekind": {
            "divides_index": verdict.divides_index,
            "failing_phi": None
            if verdict.failing_phi is None
            else str(verdict.failing_phi),
        },
        "factor_mod_p": [
            {"phi": str(phibar), "multiplicity": mult} for phibar, mult in factors
        ],
        "polygons": polygons,
        "notes": notes,
    }
    text = [f"f = {f},  p = {p}"]
    text.extend(notes)
    fbar = " * ".join(
        f"({phibar})" + (f"^{mult}" if mult > 1 else "") for phibar, mult in factors
    )
    text.append(f"f mod {p} = {fbar}")
    if verdict.divides_index:
        text.append(
            f"Dedekind: {p} DIVIDES the index (failing factor {verdict.failing_phi})"
        )
    else:
        text.append(f"Dedekind: {p} does not divide the index")
    for pd in polygons:
        text.append(f"phi = {pd['phi']}:")
        text.append(
            "  principal vertices: "
            + " ".join(f"({x},{y})" for x, y in pd["principal_vertices"])
        )
        for sd in pd["sides"]:
            text.append(
                f"  side {tuple(sd['start'])}->{tuple(sd['end'])}: slope {sd['slope']}, "
                f"l={sd['length']} h={sd['height']} d={sd['degree']} e={sd['e']}"
            )
            fstr = " * ".join(
                f"({fd['factor']})" + (f"^{fd['multiplicity']}" if fd["multiplicity"] > 1 else "")
                for fd in sd["residual"]["factors"]
            )
            text.append(f"    residual: {sd['residual']['poly']}  =  [{sd['residual']['unit']}] {fstr}")
        text.append(f"  phi-index: {pd['phi_index']}")
        text.append(pd["render"])
    try:
        rep = _factorization(reports, f.degree, p)
        results["factorization"] = _factorization_dict(rep)
        text.append("prime ideals above p (e = ramification index, f = residue degree):")
        for ideal in rep.ideals:
            extra = ""
            if ideal.side_slope is not None:
                extra = f"  slope={ideal.side_slope}  psi={ideal.residual_factor}"
            text.append(f"  e={ideal.e} f={ideal.f}  phi={ideal.phi}{extra}")
        exact = "exact" if rep.index_is_exact else "lower bound"
        text.append(
            f"sum e*f = {sum(i.e * i.f for i in rep.ideals)};  "
            f"v_{p}(index) = {rep.index_valuation} ({exact})"
        )
    except NotRegular as exc:
        results["factorization"] = None
        results["refusal"] = {
            "reason": "not p-regular",
            "index_lower_bound": exc.lower_bound,
        }
        text.append(
            f"not {p}-regular: factorization refused; "
            f"v_{p}(index) >= {exc.lower_bound}"
        )
    report = _report("factor", {"f": str(f), "p": str(p)}, results)
    return report, "\n".join(text), None


def _cmd_polygon(args) -> tuple:
    f = parse_poly(args.f)
    phi = parse_poly(args.phi)
    p = args.p
    expansion, field = _expand(f, phi, p)
    poly = _polygon(expansion, p)
    residuals = [_residual(expansion, field, side) for side in poly.principal_sides]
    pd = _polygon_dict(poly, residuals, [factor_ext(r.poly) for r in residuals])
    report = _report(
        "polygon", {"f": str(f), "phi": str(phi), "p": str(p)}, pd
    )
    text = [
        f"f = {f},  phi = {phi},  p = {p}",
        "vertices: " + " ".join(f"({x},{y})" for x, y in pd["vertices"]),
        "principal vertices: "
        + " ".join(f"({x},{y})" for x, y in pd["principal_vertices"]),
    ]
    for sd in pd["sides"]:
        text.append(
            f"side {tuple(sd['start'])}->{tuple(sd['end'])}: slope {sd['slope']}, "
            f"l={sd['length']} h={sd['height']} d={sd['degree']} e={sd['e']}"
        )
        text.append(f"  residual: {sd['residual']['poly']}")
    text.append(f"phi-index: {pd['phi_index']}")
    text.append(pd["render"])
    return report, "\n".join(text), None


_CSV_COLUMNS = [
    "m",
    "mod4",
    "mod9",
    "status_theorem",
    "status_engine",
    "agree",
    "witness_p",
    "witness_f",
    "witness_count",
    "witness_bound",
]


def _cmd_sweep(args) -> tuple:
    match = re.fullmatch(r"\s*(-?\d+)\.\.(-?\d+)\s*", args.range)
    if match is None:
        raise PolyParseError("range must look like 'a..b'", 0)
    lo, hi = int(match.group(1)), int(match.group(2))
    if lo > hi:
        raise EngineError(f"empty range {lo}..{hi}")
    bound = _squarefree_bound()
    rows = []
    for m in range(lo, hi + 1):
        if m in (-1, 0, 1):
            continue
        if args.mod4 is not None and m % 4 != args.mod4:
            continue
        if args.mod9 is not None and m % 9 != args.mod9:
            continue
        try:
            inp = PureFieldInput(m=m, squarefree_bound=bound)
        except NotSquarefree:
            continue
        row = {
            "m": str(m),
            "mod4": m % 4,
            "mod9": m % 9,
            "status_theorem": None,
            "status_engine": None,
            "agree": None,
            "witness_p": None,
            "witness_f": None,
            "witness_count": None,
            "witness_bound": None,
        }
        theorem = engine = None
        if args.mode in ("theorem", "both"):
            theorem = _classify_theorem(inp)
            row["status_theorem"] = theorem.status.name
        if args.mode in ("engine", "both"):
            engine = _classify_engine(inp)
            row["status_engine"] = engine.status.name
            if engine.witness is not None:
                p, fdeg, count, nf = engine.witness
                row.update(
                    witness_p=str(p),
                    witness_f=fdeg,
                    witness_count=count,
                    witness_bound=nf,
                )
        if theorem is not None and engine is not None:
            row["agree"] = theorem.status is engine.status
        rows.append(row)
    report = _report(
        "sweep",
        {
            "range": f"{lo}..{hi}",
            "mode": args.mode,
            "mod4": args.mod4,
            "mod9": args.mod9,
        },
        {"rows": rows, "count": len(rows)},
    )
    out = io.StringIO()
    out.write(",".join(_CSV_COLUMNS) + "\n")
    for row in rows:
        out.write(
            ",".join("" if row[c] is None else str(row[c]) for c in _CSV_COLUMNS) + "\n"
        )
    csv_text = out.getvalue()
    text_lines = [f"sweep {lo}..{hi} ({len(rows)} squarefree m)"]
    for row in rows:
        status = row["status_engine"] or row["status_theorem"]
        wit = ""
        if row["witness_p"] is not None:
            wit = (
                f"  witness p={row['witness_p']} f={row['witness_f']} "
                f"P={row['witness_count']} > N={row['witness_bound']}"
            )
        text_lines.append(f"  m = {row['m']:>6}: {status}{wit}")
    return report, "\n".join(text_lines), csv_text


def _squarefree_bound() -> int:
    env = os.environ.get(ENV_SQUAREFREE_BOUND)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise UsageError(f"{ENV_SQUAREFREE_BOUND} must be an integer, got {env!r}") from None
    return DEFAULT_SQUAREFREE_BOUND


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orefactor",
        description=(
            "Exact prime factorization in number rings via Newton polygons, "
            "index tests, and monogenity classification of pure fields"
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    classify = sub.add_parser(
        "classify", help="decide monogenity of Q(m^(1/n)) for squarefree m"
    )
    classify.add_argument("--m", type=int, required=True, help="squarefree integer, not 0 or +-1")
    classify.add_argument("--n", type=int, default=12, help="field degree (default 12)")
    classify.add_argument(
        "--mode", choices=["theorem", "engine", "both"], default="both"
    )
    classify.add_argument("--format", choices=["text", "json"], default="text")
    classify.add_argument("--out", default=None, help="write output to a file")
    classify.set_defaults(handler=_cmd_classify)

    factor = sub.add_parser(
        "factor", help="factor p in Z[x]/(f): index test, polygons, ideal table"
    )
    factor.add_argument("--f", required=True, help="monic integer polynomial in x")
    factor.add_argument("--p", type=int, required=True, help="rational prime")
    factor.add_argument("--format", choices=["text", "json"], default="text")
    factor.add_argument("--out", default=None)
    factor.set_defaults(handler=_cmd_factor)

    polygon = sub.add_parser(
        "polygon", help="Newton polygon of f with respect to phi and p"
    )
    polygon.add_argument("--f", required=True)
    polygon.add_argument("--phi", required=True, help="monic polynomial, irreducible mod p")
    polygon.add_argument("--p", type=int, required=True)
    polygon.add_argument("--format", choices=["text", "json"], default="text")
    polygon.add_argument("--out", default=None)
    polygon.set_defaults(handler=_cmd_polygon)

    sweep = sub.add_parser("sweep", help="classify every squarefree m in a range")
    sweep.add_argument("--range", required=True, help="inclusive range, e.g. 2..50 or -50..50")
    sweep.add_argument("--mode", choices=["theorem", "engine", "both"], default="both")
    sweep.add_argument("--mod4", type=int, default=None, help="keep only m with m %% 4 == MOD4")
    sweep.add_argument("--mod9", type=int, default=None, help="keep only m with m %% 9 == MOD9")
    sweep.add_argument("--format", choices=["text", "json", "csv"], default="text")
    sweep.add_argument("--out", default=None)
    sweep.set_defaults(handler=_cmd_sweep)
    return parser


def to_canonical_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report, text, csv_text = args.handler(args)
    except (PolyParseError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    fmt = getattr(args, "format", "text")
    if fmt == "json":
        payload = to_canonical_json(report)
    elif fmt == "csv":
        if csv_text is None:
            print("error: csv output is only available for sweep", file=sys.stderr)
            return 2
        payload = csv_text
    else:
        payload = text + "\n"
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(payload)
    else:
        sys.stdout.write(payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
