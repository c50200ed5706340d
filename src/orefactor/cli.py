"""Command-line front end: classify, factor, polygon, sweep.

Output formats: text (default), json (canonical: sorted keys, 2-space
indent, so re-parsing and re-serializing is byte-identical), and csv
for sweeps.  User-scale integers (m, p, polynomial coefficients) are
serialized as decimal strings in JSON so consumers without big-integer
support never truncate; structural values (degrees, vertices, e, f,
indices) stay plain ints.

Exit codes: 0 success, 1 domain error, 2 parse/usage error.

Size contract: factor and polygon refuse a polynomial f or phi of degree
above _MAX_DEGREE, and classify refuses n above it (exit 1).  The
library itself has no such limit.  Its cost grows about as the cube of
the degree, and further with log p; near _MAX_DEGREE a call over a prime
near 2^61 takes up to about a second, where the parser alone would let
degrees up to _MAX_EXPONENT through.  sweep --range has no width limit:
its cost is linear in the width, about 1 ms per m, and its report holds
one row per squarefree m.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys

from . import __version__
from .errors import EngineError, NotRegular, NotSquarefree, PolyParseError
from .ffield import FpPolynomial
from .intpoly import IntPolynomial
from .monogenity import (
    DEFAULT_SQUAREFREE_BOUND,
    PureFieldInput,
    _classify_engine,
    _classify_theorem,
)
from .ore import _analyze, _factorization, _phi_report, dedekind_test
from .polygon import _expand, render_polygon

ENV_SQUAREFREE_BOUND = "OREFACTOR_SQUAREFREE_BOUND"
_MAX_EXPONENT = 100_000
_MAX_DEGREE = 100  # the paper needs 12
_DIVISOR_SCAN_CAP = 10_000  # rational-root screen: divisors tried up to this


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
        if i < n and text[i].isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            if j < n and text[j] == ".":
                raise NonIntegerCoefficient("coefficients must be integers", j)
            coeff = _int_literal(text[i:j], i)
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
                if j >= n or not text[j].isdecimal():
                    raise PolyParseError("expected an exponent after '^'", j)
                start = j
                while j < n and text[j].isdecimal():
                    j += 1
                digits = text[start:j].lstrip("0")  # by length first: int() caps digits
                if len(digits) > len(str(_MAX_EXPONENT)) or int(digits or 0) > _MAX_EXPONENT:
                    raise PolyParseError("exponent too large", start)
                k = int(digits or 0)
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


def _int_literal(digits: str, position: int) -> int:
    """int(digits); a PolyParseError beyond sys.get_int_max_str_digits()."""
    try:
        return int(digits)
    except ValueError:
        raise PolyParseError("integer literal too long", position) from None


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
    # both flags are constant: only a p-regular f yields a factorization
    return {
        "p": str(rep.p),
        "is_regular": True,
        "index_valuation": rep.index_valuation,
        "index_is_exact": True,
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


def _polygon_dict(report) -> dict:
    """The polygon payload of one ore._phi_report."""
    poly = report.polygon
    sides = []
    for residual, factors in zip(report.residuals, report.residual_factors):
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
        "phi_index": report.index,
        "render": render_polygon(poly),
    }


def _irreducibility_screen(f: IntPolynomial) -> list[str]:
    """Rational-root and mod-q screens of a monic nonconstant f; warnings
    only, never a refusal."""
    for r in _divisor_candidates(abs(f[0])) if f[0] else [0]:
        for root in (r, -r):
            if f(root) == 0:
                return [
                    f"warning: f({root}) = 0, so f is reducible; results assume irreducibility"
                ]
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23):
        if FpPolynomial(q, f.coeffs).is_irreducible():
            return []  # monic and irreducible mod q, hence irreducible over Q
    return [
        "note: irreducibility of f over Q was screened but not verified; "
        "results assume it"
    ]


def _divisor_candidates(n: int):
    small = [d for d in range(1, min(math.isqrt(n), _DIVISOR_SCAN_CAP) + 1) if n % d == 0]
    return sorted({x for d in small for x in (d, n // d)})


# ---------------------------------------------------------------------------
# subcommand handlers: each returns the report dict


def _check_size(name: str, degree: int) -> None:
    if degree > _MAX_DEGREE:
        raise EngineError(
            f"{name} = {degree} is above the CLI's size limit D = {_MAX_DEGREE}"
        )


def _classify_routes(inp: PureFieldInput, mode: str) -> tuple:
    """(theorem verdict, engine verdict, agree) on one certified input; None
    for a route that mode leaves out, and agree None unless both ran."""
    theorem = None if mode == "engine" else _classify_theorem(inp)
    engine = None if mode == "theorem" else _classify_engine(inp)
    agree = theorem.status is engine.status if theorem and engine else None
    return theorem, engine, agree


def _cmd_classify(args) -> dict:
    bound = _squarefree_bound()
    if args.n != 12 and args.mode in ("theorem", "both"):
        raise EngineError(
            f"the congruence route only covers n = 12 (got n = {args.n}); "
            "use --mode engine"
        )
    _check_size("n", args.n)
    inp = PureFieldInput(m=args.m, n=args.n, squarefree_bound=bound)
    theorem, engine, agree = _classify_routes(inp, args.mode)
    results: dict = {}
    if theorem is not None:
        results["theorem"] = {"status": theorem.status.name}
    if engine is not None:
        results["engine"] = _verdict_dict(engine)
    if agree is not None:
        results["agree"] = agree
    return _report("classify", {"m": str(args.m), "n": args.n, "mode": args.mode}, results)


def _cmd_factor(args) -> dict:
    f = parse_poly(args.f)
    p = args.p
    if f.degree < 1:
        raise EngineError("f must have degree >= 1")
    if not f.is_monic():
        raise EngineError("f must be monic")
    _check_size("deg f", f.degree)
    notes = _irreducibility_screen(f)
    verdict = dedekind_test(f, p)
    reports = _analyze(f, p, full=True)  # the polygons print every point
    results: dict = {
        "dedekind": {
            "divides_index": verdict.divides_index,
            "failing_phi": None
            if verdict.failing_phi is None
            else str(verdict.failing_phi),
        },
        "factor_mod_p": [
            {"phi": str(r.phibar), "multiplicity": r.multiplicity} for r in reports
        ],
        "polygons": [_polygon_dict(r) for r in reports],
        "notes": notes,
    }
    try:
        results["factorization"] = _factorization_dict(_factorization(reports, f.degree, p))
    except NotRegular as exc:
        results["factorization"] = None
        results["refusal"] = {
            "reason": "not p-regular",
            "index_lower_bound": exc.lower_bound,
        }
    return _report("factor", {"f": str(f), "p": str(p)}, results)


def _cmd_polygon(args) -> dict:
    f = parse_poly(args.f)
    phi = parse_poly(args.phi)
    p = args.p
    _check_size("deg f", f.degree)
    _check_size("deg phi", phi.degree)
    pd = _polygon_dict(_phi_report(*_expand(f, phi, p)))
    return _report("polygon", {"f": str(f), "phi": str(phi), "p": str(p)}, pd)


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


def _cmd_sweep(args) -> dict:
    match = re.fullmatch(r"\s*(-?\d+)\.\.(-?\d+)\s*", args.range)
    if match is None:
        raise PolyParseError("range must look like 'a..b'", 0)
    lo, hi = (_int_literal(match.group(k), match.start(k)) for k in (1, 2))
    if lo > hi:
        raise EngineError(f"empty range {lo}..{hi}")
    bound = _squarefree_bound()
    rows = []
    for m in range(lo, hi + 1):
        if m in (-1, 0, 1) or args.mod4 not in (None, m % 4) or args.mod9 not in (None, m % 9):
            continue
        try:
            inp = PureFieldInput(m=m, squarefree_bound=bound)
        except NotSquarefree:
            continue
        theorem, engine, agree = _classify_routes(inp, args.mode)
        row = dict.fromkeys(_CSV_COLUMNS)
        row.update(m=str(m), mod4=m % 4, mod9=m % 9, agree=agree)
        if theorem is not None:
            row["status_theorem"] = theorem.status.name
        if engine is not None:
            row["status_engine"] = engine.status.name
            if engine.witness is not None:
                p, fdeg, count, nf = engine.witness
                row.update(
                    witness_p=str(p),
                    witness_f=fdeg,
                    witness_count=count,
                    witness_bound=nf,
                )
        rows.append(row)
    return _report(
        "sweep",
        {
            "range": f"{lo}..{hi}",
            "mode": args.mode,
            "mod4": args.mod4,
            "mod9": args.mod9,
        },
        {"rows": rows, "count": len(rows)},
    )


def _squarefree_bound() -> int:
    env = os.environ.get(ENV_SQUAREFREE_BOUND, str(DEFAULT_SQUAREFREE_BOUND))
    try:
        return int(env)
    except ValueError:
        raise UsageError(f"{ENV_SQUAREFREE_BOUND} must be an integer, got {env!r}") from None


# ---------------------------------------------------------------------------
# text and csv rendering: each renderer reads only the report dict


def _power(base: str, multiplicity: int) -> str:
    return f"({base})" + (f"^{multiplicity}" if multiplicity > 1 else "")


def _points(points) -> str:
    return " ".join(f"({x},{y})" for x, y in points)


def _polygon_lines(pd: dict, indent: str, residual_text) -> list[str]:
    """One polygon payload: principal vertices, each side and its residual
    (as residual_text renders it), the phi-index and the sketch."""
    lines = [f"{indent}principal vertices: " + _points(pd["principal_vertices"])]
    for sd in pd["sides"]:
        lines.append(
            f"{indent}side {tuple(sd['start'])}->{tuple(sd['end'])}: slope {sd['slope']}, "
            f"l={sd['length']} h={sd['height']} d={sd['degree']} e={sd['e']}"
        )
        lines.append(f"{indent}  residual: {residual_text(sd['residual'])}")
    return lines + [f"{indent}phi-index: {pd['phi_index']}", pd["render"]]


def _factored(residual: dict) -> str:
    fstr = " * ".join(_power(fd["factor"], fd["multiplicity"]) for fd in residual["factors"])
    return f"{residual['poly']}  =  [{residual['unit']}] {fstr}"


def _classify_text(report: dict) -> str:
    inputs, results = report["inputs"], report["results"]
    m = int(inputs["m"])
    lines = [f"m = {m}  (mod 4: {m % 4}, mod 9: {m % 9}),  n = {inputs['n']}"]
    if "theorem" in results:
        lines.append(f"theorem route: {results['theorem']['status']}")
    if "engine" in results:
        lines.append(f"engine route:  {results['engine']['status']}")
        lines.extend(_verdict_text(results["engine"]))
    if "agree" in results:
        lines.append(f"routes agree: {'yes' if results['agree'] else 'NO'}")
    return "\n".join(lines)


def _verdict_text(verdict: dict) -> list[str]:
    vals = ", ".join(
        f"v_{v['p']}(index) = {v['valuation']}"
        + (" (exact)" if v["exact"] else "+ (lower bound)")
        for v in verdict["index_valuations"]
    )
    lines = [f"  {vals}"]
    for w in verdict["witnesses"]:
        p, fdeg = w["p"], w["residue_degree"]
        lines.append(
            f"  witness at p = {p}: {w['ideal_count']} primes of residue degree {fdeg}, "
            f"but only {w['irreducible_count']} monic irreducible degree-{fdeg} "
            f"polynomials over F_{p}"
        )
    for rep in verdict["per_prime"]:
        shape = " ".join(f"(e={e},f={f})" for e, f in rep["ef_multiset"])
        lines.append(f"  {rep['p']}Z_K shape: {shape}")
    lines.extend(f"  {note}" for note in verdict["notes"])
    return lines


def _factor_text(report: dict) -> str:
    inputs, results = report["inputs"], report["results"]
    p = inputs["p"]
    lines = [f"f = {inputs['f']},  p = {p}", *results["notes"]]
    fbar = " * ".join(_power(r["phi"], r["multiplicity"]) for r in results["factor_mod_p"])
    lines.append(f"f mod {p} = {fbar}")
    dedekind = results["dedekind"]
    if dedekind["divides_index"]:
        lines.append(
            f"Dedekind: {p} DIVIDES the index (failing factor {dedekind['failing_phi']})"
        )
    else:
        lines.append(f"Dedekind: {p} does not divide the index")
    for pd in results["polygons"]:
        lines.append(f"phi = {pd['phi']}:")
        lines.extend(_polygon_lines(pd, "  ", _factored))
    rep = results["factorization"]
    if rep is None:
        bound = results["refusal"]["index_lower_bound"]
        lines.append(f"not {p}-regular: factorization refused; v_{p}(index) >= {bound}")
        return "\n".join(lines)
    lines.append("prime ideals above p (e = ramification index, f = residue degree):")
    for ideal in rep["ideals"]:
        extra = ""
        if ideal["slope"] is not None:
            extra = f"  slope={ideal['slope']}  psi={ideal['residual_factor']}"
        lines.append(f"  e={ideal['e']} f={ideal['f']}  phi={ideal['phi']}{extra}")
    lines.append(
        f"sum e*f = {sum(i['e'] * i['f'] for i in rep['ideals'])};  "
        f"v_{p}(index) = {rep['index_valuation']} (exact)"
    )
    return "\n".join(lines)


def _polygon_text(report: dict) -> str:
    inputs, pd = report["inputs"], report["results"]
    lines = [
        f"f = {inputs['f']},  phi = {inputs['phi']},  p = {inputs['p']}",
        "vertices: " + _points(pd["vertices"]),
    ]
    return "\n".join(lines + _polygon_lines(pd, "", lambda residual: residual["poly"]))


def _sweep_text(report: dict) -> str:
    results = report["results"]
    lines = [f"sweep {report['inputs']['range']} ({results['count']} squarefree m)"]
    for row in results["rows"]:
        status = row["status_engine"] or row["status_theorem"]
        wit = ""
        if row["witness_p"] is not None:
            wit = (
                f"  witness p={row['witness_p']} f={row['witness_f']} "
                f"P={row['witness_count']} > N={row['witness_bound']}"
            )
        lines.append(f"  m = {row['m']:>6}: {status}{wit}")
    return "\n".join(lines)


def _sweep_csv(report: dict) -> str:
    lines = [",".join(_CSV_COLUMNS)]
    for row in report["results"]["rows"]:
        lines.append(",".join("" if row[c] is None else str(row[c]) for c in _CSV_COLUMNS))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def _output_options(command, handler, render, formats=("text", "json")) -> None:
    command.add_argument("--format", choices=formats, default="text")
    command.add_argument("--out", default=None, help="write output to a file")
    command.set_defaults(handler=handler, render=render)


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
    _output_options(classify, _cmd_classify, _classify_text)

    factor = sub.add_parser(
        "factor", help="factor p in Z[x]/(f): index test, polygons, ideal table"
    )
    factor.add_argument("--f", required=True, help="monic integer polynomial in x")
    factor.add_argument("--p", type=int, required=True, help="rational prime")
    _output_options(factor, _cmd_factor, _factor_text)

    polygon = sub.add_parser(
        "polygon", help="Newton polygon of f with respect to phi and p"
    )
    polygon.add_argument("--f", required=True)
    polygon.add_argument("--phi", required=True, help="monic polynomial, irreducible mod p")
    polygon.add_argument("--p", type=int, required=True)
    _output_options(polygon, _cmd_polygon, _polygon_text)

    sweep = sub.add_parser("sweep", help="classify every squarefree m in a range")
    sweep.add_argument("--range", required=True, help="inclusive range, e.g. 2..50 or -50..50")
    sweep.add_argument("--mode", choices=["theorem", "engine", "both"], default="both")
    for k in (4, 9):
        text = f"keep only m with m %% {k} == MOD{k}, 0 <= MOD{k} < {k}"
        sweep.add_argument(f"--mod{k}", type=int, choices=range(k), metavar=f"MOD{k}", help=text)
    _output_options(sweep, _cmd_sweep, _sweep_text, formats=("text", "json", "csv"))
    return parser


def to_canonical_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report = args.handler(args)
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, (PolyParseError, UsageError)) else 1
    if args.format == "json":
        payload = to_canonical_json(report)
    elif args.format == "csv":
        payload = _sweep_csv(report)
    else:
        payload = args.render(report) + "\n"
    if not args.out:
        sys.stdout.write(payload)
        return 0
    try:
        with open(args.out, "w") as handle:
            handle.write(payload)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
