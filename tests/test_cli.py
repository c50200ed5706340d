import contextlib
import importlib.util
import io
import json
import random
import sys
from datetime import timedelta
from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from conftest import FUZZ_SEED, is_squarefree_int, run_snippet
from orefactor.cli import (
    NonIntegerCoefficient,
    main,
    parse_poly,
    to_canonical_json,
)
from orefactor.errors import PolyParseError
from orefactor.intpoly import IntPolynomial
from orefactor.ore import ore_factor


class TestParsePoly:
    def test_examples(self):
        assert parse_poly("x^12-33") == IntPolynomial.pure(12, 33)
        assert parse_poly("x^2+x+1") == IntPolynomial([1, 1, 1])
        assert parse_poly("-144*x+89") == IntPolynomial([89, -144])

    def test_whitespace_and_implicit_star(self):
        assert parse_poly("  x ^ 2  -  3 * x + 4 ") == IntPolynomial([4, -3, 1])
        assert parse_poly("3x^2") == IntPolynomial([0, 0, 3])
        assert parse_poly("2x") == IntPolynomial([0, 2])

    def test_constants_and_merging(self):
        assert parse_poly("5") == IntPolynomial([5])
        assert parse_poly("-0") == IntPolynomial([])
        assert parse_poly("x + x") == IntPolynomial([0, 2])
        assert parse_poly("x^2 - x^2 + 1") == IntPolynomial([1])

    def test_error_positions(self):
        with pytest.raises(PolyParseError) as err:
            parse_poly("x^2 + + 3")
        assert err.value.position == 6
        with pytest.raises(PolyParseError):
            parse_poly("")
        with pytest.raises(PolyParseError):
            parse_poly("x^")
        with pytest.raises(PolyParseError):
            parse_poly("3*")
        with pytest.raises(PolyParseError):
            parse_poly("y + 1")
        for text, position in [("x^²", 2), ("₂x", 0)]:
            with pytest.raises(PolyParseError) as err:
                parse_poly(text)
            assert err.value.position == position

    def test_non_integer_coefficient(self):
        with pytest.raises(NonIntegerCoefficient):
            parse_poly("1.5*x")
        with pytest.raises(NonIntegerCoefficient):
            parse_poly("x + 0.25")

    def test_enormous_exponent_rejected(self):
        with pytest.raises(PolyParseError):
            parse_poly("x^99999999")

    def test_roundtrip_random(self):
        rng = random.Random(4)
        for _ in range(300):
            f = IntPolynomial(
                [rng.randint(-99, 99) for _ in range(rng.randint(0, 13))]
            )
            assert parse_poly(str(f)) == f

    @given(st.lists(st.integers(-10**9, 10**9), min_size=0, max_size=14))
    @settings(max_examples=150)
    def test_roundtrip_property(self, coeffs):
        f = IntPolynomial(coeffs)
        assert parse_poly(str(f)) == f


class TestCliCommands:
    def test_classify_text(self, capsys):
        assert main(["classify", "--m", "33"]) == 0
        out = capsys.readouterr().out
        assert "NOT_MONOGENIC" in out
        assert "routes agree: yes" in out

    def test_classify_json_canonical(self, capsys):
        assert main(["classify", "--m", "41", "--format", "json"]) == 0
        out = capsys.readouterr().out
        assert json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n" == out
        doc = json.loads(out)
        assert doc["command"] == "classify"
        assert doc["inputs"]["m"] == "41"
        engine = doc["results"]["engine"]
        assert engine["status"] == "NOT_MONOGENIC"
        assert engine["witness"] == {
            "p": "2",
            "residue_degree": 2,
            "ideal_count": 4,
            "irreducible_count": 1,
        }

    def test_classify_modes(self, capsys):
        assert main(["classify", "--m", "10", "--mode", "theorem"]) == 0
        out = capsys.readouterr().out
        assert "engine" not in out
        assert main(["classify", "--m", "10", "--mode", "engine"]) == 0

    def test_factor_json_schema(self, capsys):
        assert main(["factor", "--f", "x^12-13", "--p", "2", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        res = doc["results"]
        assert res["dedekind"]["divides_index"] is True
        shapes = sorted(tuple(ef) for ef in res["factorization"]["ef_multiset"])
        assert shapes == [(2, 2), (2, 2), (2, 2)]
        polys = {pd["phi"]: pd for pd in res["polygons"]}
        assert polys["x + 1"]["principal_vertices"] == [[0, 2], [4, 0]]
        assert polys["x + 1"]["sides"][0]["residual"]["poly"] == "y^2 + y + 1"

    def test_factor_not_regular_refusal(self, capsys):
        assert main(["factor", "--f", "x^4+3*x^2+9", "--p", "3", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["results"]["factorization"] is None
        assert doc["results"]["refusal"]["index_lower_bound"] == 2
        assert main(["factor", "--f", "x^4+3*x^2+9", "--p", "3", "--format", "text"]) == 0
        last = capsys.readouterr().out.splitlines()[-1]
        assert last == "not 3-regular: factorization refused; v_3(index) >= 2"

    def test_polygon_command(self, capsys):
        assert main(["polygon", "--f", "x^12-41", "--phi", "x-1", "--p", "2"]) == 0
        out = capsys.readouterr().out
        assert "(0,3) (2,1) (4,0)" in out
        assert "phi-index: 3" in out

    def test_polygon_json(self, capsys):
        assert main(
            ["polygon", "--f", "x^12-41", "--phi", "x^2+x+1", "--p", "2", "--format", "json"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["results"]["phi_index"] == 6
        assert doc["results"]["principal_vertices"] == [[0, 3], [2, 1], [4, 0]]

    def test_sweep_csv_row_count(self, capsys):
        assert main(["sweep", "--range", "2..50", "--format", "csv"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        expected = sum(1 for m in range(2, 51) if is_squarefree_int(m))
        assert len(lines) - 1 == expected
        header = lines[0].split(",")
        assert header[0] == "m" and "status_engine" in header
        for line in lines[1:]:
            row = dict(zip(header, line.split(",")))
            assert row["agree"] == "True"

    def test_sweep_residue_filters(self, capsys):
        assert main(
            ["sweep", "--range", "2..100", "--mod4", "1", "--format", "csv"]
        ) == 0
        lines = capsys.readouterr().out.strip().splitlines()[1:]
        assert lines
        for line in lines:
            m = int(line.split(",")[0])
            assert m % 4 == 1

    @pytest.mark.parametrize(
        "option", ["--mod4=4", "--mod4=7", "--mod4=-1", "--mod9=9", "--mod9=-1"]
    )
    def test_sweep_residue_filter_out_of_range_is_a_usage_error(self, capsys, option):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--range=2..10", option])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "invalid choice" in captured.err

    def test_sweep_negative_range_json(self, capsys):
        # negative bounds need the '=' form so argparse keeps the value intact
        assert main(["sweep", "--range=-10..10", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        ms = [int(row["m"]) for row in doc["results"]["rows"]]
        assert ms == sorted(ms)
        assert -10 in ms and 10 in ms and 0 not in ms and 1 not in ms

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        assert main(
            ["classify", "--m", "7", "--format", "json", "--out", str(target)]
        ) == 0
        assert capsys.readouterr().out == ""
        doc = json.loads(target.read_text())
        assert doc["results"]["engine"]["status"] == "MONOGENIC_Z_ALPHA"

    @pytest.mark.parametrize("where", ["missing directory", "a directory"])
    def test_out_file_unwritable(self, tmp_path, capsys, where):
        target = tmp_path / "missing" / "x.json" if where == "missing directory" else tmp_path
        assert main(["classify", "--m", "33", "--out", str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {target}: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "--m", "33"],
            ["factor", "--f", "x^12-13", "--p", "2"],
            ["polygon", "--f", "x^12-41", "--phi", "x-1", "--p", "2"],
        ],
    )
    def test_csv_only_for_sweep(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--format", "csv"])
        assert exc.value.code == 2
        assert "invalid choice: 'csv'" in capsys.readouterr().err

    def test_exit_code_domain_error(self, capsys):
        assert main(["classify", "--m", "12"]) == 1
        assert "error" in capsys.readouterr().err

    def test_exit_code_parse_error(self, capsys):
        assert main(["factor", "--f", "x^2 + 1.5", "--p", "3"]) == 2
        assert main(["sweep", "--range", "oops"]) == 2

    _LONG = "1" + "0" * 5000  # above Python's 4300-digit int-string limit

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["factor", "--f", f"x^2 + {_LONG}", "--p", "2"], "integer literal too long"),
            (["factor", "--f", f"x^{_LONG}", "--p", "2"], "exponent too large"),
            (["sweep", "--range", f"{_LONG}..{_LONG}"], "integer literal too long"),
        ],
        ids=["coefficient", "exponent", "range"],
    )
    def test_overlong_integer_literal_refused(self, capsys, argv, message):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: {message}") and err.count("\n") == 1

    def test_exit_code_nonprime(self, capsys):
        assert main(["factor", "--f", "x^2+1", "--p", "6"]) == 1

    def test_factor_mod_large_prime(self):
        proc = run_snippet(
            "import sys\n"
            "from orefactor.cli import main\n"
            "sys.exit(main(['factor', '--f', 'x^2-3x+2', '--p', '1000000007', '--format', 'json']))"
        )
        assert proc.returncode == 0, proc.stderr
        phis = [row["phi"] for row in json.loads(proc.stdout)["results"]["factor_mod_p"]]
        assert phis == ["x + 1000000005", "x + 1000000006"]

    def test_pseudoprime_beyond_miller_rabin_bound_refused(self):
        proc = run_snippet(
            "import sys\n"
            "from orefactor.cli import main\n"
            "sys.exit(main(['factor', '--f', 'x^2-3x+2', '--p', '3317044064679887385961981']))"
        )
        assert proc.returncode == 1, proc.stderr
        assert "is not prime" in proc.stderr

    def test_reducible_phi_domain_error(self, capsys):
        assert main(["polygon", "--f", "x^12-10", "--phi", "x^2+1", "--p", "2"]) == 1

    def test_constant_phi_refused_as_no_modulus(self, capsys):
        assert main(["polygon", "--f", "x^2", "--phi", "1", "--p", "2"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: 1 is a constant, not a residue-field modulus\n"

    def test_squarefree_bound_env_override(self, capsys, monkeypatch):
        # a tiny bound makes the semiprime uncertifiable
        monkeypatch.setenv("OREFACTOR_SQUAREFREE_BOUND", "50")
        m = 101 * 103
        assert main(["classify", "--m", str(m)]) == 1
        err = capsys.readouterr().err
        assert "certify" in err
        monkeypatch.delenv("OREFACTOR_SQUAREFREE_BOUND")
        assert main(["classify", "--m", str(m)]) in (0, 1)

    def test_squarefree_bound_governs_theorem_route(self, capsys, monkeypatch):
        monkeypatch.setenv("OREFACTOR_SQUAREFREE_BOUND", "50")
        assert main(["classify", "--m", str(101 * 103), "--mode", "theorem"]) == 1
        assert "certify" in capsys.readouterr().err

    def test_squarefree_bound_env_not_an_integer(self, capsys, monkeypatch):
        monkeypatch.setenv("OREFACTOR_SQUAREFREE_BOUND", "abc")
        assert main(["classify", "--m", "33"]) == 2
        assert "OREFACTOR_SQUAREFREE_BOUND" in capsys.readouterr().err

    def test_constant_f_refused(self, capsys):
        assert main(["factor", "--f", "1", "--p", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "degree" in captured.err

    def test_classify_degree_below_two_refused(self, capsys):
        assert main(["classify", "--m", "33", "--n", "1", "--mode", "engine"]) == 1
        assert "n must be at least 2" in capsys.readouterr().err

    def test_non_monic_phi_refused(self, capsys):
        assert main(["polygon", "--f", "x^12-41", "--phi", "2x-1", "--p", "2"]) == 1
        assert "phi must be monic" in capsys.readouterr().err

    def test_reducible_f_warns_but_runs(self, capsys):
        # (x-1)(x-3) has the rational root screen fire
        assert main(["factor", "--f", "x^2-4*x+3", "--p", "2"]) == 0
        out = capsys.readouterr().out
        assert "reducible" in out


class TestSizeLimit:
    """The CLI's size contract: degree (and n) up to D = 100 is answered,
    above it refused with exit 1; the library itself has no limit."""

    def test_enormous_degree_refused_quickly(self):
        proc = run_snippet(
            "import sys\n"
            "from orefactor.cli import main\n"
            "sys.exit(main(['factor', '--f', 'x^99999-2', '--p', '3']))",
            timeout=2.0,
        )
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr == "error: deg f = 99999 is above the CLI's size limit D = 100\n"
        assert proc.stdout == ""

    @pytest.mark.parametrize(
        "argv, refused",
        [
            (["factor", "--f", "x^100-2", "--p", "2"], None),
            (["factor", "--f", "x^101-2", "--p", "2"], "deg f = 101"),
            (["polygon", "--f", "x^100-2", "--phi", "x", "--p", "2"], None),
            (["polygon", "--f", "x^101-2", "--phi", "x", "--p", "2"], "deg f = 101"),
            (["polygon", "--f", "x^2-2", "--phi", "x^101+x+1", "--p", "2"], "deg phi = 101"),
            (["classify", "--m", "2", "--n", "100", "--mode", "engine"], None),
            (["classify", "--m", "2", "--n", "101", "--mode", "engine"], "n = 101"),
        ],
    )
    def test_boundary(self, capsys, argv, refused):
        code = main(argv)
        err = capsys.readouterr().err
        if refused is None:
            assert code == 0, err
        else:
            assert code == 1
            assert err == f"error: {refused} is above the CLI's size limit D = 100\n"

    def test_degree_50_over_a_61_bit_prime(self):
        """x^50 - 5 mod 2^61 - 1 is a product of two factors of degree 25; a
        fresh interpreter answers in about 0.2 s (2-core VM), where
        schoolbook F_p products and a^((q^d-1)/2) by squaring took 6.4 s."""
        proc = run_snippet(
            "import sys\n"
            "from orefactor.cli import main\n"
            "sys.exit(main(['factor', '--f', 'x^50-5', '--p', '2305843009213693951',"
            " '--format', 'json']))",
            timeout=3.0,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["results"]["factor_mod_p"]

    def test_library_keeps_no_limit(self):
        f = IntPolynomial.pure(150, 2)
        assert ore_factor(f, 2).ef_multiset() == [(150, 1)]


# Option values: small ints, zero, negatives and huge ints (a prime, a
# pseudoprime, powers); a prime m above the squarefree trial bound costs
# about 1 s of trial division, the largest cost drawn here.
_HUGE = [2**61 - 1, -(2**64), 10**30, -(10**30), 2**64 - 1, 3317044064679887385961981]
_INTS = st.one_of(st.integers(-40, 40), st.sampled_from(_HUGE))
_PRIMES = st.one_of(st.sampled_from([2, 3, 5, 7, 13, 97, 10**9 + 7, 2**61 - 1]), _INTS)
# Polynomials: monic of degree <= 12, sparse x^d + c of every legal degree
# d from 13 to D, non-monic or constant, degree above the size limit, and
# malformed text.  Over all 8,888 sparse x^d + c and every prime _PRIMES
# draws, factor and polygon (with phi = f) took at most 1.2 s each in
# process on a 2-core VM (factor x^99 - 16 over 2^61 - 1).
_POLYS = st.one_of(
    st.lists(st.integers(-50, 50), max_size=12).map(lambda cs: str(IntPolynomial(cs + [1]))),
    st.tuples(st.integers(13, 100), st.integers(-50, 50)).map(
        lambda dc: str(IntPolynomial([dc[1]] + [0] * (dc[0] - 1) + [1]))
    ),
    st.lists(_INTS, max_size=6).map(lambda cs: str(IntPolynomial(cs))),
    st.sampled_from([101, 1000, 99999, 100000, 100001]).map(lambda d: f"x^{d}-2"),
    st.text(alphabet="x^+-*.12 y²٣", max_size=12),
)
# Ranges: short ones, empty (reversed) ones, one huge m, and malformed
# text short enough that a well-formed one spans at most a few hundred m.
_RANGES = st.one_of(
    st.tuples(st.integers(-40, 40), st.integers(0, 12)).map(lambda t: f"{t[0]}..{t[0] + t[1]}"),
    st.tuples(st.integers(-40, 40), st.integers(1, 12)).map(lambda t: f"{t[0]}..{t[0] - t[1]}"),
    st.sampled_from(_HUGE).map(lambda h: f"{h}..{h}"),
    st.text(alphabet="0123.- ", max_size=6),
)
_MODES = st.sampled_from(["theorem", "engine", "both", "neither"])


@st.composite
def _argvs(draw):
    def option(name, values, required=True):
        if not required and draw(st.booleans()):
            return []
        value = str(draw(values))
        # "--m -5" is an argparse error (exit 2); "--m=-5" passes the value
        return [f"--{name}={value}"] if draw(st.booleans()) else [f"--{name}", value]

    command = draw(st.sampled_from(["classify", "factor", "polygon", "sweep"]))
    argv = [command]
    if command == "classify":
        argv += option("m", _INTS)
        argv += option("n", st.one_of(_INTS, st.sampled_from([12, 100, 101])), required=False)
        argv += option("mode", _MODES, required=False)
    elif command == "factor":
        argv += option("f", _POLYS) + option("p", _PRIMES)
    elif command == "polygon":
        argv += option("f", _POLYS) + option("phi", _POLYS) + option("p", _PRIMES)
    else:
        argv += option("range", _RANGES) + option("mode", _MODES, required=False)
        argv += option("mod4", _INTS, required=False) + option("mod9", _INTS, required=False)
    return argv + option("format", st.sampled_from(["text", "json", "csv"]), required=False)


class TestCliFuzz:
    @seed(FUZZ_SEED)
    @settings(max_examples=150, deadline=timedelta(seconds=10), database=None)
    @given(argv=_argvs())
    def test_every_argv_ends_in_an_exit_code(self, argv):
        """Exit 0, 1 or 2, or argparse's SystemExit(2); never a traceback."""
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main(argv)
            except SystemExit as exc:
                assert exc.code == 2, argv
                return
        assert code in (0, 1, 2), argv


class TestCanonicalJson:
    def test_roundtrip_bytes(self):
        report = {"b": [1, 2], "a": {"y": "2", "x": None}}
        once = to_canonical_json(report)
        assert to_canonical_json(json.loads(once)) == once


def _perfbench_workloads():
    """perfbench/workloads.py, loaded from its path under a private name."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolves annotations through it
    spec.loader.exec_module(module)
    return module


_WORKLOADS = _perfbench_workloads()
GOLDEN_DIR = _WORKLOADS.GOLDEN_DIR


class TestCliGoldens:
    """The benchmark's cli_cold mix (perfbench/workloads.CLI_MIX), run in
    process: stdout must match the checked-in golden output byte for byte."""

    CASES = dict(_WORKLOADS.CLI_MIX)

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_matches_golden(self, capsys, name):
        manifest = json.loads((GOLDEN_DIR / "manifest.json").read_text())
        assert main(self.CASES[name]) == manifest[name]["exit"]
        assert capsys.readouterr().out.encode() == (GOLDEN_DIR / f"{name}.out").read_bytes()
