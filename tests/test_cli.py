import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import is_squarefree_int
from orefactor.cli import (
    NonIntegerCoefficient,
    main,
    parse_poly,
    to_canonical_json,
)
from orefactor.errors import PolyParseError
from orefactor.intpoly import IntPolynomial


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

    def test_exit_code_domain_error(self, capsys):
        assert main(["classify", "--m", "12"]) == 1
        assert "error" in capsys.readouterr().err

    def test_exit_code_parse_error(self, capsys):
        assert main(["factor", "--f", "x^2 + 1.5", "--p", "3"]) == 2
        assert main(["sweep", "--range", "oops"]) == 2

    def test_exit_code_nonprime(self, capsys):
        assert main(["factor", "--f", "x^2+1", "--p", "6"]) == 1

    def test_reducible_phi_domain_error(self, capsys):
        assert main(["polygon", "--f", "x^12-10", "--phi", "x^2+1", "--p", "2"]) == 1

    def test_squarefree_bound_env_override(self, capsys, monkeypatch):
        # a tiny bound makes the semiprime uncertifiable
        monkeypatch.setenv("OREFACTOR_SQUAREFREE_BOUND", "50")
        m = 101 * 103
        assert main(["classify", "--m", str(m)]) == 1
        err = capsys.readouterr().err
        assert "certify" in err
        monkeypatch.delenv("OREFACTOR_SQUAREFREE_BOUND")
        assert main(["classify", "--m", str(m)]) in (0, 1)

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


class TestCanonicalJson:
    def test_roundtrip_bytes(self):
        report = {"b": [1, 2], "a": {"y": "2", "x": None}}
        once = to_canonical_json(report)
        assert to_canonical_json(json.loads(once)) == once
