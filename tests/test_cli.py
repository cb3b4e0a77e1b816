"""End-to-end tests of the command line: output schema, exit codes, formats."""

import io
import json
from importlib import resources

import jsonschema
import pytest

import torus_rips as tr
from torus_rips.cli import main
from torus_rips.complexes import read_simplex_list

SCHEMA = json.loads(
    resources.files("torus_rips.data").joinpath("result_schema.json").read_text()
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    payload = json.loads(out)
    jsonschema.validate(payload, SCHEMA)
    return code, payload, err


def read_error(err):
    payload = json.loads(err)
    jsonschema.validate(payload, SCHEMA)
    return payload


class TestBettiCommand:
    def test_torus_json(self, capsys):
        code, payload, _ = run_json(
            capsys, "betti", "--space", "torus", "--n", "7", "--k", "2",
            "--max-dim", "2",
        )
        assert code == 0
        assert payload["kind"] == "betti-result"
        assert payload["betti"] == [1, 2, 1]
        assert payload["coefficients"] == "gf2"
        assert payload["torsion"] == [[], [], []]
        assert payload["space"] == "torus 7"
        assert isinstance(payload["wall_time_ms"], int)

    def test_full_depth(self, capsys):
        code, payload, _ = run_json(
            capsys, "betti", "--space", "cycle", "--n", "9", "--k", "3",
            "--max-dim", "full",
        )
        assert code == 0
        assert payload["betti"][:3] == [1, 0, 2]
        assert all(b == 0 for b in payload["betti"][3:])
        assert payload["truncated_at"] is None
        assert payload["euler"] == 3

    def test_integer_coefficients(self, capsys):
        code, payload, _ = run_json(
            capsys, "betti", "--space", "torus", "--n", "4", "--k", "2",
            "--max-dim", "3", "--coefficients", "integer",
        )
        assert code == 0
        assert payload["betti"] == [1, 0, 0, 9]
        assert payload["torsion"] == [[], [], [], []]

    def test_window_space(self, capsys):
        # A lattice window at scale 1 is a grid graph: no triangles, so the
        # first Betti number counts the 16 unit squares of the 5x5 window.
        code, payload, _ = run_json(
            capsys, "betti", "--space", "window", "--window=-2:2,-2:2",
            "--k", "1", "--max-dim", "1",
        )
        assert code == 0
        assert payload["n"] is None
        assert payload["betti"] == [1, 16]
        assert payload["euler"] == -15

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "betti", "--space", "cycle", "--n", "6", "--k", "2",
            "--max-dim", "2", "--format", "csv",
        )
        assert code == 0
        assert out.splitlines() == [
            "n,k,dim,betti,coefficients,source",
            "6,2,0,1,gf2,cycle 6",
            "6,2,1,0,gf2,cycle 6",
            "6,2,2,1,gf2,cycle 6",
        ]

    def test_no_timing_is_byte_deterministic(self, capsys):
        argv = (
            "betti", "--space", "torus", "--n", "5", "--k", "2",
            "--max-dim", "2", "--no-timing",
        )
        _, out1, _ = run_cli(capsys, *argv)
        _, out2, _ = run_cli(capsys, *argv)
        assert out1 == out2
        assert json.loads(out1)["wall_time_ms"] is None

    def test_missing_n_is_validation_error(self, capsys):
        code, out, err = run_cli(
            capsys, "betti", "--space", "cycle", "--k", "1", "--max-dim", "0"
        )
        assert code == 2
        assert out == ""
        payload = read_error(err)
        assert payload["error"] == "validation"

    def test_budget_exit(self, capsys):
        code, _, err = run_cli(
            capsys, "betti", "--space", "torus", "--n", "6", "--k", "2",
            "--max-dim", "3", "--budget", "100",
        )
        assert code == 3
        payload = read_error(err)
        assert payload["error"] == "budget"
        assert "simplex budget" in payload["message"]

    def test_budget_env_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("SIMPLEX_BUDGET", "100")
        code, _, err = run_cli(
            capsys, "betti", "--space", "torus", "--n", "6", "--k", "2",
            "--max-dim", "3",
        )
        assert code == 3
        assert read_error(err)["error"] == "budget"

    def test_time_budget_env(self, capsys, monkeypatch):
        monkeypatch.setenv("TIME_BUDGET_SECS", "0.000001")
        code, _, err = run_cli(
            capsys, "betti", "--space", "torus", "--n", "6", "--k", "2",
            "--max-dim", "3",
        )
        assert code == 3
        assert read_error(err)["error"] == "budget"


class TestFacetsCommand:
    def test_text_output_roundtrips(self, capsys):
        code, out, _ = run_cli(
            capsys, "facets", "--space", "cycle", "--n", "12", "--k", "3"
        )
        assert code == 0
        header, simplices = read_simplex_list(io.StringIO(out))
        assert header["space"] == "cycle 12"
        assert header["n"] == "12"
        assert header["k"] == "3"
        assert header["dim"] == "3"
        # n = 12 > 3k = 9: the arcs are the only facets, one per vertex.
        assert len(simplices) == 12
        assert simplices == sorted(simplices)

    def test_json_closed_form(self, capsys):
        code, payload, _ = run_json(
            capsys, "facets", "--space", "torus", "--n", "7", "--k", "2",
            "--format", "json",
        )
        assert code == 0
        assert payload["kind"] == "facets-list"
        assert payload["mode"] == "closed-form"
        assert payload["count"] == 98
        assert len(payload["facets"]) == 98

    def test_json_brute_mode(self, capsys):
        code, payload, _ = run_json(
            capsys, "facets", "--space", "cycle", "--n", "9", "--k", "3",
            "--mode", "brute", "--format", "json",
        )
        assert code == 0
        assert payload["mode"] == "brute"
        assert payload["count"] == 12

    @pytest.mark.parametrize(
        "argv",
        [
            ("facets", "--space", "torus", "--n", "6", "--k", "2", "--mode", "compare"),
            ("facets", "--space", "cycle", "--n", "8", "--k", "3", "--mode", "compare"),
            ("facets", "--space", "window", "--window=-6:6,-6:6", "--k", "2",
             "--mode", "compare"),
        ],
    )
    def test_compare_modes_agree(self, capsys, argv):
        code, payload, _ = run_json(capsys, *argv)
        assert code == 0
        assert payload["kind"] == "facets-compare"
        assert payload["identical"] is True
        assert payload["closed_form_count"] == payload["brute_count"]
        assert payload["only_closed_form"] == []
        assert payload["only_brute"] == []

    def test_unsupported_regime_exit(self, capsys):
        code, _, err = run_cli(
            capsys, "facets", "--space", "torus", "--n", "7", "--k", "3"
        )
        assert code == 2
        payload = read_error(err)
        assert payload["error"] == "unsupported-regime"
        assert "supported" in payload["message"]

    def test_bad_window_spec(self, capsys):
        code, _, _ = run_cli(
            capsys, "facets", "--space", "window", "--window", "oops", "--k", "2"
        )
        assert code == 2


class TestVerifyTableCommand:
    def test_filtered_json(self, capsys):
        code, payload, _ = run_json(
            capsys, "verify-table", "--n", "7", "--k", "2:3", "--format", "json"
        )
        assert code == 0
        assert payload["kind"] == "verify-table"
        assert payload["failed"] == 0
        assert payload["passed"] == len(payload["rows"]) >= 2
        for row in payload["rows"]:
            assert row["status"] == "PASS"
            assert row["computed"] == row["expected"]

    def test_text_summary(self, capsys):
        code, out, _ = run_cli(capsys, "verify-table", "--n", "3")
        assert code == 0
        lines = out.strip().splitlines()
        assert all(line.startswith("PASS") for line in lines[:-1])
        assert lines[-1].startswith("passed ")

    def test_doctored_table_fails(self, capsys, tmp_path):
        table = {
            "rows": [
                {
                    "space": "torus", "n": 3, "k": 1, "max_dim": 1,
                    "expected": {"1": 4}, "source": "unit test pass",
                },
                {
                    "space": "torus", "n": 6, "k": 2, "max_dim": 2,
                    "expected": {"2": 24}, "source": "unit test fail",
                },
                {
                    "space": "torus", "n": 6, "k": 5, "max_dim": 1,
                    "expected": {}, "source": "unit test skip",
                    "skip": True, "skip_reason": "over desk budget",
                },
            ]
        }
        path = tmp_path / "doctored.json"
        path.write_text(json.dumps(table))
        code, out, _ = run_cli(
            capsys, "verify-table", "--golden-file", str(path)
        )
        assert code == 1
        lines = out.strip().splitlines()
        assert lines[0].startswith("PASS")
        assert lines[1].startswith("FAIL")
        assert "expected [1, 0, 24] got [1, 0, 23]" in lines[1]
        assert lines[2].startswith("SKIPPED")
        assert "over desk budget" in lines[2]
        assert lines[3] == "passed 1, failed 1, skipped 1"

    def test_doctored_table_json_schema(self, capsys, tmp_path):
        table = {
            "rows": [
                {
                    "space": "torus", "n": 6, "k": 2, "max_dim": 2,
                    "expected": {"2": 24}, "source": "unit test fail",
                }
            ]
        }
        path = tmp_path / "doctored.json"
        path.write_text(json.dumps(table))
        code, payload, _ = run_json(
            capsys, "verify-table", "--golden-file", str(path), "--format", "json"
        )
        assert code == 1
        assert payload["failed"] == 1
        assert payload["rows"][0]["status"] == "FAIL"

    def test_json_no_timing_is_byte_deterministic(self, capsys):
        argv = ("verify-table", "--n", "5:6", "--format", "json", "--no-timing")
        _, out1, _ = run_cli(capsys, *argv)
        _, out2, _ = run_cli(capsys, *argv)
        assert out1 == out2
        payload = json.loads(out1)
        assert payload["passed"] >= 2
        assert all(row.get("wall_time_ms") is None for row in payload["rows"])


class TestCertifyCommand:
    def test_cross_polytope(self, capsys):
        code, payload, _ = run_json(capsys, "certify", "--n", "4", "--k", "3")
        assert code == 0
        assert payload["kind"] == "certify-result"
        assert payload["claim"] == "sphere(7)"
        assert payload["level"] == "certified"
        assert payload["antipode"]["is_antipode"] is True
        assert payload["antipode"]["cross_polytope_dim"] == 8
        assert payload["betti"] is None

    def test_consistent_wedge(self, capsys):
        code, payload, _ = run_json(capsys, "certify", "--n", "5", "--k", "2")
        assert code == 0
        assert payload["claim"] == "wedge_S2(9)"
        assert payload["level"] == "consistent"
        assert payload["betti"] == [1, 0, 9]
        assert payload["connectivity"]["min_ball"] == 13

    def test_integer_full_certifies_wedge(self, capsys):
        code, payload, _ = run_json(
            capsys, "certify", "--n", "5", "--k", "3",
            "--coefficients", "integer", "--max-dim", "full",
        )
        assert code == 0
        assert payload["claim"] == "wedge_S4(9)"
        assert payload["level"] == "certified"
        assert payload["connectivity"]["certified_k"] == 1
        assert payload["connectivity"]["min_ball"] == 21

    def test_unknown_regime_needs_depth(self, capsys):
        code, _, err = run_cli(capsys, "certify", "--n", "7", "--k", "4")
        assert code == 2
        payload = read_error(err)
        assert payload["error"] == "validation"
        assert "max_dim" in payload["message"]

    def test_rejects_other_spaces(self, capsys):
        code, _, _ = run_cli(
            capsys, "certify", "--space", "cycle", "--n", "6", "--k", "2"
        )
        assert code == 2


class TestParser:
    def test_version(self, capsys):
        code, out, _ = run_cli(capsys, "--version")
        assert code == 0
        assert out.strip() == tr.__version__

    def test_unknown_command(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate")
        assert code == 2

    def test_missing_required_flag(self, capsys):
        code, _, _ = run_cli(capsys, "betti", "--space", "torus", "--n", "7", "--k", "2")
        assert code == 2

    def test_negative_max_dim_rejected(self, capsys):
        code, _, _ = run_cli(
            capsys, "betti", "--space", "torus", "--n", "7", "--k", "2",
            "--max-dim", "-1",
        )
        assert code == 2
