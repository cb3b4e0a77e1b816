"""End-to-end tests of the command line: output schema, exit codes, formats."""

import csv
import io
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

import torus_rips as tr
from torus_rips.cli import main
from torus_rips.pipeline import run_golden_row

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

    def test_window_csv_parses_to_six_fields(self, capsys):
        code, out, _ = run_cli(
            capsys, "betti", "--space", "window", "--window=0:4,0:4",
            "--k", "2", "--max-dim", "2", "--format", "csv",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["n", "k", "dim", "betti", "coefficients", "source"]
        assert len(rows) == 4
        for dim, row in enumerate(rows[1:]):
            assert row[:3] == ["", "2", str(dim)]
            assert row[4:] == ["gf2", "window 0:4,0:4"]

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

    @pytest.mark.parametrize("max_dim, code", [("48", 0), ("49", 2), ("1000000", 2)])
    def test_max_dim_below_the_point_count(self, capsys, max_dim, code):
        # The 49 points of T7 span no simplex of dimension 49 or more.
        code_, out, err = run_cli(capsys, "betti", "--space", "torus", "--n", "7",
                                  "--k", "2", "--max-dim", max_dim)
        assert code_ == code
        if code:
            assert out == ""
            assert read_error(err)["message"] == (
                f"max_dim {max_dim} is not below the 49 points of torus 7")
        else:
            assert json.loads(out)["betti"] == [1, 2, 1] + [0] * 46

    def test_budget_exit(self, capsys):
        code, _, err = run_cli(
            capsys, "betti", "--space", "torus", "--n", "6", "--k", "2",
            "--max-dim", "3", "--budget", "100",
        )
        assert code == 3
        payload = read_error(err)
        assert payload["error"] == "budget"
        assert "simplex budget" in payload["message"]

    def test_budget_error_reports_dimension_and_count(self, capsys):
        # The simplex budget error names the dimension being counted and the
        # running total that passed the budget; a time budget error has neither.
        code, _, err = run_cli(
            capsys, "betti", "--space", "torus", "--n", "6", "--k", "2",
            "--max-dim", "3", "--budget", "100",
        )
        payload = read_error(err)
        assert payload["count"] > 100
        assert payload["message"] == (
            f"simplex budget of 100 exceeded while enumerating dimension {payload['dim']}"
            f" at {payload['count']} simplices"
        )
        code, _, err = run_cli(
            capsys, "betti", "--space", "torus", "--n", "6", "--k", "2",
            "--max-dim", "3", "--time-budget", "0",
        )
        assert code == 3
        payload = read_error(err)
        assert "dim" not in payload and "count" not in payload

    @pytest.mark.parametrize("value", ["nan", "-1"])
    def test_time_budget_that_bounds_nothing_is_rejected(self, capsys, value):
        code, out, err = run_cli(
            capsys, "betti", "--space", "torus", "--n", "6", "--k", "2",
            "--max-dim", "3", f"--time-budget={value}",
        )
        assert (code, out) == (2, "")
        payload = read_error(err)
        assert payload["error"] == "validation"
        assert "time budget" in payload["message"]

    def test_negative_budget_is_rejected(self, capsys):
        # The time budget bounds the run should the budget be taken as none.
        code, out, err = run_cli(capsys, "betti", "--space", "torus", "--n", "8", "--k", "6",
                                 "--max-dim", "6", "--time-budget", "3", "--budget", "-5")
        assert (code, out) == (2, "")
        payload = read_error(err)
        assert payload["error"] == "validation"
        assert "simplex budget must be positive" in payload["message"]

    def test_zero_budget_disables(self, capsys):
        code, payload, _ = run_json(capsys, "betti", "--space", "torus", "--n", "6", "--k", "2",
                                    "--max-dim", "3", "--budget", "0")
        assert code == 0
        assert payload["config"]["simplex_budget"] is None
        assert payload["betti"] == [1, 0, 23, 0]


class TestFacetsCommand:
    def test_text_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "facets", "--space", "cycle", "--n", "12", "--k", "3"
        )
        assert code == 0
        # n = 12 > 3k = 9: the arcs are the only facets, one per vertex, in
        # the lexicographic order of their vertex tuples.
        assert out == (
            "# space: cycle 12\n# n: 12\n# k: 3\n# dim: 3\n"
            "0 1 2 3\n0 1 2 11\n0 1 10 11\n0 9 10 11\n1 2 3 4\n2 3 4 5\n"
            "3 4 5 6\n4 5 6 7\n5 6 7 8\n6 7 8 9\n7 8 9 10\n8 9 10 11\n"
        )

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

    def test_window_does_not_echo_n(self, capsys):
        argv = ("facets", "--space", "window", "--window=-5:5,-5:5", "--k", "2")
        code, listing, _ = run_json(capsys, *argv, "--format", "json")
        assert code == 0
        assert listing["n"] is None
        code, payload, _ = run_json(capsys, *argv, "--mode", "compare")
        assert (code, payload["n"], payload["identical"]) == (0, None, True)
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        # The text header leaves n out, and the lines are the JSON listing's facets.
        header = ["# space: window -5:5,-5:5", "# k: 2", "# dim: 4"]
        simplices = [" ".join(map(str, sigma)) for sigma in listing["facets"]]
        assert out.splitlines() == header + simplices

    def test_unsupported_regime_exit(self, capsys):
        code, _, err = run_cli(
            capsys, "facets", "--space", "torus", "--n", "7", "--k", "3"
        )
        assert code == 2
        payload = read_error(err)
        assert payload["error"] == "unsupported-regime"
        assert "supported" in payload["message"]

    @pytest.mark.parametrize("mode", ["brute", "compare"])
    @pytest.mark.parametrize("k", [1, 2])
    def test_oracle_over_vertex_budget_is_refused_first(self, capsys, monkeypatch, mode, k):
        # The refusal comes before the catalog, so k = 1, which has none,
        # is refused on its size too, and before the scale graph is built.
        monkeypatch.setattr("torus_rips.cli.vr_graph", None)
        code, out, err = run_cli(capsys, "facets", "--space", "torus", "--n", "150",
                                 "--k", str(k), "--mode", mode)
        assert (code, out) == (3, "")
        payload = read_error(err)
        assert payload["error"] == "budget"
        assert payload["message"] == (
            "brute-force facet search limited to 2000 vertices, graph has 22500")

    @pytest.mark.parametrize("space", ["torus", "cycle", "window"])
    def test_missing_size_is_validation_error(self, capsys, space):
        # --n for cycles and tori, --window for windows.
        code, out, err = run_cli(capsys, "facets", "--space", space, "--k", "3")
        assert (code, out) == (2, "")
        assert read_error(err)["error"] == "validation"

    def test_bad_window_spec(self, capsys):
        code, _, err = run_cli(
            capsys, "facets", "--space", "window", "--window", "oops", "--k", "2"
        )
        assert code == 2
        assert "argument --window: window must be nonempty and look like" in err


GOLDEN_ROW = {"space": "torus", "n": 3, "k": 1, "max_dim": 1,
              "expected": {"1": 4}, "source": "unit test"}


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

    @pytest.mark.parametrize("flag", ["--n", "--k"])
    def test_reversed_range_is_rejected(self, capsys, flag):
        # A reversed range selects no row, so it would verify nothing and pass.
        code, out, err = run_cli(capsys, "verify-table", flag, "9:3")
        assert (code, out) == (2, "")
        assert "9 > 3" in err

    @pytest.mark.parametrize("flag", ["--n", "--k"])
    @pytest.mark.parametrize("text", ["a", "1:2:3"])
    def test_malformed_range_is_rejected(self, capsys, flag, text):
        code, out, err = run_cli(capsys, "verify-table", flag, text)
        assert (code, out) == (2, "")
        assert f"range must be an integer or look like '3:9', got {text!r}" in err

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

    def test_time_budget_bounds_the_whole_table(self, capsys, monkeypatch, tmp_path):
        # A fake clock that moves a nanosecond per reading, and a second after
        # each row: a 2.5 s budget lets three rows run and skips the other two.
        clock = [0.0]

        def monotonic():
            clock[0] += 1e-9
            return clock[0]

        def run_row(row, config):
            result = run_golden_row(row, config)
            clock[0] += 1.0
            return result

        monkeypatch.setattr("time.monotonic", monotonic)
        monkeypatch.setattr("torus_rips.cli.run_golden_row", run_row)
        path = tmp_path / "five.json"
        path.write_text(json.dumps({"rows": [GOLDEN_ROW] * 5}))
        code, out, _ = run_cli(capsys, "verify-table", "--golden-file", str(path),
                               "--time-budget", "2.5")
        assert code == 0
        *rows, summary = out.splitlines()
        assert [line.split()[0] for line in rows] == ["PASS"] * 3 + ["SKIPPED"] * 2
        assert all("budget: time budget exceeded" in line for line in rows[3:])
        assert summary == "passed 3, failed 0, skipped 2"

    def test_missing_golden_file_is_validation_error(self, capsys, tmp_path):
        path = tmp_path / "absent.json"
        code, out, err = run_cli(capsys, "verify-table", "--golden-file", str(path))
        assert (code, out) == (2, "")
        payload = read_error(err)
        assert payload["error"] == "validation"
        assert str(path) in payload["message"]

    @pytest.mark.parametrize(
        "text,fragments",
        [
            (json.dumps({"rows": [GOLDEN_ROW, {k: v for k, v in GOLDEN_ROW.items()
                                               if k != "max_dim"}]}),
             ["row 1", "'max_dim'"]),
            (json.dumps({"table": [GOLDEN_ROW]}), ["'rows'"]),
            (json.dumps({"rows": [["torus", 3, 1]]}), ["row 0", "malformed"]),
            ("{not json", ["not a JSON object"]),
            (json.dumps({"rows": [GOLDEN_ROW, {**GOLDEN_ROW, "n": "5"}]}),
             ["row 1", "n must be a nonnegative integer, got '5'"]),
            (json.dumps({"rows": [{**GOLDEN_ROW, "max_dim": "2"}]}),
             ["row 0", "max_dim must be a nonnegative integer, got '2'"]),
            (json.dumps({"rows": [{**GOLDEN_ROW, "expected": {"two": 9}}]}),
             ["row 0", "malformed", "'two'"]),
            (json.dumps({"rows": [{**GOLDEN_ROW, "expected": {"1": "4"}}]}),
             ["row 0", "expected[1] must be a nonnegative integer, got '4'"]),
            (json.dumps({"rows": [{**GOLDEN_ROW, "max_dim": -1}]}),
             ["row 0", "max_dim must be a nonnegative integer, got -1"]),
            (json.dumps({"rows": [{**GOLDEN_ROW, "coefficients": "rational"}]}),
             ["row 0", "unknown coefficients 'rational'"]),
            (json.dumps({"rows": [GOLDEN_ROW, {**GOLDEN_ROW, "space": "sphere"}]}),
             ["row 1", "space must be 'cycle' or 'torus', got 'sphere'"]),
            (json.dumps({"rows": [{**GOLDEN_ROW, "space": "window"}]}),
             ["row 0", "space must be 'cycle' or 'torus', got 'window'"]),
            (json.dumps({"rows": [GOLDEN_ROW, {**GOLDEN_ROW, "n": 7, "k": 2, "max_dim": 2,
                                               "expected": {"1": 2, "2": 1, "3": 7}}]}),
             ["row 1", "expected dimension 3 outside 0..max_dim 2"]),
            (json.dumps({"rows": [{**GOLDEN_ROW, "expected": {"1": 4, "-1": 4}}]}),
             ["row 0", "expected dimension -1 outside 0..max_dim 1"]),
            (json.dumps({"rows": [{**GOLDEN_ROW, "skip": "false"}]}),
             ["row 0", "skip must be true or false, got 'false'"]),
            (json.dumps({"rows": [GOLDEN_ROW, {**GOLDEN_ROW, "skip": True}]}),
             ["row 1", "a skipped row needs a non-empty skip_reason"]),
            (json.dumps({"rows": [GOLDEN_ROW, {**GOLDEN_ROW, "n": 7, "k": 2, "max_dim": 2,
                                               "expected": {"1": 9, "01": 2, "2": 1}}]}),
             ["row 1", "expected dimension 1 is given twice"]),
            ('{"rows": [' + json.dumps(GOLDEN_ROW) + ', {"space": "torus", "n": 3, "k": 1, '
             '"max_dim": 1, "expected": {"1": 4, "1": 4}, "source": "unit test"}]}',
             ["row 1", "expected dimension 1 is given twice"]),
            (json.dumps({"rows": [GOLDEN_ROW, {**GOLDEN_ROW, "n": 2}]}),
             ["row 1", "n must be at least 3, got 2"]),
            (json.dumps({"rows": [{**GOLDEN_ROW, "space": "cycle", "n": 2}]}),
             ["row 0", "n must be at least 3, got 2"]),
            (json.dumps({"rows": [GOLDEN_ROW, {**GOLDEN_ROW, "max_dim": 20_000_000,
                                               "skip": True, "skip_reason": "too deep"}]}),
             ["row 1", "max_dim 20000000 is not below the 9 points of torus 3"]),
            (json.dumps({"rows": 5}), ["not a JSON object with a 'rows' list"]),
            (json.dumps({"rows": None}), ["not a JSON object with a 'rows' list"]),
            (json.dumps({"rows": [GOLDEN_ROW, {**GOLDEN_ROW, "source": [["x"]]}]}),
             ["row 1", "source must be a non-empty string, got [['x']]"]),
            (json.dumps({"rows": [{**GOLDEN_ROW, "source": " "}]}),
             ["row 0", "source must be a non-empty string, got ' '"]),
        ],
        ids=["row-without-max-dim", "no-rows", "row-not-object", "not-json",
             "n-as-string", "max-dim-as-string", "expected-key-not-dimension",
             "betti-as-string", "negative-max-dim", "unknown-ring",
             "unknown-space", "window-space", "expected-dim-above-max-dim",
             "negative-expected-dim", "skip-as-string", "skip-without-reason",
             "expected-dim-spelled-twice", "expected-key-written-twice",
             "torus-side-below-three", "cycle-length-below-three",
             "skipped-max-dim-past-the-points", "rows-a-number",
             "rows-null", "source-a-list", "source-blank"],
    )
    def test_malformed_golden_table_is_validation_error(
        self, capsys, tmp_path, text, fragments
    ):
        path = tmp_path / "broken.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, "verify-table", "--golden-file", str(path))
        assert (code, out) == (2, "")
        payload = read_error(err)
        assert payload["error"] == "validation"
        for fragment in [str(path)] + fragments:
            assert fragment in payload["message"]

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

    def test_truncated_integer_profile_is_not_certified(self, capsys):
        # Through dimension 5 the profile looks like a wedge of 23 five-spheres,
        # but the whole complex has betti[8] = 2, so no wedge is certified.
        code, payload, _ = run_json(
            capsys, "certify", "--n", "6", "--k", "4",
            "--coefficients", "integer", "--max-dim", "5",
        )
        assert code == 0
        assert payload["betti"] == [1, 0, 0, 0, 0, 23]
        assert payload["truncated_at"] == 5
        assert payload["connectivity"]["certified_k"] == 1
        assert payload["claim"] == "unknown"
        assert payload["level"] != "certified"

    @pytest.mark.parametrize(
        "k,betti",
        [(3, ([1, 0, 0, 1, 14, 0, 0, 0], [1, 0, 0, 1, 14, 0, 0, 0])),
         (2, ([1, 2, 1, 0, 0], [1, 2, 1]))],
    )
    def test_gf2_full_runs_whole_complex(self, capsys, k, betti):
        # 'full' is the whole complex over GF(2) too, with or without an
        # expected regime (T7 k2 is a torus, T7 k3 has none).  betti pairs
        # the raw complex's profile with the collapsed one the run reports,
        # which can end below the raw top dimension.
        raw_betti, collapsed = betti
        raw = tr.betti_gf2(tr.vr_graph(tr.torus_space(7), k), None)
        assert list(raw.betti) == raw_betti
        assert raw.truncated_at is None
        code, payload, _ = run_json(
            capsys, "certify", "--n", "7", "--k", str(k), "--max-dim", "full",
        )
        assert code == 0
        assert payload["betti"] == collapsed
        assert payload["truncated_at"] is None

    def test_max_dim_is_checked_first(self, capsys, monkeypatch):
        # The antipodal certificate settles T4 k3 without homology, yet a depth
        # past its 16 points is refused before the scale graph is built.
        code, payload, _ = run_json(capsys, "certify", "--n", "4", "--k", "3", "--max-dim", "15")
        assert (code, payload["claim"], payload["betti"]) == (0, "sphere(7)", None)
        monkeypatch.setattr("torus_rips.pipeline.vr_graph", refuse_scale_graph)
        code, out, err = run_cli(capsys, "certify", "--n", "4", "--k", "3", "--max-dim", "16")
        assert (code, out) == (2, "")
        payload = read_error(err)
        assert (payload["error"], payload["message"]) == (
            "validation", "max_dim 16 is not below the 16 points of torus 4")

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


def refuse_scale_graph(*args, **kwargs):
    raise AssertionError("a refused run built the scale graph")


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

    def test_removed_budget_flags_rejected(self, capsys):
        code, _, _ = run_cli(
            capsys, "betti", "--space", "torus", "--n", "7", "--k", "2",
            "--max-dim", "2", "--snf-budget", "10",
        )
        assert code == 2
        code, _, _ = run_cli(
            capsys, "facets", "--space", "torus", "--n", "7", "--k", "2",
            "--budget", "10",
        )
        assert code == 2

    def test_negative_max_dim_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "betti", "--space", "torus", "--n", "7", "--k", "2",
            "--max-dim", "-1",
        )
        assert code == 2
        assert "argument --max-dim: max-dim must be nonnegative or 'full', got -1" in err

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["betti", "--space", "window", "--window=-2:2,-2:2", "--n", "5", "--k", "1",
              "--max-dim", "1"], "window space needs window bounds and takes no n"),
            (["facets", "--space", "window", "--window=-5:5,-5:5", "--n", "5", "--k", "2"],
             "window space needs window bounds and takes no n"),
            (["betti", "--space", "torus", "--n", "7", "--window=0:3,0:3", "--k", "2",
              "--max-dim", "2"], "torus space needs n and takes no window bounds"),
            (["facets", "--space", "cycle", "--n", "12", "--window=0:3,0:3", "--k", "3"],
             "cycle space needs n and takes no window bounds"),
            (["facets", "--space", "torus", "--n", "9", "--k", "3", "--mode", "compare",
              "--format", "text"], "facets --mode compare prints JSON only, not --format text"),
            (["certify", "--n", "4", "--k", "3", "--max-dim", "1000000"],
             "max_dim 1000000 is not below the 16 points of torus 4"),
        ],
        ids=["betti-window-with-n", "facets-window-with-n", "betti-torus-with-window",
             "facets-cycle-with-window", "compare-as-text", "certify-past-the-points"],
    )
    def test_flag_the_run_would_ignore_is_refused(self, capsys, monkeypatch, argv, message):
        monkeypatch.setattr("torus_rips.cli.vr_graph", refuse_scale_graph)
        monkeypatch.setattr("torus_rips.pipeline.vr_graph", refuse_scale_graph)
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        payload = read_error(err)
        assert (payload["error"], payload["message"]) == ("validation", message)

    @pytest.mark.parametrize(
        "flag,value,message",
        [
            ("--window", "abc", "window must be nonempty and look like '-6:6,-6:6', got 'abc'"),
            ("--window", "2:-2,0:1", "window must be nonempty and look like"),
            ("--max-dim", "two", "max-dim must be nonnegative or 'full', got two"),
        ],
    )
    def test_argument_errors_carry_their_message(self, capsys, flag, value, message):
        # argparse prints the message of an ArgumentTypeError, but only
        # "invalid <function> value" for any other exception of a type function.
        argv = ["betti", "--space", "window", "--k", "2", "--max-dim", "1"]
        code, out, err = run_cli(capsys, *argv, f"{flag}={value}")
        assert (code, out) == (2, "")
        assert f"argument {flag}: {message}" in err
        assert "invalid" not in err


ROOT = Path(__file__).resolve().parent.parent
FIXTURE_DIR = ROOT / "tests" / "data" / "cli"


def source_cli(argv):
    """Run arguments for ``python -S -m torus_rips.cli argv`` on the checkout's ``src``.

    -S leaves site-packages off the path, so a test dependency imported by
    the library fails the run.
    """
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return {"args": [sys.executable, "-S", "-m", "torus_rips.cli", *argv],
            "env": env, "cwd": ROOT}


@pytest.mark.parametrize(
    "fixture", sorted(FIXTURE_DIR.glob("*.json")), ids=lambda p: p.stem
)
def test_output_matches_fixture(fixture):
    """Exit code, stdout and stderr of a --no-timing process equal the stored bytes."""
    replay(fixture, {})


def replay(fixture, env):
    """Run a fixture's argv with env added to the environment and compare every byte."""
    expected = json.loads(fixture.read_text(encoding="utf-8"))
    assert list(expected) == ["argv", "exit_code", "stdout", "stderr"]
    assert "--no-timing" in expected["argv"]
    run = source_cli(expected["argv"])
    run["env"].update(env)
    child = subprocess.run(**run, capture_output=True, timeout=60)
    assert child.stdout.decode() == expected["stdout"]
    assert child.stderr.decode() == expected["stderr"]
    assert child.returncode == expected["exit_code"]


@pytest.mark.parametrize("value", [("1", "0"), ("abc", "abc")], ids=["refusing", "unparsable"])
@pytest.mark.parametrize("stem", ["betti_torus7_k2_d2", "verify_table_text"])
def test_budget_variables_in_the_environment_change_nothing(stem, value):
    """Only argv sets a budget: values that would refuse or fail to parse leave the bytes."""
    simplex, secs = value
    replay(FIXTURE_DIR / f"{stem}.json", {"SIMPLEX_BUDGET": simplex, "TIME_BUDGET_SECS": secs})


# A child of this process would report this process's peak as well: Linux
# keeps the high-water mark of the address space that exec replaces, and a
# fork or vfork child starts from this one's.  So a small python -S process
# starts the run and prints the run's own ru_maxrss (KiB on Linux), read
# through os.wait4, to stderr; RUSAGE_CHILDREN would give the largest of
# every child it waited for.
PEAK_RSS = """
import os, subprocess, sys
child = subprocess.Popen(sys.argv[1:])
_, status, usage = os.wait4(child.pid, 0)
print(usage.ru_maxrss, file=sys.stderr)
sys.exit(os.waitstatus_to_exitcode(status))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is in KiB on Linux")
def test_torus11_k6_d4_peak_rss_under_64_mib():
    run = source_cli(["betti", "--space", "torus", "--n", "11", "--k", "6", "--max-dim", "4",
                      "--no-timing"])
    run["args"] = [sys.executable, "-S", "-c", PEAK_RSS, *run["args"]]
    child = subprocess.run(**run, capture_output=True, text=True, timeout=60)
    assert child.returncode == 0, child.stderr
    peak = int(child.stderr) / 1024
    assert peak < 64, f"peak RSS {peak:.1f} MiB, over 64 MiB"


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is in KiB on Linux")
def test_torus150_k2_compare_refused_under_32_mib():
    run = source_cli(["facets", "--space", "torus", "--n", "150", "--k", "2",
                      "--mode", "compare", "--no-timing"])
    run["args"] = [sys.executable, "-S", "-c", PEAK_RSS, *run["args"]]
    child = subprocess.run(**run, capture_output=True, text=True, timeout=60)
    *error, peak = child.stderr.splitlines()
    assert (child.returncode, child.stdout) == (3, "")
    assert error == [json.dumps({
        "error": "budget", "exit_code": 3, "kind": "error",
        "message": "brute-force facet search limited to 2000 vertices, graph has 22500",
        "version": tr.__version__}, separators=(",", ":"))]
    assert int(peak) / 1024 < 32, f"peak RSS {int(peak) / 1024:.1f} MiB, over 32 MiB"


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is in KiB on Linux")
def test_torus8_k7_brute_refused_under_128_mib():
    # 64 points, far under the vertex limit, but the scale graph is the
    # boundary of a 32-dimensional cross-polytope, with 2**32 maximal cliques.
    run = source_cli(["facets", "--space", "torus", "--n", "8", "--k", "7",
                      "--mode", "brute", "--no-timing"])
    run["args"] = [sys.executable, "-S", "-c", PEAK_RSS, *run["args"]]
    child = subprocess.run(**run, capture_output=True, text=True, timeout=60)
    *error, peak = child.stderr.splitlines()
    assert (child.returncode, child.stdout) == (3, "")
    assert error == [json.dumps({
        "error": "budget", "exit_code": 3, "kind": "error",
        "message": "brute-force facet search limited to 1000000 maximal cliques",
        "version": tr.__version__}, separators=(",", ":"))]
    assert int(peak) / 1024 < 128, f"peak RSS {int(peak) / 1024:.1f} MiB, over 128 MiB"
