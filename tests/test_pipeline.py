"""Tests for the shared run configuration, profile runner, and golden table."""

import json
import time

import pytest

import torus_rips as tr
from torus_rips.errors import BudgetError, SimplexBudgetError
from torus_rips.pipeline import default_certify_depth, run_golden_row


class TestRunConfig:
    def test_defaults(self):
        config = tr.RunConfig()
        assert config.coefficients == "gf2"
        assert config.max_dim is None
        assert config.simplex_budget == tr.DEFAULT_SIMPLEX_BUDGET
        assert config.deadline() is None

    def test_deadline(self):
        config = tr.RunConfig(time_budget_secs=60.0)
        deadline = config.deadline()
        assert deadline is not None
        assert 59.0 < deadline - time.monotonic() <= 60.0

    @pytest.mark.parametrize("secs", [float("nan"), float("inf"), -1.0])
    def test_rejects_time_budget_that_bounds_nothing(self, secs):
        # monotonic() + nan never compares as passed, so the run would be unbounded.
        with pytest.raises(ValueError, match="time budget"):
            tr.RunConfig(time_budget_secs=secs)


class TestBuildSpace:
    def test_dispatch(self):
        assert tr.build_space("cycle", n=6).label == "cycle 6"
        assert tr.build_space("torus", n=4).label == "torus 4"
        win = tr.Window(-2, 2, -2, 2)
        assert tr.build_space("window", window=win).point_count == 25

    def test_validation(self):
        with pytest.raises(ValueError):
            tr.build_space("cycle")
        with pytest.raises(ValueError):
            tr.build_space("window")
        with pytest.raises(ValueError):
            tr.build_space("sphere", n=3)


class TestComputeProfile:
    def test_complete_graph_shortcut(self):
        # Scale at the diameter makes the graph complete; no enumeration runs
        # and the profile is the contractible one.
        profile, counts = tr.compute_profile(tr.cycle_space(5), 2, tr.RunConfig())
        assert counts is None
        assert profile.betti == (1,)
        assert profile.euler == 1
        profile, _ = tr.compute_profile(
            tr.cycle_space(5), 2, tr.RunConfig(max_dim=3)
        )
        assert profile.betti == (1, 0, 0, 0)

    def test_torus_profile(self):
        profile, counts = tr.compute_profile(
            tr.torus_space(7), 2, tr.RunConfig(max_dim=2)
        )
        assert profile.betti == (1, 2, 1)
        assert profile.coefficients == "gf2"
        # Counted through dimension 3; that layer is never built.
        assert counts == (49, 294, 490, 294)

    def test_full_enumeration(self):
        # The octahedron: the stream ends on its top layer of triangles.
        profile, counts = tr.compute_profile(tr.cycle_space(6), 2, tr.RunConfig())
        assert profile.betti == (1, 0, 1)
        assert profile.truncated_at is None
        assert profile.euler == 2
        assert counts == (6, 12, 8)

    def test_integer_coefficients(self):
        profile, _ = tr.compute_profile(
            tr.torus_space(5), 2, tr.RunConfig(coefficients="integer", max_dim=2)
        )
        assert profile.betti == (1, 0, 9)
        assert profile.torsion == ((), (), ())

    def test_unknown_coefficients(self):
        with pytest.raises(ValueError):
            tr.compute_profile(
                tr.torus_space(4), 1, tr.RunConfig(coefficients="rational", max_dim=1)
            )

    def test_simplex_budget_propagates(self):
        with pytest.raises(SimplexBudgetError):
            tr.compute_profile(
                tr.torus_space(6), 2, tr.RunConfig(max_dim=3, simplex_budget=100)
            )


class TestDefaultCertifyDepth:
    def test_known_regimes(self):
        assert default_certify_depth(7, 2) == 2
        assert default_certify_depth(8, 3) == 3
        assert default_certify_depth(4, 3) == 7
        assert default_certify_depth(4, 0) == 0

    def test_unknown_regime(self):
        assert default_certify_depth(7, 4) is None


class TestCertifyTorus:
    def test_cross_polytope_skips_homology(self):
        fp, profile, antipode, conn = tr.certify_torus(4, 3, tr.RunConfig())
        assert fp.claim == "sphere(7)"
        assert fp.level == "certified"
        assert profile is None
        assert antipode.is_antipode
        assert conn.scale == 3

    def test_torus_regime_consistent(self):
        fp, profile, antipode, conn = tr.certify_torus(7, 2, tr.RunConfig())
        assert fp.claim == "torus"
        assert fp.level == "consistent"
        assert profile.betti == (1, 2, 1, 0, 0)
        assert profile.truncated_at is None
        assert not antipode.is_antipode
        assert conn.certified_k == -1

    def test_five_two_special_regime(self):
        fp, profile, _, _ = tr.certify_torus(5, 2, tr.RunConfig())
        assert fp.claim == "wedge_S2(9)"
        assert fp.level == "consistent"
        assert profile.betti == (1, 0, 9, 0, 0)

    def test_integer_full_run_earns_wedge_certificate(self):
        fp, profile, antipode, conn = tr.certify_torus(
            5, 3, tr.RunConfig(coefficients="integer")
        )
        assert not antipode.is_antipode
        assert conn.certified_k == 1
        assert profile.betti[:5] == (1, 0, 0, 0, 9)
        assert all(t == () for t in profile.torsion)
        assert fp.claim == "wedge_S4(9)"
        assert fp.level == "certified"

    def test_scale_zero(self):
        fp, profile, _, _ = tr.certify_torus(4, 0, tr.RunConfig())
        assert fp.claim == "wedge_S0(15)"
        assert fp.consistent
        assert profile.betti == (16,)

    def test_complete_graph_is_contractible(self):
        fp, profile, _, _ = tr.certify_torus(4, 4, tr.RunConfig())
        assert fp.claim == "contractible"
        assert fp.consistent
        assert profile.betti == (1,)

    def test_unknown_regime_runs_whole_complex(self):
        # max_dim None means the whole complex over GF(2) too.
        fp, profile, _, _ = tr.certify_torus(7, 3, tr.RunConfig())
        assert fp.claim == "unknown"
        assert profile.betti == (1, 0, 0, 1, 14, 0, 0, 0)
        assert profile.truncated_at is None

    def test_negative_scale(self):
        with pytest.raises(ValueError):
            tr.certify_torus(5, -1, tr.RunConfig())


class TestGoldenTable:
    def test_packaged_table_shape(self):
        rows = tr.load_golden_table()
        assert len(rows) >= 25
        assert all(r.space == "torus" for r in rows)
        runnable = [r for r in rows if not r.skip]
        skipped = [r for r in rows if r.skip]
        assert len(runnable) >= 15
        assert skipped
        assert all(r.skip_reason for r in skipped)
        assert any(r.coefficients == "integer" for r in runnable)

    def test_expected_betti_fills_defaults(self):
        row = tr.GoldenRow(
            space="torus", n=7, k=2, coefficients="gf2", max_dim=2,
            expected={1: 2, 2: 1}, source="test",
        )
        assert row.expected_betti() == (1, 2, 1)
        sparse = tr.GoldenRow(
            space="torus", n=6, k=2, coefficients="gf2", max_dim=2,
            expected={2: 23}, source="test",
        )
        assert sparse.expected_betti() == (1, 0, 23)

    def test_load_from_path(self, tmp_path):
        payload = {
            "rows": [
                {
                    "space": "torus", "n": 3, "k": 1, "max_dim": 1,
                    "expected": {"1": 4}, "source": "unit test",
                }
            ]
        }
        path = tmp_path / "table.json"
        path.write_text(json.dumps(payload))
        rows = tr.load_golden_table(str(path))
        assert len(rows) == 1
        assert rows[0].coefficients == "gf2"
        assert rows[0].expected_betti() == (1, 4)


class TestRunGoldenRow:
    def make_row(self, **overrides):
        base = dict(
            space="torus", n=7, k=2, coefficients="gf2", max_dim=2,
            expected={1: 2, 2: 1}, source="unit test",
        )
        base.update(overrides)
        return tr.GoldenRow(**base)

    def test_pass(self):
        result = run_golden_row(self.make_row(), tr.RunConfig())
        assert result["status"] == "PASS"
        assert result["computed"] == [1, 2, 1]
        assert isinstance(result["wall_time_ms"], int)

    def test_fail_on_wrong_expectation(self):
        result = run_golden_row(self.make_row(expected={1: 3}), tr.RunConfig())
        assert result["status"] == "FAIL"
        assert result["expected"] == [1, 3, 0]
        assert result["computed"] == [1, 2, 1]

    def test_skip_row_never_runs(self):
        row = self.make_row(skip=True, skip_reason="cluster scale")
        result = run_golden_row(row, tr.RunConfig())
        assert result["status"] == "SKIPPED"
        assert result["reason"] == "cluster scale"
        assert "computed" not in result

    def test_budget_exhaustion_reports_skip(self):
        result = run_golden_row(
            self.make_row(), tr.RunConfig(simplex_budget=100)
        )
        assert result["status"] == "SKIPPED"
        assert result["reason"].startswith("budget")
