import json
import subprocess

import pytest

from revuz_lab import harness
from revuz_lab.harness import (
    ExperimentReport,
    HarnessConfig,
    decreasing_trend,
    plateau,
    run_experiment,
    strictly_decreasing,
    trend_tau,
)

FAST = HarnessConfig(n_paths=2500, seed=20260810)


class TestVerdictHelpers:
    def test_trend_tau_signs(self):
        assert trend_tau([5.0, 4.0, 3.0, 2.0]) == -1.0
        assert trend_tau([1.0, 2.0, 3.0]) == 1.0
        assert trend_tau([1.0, 1.0, 1.0]) == 0.0

    def test_decreasing_trend_tolerates_one_blip(self):
        assert decreasing_trend([5.0, 4.0, 3.0, 3.1, 2.0])
        assert not decreasing_trend([1.0, 2.0, 3.0, 4.0])

    def test_strictly_decreasing(self):
        assert strictly_decreasing([3.0, 2.0, 1.0])
        assert not strictly_decreasing([3.0, 3.0, 1.0])

    def test_plateau(self):
        assert plateau([1.0, 0.9, 0.8, 0.8])
        assert not plateau([1.0, 0.5, 0.3, 0.8])  # 0.3 < 0.5 * 0.8
        assert not plateau([0.0, 0.0, 0.0])


def _boom(*args, **kwargs):
    raise RuntimeError("synthetic failure")


class TestReportMachinery:
    def test_unknown_experiment(self):
        with pytest.raises(ValueError):
            run_experiment("ex99", FAST)

    def test_writers_roundtrip(self, tmp_path):
        rep = ExperimentReport(
            experiment_id="unit",
            parameters={"k": 1},
            rows=[{"n": 1, "value": 0.5}, {"n": 2, "value": 0.25, "extra": "x"}],
            verdicts={"ok": True},
            provenance={"seed": 1, "build": "test"},
        )
        rep.to_csv(tmp_path / "unit.csv")
        rep.to_json(tmp_path / "unit.json")
        text = (tmp_path / "unit.csv").read_text().splitlines()
        assert text[0] == "n,value,extra"
        payload = json.loads((tmp_path / "unit.json").read_text())
        assert payload["verdicts"] == {"ok": True}
        assert payload["passed"] is True

    def test_build_id_runs_git_once_in_the_package(self, monkeypatch, tmp_path):
        monkeypatch.setattr(harness.estimators, "expect", _boom)
        harness._build_id.cache_clear()
        calls, real_run = [], subprocess.run

        def counting_run(*args, **kwargs):
            calls.append(kwargs.get("cwd"))
            return real_run(*args, **kwargs)

        monkeypatch.setattr(harness.subprocess, "run", counting_run)
        builds = {run_experiment("ex1", FAST).provenance["build"] for _ in range(2)}
        assert len(calls) <= 1 and len(builds) == 1
        harness._build_id.cache_clear()
        monkeypatch.chdir(tmp_path)
        assert harness._build_id() in builds
        assert len(set(calls)) == 1

    @pytest.mark.parametrize("missing", ["git", "repository"])
    def test_build_id_falls_back_to_the_version(self, monkeypatch, tmp_path, missing):
        if missing == "git":
            monkeypatch.setenv("PATH", str(tmp_path))
        else:
            monkeypatch.setattr(harness, "__file__", str(tmp_path / "harness.py"))
        harness._build_id.cache_clear()
        try:
            assert harness._build_id() == f"revuz-lab-{harness.__version__}"
        finally:
            harness._build_id.cache_clear()

    def test_inconclusive_never_passes(self, monkeypatch):
        monkeypatch.setattr(harness.estimators, "expect", _boom)
        rep = run_experiment("ex1", FAST)
        assert rep.inconclusive
        assert not rep.passed
        assert rep.verdicts == {"inconclusive": False}
        assert any("synthetic failure" in note for note in rep.notes)


class TestExperimentsAtReducedScale:
    """End-to-end experiment runs with small path budgets.

    Full-scale defaults live in the command line interface; these runs
    exercise the same code paths and verdict logic in a few seconds each.
    """

    def test_ex1(self):
        rep = run_experiment("ex1", FAST)
        assert rep.passed, rep.verdicts

    def test_ex2(self):
        rep = run_experiment("ex2", FAST)
        assert rep.passed, rep.verdicts

    def test_ex5(self):
        rep = run_experiment("ex5", HarnessConfig(n_paths=20_000, seed=20260810))
        assert rep.passed, rep.verdicts
        rho_sq = [row["rho_sq"] for row in rep.rows]
        assert all(1.3 <= r <= 1.8 for r, row in zip(rho_sq, rep.rows)
                   if row["n"] >= 32)

    def test_ex6(self):
        rep = run_experiment("ex6", HarnessConfig(n_paths=8000, seed=20260810))
        assert rep.passed, rep.verdicts

    def test_reports_written(self, tmp_path):
        rep = run_experiment("ex2", FAST, out_dir=tmp_path)
        assert (tmp_path / "ex2.csv").exists()
        assert (tmp_path / "ex2.json").exists()
        payload = json.loads((tmp_path / "ex2.json").read_text())
        assert payload["experiment_id"] == "ex2"
        assert payload["provenance"]["seed"] == 20260810

    def test_reproducible_rows(self):
        a = run_experiment("ex1", FAST)
        b = run_experiment("ex1", FAST)
        for ra, rb in zip(a.rows, b.rows):
            assert ra == rb


@pytest.mark.slow
class TestSlowExperiments:
    def test_ex3(self):
        rep = run_experiment("ex3", HarnessConfig(n_paths=4000, seed=20260810))
        assert rep.passed, rep.verdicts

    def test_ex4(self):
        rep = run_experiment("ex4", HarnessConfig(n_paths=4000, seed=20260810))
        assert rep.passed, rep.verdicts

    def test_roundtrip(self):
        rep = run_experiment("roundtrip", HarnessConfig(n_paths=4000, seed=20260810))
        assert rep.passed, rep.verdicts
