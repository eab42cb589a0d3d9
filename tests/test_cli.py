import json
import math

import pytest

from revuz_lab.cli import main
from revuz_lab.models import FLIP_JUMP, KILLED_STATIC
from revuz_lab.simulate import SimConfig, rng_for, simulate_path


def test_rho_prints_value(capsys):
    code = main([
        "rho", "--model", "free_bm",
        "--mu", '{"type": "dirac", "x": 0.0}',
        "--nu", '{"type": "dirac", "x": 1.0}',
    ])
    assert code == 0
    out = capsys.readouterr().out.strip()
    expected = math.sqrt(math.sqrt(2.0) * (1.0 - math.exp(-math.sqrt(2.0))))
    assert float(out) == pytest.approx(expected, abs=1e-9)


def test_estimate_json_row(capsys):
    code = main([
        "estimate", "--model", "flip_jump",
        "--weighting", '{"type": "point", "x": 0.5}',
        "--functional",
        '{"kind": "terminal", "t": 1.0, "type": "density", '
        '"expr": {"name": "sin_shift", "n": 3}}',
        "--paths", "4000", "--dt", "0.001", "--horizon", "1.0",
        "--seed", "42", "--out", "json",
    ])
    assert code == 0
    row = json.loads(capsys.readouterr().out)
    closed = 1.0 + math.sin(1.5) * math.sinh(1.0) / math.e
    assert abs(row["mean"] - closed) <= 3.0 * row["std_error"]
    assert row["seed"] == 42
    assert set(row) == {"name", "mean", "std_error", "n", "tail_bound", "seed"}


def test_estimate_csv_header(capsys):
    code = main([
        "estimate", "--model", "killed_static",
        "--weighting", '{"type": "kappa_window", "window": [0.2, 0.9]}',
        "--functional",
        '{"kind": "discounted_square", "type": "density", '
        '"expr": {"name": "uniform", "a": 0.0, "b": 1.0}}',
        "--paths", "2000", "--seed", "7",
    ])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "name,mean,std_error,n,tail_bound,seed"
    assert len(lines) == 2


def test_run_writes_reports_and_exits_zero(tmp_path, capsys):
    code = main([
        "run", "ex1", "--paths", "2500", "--seed", "20260810",
        "--out", str(tmp_path),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "verdict closed_form_match: pass" in out
    assert (tmp_path / "ex1.csv").exists()
    assert (tmp_path / "ex1.json").exists()


def test_config_file_overrides_flags(tmp_path, capsys):
    cfgfile = tmp_path / "lab.cfg"
    cfgfile.write_text("paths = 2000\nseed = 20260810\n# comment\n")
    code = main([
        "run", "ex1", "--paths", "999999", "--seed", "1",
        "--config", str(cfgfile),
    ])
    assert code == 0
    # the config seed wins; the report prints rows computed at 2000 paths
    out = capsys.readouterr().out
    assert "verdict" in out


def test_estimate_rejects_partial_step_horizon():
    # 1.0 / 0.3 steps: the free-BM grid would stop at 0.9
    with pytest.raises(ValueError, match="whole number"):
        main([
            "estimate", "--model", "free_bm",
            "--weighting", '{"type": "point", "x": 0.5}',
            "--functional",
            '{"kind": "terminal", "t": 1.0, "type": "density", '
            '"expr": {"name": "sin_shift", "n": 3}}',
            "--paths", "10", "--dt", "0.3", "--horizon", "1.0",
        ])


def test_config_file_rejects_unknown_keys(tmp_path):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("volume = 11\n")
    with pytest.raises(ValueError):
        main(["run", "ex1", "--config", str(cfgfile)])


def _dump(capsys, model, x0, seed, index, horizon):
    code = main(["dump-path", "--model", model, "--x0", repr(x0), "--seed", str(seed),
                 "--index", str(index), "--horizon", repr(horizon)])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "t,x,alive"
    return [tuple(float(v) for v in line.split(",")) for line in lines[1:]]


@pytest.mark.parametrize("model", [FLIP_JUMP, KILLED_STATIC])
def test_dump_path_rows_match_simulate_path(capsys, model):
    cfg = SimConfig(dt=1e-3, horizon=3.0, seed=12)
    for index in range(4):
        path = simulate_path(model, 0.5, cfg, rng_for(12, index))
        rows = _dump(capsys, model.name, 0.5, 12, index, 3.0)
        assert len(rows) == path.grid.size
        for (t, x, _), gt, gx in zip(rows, path.grid, path.states):
            assert t == pytest.approx(gt, rel=1e-9, abs=1e-12)
            assert x == pytest.approx(gx, rel=1e-9, abs=1e-12)


def test_dump_path_alive_turns_zero_at_zeta(capsys):
    cfg = SimConfig(dt=1e-3, horizon=50.0, seed=1)
    path = simulate_path(KILLED_STATIC, 0.2, cfg, rng_for(1, 0))
    assert path.killed
    rows = _dump(capsys, "killed_static", 0.2, 1, 0, 50.0)
    assert [alive for _, _, alive in rows] == [1.0, 0.0]
    assert rows[-1][0] == pytest.approx(path.zeta, rel=1e-9)
