import math

import pytest

from trackbench.benchmark import (
    SUMMARY_HEADER,
    load_suite,
    reference_suite,
    run_cell,
    run_suite,
    write_summary,
)
from trackbench.config import ConfigError
from trackbench.sim import SimConfig

TINY_SUITE = {
    "dt": 0.02,
    "max_steps": 3000,
    "controllers": [
        {"name": "stanley", "lateral": {"type": "stanley"}},
        {"name": "pid", "lateral": {"type": "pid", "kp": 0.5, "ki": 0.1, "kd": 0.15}},
    ],
    "tracks": [{"name": "short", "kind": "straight", "length": 120.0}],
    "speeds": [8.0],
}


def test_run_suite_rows_and_artifacts(tmp_path):
    rows = run_suite(TINY_SUITE, tmp_path)
    assert len(rows) == 2
    assert [r["controller"] for r in rows] == ["stanley", "pid"]
    assert all(r["track"] == "short" for r in rows)
    assert all(r["speed"] == 8.0 for r in rows)
    assert all(r["termination"] == "completed" for r in rows)
    assert (tmp_path / "summary.csv").exists()
    assert (tmp_path / "stanley_short_8.csv").exists()
    assert (tmp_path / "pid_short_8.csv").exists()
    log_lines = (tmp_path / "stanley_short_8.csv").read_text().splitlines()
    assert log_lines[0] == "t,x,y,theta,v,accel,steer,e_ct,e_head,e_v"


def test_summary_format(tmp_path):
    rows = run_suite(TINY_SUITE, tmp_path)
    lines = (tmp_path / "summary.csv").read_text().splitlines()
    assert lines[0] == SUMMARY_HEADER
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "stanley"
    assert first[1] == "short"
    assert first[2] == "8"
    assert first[-1] == "completed"
    assert float(first[3]) < 0.5  # rms cross-track of a sane run


def test_bad_cell_recorded_as_error_and_suite_continues(tmp_path):
    suite = {
        "max_steps": 2000,
        "controllers": [
            {"name": "broken", "lateral": {"type": "pure_pursuit", "k_v": -1.0}},
            {"name": "stanley", "lateral": {"type": "stanley"}},
        ],
        "tracks": [{"name": "short", "kind": "straight", "length": 80.0}],
        "speeds": [8.0],
    }
    rows = run_suite(suite, tmp_path)
    assert len(rows) == 2
    assert rows[0]["termination"] == "error"
    assert math.isnan(rows[0]["rms_cross_track"])
    assert "error" in rows[0]
    assert rows[1]["termination"] == "completed"
    lines = (tmp_path / "summary.csv").read_text().splitlines()
    assert lines[1].endswith(",error")


def test_pool_size_changes_no_output(tmp_path, monkeypatch):
    import concurrent.futures
    import multiprocessing
    import os

    suite = {
        "max_steps": 2000,
        "controllers": [
            {"name": "broken", "lateral": {"type": "pure_pursuit", "k_v": -1.0}},
            {"name": "stanley", "lateral": {"type": "stanley"}},
        ],
        "tracks": [{"name": "short", "kind": "straight", "length": 80.0}],
        "speeds": [8.0],
    }
    sizes = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    outputs = []
    # 8 CPUs are capped at the suite's 2 cells
    for cpus in (1, 2, 8):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)))
        out = tmp_path / f"cpus{cpus}"
        rows = run_suite(suite, out)
        assert multiprocessing.active_children() == []
        outputs.append((
            [(r["controller"], r["termination"], r.get("error")) for r in rows],
            {path.name: path.read_bytes() for path in sorted(out.iterdir())},
        ))
    # without affinity, the CPU count
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    run_suite(suite, tmp_path / "cpu_count")
    assert sizes == [1, 2, 2, 2]
    serial_rows, serial_files = outputs[0]
    assert [name for name, _, _ in serial_rows] == ["broken", "stanley"]
    assert serial_rows[0][1] == "error" and "k_v" in serial_rows[0][2]
    assert sorted(serial_files) == ["stanley_short_8.csv", "summary.csv"]
    assert all(entry == outputs[0] for entry in outputs)


def test_suite_requires_grid_keys(tmp_path):
    with pytest.raises(ConfigError):
        run_suite({"controllers": [], "tracks": []}, tmp_path)


def test_suite_names_unknown_key(tmp_path):
    for key in ("seed", "speed"):
        with pytest.raises(ConfigError, match=key):
            run_suite({**TINY_SUITE, key: 0}, tmp_path)


def test_rerun_is_byte_identical(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    run_suite(TINY_SUITE, a)
    run_suite(TINY_SUITE, b)
    assert (a / "summary.csv").read_bytes() == (b / "summary.csv").read_bytes()
    assert (a / "stanley_short_8.csv").read_bytes() == (b / "stanley_short_8.csv").read_bytes()


def test_speed_token_in_cell_name(tmp_path):
    suite = dict(TINY_SUITE, speeds=[7.5], max_steps=3000)
    run_suite(suite, tmp_path)
    assert (tmp_path / "stanley_short_7p5.csv").exists()


def test_reference_suite_loads():
    suite = reference_suite()
    for key in ("controllers", "tracks", "speeds"):
        assert key in suite
    names = [c.get("name") or c["lateral"]["type"] for c in suite["controllers"]]
    for expected in ("bang_bang", "pid", "pure_pursuit", "stanley", "mpc"):
        assert expected in names
    assert load_suite("reference") == suite


def test_write_summary_formats_nan(tmp_path):
    rows = [{"controller": "x", "track": "y", "speed": 5.0,
             "rms_cross_track": math.nan, "max_cross_track": math.nan,
             "rms_heading": math.nan, "rms_speed_err": math.nan,
             "mean_abs_steer_rate": math.nan, "lap_time": math.nan,
             "completion": math.nan, "termination": "error"}]
    path = tmp_path / "summary.csv"
    write_summary(rows, path)
    lines = path.read_text().splitlines()
    assert lines[1] == "x,y,5,nan,nan,nan,nan,nan,nan,nan,error"


@pytest.mark.parametrize("entry,name,key", [
    ({"name": "typo", "lateral": {"type": "stanley"}, "dtt": 0.5}, "typo", "dtt"),
    ({"name": "no_lateral", "longitudinal": {"type": "none"}}, "no_lateral", "lateral"),
    ({"dt": 0.05}, "controllers[0]", "lateral"),
], ids=["unknown_key", "no_lateral", "no_name_no_lateral"])
def test_bad_controller_entry_is_error_cell(tmp_path, entry, name, key):
    suite = {**TINY_SUITE, "controllers": [entry, TINY_SUITE["controllers"][0]]}
    rows = run_suite(suite, tmp_path)
    assert [r["controller"] for r in rows] == [name, "stanley"]
    assert rows[0]["termination"] == "error"
    assert rows[0]["error"].startswith("ConfigError") and key in rows[0]["error"]
    assert rows[1]["termination"] == "completed"
    assert (tmp_path / "summary.csv").read_text().splitlines()[1].endswith(",error")


def test_suite_omitted_keys_take_run_config_defaults(monkeypatch):
    import trackbench.benchmark as benchmark

    monkeypatch.setattr(benchmark, "simulate", lambda cfg, track, params, controller: cfg)
    sim_cfg, _ = run_cell({}, {"lateral": {"type": "stanley"}},
                          {"kind": "straight", "length": 50.0}, 8.0)
    assert sim_cfg == SimConfig()
