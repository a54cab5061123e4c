"""Benchmark suites: controller x track x speed grids with CSV artifacts.

A suite runs every cell in a fixed order (controllers outer, then tracks,
then speeds), writes one log CSV per cell plus a summary CSV, and never
aborts on a cell failure; failed cells appear in the summary with an
'error' termination and NaN metrics.  Identical suite reruns produce
byte-identical summaries.
"""

from __future__ import annotations

import math
import os
from importlib import resources

from .config import ConfigError, _pick, _take, build_run, build_track, load_json
from .sim import simulate
from .track import Track

SUMMARY_HEADER = (
    "controller,track,speed,rms_cross_track,max_cross_track,rms_heading,"
    "rms_speed_err,mean_abs_steer_rate,lap_time,completion,termination"
)

_METRIC_FIELDS = (
    "rms_cross_track", "max_cross_track", "rms_heading", "rms_speed_err",
    "mean_abs_steer_rate", "lap_time", "completion",
)


def reference_suite() -> dict:
    """The pinned suite shipped with the package."""
    with resources.files("trackbench").joinpath("data/reference_suite.json").open() as fh:
        import json

        return json.load(fh)


def load_suite(path_or_alias) -> dict:
    if str(path_or_alias) == "reference":
        return reference_suite()
    return load_json(path_or_alias)


def _cell_name(controller: str, track: str, speed: float) -> str:
    speed_txt = format(speed, "g").replace(".", "p")
    return f"{controller}_{track}_{speed_txt}"


def _speed_track(spec: dict, speed: float) -> Track:
    spec = dict(spec)
    spec["v_ref"] = speed
    return build_track(spec)


# the run-config keys a suite sets for all its cells, and those a controller
# entry sets for its own; a key left out takes the run-config default
_SUITE_RUN_KEYS = ("model", "dt", "max_steps", "vehicle", "coupling")
_ENTRY_RUN_KEYS = ("dt", "lateral", "longitudinal")


def _controller_name(spec, index: int) -> str:
    """An entry's name, else its lateral type, else its place in the suite."""
    try:
        return spec.get("name") or spec["lateral"]["type"]
    except (AttributeError, KeyError, TypeError):
        return f"controllers[{index}]"


def _track_name(spec, index: int) -> str:
    name = (spec.get("name") or spec.get("kind")) if isinstance(spec, dict) else None
    if not name:
        raise ConfigError(f"suite tracks[{index}] needs a 'name' or a 'kind'")
    return name


def run_cell(suite: dict, controller_spec: dict, track_spec: dict, speed: float):
    """One (controller, track, speed) simulation; returns (record, track)."""
    _take(controller_spec, ("name", *_ENTRY_RUN_KEYS), "suite controller entry")
    if "lateral" not in controller_spec:
        raise ConfigError("suite controller entry needs a 'lateral' section")
    run_cfg = {**_pick(suite, _SUITE_RUN_KEYS), **_pick(controller_spec, _ENTRY_RUN_KEYS)}
    track = _speed_track(track_spec, speed)
    sim_cfg, params, controller = build_run(run_cfg)
    record = simulate(sim_cfg, track, params, controller)
    return record, track


def run_suite(suite: dict, out_dir) -> list[dict]:
    """Run every cell, write per-cell logs and summary.csv under out_dir."""
    _take(suite, ("name", "speeds", "tracks", "controllers", *_SUITE_RUN_KEYS), "suite config")
    for key in ("controllers", "tracks", "speeds"):
        if key not in suite:
            raise ConfigError(f"suite config needs a {key!r} list")
    tnames = [_track_name(spec, i) for i, spec in enumerate(suite["tracks"])]
    os.makedirs(out_dir, exist_ok=True)
    rows = []
    for index, controller_spec in enumerate(suite["controllers"]):
        cname = _controller_name(controller_spec, index)
        for track_spec, tname in zip(suite["tracks"], tnames):
            for speed in suite["speeds"]:
                row = {"controller": cname, "track": tname, "speed": float(speed)}
                try:
                    record, _ = run_cell(suite, controller_spec, track_spec, speed)
                    for name in _METRIC_FIELDS:
                        row[name] = getattr(record.metrics, name)
                    row["termination"] = record.termination
                    record.to_csv(
                        os.path.join(out_dir, _cell_name(cname, tname, speed) + ".csv")
                    )
                except Exception as exc:  # cell failure must not kill the suite
                    for name in _METRIC_FIELDS:
                        row[name] = math.nan
                    row["termination"] = "error"
                    row["error"] = f"{type(exc).__name__}: {exc}"
                rows.append(row)
    write_summary(rows, os.path.join(out_dir, "summary.csv"))
    return rows


def write_summary(rows: list[dict], path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(SUMMARY_HEADER + "\n")
        for row in rows:
            cells = [
                row["controller"],
                row["track"],
                format(row["speed"], ".12g"),
                *(format(row[name], ".12g") for name in _METRIC_FIELDS),
                row["termination"],
            ]
            fh.write(",".join(cells) + "\n")
