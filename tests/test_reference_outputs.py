"""The reference suite's classical cells reproduce their pinned outputs.

tests/data/reference_classical/ holds the summary.csv of the reference
suite's 36 classical cells (every controller but mpc, in suite order), the
SHA-256 of each cell's log, and the numpy, Python and C library versions
they were made with.  The test reruns those cells and compares both
exactly.  A change that means to move them regenerates the files with

    PYTHONPATH=src python tests/test_reference_outputs.py

and shows the old and new rows in CHANGES.md.
"""

import hashlib
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from trackbench.benchmark import reference_suite, run_suite

DATA = Path(__file__).resolve().parent / "data" / "reference_classical"


def _platform() -> dict:
    return {"numpy": np.__version__, "python": platform.python_version(),
            "libc": " ".join(platform.libc_ver())}


def _run(out_dir: Path) -> tuple[str, dict]:
    """summary.csv text and {log name: SHA-256} of the classical cells."""
    suite = reference_suite()
    suite["controllers"] = [c for c in suite["controllers"] if c["lateral"]["type"] != "mpc"]
    run_suite(suite, out_dir)
    logs = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out_dir.glob("*.csv")) if path.name != "summary.csv"}
    return (out_dir / "summary.csv").read_text(), logs


def _pinned_logs() -> dict:
    lines = (DATA / "logs.sha256").read_text().splitlines()
    return {name: digest for digest, name in (line.split() for line in lines)}


def test_classical_cells_reproduce_pinned_outputs(tmp_path):
    summary, logs = _run(tmp_path)
    pinned = json.loads((DATA / "platform.json").read_text())
    here = _platform()
    moved = [f"{key} {pinned[key]} here {here.get(key)}"
             for key in pinned if pinned[key] != here.get(key)]
    note = f"; pinned on another platform ({', '.join(moved)})" if moved else ""
    want = (DATA / "summary.csv").read_text().splitlines()
    rows = [f"{got} != {row}" for got, row in zip(summary.splitlines(), want) if got != row]
    assert summary.splitlines() == want, f"{len(rows)} summary.csv rows differ: {rows[:3]}{note}"
    want_logs = _pinned_logs()
    cells = sorted(name for name in want_logs.keys() | logs.keys()
                   if logs.get(name) != want_logs.get(name))
    assert not cells, f"cell logs differ: {cells}{note}"


if __name__ == "__main__":
    DATA.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        summary, logs = _run(Path(tmp))
    (DATA / "summary.csv").write_text(summary)
    (DATA / "logs.sha256").write_text(
        "".join(f"{digest}  {name}\n" for name, digest in logs.items()))
    (DATA / "platform.json").write_text(json.dumps(_platform(), indent=1) + "\n")
    print(f"wrote {len(logs)} cells to {DATA}", file=sys.stderr)
