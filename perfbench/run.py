"""trackbench benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload classical_grid --seed 1 --seconds 25 --trace 0

Run from anywhere inside a source checkout; the program is imported from
its ``src/``. The workload runs in its own fresh process with one BLAS
thread, after a few processes that only time set-up. With --trace 0 the
last line of output is a JSON object with the end-to-end metrics; with
--trace 1 a separate traced pass gives the per-layer metrics instead. The
full result of every run (metrics, counts, output digest, machine) is
written to perfbench/out/<workload>-seed<n>-trace<t>/result.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("classical_grid", "mpc_lap", "ppo_train")
# processes that only time set-up, half before and half after the workload
# process (which times its own set-up too), so that the median of the five
# set-ups spans the run rather than one moment of it
SETUP_PROBES = 4
# every run, set-up probes included, ends within this many seconds
DEADLINE_S = 170

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("steps_per_s", "steps/s"),
    ("peak_rss_mb", "MB"),
]


def child(args, out: Path, setup_only: bool, deadline: float) -> dict:
    env = dict(os.environ)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0")
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(out)]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(deadline - time.monotonic(), 1.0), check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"workload process exited {proc.returncode}")
    return json.loads(lines[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if not (ROOT / "src" / "trackbench" / "__init__.py").is_file():
        print(f"error: no trackbench sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    deadline = time.monotonic() + DEADLINE_S
    shutil.rmtree(out, ignore_errors=True)

    def probes(n):
        return [child(args, out, True, deadline)["setup_s"] for _ in range(n)]

    try:
        if args.trace:
            result = child(args, out, False, deadline)
            metrics = result["per_layer"]
            units = {name: unit for name, unit, _ in PER_LAYER}
        else:
            before = probes(SETUP_PROBES // 2)
            result = child(args, out, False, deadline)
            samples = before + [result["setup_s"]] + probes(SETUP_PROBES - len(before))
            result["setup_samples_s"] = samples
            result["setup_s"] = statistics.median(samples)
            metrics = {name: result[name] for name, _ in END_TO_END}
            units = dict(END_TO_END)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1

    result["metrics"] = {n: {"value": v, "unit": units[n]} for n, v in metrics.items()}
    (out / "result.json").write_text(json.dumps(result, indent=1) + "\n")
    for failure in result["failures"]:
        print(f"failed: {failure}", file=sys.stderr)
    if args.trace:
        print(f"tracing overhead: {result['tracing_overhead']:+.1%} of wall_s", file=sys.stderr)
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
