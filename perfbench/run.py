"""btfvs benchmark: one workload, one run, one JSON line.

    python3 perfbench/run.py --workload {exact,decide,cascade} --seed N \\
        --seconds S --trace {0,1}

Run from the repository root; the program is imported from ``src/``.

``--trace 0`` measures the end-to-end metrics.  Set-up runs
``SETUP_REPEATS`` times, each in a fresh interpreter (the last one goes on
to measure), and ``setup_s`` is their median: the time from starting the
interpreter to the moment the first timed solve can begin (imports,
``generate``, the serialize/parse round trip and one warm-up solve).  The
measuring interpreter then runs a closed loop, one solve outstanding, one
thread, ``workers=1``, for ``--seconds`` and at least one full pass over the
workload's catalogue; every solve parses its own copy of its instance and
every answer is checked outside the timed interval.  ``solves_per_s``,
``solve_ms_p50`` and ``solve_ms_p90`` count every catalogue entry once, at
its fastest solve in the run (see ``worker.mix_metrics``).  All timings are
scaled to the reference machine's quiet speed by a probe loop timed around
each interval (see ``worker.speed``); the unscaled solve figures are printed
on the line starting ``unscaled:``.

``--trace 1`` reports the per-layer metrics from a separate interpreter that
wraps the program's public functions (see ``tracer.py``) and solves a fixed
list of the run's instances, each once untraced and once traced.

Every interpreter is started with ``PYTHONHASHSEED=0``, so set iteration
order, and with it every traced count, repeats from run to run.  The
result is the last line of standard output:
``{"correct", "attempted", "failed", "metrics"}``.  The error rate is
``failed / attempted``; it and the cascade share are also printed by name
on the lines before it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_REPEATS = 7
TIME_LIMIT_S = 170.0

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402


class RunFailed(Exception):
    pass


def spawn(args: list[str], deadline: float) -> tuple[float, dict]:
    """Start a fresh interpreter on the worker; return the monotonic time
    just before it started and its JSON result."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    started = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *args], cwd=ROOT,
                              env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired as exc:
        raise RunFailed(f"worker {' '.join(args)} exceeded the time limit") from exc
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunFailed(f"worker {' '.join(args)} exited with {proc.returncode}")
    return started, json.loads(lines[-1])


def end_to_end(workload: str, seed: int, seconds: float, deadline: float):
    base = ["--workload", workload, "--seed", str(seed)]
    setups = []
    warm_ok = True
    for _ in range(SETUP_REPEATS - 1):
        started, res = spawn(base + ["--mode", "setup"], deadline)
        setups.append((res["ready_at"] - started) * res["speed"])
        warm_ok &= res["warmup_ok"]
    started, res = spawn(base + ["--mode", "measure", "--seconds", str(seconds)],
                         deadline)
    setups.append((res["ready_at"] - started) * res["speed"])
    metrics = {
        "solves_per_s": (res["solves_per_s"], "1/s"),
        "solve_ms_p50": (res["solve_ms_p50"], "ms"),
        "solve_ms_p90": (res["solve_ms_p90"], "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    n, failed = res["attempted"], res["failed"]
    cascade = (f"{res['cascade_yes'] / res['yes']:.4f} "
               f"({res['cascade_yes']}/{res['yes']} yes-answers)"
               if WORKLOADS[workload].entry == "pipeline" and res["yes"] else "n/a")
    notes = [f"solves {n} over {res['entries']} catalogue entries, "
             f"{res['beyond_p90']} entries beyond p90",
             f"error_rate {failed / n:.4f} ({failed}/{n})",
             f"cascade_share {cascade}",
             "unscaled: " + ", ".join(f"{name} {res['raw'][name]:.6g}" for name in
                                      ("solves_per_s", "solve_ms_p50", "solve_ms_p90"))]
    return metrics, n, failed, warm_ok and res["warmup_ok"], notes


def per_layer(workload: str, seed: int, deadline: float):
    _, res = spawn(["--workload", workload, "--seed", str(seed), "--mode", "trace"],
                   deadline)
    units = {m["name"]: m["unit"] for m in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    metrics = {name: (res["metrics"][name], unit) for name, unit in units.items()}
    n, failed = res["attempted"], res["failed"]
    notes = [f"spans {res['spans']}",
             f"error_rate {failed / n:.4f} ({failed}/{n})"]
    return metrics, n, failed, res["warmup_ok"], notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="btfvs benchmark run")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "btfvs" / "__init__.py").is_file():
        print(f"program source not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        if args.trace:
            metrics, n, failed, warm_ok, notes = per_layer(args.workload, args.seed, deadline)
        else:
            metrics, n, failed, warm_ok, notes = end_to_end(
                args.workload, args.seed, args.seconds, deadline)
    except RunFailed as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for note in notes:
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0 and warm_ok,
        "attempted": n,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
