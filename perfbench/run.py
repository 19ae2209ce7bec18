"""lampgeo benchmark: seeded batches of verification jobs, checked and timed.

    python3 perfbench/run.py --workload {perm_scan,quad_verify,dl_rigidity}
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the library is imported from its ``src``
directory and nothing is installed.  Each workload runs in a fresh
single-threaded Python process (perfbench/worker.py).

With ``--trace 0`` the end-to-end metrics are printed: jobs_per_s,
job_ms_p50, job_ms_p90, peak_rss_mb and setup_s, the median over
SETUP_RUNS fresh processes of the time to start, import lampgeo and run
one warm-up job of each job class.  Times spent in the Python interpreter
are given at reference speed (see worker.py).  The error rate is the
result's ``failed`` divided by ``attempted``, and is also printed on its
own line.
With ``--trace 1`` the per-layer metrics of a traced run are printed, and
the spans are written to perfbench/out/.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_RUNS = 7
# a run must end within 180 s; leave room for the checks and the set-ups
DEADLINE_S = 170.0
# re-anchor microbenchmarks recorded in ROADMAP.md, in microseconds per call
REANCHOR_US = {"base_groups.bs_delta": 21, "base_groups.lamp_delta": 7,
               "dl_graph.dl_distance": 2.6, "dl_graph.neighbors": 15,
               "base_groups.sol_delta": 0.5}


def git_commit(root: Path) -> str:
    # the ceiling keeps git from searching the directories above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.resolve().parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown (git not available)"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(root: Path, seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "commit": git_commit(root),
        "seed": seed,
    }


def run_worker(root: Path, mode: str, args, deadline: float) -> dict:
    """Start one workload process, wait for it and return its last event."""
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(HERE / "worker.py"), "--mode", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen(cmd + ["--spawned", repr(spawned)], cwd=root, env=env,
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} process exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]], required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    root = Path.cwd()
    if not (root / "src" / "lampgeo" / "__init__.py").is_file():
        print("run from the root of a lampgeo checkout: src/lampgeo is missing", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    print("env:", json.dumps(environment(root, args.seed)))
    w = args.workload
    try:
        if args.trace:
            res = run_worker(root, "trace", args, deadline)
            metrics = {m["name"]: {"value": res["metrics"][m["name"]], "unit": m["unit"]}
                       for m in spec["per_layer"]}
            for name, ref in REANCHOR_US.items():
                print(f"{w} probe {name}: {res['metrics'][name + '.us_per_call']:.2f} us/call "
                      f"(ROADMAP re-anchor: {ref})")
            print(f"{w} spans written to {res['trace_file']}")
        else:
            setups = [run_worker(root, "setup", args, deadline)["setup_s"]
                      for _ in range(SETUP_RUNS - 1)]
            res = run_worker(root, "measure", args, deadline)
            res["setup_s"] = statistics.median(setups + [res["setup_s"]])
            metrics = {m["name"]: {"value": res[m["name"]], "unit": m["unit"]}
                       for m in spec["end_to_end"]}
            print(f"{w} jobs: {res['attempted']} in {res['blocks']} blocks, "
                  f"{res['wall_s']:.2f} s of job wall time, "
                  f"{res['busy_s']:.2f} s at reference speed")
    except (RuntimeError, OSError, ValueError, KeyError, subprocess.TimeoutExpired) as e:
        print(f"benchmark failed: {e!r}", file=sys.stderr)
        return 1
    for name, m in metrics.items():
        print(f"{w} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{w} error_rate = {res['failed'] / res['attempted']:.6g} "
          f"({res['failed']} of {res['attempted']} jobs)")
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
