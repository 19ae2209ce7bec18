"""One workload process of the benchmark.

    python3 perfbench/worker.py --mode {setup,measure,trace} --workload W
        --seed N --seconds S --spawned T

Run from the root of a checkout; the library is imported from its ``src``.
``--spawned`` is the CLOCK_MONOTONIC reading taken by the parent just before
it started this process, so set-up time includes interpreter start-up.

Every mode first sets up: import lampgeo, draw the seeded inputs and run one
untimed warm-up job of each job class, then reports ``ready``.

* ``setup`` stops there.
* ``measure`` runs whole blocks of jobs as a closed loop with one client
  until the jobs have taken ``--seconds`` of wall time and at least
  ``MIN_JOBS`` have run.  Each output is checked between jobs, outside the
  timed interval.  Job times are reported at reference speed (see
  ``speed_reference_s``).
* ``trace`` runs each job of a fixed list of the workload's jobs twice
  untraced and twice traced, then one block of every other workload and the
  primitive probes traced, and derives the per-layer metrics from the spans
  and the returned reports.

The last line of standard output is one JSON object with the results.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

MIN_JOBS = 100
# the independent pair scan of an m=4 job takes seconds, so it runs on the
# m=4 job of every BILIP_M4_CHECK_EVERY-th block only
BILIP_M4_CHECK_EVERY = 32
TRACE_BLOCKS = {"perm_scan": 8, "quad_verify": 1, "dl_rigidity": 8}
TRACE_ROUNDS = 2
PROBE_REPS = 15
# On a shared machine the speed of the Python interpreter drifts by 10-40%
# over tens of seconds, in wall time and CPU time alike, which hides changes
# of the program smaller than that.  So a measuring run times a fixed
# pure-Python loop, which uses nothing of lampgeo, right before and right
# after each job, and scales the job's wall time to the speed at which that
# loop takes REFERENCE_S.  The shorter of the two readings is used: a
# reading that an interruption lengthened says nothing of the job.  A
# change of lampgeo leaves the loop's time alone.  Set-up is scaled the
# same way.
REFERENCE_S = 0.001
REFERENCE_ITERS = 8000
_REFERENCE_TABLE = list(range(7, 7 + 256 * 13, 13))
LAYERS = ("maps.bilip", "maps.qi", "maps.isometry", "base_groups", "dl_graph", "quads")


def speed_reference_s() -> float:
    """Wall time of the fixed reference loop."""
    t0 = time.perf_counter()
    acc = 0
    table = _REFERENCE_TABLE
    for i in range(REFERENCE_ITERS):
        acc = (acc * 31 + table[(acc ^ i) & 255]) & 0xFFFFFF
    return time.perf_counter() - t0


class Tracer:
    """In-memory spans: [name, job id, parent span, start, end, calls, raised]."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, job: int, calls: int = 1):
        rec = [name, job, self._open[-1] if self._open else None, time.perf_counter(), None, calls, False]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        except BaseException:
            rec[6] = True
            raise
        finally:
            rec[4] = time.perf_counter()
            self._open.pop()


class NullTracer:
    _null = contextlib.nullcontext()

    def span(self, name: str, job: int, calls: int = 1):
        return self._null


class Runner:
    """Runs and checks jobs; counts failures and, when asked, work counts."""

    def __init__(self, workloads):
        self.wl = workloads
        self.scaled = False
        self.wall_s = 0.0
        self.next_id = 0
        self.attempted = 0
        self.failed_jobs: set[int] = set()
        self.counts: dict[str, int] = {}
        self._full_checked: set = set()

    def run(self, job, tr, block: int, count: bool = False) -> float:
        """Run one job and return its time, scaled to reference speed when
        ``scaled`` is set; the check runs afterwards."""
        jid = self.next_id
        self.next_id += 1
        self.attempted += 1
        out = None
        ref = speed_reference_s() if self.scaled else 0.0
        t0 = time.perf_counter()
        try:
            with tr.span("job." + job.cls, jid):
                out = self.wl.run_job(job, tr, jid)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.failed_jobs.add(jid)
        elapsed = time.perf_counter() - t0
        self.wall_s += elapsed
        if self.scaled:
            elapsed *= REFERENCE_S / min(ref, speed_reference_s())
        if jid in self.failed_jobs:
            return elapsed
        full = job.cls != "bilip_m4" or (block % BILIP_M4_CHECK_EVERY == 0
                                         and job.args not in self._full_checked)
        try:
            ok = self.wl.check_job(job, out, full)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            ok = False
        if full and job.cls == "bilip_m4":
            self._full_checked.add(job.args)
        if not ok:
            print(f"check failed: {job.cls} {job.args!r:.200}", file=sys.stderr)
            self.failed_jobs.add(jid)
        if count:
            for key, value in self.wl.job_counts(job, out).items():
                self.counts[key] = self.counts.get(key, 0) + value
        return elapsed


def _emit(obj) -> None:
    print(json.dumps(obj), flush=True)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def measure(gen, runner: Runner, seconds: float) -> dict:
    tr = NullTracer()
    runner.scaled = True
    latencies: list[float] = []
    b = 0
    while runner.wall_s < seconds or len(latencies) < MIN_JOBS:
        for job in gen.block(b):
            latencies.append(runner.run(job, tr, b))
        b += 1
    busy = sum(latencies)
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    completed = runner.attempted - len(runner.failed_jobs)
    return {
        "attempted": runner.attempted,
        "failed": len(runner.failed_jobs),
        "blocks": b,
        "busy_s": busy,
        "wall_s": runner.wall_s,
        "jobs_per_s": completed / busy,
        "job_ms_p50": deciles[4] * 1000,
        "job_ms_p90": deciles[8] * 1000,
        "peak_rss_mb": _peak_rss_mb(),
    }


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------

def _probe_inputs(wl, seed: int) -> dict:
    """Arguments for the primitive probes, taken from the first block of the
    quad_verify and dl_rigidity workloads at this seed."""
    import lampgeo as lg
    from lampgeo import BSNumber

    quad = wl.Generator("quad_verify", seed).block(0)
    tele = next(j for j in quad if j.cls == "telescope")
    # the sides of each parallelogram, so the operands have the sizes that
    # the telescope jobs meet
    bs = []
    for ar, ak, wr, wk, v in tele.args:
        a, w = BSNumber.normalize(ar, ak, 2), BSNumber.normalize(wr, wk, 2)
        vb = BSNumber.from_fraction(v, 2)
        corners = [a, a + w, a + w + vb, a + vb]
        bs += zip(corners, corners[1:] + corners[:1])
    matrix, box = next(j for j in quad if j.cls == "schwartz").args
    ctx = lg.sol_invariant_form(matrix)
    rng = random.Random(f"probe:{seed}")
    sol = [(rng.randint(-box, box), rng.randint(-box, box)) for _ in range(400)]
    (u,) = next(j for j in wl.Generator("dl_rigidity", seed).block(0) if j.cls == "bfs").args
    verts = list(lg.distances_from(u, wl.BFS_RADIUS))
    return {"bs": bs, "ctx": ctx, "sol": list(zip(sol, sol[1:])),
            "verts": verts, "vpairs": list(zip(verts, verts[1:]))}


def primitive_probes(wl, seed: int, tr: Tracer, jid: int) -> dict[str, float]:
    """Median microseconds per call of the base-group and DL-graph primitives."""
    import lampgeo as lg

    p = _probe_inputs(wl, seed)
    ctx = p["ctx"]
    cpairs = [(v.config, w.config) for v, w in p["vpairs"]]
    loops = {
        "base_groups.bs_delta": (lambda: [lg.bs_delta(a, b) for a, b in p["bs"]], len(p["bs"])),
        "base_groups.bs_add": (lambda: [a + b for a, b in p["bs"]], len(p["bs"])),
        "base_groups.sol_delta": (lambda: [lg.sol_delta(ctx, a, b) for a, b in p["sol"]], len(p["sol"])),
        "base_groups.lamp_add": (lambda: [lg.lamp_add(a, b) for a, b in cpairs], len(cpairs)),
        "base_groups.lamp_delta": (lambda: [lg.lamp_delta(a, b) for a, b in cpairs], len(cpairs)),
        "dl_graph.neighbors": (lambda: [lg.neighbors(v) for v in p["verts"]], len(p["verts"])),
        "dl_graph.dl_distance": (lambda: [lg.dl_distance(a, b) for a, b in p["vpairs"]], len(p["vpairs"])),
        "dl_graph.dl_mul": (lambda: [lg.dl_mul(a, b) for a, b in p["vpairs"]], len(p["vpairs"])),
    }
    # the primitives take turns, so that drift of the machine's speed
    # reaches each of them alike
    times: dict[str, list[float]] = {name: [] for name in loops}
    for _ in range(PROBE_REPS):
        for name, (loop, calls) in loops.items():
            with tr.span(name + ".probe", jid, calls=calls):
                t0 = time.perf_counter()
                loop()
                times[name].append(time.perf_counter() - t0)
    return {name: statistics.median(times[name]) / calls * 1e6
            for name, (_, calls) in loops.items()}


def _layer(name: str) -> str | None:
    return next((la for la in LAYERS if name == la or name.startswith(la + ".")), None)


def layer_metrics(tr: Tracer, runner: Runner, probes: dict[str, float], overhead: float) -> dict:
    calls: dict[str, int] = {}
    busy: dict[str, float] = {}
    for name, _, _, start, end, n, _ in tr.spans:
        calls[name] = calls.get(name, 0) + n
        busy[name] = busy.get(name, 0.0) + (end - start)

    def ms_per_call(name: str) -> float:
        return busy.get(name, 0.0) / calls[name] * 1000 if calls.get(name) else 0.0

    c = runner.counts
    bilip_s = busy.get("maps.bilip.m3", 0.0) + busy.get("maps.bilip.m4", 0.0)
    m = {
        "maps.bilip.ms_per_call.m3": ms_per_call("maps.bilip.m3"),
        "maps.bilip.ms_per_call.m4": ms_per_call("maps.bilip.m4"),
        "maps.bilip.pairs_per_s": c.get("maps.bilip.pairs_computed", 0) / bilip_s if bilip_s else 0.0,
        "quads.lamp_claim.ms_per_call": ms_per_call("quads.lamp_claim"),
        "quads.lamp_claim.checked_per_enumerated": (
            c.get("quads.lamp_claim.checked", 0) / c["quads.lamp_claim.enumerated"]
            if c.get("quads.lamp_claim.enumerated") else 0.0),
        "quads.taback.ms_per_call": ms_per_call("quads.taback"),
        "quads.schwartz.ms_per_call": ms_per_call("quads.schwartz"),
        "quads.telescope.ms_per_call": ms_per_call("quads.telescope"),
        "dl_graph.distances_from.ms_per_call": ms_per_call("dl_graph.distances_from"),
        "maps.isometry.ms_per_call": ms_per_call("maps.isometry"),
        "maps.qi.ms_per_call": ms_per_call("maps.qi"),
    }
    for key in ("maps.bilip.pairs_computed", "maps.bilip.bytes_computed",
                "quads.lamp_claim.enumerated", "quads.lamp_claim.checked",
                "quads.taback.checked", "quads.schwartz.checked", "quads.telescope.chain_steps",
                "dl_graph.distances_from.vertices", "maps.isometry.ball_vertices",
                "maps.isometry.maps_found", "maps.qi.pairs"):
        m[key] = c.get(key, 0)
    for name, us in probes.items():
        m[name + ".us_per_call"] = us
    for la in LAYERS:
        spans = [s for s in tr.spans if _layer(s[0]) == la]
        m[la + ".calls"] = sum(s[5] for s in spans)
        m[la + ".busy_s"] = sum(s[4] - s[3] for s in spans)
        m[la + ".failed"] = sum(1 for s in spans if s[6] or s[1] in runner.failed_jobs)
    m["trace.overhead_frac"] = overhead
    return m


def trace(wl, gen, runner: Runner, workload: str, seed: int, out_dir: Path) -> dict:
    jobs = [(b, job) for b in range(TRACE_BLOCKS[workload]) for job in gen.block(b)]
    tr = Tracer()
    plain = NullTracer()
    untraced = traced = 0.0
    # each job runs untraced and traced back to back, in turns first, so
    # that drift of the machine's speed cancels out of the overhead
    for rnd in range(TRACE_ROUNDS):
        for b, job in jobs:
            if rnd % 2:
                traced += runner.run(job, tr, b, count=True)
            untraced += runner.run(job, plain, b)
            if not rnd % 2:
                traced += runner.run(job, tr, b, count=True)
    # one block of every other workload, so that each layer metric has calls
    for other in wl.WORKLOADS:
        if other != workload:
            for job in wl.Generator(other, seed).block(0):
                runner.run(job, tr, 0, count=True)
    probes = primitive_probes(wl, seed, tr, runner.next_id)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"trace-{workload}-seed{seed}.json"
    t_base = tr.spans[0][3] if tr.spans else 0.0
    path.write_text(json.dumps({
        "fields": ["name", "job", "parent", "start_s", "end_s", "calls", "raised"],
        "spans": [[s[0], s[1], s[2], s[3] - t_base, s[4] - t_base, s[5], s[6]] for s in tr.spans],
    }))
    return {
        "attempted": runner.attempted,
        "failed": len(runner.failed_jobs),
        "metrics": layer_metrics(tr, runner, probes, traced / untraced - 1),
        "trace_file": str(path.relative_to(Path.cwd())),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--spawned", type=float, required=True)
    args = ap.parse_args(argv)

    ref_start = speed_reference_s()
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    import lampgeo
    if Path(lampgeo.__file__).resolve().parent != (root / "src" / "lampgeo").resolve():
        print(f"lampgeo imported from {lampgeo.__file__}, not from this checkout", file=sys.stderr)
        return 2
    import workloads as wl

    gen = wl.Generator(args.workload, args.seed)
    runner = Runner(wl)
    warm = [args.workload] if args.mode != "trace" else list(wl.WORKLOADS)
    for name in warm:
        for job in wl.Generator(name, args.seed).warmup():
            runner.run(job, NullTracer(), 1)
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.spawned
    setup_s *= REFERENCE_S / min(ref_start, speed_reference_s())
    _emit({"event": "ready", "setup_s": setup_s})
    if runner.failed_jobs:
        return 1
    if args.mode == "setup":
        return 0
    runner.attempted = 0
    runner.wall_s = 0.0
    if args.mode == "measure":
        result = measure(gen, runner, args.seconds)
    else:
        result = trace(wl, gen, runner, args.workload, args.seed, Path(__file__).resolve().parent / "out")
    _emit({"event": "result", "setup_s": setup_s, **result})
    return 0


if __name__ == "__main__":
    sys.exit(main())
