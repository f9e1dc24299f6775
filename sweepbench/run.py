#!/usr/bin/env python3
"""Sweep benchmark: end-to-end and per-layer timings of `hxmesh sweep`.

Usage (from the repository root):

    python3 sweepbench/run.py --workload regression|packet|replay \
        --seed N --seconds S --trace 0|1
    python3 sweepbench/run.py --smoke

The benchmark builds the repository's `hxmesh` CLI and the tracer
`sweep_trace` (sweepbench/CMakeLists.txt, Release only) under
$CARGO_TARGET_DIR (default .bench_build), makes its grid from --seed, and
works in .bench_work/, which it removes on exit.

--trace 0 times the real CLI as a child process and prints the end-to-end
metrics: wall_s (4 threads or workers), wall_1t_s (1 thread or worker),
setup_s (median of set-ups sampled through the run) and peak_rss_mib (largest
process of the sweep's tree). --trace 1 runs sweep_trace, which records
spans around calls into each layer and writes them out at the end; this
script turns them into the per-layer metrics (a layer's self time is its
span minus its child spans).

Every run checks its outputs: rows of the 1-thread, 4-thread and replayed
sweeps must be byte-identical, every row must have numerics_ok, and no cache
entry may be quarantined. A cell failing any of these counts in
cells_failed_frac. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.

--smoke runs every workload on one small cell, checks that every metric
named in BENCHMARK.json is printed with its unit, and that the output check
trips on deliberately mismatched rows. It exits 0 only if all of that holds.
"""

import argparse
import dataclasses
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
THREADS = 4  # the box's core count; also the shard and worker count
RUN_DEADLINE_S = 170.0  # a run must end within 180 s

GRIDS = {
    "full": {"regression": "regression.json", "packet": "packet.json",
             "replay": "regression.json"},
    "smoke": {"regression": "smoke_regression.json",
              "packet": "smoke_packet.json",
              "replay": "smoke_regression.json"},
}

END_TO_END_UNITS = {
    "wall_s": "s",
    "wall_1t_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}

PER_LAYER_UNITS = {
    "topo.build_s": "s", "topo.builds": "count",
    "topo.sample_s": "s", "topo.path_links": "count",
    "topo.dist_fill_s": "s", "topo.dist_fills": "count",
    "flow.solve_s": "s", "flow.fill_s": "s", "flow.solves": "count",
    "flow.subflows": "count", "flow.incidences_per_s": "1/s",
    "collectives.ring_s": "s", "collectives.rings": "count",
    "sim.route_build_s": "s", "sim.run_s": "s", "sim.packets": "count",
    "sim.packet_hops": "count", "sim.hops_per_s": "1/s",
    "engine.run_s.flow": "s", "engine.run_s.packet": "s",
    "engine.cells": "count", "engine.cell_max_s": "s",
    "engine.pool_busy_frac": "frac",
    "result_cache.load_s": "s", "result_cache.loads": "count",
    "result_cache.hit_frac": "frac", "result_cache.bytes_read": "B",
    "result_cache.store_s": "s", "result_cache.stores": "count",
    "result_cache.bytes_written": "B", "result_cache.entry_max_bytes": "B",
    "result_cache.quarantined": "count",
    "shard.merge_s": "s", "cli.orchestration_s": "s",
    "trace.busy_s": "s", "trace.layer_share": "frac",
}

# Span-name prefixes of the repository's layers; everything else is the
# benchmark's own glue and counts against trace.layer_share.
LAYERS = ("topo.", "flow.", "collectives.", "sim.", "engine.",
          "result_cache.", "shard.", "cli.")


class BenchError(Exception):
    """The benchmark cannot run (no source tree, build failure, bad build)."""


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


# ------------------------------------------------------------------ build --

def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "sweepbench")


def build():
    """Configures (Release) and builds hxmesh and sweep_trace; returns paths."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        raise BenchError(f"no hxmesh source tree at {ROOT}")
    out = build_dir()
    cache = os.path.join(out, "CMakeCache.txt")
    if not os.path.isfile(cache):
        run_build_step(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"])
    build_type = ""
    with open(cache) as f:
        for line in f:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.split("=", 1)[1].strip()
    if build_type != "Release":
        raise BenchError(f"refusing a {build_type or 'default'} build in "
                         f"{out}: timings need CMAKE_BUILD_TYPE=Release")
    run_build_step(["cmake", "--build", out, "-j", str(os.cpu_count() or 1),
                    "--target", "hxmesh_cli", "sweep_trace"])
    return (os.path.join(out, "hxmesh", "hxmesh"),
            os.path.join(out, "sweep_trace"))


def run_build_step(argv):
    proc = subprocess.run(argv, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, timeout=850)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout.decode(errors="replace")[-4000:])
        raise BenchError(f"build step failed: {' '.join(argv)}")


def record(tracer_exe, workload, seed, trace):
    """Facts printed with every result."""
    info = json.loads(run_checked([tracer_exe, "info"]))
    if info["build_type"] != "Release" or info["assertions"]:
        raise BenchError(f"refusing a non-Release sweep_trace build: {info}")
    commit = "none"  # a checkout without .git has no commit to report
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {"workload": workload, "seed": seed, "trace": trace,
            "nproc": os.cpu_count(), "compiler": info["compiler"],
            "build_type": info["build_type"], "commit": commit,
            "source_digest": source_digest(), "threads": THREADS,
            "workers": THREADS, "shards": THREADS}


def source_digest():
    """SHA-256 over the files that make up the build (the checkout may not
    be a git repository, so this identifies the code that was measured)."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "sweepbench"):
        for d, _, files in os.walk(os.path.join(ROOT, top)):
            paths += [os.path.join(d, f) for f in files]
    for p in sorted(paths):
        h.update(os.path.relpath(p, ROOT).encode())
        with open(p, "rb") as f:
            h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()[:16]


# -------------------------------------------------------------- processes --

def run_checked(argv, env=None, timeout=120):
    proc = subprocess.run(argv, env=env, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(argv)} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return proc.stdout


@dataclasses.dataclass
class Timed:
    """Outcome of one child process: wall time, peak RSS, exit code."""
    wall_s: float
    rss_mib: float
    code: int
    log_path: str

    def log_tail(self):
        with open(self.log_path, errors="replace") as f:
            return f.read()[-2000:]


def run_timed(argv, threads, log_path, timeout):
    """Runs argv in its own process group with HXMESH_THREADS=threads.

    Wall time is taken from spawn to reap. Peak RSS comes from wait4, which
    reports the largest resident set of the child and every descendant it
    reaped (shard workers included). Past `timeout` the whole group is
    killed; the call always reaps the child before returning.
    """
    env = dict(os.environ, HXMESH_THREADS=str(threads))
    with open(log_path, "w") as log_file:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL,
                                stderr=log_file, start_new_session=True)
        reaped = {}

        def reap():
            _, status, usage = os.wait4(proc.pid, 0)
            reaped["t"] = time.perf_counter()
            reaped["status"], reaped["usage"] = status, usage

        waiter = threading.Thread(target=reap)
        waiter.start()
        waiter.join(max(timeout, 1.0))
        if waiter.is_alive():
            os.killpg(proc.pid, signal.SIGKILL)
            waiter.join()
        # Kill anything of the group the sweep left behind.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    proc.returncode = os.waitstatus_to_exitcode(reaped["status"])
    return Timed(reaped["t"] - t0, reaped["usage"].ru_maxrss / 1024.0,
                 proc.returncode, log_path)


# ------------------------------------------------------------ output check --

def row_lines(text):
    """The row objects of a rows file, one per line as the CLI writes them."""
    return [line.rstrip(",") for line in text.splitlines()
            if line.startswith("{")]


def check_rows(rows_text, reference_text):
    """Returns (cells, failed) for one sweep's rows against the reference.

    A cell fails when its row is missing or not byte-identical to the
    reference row, or when either says numerics_ok is false.
    """
    ref = row_lines(reference_text)
    got = row_lines(rows_text)
    failed = 0
    for i, want in enumerate(ref):
        row = got[i] if i < len(got) else None
        if row != want or not numerics_ok(want):
            failed += 1
    failed += max(0, len(got) - len(ref))
    return max(len(ref), len(got)), failed


def numerics_ok(line):
    try:
        return json.loads(line).get("numerics_ok") is True
    except ValueError:
        return False


def quarantined(cache_dir):
    qdir = os.path.join(cache_dir, "quarantine")
    return len(os.listdir(qdir)) if os.path.isdir(qdir) else 0


class Check:
    """Tally of attempted and failed cells over a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def sweep(self, what, result, rows_path, reference_text, cache_dir,
              expected_cells):
        if result is not None and result.code != 0:
            self.attempted += expected_cells
            self.failed += expected_cells
            self.notes.append(f"{what}: exit {result.code}: "
                              f"{result.log_tail().strip()[-300:]}")
            return
        if not os.path.isfile(rows_path):
            self.attempted += expected_cells
            self.failed += expected_cells
            self.notes.append(f"{what}: wrote no rows")
            return
        with open(rows_path) as f:
            cells, failed = check_rows(f.read(), reference_text)
        failed += quarantined(cache_dir)
        self.attempted += cells
        self.failed += failed
        if failed:
            self.notes.append(f"{what}: {failed} of {cells} cells failed the "
                              "output check")


def reference_rows(result, rows_path, check, cells_hint):
    """Rows of the first sweep of a run: they must exist and pass numerics."""
    if result.code != 0 or not os.path.isfile(rows_path):
        check.attempted += cells_hint
        check.failed += cells_hint
        check.notes.append(f"reference sweep exit {result.code}: "
                           f"{result.log_tail().strip()[-300:]}")
        return None
    with open(rows_path) as f:
        text = f.read()
    bad = sum(1 for line in row_lines(text) if not numerics_ok(line))
    check.attempted += len(row_lines(text))
    check.failed += bad
    if bad:
        check.notes.append(f"reference sweep: {bad} rows without numerics_ok")
    return text


# ---------------------------------------------------------------- inputs --

def make_grid(name, seed, grid_set, work):
    """The workload's grid with its seed axis set to --seed."""
    with open(os.path.join(HERE, "grids", GRIDS[grid_set][name])) as f:
        doc = json.load(f)
    grids = doc["grids"] if "grids" in doc else [doc]
    for g in grids:
        g["seeds"] = [seed]
    path = os.path.join(work, "grid.json")
    with open(path, "w") as f:
        json.dump({"grids": grids}, f, indent=1)
    cells = sum(len(g["topologies"]) * len(g.get("engines", ["flow"])) *
                len(g["patterns"]) for g in grids)
    return path, cells


# -------------------------------------------------------- untraced runs --

class Runner:
    def __init__(self, hxmesh, tracer, grid, cells, work, started):
        self.hxmesh, self.tracer, self.grid, self.cells = \
            hxmesh, tracer, grid, cells
        self.work, self.started = work, started
        self.count = 0

    def remaining(self):
        return RUN_DEADLINE_S - (time.perf_counter() - self.started)

    def sweep(self, threads, cache_dir, shards=0):
        """One `hxmesh sweep` of the grid; returns (Timed, rows path)."""
        self.count += 1
        rows = os.path.join(self.work, f"rows-{self.count}.json")
        argv = [self.hxmesh, "sweep", "--config", self.grid,
                "--cache-dir", cache_dir, "--json", rows]
        if shards:
            argv += ["--shards", str(shards), "--workers", str(threads)]
        else:
            argv += ["--threads", str(threads)]
        log_path = os.path.join(self.work, f"sweep-{self.count}.log")
        result = run_timed(argv, threads, log_path, self.remaining() - 5.0)
        return result, rows

    def setup_samples(self, warm):
        """Three set-ups of the sweep in one sweep_trace process."""
        argv = [self.tracer, "setup", "--config", self.grid]
        if warm:
            argv.append("--warm")
        out = run_checked(argv, env=dict(os.environ, HXMESH_THREADS="1"),
                          timeout=max(self.remaining(), 1.0))
        return json.loads(out)["setup_s"]


def measure(runner, seconds, one_pair, warm):
    """Repeats one_pair() (a 4-thread and a 1-thread sample) to fill
    `seconds`: the first pair's duration sets how many pairs fit, at least
    one, and never more than the run's deadline leaves room for. Set-up is
    sampled before the first pair and after every pair, so its median
    spans the run like the sweeps' do. Returns the set-up samples."""
    setups = runner.setup_samples(warm)
    t0 = time.perf_counter()
    one_pair()
    pair_s = max(time.perf_counter() - t0, 1e-3)
    setups += runner.setup_samples(warm)
    for _ in range(max(1, round(seconds / pair_s)) - 1):
        if runner.remaining() < 3 * pair_s + 10.0:
            break
        one_pair()
        setups += runner.setup_samples(warm)
    return setups


def summary(walls, rss, setups):
    return {"wall_s": statistics.median(walls[THREADS]),
            "wall_1t_s": statistics.median(walls[1]),
            "setup_s": statistics.median(setups),
            "peak_rss_mib": statistics.median(rss)}


def run_cold(runner, seconds, check):
    """regression / packet: cold sweeps at 4 and 1 threads, then a replay."""
    walls = {THREADS: [], 1: []}
    rss = []
    state = {"reference": None, "keep": None}

    def one_pair():
        for threads in (THREADS, 1):
            cache = os.path.join(runner.work, f"cache-{runner.count + 1}")
            result, rows = runner.sweep(threads, cache)
            walls[threads].append(result.wall_s)
            if threads == THREADS:
                rss.append(result.rss_mib)
            if state["keep"] is None:
                # The run's first sweep: its rows are the reference and its
                # cache is replayed at the end.
                state["reference"] = reference_rows(result, rows, check,
                                                    runner.cells)
                state["keep"] = cache
                continue
            if state["reference"] is not None:
                check.sweep(f"cold sweep at {threads} thread(s)", result, rows,
                            state["reference"], cache, runner.cells)
            shutil.rmtree(cache, ignore_errors=True)

    setups = measure(runner, seconds, one_pair, warm=False)
    if state["reference"] is not None:
        result, rows = runner.sweep(THREADS, state["keep"])
        check.sweep("warm replay", result, rows, state["reference"],
                    state["keep"], runner.cells)
    return summary(walls, rss, setups), state["reference"]


def run_replay(runner, seconds, check):
    """replay: fill the cache untimed, then sharded warm replays."""
    cache = os.path.join(runner.work, "cache")
    result, rows = runner.sweep(THREADS, cache)
    reference = reference_rows(result, rows, check, runner.cells)
    if reference is None:
        raise BenchError("replay: the cache fill failed")
    walls = {THREADS: [], 1: []}
    rss = []

    def one_pair():
        for workers in (THREADS, 1):
            result, rows = runner.sweep(workers, cache, shards=THREADS)
            walls[workers].append(result.wall_s)
            if workers == THREADS:
                rss.append(result.rss_mib)
            check.sweep(f"sharded replay over {workers} worker(s)", result,
                        rows, reference, cache, runner.cells)

    setups = measure(runner, seconds, one_pair, warm=True)
    return summary(walls, rss, setups), reference


# ----------------------------------------------------------- traced run --

def run_traced(runner, check):
    out = os.path.join(runner.work, "trace.json")
    work = os.path.join(runner.work, "trace")
    os.makedirs(work)
    argv = [runner.tracer, "trace", "--config", runner.grid, "--work", work,
            "--hxmesh", runner.hxmesh, "--out", out]
    log_path = os.path.join(runner.work, "trace.log")
    result = run_timed(argv, 1, log_path, runner.remaining() - 2.0)
    if result.code != 0:
        raise BenchError(f"sweep_trace exited {result.code}: "
                         f"{result.log_tail().strip()[-1500:]}")
    with open(out) as f:
        trace = json.load(f)
    counts = trace["counts"]
    reference = reference_rows(result, os.path.join(work, "rows_cold.json"),
                               check, runner.cells)
    if reference is None:
        raise BenchError("traced run wrote no rows")
    for name in sorted(os.listdir(work)):
        if name.startswith("rows_") and name != "rows_cold.json":
            check.sweep(f"traced {name[5:-5]}", None, os.path.join(work, name),
                        reference, os.path.join(work, "cache-pool"),
                        runner.cells)
    errored = int(counts.get("cells_errored", 0))
    if errored:
        check.notes.append(f"traced run: {errored} cells raised")
    return layer_metrics(trace["spans"], counts), reference


def layer_metrics(spans, counts):
    """Per-layer metrics from spans [name, start, end, parent] and counts."""
    dur = [end - start for _, start, end, _ in spans]
    child = [0.0] * len(spans)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            child[parent] += dur[i]
    self_s = {}
    for i, (name, _, _, _) in enumerate(spans):
        self_s[name] = self_s.get(name, 0.0) + dur[i] - child[i]

    def per_replay(name):
        """Median over replay passes of the summed self time of `name`."""
        by_pass = {}
        for i, (n, _, _, parent) in enumerate(spans):
            if n == name and spans[parent][0] == "bench.replay":
                by_pass[parent] = by_pass.get(parent, 0.0) + dur[i] - child[i]
        return statistics.median(by_pass.values()) if by_pass else 0.0

    def c(key):
        return float(counts.get(key, 0.0))

    def ratio(a, b):
        return a / b if b > 0 else 0.0

    replays = max(1.0, c("replays"))
    busy = dur[0]
    layer_self = sum(v for k, v in self_s.items() if k.startswith(LAYERS))
    fill_s = self_s.get("flow.solve", 0.0) - self_s.get("topo.sample", 0.0)
    run_flow = self_s.get("engine.run.flow", 0.0)
    run_packet = self_s.get("engine.run.packet", 0.0)
    orchestration = [v for k, v in counts.items()
                     if k.startswith("cli.orchestration_s.")]
    return {
        "topo.build_s": self_s.get("topo.build", 0.0),
        "topo.builds": c("topo.builds"),
        "topo.sample_s": self_s.get("topo.sample", 0.0),
        "topo.path_links": c("topo.path_links"),
        "topo.dist_fill_s": self_s.get("topo.dist_fill", 0.0),
        "topo.dist_fills": c("topo.dist_fills"),
        "flow.solve_s": self_s.get("flow.solve", 0.0),
        "flow.fill_s": fill_s,
        "flow.solves": c("flow.solves"),
        "flow.subflows": c("flow.subflows"),
        "flow.incidences_per_s": ratio(c("topo.path_links"), fill_s),
        "collectives.ring_s": self_s.get("collectives.ring", 0.0),
        "collectives.rings": c("collectives.rings"),
        "sim.route_build_s": self_s.get("sim.route_build", 0.0),
        "sim.run_s": self_s.get("sim.run", 0.0),
        "sim.packets": c("sim.packets"),
        "sim.packet_hops": c("sim.packet_hops"),
        "sim.hops_per_s": ratio(c("sim.packet_hops"),
                                self_s.get("sim.run", 0.0)),
        "engine.run_s.flow": run_flow,
        "engine.run_s.packet": run_packet,
        "engine.cells": c("engine.cells"),
        "engine.cell_max_s": c("engine.cell_max_s"),
        "engine.pool_busy_frac": ratio(
            run_flow + run_packet,
            c("engine.pool_threads") * c("engine.run_cells_wall_s")),
        "result_cache.load_s": per_replay("result_cache.load"),
        "result_cache.loads": c("replay.loads") / replays,
        "result_cache.hit_frac": ratio(c("replay.hits"), c("replay.loads")),
        "result_cache.bytes_read": c("replay.bytes_read") / replays,
        "result_cache.store_s": self_s.get("result_cache.store", 0.0),
        "result_cache.stores": c("result_cache.stores"),
        "result_cache.bytes_written": c("result_cache.bytes_written"),
        "result_cache.entry_max_bytes": c("result_cache.entry_max_bytes"),
        "result_cache.quarantined": c("result_cache.quarantined"),
        "shard.merge_s": per_replay("shard.merge"),
        "cli.orchestration_s": (statistics.median(orchestration)
                                if orchestration else 0.0),
        "trace.busy_s": busy,
        "trace.layer_share": ratio(layer_self, busy),
    }


# ------------------------------------------------------------------ main --

def run_workload(args):
    hxmesh, tracer = build()
    # The run's deadline counts from here: only a checkout's first run
    # compiles, and that one may take longer.
    started = time.perf_counter()
    facts = record(tracer, args.workload, args.seed, args.trace)
    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        grid, cells = make_grid(args.workload, args.seed, args.grid_set, work)
        runner = Runner(hxmesh, tracer, grid, cells, work, started)
        check = Check()
        if args.trace:
            metrics, reference = run_traced(runner, check)
            units = PER_LAYER_UNITS
        elif args.workload == "replay":
            metrics, reference = run_replay(runner, args.seconds, check)
            units = END_TO_END_UNITS
        else:
            metrics, reference = run_cold(runner, args.seconds, check)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass

    print("record: " + json.dumps(facts, sort_keys=True))
    digest = hashlib.sha256((reference or "").encode()).hexdigest()[:16]
    print(f"rows digest ({args.workload}, seed {args.seed}): {digest}")
    for note in check.notes:
        print("check: " + note)
    frac = check.failed / check.attempted if check.attempted else 1.0
    print(f"  {'cells_failed_frac':32s} {frac:.6g} frac "
          f"({check.failed} of {check.attempted} cells)")
    for name, unit in units.items():
        print(f"  {name:32s} {metrics[name]:.9g} {unit}")
    result = {
        "correct": check.failed == 0 and check.attempted > 0,
        "attempted": max(1, check.attempted),
        "failed": check.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result), flush=True)


def smoke():
    """Self-test: every workload on one small cell, both trace modes."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for w in spec["workloads"]:
        for trace in (0, 1):
            argv = [sys.executable, os.path.abspath(__file__), "--workload",
                    w["name"], "--seed", "3", "--seconds", "1", "--trace",
                    str(trace), "--grid-set", "smoke"]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True,
                                  text=True, timeout=170)
            tag = f"{w['name']} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{tag}: exit {proc.returncode}: "
                                f"{proc.stderr.strip()[-800:]}")
                continue
            last = proc.stdout.strip().splitlines()[-1]
            result = json.loads(last)
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: result keys {sorted(result)}")
            if result.get("correct") is not True or result.get("failed") != 0:
                problems.append(f"{tag}: output check failed:\n{proc.stdout}")
            printed = {k: v.get("unit") for k, v in result["metrics"].items()}
            if printed != declared[trace]:
                problems.append(f"{tag}: metrics/units differ from "
                                f"BENCHMARK.json: {printed}")
            lines = [line.split() for line in proc.stdout.splitlines()]
            for name, unit in declared[trace].items():
                if not any(words[:1] == [name] and words[-1] == unit
                           for words in lines if words):
                    problems.append(f"{tag}: {name} not printed with {unit}")
            log(f"smoke: {tag} ok ({result['attempted']} cells checked)")

    # The output check must trip on mismatched rows.
    row = ('{"topology":"t","engine":"flow","pattern":"perm","mean_bps":'
           '1.5e+10,"numerics_ok":true}')
    good = "[\n" + row + ",\n" + row.replace("perm", "shift") + "\n]\n"
    cases = {
        "changed value": good.replace("1.5e+10", "1.6e+10", 1),
        "missing row": "[\n" + row + "\n]\n",
        "extra row": good.replace("\n]", ",\n" + row + "\n]"),
        "numerics_ok false": good.replace("true", "false", 1),
    }
    if check_rows(good, good) != (2, 0):
        problems.append("check_rows rejects identical rows")
    for what, bad in cases.items():
        _, failed = check_rows(bad, good)
        if failed < 1:
            problems.append(f"check_rows missed a {what}")
    if problems:
        for p in problems:
            log("smoke: FAIL " + p)
        return 1
    log("smoke: ok")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(GRIDS["full"]))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--grid-set", choices=sorted(GRIDS), default="full",
                        help="'smoke' swaps in one small cell per workload")
    parser.add_argument("--smoke", action="store_true",
                        help="run the benchmark's self-test and exit")
    args = parser.parse_args()
    try:
        if args.smoke:
            build()
            return smoke()
        if not args.workload:
            parser.error("--workload is required")
        if args.seed < 0:
            parser.error("--seed must be >= 0")
        run_workload(args)
        return 0
    except (BenchError, subprocess.TimeoutExpired, OSError) as e:
        log(f"sweepbench: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
