"""One workload in a fresh process: set up, signal READY, run the timed loop.

Started by ``run.py``; prints ``READY`` once set-up is done and a final
``RESULT <json>`` line.  With ``--setup-only`` it exits after READY.
``--record`` instead runs one whole input cycle of a workload at the
default seed and stores its digests in ``digests.json``.

Traced runs (``--trace 1``) spend the first half of the window on
untraced ops and the second half re-running the same op indices with
the tracer installed, so the two halves give the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import hdbwdm  # noqa: E402
import numpy as np  # noqa: E402
import scipy  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import MAX_COUNTERS, TRACED, Tracer  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# per-layer metrics as (name, unit), as BENCHMARK.json lists them;
# "<module>.<function>.<stat>" values are per traced op
PER_LAYER = [
    (m["name"], m["unit"])
    for m in json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
]


def cpu_seconds() -> float:
    """CPU of this process plus its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


class Loop:
    """Closed-loop timing of one op after another; records every check."""

    def __init__(self, wl, name: str, seed: int, digests: dict):
        self.wl, self.name, self.seed, self.digests = wl, name, seed, digests
        self.units = self.failed_units = self.failed_checks = 0
        self.problems = []

    def op(self, index: int, tracer=None):
        if tracer is not None:
            tracer.op_id = index
        c0, k0, t0 = cpu_seconds(), workloads.child_cpu_seconds(), time.perf_counter()
        try:
            res = self.wl.run_op(index)
        except Exception as exc:  # a raised op fails all its units; counted, not fatal
            units = self.wl.units
            problem = f"op {index}: {type(exc).__name__}: {exc}"
            res = workloads.OpResult(units, units, b"", [problem])
        t1, c1, k1 = time.perf_counter(), cpu_seconds(), workloads.child_cpu_seconds()
        if tracer is not None:
            tracer.op_id = None
        # the op's peak: this process's high-water mark or its children's peak
        rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, res.child_rss_kb)
        self.units += res.units
        self.failed_units += res.failed_units
        bad = checks.digest_mismatch(self.digests, self.name, self.seed, index, res.digest)
        problems = res.problems + ([bad] if bad else [])
        self.failed_checks += bool(problems)  # one failure per op whose output check fails
        self.problems += problems
        return t1 - t0, c1 - c0, k1 - k0, rss_kb

    def finish(self) -> None:
        problems = self.wl.finish()
        self.failed_checks += bool(problems)
        self.problems += problems

    def run(self, seconds: float, tracer=None, indices=None):
        """Ops until ``seconds`` have passed (at least one, and none past ``indices``)."""
        walls, cpus, child, rss = [], [], [], []
        deadline = time.perf_counter() + seconds
        index = 0
        while indices is None or index < indices:
            w, c, k, r = self.op(index, tracer)
            walls.append(w)
            cpus.append(c)
            child.append(k)
            rss.append(r)
            index += 1
            if time.perf_counter() >= deadline:
                break
        return walls, cpus, child, rss


def cli_startup_s(samples: int = 3) -> float:
    env = workloads.subprocess_env()
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import hdbwdm.cli"], env=env, check=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def layer_metrics(tracer: Tracer, loop: Loop, walls: list, base_walls: list, child_cpu: list) -> dict:
    ops = list(range(len(walls)))
    totals = tracer.layer_totals(ops)
    traced = {f"{m}.{f}" for m, fns in TRACED.items() for f in fns}
    values = {}
    for metric, _ in PER_LAYER:
        layer, stat = metric.rsplit(".", 1)
        if layer in traced:
            v = totals.get(layer, {}).get(stat, 0.0)
            values[metric] = v if stat in MAX_COUNTERS else v / len(ops)
    covered = {op: 0.0 for op in ops}
    for span_name, start, end, parent, op in tracer.spans:
        if parent is None and op is not None:
            covered[op] += end - start
    values["trace.op.wall_s"] = statistics.median(walls)
    values["trace.op.coverage"] = min(covered[op] / walls[op] for op in ops)
    common = min(len(walls), len(base_walls))
    values["trace.ops_per_s_ratio"] = sum(base_walls[:common]) / sum(walls[:common])
    values["cli.startup_s"] = cli_startup_s() if loop.name == "cli-tall" else 0.0
    per_rep = efficiency = 0.0
    wl = loop.wl
    if isinstance(wl, workloads.Sweep) and wl.first_cells is not None:
        # pool child CPU and serial busy time, each per replication
        if wl.n_workers == 1:
            per_rep = wl.pool_child_cpu / wl.units
            serial = statistics.median(base_walls) / wl.units
        else:
            per_rep = statistics.median(child_cpu) / wl.units
            serial = wl.serial_wall / wl.units
        efficiency = serial / per_rep
    values["harness.pool.child_cpu_s_per_rep"] = per_rep
    values["harness.pool.cpu_efficiency"] = efficiency
    return {metric: [values[metric], unit] for metric, unit in PER_LAYER}


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    nproc = len(os.sched_getaffinity(0))
    return {
        "cpu_count": os.cpu_count(),
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "note": f"sweep-par runs {nproc} pool workers on {nproc} CPUs; its figures are capped by this hardware",
    }


def record(name: str) -> None:
    """Store one input cycle of digests for ``name`` at the default seed."""
    wl = workloads.make(name, checks.DEFAULT_SEED)
    wl.setup()
    digests = checks.load_digests() if checks.DIGESTS_PATH.exists() else {}
    results = [wl.run_op(i) for i in range(wl.cycle)]
    problems = [p for r in results for p in r.problems] + wl.finish()
    if problems or any(r.failed_units for r in results):
        raise SystemExit("not recording digests of failed ops:\n" + "\n".join(problems))
    digests[name] = [r.digest for r in results]
    checks.DIGESTS_PATH.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=checks.WORKLOADS)
    ap.add_argument("--seed", type=int, default=checks.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args()

    if not Path(hdbwdm.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"imported hdbwdm from {hdbwdm.__file__}, not from this checkout")
    if args.record:
        record(args.workload)
        return 0

    workloads.OUT.mkdir(exist_ok=True)
    wl = workloads.make(args.workload, args.seed, in_process_cli=bool(args.trace))
    wl.setup()
    print("READY", flush=True)
    if args.setup_only:
        wl.finish()
        return 0

    loop = Loop(wl, args.workload, args.seed, checks.load_digests())
    result = {"environment": environment()}
    if args.trace:
        base_walls = loop.run(args.seconds / 2)[0]
        tracer = Tracer()
        tracer.install()
        try:
            walls, cpus, child, rss = loop.run(args.seconds / 2, tracer, indices=len(base_walls))
        finally:
            tracer.uninstall()
        loop.finish()
        result["layers"] = layer_metrics(tracer, loop, walls, base_walls, child)
        tracer.write_spans(workloads.OUT / f"spans-{args.workload}-{args.seed}.jsonl")
    else:
        walls, cpus, child, rss = loop.run(args.seconds)
        loop.finish()
    result.update(
        walls=walls, cpus=cpus, rss_kb=rss, units=loop.units,
        failed=loop.failed_units + loop.failed_checks, problems=loop.problems,
    )
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
