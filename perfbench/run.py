"""hdbwdm benchmark entry point.

    python3 perfbench/run.py --workload sweep-shared --seed 0 --seconds 30 --trace 0

Run from the root of a checkout.  Each run starts fresh worker processes
(``worker.py``) so peak memory and set-up are measured per run:

* ``SETUP_SAMPLES - 1`` set-up-only workers, half of them before the
  measuring worker and half after it, so the set-ups sample the host at
  both ends of the run.  ``setup_s`` is the median time from spawning a
  worker to its READY line: interpreter start, imports, fixture data and
  one warm-up op.
* The measuring worker runs ops back to back (closed loop, one client)
  for ``--seconds`` and checks every op's output.  ``ops_per_s`` is the
  ops run over the wall time they took, and ``cpu_s_per_op`` the CPU of
  the worker plus its reaped children over the ops run: means over the
  run, not medians.  Other tenants of a shared host slow every op for
  stretches of tens of seconds, so a run's ops come from a mix of fast
  and slow stretches; the mean follows each stretch's share of the run,
  while the median jumps between them (see README.md).  The median op
  is printed too.  ``peak_rss_mb`` is the median over ops of each op's
  peak resident set: the larger of the worker's high-water mark and the
  peak of the processes the op ran.
* ``--trace 1`` reports the per-layer metrics instead (see worker.py).

The program's thread settings are inherited unchanged.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; ``attempted`` and ``failed`` count units
(sweep replications, K fits, CLI commands), and an op whose output
check fails counts as one more failure.  The lines before it give the
environment, every metric with its unit and sample count, and any
output-check failure.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

sys.path.insert(0, str(HERE))
import checks  # noqa: E402

SETUP_SAMPLES = 5


def run_timeout_s(seconds: int) -> float:
    """The whole run, all workers together: set-ups, the window, overrun and checks."""
    return 100 + 2 * seconds


def loadavg() -> str:
    with open("/proc/loadavg", encoding="ascii") as fh:
        return fh.read().strip()


def run_worker(args, setup_only: bool, deadline: float):
    """Start one worker; return (setup seconds, result dict or None)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(1.0, deadline - time.perf_counter()), proc.kill)
    watchdog.start()
    setup_s = result = None
    try:
        for line in proc.stdout:
            if line.startswith("READY") and setup_s is None:
                setup_s = time.perf_counter() - t0
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
            else:
                sys.stderr.write(line)
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or setup_s is None or (result is None and not setup_only):
        raise RuntimeError(f"worker {' '.join(cmd[1:])} failed with exit code {proc.returncode}")
    return setup_s, result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=checks.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "hdbwdm" / "__init__.py").is_file():
        print(f"no hdbwdm sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    checks.self_test(checks.load_digests())

    deadline = time.perf_counter() + run_timeout_s(args.seconds)
    load_start = loadavg()
    before = (SETUP_SAMPLES - 1) // 2
    setups = [run_worker(args, True, deadline)[0] for _ in range(before)]
    setup_s, result = run_worker(args, False, deadline)
    setups.append(setup_s)
    setups += [run_worker(args, True, deadline)[0] for _ in range(SETUP_SAMPLES - 1 - before)]

    env = dict(result["environment"], loadavg_start=load_start, loadavg_end=loadavg())
    print("environment " + json.dumps(env, sort_keys=True))
    walls, cpus = result["walls"], result["cpus"]
    problems = result["problems"]
    failed = result["failed"]
    attempted = result["units"]
    n = len(walls)
    rows = [
        ("setup_s", statistics.median(setups), "s", f"median of {len(setups)} set-ups"),
        ("ops_per_s", n / sum(walls), "ops/s",
         f"ops / their wall time, n={n} ops; median op wall {statistics.median(walls):.4g} s"),
        ("cpu_s_per_op", sum(cpus) / n, "s", f"mean, n={n} ops; median {statistics.median(cpus):.4g} s"),
        ("peak_rss_mb", statistics.median(result["rss_kb"]) / 1024.0, "MB",
         f"median of op peaks, n={n} ops"),
        ("failed_ratio", failed / attempted, "ratio", f"{failed} failed of {attempted} units"),
    ]
    traced = " (ops timed with the tracer installed)" if args.trace else ""
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}{traced}")
    for name, value, unit, note in rows:
        print(f"  {name:<14} {value:<22.6g} {unit:<6} {note}")
    for problem in problems:
        print(f"  output check failed: {problem}")
        print(f"output check failed: {problem}", file=sys.stderr)

    if args.trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in result["layers"].items()}
        for name, m in metrics.items():
            print(f"  {name:<42} {m['value']:<22.6g} {m['unit']}")
    else:
        metrics = {name: {"value": v, "unit": u} for name, v, u, _ in rows if name != "failed_ratio"}
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
