"""The benchmark workloads: inputs from the seed, one op, and its checks.

Every op draws its inputs from ``(seed, workload tag, op index mod
cycle)``, so a run's inputs depend on the seed alone and ops inside a
run do not repeat inputs until the cycle wraps.  Functions are looked
up through their module on each call, so an installed tracer sees them.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import resource
import shutil
import subprocess
import sys
import threading
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from hdbwdm import cli, datagen, harness, validity

from checks import sha256

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SWEEP_P = (150, 300, 400)
SWEEP_METHODS = ("rp", "pca")
SWEEP_REPS = 2  # the fewest run_sweep accepts
ALPHA = 0.1
SELECTK_RANGE = range(2, 9)
SELECTK_P = 300
TALL_N_INLIERS, TALL_D, TALL_K, TALL_P = 6_000, 20, 3, 20
WARMUP_INDEX = -1  # an op index outside every cycle, for warm-up ops


@dataclass
class OpResult:
    units: int  # replications, K fits or CLI commands attempted
    failed_units: int
    data: bytes  # the result bytes that are digested
    problems: list = field(default_factory=list)  # invariant violations
    child_rss_kb: int = 0  # peak resident set of the op's child processes

    @property
    def digest(self) -> str:
        return sha256(self.data)


def child_cpu_seconds() -> float:
    """CPU of this process's reaped children."""
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def subprocess_env() -> dict:
    """This process's environment with the checkout's ``src`` first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def op_seed(seed: int, tag: int, index: int, cycle: int) -> int:
    key = [seed, tag, index % cycle] if index >= 0 else [seed, tag, cycle, 1]
    return int(np.random.SeedSequence(key).generate_state(1)[0])


def check_report(problems: list, where: str, abdm: float, awdm: float, bwdm: float,
                 n_used: int, expected_n_used: int) -> None:
    if bwdm != abdm / awdm:
        problems.append(f"{where}: bwdm {bwdm!r} != abdm/awdm {abdm / awdm!r}")
    if n_used != expected_n_used:
        problems.append(f"{where}: n_used {n_used} != {expected_n_used}")


def trimmed_n_used(n: int, alpha: float) -> int:
    return n - math.ceil(alpha * n)


class Sweep:
    """One ``run_sweep`` over the default mixture with fixed data.

    With ``SWEEP_REPS`` = 2, ``run_sweep`` raises once any replication
    fails instead of dropping it, so a failed replication shows as a
    failed op, never as a short cell.
    """

    tag = 1
    cycle = 32
    units = len(SWEEP_P) * len(SWEEP_METHODS) * SWEEP_REPS

    def __init__(self, seed: int, n_workers: int):
        self.seed = seed
        self.n_workers = n_workers
        self.first_cells = None
        self.first_seed = None
        self.serial_wall = None  # sweep-par: the serial rerun of op 0
        self.pool_child_cpu = None  # sweep-shared: child CPU of the pooled rerun of op 0

    def setup(self) -> None:
        self.run_op(WARMUP_INDEX)

    def sweep(self, master_seed: int, n_workers: int):
        return harness.run_sweep(
            datagen.MixtureConfig(), SWEEP_P, SWEEP_METHODS, SWEEP_REPS, ALPHA,
            master_seed, n_workers=n_workers,
        )

    def run_op(self, index: int) -> OpResult:
        master = op_seed(self.seed, self.tag, index, self.cycle)
        cells = self.sweep(master, self.n_workers)
        child_rss_kb = 0
        if self.n_workers > 1:  # pool workers are alike: the children's running peak is this op's
            child_rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        if index == 0:
            self.first_cells, self.first_seed = cells, master
        lines = [f"{c.p} {c.method} {r.rep} {r.value!r}" for c in cells for r in c.per_rep]
        problems = []
        if [(c.p, c.method) for c in cells] != [(p, m) for p in SWEEP_P for m in SWEEP_METHODS]:
            problems.append(f"op {index}: sweep cells do not cover the grid")
        return OpResult(self.units, 0, "\n".join(lines).encode(), problems, child_rss_kb)

    def finish(self) -> list:
        """Worker-count invariance: rerun the first op with the other worker count.

        A serial sweep reruns through a pool of one worker per CPU (at
        least two), so every ``sweep-shared`` run also times the pool; a
        pooled sweep reruns serially.
        """
        if self.first_cells is None:
            return []
        other = 1 if self.n_workers > 1 else max(2, len(os.sched_getaffinity(0)))
        k0, t0 = child_cpu_seconds(), time.perf_counter()
        cells = self.sweep(self.first_seed, other)
        if other == 1:
            self.serial_wall = time.perf_counter() - t0
        else:
            self.pool_child_cpu = child_cpu_seconds() - k0
        if cells != self.first_cells:
            return [f"op 0: cells with {self.n_workers} workers differ from those with {other}"]
        return []


class SelectK:
    """One ``select_k`` scan over K=2..8, rp at p=300, new pipeline seed per op."""

    tag = 2
    cycle = 64
    units = len(SELECTK_RANGE)

    def __init__(self, seed: int):
        self.seed = seed
        self.X = None

    def setup(self) -> None:
        self.X = datagen.generate(datagen.MixtureConfig(seed=self.seed)).X
        self.run_op(WARMUP_INDEX)

    def run_op(self, index: int) -> OpResult:
        cfg = validity.PipelineConfig(
            K=2, p=SELECTK_P, alpha=ALPHA, projection="rp",
            seed=op_seed(self.seed, self.tag, index, self.cycle),
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = validity.select_k(self.X, SELECTK_RANGE, cfg)
        skipped = sum("skipped" in str(w.message) for w in caught)
        problems = []
        expected = trimmed_n_used(self.X.shape[0], ALPHA)
        lines = [f"K_star={result.K_star}"]
        for k, rep in sorted(result.reports.items()):
            lines.append(f"{k} {rep.bwdm!r}")
            check_report(problems, f"op {index} K={k}", rep.abdm, rep.awdm, rep.bwdm,
                         rep.n_used, expected)
        return OpResult(self.units, skipped, "\n".join(lines).encode(), problems)

    def finish(self) -> list:
        return []


class CliTall:
    """``generate``, ``hdbwdm`` and ``bwdm`` through ``python -m hdbwdm.cli``.

    With ``in_process`` the three commands run through ``cli.main`` in
    this process instead, which is how the traced run sees inside them.
    """

    tag = 3
    cycle = 8
    units = 3  # CLI commands

    def __init__(self, seed: int, in_process: bool = False):
        self.seed = seed
        self.in_process = in_process
        self.work = OUT / f"cli-{os.getpid()}"
        self.env = subprocess_env()

    def commands(self, s: int):
        data = self.work / "dataset.csv"
        return [
            ["generate", "--n-inliers", str(TALL_N_INLIERS), "--d", str(TALL_D),
             "--k-true", str(TALL_K), "--seed", str(s), "--out", str(self.work)],
            ["hdbwdm", str(data), "--k", str(TALL_K), "--p", str(TALL_P), "--alpha", str(ALPHA),
             "--method", "rp", "--seed", str(s), "--out", str(self.work / "hd")],
            ["bwdm", str(data), "--center", "smedian", "--out", str(self.work / "bw")],
        ]

    def run_command(self, argv) -> tuple[int, str, int]:
        """Exit code, standard error and the peak resident set (KiB) of one command."""
        if self.in_process:
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            return code, err.getvalue(), 0
        proc = subprocess.Popen(
            [sys.executable, "-m", "hdbwdm.cli", *argv], env=self.env,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        watchdog = threading.Timer(120, proc.kill)
        watchdog.start()
        try:
            err = proc.stderr.read()
            _, status, rusage = os.wait4(proc.pid, 0)  # reaped here to read its own peak
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            watchdog.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
            proc.stderr.close()
        return proc.returncode, err, rusage.ru_maxrss

    def setup(self) -> None:
        # one desk-size generate loads the whole CLI import graph into the file cache
        code, err, _ = self.run_command(["generate", "--n-inliers", "60", "--d", "10",
                                         "--out", str(self.work)])
        if code != 0:
            raise RuntimeError(f"warm-up hdbwdm generate exited {code}: {err.strip()}")
        shutil.rmtree(self.work, ignore_errors=True)

    def run_op(self, index: int) -> OpResult:
        shutil.rmtree(self.work, ignore_errors=True)
        s = op_seed(self.seed, self.tag, index, self.cycle)
        failed, problems, rss_kb = 0, [], 0
        for argv in self.commands(s):
            code, err, peak = self.run_command(argv)
            rss_kb = max(rss_kb, peak)
            if code != 0:
                failed += 1
                problems.append(f"op {index}: hdbwdm {argv[0]} exited {code}: {err.strip()}")
        data = b""
        n = TALL_N_INLIERS + round(0.1 * TALL_N_INLIERS)  # the CLI's default outlier fraction
        for sub, expected in (("hd", trimmed_n_used(n, ALPHA)), ("bw", TALL_N_INLIERS)):
            path = self.work / sub / "report.csv"
            if not path.exists():
                problems.append(f"op {index}: {sub}/report.csv missing")
                continue
            raw = path.read_bytes()
            data += raw
            header, row = raw.decode().splitlines()[:2]
            cells = dict(zip(header.split(","), row.split(",")))
            check_report(problems, f"op {index} {sub}", float(cells["abdm"]), float(cells["awdm"]),
                         float(cells["bwdm"]), int(cells["n_used"]), expected)
        shutil.rmtree(self.work, ignore_errors=True)
        return OpResult(self.units, failed, data, problems, rss_kb)

    def finish(self) -> list:
        shutil.rmtree(self.work, ignore_errors=True)
        return []


def make(name: str, seed: int, in_process_cli: bool = False):
    if name == "sweep-shared":
        return Sweep(seed, n_workers=1)
    if name == "sweep-par":
        return Sweep(seed, n_workers=len(os.sched_getaffinity(0)))
    if name == "selectk-scan":
        return SelectK(seed)
    if name == "cli-tall":
        return CliTall(seed, in_process=in_process_cli)
    raise ValueError(f"unknown workload {name!r}")

