"""Spans around calls into hdbwdm's public functions, recorded from outside.

A module that does ``from .geometry import medoid`` holds its own
reference, so patching ``geometry.medoid`` alone would miss every call
made from ``clustering``.  ``Tracer.install`` therefore replaces each
traced function in every hdbwdm module namespace where it is found,
which covers every import site, and ``uninstall`` restores them.

Spans carry a name, start, end, parent span and op id.  They stay in
memory until ``write_spans`` is called once at the end of a run.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import defaultdict

# defining module -> traced public functions; spans are named <module>.<function>
TRACED = {
    "geometry": ("robust_scale_fit", "robust_scale_apply", "medoid", "spatial_median"),
    "projection": ("fit_pca", "fit_random_projection", "project"),
    "clustering": ("kmeans", "trimmed_kmeans", "cluster_centers"),
    "validity": ("abdm", "awdm", "bwdm", "hd_bwdm", "select_k"),
    "datagen": ("generate", "write_dataset_csv", "read_dataset_csv"),
    "reports": ("write_index_report",),
    "harness": ("run_sweep",),
    "cli": ("main",),
}

# every hdbwdm namespace that may hold a reference to a traced function
SITES = ("hdbwdm", *(f"hdbwdm.{m}" for m in TRACED))

# import sites that must be patched for the trace to see the calls at all
REQUIRED_SITES = (
    ("clustering", "medoid"),
    ("clustering", "spatial_median"),
    ("validity", "robust_scale_fit"),
    ("validity", "robust_scale_apply"),
    ("validity", "fit_pca"),
    ("validity", "fit_random_projection"),
    ("validity", "project"),
    ("validity", "trimmed_kmeans"),
    ("validity", "cluster_centers"),
    ("validity", "hd_bwdm"),
    ("harness", "generate"),
    ("harness", "hd_bwdm"),
    ("harness", "select_k"),
    ("cli", "read_dataset_csv"),
    ("cli", "write_dataset_csv"),
    ("cli", "generate"),
    ("cli", "write_index_report"),
    ("cli", "bwdm"),
)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _file_bytes(args, kwargs, pos, name):
    return {"bytes": os.path.getsize(_arg(args, kwargs, pos, name))}


# extra per-call counters, computed after the call returns
COUNTERS = {
    "geometry.medoid": lambda a, k, r: {
        "pairs": len(_arg(a, k, 0, "points")) ** 2,
        "max_m": len(_arg(a, k, 0, "points")),
    },
    "projection.project": lambda a, k, r: {"flops": 2 * r.shape[0] * _arg(a, k, 1, "model").d * r.shape[1]},
    "datagen.write_dataset_csv": lambda a, k, r: _file_bytes(a, k, 2, "path"),
    "datagen.read_dataset_csv": lambda a, k, r: _file_bytes(a, k, 0, "path"),
    "validity.select_k": lambda a, k, r: {
        "skipped_k": len(set(_arg(a, k, 1, "k_range"))) - len(r.reports)
    },
    "harness.run_sweep": lambda a, k, r: {
        "failed_reps": sum(_arg(a, k, 3, "reps") - c.reps for c in r)
    },
}

# counters combined by maximum over calls instead of by sum
MAX_COUNTERS = {"max_m"}


class Tracer:
    """In-memory span recorder; patches hdbwdm while installed."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None, op id]
        self.counters = []  # (span index, {counter: value})
        self.op_id = None
        self._stack = []
        self._patched = []  # (module, attribute, original)

    def _wrap(self, name, fn):
        extra = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = [name, time.perf_counter(), None, parent, self.op_id]
            self.spans.append(span)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if extra is not None:
                self.counters.append((idx, extra(args, kwargs, result)))
            return result

        return traced

    def install(self) -> None:
        modules = {m: importlib.import_module(m) for m in SITES}
        wrappers = {}
        for short, names in TRACED.items():
            mod = modules[f"hdbwdm.{short}"]
            for fn_name in names:
                original = getattr(mod, fn_name)
                wrappers[id(original)] = (original, self._wrap(f"{short}.{fn_name}", original))
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, value))
        patched = {(m.__name__.rsplit(".", 1)[-1], a) for m, a, _ in self._patched}
        missing = [f"{m}.{a}" for m, a in REQUIRED_SITES if (m, a) not in patched]
        if missing:
            raise RuntimeError(f"import sites not patched: {', '.join(missing)}")

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def layer_totals(self, op_ids) -> dict:
        """Per-function calls, self time and counters summed over ``op_ids``."""
        op_ids = set(op_ids)
        child_time = defaultdict(float)
        for name, start, end, parent, op in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals = defaultdict(lambda: defaultdict(float))
        for idx, (name, start, end, parent, op) in enumerate(self.spans):
            if op in op_ids:
                totals[name]["calls"] += 1
                totals[name]["self_s"] += (end - start) - child_time[idx]
        for idx, values in self.counters:
            name, op = self.spans[idx][0], self.spans[idx][4]
            if op in op_ids:
                for key, v in values.items():
                    t = totals[name]
                    t[key] = max(t[key], v) if key in MAX_COUNTERS else t[key] + v
        return totals

    def write_spans(self, path) -> None:
        keys = ("name", "start", "end", "parent", "op")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
