"""The benchmark's tracer still finds every function and import site it patches."""

import importlib.util
from pathlib import Path

import numpy as np

import hdbwdm

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_patches_the_pipeline_and_restores_it():
    tracer = _load_tracer().Tracer()
    X = np.random.default_rng(0).normal(size=(60, 12))
    tracer.install()  # raises if a traced name or a required import site is gone
    try:
        hdbwdm.hd_bwdm(X, hdbwdm.PipelineConfig(K=3, p=4, alpha=0.1, seed=1))  # the patched name
    finally:
        tracer.uninstall()
    names = {span[0] for span in tracer.spans}
    assert {"validity.hd_bwdm", "clustering.trimmed_kmeans", "geometry.medoid"} <= names
    assert hdbwdm.clustering.medoid is hdbwdm.geometry.medoid
