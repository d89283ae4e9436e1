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


def test_the_trace_books_each_scanned_k_to_the_clustering_stage():
    tracer = _load_tracer().Tracer()
    X = np.random.default_rng(0).normal(size=(60, 12))
    tracer.install()
    try:
        hdbwdm.select_k(X, range(2, 6), hdbwdm.PipelineConfig(p=4, alpha=0.1, seed=1))
    finally:
        tracer.uninstall()
    names = [span[0] for span in tracer.spans]
    # one fit and one set of centers per K, each under its stage's name
    assert names.count("clustering.trimmed_kmeans") == 4
    assert names.count("clustering.cluster_centers") == 4
