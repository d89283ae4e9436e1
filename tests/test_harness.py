"""Seed derivation, replication statistics, diagnostic and sweep drivers."""

import math
from dataclasses import replace

import numpy as np
import pytest

import hdbwdm.geometry
import hdbwdm.harness
import hdbwdm.projection
import hdbwdm.validity
from hdbwdm import (
    MixtureConfig,
    NumericalError,
    Partition,
    PipelineConfig,
    UsageError,
    fit_pca,
    generate,
    hd_bwdm,
    project,
    select_k,
    true_partition,
)
from hdbwdm.harness import (
    _METHOD_CODES,
    _TAG_DATASET,
    _TAG_REPLICATION,
    _embedding,
    _replication_stats,
    RepResult,
    SweepCell,
    derive_seed,
    run_diagnostic,
    run_select_k,
    run_sweep,
)


def test_replication_stats_constant_stream():
    mean, sd, cv = _replication_stats([5.0, 5.0, 5.0])
    assert (mean, sd, cv) == (5.0, 0.0, 0.0)


def test_replication_stats_hand_pair():
    mean, sd, cv = _replication_stats([1.0, 3.0])
    assert mean == pytest.approx(2.0)
    assert sd == pytest.approx(math.sqrt(2.0))
    assert cv == pytest.approx(math.sqrt(2.0) / 2.0)


def test_replication_stats_single_value():
    mean, sd, cv = _replication_stats([7.0])
    assert mean == 7.0
    assert math.isnan(sd)
    assert math.isnan(cv)


def test_replication_stats_zero_mean_leaves_cv_undefined():
    mean, sd, cv = _replication_stats([-1.0, 1.0])
    assert mean == 0.0
    assert sd == pytest.approx(math.sqrt(2.0))
    assert math.isnan(cv)


def test_replication_stats_rejects_empty():
    with pytest.raises(ValueError, match="at least one"):
        _replication_stats([])


def test_derive_seed_is_a_pure_function_of_the_path():
    assert derive_seed(3, 1, 4) == derive_seed(3, 1, 4)
    assert derive_seed(3, 1, 4) != derive_seed(3, 4, 1)
    assert derive_seed(3, 1, 4) != derive_seed(4, 1, 4)
    assert derive_seed(3) != derive_seed(3, 2)
    assert 0 <= derive_seed(0) < 2**64


def _small_mixture(**overrides):
    base = dict(n_inliers=40, d=30, K_true=2, outlier_fraction=0.1)
    base.update(overrides)
    return MixtureConfig(**base)


def test_diagnostic_entries_share_one_embedding():
    rep = run_diagnostic(_small_mixture(), p=8, alpha=0.1, seed=5)
    assert set(rep.entries) == {"true", "kmeans", "trimmed-kmeans"}
    for entry in rep.entries.values():
        assert entry.bwdm == pytest.approx(entry.abdm / entry.awdm, rel=1e-12)
        assert entry.p == 8
        assert entry.center_kind == "medoid"
        assert entry.projection == "rp"
    assert rep.master_seed == 5
    assert rep.projection_seed == derive_seed(5, 1)
    assert rep.config.seed == derive_seed(5, 0)
    # the true partition pre-trims exactly the contamination rows
    assert rep.entries["true"].n_used == 40


def test_diagnostic_is_deterministic():
    a = run_diagnostic(_small_mixture(), p=8, alpha=0.1, seed=11)
    b = run_diagnostic(_small_mixture(), p=8, alpha=0.1, seed=11)
    assert a == b
    c = run_diagnostic(_small_mixture(), p=8, alpha=0.1, seed=12)
    assert a != c


def test_diagnostic_easy_instance_agreement():
    # clean, widely spaced clusters: every partition recovers the truth,
    # so the three index values agree (well inside the 10% allowance)
    easy = MixtureConfig(
        n_inliers=45, d=40, K_true=3, center_spacing=60.0, outlier_fraction=0.0
    )
    for seed in range(5):
        rep = run_diagnostic(easy, p=10, alpha=0.0, seed=seed)
        vals = [e.bwdm for e in rep.entries.values()]
        assert max(vals) - min(vals) <= 0.10 * min(vals)


def test_sweep_cell_bookkeeping():
    cells = run_sweep(_small_mixture(), [6, 10], ["rp", "pca"], reps=3, alpha=0.1, master_seed=9)
    assert [(c.p, c.method) for c in cells] == [(6, "rp"), (6, "pca"), (10, "rp"), (10, "pca")]
    for cell in cells:
        assert cell.reps == len(cell.per_rep) == 3
        mean, sd, cv = _replication_stats([r.value for r in cell.per_rep])
        assert cell.mean_bwdm == pytest.approx(mean, rel=1e-12)
        assert cell.sd_bwdm == pytest.approx(sd, rel=1e-12)
        assert cell.cv == pytest.approx(cv, rel=1e-12)
        assert cell.sd_bwdm >= 0.0
        for rep_index, rec in enumerate(cell.per_rep):
            assert rec.rep == rep_index
            assert rec.seed == derive_seed(
                9, _TAG_REPLICATION, cell.p, _METHOD_CODES[cell.method], rec.rep
            )


def test_sweep_cell_rejects_mismatched_replication_count():
    with pytest.raises(ValueError, match="replication records"):
        SweepCell(
            p=5,
            method="rp",
            reps=2,
            mean_bwdm=1.0,
            sd_bwdm=0.0,
            cv=0.0,
            per_rep=(RepResult(rep=0, seed=1, value=1.0),),
        )


def test_sweep_validation():
    cfg = _small_mixture()
    with pytest.raises(ValueError, match="reps"):
        run_sweep(cfg, [6], ["rp"], reps=1, alpha=0.1, master_seed=0)
    with pytest.raises(ValueError, match="non-empty"):
        run_sweep(cfg, [], ["rp"], reps=2, alpha=0.1, master_seed=0)
    with pytest.raises(ValueError, match="non-empty"):
        run_sweep(cfg, [6], [], reps=2, alpha=0.1, master_seed=0)
    with pytest.raises(ValueError, match="unknown method"):
        run_sweep(cfg, [6], ["umap"], reps=2, alpha=0.1, master_seed=0)
    # a repeat would fold two cells' jobs into one cell with doubled reps
    with pytest.raises(ValueError, match=r"p_values must not repeat, got \[4, 4\]"):
        run_sweep(cfg, [4, 4], ["rp"], reps=2, alpha=0.1, master_seed=0)
    with pytest.raises(ValueError, match=r"methods must not repeat, got \['rp', 'rp'\]"):
        run_sweep(cfg, [4], ["rp", "rp"], reps=2, alpha=0.1, master_seed=0)


def test_sweep_cells_do_not_depend_on_the_rest_of_the_grid():
    cfg = _small_mixture()
    full = run_sweep(cfg, [6, 10], ["rp", "pca"], reps=3, alpha=0.1, master_seed=9)
    alone = run_sweep(cfg, [10], ["rp", "pca"], reps=3, alpha=0.1, master_seed=9)
    assert [c for c in full if c.p == 10] == alone


def test_sweep_worker_count_does_not_change_results():
    cfg = _small_mixture()
    serial = run_sweep(cfg, [6], ["rp", "pca"], reps=3, alpha=0.1, master_seed=4)
    pooled = run_sweep(cfg, [6], ["rp", "pca"], reps=3, alpha=0.1, master_seed=4, n_workers=2)
    assert serial == pooled


def test_sweep_pool_has_no_more_workers_than_jobs(monkeypatch):
    import concurrent.futures

    sizes = []

    class SerialPool:
        """Records the requested pool size and maps in this process."""

        def __init__(self, max_workers, initializer, initargs):
            sizes.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs, chunksize=1):
            return map(fn, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(hdbwdm.harness, "_SWEEP", None)  # restored after the in-process initializer
    cfg = _small_mixture()
    serial = run_sweep(cfg, [6], ["rp", "pca"], reps=2, alpha=0.1, master_seed=4)
    pooled = run_sweep(cfg, [6], ["rp", "pca"], reps=2, alpha=0.1, master_seed=4, n_workers=64)
    assert sizes == [4]  # 1 p x 2 methods x 2 reps
    assert pooled == serial
    run_sweep(cfg, [6], ["rp"], reps=2, alpha=0.1, master_seed=4, n_workers=2)
    assert sizes == [4, 2]
    for bad in (0, -3):
        with pytest.raises(ValueError, match="n_workers"):
            run_sweep(cfg, [6], ["rp"], reps=2, alpha=0.1, master_seed=4, n_workers=bad)
    assert sizes == [4, 2]


def test_sweep_identical_seeds_give_zero_sd():
    from hdbwdm.harness import _sweep_job

    cfg = _small_mixture()
    sweep = (cfg, 0.1, *_embedding(cfg, 0, [6], ["rp"]))
    job = (6, "rp", 0, 123)
    a = _sweep_job(job, sweep)
    b = _sweep_job(job, sweep)
    assert a == b and a[5] is None
    assert _replication_stats([a[4], b[4]])[1] == 0.0


def test_sweep_failure_cap_names_the_cell():
    # two coincident-point blobs whose shuffle leaves one blob occupying
    # the positions the trim step discards: every restart of every
    # replication empties a cluster, tripping the 20% failure cap
    blob = MixtureConfig(
        n_inliers=6, d=12, K_true=2, center_spacing=15.0,
        within_sd=1e-300, outlier_fraction=0.0,
    )
    with pytest.raises(NumericalError, match=r"cell \(p=4, method=rp\) failed 3/3"):
        run_sweep(blob, [4], ["rp"], reps=3, alpha=0.45, master_seed=0)


def test_sweep_fresh_data_mode():
    cfg = _small_mixture()
    fresh = run_sweep(cfg, [6], ["rp"], reps=3, alpha=0.1, master_seed=9, fresh_data=True)
    again = run_sweep(cfg, [6], ["rp"], reps=3, alpha=0.1, master_seed=9, fresh_data=True)
    assert fresh == again
    fixed = run_sweep(cfg, [6], ["rp"], reps=3, alpha=0.1, master_seed=9)
    assert fresh != fixed


def test_run_select_k_scores_truth_in_the_scan_embedding():
    ds = generate(
        MixtureConfig(n_inliers=40, d=20, K_true=3, center_spacing=40.0,
                      outlier_fraction=0.2, seed=6)
    )
    template = PipelineConfig(K=2, p=8, alpha=0.2, seed=3)
    report = run_select_k(ds.X, range(2, 5), template, truth=true_partition(ds))
    assert set(report.reports) == {2, 3, 4}
    assert report.K_star in (2, 3, 4)
    assert report.true_report is not None
    assert report.true_report.p == 8
    assert report.true_report.n_used == 40  # contamination rows pre-trimmed


def test_run_select_k_on_a_plain_matrix(kmeanspp_calls):
    X = generate(
        MixtureConfig(n_inliers=30, d=12, K_true=2, center_spacing=40.0,
                      outlier_fraction=0.0, seed=1)
    ).X
    template = PipelineConfig(K=2, p=6, alpha=0.1, seed=0)
    report = run_select_k(X, [2, 3], template)
    assert report.true_report is None
    assert set(report.reports) == {2, 3}
    kmeanspp_calls.clear()
    with pytest.raises(ValueError, match="true_labels cover 10 rows but the data has 30"):
        run_select_k(X, [2, 3], template,
                     truth=Partition(labels=[0, 1] * 5, K=2, alpha=0.0))
    assert kmeanspp_calls == []  # refused before the scan seeds anything


def _independent_rep_value(cfg, p, method, alpha, master_seed, rep, fresh_data):
    """One sweep replication recomputed by a standalone hd_bwdm call."""
    rep_seed = derive_seed(master_seed, _TAG_REPLICATION, p, _METHOD_CODES[method], rep)
    data_seed = derive_seed(rep_seed if fresh_data else master_seed, _TAG_DATASET)
    X = generate(replace(cfg, seed=data_seed)).X
    pcfg = PipelineConfig(K=cfg.K_true, p=p, alpha=alpha, projection=method,
                          seed=derive_seed(rep_seed, _TAG_REPLICATION))
    return hd_bwdm(X, pcfg).bwdm


@pytest.mark.parametrize("fresh_data", [False, True])
@pytest.mark.parametrize("method", ["rp", "pca"])
def test_sweep_reps_equal_independent_hd_bwdm_calls(method, fresh_data):
    cfg = _small_mixture()
    cells = run_sweep(cfg, [6, 10], [method], reps=2, alpha=0.1, master_seed=7,
                      fresh_data=fresh_data)
    for cell in cells:
        for rec in cell.per_rep:
            expect = _independent_rep_value(cfg, cell.p, method, 0.1, 7, rec.rep, fresh_data)
            assert rec.value == expect and repr(rec.value) == repr(expect)


def _count_calls(monkeypatch, module, name, sites):
    """Count calls to ``module.name`` through every import site in ``sites``."""
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    for site in sites:
        if getattr(site, name, None) is original:
            monkeypatch.setattr(site, name, counted)
    return calls


_SITES = [hdbwdm.geometry, hdbwdm.projection, hdbwdm.validity, hdbwdm.harness]


def test_fixed_data_sweep_scales_once_and_fits_pca_once(monkeypatch):
    scale_fits = _count_calls(monkeypatch, hdbwdm.geometry, "robust_scale_fit", _SITES)
    pca_fits = _count_calls(monkeypatch, hdbwdm.projection, "fit_pca", _SITES)
    projections = _count_calls(monkeypatch, hdbwdm.projection, "project", _SITES)
    cells = run_sweep(_small_mixture(), [6, 10], ["rp", "pca"], reps=3, alpha=0.1, master_seed=9)
    assert sum(c.reps for c in cells) == 12
    assert len(scale_fits) == 1
    assert len(pca_fits) == 1
    assert len(projections) == 6 + 2  # one per rp replication, one per PCA width


def test_shared_pca_models_are_bitwise_single_fits():
    cfg = _small_mixture()
    Xs, rows = _embedding(cfg, 5, [3, 12, 7], ["rp", "pca"])
    assert sorted(rows) == [3, 7, 12]
    assert _embedding(cfg, 5, [3, 12, 7], ["rp"])[1] == {}
    for p in (3, 7, 12):
        alone = project(Xs, fit_pca(Xs, p))
        assert rows[p].shape == (Xs.shape[0], p)
        assert rows[p].tobytes() == alone.tobytes()


def test_fixed_data_sweep_without_pca_runs_no_svd(monkeypatch):
    pca_fits = _count_calls(monkeypatch, hdbwdm.projection, "fit_pca", _SITES)
    run_sweep(_small_mixture(), [6, 10], ["rp"], reps=2, alpha=0.1, master_seed=9)
    assert pca_fits == []


# Each shape rule: a mixture, pipeline settings that break the rule on its rows, the
# neighbouring settings that it admits, and the one message every entry point raises.
_SHAPE_RULES = {
    "p-above-d": (
        dict(n_inliers=11, outlier_fraction=0.1), dict(p=31), dict(p=30),
        "p=31 exceeds the data dimension d=30",
    ),
    "pca-rank": (  # 12 rows reach rank 11
        dict(n_inliers=11, outlier_fraction=0.1),
        dict(p=12, projection="pca"), dict(p=11, projection="pca"),
        "p=12 exceeds the attainable rank 11 for 12 observations in 30 dimensions",
    ),
    "retained-k": (  # 4 rows at alpha = 0.45 keep 2 = K
        dict(n_inliers=4, d=5, outlier_fraction=0.0), dict(p=2, alpha=0.45), dict(p=2, alpha=0.25),
        "trimming 2 of 4 rows leaves 2 retained observations; the index needs more than K=2",
    ),
}


def _run_entry(entry, cfg, X, settings):
    pcfg = PipelineConfig(K=cfg.K_true, **settings)
    if entry == "hd_bwdm":
        return hd_bwdm(X, pcfg)
    if entry == "select_k":
        return select_k(X, [2, 3], replace(pcfg, K=None))
    if entry == "run_sweep":
        return run_sweep(cfg, [pcfg.p], [pcfg.projection], reps=2, alpha=pcfg.alpha, master_seed=3)
    return run_diagnostic(cfg, pcfg.p, pcfg.alpha, 3)


# select_k's K range keeps more than K rows at every K; the diagnostic projects with rp only
@pytest.mark.parametrize("rule, entry", [
    (rule, entry)
    for rule in _SHAPE_RULES
    for entry in ("hd_bwdm", "select_k", "run_sweep", "run_diagnostic")
    if (rule, entry) not in {("retained-k", "select_k"), ("pca-rank", "run_diagnostic")}
])
def test_each_entry_point_refuses_a_shape_rule_with_one_message(monkeypatch, rule, entry):
    mixture, refused, admitted, message = _SHAPE_RULES[rule]
    cfg = _small_mixture(**mixture)
    X = generate(cfg).X
    _run_entry(entry, cfg, X, admitted)

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the shape rules were checked")

    monkeypatch.setattr(hdbwdm.harness, "generate", no_work)
    monkeypatch.setattr(hdbwdm.harness, "trimmed_kmeans", no_work)
    monkeypatch.setattr(hdbwdm.validity, "trimmed_kmeans", no_work)
    with pytest.raises(UsageError) as refusal:
        _run_entry(entry, cfg, X, refused)
    assert str(refusal.value) == message
