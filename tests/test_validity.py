"""Index formulas, the full pipeline, and the K-selection rule."""

import math
import re
import sys
import warnings
import weakref
from dataclasses import replace
from itertools import product

import numpy as np
import pytest
from scipy.spatial.distance import pdist

from hdbwdm import (
    IndexReport,
    NumericalError,
    Partition,
    PipelineConfig,
    ProjectionModel,
    SelectKResult,
    TRIMMED,
    UsageError,
    abdm,
    awdm,
    bwdm,
    cluster_centers,
    fit_pca,
    fit_random_projection,
    hd_bwdm,
    kmeans,
    project,
    robust_scale_apply,
    robust_scale_fit,
    select_k,
    trimmed_kmeans,
)
from hdbwdm.clustering import _BLOCK_FLOATS
from hdbwdm.validity import _sub_seeds
from oracles import direct_bwdm


def _centers(points, labels, kind="spatial-median"):
    part = Partition(labels=np.asarray(labels), alpha=0.0)
    return cluster_centers(np.asarray(points, dtype=float), part, kind=kind)


TOY_X = np.array([[0.0], [1.0], [2.0], [10.0], [11.0], [12.0]])
TOY_LABELS = np.array([0, 0, 0, 1, 1, 1])


def test_abdm_single_pair():
    centers = _centers([[0.0, 0.0], [3.0, 4.0]], [0, 1])
    assert abdm(centers) == pytest.approx(5.0)


def test_abdm_345_triangle():
    # ordered pairs double each side: 2*(3+4+5)/6 = 4
    centers = _centers([[0.0, 0.0], [3.0, 0.0], [3.0, 4.0]], [0, 1, 2])
    assert abdm(centers) == pytest.approx(4.0)


def test_abdm_coincident_centers():
    centers = _centers([[1.0, 1.0], [1.0, 1.0]], [0, 1])
    assert abdm(centers) == 0.0


def test_abdm_needs_two_clusters():
    centers = _centers([[0.0], [1.0]], [0, 0])
    with pytest.raises(ValueError):
        abdm(centers)


def _pdist_abdm(C):
    K = C.shape[0]
    return float(2.0 * pdist(C).sum() / (K * (K - 1)))


def test_pair_distances_are_bitwise_pdist():
    # abdm sums scipy's pdist kernel over its center pairs, in any memory layout
    rng = np.random.default_rng(11)
    for K in range(2, 21):
        for d in (1, 2, 3, 20, 150, 400, 1000):
            for scale in (1e-8, 1e-3, 1.0, 1e3, 1e100, 1e150):
                C = rng.standard_normal((K, d)) * scale
                assert abdm(C) == _pdist_abdm(C), (K, d, scale)
    C = rng.standard_normal((7, 30))
    C[4] = C[1]
    C[5] = 0.0
    C[6] = 0.0
    assert abdm(C) == _pdist_abdm(C)
    assert abdm(np.asfortranarray(C)) == _pdist_abdm(C)
    assert abdm(C[:, ::2]) == _pdist_abdm(np.ascontiguousarray(C[:, ::2]))
    assert abdm(np.zeros((4, 9))) == 0.0


def test_awdm_hand_value():
    part = Partition(labels=TOY_LABELS, alpha=0.0)
    centers = cluster_centers(TOY_X, part, kind="spatial-median")
    assert awdm(TOY_X, part, centers) == pytest.approx(1.0)


def test_awdm_trimmed_rows_contribute_nothing():
    X = np.array([[0.0], [1.0], [2.0], [50.0], [10.0], [11.0], [12.0]])
    labels = np.array([0, 0, 0, TRIMMED, 1, 1, 1])
    part = Partition(labels=labels, alpha=0.0)
    centers = cluster_centers(X, part, kind="spatial-median")
    assert awdm(X, part, centers) == pytest.approx(1.0)


def test_awdm_requires_retained_above_k():
    X = np.array([[0.0], [10.0]])
    part = Partition(labels=np.array([0, 1]), alpha=0.0)
    centers = cluster_centers(X, part)
    with pytest.raises(ValueError):
        awdm(X, part, centers)


@pytest.mark.parametrize(
    "centers, message",
    [
        (np.zeros((2, 1)), "centers must have shape (2, 2), got (2, 1)"),
        (np.zeros((3, 2)), "centers must have shape (2, 2), got (3, 2)"),
        (np.zeros((1, 2)), "centers must have shape (2, 2), got (1, 2)"),
        (np.array([[0.0, 0.0], [np.nan, 1.0]]), "centers contain non-finite entries"),
    ],
    ids=["one column", "extra row", "missing row", "nan"],
)
def test_awdm_refuses_centers_that_are_not_a_finite_k_by_p_matrix(centers, message):
    X = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [9.0, 9.0], [8.0, 9.0], [9.0, 8.0]])
    part = Partition(labels=np.array([0, 0, 0, 1, 1, 1]), alpha=0.0)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        awdm(X, part, centers)


def _full_copy_awdm(X, part, centers):
    """``awdm`` as one copy of every retained row, squared and summed at once."""
    mask = ~part.trimmed_mask
    diffs = X[mask] - np.asarray(centers, dtype=float)[part.labels[mask]]
    diffs **= 2
    return float(np.sqrt(diffs.sum(axis=1)).sum()) / (part.retained_count - part.K)


@pytest.mark.parametrize("p", [0, 1, 3, 8, 300, _BLOCK_FLOATS - 1, _BLOCK_FLOATS, _BLOCK_FLOATS + 1])
def test_awdm_in_row_blocks_is_bitwise_the_full_copy(p):
    # n_used below one block, at it, one row past it, and across three blocks
    rng = np.random.default_rng(p)
    step = max(1, _BLOCK_FLOATS // max(1, p))
    for n_used in sorted({4, step - 1, step, step + 1, 3 * step + 2} - {0, 1, 2, 3}):
        n = n_used + n_used // 9
        labels = np.full(n, TRIMMED)
        labels[rng.permutation(n)[:n_used]] = np.arange(n_used) % 3
        part = Partition(labels=labels, alpha=0.1)
        X = rng.normal(size=(n, p)) * rng.choice([1e-3, 1.0, 1e4], size=(n, 1))
        C = rng.normal(size=(3, p))
        assert awdm(X, part, C) == _full_copy_awdm(X, part, C), (p, n_used)


def test_bwdm_hand_value_both_center_kinds():
    part = Partition(labels=TOY_LABELS, alpha=0.0)
    for kind in ("spatial-median", "medoid"):
        rep = bwdm(TOY_X, part, center_kind=kind)
        assert rep.abdm == pytest.approx(10.0)
        assert rep.awdm == pytest.approx(1.0)
        assert rep.bwdm == pytest.approx(10.0)
        assert rep.n_used == 6 and rep.K == 2


def test_bwdm_degenerate_duplicate_points():
    X = np.array([[1.0], [1.0], [1.0], [5.0], [5.0], [5.0]])
    part = Partition(labels=TOY_LABELS, alpha=0.0)
    rep = bwdm(X, part)
    assert rep.awdm == 0.0
    assert rep.degenerate and math.isinf(rep.bwdm)


def test_bwdm_coincident_centers_score_zero():
    # two labels drawn over one interleaved set: centers collide, abdm 0
    X = np.array([[0.0], [1.0], [2.0], [0.0], [1.0], [2.0]])
    part = Partition(labels=np.array([0, 0, 0, 1, 1, 1]), alpha=0.0)
    rep = bwdm(X, part, center_kind="spatial-median")
    assert rep.abdm == pytest.approx(0.0)
    assert rep.bwdm == pytest.approx(0.0)


def test_bwdm_report_ratio_consistency():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(20, 3))
    part = Partition(labels=rng.integers(0, 3, size=20), alpha=0.0)
    rep = bwdm(X, part)
    assert rep.bwdm == pytest.approx(rep.abdm / rep.awdm, rel=1e-12)


def test_bwdm_matches_direct_oracle():
    rng = np.random.default_rng(2)
    for _ in range(25):
        n = int(rng.integers(5, 9))
        d = int(rng.integers(1, 3))
        K = 2
        X = rng.normal(size=(n, d))
        labels = rng.integers(0, K, size=n)
        labels[:K] = np.arange(K)  # every cluster inhabited
        part = Partition(labels=labels, alpha=0.0)
        rep = bwdm(X, part, center_kind="medoid")
        oa, ow, ob = direct_bwdm(X, labels, K)
        assert rep.abdm == pytest.approx(oa, abs=1e-12)
        assert rep.awdm == pytest.approx(ow, abs=1e-12)
        assert rep.bwdm == pytest.approx(ob, abs=1e-12)


def _random_labeled(rng, n=24, d=3, K=3):
    X = rng.normal(size=(n, d)) + rng.integers(0, 4, size=(n, 1)) * 6.0
    labels = rng.integers(0, K, size=n)
    labels[:K] = np.arange(K)
    return X, Partition(labels=labels, alpha=0.0)


def test_bwdm_scale_equivariance_quick():
    rng = np.random.default_rng(3)
    for _ in range(10):
        X, part = _random_labeled(rng)
        s = float(rng.uniform(0.1, 40.0))
        kind = ("medoid", "spatial-median")[int(rng.integers(2))]
        a = bwdm(X, part, center_kind=kind)
        b = bwdm(s * X, part, center_kind=kind)
        assert b.abdm == pytest.approx(s * a.abdm, rel=1e-10)
        assert b.awdm == pytest.approx(s * a.awdm, rel=1e-10)
        assert b.bwdm == pytest.approx(a.bwdm, rel=1e-10)


def test_bwdm_rigid_motion_invariance_quick():
    rng = np.random.default_rng(4)
    for _ in range(10):
        X, part = _random_labeled(rng)
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        t = rng.normal(scale=10.0, size=3)
        a = bwdm(X, part, center_kind="spatial-median")
        b = bwdm(X @ q + t, part, center_kind="spatial-median")
        assert b.bwdm == pytest.approx(a.bwdm, rel=1e-8)


def test_bwdm_label_permutation_invariance_quick():
    rng = np.random.default_rng(5)
    for _ in range(10):
        X, part = _random_labeled(rng)
        perm = rng.permutation(part.K)
        relabeled = Partition(labels=perm[part.labels], alpha=0.0)
        a = bwdm(X, part, center_kind="medoid")
        b = bwdm(X, relabeled, center_kind="medoid")
        assert b.bwdm == pytest.approx(a.bwdm, rel=1e-12)


def test_trimming_monotonicity_of_n_used():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(60, 2)) + rng.integers(0, 2, size=(60, 1)) * 8.0
    retained = []
    for alpha in (0.0, 0.1, 0.2, 0.3):
        part = trimmed_kmeans(X, K=2, alpha=alpha, seed=0)
        rep = bwdm(X, part, center_kind="medoid")
        retained.append(rep.n_used)
    assert all(a >= b for a, b in zip(retained, retained[1:]))


def _identity_like_model(d, seed=0):
    q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(d, d)))
    return ProjectionModel(
        kind="rp", matrix=q, centers=np.zeros(d), seed=seed,
        explained_variance=None,
    )


def test_hd_bwdm_full_rank_orthonormal_matches_plain_bwdm():
    rng = np.random.default_rng(7)
    X = np.vstack([rng.normal(size=(20, 4)), rng.normal(size=(20, 4)) + 10.0])
    cfg = PipelineConfig(K=2, p=4, alpha=0.0, projection="rp",
                         center_kind="medoid", seed=0)
    rep = hd_bwdm(X, cfg, projection_model=_identity_like_model(4))
    scaled = robust_scale_apply(X, robust_scale_fit(X))
    part = Partition(labels=np.repeat([0, 1], 20), alpha=0.0)
    plain = bwdm(scaled, part, center_kind="medoid")
    assert rep.bwdm == pytest.approx(plain.bwdm, rel=1e-6)


def test_hd_bwdm_identity_reduction_to_toy_value():
    cfg = PipelineConfig(K=2, p=1, alpha=0.0, projection="rp",
                         center_kind="spatial-median",
                         seed=0, scale=False)
    model = ProjectionModel(
        kind="rp", matrix=np.eye(1), centers=np.zeros(1), seed=0,
        explained_variance=None,
    )
    rep = hd_bwdm(TOY_X, cfg, projection_model=model)
    assert rep.bwdm == pytest.approx(10.0, rel=1e-12)


def test_hd_bwdm_true_labels_trim_outliers():
    rng = np.random.default_rng(8)
    X = np.vstack([
        rng.normal(size=(15, 6)),
        rng.normal(size=(15, 6)) + 12.0,
        rng.uniform(-80.0, 80.0, size=(3, 6)),
    ])
    truth = Partition(
        labels=np.concatenate([np.zeros(15, int), np.ones(15, int), np.full(3, TRIMMED)]),
        alpha=0.0,
    )
    # the labels fix K and the trimmed rows: cfg.K and cfg.alpha go unused
    rep = hd_bwdm(X, PipelineConfig(K=3, p=4, seed=3), true_labels=truth)
    assert rep.n_used == 30  # outliers excluded from the index
    assert (rep.K, rep.alpha) == (2, 0.0)


@pytest.mark.parametrize("projection", ["rp", "pca"])
def test_hd_bwdm_at_alpha_zero_is_plain_kmeans(projection):
    # trimmed k-means at alpha = 0 runs Lloyd's k-means on the same restarts
    X = _three_blob_2d(3) @ np.random.default_rng(0).normal(size=(2, 12))
    cfg = PipelineConfig(K=3, p=5, alpha=0.0, projection=projection, seed=4)
    proj_seed, clust_seed = _sub_seeds(4)
    Xs = robust_scale_apply(X, robust_scale_fit(X))
    model = fit_random_projection(12, 5, proj_seed) if projection == "rp" else fit_pca(Xs, 5)
    Xp = project(Xs, model)
    expect = replace(bwdm(Xp, kmeans(Xp, 3, seed=clust_seed), "medoid"),
                     projection=projection, p=5, seed=4)
    report = hd_bwdm(X, cfg)
    assert report == expect and repr(report) == repr(expect)


@pytest.mark.skipif(sys.version_info < (3, 11), reason="a 3.10 caller's stack holds the argument")
def test_hd_bwdm_frees_the_raw_rows_before_it_projects(monkeypatch):
    import hdbwdm.validity as validity

    raw = []
    alive = []

    def read():
        X = np.random.default_rng(4).normal(size=(60, 8))
        raw.append(weakref.ref(X))
        return X

    def watched(Xs, model):
        alive.append(raw[0]() is not None)
        return project(Xs, model)

    monkeypatch.setattr(validity, "project", watched)
    hd_bwdm(read(), PipelineConfig(K=2, p=3))
    assert alive == [False]


def test_hd_bwdm_model_mismatch():
    rng = np.random.default_rng(9)
    cfg = PipelineConfig(K=2, p=3, alpha=0.0, projection="rp",
                         center_kind="medoid", seed=0)
    wrong = _identity_like_model(4)  # p=4 but cfg wants 3
    with pytest.raises(ValueError):
        hd_bwdm(rng.normal(size=(12, 4)), cfg, projection_model=wrong)


def test_pipeline_config_validation():
    with pytest.raises(ValueError):
        PipelineConfig(K=1, p=5)
    with pytest.raises(ValueError):
        PipelineConfig(K=2, p=5, alpha=0.6)
    with pytest.raises(ValueError):
        PipelineConfig(K=2, p=5, projection="umap")
    message = r"^center_kind must be one of \('medoid', 'spatial-median'\), got 'mean'$"
    with pytest.raises(UsageError, match=message):
        PipelineConfig(K=2, p=5, center_kind="mean")
    with pytest.raises(UsageError, match="^seed must be >= 0, got -1$"):
        PipelineConfig(K=2, p=5, seed=-1)


def test_awdm_refuses_a_row_count_mismatch():
    part = Partition(labels=np.array([0, 0, 1, 1]), alpha=0.0)
    with pytest.raises(ValueError, match="^X has 3 rows but the partition labels 4$"):
        awdm(np.zeros((3, 2)), part, np.zeros((2, 2)))


def test_pipeline_config_k_is_needed_only_to_fit():
    X = _three_blob_2d(3) @ np.random.default_rng(0).normal(size=(2, 12))
    template = PipelineConfig(p=5, alpha=0.1, seed=4)
    assert template.K is None
    res = select_k(X, range(2, 5), template)
    assert res.true_report is None
    assert res.reports == select_k(X, range(2, 5), replace(template, K=2)).reports
    truth = Partition(labels=np.repeat([0, 1, 2], 30), alpha=0.0)
    assert hd_bwdm(X, template, truth) == hd_bwdm(X, replace(template, K=2), truth)
    with pytest.raises(UsageError) as err:  # a value the caller chose: exit 1 on the CLI
        hd_bwdm(X, template)
    assert "\n" not in str(err.value) and "K" in str(err.value)


def _three_blob_2d(seed):
    rng = np.random.default_rng(seed)
    return np.vstack([
        rng.normal(size=(30, 2)) * 0.5 + offset
        for offset in ([0.0, 0.0], [10.0, 0.0], [5.0, 9.0])
    ])


def test_select_k_single_candidate():
    X = _three_blob_2d(0)
    cfg = PipelineConfig(K=2, p=2, alpha=0.0, projection="rp",
                         center_kind="spatial-median",
                         seed=0, scale=False)
    model = _identity_like_model(2)
    res = select_k(X, [2], cfg)
    assert res.K_star == 2 and list(res.reports) == [2]


def test_select_k_returns_argmax_with_low_tie():
    # the selection contract: argmax of bwdm over the scanned range, ties
    # to the smallest K; which K wins is a property of the index itself
    cfg = PipelineConfig(K=2, p=2, alpha=0.0, projection="rp",
                         center_kind="spatial-median",
                         seed=0, scale=False)
    for seed in range(5):
        res = select_k(_three_blob_2d(seed), range(2, 7), cfg)
        best = min(res.reports, key=lambda k: (-res.reports[k].bwdm, k))
        assert res.K_star == best


def test_k_star_is_computed_from_the_reports_with_ties_to_the_smallest_k():
    def report(k, abdm):
        return IndexReport(abdm=abdm, awdm=1.0, K=k, p=2, alpha=0.0, projection="rp",
                           center_kind="medoid", seed=0, n_used=10)

    reports = {4: report(4, 3.0), 3: report(3, 3.0), 2: report(2, 1.0)}
    result = SelectKResult(reports=reports, model=_identity_like_model(2))
    assert result.K_star == 3
    assert replace(result, reports={**reports, 2: replace(reports[2], awdm=0.0)}).K_star == 2
    with pytest.raises(TypeError):  # K* is the reports' argmax, never passed
        SelectKResult(K_star=3, reports=reports, model=result.model)


def test_select_k_range_validation():
    X = _three_blob_2d(1)
    cfg = PipelineConfig(K=2, p=2, alpha=0.0, scale=False)
    with pytest.raises(ValueError):
        select_k(X, [1, 2], cfg)
    with pytest.raises(ValueError):
        select_k(X, [2, 80], cfg)  # beyond n(1 - alpha)/2
    with pytest.raises(ValueError):
        select_k(X, [], cfg)


def test_select_k_skips_failing_k_with_warning():
    # two exact-duplicate blobs: K=2 fits (degenerate, infinite bwdm), K=3
    # empties a cluster in every restart and must be skipped
    X = np.repeat([[0.0, 0.0], [9.0, 9.0]], 5, axis=0)
    cfg = PipelineConfig(K=2, p=2, alpha=0.2, projection="rp",
                         center_kind="medoid",
                         seed=0, scale=False)
    model = _identity_like_model(2, seed=1)
    with pytest.warns(UserWarning, match="K=3 skipped"):
        res = select_k(X, [2, 3], cfg)
    assert res.K_star == 2
    assert sorted(res.reports) == [2]


def test_select_k_reports_equal_independent_hd_bwdm_calls():
    X = _three_blob_2d(3) @ np.random.default_rng(0).normal(size=(2, 12))
    for alpha, projection in product((0.1, 0.0), ("rp", "pca")):
        cfg = PipelineConfig(K=2, p=5, alpha=alpha, projection=projection, seed=4)
        res = select_k(X, range(2, 6), cfg)
        for k, report in res.reports.items():
            alone = hd_bwdm(X, replace(cfg, K=k), projection_model=res.model)
            assert report == alone and repr(report) == repr(alone)


@pytest.mark.parametrize("kind", ["medoid", "spatial-median"])
def test_select_k_computes_each_center_once(monkeypatch, kind):
    import hdbwdm.clustering as clustering
    import hdbwdm.validity as validity

    name = "medoid" if kind == "medoid" else "spatial_median"
    center_calls = []
    center = getattr(clustering, name)
    monkeypatch.setattr(clustering, name, lambda pts, **kw: center_calls.append(1) or center(pts, **kw))
    scored = []
    index_report = validity._index_report
    monkeypatch.setattr(
        validity, "_index_report",
        lambda X, part, C, *a: scored.append((X, part, C)) or index_report(X, part, C, *a),
    )

    X = _three_blob_2d(3) @ np.random.default_rng(0).normal(size=(2, 12))
    ks = range(2, 7)
    res = select_k(X, ks, PipelineConfig(p=5, alpha=0.0, center_kind=kind, seed=4))
    assert sorted(res.reports) == list(ks) and len(scored) == len(ks)
    # one center per distinct member set: a cluster an earlier K produced is not recomputed
    member_sets = {np.flatnonzero(part.labels == k).tobytes() for _, part, _ in scored
                   for k in range(part.K)}
    assert len(center_calls) == len(member_sets) < sum(ks)
    monkeypatch.undo()
    for X_p, part, C in scored:
        assert np.array_equal(C, cluster_centers(X_p, part, kind))


@pytest.mark.parametrize("alpha", [0.1, 0.0], ids=["trimmed-kmeans", "kmeans"])
def test_select_k_seeds_each_restart_once(kmeanspp_calls, alpha):
    X = _three_blob_2d(3) @ np.random.default_rng(0).normal(size=(2, 12))
    cfg = PipelineConfig(K=2, p=5, alpha=alpha, seed=4)
    res = select_k(X, [5, 2, 3, 4], cfg)
    assert sorted(res.reports) == [2, 3, 4, 5]
    trim = math.ceil(alpha * X.shape[0])
    assert kmeanspp_calls == [(5, trim)] * 10  # n_init seedings, not n_init per K
    # the sharing ends with the scan
    kmeanspp_calls.clear()
    hd_bwdm(X, replace(cfg, K=3), projection_model=res.model)
    assert kmeanspp_calls == [(3, trim)] * 10


def test_select_k_seeding_failure_is_each_k_failure():
    # squared distances overflow, so every k-means++ draw fails; as without
    # the shared seeding, each K is skipped with its own warning
    X = np.random.default_rng(0).normal(size=(40, 3)) * 1e160
    cfg = PipelineConfig(K=2, p=3, alpha=0.1, seed=0, scale=False)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError, match="no K in 2..4"):
                select_k(X, range(2, 5), cfg)
    skipped = [str(w.message).split(":")[0] for w in caught if w.category is UserWarning]
    assert skipped == ["K=2 skipped", "K=3 skipped", "K=4 skipped"]


def test_select_k_scales_and_projects_once(monkeypatch):
    import hdbwdm.validity as validity

    calls = []

    def counting(name):
        original = getattr(validity, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        return counted

    for name in ("robust_scale_fit", "project"):
        monkeypatch.setattr(validity, name, counting(name))
    cfg = PipelineConfig(K=2, p=2, alpha=0.1, seed=0)
    res = select_k(_three_blob_2d(2), range(2, 6), cfg)
    assert len(res.reports) == 4
    assert calls.count("robust_scale_fit") == 1
    assert calls.count("project") == 1
