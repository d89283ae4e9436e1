"""Index formulas, the full pipeline, and the K-selection rule."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from hdbwdm import (
    IndexReport,
    NumericalError,
    Partition,
    PipelineConfig,
    ProjectionModel,
    TRIMMED,
    abdm,
    awdm,
    bwdm,
    cluster_centers,
    hd_bwdm,
    robust_scale_apply,
    robust_scale_fit,
    select_k,
    trimmed_kmeans,
)
from oracles import direct_bwdm


def _centers(points, labels, K, kind="spatial-median"):
    part = Partition(labels=np.asarray(labels), K=K, alpha=0.0, source="external")
    return cluster_centers(np.asarray(points, dtype=float), part, kind=kind)


TOY_X = np.array([[0.0], [1.0], [2.0], [10.0], [11.0], [12.0]])
TOY_LABELS = np.array([0, 0, 0, 1, 1, 1])


def test_abdm_single_pair():
    centers = _centers([[0.0, 0.0], [3.0, 4.0]], [0, 1], 2)
    assert abdm(centers) == pytest.approx(5.0)


def test_abdm_345_triangle():
    # ordered pairs double each side: 2*(3+4+5)/6 = 4
    centers = _centers([[0.0, 0.0], [3.0, 0.0], [3.0, 4.0]], [0, 1, 2], 3)
    assert abdm(centers) == pytest.approx(4.0)


def test_abdm_coincident_centers():
    centers = _centers([[1.0, 1.0], [1.0, 1.0]], [0, 1], 2)
    assert abdm(centers) == 0.0


def test_abdm_needs_two_clusters():
    centers = _centers([[0.0], [1.0]], [0, 0], 1)
    with pytest.raises(ValueError):
        abdm(centers)


def test_awdm_hand_value():
    part = Partition(labels=TOY_LABELS, K=2, alpha=0.0, source="external")
    centers = cluster_centers(TOY_X, part, kind="spatial-median")
    assert awdm(TOY_X, part, centers) == pytest.approx(1.0)


def test_awdm_trimmed_rows_contribute_nothing():
    X = np.array([[0.0], [1.0], [2.0], [50.0], [10.0], [11.0], [12.0]])
    labels = np.array([0, 0, 0, TRIMMED, 1, 1, 1])
    part = Partition(labels=labels, K=2, alpha=0.0, source="external")
    centers = cluster_centers(X, part, kind="spatial-median")
    assert awdm(X, part, centers) == pytest.approx(1.0)


def test_awdm_requires_retained_above_k():
    X = np.array([[0.0], [10.0]])
    part = Partition(labels=np.array([0, 1]), K=2, alpha=0.0, source="external")
    centers = cluster_centers(X, part)
    with pytest.raises(ValueError):
        awdm(X, part, centers)


def test_bwdm_hand_value_both_center_kinds():
    part = Partition(labels=TOY_LABELS, K=2, alpha=0.0, source="external")
    for kind in ("spatial-median", "medoid"):
        rep = bwdm(TOY_X, part, center_kind=kind)
        assert rep.abdm == pytest.approx(10.0)
        assert rep.awdm == pytest.approx(1.0)
        assert rep.bwdm == pytest.approx(10.0)
        assert rep.n_used == 6 and rep.K == 2


def test_bwdm_degenerate_duplicate_points():
    X = np.array([[1.0], [1.0], [1.0], [5.0], [5.0], [5.0]])
    part = Partition(labels=TOY_LABELS, K=2, alpha=0.0, source="external")
    rep = bwdm(X, part)
    assert rep.awdm == 0.0
    assert rep.degenerate and math.isinf(rep.bwdm)


def test_bwdm_coincident_centers_score_zero():
    # two labels drawn over one interleaved set: centers collide, abdm 0
    X = np.array([[0.0], [1.0], [2.0], [0.0], [1.0], [2.0]])
    part = Partition(labels=np.array([0, 0, 0, 1, 1, 1]), K=2, alpha=0.0, source="external")
    rep = bwdm(X, part, center_kind="spatial-median")
    assert rep.abdm == pytest.approx(0.0)
    assert rep.bwdm == pytest.approx(0.0)


def test_bwdm_report_ratio_consistency():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(20, 3))
    part = Partition(labels=rng.integers(0, 3, size=20), K=3, alpha=0.0, source="external")
    rep = bwdm(X, part)
    assert rep.bwdm == pytest.approx(rep.abdm / rep.awdm, rel=1e-12)


def test_index_report_rejects_inconsistent_ratio():
    with pytest.raises(ValueError):
        IndexReport(
            abdm=4.0, awdm=2.0, bwdm=3.0, K=2, p=None, alpha=0.0,
            projection="none", center_kind="medoid", seed=0, n_used=10,
        )


def test_index_report_round_trip():
    rep = IndexReport(
        abdm=4.0, awdm=2.0, bwdm=2.0, K=3, p=None, alpha=0.1,
        projection="none", center_kind="medoid", seed=11, n_used=42,
    )
    back = IndexReport.from_dict(rep.to_dict())
    assert back == rep
    assert rep.to_dict()["p"] == "FULL"


def test_index_report_round_trip_infinite():
    rep = IndexReport(
        abdm=4.0, awdm=0.0, bwdm=math.inf, K=2, p=5, alpha=0.0,
        projection="rp", center_kind="medoid", seed=0, n_used=8, degenerate=True,
    )
    back = IndexReport.from_dict(rep.to_dict())
    assert math.isinf(back.bwdm) and back.degenerate


def test_bwdm_matches_direct_oracle():
    rng = np.random.default_rng(2)
    for _ in range(25):
        n = int(rng.integers(5, 9))
        d = int(rng.integers(1, 3))
        K = 2
        X = rng.normal(size=(n, d))
        labels = rng.integers(0, K, size=n)
        labels[:K] = np.arange(K)  # every cluster inhabited
        part = Partition(labels=labels, K=K, alpha=0.0, source="external")
        rep = bwdm(X, part, center_kind="medoid")
        oa, ow, ob = direct_bwdm(X, labels, K)
        assert rep.abdm == pytest.approx(oa, abs=1e-12)
        assert rep.awdm == pytest.approx(ow, abs=1e-12)
        assert rep.bwdm == pytest.approx(ob, abs=1e-12)


def _random_labeled(rng, n=24, d=3, K=3):
    X = rng.normal(size=(n, d)) + rng.integers(0, 4, size=(n, 1)) * 6.0
    labels = rng.integers(0, K, size=n)
    labels[:K] = np.arange(K)
    return X, Partition(labels=labels, K=K, alpha=0.0, source="external")


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
        relabeled = Partition(
            labels=perm[part.labels], K=part.K, alpha=0.0, source="external"
        )
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
                         center_kind="medoid", clusterer="kmeans", seed=0)
    rep = hd_bwdm(X, cfg, projection_model=_identity_like_model(4))
    scaled = robust_scale_apply(X, robust_scale_fit(X))
    part = Partition(labels=np.repeat([0, 1], 20), K=2, alpha=0.0, source="external")
    plain = bwdm(scaled, part, center_kind="medoid")
    assert rep.bwdm == pytest.approx(plain.bwdm, rel=1e-6)


def test_hd_bwdm_identity_reduction_to_toy_value():
    cfg = PipelineConfig(K=2, p=1, alpha=0.0, projection="rp",
                         center_kind="spatial-median", clusterer="kmeans",
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
        K=2, alpha=0.0, source="true-labels",
    )
    cfg = PipelineConfig(K=2, p=4, alpha=0.0, projection="rp",
                         center_kind="medoid", clusterer="external-labels", seed=3)
    rep = hd_bwdm(X, cfg, true_labels=truth)
    assert rep.n_used == 30  # outliers excluded from the index


def test_hd_bwdm_external_labels_require_truth():
    cfg = PipelineConfig(K=2, p=2, alpha=0.0, projection="rp",
                         center_kind="medoid", clusterer="external-labels", seed=0)
    with pytest.raises(ValueError):
        hd_bwdm(np.random.default_rng(0).normal(size=(10, 4)), cfg)


def test_hd_bwdm_model_mismatch():
    rng = np.random.default_rng(9)
    cfg = PipelineConfig(K=2, p=3, alpha=0.0, projection="rp",
                         center_kind="medoid", clusterer="kmeans", seed=0)
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
    with pytest.raises(ValueError):
        PipelineConfig(K=2, p=5, clusterer="dbscan")


def _three_blob_2d(seed):
    rng = np.random.default_rng(seed)
    return np.vstack([
        rng.normal(size=(30, 2)) * 0.5 + offset
        for offset in ([0.0, 0.0], [10.0, 0.0], [5.0, 9.0])
    ])


def test_select_k_single_candidate():
    X = _three_blob_2d(0)
    cfg = PipelineConfig(K=2, p=2, alpha=0.0, projection="rp",
                         center_kind="spatial-median", clusterer="kmeans",
                         seed=0, scale=False)
    model = _identity_like_model(2)
    res = select_k(X, [2], cfg)
    assert res.K_star == 2 and list(res.reports) == [2]


def test_select_k_returns_argmax_with_low_tie():
    # the selection contract: argmax of bwdm over the scanned range, ties
    # to the smallest K; which K wins is a property of the index itself
    cfg = PipelineConfig(K=2, p=2, alpha=0.0, projection="rp",
                         center_kind="spatial-median", clusterer="kmeans",
                         seed=0, scale=False)
    for seed in range(5):
        res = select_k(_three_blob_2d(seed), range(2, 7), cfg)
        best = min(res.reports, key=lambda k: (-res.reports[k].bwdm, k))
        assert res.K_star == best


def test_select_k_range_validation():
    X = _three_blob_2d(1)
    cfg = PipelineConfig(K=2, p=2, alpha=0.0, clusterer="kmeans", scale=False)
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
                         center_kind="medoid", clusterer="trimmed-kmeans",
                         seed=0, scale=False)
    model = _identity_like_model(2, seed=1)
    with pytest.warns(UserWarning, match="K=3 skipped"):
        res = select_k(X, [2, 3], cfg)
    assert res.K_star == 2
    assert sorted(res.reports) == [2]


def test_select_k_reports_equal_independent_hd_bwdm_calls():
    X = _three_blob_2d(3) @ np.random.default_rng(0).normal(size=(2, 12))
    for projection in ("rp", "pca"):
        cfg = PipelineConfig(K=2, p=5, alpha=0.1, projection=projection, seed=4)
        res = select_k(X, range(2, 6), cfg)
        for k, report in res.reports.items():
            alone = hd_bwdm(X, replace(cfg, K=k), projection_model=res.model)
            assert report == alone and repr(report) == repr(alone)


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
