"""k-means, trimmed k-means, center extraction, partition plumbing."""

import numpy as np
import pytest

from hdbwdm import (
    NumericalError,
    Partition,
    TRIMMED,
    cluster_centers,
    kmeans,
    trimmed_kmeans,
)
from hdbwdm.clustering import _RestartFailed, _concentration_fit, _kmeanspp_init, _lowest
from oracles import canonical_labels, enumerate_kmeans, enumerate_trimmed_kmeans


def _clusters(part):
    """Retained clusters as a frozenset of frozensets of row indices."""
    groups = {}
    for i, lab in enumerate(part.labels):
        if lab != TRIMMED:
            groups.setdefault(int(lab), set()).add(i)
    return frozenset(frozenset(g) for g in groups.values())


def test_partition_rejects_bad_labels():
    with pytest.raises(ValueError):
        Partition(labels=np.array([0, 1, 3]), K=3, alpha=0.0, source="external")
    with pytest.raises(ValueError):
        Partition(labels=np.array([0, -2, 1]), K=2, alpha=0.0, source="external")


def test_partition_rejects_empty_cluster():
    with pytest.raises(ValueError):
        Partition(labels=np.array([0, 0, 0]), K=2, alpha=0.0, source="external")


def test_partition_trim_count_enforced_for_trimmed_source():
    # ceil(0.25 * 5) = 2 trimmed rows required
    good = np.array([0, TRIMMED, 1, TRIMMED, 1])
    Partition(labels=good, K=2, alpha=0.25, source="trimmed-kmeans")
    with pytest.raises(ValueError):
        Partition(labels=np.array([0, 0, 1, TRIMMED, 1]), K=2, alpha=0.25, source="trimmed-kmeans")


def test_partition_counts():
    part = Partition(labels=np.array([0, TRIMMED, 1, 0]), K=2, alpha=0.0, source="external")
    assert part.n == 4
    assert part.retained_count == 3
    assert list(part.trimmed_mask) == [False, True, False, False]


def test_kmeans_two_pairs_every_seed():
    # unique WCSS minimizer per enumeration; every seed must find it
    X = np.array([[0.0], [1.0], [10.0], [11.0]])
    expected = canonical_labels(enumerate_kmeans(X, 2)[2])
    for seed in range(8):
        part = kmeans(X, K=2, seed=seed)
        assert np.array_equal(canonical_labels(part.labels), expected)


def test_kmeans_k_equals_n():
    X = np.array([[0.0], [5.0], [9.0]])
    part = kmeans(X, K=3, seed=0)
    assert sorted(part.labels) == [0, 1, 2]
    centers = cluster_centers(X, part, kind="medoid")
    assert np.allclose(np.sort(centers.centers, axis=0), np.sort(X, axis=0))


def test_kmeans_deterministic():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(40, 3))
    a = kmeans(X, K=3, seed=7)
    b = kmeans(X, K=3, seed=7)
    assert np.array_equal(a.labels, b.labels)


def test_kmeans_k_exceeds_n():
    with pytest.raises(ValueError):
        kmeans(np.zeros((3, 2)) + np.arange(3)[:, None], K=4)


def test_kmeans_survives_duplicate_heavy_input():
    # duplicates force empty-cluster reseeds along the way; four distinct
    # values exist so a full 4-cluster fit is reachable
    X = np.array([[0.0], [0.0], [0.0], [8.0], [8.0], [20.0], [21.0]])
    part = kmeans(X, K=4, seed=1)
    assert part.retained_count == 7
    assert len(set(part.labels.tolist())) == 4


def test_kmeans_impossible_k_on_duplicates():
    # only three distinct values: no 4-cluster partition survives the
    # nearest-center tie-break, so every restart is a dead end
    X = np.array([[0.0], [0.0], [0.0], [8.0], [8.0], [20.0]])
    with pytest.raises(NumericalError):
        kmeans(X, K=4, seed=1)


def test_trimmed_alpha_zero_reduces_to_kmeans():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(30, 2))
    for seed in (0, 5):
        a = trimmed_kmeans(X, K=3, alpha=0.0, seed=seed)
        b = kmeans(X, K=3, seed=seed)
        assert np.array_equal(a.labels, b.labels)


def test_trimmed_isolates_gross_outlier():
    X = np.array([[0.0], [1.0], [2.0], [10.0], [11.0], [12.0], [1000.0]])
    obj, trim_set, labels = enumerate_trimmed_kmeans(X, 2, 1)
    assert trim_set == {6}
    for seed in range(8):
        part = trimmed_kmeans(X, K=2, alpha=1.0 / 7.0, seed=seed)
        assert part.labels[6] == TRIMMED
        assert _clusters(part) == frozenset({frozenset({0, 1, 2}), frozenset({3, 4, 5})})


def test_trimmed_matches_enumeration_oracle():
    rng = np.random.default_rng(2)
    cases = [(8, 2, 1), (9, 2, 2), (7, 3, 1), (10, 2, 1)]
    for n, K, trim in cases:
        X = rng.normal(size=(n, 2))
        X[:trim] += 25.0  # plant far points so trimming matters
        best_obj, _, _ = enumerate_trimmed_kmeans(X, K, trim)
        part = trimmed_kmeans(X, K=K, alpha=trim / n, seed=0, n_init=50)
        retained = part.labels != TRIMMED
        obj = 0.0
        for k in range(K):
            members = X[retained & (part.labels == k)]
            obj += float(((members - members.mean(axis=0)) ** 2).sum())
        assert obj == pytest.approx(best_obj, rel=1e-9, abs=1e-12)


def test_trimmed_benchmark_shape_trim_count():
    # ceil(0.1 * 550) = 55 rows trimmed regardless of data content
    rng = np.random.default_rng(3)
    X = rng.normal(size=(550, 20))
    part = trimmed_kmeans(X, K=5, alpha=0.1, seed=0, n_init=2)
    assert int(part.trimmed_mask.sum()) == 55
    assert part.retained_count == 495


def test_trimmed_all_restarts_fail():
    # two exact-duplicate blobs; trimming always empties one cluster
    X = np.repeat([[0.0], [0.0], [15.0]], [3, 0, 3], axis=0)
    X[:3] += 1e-300  # subnormal jitter: cluster 0 rows carry tiny positive distances
    with pytest.raises(NumericalError):
        trimmed_kmeans(X, K=2, alpha=0.45, seed=0)


def test_concentration_objective_non_increasing():
    rng = np.random.default_rng(4)
    for trial in range(20):
        n = int(rng.integers(12, 40))
        X = rng.normal(size=(n, 2))
        K = int(rng.integers(2, 4))
        trim = int(rng.integers(0, n // 5))
        centers = _kmeanspp_init(X, K, trim, rng)
        # the objective after t steps is what a fit capped at max_iter=t returns;
        # stop once two caps agree on labels and retained set (the fixpoint)
        prev = None
        for t in range(1, 101):
            try:
                labels, retained, obj = _concentration_fit(X, K, trim, centers, max_iter=t)
            except _RestartFailed:
                break  # an emptied cluster is a different contract
            if prev is not None:
                assert obj <= prev[2] + 1e-9
                if np.array_equal(labels, prev[0]) and np.array_equal(retained, prev[1]):
                    break
            prev = labels, retained, obj


def test_trimming_selection_matches_stable_argsort():
    # retained set = head of the stable sort (ties keep the lowest indices),
    # drop set = its tail (ties give up the highest indices)
    rng = np.random.default_rng(8)
    arrays = [
        np.zeros(9),
        np.array([3.0, 1.0, 3.0, 0.0, 3.0, 1.0, 0.0, 3.0]),
        np.array([2.0, 2.0, 5.0, 5.0, 5.0, 0.0, 0.0, 2.0, 5.0, 1.0]),
        np.repeat([0.0, 4.0, 1.0], [4, 5, 3]),
    ]
    arrays += [rng.integers(0, 4, size=int(rng.integers(2, 30))).astype(float) for _ in range(200)]
    arrays += [rng.random(25) for _ in range(20)]
    for values in arrays:
        n = values.size
        order = np.argsort(values, kind="stable")
        for m in range(1, n + 1):
            keep = _lowest(values, m)
            retained = np.zeros(n, dtype=bool)
            retained[order[:m]] = True
            assert np.array_equal(keep, retained)
            assert np.array_equal(np.flatnonzero(~keep), np.sort(order[m:]))


def test_kmeanspp_ignores_planted_outliers_in_seeding():
    # with trim_count > 0 the largest squared distances get zero proposal
    # weight, so a gross outlier can never become a seed
    X = np.vstack([np.random.default_rng(5).normal(size=(20, 2)), [[1e6, 1e6]]])
    for seed in range(20):
        centers = _kmeanspp_init(X, 2, 1, np.random.default_rng(seed))
        assert not np.any(np.all(centers == [1e6, 1e6], axis=1))


def test_cluster_centers_singleton():
    X = np.array([[4.0, 1.0], [0.0, 0.0], [0.1, 0.0]])
    part = Partition(labels=np.array([0, 1, 1]), K=2, alpha=0.0, source="external")
    for kind in ("medoid", "spatial-median"):
        centers = cluster_centers(X, part, kind=kind)
        assert np.allclose(centers.centers[0], [4.0, 1.0])
        assert centers.member_counts[0] == 1


def test_cluster_centers_hand_values():
    X = np.array([[0.0], [1.0], [2.0]])
    part = Partition(labels=np.array([0, 0, 0]), K=1, alpha=0.0, source="external")
    assert np.allclose(cluster_centers(X, part, kind="medoid").centers, [[1.0]])
    assert np.allclose(cluster_centers(X, part, kind="spatial-median").centers, [[1.0]])


def test_cluster_centers_even_set():
    # spatial median of an even 1-D set is the central midpoint; the medoid
    # stays on the lower of the tied members
    X = np.array([[0.0], [1.0], [2.0], [9.0]])
    part = Partition(labels=np.zeros(4, dtype=int), K=1, alpha=0.0, source="external")
    assert np.allclose(cluster_centers(X, part, kind="spatial-median").centers, [[1.5]])
    assert np.allclose(cluster_centers(X, part, kind="medoid").centers, [[1.0]])


def test_medoid_centers_are_members():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(30, 3))
    part = kmeans(X, K=3, seed=0)
    centers = cluster_centers(X, part, kind="medoid")
    for k, center in enumerate(centers.centers):
        members = X[part.labels == k]
        assert any(np.array_equal(center, row) for row in members)


def test_cluster_centers_trimmed_rows_excluded():
    X = np.array([[0.0], [1.0], [2.0], [50.0]])
    labels = np.array([0, 0, 0, TRIMMED])
    part = Partition(labels=labels, K=1, alpha=0.25, source="external")
    assert np.allclose(cluster_centers(X, part, kind="medoid").centers, [[1.0]])


def test_cluster_centers_empty_cluster_message():
    part = Partition(labels=np.array([0, 0, 1]), K=2, alpha=0.0, source="external")
    bad = Partition(
        labels=np.array([0, 0, TRIMMED]), K=1, alpha=0.0, source="external"
    )
    X = np.zeros((3, 1))
    cluster_centers(X, part)  # fine
    part2 = Partition(labels=np.array([0, TRIMMED, 0]), K=1, alpha=0.0, source="external")
    cluster_centers(X, part2)  # fine: cluster 0 retains two rows
    with pytest.raises(ValueError, match="cluster 1"):
        broken = Partition.__new__(Partition)
        object.__setattr__(broken, "labels", np.array([0, 0, TRIMMED]))
        object.__setattr__(broken, "K", 2)
        object.__setattr__(broken, "alpha", 0.0)
        object.__setattr__(broken, "source", "external")
        cluster_centers(X, broken)
