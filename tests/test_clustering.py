"""k-means, trimmed k-means, center extraction, partition plumbing."""

import warnings

import numpy as np
import pytest

from scipy.spatial.distance import cdist

from hdbwdm import (
    MixtureConfig,
    NumericalError,
    Partition,
    TRIMMED,
    UsageError,
    cluster_centers,
    fit_random_projection,
    generate,
    kmeans,
    project,
    robust_scale_apply,
    robust_scale_fit,
    spatial_median,
    trimmed_kmeans,
)
import hdbwdm.clustering as clustering
from hdbwdm.clustering import (
    _N_INIT,
    _concentration_fit,
    _group_size,
    _lowest,
    _seedings,
)
from hdbwdm.geometry import _distance_kernels
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
        Partition(labels=np.array([0, 1, 3]), alpha=0.0)
    with pytest.raises(ValueError):
        Partition(labels=np.array([0, -2, 1]), alpha=0.0)


def test_partition_rejects_empty_cluster():
    # K is the largest retained id plus one, so a gap leaves a cluster empty
    with pytest.raises(ValueError, match=r"must be 0\.\.K-1 with none missing, got \[0, 2\]$"):
        Partition(labels=np.array([0, 0, 2]), alpha=0.0)
    with pytest.raises(ValueError, match=r"got \[\]$"):
        Partition(labels=np.array([TRIMMED, TRIMMED]), alpha=0.0)


@pytest.mark.parametrize("labels, ids", [
    ([0, 1, 3, 3, 3, 3], "[0, 1, 3]"),
    ([0, -2, 1], "[-2, 0, 1]"),
    ([1, 1, 2], "[1, 2]"),
    ([0, 5], "[0, 5]"),
    (list(range(0, 40, 2)), "[0, 2, 4, ..., 34, 36, 38]"),
])
def test_partition_refusals_name_the_sorted_retained_ids(labels, ids):
    message = f"retained cluster ids must be 0..K-1 with none missing, got {ids}"
    with pytest.raises(ValueError) as refused:
        Partition(labels=np.array(labels), alpha=0.0)
    assert str(refused.value) == message


def test_partition_refuses_a_huge_id_without_an_array_sized_by_it():
    import tracemalloc

    labels = np.array([0, 1, 2**62, 1])
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"got \[0, 1, 4611686018427387904\]$"):
            Partition(labels=labels, alpha=0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_partition_k_does_not_depend_on_the_order_of_the_labels():
    rng = np.random.default_rng(5)
    labels = np.concatenate([np.repeat(np.arange(7), 3), np.full(4, TRIMMED)])
    for _ in range(5):
        part = Partition(labels=rng.permutation(labels), alpha=0.1)
        assert (part.K, part.retained_count) == (7, 21)


@pytest.mark.parametrize("labels, alpha, message", [
    (np.zeros((2, 2), int), 0.0, "labels must be a non-empty 1-D array"),
    (np.array([], int), 0.0, "labels must be a non-empty 1-D array"),
    (np.array([0, 1]), 0.5, r"alpha must lie in \[0, 0\.5\), got 0\.5"),
    (np.array([0, 1]), -0.1, r"alpha must lie in \[0, 0\.5\), got -0\.1"),
])
def test_partition_refuses_bad_labels_and_alpha(labels, alpha, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        Partition(labels=labels, alpha=alpha)


def test_cluster_centers_refuses_a_row_count_mismatch():
    part = Partition(labels=np.array([0, 1]), alpha=0.0)
    with pytest.raises(ValueError, match="^X has 3 rows but the partition labels 2$"):
        cluster_centers(np.zeros((3, 2)), part, kind="medoid")


@pytest.mark.parametrize("n, K, alpha, n_init, message", [
    (6, 1, 0.0, 10, "K must be >= 2, got 1"),
    (6, 2, 0.5, 10, r"alpha must lie in \[0, 0\.5\), got 0\.5"),
    (6, 2, -0.1, 10, r"alpha must lie in \[0, 0\.5\), got -0\.1"),
    (4, 3, 0.45, 10, "trimming 2 of 4 rows leaves fewer than K=3 retained observations"),
    (6, 2, 0.0, 0, "n_init must be >= 1, got 0"),
])
def test_trimmed_kmeans_refuses_bad_arguments_as_usage_errors(n, K, alpha, n_init, message):
    X = np.arange(2.0 * n).reshape(n, 2)
    with pytest.raises(UsageError, match=f"^{message}$"):
        trimmed_kmeans(X, K, alpha, seed=0, n_init=n_init)


def test_partition_counts():
    part = Partition(labels=np.array([0, TRIMMED, 1, 0]), alpha=0.0)
    assert part.K == 2
    with pytest.raises(TypeError):  # K is computed from the labels, never passed
        Partition(labels=part.labels, K=2, alpha=0.0)
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
    assert np.allclose(np.sort(centers, axis=0), np.sort(X, axis=0))


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
        assert (a.K, a.alpha) == (b.K, b.alpha) == (3, 0.0)


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
        centers, dist = _seedings(X, K, trim, trial, range(1))
        # the objective after t steps is what a fit capped at max_iter=t returns;
        # stop once two caps agree on labels and retained set (the fixpoint)
        prev = None
        for t in range(1, 101):
            (outcome,) = _concentration_fit(X, trim, centers, dist, t)
            if isinstance(outcome, str):
                break  # an emptied cluster is a different contract
            labels, retained, obj = outcome
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
    # a 2-D block cuts each row as the row alone: the lockstep fit's trim cut
    block = np.array([values for values in arrays if values.size == 25])
    assert len(block) > 10
    for m in range(1, 26):
        assert np.array_equal(_lowest(block, m), [_lowest(values, m) for values in block])


def test_kmeanspp_ignores_planted_outliers_in_seeding():
    # with trim_count > 0 the largest squared distances get zero proposal
    # weight, so a gross outlier can never become a D^2-drawn seed (the first
    # center is a uniform draw, which may land on it)
    X = np.vstack([np.random.default_rng(5).normal(size=(20, 2)), [[1e6, 1e6]]])
    centers, _ = _seedings(X, 3, 1, 0, range(100))
    assert not np.any(np.all(centers[:, 1:] == [1e6, 1e6], axis=2))


def _reference_kmeanspp_init(X, K, trim_count, rng):
    """Reference k-means++: updates D^2 after every draw, the last one included."""
    n = X.shape[0]
    centers = np.empty((K, X.shape[1]))
    centers[0] = X[int(rng.integers(n))]
    d2 = ((X - centers[0]) ** 2).sum(axis=1)
    for k in range(1, K):
        w = np.where(_lowest(d2, n - trim_count), d2, 0.0) if trim_count else d2
        total = w.sum()
        if total > 0.0:
            idx = int(rng.choice(n, p=w / total))
        else:
            idx = int(rng.integers(n))
        centers[k] = X[idx]
        d2 = np.minimum(d2, ((X - centers[k]) ** 2).sum(axis=1))
    return centers


def _scan_rows(p, seed=0, cfg=None):
    """Scaled, randomly projected rows of a contaminated mixture, as a K scan sees them."""
    X = generate(cfg or MixtureConfig(n_inliers=200, d=400, K_true=4, seed=seed)).X
    Xs = robust_scale_apply(X, robust_scale_fit(X))
    return project(Xs, fit_random_projection(Xs.shape[1], p, seed))


def _reference_inputs():
    """``(X, trims)`` pairs: the benchmark mixtures (550 rows, trim 55 =
    ceil(0.1 * 550)) at the widths the sweep and the K scan project to,
    then a small mixture and a duplicates matrix with 3 distinct rows."""
    duplicates = np.repeat(np.random.default_rng(1).normal(size=(3, 4)), 12, axis=0)
    inputs = [
        (_scan_rows(p, s, MixtureConfig(seed=s)), (0, 55))
        for s in range(6)
        for p in (20, 150, 300, 400)
    ]
    return inputs + [(_scan_rows(150), (0, 4)), (duplicates, (0, 4))]


@pytest.fixture
def seeding_rngs(monkeypatch):
    """Every generator the package makes with ``np.random.default_rng`` while the test runs."""
    made = []
    original = np.random.default_rng

    def recording(seed):
        made.append(original(seed))
        return made[-1]

    monkeypatch.setattr(clustering.np.random, "default_rng", recording)
    return made


def test_kmeanspp_matches_the_reference_loop(seeding_rngs):
    # the lockstep seeding's D^2 comes from cdist rows, the reference's from
    # numpy row sums; their last bits differ, and no draw may change.  Each
    # restart must leave its generator where the reference leaves it.  The
    # duplicates matrix makes large K reach the zero-weight draw.
    for X, trims in _reference_inputs():
        for trim in trims:
            for K in range(2, 9):
                seeding_rngs.clear()
                centers, dist = _seedings(X, K, trim, K, range(5))
                assert centers.shape == (5, K, X.shape[1]) and dist.shape == (5, K, X.shape[0])
                assert len(seeding_rngs) == 5
                for r, rng in enumerate(list(seeding_rngs)):
                    ref_rng = np.random.default_rng([K, r])
                    assert np.array_equal(
                        centers[r],
                        _reference_kmeanspp_init(X, K, trim, ref_rng),
                    )
                    assert rng.bit_generator.state == ref_rng.bit_generator.state
                    assert np.array_equal(dist[r], cdist(X, centers[r], "sqeuclidean").T)


class _RestartFailed(Exception):
    """The reference loop discards a restart that emptied a cluster."""


def _reference_concentration_fit(X, K, trim_count, centers, max_iter, first_d2, steps=None):
    """Reference concentration steps: every mean and every distance column
    recomputed on every step, stopping when labels and retained set repeat.

    ``steps``, when given, gets one entry per step that computed distances:
    the clusters that step reseeded.
    """
    n = X.shape[0]
    centers = centers.copy()
    for it in range(max_iter):
        d2 = first_d2 if it == 0 else cdist(X, centers, "sqeuclidean")
        labels = d2.argmin(axis=1)
        dmin = d2[np.arange(n), labels]
        retained = _lowest(dmin, n - trim_count) if trim_count else np.ones(n, dtype=bool)
        obj = float(dmin[retained].sum())
        reseeded = []
        if steps is not None:
            steps.append(reseeded)
        if it and np.array_equal(labels, labels_prev) and np.array_equal(retained, mask_prev):
            break
        for k in range(K):
            members = retained & (labels == k)
            if members.any():
                centers[k] = X[members].mean(axis=0)
            elif trim_count:
                raise _RestartFailed(f"cluster {k} lost all retained members")
            else:
                far = int(((X - centers[k]) ** 2).sum(axis=1).argmax())
                centers[k] = X[far]
                reseeded.append(k)
        labels_prev = labels
        mask_prev = retained
    for k in range(K):
        if not (retained & (labels == k)).any():
            raise _RestartFailed(f"cluster {k} empty at convergence")
    return labels, retained, obj


def _reference_outcome(X, K, trim_count, centers, max_iter, first_d2, steps=None):
    """``(labels, retained, obj)`` of the reference loop, or its ``_RestartFailed`` message."""
    try:
        return _reference_concentration_fit(X, K, trim_count, centers, max_iter, first_d2, steps)
    except _RestartFailed as exc:
        return str(exc)


def _assert_same_outcome(got, expected):
    if isinstance(expected, str):
        assert got == expected
    else:
        labels, retained, obj = got
        assert np.array_equal(labels, expected[0])
        assert np.array_equal(retained, expected[1])
        assert obj == expected[2]


@pytest.fixture
def cdist_columns(monkeypatch):
    """Centers of every squared-Euclidean ``cdist`` the package computes while the
    test runs: the clustering passes them first, one distance row each."""
    kernels = _distance_kernels()
    counted = []
    original = kernels.cdist_sqeuclidean

    def counting(XA, XB):
        counted.append(len(XA))
        return original(XA, XB)

    monkeypatch.setattr(kernels, "cdist_sqeuclidean", counting)
    return counted


def test_concentration_fit_matches_the_reference_loop(cdist_columns):
    # reusing the columns of clusters whose retained members did not move
    # must give bitwise the full recompute's labels, retained set and
    # objective, or the same failure; and it must actually reuse columns
    full_columns = reused_columns = 0
    for X, trims in _reference_inputs():
        for trim in trims:
            for K in range(2, 9):
                for seed in range(2):
                    centers, dist = _seedings(X, K, trim, K, range(seed, seed + 1))
                    steps = []
                    expected = _reference_outcome(X, K, trim, centers[0], 100, dist[0].T, steps)
                    cdist_columns.clear()
                    (got,) = _concentration_fit(X, trim, centers, dist, 100)
                    _assert_same_outcome(got, expected)
                    if X.shape[0] == 550:  # a benchmark mixture
                        full_columns += K * (len(steps) - 1)
                        reused_columns += sum(cdist_columns)
    assert 0 < reused_columns < full_columns


def test_lockstep_groups_match_the_reference_loop():
    # a group's one cdist call, nearest-center pass, trim cut and change test
    # must give every restart what it gets alone, at every group size and
    # wherever the step cap stops it; restarts of one group stop at
    # different steps, and some of them fail
    failures = 0
    for X, trims in _reference_inputs():
        for trim in trims:
            for K in range(2, 9):
                centers, dist = _seedings(X, K, trim, K, range(_N_INIT))
                for max_iter in (1, 2, 3, 100):
                    expected = [
                        _reference_outcome(X, K, trim, centers[r], max_iter, dist[r].T)
                        for r in range(_N_INIT)
                    ]
                    failures += sum(isinstance(e, str) for e in expected)
                    for size in (1, 3, _N_INIT):
                        got = []
                        for start in range(0, _N_INIT, size):
                            group = slice(start, start + size)
                            got += _concentration_fit(X, trim, centers[group], dist[group], max_iter)
                        for outcome, reference in zip(got, expected, strict=True):
                            _assert_same_outcome(outcome, reference)
    assert failures > 0


def test_emptied_cluster_is_reseeded_on_every_step_at_alpha_zero():
    # every center starts at 0: clusters 1 and 2 empty at once and reseed at
    # 8; cluster 2 loses the tie to cluster 1 and stays empty on step 1, so
    # its member set (empty) does not change, yet it must reseed again, at 0
    X = np.array([[0.0], [5.0], [7.0], [8.0]])
    centers = np.zeros((3, 1))
    d2 = cdist(X, centers, "sqeuclidean")
    steps = []
    _reference_concentration_fit(X, 3, 0, centers, 100, d2, steps)
    assert steps[:2] == [[1, 2], [2]]
    for max_iter in range(1, 6):
        _assert_same_outcome(
            _concentration_fit(X, 0, centers[None], d2.T[None], max_iter)[0],
            _reference_outcome(X, 3, 0, centers, max_iter, d2),
        )
    ((labels, _, obj),) = _concentration_fit(X, 0, centers[None], d2.T[None], 100)
    assert labels.tolist() == [2, 0, 1, 1]
    assert obj == 0.5


@pytest.mark.parametrize("p", [150, 300, 400])
def test_seedings_and_first_distances_are_prefixes_of_the_largest_k(p):
    # the shared seeding rests on these bitwise prefix facts, including
    # cdist computing each column independently of the others
    X = _scan_rows(p)
    for alpha in (0.0, 0.1):
        trim = int(np.ceil(alpha * X.shape[0]))
        init8, dist8 = _seedings(X, 8, trim, 7, range(10))
        assert init8.shape[:2] == dist8.shape[:2] == (10, 8)
        for r in range(10):
            assert np.array_equal(dist8[r], cdist(X, init8[r], "sqeuclidean").T)
        for K in range(2, 9):
            # a restart seeded alone draws what it draws in the group
            for r in (0, 9):
                init, _ = _seedings(X, K, trim, 7, range(r, r + 1))
                assert np.array_equal(init[0], init8[r, :K])
            init, _ = _seedings(X, K, trim, 7, range(10))
            assert np.array_equal(init, init8[:, :K])
            for r in range(10):
                assert np.array_equal(cdist(X, init[r], "sqeuclidean").T, dist8[r, :K])


def test_fits_inside_a_shared_seeding_equal_standalone_fits(kmeanspp_calls):
    X = _scan_rows(150, seed=2)
    fits = {
        "trimmed-kmeans": (0.1, lambda K: trimmed_kmeans(X, K, 0.1, seed=3)),
        "kmeans": (0.0, lambda K: kmeans(X, K, seed=3)),
    }
    for alpha, standalone in fits.values():
        kmeanspp_calls.clear()
        shared = clustering._seedings(X, 6, int(np.ceil(alpha * X.shape[0])), 3, range(10))
        for K in range(2, 7):
            got = trimmed_kmeans(X, K, alpha, 3, seedings=shared)
            expected = standalone(K)
            assert np.array_equal(got.labels, expected.labels)
            assert (got.K, got.alpha) == (expected.K, expected.alpha)
        # seeded once at the largest K, then once per restart by each standalone fit
        standalone_seeds = [K for K in range(2, 7) for _ in range(10)]
        assert [K for K, _ in kmeanspp_calls] == [6] * 10 + standalone_seeds


def test_shared_seedings_are_unchanged_by_every_fit_of_a_scan():
    # at 2090 rows a K = 8 group holds one restart, whose slice of the shared
    # seedings is C-contiguous; no fit may write through it into the next K's seeding
    X = _scan_rows(5, cfg=MixtureConfig(n_inliers=1900, d=12, K_true=4, seed=1))
    n = X.shape[0]
    assert _group_size(n, 8, _N_INIT) == 1 < _group_size(n, 2, _N_INIT) < _N_INIT
    for alpha in (0.0, 0.1):
        shared = _seedings(X, 8, int(np.ceil(alpha * n)), 300, range(_N_INIT))
        before = [a.tobytes() for a in shared]
        for K in range(8, 1, -1):
            trimmed_kmeans(X, K, alpha, 300, seedings=shared)
            assert [a.tobytes() for a in shared] == before


def test_cluster_centers_singleton():
    X = np.array([[4.0, 1.0], [0.0, 0.0], [0.1, 0.0]])
    part = Partition(labels=np.array([0, 1, 1]), alpha=0.0)
    for kind in ("medoid", "spatial-median"):
        centers = cluster_centers(X, part, kind=kind)
        assert np.allclose(centers[0], [4.0, 1.0])


def test_cluster_centers_hand_values():
    X = np.array([[0.0], [1.0], [2.0]])
    part = Partition(labels=np.array([0, 0, 0]), alpha=0.0)
    assert np.allclose(cluster_centers(X, part, kind="medoid"), [[1.0]])
    assert np.allclose(cluster_centers(X, part, kind="spatial-median"), [[1.0]])


def test_cluster_centers_even_set():
    # spatial median of an even 1-D set is the central midpoint; the medoid
    # stays on the lower of the tied members
    X = np.array([[0.0], [1.0], [2.0], [9.0]])
    part = Partition(labels=np.zeros(4, dtype=int), alpha=0.0)
    assert np.allclose(cluster_centers(X, part, kind="spatial-median"), [[1.5]])
    assert np.allclose(cluster_centers(X, part, kind="medoid"), [[1.0]])


def test_medoid_centers_are_members():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(30, 3))
    part = kmeans(X, K=3, seed=0)
    centers = cluster_centers(X, part, kind="medoid")
    for k, center in enumerate(centers):
        members = X[part.labels == k]
        assert any(np.array_equal(center, row) for row in members)


def test_cluster_centers_trimmed_rows_excluded():
    X = np.array([[0.0], [1.0], [2.0], [50.0]])
    labels = np.array([0, 0, 0, TRIMMED])
    part = Partition(labels=labels, alpha=0.25)
    assert np.allclose(cluster_centers(X, part, kind="medoid"), [[1.0]])


def test_cluster_centers_refuses_an_unknown_kind_as_a_usage_error():
    part = Partition(labels=np.array([0, 0, 1]), alpha=0.0)
    with pytest.raises(UsageError, match="kind must be 'medoid' or 'spatial-median', got 'mean'"):
        cluster_centers(np.zeros((3, 1)), part, kind="mean")


def test_a_spatial_median_stopped_at_its_cap_warns_once_per_center(monkeypatch):
    monkeypatch.setattr(clustering, "_WEISZFELD_MAX_ITER", 3)
    X = np.random.default_rng(11).normal(size=(45, 3))
    part = Partition(labels=np.repeat([0, 1, TRIMMED], [20, 22, 3]), alpha=0.1)
    memo = {}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        centers = cluster_centers(X, part, "spatial-median", memo=memo)
    assert [str(w.message) for w in caught] == [
        "spatial median of cluster 0 (20 rows) did not converge in 3 steps",
        "spatial median of cluster 1 (22 rows) did not converge in 3 steps",
    ]
    for k in range(2):
        capped = spatial_median(X[part.labels == k], tol=1e-12, max_iter=3)
        assert centers[k].tobytes() == capped.tobytes()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a memo hit does not warn again
        assert cluster_centers(X, part, "spatial-median", memo=memo).tobytes() == centers.tobytes()
