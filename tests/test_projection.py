"""Random projection, PCA, distortion measurement, the quiet BLAS pool."""

import ctypes
import glob
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from hdbwdm import (
    DataError,
    MixtureConfig,
    NumericalError,
    ProjectionModel,
    UsageError,
    distortion_profile,
    fit_pca,
    fit_random_projection,
    generate,
    project,
)
from hdbwdm import _openblas
from oracles import pca_by_numpy_svd


def test_rp_deterministic_for_seed():
    a = fit_random_projection(d=500, p=150, seed=42)
    b = fit_random_projection(d=500, p=150, seed=42)
    assert np.array_equal(a.matrix, b.matrix)
    assert a.kind == "rp" and a.seed == 42


def test_rp_matrix_shape():
    model = fit_random_projection(d=500, p=150, seed=0)
    assert model.matrix.shape == (150, 500)


def test_rp_entry_variance_one_over_p():
    model = fit_random_projection(d=500, p=200, seed=3)
    var = model.matrix.var()
    assert abs(var - 1.0 / 200) <= 0.05 / 200


def test_rp_rejects_bad_p():
    with pytest.raises(ValueError):
        fit_random_projection(d=10, p=11, seed=0)
    with pytest.raises(ValueError):
        fit_random_projection(d=10, p=0, seed=0)


def test_rp_norm_preservation_unbiased():
    # average squared-norm ratio over independent matrices is 1 for the
    # N(0, 1/p) scheme
    rng = np.random.default_rng(17)
    x = rng.normal(size=100)
    ratios = []
    for seed in range(200):
        model = fit_random_projection(d=100, p=20, seed=seed)
        ratios.append(np.sum((model.matrix @ x) ** 2) / np.sum(x**2))
    assert 0.95 <= np.mean(ratios) <= 1.05


def test_pca_rank_one_data():
    t = np.linspace(-2.0, 3.0, 40)
    X = np.column_stack([t, 2.0 * t])
    model = fit_pca(X, p=2)
    total = model.explained_variance.sum()
    assert model.explained_variance[1] <= 1e-10 * total


def test_pca_rows_orthonormal():
    rng = np.random.default_rng(4)
    model = fit_pca(rng.normal(size=(30, 8)), p=5)
    gram = model.matrix @ model.matrix.T
    assert np.allclose(gram, np.eye(5), atol=1e-8)


def test_pca_hand_eigendecomposition():
    model = fit_pca(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]), p=1)
    assert np.allclose(model.matrix, [[1.0, 0.0]], atol=1e-12)  # sign fixed positive
    assert model.explained_variance == pytest.approx([1.0])


def test_pca_explained_variance_non_increasing():
    rng = np.random.default_rng(5)
    model = fit_pca(rng.normal(size=(40, 10)) * np.arange(1, 11), p=10)
    assert np.all(np.diff(model.explained_variance) <= 1e-12)


def test_pca_explained_variance_totals():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(25, 6))
    total = X.var(axis=0, ddof=1).sum()
    partial = fit_pca(X, p=3).explained_variance.sum()
    full = fit_pca(X, p=6).explained_variance.sum()
    assert partial <= total + 1e-10
    assert full == pytest.approx(total, rel=1e-10)


def test_pca_rank_error_message():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(5, 10))  # attainable rank 4
    with pytest.raises(ValueError, match="rank"):
        fit_pca(X, p=5)


def test_pca_needs_two_rows():
    with pytest.raises(UsageError, match="^PCA needs at least 2 observations, got 1$"):
        fit_pca(np.ones((1, 3)), 1)


def _normal(n, d, seed, loc=0.0):
    return np.random.default_rng(seed).normal(loc=loc, size=(n, d))


def _rank_three(n, d, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, 3)) @ rng.normal(size=(3, d))


# (make X, p); dgesdd takes its QR route from n >= floor(11 d / 6) rows, 916 at d = 500
_PCA_SHAPES = {
    "tall 1,000 x 500, QR route": (lambda: _normal(1000, 500, 21), 300),
    "tall 916 x 500, first QR row count": (lambda: _normal(916, 500, 22), 300),
    "tall 550 x 500, the benchmark mixture": (lambda: generate(MixtureConfig(seed=0)).X, 300),
    "square 200 x 200": (lambda: _normal(200, 200, 23, loc=5.0), 150),
    "wide 30 x 200, p = n - 1": (lambda: _normal(30, 200, 24), 29),
    "wide 550 x 2,000": (lambda: _normal(550, 2000, 25), 150),
    "n = 2": (lambda: _normal(2, 7, 26), 1),
    "p = d": (lambda: _normal(40, 12, 27), 12),
    "rank 3, zero singular values": (lambda: _rank_three(60, 20, seed=28), 19),
}


@pytest.mark.parametrize("case", list(_PCA_SHAPES))
def test_pca_is_bitwise_numpys_svd(case):
    # fit_pca makes np.linalg.svd's own LAPACK call, so every byte is its
    make, p = _PCA_SHAPES[case]
    X = make()
    model = fit_pca(X, p)
    loadings, explained, centers = pca_by_numpy_svd(X, p)
    assert model.matrix.flags.c_contiguous
    assert model.matrix.tobytes() == loadings.tobytes()
    assert model.explained_variance.tobytes() == explained.tobytes()
    assert model.centers.tobytes() == centers.tobytes()


def _numpy_svd_raising(*args, **kwargs):
    raise np.linalg.LinAlgError("SVD did not converge")


@pytest.mark.parametrize(
    "info, error, message",
    [
        (1, NumericalError, "^PCA's SVD did not converge$"),
        (-2, RuntimeError, "^dgesdd refused its argument 2$"),
    ],
    ids=["no convergence", "bad argument"],
)
def test_pca_reads_lapack_info(monkeypatch, info, error, message):
    entries = _openblas._numpy_openblas()
    if entries is None:
        pytest.skip("numpy has no bundled OpenBLAS, so fit_pca calls np.linalg.svd")

    def reporting(*args):
        entries.dgesdd(*args)
        args[-1]._obj.value = info  # INFO, passed by reference

    monkeypatch.setattr(_openblas, "_numpy_openblas", lambda: entries._replace(dgesdd=reporting))
    with pytest.raises(error, match=message):
        fit_pca(np.random.default_rng(29).normal(size=(20, 6)), 3)


def test_pca_without_openblas_reads_numpys_linalgerror(monkeypatch):
    monkeypatch.setattr(_openblas, "_numpy_openblas", lambda: None)
    monkeypatch.setattr(np.linalg, "svd", _numpy_svd_raising)
    with pytest.raises(NumericalError, match="^PCA's SVD did not converge$"):
        fit_pca(np.random.default_rng(29).normal(size=(20, 6)), 3)


def test_projection_model_refuses_an_unknown_kind():
    with pytest.raises(ValueError, match=r"^kind must be one of \('rp', 'pca'\), got 'ica'$"):
        ProjectionModel(kind="ica", matrix=np.eye(2), centers=np.zeros(2))


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"matrix": np.ones(3)}, r"^matrix must be 2-D \(p, d\), got shape \(3,\)$"),
        ({"matrix": np.ones((1, 2, 3))}, r"^matrix must be 2-D \(p, d\), got shape \(1, 2, 3\)$"),
        ({"centers": np.zeros(4)}, r"^centers must have shape \(3,\), got \(4,\)$"),
        ({"centers": np.zeros((1, 3))}, r"^centers must have shape \(3,\), got \(1, 3\)$"),
        ({"explained_variance": np.ones(3)}, r"^explained_variance must have shape \(2,\), got \(3,\)$"),
    ],
    ids=["1-D matrix", "3-D matrix", "long centers", "2-D centers", "long variances"],
)
def test_projection_model_refuses_mis_shaped_fields(fields, message):
    # a zero-centers rp model is projected without a centred copy, so a wrong
    # length would no longer meet numpy's broadcasting check in project
    good = {"kind": "rp", "matrix": np.ones((2, 3)), "centers": np.zeros(3)}
    with pytest.raises(ValueError, match=message):
        ProjectionModel(**{**good, **fields})


def test_pca_centers_projected_fitting_data():
    rng = np.random.default_rng(8)
    X = rng.normal(loc=7.0, size=(30, 6))
    model = fit_pca(X, p=4)
    assert np.allclose(project(X, model).mean(axis=0), 0.0, atol=1e-10)


def test_pca_reconstruction_at_full_rank():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(20, 5))
    model = fit_pca(X, p=5)
    back = (X - model.centers) @ model.matrix.T @ model.matrix + model.centers
    assert np.allclose(back, X, atol=1e-8)


def test_project_zero_matrix_rp():
    model = fit_random_projection(d=6, p=3, seed=0)
    assert np.array_equal(project(np.zeros((4, 6)), model), np.zeros((4, 3)))


def test_project_output_shape():
    rng = np.random.default_rng(10)
    model = fit_random_projection(d=500, p=150, seed=0)
    assert project(rng.normal(size=(550, 500)), model).shape == (550, 150)


def test_project_dimension_mismatch():
    model = fit_random_projection(d=6, p=3, seed=0)
    with pytest.raises(ValueError):
        project(np.zeros((4, 7)), model)


def test_project_is_bitwise_the_centred_product():
    # the centred product is the oracle: an rp model (zero centers, -0.0
    # ones too) skips the centred copy on every layout
    rng = np.random.default_rng(14)
    rp = fit_random_projection(d=40, p=7, seed=3)
    negative_zero = ProjectionModel(kind="rp", matrix=rp.matrix, centers=np.full(40, -0.0))
    pca = fit_pca(rng.normal(loc=3.0, size=(60, 40)), p=7)
    base = rng.normal(size=(301, 40))
    base[::5] = -0.0
    inputs = {
        "C": base,
        "F": np.asfortranarray(base),
        "strided columns": np.repeat(base, 2, axis=1)[:, ::2],
        "strided rows": np.repeat(base, 2, axis=0)[::2],
        "one row": base[:1],
        "-0.0 rows": np.full((9, 40), -0.0),
    }
    for model in (rp, negative_zero, pca):
        for name, X in inputs.items():
            expected = (X - model.centers) @ model.matrix.T
            assert project(X, model).tobytes() == expected.tobytes(), (model.kind, name)


def test_project_linear_for_rp():
    rng = np.random.default_rng(11)
    model = fit_random_projection(d=8, p=4, seed=1)
    X, Y = rng.normal(size=(2, 10, 8))
    lhs = project(2.5 * X - 0.75 * Y, model)
    rhs = 2.5 * project(X, model) - 0.75 * project(Y, model)
    assert np.allclose(lhs, rhs, atol=1e-10)


def _orthonormal_model(d, seed):
    q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(d, d)))
    return ProjectionModel(
        kind="rp", matrix=q, centers=np.zeros(d), seed=seed,
        explained_variance=None,
    )


def test_distortion_identity_projection():
    rng = np.random.default_rng(12)
    X = rng.normal(size=(20, 5))
    model = ProjectionModel(
        kind="rp", matrix=np.eye(5), centers=np.zeros(5), seed=0,
        explained_variance=None,
    )
    prof = distortion_profile(X, project(X, model))
    assert prof.epsilon_hat == 0.0
    assert prof.min_ratio == prof.max_ratio == 1.0


def test_distortion_rotation_is_isometry():
    rng = np.random.default_rng(13)
    X = rng.normal(size=(30, 6))
    prof = distortion_profile(X, project(X, _orthonormal_model(6, seed=2)))
    assert prof.epsilon_hat <= 1e-10


def test_distortion_needs_two_rows():
    with pytest.raises(ValueError):
        distortion_profile(np.zeros((1, 3)), np.zeros((1, 2)))


def test_distortion_refuses_a_row_mismatch():
    with pytest.raises(ValueError, match="^row mismatch: X has 3 rows, X_proj has 2$"):
        distortion_profile(np.zeros((3, 2)), np.zeros((2, 2)))


def test_distortion_all_duplicate_rows():
    X = np.ones((5, 3))
    with pytest.raises(DataError):
        distortion_profile(X, X)


def test_distortion_pair_budget():
    rng = np.random.default_rng(14)
    X = rng.normal(size=(40, 6))
    prof = distortion_profile(X, project(X, _orthonormal_model(6, seed=3)), max_pairs=50)
    assert prof.pairs_sampled == 50


def test_distortion_jl_regime():
    # p = 8 ln(100) / 0.5^2 rounds to 148; squared-distance ratios then sit
    # inside [0.5, 1.5] for almost every pair
    rng = np.random.default_rng(15)
    X = rng.normal(size=(100, 500))
    for seed in range(3):
        model = fit_random_projection(d=500, p=148, seed=seed)
        prof = distortion_profile(X, project(X, model), max_pairs=1000, seed=seed)
        assert prof.epsilon_hat <= 0.5


def test_distortion_decays_with_p():
    rng = np.random.default_rng(16)
    X = rng.normal(size=(80, 500))
    medians = []
    for p in (50, 150, 300, 450):
        eps = []
        for seed in range(20):
            model = fit_random_projection(d=500, p=p, seed=seed)
            eps.append(distortion_profile(X, project(X, model), max_pairs=500, seed=seed).epsilon_hat)
        medians.append(np.median(eps))
    assert all(a > b for a, b in zip(medians, medians[1:]))


# The quiet BLAS pool: importing the package gives numpy's OpenBLAS its
# shortest idle timeout, so its worker threads sleep, not spin, after numpy
# loads and after project's and fit_pca's BLAS calls.  The checks use the
# benchmark mixture (550 x 500) at p = 300, where OpenBLAS does split the
# work across threads, and those that need a fresh process run one with the
# default thread count.

_MIXTURE = """
import numpy as np
from hdbwdm import MixtureConfig, fit_pca, fit_random_projection, generate, project

X = generate(MixtureConfig(seed=0)).X
rp = fit_random_projection(X.shape[1], 300, seed=0)
"""

_SPIN = _MIXTURE + """
import ctypes, glob, json, os, time

libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
found = glob.glob(os.path.join(libs, "libscipy_openblas64_*.so"))
threads = ctypes.CDLL(found[0]).scipy_openblas_get_num_threads64_() if found else 0

def spin_after(call):
    # CPU that threads other than this one use in the 0.2 s after the call
    out = call()
    before = time.process_time() - time.thread_time()
    time.sleep(0.2)
    return out, time.process_time() - time.thread_time() - before

Xp, rp_spin = spin_after(lambda: project(X, rp))
pca, pca_spin = spin_after(lambda: fit_pca(X, 300))
_, svals, vt = np.linalg.svd(X - X.mean(axis=0), full_matrices=False)
lead = np.argmax(np.abs(vt[:300]), axis=1)
loadings = vt[:300] * np.sign(vt[np.arange(300), lead])[:, None]
print(json.dumps({
    "threads": threads,
    "spin": [rp_spin, pca_spin],
    "rp_equal": Xp.tobytes() == (X @ rp.matrix.T).tobytes(),
    "pca_equal": pca.matrix.tobytes() == loadings.tobytes()
    and pca.centers.tobytes() == X.mean(axis=0).tobytes()
    and pca.explained_variance.tobytes() == (svals[:300] ** 2 / (X.shape[0] - 1)).tobytes(),
}))
"""


def _run_python(script, timeout=None):
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=timeout
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_blas_park_saves_the_spin_and_moves_no_byte():
    result = json.loads(_run_python(_SPIN))
    if result["threads"] <= 1:
        pytest.skip("numpy has no bundled OpenBLAS or it runs one thread, so no worker spins")
    assert result["rp_equal"] and result["pca_equal"]
    assert max(result["spin"]) < 0.03, result["spin"]


_TWO_THREADS = _MIXTURE + """
import sys, threading

sys.setswitchinterval(1e-4)
reference = project(X, rp).tobytes()
start = threading.Barrier(2)
mismatches = []

def run():
    start.wait()
    for _ in range(200):
        if project(X, rp).tobytes() != reference:
            mismatches.append(1)

workers = [threading.Thread(target=run) for _ in range(2)]
for w in workers:
    w.start()
for w in workers:
    w.join()
print(len(mismatches))
"""


def test_blas_park_waits_while_another_python_thread_runs():
    # parking the pool while another thread is inside BLAS hangs both
    assert _run_python(_TWO_THREADS, timeout=60).split() == ["0"]


_OPENBLAS = """
import ctypes, glob, json, os, time

def openblas():
    import numpy as np
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    found = glob.glob(os.path.join(libs, "libscipy_openblas64_*.so"))
    return ctypes.CDLL(found[0]) if found else None

def other_threads_cpu():
    return time.process_time() - time.thread_time()
"""

_IMPORT_SPIN = {
    # CPU that threads other than the main one use from the process start
    "bare": "import hdbwdm",
    # numpy's own import spins before the package can act; count from its end
    "numpy-first": "import numpy\nstart = other_threads_cpu()\nimport hdbwdm",
    # count from after one project and one fit_pca call
    "calls": _MIXTURE + "project(X, rp)\nfit_pca(X, 300)\nstart = other_threads_cpu()",
}


@pytest.mark.parametrize("case", list(_IMPORT_SPIN))
def test_no_blas_worker_spins_after_the_import(case):
    script = _OPENBLAS + "start = 0.0\n" + _IMPORT_SPIN[case] + """
lib = openblas()
time.sleep(0.2)
print(json.dumps({
    "threads": lib.scipy_openblas_get_num_threads64_() if lib else 0,
    "spin": other_threads_cpu() - start,
}))
"""
    result = json.loads(_run_python(script))
    if result["threads"] <= 1:
        pytest.skip("numpy has no bundled OpenBLAS or it runs one thread, so no worker spins")
    assert result["spin"] < 0.03, result["spin"]


_THREADS_AND_ENVIRONMENT = _OPENBLAS + """
import numpy
lib = openblas()
threads = lib.scipy_openblas_get_num_threads64_() if lib else 0
environ = dict(os.environ)
import hdbwdm
""" + _MIXTURE + """
project(X, rp)
fit_pca(X, 300)
print(json.dumps({
    "threads": [threads, lib.scipy_openblas_get_num_threads64_() if lib else 0],
    "environ_kept": dict(os.environ) == environ,
    "timeout": lib.openblas_thread_timeout() if lib else None,
}))
"""


@pytest.mark.parametrize("preset", [None, "7"])
def test_the_import_keeps_the_thread_count_and_the_environment(monkeypatch, preset):
    if preset is None:
        monkeypatch.delenv("OPENBLAS_THREAD_TIMEOUT", raising=False)
    else:
        monkeypatch.setenv("OPENBLAS_THREAD_TIMEOUT", preset)
    result = json.loads(_run_python(_THREADS_AND_ENVIRONMENT))
    assert result["environ_kept"]
    assert result["threads"][0] == result["threads"][1]
    if result["timeout"] is not None:
        # OpenBLAS reread its settings: the package's minimum, or the user's value
        assert result["timeout"] == int(preset or _openblas._MIN_TIMEOUT)


_IMPORT_BESIDE_BLAS = """
import threading
import numpy as np

a = np.random.default_rng(0).normal(size=(400, 400))
started, stop = threading.Event(), threading.Event()

def run():
    while not stop.is_set():
        np.dot(a, a)
        started.set()

worker = threading.Thread(target=run)
worker.start()
started.wait()
import hdbwdm
stop.set()
worker.join()
print("imported")
"""


def test_the_import_does_not_hang_beside_a_blas_thread():
    # shutting the pool down while another thread is inside BLAS hangs both
    assert _run_python(_IMPORT_BESIDE_BLAS, timeout=60).split() == ["imported"]


@pytest.fixture
def blas_lookup_reset():
    """Forget the cached lookup after the test, so later calls find the real library."""
    yield
    _openblas._numpy_openblas.cache_clear()


@pytest.mark.parametrize("missing", ["library", "symbol"])
def test_blas_park_falls_back_to_nothing(monkeypatch, blas_lookup_reset, missing):
    X = generate(MixtureConfig(seed=0)).X
    rp = fit_random_projection(X.shape[1], 300, seed=0)
    svd_calls = []
    numpy_svd = np.linalg.svd

    def counted_svd(*args, **kwargs):
        svd_calls.append(args[0].shape)
        return numpy_svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    found = _openblas._numpy_openblas() is not None
    before = project(X, rp), fit_pca(X, 300)
    # with numpy's OpenBLAS fit_pca makes the LAPACK call itself
    assert svd_calls == ([] if found else [X.shape])
    _openblas._numpy_openblas.cache_clear()
    if missing == "library":
        monkeypatch.setattr(glob, "glob", lambda pattern: [])
    else:
        monkeypatch.setattr(glob, "glob", lambda pattern: ["libscipy_openblas64_.so"])
        monkeypatch.setattr(ctypes, "PyDLL", lambda path, mode: object())
    monkeypatch.delenv("OPENBLAS_THREAD_TIMEOUT", raising=False)
    environ = dict(os.environ)
    _openblas._quiet_numpy_blas()
    assert _openblas._numpy_openblas() is None
    assert dict(os.environ) == environ
    after = project(X, rp), fit_pca(X, 300)
    assert after[0].tobytes() == before[0].tobytes()
    assert after[1].matrix.tobytes() == before[1].matrix.tobytes()
    # without it, the same bytes come from np.linalg.svd
    assert svd_calls[-1] == X.shape and len(svd_calls) == 1 + (not found)
    assert after[1].explained_variance.tobytes() == before[1].explained_variance.tobytes()
    assert after[1].centers.tobytes() == before[1].centers.tobytes()


_LOOKUP = """
import sys

def shared_objects():
    with open("/proc/self/maps") as maps:
        return {line.split()[-1] for line in maps if ".so" in line}

import numpy
before = shared_objects()
import hdbwdm
from hdbwdm import _openblas
extensions = {getattr(m, "__file__", None) for m in list(sys.modules.values())}
print(_openblas._numpy_openblas.cache_info().currsize, sorted(shared_objects() - before - extensions))
"""


@pytest.mark.skipif(not os.path.isfile("/proc/self/maps"), reason="needs /proc/self/maps")
def test_blas_lookup_loads_no_new_shared_object():
    # after numpy's import the step looks the loaded library up, and every
    # object the package's import maps is one of its extension modules
    assert _run_python(_LOOKUP).split(maxsplit=1) == ["1", "[]\n"]
    # numpy's first import reads the timeout itself, so it needs no lookup
    bare = "import hdbwdm\nprint(hdbwdm._openblas._numpy_openblas.cache_info().currsize)"
    assert _run_python(bare).split() == ["0"]


_PCA_PEAK = _OPENBLAS + """
import numpy as np
from hdbwdm import fit_pca

def peak_rss():
    # VmHWM, this process's own peak: after a fork and exec, ru_maxrss also
    # holds the peak of the parent process (here the test runner)
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) * 1024 for line in status if line.startswith("VmHWM:"))

n, d, p = {n}, {d}, {p}
k = min(n, d)
lib = openblas()
size, info = np.empty(1), ctypes.c_int64()
def i(v):
    return ctypes.byref(ctypes.c_int64(v))
if lib is not None:  # LAPACK's workspace for the SVD, as an LWORK = -1 query reports it
    lib.scipy_dgesdd_64_(b"S", i(n), i(d), None, i(n), None, None, i(n), None, i(k),
                         size.ctypes.data_as(ctypes.c_void_p), i(-1), None, ctypes.byref(info))
fit_pca(np.random.default_rng(1).normal(size=(40, 30)), 5)  # the first call's one-off costs
X = np.random.default_rng(0).standard_normal((n, d))
before = peak_rss()
fit_pca(X, p)
print(json.dumps({{
    "found": lib is not None and info.value == 0,
    "rise": peak_rss() - before,
    "terms": 8 * (n * d + n * k + k * d + int(size[0]) + p * d),
}}))
"""


@pytest.mark.skipif(not os.path.isfile("/proc/self/status"), reason="needs /proc/self/status")
@pytest.mark.parametrize("n, d, p", [(2000, 500, 150), (550, 2000, 150)])
def test_pca_peak_is_a_u_vt_the_workspace_and_the_loadings(n, d, p):
    # fit_pca's rise in the process's peak RSS: A (n x d), U (n x k), Vt (k x d), LAPACK's
    # queried workspace and the p x d loadings, plus 6 MiB for the pages
    # OpenBLAS's own buffers first touch (measured: 1.0-1.9 MiB at 2,000 x 500
    # and 2.6-3.7 MiB at 550 x 2,000, at 1, 2, 4 and 8 threads); numpy's svd
    # also holds the centred C-order copy and second copies of U and Vt,
    # 19 and 23 MiB over the terms
    result = json.loads(_run_python(_PCA_PEAK.format(n=n, d=d, p=p)))
    if not result["found"]:
        pytest.skip("numpy has no bundled OpenBLAS to query the workspace from")
    assert result["rise"] <= result["terms"] + 6 * 2**20, result
