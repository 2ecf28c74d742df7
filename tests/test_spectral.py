"""Tests for spectra, moment estimation, KS distance, and histograms."""

import mmap
import os
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

import schurlsd.spectral as spectral
from schurlsd.ensemble import ProductSpec, product_realization
from schurlsd.linkfn import value_table
from schurlsd.oracle import semicircle_cdf
from schurlsd.spectral import (
    TrialStats,
    eigenvalues,
    histogram,
    ks_distance,
    moments_from_spectra,
    trial_spectra,
    usable_cpus,
)


def _diag(values):
    return np.diag(np.asarray(values, dtype=float))


def moment_from_trace(a, h):
    """(1/n) trace(A^h) by repeated multiplication: the reference route that
    never touches the eigensolver."""
    power = a
    for _ in range(h - 1):
        power = power @ a
    return float(np.trace(power)) / a.shape[0]


def _spec(**overrides):
    base = dict(
        link_x="toeplitz",
        link_y="hankel",
        dist_x="rademacher",
        dist_y="rademacher",
        n=30,
        master_seed=11,
        trials=4,
    )
    base.update(overrides)
    return ProductSpec(**base)


# --- eigenvalues and residuals -----------------------------------------------------


def test_eigenvalues_of_diagonal_matrix():
    s = eigenvalues(_diag([3.0, 1.0, 2.0]))
    assert np.allclose(s.eigenvalues, [1.0, 2.0, 3.0])
    assert s.n == 3


def test_eigenvalues_rejects_non_finite():
    bad = _diag([1.0, np.nan])
    with pytest.raises(ValueError, match="non-finite"):
        eigenvalues(bad)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("cell", [0, 5 * 12 + 7, 12 * 12 - 1])
def test_eigenvalues_rejects_non_finite_in_any_cell(value, cell):
    bad = np.eye(12)
    bad.flat[cell] = value
    with pytest.raises(ValueError, match="non-finite"):
        eigenvalues(bad)


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


# (link_x, link_y): wigner, line links, and links composed on each
SOLVE_PRODUCTS = [("wigner", "toeplitz"), ("hankel", "revcirc"),
                  ("square(toeplitz)", "coprimepower(2,3,wigner)")]
# every input law, in both roles
SOLVE_LAWS = [("rademacher", "gaussian"), ("gaussian", "uniform"), ("uniform", "rademacher")]


@pytest.mark.parametrize("fallback", [False, True], ids=["in_place", "fallback"])
@pytest.mark.parametrize("laws", SOLVE_LAWS, ids="*".join)
@pytest.mark.parametrize("links", SOLVE_PRODUCTS, ids="*".join)
@pytest.mark.parametrize("n", [1, 2, 7, 64, 550])
def test_eigenvalues_are_bitwise_those_of_eigvalsh(monkeypatch, n, links, laws, fallback):
    if fallback:
        monkeypatch.setattr(spectral, "_dsyevd", None)
        assert spectral.eigensolver() == "numpy.linalg.eigvalsh"
    spec = _spec(link_x=links[0], link_y=links[1], dist_x=laws[0], dist_y=laws[1], n=n)
    a = product_realization(spec, trial=1)
    expected = np.linalg.eigvalsh(a.T)  # the upper triangle of ``a``, read as lower
    s = eigenvalues(a)
    assert s.n == n
    assert s.eigenvalues.tobytes() == expected.tobytes()


def test_eigensolver_runs_in_place_on_numpy_with_ilp64_scipy_openblas():
    lapack = np.show_config(mode="dicts")["Build Dependencies"]["lapack"]
    if lapack.get("name") != "scipy-openblas" or \
            "USE64BITINT" not in lapack.get("openblas configuration", ""):
        pytest.skip("numpy is not built on the ILP64 scipy-openblas")
    assert spectral.eigensolver() == "dsyevd in place"
    a = np.random.default_rng(5).standard_normal((6, 6))
    a += a.T
    before = a.copy()
    eigenvalues(a)
    assert not np.array_equal(a, before)  # LAPACK worked in a


def _read_only(a):
    a.setflags(write=False)
    return a


@pytest.mark.parametrize(
    "bad",
    [np.zeros(3), np.zeros((3, 4)), np.zeros((0, 0)), np.eye(3, dtype=np.float32),
     np.eye(3, dtype=np.int64), np.eye(6)[::2, ::2], np.asfortranarray(np.arange(9.0).reshape(3, 3)),
     np.eye(3)[::-1], np.eye(3)[:, ::-1],
     np.lib.stride_tricks.as_strided(np.zeros(5), (3, 3), (8, 8)), _read_only(np.eye(3))],
    ids=["1d", "not_square", "empty", "float32", "int64", "strided", "fortran",
         "reversed_rows", "reversed_columns", "overlapping_rows", "read_only"],
)
def test_eigenvalues_reject_what_lapack_cannot_overwrite(bad):
    with pytest.raises(ValueError, match="writeable n x n float64 array with adjacent columns"):
        eigenvalues(bad)


@pytest.mark.parametrize("corner", ["top_left", "bottom_right"])
@pytest.mark.parametrize("m", [1, 5, 64, 300])
def test_eigenvalues_of_a_square_block_are_bitwise_those_of_its_copy(m, corner):
    # a block of a C array has adjacent columns and rows the big array's
    # row apart; it is solved where it lies, with that row stride as lda
    big = np.random.default_rng(m).standard_normal((m + 37, m + 37))
    big += big.T
    rows = slice(0, m) if corner == "top_left" else slice(-m, None)
    block = big[rows, rows]
    expected = np.linalg.eigvalsh(block.copy())
    before = big.copy()
    s = eigenvalues(block)
    assert s.n == m
    assert s.eigenvalues.tobytes() == expected.tobytes()
    outside = np.ones(big.shape, dtype=bool)
    outside[rows, rows] = False
    assert np.array_equal(big[outside], before[outside])  # the solve kept to its block


def test_eigenvalues_raise_linalg_error_when_lapack_fails(monkeypatch):
    if spectral._dsyevd is None:
        pytest.skip("the in-place route is not available")
    real = spectral._dsyevd

    def failing(*args):
        real(*args)
        if args[7].value != -1:  # let the workspace query through
            args[10].value = 2

    monkeypatch.setattr(spectral, "_dsyevd", failing)
    with pytest.raises(np.linalg.LinAlgError, match="info = 2"):
        eigenvalues(np.eye(4))


def test_eigenvalues_make_no_n_by_n_mask():
    # an n x n bool mask alone would take 0.95 MB at n = 1000
    a = np.random.default_rng(3).standard_normal((1000, 1000))
    a += a.T
    assert _traced_peak(lambda: eigenvalues(a)) < 0.5 * 2**20


def _recording_buffers(monkeypatch) -> list:
    """Log the size of every memory map made while the patch holds, with a
    weak reference to the map: ``trial_spectra`` maps its trial buffers."""
    maps = []
    real = mmap.mmap

    def recording_mmap(*args, **kwargs):
        mapped = real(*args, **kwargs)
        maps.append((len(mapped), weakref.ref(mapped)))
        return mapped

    monkeypatch.setattr(mmap, "mmap", recording_mmap)
    return maps


def _one_unmapped_buffer_per_worker(maps, workers: int, n: int) -> bool:
    return [size for size, _ in maps] == [8 * n * n] * workers and \
        all(ref() is None for _, ref in maps)


def test_trial_spectra_hold_one_buffer_and_no_n_by_n_table(monkeypatch):
    # The realization buffer, 8 MB at n = 1000, is a memory map, which
    # tracemalloc does not see, and it is gone when the call returns. What
    # numpy allocates beside it stays small: line factors are views of 2n - 1
    # values, the gathers and the finite check work on 64-row blocks or
    # reductions, and LAPACK solves the buffer in place. Outside numpy's
    # allocator, ``eigvalsh`` would copy the matrix, which tracemalloc cannot
    # see either.
    spec = _spec(n=1000, trials=2)
    maps = _recording_buffers(monkeypatch)
    value_table.cache_clear()
    try:
        peak = _traced_peak(lambda: trial_spectra(spec, threads=1))
    finally:
        value_table.cache_clear()
    assert peak < 2 * 2**20
    assert _one_unmapped_buffer_per_worker(maps, 1, spec.n)


@pytest.mark.parametrize("links", [("symcirc", "revcirc"), ("toeplitz", "symcirc")],
                         ids="*".join)
def test_split_trial_spectra_hold_one_buffer_and_no_n_by_n_table(monkeypatch, links):
    # the two half blocks are folded and solved inside the one buffer, so a
    # split trial allocates no block copy beside it
    spec = _spec(link_x=links[0], link_y=links[1], n=1000, trials=2)
    maps = _recording_buffers(monkeypatch)
    value_table.cache_clear()
    stats = TrialStats()
    try:
        peak = _traced_peak(lambda: trial_spectra(spec, threads=1, stats=stats))
    finally:
        value_table.cache_clear()
    assert stats.blocks == [500, 500]
    assert peak < 2 * 2**20
    assert _one_unmapped_buffer_per_worker(maps, 1, spec.n)


def test_trial_spectra_build_no_code_table():
    # line factors read k off their line of codes, so the pooled Monte Carlo
    # path leaves value_table's cache empty
    spec = _spec(n=spectral.MIN_THREADED_N, trials=2)
    value_table.cache_clear()
    stats = TrialStats()
    trial_spectra(spec, threads=2, stats=stats)
    assert stats.workers == 2
    assert value_table.cache_info().currsize == 0


# --- trials solved as two half blocks ---------------------------------------------------

#: The Table 2 products whose factors share an index involution: the half
#: shift for the first three, the reversal for toeplitz*symcirc.
SPLIT_PRODUCTS = [("symcirc", "revcirc"), ("symcirc", "dsymhankel"),
                  ("revcirc", "dsymhankel"), ("toeplitz", "symcirc")]


@pytest.mark.parametrize("laws", SOLVE_LAWS, ids="*".join)
@pytest.mark.parametrize("links", SPLIT_PRODUCTS, ids="*".join)
@pytest.mark.parametrize("n", [8, 64, 550])
def test_split_trial_spectra_agree_with_the_dense_solve(n, links, laws):
    spec = _spec(link_x=links[0], link_y=links[1], dist_x=laws[0], dist_y=laws[1], n=n,
                 trials=2)
    stats = TrialStats()
    spectra = trial_spectra(spec, threads=1, stats=stats)
    assert stats.blocks == [n // 2, n // 2]
    for t, row in enumerate(spectra):
        assert np.all(np.diff(row) >= 0)
        dense = eigenvalues(product_realization(spec, t)).eigenvalues
        assert np.max(np.abs(row - dense)) <= 1e-12


def test_split_trial_spectra_without_the_in_place_solver(monkeypatch):
    spec = _spec(link_x="toeplitz", link_y="symcirc", n=64, trials=2)
    in_place = trial_spectra(spec)
    monkeypatch.setattr(spectral, "_dsyevd", None)
    assert np.max(np.abs(trial_spectra(spec) - in_place)) <= 1e-12


@pytest.mark.parametrize("links,blocks", [
    *((links, [5, 5]) for links in SPLIT_PRODUCTS),
    (("symcirc", "symcirc"), [5, 5]), (("toeplitz", "toeplitz"), [5, 5]),
    (("square(toeplitz)", "symcirc"), [5, 5]),
    (("toeplitz", "revcirc"), [10]), (("toeplitz", "dsymhankel"), [10]),
    (("hankel", "revcirc"), [10]), (("wigner", "symcirc"), [10]),
], ids=lambda v: "*".join(v) if isinstance(v, tuple) else "+".join(map(str, v)))
def test_trials_split_when_both_links_share_an_involution(links, blocks):
    stats = TrialStats()
    trial_spectra(_spec(link_x=links[0], link_y=links[1], n=10, trials=2), stats=stats)
    assert stats.blocks == blocks


@pytest.mark.parametrize("links,shapes", [
    *((links, [(20, 20)] * 2) for links in SPLIT_PRODUCTS),
    (("toeplitz", "hankel"), [(40, 40)]),
], ids=lambda v: "*".join(v) if isinstance(v[0], str) else f"{len(v)}_blocks")
def test_every_solve_of_a_trial_goes_through_eigenvalues(monkeypatch, links, shapes):
    # a split trial is two calls on its n/2 x n/2 blocks, so a caller that
    # wraps ``eigenvalues`` (the benchmark tracer) sees every solve
    solved = []
    real = spectral.eigenvalues

    def counted(a):
        solved.append(a.shape)
        return real(a)

    monkeypatch.setattr(spectral, "eigenvalues", counted)
    trial_spectra(_spec(link_x=links[0], link_y=links[1], n=40, trials=3), threads=1)
    assert solved == shapes * 3


#: A cell of each region the fold of a 12 x 12 matrix (h = 6) reads: the upper
#: triangles of the two diagonal blocks and of the top-right block C, and,
#: under J, C's lower triangle too (under H, C is symmetric, and both blocks
#: take their cells of C from its upper triangle).
FOLD_READS = {"top": (1, 4), "top_diagonal": (0, 0), "corner_diagonal": (2, 8),
              "corner_upper": (1, 9), "bottom": (7, 10), "bottom_diagonal": (11, 11)}
FOLD_READS_UNDER_J = {"corner_lower": (4, 7), "corner_bottom_left": (5, 6)}


@pytest.mark.parametrize("involution,cell", [
    *((inv, cell) for inv in "HJ" for cell in FOLD_READS.values()),
    *(("J", cell) for cell in FOLD_READS_UNDER_J.values()),
], ids=[*(f"{inv}-{name}" for inv in "HJ" for name in FOLD_READS),
        *(f"J-{name}" for name in FOLD_READS_UNDER_J)])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_split_solve_keeps_the_finite_check(involution, cell, value):
    # the fold adds each cell of C it reads into a block's upper triangle,
    # whose finite check ``eigenvalues`` runs, so no bad entry gets past it
    a = np.eye(12)
    a[cell] = value
    with pytest.raises(ValueError, match="non-finite"):
        spectral._split_solve(a, involution)


@pytest.mark.parametrize("links,involution", [(("symcirc", "revcirc"), "H"),
                                              (("toeplitz", "symcirc"), "J")], ids=["H", "J"])
@pytest.mark.parametrize("n", [12, 150])
def test_split_solve_reads_only_the_upper_triangle(links, involution, n):
    # NaN below the diagonal, the lower-left block included, is never read:
    # the row is bitwise that of the matrix symmetrized from its upper triangle
    a = product_realization(_spec(link_x=links[0], link_y=links[1], n=n), 0)
    full = np.triu(a) + np.triu(a, 1).T
    a[np.tril_indices(n, -1)] = np.nan
    assert spectral._split_solve(a, involution).tobytes() == \
        spectral._split_solve(full, involution).tobytes()


@pytest.mark.parametrize("links", [("toeplitz", "hankel"), ("wigner", "toeplitz"),
                                   ("wigner", "wigner"), *SPLIT_PRODUCTS], ids="*".join)
def test_a_trial_never_touches_the_cells_left_of_the_diagonal_squares(monkeypatch, links):
    # Realization, finite check, fold and solve all keep to the upper
    # triangle, so in a NaN-filled buffer the cells left of each row block's
    # diagonal square stay NaN, and the spectra are bitwise those of a zeroed
    # buffer. n = 150 puts the split half, 75, inside a row block.
    n, maps, real = 150, [], mmap.mmap

    def nan_filled(*args, **kwargs):
        mapped = real(*args, **kwargs)
        mapped.write(np.full(len(mapped) // 8, np.nan).tobytes())
        maps.append(mapped)
        return mapped

    spec = _spec(link_x=links[0], link_y=links[1], n=n, trials=2)
    zeroed = trial_spectra(spec, threads=1)
    monkeypatch.setattr(mmap, "mmap", nan_filled)
    assert trial_spectra(spec, threads=1).tobytes() == zeroed.tobytes()
    (buf,) = maps
    i, j = np.indices((n, n))
    left = j < i // spectral.BLOCK_ROWS * spectral.BLOCK_ROWS
    assert np.isnan(np.frombuffer(buf).reshape(n, n)[left]).all()


@pytest.mark.parametrize("links", SPLIT_PRODUCTS, ids="*".join)
@pytest.mark.parametrize("n", [7, 31])
def test_odd_n_trial_spectra_stay_bitwise_dense(n, links):
    spec = _spec(link_x=links[0], link_y=links[1], n=n, trials=2)
    stats = TrialStats()
    spectra = trial_spectra(spec, stats=stats)
    assert stats.blocks == [n]
    for t, row in enumerate(spectra):
        assert row.tobytes() == eigenvalues(product_realization(spec, t)).eigenvalues.tobytes()


# --- moments: two independent routes ---------------------------------------------------


def _spectrum_moments(s, h_max):
    """Moments 1..h_max of one spectrum, read off a two-trial estimate of it."""
    return [m.mean for m in moments_from_spectra(np.stack([s.eigenvalues] * 2), h_max)]


def test_moment_hand_values():
    s = eigenvalues(_diag([1.0, 2.0, 3.0]))
    assert _spectrum_moments(s, 2) == pytest.approx([2.0, 14.0 / 3.0])
    m = _diag([1.0, 2.0, 3.0])
    assert moment_from_trace(m, 2) == pytest.approx(14.0 / 3.0)


@pytest.mark.parametrize("kind_pair", [("toeplitz", "hankel"), ("wigner", "symcirc")])
@pytest.mark.parametrize("n", [10, 30, 50])
def test_trace_and_spectrum_routes_agree(kind_pair, n):
    x, y = kind_pair
    m = product_realization(_spec(link_x=x, link_y=y, n=n), trial=0)
    m = np.triu(m) + np.triu(m, 1).T  # the realization is its upper triangle
    for h, via_spectrum in enumerate(_spectrum_moments(eigenvalues(m.copy()), 6), start=1):
        via_trace = moment_from_trace(m, h)
        scale = max(abs(via_trace), 1.0)
        assert abs(via_spectrum - via_trace) <= 1e-8 * scale


def test_moment_order_validation():
    s = eigenvalues(_diag([1.0, 2.0]))
    with pytest.raises(ValueError):
        moments_from_spectra(np.stack([s.eigenvalues] * 2), 0)


# --- across-trial aggregation -----------------------------------------------------------


def test_moments_from_spectra_mean_variance_stderr():
    spectra = np.array([[1.0, 1.0], [3.0, 3.0]])  # one trial per row
    (est,) = moments_from_spectra(spectra, 1)
    assert est.mean == pytest.approx(2.0)
    assert est.variance == pytest.approx(2.0)  # ddof-1 sample variance of {1, 3}
    assert est.stderr == pytest.approx(1.0)
    assert est.trials == 2


@pytest.mark.parametrize("shape", [(1, 3), (3,), (2, 2, 2)])
def test_moments_from_spectra_needs_two_trials_by_n(shape):
    with pytest.raises(ValueError, match=r"\(trials, n\) array with >= 2 trials"):
        moments_from_spectra(np.ones(shape), 2)


@pytest.fixture
def pooled(monkeypatch):
    """Spread trials over threads at any n, so that the small dimensions of
    these tests exercise the worker pool."""
    monkeypatch.setattr(spectral, "MIN_THREADED_N", 1)


def _recording_pool(monkeypatch) -> list:
    """Log the worker threads each ``trial_spectra`` call starts, one count
    per call: a call starts all of its workers before it joins any."""
    pools = []
    joined = [True]

    class RecordingThread(threading.Thread):
        def start(self):
            if joined[0]:
                pools.append(0)
                joined[0] = False
            pools[-1] += 1
            super().start()

        def join(self, timeout=None):
            joined[0] = True
            super().join(timeout)

    monkeypatch.setattr(threading, "Thread", RecordingThread)
    return pools


def test_mc_moments_deterministic_across_threads(pooled):
    spec = _spec(trials=6)
    one = moments_from_spectra(trial_spectra(spec, threads=1), 6)
    three = moments_from_spectra(trial_spectra(spec, threads=3), 6)
    assert [(m.mean, m.variance) for m in one] == [(m.mean, m.variance) for m in three]
    again = moments_from_spectra(trial_spectra(spec, threads=1), 6)
    assert [(m.mean, m.variance) for m in one] == [(m.mean, m.variance) for m in again]


@pytest.mark.parametrize("threads", [2, 3])
def test_trial_spectra_order_independent_of_threads(pooled, threads):
    spec = _spec(trials=5)
    seq = trial_spectra(spec, threads=1)
    assert seq.tobytes() == trial_spectra(spec, threads=threads).tobytes()


@pytest.mark.parametrize("links", SPLIT_PRODUCTS, ids="*".join)
def test_split_trial_spectra_do_not_depend_on_threads(pooled, links):
    spec = _spec(link_x=links[0], link_y=links[1], n=64, trials=5)
    assert trial_spectra(spec, threads=1).tobytes() == trial_spectra(spec, threads=2).tobytes()


def test_trial_spectra_are_one_trials_by_n_array():
    # row t is trial t's spectrum, ascending, as ``eigenvalues`` solves it
    spec = _spec(trials=3, n=20)
    spectra = trial_spectra(spec)
    assert spectra.shape == (3, 20) and spectra.dtype == np.float64
    assert spectra.flags.c_contiguous
    for t, row in enumerate(spectra):
        expected = eigenvalues(product_realization(spec, t)).eigenvalues
        assert row.tobytes() == expected.tobytes()
        assert np.all(np.diff(row) >= 0)


def test_parallel_trials_never_share_a_realization_buffer(pooled):
    """More workers than cores, switching threads as often as the interpreter
    allows: a buffer written by two trials at once would change a spectrum."""
    spec = _spec(link_x="wigner", dist_x="gaussian", n=150, trials=8)
    seq = trial_spectra(spec, threads=1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        par = trial_spectra(spec, threads=4)
    finally:
        sys.setswitchinterval(interval)
    assert seq.tobytes() == par.tobytes()


def test_trial_spectra_default_to_usable_cpus(pooled, monkeypatch):
    spec = _spec(trials=3)
    seq = trial_spectra(spec, threads=1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    assert usable_cpus() == 3
    pools = _recording_pool(monkeypatch)
    stats = TrialStats()
    assert seq.tobytes() == trial_spectra(spec, stats=stats).tobytes()
    assert pools == [3]
    assert stats.workers == 3


def test_trial_spectra_run_serially_below_the_crossover(monkeypatch):
    spec = _spec(trials=4)
    assert spec.n < spectral.MIN_THREADED_N
    pools = _recording_pool(monkeypatch)
    stats = TrialStats()
    serial = trial_spectra(spec, threads=4, stats=stats)
    assert pools == [] and stats.workers == 1
    assert stats.realize_s > 0 and stats.eigensolve_s > 0
    monkeypatch.setattr(spectral, "MIN_THREADED_N", spec.n)
    threaded = trial_spectra(spec, threads=4)
    assert pools == [4]
    assert serial.tobytes() == threaded.tobytes()


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_each_worker_maps_one_buffer_and_unmaps_it(pooled, monkeypatch, threads):
    spec = _spec(trials=5)
    maps = _recording_buffers(monkeypatch)
    stats = TrialStats()
    trial_spectra(spec, threads=threads, stats=stats)
    assert stats.workers == threads
    assert _one_unmapped_buffer_per_worker(maps, threads, spec.n)


def test_a_failing_trial_stops_the_other_workers(pooled, monkeypatch):
    """A NaN planted in trial 0 makes its solve raise. The worker on trial 1
    finishes it only after the failing worker has returned, then takes no
    further trial, and the error reaches the caller after the join."""
    real = spectral.product_realization
    taken = []
    failing = []
    first_taken, second_taken = threading.Event(), threading.Event()

    def planting(spec, trial, out):
        taken.append(trial)
        if trial == 0:
            failing.append(threading.current_thread())
            first_taken.set()
            second_taken.wait(10)  # so that the other worker holds trial 1
            a = real(spec, trial, out=out)
            a[1, 2] = a[2, 1] = np.nan
            return a
        if trial == 1:
            second_taken.set()
            first_taken.wait(10)
            failing[0].join(10)
        return real(spec, trial, out=out)

    monkeypatch.setattr(spectral, "product_realization", planting)
    with pytest.raises(ValueError, match="non-finite"):
        trial_spectra(_spec(trials=6), threads=2)
    assert sorted(taken) == [0, 1]


def test_usable_cpus_falls_back_to_cpu_count(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    assert usable_cpus() == 5
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert usable_cpus() == 1


# --- empirical distribution: KS distance -----------------------------------------------


def test_esd_is_a_cdf():
    # the pooled points, in any order, read by ks_distance as a step CDF
    # rising from 0 to 1
    points = np.array([0.5, -1.0, 2.0, 0.5])
    assert ks_distance(points, lambda x: np.zeros_like(x)) == 1.0
    assert ks_distance(points, lambda x: np.ones_like(x)) == 1.0


def test_esd_hand_values():
    # against the uniform CDF x / 3 on [0, 3] the step CDF at 1, 2, 3 is
    # 1/3 below it just left of each jump and equal to it at each jump
    assert ks_distance([3.0, 1.0, 2.0], lambda x: x / 3.0) == pytest.approx(1 / 3)


def test_ks_distance_does_not_depend_on_sample_order():
    spectra = trial_spectra(_spec(trials=3, n=20))
    shuffled = np.random.default_rng(7).permutation(spectra.ravel())
    assert ks_distance(shuffled, semicircle_cdf) == ks_distance(spectra, semicircle_cdf)
    assert ks_distance(shuffled[::-1], semicircle_cdf) == ks_distance(spectra, semicircle_cdf)


@pytest.mark.parametrize("empty", [[], np.empty((0, 5)), np.empty((3, 0))])
def test_esd_rejects_empty(empty):
    with pytest.raises(ValueError, match="at least one sample"):
        ks_distance(empty, semicircle_cdf)


def test_ks_point_mass_against_semicircle():
    # a single atom at 0: the ESD jumps 0 -> 1 where the semicircle CDF is 1/2
    assert ks_distance([0.0], semicircle_cdf) == pytest.approx(0.5)


def test_ks_against_itself_is_small():
    # sampling the reference law's quantiles gives KS ~ 1/(2m)
    m = 1000
    qs = (np.arange(m) + 0.5) / m
    xs = np.linspace(-2, 2, 400001)
    cdf = semicircle_cdf(xs)
    points = np.interp(qs, cdf, xs)
    assert ks_distance(points, semicircle_cdf) <= 1.0 / m


def test_ks_uses_both_sides_of_each_jump():
    # two atoms at +/-2: ESD is 1/2 on (-2, 2) but 0/1 outside the support gap
    assert ks_distance([-2.0, 2.0], semicircle_cdf) == pytest.approx(0.5)


# --- histogram ---------------------------------------------------------------------------


def test_histogram_density_hand_value():
    centers, density = histogram(np.array([0.75, 0.25]), bins=2, lo=0.0, hi=1.0)
    assert np.allclose(centers, [0.25, 0.75])
    assert np.allclose(density, [1.0, 1.0])


def test_histogram_integrates_to_in_window_fraction():
    # a (trials, n) array counts as its pooled points
    samples = np.array([[0.1, 0.9], [-10.0, 0.2]])
    centers, density = histogram(samples, bins=4, lo=0.0, hi=1.0)
    width = 0.25
    assert density.sum() * width == pytest.approx(3 / 4)


def test_histogram_validation():
    samples = np.array([0.0])
    with pytest.raises(ValueError):
        histogram(samples, bins=0, lo=0.0, hi=1.0)
    with pytest.raises(ValueError):
        histogram(samples, bins=2, lo=1.0, hi=1.0)
