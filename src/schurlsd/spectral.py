"""Spectra, their empirical distribution (KS distance, histogram), and Monte
Carlo moment estimates."""

from __future__ import annotations

import ctypes
import mmap
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .ensemble import ProductSpec, product_realization
from .linkfn import BLOCK_ROWS, involutions, parse_link

__all__ = [
    "MomentEstimate",
    "Spectrum",
    "TrialStats",
    "eigenvalues",
    "histogram",
    "ks_distance",
    "moments_from_spectra",
    "trial_spectra",
    "usable_cpus",
]

#: Monte Carlo moment orders are capped here; higher orders are too noisy at
#: the dimensions this tool runs to be worth reporting.
MAX_MC_ORDER = 8

#: Smallest n at which ``trial_spectra`` spreads trials over threads, kept for
#: memory: two workers took the peak RSS of an n = 400 ``moments`` run from
#: 36.0 to 38.4 MB (one more malloc arena and mapped realization buffer).
#: Solves do not compete: a new pool ran at 0.90-1.00x only while the kernel
#: kept both workers on one CPU, about its first second; pinned workers ran
#: at 2.0x.
MIN_THREADED_N = 550


def _load_dsyevd():
    """LAPACK's ``dsyevd`` from the OpenBLAS numpy's own ``eigvalsh`` links
    (ILP64 ints, the ``scipy_`` symbol prefix), or None on a numpy built
    against another LAPACK."""
    try:
        fn = ctypes.CDLL(np.linalg._umath_linalg.__file__).scipy_dsyevd_64_
    except (AttributeError, OSError):
        return None
    int_p = ctypes.POINTER(ctypes.c_int64)
    # jobz, uplo, n, a, lda, w, work, lwork, iwork, liwork, info, then the
    # hidden lengths of the two character arguments
    fn.argtypes = [ctypes.c_char_p, ctypes.c_char_p, int_p, ctypes.c_void_p, int_p,
                   ctypes.c_void_p, ctypes.c_void_p, int_p, ctypes.c_void_p, int_p, int_p,
                   ctypes.c_size_t, ctypes.c_size_t]
    fn.restype = None
    return fn


_dsyevd = _load_dsyevd()


def eigensolver() -> str:
    """The route ``eigenvalues`` takes on this numpy build."""
    return "numpy.linalg.eigvalsh" if _dsyevd is None else "dsyevd in place"


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues of one n x n matrix, ascending."""

    eigenvalues: np.ndarray
    n: int


@dataclass
class TrialStats:
    """Where one ``trial_spectra`` call spent its time: the worker threads it
    ran, the sizes of the blocks each trial was solved as, and the seconds of
    realization and of eigensolve summed over trials."""

    workers: int = 0
    blocks: list = field(default_factory=list)
    realize_s: float = 0.0
    eigensolve_s: float = 0.0


@dataclass(frozen=True)
class MomentEstimate:
    """Across-trial estimate of one spectral moment.

    ``variance`` is the sample variance across trials (ddof 1) and
    ``stderr`` is sqrt(variance / trials).
    """

    h: int
    mean: float
    variance: float
    stderr: float
    trials: int
    n: int


def _row_blocks(n: int):
    """(lo, m, upper) for each block of ``BLOCK_ROWS`` rows of an n x n
    matrix: rows lo to lo + m - 1, and the indices of the upper triangle of
    the block's diagonal square. The square's upper cells are gathered and
    scattered through those indices, which touch no other cell (a masked
    ufunc on a strided view reads the whole square through its buffers), and
    the block right of the square is upper cells only."""
    whole = np.triu_indices(BLOCK_ROWS)
    for lo in range(0, n, BLOCK_ROWS):
        m = min(BLOCK_ROWS, n - lo)
        yield lo, m, whole if m == BLOCK_ROWS else np.triu_indices(m)


def eigenvalues(a: np.ndarray) -> Spectrum:
    """Spectrum of the symmetric matrix whose upper triangle is that of
    ``a``, such as a scaled product realization: cells (i, j) with j >= i
    are used, and the cells below the diagonal never are: the finite check
    and the in-place solve do not even read them.

    ``a`` must be a writeable n x n float64 array with adjacent columns and
    rows a whole number of entries, at least n, apart: a C array or a square
    block of one. It is the eigensolver's workspace, so its contents are
    lost. The solve is LAPACK's ``dsyevd`` (eigenvalues only, lower triangle)
    with the workspace sizes ``np.linalg.eigvalsh`` uses, called on ``a``
    itself, its row stride as ``lda``. Read as a Fortran array, ``a`` is
    ``a.T``, whose lower triangle is the upper triangle of ``a``, so the
    eigenvalues are bitwise those of ``eigvalsh(a.T)``. A numpy whose LAPACK
    lacks the routine gets ``eigvalsh(a.T)``, which copies ``a`` whole and
    solves the same cells.
    """
    n = a.shape[0] if a.ndim == 2 else 0
    if n < 1 or a.shape != (n, n) or a.dtype != np.float64 or not a.flags.writeable \
            or a.strides[1] != 8 or a.strides[0] < 8 * n or a.strides[0] % 8:
        raise ValueError("eigenvalues needs a writeable n x n float64 array with adjacent "
                         f"columns and rows at least n apart, got {a.dtype} {a.shape}")
    # exactly the cells LAPACK reads
    for lo, m, upper in _row_blocks(n):
        rows = a[lo : lo + m, lo:]
        if not (np.isfinite(rows[:, :m][upper]).all() and np.isfinite(rows[:, m:]).all()):
            raise ValueError("matrix has non-finite entries")
    if _dsyevd is None:
        return Spectrum(eigenvalues=np.linalg.eigvalsh(a.T), n=n)
    w = np.empty(n)
    m = ctypes.c_int64(n)
    lda = ctypes.c_int64(a.strides[0] // 8)
    info = ctypes.c_int64(0)

    def call(work: np.ndarray, lwork: int, iwork: np.ndarray, liwork: int) -> None:
        _dsyevd(b"N", b"L", m, a.ctypes.data, lda, w.ctypes.data, work.ctypes.data,
                ctypes.c_int64(lwork), iwork.ctypes.data, ctypes.c_int64(liwork), info, 1, 1)
        if info.value != 0:
            raise np.linalg.LinAlgError(f"dsyevd failed: info = {info.value}")

    work, iwork = np.empty(1), np.empty(1, dtype=np.int64)
    call(work, -1, iwork, -1)  # workspace query: the optimal sizes land in work and iwork
    lwork, liwork = int(work[0]), int(iwork[0])
    call(np.empty(lwork), lwork, np.empty(liwork, dtype=np.int64), liwork)
    return Spectrum(eigenvalues=w, n=n)


def _shared_involution(spec: ProductSpec) -> str:
    """The involution ("H" before "J") that both factors admit, when n is
    even, else ""."""
    if spec.n % 2:
        return ""
    x, y = (involutions(parse_link(link)) for link in (spec.link_x, spec.link_y))
    return next((s for s in x if s in y), "")


def _split_solve(a: np.ndarray, involution: str) -> np.ndarray:
    """Eigenvalues of the even n x n symmetric matrix whose upper triangle
    is that of ``a`` (as ``eigenvalues`` reads it), which ``involution``
    leaves unchanged, ascending, as those of two n/2 x n/2 blocks.

    With h = n/2, the matrix is [[B, C], [C^T, D]]. Under the half shift H,
    D = B and C is symmetric, so it is B + C on the vectors (x, x) and B - C
    on (x, -x); the lower block is formed as D - C. Under the reversal J,
    D = R B R and M = C R is symmetric (R reverses h entries), so it is B + M
    on (x, R x) and B - M on (x, -R x); the lower block is formed as
    R (B - M) R = D - R C, which has the same eigenvalues. C R and R C are C
    with its columns and its rows reversed. The invariance holds bitwise, as
    cells with equal labels hold equal bits, so the upper triangle of each
    block takes its cells of C as they lie, row by row. Only those upper
    triangles are formed, in place, ``BLOCK_ROWS`` rows at a time, and
    ``eigenvalues`` solves each where it lies: the fold makes no block copy
    and never reads the lower-left quadrant. Each cell it reads enters a
    block's upper triangle, so their finite checks cover it.
    """
    h = a.shape[0] // 2
    top, corner, bottom = a[:h, :h], a[:h, h:], a[h:, h:]
    step = -1 if involution == "J" else 1
    plus, minus = corner[:, ::step], corner[::step]
    for lo, m, upper in _row_blocks(h):
        for block, cells, fold in ((top, plus, np.add), (bottom, minus, np.subtract)):
            square, right = block[lo : lo + m, lo : lo + m], block[lo : lo + m, lo + m :]
            square[upper] = fold(square[upper], cells[lo : lo + m, lo : lo + m][upper])
            fold(right, cells[lo : lo + m, lo + m :], out=right)
    return np.sort(np.concatenate([eigenvalues(top).eigenvalues,
                                   eigenvalues(bottom).eigenvalues]))


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def trial_spectra(spec: ProductSpec, threads: Optional[int] = None,
                  stats: Optional[TrialStats] = None) -> np.ndarray:
    """Spectra of all trials as one C-contiguous (trials, n) float64 array:
    row t holds trial t's eigenvalues, ascending, for any thread count.

    Below ``MIN_THREADED_N`` every trial runs on the calling thread. From it
    on, ``min(threads, trials)`` plain ``threading.Thread`` workers take
    whole trials, each the next index from one shared iterator under a lock;
    ``threads`` is a cap that defaults to ``usable_cpus()``. Once a trial
    raises, no worker takes another, and the first error is raised here
    after every worker has been joined.

    Each worker fills one n x n buffer, an anonymous memory map reused for
    all its trials and unmapped when the worker returns, so nothing of it
    stays resident after the call. It solves the buffer on the single BLAS
    thread the package pins at import, so the spectra do not depend on the
    number of workers. The buffer is the only large array of a trial: the
    realization works on row blocks, multiplies Y in from its view and draws
    a wigner factor in small chunks, and the solve overwrites the buffer, so
    LAPACK makes no n x n copy of its own. Realization, finite check, fold
    and solve all keep to the upper triangle, so the buffer's pages left of
    each row block's diagonal square (212 of 1954 at n = 1000, 0.87 MB) are
    never touched and never become resident.

    When n is even and both links admit the same index involution
    (``linkfn.involutions``), every realization is unchanged by it, so each
    trial is solved as two n/2 x n/2 blocks folded in the buffer
    (``_split_solve``): about a quarter of the arithmetic of a dense solve.
    Those rows agree with ``eigenvalues`` of the realization to rounding;
    every other product's rows are bitwise those of ``eigenvalues``.
    ``stats``, when given, receives the workers used, the block sizes each
    trial was solved as and the per-phase times.
    """
    spectra = np.empty((spec.trials, spec.n))
    times = np.empty((spec.trials, 2))
    involution = _shared_involution(spec)
    trials = iter(range(spec.trials))
    lock = threading.Lock()
    errors: list = []

    def work() -> None:
        # Mapped, not taken from malloc, so the buffer is unmapped when the
        # worker returns instead of staying in a resident arena heap.
        buf = np.frombuffer(mmap.mmap(-1, 8 * spec.n * spec.n),
                            dtype=np.float64).reshape(spec.n, spec.n)
        while True:
            with lock:
                t = None if errors else next(trials, None)
            if t is None:
                return
            try:
                start = time.perf_counter()
                a = product_realization(spec, t, out=buf)
                solve = time.perf_counter()
                spectra[t] = _split_solve(a, involution) if involution \
                    else eigenvalues(a).eigenvalues
                times[t] = solve - start, time.perf_counter() - solve
            except BaseException as exc:
                with lock:
                    errors.append(exc)
                return

    workers = 1
    if spec.n >= MIN_THREADED_N:
        workers = max(1, min(usable_cpus() if threads is None else threads, spec.trials))
    if workers == 1:
        work()
    else:
        pool = [threading.Thread(target=work) for _ in range(workers)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
    if errors:
        # Emptied before the raise: a list that kept an error would close a
        # cycle through its traceback's frames and hold the buffers.
        del errors[1:]
        raise errors.pop()
    if stats is not None:
        stats.workers = workers
        stats.blocks = [spec.n // 2] * 2 if involution else [spec.n]
        stats.realize_s, stats.eigensolve_s = times.sum(axis=0).tolist()
    return spectra


def moments_from_spectra(spectra: np.ndarray, h_max: int) -> list[MomentEstimate]:
    """Across-trial moment estimates for h = 1..h_max from a (trials, n)
    array of spectra, one trial per row.

    A trial's h-th moment is (1/n) sum of its eigenvalues' h-th powers.
    Aggregation is a fixed left-to-right sum in trial order, so results are
    bitwise identical for any thread count used to produce the spectra.
    """
    if spectra.ndim != 2 or spectra.shape[0] < 2:
        raise ValueError("moment estimation needs a (trials, n) array with >= 2 trials "
                         f"for an across-trial variance, got shape {spectra.shape}")
    if not 1 <= h_max <= MAX_MC_ORDER:
        raise ValueError(f"h_max must be in 1..{MAX_MC_ORDER}, got {h_max}")
    trials, n = spectra.shape
    per_trial = [
        [float(np.mean(row**h)) for h in range(1, h_max + 1)] for row in spectra
    ]
    out = []
    for h in range(1, h_max + 1):
        mean = 0.0
        for row in per_trial:
            mean += row[h - 1]
        mean /= trials
        var = 0.0
        for row in per_trial:
            var += (row[h - 1] - mean) ** 2
        var /= trials - 1
        out.append(
            MomentEstimate(
                h=h,
                mean=mean,
                variance=var,
                stderr=(var / trials) ** 0.5,
                trials=trials,
                n=n,
            )
        )
    return out


def ks_distance(samples: np.ndarray, ref_cdf: Callable) -> float:
    """sup_x |F - F_ref|, where F is the empirical distribution of all of
    ``samples`` (any shape, any order) read as a right-continuous step CDF,
    over both one-sided gaps at the sample points."""
    pts = np.sort(np.asarray(samples, dtype=float), axis=None)
    m = pts.size
    if m == 0:
        raise ValueError("KS distance needs at least one sample")
    ref = np.asarray(ref_cdf(pts), dtype=float)
    upper = np.max(np.arange(1, m + 1) / m - ref)
    lower = np.max(ref - np.arange(0, m) / m)
    return float(max(upper, lower))


def histogram(samples: np.ndarray, bins: int, lo: float,
              hi: float) -> tuple[np.ndarray, np.ndarray]:
    """Density-normalized histogram of all of ``samples`` on [lo, hi]: (bin
    centers, densities).

    Density integrates to the fraction of points inside the window, so the
    normalizer is the total point count, not the in-window count.
    """
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    counts, edges = np.histogram(samples, bins=bins, range=(lo, hi))
    width = (hi - lo) / bins
    centers = (edges[:-1] + edges[1:]) / 2.0
    return centers, counts / (np.size(samples) * width)
