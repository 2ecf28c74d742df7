"""Seeded realizations of patterned matrices and their entrywise products.

Realizations are plain float64 arrays: ``product_realization`` returns the
Schur product of one trial's two patterned factors, scaled by n^(-1/2), which
is what the eigensolver takes. The product is symmetric, and its upper
triangle (cells (i, j) with j >= i) is the matrix: cells below the diagonal
are unspecified, as ``spectral.eigenvalues`` reads only the upper triangle.

Determinism contract: a realization is a pure function of (link, input
distribution, n, seed). One value is drawn per distinct link label, in
ascending canonical label order, from a PCG64 generator; per-trial seeds are
derived from the master seed with the splitmix-style mixer below, whose
constants are part of the external interface.

``numpy.random`` is imported on the first realization, with OpenSSL's hash
module held off (``_pcg64``): nothing here hashes, and OpenSSL's libcrypto
would add about 3 MB to a run's peak resident memory.
"""

from __future__ import annotations

import math
import sys
import threading
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .linkfn import BLOCK_ROWS, line_values, parse_link, table_base

__all__ = [
    "INPUT_DISTRIBUTIONS",
    "ProductSpec",
    "child_seed",
    "product_realization",
    "sample_inputs",
    "splitmix64",
    "stream_seed",
]

#: Supported mean-0 variance-1 input laws.
INPUT_DISTRIBUTIONS = ("rademacher", "uniform", "gaussian")

_UNIFORM_HALF_WIDTH = math.sqrt(3.0)  # uniform on [-sqrt(3), sqrt(3)] has variance 1

# splitmix64 avalanche constants; fixed, public, and load-bearing for
# reproducibility of every seeded run.
_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

#: Role tags entering the seed mix: ASCII 'X' and 'Y'.
ROLE_TAGS = {"X": 88, "Y": 89}


def splitmix64(x: int) -> int:
    """One splitmix64 step: add the odd gamma, then xor-shift avalanche."""
    z = (int(x) + _GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def stream_seed(master_seed: int, index: int) -> int:
    """Element ``index`` of the splitmix64 stream started at ``master_seed``.

    Used to give each product of a multi-product run its own master seed;
    indices are positions in the full fixed product list, so a subset run
    sees the same seeds as a full run.
    """
    if index < 0:
        raise ValueError(f"stream index must be >= 0, got {index}")
    return splitmix64((int(master_seed) + index * _GAMMA) & _MASK64)


def child_seed(master_seed: int, role: str, trial: int) -> int:
    """Derive the stream seed for one role of one trial.

    chain: splitmix64(master) xor role-tag, mixed; xor trial, mixed. The X
    and Y streams of a trial and all trials are pairwise disjoint by
    avalanche; changing the role never touches the other role's stream.
    """
    if role not in ROLE_TAGS:
        raise ValueError(f"role must be one of {sorted(ROLE_TAGS)}, got {role!r}")
    if trial < 0:
        raise ValueError(f"trial index must be >= 0, got {trial}")
    s = splitmix64(master_seed)
    s = splitmix64(s ^ ROLE_TAGS[role])
    return splitmix64(s ^ trial)


def sample_inputs(dist: str, size: int, rng: np.random.Generator) -> np.ndarray:
    """``size`` iid draws of ``dist`` from ``rng``, in one call.

    Rademacher signs are {0, 1} integers times 2 minus 1; their int64 staging
    stays small because every caller bounds ``size`` (``DRAW_CHUNK`` or one
    row for a wigner factor, 2n - 1 for a line factor). PCG64 hands out its
    draws in order across calls, so draws made in several calls are, value
    for value and in the generator's state afterwards, those of one call.
    """
    if dist == "rademacher":
        return rng.integers(0, 2, size=size) * 2.0 - 1.0
    if dist == "uniform":
        return rng.uniform(-_UNIFORM_HALF_WIDTH, _UNIFORM_HALF_WIDTH, size=size)
    if dist == "gaussian":
        return rng.standard_normal(size)
    raise ValueError(f"unknown input distribution {dist!r}")


#: A factor built on wigner draws its upper-triangle values this many at a
#: time, in whole rows (a row longer than this is drawn alone), so its draws
#: and their sign staging take 64 KB each beside the trial buffer.
DRAW_CHUNK = 2**13


_IMPORT_LOCK = threading.Lock()


def _pcg64(seed: int) -> np.random.Generator:
    """A PCG64 generator at ``seed``.

    The first call in a process imports ``numpy.random`` with
    ``sys.modules["_hashlib"]`` set to None. Its chain ``bit_generator`` ->
    ``secrets`` -> ``hmac`` -> ``hashlib`` then takes CPython's own digests,
    and OpenSSL's libcrypto is never mapped; no draw hashes anything. That
    entry, and any ``hashlib`` or ``hmac`` module the import made, is then
    removed, so a later ``import hashlib`` gets its OpenSSL backend as before.
    Where ``numpy.random`` or ``_hashlib`` is loaded already, nothing is held
    off. The lock keeps a second worker off ``sys.modules`` meanwhile.
    """
    with _IMPORT_LOCK:
        if "numpy.random" not in sys.modules and "_hashlib" not in sys.modules:
            made = [name for name in ("_hashlib", "hashlib", "hmac")
                    if name not in sys.modules]
            sys.modules["_hashlib"] = None
            try:
                import numpy.random
            finally:
                for name in made:
                    sys.modules.pop(name, None)
    return np.random.Generator(np.random.PCG64(seed))


def _factor_writer(link: str, dist: str, n: int, seed: int,
                   multiply: bool) -> Callable[[np.ndarray, int], None]:
    """``put(block, lo)``: the values of one factor in rows lo, lo + 1, ...
    and columns lo..n - 1, written into ``block`` (as many rows as it has,
    n - lo columns), or multiplied into it when ``multiply``.

    One value is drawn per code, in code order, from a PCG64 stream at
    ``seed``. A factor whose ``table_base`` is wigner has codes 0, 1, ..., k - 1
    along the upper triangle in row-major order, so the draws of a block's
    upper cells are the next part of its stream: they are drawn in chunks of
    whole rows of at most ``DRAW_CHUNK`` values and put row by row, so
    neither its code table nor its k draws are ever whole. The cells below
    the diagonal of the block's square are left as they are. Any other factor
    draws its k <= 2n - 1 values at once; ``linkfn.line_values`` reads k off
    the link's line of codes and lays the values out as a window view of
    that line, and each block is put from that view, so no code table is
    built.
    """
    rng = _pcg64(seed)
    parsed = parse_link(link)

    def put(dst: np.ndarray, src: np.ndarray) -> None:
        if multiply:
            np.multiply(dst, src, out=dst)
        else:
            np.copyto(dst, src)

    if table_base(parsed).kind != "wigner":
        values = line_values(parsed, n, lambda k: sample_inputs(dist, k, rng))

        def from_line(block: np.ndarray, lo: int) -> None:
            put(block, values[lo : lo + block.shape[0], lo:])

        return from_line

    def stream(block: np.ndarray, lo: int) -> None:
        m, width = block.shape
        r = 0
        while r < m:  # row lo + r has width - r cells from its diagonal on
            s, size = r + 1, width - r
            while s < m and size + width - s <= DRAW_CHUNK:
                size += width - s
                s += 1
            draws = sample_inputs(dist, size, rng)
            start = 0
            for i in range(r, s):
                stop = start + width - i
                put(block[i, i:], draws[start:stop])
                start = stop
            r = s

    return stream


@dataclass(frozen=True)
class ProductSpec:
    """Everything that determines a Monte Carlo product run.

    All randomness is a pure function of this record: trial t uses seeds
    child_seed(master_seed, "X", t) and child_seed(master_seed, "Y", t).
    """

    link_x: str
    link_y: str
    dist_x: str
    dist_y: str
    n: int
    master_seed: int
    trials: int

    def __post_init__(self) -> None:
        parse_link(self.link_x)
        parse_link(self.link_y)
        for d in (self.dist_x, self.dist_y):
            if d not in INPUT_DISTRIBUTIONS:
                raise ValueError(f"unknown input distribution {d!r}")
        if self.n < 1:
            raise ValueError(f"dimension must be >= 1, got {self.n}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if not 0 <= self.master_seed < 2**64:
            raise ValueError(f"master_seed must fit in 64 bits, got {self.master_seed}")


def product_realization(
    spec: ProductSpec, trial: int, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Scaled Schur product n^(-1/2) (X o Y) for one trial, as its upper
    triangle: cells (i, j) with j >= i hold the matrix, and the cells below
    the diagonal are unspecified.

    Written into ``out`` (a C-contiguous n x n float64 array, which a caller
    reuses across trials) when given, else into a new zeroed array. Each
    block of ``BLOCK_ROWS`` rows is formed in place on the columns from its
    first row on, by the same IEEE steps as the whole matrix would be: X,
    times Y, times ``n ** -0.5``. Nothing is written left of a block, so the
    cells left of each block's diagonal square are never touched, and their
    pages of a fresh mapped or zeroed buffer never become resident. A wigner
    factor's draws stream into the block in small chunks and Y is multiplied
    in as it is drawn or read (``_factor_writer``), so no n x n code table,
    no k-long draw vector and no copy of Y's rows is made: ``out`` is the
    only large array.
    """
    n = spec.n
    if out is None:
        out = np.zeros((n, n))
    elif out.shape != (n, n) or out.dtype != np.float64 or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous {n} x {n} float64 array")
    put_x = _factor_writer(spec.link_x, spec.dist_x, n,
                           child_seed(spec.master_seed, "X", trial), multiply=False)
    times_y = _factor_writer(spec.link_y, spec.dist_y, n,
                             child_seed(spec.master_seed, "Y", trial), multiply=True)
    scale = n ** -0.5
    for lo in range(0, n, BLOCK_ROWS):
        block = out[lo : lo + BLOCK_ROWS, lo:]
        put_x(block, lo)
        times_y(block, lo)
        block *= scale
    return out
