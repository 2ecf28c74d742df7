"""Tests for seeded matrix realizations and the determinism contract."""

import json
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import schurlsd.ensemble as ensemble
import schurlsd.spectral as spectral
from schurlsd.ensemble import (
    BLOCK_ROWS,
    INPUT_DISTRIBUTIONS,
    ProductSpec,
    child_seed,
    product_realization,
    sample_inputs,
    splitmix64,
    stream_seed,
)
from schurlsd.linkfn import eval_link, parse_link, value_table
from schurlsd.spectral import eigenvalues

ALL_LINKS = ("wigner", "toeplitz", "hankel", "symcirc", "revcirc", "dsymhankel")


def upper(a: np.ndarray) -> bytes:
    """The bytes of ``a`` with the cells below its diagonal zeroed: a
    realization is its upper triangle, and the cells below are unspecified."""
    return np.triu(a).tobytes()


def realize(link: str, dist: str, n: int, seed: int) -> np.ndarray:
    """One unscaled patterned matrix as an n x n float64 array.

    Draws exactly one value per distinct label (k_n draws, e.g. 3 for a
    3 x 3 toeplitz pattern) from a PCG64 stream at ``seed``, assigned in
    ascending label order, then scatters them through the label code matrix.
    """
    codes, k = value_table(parse_link(link), n)
    return sample_inputs(dist, k, np.random.Generator(np.random.PCG64(seed)))[codes]


# --- seed derivation ---------------------------------------------------------------


def test_splitmix64_reference_vectors():
    # first outputs of the published splitmix64 stream from seeds 0 and 1
    assert splitmix64(0) == 0xE220A8397B1DCDAF
    assert splitmix64(1) == 0x910A2DEC89025CC1


def test_splitmix64_range_and_determinism():
    for x in (0, 1, 2**32, 2**64 - 1, 20260814):
        out = splitmix64(x)
        assert 0 <= out < 2**64
        assert splitmix64(x) == out


def test_child_seed_disjoint_roles_and_trials():
    seeds = {child_seed(7, role, t) for role in ("X", "Y") for t in range(64)}
    assert len(seeds) == 128


def test_child_seed_validates_arguments():
    with pytest.raises(ValueError):
        child_seed(7, "Z", 0)
    with pytest.raises(ValueError):
        child_seed(7, "X", -1)


def test_stream_seed_is_position_stable():
    full = [stream_seed(99, i) for i in range(15)]
    assert stream_seed(99, 11) == full[11]
    assert len(set(full)) == 15
    with pytest.raises(ValueError):
        stream_seed(99, -1)


# --- input draws --------------------------------------------------------------------


@pytest.mark.parametrize("dist", INPUT_DISTRIBUTIONS)
def test_input_moments_over_a_million_draws(dist):
    rng = np.random.Generator(np.random.PCG64(12345))
    draws = sample_inputs(dist, 1_000_000, rng)
    assert abs(draws.mean()) <= 5e-3
    assert abs(draws.var() - 1.0) <= 1e-2


def test_input_supports():
    rng = np.random.Generator(np.random.PCG64(0))
    rad = sample_inputs("rademacher", 1000, rng)
    assert set(np.unique(rad)) == {-1.0, 1.0}
    uni = sample_inputs("uniform", 1000, rng)
    assert np.all(np.abs(uni) <= np.sqrt(3.0))


def _one_draw(dist: str, size: int, rng: np.random.Generator) -> np.ndarray:
    """``size`` draws of ``dist`` from one call of the generator's own sampler."""
    if dist == "rademacher":
        return rng.integers(0, 2, size=size).astype(np.float64) * 2.0 - 1.0
    if dist == "uniform":
        return rng.uniform(-np.sqrt(3.0), np.sqrt(3.0), size=size)
    return rng.standard_normal(size)


@pytest.mark.parametrize("dist", INPUT_DISTRIBUTIONS)
@pytest.mark.parametrize("chunk", [None, 4097, 61_983])
@pytest.mark.parametrize("size", [1, 65_535, 65_536, 65_537, 500_500])
def test_blocked_rademacher_draws_are_bitwise_one_draw(size, chunk, dist):
    """Draws made in chunks of odd sizes (``None``: one call; 61,983 is near
    the 61,984 draws of the first 64-row wigner block at n = 1000) are
    bitwise one whole-size draw, and leave the generator where that draw
    would (sizes around 2^16, and 500,500, the wigner label count at
    n = 1000)."""
    rng, ref = (np.random.Generator(np.random.PCG64(2024)) for _ in range(2))
    step = chunk or size
    got = np.concatenate([sample_inputs(dist, min(step, size - lo), rng)
                          for lo in range(0, size, step)])
    expected = _one_draw(dist, size, ref)
    assert got.dtype == np.float64 and got.tobytes() == expected.tobytes()
    assert rng.bit_generator.state == ref.bit_generator.state
    assert _one_draw(dist, 3, rng).tobytes() == _one_draw(dist, 3, ref).tobytes()


def test_sample_inputs_rejects_unknown():
    rng = np.random.Generator(np.random.PCG64(0))
    with pytest.raises(ValueError):
        sample_inputs("cauchy", 10, rng)


# --- single realizations --------------------------------------------------------------


@pytest.mark.parametrize("kind", ALL_LINKS)
def test_realization_exactly_symmetric(kind):
    m = realize(kind, "gaussian", 16, 5)
    assert m.shape == (16, 16) and m.dtype == np.float64
    assert np.array_equal(m, m.T)


@pytest.mark.parametrize("kind", ALL_LINKS)
def test_realization_link_faithful(kind):
    """Equal link values share one draw bitwise; distinct values differ."""
    n = 11
    m = realize(kind, "gaussian", n, 42)
    link = parse_link(kind)
    by_value = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            by_value.setdefault(eval_link(link, i, j, n), set()).add(m[i - 1, j - 1])
    assert all(len(cells) == 1 for cells in by_value.values())
    drawn = [next(iter(cells)) for cells in by_value.values()]
    assert len(set(drawn)) == len(drawn)


def test_realization_draw_order_is_ascending_values():
    """One draw per distinct label, consumed in ascending label order."""
    n = 9
    codes, k = value_table(parse_link("toeplitz"), n)
    rng = np.random.Generator(np.random.PCG64(77))
    draws = sample_inputs("gaussian", k, rng)
    assert np.array_equal(realize("toeplitz", "gaussian", n, 77), draws[codes])


def test_realization_deterministic_and_seed_sensitive():
    a = realize("hankel", "uniform", 12, 100)
    b = realize("hankel", "uniform", 12, 100)
    c = realize("hankel", "uniform", 12, 101)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_realize_validates_distribution():
    with pytest.raises(ValueError):
        realize("toeplitz", "poisson", 8, 0)


# --- products and scaling ---------------------------------------------------------------


def _spec(**overrides):
    base = dict(
        link_x="toeplitz",
        link_y="hankel",
        dist_x="rademacher",
        dist_y="rademacher",
        n=10,
        master_seed=3,
        trials=2,
    )
    base.update(overrides)
    return ProductSpec(**base)


def test_pair_streams_are_independent_of_each_other():
    """A trial's product is n^(-1/2) X o Y, bitwise, with X and Y drawn from
    their own child streams; swapping the Y link must not move the X stream."""
    spec = _spec()
    x = realize(spec.link_x, spec.dist_x, spec.n, child_seed(3, "X", 1))
    for link_y in ("hankel", "revcirc"):
        y = realize(link_y, spec.dist_y, spec.n, child_seed(3, "Y", 1))
        m = product_realization(_spec(link_y=link_y), trial=1)
        assert upper(m) == upper(x * y * spec.n ** -0.5)


@pytest.mark.parametrize("link_x", ALL_LINKS)
def test_product_realization_into_a_reused_buffer_is_bitwise_fresh(link_x):
    """Row blocks written into a reused buffer give the upper triangle of the
    whole-matrix steps, bitwise: X, times Y, times n ** -0.5."""
    n = 2 * BLOCK_ROWS + 22  # two full row blocks and a partial one
    link_y = ALL_LINKS[(ALL_LINKS.index(link_x) + 1) % len(ALL_LINKS)]
    spec = _spec(link_x=link_x, link_y=link_y, dist_x="gaussian", dist_y="uniform", n=n)
    buf = np.full((n, n), np.nan)
    for trial in (0, 1):
        got = product_realization(spec, trial, out=buf)
        assert got is buf
        x = realize(link_x, "gaussian", n, child_seed(spec.master_seed, "X", trial))
        x *= realize(link_y, "uniform", n, child_seed(spec.master_seed, "Y", trial))
        x *= n ** -0.5
        assert upper(got) == upper(x)
        assert upper(product_realization(spec, trial)) == upper(x)


#: (link_x, link_y) with a factor built on wigner: as X, as Y, as both, and
#: through an order-keeping transform beside a composed line link.
WIGNER_PRODUCTS = [("wigner", "toeplitz"), ("hankel", "wigner"), ("wigner", "wigner"),
                   ("coprimepower(2,3,wigner)", "square(symcirc)"),
                   ("dsymhankel", "coprimepower(2,3,wigner)")]


@pytest.mark.parametrize("link_x,link_y", WIGNER_PRODUCTS)
@pytest.mark.parametrize("dist", INPUT_DISTRIBUTIONS)
@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 129, 200])
def test_streamed_wigner_draws_are_bitwise_the_gathered_ones(link_x, link_y, dist, n):
    """A wigner factor's draws, streamed block by block into the upper
    triangle, give the bits of one draw per code gathered there through the
    dense code table (n = 63, 64, 65, 129 and 200 end the matrix
    inside, at and past a 64-row block)."""
    _assert_streamed_is_gathered(link_x, link_y, dist, n)


def _assert_streamed_is_gathered(link_x, link_y, dist, n):
    spec = _spec(link_x=link_x, link_y=link_y, dist_x=dist, dist_y=dist, n=n)
    buf = np.full((n, n), np.nan)
    for trial in (0, 1):
        x = realize(link_x, dist, n, child_seed(spec.master_seed, "X", trial))
        x *= realize(link_y, dist, n, child_seed(spec.master_seed, "Y", trial))
        x *= n ** -0.5
        assert upper(product_realization(spec, trial, out=buf)) == upper(x)


@pytest.mark.parametrize("link_x,link_y", WIGNER_PRODUCTS)
@pytest.mark.parametrize("chunk", [1, 300, 10_000])
def test_wigner_draws_in_chunks_of_any_size_are_bitwise_one_stream(monkeypatch, link_x, link_y,
                                                                   chunk):
    """Chunks shorter than a row (each row is drawn alone), of a few rows, and
    of a whole 64-row block (6,240 draws at most), at n = 129."""
    monkeypatch.setattr(ensemble, "DRAW_CHUNK", chunk)
    _assert_streamed_is_gathered(link_x, link_y, "rademacher", 129)


@pytest.mark.parametrize("fallback", [False, True], ids=["in_place", "fallback"])
@pytest.mark.parametrize("link_x,link_y", [*WIGNER_PRODUCTS[:3], ("toeplitz", "hankel")])
def test_a_realization_leaves_the_lower_triangle_unwritten(monkeypatch, link_x, link_y,
                                                           fallback):
    """Realized into a NaN buffer, a product leaves every cell left of its row
    blocks' diagonal squares NaN, and its spectrum is bitwise that of the
    gathered symmetric matrix on either solver route."""
    if fallback:
        monkeypatch.setattr(spectral, "_dsyevd", None)
    n = 2 * BLOCK_ROWS + 22
    spec = _spec(link_x=link_x, link_y=link_y, dist_x="gaussian", dist_y="uniform", n=n)
    full = realize(link_x, "gaussian", n, child_seed(spec.master_seed, "X", 0))
    full *= realize(link_y, "uniform", n, child_seed(spec.master_seed, "Y", 0))
    full *= n ** -0.5
    a = product_realization(spec, 0, out=np.full((n, n), np.nan))
    i, j = np.indices((n, n))
    left = j < i // BLOCK_ROWS * BLOCK_ROWS  # left of each row block's diagonal square
    assert left.sum() == 64 * 64 + 22 * 128 and np.isnan(a[left]).all()
    expected = np.linalg.eigvalsh(full)
    assert np.linalg.eigvalsh(a.T).tobytes() == expected.tobytes()
    assert eigenvalues(a).eigenvalues.tobytes() == expected.tobytes()


def test_a_non_finite_value_in_any_upper_cell_is_refused():
    """The finite check covers the whole upper triangle, diagonal included,
    and not the cells below the diagonal."""
    n = 2 * BLOCK_ROWS + 22
    a = np.triu(product_realization(_spec(n=n), 0))
    a[np.tril_indices(n, -1)] = np.nan
    assert eigenvalues(a.copy()).n == n
    for k, (i, j) in enumerate(zip(*np.triu_indices(n))):
        kept, a[i, j] = a[i, j], (np.nan, np.inf, -np.inf)[k % 3]
        with pytest.raises(ValueError, match="non-finite"):
            eigenvalues(a)  # refused before the solve, so ``a`` is not overwritten
        a[i, j] = kept


def test_wigner_realization_makes_no_code_table_and_no_draw_vector():
    """At n = 1000 one wigner*toeplitz realization into a given buffer
    allocates a small part of the k * 8 = 4 MB that the factor's draws would
    take at once (its chunks of draws take 64 KB), and leaves no wigner table
    in ``value_table``'s cache."""
    n = 1000
    spec = _spec(link_x="wigner", link_y="toeplitz", n=n)
    buf = np.empty((n, n))
    value_table.cache_clear()
    try:
        tracemalloc.start()
        try:
            product_realization(spec, 0, out=buf)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        misses = value_table.cache_info().misses
        value_table(parse_link("wigner"), n)
        assert value_table.cache_info().misses == misses + 1
    finally:
        value_table.cache_clear()
    assert peak < 2**19 < n * (n + 1) // 2 * 8


@pytest.mark.parametrize("link_x,link_y", [("wigner", "toeplitz"), ("toeplitz", "hankel"),
                                           ("wigner", "wigner")])
@pytest.mark.parametrize("dist", INPUT_DISTRIBUTIONS)
def test_a_warm_trial_allocates_little_beside_its_buffer(link_x, link_y, dist):
    """After a first trial has built the line tables, one trial at n = 1000
    (realize into the buffer, then solve it in place) allocates under 0.5 MiB:
    Y is multiplied in from its view and a wigner factor is drawn in small
    chunks, so no copy of Y's rows and no block of draws is made (a 64-row
    block is 0.5 MB), and the solve needs only LAPACK's workspace."""
    if spectral.eigensolver() != "dsyevd in place":
        pytest.skip("eigvalsh, the only route on this numpy, copies the matrix")
    n = 1000
    spec = _spec(link_x=link_x, link_y=link_y, dist_x=dist, dist_y=dist, n=n)
    buf = np.empty((n, n))
    eigenvalues(product_realization(spec, 0, out=buf))
    tracemalloc.start()
    try:
        eigenvalues(product_realization(spec, 1, out=buf))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**19


def test_product_realization_rejects_a_mismatched_buffer():
    spec = _spec(n=10)
    for buf in (np.empty((10, 11)), np.empty((10, 10), dtype=np.float32),
                np.empty((10, 10), order="F")):
        with pytest.raises(ValueError, match="out must be"):
            product_realization(spec, 0, out=buf)


def test_rademacher_product_entries_have_unit_square():
    m = product_realization(_spec(n=10), trial=0)
    assert np.allclose((m[np.triu_indices(10)] * np.sqrt(10)) ** 2, 1.0)


def test_product_spec_validation():
    with pytest.raises(ValueError):
        _spec(link_x="nope")
    with pytest.raises(ValueError):
        _spec(dist_y="nope")
    with pytest.raises(ValueError):
        _spec(n=0)
    with pytest.raises(ValueError):
        _spec(trials=0)
    with pytest.raises(ValueError):
        _spec(master_seed=2**64)



# --- pinned values, drawn through the guarded numpy.random import -------------------------

#: Entries (0, 0), (0, 2), (4, 7) and (11, 11), as ``float.hex``, of trial 0 of
#: ProductSpec(x, y, d, d, 12, 2014, 1): the PCG64 stream, the splitmix seeds
#: and the draw order of a streamed wigner factor and of a product of two line
#: factors, pinned as values rather than against numpy.random in this process.
PINNED_ENTRIES = {
    ("wigner", "toeplitz", "rademacher"): (
        "-0x1.279a74590331cp-2", "0x1.279a74590331cp-2", "-0x1.279a74590331cp-2",
        "-0x1.279a74590331cp-2"),
    ("wigner", "toeplitz", "uniform"): (
        "-0x1.7ac40c0e207e5p-8", "-0x1.25cd43987674bp-3", "0x1.76a619e41256bp-2",
        "0x1.5113fcdb0267fp-8"),
    ("wigner", "toeplitz", "gaussian"): (
        "0x1.71c844eb6a161p-4", "-0x1.1592f203b748fp-8", "0x1.a52d8e807cb59p-5",
        "-0x1.65ca1b9cb7885p-5"),
    ("toeplitz", "hankel", "rademacher"): (
        "-0x1.279a74590331cp-2", "0x1.279a74590331cp-2", "0x1.279a74590331cp-2",
        "-0x1.279a74590331cp-2"),
    ("toeplitz", "hankel", "uniform"): (
        "-0x1.7ac40c0e207e5p-8", "-0x1.25cd43987674bp-3", "-0x1.1b2a2f8f40518p-4",
        "-0x1.2aaa9b4895044p-4"),
    ("toeplitz", "hankel", "gaussian"): (
        "0x1.71c844eb6a161p-4", "-0x1.1592f203b748fp-8", "-0x1.1399a0225c0a8p-4",
        "0x1.cd55168f5d272p-4"),
}

#: Realizes every pinned product in a fresh interpreter, after ``prelude``,
#: and prints each matrix's bytes and whether OpenSSL's hash module is loaded.
_REALIZE = """
import json, sys
{prelude}
from schurlsd.ensemble import ProductSpec, product_realization
keys = {keys!r}
out = [product_realization(ProductSpec(x, y, d, d, 12, 2014, 1), 0).tobytes().hex()
       for x, y, d in keys]
print(json.dumps({{"_hashlib": "_hashlib" in sys.modules, "matrices": out}}))
"""


def _realize_fresh(prelude: str = "") -> tuple[bool, dict]:
    keys = list(PINNED_ENTRIES)
    code = _REALIZE.format(prelude=prelude, keys=keys)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    matrices = {key: np.frombuffer(bytes.fromhex(blob)).reshape(12, 12)
                for key, blob in zip(keys, result["matrices"])}
    return result["_hashlib"], matrices


def test_pinned_entries_through_the_guarded_import():
    hashlib_loaded, matrices = _realize_fresh()
    assert not hashlib_loaded
    for key, entries in PINNED_ENTRIES.items():
        got = tuple(matrices[key][i, j].hex() for i, j in ((0, 0), (0, 2), (4, 7), (11, 11)))
        assert got == entries, key


def test_hashlib_imported_first_gives_the_same_bytes():
    _, guarded = _realize_fresh()
    hashlib_loaded, plain = _realize_fresh("import hashlib")
    assert hashlib_loaded
    for key in PINNED_ENTRIES:
        assert upper(guarded[key]) == upper(plain[key]), key


def test_workers_that_start_together_share_one_guarded_import():
    """More first realizations at once than there are cores, switching
    threads every microsecond: each waits for the one guarded import, so
    none sees a half-imported numpy.random, and OpenSSL stays unloaded."""
    code = """
import json, sys, threading
from schurlsd.ensemble import ProductSpec, product_realization
import numpy as np
sys.setswitchinterval(1e-6)
spec = ProductSpec("wigner", "toeplitz", "gaussian", "gaussian", 12, 2014, 1)
start, out, errors = threading.Barrier(8), [], []
def work():
    start.wait()
    try:
        out.append(product_realization(spec, 0))
    except Exception as exc:
        errors.append(repr(exc))
workers = [threading.Thread(target=work) for _ in range(8)]
for w in workers:
    w.start()
for w in workers:
    w.join(timeout=60)
print(json.dumps({"alive": sum(w.is_alive() for w in workers), "errors": errors,
                  "matrices": sorted({np.triu(a).tobytes().hex() for a in out}),
                  "done": len(out),
                  "_hashlib": "_hashlib" in sys.modules}))
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["alive"] == 0 and result["errors"] == []
    assert result["done"] == 8 and len(result["matrices"]) == 1
    first = np.frombuffer(bytes.fromhex(result["matrices"][0]))[0]
    assert first.hex() == PINNED_ENTRIES["wigner", "toeplitz", "gaussian"][0]
    assert not result["_hashlib"]


def test_the_guard_leaves_hashlib_its_openssl_backend():
    pytest.importorskip("_hashlib")
    code = """
import sys
from schurlsd.ensemble import ProductSpec, product_realization
product_realization(ProductSpec("wigner", "toeplitz", "gaussian", "gaussian", 12, 2014, 1), 0)
assert "_hashlib" not in sys.modules
assert "hashlib" not in sys.modules and "hmac" not in sys.modules
import hashlib, hmac
assert sys.modules["_hashlib"] is not None
assert hashlib.sha256 is sys.modules["_hashlib"].openssl_sha256
assert hmac._hashopenssl is sys.modules["_hashlib"]
print(hashlib.sha256(b"x").hexdigest())
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == (
        "2d711642b726b04401627ca9fbac32f5c8530fb1903cc4db02258717921a4881")
