"""Tests for link functions, transforms, and structural profiles.

A profile is (delta, k_n, alpha_n): ``row_delta``, and the number of distinct
labels and the most cells sharing one, both counted here from ``value_table``.
"""

import itertools
import time
import tracemalloc

import numpy as np
import pytest

import schurlsd.linkfn as linkfn
from schurlsd.circuits import check_invariance_containment
from schurlsd.linkfn import (
    BUILTIN_KINDS,
    PowerValue,
    TransformError,
    apply_transform,
    builtin_link,
    compose,
    coprime_power,
    eval_link,
    involutions,
    line_values,
    link_labels,
    link_name,
    pair_codes,
    parse_link,
    row_delta,
    square,
    table_base,
    table_transform,
    value_sort_key,
    value_table,
)

from bruteforce import RAW_LINKS

ALL_LINKS = sorted(BUILTIN_KINDS)

try:  # numpy >= 2.0
    from numpy.lib.array_utils import byte_bounds
except ImportError:
    byte_bounds = np.byte_bounds


# --- evaluation ------------------------------------------------------------------


def test_eval_examples():
    assert eval_link(parse_link("toeplitz"), 3, 7, 8) == 4
    assert eval_link(parse_link("wigner"), 5, 2, 6) == (2, 5)
    assert eval_link(parse_link("revcirc"), 4, 9, 10) == 3
    assert eval_link(parse_link("toeplitz"), 6, 6, 8) == 0


def test_eval_rejects_out_of_range_indices():
    link = parse_link("toeplitz")
    for i, j in ((0, 1), (1, 0), (9, 1), (1, 9)):
        with pytest.raises(ValueError):
            eval_link(link, i, j, 8)


@pytest.mark.parametrize("kind", ALL_LINKS)
@pytest.mark.parametrize("n", [2, 3, 4, 5, 7, 8, 16, 32])
def test_eval_symmetric(kind, n):
    link = parse_link(kind)
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            assert eval_link(link, i, j, n) == eval_link(link, j, i, n)


@pytest.mark.parametrize("kind", ALL_LINKS)
@pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 11, 16])
def test_eval_induces_same_classes_as_raw_formula(kind, n):
    """Cell partition by value equals the one induced by the literal formulas
    (some raw labels are doubled, so compare partitions, not values)."""
    raw = RAW_LINKS[kind]
    by_pkg = {}
    by_raw = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            by_pkg.setdefault(eval_link(parse_link(kind), i, j, n), set()).add((i, j))
            by_raw.setdefault(raw(i, j, n), set()).add((i, j))
    assert sorted(by_pkg.values(), key=sorted) == sorted(by_raw.values(), key=sorted)


@pytest.mark.parametrize("n", [3, 4, 5, 8, 11])
def test_symcirc_dsymhankel_scalar_values(n):
    """The reported scalar is the folded distance (half the doubled label)."""
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            d = abs(i - j)
            m = (i + j) % n
            assert eval_link(parse_link("symcirc"), i, j, n) == min(d, n - d)
            assert eval_link(parse_link("dsymhankel"), i, j, n) == min(m, n - m)


# --- profiles ---------------------------------------------------------------------


def profile(link, n: int) -> tuple[int, int, int]:
    """(delta, k_n, alpha_n) of ``link`` at n."""
    codes, k = value_table(link, n)
    counts = np.bincount(np.ravel(codes), minlength=k)
    return row_delta(link, n), k, int(counts.max())


FROZEN_PROFILES = {
    # (kind, n) -> (delta, kn, alphan), each counted by hand / raw enumeration
    ("wigner", 4): (1, 10, 2),
    ("wigner", 5): (1, 15, 2),
    ("wigner", 8): (1, 36, 2),
    ("toeplitz", 4): (2, 4, 6),
    ("toeplitz", 5): (2, 5, 8),
    ("toeplitz", 8): (2, 8, 14),
    ("hankel", 4): (1, 7, 4),
    ("symcirc", 4): (2, 3, 8),
    ("symcirc", 8): (2, 5, 16),
    ("revcirc", 4): (1, 4, 4),
    ("dsymhankel", 4): (2, 3, 8),
}


@pytest.mark.parametrize("kind,n", sorted(FROZEN_PROFILES))
def test_profile_frozen_values(kind, n):
    assert profile(parse_link(kind), n) == FROZEN_PROFILES[(kind, n)]


EXPECTED_DELTA = {
    "wigner": 1,
    "hankel": 1,
    "revcirc": 1,
    "toeplitz": 2,
    "symcirc": 2,
    "dsymhankel": 2,
}


@pytest.mark.parametrize("kind", ALL_LINKS)
@pytest.mark.parametrize("n", [4, 8, 16, 33, 64])
def test_profile_delta_bounded_by_two(kind, n):
    assert row_delta(parse_link(kind), n) == EXPECTED_DELTA[kind]


@pytest.mark.parametrize("kind", ALL_LINKS)
def test_profile_growth(kind):
    link = parse_link(kind)
    last_kn = 0
    for n in range(2, 65):
        delta, kn, alphan = profile(link, n)
        assert kn >= last_kn
        assert kn * alphan <= 4 * n * n
        assert kn * alphan >= n * n
        assert alphan <= n * delta
        last_kn = kn


def _test_link(name: str, n: int):
    if name == "toeplitz//3":  # merged labels give row runs of up to 6
        return compose(table_transform({d: d // 3 for d in range(n)}), builtin_link("toeplitz"))
    return parse_link(name)


#: The involutions ``linkfn.involutions`` names, as 0-based index maps at even n.
INDEX_INVOLUTIONS = {
    "H": lambda n: (np.arange(n) + n // 2) % n,
    "J": lambda n: np.arange(n)[::-1],
}


@pytest.mark.parametrize("name", ALL_LINKS + ["square(toeplitz)", "coprimepower(2,3,wigner)",
                                              "toeplitz//3"])
def test_involution_table_is_exact(name):
    # every declared involution keeps the code table at every even n, and
    # every other one breaks it at some even n
    declared = involutions(_test_link(name, 2))
    assert set(declared) <= set(INDEX_INVOLUTIONS)
    broken = set()
    for n in range(2, 65, 2):
        codes, _ = value_table(_test_link(name, n), n)
        for symbol, index_map in INDEX_INVOLUTIONS.items():
            perm = index_map(n)
            kept = np.array_equal(codes[np.ix_(perm, perm)], codes)
            if symbol in declared:
                assert kept, (symbol, n)
            elif not kept:
                broken.add(symbol)
    assert broken == set(INDEX_INVOLUTIONS) - set(declared)


@pytest.mark.parametrize("kind", ALL_LINKS + ["toeplitz//3", "coprimepower(2,3,wigner)"])
@pytest.mark.parametrize("n", [1, 2, 7, 8, 33, 63, 64, 65, 129])
def test_delta_equals_per_row_unique_scan(kind, n):
    # n = 63, 64, 65 and 129 end the table inside, at and just past a 64-row block of row_delta
    link = _test_link(kind, n)
    codes, _ = value_table(link, n)
    per_row = max(int(np.unique(row, return_counts=True)[1].max()) for row in codes)
    assert row_delta(link, n) == per_row


def test_wigner_delta_at_n_1000_builds_no_table():
    # no pair label repeats within a row, so no row is formed: the dense
    # int64 table alone would be 8 n^2 bytes
    n = 1000
    value_table.cache_clear()
    tracemalloc.start()
    try:
        delta = row_delta(parse_link("wigner"), n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert value_table.cache_info().currsize == 0
    assert delta == 1
    assert peak < n * n // 2


def test_delta_ladder_stable():
    for kind in ALL_LINKS:
        deltas = {row_delta(parse_link(kind), n) for n in (4, 8, 16, 32)}
        assert deltas == {EXPECTED_DELTA[kind]}


# --- product profiles --------------------------------------------------------------


def profile_product(link_x, link_y, n: int) -> tuple[int, int, int]:
    """Profile of the label-pair map (i, j) -> (L_X(i, j), L_Y(i, j)).

    k_n and alpha_n are exact scans of the pair labels; delta is the product
    bound min(delta_X, delta_Y) that ``verify-table2`` gates the moment bound
    with, and the tests below hold it to the scans.
    """
    codes_x, _ = value_table(link_x, n)
    codes_y, k_y = value_table(link_y, n)
    _, counts = np.unique(pair_codes(codes_x, codes_y, k_y), return_counts=True)
    delta = min(row_delta(link_x, n), row_delta(link_y, n))
    return delta, len(counts), int(counts.max())


FROZEN_PRODUCT_PROFILES = {
    ("toeplitz", "hankel", 4): (10, 2),
    ("wigner", "toeplitz", 5): (15, 2),
    ("toeplitz", "toeplitz", 4): (4, 6),
}


@pytest.mark.parametrize("x,y,n", sorted(FROZEN_PRODUCT_PROFILES))
def test_profile_product_frozen_values(x, y, n):
    _, kn, alphan = profile_product(parse_link(x), parse_link(y), n)
    assert (kn, alphan) == FROZEN_PRODUCT_PROFILES[(x, y, n)]


@pytest.mark.parametrize("x,y", list(itertools.combinations_with_replacement(ALL_LINKS, 2)))
@pytest.mark.parametrize("n", [2, 5, 8, 16, 32])
def test_profile_product_bounds(x, y, n):
    delta_x, kn_x, alphan_x = profile(parse_link(x), n)
    delta_y, kn_y, alphan_y = profile(parse_link(y), n)
    delta, kn, alphan = profile_product(parse_link(x), parse_link(y), n)
    assert max(kn_x, kn_y) <= kn <= kn_x * kn_y
    assert alphan <= min(alphan_x, alphan_y)
    assert delta == min(delta_x, delta_y)
    assert kn * alphan >= n * n
    pairs = pair_codes(value_table(parse_link(x), n)[0], value_table(parse_link(y), n)[0],
                       kn_y)
    assert max(int(np.unique(row, return_counts=True)[1].max()) for row in pairs) <= delta


def test_profile_product_wigner_factor_pins_alphan():
    for other in ALL_LINKS:
        _, kn, alphan = profile_product(parse_link("wigner"), parse_link(other), 5)
        assert kn == 15  # n(n+1)/2 distinct pairs
        assert alphan == 2


# --- transforms --------------------------------------------------------------------


def test_square_transform():
    composed = compose(square(), builtin_link("toeplitz"))
    assert eval_link(composed, 1, 4, 8) == 9
    assert eval_link(composed, 4, 1, 8) == 9


def test_identity_table_transform_preserves_values():
    ident = table_transform({t: t for t in range(8)})
    composed = compose(ident, builtin_link("toeplitz"))
    for i in range(1, 9):
        for j in range(1, 9):
            assert eval_link(composed, i, j, 8) == eval_link(builtin_link("toeplitz"), i, j, 8)


def test_coprime_power_transform():
    composed = compose(coprime_power(2, 3), builtin_link("wigner"))
    value = eval_link(composed, 2, 5, 6)
    assert value == PowerValue(2, 3, 2, 5)
    assert value != PowerValue(2, 3, 5, 2)
    assert value != PowerValue(3, 2, 2, 5)


def test_coprime_power_validates_bases():
    for a, b in ((1, 3), (2, 1), (2, 4), (6, 9), (0, 3), (-2, 3)):
        with pytest.raises(ValueError):
            coprime_power(a, b)
    coprime_power(2, 9)  # coprime though not prime


def test_transform_domain_errors():
    with pytest.raises(TransformError):
        apply_transform(square(), (1, 2))
    with pytest.raises(TransformError):
        apply_transform(coprime_power(2, 3), 5)
    with pytest.raises(TransformError):
        apply_transform(table_transform({0: 0}), 7)


def test_table_transform_composed_table_is_linear_in_labels():
    # the row-1 label map wigner -> toeplitz at n = 200 maps k = 20,100 labels;
    # a lookup dict rebuilt for each label would make the build quadratic in k
    n = 200
    transform = table_transform(
        {(i, j): j - i for i in range(1, n + 1) for j in range(i, n + 1)}
    )
    link = compose(transform, builtin_link("wigner"))
    value_table.cache_clear()
    value_table(builtin_link("wigner"), n)
    start = time.perf_counter()
    _, k = value_table(link, n)
    assert time.perf_counter() - start < 2.0
    assert k == n


def test_table_transform_rejects_empty():
    with pytest.raises(ValueError):
        table_transform({})


# --- injectivity -------------------------------------------------------------------


def _injective(transform, base, n: int) -> bool:
    return check_invariance_containment(base, compose(transform, base), 4, n).injective


def test_square_injective_on_toeplitz():
    assert _injective(square(), builtin_link("toeplitz"), 10)


def test_constant_table_not_injective():
    const = table_transform({t: 0 for t in range(3)})
    assert not _injective(const, builtin_link("toeplitz"), 3)


def test_coprime_power_injective_on_wigner():
    assert _injective(coprime_power(2, 3), builtin_link("wigner"), 6)


def test_collapsing_table_not_injective_on_toeplitz():
    collapse = {t: t for t in range(10)}
    collapse[2] = 1
    assert not _injective(table_transform(collapse), builtin_link("toeplitz"), 10)


@pytest.mark.parametrize("kind", ALL_LINKS)
@pytest.mark.parametrize("n", [4, 8, 16, 32])
def test_injective_compose_preserves_profile(kind, n):
    base = parse_link(kind)
    if kind == "wigner":
        transform = coprime_power(2, 3)
    else:
        transform = table_transform({v: (v, v) for v in link_labels(base, n)})
    assert _injective(transform, base, n)
    assert profile(compose(transform, base), n) == profile(base, n)


# --- composed symmetry (spec invariant covers composed links too) -------------------


@pytest.mark.parametrize("n", [3, 8, 17, 32])
def test_composed_symmetry(n):
    composed = compose(square(), builtin_link("toeplitz"))
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            assert eval_link(composed, i, j, n) == eval_link(composed, j, i, n)


# --- parsing and naming --------------------------------------------------------------


def test_parse_link_round_trip():
    for text in [*ALL_LINKS, "square(toeplitz)", "coprimepower(2,3,wigner)"]:
        assert link_name(parse_link(text)) == text


def test_parse_link_rejects_unknown():
    for text in ("", "toepl", "square()", "square(nope)", "coprimepower(2,4,wigner)"):
        with pytest.raises(ValueError):
            parse_link(text)


# --- value_table (the realization-facing view) ---------------------------------------


@pytest.mark.parametrize("kind", [*ALL_LINKS, "square(toeplitz)"])
def test_value_table_consistent_with_eval(kind):
    n = 7
    link = parse_link(kind)
    codes, k = value_table(link, n)
    labels = link_labels(link, n)
    assert codes.shape == (n, n)
    assert k == len(labels) == len(np.unique(codes))
    keys = [value_sort_key(v) for v in labels]
    assert keys == sorted(keys) and len(set(keys)) == k
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            assert labels[codes[i - 1, j - 1]] == eval_link(link, i, j, n)


LINE_KINDS = [kind for kind in ALL_LINKS if kind != "wigner"]
TABLE_LINKS = [*ALL_LINKS, "toeplitz//3", *(f"square({kind})" for kind in LINE_KINDS)]


@pytest.mark.parametrize("name", TABLE_LINKS)
@pytest.mark.parametrize("n", [1, 2, 3, 63, 64, 65])
def test_value_table_is_the_ranked_dense_table(name, n):
    link = _test_link(name, n)
    codes, k = value_table(link, n)
    cells = [[value_sort_key(eval_link(link, i, j, n)) for j in range(1, n + 1)]
             for i in range(1, n + 1)]
    keys = sorted({key for row in cells for key in row})
    rank = {key: t for t, key in enumerate(keys)}
    assert k == len(keys)
    assert np.array_equal(codes, [[rank[key] for key in row] for row in cells])
    assert [value_sort_key(v) for v in link_labels(link, n)] == keys
    if name in RAW_LINKS:  # eval_link shares the code line's formula; the oracle's does not
        raw = [[RAW_LINKS[name](i, j, n) for j in range(1, n + 1)] for i in range(1, n + 1)]
        raw_rank = {v: t for t, v in enumerate(sorted({v for row in raw for v in row}))}
        assert np.array_equal(codes, [[raw_rank[v] for v in row] for row in raw])
    assert not codes.flags.writeable
    with pytest.raises(ValueError):
        codes[0, 0] = 0
    if name != "wigner":  # a window view of one line of 2n - 1 codes
        lo, hi = byte_bounds(codes)
        assert hi - lo <= (2 * n - 1) * codes.itemsize


@pytest.mark.parametrize("name", [kind for kind in TABLE_LINKS if kind != "wigner"])
@pytest.mark.parametrize("n", [1, 2, 65])
def test_line_values_are_the_draws_gathered_through_the_table(name, n):
    link = _test_link(name, n)
    codes, k = value_table(link, n)
    draws = np.random.default_rng(n).standard_normal(k)
    requested = []
    values = line_values(link, n, lambda size: requested.append(size) or draws)
    assert requested == [k]
    assert values.tobytes() == draws[codes].tobytes()
    assert not values.flags.writeable
    lo, hi = byte_bounds(values)
    assert hi - lo <= (2 * n - 1) * values.itemsize


def test_line_values_refuse_a_link_built_on_wigner():
    for name in ("wigner", "coprimepower(2,3,wigner)"):
        with pytest.raises(ValueError, match="no line of codes"):
            line_values(parse_link(name), 4, np.zeros)


#: Composed links that keep their base's label partition and order, and that base.
SHARED_TABLES = [(f"square({kind})", kind) for kind in LINE_KINDS] + [
    ("square(square(hankel))", "hankel"), ("coprimepower(2,3,wigner)", "wigner"),
]


@pytest.mark.parametrize("name,base", SHARED_TABLES)
def test_order_keeping_composed_links_share_their_base_table(name, base):
    link, base_link = parse_link(name), parse_link(base)
    assert table_base(link) == base_link
    for n in range(1, 13):
        codes, k = value_table(link, n)
        base_codes, base_k = value_table(base_link, n)
        assert np.shares_memory(codes, base_codes) and k == base_k
        # the codes the transformed labels get when ranked one by one
        ranks, ranked_k = linkfn._transform_ranks(link, n)
        assert ranked_k == k
        assert np.array_equal(ranks[value_table(link.base, n)[0]], codes)


def test_links_that_may_merge_or_reorder_labels_keep_their_own_table():
    toeplitz = builtin_link("toeplitz")
    merged = compose(table_transform({v: (1 if v == 2 else v) for v in range(8)}), toeplitz)
    for link in (merged, compose(square(), merged)):
        assert table_base(link) == link
        assert value_table(link, 8)[1] == 7
    power = parse_link("coprimepower(2,3,wigner)")
    for link in (parse_link("square(wigner)"), parse_link("coprimepower(2,3,toeplitz)"),
                 compose(coprime_power(2, 3), power), compose(square(), power)):
        assert table_base(link) == link
        with pytest.raises(TransformError):
            value_table(link, 5)


def test_coprime_power_wigner_table_is_a_cache_hit_at_n_1000():
    # ranking its 500,500 labels one by one took 13.6 s and peaked at 131 MB
    wigner = value_table(parse_link("wigner"), 1000)
    tracemalloc.start()
    try:
        composed = value_table(parse_link("coprimepower(2,3,wigner)"), 1000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert composed[0] is wigner[0] and composed[1] == wigner[1]
    assert peak < 2**20


def test_wigner_value_table_holds_no_label_objects():
    # the code matrix (8 MB of int64) is all exact counting needs; building
    # the 500,500 label tuples as well took about 52 MB at n = 1000
    value_table.cache_clear()
    tracemalloc.start()
    try:
        codes, k = value_table(parse_link("wigner"), 1000)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        value_table.cache_clear()
    assert k == 500_500
    assert held < 16 * 2**20


@pytest.mark.parametrize("n", [7, 257, 1000])
def test_value_table_codes_are_int64(n):
    for name in TABLE_LINKS:
        codes, k = value_table(_test_link(name, n), n)
        assert codes.dtype == np.int64, name
        assert int(codes.min()) == 0 and int(codes.max()) == k - 1, name


def test_wigner_value_table_build_peak_stays_small():
    # the int64 code matrix is 8 MB at n = 1000; the build fills it 64 rows
    # at a time and makes no n x n temporaries (an unblocked one peaked at
    # several 8 MB arrays)
    value_table.cache_clear()
    tracemalloc.start()
    try:
        value_table(parse_link("wigner"), 1000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        value_table.cache_clear()
    assert peak < 16 * 2**20


def test_pair_codes_do_not_wrap_on_wigner_pairs_at_n_1000():
    wigner = parse_link("wigner")
    codes, k = value_table(wigner, 1000)
    pairs = pair_codes(codes, codes, k)
    assert pairs.dtype == np.int64
    # k^2 - 1 is about 2.5e11, past the range of 32-bit integers
    assert int(pairs.max()) == k * k - 1
    assert np.array_equal(pairs, codes * (k + 1))
    assert profile_product(wigner, wigner, 1000)[1] == k
