"""Symmetric link functions: the pattern vocabulary for structured matrices.

A link function maps a 1-based index pair (i, j) of an n x n symmetric
matrix to the label of the input variable occupying that cell; cells with
equal labels share one random draw. Everything downstream (matrix
realization, repeat bounds, exact circuit counting) consumes links through
``eval_link`` / ``value_table`` / ``link_labels`` / ``row_delta``.

Built-in links and their label formulas, with d = |i - j| and m = (i + j) mod n:

==============  =======================================
wigner          (min(i, j), max(i, j))
toeplitz        d
hankel          i + j
symcirc         min(d, n - d)
revcirc         m
dsymhankel      min(m, n - m)
==============  =======================================

``_label`` is the one statement of these formulas: ``eval_link`` applies it
to one cell, and the code tables of the kinds but wigner to a whole line of
cells at once, in the same integer arithmetic. It folds ``symcirc`` and
``dsymhankel`` as (n - |n - 2t|) // 2, which equals min(t, n - t) exactly on
0 <= t <= n, for odd n as well, so no rounding can occur.

Links compose with value transforms (``square``, ``coprime_power``,
``table_transform``); a transform changes labels, and only an injective one
is guaranteed to preserve the label partition. ``square`` on integer labels
and ``coprime_power`` on wigner pairs also keep the label order, so such a
link shares its base's code table (``table_base``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Mapping, Optional, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "BUILTIN_KINDS",
    "DIFFERENCE_KINDS",
    "LinkFunction",
    "PowerValue",
    "Transform",
    "TransformError",
    "apply_transform",
    "builtin_link",
    "compose",
    "coprime_power",
    "eval_link",
    "involutions",
    "line_values",
    "link_labels",
    "link_name",
    "pair_codes",
    "parse_link",
    "row_delta",
    "square",
    "table_base",
    "table_transform",
    "value_sort_key",
    "value_table",
]

BUILTIN_KINDS = ("wigner", "toeplitz", "hankel", "symcirc", "revcirc", "dsymhankel")

#: Rows per step of a scan over a code table (``row_delta``, the wigner table's
#: fill, and the row blocks of ``ensemble.product_realization``): a step's
#: temporaries are this many rows long, never n.
BLOCK_ROWS = 64


class TransformError(ValueError):
    """A transform was applied to a value outside its domain."""


@dataclass(frozen=True)
class PowerValue:
    """The label a^i * b^j stored as tagged exponents.

    Kept unevaluated so comparisons never form huge powers; for coprime bases
    a, b >= 2 exponent equality and power equality coincide, which is why the
    constructor of ``coprime_power`` enforces that range.
    """

    base_a: int
    base_b: int
    exp_i: int
    exp_j: int


#: A link label: a non-negative integer, an ordered index pair (a <= b), or a
#: tagged power. Equality is structural; ints and tuples never compare equal.
LinkValue = Union[int, tuple[int, int], PowerValue]


def value_sort_key(value: LinkValue):
    """Total order across label kinds, used for canonical draw order."""
    if isinstance(value, bool):
        raise TypeError("booleans are not link values")
    if isinstance(value, int):
        return (0, (value,))
    if isinstance(value, tuple):
        return (1, value)
    if isinstance(value, PowerValue):
        return (2, (value.base_a, value.base_b, value.exp_i, value.exp_j))
    raise TypeError(f"not a link value: {value!r}")


# --- transforms -------------------------------------------------------------


@dataclass(frozen=True)
class Transform:
    """A map on link labels. It is injective on the labels of a link at n
    when the composed link has as many distinct labels as its base
    (``circuits.check_invariance_containment`` reports this)."""

    kind: str
    bases: Optional[tuple[int, int]] = None
    table: Optional[tuple[tuple, ...]] = None
    #: ``dict(table)``, built once so each label is looked up in O(1).
    _lookup: Optional[dict] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in ("square", "coprimepower", "usertable"):
            raise ValueError(f"unknown transform kind {self.kind!r}")
        if self.table is not None:
            object.__setattr__(self, "_lookup", dict(self.table))


def square() -> Transform:
    """t -> t**2 on scalar labels (injective on the non-negative range)."""
    return Transform("square")


def coprime_power(a: int, b: int) -> Transform:
    """(i, j) -> a^i * b^j on pair labels, stored as a ``PowerValue``.

    Requires coprime a, b >= 2: with a base equal to 1 distinct exponent
    pairs can evaluate to the same power, so the tagged-exponent
    representation would misreport equality.
    """
    for v in (a, b):
        if not isinstance(v, int) or v < 2:
            raise ValueError(f"coprime_power bases must be integers >= 2, got {a}, {b}")
    if math.gcd(a, b) != 1:
        raise ValueError(f"coprime_power bases must be coprime, got {a}, {b}")
    return Transform("coprimepower", bases=(a, b))


def table_transform(mapping: Mapping) -> Transform:
    """Explicit label map."""
    if not mapping:
        raise ValueError("table_transform needs a non-empty mapping")
    items = tuple(sorted(mapping.items(), key=lambda kv: value_sort_key(kv[0])))
    return Transform("usertable", table=items)


def apply_transform(transform: Transform, value: LinkValue) -> LinkValue:
    if transform.kind == "square":
        if isinstance(value, int) and not isinstance(value, bool):
            return value * value
        raise TransformError(f"square is undefined on non-scalar label {value!r}")
    if transform.kind == "coprimepower":
        if isinstance(value, tuple) and len(value) == 2:
            a, b = transform.bases
            return PowerValue(a, b, value[0], value[1])
        raise TransformError(f"coprime_power is undefined on non-pair label {value!r}")
    if value not in transform._lookup:
        raise TransformError(f"table transform is undefined on label {value!r}")
    return transform._lookup[value]


def transform_name(transform: Transform) -> str:
    if transform.kind == "coprimepower":
        a, b = transform.bases
        return f"coprimepower({a},{b})"
    return transform.kind


# --- link functions ---------------------------------------------------------


@dataclass(frozen=True)
class LinkFunction:
    """A built-in link or a transform composed over a base link."""

    kind: str
    transform: Optional[Transform] = None
    base: Optional["LinkFunction"] = None

    def __post_init__(self) -> None:
        if self.kind == "composed":
            if self.transform is None or self.base is None:
                raise ValueError("composed link needs a transform and a base")
        elif self.kind not in BUILTIN_KINDS:
            raise ValueError(f"unknown link kind {self.kind!r}")
        elif self.transform is not None or self.base is not None:
            raise ValueError(f"built-in link {self.kind!r} takes no transform or base")


def builtin_link(kind: str) -> LinkFunction:
    return LinkFunction(kind)


def compose(transform: Transform, base: LinkFunction) -> LinkFunction:
    return LinkFunction("composed", transform=transform, base=base)


def link_name(link: LinkFunction) -> str:
    if link.kind != "composed":
        return link.kind
    inner = link_name(link.base)
    if link.transform.kind == "coprimepower":
        a, b = link.transform.bases
        return f"coprimepower({a},{b},{inner})"
    return f"{link.transform.kind}({inner})"


def parse_link(text: str) -> LinkFunction:
    """Parse ``wigner`` / ... / ``square(toeplitz)`` / ``coprimepower(2,3,wigner)``.

    Table transforms have no textual form; build them programmatically.
    """
    s = text.strip().lower()
    if s in BUILTIN_KINDS:
        return builtin_link(s)
    if s.endswith(")") and "(" in s:
        head, _, rest = s.partition("(")
        args = [a.strip() for a in rest[:-1].split(",")]
        if head == "square" and len(args) == 1:
            return compose(square(), parse_link(args[0]))
        if head == "coprimepower" and len(args) == 3:
            try:
                a, b = int(args[0]), int(args[1])
            except ValueError:
                raise ValueError(f"bad coprimepower bases in link name {text!r}") from None
            return compose(coprime_power(a, b), parse_link(args[2]))
    raise ValueError(f"cannot parse link name {text!r}")


def _check_indices(i: int, j: int, n: int) -> None:
    if n < 1:
        raise ValueError(f"matrix dimension must be >= 1, got {n}")
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"indices ({i}, {j}) outside 1..{n}")


def eval_link(link: LinkFunction, i: int, j: int, n: int) -> LinkValue:
    """Label of cell (i, j), 1-based. Exact integer arithmetic throughout."""
    _check_indices(i, j, n)
    if link.kind == "composed":
        return apply_transform(link.transform, eval_link(link.base, i, j, n))
    return _label(link.kind, i, j, n)


#: Labels of these built-in kinds depend on i - j only, of the others but
#: wigner on i + j only; slope counting (``circuits.count_pi_prime``) is
#: defined for these.
DIFFERENCE_KINDS = ("toeplitz", "symcirc")


def _label(kind: str, i, j, n: int):
    """Label of cell (i, j) of a built-in kind: the pair (min, max) for
    wigner, else t = |i - j| or i + j, taken mod n for revcirc and
    dsymhankel, then folded to min(t, n - t) for symcirc and dsymhankel.
    Every kind but wigner takes Python ints or int64 arrays alike."""
    if kind == "wigner":
        return (min(i, j), max(i, j))
    t = abs(i - j) if kind in DIFFERENCE_KINDS else i + j
    if kind in ("revcirc", "dsymhankel"):
        t = t % n
    if kind in ("symcirc", "dsymhankel"):
        t = (n - abs(n - 2 * t)) // 2
    return t


def _base_kind(link: LinkFunction) -> str:
    while link.kind == "composed":
        link = link.base
    return link.kind


#: Index involutions that leave a built-in kind's code table unchanged at
#: every even n: "H", the half shift i -> i + n/2 (mod n), and "J", the
#: reversal i -> n + 1 - i. Kinds not listed (wigner, hankel) admit neither.
INVOLUTIONS = {"toeplitz": "J", "symcirc": "HJ", "revcirc": "H", "dsymhankel": "H"}


def involutions(link: LinkFunction) -> str:
    """The involutions of ``INVOLUTIONS`` that ``link`` admits at even n.

    A composed link admits those of its base kind: its labels are a function
    of its base's labels, so cells the involution maps onto each other keep
    sharing a label.
    """
    return INVOLUTIONS.get(_base_kind(link), "")


def table_base(link: LinkFunction) -> LinkFunction:
    """The link whose code table and label equalities ``link`` shares.

    That is ``link`` itself, or, when its transform is injective and keeps
    the order of its base's labels, its base's ``table_base``: ``square`` on
    the non-negative integer labels of a built-in link other than wigner
    (squared any number of times), and ``coprime_power`` on wigner pairs,
    whose ``PowerValue`` labels sort as the pairs do.
    """
    if link.kind != "composed":
        return link
    base = table_base(link.base)
    if link.transform.kind == "square":
        keeps = base.kind not in ("composed", "wigner")
    else:
        keeps = link.transform.kind == "coprimepower" and link.base.kind == "wigner"
    return base if keeps else link


def _transform_ranks(link: LinkFunction, n: int) -> tuple[np.ndarray, int]:
    """Code of the composed ``link`` for each code of its base, and k."""
    keys = [
        value_sort_key(apply_transform(link.transform, v))
        for v in link_labels(link.base, n)
    ]
    rank = {key: t for t, key in enumerate(sorted(set(keys)))}
    k = len(rank)
    return np.array([rank[key] for key in keys], dtype=np.int64), k


def _code_line(link: LinkFunction, n: int) -> tuple[np.ndarray, int]:
    """Codes of a link not built on wigner along its line of 2n - 1 cells.

    Position p of the line holds the code of the cells with j - i = p - n + 1
    (toeplitz, symcirc) or with i + j = p + 2 (hankel, revcirc, dsymhankel),
    1-based: the label of cell (n, p + 1) or (p + 1, 1), whichever the kind
    reads, less the line's least label.
    """
    if link.kind == "composed":
        base_line, _ = _code_line(link.base, n)
        ranks, k = _transform_ranks(link, n)
        return ranks[base_line], k
    q = np.arange(1, 2 * n, dtype=np.int64)
    line = _label(link.kind, *((n, q) if link.kind in DIFFERENCE_KINDS else (q, 1)), n)
    line -= line.min()
    return line, int(line.max()) + 1


def _line_table(link: LinkFunction, line: np.ndarray) -> np.ndarray:
    """The read-only n x n view of ``line`` (2n - 1 entries of any dtype) that
    ``link``'s table is of its code line: row i is window i of the line, or
    window n - 1 - i for a difference kind."""
    table = sliding_window_view(line, (line.size + 1) // 2)
    return table[::-1] if _base_kind(link) in DIFFERENCE_KINDS else table


def line_values(link: LinkFunction, n: int,
                draw: Callable[[int], np.ndarray]) -> np.ndarray:
    """``draw(k)[codes]`` for the code table of a link not built on wigner,
    made the way that table is: a read-only n x n view of one line of 2n - 1
    values, so a block of it copies without a gather. k, the number of
    distinct labels, is read from the line, so no table is built."""
    base = table_base(link)
    if _base_kind(base) == "wigner":
        raise ValueError(f"{link_name(link)} has no line of codes")
    line, k = _code_line(base, n)
    return _line_table(base, draw(k)[line])


@lru_cache(maxsize=64)
def value_table(link: LinkFunction, n: int) -> tuple[np.ndarray, int]:
    """All cell labels at dimension n, as (codes, k).

    ``codes`` is the n x n int64 array of label ranks: cells share a code
    exactly when they share a label, and code t is the t-th smallest of the
    k distinct labels in canonical order. The code matrix is all that
    circuit counting consumes; ``link_labels`` gives the label objects
    themselves.

    A link not built on wigner labels a cell by i - j or by i + j alone, so
    its table is a strided view of one line of 2n - 1 codes: row i is a
    window of the line, and the table takes O(n) memory. Tables built on
    wigner are dense n x n arrays, filled ``BLOCK_ROWS`` rows at a time.
    Only exact counting, the label-pair counts of the relation checks and
    ``row_delta`` of a link not built on wigner ask for a table: realization
    (``ensemble.product_realization``) draws a line factor through
    ``line_values`` and streams the draws of a factor built on wigner.

    Results are cached (a sweep counts many words on the same table) and the
    code matrix is returned read-only for that reason. A link whose
    ``table_base`` is another link returns that link's cached table.
    """
    if n < 1:
        raise ValueError(f"matrix dimension must be >= 1, got {n}")
    base = table_base(link)
    if base is not link:
        return value_table(base, n)
    if _base_kind(link) != "wigner":
        line, k = _code_line(link, n)
        return _line_table(link, line), k
    if link.kind == "wigner":
        # The label of cell (a, b), 0-based with a <= b, is the index pair
        # itself, so its code is the rank of (a, b) in the row-major order of
        # the upper triangle: code(a, b) = a n - a (a - 1) / 2 + (b - a). That
        # is off[a] + b with off[a] = a n - a (a + 1) / 2, and a cell below the
        # diagonal takes the code of its mirror: off[min] + max.
        k = n * (n + 1) // 2
        codes = np.empty((n, n), dtype=np.int64)
        t = np.arange(n, dtype=np.int64)
        off = t * n - t * (t + 1) // 2
        for lo in range(0, n, BLOCK_ROWS):
            rows = t[lo : lo + BLOCK_ROWS, None]
            np.add(off[np.minimum(rows, t)], np.maximum(rows, t), out=codes[lo : lo + BLOCK_ROWS])
    else:
        base_codes, _ = value_table(link.base, n)
        ranks, k = _transform_ranks(link, n)
        codes = ranks[base_codes]
    codes.setflags(write=False)
    return codes, k


def pair_codes(codes_x: np.ndarray, codes_y: np.ndarray, k_y: int) -> np.ndarray:
    """Codes of the cell label pairs (L_X, L_Y), as int64 ``x * k_y + y``.

    They rank the pairs lexicographically; k_y^2, about 2.5e11 for wigner at
    n = 1000, is far inside int64.
    """
    return codes_x * k_y + codes_y


def link_labels(link: LinkFunction, n: int) -> list:
    """The distinct labels at dimension n in ascending canonical order.

    ``link_labels(link, n)[t]`` is the label of every cell with code t in
    ``value_table(link, n)``, read off one such cell with ``eval_link``.
    """
    codes, _ = value_table(link, n)
    wigner = _base_kind(link) == "wigner"
    # The first and last rows of a line table hold every window position.
    _, first = np.unique(codes if wigner else codes[[0, -1]], return_index=True)
    rows, cols = np.divmod(first, n)
    if not wigner:
        rows *= n - 1
    return [eval_link(link, i + 1, j + 1, n) for i, j in zip(rows.tolist(), cols.tolist())]


def row_delta(link: LinkFunction, n: int) -> int:
    """Most repeats of one label within a row of ``link`` at n, the paper's
    Delta. A pair label (L_X, L_Y) repeats in a row no more often than
    either label does, so min(delta_X, delta_Y) bounds the delta of a product.

    A link whose ``table_base`` is wigner has delta 1: row i labels cell j by
    {i, j}, so no label repeats within a row. Any other code table is scanned
    ``BLOCK_ROWS`` rows at a time, so that no n x n temporary is made.
    """
    if table_base(link).kind == "wigner":
        return 1
    codes, _ = value_table(link, n)
    delta = 1
    for lo in range(0, n, BLOCK_ROWS):
        ordered = np.sort(codes[lo : lo + BLOCK_ROWS], axis=1)
        # A label repeated r times in a sorted row fills r adjacent cells, so
        # column j equals column j + r - 1: test r = delta + 1, delta + 2, ...
        while delta < n and (ordered[:, delta:] == ordered[:, :-delta]).any():
            delta += 1
    return delta
