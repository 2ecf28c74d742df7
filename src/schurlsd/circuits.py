"""Exact counting of link-constrained circuits and exact per-word limits.

A circuit of length h at dimension n is a closed index path pi(0..h),
pi(0) = pi(h), with vertices in 1..n. For a word w the matched circuit class
of a link L contains the circuits whose matched positions carry equal
L-labels (positions i, j with w[i] = w[j] force L(pi(i-1), pi(i)) =
L(pi(j-1), pi(j))); the slope variant instead forces s(i) + s(j) = 0 (up to
+-n for the circulant fold), with s(i) = pi(i) - pi(i-1).

Both are counted by one constraint class (``_LinkSystem``) over an n x n
code table: a letter's first occurrence records the code of its edge read
backwards, each later occurrence reads it forwards. On a link's symmetric
table (``linkfn.value_table``) that is label equality; on a signed slope
table (``_slope_table``) it is s(j) = -s(i), Bryc, Dembo & Jiang's Pi'.

Counting walks positions left to right. A vertex is a free n-way choice at
generating positions; elsewhere it is restricted to the columns of the
current row holding the required code, which a per-(row, code) index
bounds by the table's row repeat bound. The walk is vectorized over frontier
states and split into chunks whenever the next expansion would exceed the
row cap (``MAX_FRONTIER_ROWS``, 100,000 rows), so memory stays bounded while
counts remain exact integers.

Every link is symmetric, L(i, j) = L(j, i), and value transforms keep that.
Reading a circuit from another start, or backwards, is a bijection onto the
circuits of the rotated or reversed word (slopes change sign, which keeps
s(i) + s(j) in {0, +-n}); applied to all words of a joint tuple at once, it
maps the intersection of classes onto that of the images. So a class count
is the same for all 2h dihedral images of its word tuple
(``words.dihedral_images``). A count walks the image with the least planned
frontier work, and the sweeps (``p_table``, the relation and invariance
checks) count one tuple per orbit (``per_orbit``): the 210 off-diagonal
order-6 word pairs fall into 34 orbits, the 15 words into 5.

``limit`` gives the exact limit of the class of one word or of a word pair
in two steps. First a dimension count, the discrete form of the volume
argument by which Bryc, Dembo & Jiang show words have limit 0, and the one
by which compatibility is proved: each label equality is a finite union of
affine equations in the h path vertices (``LABEL_BRANCHES``), and a choice
of one branch per matched pair whose equations have rank >= h - k
(k = h // 2) leaves at most n^k circuits, so if every choice does, the
limit of count / n^(k + 1) is 0. Otherwise the class count is a
quasi-polynomial in n of degree k + 1: it counts lattice points of polytopes
whose facets move linearly with n (Ehrhart theory), so on each residue class
of n mod some period it is a polynomial, and its leading coefficient, the
limit, is recovered as an exact rational from counts at small n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .linkfn import DIFFERENCE_KINDS, LinkFunction, link_name, pair_codes, parse_link
from .linkfn import table_base, value_table
from .words import Word, canonicalize, dihedral_images, enumerate_pair_matched, is_catalan
from .words import is_pair_matched, orbit_key

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "CircuitClassCount",
    "ExactLimit",
    "InvarianceEntry",
    "InvarianceReport",
    "RelationEntry",
    "RelationReport",
    "SearchBudgetError",
    "check_compatible",
    "check_implies_wigner",
    "check_invariance_containment",
    "check_leadsto_wigner",
    "count_pi_prime",
    "count_pi_star",
    "count_pi_star_joint",
    "fit_quasi_polynomial",
    "limit",
    "p_table",
    "per_orbit",
]

NODE_BUDGET = 1_000_000_000
#: Frontier rows one expansion may make before the frontier is split. At
#: 2,000,000 the order-6 ``leadsto`` sweep on symcirc*dsymhankel peaked at
#: 105 MB resident, at 100,000 it peaks at 42 MB in the same wall time.
MAX_FRONTIER_ROWS = 100_000
#: Orders of the relation and invariance sweeps: at order 2 the only word
#: is ``aa``, so a sweep there would compare nothing.
MIN_SWEEP_ORDER = 4
MAX_SWEEP_ORDER = 6
MAX_IMPLIES_DIM = 64
#: Largest period of n tried when fitting class counts to a quasi-polynomial.
#: Every built-in link has period 1 or 2 up to order 6.
MAX_PERIOD = 4
#: Points per residue class, beyond the fit, that the fitted polynomial must
#: reproduce exactly before its leading coefficient is accepted.
HELD_OUT = 3

#: L(a, b) = L(c, d) for a built-in link kind, as a union of branches. A
#: branch is a tuple of equations (coefficients of (a, b, c, d), values): the
#: form must equal v * n for one of the values v. Only the coefficients enter
#: the rank; the values count the affine pieces of a branch.
LABEL_BRANCHES = {
    "wigner": (
        (((1, 0, -1, 0), (0,)), ((0, 1, 0, -1), (0,))),
        (((1, 0, 0, -1), (0,)), ((0, 1, -1, 0), (0,))),
    ),
    "toeplitz": ((((1, -1, -1, 1), (0,)),), (((1, -1, 1, -1), (0,)),)),
    "symcirc": ((((1, -1, -1, 1), (0, 1, -1)),), (((1, -1, 1, -1), (0, 1, -1)),)),
    "hankel": ((((1, 1, -1, -1), (0,)),),),
    "revcirc": ((((1, 1, -1, -1), (0, 1, -1)),),),
    "dsymhankel": ((((1, 1, -1, -1), (0, 1, -1)),), (((1, 1, 1, 1), (1, 2, 3, 4)),)),
}


class SearchBudgetError(RuntimeError):
    """The requested count would exceed the enumeration budget."""


@dataclass(frozen=True)
class CircuitClassCount:
    """Exact size of one matched circuit class.

    count / n**(1 + h/2) is the finite-n ratio whose n -> infinity limit is
    the word's contribution to a moment.
    """

    link: str
    word: Word
    n: int
    count: int
    link2: Optional[str] = None
    word2: Optional[Word] = None


@dataclass(frozen=True)
class ExactLimit:
    """Exact per-word limit and its proof.

    ``proof`` "fit": on each residue class of n mod ``period`` the counts at
    n in ``ns`` (an inclusive range) agree with one polynomial of degree
    k + 1 (k = h // 2 for words of length h), fitted on the first k + 2
    points of the class and reproducing the last ``HELD_OUT`` exactly; ``p``
    is the leading coefficient all classes share.

    ``proof`` "rank": ``p`` is 0 because every branch choice has rank
    >= h - k, so the class has at most ``bound`` * n^k circuits at every n.

    ``nodes`` counts the branch choices the rank walk visited (0 when it did
    not run).
    """

    p: "Fraction"
    period: Optional[int] = None
    ns: Optional[tuple[int, int]] = None
    proof: str = "fit"
    bound: Optional[int] = None
    nodes: int = 0


# --- constraint system ------------------------------------------------------


class _LinkSystem:
    """Code-equality constraints over one n x n code table with k codes.

    Holds the table plus, per row, the columns grouped by code (CSR layout),
    so "columns of row r with code t" is a slice. A first occurrence records
    ``codes[v, prev]``, the code of its edge read backwards.
    """

    def __init__(self, codes: np.ndarray, k: int):
        n = codes.shape[0]
        if n * (k + 1) > 200_000_000:
            raise SearchBudgetError(
                f"per-row label index needs {n * (k + 1):.2g} cells at n={n}"
            )
        self.n = n
        self.codes = codes
        counts = np.bincount(
            (np.arange(n, dtype=np.int64)[:, None] * k + codes).ravel(),
            minlength=n * k,
        ).reshape(n, k)
        indptr = np.zeros((n, k + 1), dtype=np.int64)
        np.cumsum(counts, axis=1, out=indptr[:, 1:])
        self.indptr = indptr
        self.cols = np.argsort(codes, axis=1, kind="stable")
        self.branch_bound = int(counts.max())

    def record(self, prev: np.ndarray, v: np.ndarray) -> np.ndarray:
        return self.codes[v, prev]

    def expand(self, prev: np.ndarray, stored: np.ndarray):
        start = self.indptr[prev, stored]
        lens = self.indptr[prev, stored + 1] - start
        total = int(lens.sum())
        idx = np.repeat(np.arange(prev.size, dtype=np.int64), lens)
        if total == 0:
            return idx, np.empty(0, dtype=np.int64)
        offs = np.arange(total, dtype=np.int64) - np.repeat(np.cumsum(lens) - lens, lens)
        flat = np.repeat(prev * self.n + start, lens) + offs
        return idx, self.cols.ravel()[flat]

    def check(self, prev: np.ndarray, v: np.ndarray, stored: np.ndarray) -> np.ndarray:
        return self.codes[prev, v] == stored


def _slope_table(kind: str, n: int) -> tuple[np.ndarray, int]:
    """Signed slope codes of a difference kind at n, as (codes, k).

    Cell (a, b) holds the code of b - a for toeplitz (k = 2n - 1), of
    (b - a) mod n for symcirc (k = n): a read-only window view of one line
    of 2n - 1 codes, row a being window n - 1 - a.
    """
    s = np.arange(1 - n, n, dtype=np.int64)
    line, k = (s + n - 1, 2 * n - 1) if kind == "toeplitz" else (s % n, n)
    return sliding_window_view(line, n)[::-1], k


def _plan(words, systems, n: int):
    """Walk plan of one word tuple: per-position actions, branch bounds and cost.

    ``acts_by_pos[pos - 1]`` lists (system index, letter, first occurrence)
    per word; ``bounds`` is the frontier growth factor per position (n at a
    free position, the tightest requiring system's row repeat bound
    elsewhere, 1 at the closing position), and ``work`` the frontier rows the
    walk plans: the sum over positions of n times the running product of
    ``bounds``.
    """
    h = words[0].h
    first = [{} for _ in systems]
    last = [{} for _ in systems]
    for si, w in enumerate(words):
        for pos, x in enumerate(w.letters, start=1):
            first[si].setdefault(x, pos)
            last[si][x] = pos

    acts_by_pos = []
    bounds = []
    free_positions = 0
    rows, work = n, 0
    for pos in range(1, h + 1):
        acts = [
            (si, w.letters[pos - 1], first[si][w.letters[pos - 1]] == pos)
            for si, w in enumerate(words)
        ]
        reqs = [si for si, _, rec in acts if not rec]
        acts_by_pos.append(acts)
        if pos == h:
            bounds.append(1)
        elif reqs:
            bounds.append(min(systems[si].branch_bound for si in reqs))
        else:
            bounds.append(n)
            free_positions += 1
        rows *= bounds[-1]
        work += rows
    return work, acts_by_pos, bounds, last, free_positions


def _count_constrained(words, systems, n: int) -> int:
    """Count circuits satisfying every system's constraints for its word.

    All words share length h. The count is the same for every dihedral image
    of the word tuple (``dihedral_images``), so the walk runs on the image
    with the least planned frontier work, ties going to the
    lexicographically least image.
    """
    cheapest = min(
        dihedral_images(words),
        key=lambda ws: (_plan(ws, systems, n)[0], [w.letters for w in ws]),
    )
    return _enumerate(cheapest, systems, n)


def _check_budget(n: int, free_vertices: int) -> None:
    """``SearchBudgetError`` when a walk over ``free_vertices`` vertices in
    1..n would exceed ``NODE_BUDGET`` search nodes."""
    est = float(n) ** free_vertices
    if est > NODE_BUDGET:
        raise SearchBudgetError(
            f"estimated {est:.3g} search nodes at n={n} with "
            f"{free_vertices} free vertices exceed budget {NODE_BUDGET:.0g}"
        )


def _enumerate(words, systems, n: int) -> int:
    """Count the circuits of one word tuple by walking its positions in order.

    A frontier whose next expansion would exceed ``MAX_FRONTIER_ROWS`` rows is
    split into chunks first.

    Vertices are 0-based internally and code tables are indexed 0-based, so
    counts match the 1-based definition exactly.
    """
    h = words[0].h
    _, plans, bounds, last, free_positions = _plan(words, systems, n)
    _check_budget(n, free_positions + 1)

    def step(frontier, pos):
        acts = plans[pos - 1]
        prev = frontier["prev"]
        if pos == h:
            v = frontier["pi0"]
            mask = np.ones(prev.size, dtype=bool)
            for si, x, rec in acts:
                if not rec:
                    mask &= systems[si].check(prev, v, frontier[(si, x)])
            return None, int(np.count_nonzero(mask))

        reqs = [(si, x) for si, x, rec in acts if not rec]
        if reqs:
            gsi, gx = min(reqs, key=lambda r: systems[r[0]].branch_bound)
            idx, v = systems[gsi].expand(prev, frontier[(gsi, gx)])
            mask = None
            for si, x in reqs:
                if (si, x) == (gsi, gx):
                    continue
                m = systems[si].check(prev[idx], v, frontier[(si, x)][idx])
                mask = m if mask is None else mask & m
            if mask is not None:
                idx, v = idx[mask], v[mask]
        else:
            idx = np.repeat(np.arange(prev.size, dtype=np.int64), n)
            v = np.tile(np.arange(n, dtype=np.int64), prev.size)

        new = {}
        for key, arr in frontier.items():
            if key == "prev":
                continue
            if key == "pi0" or last[key[0]][key[1]] > pos:
                new[key] = arr[idx]
        prev_sel = prev[idx]
        for si, x, rec in acts:
            if rec and last[si][x] > pos:
                new[(si, x)] = systems[si].record(prev_sel, v)
        new["prev"] = v
        return new, None

    # Depth-first over (frontier, position, row range) items. An oversized
    # frontier is split by pushing its chunk bounds, and a chunk is a view of
    # its parent's rows, so no frontier is copied before it is expanded.
    start = np.arange(n, dtype=np.int64)
    stack = [({"pi0": start, "prev": start.copy()}, 1, 0, n)]
    total = 0
    while stack:
        frontier, pos, lo, hi = stack.pop()
        rows = hi - lo
        if rows == 0:
            continue
        if pos < h and rows > 1 and rows * bounds[pos - 1] > MAX_FRONTIER_ROWS:
            parts = min(rows, math.ceil(rows * bounds[pos - 1] / MAX_FRONTIER_ROWS))
            size, extra = divmod(rows, parts)
            edges = [lo + p * size + min(p, extra) for p in range(parts + 1)]
            stack.extend((frontier, pos, edges[p], edges[p + 1]) for p in reversed(range(parts)))
            continue
        new, count = step({k: a[lo:hi] for k, a in frontier.items()}, pos)
        if count is None:
            stack.append((new, pos + 1, 0, new["prev"].size))
        else:
            total += count
    return total


# --- public counting ops ----------------------------------------------------


def _as_link(link) -> LinkFunction:
    return parse_link(link) if isinstance(link, str) else link


def _as_word(word) -> Word:
    return word if isinstance(word, Word) else canonicalize(word)


def _class(links, words) -> tuple[tuple[LinkFunction, ...], tuple[Word, ...]]:
    """The links and words of one circuit class, parsed and checked."""
    links = tuple(_as_link(link) for link in links)
    words = tuple(_as_word(word) for word in words)
    if len(links) != len(words):
        raise ValueError(f"{len(links)} links for {len(words)} words")
    if len({w.h for w in words}) > 1:
        raise ValueError("word lengths differ: " + ", ".join(f"{w} has {w.h}" for w in words))
    return links, words


def _class_count(links, words, n: int, table: Callable = value_table) -> CircuitClassCount:
    """Size of the class of ``words`` under ``links`` at dimension n, each
    word constrained by the code table ``table(link, n)`` of its link."""
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    count = _count_constrained(words, [_LinkSystem(*table(link, n)) for link in links], n)
    names = [link_name(link) for link in links]
    return CircuitClassCount(names[0], words[0], n, count, *names[1:], *words[1:])


def count_pi_star(link, word, n: int) -> CircuitClassCount:
    """Exact size of the matched circuit class of ``word`` under ``link``."""
    return _class_count(*_class([link], [word]), n)


def count_pi_prime(link, word, n: int) -> CircuitClassCount:
    """Exact size of the slope-constrained circuit class (pair-matched words).

    Defined for the links whose label equality reduces to slope sums:
    ``toeplitz`` (s(i) + s(j) = 0) and ``symcirc`` (s(i) + s(j) in {0, +-n}),
    counted over the link's signed slope table (``_slope_table``).
    """
    links, words = _class([link], [word])
    if links[0].kind not in DIFFERENCE_KINDS:
        raise ValueError(
            f"slope counting is defined for {DIFFERENCE_KINDS}, got {link_name(links[0])}"
        )
    if not is_pair_matched(words[0]):
        raise ValueError(f"slope counting needs a pair-matched word, got {words[0]}")
    return _class_count(links, words, n, lambda fn, m: _slope_table(fn.kind, m))


def count_pi_star_joint(link_x, link_y, word_x, word_y, n: int) -> CircuitClassCount:
    """Exact size of the intersection of two matched circuit classes.

    At a position constrained by both words the expansion uses whichever
    link has the smaller row repeat bound and the other acts as a filter.
    """
    return _class_count(*_class([link_x, link_y], [word_x, word_y]), n)


# --- exact limits and relation checks ----------------------------------------------


def fit_quasi_polynomial(count: Callable[[int], int], degree: int) -> ExactLimit:
    """Leading coefficient of an exact count sequence that is a quasi-polynomial.

    Counts ``count(n)`` at n = 1, 2, ... and after each new n tries the
    periods 1..``MAX_PERIOD`` on the latest window of ``degree`` + 1 +
    ``HELD_OUT`` points per residue class. Sampled at n0, n0 + P, ..., a
    polynomial of degree d has constant d-th differences, equal to
    d! * P^d times its leading coefficient, so a class fits exactly when its
    d-th differences over the window are all equal (the first d + 1 points
    fix the polynomial, the held-out points must be reproduced). Earlier
    points may precede the quasi-polynomial regime and are not used. Raises
    ``SearchBudgetError`` when nothing fits by n = 2 * MAX_PERIOD * (window
    size); there is no approximate fallback.
    """
    from fractions import Fraction  # kept off the import path of the CLI

    per_class = degree + 1 + HELD_OUT
    n_cap = 2 * MAX_PERIOD * per_class
    seen: list[int] = []
    for n in range(1, n_cap + 1):
        seen.append(int(count(n)))
        for period in range(1, MAX_PERIOD + 1):
            span = period * per_class
            if span > n:
                break
            leads = set()
            for r in range(period):
                diffs = seen[n - span + r :: period]
                for _ in range(degree):
                    diffs = [b - a for a, b in zip(diffs, diffs[1:])]
                if any(x != diffs[0] for x in diffs):
                    break
                leads.add(diffs[0])
            else:
                if len(leads) == 1:
                    lead = Fraction(leads.pop(), math.factorial(degree) * period**degree)
                    return ExactLimit(p=lead, period=period, ns=(n - span + 1, n))
    raise SearchBudgetError(
        f"counts at n = 1..{n_cap} fit no quasi-polynomial of degree {degree} "
        f"with period <= {MAX_PERIOD} on {HELD_OUT} held-out points per class"
    )


def _branch_kind(link: LinkFunction) -> Optional[str]:
    """The built-in kind whose ``LABEL_BRANCHES`` give this link's label
    equality: that of its ``table_base``, which shares its label partition.
    None when that is a composed link."""
    kind = table_base(link).kind
    return None if kind == "composed" else kind


def _reduce(basis: list, v: list) -> Optional[tuple]:
    """``v`` reduced against an echelon ``basis`` of (pivot, row) pairs: the
    new (pivot, row), or None when ``v`` lies in the basis's span.

    Each row is zero at the pivots of the rows before it, so eliminating the
    pivots in order leaves them all zero; integer rows are kept exact by
    cross-multiplying and dividing out the gcd.
    """
    for c, row in basis:
        if v[c]:
            v = [row[c] * x - v[c] * y for x, y in zip(v, row)]
    g = math.gcd(*v)
    if g == 0:
        return None
    v = [x // g for x in v]
    return next(c for c, x in enumerate(v) if x), v


def _rank_certificate(words, kinds) -> tuple[Optional[int], int]:
    """Dimension count of a class over the path vertices pi(0..h-1).

    Each matched pair (i, j) of a word, under its link kind, contributes
    ``LABEL_BRANCHES`` on the edges (a, b) = (pi(i-1), pi(i)) and
    (c, d) = (pi(j-1), pi(j)). A depth-first walk picks one branch per pair
    and prunes once the picked equations reach rank h - k (k = h // 2, so
    ceil(h / 2)): an affine piece of rank r has at most n^(h - r) <= n^k
    points, and every circuit of the class lies in the pieces of some pruned
    node. Returns (bound, nodes): ``bound`` is the number of such pieces (the
    class has at most bound * n^k circuits) or None when some full branch
    choice stays below rank h - k; ``nodes`` counts the nodes visited.
    """
    h = words[0].h
    constraints = []
    for w, kind in zip(words, kinds):
        first: dict = {}
        for j, x in enumerate(w.letters, start=1):
            i = first.setdefault(x, j)
            if i < j:
                ends = (i - 1, i % h, j - 1, j % h)  # adjacent edges share a vertex
                constraints.append([
                    [([sum(c for e, c in zip(ends, coeffs) if e == t) for t in range(h)],
                      len(values)) for coeffs, values in branch]
                    for branch in LABEL_BRANCHES[kind]
                ])
    constraints.sort(key=len)  # forced (one-branch) equations first

    bound = nodes = 0
    stack = [(0, [], 1)]  # (constraints decided, echelon basis, affine pieces)
    while stack:
        depth, basis, pieces = stack.pop()
        nodes += 1
        if len(basis) >= h - h // 2:
            bound += pieces
        elif depth == len(constraints):
            return None, nodes
        else:
            for equations in constraints[depth]:
                picked, count = basis, pieces
                for v, values in equations:
                    row = _reduce(picked, v)
                    if row is not None:
                        picked = picked + [row]
                    count *= values
                stack.append((depth + 1, picked, count))
    return bound, nodes


def limit(links, words, variant: str = "star") -> ExactLimit:
    """Exact limit of a class count / n^(k+1) as n -> infinity, k = h // 2.

    ``links`` and ``words`` are equal-length tuples: one link and word count
    with ``count_pi_star`` (``count_pi_prime`` for ``variant`` "prime"), two
    with ``count_pi_star_joint``. A "star" class whose links all have label
    branches first tries the rank certificate (``_rank_certificate``; proof
    "rank", p = 0); any other class, and one the certificate leaves open, is
    fitted (proof "fit"). A class that neither settles raises
    ``SearchBudgetError`` naming it.
    """
    from fractions import Fraction  # kept off the import path of the CLI

    links, words = _class(links, words)
    count = {("star", 1): count_pi_star, ("star", 2): count_pi_star_joint,
             ("prime", 1): count_pi_prime}.get((variant, len(links)))
    if count is None:
        raise ValueError(f"no {variant!r} count for {len(links)} links")
    kinds = tuple(_branch_kind(link) for link in links)
    nodes = 0
    if variant == "star" and None not in kinds:
        bound, nodes = _rank_certificate(words, kinds)
        if bound is not None:
            return ExactLimit(Fraction(0), proof="rank", bound=bound, nodes=nodes)
    try:
        fit = fit_quasi_polynomial(lambda n: count(*links, *words, n).count, words[0].h // 2 + 1)
    except SearchBudgetError as exc:
        name = "*".join(link_name(link) for link in links)
        label = "word" if len(words) == 1 else "words"
        raise SearchBudgetError(f"{name} {label} {', '.join(map(str, words))}: {exc}") from exc
    return ExactLimit(fit.p, fit.period, fit.ns, nodes=nodes)


def per_orbit(seen: dict, compute: Callable, *words):
    """``compute(*words)`` for the first word tuple of each dihedral orbit,
    reused for the rest.

    Every image of a tuple has a class of the same size (``dihedral_images``),
    so anything computed from class counts is shared across the orbit. The
    caller keeps ``seen`` for one sweep, with one ``compute``; nothing is
    cached across sweeps.
    """
    key = orbit_key(words)
    if key not in seen:
        seen[key] = compute(*words)
    return seen[key]


def p_table(link, two_k: int) -> dict:
    """Exact per-word limits (``ExactLimit``) for all pair-matched words of
    length 2k, computed once per dihedral orbit of words."""
    seen: dict = {}
    return {
        w: per_orbit(seen, lambda u: limit((link,), (u,)), w)
        for w in enumerate_pair_matched(two_k)
    }


def _distinct_count(codes: np.ndarray) -> int:
    """Number of distinct entries of a non-empty integer array, from a
    sorted copy. ``np.unique`` would also do, but on numpy 2 it imports
    ``numpy.ma`` to ask whether its input is masked."""
    ordered = np.sort(codes, axis=None)
    return int(np.count_nonzero(ordered[1:] != ordered[:-1])) + 1


def check_implies_wigner(link_x, link_y, n: int) -> bool:
    """Do joint label equalities force index-pair equality at dimension n?

    True when every cell class of the label pair (L_X, L_Y) is contained in
    {(i, j), (j, i)} for a single unordered pair. Both links are symmetric,
    so every class is a union of such pairs, and each class holds exactly one
    of the n(n + 1)/2 pairs when there are that many classes.
    """
    if not 1 <= n <= MAX_IMPLIES_DIM:
        raise ValueError(f"dimension must be in 1..{MAX_IMPLIES_DIM}, got {n}")
    codes_x, _ = value_table(_as_link(link_x), n)
    codes_y, k_y = value_table(_as_link(link_y), n)
    return _distinct_count(pair_codes(codes_x, codes_y, k_y)) == n * (n + 1) // 2


@dataclass(frozen=True)
class RelationEntry:
    word: Word
    word2: Word
    limit: ExactLimit
    expected: int
    passed: bool


@dataclass(frozen=True)
class RelationReport:
    kind: str
    link_x: str
    link_y: str
    two_k: int
    entries: tuple[RelationEntry, ...]
    #: Distinct circuit classes: one per dihedral orbit of word pairs.
    classes: int
    #: Rank-walk nodes visited over all classes.
    nodes: int
    #: Proof tag -> number of classes settled by it.
    proofs: dict

    @property
    def all_pass(self) -> bool:
        return all(e.passed for e in self.entries)


def _sweep_order(two_k: int) -> None:
    if two_k % 2 != 0 or not MIN_SWEEP_ORDER <= two_k <= MAX_SWEEP_ORDER:
        raise ValueError(f"sweeps cover even orders {MIN_SWEEP_ORDER}..{MAX_SWEEP_ORDER}: {two_k}")


def _relation(kind: str, link_x, link_y, two_k: int, cases) -> RelationReport:
    """Joint limits of (word, word2, expected) ``cases``, one per orbit; an
    entry passes when its exact limit equals the expected value."""
    seen: dict = {}
    entries = []
    for wx, wy, expected in cases:
        lim = per_orbit(seen, lambda u, v: limit((link_x, link_y), (u, v)), wx, wy)
        entries.append(RelationEntry(wx, wy, lim, expected, lim.p == expected))
    limits = seen.values()
    return RelationReport(
        kind=kind,
        link_x=link_name(_as_link(link_x)),
        link_y=link_name(_as_link(link_y)),
        two_k=two_k,
        entries=tuple(entries),
        classes=len(seen),
        nodes=sum(lim.nodes for lim in limits),
        proofs={tag: sum(lim.proof == tag for lim in limits) for tag in ("rank", "fit")},
    )


def check_compatible(link_x, link_y, two_k: int) -> RelationReport:
    """Off-diagonal joint limits must vanish for a compatible link pair."""
    _sweep_order(two_k)
    ws = enumerate_pair_matched(two_k)
    cases = [(wx, wy, 0) for wx in ws for wy in ws if wx != wy]
    return _relation("compatible", link_x, link_y, two_k, cases)


def check_leadsto_wigner(link_x, link_y, two_k: int) -> RelationReport:
    """Diagonal joint limits must equal the non-crossing indicator (1 for
    Catalan words, 0 otherwise) when the product's limit is the semicircle."""
    _sweep_order(two_k)
    cases = [(w, w, int(is_catalan(w))) for w in enumerate_pair_matched(two_k)]
    return _relation("leadsto", link_x, link_y, two_k, cases)


@dataclass(frozen=True)
class InvarianceEntry:
    word: Word
    count_base: int
    count_composed: int
    count_joint: int
    subset_ok: bool
    counts_equal: bool


@dataclass(frozen=True)
class InvarianceReport:
    link: str
    composed: str
    two_k: int
    n: int
    injective: bool
    entries: tuple[InvarianceEntry, ...]
    #: Distinct words counted: one per dihedral orbit.
    classes: int

    @property
    def all_subset(self) -> bool:
        return all(e.subset_ok for e in self.entries)

    @property
    def all_equal(self) -> bool:
        return all(e.counts_equal for e in self.entries)


def check_invariance_containment(link, composed, two_k: int, n: int) -> InvarianceReport:
    """Labels that are a function of ``link``'s can only merge constraints,
    never add them.

    ``composed`` is any link whose labels at n are a function of ``link``'s
    (a transform composed over it, or a Table 2 partner); ``ValueError``
    otherwise. For every word the base class must be contained in the
    composed class (joint count equals base count); when the function is
    injective the classes coincide and the plain counts agree too.

    ``SearchBudgetError`` before any table is built when the counts would
    exceed the budget: a pair-matched word of length 2k has k + 1 free
    vertices.
    """
    _sweep_order(two_k)
    _check_budget(n, two_k // 2 + 1)
    base, composed = _as_link(link), _as_link(composed)
    codes_b, k_b = value_table(base, n)
    codes_c, k_c = value_table(composed, n)
    # Distinct label pairs number k_b exactly when each base label has one
    # composed label.
    if _distinct_count(pair_codes(codes_b, codes_c, k_c)) != k_b:
        raise ValueError(
            f"{link_name(composed)} labels are not a function of {link_name(base)} "
            f"labels at n={n}"
        )

    def counts(w):
        return (
            count_pi_star(base, w, n).count,
            count_pi_star(composed, w, n).count,
            count_pi_star_joint(base, composed, w, w, n).count,
        )

    seen: dict = {}
    entries = []
    for w in enumerate_pair_matched(two_k):
        cb, cc, cj = per_orbit(seen, counts, w)
        entries.append(
            InvarianceEntry(
                word=w,
                count_base=cb,
                count_composed=cc,
                count_joint=cj,
                subset_ok=cj == cb,
                counts_equal=cb == cc,
            )
        )
    return InvarianceReport(
        link=link_name(base),
        composed=link_name(composed),
        two_k=two_k,
        n=n,
        # The function is injective exactly when it keeps the number of labels.
        injective=k_c == k_b,
        entries=tuple(entries),
        classes=len(seen),
    )
