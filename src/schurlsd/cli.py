"""Command line driver: seeded experiment runs with JSON/CSV artifacts.

Commands: ``spectrum``, ``moments``, ``words``, ``pw``, ``check``,
``verify-table2``. Every run takes a JSON config (``--seed`` and ``--rows``
set their keys in it), writes its reports under the output directory, and
finishes with a ``manifest.json`` naming the config hash, per-check outcomes,
and a checksum inventory of every emitted file. Exit status: 0 when all
configured checks pass, 1 when any fails, 2 for config errors, 3 when an
exact count would exceed its search budget, 4 when the outputs cannot be
written.

Reproducibility contract: numeric payloads are a pure function of the
config, which the ``--out`` and ``--threads`` flags never enter, and floats
are serialized with 17 significant digits so values round-trip exactly.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import resource
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Optional, Sequence, TypeVar

import numpy as np

# CPython's own SHA-256, as the stdlib's random.py takes its SHA-512: hashlib
# would load OpenSSL's libcrypto, 3-4 MB of resident memory for a few digests.
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10-3.11
    except ImportError:
        from hashlib import sha256

from . import BLAS_THREAD_VARS, __version__, circuits, spectral, words
from .circuits import (
    ExactLimit,
    InvarianceReport,
    RelationReport,
    SearchBudgetError,
    check_compatible,
    check_implies_wigner,
    check_invariance_containment,
    check_leadsto_wigner,
    p_table,
    per_orbit,
)
from .ensemble import INPUT_DISTRIBUTIONS, ProductSpec, stream_seed
from .linkfn import (
    DIFFERENCE_KINDS,
    LinkFunction,
    Transform,
    TransformError,
    compose,
    coprime_power,
    eval_link,
    link_name,
    parse_link,
    row_delta,
    square,
    table_transform,
    transform_name,
)
from .oracle import (
    assemble_moments,
    catalan_number,
    moment_bound,
    pair_matched_count,
    semicircle_cdf,
)
from .spectral import (
    TrialStats,
    histogram,
    ks_distance,
    moments_from_spectra,
    trial_spectra,
    usable_cpus,
)
from .words import (
    Word,
    canonicalize,
    enumerate_pair_matched,
    generating_positions,
    is_catalan,
    is_pair_matched,
)

__all__ = ["ConfigError", "TABLE2_ROWS", "config_hash", "main"]

T = TypeVar("T")


class ConfigError(Exception):
    """Invalid run configuration; the message names the offending key/value."""


# --- Table 2 registry ---------------------------------------------------------


@dataclass(frozen=True)
class Table2Row:
    """One row of Table 2: its products, their common limit, and its gates.

    ``limit`` is ``"semicircle"`` or the link whose single-pattern limit the
    products share (its moments are assembled from that link's per-word
    limits). ``relations`` lists the joint relation checks in gate order,
    ``invariance`` adds the invariance check of each product (x, y), whose
    partner y labels cells by a function of x's labels, and
    ``implies_wigner`` adds the report-only "labels force index pairs"
    verdict at n = 20.
    """

    products: tuple[tuple[str, str], ...]
    limit: str
    relations: tuple[str, ...] = ()
    invariance: bool = False
    implies_wigner: bool = False


#: Row number -> row record; product order within and across rows fixes
#: each product's seed stream index.
TABLE2_ROWS: dict[int, Table2Row] = {
    1: Table2Row(
        tuple(("wigner", y) for y in ("toeplitz", "hankel", "symcirc", "revcirc", "dsymhankel")),
        "semicircle",
        relations=("leadsto",),
        invariance=True,
    ),
    2: Table2Row(
        tuple((x, y) for x in ("toeplitz", "symcirc") for y in ("hankel", "revcirc", "dsymhankel")),
        "semicircle",
        relations=("compatible", "leadsto"),
        implies_wigner=True,
    ),
    3: Table2Row((("toeplitz", "symcirc"),), "toeplitz", invariance=True),
    4: Table2Row(
        (("hankel", "revcirc"), ("hankel", "dsymhankel")), "hankel", invariance=True
    ),
    5: Table2Row((("revcirc", "dsymhankel"),), "revcirc", invariance=True),
}

#: Order -> absolute band of the rows 1-2 even-moment gates around the
#: semicircle's Catalan moments.
SEMICIRCLE_BANDS = {2: 0.05, 4: 0.15, 6: 0.6}
#: Most KS distance of a rows 1-2 product's pooled ESD to the semicircle.
KS_MAX = 0.05
#: Standard errors in the band of every other Table 2 moment gate.
Z_MAX = 3.0
#: Limit law -> its absolute even-moment bands by order, and the CDF its
#: pooled ESD is KS-gated against with the most distance allowed. A law
#: without an entry gets ``Z_MAX`` bands on every moment and no KS gate.
LAW_GATES = {"semicircle": (SEMICIRCLE_BANDS, semicircle_cdf, KS_MAX)}

#: Absolute slack added to every standard-error band; keeps exact-by-
#: construction cases (Rademacher beta_2 has zero variance) from failing
#: on float roundoff. A stderr at or below it is roundoff, so reports give
#: no z value for it.
BAND_EPS = 1e-9
#: Most bins of a ``spectrum`` histogram.
MAX_BINS = 100_000


# --- JSON with 17 significant digits ------------------------------------------


def format_float(x: float) -> str:
    if x != x or x in (float("inf"), float("-inf")):
        raise ValueError(f"non-finite value {x!r} in JSON payload")
    return format(float(x), ".17g")


def _encode_json(obj, pad: str) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, Mapping):
        if not obj:
            return "{}"
        inner = pad + "  "
        items = [
            f"{inner}{json.dumps(str(k))}: {_encode_json(v, inner)}" for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = pad + "  "
        items = [f"{inner}{_encode_json(v, inner)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")


def encode_json(obj) -> str:
    return _encode_json(obj, "") + "\n"


def _atomic_write(path: Path, text: str) -> None:
    """Write ``text`` to ``path``, making its directory first: a run that
    stops before its first file, on a config error or otherwise, leaves
    nothing on disk."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def config_hash(command: str, cfg: Mapping) -> str:
    """sha256 (first 16 hex digits) of the canonical config form."""
    blob = json.dumps(
        {"command": command, "config": cfg}, sort_keys=True, separators=(",", ":")
    )
    return sha256(blob.encode()).hexdigest()[:16]


# --- typed config access -------------------------------------------------------

_MISSING = object()

_TYPES = {
    "any": lambda x: True,
    "int": lambda x: isinstance(x, int) and not isinstance(x, bool),
    "number": lambda x: isinstance(x, (int, float)) and not isinstance(x, bool),
    "str": lambda x: isinstance(x, str),
    "bool": lambda x: isinstance(x, bool),
    "list": lambda x: isinstance(x, list),
    "dict": lambda x: isinstance(x, dict),
}


def _int_in(name: str, v, lo: int, hi: Optional[int] = None, even: bool = False) -> int:
    """Every order, dimension and count of a config is checked here: ``v``
    must be an integer in lo..hi (no upper bound when ``hi`` is None), even
    when ``even``. ``name`` opens the error message."""
    if _TYPES["int"](v) and lo <= v and (hi is None or v <= hi) and not (even and v % 2):
        return v
    span = f"in {lo}..{hi}" if hi is not None else f">= {lo}"
    raise ConfigError(f"{name}: {v!r} must be an {'even ' if even else ''}integer {span}")


class Config:
    """A command's config, recording every key the command reads.

    A command reads its keys through these accessors, all before any work;
    ``close`` then rejects each key the command, with the relation, mode or
    switches it was given, did not read. So a key that would change nothing,
    such as a gate the run never evaluates, is a config error and never a
    silent no-op. A read after ``close`` is a programming error.
    """

    def __init__(self, command: str, data: dict, prefix: str = ""):
        self.command = command
        self.data = data
        #: Prepended to key names in messages (``transform.`` for a transform).
        self.prefix = prefix
        self._read: Optional[set] = set()

    def __contains__(self, key: str) -> bool:
        return key in self.data

    def _name(self, key: str) -> str:
        return f"config key {self.prefix + key!r}"

    def value(self, key: str, expect: str, default=_MISSING):
        if self._read is None:
            raise RuntimeError(f"{self._name(key)} read after the config was closed")
        self._read.add(key)
        if key not in self.data:
            if default is _MISSING:
                raise ConfigError(f"missing required {self._name(key)}")
            return default
        v = self.data[key]
        if not _TYPES[expect](v):
            raise ConfigError(f"{self._name(key)}: expected {expect}, got {v!r}")
        return v

    def close(self) -> None:
        read, self._read = self._read, None
        for k, v in self.data.items():
            if k not in read:
                raise ConfigError(
                    f"unknown config key {self.prefix + k!r} (value {v!r}): command "
                    f"{self.command!r} does not read it in this configuration"
                )

    def integer(self, key: str, default=_MISSING, lo: int = 1, hi: Optional[int] = None,
                even: bool = False) -> int:
        return _int_in(self._name(key), self.value(key, "any", default), lo, hi, even)

    def integers(self, key: str, default, lo: int = 1, hi: Optional[int] = None) -> list:
        """A non-empty list of distinct integers in lo..hi."""
        vs = [_int_in(self._name(key), v, lo, hi) for v in self.value(key, "list", default)]
        if not vs or len(set(vs)) != len(vs):
            raise ConfigError(f"{self._name(key)}: {vs!r} must list distinct values, at least one")
        return vs

    def choice(self, key: str, choices: Sequence[str], default=_MISSING) -> str:
        v = self.value(key, "str", default)
        if v not in choices:
            raise ConfigError(f"{self._name(key)}: {v!r} is not one of {sorted(choices)}")
        return v

    def threshold(self, key: str, default=_MISSING) -> Optional[float]:
        """A gate threshold: a finite number > 0 (None when absent with that default)."""
        v = self.value(key, "number", default)
        if v is None:
            return None
        if not 0 < v <= sys.float_info.max:
            raise ConfigError(f"{self._name(key)}: {v!r} must be a finite number > 0")
        return float(v)

    def link(self, key: str) -> str:
        text = self.value(key, "str")
        try:
            # The labels of a parsed link all have one type, so one cell shows
            # whether each transform is defined on its base's labels.
            eval_link(parse_link(text), 1, 1, 1)
        except ValueError as exc:  # TransformError included
            raise ConfigError(f"{self._name(key)}: {text!r}: {exc}") from exc
        return text

    def transform(self, key: str) -> Transform:
        spec = Config(self.command, self.value(key, "dict"), prefix=f"{self.prefix}{key}.")
        kind = spec.choice("kind", ("square", "coprimepower", "usertable"))
        if kind == "square":
            transform = square()
        elif kind == "coprimepower":
            a, b = spec.value("a", "any", None), spec.value("b", "any", None)
            try:
                transform = coprime_power(a, b)
            except (ValueError, TypeError) as exc:
                raise ConfigError(f"{self._name(key)}: {spec.data!r}: {exc}") from exc
        else:
            table = spec.value("table", "dict")
            if not table:
                raise ConfigError(f"{self._name(key)}: usertable needs a non-empty 'table'")
            transform = table_transform({
                _parse_table_value(key, k): _parse_table_value(key, v) for k, v in table.items()
            })
        spec.close()
        return transform


def cfg_word(key: str, text) -> Word:
    if not isinstance(text, str) or not text:
        raise ConfigError(f"config key {key!r}: {text!r} is not a word string")
    try:
        return canonicalize(text)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"config key {key!r}: {text!r}: {exc}") from exc


def _parse_table_value(key: str, raw):
    if isinstance(raw, int) and not isinstance(raw, bool):
        return raw
    if isinstance(raw, str):
        parts = raw.split(",")
        try:
            ints = [int(p) for p in parts]
        except ValueError as exc:
            raise ConfigError(f"config key {key!r}: bad table entry {raw!r}") from exc
        return ints[0] if len(ints) == 1 else tuple(ints)
    raise ConfigError(f"config key {key!r}: bad table entry {raw!r}")


# --- run context ----------------------------------------------------------------


@dataclass
class CheckResult:
    """A check's verdict and detail and, for a gate, the numbers the verdict
    was computed from (``RunContext.gate``), with the z score and degrees of
    freedom of the gated moment estimate; ``None`` where a field does not
    apply. Only ``manifest.json`` holds the numbers."""

    name: str
    passed: bool
    detail: str = ""
    value: Optional[float] = None
    target: Optional[float] = None
    band: Optional[float] = None
    z: Optional[float] = None
    df: Optional[int] = None

    def report(self) -> dict:
        return {"name": self.name, "pass": self.passed, "detail": self.detail}


@dataclass
class RunContext:
    command: str
    cfg: Config
    out_dir: Path
    threads: int
    seed: int
    hash: str
    checks: list = field(default_factory=list)
    files: list = field(default_factory=list)
    #: Limit -> wall time and per-order fit of its target assembly; goes to
    #: the manifest only, since wall times differ between runs.
    target_assembly: dict = field(default_factory=dict)
    #: Size, proofs and wall time of each relation or invariance sweep, in
    #: run order; manifest only, like ``target_assembly``.
    relation_sweeps: list = field(default_factory=list)
    #: Trials, worker threads, solve blocks and phase times of each Monte
    #: Carlo product, in run order; manifest only.
    mc_products: list = field(default_factory=list)

    def header(self) -> dict:
        return {
            "command": self.command,
            "version": __version__,
            "config_hash": self.hash,
            "config": self.cfg.data,
        }

    def emit_json(self, name: str, obj) -> None:
        _atomic_write(self.out_dir / name, encode_json(obj))
        self.files.append(name)

    def emit_text(self, name: str, text: str) -> None:
        _atomic_write(self.out_dir / name, text)
        self.files.append(name)

    def check(self, name: str, passed: bool, detail: str = "") -> bool:
        self.checks.append(CheckResult(name, bool(passed), detail))
        return bool(passed)

    def gate(self, name: str, value: float, target: float, band: float, detail: str,
             m=None, upper: bool = False) -> None:
        """Check that ``value`` lies within ``band`` of ``target``, or at most
        ``band`` above it when ``upper``, and record these numbers; ``m``, the
        moment estimate gated if any, gives the z score and df."""
        passed = bool(value <= target + band if upper else abs(value - target) <= band)
        z, df = (None, None) if m is None else (_z(m, target), m.trials - 1)
        self.checks.append(CheckResult(name, passed, detail, value, target, band, z, df))

    def sweep(self, kind: str, links: list, run: Callable):
        """Run one relation or invariance sweep and log its size and wall time:
        the dimension of an invariance sweep, the rank-walk nodes and the
        classes per proof of a relation sweep."""
        start = time.perf_counter()
        rep = run()
        size = ({"ns": [rep.n]} if kind == "invariance"
                else {"nodes": rep.nodes, "proofs": rep.proofs})
        self.relation_sweeps.append({
            "kind": kind,
            "links": links,
            "two_k": rep.two_k,
            **size,
            "entries": len(rep.entries),
            "classes": rep.classes,
            "wall_s": time.perf_counter() - start,
        })
        return rep

    def monte_carlo(self, spec: ProductSpec, reduce: Callable[[np.ndarray], T]) -> T:
        """``reduce`` of the (trials, n) spectra ``trial_spectra`` draws on at
        most the run's threads. Logs the workers used, the block sizes each
        trial was solved as, the wall time of the draw, its realization and
        eigensolve seconds summed over trials, the time of ``reduce``
        (moments, KS distance, histogram), and the process's peak resident
        memory so far, which shows the product that set it."""
        stats = TrialStats()
        start = time.perf_counter()
        spectra = trial_spectra(spec, threads=self.threads, stats=stats)
        drawn = time.perf_counter()
        result = reduce(spectra)
        self.mc_products.append({
            "product": f"{spec.link_x}*{spec.link_y}",
            "trials": spec.trials,
            "workers": stats.workers,
            "blocks": stats.blocks,
            "wall_s": drawn - start,
            "realize_s": stats.realize_s,
            "eigensolve_s": stats.eigensolve_s,
            "reduce_s": time.perf_counter() - drawn,
            "peak_rss_mb": _peak_rss_mb(),
        })
        return result


def _fmt(x: float) -> str:
    return format(float(x), ".6g")


# --- report converters ------------------------------------------------------------


def _limit_json(lim: ExactLimit) -> dict:
    """An exact limit as a string with its proof: the rank certificate's
    bound on count / n^k, or the fit's period and span of n."""
    if lim.proof == "rank":
        return {"p": str(lim.p), "proof": "rank", "bound": lim.bound}
    return {"p": str(lim.p), "proof": "fit", "period": lim.period, "n_range": list(lim.ns)}


def _relation_json(rep: RelationReport) -> dict:
    return {
        "kind": rep.kind,
        "link_x": rep.link_x,
        "link_y": rep.link_y,
        "two_k": rep.two_k,
        "all_pass": rep.all_pass,
        "entries": [
            {
                "word": str(e.word),
                "word2": str(e.word2),
                "expected": str(e.expected),
                **_limit_json(e.limit),
                "pass": e.passed,
            }
            for e in rep.entries
        ],
    }


def _invariance_json(rep: InvarianceReport) -> dict:
    return {
        "link": rep.link,
        "composed": rep.composed,
        "two_k": rep.two_k,
        "n": rep.n,
        "injective": rep.injective,
        "all_subset": rep.all_subset,
        "all_equal": rep.all_equal,
        "entries": [
            {
                "word": str(e.word),
                "count_base": e.count_base,
                "count_composed": e.count_composed,
                "count_joint": e.count_joint,
                "subset_ok": e.subset_ok,
                "counts_equal": e.counts_equal,
            }
            for e in rep.entries
        ],
    }


def _z(m, target: float) -> Optional[float]:
    """Standard errors from ``target`` to moment estimate ``m``; None when
    its stderr is roundoff."""
    return (m.mean - target) / m.stderr if m.stderr > BAND_EPS else None


def _moment_json(m, target: Optional[float]) -> dict:
    entry = {
        "h": m.h,
        "mean": m.mean,
        "variance": m.variance,
        "stderr": m.stderr,
        "trials": m.trials,
        "n": m.n,
    }
    if target is not None:
        entry["target"] = target
        entry["z"] = _z(m, target)
    return entry


# --- gates shared by the commands -----------------------------------------------------


def _moment_target(targets: dict, h: int) -> Optional[float]:
    """The target of moment h: the limit's even moment from ``targets``, 0
    for odd h, None for an even h without a target."""
    return targets[h]["value"] if h in targets else (0.0 if h % 2 else None)


def _relation_gate(ctx: RunContext, name: str, kind: str, link_x: str, link_y: str,
                   two_k: int) -> dict:
    """Sweep relation ``kind`` on a link pair, gate ``name`` on every entry
    passing, and return the sweep's report. The detail counts the passing
    entries: word pairs for ``compatible``, words for ``leadsto``."""
    relation = check_compatible if kind == "compatible" else check_leadsto_wigner
    rep = ctx.sweep(kind, [link_x, link_y], lambda: relation(link_x, link_y, two_k))
    unit = "word pairs" if kind == "compatible" else "words"
    passing, total = sum(e.passed for e in rep.entries), len(rep.entries)
    ctx.gate(name, passing, total, 0, f"{passing}/{total} {unit} pass")
    return _relation_json(rep)


def _invariance_gate(ctx: RunContext, name: str, link: str, composed: LinkFunction,
                     two_k: int, n: int) -> dict:
    """Sweep the invariance check of ``link`` against ``composed``, gate
    ``name`` on every word's class being contained, and return the sweep's
    report."""
    rep = ctx.sweep("invariance", [link, link_name(composed)],
                    lambda: check_invariance_containment(link, composed, two_k, n))
    contained, total = sum(e.subset_ok for e in rep.entries), len(rep.entries)
    ctx.gate(name, contained, total, 0, f"{contained}/{total} words contained")
    return _invariance_json(rep)


def _read_sweep_order(cfg: Config, key: str) -> int:
    """The order of a relation or invariance sweep, in the library's range."""
    return cfg.integer(key, circuits.MIN_SWEEP_ORDER, lo=circuits.MIN_SWEEP_ORDER,
                       hi=circuits.MAX_SWEEP_ORDER, even=True)


# --- product spec from config -------------------------------------------------------


def _product_from_cfg(ctx: RunContext, default_trials: int, min_trials: int = 1) -> ProductSpec:
    cfg = ctx.cfg
    return ProductSpec(
        link_x=cfg.link("link_x"),
        link_y=cfg.link("link_y"),
        dist_x=cfg.choice("dist_x", INPUT_DISTRIBUTIONS, "rademacher"),
        dist_y=cfg.choice("dist_y", INPUT_DISTRIBUTIONS, "rademacher"),
        n=cfg.integer("n"),
        master_seed=ctx.seed,
        trials=cfg.integer("trials", default_trials, lo=min_trials),
    )


def _limit_for_product(link_x: str, link_y: str) -> Optional[str]:
    for row in TABLE2_ROWS.values():
        if any({x, y} == {link_x, link_y} for x, y in row.products):
            return row.limit
    return None


def _limit_targets(limit: str, h_max: int) -> tuple[dict[int, dict], dict[int, dict]]:
    """Even-moment targets of a Table 2 limit law, with provenance, and the
    words per proof of each exact target.

    The semicircle has exact Catalan moments; single-pattern limits sum that
    link's exact per-word limits (``circuits.limit``) up to the order cap of
    every exact limit, ``MAX_SWEEP_ORDER``. A word is proved 0 by rank or
    fitted; ``period`` is the common period of the fitted words and
    ``n_range`` the span of n their windows cover.
    """
    if limit == "semicircle":
        return {two_k: {"value": float(catalan_number(two_k // 2)), "source": "semicircle"}
                for two_k in range(2, h_max + 1, 2)}, {}
    targets: dict[int, dict] = {}
    proofs: dict[int, dict] = {}
    for two_k in range(2, min(h_max, circuits.MAX_SWEEP_ORDER) + 1, 2):
        table = p_table(limit, two_k)
        exact = assemble_moments({w: f.p for w, f in table.items()}, two_k)
        fits = [f for f in table.values() if f.proof == "fit"]
        targets[two_k] = {
            "value": float(exact),
            "exact": str(exact),
            "source": f"exact:{limit}",
            "period": math.lcm(*(f.period for f in fits)),
            "n_range": [min(f.ns[0] for f in fits), max(f.ns[1] for f in fits)],
        }
        proofs[two_k] = {"rank": len(table) - len(fits), "fit": len(fits)}
    return targets, proofs


def _timed_targets(ctx: RunContext, limit: str, h_max: int) -> dict[int, dict]:
    """``_limit_targets`` with its wall time, fits and proofs recorded for the
    manifest."""
    start = time.perf_counter()
    targets, proofs = _limit_targets(limit, h_max)
    ctx.target_assembly[limit] = {
        "wall_s": time.perf_counter() - start,
        "orders": {
            str(k): {"period": t["period"], "n_range": t["n_range"], "proofs": proofs[k]}
            for k, t in targets.items()
            if k in proofs
        },
    }
    return targets


# --- commands -----------------------------------------------------------------------
#
# A command reads its whole config from ``ctx.cfg`` and returns the function
# that does its work; ``main`` closes the config in between, so every key is
# read, and every unread key rejected, before any work starts.


def cmd_words(ctx: RunContext) -> Callable[[], None]:
    mode = ctx.cfg.choice("mode", ("list", "count"), "list")
    # listing stops at length 10 (945 words); counting runs to the enumeration cap
    two_k = ctx.cfg.integer(
        "two_k", lo=2, hi=words.MAX_ENUM_LENGTH if mode == "count" else 10, even=True
    )

    def run() -> None:
        report = dict(ctx.header())
        report["two_k"] = two_k
        report["total"] = pair_matched_count(two_k)
        report["catalan"] = catalan_number(two_k // 2)
        if mode == "list":
            report["words"] = [
                {
                    "word": str(w),
                    "catalan": is_catalan(w),
                    "generating_positions": sorted(generating_positions(w)),
                }
                for w in enumerate_pair_matched(two_k)
            ]
        ctx.emit_json("words_report.json", report)
        print(f"{report['total']} pair-matched words of length {two_k}, "
              f"{report['catalan']} Catalan")

    return run


def cmd_spectrum(ctx: RunContext) -> Callable[[], None]:
    cfg = ctx.cfg
    spec = _product_from_cfg(ctx, default_trials=1)
    bins = cfg.integer("bins", 60, hi=MAX_BINS)
    raw = cfg.value("range", "list", [-3.0, 3.0])
    if len(raw) != 2 or not all(_TYPES["number"](v) for v in raw):
        raise ConfigError(f"config key 'range': {raw!r} must be [lo, hi]")
    lo, hi = float(raw[0]), float(raw[1])
    if not -math.inf < lo < hi < math.inf:
        raise ConfigError(f"config key 'range': {raw!r} must be finite with lo < hi")
    # The edges and centres ``histogram`` makes, and its largest density 1 / width.
    with np.errstate(over="ignore", invalid="ignore"):
        edges = np.linspace(lo, hi, bins + 1)
        centers = (edges[:-1] + edges[1:]) / 2.0
    if not (np.isfinite(edges).all() and (edges[:-1] < edges[1:]).all()
            and np.isfinite(centers).all() and math.isfinite(bins / (hi - lo))):
        raise ConfigError(
            f"config key 'range': {raw!r} does not split into {bins} finite bins "
            f"with finite, increasing edges and centres"
        )
    ks_max = cfg.threshold("ks_max", None)
    limit = _limit_for_product(spec.link_x, spec.link_y)
    if ks_max is not None and limit not in (None, "semicircle"):
        raise ConfigError(
            f"config key 'ks_max': the KS distance is to the semicircle, but "
            f"{spec.link_x}*{spec.link_y} has the Table 2 limit {limit!r}"
        )
    eigenvalues_csv = cfg.value("eigenvalues_csv", "bool", False)

    def reduce(spectra: np.ndarray):
        return spectra, histogram(spectra, bins, lo, hi), ks_distance(spectra, semicircle_cdf)

    def run() -> None:
        spectra, (centers, density), ks = ctx.monte_carlo(spec, reduce)

        report = dict(ctx.header())
        report["n"] = spec.n
        report["trials"] = spec.trials
        report["n_eigenvalues"] = spectra.size
        report["lambda_min"] = float(spectra.min())
        report["lambda_max"] = float(spectra.max())
        report["histogram"] = {
            "bins": bins,
            "lo": lo,
            "hi": hi,
            "centers": centers,
            "density": density,
        }
        report["ks_semicircle"] = ks
        if ks_max is not None:
            ctx.gate("spectrum:ks", ks, 0.0, ks_max, f"KS {_fmt(ks)} vs max {_fmt(ks_max)}")
        if eigenvalues_csv:
            rows = np.column_stack([np.repeat(np.arange(spec.trials), spec.n), spectra.ravel()])
            buf = io.StringIO()
            np.savetxt(
                buf, rows, fmt=["%d", "%.17g"], delimiter=",",
                header="trial,eigenvalue", comments="",
            )
            ctx.emit_text("eigenvalues.csv", buf.getvalue())
        ctx.emit_json("spectrum_report.json", report)
        print(
            f"{spectra.size} eigenvalues in [{_fmt(report['lambda_min'])}, "
            f"{_fmt(report['lambda_max'])}]"
        )

    return run


def cmd_moments(ctx: RunContext) -> Callable[[], None]:
    cfg = ctx.cfg
    spec = _product_from_cfg(ctx, default_trials=10, min_trials=2)
    h_max = cfg.integer("h_max", 6, hi=spectral.MAX_MC_ORDER)
    z_max = cfg.threshold("z_max", None)

    def run() -> None:
        moments = ctx.monte_carlo(spec, lambda spectra: moments_from_spectra(spectra, h_max))
        limit = _limit_for_product(spec.link_x, spec.link_y)
        targets = _timed_targets(ctx, limit, h_max) if limit else {}

        entries = []
        for m in moments:
            target = _moment_target(targets, m.h)
            entries.append(_moment_json(m, target))
            if z_max is not None and target is not None:
                band = z_max * m.stderr + BAND_EPS
                ctx.gate(f"moments:h{m.h}", m.mean, target, band,
                         f"estimate {_fmt(m.mean)}, target {_fmt(target)}, band {_fmt(band)}", m)

        report = dict(ctx.header())
        report["limit"] = limit
        report["targets"] = {str(k): v for k, v in targets.items()}
        report["moments"] = entries
        ctx.emit_json("moments_report.json", report)
        for m in moments:
            print(f"h={m.h}: {_fmt(m.mean)} (stderr {_fmt(m.stderr)})")

    return run


def cmd_pw(ctx: RunContext) -> Callable[[], None]:
    cfg = ctx.cfg
    joint = "link_x" in cfg or "link_y" in cfg
    variant = cfg.choice("variant", ("star", "prime"), "star")
    if joint and variant == "prime":
        raise ConfigError("config key 'variant': 'prime' applies to a single link only")
    links = (cfg.link("link_x"), cfg.link("link_y")) if joint else (cfg.link("link"),)
    if variant == "prime" and parse_link(links[0]).kind not in DIFFERENCE_KINDS:
        raise ConfigError(
            f"config key 'link': variant 'prime' needs one of {list(DIFFERENCE_KINDS)}, "
            f"got {links[0]!r}"
        )

    def pw_word(text) -> Word:
        # A letter met once is a lone mean-zero input: such a word adds nothing
        # to any moment, and its class count outgrows every limit's scaling.
        w = cfg_word("words", text)
        once = next((c for c in text if text.count(c) == 1), None)
        if once is not None:
            raise ConfigError(f"config key 'words': letter {once!r} occurs once in {text!r}; "
                              "every letter must occur at least twice")
        return w

    if "words" in cfg:
        raw_words = cfg.value("words", "list")
        if not raw_words:
            raise ConfigError(f"config key 'words': {raw_words!r} is empty")
        jobs = []
        for item in raw_words:
            if isinstance(item, list):
                if not joint or len(item) != 2:
                    raise ConfigError(f"config key 'words': bad entry {item!r}")
                jobs.append(tuple(pw_word(x) for x in item))
            else:
                w = pw_word(item)
                if variant == "prime" and not is_pair_matched(w):
                    raise ConfigError(
                        f"config key 'words': variant 'prime' needs pair-matched words, "
                        f"got {item!r}"
                    )
                jobs.append((w,) * len(links))
        lengths = {w.h for job in jobs for w in job}
        if len(lengths) != 1:
            raise ConfigError(f"config key 'words': mixed word lengths {sorted(lengths)}")
        _int_in("config key 'words': the word length", lengths.pop(), 1,
                circuits.MAX_SWEEP_ORDER)
    else:
        two_k = cfg.integer("two_k", lo=2, hi=circuits.MAX_SWEEP_ORDER, even=True)
        sweep = enumerate_pair_matched(two_k)
        if joint and cfg.choice("pairs", ("diagonal", "all"), "diagonal") == "all":
            jobs = [(w, w2) for w in sweep for w2 in sweep]
        else:
            jobs = [(w,) * len(links) for w in sweep]

    def run() -> None:
        seen: dict = {}
        entries = []
        for job in jobs:
            entry = dict(zip(("word", "word2"), map(str, job)))
            entry.update(_limit_json(
                per_orbit(seen, lambda *ws: circuits.limit(links, ws, variant), *job)
            ))
            entries.append(entry)

        report = dict(ctx.header())
        report["variant"] = variant
        report["entries"] = entries
        ctx.emit_json("pw_report.json", report)
        for e in entries:
            label = e["word"] + ("," + e["word2"] if "word2" in e else "")
            print(f"p({label}) = {e['p']} ({e['proof']})")

    return run


def cmd_check(ctx: RunContext) -> Callable[[], None]:
    cfg = ctx.cfg
    relation = cfg.choice("relation", ("implies", "compatible", "leadsto", "invariance"))

    if relation == "implies":
        link_x, link_y = cfg.link("link_x"), cfg.link("link_y")
        ns = cfg.integers("ns", [10, 20, 50], hi=circuits.MAX_IMPLIES_DIM)
        expected = cfg.value("expected", "bool", None)

        def gates() -> dict:
            results = {n: check_implies_wigner(link_x, link_y, n) for n in ns}
            if expected is not None:
                for n, got in results.items():
                    ctx.check(f"implies:{link_x}*{link_y}@n={n}", got == expected,
                              f"got {got}, expected {expected}")
            return {"results": {str(n): v for n, v in results.items()}}
    elif relation in ("compatible", "leadsto"):
        link_x, link_y = cfg.link("link_x"), cfg.link("link_y")
        two_k = _read_sweep_order(cfg, "two_k")

        def gates() -> dict:
            name = f"{relation}:{link_x}*{link_y}"
            return {"report": _relation_gate(ctx, name, relation, link_x, link_y, two_k)}
    else:
        link = cfg.link("link")
        transform = cfg.transform("transform")
        two_k = _read_sweep_order(cfg, "two_k")
        n = cfg.integer("n", 10)
        require_equal = cfg.value("require_equal", "bool", False)

        def gates() -> dict:
            name = f"invariance:{transform_name(transform)}"
            try:
                rep = _invariance_gate(ctx, f"{name}:subset", link,
                                       compose(transform, parse_link(link)), two_k, n)
            except TransformError as exc:
                raise ConfigError(f"config key 'transform': {exc}") from exc
            if require_equal:
                equal = sum(e["counts_equal"] for e in rep["entries"])
                ctx.gate(f"{name}:equal", equal, len(rep["entries"]), 0,
                         f"injective={rep['injective']}")
            return {"report": rep}

    def run() -> None:
        report = dict(ctx.header())
        report["relation"] = relation
        report.update(gates())
        ctx.emit_json("check_report.json", report)

    return run


def _parse_rows(cfg: Config) -> list[int]:
    raw = cfg.value("rows", "any", "all")
    if raw == "all":
        return list(TABLE2_ROWS)
    if isinstance(raw, str):
        try:
            raw = [int(p) for p in raw.split(",") if p.strip()]
        except ValueError:
            raise ConfigError(f"config key 'rows': {raw!r} is not 'all' or row numbers")
    if not isinstance(raw, list) or not raw:
        raise ConfigError(f"config key 'rows': {raw!r} is not 'all' or row numbers")
    for r in raw:
        if not _TYPES["int"](r) or r not in TABLE2_ROWS:
            raise ConfigError(f"config key 'rows': {r!r} is not a row in {list(TABLE2_ROWS)}")
    return sorted(set(raw))


def _table2_monte_carlo(ctx: RunContext) -> Callable[[int, str, str, str, dict], dict]:
    """Read the Monte Carlo keys of ``verify-table2`` and return the function
    that samples one product of a row and gates its moments to
    ``spectral.MAX_MC_ORDER``."""
    cfg = ctx.cfg
    n = cfg.integer("n", 1000, lo=2)
    trials = cfg.integer("trials", 20, lo=2)
    dist_x = cfg.choice("dist_x", INPUT_DISTRIBUTIONS, "rademacher")
    dist_y = cfg.choice("dist_y", INPUT_DISTRIBUTIONS, "rademacher")
    # Seed stream index of each product: its position in the full registry,
    # so a subset run sees the same seeds as a full run.
    all_products = [pair for record in TABLE2_ROWS.values() for pair in record.products]
    # Each link's delta at n, for the product bound min(delta_X, delta_Y): a
    # pair label repeats in a row no more often than either of its labels.
    link_delta: dict[str, int] = {}

    def product(row: int, x: str, y: str, limit: str, targets: dict) -> dict:
        tag = f"row{row}:{x}*{y}"
        bands, cdf, ks_max = LAW_GATES.get(limit, ({}, None, None))
        seed = stream_seed(ctx.seed, all_products.index((x, y)))
        spec = ProductSpec(
            link_x=x, link_y=y, dist_x=dist_x, dist_y=dist_y,
            n=n, master_seed=seed, trials=trials,
        )

        def reduce(spectra: np.ndarray):
            ks = ks_distance(spectra, cdf) if cdf is not None else None
            return moments_from_spectra(spectra, spectral.MAX_MC_ORDER), ks

        moments, ks = ctx.monte_carlo(spec, reduce)
        by_h = {m.h: m for m in moments}
        for link in (x, y):
            if link not in link_delta:
                link_delta[link] = row_delta(parse_link(link), n)
        delta = min(link_delta[x], link_delta[y])

        entry = {
            "row": row, "link_x": x, "link_y": y, "seed": seed,
            "n": n, "trials": trials, "delta": delta,
            "moments": [_moment_json(m, _moment_target(targets, m.h)) for m in moments],
        }

        for two_k in (2, 4, 6):
            m, t = by_h[two_k], _moment_target(targets, two_k)
            band = bands.get(two_k, Z_MAX * m.stderr + BAND_EPS)
            spread = f"tol {band}" if two_k in bands else f"band {_fmt(band)}"
            ctx.gate(f"{tag}:beta{two_k}", m.mean, t, band,
                     f"estimate {_fmt(m.mean)}, target {_fmt(t)}, {spread}", m)
        if cdf is not None:
            entry[f"ks_{limit}"] = ks
            ctx.gate(f"{tag}:ks", ks, 0.0, ks_max, f"KS {_fmt(ks)} vs max {ks_max}")

        for h in (1, 3, 5):
            m = by_h[h]
            band = Z_MAX * m.stderr + BAND_EPS
            ctx.gate(f"{tag}:odd{h}", m.mean, 0.0, band,
                     f"estimate {_fmt(m.mean)}, band {_fmt(band)}", m)
        for two_k in range(2, spectral.MAX_MC_ORDER + 1, 2):
            m = by_h[two_k]
            bound = moment_bound(two_k, delta)
            ctx.gate(f"{tag}:bound{two_k}", m.mean, bound, Z_MAX * m.stderr + BAND_EPS,
                     f"estimate {_fmt(m.mean)} vs bound {bound} (delta {delta})", m,
                     upper=True)
        return entry

    return product


def cmd_verify_table2(ctx: RunContext) -> Callable[[], None]:
    cfg = ctx.cfg
    rows = _parse_rows(cfg)
    relation_two_k = _read_sweep_order(cfg, "relation_two_k")
    invariance_ns = (cfg.integers("invariance_ns", [8, 16], lo=4)
                     if any(TABLE2_ROWS[row].invariance for row in rows) else [])
    monte_carlo = _table2_monte_carlo(ctx) if cfg.value("mc", "bool", True) else None

    def run() -> None:
        target_cache: dict[str, dict] = {}
        row_reports = []
        product_reports = []
        for row in rows:
            record = TABLE2_ROWS[row]
            limit = record.limit
            if limit not in target_cache:
                target_cache[limit] = _timed_targets(ctx, limit, spectral.MAX_MC_ORDER)
            targets = target_cache[limit]
            row_report = {"row": row, "limit": limit,
                          "targets": {str(k): v for k, v in targets.items()},
                          "relations": [], "invariance": []}

            # combinatorial side of the row
            for x, y in record.products:
                tag = f"row{row}:{x}*{y}"
                for inv_n in invariance_ns if record.invariance else ():
                    row_report["invariance"].append(_invariance_gate(
                        ctx, f"{tag}:invariance@n={inv_n}",
                        x, parse_link(y), relation_two_k, inv_n,
                    ))
                for kind in record.relations:
                    row_report["relations"].append(
                        _relation_gate(ctx, f"{tag}:{kind}", kind, x, y, relation_two_k)
                    )
                if record.implies_wigner:
                    row_report.setdefault("implies_wigner", {})[f"{x}*{y}"] = (
                        check_implies_wigner(x, y, 20)
                    )

            # Monte Carlo side of the row
            if monte_carlo is not None:
                for x, y in record.products:
                    product_reports.append(monte_carlo(row, x, y, limit, targets))
            row_reports.append(row_report)

        report = dict(ctx.header())
        report["rows"] = row_reports
        report["products"] = product_reports
        report["checks"] = [c.report() for c in ctx.checks]
        report["all_pass"] = all(c.passed for c in ctx.checks)
        ctx.emit_json("verify_table2_report.json", report)

    return run


# --- entry point ---------------------------------------------------------------------


COMMANDS: dict[str, Callable[[RunContext], Callable[[], None]]] = {
    "spectrum": cmd_spectrum,
    "moments": cmd_moments,
    "words": cmd_words,
    "pw": cmd_pw,
    "check": cmd_check,
    "verify-table2": cmd_verify_table2,
}


def _load_config_file(path: Optional[str]) -> dict:
    if path is None:
        return {}
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise ConfigError(f"config file {str(p)!r}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {str(p)!r}: invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config file {str(p)!r}: top level must be a JSON object")
    return data


def _environment(threads: int) -> dict:
    """What a run's floating-point results and speed depend on besides its
    config: numpy, its BLAS, the eigensolver route, the BLAS thread variables
    and ``threads``."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except TypeError:  # numpy before 1.26 can only print its build config
        blas = {}
    return {
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "eigensolver": spectral.eigensolver(),
        "blas_thread_vars": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "threads": threads,
    }


def _peak_rss_mb() -> float:
    """Peak resident memory of this process so far, in MiB: ``VmHWM`` from
    procfs, which starts afresh at exec. Without procfs, ``ru_maxrss`` (KiB on
    Linux, bytes on macOS), which on Linux also holds the peak of the process
    that started this one, carried across fork and exec."""
    try:
        with open("/proc/self/status", "rb") as status:
            for line in status:
                if line.startswith(b"VmHWM:"):
                    return int(line.split()[1]) / 2**10
    except OSError:
        pass
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (2**20 if sys.platform == "darwin" else 2**10)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schurlsd",
        description="Spectral and combinatorial verification runs for entrywise "
        "products of patterned random matrices.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sp = sub.add_parser(name, help=f"run the {name} command")
        sp.add_argument("--config", help="JSON config file")
        sp.add_argument("--seed", type=int, help="master seed (overrides config)")
        sp.add_argument("--out", default="out", help="output directory (default: out)")
        sp.add_argument(
            "--threads", type=int,
            help="most Monte Carlo worker threads (default: usable CPUs; one below "
            f"n = {spectral.MIN_THREADED_N}); never changes results",
        )
        if name == "verify-table2":
            sp.add_argument("--rows", help="row selector: 'all' or comma list like '1,3'")
    return parser


def _write_manifest(ctx: RunContext, wall: float) -> None:
    """``manifest.json``: the run's config hash, checks, file inventory,
    wall time, peak memory and environment."""
    inventory = []
    for name in sorted(ctx.files):
        data = (ctx.out_dir / name).read_bytes()
        inventory.append(
            {"path": name, "sha256": sha256(data).hexdigest(), "bytes": len(data)}
        )
    manifest = {
        "config_hash": ctx.hash,
        "version": __version__,
        "command": ctx.command,
        "wall_time_s": wall,
        "peak_rss_mb": _peak_rss_mb(),
        "passed": all(c.passed for c in ctx.checks),
        "checks": [{**c.report(), "value": c.value, "target": c.target, "band": c.band,
                    "z": c.z, "df": c.df} for c in ctx.checks],
        "files": inventory,
        "environment": _environment(ctx.threads),
    }
    if ctx.target_assembly:
        manifest["target_assembly"] = ctx.target_assembly
    if ctx.relation_sweeps:
        manifest["relation_sweeps"] = ctx.relation_sweeps
    if ctx.mc_products:
        manifest["mc_products"] = ctx.mc_products
    _atomic_write(ctx.out_dir / "manifest.json", encode_json(manifest))


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        data = _load_config_file(args.config)
        if args.seed is not None:
            data["seed"] = args.seed
        if getattr(args, "rows", None) is not None:
            data["rows"] = args.rows

        cfg = Config(args.command, data)
        ctx = RunContext(
            command=args.command,
            cfg=cfg,
            out_dir=Path(args.out),
            threads=(usable_cpus() if args.threads is None
                     else _int_in("--threads", args.threads, 1)),
            seed=cfg.integer("seed", lo=0, hi=2**64 - 1),
            hash=config_hash(args.command, data),
        )
        run = COMMANDS[args.command](ctx)
        cfg.close()
        start = time.perf_counter()
        run()
        _write_manifest(ctx, time.perf_counter() - start)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SearchBudgetError as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 4

    for c in ctx.checks:
        line = f"[{'PASS' if c.passed else 'FAIL'}] {c.name}"
        if c.detail:
            line += f" ({c.detail})"
        print(line)
    n_pass = sum(c.passed for c in ctx.checks)
    print(f"{n_pass}/{len(ctx.checks)} checks passed; manifest: {ctx.out_dir / 'manifest.json'}")
    return 0 if n_pass == len(ctx.checks) else 1


if __name__ == "__main__":
    sys.exit(main())
