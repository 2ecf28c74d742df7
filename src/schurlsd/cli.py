"""Command line driver: seeded experiment runs with JSON/CSV artifacts.

Commands: ``spectrum``, ``moments``, ``words``, ``pw``, ``check``,
``verify-table2``. Every run takes a JSON config (plus flag overrides),
writes its reports under the output directory, and finishes with a
``manifest.json`` naming the config hash, per-check outcomes, and a checksum
inventory of every emitted file. Exit status: 0 when all configured checks
pass, 1 when any fails, 2 for config errors, 3 when an exact count would
exceed its search budget.

Reproducibility contract: numeric payloads are a pure function of the
config minus the ``out`` and ``threads`` keys (those two are excluded from
the config hash for that reason), and floats are serialized with 17
significant digits so values round-trip exactly.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import resource
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from . import BLAS_THREAD_VARS, __version__
from .circuits import (
    SLOPE_LINK_KINDS,
    ExactLimit,
    InvarianceReport,
    RelationReport,
    SearchBudgetError,
    check_compatible,
    check_implies_wigner,
    check_invariance_containment,
    check_leadsto_wigner,
    exact_limit,
    joint_limit,
    p_table,
    per_orbit,
)
from .ensemble import INPUT_DISTRIBUTIONS, ProductSpec, stream_seed
from .linkfn import (
    Transform,
    TransformError,
    compose,
    coprime_power,
    link_labels,
    link_name,
    pair_codes,
    parse_link,
    row_delta,
    square,
    table_transform,
    value_table,
)
from .oracle import (
    assemble_moments,
    catalan_number,
    moment_bound,
    pair_matched_count,
    semicircle_cdf,
)
from .spectral import (
    ESD,
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


class ConfigError(Exception):
    """Invalid run configuration; the message names the offending key/value."""


# --- Table 2 registry ---------------------------------------------------------


def _label_map(x: str, y: str, n: int) -> Transform:
    """The labels of link ``y`` as a function of the labels of link ``x`` at n.

    Composing ``x`` with this map gives ``y`` (for row 1 the partner's labels
    of each index pair, for rows 3-5 the fold and wrap maps), which is what the
    invariance theorem carries a limit along.
    """
    link_x, link_y = parse_link(x), parse_link(y)
    codes_x, k_x = value_table(link_x, n)
    codes_y, k_y = value_table(link_y, n)
    cx, cy = np.divmod(np.unique(pair_codes(codes_x, codes_y, k_y)), k_y)
    if len(cx) != k_x:
        raise ValueError(f"{y} labels are not a function of {x} labels at n={n}")
    labels_x, labels_y = link_labels(link_x, n), link_labels(link_y, n)
    return table_transform({labels_x[a]: labels_y[b] for a, b in zip(cx.tolist(), cy.tolist())})


@dataclass(frozen=True)
class Table2Row:
    """One row of Table 2: its products, their common limit, and its gates.

    ``limit`` is ``"semicircle"`` or the link whose single-pattern limit the
    products share (its moments are assembled from that link's per-word
    limits). ``relations`` lists the joint relation checks in gate order,
    ``invariance`` builds the label transform of product (x, y) at dimension
    n for the invariance check (None: no such check), and ``implies_wigner``
    adds the report-only "labels force index pairs" verdict at n = 20.
    """

    products: tuple[tuple[str, str], ...]
    limit: str
    relations: tuple[str, ...] = ()
    invariance: Optional[Callable[[str, str, int], Transform]] = None
    implies_wigner: bool = False


#: Row number -> row record; product order within and across rows fixes
#: each product's seed stream index.
TABLE2_ROWS: dict[int, Table2Row] = {
    1: Table2Row(
        tuple(("wigner", y) for y in ("toeplitz", "hankel", "symcirc", "revcirc", "dsymhankel")),
        "semicircle",
        relations=("leadsto",),
        invariance=_label_map,
    ),
    2: Table2Row(
        tuple((x, y) for x in ("toeplitz", "symcirc") for y in ("hankel", "revcirc", "dsymhankel")),
        "semicircle",
        relations=("compatible", "leadsto"),
        implies_wigner=True,
    ),
    3: Table2Row((("toeplitz", "symcirc"),), "toeplitz", invariance=_label_map),
    4: Table2Row(
        (("hankel", "revcirc"), ("hankel", "dsymhankel")), "hankel", invariance=_label_map
    ),
    5: Table2Row((("revcirc", "dsymhankel"),), "revcirc", invariance=_label_map),
}

DEFAULT_TOLS = {
    "beta2_abs": 0.05,
    "beta4_abs": 0.15,
    "beta6_abs": 0.6,
    "ks_max": 0.05,
    "z_max": 3.0,
}

#: Absolute slack added to every standard-error band; keeps exact-by-
#: construction cases (Rademacher beta_2 has zero variance) from failing
#: on float roundoff. A stderr at or below it is roundoff, so reports give
#: no z value for it.
BAND_EPS = 1e-9


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
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def config_hash(command: str, cfg: Mapping) -> str:
    """sha256 (first 16 hex digits) of the canonical config form.

    ``out`` and ``threads`` never change numeric results, so they are left
    out: re-running elsewhere or with more workers keeps the same hash.
    """
    payload = {k: v for k, v in cfg.items() if k not in ("out", "threads")}
    blob = json.dumps(
        {"command": command, "config": payload}, sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# --- typed config access -------------------------------------------------------

_MISSING = object()


def cfg_value(cfg: Mapping, key: str, expect: str, default=_MISSING):
    if key not in cfg:
        if default is _MISSING:
            raise ConfigError(f"missing required config key {key!r}")
        return default
    v = cfg[key]
    checks = {
        "int": lambda x: isinstance(x, int) and not isinstance(x, bool),
        "number": lambda x: isinstance(x, (int, float)) and not isinstance(x, bool),
        "str": lambda x: isinstance(x, str),
        "bool": lambda x: isinstance(x, bool),
        "list": lambda x: isinstance(x, list),
        "dict": lambda x: isinstance(x, dict),
    }
    if not checks[expect](v):
        raise ConfigError(f"config key {key!r}: expected {expect}, got {v!r}")
    return v


def cfg_choice(cfg: Mapping, key: str, choices: Sequence[str], default=_MISSING) -> str:
    v = cfg_value(cfg, key, "str", default)
    if v not in choices:
        raise ConfigError(f"config key {key!r}: {v!r} is not one of {sorted(choices)}")
    return v


def cfg_posint(cfg: Mapping, key: str, default=_MISSING, minimum: int = 1) -> int:
    v = cfg_value(cfg, key, "int", default)
    if v < minimum:
        raise ConfigError(f"config key {key!r}: {v!r} must be >= {minimum}")
    return v


def cfg_threshold(cfg: Mapping, key: str) -> float:
    """A gate threshold: a finite number > 0."""
    v = cfg_value(cfg, key, "number")
    if not 0 < v <= sys.float_info.max:
        raise ConfigError(f"config key {key!r}: {v!r} must be a finite number > 0")
    return float(v)


def cfg_link(cfg: Mapping, key: str, default=_MISSING) -> str:
    text = cfg_value(cfg, key, "str", default)
    try:
        parse_link(text)
    except ValueError as exc:
        raise ConfigError(f"config key {key!r}: {text!r}: {exc}") from exc
    return text


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


def cfg_transform(cfg: Mapping, key: str) -> Transform:
    spec = cfg_value(cfg, key, "dict")
    kind = spec.get("kind")
    if kind == "square":
        return square()
    if kind == "coprimepower":
        a, b = spec.get("a"), spec.get("b")
        try:
            return coprime_power(a, b)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"config key {key!r}: {spec!r}: {exc}") from exc
    if kind == "usertable":
        table = spec.get("table")
        if not isinstance(table, dict) or not table:
            raise ConfigError(f"config key {key!r}: usertable needs a non-empty 'table'")
        mapping = {
            _parse_table_value(key, k): _parse_table_value(key, v) for k, v in table.items()
        }
        return table_transform(mapping)
    raise ConfigError(
        f"config key {key!r}: transform kind {kind!r} is not one of "
        "['square', 'coprimepower', 'usertable']"
    )


def _check_known_keys(cfg: Mapping, command: str, allowed: set) -> None:
    allowed = allowed | {"seed", "out", "threads"}
    for k in cfg:
        if k not in allowed:
            raise ConfigError(
                f"unknown config key {k!r} (value {cfg[k]!r}) for command {command!r}"
            )


# --- run context ----------------------------------------------------------------


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class RunContext:
    command: str
    cfg: dict
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
    #: Trials and wall time of each Monte Carlo product, in run order;
    #: manifest only.
    mc_products: list = field(default_factory=list)

    def header(self) -> dict:
        payload = {k: v for k, v in self.cfg.items() if k not in ("out", "threads")}
        return {
            "command": self.command,
            "version": __version__,
            "config_hash": self.hash,
            "config": payload,
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

    def spectra(self, spec: ProductSpec) -> list:
        """``trial_spectra`` on the run's threads, with its wall time logged."""
        start = time.perf_counter()
        spectra = trial_spectra(spec, threads=self.threads)
        self.mc_products.append({
            "product": f"{spec.link_x}*{spec.link_y}",
            "trials": spec.trials,
            "wall_s": time.perf_counter() - start,
        })
        return spectra


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


def _relation_detail(rep: RelationReport) -> str:
    """How many entries of a relation sweep pass: word pairs for
    ``compatible``, words for ``leadsto``."""
    unit = "word pairs" if rep.kind == "compatible" else "words"
    return f"{sum(e.passed for e in rep.entries)}/{len(rep.entries)} {unit} pass"


def _invariance_json(rep: InvarianceReport) -> dict:
    return {
        "link": rep.link,
        "transform": rep.transform,
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


def _composed_name(link: str, transform: Transform) -> str:
    return link_name(compose(transform, parse_link(link)))


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
        entry["z"] = (m.mean - target) / m.stderr if m.stderr > BAND_EPS else None
    return entry


# --- product spec from config -------------------------------------------------------


def _product_from_cfg(cfg: Mapping, seed: int, default_trials: int) -> ProductSpec:
    link_x = cfg_link(cfg, "link_x")
    link_y = cfg_link(cfg, "link_y")
    dist_x = cfg_choice(cfg, "dist_x", INPUT_DISTRIBUTIONS, "rademacher")
    dist_y = cfg_choice(cfg, "dist_y", INPUT_DISTRIBUTIONS, "rademacher")
    n = cfg_posint(cfg, "n")
    trials = cfg_posint(cfg, "trials", default_trials)
    return ProductSpec(
        link_x=link_x,
        link_y=link_y,
        dist_x=dist_x,
        dist_y=dist_y,
        n=n,
        master_seed=seed,
        trials=trials,
    )


def _limit_for_product(link_x: str, link_y: str) -> Optional[str]:
    for row in TABLE2_ROWS.values():
        if any({x, y} == {link_x, link_y} for x, y in row.products):
            return row.limit
    return None


def _limit_targets(limit: str, h_max: int) -> dict[int, dict]:
    """Even-moment targets of a Table 2 limit law, with provenance.

    The semicircle has exact Catalan moments; single-pattern limits sum that
    link's exact per-word limits. ``period`` is the common period of the
    word fits and ``n_range`` the span of n their windows cover.
    """
    if limit == "semicircle":
        return {two_k: {"value": float(catalan_number(two_k // 2)), "source": "semicircle"}
                for two_k in range(2, h_max + 1, 2)}
    targets: dict[int, dict] = {}
    for two_k in range(2, min(h_max, 6) + 1, 2):
        table = p_table(limit, two_k)
        exact = assemble_moments({w: f.p for w, f in table.items()}, two_k)
        fits = table.values()
        targets[two_k] = {
            "value": float(exact),
            "exact": str(exact),
            "source": f"exact:{limit}",
            "period": math.lcm(*(f.period for f in fits)),
            "n_range": [min(f.ns[0] for f in fits), max(f.ns[1] for f in fits)],
        }
    return targets


def _timed_targets(ctx: RunContext, limit: str, h_max: int) -> dict[int, dict]:
    """``_limit_targets`` with its wall time and fits recorded for the manifest."""
    start = time.perf_counter()
    targets = _limit_targets(limit, h_max)
    ctx.target_assembly[limit] = {
        "wall_s": time.perf_counter() - start,
        "orders": {
            str(k): {"period": t["period"], "n_range": t["n_range"]}
            for k, t in targets.items()
            if "period" in t
        },
    }
    return targets


# --- commands -----------------------------------------------------------------------


def cmd_words(ctx: RunContext) -> None:
    cfg = ctx.cfg
    _check_known_keys(cfg, "words", {"two_k", "mode"})
    two_k = cfg_value(cfg, "two_k", "int")
    if two_k % 2 != 0 or not 2 <= two_k <= 16:
        raise ConfigError(f"config key 'two_k': {two_k!r} must be an even integer in 2..16")
    mode = cfg_choice(cfg, "mode", ("list", "count"), "list")
    if mode == "list" and two_k > 10:
        raise ConfigError(f"config key 'two_k': {two_k!r} is too large for mode 'list' (max 10)")

    k = two_k // 2
    report = dict(ctx.header())
    report["two_k"] = two_k
    report["total"] = pair_matched_count(two_k)
    report["catalan"] = catalan_number(k)
    if mode == "list":
        words = enumerate_pair_matched(two_k)
        report["words"] = [
            {
                "word": str(w),
                "catalan": is_catalan(w),
                "generating_positions": sorted(generating_positions(w)),
            }
            for w in words
        ]
    ctx.emit_json("words_report.json", report)
    print(f"{report['total']} pair-matched words of length {two_k}, {report['catalan']} Catalan")


def cmd_spectrum(ctx: RunContext) -> None:
    cfg = ctx.cfg
    _check_known_keys(
        cfg,
        "spectrum",
        {"link_x", "link_y", "dist_x", "dist_y", "n", "trials", "bins", "range",
         "reference", "ks_max", "eigenvalues_csv"},
    )
    spec = _product_from_cfg(cfg, ctx.seed, default_trials=1)
    bins = cfg_posint(cfg, "bins", 60)
    lo, hi = -3.0, 3.0
    if "range" in cfg:
        raw = cfg_value(cfg, "range", "list")
        if len(raw) != 2 or not all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in raw
        ):
            raise ConfigError(f"config key 'range': {raw!r} must be [lo, hi]")
        lo, hi = float(raw[0]), float(raw[1])
        if not -math.inf < lo < hi < math.inf:
            raise ConfigError(f"config key 'range': {raw!r} must be finite with lo < hi")
    reference = cfg_choice(cfg, "reference", ("semicircle", "none"), "semicircle")
    ks_max = cfg_threshold(cfg, "ks_max") if "ks_max" in cfg else None
    eigenvalues_csv = cfg_value(cfg, "eigenvalues_csv", "bool", False)

    spectra = ctx.spectra(spec)
    esd = ESD.from_spectra(spectra)
    centers, density = histogram(esd, bins, lo, hi)

    report = dict(ctx.header())
    report["n"] = spec.n
    report["trials"] = spec.trials
    report["n_eigenvalues"] = esd.n_points
    report["lambda_min"] = float(esd.points[0])
    report["lambda_max"] = float(esd.points[-1])
    report["histogram"] = {
        "bins": bins,
        "lo": lo,
        "hi": hi,
        "centers": centers,
        "density": density,
    }
    if reference == "semicircle":
        ks = ks_distance(esd, semicircle_cdf)
        report["ks_semicircle"] = ks
        if ks_max is not None:
            ctx.check(
                "spectrum:ks",
                ks <= ks_max,
                f"KS {_fmt(ks)} vs max {_fmt(ks_max)}",
            )
    if eigenvalues_csv:
        rows = np.concatenate(
            [
                np.column_stack([np.full(s.eigenvalues.size, t), s.eigenvalues])
                for t, s in enumerate(spectra)
            ]
        )
        buf = io.StringIO()
        np.savetxt(
            buf, rows, fmt=["%d", "%.17g"], delimiter=",",
            header="trial,eigenvalue", comments="",
        )
        ctx.emit_text("eigenvalues.csv", buf.getvalue())
    ctx.emit_json("spectrum_report.json", report)
    print(
        f"{esd.n_points} eigenvalues in [{_fmt(report['lambda_min'])}, "
        f"{_fmt(report['lambda_max'])}]"
    )


def cmd_moments(ctx: RunContext) -> None:
    cfg = ctx.cfg
    _check_known_keys(
        cfg,
        "moments",
        {"link_x", "link_y", "dist_x", "dist_y", "n", "trials", "h_max", "z_max",
         "targets"},
    )
    spec = _product_from_cfg(cfg, ctx.seed, default_trials=10)
    if spec.trials < 2:
        raise ConfigError(f"config key 'trials': {spec.trials!r} must be >= 2 for moments")
    h_max = cfg_posint(cfg, "h_max", 6)
    if h_max > 8:
        raise ConfigError(f"config key 'h_max': {h_max!r} must be <= 8")
    want_targets = cfg_choice(cfg, "targets", ("auto", "none"), "auto")
    z_max = cfg_threshold(cfg, "z_max") if "z_max" in cfg else None

    moments = moments_from_spectra(ctx.spectra(spec), h_max)
    limit = _limit_for_product(spec.link_x, spec.link_y) if want_targets == "auto" else None
    targets = _timed_targets(ctx, limit, h_max) if limit else {}

    entries = []
    for m in moments:
        target = targets[m.h]["value"] if m.h in targets else (0.0 if m.h % 2 else None)
        entries.append(_moment_json(m, target))
        if z_max is not None and target is not None:
            band = z_max * m.stderr + BAND_EPS
            ctx.check(
                f"moments:h{m.h}",
                abs(m.mean - target) <= band,
                f"estimate {_fmt(m.mean)}, target {_fmt(target)}, band {_fmt(band)}",
            )

    report = dict(ctx.header())
    report["limit"] = limit
    report["targets"] = {str(k): v for k, v in targets.items()}
    report["moments"] = entries
    ctx.emit_json("moments_report.json", report)
    for m in moments:
        print(f"h={m.h}: {_fmt(m.mean)} (stderr {_fmt(m.stderr)})")


def cmd_pw(ctx: RunContext) -> None:
    cfg = ctx.cfg
    _check_known_keys(
        cfg, "pw", {"link", "link_x", "link_y", "variant", "words", "two_k", "pairs"}
    )
    joint = "link_x" in cfg or "link_y" in cfg
    if joint and "link" in cfg:
        raise ConfigError("config key 'link': give either 'link' or 'link_x'/'link_y', not both")
    variant = cfg_choice(cfg, "variant", ("star", "prime"), "star")
    if joint and variant == "prime":
        raise ConfigError("config key 'variant': 'prime' applies to a single link only")
    link = cfg_link(cfg, "link") if not joint else None
    link_x = cfg_link(cfg, "link_x") if joint else None
    link_y = cfg_link(cfg, "link_y") if joint else None
    if variant == "prime" and parse_link(link).kind not in SLOPE_LINK_KINDS:
        raise ConfigError(
            f"config key 'link': variant 'prime' needs one of {list(SLOPE_LINK_KINDS)}, "
            f"got {link!r}"
        )

    if "words" in cfg:
        raw_words = cfg_value(cfg, "words", "list")
        if not raw_words:
            raise ConfigError(f"config key 'words': {raw_words!r} is empty")
        jobs = []
        for item in raw_words:
            if isinstance(item, list):
                if not joint or len(item) != 2:
                    raise ConfigError(f"config key 'words': bad entry {item!r}")
                jobs.append((cfg_word("words", item[0]), cfg_word("words", item[1])))
            else:
                w = cfg_word("words", item)
                if variant == "prime" and not is_pair_matched(w):
                    raise ConfigError(
                        f"config key 'words': variant 'prime' needs pair-matched words, "
                        f"got {item!r}"
                    )
                jobs.append((w, w) if joint else (w, None))
        lengths = {w.h for job in jobs for w in job if w is not None}
        if len(lengths) != 1:
            raise ConfigError(f"config key 'words': mixed word lengths {sorted(lengths)}")
        if lengths.pop() > 6:
            raise ConfigError("config key 'words': words longer than 6 letters are not supported")
    else:
        two_k = cfg_value(cfg, "two_k", "int")
        if two_k % 2 != 0 or not 2 <= two_k <= 6:
            raise ConfigError(f"config key 'two_k': {two_k!r} must be an even integer in 2..6")
        words = enumerate_pair_matched(two_k)
        if joint:
            pairs = cfg_choice(cfg, "pairs", ("diagonal", "all"), "diagonal")
            jobs = (
                [(w, w) for w in words]
                if pairs == "diagonal"
                else [(w, w2) for w in words for w2 in words]
            )
        else:
            jobs = [(w, None) for w in words]

    def limit(w, w2=None):
        if joint:
            return joint_limit(link_x, link_y, w, w2)
        return exact_limit(link, w, variant=variant)

    seen: dict = {}
    entries = []
    for w, w2 in jobs:
        entry = {"word": str(w)}
        if w2 is not None:
            entry["word2"] = str(w2)
        words = (w,) if w2 is None else (w, w2)
        entry.update(_limit_json(per_orbit(seen, limit, *words)))
        entries.append(entry)

    report = dict(ctx.header())
    report["variant"] = variant
    report["entries"] = entries
    ctx.emit_json("pw_report.json", report)
    for e in entries:
        label = e["word"] + ("," + e["word2"] if "word2" in e else "")
        print(f"p({label}) = {e['p']} ({e['proof']})")


def cmd_check(ctx: RunContext) -> None:
    cfg = ctx.cfg
    _check_known_keys(
        cfg,
        "check",
        {"relation", "link", "link_x", "link_y", "two_k", "n", "ns", "transform",
         "expected", "require_equal"},
    )
    relation = cfg_choice(cfg, "relation", ("implies", "compatible", "leadsto", "invariance"))
    expected = cfg_value(cfg, "expected", "bool", None)
    require_equal = cfg_value(cfg, "require_equal", "bool", False)
    report = dict(ctx.header())
    report["relation"] = relation

    if relation == "implies":
        link_x = cfg_link(cfg, "link_x")
        link_y = cfg_link(cfg, "link_y")
        raw_ns = cfg_value(cfg, "ns", "list", [10, 20, 50])
        if not raw_ns:
            raise ConfigError("config key 'ns': [] names no dimension to check")
        results = {}
        for n in raw_ns:
            if not isinstance(n, int) or isinstance(n, bool) or not 1 <= n <= 64:
                raise ConfigError(f"config key 'ns': {n!r} must be an integer in 1..64")
            results[n] = check_implies_wigner(link_x, link_y, n)
        report["results"] = {str(n): v for n, v in results.items()}
        if expected is not None:
            for n, got in results.items():
                ctx.check(
                    f"implies:{link_x}*{link_y}@n={n}",
                    got == expected,
                    f"got {got}, expected {expected}",
                )
    elif relation in ("compatible", "leadsto"):
        link_x = cfg_link(cfg, "link_x")
        link_y = cfg_link(cfg, "link_y")
        two_k = cfg_value(cfg, "two_k", "int", 4)
        if two_k % 2 != 0 or not 2 <= two_k <= 6:
            raise ConfigError(f"config key 'two_k': {two_k!r} must be an even integer in 2..6")
        fn = check_compatible if relation == "compatible" else check_leadsto_wigner
        rep = ctx.sweep(relation, [link_x, link_y], lambda: fn(link_x, link_y, two_k))
        report["report"] = _relation_json(rep)
        ctx.check(f"{relation}:{link_x}*{link_y}", rep.all_pass, _relation_detail(rep))
    else:
        link = cfg_link(cfg, "link")
        transform = cfg_transform(cfg, "transform")
        two_k = cfg_value(cfg, "two_k", "int", 4)
        if two_k % 2 != 0 or not 2 <= two_k <= 6:
            raise ConfigError(f"config key 'two_k': {two_k!r} must be an even integer in 2..6")
        n = cfg_posint(cfg, "n", 10)
        try:
            rep = ctx.sweep("invariance", [link, _composed_name(link, transform)],
                            lambda: check_invariance_containment(link, transform, two_k, n))
        except TransformError as exc:
            raise ConfigError(f"config key 'transform': {exc}") from exc
        report["report"] = _invariance_json(rep)
        ctx.check(
            f"invariance:{rep.transform}:subset",
            rep.all_subset,
            f"{sum(e.subset_ok for e in rep.entries)}/{len(rep.entries)} words contained",
        )
        if require_equal:
            ctx.check(
                f"invariance:{rep.transform}:equal",
                rep.all_equal,
                f"injective={rep.injective}",
            )
    ctx.emit_json("check_report.json", report)


def _parse_rows(cfg: Mapping) -> list[int]:
    raw = cfg.get("rows", "all")
    if isinstance(raw, str):
        if raw == "all":
            return list(TABLE2_ROWS)
        parts = [p.strip() for p in raw.split(",") if p.strip()]
        try:
            raw = [int(p) for p in parts]
        except ValueError:
            raise ConfigError(f"config key 'rows': {raw!r} is not 'all' or row numbers")
    if not isinstance(raw, list) or not raw:
        raise ConfigError(f"config key 'rows': {raw!r} is not 'all' or row numbers")
    rows = []
    for r in raw:
        if not isinstance(r, int) or isinstance(r, bool) or r not in TABLE2_ROWS:
            raise ConfigError(f"config key 'rows': {r!r} is not a row in {list(TABLE2_ROWS)}")
        if r not in rows:
            rows.append(r)
    return sorted(rows)


def _tols_from_cfg(cfg: Mapping) -> dict:
    tols = dict(DEFAULT_TOLS)
    if "tol" in cfg:
        overrides = cfg_value(cfg, "tol", "dict")
        for k, v in overrides.items():
            if k not in DEFAULT_TOLS:
                raise ConfigError(f"config key 'tol': unknown tolerance {k!r} (value {v!r})")
            tols[k] = cfg_threshold(overrides, k)
    return tols


def cmd_verify_table2(ctx: RunContext) -> None:
    cfg = ctx.cfg
    _check_known_keys(
        cfg,
        "verify-table2",
        {"rows", "n", "trials", "dist", "dist_x", "dist_y", "h_max", "tol",
         "relation_two_k", "invariance_ns", "mc"},
    )
    rows = _parse_rows(cfg)
    n = cfg_posint(cfg, "n", 1000, minimum=2)
    trials = cfg_posint(cfg, "trials", 20, minimum=2)
    dist = cfg_choice(cfg, "dist", INPUT_DISTRIBUTIONS, "rademacher")
    dist_x = cfg_choice(cfg, "dist_x", INPUT_DISTRIBUTIONS, dist)
    dist_y = cfg_choice(cfg, "dist_y", INPUT_DISTRIBUTIONS, dist)
    h_max = cfg_posint(cfg, "h_max", 8, minimum=6)
    if h_max > 8:
        raise ConfigError(f"config key 'h_max': {h_max!r} must be <= 8")
    run_mc = cfg_value(cfg, "mc", "bool", True)
    tols = _tols_from_cfg(cfg)
    relation_two_k = cfg_value(cfg, "relation_two_k", "int", 4)
    if relation_two_k % 2 != 0 or not 2 <= relation_two_k <= 6:
        raise ConfigError(
            f"config key 'relation_two_k': {relation_two_k!r} must be an even integer in 2..6"
        )
    invariance_ns = cfg_value(cfg, "invariance_ns", "list", [8, 16])
    for v in invariance_ns:
        if not isinstance(v, int) or isinstance(v, bool) or v < 4:
            raise ConfigError(f"config key 'invariance_ns': {v!r} must be an integer >= 4")

    # Seed stream index of each product: its position in the full registry,
    # so a subset run sees the same seeds as a full run.
    all_products = [pair for record in TABLE2_ROWS.values() for pair in record.products]
    target_cache: dict[str, dict] = {}
    # Each link's delta at n, for the product bound min(delta_X, delta_Y): a
    # pair label repeats in a row no more often than either of its labels.
    link_delta: dict[str, int] = {}

    def targets_for(limit: str) -> dict:
        if limit not in target_cache:
            target_cache[limit] = _timed_targets(ctx, limit, h_max)
        return target_cache[limit]

    row_reports = []
    product_reports = []
    for row in rows:
        record = TABLE2_ROWS[row]
        limit = record.limit
        targets = targets_for(limit)
        row_report = {"row": row, "limit": limit,
                      "targets": {str(k): v for k, v in targets.items()},
                      "relations": [], "invariance": []}

        # combinatorial side of the row
        for x, y in record.products:
            tag = f"row{row}:{x}*{y}"
            for inv_n in invariance_ns if record.invariance else ():
                transform = record.invariance(x, y, inv_n)
                rep = ctx.sweep(
                    "invariance", [x, _composed_name(x, transform)],
                    lambda: check_invariance_containment(x, transform, relation_two_k, inv_n),
                )
                row_report["invariance"].append(_invariance_json(rep))
                ctx.check(
                    f"{tag}:invariance@n={inv_n}",
                    rep.all_subset,
                    f"{sum(e.subset_ok for e in rep.entries)}/{len(rep.entries)} words contained",
                )
            for kind in record.relations:
                relation = check_compatible if kind == "compatible" else check_leadsto_wigner
                rep = ctx.sweep(kind, [x, y], lambda: relation(x, y, relation_two_k))
                row_report["relations"].append(_relation_json(rep))
                ctx.check(f"{tag}:{kind}", rep.all_pass, _relation_detail(rep))
            if record.implies_wigner:
                row_report.setdefault("implies_wigner", {})[f"{x}*{y}"] = check_implies_wigner(
                    x, y, 20
                )

        # Monte Carlo side of the row
        if run_mc:
            for x, y in record.products:
                tag = f"row{row}:{x}*{y}"
                seed = stream_seed(ctx.seed, all_products.index((x, y)))
                spec = ProductSpec(
                    link_x=x, link_y=y, dist_x=dist_x, dist_y=dist_y,
                    n=n, master_seed=seed, trials=trials,
                )
                spectra = ctx.spectra(spec)
                moments = moments_from_spectra(spectra, h_max)
                by_h = {m.h: m for m in moments}
                for link in (x, y):
                    if link not in link_delta:
                        link_delta[link] = row_delta(parse_link(link), n)
                delta = min(link_delta[x], link_delta[y])

                entry = {
                    "row": row, "link_x": x, "link_y": y, "seed": seed,
                    "n": n, "trials": trials, "delta": delta,
                    "moments": [
                        _moment_json(
                            m,
                            targets[m.h]["value"] if m.h in targets
                            else (0.0 if m.h % 2 else None),
                        )
                        for m in moments
                    ],
                }

                if limit == "semicircle":
                    esd = ESD.from_spectra(spectra)
                    ks = ks_distance(esd, semicircle_cdf)
                    entry["ks_semicircle"] = ks
                    for two_k, tol_key in ((2, "beta2_abs"), (4, "beta4_abs"), (6, "beta6_abs")):
                        m = by_h[two_k]
                        t = targets[two_k]["value"]
                        ctx.check(
                            f"{tag}:beta{two_k}",
                            abs(m.mean - t) <= tols[tol_key],
                            f"estimate {_fmt(m.mean)}, target {_fmt(t)}, tol {tols[tol_key]}",
                        )
                    ctx.check(
                        f"{tag}:ks",
                        ks <= tols["ks_max"],
                        f"KS {_fmt(ks)} vs max {tols['ks_max']}",
                    )
                else:
                    for two_k in (2, 4, 6):
                        m = by_h[two_k]
                        t = targets[two_k]["value"]
                        band = tols["z_max"] * m.stderr + BAND_EPS
                        ctx.check(
                            f"{tag}:beta{two_k}",
                            abs(m.mean - t) <= band,
                            f"estimate {_fmt(m.mean)}, target {_fmt(t)}, band {_fmt(band)}",
                        )

                for h in (1, 3, 5):
                    m = by_h[h]
                    band = tols["z_max"] * m.stderr + BAND_EPS
                    ctx.check(
                        f"{tag}:odd{h}",
                        abs(m.mean) <= band,
                        f"estimate {_fmt(m.mean)}, band {_fmt(band)}",
                    )
                for two_k in range(2, h_max + 1, 2):
                    m = by_h[two_k]
                    bound = moment_bound(two_k, delta)
                    ctx.check(
                        f"{tag}:bound{two_k}",
                        m.mean <= bound + tols["z_max"] * m.stderr + BAND_EPS,
                        f"estimate {_fmt(m.mean)} vs bound {bound} (delta {delta})",
                    )
                product_reports.append(entry)
        row_reports.append(row_report)

    report = dict(ctx.header())
    report["rows"] = row_reports
    report["products"] = product_reports
    report["checks"] = [
        {"name": c.name, "pass": c.passed, "detail": c.detail} for c in ctx.checks
    ]
    report["all_pass"] = all(c.passed for c in ctx.checks)
    ctx.emit_json("verify_table2_report.json", report)


# --- entry point ---------------------------------------------------------------------


COMMANDS = {
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
    config: numpy, its BLAS, the BLAS thread variables and ``threads``."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except TypeError:  # numpy before 1.26 can only print its build config
        blas = {}
    return {
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_thread_vars": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "threads": threads,
    }


def _peak_rss_mb() -> float:
    """Peak resident memory of this process so far, in MiB (``ru_maxrss``
    counts KiB on Linux and bytes on macOS)."""
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
        sp.add_argument("--out", help="output directory (default: out)")
        sp.add_argument(
            "--threads", type=int,
            help="Monte Carlo worker threads (default: usable CPUs); never changes results",
        )
        if name == "verify-table2":
            sp.add_argument("--rows", help="row selector: 'all' or comma list like '1,3'")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config_file(args.config)
        if args.seed is not None:
            cfg["seed"] = args.seed
        if args.out is not None:
            cfg["out"] = args.out
        if args.threads is not None:
            cfg["threads"] = args.threads
        if getattr(args, "rows", None) is not None:
            cfg["rows"] = args.rows

        seed = cfg_value(cfg, "seed", "int")
        if not 0 <= seed < 2**64:
            raise ConfigError(f"config key 'seed': {seed!r} must be a 64-bit unsigned integer")
        threads = cfg_posint(cfg, "threads", usable_cpus())
        out_dir = Path(cfg_value(cfg, "out", "str", "out"))

        ctx = RunContext(
            command=args.command,
            cfg=cfg,
            out_dir=out_dir,
            threads=threads,
            seed=seed,
            hash=config_hash(args.command, cfg),
        )
        out_dir.mkdir(parents=True, exist_ok=True)
        start = time.perf_counter()
        COMMANDS[args.command](ctx)
        wall = time.perf_counter() - start
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SearchBudgetError as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return 3

    inventory = []
    for name in sorted(ctx.files):
        data = (ctx.out_dir / name).read_bytes()
        inventory.append(
            {"path": name, "sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}
        )
    all_pass = all(c.passed for c in ctx.checks)
    manifest = {
        "config_hash": ctx.hash,
        "version": __version__,
        "command": ctx.command,
        "wall_time_s": wall,
        "peak_rss_mb": _peak_rss_mb(),
        "passed": all_pass,
        "checks": [{"name": c.name, "pass": c.passed, "detail": c.detail} for c in ctx.checks],
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

    for c in ctx.checks:
        line = f"[{'PASS' if c.passed else 'FAIL'}] {c.name}"
        if c.detail:
            line += f" ({c.detail})"
        print(line)
    n_pass = sum(c.passed for c in ctx.checks)
    print(f"{n_pass}/{len(ctx.checks)} checks passed; manifest: {ctx.out_dir / 'manifest.json'}")
    return 0 if all_pass else 1


if __name__ == "__main__":
    sys.exit(main())
