"""End-to-end tests of the command-line interface: exit codes, reports,
manifests, determinism, and config validation."""

import hashlib
import json
import math
import os
import resource
import subprocess
import sys

import numpy as np
import pytest

import schurlsd.circuits as circuits
import schurlsd.cli as cli
import schurlsd.spectral as spectral
from schurlsd import BLAS_THREAD_VARS
from schurlsd.circuits import check_invariance_containment
from schurlsd.cli import main
from schurlsd.linkfn import eval_link, parse_link
from schurlsd.words import canonicalize, orbit_key


def run_cli(tmp_path, command, cfg, seed=1, out="out", extra=None):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    argv = [command, "--config", str(cfg_path), "--seed", str(seed), "--out", str(tmp_path / out)]
    if extra:
        argv += extra
    code = main(argv)
    return code, tmp_path / out


def read_json(out_dir, name):
    return json.loads((out_dir / name).read_text())


# --- exit codes -----------------------------------------------------------------------


def test_exit_zero_on_pass(tmp_path):
    code, _ = run_cli(tmp_path, "words", {"two_k": 4})
    assert code == 0


def test_exit_one_on_failing_check(tmp_path):
    cfg = {"relation": "implies", "link_x": "toeplitz", "link_y": "revcirc",
           "ns": [10], "expected": True}
    code, out = run_cli(tmp_path, "check", cfg)
    assert code == 1
    manifest = read_json(out, "manifest.json")
    assert manifest["passed"] is False


def test_exit_two_on_unknown_key(tmp_path, capsys):
    code, _ = run_cli(tmp_path, "words", {"two_k": 4, "bogus": 17})
    assert code == 2
    err = capsys.readouterr().err
    assert "bogus" in err and "17" in err


def test_exit_two_on_missing_seed():
    assert main(["words"]) == 2


def test_exit_two_on_bad_value(tmp_path, capsys):
    code, _ = run_cli(tmp_path, "words", {"two_k": 7})
    assert code == 2
    err = capsys.readouterr().err
    assert "two_k" in err and "7" in err


def test_exit_three_on_budget(tmp_path, capsys):
    # an order-6 count at n = 1000 has 1000^4 search nodes
    cfg = {"relation": "invariance", "link": "toeplitz", "transform": {"kind": "square"},
           "two_k": 6, "n": 1000}
    code, _ = run_cli(tmp_path, "check", cfg)
    assert code == 3
    assert "resource error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command,cfg",
    [
        ("check", {"relation": "invariance", "link": "wigner",
                   "transform": {"kind": "coprimepower", "a": 2, "b": 3}, "two_k": 4,
                   "n": 1_000_000}),
        ("check", {"relation": "invariance", "link": "toeplitz", "transform": {"kind": "square"},
                   "two_k": 4, "n": 1_000_000}),
        ("verify-table2", {"rows": [1], "mc": False, "invariance_ns": [1_000_000]}),
    ],
    ids=["check-wigner", "check-toeplitz", "verify-table2"],
)
def test_invariance_over_the_node_budget_exits_three_before_any_table(
        tmp_path, capsys, monkeypatch, command, cfg):
    # Tables at n = 10^6 would take terabytes; the sweep must refuse first.
    def no_table(*args):
        raise AssertionError("a code table was built")

    monkeypatch.setattr(circuits, "value_table", no_table)
    code, out = run_cli(tmp_path, command, cfg)
    assert code == 3
    assert capsys.readouterr().err.startswith("resource error: ")
    assert not out.exists()


def test_exit_four_on_output_error(tmp_path):
    # --out below a regular file: the output directory cannot be made
    (tmp_path / "file").write_text("")
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"two_k": 4}))
    argv = [sys.executable, "-m", "schurlsd.cli", "words", "--config", str(cfg_path),
            "--seed", "1", "--out", str(tmp_path / "file" / "out")]
    proc = subprocess.run(argv, capture_output=True, text=True)
    assert proc.returncode == 4
    assert proc.stderr.startswith("output error: ")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "command,cfg",
    [
        ("check", {"relation": "compatible", "link_x": "toeplitz", "link_y": "hankel",
                   "ladder": [8, 16, 32]}),
        ("check", {"relation": "leadsto", "link_x": "toeplitz", "link_y": "hankel",
                   "tol": 0.03}),
        ("pw", {"link": "toeplitz", "words": ["abab"], "ladder": [8, 16, 32]}),
        ("verify-table2", {"rows": [2], "mc": False, "relation_ladder": [8, 16, 32]}),
        ("verify-table2", {"rows": [2], "mc": False, "tol": {"p_tol": 0.03}}),
    ],
    ids=["check.ladder", "check.tol", "pw.ladder", "verify-table2.relation_ladder",
         "tol.p_tol"],
)
def test_removed_ladder_and_tolerance_keys_exit_two(tmp_path, capsys, command, cfg):
    code, _ = run_cli(tmp_path, command, cfg)
    assert code == 2
    assert "unknown" in capsys.readouterr().err


# --- bad config values are rejected before any work ----------------------------------------


def _exits_two_with_no_report(tmp_path, command, cfg):
    code, out = run_cli(tmp_path, command, cfg)
    assert code == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "command,cfg,key,value",
    [
        ("words", {"two_k": 4, "out": "elsewhere"}, "out", "elsewhere"),
        ("words", {"two_k": 4, "threads": 2}, "threads", 2),
        ("verify-table2", {"rows": [5], "n": 30, "trials": 2, "invariance_ns": [8],
                           "tol": {"z_max": 4.0}}, "tol", {"z_max": 4.0}),
        ("verify-table2", {"rows": [5], "n": 30, "trials": 2, "invariance_ns": [8],
                           "tol": {"nope": 0.1}}, "tol", {"nope": 0.1}),
        ("verify-table2", {"rows": [5], "n": 30, "trials": 2, "invariance_ns": [8],
                           "tol": {"z_max": math.nan}}, "tol", {"z_max": math.nan}),
        ("verify-table2", {"rows": [5], "n": 30, "trials": 2, "invariance_ns": [8],
                           "tol": {"ks_max": -0.5}}, "tol", {"ks_max": -0.5}),
        ("verify-table2", {"rows": [5], "n": 30, "trials": 2, "invariance_ns": [8],
                           "tol": {"beta2_abs": math.inf}}, "tol", {"beta2_abs": math.inf}),
        ("verify-table2", {"rows": [5], "n": 30, "trials": 2, "invariance_ns": [8],
                           "dist": "gaussian"}, "dist", "gaussian"),
        ("verify-table2", {"rows": [5], "n": 30, "trials": 2, "invariance_ns": [8],
                           "h_max": 8}, "h_max", 8),
        ("spectrum", {"link_x": "wigner", "link_y": "toeplitz", "n": 20,
                      "reference": "none"}, "reference", "none"),
        ("moments", {"link_x": "hankel", "link_y": "revcirc", "n": 20,
                     "targets": "none"}, "targets", "none"),
    ],
    ids=["out", "threads", "verify-table2.tol", "verify-table2.tol.unknown",
         "verify-table2.tol.nan", "verify-table2.tol.negative", "verify-table2.tol.inf",
         "verify-table2.dist", "verify-table2.h_max", "spectrum.reference", "moments.targets"],
)
def test_removed_override_and_switch_keys_exit_two(tmp_path, capsys, command, cfg, key, value):
    # the output directory and worker count are flags only; the gate bands,
    # the moment orders of verify-table2 and the references are fixed, so a
    # tol map is refused whole, whatever its keys and values
    _exits_two_with_no_report(tmp_path, command, cfg)
    assert f"unknown config key {key!r} (value {value!r})" in capsys.readouterr().err


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_threads_flag_below_one_exits_two(tmp_path, capsys, threads):
    code, out = run_cli(tmp_path, "words", {"two_k": 4}, extra=["--threads", threads])
    assert code == 2 and not out.exists()
    assert f"--threads: {threads} must be an integer >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("z_max", [-1, 0, float("nan"), float("inf"), "3"])
def test_moments_bad_z_max_exits_two_and_writes_no_report(tmp_path, z_max):
    cfg = {"link_x": "toeplitz", "link_y": "hankel", "n": 20, "trials": 2, "z_max": z_max}
    _exits_two_with_no_report(tmp_path, "moments", cfg)


@pytest.mark.parametrize("ks_max", [-0.5, float("nan")])
def test_spectrum_bad_ks_max_exits_two_and_writes_no_report(tmp_path, ks_max):
    cfg = {"link_x": "wigner", "link_y": "toeplitz", "n": 20, "trials": 2, "ks_max": ks_max}
    _exits_two_with_no_report(tmp_path, "spectrum", cfg)


@pytest.mark.parametrize("link_x,link_y,limit", [("hankel", "revcirc", "hankel"),
                                                  ("symcirc", "toeplitz", "toeplitz")])
def test_spectrum_refuses_ks_max_for_a_limit_other_than_the_semicircle(
        tmp_path, capsys, link_x, link_y, limit):
    # KS is measured against the semicircle, so a Table 2 product with another
    # limit (rows 3-5) cannot be gated by it
    cfg = {"link_x": link_x, "link_y": link_y, "n": 20, "trials": 2, "ks_max": 0.05}
    _exits_two_with_no_report(tmp_path, "spectrum", cfg)
    assert f"{link_x}*{link_y} has the Table 2 limit {limit!r}" in capsys.readouterr().err


@pytest.mark.parametrize("link_y", ["toeplitz", "wigner"])
def test_spectrum_still_gates_ks_max_on_semicircle_and_unlisted_products(tmp_path, link_y):
    # wigner*toeplitz is Table 2 row 1; wigner*wigner is in no row
    cfg = {"link_x": "wigner", "link_y": link_y, "n": 40, "trials": 2, "ks_max": 1e-9}
    code, out = run_cli(tmp_path, "spectrum", cfg)
    assert code == 1
    (check,) = read_json(out, "manifest.json")["checks"]
    assert check["name"] == "spectrum:ks" and check["pass"] is False


@pytest.mark.parametrize("bad", [[float("-inf"), 3], [-3, float("inf")], [float("nan"), 3],
                                 [1, 1.000000000000001], [-1e308, 1e308], [0, 1e308]])
def test_spectrum_range_must_be_finite(tmp_path, capsys, reads_only, bad):
    # the last three are finite, but their bin edges do not increase, their
    # width overflows or their centres do; reads_only raises where the work
    # would begin, so exit 2 shows each is refused while the config is read
    cfg = {"link_x": "wigner", "link_y": "toeplitz", "n": 20, "trials": 2, "range": bad}
    _exits_two_with_no_report(tmp_path, "spectrum", cfg)
    assert "config key 'range'" in capsys.readouterr().err


def test_spectrum_bins_are_capped(tmp_path, capsys, reads_only):
    cfg = {"link_x": "wigner", "link_y": "toeplitz", "n": 20, "trials": 2}
    _exits_two_with_no_report(tmp_path, "spectrum", {**cfg, "bins": cli.MAX_BINS + 1})
    assert "config key 'bins'" in capsys.readouterr().err
    with pytest.raises(reads_only):
        run_cli(tmp_path, "spectrum", {**cfg, "bins": cli.MAX_BINS, "range": [-1e300, 1e300]})


def test_check_reads_require_equal_before_counting(tmp_path):
    # the order-6 count at n = 1000 would exceed its budget (exit 3), so
    # exit 2 shows the bad value was read first
    cfg = {"relation": "invariance", "link": "toeplitz", "transform": {"kind": "square"},
           "two_k": 6, "n": 1000, "require_equal": "yes"}
    _exits_two_with_no_report(tmp_path, "check", cfg)


@pytest.mark.parametrize(
    "command,cfg,key",
    [
        ("check", {"relation": "compatible", "link_x": "toeplitz", "link_y": "revcirc",
                   "expected": False, "require_equal": True, "n": 5, "ns": [3]}, "expected"),
        ("check", {"relation": "implies", "link_x": "toeplitz", "link_y": "hankel",
                   "two_k": 4}, "two_k"),
        ("pw", {"link_x": "toeplitz", "link_y": "hankel", "words": ["abab"],
                "pairs": "all"}, "pairs"),
        ("pw", {"link": "toeplitz", "two_k": 4, "pairs": "all"}, "pairs"),
        ("check", {"relation": "invariance", "link": "toeplitz",
                   "transform": {"kind": "square", "a": 2}}, "transform.a"),
        ("verify-table2", {"rows": [2], "mc": False, "invariance_ns": [8]}, "invariance_ns"),
        ("verify-table2", {"rows": [5], "mc": False, "n": 30}, "n"),
        ("verify-table2", {"rows": [5], "mc": False, "dist_x": "gaussian"}, "dist_x"),
    ],
    ids=["check.compatible_with_other_relation_keys", "check.implies_with_two_k",
         "pw.words_with_pairs", "pw.single_link_with_pairs",
         "check.transform_key_of_another_kind", "verify-table2.invariance_ns_without_invariance",
         "verify-table2.n_without_monte_carlo", "verify-table2.dist_x_without_monte_carlo"],
)
def test_a_key_the_run_does_not_read_exits_two(tmp_path, capsys, command, cfg, key):
    _exits_two_with_no_report(tmp_path, command, cfg)
    assert f"unknown config key {key!r}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command,cfg",
    [
        ("check", {"relation": "compatible", "link_x": "toeplitz", "link_y": "revcirc",
                   "two_k": 2}),
        ("check", {"relation": "leadsto", "link_x": "toeplitz", "link_y": "revcirc",
                   "two_k": 2}),
        ("check", {"relation": "invariance", "link": "toeplitz",
                   "transform": {"kind": "square"}, "two_k": 2}),
        ("verify-table2", {"rows": [2], "mc": False, "relation_two_k": 2}),
    ],
    ids=["compatible", "leadsto", "invariance", "verify-table2"],
)
def test_sweeps_at_order_two_exit_two(tmp_path, capsys, command, cfg):
    # the only word of length 2 is aa: no word pair to compare, and every
    # count is n^2, so a gate there would pass without testing anything
    _exits_two_with_no_report(tmp_path, command, cfg)
    assert "two_k': 2" in capsys.readouterr().err


@pytest.mark.parametrize("ns", [[], [8, 8]])
def test_verify_invariance_dimensions_must_be_distinct_and_present(tmp_path, ns):
    cfg = {"rows": [3], "mc": False, "invariance_ns": ns}
    _exits_two_with_no_report(tmp_path, "verify-table2", cfg)


@pytest.mark.parametrize("ns", [[10, 100], [10, 10]])
def test_check_implies_validates_every_dimension_before_counting(tmp_path, monkeypatch, ns):
    calls = []
    monkeypatch.setattr(cli, "check_implies_wigner", lambda x, y, n: calls.append(n) or True)
    cfg = {"relation": "implies", "link_x": "toeplitz", "link_y": "hankel", "ns": ns}
    _exits_two_with_no_report(tmp_path, "check", cfg)
    assert calls == []


def test_config_rejects_reads_after_close():
    cfg = cli.Config("words", {"two_k": 4, "mode": "list"})
    assert cfg.integer("two_k", even=True) == 4
    with pytest.raises(cli.ConfigError, match="unknown config key 'mode'"):
        cfg.close()
    with pytest.raises(RuntimeError, match="after the config was closed"):
        cfg.value("mode", "str")


def test_sweep_order_range_follows_the_library_cap(tmp_path, monkeypatch, reads_only):
    cases = [
        ("check", {"relation": "compatible", "link_x": "toeplitz", "link_y": "hankel"},
         "two_k"),
        ("pw", {"link": "toeplitz"}, "two_k"),
        ("verify-table2", {"rows": [2], "mc": False}, "relation_two_k"),
    ]
    for cap in (4, 8):
        monkeypatch.setattr(circuits, "MAX_SWEEP_ORDER", cap)
        for command, cfg, key in cases:
            for order in (4, 6, 8):
                if order <= cap:
                    with pytest.raises(reads_only):
                        run_cli(tmp_path, command, {**cfg, key: order})
                else:
                    assert run_cli(tmp_path, command, {**cfg, key: order})[0] == 2


def test_sweep_order_floor_follows_the_library_floor(tmp_path, monkeypatch, reads_only):
    monkeypatch.setattr(circuits, "MIN_SWEEP_ORDER", 6)
    cfg = {"relation": "compatible", "link_x": "toeplitz", "link_y": "hankel"}
    assert run_cli(tmp_path, "check", {**cfg, "two_k": 4})[0] == 2
    assert run_cli(tmp_path, "verify-table2", {"rows": [2], "mc": False,
                                               "relation_two_k": 4})[0] == 2
    for command, config in (("check", {**cfg, "two_k": 6}), ("check", cfg),
                            ("verify-table2", {"rows": [2], "mc": False})):
        with pytest.raises(reads_only):
            run_cli(tmp_path, command, config)


# --- words ------------------------------------------------------------------------------


def test_words_report(tmp_path):
    code, out = run_cli(tmp_path, "words", {"two_k": 6})
    assert code == 0
    report = read_json(out, "words_report.json")
    assert report["total"] == 15
    assert report["catalan"] == 5
    assert len(report["words"]) == 15
    first = report["words"][0]
    assert first["word"] == "aabbcc"
    assert first["catalan"] is True
    assert first["generating_positions"] == [0, 1, 3, 5]


# --- manifest ----------------------------------------------------------------------------


def test_manifest_inventory_hashes_files(tmp_path):
    code, out = run_cli(tmp_path, "words", {"two_k": 4})
    assert code == 0
    manifest = read_json(out, "manifest.json")
    assert manifest["command"] == "words"
    assert len(manifest["config_hash"]) == 16
    int(manifest["config_hash"], 16)  # hex
    assert manifest["passed"] is True
    for entry in manifest["files"]:
        data = (out / entry["path"]).read_bytes()
        assert hashlib.sha256(data).hexdigest() == entry["sha256"]
        assert len(data) == entry["bytes"]


def test_threads_default_to_usable_cpus(tmp_path, monkeypatch):
    # pool the trials at this small n, so the default run really uses 3 workers
    monkeypatch.setattr(spectral, "MIN_THREADED_N", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    cfg = {"link_x": "wigner", "link_y": "toeplitz", "n": 40, "trials": 4}
    _, default = run_cli(tmp_path, "moments", cfg, out="default")
    _, one = run_cli(tmp_path, "moments", cfg, out="one", extra=["--threads", "1"])
    manifests = [read_json(out, "manifest.json") for out in (default, one)]
    assert [m["environment"]["threads"] for m in manifests] == [3, 1]
    assert [m["mc_products"][0]["workers"] for m in manifests] == [3, 1]
    assert manifests[0]["config_hash"] == manifests[1]["config_hash"]
    reports = [(out / "moments_report.json").read_bytes() for out in (default, one)]
    assert reports[0] == reports[1]


def test_manifest_logs_environment_and_mc_products_outside_the_report(tmp_path):
    cfg = {"rows": [1], "n": 60, "trials": 3, "invariance_ns": [8]}
    _, out = run_cli(tmp_path, "verify-table2", cfg, extra=["--threads", "2"])
    manifest = read_json(out, "manifest.json")
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert manifest["environment"] == {
        "numpy": np.__version__,
        "blas": {"name": blas["name"], "version": blas["version"]},
        "eigensolver": spectral.eigensolver(),
        "blas_thread_vars": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "threads": 2,
    }
    products = manifest["mc_products"]
    assert [(p["product"], p["trials"]) for p in products] == [
        (f"wigner*{y}", 3) for y in ("toeplitz", "hankel", "symcirc", "revcirc", "dsymhankel")
    ]
    timings = ("wall_s", "realize_s", "eigensolve_s", "reduce_s")
    for p in products:
        assert set(p) == {"product", "trials", "workers", "blocks", *timings, "peak_rss_mb"}
        assert all(p[key] > 0 for key in timings)
        # n = 60 is below the crossover, so --threads 2 runs one worker
        assert p["workers"] == 1
        # no link shares an index involution with wigner
        assert p["blocks"] == [60]
    # the peak so far after each product: it never falls, and the run's peak
    # is read after the last one
    peaks = [p["peak_rss_mb"] for p in products]
    assert all(isinstance(peak, float) and peak > 0 for peak in peaks)
    assert peaks == sorted(peaks) and peaks[-1] <= manifest["peak_rss_mb"]
    report = (out / "verify_table2_report.json").read_text()
    for key in ("environment", "mc_products", "blas", "eigensolver", "dsyevd", "workers",
                "blocks", "peak_rss", *timings):
        assert key not in report
    _, words = run_cli(tmp_path, "words", {"two_k": 4}, out="words")
    manifest = read_json(words, "manifest.json")
    assert "environment" in manifest and "mc_products" not in manifest


@pytest.mark.parametrize("n,blocks", [(40, [20, 20]), (41, [41])])
def test_manifest_logs_the_blocks_a_trial_was_solved_as(tmp_path, n, blocks):
    # symcirc and revcirc share the half shift, which splits a trial at even n
    cfg = {"link_x": "symcirc", "link_y": "revcirc", "n": n, "trials": 3}
    _, out = run_cli(tmp_path, "moments", cfg)
    assert read_json(out, "manifest.json")["mc_products"][0]["blocks"] == blocks
    assert "blocks" not in (out / "moments_report.json").read_text()


def test_manifest_logs_peak_rss_outside_the_report(tmp_path):
    code, out = run_cli(tmp_path, "spectrum", {"link_x": "toeplitz", "link_y": "hankel",
                                               "n": 40, "trials": 2})
    assert code == 0
    peak = read_json(out, "manifest.json")["peak_rss_mb"]
    assert isinstance(peak, float) and peak > 0
    for path in out.iterdir():
        if path.name != "manifest.json":
            assert "peak_rss" not in path.read_text(), path.name


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="no procfs: the peak is ru_maxrss")
def test_manifest_peak_is_the_runs_own_not_its_launchers(tmp_path):
    """A run started by a process holding 150 MB records its own peak: on
    Linux ``ru_maxrss`` would carry the launcher's across fork and exec."""
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"two_k": 4}))
    out = tmp_path / "out"
    argv = [sys.executable, "-m", "schurlsd.cli", "words", "--config", str(cfg_path),
            "--seed", "1", "--out", str(out)]
    launcher = (
        "import subprocess, sys; "
        "held = b'\\x01' * (150 * 2**20); "  # every page of it written
        f"sys.exit(subprocess.run({argv!r}).returncode)"
    )
    proc = subprocess.run([sys.executable, "-c", launcher], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert read_json(out, "manifest.json")["peak_rss_mb"] < 100


def test_peak_falls_back_to_ru_maxrss_without_procfs(monkeypatch):
    def no_procfs(*args, **kwargs):
        raise FileNotFoundError(args[0])

    monkeypatch.setattr(cli, "open", no_procfs, raising=False)
    scale = 2**20 if sys.platform == "darwin" else 2**10
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / scale
    peak = cli._peak_rss_mb()
    assert 0 < before <= peak <= resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / scale


@pytest.mark.parametrize("relation,unit", [("compatible", "word pairs"), ("leadsto", "words")])
def test_check_detail_counts_the_units_of_its_relation(tmp_path, relation, unit):
    cfg = {"relation": relation, "link_x": "toeplitz", "link_y": "hankel", "two_k": 4}
    code, out = run_cli(tmp_path, "check", cfg)
    assert code == 0
    (check,) = read_json(out, "manifest.json")["checks"]
    entries = len(read_json(out, "check_report.json")["report"]["entries"])
    assert check["detail"] == f"{entries}/{entries} {unit} pass"


def test_report_bytes_do_not_depend_on_the_blas_thread_variable(tmp_path):
    """At n = 300 the last bits of an eigensolve change with OpenBLAS's thread
    count, which defaults to the core count; the package pins it to one."""
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"rows": [1], "n": 300, "trials": 2, "invariance_ns": [8]}))
    blobs = []
    for value in (None, "1"):
        env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
        if value is not None:
            env["OPENBLAS_NUM_THREADS"] = value
        out = tmp_path / f"blas_{value}"
        proc = subprocess.run(
            [sys.executable, "-m", "schurlsd.cli", "verify-table2", "--config", str(cfg_path),
             "--seed", "1", "--out", str(out)],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode in (0, 1), proc.stderr
        thread_vars = read_json(out, "manifest.json")["environment"]["blas_thread_vars"]
        assert thread_vars["OPENBLAS_NUM_THREADS"] == "1"
        blobs.append((out / "verify_table2_report.json").read_bytes())
    assert blobs[0] == blobs[1]


def test_config_hash_excludes_out_and_threads(tmp_path):
    _, out1 = run_cli(tmp_path, "words", {"two_k": 4}, out="a")
    _, out2 = run_cli(tmp_path, "words", {"two_k": 4}, out="b", extra=["--threads", "3"])
    h1 = read_json(out1, "manifest.json")["config_hash"]
    h2 = read_json(out2, "manifest.json")["config_hash"]
    assert h1 == h2
    _, out3 = run_cli(tmp_path, "words", {"two_k": 6}, out="c")
    assert read_json(out3, "manifest.json")["config_hash"] != h1


def test_config_hash_is_the_sha256_of_the_canonical_config():
    cfg = {"two_k": 4, "seed": 5, "link": "toeplitz"}
    blob = '{"command":"words","config":{"link":"toeplitz","seed":5,"two_k":4}}'
    assert cli.config_hash("words", cfg) == hashlib.sha256(blob.encode()).hexdigest()[:16]


#: Runs that load neither OpenSSL's hash module nor the thread pool, and runs
#: that realize no matrix do not load ``numpy.random`` either. Digests
#: come from CPython's own SHA-256, and ``numpy.random`` is imported with
#: OpenSSL's hash module held off (``ensemble._pcg64``), so Monte Carlo runs
#: leave ``_hashlib`` unloaded too; trials below ``spectral.MIN_THREADED_N``
#: run on the calling thread. (command, config, modules it must not load,
#: exit code). Two trials give the odd-moment bands of the pooled
#: ``verify-table2`` run too little to pass, so it exits 1 once its report
#: is written.
LEAN_RUNS = [
    ("check", {"relation": "compatible", "link_x": "toeplitz", "link_y": "hankel", "two_k": 4},
     ("_hashlib", "numpy.random", "concurrent.futures"), 0),
    ("check", {"relation": "implies", "link_x": "toeplitz", "link_y": "hankel", "ns": [10],
               "expected": True}, ("numpy.ma", "numpy.random", "concurrent.futures"), 0),
    ("check", {"relation": "invariance", "link": "toeplitz", "two_k": 4, "n": 10,
               "transform": {"kind": "usertable", "table": {str(v): 9 - v for v in range(10)}}},
     ("numpy.ma", "numpy.random", "concurrent.futures"), 0),
    ("words", {"two_k": 4}, ("_hashlib", "numpy.random", "concurrent.futures"), 0),
    ("pw", {"link": "toeplitz", "words": ["abab"]},
     ("_hashlib", "numpy.random", "concurrent.futures"), 0),
    ("moments", {"link_x": "hankel", "link_y": "revcirc", "n": spectral.MIN_THREADED_N // 5,
                 "trials": 3}, ("_hashlib", "concurrent.futures"), 0),
    # pooled trials; rows 1 and 2 check both invariance and implies-Wigner
    ("verify-table2", {"rows": [1, 2], "n": spectral.MIN_THREADED_N, "trials": 2},
     ("_hashlib", "numpy.ma", "concurrent.futures"), 1),
]


@pytest.mark.parametrize("command,cfg,absent,exit_code", LEAN_RUNS,
                         ids=["check", "check-implies", "check-invariance", "words", "pw",
                              "moments", "verify-table2"])
def test_a_run_loads_no_module_it_does_not_use(tmp_path, command, cfg, absent, exit_code):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    code = (
        "import sys; from schurlsd.cli import main; "
        f"code = main({[command, '--config', str(cfg_path), '--seed', '1', '--threads', '2', '--out', str(tmp_path / 'out')]!r}); "
        f"print(code, sorted(m for m in {list(absent)!r} if m in sys.modules))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == f"{exit_code} []"


def test_seed_flag_overrides_config(tmp_path):
    _, out = run_cli(tmp_path, "words", {"two_k": 4, "seed": 999}, seed=5)
    assert read_json(out, "words_report.json")["config"]["seed"] == 5


# --- spectrum ----------------------------------------------------------------------------


def test_spectrum_run(tmp_path):
    cfg = {"link_x": "wigner", "link_y": "toeplitz", "dist_x": "rademacher",
           "dist_y": "rademacher", "n": 150, "trials": 4, "ks_max": 0.1,
           "eigenvalues_csv": True, "bins": 40}
    code, out = run_cli(tmp_path, "spectrum", cfg, seed=5)
    assert code == 0
    report = read_json(out, "spectrum_report.json")
    assert report["n_eigenvalues"] == 600
    assert report["ks_semicircle"] <= 0.1
    hist = report["histogram"]
    assert len(hist["centers"]) == 40
    width = (hist["hi"] - hist["lo"]) / hist["bins"]
    mass = sum(hist["density"]) * width
    assert mass == pytest.approx(1.0, abs=0.02)
    csv_lines = (out / "eigenvalues.csv").read_text().splitlines()
    assert csv_lines[0] == "trial,eigenvalue"
    assert len(csv_lines) == 601


def test_spectrum_range_validation(tmp_path):
    cfg = {"link_x": "wigner", "link_y": "toeplitz", "dist_x": "rademacher",
           "dist_y": "rademacher", "n": 20, "trials": 2, "range": [2, -2]}
    code, _ = run_cli(tmp_path, "spectrum", cfg)
    assert code == 2


def test_spectrum_range_rejects_booleans(tmp_path):
    for bad in ([True, 3], [0, False]):
        cfg = {"link_x": "wigner", "link_y": "toeplitz", "n": 20, "trials": 2, "range": bad}
        code, _ = run_cli(tmp_path, "spectrum", cfg)
        assert code == 2, bad


# --- moments -----------------------------------------------------------------------------


def test_moments_with_auto_targets(tmp_path):
    cfg = {"link_x": "revcirc", "link_y": "dsymhankel", "dist_x": "rademacher",
           "dist_y": "rademacher", "n": 300, "trials": 8, "h_max": 6, "z_max": 4.0}
    code, out = run_cli(tmp_path, "moments", cfg, seed=9)
    assert code == 0
    report = read_json(out, "moments_report.json")
    by_h = {m["h"]: m for m in report["moments"]}
    assert by_h[2]["target"] == 1.0
    assert by_h[4]["target"] == 2.0
    assert by_h[6]["target"] == 6.0
    assert by_h[3]["target"] == 0.0
    # 9 of the 15 words are proved 0 by rank; period and n range are the 6 fits'
    assert report["targets"]["6"] == {
        "value": 6.0, "exact": "6", "source": "exact:revcirc", "period": 1, "n_range": [1, 8],
    }
    # the wall time and proofs of target assembly go to the manifest, never to the report
    assembly = read_json(out, "manifest.json")["target_assembly"]["revcirc"]
    assert assembly["wall_s"] > 0
    assert assembly["orders"]["4"]["proofs"] == {"rank": 1, "fit": 2}
    assert assembly["orders"]["6"] == {
        "period": 1, "n_range": [1, 8], "proofs": {"rank": 9, "fit": 6},
    }
    assert "wall_s" not in json.dumps(report) and "proofs" not in json.dumps(report)


@pytest.mark.parametrize("dist", ["rademacher", "gaussian"])
def test_moments_beta2_z_is_null_when_stderr_is_roundoff(tmp_path, dist):
    # Sign inputs make every trial's beta_2 exactly 1, so its stderr is float
    # roundoff (about 3e-16 here) and a z value from it would be noise.
    cfg = {"link_x": "toeplitz", "link_y": "symcirc", "dist_x": dist, "dist_y": dist,
           "n": 60, "trials": 4, "h_max": 6}
    _, out = run_cli(tmp_path, "moments", cfg, seed=20260814)
    beta2 = read_json(out, "moments_report.json")["moments"][1]
    assert beta2["h"] == 2 and beta2["target"] == 1.0
    if dist == "rademacher":
        assert beta2["stderr"] < 1e-12 and beta2["z"] is None
    else:
        assert beta2["stderr"] > 1e-3 and math.isfinite(beta2["z"])


@pytest.mark.parametrize("command", ["moments", "verify-table2"])
def test_target_ladders_key_is_rejected(tmp_path, command):
    cfg = {"target_ladders": {"4": [8, 16, 32]}}
    if command == "moments":
        cfg.update(link_x="hankel", link_y="revcirc", n=20, trials=2)
    code, _ = run_cli(tmp_path, command, cfg)
    assert code == 2


def test_moments_requires_two_trials(tmp_path):
    cfg = {"link_x": "toeplitz", "link_y": "hankel", "dist_x": "rademacher",
           "dist_y": "rademacher", "n": 20, "trials": 1}
    code, _ = run_cli(tmp_path, "moments", cfg)
    assert code == 2


# --- pw ----------------------------------------------------------------------------------


def test_pw_single_link_words(tmp_path, capsys):
    cfg = {"link": "toeplitz", "words": ["abab"]}
    code, out = run_cli(tmp_path, "pw", cfg)
    assert code == 0
    report = read_json(out, "pw_report.json")
    (entry,) = report["entries"]
    assert entry == {"word": "abab", "p": "2/3", "proof": "fit", "period": 1, "n_range": [1, 7]}
    assert "p(abab) = 2/3 (fit)" in capsys.readouterr().out


def test_pw_single_link_zero_word_is_proved_by_rank(tmp_path, capsys):
    cfg = {"link": "hankel", "words": ["abab", "abba"]}
    code, out = run_cli(tmp_path, "pw", cfg)
    assert code == 0
    entries = read_json(out, "pw_report.json")["entries"]
    assert entries == [
        {"word": "abab", "p": "0", "proof": "rank", "bound": 1},
        {"word": "abba", "p": "1", "proof": "fit", "period": 1, "n_range": [1, 7]},
    ]
    assert "p(abab) = 0 (rank)" in capsys.readouterr().out


def test_pw_prime_variant(tmp_path):
    cfg = {"link": "symcirc", "variant": "prime", "two_k": 4}
    code, out = run_cli(tmp_path, "pw", cfg)
    assert code == 0
    report = read_json(out, "pw_report.json")
    assert [e["p"] for e in report["entries"]] == ["1", "1", "1"]


def test_pw_joint_sweep(tmp_path):
    cfg = {"link_x": "toeplitz", "link_y": "hankel", "two_k": 4, "pairs": "diagonal"}
    code, out = run_cli(tmp_path, "pw", cfg)
    assert code == 0
    report = read_json(out, "pw_report.json")
    by_word = {e["word"]: e for e in report["entries"]}
    assert len(by_word) == 3
    assert by_word["abba"]["p"] == "1" and by_word["abba"]["proof"] == "fit"
    assert by_word["abab"]["p"] == "0" and by_word["abab"]["proof"] == "rank"
    assert by_word["abab"]["bound"] >= 1


def test_pw_all_pairs_count_each_dihedral_orbit_once(tmp_path, monkeypatch):
    calls = []
    direct = circuits.limit

    def counted(*args, **kwargs):
        calls.append(args)
        return direct(*args, **kwargs)

    monkeypatch.setattr(circuits, "limit", counted)
    cfg = {"link_x": "toeplitz", "link_y": "hankel", "two_k": 4, "pairs": "all"}
    code, out = run_cli(tmp_path, "pw", cfg)
    assert code == 0
    entries = read_json(out, "pw_report.json")["entries"]
    words = ["aabb", "abab", "abba"]
    assert [(e["word"], e["word2"]) for e in entries] == [(a, b) for a in words for b in words]
    orbits = {orbit_key((canonicalize(e["word"]), canonicalize(e["word2"]))) for e in entries}
    assert len(orbits) == 5 and len(calls) == 5
    for e in entries:
        want = direct(("toeplitz", "hankel"), (e["word"], e["word2"]))
        assert (e["p"], e["proof"]) == (str(want.p), want.proof)


def test_pw_rejects_conflicting_links(tmp_path):
    cfg = {"link": "toeplitz", "link_x": "toeplitz", "link_y": "hankel", "two_k": 4}
    code, _ = run_cli(tmp_path, "pw", cfg)
    assert code == 2


def test_pw_rejects_mixed_lengths(tmp_path):
    cfg = {"link": "toeplitz", "words": ["aa", "aabb"]}
    code, _ = run_cli(tmp_path, "pw", cfg)
    assert code == 2
    cfg = {"link_x": "toeplitz", "link_y": "hankel", "words": [["aa", "aabb"]]}
    code, _ = run_cli(tmp_path, "pw", cfg)
    assert code == 2


def test_pw_rejects_orders_above_six(tmp_path):
    for cfg in (
        {"link": "toeplitz", "two_k": 8},
        {"link_x": "toeplitz", "link_y": "hankel", "two_k": 8},
        {"link": "toeplitz", "words": ["abcdabcd"]},
        {"link_x": "toeplitz", "link_y": "hankel", "words": [["abcdabcd", "aabbccdd"]]},
    ):
        code, _ = run_cli(tmp_path, "pw", cfg)
        assert code == 2


def test_pw_prime_rejects_a_link_without_slope_counts(tmp_path, capsys):
    cfg = {"link": "hankel", "variant": "prime", "two_k": 4}
    code, _ = run_cli(tmp_path, "pw", cfg)
    assert code == 2
    err = capsys.readouterr().err
    assert "'link'" in err and "hankel" in err


def test_pw_prime_rejects_a_word_that_is_not_pair_matched(tmp_path, capsys):
    cfg = {"link": "toeplitz", "variant": "prime", "words": ["aaaa"]}
    code, _ = run_cli(tmp_path, "pw", cfg)
    assert code == 2
    err = capsys.readouterr().err
    assert "'words'" in err and "aaaa" in err


LINKS_WITH_UNDEFINED_TRANSFORMS = {
    "pw": {"link": "square(wigner)", "two_k": 4},
    "spectrum": {"link_x": "square(wigner)", "link_y": "toeplitz", "n": 20},
    "moments": {"link_x": "hankel", "link_y": "coprimepower(2,3,toeplitz)", "n": 20},
}


@pytest.mark.parametrize("command", sorted(LINKS_WITH_UNDEFINED_TRANSFORMS))
def test_a_link_whose_transform_is_undefined_on_its_base_exits_two(tmp_path, capsys, command):
    code, _ = run_cli(tmp_path, command, LINKS_WITH_UNDEFINED_TRANSFORMS[command])
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err and "undefined" in err


@pytest.mark.parametrize("cfg,word,letter", [
    ({"link": "toeplitz", "words": ["abc"]}, "abc", "a"),
    ({"link": "toeplitz", "words": ["abab", "aabc"]}, "aabc", "b"),
    ({"link": "toeplitz", "variant": "prime", "words": ["xyxz"]}, "xyxz", "y"),
    ({"link_x": "toeplitz", "link_y": "hankel", "words": ["aab"]}, "aab", "b"),
    ({"link_x": "toeplitz", "link_y": "hankel", "words": [["abab", "abcc"]]}, "abcc", "a"),
    ({"link_x": "toeplitz", "link_y": "hankel", "words": [["zzyx", "aabb"]]}, "zzyx", "y"),
], ids=["single", "single_second", "prime", "joint_word", "joint_pair_second",
        "joint_pair_first"])
def test_pw_refuses_a_word_with_a_letter_that_occurs_once(tmp_path, capsys, cfg, word, letter):
    # such a word adds nothing to a mean-zero moment: its count diverges
    # (toeplitz "abc" ran out of fitting points, "aabc" fitted a meaningless 3/2)
    code, out = run_cli(tmp_path, "pw", cfg)
    assert code == 2
    assert not (out / "pw_report.json").exists()
    err = capsys.readouterr().err
    assert "config error" in err and "'words'" in err
    assert f"letter {letter!r} occurs once in {word!r}" in err


def test_pw_rejects_prime_for_joint(tmp_path):
    cfg = {"link_x": "toeplitz", "link_y": "hankel", "variant": "prime", "two_k": 4}
    code, _ = run_cli(tmp_path, "pw", cfg)
    assert code == 2


# --- check -------------------------------------------------------------------------------


def test_check_implies(tmp_path):
    cfg = {"relation": "implies", "link_x": "toeplitz", "link_y": "hankel",
           "ns": [10, 20], "expected": True}
    code, out = run_cli(tmp_path, "check", cfg)
    assert code == 0
    report = read_json(out, "check_report.json")
    assert report["results"] == {"10": True, "20": True}


def test_check_implies_rejects_an_empty_dimension_list(tmp_path):
    cfg = {"relation": "implies", "link_x": "toeplitz", "link_y": "hankel",
           "ns": [], "expected": True}
    code, _ = run_cli(tmp_path, "check", cfg)
    assert code == 2


def test_check_compatible(tmp_path):
    cfg = {"relation": "compatible", "link_x": "toeplitz", "link_y": "hankel", "two_k": 4}
    code, out = run_cli(tmp_path, "check", cfg)
    assert code == 0
    report = read_json(out, "check_report.json")["report"]
    assert list(report) == ["kind", "link_x", "link_y", "two_k", "all_pass", "entries"]
    assert len(report["entries"]) == 6
    for e in report["entries"]:
        assert list(e) == ["word", "word2", "expected", "p", "proof", "bound", "pass"]
        assert (e["expected"], e["p"], e["proof"], e["pass"]) == ("0", "0", "rank", True)


def test_check_manifest_logs_relation_sweeps_outside_the_report(tmp_path):
    cfg = {"relation": "leadsto", "link_x": "toeplitz", "link_y": "hankel", "two_k": 6}
    code, out = run_cli(tmp_path, "check", cfg)
    assert code == 0
    (sweep,) = read_json(out, "manifest.json")["relation_sweeps"]
    wall = sweep.pop("wall_s")
    assert wall > 0
    nodes = sweep.pop("nodes")
    assert nodes >= 5
    assert sweep == {"kind": "leadsto", "links": ["toeplitz", "hankel"], "two_k": 6,
                     "proofs": {"rank": 3, "fit": 2}, "entries": 15, "classes": 5}
    report = read_json(out, "check_report.json")["report"]
    fits = [e for e in report["entries"] if e["proof"] == "fit"]
    assert len(fits) == 5 and all(e["p"] == e["expected"] == "1" for e in fits)
    assert all(list(e)[3:7] == ["p", "proof", "period", "n_range"] for e in fits)
    assert "relation_sweeps" not in (out / "check_report.json").read_text()


def test_check_invariance_square(tmp_path):
    cfg = {"relation": "invariance", "link": "toeplitz",
           "transform": {"kind": "square"}, "two_k": 4, "n": 10,
           "require_equal": True}
    code, out = run_cli(tmp_path, "check", cfg)
    assert code == 0
    report = read_json(out, "check_report.json")
    assert report["report"]["injective"] is True
    assert report["report"]["all_equal"] is True


def test_check_invariance_usertable_collapse_fails_equality(tmp_path):
    table = {str(v): (1 if v == 2 else v) for v in range(10)}
    cfg = {"relation": "invariance", "link": "toeplitz",
           "transform": {"kind": "usertable", "table": table}, "two_k": 4,
           "n": 10, "require_equal": True}
    code, out = run_cli(tmp_path, "check", cfg)
    assert code == 1  # subset holds but equality gate fails
    report = read_json(out, "check_report.json")
    assert report["report"]["all_subset"] is True
    assert report["report"]["all_equal"] is False


def test_check_transform_domain_error_is_config_error(tmp_path):
    # found by the sweep, after the config was accepted; still nothing on disk
    cfg = {"relation": "invariance", "link": "toeplitz",
           "transform": {"kind": "coprimepower", "a": 2, "b": 3}, "two_k": 4, "n": 8}
    _exits_two_with_no_report(tmp_path, "check", cfg)


# --- verify-table2 --------------------------------------------------------------------------


ROW5_CFG = {"rows": [5], "mc": True, "n": 120, "trials": 4, "invariance_ns": [8]}


def test_verify_row5_small_scale(tmp_path):
    code, out = run_cli(tmp_path, "verify-table2", ROW5_CFG, seed=20260814)
    assert code == 0
    report = read_json(out, "verify_table2_report.json")
    assert report["all_pass"] is True
    (product,) = report["products"]
    assert product["link_x"] == "revcirc"
    assert product["link_y"] == "dsymhankel"


def test_verify_reports_identical_across_threads_and_reruns(tmp_path, monkeypatch):
    monkeypatch.setattr(spectral, "MIN_THREADED_N", 1)
    run_cli(tmp_path, "verify-table2", ROW5_CFG, seed=3, out="t1", extra=["--threads", "1"])
    run_cli(tmp_path, "verify-table2", ROW5_CFG, seed=3, out="t3", extra=["--threads", "3"])
    run_cli(tmp_path, "verify-table2", ROW5_CFG, seed=3, out="again")
    blobs = [
        (tmp_path / name / "verify_table2_report.json").read_bytes()
        for name in ("t1", "t3", "again")
    ]
    assert blobs[0] == blobs[1] == blobs[2]


def test_verify_manifest_logs_every_relation_and_invariance_sweep(tmp_path):
    cfg = {"rows": [1, 2], "mc": False, "invariance_ns": [8]}
    code, out = run_cli(tmp_path, "verify-table2", cfg)
    assert code == 0
    sweeps = read_json(out, "manifest.json")["relation_sweeps"]
    kinds = [(s["kind"], tuple(s["links"])) for s in sweeps]
    # row 1: invariance then leadsto per product; row 2: compatible, leadsto
    assert kinds[:2] == [("invariance", ("wigner", "toeplitz")),
                         ("leadsto", ("wigner", "toeplitz"))]
    assert kinds[-2:] == [("compatible", ("symcirc", "dsymhankel")),
                          ("leadsto", ("symcirc", "dsymhankel"))]
    assert len(sweeps) == 2 * 5 + 2 * 6
    for s in sweeps:
        assert s["two_k"] == 4 and s["wall_s"] >= 0
        assert (s["entries"], s["classes"]) == {
            "invariance": (3, 2), "leadsto": (3, 2), "compatible": (6, 3)}[s["kind"]]
        if s["kind"] == "invariance":
            assert s["ns"] == [8] and "nodes" not in s
        else:
            assert "ns" not in s and s["nodes"] >= s["classes"]
            assert s["proofs"] == ({"rank": 1, "fit": 1} if s["kind"] == "leadsto"
                                   else {"rank": 3, "fit": 0})
    assert "wall_s" not in (out / "verify_table2_report.json").read_text()


def test_verify_row3_gates_every_even_moment_against_exact_targets(tmp_path):
    cfg = {"rows": [3], "mc": True, "n": 150, "trials": 4, "invariance_ns": [8]}
    code, out = run_cli(tmp_path, "verify-table2", cfg, seed=20260814)
    report = read_json(out, "verify_table2_report.json")
    names = [c["name"] for c in report["checks"]]
    for two_k in (2, 4, 6):
        assert f"row3:toeplitz*symcirc:beta{two_k}" in names
    (row,) = report["rows"]
    assert [row["targets"][k]["exact"] for k in ("2", "4", "6")] == ["1", "8/3", "11"]
    (product,) = report["products"]
    assert "beta6_gap" not in product
    beta6 = product["moments"][5]
    assert beta6["h"] == 6 and beta6["target"] == 11.0


TABLE2_PRODUCTS = {
    1: [("wigner", y) for y in ("toeplitz", "hankel", "symcirc", "revcirc", "dsymhankel")],
    2: [(x, y) for x in ("toeplitz", "symcirc") for y in ("hankel", "revcirc", "dsymhankel")],
    3: [("toeplitz", "symcirc")],
    4: [("hankel", "revcirc"), ("hankel", "dsymhankel")],
    5: [("revcirc", "dsymhankel")],
}


#: The paper's fold and wrap maps that carry the first link of a row 3-5
#: product onto the second.
FOLD_MAPS = {
    ("toeplitz", "symcirc"): lambda n: {d: min(d, n - d) for d in range(n)},
    ("hankel", "revcirc"): lambda n: {t: t % n for t in range(2, 2 * n + 1)},
    ("hankel", "dsymhankel"): lambda n: {t: min(t % n, n - t % n) for t in range(2, 2 * n + 1)},
    ("revcirc", "dsymhankel"): lambda n: {m: min(m, n - m) for m in range(n)},
}


@pytest.mark.parametrize("n", [7, 8, 16])
def test_invariance_label_maps_are_the_fold_maps(n):
    # each row 3-5 partner labels a cell by the fold or wrap of the first
    # link's label there, so the invariance check may take it as composed
    for (x, y), fold in FOLD_MAPS.items():
        link_x, link_y, fold_n = parse_link(x), parse_link(y), fold(n)
        for a in range(1, n + 1):
            for b in range(1, n + 1):
                label = eval_link(link_x, a, b, n)
                assert eval_link(link_y, a, b, n) == fold_n[label], (x, y, a, b)
    with pytest.raises(ValueError, match="not a function"):
        check_invariance_containment("toeplitz", "hankel", 4, n)


def test_verify_gate_order_and_row_keys_for_every_row(tmp_path):
    cfg = {"mc": True, "n": 30, "trials": 2, "invariance_ns": [8], "relation_two_k": 4}
    _, out = run_cli(tmp_path, "verify-table2", cfg, seed=7)
    report = read_json(out, "verify_table2_report.json")
    combinatorial = {1: ["invariance@n=8", "leadsto"], 2: ["compatible", "leadsto"],
                     3: ["invariance@n=8"], 4: ["invariance@n=8"], 5: ["invariance@n=8"]}
    odd_and_bounds = ["odd1", "odd3", "odd5", "bound2", "bound4", "bound6", "bound8"]
    semicircle = ["beta2", "beta4", "beta6", "ks"] + odd_and_bounds
    single_pattern = ["beta2", "beta4", "beta6"] + odd_and_bounds
    expected = []
    for row, products in TABLE2_PRODUCTS.items():
        mc = semicircle if row <= 2 else single_pattern
        for gates in (combinatorial[row], mc):
            expected += [f"row{row}:{x}*{y}:{g}" for x, y in products for g in gates]
    assert [c["name"] for c in report["checks"]] == expected
    keys = ["row", "limit", "targets", "relations", "invariance"]
    assert [list(r) for r in report["rows"]] == [
        keys + ["implies_wigner"] if row == 2 else keys for row in TABLE2_PRODUCTS
    ]
    assert list(report["rows"][1]["implies_wigner"]) == [f"{x}*{y}" for x, y in TABLE2_PRODUCTS[2]]
    assert [(p["link_x"], p["link_y"]) for p in report["products"]] == [
        pair for products in TABLE2_PRODUCTS.values() for pair in products
    ]


def test_verify_rows_flag_and_validation(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"mc": False, "invariance_ns": [8]}))
    code = main(["verify-table2", "--config", str(cfg_path), "--seed", "1",
                 "--out", str(tmp_path / "o"), "--rows", "7"])
    assert code == 2
    code = main(["verify-table2", "--config", str(cfg_path), "--seed", "1",
                 "--out", str(tmp_path / "o"), "--rows", "x"])
    assert code == 2


# --- gate records ----------------------------------------------------------------------


GATE_FIELDS = ("value", "target", "band", "z", "df")

#: One run of every command that gates: (command, config, report file).
GATE_RUNS = {
    "verify-table2": ({"n": 64, "trials": 2}, "verify_table2_report.json"),
    "moments": ({"link_x": "wigner", "link_y": "toeplitz", "n": 64, "trials": 3, "z_max": 3},
                "moments_report.json"),
    "spectrum": ({"link_x": "wigner", "link_y": "toeplitz", "n": 64, "trials": 2,
                  "ks_max": 0.05}, "spectrum_report.json"),
    "compatible": ({"relation": "compatible", "link_x": "toeplitz", "link_y": "hankel",
                    "two_k": 4}, "check_report.json"),
    "invariance": ({"relation": "invariance", "link": "toeplitz", "transform": {"kind": "square"},
                    "two_k": 4, "n": 10, "require_equal": True}, "check_report.json"),
    "implies": ({"relation": "implies", "link_x": "toeplitz", "link_y": "hankel", "ns": [10],
                 "expected": True}, "check_report.json"),
}


@pytest.fixture(scope="module")
def gate_runs(tmp_path_factory):
    """Run name -> (manifest, report) of each of ``GATE_RUNS``."""
    runs = {}
    for name, (cfg, report) in GATE_RUNS.items():
        tmp = tmp_path_factory.mktemp(name)
        command = "check" if "relation" in cfg else name
        code, out = run_cli(tmp, command, cfg, seed=1)
        assert code in (0, 1), name
        runs[name] = read_json(out, "manifest.json"), read_json(out, report)
    return runs


def _all_checks(gate_runs):
    return [c for manifest, _ in gate_runs.values() for c in manifest["checks"]]


def test_every_manifest_check_records_the_gate_fields(gate_runs):
    for check in _all_checks(gate_runs):
        assert list(check) == ["name", "pass", "detail", *GATE_FIELDS], check["name"]
    assert len(gate_runs["verify-table2"][0]["checks"]) == 196


def test_every_banded_check_gives_back_its_verdict(gate_runs):
    """|value - target| <= band decides a two-sided gate; value <= target +
    band decides a ceiling, and only the moment-bound gates are ceilings."""
    banded = [c for c in _all_checks(gate_runs) if c["band"] is not None]
    kinds = {c["name"].rsplit(":", 1)[-1].rstrip("0123456789") for c in banded}
    assert kinds >= {"beta", "ks", "odd", "bound", "leadsto", "compatible", "h", "subset",
                     "equal", "invariance@n="}
    for c in banded:
        if ":bound" in c["name"]:
            assert c["pass"] == (c["value"] <= c["target"] + c["band"]), c
        else:
            assert c["pass"] == (abs(c["value"] - c["target"]) <= c["band"]), c
    # relation and invariance gates count the passing entries against all of them
    counted = [c for c in banded if c["df"] is None and not c["name"].endswith(":ks")]
    # verify-table2: 18 invariance, 11 leadsto, 6 compatible; check: 1 and 2
    assert len(counted) == 35 + 1 + 2
    for c in counted:
        assert c["band"] == 0 and isinstance(c["value"], int) and c["value"] <= c["target"], c


def test_implies_records_no_numbers(gate_runs):
    (check,) = gate_runs["implies"][0]["checks"]
    assert check["name"].startswith("implies:")
    assert [check[k] for k in GATE_FIELDS] == [None] * 5


def test_a_gated_moments_z_matches_the_report(gate_runs):
    manifest, report = gate_runs["verify-table2"]
    products = {f"row{p['row']}:{p['link_x']}*{p['link_y']}": p for p in report["products"]}
    gated = 0
    for check in manifest["checks"]:
        tag, _, gate = check["name"].rpartition(":")
        if gate.startswith(("beta", "odd")):
            h = int(gate.lstrip("betaod"))
            (moment,) = [m for m in products[tag]["moments"] if m["h"] == h]
            assert check["z"] == moment["z"] and check["df"] == moment["trials"] - 1 == 1
            gated += 1
    assert gated == 15 * 6
    manifest, report = gate_runs["moments"]
    by_h = {m["h"]: m for m in report["moments"]}
    for check in manifest["checks"]:
        assert check["z"] == by_h[int(check["name"].removeprefix("moments:h"))]["z"]
    assert len(manifest["checks"]) == 6


def test_report_checks_hold_only_name_pass_and_detail(gate_runs):
    manifest, report = gate_runs["verify-table2"]
    assert [list(c) for c in report["checks"]] == [["name", "pass", "detail"]] * 196
    assert report["checks"] == [
        {k: c[k] for k in ("name", "pass", "detail")} for c in manifest["checks"]
    ]


def test_gate_passes_a_value_on_the_band_edge(tmp_path):
    ctx = cli.RunContext("check", cli.Config("check", {}), tmp_path, 1, 0, "")
    ctx.gate("above", 1.5, 1.0, 0.5, "")
    ctx.gate("below", 0.5, 1.0, 0.5, "")
    ctx.gate("ceiling", 1.5, 1.0, 0.5, "", upper=True)
    ctx.gate("under the ceiling", -4.0, 1.0, 0.5, "", upper=True)
    ctx.gate("past", np.nextafter(1.5, 2.0), 1.0, 0.5, "")
    ctx.gate("past the ceiling", np.nextafter(1.5, 2.0), 1.0, 0.5, "", upper=True)
    ctx.gate("two-sided below", -4.0, 1.0, 0.5, "")
    assert [c.passed for c in ctx.checks] == [True] * 4 + [False] * 3
    assert all(c.z is None and c.df is None for c in ctx.checks)


# --- float formatting ------------------------------------------------------------------------


def test_reports_serialize_floats_with_17_significant_digits(tmp_path):
    cfg = {"link_x": "toeplitz", "link_y": "hankel", "n": 20, "trials": 2, "h_max": 4}
    _, out = run_cli(tmp_path, "moments", cfg)
    text = (out / "moments_report.json").read_text()
    report = json.loads(text)
    # a Monte Carlo mean needs all 17 digits; round-tripping must be exact
    mean = report["moments"][3]["mean"]
    assert len(repr(mean).lstrip("-").replace(".", "").lstrip("0")) >= 15
    assert f"{mean:.17g}" in text


# --- module entry point ------------------------------------------------------------------------


def test_module_invocation_version():
    proc = subprocess.run(
        [sys.executable, "-m", "schurlsd.cli", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "0.1.0" in proc.stdout
