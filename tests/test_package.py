"""Package-level invariants shared by every module."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from schurlsd import BLAS_THREAD_VARS
from schurlsd.circuits import count_pi_star, count_pi_star_joint
from schurlsd.cli import main
from schurlsd.ensemble import ProductSpec, product_realization
from schurlsd.linkfn import value_table
from schurlsd.spectral import eigenvalues

MODULES = ("linkfn", "words", "ensemble", "spectral", "circuits", "oracle", "cli")
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def _load(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look up their module here
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("short", MODULES)
def test_every_exported_name_exists(short):
    module = importlib.import_module(f"schurlsd.{short}")
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


@pytest.mark.parametrize(
    "short,name",
    [("circuits", "estimate_p"), ("circuits", "PEstimate"), ("circuits", "default_ladder"),
     ("circuits", "_joint_ladder"), ("cli", "cfg_ladder"), ("cli", "_pestimate_json"),
     ("cli", "_pw_ladder"), ("spectral", "mc_moments"), ("spectral", "moment_from_trace"),
     ("oracle", "moment_matrix_is_psd"), ("linkfn", "profile"), ("linkfn", "LinkProfile"),
     ("oracle", "MomentSequence"), ("oracle", "semicircle_moments"),
     ("spectral", "moment_from_spectrum"), ("ensemble", "realize"),
     ("circuits", "exact_limit"), ("circuits", "joint_limit"), ("spectral", "ESD"),
     ("ensemble", "SIGN_BLOCK"), ("linkfn", "is_injective_on_range"), ("cli", "_z_band"),
     ("cli", "_target_gate")],
)
def test_ladder_and_test_only_code_is_gone(short, name):
    assert not hasattr(importlib.import_module(f"schurlsd.{short}"), name)


def test_benchmark_tracer_reads_the_current_api():
    """The benchmark's traced run annotates spans from these results and reads
    ``value_table``'s cache counters; an API change that breaks it fails here."""
    tracer = _load(TRACER, "perfbench_tracer")
    assert tracer.MODULES == MODULES
    spectrum_spec = ProductSpec("wigner", "toeplitz", "rademacher", "rademacher", 8, 1, 1)
    results = {
        "circuits.count_pi_star": count_pi_star("toeplitz", "abab", 8),
        "circuits.count_pi_star_joint": count_pi_star_joint(
            "toeplitz", "hankel", "abab", "abab", 8
        ),
        "spectral.eigenvalues": eigenvalues(product_realization(spectrum_spec, 0)),
    }
    assert set(tracer.ANNOTATE) == set(results)
    for name, annotate in tracer.ANNOTATE.items():
        short, attr = name.split(".")
        assert attr in importlib.import_module(f"schurlsd.{short}").__all__
        attrs = annotate(results[name])
        assert attrs["n"] == 8
    assert "value_table" in importlib.import_module("schurlsd.linkfn").__all__
    info = value_table.cache_info()
    assert info.hits >= 0 and info.misses >= 0


def test_benchmark_relation_workload_matches_its_reference(tmp_path):
    """The four ``relations_joint`` check runs of the benchmark, in process:
    their gate names and verdicts must be the ones its reference records."""
    bench = _load(PERFBENCH / "run.py", "perfbench_run")
    ref = json.loads((PERFBENCH / "reference.json").read_text())["relations_joint"]
    gates = []
    for inv in bench.WORKLOADS["relations_joint"].invocations:
        config = tmp_path / f"{inv.tag}.json"
        config.write_text(json.dumps(inv.config))
        out = tmp_path / inv.tag
        assert main([inv.command, "--config", str(config), "--seed", "1", "--out", str(out)]) == 0
        for check in json.loads((out / "manifest.json").read_text())["checks"]:
            gates.append(check["name"])
            assert check["pass"] is ref["verdicts"][check["name"]], check
    assert gates == ref["gates"]


def test_every_benchmark_config_passes_config_reading(tmp_path, reads_only):
    """Every benchmark invocation must get past config reading, with and
    without ``--threads``: a stricter reader must never turn a benchmark run
    into a config error (exit 2)."""
    bench = _load(PERFBENCH / "run.py", "perfbench_run")
    for name, workload in bench.WORKLOADS.items():
        for inv in workload.invocations:
            config = tmp_path / f"{name}.{inv.tag}.json"
            config.write_text(json.dumps(inv.config))
            for extra in ([], ["--threads", "2"]):
                argv = [inv.command, "--config", str(config), "--seed", "1",
                        "--out", str(tmp_path / name / inv.tag), *extra]
                with pytest.raises(reads_only):
                    main(argv)


def test_importing_the_package_pins_blas_before_numpy_loads():
    """The pin must run before numpy loads OpenBLAS, and must keep a value the
    caller set."""
    code = ("import os, sys, schurlsd; "
            "print('numpy' in sys.modules, [os.environ.get(v) for v in schurlsd.BLAS_THREAD_VARS])")
    base = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    for extra, expected in (({}, "['1', '1', '1']"),
                            ({"OPENBLAS_NUM_THREADS": "3"}, "['3', '1', '1']")):
        proc = subprocess.run([sys.executable, "-c", code], env={**base, **extra},
                              capture_output=True, text=True, check=True)
        assert proc.stdout.strip() == f"False {expected}"
