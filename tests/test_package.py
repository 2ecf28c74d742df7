"""Package-level invariants shared by every module."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from schurlsd.circuits import count_pi_star, count_pi_star_joint
from schurlsd.ensemble import ProductSpec, product_realization
from schurlsd.linkfn import value_table
from schurlsd.spectral import eigenvalues

MODULES = ("linkfn", "words", "ensemble", "spectral", "circuits", "oracle", "cli")
TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.mark.parametrize("short", MODULES)
def test_every_exported_name_exists(short):
    module = importlib.import_module(f"schurlsd.{short}")
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


def test_benchmark_tracer_reads_the_current_api():
    """The benchmark's traced run annotates spans from these results and reads
    ``value_table``'s cache counters; an API change that breaks it fails here."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
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
