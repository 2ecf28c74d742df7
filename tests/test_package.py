"""Package-level invariants shared by every module."""

import importlib

import pytest

MODULES = ("linkfn", "words", "ensemble", "spectral", "circuits", "oracle", "cli")


@pytest.mark.parametrize("short", MODULES)
def test_every_exported_name_exists(short):
    module = importlib.import_module(f"schurlsd.{short}")
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
