"""Run one schurlsd CLI invocation with every public function wrapped in a span.

Usage: python3 perfbench/tracer.py SPANS_JSON -- <schurlsd CLI arguments>

Each public function (the callables in a module's ``__all__``) of ``linkfn``,
``words``, ``ensemble``, ``spectral``, ``circuits``, ``oracle`` and ``cli`` is
replaced by a wrapper that records a span: id, parent id, name, thread, start,
duration and, for exact counts and spectra, the problem size. The modules bind
each other's functions at import time (``from .linkfn import value_table``), so
the wrapper is rebound under every name, in every schurlsd module, that refers
to the original; otherwise calls between modules would escape their spans.

Spans are kept in memory and written to SPANS_JSON when the command returns,
together with the command's exit code and ``value_table``'s cache counters.
Each thread keeps its own span stack and the span list is appended under a
lock, so spans from ``--threads`` pool workers are recorded safely; a pool
worker's outermost span has no parent.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time

MODULES = ("linkfn", "words", "ensemble", "spectral", "circuits", "oracle", "cli")


def _count_attrs(result) -> dict:
    """Problem size and result of one exact count (a CircuitClassCount)."""
    link = result.link if result.link2 is None else f"{result.link}*{result.link2}"
    return {"link": link, "two_k": result.word.h, "n": result.n, "count": result.count}


#: Spans whose result carries the problem size the benchmark reports by.
ANNOTATE = {
    "circuits.count_pi_star": _count_attrs,
    "circuits.count_pi_star_joint": _count_attrs,
    "spectral.eigenvalues": lambda result: {"n": result.n},
}


class Tracer:
    """In-memory span recorder shared by every wrapped function."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        annotate = ANNOTATE.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            with self._lock:
                span_id = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            attrs = None
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                attrs = {"error": True}
                raise
            else:
                if annotate is not None:
                    attrs = annotate(result)
                return result
            finally:
                duration = time.perf_counter_ns() - start
                stack.pop()
                span = [span_id, parent, name, threading.current_thread().name,
                        start, duration, attrs]
                with self._lock:
                    self.spans.append(span)

        return traced


def install(tracer: Tracer) -> dict:
    """Wrap the public functions of every module; return the originals by span name."""
    modules = {short: importlib.import_module(f"schurlsd.{short}") for short in MODULES}
    package = [m for name, m in list(sys.modules.items()) if name.startswith("schurlsd")]
    originals = {}
    for short, module in modules.items():
        for attr in module.__all__:
            fn = getattr(module, attr)
            if inspect.isclass(fn) or not callable(fn):
                continue
            if getattr(fn, "__module__", None) != module.__name__:
                continue
            name = f"{short}.{attr}"
            originals[name] = fn
            traced = tracer.wrap(name, fn)
            for other in package:
                for key, value in list(vars(other).items()):
                    if value is fn:
                        setattr(other, key, traced)
    return originals


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS_JSON -- <schurlsd CLI arguments>", file=sys.stderr)
        return 2
    out_path, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    originals = install(tracer)
    cli = sys.modules["schurlsd.cli"]
    rc = 2
    try:
        rc = cli.main(cli_args)
    finally:
        info = originals["linkfn.value_table"].cache_info()
        with open(out_path, "w") as fh:
            json.dump(
                {
                    "rc": rc,
                    "value_table_cache": {"hits": info.hits, "misses": info.misses},
                    "spans": tracer.spans,
                },
                fh,
            )
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
