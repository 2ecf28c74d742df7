"""Channel-split benchmark for the schurlsd CLI.

Run from the root of a schurlsd checkout:

    python3 perfbench/run.py --workload mc_semicircle --seed 1 --seconds 30 --trace 0

Every workload drives the CLI from outside, as a user runs it: each timed
repetition starts fresh interpreters (``python3 -m schurlsd.cli ...``) one
after another, so ``value_table``'s cache starts cold every time. Before
timing, exact counts are compared with the brute-force oracle in
``tests/bruteforce.py``; after each repetition the outputs are compared with
``perfbench/reference.json``. ``--trace 1`` adds a traced repetition (see
``tracer.py``) and reports per-layer metrics instead of end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names and
units are those listed in ``BENCHMARK.json``. Everything else (environment,
failed operations, gate outcomes, per-size count tables, computed kernel
figures) goes to ``.perfbench_out/<workload>/bench_report.json``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
ORACLE = ROOT / "tests" / "bruteforce.py"
OUT = ROOT / ".perfbench_out"

#: Fresh-interpreter start-ups timed for ``setup_s``, half before and half
#: after the timed repetitions so that the samples span the run. Each takes
#: about 0.2 s. Other tenants of a shared machine only ever slow a start-up
#: down, so the fastest sample is reported: it tracks the cost of the
#: start-up itself more closely than the median does.
SETUP_REPS = 20
SETUP_CODE = "import json, sys; import schurlsd.cli; json.loads(open(sys.argv[1]).read())"
#: Every child is killed once the run has lasted this long, so a hung
#: command fails its operation instead of overrunning the 180 s run limit.
RUN_DEADLINE_S = 170.0
#: Environment of both sides of the thread-count check. The report bytes
#: depend on OpenBLAS's own thread count (eigvalsh's last bits), so both sides
#: run BLAS on one thread; that also keeps the --threads 2 side within two
#: threads. Timed and traced runs keep the BLAS default, as a user's run does.
ONE_BLAS_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
#: Dimension of the brute-force pre-check.
CHECK_N = 8
#: Largest |assembled target - exact limit| accepted as a correct target. The
#: 1/n ladder fit of the default targets is off by 6.1e-4 on the Hankel beta6;
#: a wrong word table moves a target by far more than this.
TARGET_TOL = 5e-3
#: Flops of one eigenvalues-only symmetric eigensolve: the Householder
#: tridiagonal reduction (LAPACK dsytrd) costs 4/3 n^3; the tridiagonal
#: eigenvalue step is O(n^2) and left out.
EIGVALSH_FLOPS_PER_N3 = 4.0 / 3.0
#: Bytes one product realization moves per matrix entry, from its array
#: passes on float64/int64 data: two gathers draws[codes] (read 8 + write 8
#: each), the entrywise product (read 16 + write 8) and the scaling (read 8 +
#: write 8). Caches are ignored.
REALIZATION_BYTES_PER_ENTRY = 72


@dataclass(frozen=True)
class Invocation:
    """One CLI command of a workload; ``tag`` names its config and output."""

    tag: str
    command: str
    config: dict

    @property
    def report(self) -> str:
        return self.command.replace("-", "_") + "_report.json"


@dataclass(frozen=True)
class Workload:
    invocations: tuple
    #: Single links whose ``count_pi_star`` the pre-check compares, orders 2 and 4.
    links: tuple
    #: Link pairs whose ``count_pi_star_joint`` it compares, every word pair of orders 2 and 4.
    pairs: tuple
    #: Order-6 comparisons: (link_x, link_y or None, word, word2 or None).
    order6: tuple = ()
    #: Whether the traced run also checks byte identity across --threads 1 and 2.
    thread_check: bool = False


ALL_LINKS = ("wigner", "toeplitz", "hankel", "symcirc", "revcirc", "dsymhankel")
ROW1_ROW2_PAIRS = tuple(("wigner", y) for y in ALL_LINKS[1:]) + tuple(
    (x, y) for x in ("toeplitz", "symcirc") for y in ("hankel", "revcirc", "dsymhankel")
)
RELATION_PAIRS = (("toeplitz", "hankel"), ("symcirc", "revcirc"))

WORKLOADS = {
    # Monte Carlo channel: 11 products x 20 trials at n = 1000 (eigensolves and
    # realizations); its semicircle targets are exact, so counting is small.
    "mc_semicircle": Workload(
        invocations=(Invocation("table2", "verify-table2", {"rows": [1, 2]}),),
        links=ALL_LINKS,
        pairs=ROW1_ROW2_PAIRS,
        thread_check=True,
    ),
    # Exact target assembly: Hankel word tables up to order 6 at n = 64 make
    # nearly all of the time; the Monte Carlo part is small (n = 400).
    "targets_hankel": Workload(
        invocations=(
            Invocation(
                "moments",
                "moments",
                {"link_x": "hankel", "link_y": "revcirc", "n": 400, "trials": 10,
                 "h_max": 6, "z_max": 3},
            ),
        ),
        links=("hankel", "revcirc"),
        pairs=(("hankel", "revcirc"),),
        order6=(("hankel", None, "abcabc", None),),
    ),
    # Joint relation sweeps: about 1,350 short joint counts at n <= 32.
    "relations_joint": Workload(
        invocations=tuple(
            Invocation(f"{rel}_{x}_{y}", "check",
                       {"relation": rel, "link_x": x, "link_y": y, "two_k": 6})
            for x, y in RELATION_PAIRS
            for rel in ("compatible", "leadsto")
        ),
        links=("toeplitz", "hankel", "symcirc", "revcirc"),
        pairs=RELATION_PAIRS,
        order6=(("toeplitz", "hankel", "abcabc", "abcacb"),
                ("symcirc", "revcirc", "abcabc", "abcabc")),
    ),
}


# --- operations and their outcomes ----------------------------------------------


@dataclass
class Ops:
    """Every operation attempted, with the ones that failed and why."""

    attempted: int = 0
    failures: list = field(default_factory=list)

    def record(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)
        return ok


# --- child processes ------------------------------------------------------------


@dataclass
class Child:
    wall_s: float
    maxrss_kb: int
    rc: int


class Runner:
    """Starts children one at a time, from the checkout root, under one deadline."""

    def __init__(self, out: Path):
        self.out = out
        self.deadline = time.monotonic() + RUN_DEADLINE_S

    def run(self, cmd: list, log: Path, env=None) -> Child:
        log.parent.mkdir(parents=True, exist_ok=True)
        with open(log, "wb") as fh:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=fh, stderr=subprocess.STDOUT)
            timer = threading.Timer(max(self.deadline - time.monotonic(), 0.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(wall, usage.ru_maxrss, proc.returncode)

    def rep(self, wl: Workload, seed: int, label: str, traced=False, cli_args=(),
            env=None) -> list:
        """One repetition of a workload: each invocation in a fresh interpreter."""
        results = []
        for inv in wl.invocations:
            out_dir = self.out / label / inv.tag
            argv = [inv.command, "--config", str(self.out / f"{inv.tag}.json"),
                    "--seed", str(seed), "--out", str(out_dir), *cli_args]
            if traced:
                cmd = [sys.executable, str(HERE / "tracer.py"),
                       str(self.out / label / f"{inv.tag}.spans.json"), "--", *argv]
            else:
                cmd = [sys.executable, "-m", "schurlsd.cli", *argv]
            child = self.run(cmd, self.out / label / f"{inv.tag}.log", env)
            results.append((inv, out_dir, child))
        return results


# --- correctness --------------------------------------------------------------------


def precheck(wl: Workload, ops: Ops) -> None:
    """Exact counts at n = CHECK_N against the independent brute-force oracle."""
    import bruteforce
    from schurlsd.circuits import count_pi_star, count_pi_star_joint

    def compare(x, y, w, w2):
        name = f"precheck:{x}:{w}" if y is None else f"precheck:{x}*{y}:{w},{w2}"
        want = (bruteforce.raw_count_star(x, w, CHECK_N) if y is None
                else bruteforce.raw_count_joint(x, y, w, w2, CHECK_N))
        try:
            got = (count_pi_star(x, w, CHECK_N) if y is None
                   else count_pi_star_joint(x, y, w, w2, CHECK_N)).count
        except Exception as exc:  # a raising count is a failed operation
            ops.record(name, False, repr(exc))
            return
        ops.record(name, got == want, f"got {got}, oracle {want} at n={CHECK_N}")

    for two_k in (2, 4):
        words = bruteforce.all_pair_matched(two_k)
        for link in wl.links:
            for w in words:
                compare(link, None, w, None)
        for x, y in wl.pairs:
            for w in words:
                for w2 in words:
                    compare(x, y, w, w2)
    for item in wl.order6:
        compare(*item)


@dataclass
class Outcome:
    """What one repetition's outputs say, beyond pass/fail of each operation."""

    gates_failed: list = field(default_factory=list)
    target_abs_err: float = 0.0
    trials_at_1000: int = 0
    bytes_written: int = 0


def check_outputs(results: list, ref: dict, label: str, ops: Ops) -> Outcome:
    """Compare one repetition's exit codes, gates, verdicts and targets with the reference."""
    outcome = Outcome()
    gates = []
    for inv, out_dir, child in results:
        # exit 1 is a failed statistical gate, reported as gates_failed
        if not ops.record(f"{label}:{inv.tag}:exit", child.rc in (0, 1), f"exit code {child.rc}"):
            continue
        try:
            manifest = json.loads((out_dir / "manifest.json").read_text())
            report = json.loads((out_dir / inv.report).read_text())
            outcome.bytes_written += sum(p.stat().st_size for p in out_dir.iterdir())
            for check in manifest["checks"]:
                gates.append(check["name"])
                if not check["pass"]:
                    outcome.gates_failed.append(check["name"])
                if check["name"] in ref.get("verdicts", {}):
                    want = ref["verdicts"][check["name"]]
                    ops.record(f"{label}:verdict:{check['name']}", check["pass"] == want,
                               f"got {check['pass']}, reference {want}")
            for product in report.get("products", ()):
                if product["n"] == 1000:
                    outcome.trials_at_1000 += product["trials"]
            for order, exact in ref.get("limits", {}).items():
                got = report["targets"][order]["value"]
                err = abs(Fraction(got) - Fraction(exact))
                outcome.target_abs_err = max(outcome.target_abs_err, float(err))
                ops.record(f"{label}:target:beta{order}", err <= TARGET_TOL,
                           f"got {got}, exact {exact}")
        except (OSError, ValueError, KeyError, TypeError) as exc:
            ops.record(f"{label}:{inv.tag}:outputs", False, f"unreadable outputs: {exc!r}")
    ops.record(f"{label}:gate_names", gates == ref["gates"],
               f"{len(gates)} gates, reference has {len(ref['gates'])}")
    return outcome


def same_reports(a: list, b: list, name: str, ops: Ops) -> None:
    """Two repetitions of one workload must write byte-identical reports."""
    for (inv, dir_a, _), (_, dir_b, _) in zip(a, b):
        path_a, path_b = dir_a / inv.report, dir_b / inv.report
        same = path_a.is_file() and path_b.is_file() and path_a.read_bytes() == path_b.read_bytes()
        ops.record(f"{name}:{inv.tag}", same, f"{path_a.name} differs")


# --- environment --------------------------------------------------------------------


def blas_threads():
    """OpenBLAS's thread count in this process, read from the loaded library."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def environment(seed: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None  # a plain source checkout is not a git repository
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "cli_threads": "default (flag not passed); 1 and 2 in the thread-count check",
        "blas_threads_thread_count_check": int(ONE_BLAS_THREAD["OPENBLAS_NUM_THREADS"]),
        "seed": seed,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


# --- traces ---------------------------------------------------------------------------


@dataclass
class SpanStats:
    calls: int = 0
    busy_ns: int = 0
    self_ns: int = 0
    durations_ns: list = field(default_factory=list)

    @property
    def busy_s(self) -> float:
        return self.busy_ns / 1e9

    @property
    def self_s(self) -> float:
        return self.self_ns / 1e9

    @property
    def p50_ms(self) -> float:
        return statistics.median(self.durations_ns) / 1e6 if self.durations_ns else 0.0

    @property
    def max_ms(self) -> float:
        return max(self.durations_ns) / 1e6 if self.durations_ns else 0.0


def span_stats(traces: list) -> tuple[dict, dict]:
    """Per-name call counts, busy and self time; and per-size tables of exact counts.

    Busy time counts only the outermost span of a name (``value_table``
    recurses for composed links); self time subtracts the direct children.
    """
    stats: dict[str, SpanStats] = {}
    sizes: dict[str, dict] = {}
    for trace in traces:
        spans = trace["spans"]
        by_id = {s[0]: s for s in spans}
        child_ns: dict[int, int] = {}
        for s in spans:
            if s[1] is not None:
                child_ns[s[1]] = child_ns.get(s[1], 0) + s[5]
        for span_id, parent, name, _thread, _start, dur, attrs in spans:
            st = stats.setdefault(name, SpanStats())
            st.calls += 1
            st.self_ns += dur - child_ns.get(span_id, 0)
            st.durations_ns.append(dur)
            while parent is not None and by_id[parent][2] != name:
                parent = by_id[parent][1]
            if parent is None:
                st.busy_ns += dur
            if attrs and "count" in attrs:
                key = f"{attrs['link']}|{attrs['two_k']}|{attrs['n']}"
                row = sizes.setdefault(name, {}).setdefault(
                    key, {"calls": 0, "busy_s": 0.0, "circuits": 0})
                row["calls"] += 1
                row["busy_s"] += dur / 1e9
                row["circuits"] += attrs["count"]
    return stats, sizes


def computed_figures(traces: list) -> dict:
    """Kernel figures computed from sizes, not measured by counters."""
    durs: dict[int, list] = {}
    for trace in traces:
        for s in trace["spans"]:
            if s[2] == "spectral.eigenvalues" and s[6] and "n" in s[6]:
                durs.setdefault(s[6]["n"], []).append(s[5])
    figures = {}
    for n, ds in sorted(durs.items()):
        flops = EIGVALSH_FLOPS_PER_N3 * n**3
        p50 = statistics.median(ds) / 1e9
        figures[f"n={n}"] = {
            "eigvalsh_flops_per_call": flops,
            "eigvalsh_gflop_per_s_at_p50": flops / p50 / 1e9,
            "eigvalsh_p50_s": p50,
            "realization_bytes_per_trial": REALIZATION_BYTES_PER_ENTRY * n * n,
            "basis": "computed: 4/3 n^3 flops (tridiagonal reduction) per eigensolve; "
                     "72 n^2 bytes of array passes per realization, caches ignored",
        }
    return figures


# --- the run ---------------------------------------------------------------------------


def setup_times(runner: Runner, config: Path, first: int, count: int) -> list:
    """Wall times of fresh interpreters importing the CLI and loading a config."""
    cmd = [sys.executable, "-c", SETUP_CODE, str(config)]
    return [runner.run(cmd, runner.out / "setup" / f"{i}.log").wall_s
            for i in range(first, first + count)]


def traced_run(runner: Runner, wl: Workload, seed: int, ref: dict, ops: Ops,
               untraced: list) -> tuple[list, float]:
    """The traced repetition, and the thread-count check where the workload has one.

    Returns the span files' contents and the traced repetition's wall time.
    """
    traced = runner.rep(wl, seed, "traced", traced=True)
    check_outputs(traced, ref, "traced", ops)
    same_reports(untraced, traced, "traced_report_identical", ops)
    if wl.thread_check:
        env = {**os.environ, **ONE_BLAS_THREAD}
        sides = [runner.rep(wl, seed, f"threads{t}", cli_args=("--threads", str(t)), env=env)
                 for t in (1, 2)]
        for t, side in zip((1, 2), sides):
            check_outputs(side, ref, f"threads{t}", ops)
        same_reports(*sides, "threads_report_identical", ops)
    traces = []
    for inv, _, _ in traced:
        path = runner.out / "traced" / f"{inv.tag}.spans.json"
        if ops.record(f"traced:{inv.tag}:spans", path.is_file(), "no spans written"):
            traces.append(json.loads(path.read_text()))
    return traces, sum(child.wall_s for _, _, child in traced)


def span_metric(stats: dict, name: str) -> float:
    """A per-layer metric named ``<module>.<function>.<field>``; 0 for a layer not run."""
    span, _, field_name = name.rpartition(".")
    return getattr(stats.get(span, SpanStats()), field_name)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="schurlsd channel-split benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in (SRC / "schurlsd" / "cli.py", ORACLE) if not p.is_file()]
    if missing:
        print(f"perfbench: not a schurlsd checkout, missing {', '.join(map(str, missing))}",
              file=sys.stderr)
        return 2
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    sys.path[:0] = [str(SRC), str(ORACLE.parent)]

    wl = WORKLOADS[args.workload]
    ref = json.loads((HERE / "reference.json").read_text())[args.workload]
    specs = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = OUT / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    for inv in wl.invocations:
        (out / f"{inv.tag}.json").write_text(json.dumps(inv.config))
    runner = Runner(out)
    ops = Ops()

    env = environment(args.seed)
    precheck(wl, ops)
    setup_config = out / f"{wl.invocations[0].tag}.json"
    setup_times(runner, setup_config, -1, 1)  # untimed: writes the bytecode caches
    setup = setup_times(runner, setup_config, 0, SETUP_REPS // 2)

    # Timed repetitions: at least one, and another only while it fits in --seconds.
    reps, walls, outcomes = [], [], []
    start = time.perf_counter()
    while True:
        results = runner.rep(wl, args.seed, f"rep{len(reps)}")
        outcomes.append(check_outputs(results, ref, f"rep{len(reps)}", ops))
        reps.append(results)
        walls.append(sum(child.wall_s for _, _, child in results))
        if time.perf_counter() - start + statistics.median(walls) > args.seconds:
            break
    outcome = outcomes[0]  # every repetition reads the same seed, so gates agree
    wall_s = statistics.median(walls)
    setup += setup_times(runner, setup_config, len(setup), SETUP_REPS - len(setup))
    peak_kb = max(child.maxrss_kb for results in reps for _, _, child in results)

    extra = {
        "gates_failed": len(outcome.gates_failed),
        "ops_failed_frac": 0.0,  # filled in below, once every operation has run
        "trials_per_s": outcome.trials_at_1000 / wall_s,
        "target_abs_err": outcome.target_abs_err,
        "cli.bytes_written": outcome.bytes_written,
    }
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "rep_walls_s": walls,
        "setup_samples_s": setup,
        "gates_failed": outcome.gates_failed,
    }
    if args.trace:
        traces, traced_wall = traced_run(runner, wl, args.seed, ref, ops, reps[0])
        stats, sizes = span_stats(traces)
        hits = sum(t["value_table_cache"]["hits"] for t in traces)
        lookups = hits + sum(t["value_table_cache"]["misses"] for t in traces)
        counted = sum(row["circuits"] for row in sizes.get("circuits.count_pi_star", {}).values())
        busy = stats.get("circuits.count_pi_star", SpanStats()).busy_ns / 1e9
        extra.update({
            "circuits.count_pi_star.circuits_per_s": counted / busy if busy else 0.0,
            "linkfn.value_table.cache_hit_ratio": hits / lookups if lookups else 0.0,
            "cli.self_s": sum(s.self_ns for n, s in stats.items() if n.startswith("cli.")) / 1e9,
            "trace.overhead_s": traced_wall - wall_s,
        })
        ranked = sorted(stats.items(), key=lambda kv: kv[1].self_ns, reverse=True)
        report.update({
            "traced_wall_s": traced_wall,
            "self_share_of_traced_wall": {n: s.self_ns / 1e9 / traced_wall for n, s in ranked[:10]},
            "count_sizes": sizes,
            "computed": computed_figures(traces),
            "spans": {n: {"calls": s.calls, "busy_s": s.busy_ns / 1e9, "self_s": s.self_ns / 1e9,
                          "busy_share": s.busy_ns / 1e9 / traced_wall}
                      for n, s in sorted(stats.items())},
        })
    extra["ops_failed_frac"] = len(ops.failures) / ops.attempted

    if args.trace:
        chosen = specs["per_layer"]
        names = [s["name"] for s in chosen]
        values = {n: extra[n] if n in extra else span_metric(stats, n) for n in names}
    else:
        chosen = specs["end_to_end"]
        values = {"wall_s": wall_s, "setup_s": min(setup),
                  "peak_rss_mb": peak_kb / 1024.0}
    metrics = {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in chosen}
    report.update({
        "extra": extra,
        "metrics": metrics,
        "attempted": ops.attempted,
        "failures": ops.failures,
    })
    (out / "bench_report.json").write_text(json.dumps(report, indent=1) + "\n")

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(walls)} timed repetition(s), walls {[round(w, 3) for w in walls]} s")
    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']:.6g} {m['unit']}")
    if args.trace:
        for name, share in list(report["self_share_of_traced_wall"].items())[:3]:
            print(f"  self share of traced wall: {name} {share:.3f}")
    else:
        for name in ("gates_failed", "trials_per_s", "target_abs_err", "ops_failed_frac"):
            print(f"  {name:48s} {extra[name]:.6g}")
    if outcome.gates_failed:
        print(f"  failed gates: {', '.join(outcome.gates_failed)}")
    for failure in ops.failures:
        print(f"  FAILED {failure}")
    print(f"  report: {(out / 'bench_report.json').relative_to(ROOT)}")
    print(json.dumps({
        "correct": not ops.failures,
        "attempted": ops.attempted,
        "failed": len(ops.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
