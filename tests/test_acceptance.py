"""Acceptance gates: one test per shipped criterion, run `pytest -v` for the list.

Criteria 1-7 are exact combinatorics and finish in well under a minute.
Criteria 8, 10 and 11 share two full-scale Monte Carlo verification runs
(n = 1000, 20 trials, at 1 and at 2 threads), started together as two CLI
processes; together with criterion 9 they dominate the runtime.
"""

import json
import math
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from bruteforce import raw_count_joint, raw_count_star
from schurlsd.circuits import (
    check_compatible,
    check_implies_wigner,
    check_invariance_containment,
    check_leadsto_wigner,
    count_pi_star,
    count_pi_star_joint,
    limit,
    p_table,
)
from schurlsd.ensemble import ProductSpec
from schurlsd.oracle import assemble_moments
from schurlsd.spectral import moments_from_spectra, trial_spectra
from schurlsd.words import canonicalize, enumerate_pair_matched, is_catalan

ACCEPT_SEED = 20260814
ALL_LINKS = ("wigner", "toeplitz", "hankel", "symcirc", "revcirc", "dsymhankel")
WORDS_UP_TO_FOURTH = ("aa", "aabb", "abab", "abba")


def test_criterion_01_exact_word_combinatorics():
    start = time.perf_counter()
    words = {two_k: enumerate_pair_matched(two_k) for two_k in (4, 6, 8)}
    assert [len(words[two_k]) for two_k in (4, 6, 8)] == [3, 15, 105]
    assert [sum(is_catalan(w) for w in words[two_k]) for two_k in (4, 6, 8)] == [2, 5, 14]
    for two_k in (4, 6, 8):
        k = two_k // 2
        assert len(words[two_k]) == math.factorial(two_k) // (2**k * math.factorial(k))
        assert sum(is_catalan(w) for w in words[two_k]) == math.comb(two_k, k) // (k + 1)
    for letters, expected in (
        ("abba", True), ("aabbcc", True), ("abccbdda", True),
        ("abab", False), ("abccab", False), ("abcddcab", False),
    ):
        assert is_catalan(canonicalize(letters)) is expected, letters
    assert time.perf_counter() - start < 1.0


def test_criterion_02_pruned_counts_equal_raw_enumeration():
    n = 8
    for link in ALL_LINKS:
        for word in WORDS_UP_TO_FOURTH:
            got = count_pi_star(link, word, n).count
            assert got == raw_count_star(link, word, n), (link, word)
    joint_pairs = [("aa", "aa")] + [
        (wx, wy) for wx in WORDS_UP_TO_FOURTH[1:] for wy in WORDS_UP_TO_FOURTH[1:]
    ]
    for wx, wy in joint_pairs:
        got = count_pi_star_joint("toeplitz", "hankel", wx, wy, n).count
        assert got == raw_count_joint("toeplitz", "hankel", wx, wy, n), (wx, wy)


def test_criterion_03_wigner_word_limits():
    for two_k in (2, 4, 6):
        for word, fit in p_table("wigner", two_k).items():
            assert fit.p == (1 if is_catalan(word) else 0), (str(word), fit)


def test_criterion_04_toeplitz_fourth_moment_channel():
    count = count_pi_star("toeplitz", "abab", 8).count
    assert count == raw_count_star("toeplitz", "abab", 8) == 400
    assert limit(("toeplitz",), ("abab",)).p == Fraction(2, 3)
    limits = {w: fit.p for w, fit in p_table("toeplitz", 4).items()}
    beta4 = assemble_moments(limits, 4)
    assert beta4 == Fraction(8, 3), beta4


def test_criterion_05_compatibility_and_semicircle_collapse():
    pairs = (
        ("toeplitz", "hankel"), ("toeplitz", "revcirc"), ("toeplitz", "dsymhankel"),
        ("symcirc", "hankel"), ("symcirc", "revcirc"), ("symcirc", "dsymhankel"),
    )
    for link_x, link_y in pairs:
        off_diagonal = check_compatible(link_x, link_y, 4)
        diagonal = check_leadsto_wigner(link_x, link_y, 4)
        assert off_diagonal.all_pass, (link_x, link_y, [
            (str(e.word), str(e.word2), e.limit)
            for e in off_diagonal.entries if not e.passed
        ])
        assert diagonal.all_pass, (link_x, link_y, [
            (str(e.word), e.limit) for e in diagonal.entries if not e.passed
        ])
        assert all(e.limit.proof == "rank" for e in off_diagonal.entries)


def test_criterion_06_exact_semicircle_implication():
    for n in (10, 20, 50):
        assert check_implies_wigner("toeplitz", "hankel", n) is True
        assert check_implies_wigner("toeplitz", "revcirc", n) is False


def test_criterion_07_label_transform_invariance_is_exact():
    cases = (("toeplitz", "square(toeplitz)"), ("wigner", "coprimepower(2,3,wigner)"))
    for link, composed in cases:
        for two_k in (4, 6):
            for n in range(2, 13):
                report = check_invariance_containment(link, composed, two_k, n)
                assert report.injective, (link, two_k, n)
                assert report.all_subset and report.all_equal, (link, two_k, n)


@pytest.fixture(scope="module")
def table2_runs(tmp_path_factory):
    """Full-scale verification runs at 1 and 2 threads, run at the same time
    so the one-thread run does not leave a core idle:
    {threads: (rc, report bytes, manifest)}."""
    cfg = {"seed": ACCEPT_SEED, "rows": "all", "n": 1000, "trials": 20, "mc": True}
    started = {}
    for threads in (1, 2):
        out_dir = tmp_path_factory.mktemp(f"table2_threads{threads}")
        cfg_path = out_dir / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        started[threads] = out_dir, subprocess.Popen([
            sys.executable, "-m", "schurlsd.cli", "verify-table2", "--config", str(cfg_path),
            "--out", str(out_dir), "--threads", str(threads),
        ])
    return {
        threads: (proc.wait(timeout=1800), (out_dir / "verify_table2_report.json").read_bytes(),
                  json.loads((out_dir / "manifest.json").read_text()))
        for threads, (out_dir, proc) in started.items()
    }


def test_criterion_08_table2_monte_carlo_rows(table2_runs):
    rc, blob, _ = table2_runs[1]
    assert rc == 0
    report = json.loads(blob)
    checks = {c["name"]: c["pass"] for c in report["checks"]}
    moment_gates = {
        name: ok for name, ok in checks.items()
        if ":beta" in name or ":ks" in name or ":odd" in name
    }
    # 11 semicircle products x (beta2, beta4, beta6, ks) = 44; the 4 single-
    # pattern-limit products add 12 beta gates against exact targets;
    # odd-moment gates are 15 products x 3 orders.
    assert len(moment_gates) == 101
    failed = sorted(name for name, ok in moment_gates.items() if not ok)
    assert not failed, failed


def test_criterion_09_fourth_moment_variance_decay():
    # Across-trial variance of the 4th moment scales like 1/n only when the
    # squared inputs fluctuate; sign inputs have x^2 = 1, so the decay is
    # probed with gaussian entries.
    def beta4_variance(n: int) -> float:
        spec = ProductSpec(
            link_x="toeplitz", link_y="hankel", dist_x="gaussian",
            dist_y="gaussian", n=n, master_seed=ACCEPT_SEED, trials=40,
        )
        return moments_from_spectra(trial_spectra(spec), 4)[3].variance

    ratio = beta4_variance(400) / beta4_variance(800)
    assert 1.4 <= ratio <= 2.8, ratio


def test_criterion_10_moment_bound_ceiling(table2_runs):
    _, blob, _ = table2_runs[1]
    report = json.loads(blob)
    bound_checks = [c for c in report["checks"] if ":bound" in c["name"]]
    assert len(bound_checks) == 60  # 15 products x orders 2, 4, 6, 8
    failed = sorted(c["name"] for c in bound_checks if not c["pass"])
    assert not failed, failed


def test_criterion_11_thread_count_never_changes_bytes(table2_runs):
    rc_serial, blob_serial, _ = table2_runs[1]
    rc_pooled, blob_pooled, manifest = table2_runs[2]
    assert rc_serial == 0 and rc_pooled == 0
    # all 15 products run at n = 1000, so every one is spread over 2 workers
    workers = [product["workers"] for product in manifest["mc_products"]]
    assert workers == [2] * 15
    assert blob_serial == blob_pooled
