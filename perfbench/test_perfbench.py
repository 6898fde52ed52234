"""Tests of the benchmark itself: python -m pytest perfbench"""

import random
import shutil
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from qcss import codebook, correlation, modarith  # noqa: E402


def _pool(n, e):
    f = modarith.factorize(n)
    return codebook.build_qcss(f, modarith.pi_perm(f, e))


@pytest.mark.parametrize("n,e", [(9, 3), (15, 3)])
def test_domain_formulas_match_enumeration(n, e):
    """Enumerate each scope's domain; its size is the formula and its direct
    maximum is what the FFT scan reports, so the formula counts the values
    the scan really checks."""
    pool = _pool(n, e)
    domain = [(a, b, tau) for a in pool for b in pool for tau in range(n) if not (a is b and tau == 0)]
    assert len(domain) == workloads.domain_values("qcss", n)
    direct = max(abs(correlation.set_xcorr(a, b, tau)) for a, b, tau in domain)
    assert direct == pytest.approx(correlation.delta_max_scan(pool).delta_max, abs=1e-9 * n)

    p0 = modarith.factorize(n).least_prime
    perm = modarith.pi_perm(modarith.factorize(n), e)
    families = [codebook.build_ccc(k, perm) for k in range(1, p0)]
    ccc = [(f, a, b, tau) for f in families for a in f for b in f for tau in range(n)]
    assert len(ccc) == workloads.domain_values("ccc", n)
    for f in families:
        worst = max(
            abs(correlation.set_xcorr(a, b, tau) - (n * n if a is b and tau == 0 else 0))
            for a in f
            for b in f
            for tau in range(n)
        )
        assert worst == pytest.approx(correlation.verify_ccc(f).max_deviation, abs=1e-9 * n * n)

    inter = [(a, b, tau) for f1, f2 in combinations(families, 2) for a in f1 for b in f2 for tau in range(-(n - 1), n)]
    assert len(inter) == workloads.domain_values("interset", n)
    if inter:
        direct = max(abs(correlation.set_xcorr(a, b, tau)) for a, b, tau in inter)
        assert direct == pytest.approx(correlation.verify_interset(*families[:2]).max_magnitude, abs=1e-9 * n)


@pytest.mark.parametrize("n", list(range(9, 300, 2)) + [15015])
def test_closed_form_pi_matches_pi_perm(n):
    """The expectation of every pi_perm op is the closed form; hold it to the library."""
    p = workloads.prime_factors(n)[-1]
    for e in workloads.admissible_exponents(p)[:3]:
        table = modarith.pi_perm(modarith.factorize(n), e).table
        assert np.array_equal(np.asarray(table), workloads.closed_form_pi(n, e))


def _small_workload(tmp_path, groups):
    return workloads.Workload("test", 0, groups, groups[0][0], tmp_path / "work")


def test_wrong_expectation_counts_as_error(tmp_path):
    argv = ["verify", "--n", "15", "--scope", "qcss", "--exponent", "3", "--json"]
    right = workloads.cli_op("clean pool, expect exit 0", argv, workloads._exit_then(0))
    wrong = workloads.cli_op("clean pool, expect exit 1", argv, workloads._exit_then(1))
    corrupt = workloads._verify_op("qcss", 15, 3, (1, 2, 3, 4))
    corrupt_expected_clean = workloads.Op("corrupt pool, expect clean", corrupt.run, workloads._verify_op("qcss", 15, 3).check)
    raising = workloads.Op("raises", lambda: modarith.factorize(4), lambda _: None)
    wl = _small_workload(tmp_path, [[op] for op in (right, wrong, corrupt, corrupt_expected_clean, raising)])
    res = run.run_pass(wl, random.Random(0))
    assert res.attempted == 5
    failed = sorted(f.split(":")[0] for f in res.failures)
    assert failed == ["clean pool, expect exit 1", "corrupt pool, expect clean", "raises"]


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_seed_fixes_inputs(name, tmp_path):
    def plan(seed):
        wl = workloads.build(name, seed, tmp_path)
        return [op.label for op in wl.ordered_ops(random.Random(seed))]

    assert plan(1) == plan(1)
    assert plan(1) != plan(2)


def test_work_counts_repeat_and_match_formulas(tmp_path):
    groups = [
        [workloads._verify_op("qcss", 15, 3)],
        [workloads._verify_op("ccc", 21, 5)],
        [workloads._verify_op("interset", 25, 3)],
        [workloads._verify_op("qcss", 15, 3, (2, 1, 0, 5))],
        workloads._json_pool_ops(15, 3, tmp_path / "work"),
        [workloads._pi_perm_op(105, 5)],
        [workloads._bounds_op(35)],
    ]
    wl = _small_workload(tmp_path, groups)
    counts = []
    for seed in (1, 2):
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            res = run.run_pass(wl, random.Random(seed), tracer)
        assert res.failures == []
        metrics = tracer.layer_metrics(1)
        counts.append(
            {k: metrics[k] for k in ("correlation.values_checked", "codebook.entries_built", "codebook.matrices_built", "modarith.factorize_calls")}
        )
    assert counts[0] == counts[1]
    assert counts[0]["correlation.values_checked"] == sum(op.values for group in groups for op in group)
    # qcss pools of 30, two ccc families of 21, two families per each of six interset pairs at 25
    assert counts[0]["codebook.matrices_built"] == 30 + 2 * 21 + 6 * 2 * 25 + 30 + 30
    assert workloads.cli.build_qcss is codebook.build_qcss  # wrappers removed again


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "build-export", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
