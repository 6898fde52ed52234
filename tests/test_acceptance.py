"""Acceptance suite.

One test per acceptance criterion, each asserting its stated tolerance and
runtime budget and printing one pass line (run with `pytest -s` to see
them; a failed assertion is the fail line).
"""

import time

import numpy as np

from qcss import (
    aperiodic_xcorr,
    build_ccc,
    build_qcss,
    build_set,
    delta_max_scan,
    factorize,
    pi_perm,
    table_rows,
    verify_ccc,
    verify_interset,
    verify_unique_solution,
    xcorr_all_shifts_fft,
)
from test_bounds import (
    NEAR_OPTIMAL_SWEEP_EXPECTED,
    OPTIMAL_SWEEP_EXPECTED,
    PRIME_SQUARE_SWEEP_EXPECTED,
)
from test_correlation import corrupt_one_entry

PI15 = (0, 1, 3, 2, 4, 5, 6, 8, 7, 9, 10, 11, 13, 12, 14)


def best_time(fn, repeats=5):
    """Wall-clock of the fastest of several runs (shields timing asserts
    from one-off scheduler noise)."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return result, best


def report(num, name, elapsed, limit, detail=""):
    print(f"criterion {num} ({name}): PASS [{elapsed * 1000:.1f} ms < {limit * 1000:g} ms] {detail}")


def test_criterion_1_permutation_ground_truth():
    f = factorize(15)
    perm, elapsed = best_time(lambda: pi_perm(f, 3))
    assert np.array_equal(perm.table, PI15)
    limit = 0.001
    assert elapsed < limit
    report(1, "permutation ground truth", elapsed, limit, f"table={perm.table.tolist()}")


def test_criterion_2_reference_phase_blocks(ref35_k1, ref35_k2):
    f = factorize(35)
    perm = pi_perm(f, 5)
    build_set(1, 0, perm)  # warm the array machinery before timing

    def build_both():
        return build_set(1, 0, perm), build_set(2, 0, perm)

    (mat1, mat2), elapsed = best_time(build_both)
    assert np.array_equal(mat1.phases, ref35_k1)
    assert np.array_equal(mat2.phases, ref35_k2)
    limit = 0.010
    assert elapsed < limit
    report(2, "reference phase blocks", elapsed, limit, "two 35x35 blocks bit-exact")


def test_criterion_3_complete_complementarity():
    start = time.perf_counter()
    checked = 0
    for n in (9, 15, 21, 25, 27, 35):
        f = factorize(n)
        perm = pi_perm(f)
        tol = 1e-6 * n * n
        for k in range(1, f.least_prime):
            rep = verify_ccc(build_ccc(k, perm), tol=tol)
            assert rep.ok, (n, k, rep.argmax, rep.max_deviation)
            assert rep.peak_deviation <= tol, (n, k, rep.peak_deviation)
            checked += 1
    elapsed = time.perf_counter() - start
    limit = 30.0
    assert elapsed < limit
    report(3, "complete complementarity", elapsed, limit, f"{checked} families")


def test_criterion_4_inter_family_bound_and_dichotomy():
    start = time.perf_counter()
    checked = 0
    for n in (9, 15, 21, 25, 27, 35):
        f = factorize(n)
        perm = pi_perm(f)
        tol = 1e-6 * n
        families = {k: build_ccc(k, perm) for k in range(1, f.least_prime)}
        for k1 in families:
            for k2 in families:
                if k1 >= k2:
                    continue
                rep = verify_interset(families[k1], families[k2], tol=tol)
                assert rep.ok, (n, k1, k2, rep.max_magnitude)
                assert rep.dichotomy_ok, (n, k1, k2, rep.dichotomy_deviation)
                assert abs(rep.max_magnitude - n) <= tol, (n, k1, k2, rep.max_magnitude)
                checked += 1
    elapsed = time.perf_counter() - start
    limit = 60.0
    assert elapsed < limit
    report(4, "inter-family bound and dichotomy", elapsed, limit, f"{checked} family pairs")


def test_criterion_5_pool_delta_max():
    start = time.perf_counter()
    observed = {}
    for n, expected_size in ((15, 30), (21, 42), (35, 140)):
        f = factorize(n)
        family = build_qcss(f, pi_perm(f))
        assert len(family) == expected_size
        rep = delta_max_scan(family, tol=1e-6 * n)
        assert abs(rep.delta_max - n) <= 1e-6 * n, (n, rep.delta_max)
        observed[n] = rep.delta_max
    elapsed = time.perf_counter() - start
    limit = 120.0
    assert elapsed < limit
    report(5, "pool delta_max", elapsed, limit, f"delta_max={observed}")


def test_criterion_6_unique_solution_property():
    start = time.perf_counter()
    for n in (9, 15, 21, 25, 27, 35, 45, 63, 105):
        f = factorize(n)
        rep = verify_unique_solution(f, pi_perm(f))
        assert rep.ok, (n, rep.violations[:3])
        assert rep.violations == ()
    elapsed = time.perf_counter() - start
    limit = 30.0
    assert elapsed < limit
    report(6, "unique solution property", elapsed, limit, "9 moduli, every (tau, c) count = 1")


def test_criterion_7_bound_tables():
    start = time.perf_counter()
    for which, expected in (
        ("optimal", OPTIMAL_SWEEP_EXPECTED),
        ("near-optimal", NEAR_OPTIMAL_SWEEP_EXPECTED),
        ("prime-square", PRIME_SQUARE_SWEEP_EXPECTED),
    ):
        rows = table_rows(which)
        assert len(rows) == len(expected)
        for row, (label, K, N, rho4) in zip(rows, expected):
            assert (row.alphabet, row.set_size, row.length) == (label, K, N)
            assert row.rho_4dp == rho4, (label, row.rho_4dp, rho4)
            if rho4 == "2.0000":
                assert 1.9999 <= row.rho < 2, (label, row.rho)
    elapsed = time.perf_counter() - start
    limit = 1.0
    assert elapsed < limit
    report(7, "bound tables", elapsed, limit, "19 + 8 + 11 rows at 4 decimals")


def test_criterion_8_fft_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(20240935)
    worst = {}
    for n in (15, 35, 121):
        taus = list(range(-(n - 1), n))
        worst_n = 0.0
        for _ in range(1000):
            u = np.exp(2j * np.pi * rng.random(n))
            v = np.exp(2j * np.pi * rng.random(n))
            profile = xcorr_all_shifts_fft(u, v)
            naive = np.array([aperiodic_xcorr(u, v, tau) for tau in taus])
            worst_n = max(worst_n, float(np.abs(profile.values - naive).max()))
        assert worst_n <= 1e-9 * n, (n, worst_n)
        worst[n] = worst_n
    elapsed = time.perf_counter() - start
    limit = 10.0
    assert elapsed < limit
    report(8, "fft oracle equivalence", elapsed, limit, f"worst deviations {worst}")


def test_criterion_9_mutation_sensitivity(perm15):
    start = time.perf_counter()
    rng = np.random.default_rng(20240915)
    family = build_ccc(1, perm15)
    for trial in range(50):
        m, s, t = (int(x) for x in rng.integers(0, 15, size=3))
        corrupted = corrupt_one_entry(family, m=m, s=s, t=t)
        rep = verify_ccc(corrupted)
        assert not rep.ok, (trial, m, s, t)
    elapsed = time.perf_counter() - start
    limit = 30.0
    assert elapsed < limit
    report(9, "mutation sensitivity", elapsed, limit, "50/50 corruptions detected")
