"""The exact engine against the FFT scanners and the direct per-shift sum."""

import random
import time
from math import gcd

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qcss import (
    BadFamilyIndexError,
    NotCoprimeError,
    Permutation,
    QcssError,
    SequenceFamily,
    ShapeMismatchError,
    build_ccc,
    build_qcss,
    default_exponent,
    delta_max_exact,
    delta_max_scan,
    factorize,
    pi_perm,
    set_xcorr,
    verify,
    verify_ccc,
    verify_ccc_exact,
    verify_interset,
    verify_intersets_exact,
)
from qcss import correlation, modarith
from qcss.cli import main
from qcss.correlation import CorrelationReport, IntersetReport
from qcss.modarith import partner_map

# Pools up to this size also run the FFT delta_max scan; larger prime pools
# (K = N * (N-1)) cost seconds each and are compared family pair by pair.
FFT_POOL_LIMIT = 250


def admissible_exponents(p, limit=3):
    return [e for e in range(2, p) if gcd(p - 1, e) == 1][:limit] or [default_exponent(p)]


def all_pairs(p0):
    """Every pair of family indices k1 < k2. The reversed order is the
    conjugate mirror, R(k2, k1, tau) = conj R(k1, k2, -tau)."""
    return [(a, b) for a in range(1, p0) for b in range(a + 1, p0)]


def sample_pairs(p0):
    """The first two family indices, and the first and the last."""
    return sorted({(1, 2), (1, p0 - 1)})


def random_bijection(n, seed):
    table = list(range(n))
    random.Random(seed).shuffle(table)
    return Permutation(n, tuple(table))


def max_solution_count(perm, p0):
    """Largest |S_tau| over every pair of distinct families."""
    n = perm.modulus
    t = np.arange(n)
    best = 0
    for k1 in range(1, p0):
        for k2 in range(1, p0):
            if k1 != k2:
                shift = partner_map(perm, k1 * pow(k2, -1, n) % n) - t
                best = max(best, int(np.bincount(shift + n - 1).max()))
    return best


def assert_engines_agree(f, perm, pairs, pool):
    n = f.n
    for k in sorted({k for pair in pairs for k in pair}):
        fft = verify_ccc(build_ccc(k, perm))
        exact = verify_ccc_exact(k, perm)
        assert exact.max_deviation == 0.0
        assert fft.max_deviation <= 1e-9 * n * n
        assert exact.ok == fft.ok
    intersets = {(r.k1, r.k2): r for r in verify_intersets_exact(f, perm)}
    dichotomy = []
    for k1, k2 in pairs:
        fft = verify_interset(build_ccc(k1, perm), build_ccc(k2, perm))
        exact = intersets[k1, k2]
        assert exact.max_magnitude == pytest.approx(fft.max_magnitude, abs=1e-9 * n)
        assert exact.dichotomy_deviation == pytest.approx(fft.dichotomy_deviation, abs=1e-9 * n)
        assert exact.dichotomy_ok == fft.dichotomy_ok
        assert exact.ok == fft.ok
        dichotomy.append(exact.dichotomy_ok)
    exact = delta_max_exact(f, perm)
    if pool:
        fft = delta_max_scan(build_qcss(f, perm))
        assert exact.delta_max == pytest.approx(fft.delta_max, abs=1e-9 * n)
        assert exact.set_size == fft.set_size
    return exact, dichotomy


# Every odd N up to 45 with up to three exponents; chosen N up to 121 with
# the first exponent: full pools at N = 63, 99 and 105, sampled pairs at
# 49, 77, 101 and 121.
@pytest.mark.parametrize("n", [*range(3, 46, 2), 49, 63, 77, 99, 101, 105, 121])
def test_engines_agree_on_constructions(n):
    f = factorize(n)
    p0 = f.least_prime
    pool = (p0 - 1) * n <= FFT_POOL_LIMIT
    pairs = all_pairs(p0) if pool else sample_pairs(p0)
    for e in admissible_exponents(f.largest_prime, limit=3 if n <= 45 else 1):
        exact, dichotomy = assert_engines_agree(f, pi_perm(f, e), pairs, pool)
        assert exact.delta_max == float(n)
        assert all(dichotomy)


@pytest.mark.parametrize("n,seed", [(15, 1), (21, 2), (25, 3)])
def test_engines_agree_on_random_bijections(n, seed):
    # A shuffled table breaks the unique-solution property: some
    # |S_tau| >= 2, so delta_max exceeds N and the dichotomy fails.
    f = factorize(n)
    perm = random_bijection(n, seed)
    assert max_solution_count(perm, f.least_prime) >= 2
    exact, dichotomy = assert_engines_agree(f, perm, all_pairs(f.least_prime), pool=True)
    assert exact.delta_max > n
    assert not all(dichotomy)


def rounded_magnitudes(a_members, b_members, taus):
    """Direct per-shift magnitudes, rounded so float noise cannot break ties."""
    return np.array(
        [[[round(abs(set_xcorr(a, b, tau)), 6) for tau in taus] for b in b_members] for a in a_members]
    )


@pytest.mark.parametrize("perm_of", [lambda f: pi_perm(f), lambda f: random_bijection(f.n, 4)])
def test_argmax_is_first_direct_maximum(perm_of):
    f = factorize(9)
    n = f.n
    perm = perm_of(f)
    pool = build_qcss(f, perm)
    mags = rounded_magnitudes(pool, pool, range(n))
    mags[np.arange(len(pool)), np.arange(len(pool)), 0] = -1.0  # the in-phase terms
    report = delta_max_exact(f, perm)
    assert report.argmax == np.unravel_index(np.argmax(mags), mags.shape)
    assert report.delta_max == pytest.approx(mags.max(), abs=1e-6)

    taus = list(range(-(n - 1), n))
    mags = rounded_magnitudes(build_ccc(1, perm), build_ccc(2, perm), taus)
    [report] = verify_intersets_exact(f, perm)
    m1, m2, ti = np.unravel_index(np.argmax(mags), mags.shape)
    assert report.argmax == (m1, m2, taus[ti])
    assert report.max_magnitude == pytest.approx(mags.max(), abs=1e-6)


def test_exact_reports():
    f = factorize(35)
    perm = pi_perm(f)
    ccc = verify_ccc_exact(2, perm)
    assert (ccc.ok, ccc.max_deviation, ccc.argmax) == (True, 0.0, (0, 0, 0))
    assert (ccc.peak_deviation, ccc.offpeak_max, ccc.tol, ccc.engine) == (0.0, 0.0, 1e-6 * 35 * 35, "exact")
    inter = verify_intersets_exact(f, perm)[1]
    assert (inter.k1, inter.k2) == (1, 3)
    assert (inter.max_magnitude, inter.dichotomy_deviation, inter.engine) == (35.0, 0.0, "exact")
    assert inter.ok and inter.dichotomy_ok
    pool = delta_max_exact(f, perm, tol=1e-3)
    assert (pool.delta_max, pool.set_size, pool.tol, pool.histogram, pool.engine) == (
        35.0, 140, 1e-3, None, "exact",
    )
    assert delta_max_scan(build_qcss(f, perm)).engine == "fft"


def test_exact_inputs_validated(perm15):
    with pytest.raises(BadFamilyIndexError):
        verify_ccc_exact(3, perm15)
    with pytest.raises(ShapeMismatchError):
        delta_max_exact(factorize(35), perm15)


# ---------------------------------------------------------------------------
# The ratio-class engine against the pair loops it replaced


def reference_shift_counts(n, partners):
    """|S_tau| for tau = -(N-1)..N-1, one row per row of partners: (R, 2N-1)."""
    rows = partners.reshape(-1, n)
    span = 2 * n - 1
    index = rows - np.arange(n) + (n - 1) + span * np.arange(len(rows))[:, None]
    return np.bincount(index.ravel(), minlength=span * len(rows)).reshape(len(rows), span)


def reference_pair_loop(f, perm, tol=None):
    """The pair loops the ratio classes replaced, one partner map per
    ordered pair of families: delta_max_exact's report, and the
    verify_intersets_exact report of every pair k1 < k2, off the same counts."""
    n, families = f.n, f.least_prime - 1
    inverses = np.array([pow(k, -1, n) for k in range(1, families + 1)])
    delta_max, argmax = 0.0, (0, 0, 1)
    intersets = []
    for i in range(families):
        others = [j for j in range(families) if j != i]
        partners = partner_map(perm, (i + 1) * inverses[others] % n)  # c = k1 / k2
        full = reference_shift_counts(n, partners)
        counts = full[:, n - 1:]  # tau = 0..N-1
        for j, peak, tau in zip(others, counts.max(axis=1).tolist(), counts.argmax(axis=1).tolist()):
            if n * peak > delta_max:
                delta_max, argmax = float(n * peak), (i * n, j * n, tau)
        firsts, peaks = full.argmax(axis=1).tolist(), full.max(axis=1).tolist()
        intersets += [
            interset_report(n, i + 1, j + 1, peak, first - (n - 1), 1e-6 * n)
            for j, peak, first in zip(others, peaks, firsts)
            if j > i
        ]
    return CorrelationReport(delta_max, argmax, n, families * n, tol, engine="exact"), intersets


def interset_report(n, k1, k2, peak, tau, tol):
    dichotomy = float(n * (peak - 1)) if peak >= 2 else 0.0
    return IntersetReport(
        n * peak <= n + tol, n, k1, k2, tol, float(n * peak), (0, 0, tau), dichotomy <= tol, dichotomy, engine="exact"
    )


@st.composite
def permutations(draw, n_max=301):
    """(f, perm, shuffled): pi_perm with an admissible exponent (e = 1, the
    identity, included), or a seeded random bijection."""
    n = draw(st.integers(1, (n_max - 1) // 2), label="half") * 2 + 1
    f = factorize(n)
    if draw(st.booleans(), label="random"):
        return f, random_bijection(n, draw(st.integers(0, 2**32 - 1), label="seed")), True
    p = f.largest_prime
    return f, pi_perm(f, draw(st.sampled_from([e for e in range(1, p - 1) if gcd(p - 1, e) == 1] or [1]))), False


@settings(max_examples=10, deadline=None)
@given(permutations())
def test_ratio_classes_equal_the_pair_loops(fpr):
    f, perm, shuffled = fpr
    delta_max, intersets = reference_pair_loop(f, perm, tol=0.5)
    assume(not shuffled or any(r.max_magnitude > f.n for r in intersets))  # some |S_tau| >= 2
    assert delta_max_exact(f, perm, tol=0.5) == delta_max
    assert verify_intersets_exact(f, perm) == intersets


@pytest.mark.parametrize("n,seed", [(31, 11), (45, 11)])
def test_many_chunks(n, seed, monkeypatch):
    # Chunks of 4 ratio classes and blocks of one family row: many of each,
    # as at prime N > 257 (chunks) and N > 1025 (blocks). At N = 45 the
    # first maximum sits in the second row.
    monkeypatch.setattr(modarith, "RATIO_CHUNK", 4)
    monkeypatch.setattr(correlation, "_PAIR_BLOCK", 1)
    f = factorize(n)
    perm = random_bijection(n, seed)
    delta_max, intersets = reference_pair_loop(f, perm)
    assert delta_max_exact(f, perm) == delta_max
    assert verify_intersets_exact(f, perm) == intersets


def test_intersets_validated(perm15):
    with pytest.raises(ShapeMismatchError):
        verify_intersets_exact(factorize(35), perm15)
    reports = verify_intersets_exact(factorize(15), perm15, tol=0.25)
    assert [(r.k1, r.k2, r.tol) for r in reports] == [(1, 2, 0.25)]


# ---------------------------------------------------------------------------
# The dispatch: qcss.verify picks the engine for one scope


@pytest.mark.parametrize("n", [*range(3, 46, 2), 63, 105])
def test_dispatch_runs_exact_engine_on_constructions(n):
    f = factorize(n)
    p0, e = f.least_prime, default_exponent(f.largest_prime)
    perm = pi_perm(f, e)
    for tol in (None, 0.5):
        ccc = verify("ccc", f, e, tol=tol)
        assert ccc == [verify_ccc_exact(k, perm, tol=tol) for k in range(1, p0)]
        interset = verify("interset", f, e, tol=tol)
        assert interset == verify_intersets_exact(f, perm, tol=tol)
        pool = verify("qcss", f, e, tol=tol)
        assert pool == [delta_max_exact(f, perm, tol=1e-6 * n if tol is None else tol)]
        assert {r.engine for r in ccc + interset + pool} == {"exact"}


def edited(family, k, m, s, t):
    """A copy of family with entry (s, t) of member (k, m), if it has one,
    raised by 1 (mod N)."""
    phases = family.phases.copy()
    for u, mat in enumerate(family):
        if (mat.k, mat.m) == (k, m):
            phases[u, s, t] = (phases[u, s, t] + 1) % family.n
    return SequenceFamily(family.n, family.kind, phases, k=family.k)


@pytest.mark.parametrize("n", range(3, 26, 2))
def test_dispatch_runs_fft_engine_on_corrupted_families(n):
    f = factorize(n)
    p0, e = f.least_prime, default_exponent(f.largest_prime)
    perm = pi_perm(f, e)
    rng = random.Random(n)
    corrupt = (rng.randrange(1, p0), rng.randrange(n), rng.randrange(n), rng.randrange(n))
    families = {k: edited(build_ccc(k, perm), *corrupt) for k in range(1, p0)}
    ccc = verify("ccc", f, e, corrupt=corrupt)
    assert ccc == [verify_ccc(families[k]) for k in range(1, p0)]
    assert not all(r.ok for r in ccc)
    interset = verify("interset", f, e, tol=0.25, corrupt=corrupt)
    assert interset == [verify_interset(families[a], families[b], tol=0.25) for a, b in all_pairs(p0)]
    pool = verify("qcss", f, e, corrupt=corrupt)
    assert pool == [delta_max_scan(edited(build_qcss(f, perm), *corrupt), tol=1e-6 * n)]
    assert {r.engine for r in ccc + interset + pool} == {"fft"}


@pytest.mark.parametrize("scope", ["permutation", "CCC", ""])
def test_dispatch_refuses_unknown_scope(scope):
    with pytest.raises(QcssError, match="unknown verify scope"):
        verify(scope, factorize(15), 3)


@pytest.mark.parametrize("scope", ["ccc", "interset", "qcss"])
def test_dispatch_checks_memory_before_building(scope, monkeypatch):
    # N = 289: the corrupted pool's FFT scan needs about 8.3 GB. The memory
    # check comes before the permutation and every family.
    monkeypatch.setattr(correlation, "_physical_memory", lambda: 2**20)
    for name in ("pi_perm", "build_ccc", "build_qcss"):
        monkeypatch.setattr(correlation, name, lambda *a, name=name: pytest.fail(f"{name} ran before the check"))
    with pytest.raises(QcssError, match="needs about"):
        verify(scope, factorize(289), 3, corrupt=(1, 0, 0, 0))


def refuse_tables(monkeypatch):
    for name in ("pi_perm", "build_ccc", "build_qcss"):
        monkeypatch.setattr(correlation, name, lambda *a, name=name: pytest.fail(f"{name} ran before the check"))


@pytest.mark.parametrize("scope", ["ccc", "interset", "qcss"])
@pytest.mark.parametrize(
    "corrupt", [(9, 0, 0, 0), (0, 0, 0, 0), (1, 15, 0, 0), (1, 0, -1, 0), (1, 0, 0), (1.5, 0, 0, 0), (True, 0, 0, 0)]
)
def test_dispatch_refuses_corrupt_out_of_range(scope, corrupt, monkeypatch):
    # Each names no entry of the N = 15 families: (9, 0, 0, 0) used to scan
    # the unedited pool, and (1, 0, -1, 0) to edit row 14.
    refuse_tables(monkeypatch)
    with pytest.raises(QcssError, match="out of range"):
        verify(scope, factorize(15), 3, corrupt=corrupt)


@pytest.mark.parametrize("e", [2.0, True])
def test_dispatch_refuses_exponent_that_is_no_integer(e):
    # 2.0 raised a bare TypeError, and True ran as e = 1 and reported ok.
    with pytest.raises(NotCoprimeError, match="exponent must be a positive integer"):
        verify("qcss", factorize(15), e)


@settings(max_examples=60, deadline=None)
@given(corrupt=st.tuples(*[st.integers(-2, 16)] * 4))
def test_dispatch_corrupt_caught_or_refused(corrupt):
    k, m, s, t = corrupt
    if 1 <= k < 3 and all(0 <= x < 15 for x in (m, s, t)):
        reports = verify("ccc", factorize(15), 3, corrupt=corrupt)
        assert [r.ok for r in reports] == [k != 1, k != 2]  # criterion 9: one edited entry is caught
    else:
        with pytest.raises(QcssError, match="out of range"):
            verify("ccc", factorize(15), 3, corrupt=corrupt)


@pytest.mark.parametrize("scope", ["ccc", "interset", "qcss"])
@pytest.mark.parametrize("tol", [float("inf"), float("nan"), -1.0, -1e-9])
@pytest.mark.parametrize("corrupt", [None, (1, 7, 3, 5)])
def test_dispatch_refuses_bad_tol(scope, tol, corrupt, monkeypatch):
    # At tol = inf a corrupted family passed, and at nan or -1 every clean one failed.
    refuse_tables(monkeypatch)
    with pytest.raises(QcssError, match="tol must be finite and >= 0"):
        verify(scope, factorize(15), 3, tol=tol, corrupt=corrupt)


# ---------------------------------------------------------------------------
# Budgets against the cubic cost coming back, wide enough for host noise. On
# a 2-core host delta_max_exact at N = 1009 takes about 0.04 s (the pair loop
# took 17.9 s) and verify --n 401 --scope qcss about 0.01 s.


def best_time(fn, repeats=3):
    best, result = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return result, best


def test_prime_1009_delta_max_budget():
    f = factorize(1009)
    perm = pi_perm(f)
    report, elapsed = best_time(lambda: delta_max_exact(f, perm))
    assert (report.delta_max, report.argmax) == (1009.0, (0, 1009, 0))
    assert elapsed < 1.0


def test_cli_qcss_401_budget(capsys):
    def verify():
        code = main(["verify", "--n", "401", "--scope", "qcss", "--json"])
        return code, capsys.readouterr().out

    (code, out), elapsed = best_time(verify)
    assert code == 0 and '"delta_max": 401.0' in out
    assert elapsed < 1.0
