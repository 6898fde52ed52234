"""The exact engine against the FFT scanners and the direct per-shift sum."""

import random
from math import gcd

import numpy as np
import pytest

from qcss import (
    BadFamilyIndexError,
    FamilyMismatchError,
    Permutation,
    ShapeMismatchError,
    build_ccc,
    build_qcss,
    default_exponent,
    delta_max_exact,
    delta_max_scan,
    factorize,
    pi_perm,
    set_xcorr,
    verify_ccc,
    verify_ccc_exact,
    verify_interset,
    verify_interset_exact,
)
from qcss.modarith import partner_map

# Pools up to this size also run the FFT delta_max scan; larger prime pools
# (K = N * (N-1)) cost seconds each and are compared family pair by pair.
FFT_POOL_LIMIT = 200


def admissible_exponents(p, limit=3):
    return [e for e in range(2, p) if gcd(p - 1, e) == 1][:limit] or [default_exponent(p)]


def all_pairs(p0):
    """Every ordered pair of distinct family indices."""
    return [(a, b) for a in range(1, p0) for b in range(1, p0) if a != b]


def sample_pairs(p0):
    """Both orders of the first two family indices, and of the first and the last."""
    return sorted({(1, 2), (2, 1), (1, p0 - 1), (p0 - 1, 1)})


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
    dichotomy = []
    for k1, k2 in pairs:
        fft = verify_interset(build_ccc(k1, perm), build_ccc(k2, perm))
        exact = verify_interset_exact(k1, k2, perm)
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


@pytest.mark.parametrize("n", range(3, 46, 2))
def test_engines_agree_on_constructions(n):
    f = factorize(n)
    p0 = f.least_prime
    pool = (p0 - 1) * n <= FFT_POOL_LIMIT
    pairs = all_pairs(p0) if pool else sample_pairs(p0)
    for e in admissible_exponents(f.largest_prime):
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
    mags = rounded_magnitudes(build_ccc(2, perm), build_ccc(1, perm), taus)
    report = verify_interset_exact(2, 1, perm)
    m1, m2, ti = np.unravel_index(np.argmax(mags), mags.shape)
    assert report.argmax == (m1, m2, taus[ti])
    assert report.max_magnitude == pytest.approx(mags.max(), abs=1e-6)


def test_exact_reports():
    f = factorize(35)
    perm = pi_perm(f)
    ccc = verify_ccc_exact(2, perm)
    assert (ccc.ok, ccc.max_deviation, ccc.argmax, ccc.worst_violation) == (True, 0.0, (0, 0, 0), None)
    assert (ccc.peak_deviation, ccc.offpeak_max, ccc.tol, ccc.engine) == (0.0, 0.0, 1e-6 * 35 * 35, "exact")
    inter = verify_interset_exact(1, 3, perm)
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
    with pytest.raises(BadFamilyIndexError):
        verify_interset_exact(0, 1, perm15)
    with pytest.raises(FamilyMismatchError):
        verify_interset_exact(2, 2, perm15)
    with pytest.raises(ShapeMismatchError):
        delta_max_exact(factorize(35), perm15)
