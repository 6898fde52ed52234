"""The FFT engine's delta_max on construction pools with one edited entry,
against the exact value of tests/edit_oracle.py, which is first held to
direct per-shift sums at N <= 21. Seeded edits: one member u, row s0,
column t0 per modulus."""

import numpy as np
import pytest
from edit_oracle import edited_delta_max, edited_row
from test_correlation import corrupt_one_entry

from qcss import build_qcss, delta_max_scan, factorize, pi_perm


def seeded_edit(n, seed):
    """(f, perm, u, s0, t0) for the default construction over Z_n."""
    f = factorize(n)
    rng = np.random.default_rng(seed)
    u = int(rng.integers((f.least_prime - 1) * n))
    s0, t0 = rng.integers(n, size=2).tolist()
    return f, pi_perm(f), u, s0, t0


def direct_values(phases):
    """R(u1, u2, tau) by direct sums over both overlapping windows: complex
    (K, K, 2N - 1), [u1, u2, tau + N - 1]."""
    k, n, _ = phases.shape
    x = np.exp(2j * np.pi * phases / n)
    values = np.empty((k, k, 2 * n - 1), dtype=complex)
    for tau in range(-(n - 1), n):
        a = x[:, :, max(0, -tau) : n - max(0, tau)].reshape(k, -1)
        b = x[:, :, max(0, tau) : n + min(0, tau)].reshape(k, -1)
        values[:, :, tau + n - 1] = a @ b.conj().T
    return values


@pytest.mark.parametrize("n", range(3, 22, 2))
def test_oracle_matches_direct_sums(n):
    f, perm, u, s0, t0 = seeded_edit(n, n)
    family = corrupt_one_entry(build_qcss(f, perm), u, s0, t0)
    values = direct_values(family.phases.astype(np.int64))
    assert np.abs(edited_row(f, perm, u, s0, t0) - values[u]).max() < 1e-9 * n
    mags = np.abs(values[:, :, n - 1 :])  # tau = 0..N-1
    mags[np.arange(len(mags)), np.arange(len(mags)), 0] = -1.0  # the in-phase terms
    assert edited_delta_max(f, perm, u, s0, t0) == pytest.approx(mags.max(), abs=1e-9 * n)


# Primes above 13 are left out: there K = N(N - 1) makes the FFT scan slow.
@pytest.mark.parametrize("n", [3, 5, 7, 9, 11, 13, 15, 21, 25, 27, 33, 35, 39, 45, 63, 105, 225])
def test_fft_scan_matches_oracle(n):
    f, perm, u, s0, t0 = seeded_edit(n, n)
    want = edited_delta_max(f, perm, u, s0, t0)
    report = delta_max_scan(corrupt_one_entry(build_qcss(f, perm), u, s0, t0))
    assert report.delta_max == pytest.approx(want, abs=1e-9 * n)
    if want > n + 1e-9 * n:  # the edit raised delta_max: its maximum holds u
        assert u in report.argmax[:2]
