"""An exact delta_max for the construction pool with one edited entry.

Member u = (k - 1) * N + m of build_qcss(f, perm) has phases
k*s*pi(t) + m*t. Summed over the flock index s, its correlation with
v = (k2, m2) is the construction identity

    R(u, v, tau) = N * sum_{t in S_tau} w^(m*t - m2*t'),
    t' = pi^-1(c * pi(t)), c = k * k2^-1, S_tau = {t : t' - t = tau},

so with every |S_tau| <= 1 (the unique-solution property) every
cross-family magnitude is N * |S_tau|, 0 or N, and every same-family one
off the in-phase terms is 0. Raising entry (s0, t0) of member u from x to
x + 1 changes it by d = w^(x+1) - w^x. Only the pairs that hold u change:

    R'(u, v, tau) = R(u, v, tau) + d * conj(b_v[s0, t0 + tau]),
    0 <= t0 + tau < N, b_v the unedited member v; for v = u also
    + b_u[s0, t0 - tau] * conj(d) where 0 <= t0 - tau < N, and |d|^2 at tau = 0.

R'(v, u, tau) = conj R'(u, v, -tau), so the K * (2N - 1) values of u's
row decide every value that changes, in O(K * N). The helper takes no
code path of the package's correlation engines.
"""

import numpy as np


def unique_solution_peak(n, families, perm):
    """N * max |S_tau| over tau >= 0 and every class c = k1 * k2^-1 of a
    pair of distinct families: the largest magnitude of the unedited pool
    off the in-phase terms. Asserts every |S_tau| <= 1, without which
    N * |S_tau| is only a bound."""
    t = np.arange(n)
    peak = 0
    for k1 in range(1, families + 1):
        for k2 in range(1, families + 1):
            if k1 != k2:
                partner = perm.inverse[k1 * pow(k2, -1, n) * perm.table % n]
                counts = np.bincount(partner - t + n - 1, minlength=2 * n - 1)
                assert counts.max() <= 1, f"|S_tau| = {counts.max()} for (k1, k2) = ({k1}, {k2})"
                peak = max(peak, int(counts[n - 1 :].max()))
    return n * peak


def edited_row(f, perm, u, s0, t0):
    """R'(u, v, tau) of the pool with entry (s0, t0) of member u raised by
    1 (mod N): complex (K, 2N - 1), [v, tau + N - 1]."""
    n, families = f.n, f.least_prime - 1
    w = np.exp(2j * np.pi * np.arange(n) / n)  # w^j, not the package's root table
    k, m = u // n + 1, u % n
    t = np.arange(n)
    ms = np.arange(n)[:, None]
    row = np.zeros((families, n, 2 * n - 1), dtype=complex)
    for k2 in range(1, families + 1):
        partner = perm.inverse[k * pow(k2, -1, n) * perm.table % n]  # t' of every t
        terms = n * w[(m * t - ms * partner) % n]  # [m2, t]
        np.add.at(row[k2 - 1], (ms, partner - t + n - 1), terms)
    row = row.reshape(families * n, 2 * n - 1)
    # Row s0 of every unedited member: b[v, t] = w^(k2*s0*pi(t) + m2*t).
    ks = np.repeat(np.arange(1, families + 1), n)[:, None]
    b = w[(ks * s0 * perm.table + np.tile(np.arange(n), families)[:, None] * t) % n]
    x = (k * s0 * perm.table[t0] + m * t0) % n
    d = w[(x + 1) % n] - w[x]
    row[:, n - 1 - t0 : 2 * n - 1 - t0] += d * np.conj(b)  # tau = t - t0
    row[u, t0 + n - 1 :: -1][:n] += b[u] * np.conj(d)  # tau = t0 - t
    row[u, n - 1] += abs(d) ** 2
    return row


def edited_delta_max(f, perm, u, s0, t0):
    """delta_max over delta_max_scan's domain for the pool with entry
    (s0, t0) of member u raised by 1: the larger of the unedited pairs'
    peak and the largest |R'(u, v, tau)| over (v, tau) != (u, 0)."""
    mags = np.abs(edited_row(f, perm, u, s0, t0))
    mags[u, f.n - 1] = -1.0  # the in-phase term
    return max(float(unique_solution_peak(f.n, f.least_prime - 1, perm)), float(mags.max()))
