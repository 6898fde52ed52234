"""Aperiodic correlation engines and exhaustive family verifiers.

Two routes exist everywhere: a direct per-shift overlap sum (the ground
truth) and a zero-padded FFT path used by the batched scanners. The FFT
path is checked against the direct one in the test suite; it never
replaces it.

Families built from a permutation pi also have an exact engine
(verify_ccc_exact, verify_interset_exact, delta_max_exact): summing over
the flock index turns every flock-summed value into an integer identity,
so it reads results off a partner map instead of scanning spectra. The
FFT scanners serve arbitrary phase matrices, and the tests hold the two
engines equal on constructed families.

Scan determinism: families are scanned in fixed chunks of member rows, so
per-chunk floating-point reductions are identical no matter how many
worker threads run, and the reported argmax is always the first maximum in
ascending (first member, second member, shift) order.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .codebook import PhaseMatrix, SequenceFamily
from .errors import (
    BadFamilyIndexError,
    FamilyMismatchError,
    LengthMismatchError,
    QcssError,
    ShapeMismatchError,
    ShiftOutOfRangeError,
)
from .modarith import Factorization, Permutation, factorize, partner_map

_ROOT_TABLES: dict[int, np.ndarray] = {}

# Fixed scan chunk height (first-member axis). Part of the determinism
# contract: must not depend on the worker count.
_CHUNK_ROWS = 32


def roots_of_unity(n: int) -> np.ndarray:
    """The n distinct n-th roots of unity as a read-only lookup table.

    One shared table per n, so equal phases always map to bit-identical
    complex values.
    """
    table = _ROOT_TABLES.get(n)
    if table is None:
        angles = 2.0 * np.pi * np.arange(n) / n
        table = np.cos(angles) + 1j * np.sin(angles)
        table.setflags(write=False)
        _ROOT_TABLES[n] = table
    return table


def rows_to_complex(mat: PhaseMatrix) -> np.ndarray:
    """Complex N x N matrix exp(2j*pi*phases/N), via the shared root table."""
    return roots_of_unity(mat.n)[mat.phases]


@dataclass
class CorrelationProfile:
    """Correlation values over every shift from -(N-1) to N-1."""

    shifts: np.ndarray
    values: np.ndarray

    @property
    def magnitudes(self) -> np.ndarray:
        return np.abs(self.values)

    def value_at(self, tau: int) -> complex:
        n = (len(self.shifts) + 1) // 2
        if not -n < tau < n:
            raise ShiftOutOfRangeError(f"shift {tau} outside [-(N-1), N-1] for N={n}")
        return complex(self.values[tau + n - 1])


@dataclass(frozen=True)
class SetCorrelationViolation:
    """One offending flock-summed correlation value."""

    m1: int
    m2: int
    tau: int
    value: complex
    deviation: float


@dataclass(frozen=True)
class CccReport:
    """Result of the exhaustive complete-complementarity scan of one family."""

    ok: bool
    n: int
    k: int | None
    tol: float
    max_deviation: float
    argmax: tuple[int, int, int]  # (m1, m2, tau)
    peak_deviation: float         # worst |value - N^2| over the (m, m, 0) peaks
    offpeak_max: float            # largest magnitude outside the peaks
    worst_violation: SetCorrelationViolation | None
    engine: str = "fft"           # "exact" or "fft"


@dataclass(frozen=True)
class IntersetReport:
    """Result of the cross-family scan between two distinct families."""

    ok: bool
    n: int
    k1: int
    k2: int
    tol: float
    max_magnitude: float
    argmax: tuple[int, int, int]  # (m1, m2, tau), tau signed
    dichotomy_ok: bool
    dichotomy_deviation: float    # worst distance to the nearer of {0, N}
    engine: str = "fft"           # "exact" or "fft"


@dataclass(frozen=True)
class CorrelationReport:
    """delta_max scan result over a family's whole correlation domain."""

    delta_max: float
    argmax: tuple[int, int, int]  # (u1, u2, tau)
    n: int
    set_size: int
    tol: float | None = None
    histogram: tuple[np.ndarray, np.ndarray] | None = None  # (counts, bin_edges)
    engine: str = "fft"           # "exact" or "fft"


def aperiodic_xcorr(u, v, tau: int) -> complex:
    """Overlap sum sum_t u[t] * conj(v[t + tau]), no wraparound.

    Negative tau slides the window the other way: sum_t u[t - tau] * conj(v[t]).
    This per-shift form is the ground truth the FFT path is held to.
    """
    u = np.asarray(u)
    v = np.asarray(v)
    if u.ndim != 1 or u.shape != v.shape:
        raise LengthMismatchError(
            f"sequences must be 1-d and equal length, got {u.shape} and {v.shape}"
        )
    n = u.shape[0]
    if not -n < tau < n:
        raise ShiftOutOfRangeError(f"shift {tau} outside [-(N-1), N-1] for N={n}")
    if tau >= 0:
        return complex(np.dot(u[: n - tau], np.conj(v[tau:])))
    return complex(np.dot(u[-tau:], np.conj(v[: n + tau])))


def _fft_length(n: int) -> int:
    """Smallest power of two >= 2n (room for all 2n-1 aperiodic shifts)."""
    length = 1
    while length < 2 * n:
        length *= 2
    return length


def xcorr_all_shifts_fft(u, v) -> CorrelationProfile:
    """All 2N-1 aperiodic correlation values at once via zero-padded FFT."""
    u = np.asarray(u)
    v = np.asarray(v)
    if u.ndim != 1 or u.shape != v.shape:
        raise LengthMismatchError(
            f"sequences must be 1-d and equal length, got {u.shape} and {v.shape}"
        )
    n = u.shape[0]
    length = _fft_length(n)
    w = np.fft.ifft(np.fft.fft(u, length) * np.conj(np.fft.fft(v, length)))
    shifts = np.arange(-(n - 1), n)
    return CorrelationProfile(shifts, w[(-shifts) % length])


def set_xcorr(a: PhaseMatrix, b: PhaseMatrix, tau: int) -> complex:
    """Flock-summed correlation: per-row overlap sums added over all N rows."""
    if a.n != b.n:
        raise LengthMismatchError(f"matrices over different moduli: {a.n} vs {b.n}")
    n = a.n
    if not -n < tau < n:
        raise ShiftOutOfRangeError(f"shift {tau} outside [-(N-1), N-1] for N={n}")
    ca = rows_to_complex(a)
    cb = rows_to_complex(b)
    if tau >= 0:
        return complex(np.sum(ca[:, : n - tau] * np.conj(cb[:, tau:])))
    return complex(np.sum(ca[:, -tau:] * np.conj(cb[:, : n + tau])))


def set_xcorr_profile(a: PhaseMatrix, b: PhaseMatrix) -> CorrelationProfile:
    """Flock-summed correlation at every shift, FFT route."""
    if a.n != b.n:
        raise LengthMismatchError(f"matrices over different moduli: {a.n} vs {b.n}")
    n = a.n
    length = _fft_length(n)
    fa = np.fft.fft(rows_to_complex(a), n=length, axis=1)
    fb = np.fft.fft(rows_to_complex(b), n=length, axis=1)
    w = np.fft.ifft(np.sum(fa * np.conj(fb), axis=0))
    shifts = np.arange(-(n - 1), n)
    return CorrelationProfile(shifts, w[(-shifts) % length])


def worker_count(workers: int | None) -> int:
    """FFT scan threads: explicit argument wins; else the QCSS_THREADS env
    var; else 1. A QCSS_THREADS that is not an integer raises QcssError."""
    if workers is None:
        env = os.environ.get("QCSS_THREADS", "").strip()
        try:
            workers = int(env) if env else 1
        except ValueError:
            raise QcssError(f"QCSS_THREADS must be an integer, got {env!r}") from None
    return max(1, int(workers))


def _map_chunks(fn, chunks: Sequence, workers: int) -> list:
    """Apply fn to every chunk, returning results in chunk order."""
    if workers <= 1 or len(chunks) <= 1:
        return [fn(c) for c in chunks]
    with ThreadPoolExecutor(max_workers=min(workers, len(chunks))) as pool:
        return list(pool.map(fn, chunks))


def _chunk_ranges(total: int) -> list[tuple[int, int]]:
    return [(lo, min(lo + _CHUNK_ROWS, total)) for lo in range(0, total, _CHUNK_ROWS)]


def _family_spectra(members: Sequence[PhaseMatrix], n: int, length: int) -> np.ndarray:
    """Row-wise FFTs of every member: complex array (K, N, length)."""
    roots = roots_of_unity(n)
    stack = roots[np.stack([mat.phases for mat in members])]
    return np.fft.fft(stack, n=length, axis=2)


def _pair_values(spectra_a: np.ndarray, conj_spectra_b: np.ndarray, tau_index: np.ndarray) -> np.ndarray:
    """Flock-summed correlation of every (a, b) member pair at the given shifts.

    spectra_a: (A, N, L); conj_spectra_b: (B, N, L); returns (A, B, len(tau_index)).
    The flock axis is contracted in the spectral domain, then one inverse
    FFT per pair recovers the correlation profile.
    """
    w = np.matmul(spectra_a.transpose(2, 0, 1), conj_spectra_b.transpose(2, 1, 0))
    w = np.fft.ifft(w, axis=0)
    return w[tau_index].transpose(1, 2, 0)


def _members_of(family) -> tuple[PhaseMatrix, ...]:
    members = tuple(family)
    if not members:
        raise LengthMismatchError("family has no members")
    n = members[0].n
    if any(mat.n != n for mat in members):
        raise LengthMismatchError("members span different moduli")
    return members


def verify_ccc(family, tol: float | None = None, workers: int | None = None) -> CccReport:
    """Exhaustively check that a family is completely complementary.

    Scans every ordered member pair (m1, m2) and every shift 0 <= tau <= N-1:
    the flock-summed correlation must be N^2 at (m1 = m2, tau = 0) and 0
    everywhere else, within tol (default 1e-6 * N^2). The report's argmax
    is the location of the largest deviation from the expected value.
    """
    members = _members_of(family)
    n = members[0].n
    kk = getattr(family, "k", None)
    if tol is None:
        tol = 1e-6 * n * n
    length = _fft_length(n)
    spectra = _family_spectra(members, n, length)
    conj_spectra = np.conj(spectra)
    tau_index = (-np.arange(n)) % length
    peak = float(n * n)

    def scan(rows: tuple[int, int]):
        lo, hi = rows
        vals = _pair_values(spectra[lo:hi], conj_spectra, tau_index)
        dev = np.abs(vals)
        local = np.arange(hi - lo)
        offpeak = dev.copy()
        offpeak[local, lo + local, 0] = 0.0
        dev[local, lo + local, 0] = np.abs(vals[local, lo + local, 0] - peak)
        flat = int(np.argmax(dev))
        i, m2, tau = np.unravel_index(flat, dev.shape)
        return (
            float(dev[i, m2, tau]),
            (lo + int(i), int(m2), int(tau)),
            complex(vals[i, m2, tau]),
            float(dev[local, lo + local, 0].max()),
            float(offpeak.max()),
        )

    results = _map_chunks(scan, _chunk_ranges(len(members)), worker_count(workers))
    max_dev = max(r[0] for r in results)
    peak_dev = max(r[3] for r in results)
    offpeak_max = max(r[4] for r in results)
    argmax, value = next((r[1], r[2]) for r in results if r[0] == max_dev)
    ok = max_dev <= tol
    worst = None if ok else SetCorrelationViolation(*argmax, value, max_dev)
    return CccReport(ok, n, kk, tol, max_dev, argmax, peak_dev, offpeak_max, worst)


def verify_interset(
    f1: SequenceFamily,
    f2: SequenceFamily,
    tol: float | None = None,
    workers: int | None = None,
) -> IntersetReport:
    """Scan the cross-correlations between two distinct families.

    Every member pair is evaluated at every shift in [-(N-1), N-1]. ok means
    no magnitude exceeds N + tol; dichotomy_ok means every magnitude is
    within tol of 0 or of N (default tol: 1e-6 * N).
    """
    if f1.kind != "ccc" or f2.kind != "ccc":
        raise FamilyMismatchError("inter-set checks need two single-index families")
    if f1.n != f2.n:
        raise FamilyMismatchError(f"families over different moduli: {f1.n} vs {f2.n}")
    if f1.k == f2.k:
        raise FamilyMismatchError(f"families must have distinct indices, both k={f1.k}")
    n = f1.n
    if tol is None:
        tol = 1e-6 * n
    length = _fft_length(n)
    shifts = np.arange(-(n - 1), n)
    tau_index = (-shifts) % length
    spectra_a = _family_spectra(f1.members, n, length)
    conj_spectra_b = np.conj(_family_spectra(f2.members, n, length))

    def scan(rows: tuple[int, int]):
        lo, hi = rows
        mags = np.abs(_pair_values(spectra_a[lo:hi], conj_spectra_b, tau_index))
        flat = int(np.argmax(mags))
        i, m2, ti = np.unravel_index(flat, mags.shape)
        dichotomy = float(np.minimum(mags, np.abs(mags - n)).max())
        return float(mags[i, m2, ti]), (lo + int(i), int(m2), int(shifts[ti])), dichotomy

    results = _map_chunks(scan, _chunk_ranges(len(f1.members)), worker_count(workers))
    max_mag = max(r[0] for r in results)
    argmax = next(r[1] for r in results if r[0] == max_mag)
    dichotomy_dev = max(r[2] for r in results)
    return IntersetReport(
        ok=max_mag <= n + tol,
        n=n,
        k1=f1.k,
        k2=f2.k,
        tol=tol,
        max_magnitude=max_mag,
        argmax=argmax,
        dichotomy_ok=dichotomy_dev <= tol,
        dichotomy_deviation=dichotomy_dev,
    )


def delta_max_scan(
    family,
    tol: float | None = None,
    workers: int | None = None,
    histogram_bins: int = 0,
) -> CorrelationReport:
    """Largest flock-summed correlation magnitude over a family.

    The domain is every ordered member pair (u1, u2) and every shift
    0 <= tau <= N-1, excluding only the trivial in-phase term (u1 = u2,
    tau = 0); negative shifts add nothing by conjugate symmetry. tol is
    recorded in the report for downstream pass/fail decisions; it does not
    affect the scan. With histogram_bins > 0 the report also carries a
    magnitude histogram over [0, N^2].
    """
    members = _members_of(family)
    n = members[0].n
    length = _fft_length(n)
    tau_index = (-np.arange(n)) % length
    spectra = _family_spectra(members, n, length)
    conj_spectra = np.conj(spectra)
    edges = np.linspace(0.0, float(n * n), histogram_bins + 1) if histogram_bins else None

    def scan(rows: tuple[int, int]):
        lo, hi = rows
        mags = np.abs(_pair_values(spectra[lo:hi], conj_spectra, tau_index))
        local = np.arange(hi - lo)
        mags[local, lo + local, 0] = -1.0  # exclude the trivial (u, u, 0) term
        flat = int(np.argmax(mags))
        i, u2, tau = np.unravel_index(flat, mags.shape)
        counts = None
        if edges is not None:
            counts, _ = np.histogram(mags[mags >= 0.0], bins=edges)
        return float(mags[i, u2, tau]), (lo + int(i), int(u2), int(tau)), counts

    results = _map_chunks(scan, _chunk_ranges(len(members)), worker_count(workers))
    delta_max = max(r[0] for r in results)
    argmax = next(r[1] for r in results if r[0] == delta_max)
    histogram = None
    if edges is not None:
        histogram = (np.sum([r[2] for r in results], axis=0), edges)
    return CorrelationReport(delta_max, argmax, n, len(members), tol, histogram)


# ---------------------------------------------------------------------------
# exact engine: families built from (N, pi)
#
# Member (k, m) has phases k*s*pi(t) + m*t. Summed over the flock index s,
# a term contributes N where k1*pi(t) = k2*pi(t + tau) (mod N) and 0
# elsewhere. k2 < p0 is a unit, so each t meets that condition at exactly
# one shift, tau = t' - t, with t' = pi^-1(c * pi(t)) and c = k1 * k2^-1:
#
#     R(k1, m1; k2, m2; tau) = N * sum_{t in S_tau} w^(m1*t - m2*t'),
#     S_tau = {t : t' - t = tau}.
#
# For k1 = k2, c = 1 and S_0 = Z_N: R is N^2 [m1 = m2] at tau = 0 (the
# full-period geometric sum) and 0 at every other shift. Between distinct
# families, |R| <= N * |S_tau| by the triangle inequality, with equality at
# m1 = m2 = 0, where every term is 1. So at each shift the largest
# magnitude over (m1, m2) is exactly N * |S_tau|, first reached at
# (0, 0), and the worst distance to {0, N} is N * (|S_tau| - 1) once
# |S_tau| >= 2. That case needs a permutation without the unique-solution
# property; it is counted, not assumed away, and the reports show it.


def _check_family_indices(perm: Permutation, *ks: int) -> int:
    n = perm.modulus
    p0 = factorize(n).least_prime
    for k in ks:
        if not 1 <= k < p0:
            raise BadFamilyIndexError(f"family index k={k} outside [1, {p0})")
    return n


def _shift_counts(n: int, partners: np.ndarray) -> np.ndarray:
    """|S_tau| for tau = -(N-1)..N-1, one row per row of partners: (R, 2N-1)."""
    rows = partners.reshape(-1, n)
    span = 2 * n - 1
    index = rows - np.arange(n) + (n - 1) + span * np.arange(len(rows))[:, None]
    return np.bincount(index.ravel(), minlength=span * len(rows)).reshape(len(rows), span)


def verify_ccc_exact(k: int, perm: Permutation, tol: float | None = None) -> CccReport:
    """Complete complementarity of family k of the construction, exactly.

    Within one family c = 1, so t' = t for every bijection pi: the value
    is N^2 [m1 = m2] at tau = 0 and 0 at every other shift. Every
    deviation from the ideal correlation is therefore exactly 0, and the
    first maximum is (0, 0, 0). Same report as
    verify_ccc(build_ccc(k, perm)), default tol 1e-6 * N^2.
    """
    n = _check_family_indices(perm, k)
    if tol is None:
        tol = 1e-6 * n * n
    ok = 0.0 <= tol
    worst = None if ok else SetCorrelationViolation(0, 0, 0, complex(n * n), 0.0)
    return CccReport(ok, n, k, tol, 0.0, (0, 0, 0), 0.0, 0.0, worst, engine="exact")


def verify_interset_exact(
    k1: int, k2: int, perm: Permutation, tol: float | None = None
) -> IntersetReport:
    """Cross-family scan between families k1 and k2 of the construction.

    Same domain and report as verify_interset(build_ccc(k1, perm),
    build_ccc(k2, perm)): every member pair at every shift in
    [-(N-1), N-1], default tol 1e-6 * N. The largest magnitude is
    N * max |S_tau| and the dichotomy deviation N * (max |S_tau| - 1), or
    0 when every |S_tau| <= 1; the argmax is the first maximum in
    (m1, m2, tau) order.
    """
    n = _check_family_indices(perm, k1, k2)
    if k1 == k2:
        raise FamilyMismatchError(f"families must have distinct indices, both k={k1}")
    if tol is None:
        tol = 1e-6 * n
    counts = _shift_counts(n, partner_map(perm, k1 * pow(k2, -1, n) % n))[0]
    first = int(np.argmax(counts))
    peak = int(counts[first])
    dichotomy = float(n * (peak - 1)) if peak >= 2 else 0.0
    return IntersetReport(
        ok=n * peak <= n + tol,
        n=n,
        k1=k1,
        k2=k2,
        tol=tol,
        max_magnitude=float(n * peak),
        argmax=(0, 0, first - (n - 1)),
        dichotomy_ok=dichotomy <= tol,
        dichotomy_deviation=dichotomy,
        engine="exact",
    )


def delta_max_exact(f: Factorization, perm: Permutation, tol: float | None = None) -> CorrelationReport:
    """delta_max of the pooled family build_qcss(f, perm), exactly.

    Same domain and report as delta_max_scan: ordered member pairs
    (u1, u2), u = (k-1)*N + m, over shifts 0 <= tau <= N-1, without the
    in-phase terms (u, u, 0). A same-family block is 0 there; a
    cross-family block peaks at N * max |S_tau|, first at m1 = m2 = 0.
    The argmax is the first maximum in (u1, u2, tau) order. No histogram.
    """
    if perm.modulus != f.n:
        raise ShapeMismatchError(
            f"permutation modulus {perm.modulus} does not match n = {f.n}"
        )
    n, families = f.n, f.least_prime - 1
    inverses = np.array([pow(k, -1, n) for k in range(1, families + 1)])
    # The same-family blocks' first in-domain value, 0 at (0, 0, 1).
    delta_max, argmax = 0.0, (0, 0, 1)
    # Blocks go in ascending (k1, k2) order, so the first strict
    # improvement is the first maximum.
    for i in range(families):
        others = [j for j in range(families) if j != i]
        partners = partner_map(perm, (i + 1) * inverses[others] % n)  # c = k1 / k2
        counts = _shift_counts(n, partners)[:, n - 1:]  # tau = 0..N-1
        for j, peak, tau in zip(others, counts.max(axis=1).tolist(), counts.argmax(axis=1).tolist()):
            if n * peak > delta_max:
                delta_max, argmax = float(n * peak), (i * n, j * n, tau)
    return CorrelationReport(delta_max, argmax, n, families * n, tol, engine="exact")
