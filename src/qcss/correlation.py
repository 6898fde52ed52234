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

One FFT scan core (_scan) serves verify_ccc, verify_interset and
delta_max_scan. It reads a family's (K, N, N) phase array a tile at a
time into frequency-major (L, K, N) row spectra, L*K*N*16 bytes, and
raises a QcssError up front for a scan that would not fit in physical
memory.
Fixed tiles of 32 member rows bound the memory of one step and fix the
reduction order; the argmax is the first maximum in ascending (first
member, second member, shift) order. A family against itself computes
half the pairs and reads the rest off R(u2, u1, tau) = conj R(u1, u2, -tau).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .codebook import PhaseMatrix, SequenceFamily, _check_family_indices
from .errors import (
    FamilyMismatchError,
    LengthMismatchError,
    QcssError,
    ShapeMismatchError,
    ShiftOutOfRangeError,
)
from .modarith import Factorization, Permutation, partner_map

_ROOT_TABLES: dict[int, np.ndarray] = {}

# Fixed scan tile height (first-member axis). It bounds the memory of one
# tile and fixes the floating-point reduction order.
_TILE_ROWS = 32


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


def _sequence_pair(u, v) -> tuple[np.ndarray, np.ndarray]:
    u, v = np.asarray(u), np.asarray(v)
    if u.ndim != 1 or u.shape != v.shape:
        raise LengthMismatchError(f"sequences must be 1-d and equal length, got {u.shape} and {v.shape}")
    return u, v


def aperiodic_xcorr(u, v, tau: int) -> complex:
    """Overlap sum sum_t u[t] * conj(v[t + tau]), no wraparound.

    Negative tau slides the window the other way: sum_t u[t - tau] * conj(v[t]).
    This per-shift form is the ground truth the FFT path is held to.
    """
    u, v = _sequence_pair(u, v)
    n = u.shape[0]
    if not -n < tau < n:
        raise ShiftOutOfRangeError(f"shift {tau} outside [-(N-1), N-1] for N={n}")
    if tau >= 0:
        return complex(np.dot(u[: n - tau], np.conj(v[tau:])))
    return complex(np.dot(u[-tau:], np.conj(v[: n + tau])))


def _fft_length(n: int) -> int:
    """Smallest 5-smooth length >= 2n-1: room for all 2n-1 aperiodic shifts
    without wraparound, at a length the FFT splits into radix-2, -3 and -5
    passes (450 at n = 225 where the next power of two is 512)."""
    length = max(2 * n - 1, 1)
    while math.gcd(length, 30 ** length.bit_length()) != length:  # a prime factor above 5
        length += 1
    return length


def _fft_profile(a: np.ndarray, b: np.ndarray) -> CorrelationProfile:
    """Correlation of the rows of a against those of b at every shift,
    summed over the rows, via zero-padded FFT along the last axis."""
    n = a.shape[-1]
    length = _fft_length(n)
    products = np.fft.fft(a, length) * np.conj(np.fft.fft(b, length))
    w = np.fft.ifft(products.reshape(-1, length).sum(axis=0))
    shifts = np.arange(-(n - 1), n)
    return CorrelationProfile(shifts, w[(-shifts) % length])


def xcorr_all_shifts_fft(u, v) -> CorrelationProfile:
    """All 2N-1 aperiodic correlation values at once via zero-padded FFT."""
    return _fft_profile(*_sequence_pair(u, v))


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
    return _fft_profile(rows_to_complex(a), rows_to_complex(b))


def _physical_memory() -> int:
    """Bytes of physical memory on this host."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def check_scan_memory(members: int, n: int) -> int:
    """Bytes an FFT scan over K = members members of modulus n needs: the
    spectra, L*K*N*16, plus one tile of L*32*K pair products and their
    magnitudes, 24 bytes each. Raises QcssError, before anything is
    allocated, when that exceeds physical memory."""
    need = _fft_length(n) * members * (16 * n + 24 * _TILE_ROWS)
    if need > (have := _physical_memory()):
        raise QcssError(
            f"FFT scan of {members} members at N={n} needs about {need} bytes "
            f"({need / 2**30:.1f} GiB), more than the {have} bytes of physical memory"
        )
    return need


def _spectra(phases: np.ndarray, length: int) -> np.ndarray:
    """Row spectra of a (K, N, N) phase array, frequency-major: C-contiguous
    complex (L, K, N), spectra[f, u, s] = DFT of row s of member u at
    frequency f, built one tile of members at a time straight into place."""
    roots = roots_of_unity(phases.shape[-1])
    out = np.empty((length, *phases.shape[:2]), dtype=complex)
    for lo in range(0, len(phases), _TILE_ROWS):
        chunk = roots[phases[lo : lo + _TILE_ROWS]]
        np.fft.fft(chunk, n=length, axis=2, out=out[:, lo : lo + len(chunk)].transpose(1, 2, 0))
    return out


def _view(buffer: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """A C-contiguous array of the given shape over the front of a flat buffer."""
    return buffer[: math.prod(shape)].reshape(shape)


def _scan(rows: np.ndarray, cols: np.ndarray | None = None, tally=None):
    """The FFT scan core: the first maximum of |R| over a scan domain of
    (K, N, N) phase arrays.

    With cols None the domain is every ordered pair of rows (u1, u2) over
    shifts 0..N-1, less the in-phase terms (u, u, 0): only the tiles rows
    [lo, hi) x columns [lo, K) are computed, over all 2N-1 shifts, and the
    pairs (u2 >= hi, u1) are read off R(u2, u1, tau) = conj R(u1, u2, -tau).
    Otherwise it is every (row, column) pair over shifts -(N-1)..N-1.
    tally(mags) sees the magnitudes of every part of every tile (in-phase
    terms read -1). Returns the largest magnitude, its first (u1, u2, tau)
    and the value R there.
    """
    n, length, mirror = rows.shape[-1], _fft_length(rows.shape[-1]), cols is None
    check_scan_memory(len(rows) + (0 if mirror else len(cols)), n)
    spectra = _spectra(rows, length)
    other = spectra if mirror else _spectra(cols, length)
    # One set of tile buffers, reused: no page faults on every tile.
    w_buf = np.empty(length * _TILE_ROWS * other.shape[1], dtype=complex)
    mag_buf = np.empty(w_buf.size)
    neg = length - n + 1  # the first row of w that holds a negative shift
    best, where, value = -np.inf, None, None
    for lo in range(0, len(rows), _TILE_ROWS):
        hi = min(lo + _TILE_ROWS, len(rows))
        col0 = lo if mirror else 0
        shape = (length, hi - lo, other.shape[1] - col0)
        row_block = np.conj(spectra[:, lo:hi])
        w = np.matmul(row_block, other[:, col0:].transpose(0, 2, 1), out=_view(w_buf, shape))
        np.fft.ifft(w, axis=0, out=w)
        # w[j, i, c] = conj R(lo + i, col0 + c, tau) at j = tau mod L: the
        # row block is conjugated, so the shift sits at +tau, not -tau.
        mags = np.abs(w, out=_view(mag_buf, shape))
        # Parts of the domain: (rows of w, first column, shift of each row,
        # whether the pair is read off its mirror).
        if mirror:
            np.fill_diagonal(mags[0], -1.0)  # the in-phase terms (u, u, 0)
            parts = [(0, n, 0, np.arange(n), False), (0, 1, hi - lo, np.zeros(1, dtype=int), True)]
            parts.append((neg, length, hi - lo, np.arange(n - 1, 0, -1), True))
        else:
            parts = [(neg, length, 0, np.arange(1 - n, 0), False), (0, n, 0, np.arange(n), False)]
        views = [mags[j0:j1, :, c0:] for j0, j1, c0, _, _ in parts]
        for view in views if tally else ():
            tally(view)
        top = max(view.max() for view in views if view.size)
        if top < best:
            continue
        found = []
        for view, (j0, _, c0, taus, mirrored) in zip(views, parts):
            s, i, c = np.nonzero(view == top)
            u_row, u_col, at = lo + i, col0 + c0 + c, w[j0 + s, i, c0 + c]
            if mirrored:  # R(u_col, u_row, tau) = conj R(u_row, u_col, -tau)
                found.append((u_col, u_row, taus[s], at))
            else:
                found.append((u_row, u_col, taus[s], np.conj(at)))
        u1, u2, tau, values = (np.concatenate(x) for x in zip(*found))
        first = np.lexsort((tau, u2, u1))[0]
        here = (int(u1[first]), int(u2[first]), int(tau[first]))
        if top > best or here < where:
            best, where, value = float(top), here, complex(values[first])
    return best, where, value


def _phase_array(family) -> np.ndarray:
    """The (K, N, N) phase array of a SequenceFamily, or of a plain
    sequence of PhaseMatrix over one modulus."""
    if isinstance(family, SequenceFamily):
        return family.phases
    members = tuple(family)
    if not members or any(mat.n != members[0].n for mat in members):
        raise LengthMismatchError("a family needs members, all over one modulus")
    return np.stack([mat.phases for mat in members])


def verify_ccc(family, tol: float | None = None) -> CccReport:
    """Exhaustively check that a family (a SequenceFamily or a sequence of
    PhaseMatrix) is completely complementary.

    Scans every ordered member pair (m1, m2) and every shift 0 <= tau <= N-1:
    the flock-summed correlation must be N^2 at (m1 = m2, tau = 0) and 0
    everywhere else, within tol (default 1e-6 * N^2). The report's argmax
    is the location of the largest deviation from the expected value.
    """
    phases = _phase_array(family)
    n = phases.shape[-1]
    if tol is None:
        tol = 1e-6 * n * n
    offpeak_max, argmax, value = _scan(phases)
    offpeak_max = max(offpeak_max, 0.0)
    peaks = np.abs(np.array([set_xcorr(mat, mat, 0) for mat in family]) - n * n)  # direct sums
    m = int(np.argmax(peaks))
    peak_dev = float(peaks[m])
    if peak_dev > offpeak_max or (peak_dev == offpeak_max and (m, m, 0) < argmax):
        argmax, value = (m, m, 0), set_xcorr(family[m], family[m], 0)
    max_dev = max(peak_dev, offpeak_max)
    ok = max_dev <= tol
    worst = None if ok else SetCorrelationViolation(*argmax, value, max_dev)
    return CccReport(ok, n, getattr(family, "k", None), tol, max_dev, argmax, peak_dev, offpeak_max, worst)


def verify_interset(f1: SequenceFamily, f2: SequenceFamily, tol: float | None = None) -> IntersetReport:
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
    worst = [0.0]  # distance to the nearer of {0, N}, per part
    max_mag, argmax, _ = _scan(
        f1.phases, f2.phases, lambda mags: worst.append(np.minimum(mags, np.abs(mags - n)).max())
    )
    dichotomy = float(max(worst))
    ok = max_mag <= n + tol
    return IntersetReport(ok, n, f1.k, f2.k, tol, max_mag, argmax, dichotomy <= tol, dichotomy)


def delta_max_scan(family, tol: float | None = None, histogram_bins: int = 0) -> CorrelationReport:
    """Largest flock-summed correlation magnitude over a family.

    The domain is every ordered member pair (u1, u2) and every shift
    0 <= tau <= N-1, excluding only the trivial in-phase term (u1 = u2,
    tau = 0); negative shifts add nothing by conjugate symmetry. tol is
    recorded in the report for downstream pass/fail decisions; it does not
    affect the scan. With histogram_bins > 0 the report also carries a
    magnitude histogram over [0, N^2], counted over the ordered domain.
    """
    phases = _phase_array(family)
    n = phases.shape[-1]
    edges = np.linspace(0.0, float(n * n), histogram_bins + 1)
    counts = np.zeros(histogram_bins, dtype=np.int64)

    def tally(mags: np.ndarray) -> None:
        counts[:] += np.histogram(mags, bins=edges)[0]  # the -1 in-phase terms fall outside

    delta_max, argmax, _ = _scan(phases, tally=tally if histogram_bins else None)
    histogram = (counts, edges) if histogram_bins else None
    return CorrelationReport(delta_max, argmax, n, len(phases), tol, histogram)


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
    n = perm.modulus
    _check_family_indices(n, k)
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
    n = perm.modulus
    _check_family_indices(n, k1, k2)
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
