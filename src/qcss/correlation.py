"""Aperiodic correlation engines and exhaustive family verifiers.

Two routes exist everywhere: a direct per-shift overlap sum (the ground
truth) and a zero-padded FFT path used by the batched scanners. The FFT
path is checked against the direct one in the test suite; it never
replaces it.

Families built from a permutation pi also have an exact engine
(verify_ccc_exact, verify_interset_exact, verify_intersets_exact,
delta_max_exact): summing over the flock index turns every flock-summed
value into an integer identity, so it reads results off shift counts, one
per ratio class of family pairs, instead of scanning spectra. The
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

The numpy stages around the matrix product are split over
W = min(CPUs this process may run on, 32) workers: the calling thread and
W - 1 threads started for the stage, none when W = 1. The row spectra are
split by member, the conjugated row block by frequency, and the inverse
FFT, the magnitudes and each part's maximum by tile row. The product keeps
BLAS's own threads and runs with no worker beside it. tally, the argmax
search and the tile order stay on the calling thread, and every element is
computed the same way whatever the split, so the results do not depend on
W.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .codebook import PhaseMatrix, SequenceFamily, _check_family_indices
from .errors import (
    FamilyMismatchError,
    LengthMismatchError,
    QcssError,
    ShiftOutOfRangeError,
)
from .modarith import RATIO_CHUNK, Factorization, Permutation, _check_modulus, shift_extremes

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
    """Bytes an FFT scan over K = members members of modulus n allocates:
    the spectra, L*K*N*16; per worker, a gathered member and a line
    buffer, N*(N+L)*16, and numpy's iteration buffers for two complex
    operands; one tile's L*32*K pair products, 16 bytes each, and the
    argmax search's mask over them, 1 byte each; and one buffer that holds
    the conjugated row block and then the magnitudes,
    max(L*32*N*16, L*32*K*8). Raises QcssError, before anything is
    allocated, when that exceeds physical memory."""
    length = _fft_length(n)
    worker = (n * (n + length) + 2 * np.getbufsize()) * 16
    tile = max(length * _TILE_ROWS * n * 16, length * _TILE_ROWS * members * 8)
    need = length * members * n * 16 + _workers() * worker + length * _TILE_ROWS * members * 17 + tile
    if need > (have := _physical_memory()):
        raise QcssError(
            f"FFT scan of {members} members at N={n} needs about {need} bytes "
            f"({need / 2**30:.1f} GiB), more than the {have} bytes of physical memory"
        )
    return need


def _workers() -> int:
    """Workers for the numpy stages of a scan, the calling thread
    included: one per CPU this process may run on, at most one per tile
    row."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        cpus = os.cpu_count() or 1
    return min(cpus, _TILE_ROWS)


def _split(size: int, fn) -> list:
    """fn(a, b) over [0, size) cut into one near-equal slice [a, b) per
    worker, the results in slice order once every slice is done. This
    thread runs the first slice and one thread is started for each other
    slice, none with one worker; an exception in any slice is raised here."""
    workers = _workers()
    cuts = sorted({size * i // workers for i in range(workers + 1)})  # no empty slice
    results, errors = [None] * (len(cuts) - 1), []

    def run(i: int) -> None:
        try:
            results[i] = fn(cuts[i], cuts[i + 1])
        except BaseException as exc:  # raised again below, on this thread
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(1, len(results))]
    for thread in threads:
        thread.start()
    run(0)
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return results


def _spectra(phases: np.ndarray, length: int) -> np.ndarray:
    """Row spectra of a (K, N, N) phase array, frequency-major: C-contiguous
    complex (L, K, N), spectra[f, u, s] = DFT of row s of member u at
    frequency f. The members are split over the workers; each transforms
    one member at a time into a private (N, L) line buffer, which stays in
    cache while it is copied into place a row of N values at a time."""
    n = phases.shape[-1]
    roots = roots_of_unity(n)
    out = np.empty((length, *phases.shape[:2]), dtype=complex)

    def transform(a: int, b: int) -> None:
        lines = np.empty((n, length), dtype=complex)
        for u in range(a, b):
            np.fft.fft(roots[phases[u]], n=length, axis=1, out=lines)
            out[:, u] = lines.T

    _split(len(phases), transform)
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
    # One set of tile buffers, reused: no page faults on every tile. The
    # conjugated row block is dead once the product is formed, so the
    # magnitudes take its buffer.
    w_buf = np.empty(length * _TILE_ROWS * other.shape[1], dtype=complex)
    tile_buf = np.empty(max(2 * length * _TILE_ROWS * n, w_buf.size))
    neg = length - n + 1  # the first row of w that holds a negative shift
    best, where, value = -np.inf, None, None
    for lo in range(0, len(rows), _TILE_ROWS):
        hi = min(lo + _TILE_ROWS, len(rows))
        col0 = lo if mirror else 0
        shape = (length, hi - lo, other.shape[1] - col0)
        row_block = _view(tile_buf.view(complex), (length, hi - lo, n))
        _split(length, lambda a, b: np.conjugate(spectra[a:b, lo:hi], out=row_block[a:b]))
        w = np.matmul(row_block, other[:, col0:].transpose(0, 2, 1), out=_view(w_buf, shape))
        mags = _view(tile_buf, shape)
        # Parts of the domain: (rows of w, first column, shift of each row,
        # whether the pair is read off its mirror).
        if mirror:
            parts = [(0, n, 0, np.arange(n), False), (0, 1, hi - lo, np.zeros(1, dtype=int), True)]
            parts.append((neg, length, hi - lo, np.arange(n - 1, 0, -1), True))
        else:
            parts = [(neg, length, 0, np.arange(1 - n, 0), False), (0, n, 0, np.arange(n), False)]

        def reduce(a: int, b: int) -> list[float]:
            """Tile rows [a, b): inverse FFT, magnitudes, each part's maximum."""
            np.fft.ifft(w[:, a:b], axis=0, out=w[:, a:b])
            # w[j, i, c] = conj R(lo + i, col0 + c, tau) at j = tau mod L: the
            # row block is conjugated, so the shift sits at +tau, not -tau.
            np.abs(w[:, a:b], out=mags[:, a:b])
            if mirror:
                np.fill_diagonal(mags[0, a:b, a:], -1.0)  # the in-phase terms (u, u, 0)
            return [mags[j0:j1, a:b, c0:].max(initial=-np.inf) for j0, j1, c0, _, _ in parts]

        top = float(np.max(_split(hi - lo, reduce)))
        views = [mags[j0:j1, :, c0:] for j0, j1, c0, _, _ in parts]
        for view in views if tally else ():
            tally(view)
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
            best, where, value = top, here, complex(values[first])
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


# Family pairs per block of the exact engine's class matrix: bounds its
# memory at large prime N, where there are (N-1)^2 ordered pairs.
_PAIR_BLOCK = 2**20


def _pair_blocks(n: int, families: int):
    """The class c = k1 * k2^-1 mod N of every ordered family pair, in
    blocks of whole rows of about _PAIR_BLOCK pairs: (first row, block), with
    block[i, j] the class of (k1, k2) = (first row + i + 1, j + 1). The
    diagonal, k1 = k2, is the class 1."""
    ks = np.arange(1, families + 1, dtype=np.int64)
    inverses = np.array([pow(k, -1, n) for k in range(1, families + 1)], dtype=np.int64)
    step = max(1, _PAIR_BLOCK // families)
    for lo in range(0, families, step):
        yield lo, np.multiply.outer(ks[lo : lo + step], inverses) % n


def _pair_table(n: int, families: int, perm: Permutation) -> np.ndarray:
    """(N, 4) int64: row c holds shift_extremes of c for every class c of
    a pair of distinct families, and -1 in every other row (class 1
    included). Each class pair {c, c^-1} is counted once, in chunks of
    RATIO_CHUNK."""
    present = np.zeros(n, dtype=bool)
    for _, block in _pair_blocks(n, families):
        present[block] = True
    present[1] = False  # k1 = k2
    ratios = np.flatnonzero(present)
    inverses = np.array([pow(c, -1, n) for c in ratios.tolist()], dtype=np.int64)
    reps, at = np.unique(np.minimum(ratios, inverses), return_index=True)
    mates = np.maximum(ratios, inverses)[at]
    table = np.full((n, 4), -1, dtype=np.int64)
    for lo in range(0, len(reps), RATIO_CHUNK):
        direct, mirrored = shift_extremes(perm, reps[lo : lo + RATIO_CHUNK])
        table[mates[lo : lo + RATIO_CHUNK]] = mirrored
        table[reps[lo : lo + RATIO_CHUNK]] = direct
    return table


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


def _interset_fields(n: int, extremes, tol: float) -> tuple:
    """(ok, max_magnitude, argmax, dichotomy_ok, dichotomy_deviation) of
    the exact IntersetReport of a class, from its shift_extremes: the first
    maximum over tau <= 0 wins a tie."""
    pos_peak, pos_first, neg_peak, neg_first = extremes
    peak, first = (neg_peak, neg_first) if neg_peak >= pos_peak else (pos_peak, pos_first)
    dichotomy = float(n * (peak - 1)) if peak >= 2 else 0.0
    return n * peak <= n + tol, float(n * peak), (0, 0, first), dichotomy <= tol, dichotomy


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
    tol = 1e-6 * n if tol is None else tol
    extremes = shift_extremes(perm, [k1 * pow(k2, -1, n) % n])[0, 0].tolist()
    ok, magnitude, argmax, dichotomy_ok, dichotomy = _interset_fields(n, extremes, tol)
    return IntersetReport(ok, n, k1, k2, tol, magnitude, argmax, dichotomy_ok, dichotomy, engine="exact")


def verify_intersets_exact(
    f: Factorization, perm: Permutation, tol: float | None = None
) -> list[IntersetReport]:
    """verify_interset_exact for every pair of families k1 < k2, in
    ascending (k1, k2) order, read off one table of ratio classes."""
    _check_modulus(f, perm)
    n, families = f.n, f.least_prime - 1
    tol = 1e-6 * n if tol is None else tol
    table = _pair_table(n, families, perm)
    classes = np.flatnonzero(table[:, 0] >= 0)
    fields = dict(zip(classes.tolist(), (_interset_fields(n, row, tol) for row in table[classes].tolist())))
    reports = []
    for lo, block in _pair_blocks(n, families):
        rows, cols = np.nonzero(np.arange(families) > np.arange(lo, lo + len(block))[:, None])
        pairs = zip((rows + lo + 1).tolist(), (cols + 1).tolist(), map(fields.get, block[rows, cols].tolist()))
        reports += [
            IntersetReport(ok, n, k1, k2, tol, magnitude, argmax, dichotomy_ok, dichotomy, engine="exact")
            for k1, k2, (ok, magnitude, argmax, dichotomy_ok, dichotomy) in pairs
        ]
    return reports


def delta_max_exact(f: Factorization, perm: Permutation, tol: float | None = None) -> CorrelationReport:
    """delta_max of the pooled family build_qcss(f, perm), exactly.

    Same domain and report as delta_max_scan: ordered member pairs
    (u1, u2), u = (k-1)*N + m, over shifts 0 <= tau <= N-1, without the
    in-phase terms (u, u, 0). A same-family block is 0 there; a
    cross-family block peaks at N * max |S_tau| over tau >= 0, first at
    m1 = m2 = 0. The argmax is the first maximum in (u1, u2, tau) order:
    the first family pair whose class reaches the peak, at the first shift
    where it does. No histogram.
    """
    _check_modulus(f, perm)
    n, families = f.n, f.least_prime - 1
    table = _pair_table(n, families, perm)  # row 1 (k1 = k2) is -1
    # Every class peaks at >= 1: the t with perm(t) = 0 is its own partner.
    peak = int(table[:, 0].max())
    for lo, block in _pair_blocks(n, families):
        hits = np.flatnonzero(table[block, 0] == peak)
        if hits.size:
            i, j = divmod(int(hits[0]), families)
            argmax = ((lo + i) * n, j * n, int(table[block[i, j], 1]))
            break
    return CorrelationReport(float(n * peak), argmax, n, families * n, tol, engine="exact")
