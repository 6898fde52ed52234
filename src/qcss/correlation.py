"""Aperiodic correlation engines and exhaustive family verifiers.

Two routes exist everywhere: a direct per-shift overlap sum (the ground
truth) and a zero-padded FFT path used by the batched scanners. The FFT
path is checked against the direct one in the test suite; it never
replaces it.

Families built from a permutation pi also have an exact engine
(verify_ccc_exact, verify_intersets_exact, delta_max_exact): summing
over the flock index turns every flock-summed value into an integer
identity, so it reads results off shift counts, one per ratio class of
family pairs, instead of scanning spectra. The FFT scanners serve
arbitrary phase matrices, and the tests hold the two engines equal on
constructed families. verify picks the engine for one scope.

One FFT scan core (_scan) serves verify_ccc, verify_interset and
delta_max_scan. It holds the frequency-major (L, C, N) row spectra of C
members, L*C*N*16 bytes: a second family, or the upper K - h members of a
family against itself, h = 32 * floor(K / 64), and then its lower h. Other
rows are streamed in tiles transformed from their phases. A scan that
would not fit in physical memory raises a QcssError up front.
Fixed tiles of 32 member rows bound the memory of one step and fix the
reduction order; the argmax is the first maximum in ascending (first
member, second member, shift) order. A family against itself computes
half the pairs and reads the rest off R(u2, u1, tau) = conj R(u1, u2, -tau).

A scan runs on W = min(CPUs this process may run on, 32) workers: the
calling thread and a concurrent.futures pool of W - 1 threads for each
stage, none when W = 1.
The row spectra are split by member; each tile's conjugated row block and
its product with the columns by frequency; and the inverse FFT, the
magnitudes and each part's maximum by tile row. These are the only threads
the scan runs. Scans run one at a time: a scan started on another thread
waits for the running one to end. While a scan runs, OpenBLAS (found in
the library numpy loaded) is held at one thread, and its thread count is
restored when the scan ends or raises. Any other thread that calls BLAS
during a scan gets one BLAS thread too. Where no OpenBLAS is found, the
same code runs without the pin. tally, the argmax search and the tile
order stay on the calling thread, and every element is computed the same
way whatever the split, so the results do not depend on W or on the BLAS
thread count.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import itertools
import math
import os
import threading
from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .codebook import PhaseMatrix, SequenceFamily, _check_family_indices, _phase_dtype, build_ccc, build_qcss
from .errors import (
    FamilyMismatchError,
    LengthMismatchError,
    OutOfRangeError,
    QcssError,
    ShiftOutOfRangeError,
)
from .modarith import Factorization, Permutation, _check_modulus, _is_index, pi_perm, shift_extremes

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
    """Complex N x N matrix exp(2j*pi*phases/N), via the shared root table.
    take, because fancy indexing with a compact unsigned index is about
    three times slower than with int64."""
    return roots_of_unity(mat.n).take(mat.phases)


@dataclass
class CorrelationProfile:
    """Correlation values over every shift from -(N-1) to N-1."""

    shifts: np.ndarray
    values: np.ndarray

    @property
    def magnitudes(self) -> np.ndarray:
        return np.abs(self.values)


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


def _overlap(u: np.ndarray, v: np.ndarray, tau: int) -> complex:
    """sum_t u[..., t] * conj(v[..., t + tau]) over every row, no wraparound;
    negative tau slides the window the other way."""
    n = u.shape[-1]
    if not -n < tau < n:
        raise ShiftOutOfRangeError(f"shift {tau} outside [-(N-1), N-1] for N={n}")
    if tau >= 0:
        return complex(np.sum(u[..., : n - tau] * np.conj(v[..., tau:])))
    return complex(np.sum(u[..., -tau:] * np.conj(v[..., : n + tau])))


def aperiodic_xcorr(u, v, tau: int) -> complex:
    """Overlap sum sum_t u[t] * conj(v[t + tau]), no wraparound; negative
    tau slides the window the other way. This per-shift form is the ground
    truth the FFT path is held to."""
    return _overlap(*_sequence_pair(u, v), tau)


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
    return _overlap(rows_to_complex(a), rows_to_complex(b), tau)


def set_xcorr_profile(a: PhaseMatrix, b: PhaseMatrix) -> CorrelationProfile:
    """Flock-summed correlation at every shift, FFT route."""
    if a.n != b.n:
        raise LengthMismatchError(f"matrices over different moduli: {a.n} vs {b.n}")
    return _fft_profile(rows_to_complex(a), rows_to_complex(b))


def _physical_memory() -> int:
    """Bytes of physical memory on this host."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _half(members: int) -> int:
    """Where a family scanned against itself is split: K/2 in whole tiles."""
    return members // (2 * _TILE_ROWS) * _TILE_ROWS


def check_scan_memory(members: int, n: int, columns: int | None = None) -> int:
    """Bytes an FFT scan of K = members rows of modulus n holds, against
    itself or a second family of columns members: the input phase arrays,
    (K + columns)*N*N bytes of their dtype; the held spectra of C = columns
    or K - _half(K) members, L*C*N*16; per worker, a gathered member and a
    line buffer, N*(N+L)*16, and numpy's iteration buffers for two complex
    operands; one tile's L*32*C pair products, 16 bytes each, and the argmax
    search's mask over them, 1 byte each; and one buffer for the row block,
    then the magnitudes, max(L*32*N*16, L*32*C*8). Raises QcssError, before
    the scan allocates anything, when that exceeds physical memory."""
    held = members - _half(members) if columns is None else columns
    members += columns or 0
    length = _fft_length(n)
    worker = (n * (n + length) + 2 * np.getbufsize()) * 16
    tile = max(length * _TILE_ROWS * n * 16, length * _TILE_ROWS * held * 8)
    need = members * n * n * _phase_dtype(n).itemsize + length * held * n * 16
    need += _workers() * worker + length * _TILE_ROWS * held * 17 + tile
    if need > (have := _physical_memory()):
        raise QcssError(
            f"FFT scan of {members} members at N={n} needs about {need} bytes "
            f"({need / 2**30:.1f} GiB), more than the {have} bytes of physical memory"
        )
    return need


def _workers() -> int:
    """Workers for every stage of a scan, the calling thread included: one
    per CPU this process may run on, at most one per tile row. The product
    is split by frequency over them, each slice a one-thread BLAS call, so
    BLAS is pinned to one thread for the scan and restored after it (another
    thread calling BLAS meanwhile gets one BLAS thread). Reports are
    bit-identical for every W and every BLAS thread count."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        cpus = os.cpu_count() or 1
    return min(cpus, _TILE_ROWS)


def _split(size: int, fn) -> list:
    """fn(a, b) over [0, size) cut into one near-equal slice [a, b) per
    worker, the results in slice order once every slice is done. This
    thread runs the first slice and a thread pool the others, starting no
    thread with one worker; an exception in any slice is raised here."""
    workers = _workers()
    cuts = sorted({size * i // workers for i in range(workers + 1)})  # no empty slice
    with ThreadPoolExecutor(max(1, len(cuts) - 2)) as pool:  # leaving it waits for every slice
        futures = [pool.submit(fn, a, b) for a, b in zip(cuts[1:], cuts[2:])]
        return [fn(cuts[0], cuts[1]), *(future.result() for future in futures)]


@functools.cache
def _openblas():
    """(get, set) of the thread count of the OpenBLAS library numpy loaded,
    found through /proc/self/maps, or None where there is none. Resolved
    once per process, on first use."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:  # a mapped file that is gone, or not a library
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


_scan_lock = threading.Lock()


@contextlib.contextmanager
def _one_scan_at_a_time():
    """Runs FFT scans one at a time, so that no two scans hold memory that
    check_scan_memory approved for one; each scan already uses every CPU.
    Inside the lock OpenBLAS is held at one thread, and its thread count is
    restored when the scan ends or raises."""
    with _scan_lock:
        get, set_ = _openblas() or (lambda: None, lambda threads: None)
        saved = get()
        set_(1)
        try:
            yield
        finally:
            set_(saved)


def _spectra(phases: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Row spectra of a (K, N, N) phase array into out, frequency-major:
    C-contiguous complex (L, K, N), out[f, u, s] = DFT of row s of member u
    at frequency f. The members are split over the workers; each transforms
    one member at a time in place in a private zero-padded (N, L) line buffer,
    which stays in cache while it is copied into place N values at a time."""
    n, length = phases.shape[-1], len(out)
    roots = roots_of_unity(n)

    def transform(a: int, b: int) -> None:
        lines = np.empty((n, length), dtype=complex)
        for u in range(a, b):
            lines[:, :n] = roots.take(phases[u])
            lines[:, n:] = 0.0
            np.fft.fft(lines, axis=1, out=lines)
            out[:, u] = lines.T

    _split(len(phases), transform)
    return out


def _view(buffer: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """A C-contiguous array of the given shape over the front of a flat buffer."""
    return buffer[: math.prod(shape)].reshape(shape)


@_one_scan_at_a_time()
def _scan(rows: np.ndarray, cols: np.ndarray | None = None, tally=None):
    """The FFT scan core: the first maximum of |R| over a scan domain of
    (K, N, N) phase arrays.

    With cols None the domain is every ordered pair of rows (u1, u2) over
    shifts 0..N-1, less the in-phase terms (u, u, 0): only the tiles rows
    [lo, hi) x columns [lo, K) are computed, over all 2N-1 shifts, and the
    pairs (u2 >= hi, u1) are read off R(u2, u1, tau) = conj R(u1, u2, -tau).
    The spectra of rows [h, K), h = _half(K), serve their own tiles and the
    streamed tiles of [0, h), then those of [0, h) the rest. Otherwise the
    domain is every (row, column) pair over shifts -(N-1)..N-1, cols held.
    tally(mags) sees the magnitudes of every part of every tile (in-phase
    terms read -1). Returns the largest magnitude and its first (u1, u2, tau).
    """
    n, length, mirror = rows.shape[-1], _fft_length(rows.shape[-1]), cols is None
    split = _half(len(rows)) if mirror else 0
    held = rows[split:] if mirror else cols
    check_scan_memory(len(rows), n, None if mirror else len(cols))
    # One set of buffers, reused: no page faults on every tile. A streamed
    # tile's spectra go straight into the row block, conjugated there. The
    # row block is dead once the product is formed: the magnitudes take it.
    spectra_buf = np.empty(length * len(held) * n, dtype=complex)
    w_buf = np.empty(length * _TILE_ROWS * len(held), dtype=complex)
    tile_buf = np.empty(max(2 * length * _TILE_ROWS * n, w_buf.size))

    def tiles():  # (lo, hi, held spectra, their first member) of each tile, in scan order
        spectra = _spectra(held, _view(spectra_buf, (length, len(held), n)))
        steps = [(split, len(rows), split), (0, split, split), (0, split, 0)] if mirror else [(0, len(rows), 0)]
        for r0, r1, base in steps:
            if base < split:  # every tile against [h, K) is done
                spectra = _spectra(rows[:split], _view(spectra_buf, (length, split, n)))
            for lo in range(r0, r1, _TILE_ROWS):
                yield lo, min(lo + _TILE_ROWS, r1), spectra, base

    neg = length - n + 1  # the first row of w that holds a negative shift
    best, where = -np.inf, None
    for lo, hi, spectra, base in tiles():
        triangle = mirror and lo >= base  # the rows are held: columns from lo on
        col0 = lo if triangle else base
        shape = (length, hi - lo, base + spectra.shape[1] - col0)
        row_block = _view(tile_buf.view(complex), (length, hi - lo, n))
        w = _view(w_buf, shape)
        source = spectra[:, lo - base : hi - base] if triangle else _spectra(rows[lo:hi], row_block)

        def product(a: int, b: int) -> None:
            """Frequencies [a, b): the conjugated row block times the columns."""
            np.conjugate(source[a:b], out=row_block[a:b])
            np.matmul(row_block[a:b], spectra[a:b, col0 - base :].transpose(0, 2, 1), out=w[a:b])

        _split(length, product)
        mags = _view(tile_buf, shape)
        # Parts of the domain: (rows of w, first column, shift of each row,
        # whether the pair is read off its mirror).
        if mirror:
            c0 = max(hi - col0, 0)  # the first column past the tile's rows
            parts = [(0, n, 0, np.arange(n), False), (0, 1, c0, np.zeros(1, dtype=int), True)]
            parts.append((neg, length, c0, np.arange(n - 1, 0, -1), True))
        else:
            parts = [(neg, length, 0, np.arange(1 - n, 0), False), (0, n, 0, np.arange(n), False)]

        def reduce(a: int, b: int) -> list[float]:
            """Tile rows [a, b): inverse FFT, magnitudes, each part's maximum."""
            np.fft.ifft(w[:, a:b], axis=0, out=w[:, a:b])
            # w[j, i, c] = conj R(lo + i, col0 + c, tau) at j = tau mod L: the
            # row block is conjugated, so the shift sits at +tau, not -tau.
            np.abs(w[:, a:b], out=mags[:, a:b])
            if triangle:
                np.fill_diagonal(mags[0, a:b, a:], -1.0)  # the in-phase terms (u, u, 0)
            return [mags[j0:j1, a:b, c0:].max(initial=-np.inf) for j0, j1, c0, _, _ in parts]

        top = float(np.max(_split(hi - lo, reduce)))
        views = [mags[j0:j1, :, c0:] for j0, j1, c0, _, _ in parts]
        for view in views if tally else ():
            tally(view)
        if top < best:
            continue
        found = []
        for view, (_, _, c0, taus, mirrored) in zip(views, parts):
            s, i, c = np.nonzero(view == top)
            u_row, u_col = lo + i, col0 + c0 + c
            if mirrored:  # R(u_col, u_row, tau) = conj R(u_row, u_col, -tau)
                found.append((u_col, u_row, taus[s]))
            else:
                found.append((u_row, u_col, taus[s]))
        u1, u2, tau = (np.concatenate(x) for x in zip(*found))
        first = np.lexsort((tau, u2, u1))[0]
        here = (int(u1[first]), int(u2[first]), int(tau[first]))
        if top > best or here < where:
            best, where = top, here
    return best, where


def _slabs(mags: np.ndarray) -> Iterator[np.ndarray]:
    """A part of a tile in 16 slabs of shifts, for a tally that makes
    temporaries. Taken whole, a part's temporaries would lie beyond
    check_scan_memory; a slab's, at 8 bytes a value, fit in the argmax
    mask's bytes, which are free while a tally runs."""
    step = -(-len(mags) // 16)
    return (mags[j : j + step] for j in range(0, len(mags), step))


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
    offpeak_max, argmax = _scan(phases)
    offpeak_max = max(offpeak_max, 0.0)
    peaks = np.abs(np.array([set_xcorr(mat, mat, 0) for mat in family]) - n * n)  # direct sums
    m = int(np.argmax(peaks))
    peak_dev = float(peaks[m])
    if peak_dev > offpeak_max or (peak_dev == offpeak_max and (m, m, 0) < argmax):
        argmax = (m, m, 0)
    max_dev = max(peak_dev, offpeak_max)
    ok = max_dev <= tol
    return CccReport(ok, n, getattr(family, "k", None), tol, max_dev, argmax, peak_dev, offpeak_max)


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
    worst = [0.0]  # distance to the nearer of {0, N}, per slab

    def tally(mags: np.ndarray) -> None:
        for slab in _slabs(mags):
            gap = slab - n  # the slab's one temporary
            worst.append(np.minimum(np.abs(gap, out=gap), slab, out=gap).max())

    max_mag, argmax = _scan(f1.phases, f2.phases, tally)
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
    if not _is_index(histogram_bins) or histogram_bins < 0:
        raise OutOfRangeError(f"histogram_bins must be an integer >= 0, got {histogram_bins!r}")
    phases = _phase_array(family)
    n = phases.shape[-1]
    edges = np.linspace(0.0, float(n * n), histogram_bins + 1)
    counts = np.zeros(histogram_bins, dtype=np.int64)

    def tally(mags: np.ndarray) -> None:
        for slab in _slabs(mags):  # np.histogram copies a view that is not contiguous
            counts[:] += np.histogram(slab, bins=edges)[0]  # the -1 in-phase terms fall outside

    delta_max, argmax = _scan(phases, tally=tally if histogram_bins else None)
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
    included). Each class pair {c, c^-1} is counted once."""
    present = np.zeros(n, dtype=bool)
    for _, block in _pair_blocks(n, families):
        present[block] = True
    present[1] = False  # k1 = k2
    ratios = np.flatnonzero(present)
    inverses = np.array([pow(c, -1, n) for c in ratios.tolist()], dtype=np.int64)
    reps, at = np.unique(np.minimum(ratios, inverses), return_index=True)
    mates = np.maximum(ratios, inverses)[at]
    table = np.full((n, 4), -1, dtype=np.int64)
    direct, mirrored = shift_extremes(perm, reps)
    table[mates] = mirrored
    table[reps] = direct
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
    return CccReport(ok, n, k, tol, 0.0, (0, 0, 0), 0.0, 0.0, engine="exact")


def _interset_fields(n: int, extremes, tol: float) -> tuple:
    """(ok, max_magnitude, argmax, dichotomy_ok, dichotomy_deviation) of
    the exact IntersetReport of a class, from its shift_extremes: the first
    maximum over tau <= 0 wins a tie."""
    pos_peak, pos_first, neg_peak, neg_first = extremes
    peak, first = (neg_peak, neg_first) if neg_peak >= pos_peak else (pos_peak, pos_first)
    dichotomy = float(n * (peak - 1)) if peak >= 2 else 0.0
    return n * peak <= n + tol, float(n * peak), (0, 0, first), dichotomy <= tol, dichotomy


def verify_intersets_exact(
    f: Factorization, perm: Permutation, tol: float | None = None
) -> list[IntersetReport]:
    """Cross-family scans of every pair of families k1 < k2 of the
    construction, in ascending (k1, k2) order, read off one table of ratio
    classes.

    Each report is that of verify_interset(build_ccc(k1, perm),
    build_ccc(k2, perm)): every member pair at every shift in
    [-(N-1), N-1], default tol 1e-6 * N. The largest magnitude is
    N * max |S_tau| and the dichotomy deviation N * (max |S_tau| - 1), or
    0 when every |S_tau| <= 1; the argmax is the first maximum in
    (m1, m2, tau) order.
    """
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


def _corrupt_member(family: SequenceFamily, k: int, m: int, s: int, t: int) -> SequenceFamily:
    """Test hook: add 1 (mod N) to entry (s, t) of member (k, m), in a copy
    of the family's array; a family without that member comes back as is.
    N is odd and its dtype's maximum is 2**b - 1, so x + 1 <= N fits."""
    for u, mat in enumerate(family):
        if (mat.k, mat.m) == (k, m):
            phases = family.phases.copy()
            phases[u, s, t] = (phases[u, s, t] + 1) % family.n
            phases.setflags(write=False)  # handed over without a second copy
            return SequenceFamily(family.n, family.kind, phases, k=family.k)
    return family


def verify(scope: str, f: Factorization, e: int, *, tol: float | None = None, corrupt=None) -> list:
    """Reports of scope "ccc", "interset" or "qcss" (qcss tol 1e-6 * N by
    default) in print order: the exact engine's on the construction from (N, e),
    or, once corrupt = (k, m, s, t) adds 1 (mod N) to entry (s, t) of member
    (k, m), the FFT engine's after a memory check that precedes every table.
    Any other scope, a tol not finite and >= 0, or a corrupt that names no
    entry (integers 1 <= k < p0, 0 <= m, s, t < N) raises QcssError."""
    if scope not in ("ccc", "interset", "qcss"):
        raise QcssError(f"unknown verify scope {scope!r}: expected ccc, interset or qcss")
    if tol is not None and not 0 <= tol < float("inf"):
        raise QcssError(f"tol must be finite and >= 0, got {tol}")
    n, p0 = f.n, f.least_prime
    if corrupt is not None and not (
        len(corrupt) == 4 and all(map(_is_index, corrupt))
        and 1 <= corrupt[0] < p0 and all(0 <= x < n for x in corrupt[1:])
    ):
        raise OutOfRangeError(f"corrupt={corrupt!r} out of range: need 1 <= k < {p0} and 0 <= m, s, t < {n}")
    tol = 1e-6 * n if scope == "qcss" and tol is None else tol
    if corrupt:
        check_scan_memory((p0 - 1) * n if scope == "qcss" else n, n, n if scope == "interset" else None)
    perm = pi_perm(f, e)
    if not corrupt:
        if scope == "ccc":
            return [verify_ccc_exact(k, perm, tol=tol) for k in range(1, p0)]
        if scope == "interset":
            return verify_intersets_exact(f, perm, tol=tol)
        return [delta_max_exact(f, perm, tol=tol)]
    if scope == "qcss":
        return [delta_max_scan(_corrupt_member(build_qcss(f, perm), *corrupt), tol=tol)]

    def family(k: int) -> SequenceFamily:
        return _corrupt_member(build_ccc(k, perm), *corrupt)

    if scope == "ccc":
        return [verify_ccc(family(k), tol=tol) for k in range(1, p0)]
    pairs = itertools.combinations(range(1, p0), 2)
    return [verify_interset(family(a), family(b), tol=tol) for a, b in pairs]
