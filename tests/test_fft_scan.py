"""The FFT scan core against exhaustive direct per-shift sums.

The families are seeded random phase matrices, not constructions, and
hold more members than one scan tile (32 rows) without being a multiple of
it, so full, partial and mirrored tiles all run. A family of K >= 64 is
split at h = 32 * floor(K / 64): its tiles of rows [0, h) are transformed
from their phases and scanned against the held spectra of rows [h, K).
"""

import functools
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from qcss import (
    PhaseMatrix,
    QcssError,
    SequenceFamily,
    build_ccc,
    build_qcss,
    delta_max_scan,
    factorize,
    pi_perm,
    set_xcorr,
    verify_ccc,
    verify_interset,
)
from qcss import correlation
from qcss.correlation import check_scan_memory
from test_correlation import corrupt_one_entry

# (N, K, seed, planted pair): a planted pair (y, x) makes member x member y
# delayed by one step with every phase raised by 1, so the ordered pair
# (y, x) at shift 1 reaches N * (N - 1), the largest magnitude in the
# N = 5 families. In the first, y = 35 sits in the second tile and x = 3 in
# the first, so that maximum is read off its mirror. The K = 97 family is
# split at h = 32: y = 80 is held and x = 5 in a streamed tile. The N = 3
# family has many exact ties.
FAMILIES = [(5, 40, 20261018, (35, 3)), (3, 33, 20261019, (1, 32)), (5, 97, 20261020, (80, 5))]


def random_phases(n, k, seed, plant=None):
    rng = np.random.default_rng(seed)
    phases = rng.integers(0, n, size=(k, n, n))
    if plant is not None:
        y, x = plant
        phases[x, :, 1:] = (phases[y, :, :-1] + 1) % n
    return phases


def random_members(n, k, seed, plant=None):
    phases = random_phases(n, k, seed, plant)
    return [PhaseMatrix(n, 1, m % n, phases[m]) for m in range(k)]


def interset_pair():
    n = 33
    return SequenceFamily(n, "ccc", random_phases(n, n, 7), k=1), SequenceFamily(n, "ccc", random_phases(n, n, 8), k=2)


def direct_values(rows, cols, taus):
    """set_xcorr at every (u1, u2, tau): complex (len(rows), len(cols), len(taus))."""
    return np.array([[[set_xcorr(a, b, tau) for tau in taus] for b in cols] for a in rows])


def check_first_max(argmax, scores, taus):
    """argmax is the first maximum of scores in (u1, u2, tau) order when that
    maximum leads the runner-up by more than 1e-6, and one of the tied
    positions otherwise. Returns whether the maximum was unique."""
    near = [tuple(int(x) for x in at) for at in np.argwhere(scores > scores.max() - 1e-6)]
    u1, u2, tau = argmax
    got = (u1, u2, list(taus).index(tau))
    if len(near) == 1:
        assert got == near[0]
    else:
        assert got in near
    return len(near) == 1


@pytest.fixture(scope="module", params=FAMILIES, ids=lambda p: f"N{p[0]}-K{p[1]}")
def family(request):
    n, k, seed, plant = request.param
    members = random_members(n, k, seed, plant)
    return n, members, direct_values(members, members, range(n))


def test_delta_max_scan_matches_direct_sums(family):
    n, members, values = family
    k = len(members)
    mags = np.abs(values)
    mags[np.arange(k), np.arange(k), 0] = -1.0  # the in-phase terms
    bins = 7
    report = delta_max_scan(members, histogram_bins=bins)
    assert report.delta_max == pytest.approx(mags.max(), abs=1e-9 * n)
    unique = check_first_max(report.argmax, mags, range(n))
    assert unique == (n == 5)
    counts, edges = report.histogram
    inside = mags[mags >= 0.0]
    assert np.abs(inside[:, None] - edges[1:-1]).min() > 1e-9  # no value on a bin edge
    assert np.array_equal(counts, np.histogram(inside, bins=edges)[0])
    assert counts.sum() == k * k * n - k


def test_verify_ccc_matches_direct_sums(family):
    n, members, values = family
    k = len(members)
    peak = float(n * n)
    dev = np.abs(values)
    diagonal = (np.arange(k), np.arange(k), 0)
    dev[diagonal] = np.abs(values[diagonal] - peak)
    report = verify_ccc(members)
    assert report.max_deviation == pytest.approx(dev.max(), abs=1e-9 * peak)
    assert report.peak_deviation == pytest.approx(dev[diagonal].max(), abs=1e-9 * peak)
    offpeak = dev.copy()
    offpeak[diagonal] = 0.0
    assert report.offpeak_max == pytest.approx(offpeak.max(), abs=1e-9 * n)
    check_first_max(report.argmax, dev, range(n))
    assert not report.ok


def test_mirrored_maximum_reports_its_own_pair():
    for n, k, seed, plant in [params for params in FAMILIES if params[0] == 5]:
        members = random_members(n, k, seed, plant)
        y, x = plant
        want = set_xcorr(members[y], members[x], 1)
        assert abs(want) == pytest.approx(n * (n - 1))
        assert want.imag != pytest.approx(0.0, abs=1e-3)  # conj would show
        report = verify_ccc(members)
        assert report.argmax == (y, x, 1)
        assert delta_max_scan(members).argmax == (y, x, 1)


def test_verify_interset_matches_direct_sums():
    f1, f2 = interset_pair()  # K = N = 33: one full tile and one partial
    n = f1.n
    taus = range(-(n - 1), n)
    mags = np.abs(direct_values(f1.members, f2.members, taus))
    report = verify_interset(f1, f2)
    assert report.max_magnitude == pytest.approx(mags.max(), abs=1e-9 * n)
    assert check_first_max(report.argmax, mags, taus)
    dichotomy = np.minimum(mags, np.abs(mags - n)).max()
    assert report.dichotomy_deviation == pytest.approx(dichotomy, abs=1e-9 * n)
    assert not report.ok and not report.dichotomy_ok


def test_corrupted_pool_maximum_is_a_direct_sum():
    n = 225
    f = factorize(n)
    family = corrupt_one_entry(build_qcss(f, pi_perm(f)), m=7, s=3, t=5)
    report = delta_max_scan(family)
    u1, u2, tau = report.argmax
    assert 7 in (u1, u2)
    assert report.delta_max > n + 1e-6 * n
    assert report.delta_max == pytest.approx(abs(set_xcorr(family[u1], family[u2], tau)), abs=1e-9 * n)


def test_reports_do_not_depend_on_worker_count(monkeypatch):
    # 3 workers cut a 32-row tile and the 40, 33, 97 or 65 held members unevenly.
    families = [random_members(n, k, seed, plant) for n, k, seed, plant in FAMILIES]
    f1, f2 = interset_pair()

    def reports():
        out = []
        for members in families:
            report = delta_max_scan(members, histogram_bins=7)
            out.append((report.delta_max, report.argmax, report.histogram[0].tolist()))
            out.append(verify_ccc(members))
        out.append(verify_interset(f1, f2))
        return repr(out)  # repr keeps every bit of every float

    by_workers = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the workers' Python code as often as possible
    try:
        for workers in (1, 2, 3):
            monkeypatch.setattr(correlation, "_workers", lambda: workers)
            by_workers[workers] = reports()
    finally:
        sys.setswitchinterval(interval)
    assert by_workers[1] == by_workers[2] == by_workers[3]


needs_openblas = pytest.mark.skipif(
    correlation._openblas() is None, reason="no OpenBLAS thread-count functions in the BLAS numpy loaded"
)


@pytest.fixture
def blas_threads():
    """Set OpenBLAS's thread count, and put the count back after the test."""
    get, set_ = correlation._openblas()
    before = get()
    yield get, set_
    set_(before)


@needs_openblas
def test_blas_pinned_to_one_thread_and_restored(blas_threads):
    get, set_ = blas_threads
    members = random_members(5, 40, 3)
    seen = []
    for threads in (1, 2):
        set_(threads)
        delta_max_scan(members, histogram_bins=3)
        delta_max_scan(members, histogram_bins=3)  # a second scan in the same process
        assert get() == threads
        correlation._scan(random_phases(5, 40, 3), tally=lambda mags: seen.append(get()))
        assert get() == threads
    assert set(seen) == {1}


@needs_openblas
def test_blas_threads_restored_when_tally_raises(blas_threads):
    get, set_ = blas_threads
    set_(2)

    def tally(mags):
        raise ValueError("tally")

    with pytest.raises(ValueError, match="tally"):
        correlation._scan(random_phases(5, 40, 3), tally=tally)
    assert get() == 2


@needs_openblas
def test_scans_run_one_at_a_time(blas_threads):
    # Scan b starts while scan a sits in its first tally, and a waits there
    # for b's tally for a second: b must wait for a to end instead.
    get, set_ = blas_threads
    set_(2)
    phases = random_phases(5, 40, 3)
    a_inside, b_inside, overlapped, errors = threading.Event(), threading.Event(), [], []

    def scan(tally):
        try:
            correlation._scan(phases, tally=tally)
        except BaseException as exc:
            errors.append(exc)

    def tally_a(mags):
        if not a_inside.is_set():
            a_inside.set()
            overlapped.append(b_inside.wait(timeout=1))

    def tally_b(mags):
        b_inside.set()

    a = threading.Thread(target=scan, args=(tally_a,))
    b = threading.Thread(target=scan, args=(tally_b,))
    a.start()
    assert a_inside.wait(timeout=30)
    b.start()
    for thread in (a, b):
        thread.join(timeout=60)
        assert not thread.is_alive()
    assert not errors
    assert overlapped == [False] and b_inside.is_set()
    assert get() == 2


@needs_openblas
def test_reports_do_not_depend_on_blas_threads(blas_threads):
    # OpenBLAS's threaded zgemm matches its one-thread results bit for bit
    # while the flock length N is at most 128, so every corrupted pool up to
    # N = 105 agrees without the pin. These seeded families at N = 129 and
    # 131 differed, in delta_max_scan, verify_ccc and verify_interset.
    _, set_ = blas_threads
    members = random_members(129, 33, 1)
    n = 131
    f1 = SequenceFamily(n, "ccc", random_phases(n, n, 11), k=1)
    f2 = SequenceFamily(n, "ccc", random_phases(n, n, 21), k=2)
    by_threads = {}
    for threads in (1, 2):
        set_(threads)
        report = delta_max_scan(members, histogram_bins=7)
        by_threads[threads] = repr(
            [report.delta_max, report.argmax, report.histogram[0].tolist(), verify_ccc(members), verify_interset(f1, f2)]
        )
    assert by_threads[1] == by_threads[2]


def test_split_slices_and_raises(monkeypatch):
    monkeypatch.setattr(correlation, "_workers", lambda: 3)
    assert correlation._split(7, lambda a, b: (a, b)) == [(0, 2), (2, 4), (4, 7)]
    assert correlation._split(2, lambda a, b: (a, b)) == [(0, 1), (1, 2)]  # no empty slice

    def last_fails(a, b):
        if b == 7:
            raise ValueError("last slice")
        return a

    with pytest.raises(ValueError, match="last slice"):
        correlation._split(7, last_fails)


def test_split_runs_slices_at_once(monkeypatch):
    # Each slice waits for the other: run one after the other, they time out.
    monkeypatch.setattr(correlation, "_workers", lambda: 2)
    barrier = threading.Barrier(2, timeout=5)
    caller = threading.current_thread()

    def meet(a, b):
        barrier.wait()
        return a, threading.current_thread() is caller

    assert correlation._split(4, meet) == [(0, True), (2, False)]


def test_split_raises_after_every_slice_ends(monkeypatch):
    # The calling thread's slice raises while the other slice still runs.
    monkeypatch.setattr(correlation, "_workers", lambda: 2)
    threads_before = threading.active_count()
    caller = threading.current_thread()
    started, finished = threading.Event(), threading.Event()

    def first_fails(a, b):
        if a == 0:
            assert threading.current_thread() is caller
            assert started.wait(5)
            raise ValueError("first slice")
        started.set()
        time.sleep(0.2)
        finished.set()

    with pytest.raises(ValueError, match="first slice"):
        correlation._split(4, first_fails)
    assert finished.is_set()
    assert threading.active_count() == threads_before


def test_split_starts_no_thread_with_one_worker(monkeypatch):
    monkeypatch.setattr(correlation, "_workers", lambda: 1)
    threads_before = threading.active_count()
    seen = []

    def record(a, b):
        seen.append((a, b, threading.current_thread(), threading.active_count()))
        return b

    assert correlation._split(5, record) == [5]
    assert seen == [(0, 5, threading.current_thread(), threads_before)]
    assert threading.active_count() == threads_before


def test_scan_memory_within_estimate(monkeypatch):
    # (scan, the check_scan_memory arguments of its domain, the bytes its
    # input arrays add to the traced peak). Neither the histogram tally nor
    # the inter-set tally may make temporaries the size of a whole part of
    # the tile: at N = 63 they lift the peak above the estimate.
    perm = pi_perm(factorize(63), 5)
    families = build_ccc(1, perm), build_ccc(2, perm)  # built before tracing: add their bytes
    cases = [(lambda: verify_interset(*families), (63, 63, 63), 2 * 63**3)]
    for n, k, bins in [(45, 60, 0), (63, 126, 7)]:
        members = random_members(n, k, 11)
        stack = k * n * n * 8  # the (K, N, N) phase array a member list is stacked into
        cases.append((functools.partial(delta_max_scan, members, histogram_bins=bins), (k, n), -stack))
    for scan, domain, inputs in cases:
        scan()  # first use: numpy.fft imports its modules

        def peak(workers):
            monkeypatch.setattr(correlation, "_workers", lambda: workers)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                scan()
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        one, two = peak(1), peak(2)
        assert two + inputs <= check_scan_memory(*domain), domain
        assert abs(two - one) <= 2**20


def test_memory_estimate(monkeypatch):
    # The N = 289 pool: K = 4624 members, L = 600, on 3 workers, split at
    # h = 2304. The uint16 phase array; the spectra of the 2320 members
    # above h, held; per worker a gathered member, a line buffer and
    # numpy's iteration buffers (8192 elements for each of two complex
    # operands); one tile's pair products with the held members and the
    # argmax mask; and the buffer that the row block, held or streamed, and
    # the magnitudes share. Two families of 289 hold the second one's.
    monkeypatch.setattr(correlation, "_workers", lambda: 3)
    worker = 3 * (289 * (289 + 600) + 2 * 8192) * 16
    need = 4624 * 289**2 * 2 + 600 * 2320 * 289 * 16 + worker + 600 * 32 * 2320 * 17
    need += max(600 * 32 * 289 * 16, 600 * 32 * 2320 * 8)
    pair = 578 * 289**2 * 2 + 600 * 289 * 289 * 16 + worker + 600 * 32 * 289 * 17 + 600 * 32 * 289 * 16
    monkeypatch.setattr(correlation, "_physical_memory", lambda: need)
    assert check_scan_memory(4624, 289) == need
    assert check_scan_memory(289, 289, 289) == pair
    monkeypatch.setattr(correlation, "_physical_memory", lambda: need - 1)
    with pytest.raises(QcssError, match=f"needs about {need} bytes"):
        check_scan_memory(4624, 289)


def test_split_matches_one_step(monkeypatch):
    # The same reports, bit for bit, whether a family against itself is
    # split or scanned in one step holding every member's spectra (h = 0):
    # every value is computed in the same tile row either way. K = 65 splits
    # at 32 with one member over, K = 97 at 32, K = 128 into halves at 64.
    # Between two families the rows are always streamed, and h plays no
    # part: verify_interset must come out the same under both.
    families = [random_members(n, k, seed, plant) for n, k, seed, plant in FAMILIES if k >= 64]
    families += [random_members(3, 65, 4), random_members(7, 128, 5)]
    f1, f2 = interset_pair()

    def reports():
        out = [verify_interset(f1, f2)]
        for members in families:
            out += [delta_max_scan(members, histogram_bins=7), verify_ccc(members)]
        return repr(out)  # repr keeps every bit of every float

    assert [correlation._half(len(members)) for members in families] == [32, 32, 64]
    split = reports()
    monkeypatch.setattr(correlation, "_half", lambda members: 0)
    assert reports() == split


def test_scanners_refuse_before_allocating(monkeypatch):
    monkeypatch.setattr(correlation, "_physical_memory", lambda: 4096)
    members = random_members(15, 15, 3)
    family = SequenceFamily(15, "ccc", random_phases(15, 15, 3), k=1)
    other = SequenceFamily(15, "ccc", random_phases(15, 15, 4), k=2)
    for scan in (lambda: delta_max_scan(members), lambda: verify_ccc(members), lambda: verify_interset(family, other)):
        with pytest.raises(QcssError, match="physical memory"):
            scan()


@pytest.mark.parametrize("n", [1, 2, 3, 13, 35, 121, 225, 289])
def test_fft_length_is_smallest_5_smooth(n):
    def smooth(x):
        for p in (2, 3, 5):
            while x % p == 0:
                x //= p
        return x == 1

    length = correlation._fft_length(n)
    assert length >= 2 * n - 1 and smooth(length)
    assert not any(smooth(x) for x in range(2 * n - 1, length))
