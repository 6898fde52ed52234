"""The FFT scan core against exhaustive direct per-shift sums.

The families are seeded random phase matrices, not constructions, and
hold more members than one scan tile (32 rows) without being a multiple of
it, so full, partial and mirrored tiles all run.
"""

import sys
import tracemalloc

import numpy as np
import pytest

from qcss import (
    PhaseMatrix,
    QcssError,
    SequenceFamily,
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
# N = 5 family. There y = 35 sits in the second tile and x = 3 in the first,
# so that maximum is read off its mirror. The N = 3 family has many exact
# ties.
FAMILIES = [(5, 40, 20261018, (35, 3)), (3, 33, 20261019, (1, 32))]


def random_phases(n, k, seed, plant=None):
    rng = np.random.default_rng(seed)
    phases = rng.integers(0, n, size=(k, n, n))
    if plant is not None:
        y, x = plant
        phases[x, :, 1:] = (phases[y, :, :-1] + 1) % n
    return phases


def random_members(n, k, seed, plant=None):
    phases = random_phases(n, k, seed, plant)
    return [PhaseMatrix(n, 1, m, phases[m]) for m in range(k)]


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
    m1, m2, tau = report.argmax
    worst = report.worst_violation
    assert (worst.m1, worst.m2, worst.tau) == report.argmax
    assert worst.deviation == report.max_deviation
    # The value of the ordered pair itself, not of its mirror.
    assert worst.value == pytest.approx(set_xcorr(members[m1], members[m2], tau), abs=1e-9 * peak)


def test_mirrored_maximum_reports_its_own_value():
    n, k, seed, plant = FAMILIES[0]
    members = random_members(n, k, seed, plant)
    y, x = plant
    want = set_xcorr(members[y], members[x], 1)
    assert abs(want) == pytest.approx(n * (n - 1))
    assert want.imag != pytest.approx(0.0, abs=1e-3)  # conj would show
    report = verify_ccc(members)
    assert report.argmax == (y, x, 1)
    assert report.worst_violation.value == pytest.approx(want, abs=1e-9 * n * n)
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
    # 3 workers cut a 32-row tile and the 40 or 33 members unevenly.
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


def test_scan_memory_within_estimate(monkeypatch):
    n, k = 45, 60
    members = random_members(n, k, 11)
    stack = k * n * n * 8  # the (K, N, N) phase array a member list is stacked into
    delta_max_scan(members)  # first use: numpy.fft imports its modules

    def peak(workers):
        monkeypatch.setattr(correlation, "_workers", lambda: workers)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            delta_max_scan(members)
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    one, two = peak(1), peak(2)
    assert two - stack <= check_scan_memory(k, n)
    assert abs(two - one) <= 2**20


def test_memory_estimate(monkeypatch):
    # The N = 289 pool: K = 4624 members, L = 600, on 3 workers. Spectra;
    # per worker a gathered member, a line buffer and numpy's iteration
    # buffers (8192 elements for each of two complex operands); one tile's
    # pair products and the argmax mask; and the buffer the conjugated row
    # block and the magnitudes share.
    monkeypatch.setattr(correlation, "_workers", lambda: 3)
    need = 600 * 4624 * 289 * 16 + 3 * (289 * (289 + 600) + 2 * 8192) * 16 + 600 * 32 * 4624 * 17
    need += max(600 * 32 * 289 * 16, 600 * 32 * 4624 * 8)
    monkeypatch.setattr(correlation, "_physical_memory", lambda: need)
    assert check_scan_memory(4624, 289) == need
    monkeypatch.setattr(correlation, "_physical_memory", lambda: need - 1)
    with pytest.raises(QcssError, match=f"needs about {need} bytes"):
        check_scan_memory(4624, 289)


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
