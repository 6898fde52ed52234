import cmath

import numpy as np
import pytest

from qcss import (
    FamilyMismatchError,
    LengthMismatchError,
    OutOfRangeError,
    PhaseMatrix,
    SequenceFamily,
    ShiftOutOfRangeError,
    aperiodic_xcorr,
    build_ccc,
    build_qcss,
    build_set,
    delta_max_scan,
    factorize,
    pi_perm,
    roots_of_unity,
    rows_to_complex,
    set_xcorr,
    set_xcorr_profile,
    verify_ccc,
    verify_interset,
    xcorr_all_shifts_fft,
)
from qcss import correlation


def random_unit_pair(n, rng):
    return (
        np.exp(2j * np.pi * rng.random(n)),
        np.exp(2j * np.pi * rng.random(n)),
    )


def loop_xcorr(u, v, tau):
    """Plain-Python overlap sum, the test-local oracle."""
    n = len(u)
    total = 0.0 + 0.0j
    if tau >= 0:
        for t in range(n - tau):
            total += u[t] * v[t + tau].conjugate()
    else:
        for t in range(n + tau):
            total += u[t - tau] * v[t].conjugate()
    return total


class TestAperiodicXcorr:
    def test_all_ones(self):
        ones = np.ones(8, dtype=complex)
        assert aperiodic_xcorr(ones, ones, 0) == pytest.approx(8)
        assert aperiodic_xcorr(ones, ones, 7) == pytest.approx(1)
        assert aperiodic_xcorr(ones, ones, -7) == pytest.approx(1)

    def test_cube_root_sequence(self):
        w = cmath.exp(2j * cmath.pi / 3)
        seq = np.array([1, w, w**2])
        # Two-term overlap: 1*conj(w) + w*conj(w^2) = 2*w^2.
        assert aperiodic_xcorr(seq, seq, 1) == pytest.approx(2 * w**2)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            u, v = random_unit_pair(8, rng)
            for tau in range(-7, 8):
                assert aperiodic_xcorr(u, v, tau) == pytest.approx(loop_xcorr(u, v, tau))

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(11)
        u, v = random_unit_pair(16, rng)
        for tau in range(-15, 16):
            lhs = aperiodic_xcorr(u, v, -tau)
            rhs = aperiodic_xcorr(v, u, tau).conjugate()
            assert lhs == pytest.approx(rhs)

    def test_shift_out_of_range(self):
        ones = np.ones(5, dtype=complex)
        for tau in (5, -5, 99):
            with pytest.raises(ShiftOutOfRangeError):
                aperiodic_xcorr(ones, ones, tau)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            aperiodic_xcorr(np.ones(4), np.ones(5), 0)
        with pytest.raises(LengthMismatchError):
            aperiodic_xcorr(np.ones((2, 2)), np.ones((2, 2)), 0)


class TestFftProfile:
    def test_triangle(self):
        ones = np.ones(9, dtype=complex)
        profile = xcorr_all_shifts_fft(ones, ones)
        for tau, value in zip(profile.shifts, profile.values):
            assert value == pytest.approx(9 - abs(tau))

    def test_impulse_sifts(self):
        rng = np.random.default_rng(3)
        v = np.exp(2j * np.pi * rng.random(6))
        u = np.zeros(6, dtype=complex)
        u[0] = 1.0
        profile = xcorr_all_shifts_fft(u, v)
        for tau in range(6):
            assert profile.values[tau + 5] == pytest.approx(v[tau].conjugate())
        for tau in range(-5, 0):
            assert profile.values[tau + 5] == pytest.approx(0.0)

    def test_matches_per_shift_path(self):
        rng = np.random.default_rng(35)
        n = 35
        for _ in range(50):
            u, v = random_unit_pair(n, rng)
            profile = xcorr_all_shifts_fft(u, v)
            worst = max(
                abs(profile.values[tau + n - 1] - aperiodic_xcorr(u, v, tau))
                for tau in range(-(n - 1), n)
            )
            assert worst <= 1e-9 * n

    def test_profile_symmetry(self):
        rng = np.random.default_rng(17)
        u, v = random_unit_pair(12, rng)
        fwd = xcorr_all_shifts_fft(u, v)
        rev = xcorr_all_shifts_fft(v, u)
        for tau in range(-11, 12):
            assert fwd.values[11 - tau] == pytest.approx(rev.values[tau + 11].conjugate())


class TestRootTable:
    def test_shared_and_exact(self):
        t1 = roots_of_unity(35)
        t2 = roots_of_unity(35)
        assert t1 is t2
        assert t1[0] == 1.0 + 0.0j
        assert np.allclose(np.abs(t1), 1.0)

    def test_rows_to_complex(self, perm15):
        mat = build_set(1, 0, perm15)
        cmat = rows_to_complex(mat)
        assert cmat.shape == (15, 15)
        assert np.allclose(np.abs(cmat), 1.0)


class TestSetXcorr:
    def test_autocorrelation_peak(self, perm35):
        a = build_set(1, 0, perm35)
        assert set_xcorr(a, a, 0) == pytest.approx(35 * 35)

    def test_autocorrelation_sidelobe(self, perm35):
        a = build_set(1, 0, perm35)
        assert abs(set_xcorr(a, a, 7)) < 1e-9 * 35 * 35

    def test_cross_family_dichotomy(self, perm35):
        a = build_set(1, 0, perm35)
        b = build_set(2, 0, perm35)
        for tau in range(-34, 35):
            mag = abs(set_xcorr(a, b, tau))
            assert min(mag, abs(mag - 35)) < 1e-9 * 35

    def test_matches_row_sum(self, perm15):
        a = build_set(1, 2, perm15)
        b = build_set(2, 9, perm15)
        ca, cb = rows_to_complex(a), rows_to_complex(b)
        for tau in (-3, 0, 5):
            expected = sum(aperiodic_xcorr(ca[s], cb[s], tau) for s in range(15))
            assert set_xcorr(a, b, tau) == pytest.approx(expected)

    def test_profile_matches_per_shift(self, perm15):
        a = build_set(1, 2, perm15)
        b = build_set(2, 9, perm15)
        profile = set_xcorr_profile(a, b)
        for tau in range(-14, 15):
            assert profile.values[tau + 14] == pytest.approx(set_xcorr(a, b, tau), abs=1e-9)

    def test_modulus_mismatch(self, perm15, perm35):
        with pytest.raises(LengthMismatchError):
            set_xcorr(build_set(1, 0, perm15), build_set(1, 0, perm35), 0)
        with pytest.raises(LengthMismatchError):
            set_xcorr_profile(build_set(1, 0, perm15), build_set(1, 0, perm35))

    @pytest.mark.parametrize("tau", [-15, 15, 40])
    def test_shift_out_of_range(self, perm15, tau):
        a = build_set(1, 0, perm15)
        with pytest.raises(ShiftOutOfRangeError):
            set_xcorr(a, a, tau)


def corrupt_one_entry(family, m, s, t):
    """A copy of family with entry (s, t) of member m raised by 1 (mod N)."""
    phases = family.phases.copy()
    phases[m, s, t] = (phases[m, s, t] + 1) % family.n
    return SequenceFamily(family.n, family.kind, phases, k=family.k)


class TestVerifyCcc:
    @pytest.mark.parametrize("n,k", [(15, 1), (15, 2), (35, 1)])
    def test_construction_passes(self, n, k):
        f = factorize(n)
        report = verify_ccc(build_ccc(k, pi_perm(f)))
        assert report.ok
        assert report.peak_deviation <= report.tol
        assert report.offpeak_max <= report.tol

    def test_corruption_detected(self, perm15):
        family = corrupt_one_entry(build_ccc(1, perm15), m=3, s=5, t=7)
        report = verify_ccc(family)
        assert not report.ok
        assert report.max_deviation > report.tol

    def test_peak_wins_over_smaller_offpeak(self, perm15, monkeypatch):
        # No clean family has an off-peak maximum at or below its peak
        # deviation, so the scan is patched to report a zero one.
        monkeypatch.setattr(correlation, "_scan", lambda phases: (0.0, (0, 1, 1)))
        family = build_ccc(1, perm15)
        report = verify_ccc(family)
        peaks = [abs(set_xcorr(mat, mat, 0) - 225) for mat in family]
        m = int(np.argmax(peaks))
        assert peaks[m] > 0.0
        assert report.argmax == (m, m, 0)
        assert report.max_deviation == report.peak_deviation == peaks[m]
        assert report.offpeak_max == 0.0

    def test_peak_wins_a_tie_in_argmax_order(self, monkeypatch):
        # Constant phases make every peak exactly N^2, a deviation of 0.0,
        # which ties the patched off-peak maximum; (0, 0, 0) comes first.
        monkeypatch.setattr(correlation, "_scan", lambda phases: (0.0, (0, 1, 1)))
        members = [PhaseMatrix(5, 1, m, np.zeros((5, 5), dtype=np.int64)) for m in range(3)]
        report = verify_ccc(members)
        assert report.argmax == (0, 0, 0)
        assert (report.max_deviation, report.peak_deviation, report.ok) == (0.0, 0.0, True)


class TestVerifyInterset:
    @pytest.mark.parametrize("n", [15, 35])
    def test_bound_and_dichotomy(self, n):
        f = factorize(n)
        perm = pi_perm(f)
        report = verify_interset(build_ccc(1, perm), build_ccc(2, perm))
        assert report.ok
        assert report.dichotomy_ok
        assert report.max_magnitude == pytest.approx(n, abs=1e-6 * n)

    def test_same_index_rejected(self, perm15):
        fam = build_ccc(1, perm15)
        with pytest.raises(FamilyMismatchError):
            verify_interset(fam, fam)

    def test_modulus_mismatch_rejected(self, perm15, perm35):
        with pytest.raises(FamilyMismatchError):
            verify_interset(build_ccc(1, perm15), build_ccc(2, perm35))

    def test_pooled_family_rejected(self, perm15):
        f = factorize(15)
        pooled = build_qcss(f, perm15)
        with pytest.raises(FamilyMismatchError):
            verify_interset(pooled, pooled)


class TestDeltaMaxScan:
    def test_pool_reaches_modulus(self, perm15):
        f = factorize(15)
        report = delta_max_scan(build_qcss(f, perm15))
        assert report.delta_max == pytest.approx(15, abs=1e-6 * 15)
        assert report.set_size == 30

    def test_single_member_sidelobes_vanish(self, perm15):
        member = build_set(1, 0, perm15)
        report = delta_max_scan([member])
        assert report.delta_max < 1e-9 * 15 * 15

    def test_argmax_in_domain_and_consistent(self, perm15):
        f = factorize(15)
        family = build_qcss(f, perm15)
        report = delta_max_scan(family)
        u1, u2, tau = report.argmax
        assert 0 <= u1 < 30 and 0 <= u2 < 30 and 0 <= tau < 15
        assert not (u1 == u2 and tau == 0)
        naive = abs(set_xcorr(family[u1], family[u2], tau))
        assert naive == pytest.approx(report.delta_max, abs=1e-9)

    def test_histogram_covers_domain(self):
        f = factorize(9)
        family = build_qcss(f, pi_perm(f))
        k = len(family)
        report = delta_max_scan(family, histogram_bins=16)
        counts, edges = report.histogram
        assert counts.sum() == k * k * 9 - k  # ordered pairs, shifts, minus trivial terms
        assert edges[0] == 0.0 and edges[-1] == pytest.approx(81.0)

    @pytest.mark.parametrize("bins", [-1, 2.5, True])
    def test_histogram_bins_refused(self, bins, perm15, monkeypatch):
        monkeypatch.setattr(correlation, "_scan", None)  # refused before the scan
        with pytest.raises(OutOfRangeError, match="histogram_bins must be an integer >= 0"):
            delta_max_scan(build_ccc(1, perm15), histogram_bins=bins)

    @pytest.mark.parametrize("bins", [0, 4])
    def test_histogram_bins_accepted(self, bins, perm15):
        report = delta_max_scan(build_ccc(1, perm15), histogram_bins=bins)
        if bins == 0:
            assert report.histogram is None
        else:
            assert len(report.histogram[0]) == bins

    def test_empty_family_rejected(self):
        with pytest.raises(LengthMismatchError):
            delta_max_scan([])
