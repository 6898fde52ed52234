import math
from decimal import Context, Decimal, localcontext

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcss import (
    DegenerateParamsError,
    PreconditionViolatedError,
    QcssParams,
    build_qcss,
    delta_max_scan,
    factorize,
    format_rho,
    liu_bound,
    optimality_factor,
    pi_perm,
    table_rows,
    theoretical_params,
    welch_bound,
)

# Frozen 4-decimal optimality factors for the built-in sweeps.
OPTIMAL_SWEEP_EXPECTED = [
    ("Z_5*7", 140, 35, "1.5382"),
    ("Z_7*11", 462, 77, "1.3754"),
    ("Z_11*13", 1430, 143, "1.2551"),
    ("Z_13*17", 2652, 221, "1.2247"),
    ("Z_17*19", 5168, 323, "1.1857"),
    ("Z_19*23", 7866, 437, "1.1722"),
    ("Z_23*31", 15686, 713, "1.1518"),
    ("Z_31*37", 34410, 1147, "1.1257"),
    ("Z_37*41", 54612, 1517, "1.1128"),
    ("Z_41*43", 70520, 1763, "1.1061"),
    ("Z_43*47", 84882, 2021, "1.1031"),
    ("Z_53*59", 162604, 3127, "1.0912"),
    ("Z_61*67", 245220, 4087, "1.0841"),
    ("Z_67*71", 313962, 4757, "1.0797"),
    ("Z_71*73", 362810, 5183, "1.0771"),
    ("Z_73*79", 415224, 5767, "1.0759"),
    ("Z_79*83", 511446, 6557, "1.0726"),
    ("Z_83*89", 605734, 7387, "1.0706"),
    ("Z_89*97", 759704, 8633, "1.0679"),
]

NEAR_OPTIMAL_SWEEP_EXPECTED = [
    ("Z_3*5", 30, 15, "1.9653"),
    ("Z_3*7", 42, 21, "1.9755"),
    ("Z_3*11", 66, 33, "1.9846"),
    ("Z_3*5*7", 210, 105, "1.9952"),
    ("Z_3*5*11", 330, 165, "1.9970"),
    ("Z_3*5*7*11", 2310, 1155, "1.9996"),
    ("Z_3*5*7*11*13", 30030, 15015, "2.0000"),
    ("Z_3*5*7*11*13*17", 510510, 255255, "2.0000"),
]

PRIME_SQUARE_SWEEP_EXPECTED = [
    ("Z_11*11", 1210, 121, "1.2551"),
    ("Z_13*13", 2028, 169, "1.2247"),
    ("Z_17*17", 4624, 289, "1.1857"),
    ("Z_19*19", 6498, 361, "1.1722"),
    ("Z_23*23", 11638, 529, "1.1518"),
    ("Z_29*29", 23548, 841, "1.1310"),
    ("Z_31*31", 28830, 961, "1.1257"),
    ("Z_37*37", 49284, 1369, "1.1128"),
    ("Z_41*41", 67240, 1681, "1.1061"),
    ("Z_43*43", 77658, 1849, "1.1031"),
    ("Z_47*47", 101614, 2209, "1.0978"),
]


def reference_welch(K, M, N):
    """The float of the Welch bound, its square evaluated to 60 digits."""
    with localcontext(Context(prec=60)):
        return float((Decimal(M) * N**2 * (K - M) / (K * (2 * N - 1) - 1)).sqrt())


def reference_liu(K, M, N):
    """The float of the Liu bound, its square evaluated to 60 digits."""
    with localcontext(Context(prec=60)):
        return float((Decimal(M) * N * (1 - 2 * (Decimal(M) / (3 * K)).sqrt())).sqrt())


@st.composite
def welch_params(draw):
    """(K, M, N) up to 10^40 with K >= M; half the time K - M is at most 10."""
    K = draw(st.integers(2, 10**40))
    gap = draw(st.one_of(st.integers(0, 10), st.integers(0, K - 1)))
    return K, K - min(gap, K - 1), draw(st.integers(1, 10**40))


class TestWelchBound:
    def test_direct_evaluation(self):
        assert welch_bound(30, 15, 15) == pytest.approx(225 / math.sqrt(869))
        assert welch_bound(42, 21, 21) == pytest.approx(441 / math.sqrt(1721))

    def test_equal_sizes_vanish(self):
        assert welch_bound(15, 15, 7) == 0.0

    def test_close_sizes_do_not_cancel(self):
        # K/M - 1 is 1e-20, below a float's resolution at 1.
        assert welch_bound(10**20 + 1, 10**20, 5) == 1.6666666666666667

    @settings(max_examples=200, deadline=None)
    @given(welch_params())
    def test_single_rounding(self, params):
        K, M, N = params
        welch = welch_bound(K, M, N)
        assert welch == reference_welch(K, M, N)
        assert welch > 0 or K == M

    def test_degenerate(self):
        with pytest.raises(DegenerateParamsError, match="K < M"):
            welch_bound(10, 20, 5)
        with pytest.raises(DegenerateParamsError):
            welch_bound(0, 1, 1)

    def test_intermediates_beyond_floats(self):
        # K(2N - 1) - 1 is about 2e600, the bound sqrt(1/2) * 1e155.
        assert welch_bound(10**300, 10**10, 10**300) == pytest.approx(math.sqrt(0.5) * 1e155, rel=1e-12)
        with pytest.raises(DegenerateParamsError, match="overflows"):
            welch_bound(10**311, 10**310, 10**310)  # about 6.7e309


class TestLiuBound:
    def test_direct_evaluation(self):
        assert liu_bound(140, 35, 35) == pytest.approx(35 * math.sqrt(1 - 1 / math.sqrt(3)))

    def test_intermediates_beyond_floats(self):
        # M * N is 1e310; the bound is 1e155 to 145 digits.
        assert liu_bound(10**300, 10**10, 10**300) == pytest.approx(1e155, rel=1e-12)

    def test_boundary_equality(self):
        # K = 3M with M = N gives sqrt(M*N/3) exactly.
        assert liu_bound(21, 7, 7) == pytest.approx(7 / math.sqrt(3))

    def test_precondition_reporting(self):
        with pytest.raises(PreconditionViolatedError, match="K >= 3M"):
            liu_bound(30, 15, 15)
        with pytest.raises(PreconditionViolatedError, match="M >= 2"):
            liu_bound(10, 1, 5)
        with pytest.raises(PreconditionViolatedError, match="N >= 2"):
            liu_bound(10, 2, 1)

    def test_never_below_welch_on_optimal_sweep(self):
        for _, K, N, _rho in OPTIMAL_SWEEP_EXPECTED:
            assert liu_bound(K, N, N) >= welch_bound(K, N, N)


class TestOptimalityFactor:
    def test_tight_bound_selected(self):
        report = optimality_factor(QcssParams(140, 35, 35, 35))
        assert report.bound_used == "liu"
        assert report.liu_bound is not None
        assert format_rho(report.rho) == "1.5382"
        assert report.classification == "near-optimal"

    def test_generic_bound_selected(self):
        report = optimality_factor(QcssParams(30, 15, 15, 15))
        assert report.bound_used == "welch"
        assert report.liu_bound is None
        assert format_rho(report.rho) == "1.9653"
        assert report.classification == "near-optimal"

    @pytest.mark.parametrize(
        "params,expected",
        [((1430, 143, 143, 143), "1.2551"), ((1210, 121, 121, 121), "1.2551")],
    )
    def test_known_factors(self, params, expected):
        assert format_rho(optimality_factor(QcssParams(*params)).rho) == expected

    def test_close_sizes(self):
        # The Welch bound 5/3 does not cancel to 0 (see TestWelchBound).
        report = optimality_factor(QcssParams(10**20 + 1, 10**20, 5, 2.0))
        assert (report.bound_used, report.rho, report.classification) == ("welch", 1.2, "near-optimal")

    def test_optimal_classification(self):
        bound = liu_bound(140, 35, 35)
        report = optimality_factor(QcssParams(140, 35, 35, bound))
        assert report.classification == "optimal"

    def test_not_near_optimal_classification(self):
        report = optimality_factor(QcssParams(140, 35, 35, 100.0))
        assert report.classification == "not-near-optimal"

    def test_below_bound_rejected(self):
        with pytest.raises(DegenerateParamsError):
            optimality_factor(QcssParams(140, 35, 35, 1.0))

    def test_invalid_params(self):
        with pytest.raises(DegenerateParamsError):
            QcssParams(0, 1, 1, 0.0)
        with pytest.raises(DegenerateParamsError):
            QcssParams(3, 1, 1, -2.0)
        for delta in (math.nan, math.inf):
            with pytest.raises(DegenerateParamsError):
                QcssParams(3, 1, 1, delta)

    def test_overflowing_factor_rejected(self):
        with pytest.raises(DegenerateParamsError):
            optimality_factor(QcssParams(2, 1, 2, 1.7e308))  # the bound is below 1

    def test_measured_delta_matches_theoretical(self):
        # The scanned maximum of the constructed pool must give the same
        # optimality factor as the closed-form delta_max = N.
        f = factorize(35)
        family = build_qcss(f, pi_perm(f))
        measured = delta_max_scan(family).delta_max
        rho_measured = optimality_factor(QcssParams(140, 35, 35, measured)).rho
        rho_exact = optimality_factor(theoretical_params(35)).rho
        assert abs(rho_measured - rho_exact) <= 1e-6

    @pytest.mark.parametrize("n", [15, 21, 35])
    def test_rho_at_least_one_for_achieved_maxima(self, n):
        f = factorize(n)
        family = build_qcss(f, pi_perm(f))
        measured = delta_max_scan(family).delta_max
        params = QcssParams(len(family), n, n, measured)
        assert optimality_factor(params).rho >= 1 - 1e-12


class TestTheoreticalParams:
    def test_values(self):
        params = theoretical_params(35)
        assert (params.set_size, params.flock_size, params.length) == (140, 35, 35)
        assert params.delta_max == 35.0


class TestFormatRho:
    def test_half_away_from_zero(self):
        assert format_rho(1.00005) == "1.0001"
        assert format_rho(1.99994) == "1.9999"
        assert format_rho(1.99995) == "2.0000"

    def test_plain(self):
        assert format_rho(1.5) == "1.5000"
        assert format_rho(1e300) == "1" + "0" * 300 + ".0000"


class TestTableRows:
    @pytest.mark.parametrize(
        "which,expected",
        [
            ("optimal", OPTIMAL_SWEEP_EXPECTED),
            ("near-optimal", NEAR_OPTIMAL_SWEEP_EXPECTED),
            ("prime-square", PRIME_SQUARE_SWEEP_EXPECTED),
        ],
    )
    def test_sweep_values(self, which, expected):
        rows = table_rows(which)
        assert len(rows) == len(expected)
        for row, (label, K, N, rho4) in zip(rows, expected):
            assert row.alphabet == label
            assert row.set_size == K
            assert row.flock_size == N
            assert row.length == N
            assert row.rho_4dp == rho4

    def test_aliases(self):
        assert table_rows("iii") == table_rows("optimal")
        assert table_rows("iv") == table_rows("near-optimal")
        assert table_rows("v") == table_rows("prime-square")

    def test_bounds_single_rounding(self):
        # Each of the 38 rows' bounds is the float nearest its exact value.
        liu_rows = 0
        for which in ("optimal", "near-optimal", "prime-square"):
            for row in table_rows(which):
                K, M, N = row.set_size, row.flock_size, row.length
                assert welch_bound(K, M, N) == reference_welch(K, M, N)
                if K >= 3 * M:
                    assert liu_bound(K, M, N) == reference_liu(K, M, N)
                    liu_rows += 1
        assert liu_rows == 30

    def test_rounded_twos_stay_below_two(self):
        for row in table_rows("near-optimal"):
            if row.rho_4dp == "2.0000":
                assert 1.9999 <= row.rho < 2

    def test_unknown_table(self):
        with pytest.raises(DegenerateParamsError):
            table_rows("vi")


def asymptote_check(moduli):
    """Optimality factors along a sweep of moduli (theoretical delta_max = N).

    With the least prime factor growing, the sequence decreases toward 1;
    with the least prime pinned at 3 and N growing, it increases toward 2.
    """
    return [optimality_factor(theoretical_params(n)).rho for n in moduli]


class TestAsymptoteCheck:
    def test_growing_least_prime_decreases_toward_one(self):
        moduli = [row.length for row in table_rows("optimal")]
        rhos = asymptote_check(moduli)
        assert all(a > b for a, b in zip(rhos, rhos[1:]))
        assert all(r > 1 for r in rhos)
        assert rhos[-1] < 1.07

    def test_growing_length_increases_toward_two(self):
        moduli = [row.length for row in table_rows("near-optimal")]
        rhos = asymptote_check(moduli)
        assert all(a < b for a, b in zip(rhos, rhos[1:]))
        assert all(r < 2 for r in rhos)
        assert rhos[-1] > 1.9999

    def test_near_optimal_algebra(self):
        # For the two-family pool, rho^2 = 4 - 2/N - 1/N^2 exactly.
        for n in (15, 21, 33, 105):
            (rho,) = asymptote_check([n])
            assert rho**2 == pytest.approx(4 - 2 / n - 1 / n**2)
