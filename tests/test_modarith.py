import math
import random
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcss import (
    EvenModulusError,
    ModulusTooSmallError,
    NotCoprimeError,
    NotPrimeError,
    OutOfRangeError,
    Permutation,
    ShapeMismatchError,
    default_exponent,
    factorize,
    pi_perm,
    power_perm,
    verify_unique_solution,
)
from qcss.bounds import table_rows
from qcss.codebook import phase
from qcss.modarith import RATIO_CHUNK, UniqueSolutionReport, is_odd_prime, partner_map, shift_extremes

ODD_SWEEP = list(range(3, 226, 2))

# Example-1 ground truth: the digit permutation on Z_15 with exponent 3.
PI15 = (0, 1, 3, 2, 4, 5, 6, 8, 7, 9, 10, 11, 13, 12, 14)


# The digit reference: mixed-radix digits spelled out one element at a time.
# pi is defined on them, and TestPiPermClosedForm holds pi_perm to it.


def digit_bases(f):
    """Mixed-radix base sequence: e_0 copies of p_0, then e_1 of p_1, ..."""
    return tuple(p for p, e in zip(f.primes, f.exponents) for _ in range(e))


@dataclass(frozen=True)
class DigitVector:
    """Mixed-radix digits of an element of Z_N, as (value, base) pairs.

    Most-significant digit first within each prime block; prime blocks run
    in ascending-prime order. The weight of a digit is the product of all
    later bases.
    """

    digits: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        for value, base in self.digits:
            if base < 2 or not 0 <= value < base:
                raise ShapeMismatchError(f"digit {value} out of range for base {base}")

    @property
    def values(self) -> tuple[int, ...]:
        return tuple(v for v, _ in self.digits)

    @property
    def bases(self) -> tuple[int, ...]:
        return tuple(b for _, b in self.digits)


def to_digits(i, f):
    """Expand i in the mixed radix given by f's digit bases."""
    if not 0 <= i < f.n:
        raise OutOfRangeError(f"{i} is not in [0, {f.n})")
    digits = []
    rem, weight = i, f.n
    for base in digit_bases(f):
        weight //= base
        digits.append((rem // weight, base))
        rem %= weight
    return DigitVector(tuple(digits))


def from_digits(d, f):
    """Collapse a digit vector back to its value in Z_N; inverse of to_digits."""
    if d.bases != digit_bases(f):
        raise ShapeMismatchError(f"digit bases {d.bases} do not match the factorization of {f.n}")
    value, weight = 0, f.n
    for v, base in d.digits:
        weight //= base
        value += v * weight
    return value


class TestFactorize:
    @pytest.mark.parametrize(
        "n,primes,exponents",
        [
            (15, (3, 5), (1, 1)),
            (35, (5, 7), (1, 1)),
            (45, (3, 5), (2, 1)),
            (9, (3,), (2,)),
            (105, (3, 5, 7), (1, 1, 1)),
            (121, (11,), (2,)),
            (3, (3,), (1,)),
        ],
    )
    def test_known_values(self, n, primes, exponents):
        f = factorize(n)
        assert f.n == n
        assert f.primes == primes
        assert f.exponents == exponents

    @pytest.mark.parametrize("n", [4, 10, 100])
    def test_even_rejected(self, n):
        with pytest.raises(EvenModulusError):
            factorize(n)

    @pytest.mark.parametrize("n", [1, 0, -5, 2])
    def test_too_small_rejected(self, n):
        with pytest.raises(ModulusTooSmallError):
            factorize(n)

    @pytest.mark.parametrize("n", [15.0, True, "15"])
    def test_non_integer_rejected(self, n):
        # 15.0 gave Factorization(n=15.0, primes=(3, 5.0), ...), True a
        # ModulusTooSmallError and "15" a bare TypeError.
        with pytest.raises(EvenModulusError, match="odd integer"):
            factorize(n)

    def test_numpy_integers_accepted(self):
        assert factorize(np.int64(45)) == factorize(45)
        f = factorize(np.uint16(15))
        assert f.primes == (3, 5) and type(f.largest_prime) is int
        assert np.array_equal(pi_perm(f).table, pi_perm(factorize(15)).table)

    @pytest.mark.parametrize("n", ODD_SWEEP)
    def test_canonical(self, n):
        f = factorize(n)
        assert math.prod(p**e for p, e in zip(f.primes, f.exponents)) == n
        assert list(f.primes) == sorted(set(f.primes))
        assert all(p % 2 == 1 for p in f.primes)
        assert all(e >= 1 for e in f.exponents)

    def test_digit_bases(self):
        assert digit_bases(factorize(45)) == (3, 3, 5)
        assert digit_bases(factorize(35)) == (5, 7)


class TestDigits:
    def test_example_n15(self):
        f = factorize(15)
        d = to_digits(7, f)
        assert d.values == (1, 2)
        assert d.bases == (3, 5)
        assert from_digits(d, f) == 7

    def test_zero_expansion(self):
        for n in (15, 35, 45):
            f = factorize(n)
            assert to_digits(0, f).values == (0,) * len(digit_bases(f))

    def test_n35(self):
        f = factorize(35)
        assert to_digits(9, f).values == (1, 2)  # 9 = 7*1 + 2
        d = DigitVector(((2, 5), (6, 7)))
        assert from_digits(d, f) == 20  # 7*2 + 6
        assert to_digits(20, f) == d

    @pytest.mark.parametrize("n", [15, 35, 45, 63, 105, 225])
    def test_round_trip(self, n):
        f = factorize(n)
        for i in range(n):
            assert from_digits(to_digits(i, f), f) == i

    def test_mixed_radix_weights(self):
        # Digit weights are the products of all later bases.
        f = factorize(45)  # bases (3, 3, 5), weights (15, 5, 1)
        d = to_digits(38, f)  # 38 = 2*15 + 1*5 + 3
        assert d.values == (2, 1, 3)

    @pytest.mark.parametrize("i", [-1, 15, 99])
    def test_out_of_range(self, i):
        with pytest.raises(OutOfRangeError):
            to_digits(i, factorize(15))

    def test_shape_mismatch(self):
        d15 = to_digits(7, factorize(15))
        with pytest.raises(ShapeMismatchError):
            from_digits(d15, factorize(35))

    def test_digit_out_of_range_rejected(self):
        with pytest.raises(ShapeMismatchError):
            DigitVector(((3, 3), (0, 5)))
        with pytest.raises(ShapeMismatchError):
            DigitVector(((-1, 3),))


class TestPowerPerm:
    def test_known_tables(self):
        assert np.array_equal(power_perm(5, 3).table, (0, 1, 3, 2, 4))
        assert np.array_equal(power_perm(7, 5).table, (0, 1, 4, 5, 2, 3, 6))
        assert np.array_equal(power_perm(3, 3).table, (0, 1, 2))

    def test_not_coprime(self):
        with pytest.raises(NotCoprimeError):
            power_perm(5, 2)
        with pytest.raises(NotCoprimeError):
            power_perm(7, 3)
        with pytest.raises(NotCoprimeError):
            power_perm(5, 0)

    @pytest.mark.parametrize("p", [4, 9, 15, 2, 1])
    def test_not_prime(self, p):
        with pytest.raises(NotPrimeError):
            power_perm(p, 3)

    @pytest.mark.parametrize("e", [1.5, True])
    def test_non_integer_exponent_rejected(self, e):
        # 1.5 raised a bare TypeError from gcd, and True ran as e = 1.
        with pytest.raises(NotCoprimeError, match="exponent must be a positive integer"):
            power_perm(7, e)

    def test_numpy_integers_accepted(self):
        assert np.array_equal(power_perm(np.int64(7), np.int32(5)).table, power_perm(7, 5).table)

    def test_is_odd_prime_refuses_non_integers(self):
        # 7.0 passed the trial division.
        assert not is_odd_prime(7.0)
        assert not is_odd_prime(True)
        assert is_odd_prime(7) and is_odd_prime(np.int64(13))

    def test_unique_solution_at_prime_scale(self):
        # For every admissible exponent, x -> x**e has the one-solution
        # property: xi(x + a) = c*xi(x) mod p pins down x for each (a, c).
        for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
            exponents = [e for e in range(1, 13) if math.gcd(p - 1, e) == 1]
            for e in exponents:
                xi = power_perm(p, e).table
                for a in range(p):
                    for c in range(2, p):
                        count = sum(1 for x in range(p) if xi[(x + a) % p] == c * xi[x] % p)
                        assert count == 1, (p, e, a, c)


class TestDefaultExponent:
    @pytest.mark.parametrize("p,e", [(3, 3), (5, 3), (7, 5), (11, 3), (13, 5)])
    def test_known(self, p, e):
        assert default_exponent(p) == e

    def test_smallest_admissible(self):
        for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
            e = default_exponent(p)
            assert e >= 2 and math.gcd(p - 1, e) == 1
            assert all(math.gcd(p - 1, d) != 1 for d in range(2, e))

    def test_not_prime(self):
        with pytest.raises(NotPrimeError):
            default_exponent(9)

    def test_float_refused(self):
        # A bare TypeError from gcd before.
        with pytest.raises(NotPrimeError):
            default_exponent(7.0)


class TestPiPerm:
    def test_example_n15(self):
        assert np.array_equal(pi_perm(factorize(15), 3).table, PI15)

    def test_n35_values(self):
        perm = pi_perm(factorize(35), 5)
        assert perm(2) == 4
        assert perm(9) == 11
        assert np.array_equal(perm.table[:10], (0, 1, 4, 5, 2, 3, 6, 7, 8, 11))

    def test_prime_identity_exponent(self):
        perm = pi_perm(factorize(13), 1)
        assert np.array_equal(perm.table, tuple(range(13)))

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23])
    def test_prime_degenerates_to_power_perm(self, p):
        e = default_exponent(p)
        assert np.array_equal(pi_perm(factorize(p), e).table, power_perm(p, e).table)

    @pytest.mark.parametrize("n", ODD_SWEEP)
    def test_bijective_sweep(self, n):
        perm = pi_perm(factorize(n))
        assert sorted(perm.table) == list(range(n))
        assert perm(0) == 0

    def test_default_exponent_used(self):
        assert np.array_equal(pi_perm(factorize(15)).table, PI15)

    def test_only_last_digit_permuted(self):
        # Images agree with the input on every digit except the final one.
        f = factorize(45)
        perm = pi_perm(f)
        for i in range(45):
            before = to_digits(i, f).values
            after = to_digits(perm(i), f).values
            assert before[:-1] == after[:-1]

    def test_not_coprime(self):
        with pytest.raises(NotCoprimeError):
            pi_perm(factorize(15), 2)  # gcd(5-1, 2) = 2


def admissible(p: int, count: int) -> list[int]:
    """The first `count` exponents e >= 2 with gcd(p-1, e) = 1."""
    return [e for e in range(2, 2 + 4 * count) if math.gcd(p - 1, e) == 1][:count]


def digit_reference(f, exponents):
    """pi by its definition, one element at a time: expand i in mixed radix,
    pass the last digit through power_perm, collapse the digits again."""
    expanded = [to_digits(i, f).digits for i in range(f.n)]
    tables = {}
    for e in exponents:
        xi = power_perm(f.largest_prime, e)
        tables[e] = tuple(
            from_digits(DigitVector((*head, (xi(last), base))), f)
            for *head, (last, base) in expanded
        )
    return tables


class TestPiPermClosedForm:
    """pi_perm evaluates a closed form; the digit reference above defines pi."""

    def test_every_odd_modulus_below_600(self):
        for n in range(3, 600, 2):
            f = factorize(n)
            for e, want in digit_reference(f, admissible(f.largest_prime, 3)).items():
                assert np.array_equal(pi_perm(f, e).table, want), (n, e)

    def test_table_moduli(self):
        rng = random.Random(20261018)
        moduli = sorted({r.length for which in ("iii", "iv", "v") for r in table_rows(which)})
        for n in (n for n in moduli if n <= 10_000):
            f = factorize(n)
            e = rng.choice(admissible(f.largest_prime, 6))
            assert np.array_equal(pi_perm(f, e).table, digit_reference(f, [e])[e]), (n, e)

    @pytest.mark.parametrize("e", [3, 7])
    def test_largest_table_modulus(self, e):
        n, p = 255255, 17  # 3 * 5 * 7 * 11 * 13 * 17
        quotient, residue = np.divmod(np.arange(n, dtype=np.int64), p)
        want = p * quotient + residue**e % p  # 16**7 < 2**63
        assert np.array_equal(pi_perm(factorize(n), e).table, tuple(want.tolist()))


class TestUniqueSolution:
    def test_tau0_c2(self, perm15):
        # With tau = 0 the equation collapses to (c-1)*pi(x) = 0, so the
        # only solution is the preimage of 0.
        f = factorize(15)
        count = sum(1 for x in range(15) if perm15(x) == 2 * perm15(x) % 15)
        assert count == 1
        report = verify_unique_solution(f, perm15)
        assert report.ok
        assert not any(v[0] == 0 and v[1] == 2 for v in report.violations)

    @pytest.mark.parametrize("n", [9, 15, 21, 25, 27, 35, 45, 63, 105])
    def test_default_permutation_sweep(self, n):
        f = factorize(n)
        report = verify_unique_solution(f, pi_perm(f))
        assert report.ok
        assert report.violations == ()

    def test_counts_match_independent_recount(self):
        # The scan must agree with a from-scratch recount on arbitrary
        # bijections, including any violations it finds.
        f = factorize(15)
        rng = random.Random(20240917)
        for _ in range(5):
            table = list(range(15))
            rng.shuffle(table)
            perm = Permutation(15, tuple(table))
            report = verify_unique_solution(f, perm)
            expected = []
            for tau in range(15):
                for c in range(2, 3):
                    count = sum(
                        1 for x in range(15) if table[(x + tau) % 15] == c * table[x] % 15
                    )
                    if count != 1:
                        expected.append((tau, c, count))
            assert list(report.violations) == expected
            assert report.ok == (not expected)

    @pytest.mark.parametrize("n,seed", [(25, 7), (35, 8), (49, 9)])
    def test_violations_match_brute_force(self, n, seed):
        # Shuffled tables break the property; every c in 2..p0-1 is counted
        # by brute force and the violations must come out in (tau, c) order.
        f = factorize(n)
        table = list(range(n))
        random.Random(seed).shuffle(table)
        report = verify_unique_solution(f, Permutation(n, tuple(table)))
        expected = []
        for tau in range(n):
            for c in range(2, f.least_prime):
                count = sum(1 for x in range(n) if table[(x + tau) % n] == c * table[x] % n)
                if count != 1:
                    expected.append((tau, c, count))
        assert expected
        assert report.violations == tuple(expected)
        assert not report.ok

    def test_modulus_mismatch(self, perm15):
        with pytest.raises(ShapeMismatchError):
            verify_unique_solution(factorize(35), perm15)


def reference_unique_solution(f, perm):
    """The per-scalar loop: one bincount of cyclic shifts per c."""
    n, p0 = f.n, f.least_prime
    cs = np.arange(2, p0)
    shifts = (partner_map(perm, cs) - np.arange(n)) % n
    counts = np.stack([np.bincount(row, minlength=n) for row in shifts], axis=1)  # (tau, c)
    taus, cols = np.nonzero(counts != 1)
    violations = tuple(
        (int(tau), int(cs[j]), int(counts[tau, j])) for tau, j in zip(taus, cols)
    )
    return UniqueSolutionReport(not violations, violations)


@st.composite
def permutations(draw, n_max=301):
    """(f, perm): pi_perm with an admissible exponent (e = 1, the identity,
    included), or a seeded random bijection."""
    n = draw(st.integers(1, (n_max - 1) // 2), label="half") * 2 + 1
    f = factorize(n)
    if draw(st.booleans(), label="random"):
        table = list(range(n))
        random.Random(draw(st.integers(0, 2**32 - 1), label="seed")).shuffle(table)
        return f, Permutation(n, tuple(table))
    p = f.largest_prime
    return f, pi_perm(f, draw(st.sampled_from([e for e in range(1, p - 1) if math.gcd(p - 1, e) == 1] or [1])))


class TestShiftCounts:
    @settings(max_examples=40, deadline=None)
    @given(permutations())
    def test_unique_solution_equals_the_scalar_loop(self, fp):
        f, perm = fp
        assert verify_unique_solution(f, perm) == reference_unique_solution(f, perm)

    @settings(max_examples=40, deadline=None)
    @given(permutations(n_max=151), st.data())
    def test_extremes_of_a_ratio_and_its_mirror(self, fp, data):
        f, perm = fp
        n = f.n
        units = [c for c in range(1, n) if math.gcd(c, n) == 1]
        # Up to two whole chunks and one ratio more; none at all gives (2, 0, 4).
        size = data.draw(st.integers(0, 2 * RATIO_CHUNK + 1), label="size")
        ratios = data.draw(st.lists(st.sampled_from(units), min_size=size, max_size=size), label="ratios")
        t = np.arange(n)

        def brute(c):
            counts = np.bincount(partner_map(perm, c) - t + n - 1, minlength=2 * n - 1)
            pos, neg = counts[n - 1:], counts[:n]  # tau = 0..N-1 and -(N-1)..0
            return [pos.max(), pos.argmax(), neg.max(), neg.argmax() - (n - 1)]

        extremes = shift_extremes(perm, ratios)
        assert extremes.shape == (2, len(ratios), 4)
        direct, mirrored = extremes.tolist()
        assert direct == [brute(c) for c in ratios]
        assert mirrored == [brute(pow(c, -1, n)) for c in ratios]

    def test_unique_solution_past_one_chunk(self):
        # p0 - 2 = 255 scalars at N = 257: two chunks of ratios.
        f = factorize(257)
        for perm in (pi_perm(f), Permutation(257, tuple(random.Random(5).sample(range(257), 257)))):
            assert verify_unique_solution(f, perm) == reference_unique_solution(f, perm)


class TestPartnerMap:
    def test_partner_carries_scaled_image(self, perm35):
        for c in (1, 2, 3, 4, 18):
            tp = partner_map(perm35, c)
            assert sorted(tp.tolist()) == list(range(35))
            assert all(perm35(int(tp[t])) == c * perm35(t) % 35 for t in range(35))

    def test_identity_for_unit_scalar(self, perm35):
        assert partner_map(perm35, 1).tolist() == list(range(35))

    def test_one_row_per_scalar(self, perm35):
        rows = partner_map(perm35, [2, 3])
        assert rows.shape == (2, 35)
        assert rows[1].tolist() == partner_map(perm35, 3).tolist()


class TestPermutationType:
    @pytest.mark.parametrize(
        "modulus,table",
        [
            (3, (0, 0, 2)),
            (3, (0, 1)),
            (3, (0, 1, 3)),
            (3, (0, 1, -1)),
            (2, ((0, 1), (1, 0))),
            (2, (0.5, 1.0)),
            (3, ((0, 1), (2,))),
        ],
        ids=["duplicate", "too-short", "out-of-range-n", "out-of-range-negative", "2-d", "non-integer", "ragged"],
    )
    def test_rejects_non_bijection(self, modulus, table):
        with pytest.raises(ShapeMismatchError):
            Permutation(modulus, table)

    def test_table_and_inverse_are_read_only(self, perm35):
        for array in (perm35.table, perm35.inverse):
            assert array.dtype == np.int64 and array.flags.c_contiguous
            with pytest.raises(ValueError):
                array[0] = 1

    def test_caller_array_is_copied(self):
        given = np.array([2, 0, 1])
        perm = Permutation(3, given)
        given[:] = [0, 1, 2]
        assert perm.table.tolist() == [2, 0, 1]
        assert given.flags.writeable

    def test_package_table_is_adopted_and_still_checked(self):
        fresh = np.array([2, 0, 1], dtype=np.int64)
        perm = Permutation._adopt(3, fresh)
        assert perm.table is fresh and not fresh.flags.writeable
        assert perm.inverse.tolist() == [1, 2, 0]
        with pytest.raises(ShapeMismatchError):
            Permutation._adopt(3, np.array([0, 0, 2], dtype=np.int64))

    def test_pi_perm_peaks_at_three_tables(self):
        # N = 255255 = 3*5*7*11*13*17. A copy of the finished table made
        # the peak four N-length int64 arrays (7.79 MiB); building it takes three.
        n = 255255
        f = factorize(n)
        pi_perm(f)  # first use: the power map of the last prime
        tracemalloc.start()
        try:
            pi_perm(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * n * 8

    @pytest.mark.parametrize("n", [15, 33, 101])
    def test_inverse_undoes_table(self, n):
        # Seeded random bijections: the default pi at N = 15 is its own inverse.
        for perm in (pi_perm(factorize(n), 3), Permutation(n, np.random.default_rng(n).permutation(n))):
            assert np.array_equal(perm.inverse[perm.table], np.arange(n))

    def test_scalar_results_are_int(self, perm35):
        assert type(perm35(3)) is int
        assert type(phase(1, 0, 1, 2, perm35)) is int
