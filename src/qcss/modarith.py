"""Exact integer arithmetic over Z_N for odd N.

Factorization, power permutations on prime fields, the composite digit
permutation built from them, and the partner map and its shift counts by
ratio (shift_extremes) that the unique-solution scan and the exact
correlation engine share.
Everything here is pure-integer and deterministic; no value ever touches
floating point.

The digit permutation touches only the last mixed-radix digit, whose base
is the largest prime p and whose weight is 1, so it has the closed form
pi(i) = i - (i mod p) + ((i mod p)^e mod p). pi_perm evaluates that form
on whole arrays; tests/test_modarith.py spells the digit definition out
element by element and holds pi_perm to it.
"""

from __future__ import annotations

import numbers
from collections.abc import Iterator
from dataclasses import dataclass, field
from math import gcd

import numpy as np

from .errors import (
    EvenModulusError,
    ModulusTooSmallError,
    NotCoprimeError,
    NotPrimeError,
    ShapeMismatchError,
)

# Ratios per chunk of _shift_counts: bounds one chunk's (R, 2N-1) count
# table, 17.7 MB at N = 8633.
RATIO_CHUNK = 128


@dataclass(frozen=True)
class Factorization:
    """Canonical prime decomposition n = p_0^e_0 * ... * p_{n-1}^e_{n-1}.

    Primes are strictly ascending and odd; every exponent is at least 1.
    """

    n: int
    primes: tuple[int, ...]
    exponents: tuple[int, ...]

    @property
    def least_prime(self) -> int:
        return self.primes[0]

    @property
    def largest_prime(self) -> int:
        return self.primes[-1]


@dataclass(frozen=True, eq=False)
class Permutation:
    """A bijection on Z_modulus: table[x] is the image of x, inverse[y] the
    preimage of y. Both are read-only C-contiguous int64 arrays, built and
    checked once; the caller's table (a list, tuple or array) is copied."""

    modulus: int
    table: np.ndarray
    inverse: np.ndarray = field(init=False, repr=False)

    @classmethod
    def _adopt(cls, modulus: int, table: np.ndarray) -> Permutation:
        """The permutation of a fresh int64 table that the package built and
        nothing else holds: checked like any table, but not copied."""
        perm = cls.__new__(cls)
        object.__setattr__(perm, "modulus", modulus)
        object.__setattr__(perm, "table", table)
        perm.__post_init__(copy=False)
        return perm

    def __post_init__(self, copy: bool = True) -> None:
        n = self.modulus
        refused = ShapeMismatchError(f"table is not a bijection on Z_{n}")
        try:
            given = np.asarray(self.table)
        except ValueError:  # ragged rows
            raise refused from None
        # Entries in [0, n) before they index the inverse: a negative one would wrap.
        if given.dtype.kind not in "iu" or given.shape != (n,) or np.any((given < 0) | (given >= n)):
            raise refused
        table = given.astype(np.int64, copy=copy)  # the caller's array is never aliased
        inverse = np.full(n, -1, dtype=np.int64)
        inverse[table] = np.arange(n, dtype=np.int64)
        if np.any(inverse < 0):  # a repeated image leaves some preimage unset
            raise refused
        table.setflags(write=False)
        inverse.setflags(write=False)
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "inverse", inverse)

    def __call__(self, x: int) -> int:
        return int(self.table[x])


@dataclass(frozen=True)
class UniqueSolutionReport:
    """Outcome of the exhaustive unique-solution scan."""

    ok: bool
    violations: tuple[tuple[int, int, int], ...]  # (tau, c, solution_count)


def _is_index(value) -> bool:
    """An integer that is not a bool: 1.5 or True would pass a range check
    and stand for another integer (True for 1)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_odd_prime(p: int) -> bool:
    """Trial-division primality check, restricted to odd primes: False for
    anything that is not an integer, a bool included."""
    if not _is_index(p) or p < 3 or p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def factorize(n: int) -> Factorization:
    """Factor an odd modulus n >= 3 by trial division.

    Deterministic and canonical: primes come out ascending. A non-integer
    or bool n raises EvenModulusError: it is not an odd integer.
    """
    if not _is_index(n):
        raise EvenModulusError(f"modulus must be an odd integer >= 3, got {n!r}")
    n = int(n)  # a NumPy integer would carry its type into the primes
    if n < 3:
        raise ModulusTooSmallError(f"modulus must be odd and >= 3, got {n}")
    if n % 2 == 0:
        raise EvenModulusError(f"modulus must be odd and >= 3, got {n}")
    primes: list[int] = []
    exponents: list[int] = []
    m, d = n, 3
    while d * d <= m:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            primes.append(d)
            exponents.append(e)
        d += 2
    if m > 1:
        primes.append(m)
        exponents.append(1)
    return Factorization(n, tuple(primes), tuple(exponents))


def power_perm(p: int, e: int) -> Permutation:
    """The permutation x -> x**e mod p on Z_p.

    Requires gcd(p-1, e) = 1, which is exactly the condition for the power
    map to be a bijection on Z_p.
    """
    if not is_odd_prime(p):
        raise NotPrimeError(f"{p} is not an odd prime")
    if not _is_index(e) or e < 1:
        raise NotCoprimeError(f"exponent must be a positive integer, got {e!r}")
    if gcd(p - 1, e) != 1:
        raise NotCoprimeError(f"gcd({p} - 1, {e}) = {gcd(p - 1, e)} != 1")
    p, e = int(p), int(e)  # three-argument pow refuses NumPy integers
    return Permutation(p, [pow(x, e, p) for x in range(p)])


def default_exponent(p: int) -> int:
    """Smallest exponent e >= 2 with gcd(p-1, e) = 1."""
    if not is_odd_prime(p):
        raise NotPrimeError(f"{p} is not an odd prime")
    e = 2
    while gcd(p - 1, e) != 1:
        e += 1
    return e


def pi_perm(f: Factorization, e: int | None = None) -> Permutation:
    """Digit permutation on Z_N: the last digit goes through x -> x**e.

    In mixed radix only the final digit, whose base is the largest prime p
    and whose weight is 1, is permuted by the power map, so
    pi(i) = i - (i mod p) + ((i mod p)^e mod p). That closed form is
    evaluated here with one lookup in the power_perm table; the digit
    reference in tests/test_modarith.py holds it to the definition of pi.
    When N is prime this degenerates to power_perm(N, e). If e is omitted,
    the smallest admissible exponent >= 2 is used.
    """
    p_last = f.largest_prime
    if e is None:
        e = default_exponent(p_last)
    xi = power_perm(p_last, e).table
    i = np.arange(f.n, dtype=np.int64)
    last = i % p_last
    # In place, and last freed before the inverse is built: at the largest
    # table modulus these N-length arrays set the peak memory.
    i -= last
    i += xi.take(last)
    del last
    return Permutation._adopt(f.n, i)


def _check_modulus(f: Factorization, perm: Permutation) -> None:
    if perm.modulus != f.n:
        raise ShapeMismatchError(f"permutation modulus {perm.modulus} does not match n = {f.n}")


def partner_map(perm: Permutation, c) -> np.ndarray:
    """The partner t' = perm^-1(c * perm(t) mod N) of every t in Z_N.

    c is one integer (result shape (N,)) or a 1-d sequence of integers
    (one row per c, shape (len(c), N)). For c a unit mod N the map is a
    bijection; t' is the unique index where c * perm(t) reappears.
    """
    images = np.multiply.outer(np.asarray(c, dtype=np.int64), perm.table)
    return perm.inverse[np.remainder(images, perm.modulus, out=images)]


def _shift_counts(perm: Permutation, ratios) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The ratios in chunks of at most RATIO_CHUNK, each with its shift
    counts |S_tau| = #{t : t' - t = tau}, t' the partner of t under each
    ratio, for tau = -(N-1)..N-1: (R, 2N-1), tau at column tau + N - 1."""
    n, span = perm.modulus, 2 * perm.modulus - 1
    ratios = np.asarray(ratios, dtype=np.int64)
    for lo in range(0, len(ratios), RATIO_CHUNK):
        chunk = ratios[lo : lo + RATIO_CHUNK]
        index = partner_map(perm, chunk)
        index += (n - 1) - np.arange(n) + span * np.arange(len(index))[:, None]
        yield chunk, np.bincount(index.ravel(), minlength=span * len(index)).reshape(-1, span)


def shift_extremes(perm: Permutation, ratios) -> np.ndarray:
    """The shift counts |S_tau| of any number of unit ratios c, reduced: (2, R, 4).

    Row [0, i] is (max |S_tau| over tau >= 0, the first such tau, max over
    tau <= 0, the first such tau) for c = ratios[i], "first" in ascending
    tau. Row [1, i] is the same for c^-1, read off the mirror: t' is the
    c-partner of t exactly when t is the c^-1-partner of t', so
    |S_tau(c^-1)| = |S_-tau(c)| and the pair {c, c^-1} is counted once.
    The counts are taken RATIO_CHUNK ratios at a time (_shift_counts).
    """
    n = perm.modulus
    chunks = [np.zeros((2, 0, 4), dtype=np.int64)]  # no ratios: (2, 0, 4)
    for _, counts in _shift_counts(perm, ratios):
        # tau >= 0 and tau <= 0 for c, then for c^-1 (counts reversed); each
        # view runs in ascending tau, so its argmax is the first maximum.
        views = (counts[:, n - 1 :], counts[:, :n], counts[:, n - 1 :: -1], counts[:, : n - 2 : -1])
        first = [view.argmax(axis=1) for view in views]
        peak = [np.take_along_axis(view, at[:, None], axis=1)[:, 0] for view, at in zip(views[:2], first)]
        first[1] -= n - 1
        first[3] -= n - 1
        chunks.append(np.stack(
            [np.stack([peak[0], first[0], peak[1], first[1]], axis=-1),
             np.stack([peak[1], first[2], peak[0], first[3]], axis=-1)]
        ))
    return np.concatenate(chunks, axis=1)


def verify_unique_solution(f: Factorization, perm: Permutation) -> UniqueSolutionReport:
    """Exhaustively check the unique-solution property of a permutation.

    For every shift tau in Z_N and every scalar c in {2, ..., p0-1}, counts
    the x in Z_N solving perm(x + tau) = c * perm(x) (mod N). The property
    holds iff every count is exactly 1; violations list each offending
    (tau, c, count) triple, ordered by tau, then c.

    x solves the equation for exactly one tau, namely (x' - x) mod N with
    x' the partner of x, so the cyclic count at tau is the shift count
    |S_tau| plus |S_(tau-N)|, for a chunk of scalars at a time.

    The property covers the ratios c in {2, ..., p0-1}, but the pool's
    delta_max depends on every class k1 * k2^-1 of distinct families (at
    N = 35, 2 * 3^-1 = 24 mod 35, not in {2, 3, 4}), and it is N exactly
    when every aperiodic |S_tau| <= 1 over those classes.
    """
    _check_modulus(f, perm)
    n, p0 = f.n, f.least_prime
    found = []
    for cs, counts in _shift_counts(perm, np.arange(2, p0)):
        cyclic = counts[:, n - 1 :]  # tau = 0..N-1
        cyclic[:, 1:] += counts[:, : n - 1]  # tau - N = -(N-1)..-1
        rows, taus = np.nonzero(cyclic != 1)
        found.append((taus, cs[rows], cyclic[rows, taus]))
    taus, cs, counts = (np.concatenate(x) for x in zip(*found))
    order = np.lexsort((cs, taus))
    violations = tuple(zip(taus[order].tolist(), cs[order].tolist(), counts[order].tolist()))
    return UniqueSolutionReport(not violations, violations)
