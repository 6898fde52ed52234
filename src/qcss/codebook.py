"""Phase-matrix construction.

A single complementary set is an N x N table of integer phases mod N with
entry k*s*pi(t) + m*t (mod N) at row s, column t. Collecting m = 0..N-1
for one family index k gives a complete complementary code; pooling all
k = 1..p0-1 gives the combined quasi-complementary set. A family holds its
K sets as one read-only (K, N, N) array, built from that formula a few
sets at a time, and serves each member as a PhaseMatrix view of it.
Phases are residues in Z_N, stored in the smallest unsigned type that
holds N - 1 (np.min_scalar_type(N - 1): uint8 up to N = 255, uint16 up to
65535); the type depends on N alone. Phases stay exact integers here;
complex values are materialized only by the correlation engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Literal, Sequence

import numpy as np

from .errors import BadFamilyIndexError, OutOfRangeError, ShapeMismatchError
from .modarith import Factorization, Permutation, _check_modulus, _is_index, factorize

FamilyKind = Literal["ccc", "qcss"]


def _phase_dtype(n: int) -> np.dtype:
    """The dtype of every phase array over modulus n: the smallest unsigned
    type that holds n - 1. It depends on n alone, never on the values."""
    return np.min_scalar_type(n - 1)


def _checked_phases(phases, shape: tuple[int, ...], n: int) -> np.ndarray:
    """phases as a read-only C-contiguous array of the given shape and dtype
    _phase_dtype(n), entries in [0, n). Entries that are not integers
    (float, bool, str or object arrays) raise OutOfRangeError: casting
    would truncate or parse them.

    A writeable array is copied, so its owner may go on writing to it. A
    read-only one already in that dtype is taken as it is: that is how
    _broadcast and the loaders hand over an array nothing else writes to,
    without a second copy.
    """
    array = np.asarray(phases)
    if array.shape != shape:
        raise ShapeMismatchError(f"phases must be {'x'.join(map(str, shape))}, got {array.shape}")
    if array.dtype.kind not in "iu":
        raise OutOfRangeError(f"phase entries must be integers, got dtype {array.dtype}")
    if array.size and (array.min() < 0 or array.max() >= n):
        raise OutOfRangeError("phase entries must lie in [0, N)")
    copy = array is phases and array.flags.writeable
    array = array.astype(_phase_dtype(n), order="C", copy=copy)
    array.setflags(write=False)
    return array


def _check_family_indices(n: int, *ks: int) -> Factorization:
    """factorize(n), after checking that every family index k is an integer in [1, p0)."""
    f = factorize(n)
    for k in ks:
        if not (_is_index(k) and 1 <= k < f.least_prime):
            raise BadFamilyIndexError(f"family index k={k} outside [1, {f.least_prime})")
    return f


def _check_in_range(n: int, **values: int) -> None:
    for name, value in values.items():
        if not (_is_index(value) and 0 <= value < n):
            raise OutOfRangeError(f"{name}={value} outside [0, {n})")


@dataclass(eq=False)
class PhaseMatrix:
    """One complementary set: N x N integer phases mod N, read-only, of
    dtype np.min_scalar_type(N - 1). A writeable array passed in is copied;
    the caller's stays writeable. An N, k or m that no family member can
    have raises the error SequenceFamily gives."""

    n: int
    k: int
    m: int
    phases: np.ndarray

    def __post_init__(self) -> None:
        self.phases = _checked_phases(self.phases, (self.n, self.n), self.n)
        _check_family_indices(self.n, self.k)
        _check_in_range(self.n, m=self.m)

    @classmethod
    def _view(cls, n: int, k: int, m: int, phases: np.ndarray) -> PhaseMatrix:
        """A set whose phases and labels were checked already: no copy, no check."""
        mat = object.__new__(cls)
        mat.n, mat.k, mat.m, mat.phases = n, k, m, phases
        return mat

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PhaseMatrix):
            return NotImplemented
        return (
            self.n == other.n
            and self.k == other.k
            and self.m == other.m
            and np.array_equal(self.phases, other.phases)
        )


@dataclass(eq=False)
class SequenceFamily:
    """K phase matrices held as one read-only (K, N, N) array of dtype
    np.min_scalar_type(N - 1).

    kind "ccc":  the N sets sharing one family index k; member u is (k, u).
    kind "qcss": all N*(p0-1) sets; member u is (u // N + 1, u % N), so
                 u = (k-1)*N + m.
    Members are PhaseMatrix views of phases[u], labelled by their position.
    A writeable array passed in is copied; the caller's stays writeable.
    """

    n: int
    kind: FamilyKind
    phases: np.ndarray
    k: int | None = None
    members: tuple[PhaseMatrix, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        n = self.n
        if self.kind == "ccc":
            if self.k is None:
                raise ShapeMismatchError("a ccc family needs its index k")
            _check_family_indices(n, self.k)
            first, size = self.k, n
        elif self.kind == "qcss":
            first, size = 1, n * (factorize(n).least_prime - 1)
        else:
            raise ShapeMismatchError(f"unknown family kind {self.kind!r}")
        self.phases = _checked_phases(self.phases, (size, n, n), n)
        self.members = tuple(
            PhaseMatrix._view(n, first + u // n, u % n, self.phases[u]) for u in range(size)
        )

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[PhaseMatrix]:
        return iter(self.members)

    def __getitem__(self, u: int) -> PhaseMatrix:
        return self.members[u]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SequenceFamily):
            return NotImplemented
        return (
            self.n == other.n
            and self.kind == other.kind
            and self.k == other.k
            and np.array_equal(self.phases, other.phases)
        )


# Entries of the buffers _broadcast computes in one step, whatever the
# size of the family.
_STEP_ENTRIES = 1 << 20


def _steps(perm: Permutation, ks: Sequence[int], ms: Sequence[int], step: int, out) -> Iterator[np.ndarray]:
    """The phases k*s*pi(t) + m*t (mod N) of the sets (ks[i], ms[j]),
    k-major, up to step sets of one k at a time: the sets (ks[i], ms[j :
    j + count]) are written into out(i, j, count), a (count, N, N) array of
    the phase dtype, which is then yielded. k*s*pi(t) mod N is computed once
    per k and m*t mod N once, both in the smallest unsigned type that holds
    2N - 2; their sum x is reduced to min(x, x - N), where x - N wraps above
    x unless x >= N, so no (K, N, N) int64 array is allocated."""
    n = perm.modulus
    work = np.min_scalar_type(2 * n - 2)
    t = np.arange(n, dtype=np.int64)
    mt = (np.multiply.outer(ms, t) % n).astype(work)[:, None]
    for i, k in enumerate(ks):
        row = (np.multiply.outer(k * t, perm.table) % n).astype(work)
        for j in range(0, len(mt), step):
            x = row + mt[j : j + step]
            yield np.minimum(x, x - n, out=out(i, j, len(x)))


def _broadcast(perm: Permutation, ks: Sequence[int], ms: Sequence[int]) -> np.ndarray:
    """(len(ks) * len(ms), N, N) phases k*s*pi(t) + m*t (mod N), k-major:
    the set (ks[i], ms[j]) sits at i * len(ms) + j. _steps writes them into
    the compact array, at most _STEP_ENTRIES entries per step."""
    n = perm.modulus
    phases = np.empty((len(ks) * len(ms), n, n), dtype=_phase_dtype(n))
    grid = phases.reshape(len(ks), len(ms), n, n)
    for _ in _steps(perm, ks, ms, max(1, _STEP_ENTRIES // (n * n)), lambda i, j, count: grid[i, j : j + count]):
        pass
    phases.setflags(write=False)  # handed over to a member or family without a copy
    return phases


def phase(k: int, m: int, s: int, t: int, perm: Permutation) -> int:
    """Single phase value k*s*pi(t) + m*t (mod N)."""
    n = perm.modulus
    _check_family_indices(n, k)
    _check_in_range(n, m=m, s=s, t=t)
    return (k * s * perm(t) + m * t) % n


def build_set(k: int, m: int, perm: Permutation) -> PhaseMatrix:
    """Phase matrix of one complementary set, rows indexed by s."""
    n = perm.modulus
    _check_family_indices(n, k)  # before _broadcast, where a huge k overflows
    _check_in_range(n, m=m)
    return PhaseMatrix._view(n, k, m, _broadcast(perm, [k], [m])[0])


def build_ccc(k: int, perm: Permutation) -> SequenceFamily:
    """The complete complementary code for one family index: m = 0..N-1."""
    n = perm.modulus
    return SequenceFamily(n, "ccc", _broadcast(perm, [k], range(n)), k=k)


def build_qcss(f: Factorization, perm: Permutation) -> SequenceFamily:
    """All p0-1 families pooled into one set of N*(p0-1) members.

    Member u = (k-1)*N + m; one shared permutation across every family.
    """
    _check_modulus(f, perm)
    return SequenceFamily(f.n, "qcss", _broadcast(perm, range(1, f.least_prime), range(f.n)))
