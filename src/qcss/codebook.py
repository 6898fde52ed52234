"""Phase-matrix construction.

A single complementary set is an N x N table of integer phases mod N with
entry k*s*pi(t) + m*t (mod N) at row s, column t. Collecting m = 0..N-1
for one family index k gives a complete complementary code; pooling all
k = 1..p0-1 gives the combined quasi-complementary set. A family holds its
K sets as one read-only (K, N, N) int64 array, built by one broadcast of
that formula, and serves each member as a PhaseMatrix view of it. Phases
stay exact integers here; complex values are materialized only by the
correlation engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Literal, Sequence

import numpy as np

from .errors import BadFamilyIndexError, OutOfRangeError, ShapeMismatchError
from .modarith import Factorization, Permutation, factorize

FamilyKind = Literal["ccc", "qcss"]


def _checked_phases(phases, shape: tuple[int, ...], n: int) -> np.ndarray:
    """phases as read-only C-contiguous int64 of the given shape, entries in [0, n)."""
    phases = np.ascontiguousarray(phases, dtype=np.int64)
    if phases.shape != shape:
        raise ShapeMismatchError(f"phases must be {'x'.join(map(str, shape))}, got {phases.shape}")
    if phases.size and (phases.min() < 0 or phases.max() >= n):
        raise OutOfRangeError("phase entries must lie in [0, N)")
    phases.setflags(write=False)
    return phases


def _check_family_indices(n: int, *ks: int) -> Factorization:
    """factorize(n), after checking that every family index k lies in [1, p0)."""
    f = factorize(n)
    for k in ks:
        if not 1 <= k < f.least_prime:
            raise BadFamilyIndexError(f"family index k={k} outside [1, {f.least_prime})")
    return f


def _check_in_range(n: int, **values: int) -> None:
    for name, value in values.items():
        if not 0 <= value < n:
            raise OutOfRangeError(f"{name}={value} outside [0, {n})")


@dataclass(eq=False)
class PhaseMatrix:
    """One complementary set: N x N integer phases mod N."""

    n: int
    k: int
    m: int
    phases: np.ndarray

    def __post_init__(self) -> None:
        self.phases = _checked_phases(self.phases, (self.n, self.n), self.n)

    @classmethod
    def _view(cls, n: int, k: int, m: int, phases: np.ndarray) -> PhaseMatrix:
        """A member of a family whose array was checked as a whole: no copy, no check."""
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
    """K phase matrices held as one read-only (K, N, N) int64 array.

    kind "ccc":  the N sets sharing one family index k; member u is (k, u).
    kind "qcss": all N*(p0-1) sets; member u is (u // N + 1, u % N), so
                 u = (k-1)*N + m.
    Members are PhaseMatrix views of phases[u], labelled by their position.
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


def _broadcast(perm: Permutation, ks: Sequence[int], ms: Sequence[int]) -> np.ndarray:
    """(len(ks) * len(ms), N, N) phases k*s*pi(t) + m*t (mod N), k-major:
    the set (ks[i], ms[j]) sits at i * len(ms) + j."""
    n = perm.modulus
    pi = np.asarray(perm.table, dtype=np.int64)
    k = np.asarray(ks, dtype=np.int64)[:, None, None, None]
    m = np.asarray(ms, dtype=np.int64)[None, :, None, None]
    s = np.arange(n, dtype=np.int64)[:, None]
    t = np.arange(n, dtype=np.int64)
    phases = k * s * pi + m * t
    return np.remainder(phases, n, out=phases).reshape(-1, n, n)


def phase(k: int, m: int, s: int, t: int, perm: Permutation) -> int:
    """Single phase value k*s*pi(t) + m*t (mod N)."""
    n = perm.modulus
    _check_family_indices(n, k)
    _check_in_range(n, m=m, s=s, t=t)
    return (k * s * perm.table[t] + m * t) % n


def build_set(k: int, m: int, perm: Permutation) -> PhaseMatrix:
    """Phase matrix of one complementary set, rows indexed by s."""
    n = perm.modulus
    _check_family_indices(n, k)
    _check_in_range(n, m=m)
    return PhaseMatrix(n, k, m, _broadcast(perm, [k], [m])[0])


def build_ccc(k: int, perm: Permutation) -> SequenceFamily:
    """The complete complementary code for one family index: m = 0..N-1."""
    n = perm.modulus
    return SequenceFamily(n, "ccc", _broadcast(perm, [k], range(n)), k=k)


def build_qcss(f: Factorization, perm: Permutation) -> SequenceFamily:
    """All p0-1 families pooled into one set of N*(p0-1) members.

    Member u = (k-1)*N + m; one shared permutation across every family.
    """
    if perm.modulus != f.n:
        raise ShapeMismatchError(
            f"permutation modulus {perm.modulus} does not match n = {f.n}"
        )
    return SequenceFamily(f.n, "qcss", _broadcast(perm, range(1, f.least_prime), range(f.n)))
