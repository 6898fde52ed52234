import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcss import (
    BadFamilyIndexError,
    OutOfRangeError,
    PhaseMatrix,
    SequenceFamily,
    ShapeMismatchError,
    build_ccc,
    build_qcss,
    build_set,
    factorize,
    phase,
    pi_perm,
)
from qcss import cli, codebook


class TestPhase:
    def test_n35_values(self, perm35):
        assert phase(1, 0, 1, 2, perm35) == 4
        assert phase(2, 0, 1, 3, perm35) == 10

    def test_zero_row(self, perm35):
        assert all(phase(k, 0, 0, t, perm35) == 0 for k in (1, 2) for t in (0, 5, 34))

    def test_bad_family_index(self, perm35):
        for k in (0, 5, -1):
            with pytest.raises(BadFamilyIndexError):
                phase(k, 0, 1, 1, perm35)

    def test_out_of_range(self, perm35):
        with pytest.raises(OutOfRangeError):
            phase(1, 35, 1, 1, perm35)
        with pytest.raises(OutOfRangeError):
            phase(1, 0, -1, 1, perm35)
        with pytest.raises(OutOfRangeError):
            phase(1, 0, 1, 35, perm35)


class TestBuildSet:
    def test_reference_block_k1(self, perm35, ref35_k1):
        mat = build_set(1, 0, perm35)
        assert np.array_equal(mat.phases, ref35_k1)

    def test_reference_block_k2(self, perm35, ref35_k2):
        mat = build_set(2, 0, perm35)
        assert np.array_equal(mat.phases, ref35_k2)

    def test_n3_default_is_product_table(self):
        # For n = 3 the default exponent makes the power map the identity,
        # so the phases collapse to s*t mod 3.
        perm = pi_perm(factorize(3))
        mat = build_set(1, 0, perm)
        expected = [[(s * t) % 3 for t in range(3)] for s in range(3)]
        assert mat.phases.tolist() == expected

    def test_row_structure(self, perm35, ref35_k1, ref35_k2):
        # With m = 0, row 1 is k*pi(t) mod N: a scaled copy of the permutation.
        table = np.asarray(perm35.table)
        assert np.array_equal(ref35_k1[1], table % 35)
        assert np.array_equal(ref35_k2[1], 2 * table % 35)

    def test_nonzero_m_row0(self, perm15):
        mat = build_set(1, 4, perm15)
        assert mat.phases[0].tolist() == [(4 * t) % 15 for t in range(15)]

    def test_deterministic(self, perm15):
        a = build_set(2, 7, perm15)
        b = build_set(2, 7, perm15)
        assert a == b
        assert a.phases.tobytes() == b.phases.tobytes()

    def test_alphabet_closure(self, perm15):
        mat = build_set(2, 9, perm15)
        assert mat.phases.dtype == np.int64
        assert mat.phases.min() >= 0 and mat.phases.max() < 15

    def test_phases_read_only(self, perm15):
        mat = build_set(1, 0, perm15)
        with pytest.raises(ValueError):
            mat.phases[0, 0] = 1


class TestBuildCcc:
    def test_member_counts(self, perm35, perm15):
        fam35 = build_ccc(1, perm35)
        assert len(fam35) == 35
        assert all(mat.phases.shape == (35, 35) for mat in fam35)
        assert len(build_ccc(1, perm15)) == 15

    def test_member_order(self, perm15):
        fam = build_ccc(2, perm15)
        assert [(mat.k, mat.m) for mat in fam] == [(2, m) for m in range(15)]

    def test_four_distinct_families(self, perm35):
        fams = [build_ccc(k, perm35) for k in range(1, 5)]
        signatures = {tuple(mat.phases.tobytes() for mat in fam) for fam in fams}
        assert len(signatures) == 4

    def test_bad_family_index(self, perm35):
        with pytest.raises(BadFamilyIndexError):
            build_ccc(5, perm35)


class TestBuildQcss:
    @pytest.mark.parametrize("n,size", [(15, 30), (35, 140), (121, 1210)])
    def test_member_counts(self, n, size):
        f = factorize(n)
        fam = build_qcss(f, pi_perm(f))
        assert len(fam) == size

    def test_global_index_order(self, perm15):
        f = factorize(15)
        fam = build_qcss(f, perm15)
        for u, mat in enumerate(fam):
            assert (mat.k, mat.m) == (u // 15 + 1, u % 15)

    @pytest.mark.parametrize("n", [9, 15, 21, 25, 27, 35])
    def test_members_pairwise_distinct(self, n):
        f = factorize(n)
        fam = build_qcss(f, pi_perm(f))
        assert len({mat.phases.tobytes() for mat in fam}) == len(fam)

    def test_modulus_mismatch(self, perm15):
        with pytest.raises(ShapeMismatchError):
            build_qcss(factorize(35), perm15)


class TestFamilyType:
    def test_rejects_wrong_member_count(self, perm15):
        # Members are labelled by their position, so a family cannot hold
        # them out of order; it can only hold the wrong number of them.
        phases = build_ccc(1, perm15).phases
        with pytest.raises(ShapeMismatchError):
            SequenceFamily(15, "ccc", phases[1:], k=1)
        with pytest.raises(ShapeMismatchError):
            SequenceFamily(15, "qcss", phases)  # the N = 15 pool has 30 members

    def test_rejects_bad_kind_and_index(self, perm15):
        phases = build_ccc(1, perm15).phases
        with pytest.raises(ShapeMismatchError):
            SequenceFamily(15, "pool", phases, k=1)
        with pytest.raises(ShapeMismatchError):
            SequenceFamily(15, "ccc", phases)
        with pytest.raises(BadFamilyIndexError):
            SequenceFamily(15, "ccc", phases, k=3)
        with pytest.raises(OutOfRangeError):
            SequenceFamily(15, "ccc", phases + 1, k=1)

    def test_rejects_bad_phases(self):
        with pytest.raises(OutOfRangeError):
            PhaseMatrix(3, 1, 0, np.full((3, 3), 3))
        with pytest.raises(ShapeMismatchError):
            PhaseMatrix(3, 1, 0, np.zeros((3, 4), dtype=np.int64))


@st.composite
def construction(draw):
    """(f, perm) for an odd N <= 45 and an exponent the construction admits."""
    f = factorize(draw(st.integers(1, 22).map(lambda h: 2 * h + 1)))
    p = f.largest_prime
    e = draw(st.sampled_from([e for e in range(1, 2 * p) if math.gcd(p - 1, e) == 1]))
    return f, pi_perm(f, e)


class TestFamilyArray:
    @settings(max_examples=40, deadline=None)
    @given(construction(), st.data())
    def test_pool_is_one_array_of_views(self, fp, data):
        f, perm = fp
        n = f.n
        family = build_qcss(f, perm)
        assert family.phases.shape == (len(family), n, n) and family.phases.dtype == np.int64
        assert family.phases.flags.c_contiguous and not family.phases.flags.writeable
        for _ in range(5):
            u = data.draw(st.integers(0, len(family) - 1), label="u")
            s, t = data.draw(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), label="s, t")
            k, m = u // n + 1, u % n
            assert family.phases[u, s, t] == phase(k, m, s, t, perm)
            mat = family[u]
            assert (mat.n, mat.k, mat.m) == (n, k, m)
            assert np.shares_memory(mat.phases, family.phases)
            with pytest.raises(ValueError):
                mat.phases[s, t] = 0

    def test_members_are_stable_views(self, perm15):
        family = build_ccc(2, perm15)
        assert [(mat.k, mat.m) for mat in family] == [(2, m) for m in range(15)]
        assert all(a is b for a, b in zip(family, family.members))
        assert family[3] is family.members[3]

    def test_corrupted_copy_leaves_source(self, perm15):
        family = build_qcss(factorize(15), perm15)
        before = family.phases.copy()
        corrupted = cli._corrupt_member(family, 2, 7, 3, 5)  # member u = 15 + 7
        assert np.array_equal(family.phases, before)
        assert not np.shares_memory(corrupted.phases, family.phases)
        assert corrupted.phases[22, 3, 5] == (before[22, 3, 5] + 1) % 15
        assert np.count_nonzero(corrupted.phases != before) == 1
        assert corrupted[22].k == 2 and corrupted[22].m == 7
        other = build_ccc(1, perm15)
        assert cli._corrupt_member(other, 2, 7, 3, 5) is other  # no member (2, 7)

    def test_pool_factorizes_once(self, monkeypatch, perm15):
        calls = []

        def counted(n):
            calls.append(n)
            return factorize(n)

        monkeypatch.setattr(codebook, "factorize", counted)
        build_qcss(factorize(15), perm15)
        assert len(calls) <= 1
