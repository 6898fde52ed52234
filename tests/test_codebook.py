import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcss import (
    BadFamilyIndexError,
    EvenModulusError,
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
from qcss import codebook, correlation


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
        assert mat.phases.dtype == np.min_scalar_type(15 - 1)
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


class TestNonIntegerIndices:
    """A float or a bool index used to pass the range check: build_set(1.5, 0,
    perm) labelled its member k=1.5 with the phases of k = 1."""

    BAD = [1.5, 1.0, True, np.float64(1.0), np.True_]

    @pytest.mark.parametrize("k", BAD)
    def test_build_set_family_index(self, k, perm15):
        with pytest.raises(BadFamilyIndexError, match="family index k="):
            build_set(k, 0, perm15)

    @pytest.mark.parametrize("m", BAD)
    def test_build_set_set_index(self, m, perm15):
        with pytest.raises(OutOfRangeError, match="m="):
            build_set(1, m, perm15)

    @pytest.mark.parametrize("k", BAD)
    def test_build_ccc(self, k, perm15):
        with pytest.raises(BadFamilyIndexError):
            build_ccc(k, perm15)

    @pytest.mark.parametrize("k", BAD)
    def test_verify_ccc_exact(self, k, perm15):
        with pytest.raises(BadFamilyIndexError):
            correlation.verify_ccc_exact(k, perm15)

    @pytest.mark.parametrize("index", range(4))
    @pytest.mark.parametrize("bad", BAD)
    def test_phase(self, index, bad, perm15):
        args = [1, 2, 3, 4]
        args[index] = bad
        with pytest.raises(BadFamilyIndexError if index == 0 else OutOfRangeError):
            phase(*args, perm15)

    def test_numpy_integers_accepted(self, perm15):
        mat = build_set(np.int64(1), np.int32(4), perm15)
        assert mat == build_set(1, 4, perm15)
        assert phase(np.int8(1), 0, np.uint16(1), 2, perm15) == phase(1, 0, 1, 2, perm15)


class TestCompactPhases:
    """Phases are stored in np.min_scalar_type(N - 1), uint8 up to N = 255:
    entries that are not integers are refused, never cast, and the dtype
    boundaries hold."""

    NON_INTEGER = {
        "float": np.array([[0.5, 1.9, 2.2], [0, 0, 0], [1, 1, 1]]),  # was stored as [[0, 1, 2], ...]
        "bool": np.eye(3, dtype=bool),
        "str": np.array([["0", "1", "2"]] * 3),
        "object": np.array([[0, 1, 2]] * 3, dtype=object),
    }

    @pytest.mark.parametrize("cells", NON_INTEGER.values(), ids=NON_INTEGER.keys())
    @pytest.mark.parametrize("holder", ["PhaseMatrix", "SequenceFamily"])
    def test_non_integer_phases_refused(self, cells, holder):
        with pytest.raises(OutOfRangeError, match="phase entries must be integers"):
            if holder == "PhaseMatrix":
                PhaseMatrix(3, 1, 0, cells)
            else:
                SequenceFamily(3, "ccc", np.stack([cells] * 3), k=1)

    @pytest.mark.parametrize("dtype", [np.int32, np.uint16])
    def test_other_integer_types_accepted(self, dtype, perm15):
        want = build_ccc(1, perm15)
        family = SequenceFamily(15, "ccc", want.phases.astype(dtype), k=1)
        mat = PhaseMatrix(15, 1, 4, want.phases[4].astype(dtype))
        assert family == want and mat == want[4]
        assert family.phases.dtype == mat.phases.dtype == np.uint8

    def test_corrupt_wraps_at_the_last_uint8_modulus(self):
        f = factorize(255)  # 3 * 5 * 17
        family = build_ccc(1, pi_perm(f))
        assert family.phases.dtype == np.uint8 and family.phases[254, 0, 1] == 254  # (1, 254): 254 * t
        corrupted = correlation._corrupt_member(family, 1, 254, 0, 1)
        assert corrupted.phases.dtype == np.uint8 and corrupted.phases[254, 0, 1] == 0
        assert np.count_nonzero(corrupted.phases != family.phases) == 1

    @pytest.mark.parametrize("n", [255, 257])
    def test_build_matches_closed_form_at_the_dtype_boundary(self, n):
        """build_ccc and build_set against k*s*pi(t) + m*t (mod N) in int64,
        for the largest family index, on both sides of the uint8 / uint16
        phase boundary. The build sums its two residues in a type that
        holds 2N - 2, uint16 at both moduli."""
        f = factorize(n)
        perm = pi_perm(f)
        k = f.least_prime - 1
        s, t = np.arange(n, dtype=np.int64)[:, None], np.arange(n, dtype=np.int64)
        family = build_ccc(k, perm)
        assert family.phases.dtype == np.min_scalar_type(n - 1)
        for m in range(n):
            want = (k * s * perm.table + m * t) % n
            assert np.array_equal(family.phases[m], want), m
            if m in (0, 1, n - 1):
                assert np.array_equal(build_set(k, m, perm).phases, want), m

    @pytest.mark.parametrize("n,kind", [(105, "qcss"), (225, "ccc")])
    def test_build_holds_no_int64_array(self, n, kind):
        """The int64 array alone was K*N*N*8 bytes: 18.5 MB for the N = 105
        pool, 91 MB for an N = 225 ccc."""
        f = factorize(n)
        perm = pi_perm(f)
        tracemalloc.start()
        try:
            family = build_qcss(f, perm) if kind == "qcss" else build_ccc(1, perm)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < len(family) * n * n * 8


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

    def test_lone_set_refuses_a_modulus_no_family_has(self):
        with pytest.raises(EvenModulusError):
            PhaseMatrix(15.0, 99, -3, np.zeros((15, 15), dtype=np.int64))

    @pytest.mark.parametrize("k", [0, 3, True, 1.5], ids=["0", "p0", "True", "1.5"])
    def test_lone_set_refuses_a_family_index(self, k):
        with pytest.raises(BadFamilyIndexError) as family:
            SequenceFamily(15, "ccc", np.zeros((15, 15, 15), dtype=np.int64), k=k)
        with pytest.raises(BadFamilyIndexError) as lone:
            PhaseMatrix(15, k, 0, np.zeros((15, 15), dtype=np.int64))
        assert str(lone.value) == str(family.value) == f"family index k={k} outside [1, 3)"

    @pytest.mark.parametrize("m", [-1, 15])
    def test_lone_set_refuses_a_set_index(self, m, perm15):
        with pytest.raises(OutOfRangeError) as built:
            build_set(1, m, perm15)
        with pytest.raises(OutOfRangeError) as lone:
            PhaseMatrix(15, 1, m, np.zeros((15, 15), dtype=np.int64))
        assert str(lone.value) == str(built.value) == f"m={m} outside [0, 15)"

    def test_unequal_to_other_types(self, perm15):
        family = build_ccc(1, perm15)
        for other in (None, 0, "ccc", (1, 0)):
            assert family != other and not family == other
            assert family[0] != other and not family[0] == other
        assert family != family[0] and family[0] != family


@st.composite
def construction(draw):
    """(f, perm) for an odd N <= 45 and an exponent the construction admits."""
    f = factorize(draw(st.integers(1, 22).map(lambda h: 2 * h + 1)))
    p = f.largest_prime
    e = draw(st.sampled_from([e for e in range(1, 2 * p) if math.gcd(p - 1, e) == 1]))
    return f, pi_perm(f, e)


class TestCallerArrays:
    """The constructors copy an array the caller can still write to."""

    def test_matrix_leaves_the_callers_array(self, perm15):
        a = build_set(1, 2, perm15).phases.copy()
        mat = PhaseMatrix(15, 1, 2, a)
        assert a.flags.writeable and not mat.phases.flags.writeable
        a[0, 0] = 7
        assert mat == build_set(1, 2, perm15)

    def test_family_leaves_the_callers_array(self, perm15):
        a = build_ccc(1, perm15).phases.copy()
        family = SequenceFamily(15, "ccc", a, k=1)
        assert a.flags.writeable and not family.phases.flags.writeable
        a[3, 0, 0] = 7
        assert family == build_ccc(1, perm15)
        assert family[3] == build_set(1, 3, perm15)

    def test_read_only_array_is_shared(self, perm15):
        source = build_ccc(1, perm15)
        assert SequenceFamily(15, "ccc", source.phases, k=1).phases is source.phases
        assert np.shares_memory(PhaseMatrix(15, 1, 4, source.phases[4]).phases, source.phases)


class TestFamilyArray:
    @settings(max_examples=40, deadline=None)
    @given(construction(), st.data())
    def test_pool_is_one_array_of_views(self, fp, data):
        f, perm = fp
        n = f.n
        family = build_qcss(f, perm)
        assert family.phases.shape == (len(family), n, n) and family.phases.dtype == np.min_scalar_type(n - 1)
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
        corrupted = correlation._corrupt_member(family, 2, 7, 3, 5)  # member u = 15 + 7
        assert np.array_equal(family.phases, before)
        assert not np.shares_memory(corrupted.phases, family.phases)
        assert corrupted.phases[22, 3, 5] == (before[22, 3, 5] + 1) % 15
        assert np.count_nonzero(corrupted.phases != before) == 1
        assert corrupted[22].k == 2 and corrupted[22].m == 7
        other = build_ccc(1, perm15)
        assert correlation._corrupt_member(other, 2, 7, 3, 5) is other  # no member (2, 7)

    def test_pool_factorizes_once(self, monkeypatch, perm15):
        calls = []

        def counted(n):
            calls.append(n)
            return factorize(n)

        monkeypatch.setattr(codebook, "factorize", counted)
        build_qcss(factorize(15), perm15)
        assert len(calls) <= 1
