"""Tests for the anticommutation kernels (all three must agree)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pauli import (
    AnticommuteOracle,
    PauliSet,
    anticommute_matrix,
    random_pauli_set,
)
from repro.pauli.anticommute import (
    anticommute_pairs_chars,
    anticommute_pairs_iooh,
    anticommute_pairs_symplectic,
)
from repro.pauli.encoding import encode_iooh, encode_symplectic, strings_to_chars


def brute_force_anticommute(a: str, b: str) -> bool:
    """Matrix-level ground truth: build the full 2^N operators and test
    PA @ PB + PB @ PA == 0."""
    mats = {
        "I": np.eye(2, dtype=complex),
        "X": np.array([[0, 1], [1, 0]], dtype=complex),
        "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
        "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    }

    def kron_all(s):
        out = np.array([[1.0 + 0j]])
        for ch in s:
            out = np.kron(out, mats[ch])
        return out

    A, B = kron_all(a), kron_all(b)
    return np.allclose(A @ B + B @ A, 0)


class TestAgainstMatrixGroundTruth:
    @pytest.mark.parametrize(
        "a,b",
        [
            ("X", "Y"),
            ("X", "X"),
            ("X", "I"),
            ("XY", "YX"),
            ("XX", "YY"),
            ("XI", "IX"),
            ("XYZ", "ZZZ"),
            ("XYZI", "IZYX"),
        ],
    )
    def test_pairs(self, a, b):
        chars = strings_to_chars([a, b])
        got = anticommute_pairs_chars(chars, np.array([0]), np.array([1]))[0]
        assert bool(got) == brute_force_anticommute(a, b)

    @given(st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=25, deadline=None)
    def test_random_small_strings(self, seed):
        rng = np.random.default_rng(seed)
        nq = int(rng.integers(1, 5))
        chars = rng.integers(0, 4, size=(2, nq), dtype=np.uint8)
        from repro.pauli.encoding import chars_to_strings

        a, b = chars_to_strings(chars)
        got = anticommute_pairs_chars(chars, np.array([0]), np.array([1]))[0]
        assert bool(got) == brute_force_anticommute(a, b)


class TestKernelAgreement:
    @given(
        st.integers(min_value=2, max_value=40),
        st.integers(min_value=1, max_value=70),
        st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=40, deadline=None)
    def test_three_kernels_agree(self, n, nq, seed):
        rng = np.random.default_rng(seed)
        chars = rng.integers(0, 4, size=(n, nq), dtype=np.uint8)
        ii, jj = np.triu_indices(n, k=1)
        ref = anticommute_pairs_chars(chars, ii, jj)
        packed = encode_iooh(chars)
        np.testing.assert_array_equal(anticommute_pairs_iooh(packed, ii, jj), ref)
        x, z = encode_symplectic(chars)
        np.testing.assert_array_equal(
            anticommute_pairs_symplectic(x, z, ii, jj), ref
        )

    @given(
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=1, max_value=90),
        st.integers(min_value=0, max_value=200),
        st.integers(min_value=1, max_value=9),
        st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=40, deadline=None)
    def test_xor_folded_iooh_gather(self, n, nq, n_pairs, chunk, seed):
        """The XOR-folded gathered IOOH kernel matches the chars and
        symplectic kernels on arbitrary (unsorted, repeated, diagonal)
        pair lists, across gather-chunk boundaries and word counts."""
        import repro.pauli.anticommute as ac

        rng = np.random.default_rng(seed)
        chars = rng.integers(0, 4, size=(n, nq), dtype=np.uint8)
        i = rng.integers(0, n, size=n_pairs)
        j = rng.integers(0, n, size=n_pairs)
        ref = anticommute_pairs_chars(chars, i, j)
        x, z = encode_symplectic(chars)
        np.testing.assert_array_equal(anticommute_pairs_symplectic(x, z, i, j), ref)
        original = ac.IOOH_GATHER_CHUNK
        ac.IOOH_GATHER_CHUNK = chunk
        try:
            got = anticommute_pairs_iooh(encode_iooh(chars), i, j)
        finally:
            ac.IOOH_GATHER_CHUNK = original
        assert got.dtype == np.uint8
        np.testing.assert_array_equal(got, ref)


class TestOracle:
    def test_kernels_give_same_answers(self):
        ps = random_pauli_set(30, 8, seed=3)
        ii, jj = np.triu_indices(30, k=1)
        ref = AnticommuteOracle(ps.chars, "chars").anticommute(ii, jj)
        for kernel in ("iooh", "symplectic"):
            got = AnticommuteOracle(ps.chars, kernel).anticommute(ii, jj)
            np.testing.assert_array_equal(got, ref)

    def test_commute_edges_is_complement(self):
        ps = random_pauli_set(20, 6, seed=4)
        orc = ps.oracle()
        ii, jj = np.triu_indices(20, k=1)
        anti = orc.anticommute(ii, jj)
        comm = orc.commute_edges(ii, jj)
        np.testing.assert_array_equal(anti + comm, np.ones_like(anti))

    def test_unknown_kernel_raises(self):
        with pytest.raises(ValueError):
            AnticommuteOracle(np.zeros((2, 2), dtype=np.uint8), "bogus")

    def test_nbytes_positive(self):
        ps = random_pauli_set(10, 4, seed=0)
        assert ps.oracle().nbytes > 0
        assert AnticommuteOracle(ps.chars, "symplectic").nbytes > ps.chars.nbytes


class TestAnticommuteMatrix:
    def test_symmetric_zero_diagonal(self):
        ps = random_pauli_set(15, 5, seed=9)
        m = anticommute_matrix(ps.chars)
        assert (m == m.T).all()
        assert not m.diagonal().any()

    def test_identity_string_isolated(self):
        ps = PauliSet.from_strings(["IIII", "XXXX", "YZYZ"])
        m = anticommute_matrix(ps.chars)
        assert not m[0].any()  # identity commutes with everything

    def test_too_large_raises(self):
        with pytest.raises(MemoryError):
            anticommute_matrix(np.zeros((20_001, 2), dtype=np.uint8))
