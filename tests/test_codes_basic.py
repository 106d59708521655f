"""Tests for the erasure-code layer: base API, GF(256), RS, baselines."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codes import (
    DecodeError,
    Mirroring,
    ReedSolomon,
    SingleParity,
    XorTally,
    verify_mds,
    xor_reduce,
    zeros_piece,
)
from repro.codes.xor_math import as_piece, xor_into
from repro.codes.gf256 import (
    MUL_TABLE,
    gf_inv,
    gf_mat_inv,
    gf_matmul,
    gf_pow,
    gf_vandermonde,
)


def gf_mul(a, b):
    """Scalar field multiplication: one lookup in the 256x256 table."""
    return int(MUL_TABLE[a, b])


class TestXorMath:
    def test_xor_reduce_counts(self):
        tally = XorTally()
        pieces = [np.full(8, v, dtype=np.uint8) for v in (1, 2, 4)]
        out = xor_reduce(pieces, 8, tally)
        assert out.tolist() == [7] * 8
        assert tally.count == 2

    def test_xor_reduce_empty_is_zero(self):
        assert xor_reduce([], 4).tolist() == [0, 0, 0, 0]

    def test_tally_reset(self):
        t = XorTally()
        t.count = 5
        assert t.reset() == 5
        assert t.count == 0

    def test_zeros_piece(self):
        assert zeros_piece(3).tolist() == [0, 0, 0]

    def test_as_piece_bytes_is_readonly_view(self):
        arr = as_piece(b"\x01\x02\x03")
        assert arr.tolist() == [1, 2, 3]
        assert not arr.flags.writeable

    def test_as_piece_writable_from_bytes(self):
        # Regression: frombuffer(bytes) is read-only, so using it as an
        # xor_into destination raised ValueError.
        arr = as_piece(b"\x01\x02\x03", writable=True)
        assert arr.flags.writeable
        xor_into(arr, as_piece(b"\x03\x02\x01"))
        assert arr.tolist() == [2, 0, 2]

    def test_as_piece_writable_array_not_copied(self):
        src = np.array([1, 2, 3], dtype=np.uint8)
        assert as_piece(src, writable=True) is src

    def test_as_piece_readonly_array_copied_when_writable(self):
        src = np.array([1, 2, 3], dtype=np.uint8)
        src.flags.writeable = False
        out = as_piece(src, writable=True)
        assert out is not src
        assert out.flags.writeable

    def test_as_piece_accepts_memoryview(self):
        mv = memoryview(b"\x05\x06\x07\x08")[1:3]
        assert as_piece(mv).tolist() == [6, 7]

    def test_as_piece_rejects_wrong_dtype(self):
        with pytest.raises(TypeError):
            as_piece(np.array([1.0, 2.0]))

    def test_xor_reduce_accepts_iterator_without_len(self):
        tally = XorTally()
        pieces = (np.full(4, v, dtype=np.uint8) for v in (1, 2, 4))
        out = xor_reduce(pieces, 4, tally)
        assert out.tolist() == [7] * 4
        assert tally.count == 2


class TestGF256:
    def test_mul_identity_and_zero(self):
        for a in range(256):
            assert gf_mul(a, 1) == a
            assert gf_mul(a, 0) == 0

    def test_mul_commutative_sample(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            a, b = int(rng.integers(256)), int(rng.integers(256))
            assert gf_mul(a, b) == gf_mul(b, a)

    def test_mul_associative_sample(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            a, b, c = (int(rng.integers(256)) for _ in range(3))
            assert gf_mul(gf_mul(a, b), c) == gf_mul(a, gf_mul(b, c))

    def test_distributive_sample(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            a, b, c = (int(rng.integers(256)) for _ in range(3))
            assert gf_mul(a, b ^ c) == gf_mul(a, b) ^ gf_mul(a, c)

    def test_inverse_roundtrip(self):
        for a in range(1, 256):
            assert gf_mul(a, gf_inv(a)) == 1

    def test_zero_has_no_inverse(self):
        with pytest.raises(ZeroDivisionError):
            gf_inv(0)

    def test_div(self):
        assert gf_mul(gf_mul(7, 9), gf_inv(9)) == 7

    def test_pow(self):
        assert gf_pow(2, 0) == 1
        assert gf_pow(2, 1) == 2
        assert gf_pow(3, 255) == 1  # group order
        assert gf_pow(0, 3) == 0

    def test_mat_inv_roundtrip(self):
        rng = np.random.default_rng(3)
        m = gf_vandermonde(4, 4)
        inv = gf_mat_inv(m)
        eye = gf_matmul(m, inv)
        assert np.array_equal(eye, np.eye(4, dtype=np.uint8))

    def test_mat_inv_singular_raises(self):
        sing = np.array([[1, 1], [1, 1]], dtype=np.uint8)
        with pytest.raises(ValueError):
            gf_mat_inv(sing)

    def test_mul_table_consistent(self):
        assert MUL_TABLE[7, 9] == gf_mul(7, 9)


class TestReedSolomon:
    def test_systematic_prefix(self):
        rs = ReedSolomon(6, 4)
        data = bytes(range(40))
        shares = rs.encode(data)
        joined = b"".join(shares[:4])
        assert joined[: len(data)] == data

    @pytest.mark.parametrize("n,k", [(4, 2), (6, 4), (10, 8), (14, 10), (5, 1)])
    def test_mds(self, n, k):
        assert verify_mds(ReedSolomon(n, k), data_len=97)

    def test_roundtrip_empty(self):
        rs = ReedSolomon(5, 3)
        shares = rs.encode(b"")
        assert rs.decode({i: s for i, s in enumerate(shares)}, 0) == b""

    def test_too_few_shares(self):
        rs = ReedSolomon(6, 4)
        shares = rs.encode(b"hello world!")
        with pytest.raises(DecodeError):
            rs.decode({0: shares[0], 1: shares[1]}, 12)

    def test_wrong_share_size(self):
        rs = ReedSolomon(4, 2)
        shares = rs.encode(b"0123456789")
        with pytest.raises(DecodeError):
            rs.decode({0: shares[0], 1: shares[1][:-1]}, 10)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ReedSolomon(300, 4)
        with pytest.raises(ValueError):
            ReedSolomon(4, 4)

    def test_mult_accounting(self):
        rs = ReedSolomon(6, 4)
        rs.encode(bytes(64))
        assert rs.mults > 0

    @given(st.binary(min_size=0, max_size=300), st.integers(0, 50))
    @settings(max_examples=50, deadline=None)
    def test_property_roundtrip_any_k_subset(self, data, seed):
        rs = ReedSolomon(7, 4)
        shares = rs.encode(data)
        rng = np.random.default_rng(seed)
        keep = sorted(rng.choice(7, size=4, replace=False).tolist())
        out = rs.decode({i: shares[i] for i in keep}, len(data))
        assert out == data


class TestBaselines:
    def test_mirroring_roundtrip(self):
        m = Mirroring(3)
        shares = m.encode(b"abc")
        assert shares == [b"abc"] * 3
        assert m.decode({2: shares[2]}, 3) == b"abc"
        assert verify_mds(m, 32)

    def test_mirroring_no_shares(self):
        with pytest.raises(DecodeError):
            Mirroring(2).decode({}, 3)

    def test_mirroring_overhead(self):
        assert Mirroring(3).storage_overhead == 3.0

    def test_single_parity_roundtrip(self):
        c = SingleParity(5)
        data = bytes(range(64))
        shares = c.encode(data)
        for lost in range(5):
            rest = {i: s for i, s in enumerate(shares) if i != lost}
            assert c.decode(rest, len(data)) == data

    def test_single_parity_two_losses_fail(self):
        c = SingleParity(5)
        shares = c.encode(bytes(16))
        with pytest.raises(DecodeError):
            c.decode({i: shares[i] for i in range(2, 5)}, 16)

    def test_validation(self):
        with pytest.raises(ValueError):
            Mirroring(1)
        with pytest.raises(ValueError):
            SingleParity(1)

