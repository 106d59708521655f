"""GF(2^8) arithmetic for Reed-Solomon coding.

Table-driven field arithmetic over the AES polynomial x^8+x^4+x^3+x+1
(0x11d generator convention).  Vectorized paths multiply whole NumPy
byte arrays by a scalar via a single table gather, per the hpc-parallel
guides (no Python-level byte loops on the hot path).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "GF_EXP",
    "GF_LOG",
    "gf_inv",
    "gf_pow",
    "gf_matmul",
    "gf_mat_inv",
    "gf_vandermonde",
]

_PRIM_POLY = 0x11D

# exp/log tables: GF_EXP[i] = g^i (g = 2), doubled for overflow-free index
GF_EXP = np.zeros(512, dtype=np.uint8)
GF_LOG = np.zeros(256, dtype=np.int32)
_x = 1
for _i in range(255):
    GF_EXP[_i] = _x
    GF_LOG[_x] = _i
    _x <<= 1
    if _x & 0x100:
        _x ^= _PRIM_POLY
GF_EXP[255:510] = GF_EXP[:255]

# full 256x256 multiplication table (64 KiB): MUL[a, b] = a*b
_A = np.arange(256, dtype=np.int32)
_MUL = np.zeros((256, 256), dtype=np.uint8)
_nzA, _nzB = np.meshgrid(_A[1:], _A[1:], indexing="ij")
_MUL[1:, 1:] = GF_EXP[(GF_LOG[_nzA] + GF_LOG[_nzB]) % 255]
MUL_TABLE = _MUL


def gf_pow(a: int, e: int) -> int:
    """a**e in the field (e may be any integer)."""
    if a == 0:
        if e <= 0:
            raise ZeroDivisionError("0 has no inverse")
        return 0
    return int(GF_EXP[(GF_LOG[a] * e) % 255])


def gf_inv(a: int) -> int:
    """Multiplicative inverse."""
    if a == 0:
        raise ZeroDivisionError("0 has no inverse in GF(256)")
    return int(GF_EXP[255 - GF_LOG[a]])


def gf_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product over GF(256) (small matrices; O(n^3) table lookups)."""
    rows, inner = a.shape
    inner2, cols = b.shape
    if inner != inner2:
        raise ValueError("shape mismatch")
    out = np.zeros((rows, cols), dtype=np.uint8)
    for i in range(rows):
        for j in range(cols):
            acc = 0
            for t in range(inner):
                acc ^= MUL_TABLE[a[i, t], b[t, j]]
            out[i, j] = acc
    return out


def gf_mat_inv(mat: np.ndarray) -> np.ndarray:
    """Invert a square matrix over GF(256) by Gauss-Jordan elimination."""
    n = mat.shape[0]
    if mat.shape != (n, n):
        raise ValueError("matrix must be square")
    a = mat.astype(np.uint8).copy()
    inv = np.eye(n, dtype=np.uint8)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r, col]), None)
        if pivot is None:
            raise ValueError("singular matrix over GF(256)")
        if pivot != col:
            a[[col, pivot]] = a[[pivot, col]]
            inv[[col, pivot]] = inv[[pivot, col]]
        scale = gf_inv(int(a[col, col]))
        a[col] = MUL_TABLE[scale][a[col]]
        inv[col] = MUL_TABLE[scale][inv[col]]
        for r in range(n):
            if r != col and a[r, col]:
                factor = int(a[r, col])
                a[r] ^= MUL_TABLE[factor][a[col]]
                inv[r] ^= MUL_TABLE[factor][inv[col]]
    return inv


def gf_vandermonde(rows: int, cols: int) -> np.ndarray:
    """Vandermonde matrix V[i, j] = i**j over GF(256) (i are distinct)."""
    if rows > 256:
        raise ValueError("at most 256 distinct evaluation points")
    v = np.zeros((rows, cols), dtype=np.uint8)
    for i in range(rows):
        for j in range(cols):
            v[i, j] = gf_pow(i, j) if i else (1 if j == 0 else 0)
    return v
