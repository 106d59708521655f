"""Error-control codes for distributed storage (paper Sec. 4).

XOR-based MDS array codes — :class:`BCode` (Table 1), :class:`XCode`,
:class:`EvenOdd` — plus the :class:`ReedSolomon` comparator and RAID
baselines, all under the uniform :class:`ErasureCode` byte-block API
with XOR-operation accounting for the complexity claims.
"""

from .base import DecodeError, ErasureCode, verify_mds
from .bcode import BCode, bcode_layout, table_1a
from .evenodd import EvenOdd, EvenOddFast
from .linear import Cell, ChainStep, LinearXorCode
from .parity import Mirroring, SingleParity
from .reed_solomon import ReedSolomon
from .xcode import XCode
from .xor_math import XorTally, as_piece, xor_into, xor_reduce, zeros_piece

__all__ = [
    "BCode",
    "Cell",
    "ChainStep",
    "DecodeError",
    "ErasureCode",
    "EvenOdd",
    "EvenOddFast",
    "LinearXorCode",
    "Mirroring",
    "ReedSolomon",
    "SingleParity",
    "XCode",
    "XorTally",
    "as_piece",
    "bcode_layout",
    "table_1a",
    "verify_mds",
    "xor_into",
    "xor_reduce",
    "zeros_piece",
]
