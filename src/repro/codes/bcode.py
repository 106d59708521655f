"""The B-Code (paper Sec. 4.1, Table 1; refs. [55], [57]).

B-codes are (n, n−2) MDS array codes with *optimal* encoding and update
complexity: each column holds (n−2)/2 data pieces plus one parity piece,
each parity is the XOR of the n−2 data pieces "incident" to its column,
and every data piece appears in exactly two parities — so updating one
data piece rewrites exactly two parity pieces, the minimum possible for
a 2-erasure MDS code.

The construction follows the graph view of [57] ("Low-Density MDS Codes
and Factors of Complete Graphs"): the data pieces of B(n) are the edges
of the complete graph K_n minus a perfect matching; column v's parity
covers the edges incident to vertex v; each edge is *stored* in a column
that is not one of its endpoints.  We realize the storage assignment
cyclically — the edge {u, u+d} lives in column u + f(d) — and find the
offset vector f by search, verifying 2-erasure decodability (the search
succeeds for even n with n+1 prime, the family where perfect
one-factorizations of K_{n+1} are known; known-good offsets ship
precomputed).

The OCR of the published Table 1a is ambiguous in places, so
:func:`table_1a` prints *this* construction's (6,4) instance in the
paper's lettering (a..f, A..F), and the benchmark records it as a
reconstruction that satisfies every property the paper states.
"""

from __future__ import annotations

import itertools
from typing import Optional

from .linear import Cell, LinearXorCode
from .xor_math import XorTally

__all__ = ["BCode", "bcode_layout", "table_1a"]

#: Known-good cyclic offsets f(d) per code length (found by
#: :func:`_search_offsets`, pinned for determinism).
_KNOWN_OFFSETS: dict[int, dict[int, int]] = {
    6: {1: 2, 2: 5},
    10: {1: 2, 2: 5, 3: 9, 4: 8},
    12: {1: 2, 2: 6, 3: 11, 4: 9, 5: 3},
}


def _assignment(n: int, offsets: dict[int, int]) -> Optional[dict[frozenset, int]]:
    """Cyclic storage assignment, or None if it violates constraints."""
    assign: dict[frozenset, int] = {}
    for d, f in offsets.items():
        for u in range(n):
            edge = frozenset((u, (u + d) % n))
            col = (u + f) % n
            if col in edge:
                return None
            assign[edge] = col
    counts: dict[int, int] = {}
    for col in assign.values():
        counts[col] = counts.get(col, 0) + 1
    if set(counts.values()) != {(n - 2) // 2}:
        return None
    return assign


def _peels(n: int, assign: dict[frozenset, int]) -> bool:
    """Whether every 2-column erasure decodes by pure peeling."""
    edges = list(assign)
    incident = {w: [e for e in edges if w in e] for w in range(n)}
    for x, y in itertools.combinations(range(n), 2):
        unk = {e for e in edges if assign[e] in (x, y)}
        progress = True
        while unk and progress:
            progress = False
            for w in range(n):
                if w in (x, y):
                    continue
                live = [e for e in incident[w] if e in unk]
                if len(live) == 1:
                    unk.discard(live[0])
                    progress = True
        if unk:
            return False
    return True


def _search_offsets(n: int) -> dict[int, int]:
    """Exhaustive search over cyclic offset vectors."""
    diffs = list(range(1, n // 2))
    options = [[f for f in range(1, n) if f != d] for d in diffs]
    for combo in itertools.product(*options):
        offsets = dict(zip(diffs, combo))
        assign = _assignment(n, offsets)
        if assign is not None and _peels(n, assign):
            return offsets
    raise ValueError(
        f"no cyclic B-code of length {n}; supported lengths have n even "
        f"and n+1 prime (6, 10, 12, 16, ...)"
    )


def bcode_layout(n: int) -> tuple[list[Cell], dict[Cell, tuple[Cell, ...]], dict]:
    """Build the B(n) cell layout.

    Returns (data_cells, parity_map, edge_info) where ``edge_info`` maps
    each data cell to its graph edge (for table rendering).
    """
    if n < 4 or n % 2:
        raise ValueError("B-code length must be even and at least 4")
    offsets = _KNOWN_OFFSETS.get(n)
    if offsets is None:
        offsets = _search_offsets(n)
    assign = _assignment(n, offsets)
    if assign is None or not _peels(n, assign):
        raise ValueError(f"offset table for n={n} is invalid")
    rows = (n - 2) // 2 + 1  # data rows + one parity row
    by_col: dict[int, list[frozenset]] = {c: [] for c in range(n)}
    for edge in sorted(assign, key=lambda e: tuple(sorted(e))):
        by_col[assign[edge]].append(edge)
    data_cells: list[Cell] = []
    cell_of_edge: dict[frozenset, Cell] = {}
    edge_info: dict[Cell, frozenset] = {}
    for c in range(n):
        for r, edge in enumerate(by_col[c]):
            cell = (c, r)
            data_cells.append(cell)
            cell_of_edge[edge] = cell
            edge_info[cell] = edge
    parity_map: dict[Cell, tuple[Cell, ...]] = {}
    for v in range(n):
        incident = [cell_of_edge[e] for e in sorted(assign, key=lambda e: tuple(sorted(e))) if v in e]
        parity_map[(v, rows - 1)] = tuple(incident)
    return data_cells, parity_map, edge_info


class BCode(LinearXorCode):
    """B(n): the (n, n−2) low-density MDS array code of Table 1."""

    def __init__(self, n: int = 6, tally: Optional[XorTally] = None):
        data_cells, parity_map, edge_info = bcode_layout(n)
        rows = (n - 2) // 2 + 1
        super().__init__(
            n, rows, data_cells, parity_map, name=f"bcode({n},{n - 2})", tally=tally
        )
        self.edge_info = edge_info


def _letters(code: BCode) -> dict[Cell, str]:
    """Paper-style labels for B(6): column i holds one lowercase and one
    uppercase letter (a..f, A..F by column)."""
    if code.n != 6:
        raise ValueError("letter labels are defined for the (6,4) instance")
    labels: dict[Cell, str] = {}
    for c in range(6):
        labels[(c, 0)] = chr(ord("a") + c)
        labels[(c, 1)] = chr(ord("A") + c)
    return labels


def table_1a(code: Optional[BCode] = None) -> list[list[str]]:
    """Render the (6,4) B-code placement as Table 1a: one list per
    column: [data piece, data piece, parity expression]."""
    code = code or BCode(6)
    labels = _letters(code)
    table = []
    for c in range(6):
        parity_cell = (c, code.rows - 1)
        expr = "+".join(labels[d] for d in code.parity_map[parity_cell])
        table.append([labels[(c, 0)], labels[(c, 1)], expr])
    return table
