"""ASCII rendering of interconnect constructions (Figs. 3-5).

The paper's topology figures are wiring diagrams; this module
regenerates them as text so the benchmark artifacts contain the actual
constructions being analyzed.
"""

from __future__ import annotations

from .graph import TopologyGraph

__all__ = ["render_ring_construction"]


def render_ring_construction(topo: TopologyGraph, width: int = 64) -> str:
    """A Fig. 5-style drawing: the switch ring with node chords.

    Switches are laid out on one line (the ring wraps around); below,
    each compute node is drawn as a chord connecting its attachment
    columns — local chords for the naive construction, long diameters
    for Construction 2.1.
    """
    n = topo.num_switches
    cell = max(4, (width - 2) // max(n, 1))
    header = "".join(f"s{j}".ljust(cell) for j in range(n))
    ring = ("<" + "-" * (len(header) - 2) + ">")  # the ring closure
    lines = [header, ring]
    pairs = topo.node_switch_pairs()
    for node in range(min(topo.num_nodes, topo.num_switches)):
        attached = pairs[node]
        if len(attached) < 2:
            continue
        row = [" "] * len(header)
        cols = sorted(attached)
        for s in cols:
            row[s * cell] = "+"
        first, last = cols[0] * cell, cols[-1] * cell
        for x in range(first + 1, last):
            if row[x] == " ":
                row[x] = "-"
        label = f" c{node}"
        lines.append("".join(row).rstrip() + label)
    return "\n".join(lines)
