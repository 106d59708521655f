"""Interconnect constructions from Section 2.1.

Four families:

- :func:`naive_ring` — Fig. 4a: each node cabled to its two *nearest*
  ring switches.  Easily partitioned by two switch failures (Fig. 4b).
- :func:`diameter_ring` — Construction 2.1 ("Diameters", Fig. 5): node
  ``c_i`` cabled to switches ``s_i`` and ``s_{(i + ⌊n/2⌋ + 1) mod n}``,
  i.e. to a maximally non-local pair, one less than a diameter apart so
  every node gets a *unique* switch pair.  Theorem 2.1: tolerates any 3
  faults without partitioning, losing at most min(n, 6) nodes; optimal
  (some 4-fault set partitions any degree-(2,4) ring construction).
- :func:`generalized_diameter_ring` — the paper's generalization to node
  degree dc > 2: each node's connections are spread as far apart around
  the ring as possible.
- :func:`clique_construction` — the generalization to a fully-connected
  switch network, with nodes on distinct switch pairs.

Plus two cluster shapes: :func:`fig1_testbed` (the paper's Caltech
testbed) and :func:`switch_planes` (isolated redundant planes, no switch
cables — a plain :class:`~repro.cluster.RainCluster`'s default).

All constructions allow ``num_nodes`` > ``num_switches`` by repeating the
pattern (``c_j`` attaches like ``c_{j mod n}``), matching the paper's
note that extra nodes only scale the constant in Theorem 2.1.
"""

from __future__ import annotations

from itertools import combinations

from .graph import TopologyGraph

__all__ = [
    "naive_ring",
    "diameter_ring",
    "generalized_diameter_ring",
    "clique_construction",
    "chordal_ring_graph",
    "constant_degree_diameter",
    "ring_switch_graph",
    "fig1_testbed",
    "switch_planes",
]

#: Fig. 1's balanced round over all C(4,2) switch pairs: each switch
#: appears in every consecutive window of two pairs exactly once, so ten
#: nodes spread as exactly five links per switch.
FIG1_PAIRS = ((0, 1), (2, 3), (0, 2), (1, 3), (0, 3), (1, 2))


def ring_switch_graph(topo: TopologyGraph) -> None:
    """Cable the switches of ``topo`` into a ring s_0 - s_1 - ... - s_0.

    Degenerate sizes are handled so constructions work at any scale:
    one switch needs no cables, and two switches get a single cable
    (``(0, 1)`` once — a modular ring would lay the same cable twice).
    """
    n = topo.num_switches
    if n < 1:
        raise ValueError("a switch ring needs at least 1 switch")
    if n == 1:
        return
    if n == 2:
        topo.connect_switches(0, 1)
        return
    for j in range(n):
        topo.connect_switches(j, (j + 1) % n)


def _check_counts(num_switches: int, num_nodes: int) -> int:
    if num_switches < 1:
        raise ValueError("need at least 1 switch")
    n = num_nodes if num_nodes is not None else num_switches
    if n < 1:
        raise ValueError("need at least 1 node")
    return n


def naive_ring(num_switches: int, num_nodes: int | None = None) -> TopologyGraph:
    """Fig. 4a: node ``c_i`` on its nearest switches ``s_i`` and ``s_{i+1}``.

    Relies entirely on the ring's own 1-fault tolerance: a single switch
    failure is survivable, but two failures can cut the ring into two
    arcs and partition the compute nodes (Fig. 4b).
    """
    n = _check_counts(num_switches, num_nodes)
    topo = TopologyGraph(
        name=f"naive-ring(n={num_switches}, nodes={n})",
        num_nodes=n,
        num_switches=num_switches,
        node_degree=2,
    )
    ring_switch_graph(topo)
    for i in range(n):
        base = i % num_switches
        topo.connect_node(i, base)
        topo.connect_node(i, (base + 1) % num_switches)
    return topo


def diameter_ring(num_switches: int, num_nodes: int | None = None) -> TopologyGraph:
    """Construction 2.1: node ``c_i`` on ``s_i`` and ``s_{(i+⌊n/2⌋+1) mod n}``.

    The offset ``⌊n/2⌋ + 1`` is one less than a ring diameter, so the n
    switch pairs ``{i, i+offset}`` are pairwise distinct and each node
    lands on a unique pair (the paper's Fig. 5 shows the odd and even
    cases).  Extra nodes repeat the pattern modulo n.
    """
    n = _check_counts(num_switches, num_nodes)
    offset = num_switches // 2 + 1
    topo = TopologyGraph(
        name=f"diameter-ring(n={num_switches}, nodes={n})",
        num_nodes=n,
        num_switches=num_switches,
        node_degree=2,
    )
    ring_switch_graph(topo)
    for i in range(n):
        base = i % num_switches
        second = (base + offset) % num_switches
        if second == base and num_switches > 1:
            # Tiny rings (n=2: offset ≡ 0 mod n) would double-cable the
            # node to its base switch; fall back to the neighbour so the
            # pair stays distinct whenever the ring allows it.
            second = (base + 1) % num_switches
        topo.connect_node(i, base)
        topo.connect_node(i, second)
    return topo


def generalized_diameter_ring(
    num_switches: int, node_degree: int, num_nodes: int | None = None
) -> TopologyGraph:
    """Degree-``dc`` generalization: each node's ``dc`` attachments are
    spread maximally evenly around the ring.

    Node ``c_i`` attaches to switches ``(i + round(j·n/dc) + j·δ) mod n``
    for ``j = 0..dc−1``, where the small shear ``δ`` keeps attachment
    sets distinct across nodes (the degree-2 case reduces to
    Construction 2.1's "one less than a diameter" trick).
    """
    n = _check_counts(num_switches, num_nodes)
    dc = node_degree
    if dc < 2:
        raise ValueError("node degree must be at least 2")
    if dc > num_switches:
        raise ValueError("node degree cannot exceed switch count")
    topo = TopologyGraph(
        name=f"gen-diameter-ring(n={num_switches}, dc={dc}, nodes={n})",
        num_nodes=n,
        num_switches=num_switches,
        node_degree=dc,
    )
    ring_switch_graph(topo)
    for i in range(n):
        base = i % num_switches
        attached: list[int] = []
        for j in range(dc):
            target = (base + (j * num_switches) // dc + j) % num_switches
            # Degree-2 matches Construction 2.1 exactly: offset ⌊n/2⌋+1.
            if target in attached:  # collision on tiny rings: walk forward
                target = next(
                    (base + k) % num_switches
                    for k in range(num_switches)
                    if (base + k) % num_switches not in attached
                )
            attached.append(target)
        for s in attached:
            topo.connect_node(i, s)
    return topo


def chordal_ring_graph(topo: TopologyGraph, strides: "tuple[int, ...]") -> None:
    """Cable switches as a circulant graph: the ring plus chords.

    For each stride ``t`` every switch ``j`` is additionally cabled to
    ``(j + t) mod n``.  Strides must be in ``[2, n // 2]``; the
    half-ring stride lays each chord once (``j ↔ j + n/2`` would
    otherwise appear twice).
    """
    n = topo.num_switches
    ring_switch_graph(topo)
    seen: set[tuple[int, int]] = set()
    for stride in strides:
        if not (2 <= stride <= n // 2):
            raise ValueError(
                f"chord stride {stride} out of range [2, {n // 2}] for n={n}"
            )
        for j in range(n):
            other = (j + stride) % n
            key = (min(j, other), max(j, other))
            if key in seen:
                continue
            seen.add(key)
            topo.connect_switches(j, other)


def constant_degree_diameter(
    num_switches: int,
    switch_degree: int = 4,
    node_degree: int = 2,
    num_nodes: int | None = None,
) -> TopologyGraph:
    """Constant-degree, low-diameter generalization of Construction 2.1.

    The ring's weakness at scale is its Θ(n) diameter: token and repair
    traffic on a 1000-switch ring crosses hundreds of hops.  Keeping
    every switch at a *constant* degree ``ds`` (the paper's premise —
    real switches have fixed port counts) we add ``(ds − 2) / 2`` chord
    strides spaced geometrically (≈ n^(1/k) apart), giving a circulant
    switch graph of diameter O(k · n^(1/k)).  Node attachments are then
    spread maximally around the ring exactly as in
    :func:`generalized_diameter_ring`, preserving the distinct
    attachment-set property that Theorem 2.1's fault tolerance rests on.
    """
    n = _check_counts(num_switches, num_nodes)
    if switch_degree < 2 or switch_degree % 2 != 0:
        raise ValueError("switch degree must be an even number >= 2")
    dc = node_degree
    if dc < 2:
        raise ValueError("node degree must be at least 2")
    if dc > num_switches:
        raise ValueError("node degree cannot exceed switch count")
    n_chords = (switch_degree - 2) // 2
    strides: list[int] = []
    for i in range(n_chords):
        t = round(num_switches ** ((i + 1) / (n_chords + 1)))
        t = max(2, min(t, num_switches // 2))
        if t not in strides and t <= num_switches // 2:
            strides.append(t)
    topo = TopologyGraph(
        name=(
            f"constant-degree-diameter(n={num_switches}, ds={switch_degree}, "
            f"dc={dc}, nodes={n})"
        ),
        num_nodes=n,
        num_switches=num_switches,
        node_degree=dc,
    )
    chordal_ring_graph(topo, tuple(strides))
    for i in range(n):
        base = i % num_switches
        attached: list[int] = []
        for j in range(dc):
            target = (base + (j * num_switches) // dc + j) % num_switches
            if target in attached:  # collision on tiny rings: walk forward
                target = next(
                    (base + k) % num_switches
                    for k in range(num_switches)
                    if (base + k) % num_switches not in attached
                )
            attached.append(target)
        for s in attached:
            topo.connect_node(i, s)
    return topo


def clique_construction(
    num_switches: int, num_nodes: int | None = None, node_degree: int = 2
) -> TopologyGraph:
    """Nodes of degree ``dc`` on a *fully connected* switch network.

    The paper generalizes the diameter construction to a clique of
    switches; with every switch adjacent to every other, resistance to
    partitioning is governed by giving nodes distinct attachment sets.
    Nodes are assigned the first ``num_nodes`` ``dc``-subsets of
    switches in lexicographic order (repeating if exhausted).
    """
    n = _check_counts(num_switches, num_nodes)
    dc = node_degree
    if dc < 1 or dc > num_switches:
        raise ValueError("invalid node degree for clique construction")
    topo = TopologyGraph(
        name=f"clique(n={num_switches}, dc={dc}, nodes={n})",
        num_nodes=n,
        num_switches=num_switches,
        node_degree=dc,
    )
    for a, b in combinations(range(num_switches), 2):
        topo.connect_switches(a, b)
    subsets = list(combinations(range(num_switches), dc))
    for i in range(n):
        for s in subsets[i % len(subsets)]:
            topo.connect_node(i, s)
    return topo


def fig1_testbed() -> TopologyGraph:
    """The paper's Caltech testbed (Fig. 1).

    "10 Pentium workstations ... each with two network interfaces ...
    connected via four eight-way Myrinet switches": a switch clique
    (3 mesh ports + 5 node ports = exactly eight-way), node ``c_i`` on
    the ``i``-th pair of :data:`FIG1_PAIRS`.  Any single element can
    fail with zero nodes lost; any two switch failures strand at most
    the 2 nodes attached to exactly that pair (Theorem 2.1's
    constant-loss accounting), with all survivors still connected.
    """
    topo = TopologyGraph(
        name="fig1-testbed(n=4, nodes=10)",
        num_nodes=10,
        num_switches=4,
        node_degree=2,
        switch_degree=8,
    )
    for a, b in combinations(range(4), 2):
        topo.connect_switches(a, b)
    for i in range(10):
        for s in FIG1_PAIRS[i % len(FIG1_PAIRS)]:
            topo.connect_node(i, s)
    return topo


def switch_planes(num_switches: int, num_nodes: int, nics: int) -> TopologyGraph:
    """Redundant isolated planes: NIC ``j`` of every node on switch
    ``j mod num_switches``, and no switch-to-switch cables."""
    n = _check_counts(num_switches, num_nodes)
    topo = TopologyGraph(
        name=f"planes(n={num_switches}, nics={nics}, nodes={n})",
        num_nodes=n,
        num_switches=num_switches,
        node_degree=nics,
    )
    for i in range(n):
        for j in range(nics):
            topo.connect_node(i, j % num_switches)
    return topo
