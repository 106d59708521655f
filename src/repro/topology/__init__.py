"""Fault-tolerant interconnect topologies (paper Sec. 2.1).

Constructions (:func:`naive_ring`, :func:`diameter_ring`,
:func:`generalized_diameter_ring`, :func:`clique_construction`,
:func:`fig1_testbed`, :func:`switch_planes`),
partition-resistance analysis (:func:`analyze`, :func:`worst_case`,
:func:`min_faults_to_partition`), and cabling onto the live simulated
network (:func:`repro.topology.deploy.wire`).
"""

from .constructions import (
    chordal_ring_graph,
    clique_construction,
    constant_degree_diameter,
    diameter_ring,
    fig1_testbed,
    generalized_diameter_ring,
    naive_ring,
    ring_switch_graph,
    switch_planes,
)
from .graph import EdgeId, TopologyGraph, Vertex, node_v, switch_v
from .partition import LayoutError, Partition, partition_topology
from .render import render_ring_construction
from .resilience import (
    FaultSet,
    PartitionReport,
    WorstCase,
    analyze,
    enumerate_elements,
    fault_sets_of_size,
    min_faults_to_partition,
    worst_case,
)

__all__ = [
    "EdgeId",
    "FaultSet",
    "LayoutError",
    "Partition",
    "PartitionReport",
    "TopologyGraph",
    "Vertex",
    "WorstCase",
    "analyze",
    "chordal_ring_graph",
    "clique_construction",
    "constant_degree_diameter",
    "diameter_ring",
    "enumerate_elements",
    "fig1_testbed",
    "fault_sets_of_size",
    "generalized_diameter_ring",
    "min_faults_to_partition",
    "naive_ring",
    "partition_topology",
    "render_ring_construction",
    "node_v",
    "ring_switch_graph",
    "switch_planes",
    "switch_v",
    "worst_case",
]
