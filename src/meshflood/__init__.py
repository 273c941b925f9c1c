"""Deterministic packet-level simulator of optimized mesh-network flooding."""

from .engine import MODE_BLIND, MODE_RELAY, SimConfig, run
from .fixtures import fixture_by_name
from .metrics import MetricsSeries, compare, summarize
from .relays import (
    RelayAssignment,
    brute_force_min_relays,
    coverage_check,
    select_relays,
)
from .topology import Placement, Topology, build_topology, place_nodes

__version__ = "0.1.0"

__all__ = [
    "MODE_BLIND",
    "MODE_RELAY",
    "MetricsSeries",
    "Placement",
    "RelayAssignment",
    "SimConfig",
    "Topology",
    "brute_force_min_relays",
    "build_topology",
    "compare",
    "coverage_check",
    "fixture_by_name",
    "place_nodes",
    "run",
    "select_relays",
    "summarize",
]
