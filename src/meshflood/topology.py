"""Node placement, unit-disk connectivity and neighborhood queries.

A node is its id and its position in meters; the one flood source is a
field of the topology, not a property of a node.

Adjacency is purely geometric: two distinct nodes are linked iff their
Euclidean distance is at most the radio range. All operations are pure
functions of their inputs (plus an explicit seed where randomness is
involved), so identical calls always return identical results.

The disk adjacency is built on cells of sorted coordinate bands (see
`_bands`), so each node is tested only against the nodes of the 3x3 block of
cells around its own: O(n * degree) work instead of O(n^2), linking exactly
the pairs of the all-pairs `math.dist(...) <= radio_range` test.
`build_topology` runs it at set-up; a snapshot made by a mobility
reconfiguration runs it on the first read of its `adjacency`, so a snapshot
that neither traffic nor relay selection reads is never built.
"""

from __future__ import annotations

import math
import random
from enum import Enum
from functools import cached_property
from typing import NamedTuple

from .errors import EmptyScenarioError, UnknownNodeError

DEFAULT_AREA_SIDE = 500.0


class Placement(Enum):
    GRID = "grid"
    UNIFORM_RANDOM = "uniform"


class MobilityStep(NamedTuple):
    """Bounded random displacement applied at each reconfiguration."""

    max_displacement: float
    area_side: float = DEFAULT_AREA_SIDE


class Topology:
    """Snapshot of node positions and their disk adjacency, never changed.

    `nodes` maps each node id to its position in meters, and `source` is the
    id of the one node that floods originate from. The links are always the
    disk adjacency of the positions, built on first read.
    """

    def __init__(self, nodes, radio_range: float, epoch: int = 0, source: int = 0):
        self.nodes: dict[int, tuple[float, float]] = nodes
        self.radio_range = radio_range
        self.epoch = epoch
        self.source = source

    @cached_property
    def adjacency(self) -> dict[int, frozenset[int]]:
        return _disk_adjacency(self.nodes, self.radio_range)

    def node_ids(self) -> list[int]:
        return sorted(self.nodes)


def place_nodes(
    count: int,
    placement: Placement = Placement.GRID,
    area_side: float = DEFAULT_AREA_SIDE,
    seed: int = 0,
) -> dict[int, tuple[float, float]]:
    """Place `count` nodes, ids 0..count-1, in the square area.

    Grid mode fills a ceil(sqrt(count))-per-side lattice row-major (x varies
    fastest) anchored on the area corners, truncating the highest lattice
    indices. Uniform mode draws i.i.d. positions from random.Random(seed).
    """
    if count < 1:
        raise EmptyScenarioError(f"cannot place {count} nodes")
    if area_side <= 0:
        raise ValueError("area_side must be positive")

    positions: dict[int, tuple[float, float]] = {}
    if placement is Placement.GRID:
        side = math.ceil(math.sqrt(count))
        spacing = grid_spacing(count, area_side)
        for i in range(count):
            row, col = divmod(i, side)
            positions[i] = (col * spacing, row * spacing)
    else:
        rng = random.Random(seed)
        for i in range(count):
            x = rng.uniform(0.0, area_side)
            y = rng.uniform(0.0, area_side)
            positions[i] = (x, y)
    return positions


def grid_spacing(count: int, area_side: float = DEFAULT_AREA_SIDE) -> float:
    """Lattice spacing used by grid placement for `count` nodes."""
    side = math.ceil(math.sqrt(count))
    return area_side / (side - 1) if side > 1 else 0.0


def _bands(
    nodes: dict[int, tuple[float, float]], axis: int, radio_range: float
) -> dict[int, int]:
    """Each node's band along one axis, numbered in coordinate order.

    In coordinate order, a new band starts at the first coordinate `c` more
    than `radio_range` past the current band's start (`c - start >
    radio_range`). Nodes whose bands differ by two or more never link:

    1. Float subtraction is monotone. If u lies in band a and v in band a+2
       or later, then x_u <= s(a+1) and x_v >= s(a+2), where s(k) is where
       band k starts, so fl(x_v - x_u) >= fl(s(a+2) - s(a+1)) > radio_range.
    2. `math.dist` is never below the larger coordinate difference: since
       Python 3.10 it is within one rounding of the exact norm, which is at
       least that difference, itself a float.

    So no rounding slack and no bound on the range or the coordinates is
    needed. A NaN or infinite range makes no `>` true: one band, the
    all-pairs test. A NaN coordinate, which would break the sort, is walked
    as +inf: its node links under no finite range, so its band is moot.
    """
    coords = ((pos[axis], u) for u, pos in nodes.items())
    walk = sorted((c if c == c else math.inf, u) for c, u in coords)
    bands: dict[int, int] = {}
    band, start = 0, -math.inf  # band 0 starts below every coordinate
    for c, u in walk:
        if c - start > radio_range:
            band, start = band + 1, c
        bands[u] = band
    return bands


def _disk_adjacency(
    nodes: dict[int, tuple[float, float]], radio_range: float
) -> dict[int, frozenset[int]]:
    ids = sorted(nodes)
    xs = _bands(nodes, 0, radio_range)
    ys = _bands(nodes, 1, radio_range)
    cells: dict[tuple[int, int], list[int]] = {}
    for u in ids:
        cells.setdefault((xs[u], ys[u]), []).append(u)
    links: dict[int, set[int]] = {i: set() for i in ids}
    for u in ids:
        pos, bx, by = nodes[u], xs[u], ys[u]
        for i in (bx - 1, bx, bx + 1):
            for j in (by - 1, by, by + 1):
                for v in cells.get((i, j), ()):
                    # Two nodes that can link search each other's cells,
                    # so testing v > u only tests each pair once.
                    if v > u and math.dist(pos, nodes[v]) <= radio_range:
                        links[u].add(v)
                        links[v].add(u)
    return {i: frozenset(neigh) for i, neigh in links.items()}


def build_topology(
    nodes: dict[int, tuple[float, float]], radio_range: float, source: int = 0
) -> Topology:
    """Build the unit-disk topology over `nodes` (id -> position), flooded
    from node `source`."""
    if radio_range <= 0:
        raise ValueError("radio_range must be positive")
    if source not in nodes:
        raise UnknownNodeError(source)
    # The snapshot owns a copy of the positions, and its links are built at
    # set-up rather than on first read.
    topo = Topology(dict(nodes), radio_range, source=source)
    topo.adjacency
    return topo


def two_hop(t: Topology, u: int) -> frozenset[int]:
    """Nodes reachable in exactly two hops from `u` (never one, never zero)."""
    try:
        direct = t.adjacency[u]
    except KeyError:
        raise UnknownNodeError(u) from None
    reached: set[int] = set()
    for mid in direct:
        reached.update(t.adjacency[mid])
    reached -= direct
    reached.discard(u)
    return frozenset(reached)


def is_connected(t: Topology) -> bool:
    """True iff every node is reachable from every other; trivially true for n <= 1."""
    ids = t.node_ids()
    return not ids or len(reachable_from(t, ids[0])) == len(ids)


def reachable_from(t: Topology, start: int) -> frozenset[int]:
    """All nodes reachable from `start`, including `start` itself."""
    if start not in t.nodes:
        raise UnknownNodeError(start)
    seen = {start}
    frontier = [start]
    while frontier:
        u = frontier.pop()
        for v in t.adjacency[u]:
            if v not in seen:
                seen.add(v)
                frontier.append(v)
    return frozenset(seen)


def reconfigure(t: Topology, mobility: MobilityStep, seed: int) -> Topology:
    """Perturb every non-source node by a seeded displacement.

    Displacements are drawn in polar form (radius uniform in
    [0, max_displacement], angle uniform), so no node moves farther than the
    configured bound. Positions are clamped to [0, area_side]. The epoch is
    incremented even when max_displacement is zero. The new snapshot's links
    are built on the first read of its `adjacency`.
    """
    rng = random.Random(seed)
    moved: dict[int, tuple[float, float]] = {}
    for u in sorted(t.nodes):
        x, y = t.nodes[u]
        if u != t.source:
            radius = rng.uniform(0.0, mobility.max_displacement)
            angle = rng.uniform(0.0, 2.0 * math.pi)
            x = min(max(x + radius * math.cos(angle), 0.0), mobility.area_side)
            y = min(max(y + radius * math.sin(angle), 0.0), mobility.area_side)
        moved[u] = (x, y)
    return Topology(moved, t.radio_range, t.epoch + 1, t.source)


def save_topology(t: Topology, path) -> None:
    """Write the plain-text adjacency format: header, node lines, edge lines."""
    lines = [f"n {len(t.nodes)} range {t.radio_range!r}"]
    for u in t.node_ids():
        x, y = t.nodes[u]
        role = "source" if u == t.source else "client"
        lines.append(f"node {u} {x!r} {y!r} {role}")
    for u in t.node_ids():
        for v in sorted(t.adjacency[u]):
            if u < v:
                lines.append(f"edge {u} {v}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
