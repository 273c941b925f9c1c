"""Built-in scenario topologies, addressable by name from scenario files.

Names: `fig3`, `path:<n>`, `grid:<n>`, `k:<n>`. All fixtures are genuine
unit-disk graphs (the structure emerges from positions and radio range) with
node 0 as the source, so no external files are needed to reproduce the
reference scenarios.
"""

from __future__ import annotations

import math

from .errors import ConfigError
from .topology import (
    DEFAULT_AREA_SIDE,
    Placement,
    Topology,
    build_topology,
    grid_spacing,
    is_connected,
    place_nodes,
)

FIG3_RANGE = 100.0
_FIG3_CENTER = (250.0, 250.0)
_FIG3_ROUTER_RADIUS = 50.0
_FIG3_CLIENT_RADIUS = 125.0
_FIG3_ROUTER_ANGLES = (90.0, 210.0, 330.0)
_FIG3_CLIENT_OFFSET = 30.0


def _polar(center: tuple[float, float], radius: float, degrees: float):
    a = math.radians(degrees)
    return (center[0] + radius * math.cos(a), center[1] + radius * math.sin(a))


def fig3_topology() -> Topology:
    """Source ringed by three mutually adjacent routers, each bridging the
    source to its own pair of outer clients.

    Radii are chosen so the disk rule yields exactly: source-router links,
    router-router links, and router-to-own-client links; clients hear only
    their router. Ids: 0 source, 1-3 routers, 4-9 clients (two per router).
    """
    positions = [_FIG3_CENTER]
    for angle in _FIG3_ROUTER_ANGLES:
        positions.append(_polar(_FIG3_CENTER, _FIG3_ROUTER_RADIUS, angle))
    for angle in _FIG3_ROUTER_ANGLES:
        for offset in (-_FIG3_CLIENT_OFFSET, _FIG3_CLIENT_OFFSET):
            positions.append(_polar(_FIG3_CENTER, _FIG3_CLIENT_RADIUS, angle + offset))
    return build_topology(dict(enumerate(positions)), FIG3_RANGE)


FIG3_ROUTERS = (1, 2, 3)
FIG3_CLIENTS = (4, 5, 6, 7, 8, 9)


def path_topology(n: int, spacing: float = 100.0) -> Topology:
    """n collinear nodes, consecutive ones exactly one radio range apart."""
    if n < 1:
        raise ConfigError("path fixture needs at least 1 node")
    return build_topology({i: (i * spacing, 0.0) for i in range(n)}, spacing)


def grid_topology(n: int, area_side: float = DEFAULT_AREA_SIDE) -> Topology:
    """Grid placement with radio range equal to the lattice spacing, giving
    the 4-neighbor grid graph."""
    nodes = place_nodes(n, Placement.GRID, area_side)
    spacing = grid_spacing(n, area_side)
    return build_topology(nodes, spacing if spacing > 0 else 120.0)


def complete_topology(n: int) -> Topology:
    """n nodes packed on a tiny circle: every pair within range."""
    if n < 1:
        raise ConfigError("complete fixture needs at least 1 node")
    center = (250.0, 250.0)
    radius = 10.0 if n > 1 else 0.0
    nodes = {i: _polar(center, radius, 360.0 * i / n) for i in range(n)}
    return build_topology(nodes, 120.0)


def fixture_by_name(name: str) -> Topology:
    """Resolve a fixture name like `fig3`, `path:5`, `grid:25` or `k:4`."""
    if name == "fig3":
        return fig3_topology()
    kind, sep, arg = name.partition(":")
    if not sep:
        raise ConfigError(f"unknown fixture {name!r}")
    try:
        n = int(arg)
    except ValueError:
        raise ConfigError(f"fixture {name!r} needs an integer size") from None
    if kind == "path":
        return path_topology(n)
    if kind == "grid":
        return grid_topology(n)
    if kind == "k":
        return complete_topology(n)
    raise ConfigError(f"unknown fixture {name!r}")


def density_radio_range(
    n: int, area_side: float = DEFAULT_AREA_SIDE, avg_degree: float = 12.0
):
    """Radio range giving roughly `avg_degree` neighbors per node."""
    return math.sqrt(avg_degree * area_side * area_side / (math.pi * n))


def random_disk_topology(
    n: int,
    seed: int,
    radio_range: float | None = None,
    area_side: float = DEFAULT_AREA_SIDE,
) -> Topology:
    """Uniform random placement under the disk rule; range defaults to the
    fixed-density value for n."""
    if radio_range is None:
        radio_range = density_radio_range(n, area_side)
    nodes = place_nodes(n, Placement.UNIFORM_RANDOM, area_side, seed)
    return build_topology(nodes, radio_range)


def random_connected_topology(
    n: int,
    seed: int,
    radio_range: float | None = None,
    area_side: float = DEFAULT_AREA_SIDE,
    max_tries: int = 200,
) -> Topology:
    """First connected random disk topology derived from `seed`.

    Deterministic: sub-seeds seed*1000, seed*1000+1, ... are tried in order
    until the instance is connected.
    """
    for attempt in range(max_tries):
        topo = random_disk_topology(n, seed * 1000 + attempt, radio_range, area_side)
        if is_connected(topo):
            return topo
    raise ConfigError(
        f"no connected {n}-node topology within {max_tries} tries of seed {seed}"
    )


def build_scenario_topology(
    fixture: str | None,
    node_count: int,
    placement: str,
    area_side: float,
    radio_range: float,
    seed: int,
) -> Topology:
    """Topology for a scenario: a named fixture, or fresh placement."""
    if fixture:
        return fixture_by_name(fixture)
    nodes = place_nodes(node_count, Placement(placement), area_side, seed)
    return build_topology(nodes, radio_range)
