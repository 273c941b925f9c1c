"""Relay-set selection so every 2-hop neighbor pair has a bridging relay.

A pair (u, w) with w exactly two hops from u is *covered* by relay r when r
is a direct neighbor of both u and w. The selection scan (Wu & Li's marking
rule) visits candidates in a fixed order and keeps a candidate iff it
bridges at least one pair that no earlier relay covered; because every 2-hop
pair has a middle node by definition, the scan always terminates with full
coverage.

The pairs a node v bridges are exactly its non-adjacent neighbor pairs, so
the scan lists them once per candidate and takes everything else from those
lists: the selectors of relay r are the endpoints of r's pairs. Only the
current candidate's list and the set of pairs covered so far are kept while
the scan runs.

`two_hop_pairs` enumerates the same pairs from `two_hop` instead, as the
independent reference of `coverage_check` and `brute_force_min_relays`.
`brute_force_min_relays` is an exact oracle (subset enumeration in
increasing size) used to validate the scan on small instances, and
`coverage_check` re-derives coverage from the raw adjacency so it shares no
code path with the selection itself.
"""

from __future__ import annotations

from itertools import chain, combinations
from typing import NamedTuple

from .errors import SizeLimitError, StaleAssignmentError
from .topology import Topology, two_hop

ORDER_ASCENDING = "ascending"
ORDER_DESCENDING = "descending"
ORDER_DEGREE = "degree"
RELAY_ORDERS = (ORDER_ASCENDING, ORDER_DESCENDING, ORDER_DEGREE)

BRUTE_FORCE_MAX_NODES = 12


class RelayAssignment(NamedTuple):
    """Result of a selection scan over one topology epoch.

    relays: selected node ids in selection order.
    selectors: for each relay r, every node u for which r bridges at least
        one of u's 2-hop pairs; a relay forwards traffic heard directly from
        one of these nodes. Its keys are exactly the relays, in selection
        order, so `v in selectors` is the one test of relay membership.
    bridge_tests: number of candidate/pair bridge tests the scan made up to
        its last relay, where coverage became complete (workload witness
        for the quadratic loop structure).
    """

    relays: tuple[int, ...]
    selectors: dict[int, frozenset[int]]
    epoch: int
    bridge_tests: int


class CardinalityReport(NamedTuple):
    card_R: int
    card_V: int
    cond1: bool  # |R| < |V|
    cond2: bool  # |R| < |V - R|


def two_hop_pairs(t: Topology) -> frozenset[tuple[int, int]]:
    """All unordered (u, w) pairs with w exactly two hops from u."""
    pairs: set[tuple[int, int]] = set()
    for u in t.node_ids():
        for w in two_hop(t, u):
            pairs.add((u, w) if u < w else (w, u))
    return frozenset(pairs)


def _candidate_order(t: Topology, order: str) -> list[int]:
    ids = t.node_ids()
    if order == ORDER_ASCENDING:
        return ids
    if order == ORDER_DESCENDING:
        return ids[::-1]
    if order == ORDER_DEGREE:
        return sorted(ids, key=lambda u: (-len(t.adjacency[u]), u))
    raise ValueError(f"unknown candidate order: {order!r}")


def select_relays(t: Topology, order: str = ORDER_ASCENDING) -> RelayAssignment:
    """Select a relay set covering every 2-hop pair of the topology.

    Candidates are scanned once in the requested order; a candidate joins the
    relay set iff it bridges a still-uncovered pair, and then all pairs it
    bridges are marked covered. Identical topologies always yield identical
    assignments.
    """
    adjacency = t.adjacency
    covered: set[tuple[int, int]] = set()
    relays: list[int] = []
    selectors: dict[int, frozenset[int]] = {}
    listed = tests = 0
    for v in _candidate_order(t, order):
        # The 2-hop pairs v bridges: its non-adjacent neighbor pairs (u < w).
        pairs = [
            (u, w)
            for u, w in combinations(sorted(adjacency[v]), 2)
            if w not in adjacency[u]
        ]
        listed += len(pairs)
        if not covered.issuperset(pairs):
            relays.append(v)
            selectors[v] = frozenset(chain.from_iterable(pairs))
            covered.update(pairs)
            tests = listed
    # A candidate that is not selected bridges only covered pairs, so coverage
    # is complete from the last relay on, and `bridge_tests` counts the tests
    # up to it: those a scan makes that stops once no pair is left uncovered.
    return RelayAssignment(
        relays=tuple(relays),
        selectors=selectors,
        epoch=t.epoch,
        bridge_tests=tests,
    )


def coverage_check(t: Topology, relays) -> list[tuple[int, int]]:
    """Return every 2-hop pair no relay bridges; empty means a valid cover.

    Deliberately re-enumerates pairs straight from the adjacency, independent
    of how the relay set was produced.
    """
    relay_ids = sorted(set(relays))
    missing: list[tuple[int, int]] = []
    for u, w in sorted(two_hop_pairs(t)):
        if not any(r in t.adjacency[u] and r in t.adjacency[w] for r in relay_ids):
            missing.append((u, w))
    return missing


def brute_force_min_relays(t: Topology, max_n: int = BRUTE_FORCE_MAX_NODES) -> set[int]:
    """Exact minimum relay cover by subset enumeration; small instances only.

    Subsets are tried in increasing size, lexicographically within a size, so
    the answer is the lexicographically-first minimum cover. Only nodes that
    bridge at least one pair are worth enumerating; any valid minimum cover
    consists solely of such nodes.
    """
    ids = t.node_ids()
    if len(ids) > max_n:
        raise SizeLimitError(f"{len(ids)} nodes exceeds the exact-solver cap {max_n}")

    pairs = sorted(two_hop_pairs(t))
    if not pairs:
        return set()

    candidates = [
        v
        for v in ids
        if any(u in t.adjacency[v] and w in t.adjacency[v] for u, w in pairs)
    ]
    for size in range(len(candidates) + 1):
        for subset in combinations(candidates, size):
            if not coverage_check(t, subset):
                return set(subset)
    raise AssertionError("every 2-hop pair has a middle node; cover must exist")


def cardinality_report(t: Topology, a: RelayAssignment) -> CardinalityReport:
    """Report the two size conditions |R| < |V| and |R| < |V - R|.

    Both are observations, never enforced: long paths, for instance, make
    nearly every interior node a relay and falsify the second condition.
    """
    if a.epoch != t.epoch:
        raise StaleAssignmentError(
            f"assignment epoch {a.epoch} != topology epoch {t.epoch}"
        )
    card_r = len(a.relays)
    card_v = len(t.nodes)
    return CardinalityReport(
        card_R=card_r,
        card_V=card_v,
        cond1=card_r < card_v,
        cond2=card_r < card_v - card_r,
    )


def dump_relays(a: RelayAssignment) -> str:
    """Plain-text export: one `relay <id> selectors <id list>` line per relay."""
    lines = []
    for r in sorted(a.relays):
        served = " ".join(str(u) for u in sorted(a.selectors.get(r, ())))
        lines.append(f"relay {r} selectors {served}".rstrip())
    return "\n".join(lines) + ("\n" if lines else "")
