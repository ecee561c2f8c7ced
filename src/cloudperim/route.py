"""L3/L4 connectivity resolution over the scenario's locus graph.

Loci are network segments plus the distinguished ONPREM and INTERNET.
Paths are shortest by hop count with lexicographic edge-id tie-break, so
resolution is deterministic for a fixed scenario. Hubs search and spokes
compose. A spoke (``ScenarioIndex.uplinks``, read off the index's per-locus
adjacency and non-routable segments) is a locus whose every way onward is
through its uplinks, larger loci that are hubs; every other locus is a hub.
A hub runs one breadth-first search over the adjacency (two when it is also
asked for INTERNET), whose shortest-path tree holds its path to every locus
it reaches; the trees are memoised in the scenario index. A spoke searches
nothing: its path is a hop straight into the goal, or the shortest of a hop
into an uplink followed by the uplink's path. The paths hold the
adjacency's hop objects, and the endpoint-traversal and intra-segment hops
are interned by their field values (``_hop``), so each hop is built once and
resolving a path again builds none. A hop carries its label, set when it is
built, and a path's description joins its hops' labels.

Non-routable segments are origins or destinations, never transit: a path
may leave one only when it is the flow's source, and may enter one only
through a vpc-connector edge or a terminal endpoint-traversal hop. A NAT
hop is legal only as the final hop toward INTERNET.
"""

from __future__ import annotations

import functools
from enum import Enum

from . import model as m
from . import prefix
from .errors import UnknownLocusError, UnknownTargetError
from .model import Hop, HopKind
from .scenario import Scenario, ScenarioIndex

Path = tuple[Hop, ...]

HOP_MEMO_SIZE = 4096  # interned hops kept; a stream of new ones evicts the least recently used


@m.value_type
class RoutePath:
    hops: tuple[Hop, ...]

    @property
    def endpoint_hop(self) -> Hop | None:
        for h in self.hops:
            if h.kind is HopKind.ENDPOINT_TRAVERSAL:
                return h
        return None

    def gateway_hops(self) -> list[Hop]:
        return [h for h in self.hops if h.kind is HopKind.GATEWAY]

    def describe(self) -> str:
        return "+".join(h.label for h in self.hops) or "local"


class UnreachableReason(str, Enum):
    NO_PATH = "NO_PATH"
    NON_ROUTABLE = "NON_ROUTABLE"


@m.value_type
class Unreachable:
    reason: UnreachableReason


def _search(idx: ScenarioIndex, source: str, to_internet: bool) -> dict[str, Path]:
    """Shortest-path tree from ``source``: each locus reached -> its path,
    the adjacency's hops (the source's is empty).

    Breadth-first, so loci are reached in hop-count order. Each level is kept
    in the order of its loci's edge-id sequences and adjacency lists are
    sorted by edge id, so the first edge to reach a locus ends its path that
    is minimal by (hop count, edge ids). NAT edges are usable only when the
    goal is INTERNET; a non-routable segment is left only when it is the source.
    Only that goal reads a tree toward INTERNET, so its search stops once
    INTERNET is reached. Only hubs search (``_locus_path``). The tree reads
    the index's ``adjacency`` and ``non_routable`` facts alone, so it holds
    in every version where they are equal (``engine._MEMO_READS``).
    """
    tree: dict[str, Path] = {source: ()}
    level = [source]
    while level:
        reached = []
        for at in level:
            if at in idx.non_routable and at != source:
                continue
            path = tree[at]
            for hop in idx.adjacency.get(at, ()):
                nxt = hop.dst
                if nxt in tree or (hop.kind is HopKind.NAT and not to_internet):
                    continue
                tree[nxt] = (*path, hop)
                if to_internet and nxt == m.INTERNET:
                    return tree
                reached.append(nxt)
        level = reached
    return tree


def _tree(idx: ScenarioIndex, hub: str, to_internet: bool) -> dict[str, Path]:
    """The hub's memoised search tree toward INTERNET or toward any other goal."""
    key = (hub, to_internet)
    tree = idx.route_trees.get(key)
    if tree is None:
        tree = idx.route_trees[key] = _search(idx, hub, to_internet)
    return tree


def _locus_path(s: Scenario, source: str, goal: str) -> Path | None:
    """Deterministic shortest path between loci: (hop count, edge ids) minimal.

    A hub reads it off its tree. A spoke takes its first hop straight into
    the goal; without one, its first hop into an uplink and then the
    uplink's path, the shortest such, and the first in edge-id order of
    those of one length. That is the same path: a shortest path from the
    spoke leaves through a neighbour one hop closer to the goal, whose own
    shortest path cannot come back through the spoke, and candidates of one
    length differ first in their first hops.
    """
    if source == goal:
        return ()
    idx = s.index()
    to_internet = goal == m.INTERNET
    uplinks = idx.uplinks.get(source)
    if uplinks is None:
        return _tree(idx, source, to_internet).get(goal)
    for hop in idx.adjacency[source]:
        if hop.dst == goal:
            return (hop,)
    path = None
    for hop in uplinks:
        rest = _tree(idx, hop.dst, to_internet).get(goal)
        if rest is not None and (path is None or len(rest) < len(path) - 1):
            path = (hop, *rest)
    return path


@functools.lru_cache(maxsize=HOP_MEMO_SIZE)
def _hop(kind: HopKind, src: str, dst: str, edge: str | None, attachment: str | None) -> Hop:
    """The one hop of these field values: a hop is a value, so equal ones are shared."""
    return Hop(kind, src, dst, edge, attachment)


def _traversal(ep: m.ConsumerEndpoint, svc: m.ServiceSpec) -> Hop:
    """The endpoint-traversal hop through ``ep`` into the segment of ``svc``, the service behind it."""
    return _hop(HopKind.ENDPOINT_TRAVERSAL, ep.segment, svc.segment, ep.id, ep.attachment)


def _within(segment: str) -> Hop:
    """The intra-segment hop of ``segment``."""
    return _hop(HopKind.INTRA_SEGMENT, segment, segment, None, None)


def _candidate_paths_to_service(s: Scenario, source: str, svc: m.ServiceSpec) -> list[Path]:
    idx = s.index()
    candidates: list[Path] = []
    if source == svc.segment:
        candidates.append((_within(source),))
    else:
        direct = _locus_path(s, source, svc.segment)
        if direct is not None:
            candidates.append(direct)
    att = idx.attachment_for_service.get(svc.id)
    if att is not None:
        for ep in idx.endpoints_for_attachment.get(att.id, ()):
            lead = _locus_path(s, source, ep.segment)
            if lead is not None:
                candidates.append((*lead, _traversal(ep, svc)))
    return candidates


def _pick(candidates: list[Path]) -> Path | None:
    if not candidates:
        return None
    return min(candidates, key=lambda hops: (len(hops), tuple(h.edge or "" for h in hops)))


def resolve_path(s: Scenario, source: str, target: str) -> RoutePath | Unreachable:
    """Resolve how ``source`` reaches ``target`` (service, endpoint, address, INTERNET)."""
    idx = s.index()
    if source not in idx.segments and source not in m.DISTINGUISHED_LOCI:
        raise UnknownLocusError(source)
    if target == m.INTERNET:
        hops = _locus_path(s, source, m.INTERNET)
        return RoutePath(hops) if hops is not None else Unreachable(UnreachableReason.NO_PATH)

    if target in idx.services:
        svc = idx.services[target]
        picked = _pick(_candidate_paths_to_service(s, source, svc))
        if picked is not None:
            return RoutePath(picked)
        if idx.segments[svc.segment].routability is m.Routability.NON_ROUTABLE:
            return Unreachable(UnreachableReason.NON_ROUTABLE)
        return Unreachable(UnreachableReason.NO_PATH)

    if target in idx.endpoints:
        ep = idx.endpoints[target]
        lead = _locus_path(s, source, ep.segment)
        if lead is None:
            return Unreachable(UnreachableReason.NO_PATH)
        return RoutePath((*lead, _traversal(ep, idx.services[idx.attachments[ep.attachment].service])))

    # bare address target: the source's own segment when it holds the address
    # (non-routable segments may share CIDRs), else the first segment that does
    host = prefix.host(target)
    if prefix.meets_any(host, idx.segment_nets.get(source, ())):
        return RoutePath((_within(source),))
    holder = next(
        (seg for seg in s.segments if prefix.meets_any(host, idx.segment_nets[seg.id])), None
    )
    if holder is None:
        raise UnknownTargetError(target)
    if holder.routability is m.Routability.NON_ROUTABLE:
        return Unreachable(UnreachableReason.NON_ROUTABLE)
    hops = _locus_path(s, source, holder.id)
    return RoutePath(hops) if hops is not None else Unreachable(UnreachableReason.NO_PATH)


def routable_pairs(s: Scenario) -> set[tuple[str, str]]:
    """All (source locus, service-or-INTERNET) pairs with a resolvable path."""
    sources = sorted(x.id for x in s.segments) + [m.ONPREM, m.INTERNET]
    targets = sorted(x.id for x in s.services) + [m.INTERNET]
    pairs = set()
    for src in sources:
        for tgt in targets:
            if src == m.INTERNET and tgt == m.INTERNET:
                continue
            if isinstance(resolve_path(s, src, tgt), RoutePath):
                pairs.add((src, tgt))
    return pairs
