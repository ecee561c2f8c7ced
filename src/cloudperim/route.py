"""L3/L4 connectivity resolution over the scenario's locus graph.

Loci are network segments plus the distinguished ONPREM and INTERNET.
Paths are shortest by hop count with lexicographic edge-id tie-break, so
resolution is deterministic for a fixed scenario. One breadth-first search
per source (two when the source also asks for INTERNET) yields a shortest-path
tree over the index's per-locus adjacency; every path from that source is read
off the tree, and the trees are memoised in the scenario index.

Non-routable segments are origins or destinations, never transit: a path
may leave one only when it is the flow's source, and may enter one only
through a vpc-connector edge or a terminal endpoint-traversal hop. A NAT
hop is legal only as the final hop toward INTERNET.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from . import model as m
from . import prefix
from .errors import UnknownLocusError, UnknownTargetError
from .scenario import LastHop, Scenario, ScenarioIndex


class HopKind(str, Enum):
    INTRA_SEGMENT = "intra-segment"
    PEERING = "peering"
    GATEWAY = "gateway"
    INTERCONNECT = "interconnect"
    VPN = "vpn"
    NAT = "nat"
    VPC_CONNECTOR = "vpc-connector"
    ENDPOINT_TRAVERSAL = "endpoint-traversal"


_EDGE_HOP = {
    m.EdgeKind.PEERING: HopKind.PEERING,
    m.EdgeKind.INTERCONNECT: HopKind.INTERCONNECT,
    m.EdgeKind.VPN: HopKind.VPN,
    m.EdgeKind.NAT_GATEWAY: HopKind.NAT,
    m.EdgeKind.VPC_CONNECTOR: HopKind.VPC_CONNECTOR,
    m.EdgeKind.GATEWAY_APPLIANCE: HopKind.GATEWAY,
}


@dataclass(frozen=True)
class Hop:
    kind: HopKind
    src: str
    dst: str
    edge: str | None = None        # connectivity edge or consumer endpoint id
    attachment: str | None = None  # for endpoint-traversal hops

    def describe(self) -> str:
        return f"{self.kind.value}({self.edge})" if self.edge else self.kind.value


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
        return "+".join(h.describe() for h in self.hops) or "local"


class UnreachableReason(str, Enum):
    NO_PATH = "NO_PATH"
    NON_ROUTABLE = "NON_ROUTABLE"


@m.value_type
class Unreachable:
    reason: UnreachableReason


def _search(idx: ScenarioIndex, source: str, to_internet: bool) -> dict[str, LastHop]:
    """Shortest-path tree from ``source``: locus -> the last hop of its path.

    Breadth-first, so loci are reached in hop-count order. Each level is kept
    in the order of its loci's edge-id sequences and adjacency lists are
    sorted by edge id, so the first edge to reach a locus ends its path that
    is minimal by (hop count, edge ids). NAT edges are usable only when the
    goal is INTERNET; a non-routable segment is left only when it is the source.
    The tree reads the index's ``adjacency`` and ``non_routable`` facts
    alone, so it holds in every version where they are equal
    (``engine._MEMO_READS``).
    """
    tree: dict[str, LastHop] = {}
    seen = {source}
    level = [source]
    while level:
        reached = []
        for at in level:
            if at in idx.non_routable and at != source:
                continue
            for nxt, hop in idx.adjacency.get(at, ()):
                if nxt in seen or (hop[2] is m.EdgeKind.NAT_GATEWAY and not to_internet):
                    continue
                seen.add(nxt)
                tree[nxt] = hop
                reached.append(nxt)
        level = reached
    return tree


def _locus_path(s: Scenario, source: str, goal: str) -> list[Hop] | None:
    """Deterministic shortest path between loci: (hop count, edge ids) minimal."""
    if source == goal:
        return []
    idx = s.index()
    key = (source, goal == m.INTERNET)
    tree = idx.route_trees.get(key)
    if tree is None:
        tree = idx.route_trees[key] = _search(idx, source, key[1])
    hops: list[Hop] = []
    at = goal
    while at != source:
        last = tree.get(at)
        if last is None:
            return None
        prev, edge, kind = last
        hops.append(Hop(kind=_EDGE_HOP[kind], src=prev, dst=at, edge=edge))
        at = prev
    hops.reverse()
    return hops


def _traversal(ep: m.ConsumerEndpoint, svc: m.ServiceSpec) -> Hop:
    """The endpoint-traversal hop through ``ep`` into the segment of ``svc``, the service behind it."""
    return Hop(kind=HopKind.ENDPOINT_TRAVERSAL, src=ep.segment, dst=svc.segment, edge=ep.id, attachment=ep.attachment)


def _candidate_paths_to_service(s: Scenario, source: str, svc: m.ServiceSpec) -> list[list[Hop]]:
    idx = s.index()
    candidates: list[list[Hop]] = []
    if source == svc.segment:
        candidates.append([Hop(kind=HopKind.INTRA_SEGMENT, src=source, dst=source)])
    else:
        direct = _locus_path(s, source, svc.segment)
        if direct is not None:
            candidates.append(direct)
    att = idx.attachment_for_service.get(svc.id)
    if att is not None:
        for ep in idx.endpoints_for_attachment.get(att.id, ()):
            lead = _locus_path(s, source, ep.segment)
            if lead is not None:
                candidates.append(lead + [_traversal(ep, svc)])
    return candidates


def _pick(candidates: list[list[Hop]]) -> list[Hop] | None:
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
        return RoutePath(lead + [_traversal(ep, idx.services[idx.attachments[ep.attachment].service])])

    # bare address target
    host = prefix.host(target)
    holder = next(
        (seg for seg in s.segments if prefix.meets_any(host, idx.segment_nets[seg.id])), None
    )
    if holder is None:
        raise UnknownTargetError(target)
    if holder.id == source:
        return RoutePath((Hop(kind=HopKind.INTRA_SEGMENT, src=source, dst=source),))
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
