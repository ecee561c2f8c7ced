"""Path resolution over the locus graph."""

import dataclasses
import heapq
import random
import sys
from pathlib import Path

import pytest

from cloudperim import (
    TEMPLATE_NAMES,
    Scenario,
    builtin_scenario,
    parse_scenario,
    resolve_path,
    routable_pairs,
    validate_scenario,
)
from cloudperim import prefix
from cloudperim import route as route_mod
from cloudperim import model as m
from cloudperim.errors import InvalidScenarioError, UnknownLocusError, UnknownTargetError
from cloudperim.oracle import _all_simple_paths
from cloudperim.route import HopKind, RoutePath, Unreachable, UnreachableReason

sys.path.insert(0, str(Path(__file__).parent))
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from genrandom import random_scenario  # noqa: E402
from perfbench import gen  # noqa: E402  (read-only: the benchmark's estate generator)


def test_fig4_onprem_to_sql_via_interconnect_and_endpoint():
    s = builtin_scenario("fig4-landing-point")
    path = resolve_path(s, m.ONPREM, "sql-db")
    assert isinstance(path, RoutePath)
    assert [h.kind for h in path.hops] == [HopKind.INTERCONNECT, HopKind.ENDPOINT_TRAVERSAL]
    assert path.hops[0].edge == "ic-onprem"
    assert path.hops[1].edge == "ep-sql"
    assert path.hops[1].attachment == "att-sql"


def test_same_segment_is_intra_hop():
    s = builtin_scenario("fig1-lift-shift")
    path = resolve_path(s, "green", "green-app")
    assert isinstance(path, RoutePath)
    assert [h.kind for h in path.hops] == [HopKind.INTRA_SEGMENT]


def test_fig4_direct_address_into_non_routable_backend():
    s = builtin_scenario("fig4-landing-point")
    # oracle: brute-force enumeration finds no edge path ONPREM -> yellow-net
    assert _all_simple_paths(s, m.ONPREM, "yellow-net", "yellow-net") == []
    result = resolve_path(s, m.ONPREM, "172.16.2.10")
    assert isinstance(result, Unreachable)
    assert result.reason is UnreachableReason.NON_ROUTABLE


def test_an_address_in_the_sources_own_segment_is_intra_segment():
    """Every non-routable spoke of the estate is 172.16.0.0/16: from each, an
    address there is its own, though the first segment holding it is
    another; from the hub it is still behind a non-routable segment."""
    s = parse_scenario(gen.hub_and_spoke(12, 0, 0).text())
    shared = [x.id for x in s.segments if x.routability is m.Routability.NON_ROUTABLE]
    assert len(shared) > 1
    for source in shared:
        path = resolve_path(s, source, "172.16.0.10")
        assert path == RoutePath((route_mod.Hop(HopKind.INTRA_SEGMENT, source, source),)), source
    assert resolve_path(s, "hub", "172.16.0.10") == Unreachable(UnreachableReason.NON_ROUTABLE)


def _expected_address_answer(s, source, address):
    """Intra-segment from a segment holding the address; from elsewhere, the
    answer for the segment first in scenario order to hold it."""
    host, nets = prefix.host(address), s.index().segment_nets
    if prefix.meets_any(host, nets.get(source, ())):
        return RoutePath((route_mod.Hop(HopKind.INTRA_SEGMENT, source, source),))
    holder = next(x for x in s.segments if prefix.meets_any(host, nets[x.id]))
    if holder.routability is m.Routability.NON_ROUTABLE:
        return Unreachable(UnreachableReason.NON_ROUTABLE)
    hops = _reference_locus_path(s, source, holder.id)
    return RoutePath(hops) if hops is not None else Unreachable(UnreachableReason.NO_PATH)


@pytest.mark.parametrize("name", TEMPLATE_NAMES)
def test_template_addresses_resolve_from_their_holders(name):
    """Each template's address answers: a source's own address is
    intra-segment, and any other resolves toward its first holder as before."""
    s = builtin_scenario(name)
    addresses = [a for x in s.segments for a in map(prefix.first_host, x.cidrs) if a is not None]
    assert addresses
    for source in [x.id for x in s.segments] + [m.ONPREM, m.INTERNET]:
        for address in addresses:
            assert resolve_path(s, source, address) == _expected_address_answer(s, source, address), (source, address)


def test_unknown_locus_and_target():
    s = builtin_scenario("fig1-lift-shift")
    with pytest.raises(UnknownLocusError):
        resolve_path(s, "atlantis", "green-app")
    with pytest.raises(UnknownTargetError):
        resolve_path(s, "green", "no-such-service")
    with pytest.raises(UnknownTargetError):
        resolve_path(s, "green", "203.0.113.7")  # address owned by no segment


def test_routable_pairs_minimal_scenario():
    s = parse_scenario(
        """
name: tiny
hierarchy:
  - {id: org, kind: organization}
  - {id: prj, kind: project, parent: org}
networks:
  segments:
    - {id: net, project: prj, routability: routable, cidrs: [10.0.0.0/16]}
services:
  specs:
    - {id: svc, project: prj, segment: net, layer: l4, address: 10.0.0.10, compute: vm, auth_mode: perimeter-trusting}
"""
    )
    assert routable_pairs(s) == {("net", "svc")}


def test_fig1_routable_pairs_equal_exhaustive_enumeration():
    s = builtin_scenario("fig1-lift-shift")
    pairs = routable_pairs(s)
    # oracle: re-derive from per-pair resolution over the full enumeration
    expected = set()
    for src in [x.id for x in s.segments] + [m.ONPREM, m.INTERNET]:
        for tgt in [x.id for x in s.services] + [m.INTERNET]:
            if src == m.INTERNET and tgt == m.INTERNET:
                continue
            if isinstance(resolve_path(s, src, tgt), RoutePath):
                expected.add((src, tgt))
    assert pairs == expected
    assert ("green", "yellow-pay") in pairs
    assert ("yellow", "INTERNET") in pairs  # route exists; the gateway denies, not the topology


def test_fig10_flat_network_all_service_pairs_routable():
    s = builtin_scenario("fig10-zero-trust")
    pairs = routable_pairs(s)
    for svc in s.services:
        assert ("zt-net", svc.id) in pairs


def test_shortest_path_tie_break_is_lexicographic():
    doc = """
name: ties
hierarchy:
  - {id: org, kind: organization}
  - {id: prj, kind: project, parent: org}
networks:
  segments:
    - {id: a, project: prj, routability: routable, cidrs: [10.1.0.0/16]}
    - {id: b, project: prj, routability: routable, cidrs: [10.2.0.0/16]}
  edges:
    - {id: z-link, kind: peering, ends: [a, b]}
    - {id: a-link, kind: peering, ends: [a, b]}
services:
  specs:
    - {id: svc, project: prj, segment: b, layer: l4, address: 10.2.0.10, compute: vm, auth_mode: perimeter-trusting}
"""
    s = parse_scenario(doc)
    path = resolve_path(s, "a", "svc")
    assert isinstance(path, RoutePath)
    assert [h.edge for h in path.hops] == ["a-link"]


def test_nat_is_final_hop_toward_internet_only():
    doc = """
name: natcase
hierarchy:
  - {id: org, kind: organization}
  - {id: prj, kind: project, parent: org}
networks:
  segments:
    - {id: a, project: prj, routability: routable, cidrs: [10.1.0.0/16]}
    - {id: b, project: prj, routability: routable, cidrs: [10.2.0.0/16]}
  edges:
    - {id: nat-a, kind: nat-gateway, ends: [a, INTERNET], direction: outbound-only}
    - {id: gw-b, kind: gateway-appliance, ends: [b, INTERNET], gateway_rules: []}
services:
  specs:
    - {id: svc-b, project: prj, segment: b, layer: l4, address: 10.2.0.10, compute: vm, auth_mode: perimeter-trusting}
"""
    s = parse_scenario(doc)
    path = resolve_path(s, "a", m.INTERNET)
    assert isinstance(path, RoutePath)
    assert [h.kind for h in path.hops] == [HopKind.NAT]
    # a cannot transit INTERNET via nat to reach b's service
    assert isinstance(resolve_path(s, "a", "svc-b"), Unreachable)
    # and INTERNET cannot enter through the nat (outbound-only)
    assert isinstance(resolve_path(s, m.INTERNET, "10.1.0.10"), Unreachable)


def test_paths_into_non_routable_need_connector_or_endpoint():
    s = builtin_scenario("fig4-landing-point")
    for source in ("clp", m.ONPREM):
        for target in ("sql-db", "pay-api"):
            path = resolve_path(s, source, target)
            if isinstance(path, RoutePath):
                entered = [h for h in path.hops if h.dst in ("green-net", "yellow-net")]
                assert all(
                    h.kind in (HopKind.ENDPOINT_TRAVERSAL, HopKind.VPC_CONNECTOR) for h in entered
                )


def test_vpc_connector_bridges_serverless_segment():
    doc = """
name: connector
hierarchy:
  - {id: org, kind: organization}
  - {id: prj, kind: project, parent: org}
networks:
  segments:
    - {id: vpc, project: prj, routability: routable, cidrs: [10.1.0.0/16]}
    - {id: fn-net, project: prj, routability: non-routable, cidrs: [100.64.0.0/24]}
  edges:
    - {id: conn, kind: vpc-connector, ends: [vpc, fn-net]}
services:
  specs:
    - {id: fn, project: prj, segment: fn-net, layer: l7, fqdn: fn.internal, compute: serverless, auth_mode: perimeter-trusting}
"""
    s = parse_scenario(doc)
    path = resolve_path(s, "vpc", "fn")
    assert isinstance(path, RoutePath)
    assert [h.kind for h in path.hops] == [HopKind.VPC_CONNECTOR]


@pytest.mark.parametrize("seed", range(12))
def test_removing_an_edge_never_adds_routable_pairs(seed):
    rng = random.Random(1000 + seed)
    s = random_scenario(rng, with_edges=True)
    assert s.edges
    base = routable_pairs(s)
    victim = rng.choice(s.edges)
    smaller = dataclasses.replace(s, edges=tuple(e for e in s.edges if e.id != victim.id))
    assert routable_pairs(smaller) <= base


@pytest.mark.parametrize("seed", range(12))
def test_resolution_is_deterministic(seed):
    rng = random.Random(2000 + seed)
    s = random_scenario(rng)
    fresh = dataclasses.replace(s)  # drops the path cache
    for src in [x.id for x in s.segments] + [m.ONPREM]:
        for tgt in [x.id for x in s.services] + [m.INTERNET]:
            first = resolve_path(s, src, tgt)
            second = resolve_path(fresh, src, tgt)
            assert type(first) is type(second)
            if isinstance(first, RoutePath):
                assert [h.edge for h in first.hops] == [h.edge for h in second.hops]


# ---------------------------------------------------------------------------
# The per-source search against the goal-directed search it replaced
# ---------------------------------------------------------------------------


def _reference_traversals(s, at, source, final_target):
    """Yield (edge, next_locus) legal from ``at`` for a flow from ``source``."""
    idx = s.index()
    at_seg = idx.segments.get(at)
    if at_seg is not None and at_seg.routability is m.Routability.NON_ROUTABLE and at != source:
        return  # non-routable segments are never transit
    for e in s.edges:
        if at not in e.ends:
            continue
        nxt = e.other_end(at)
        if nxt == at:
            continue
        if e.direction is m.EdgeDirection.OUTBOUND_ONLY and e.ends[0] != at:
            continue
        if e.kind is m.EdgeKind.NAT_GATEWAY and (nxt != m.INTERNET or final_target != m.INTERNET):
            continue  # nat only as the final hop toward INTERNET
        nxt_seg = idx.segments.get(nxt)
        if (
            nxt_seg is not None
            and nxt_seg.routability is m.Routability.NON_ROUTABLE
            and e.kind is not m.EdgeKind.VPC_CONNECTOR
        ):
            continue  # cannot route into a non-routable segment
        yield e, nxt


def _reference_locus_path(s, source, goal):
    """Goal-directed search scanning every edge at each popped locus; the
    goal is also the flow's final target."""
    if source == goal:
        return ()
    counter = 0  # heap tiebreaker; Hop tuples do not order
    queue = [(0, (), 0, source, ())]
    best = {source: (0, ())}
    while queue:
        dist, key, _, at, hops = heapq.heappop(queue)
        if at == goal:
            return hops
        if best.get(at, (dist, key)) < (dist, key):
            continue
        for edge, nxt in _reference_traversals(s, at, source, goal):
            cand_key = key + (edge.id,)
            cand = (dist + 1, cand_key)
            if nxt in best and best[nxt] <= cand:
                continue
            best[nxt] = cand
            hop = route_mod.Hop(kind=m.EDGE_HOP_KIND[edge.kind], src=at, dst=nxt, edge=edge.id)
            counter += 1
            heapq.heappush(queue, (dist + 1, cand_key, counter, nxt, hops + (hop,)))
    return None


def _resolve_or_error(resolve, s, source, target):
    try:
        return resolve(s, source, target)
    except (UnknownLocusError, UnknownTargetError) as e:
        return type(e)


def _assert_search_matches_reference(s, monkeypatch):
    """Every (locus, target) answer of a copy of ``s`` is the answer with the
    reference's paths; returns the copy, whose route memo is then full."""
    sources = [x.id for x in s.segments] + [m.ONPREM, m.INTERNET]
    targets = [x.id for x in s.services] + [x.id for x in s.endpoints] + [m.INTERNET]
    targets += [a for a in (prefix.first_host(x.cidrs[0]) for x in s.segments if x.cidrs) if a is not None]
    paths = {}

    def reference(s, source, goal):
        if (source, goal) not in paths:
            paths[source, goal] = _reference_locus_path(s, source, goal)
        return paths[source, goal]

    with monkeypatch.context() as patched:
        patched.setattr(route_mod, "_locus_path", reference)
        expected = {
            (src, tgt): _resolve_or_error(resolve_path, s, src, tgt)
            for src in sources
            for tgt in targets
        }
    fresh = dataclasses.replace(s)
    for (src, tgt), want in expected.items():
        assert _resolve_or_error(resolve_path, fresh, src, tgt) == want, (s.name, src, tgt)
    return fresh


@pytest.mark.parametrize("name", TEMPLATE_NAMES)
def test_search_matches_reference_on_templates(name, monkeypatch):
    _assert_search_matches_reference(builtin_scenario(name), monkeypatch)


def test_a_search_toward_internet_stops_at_internet_with_its_path():
    """Only the INTERNET goal reads a tree toward INTERNET, so a hub's search
    ends with INTERNET reached: each source's path is still the reference's.
    A spoke keeps no tree."""
    scenarios = [builtin_scenario(name) for name in TEMPLATE_NAMES]
    scenarios.append(parse_scenario(gen.hub_and_spoke(40, seed=0).text()))
    reached = searched = 0
    for s in scenarios:
        for src in [x.id for x in s.segments] + [m.ONPREM]:
            want = _reference_locus_path(s, src, m.INTERNET)
            assert route_mod._locus_path(s, src, m.INTERNET) == want, (s.name, src)
            reached += want is not None
            if src in s.index().uplinks:
                continue
            tree = s.index().route_trees[(src, True)]
            assert (list(tree)[-1:] == [m.INTERNET]) == (want is not None), (s.name, src)
            searched += 1
    assert reached > 40 and searched > 10


def test_spokes_compose_their_paths_and_only_hubs_keep_trees(monkeypatch):
    """On the 40-spoke estate every locus but the hub and INTERNET is a spoke;
    each (locus, target) answer is the reference's, and only the two hubs
    search: three trees, where a search per source kept one per locus."""
    s = parse_scenario(gen.hub_and_spoke(40, seed=0).text())
    resolved = _assert_search_matches_reference(s, monkeypatch)
    idx = resolved.index()
    loci = {x.id for x in s.segments} | {m.ONPREM, m.INTERNET}
    assert loci - idx.uplinks.keys() == {"hub", m.INTERNET}
    assert {len(uplinks) for uplinks in idx.uplinks.values()} == {1, 2}
    assert {hub for hub, _ in idx.route_trees} <= {"hub", m.INTERNET} and len(idx.route_trees) <= 3


@pytest.mark.parametrize("name", [*TEMPLATE_NAMES, "spokes40"])
def test_resolving_a_pair_again_builds_no_hop(name, monkeypatch):
    """Edge hops are the index's, and endpoint-traversal and intra-segment
    hops are interned by their field values: after one resolution of every
    (locus, service or endpoint) pair, resolving each again builds no hop and
    gives a path of the same hop objects, each with its label."""
    if name == "spokes40":
        s = parse_scenario(gen.hub_and_spoke(40, seed=0).text())
    else:
        s = dataclasses.replace(builtin_scenario(name))
    pairs = [
        (source, target)
        for source in [x.id for x in s.segments] + [m.ONPREM, m.INTERNET]
        for target in [x.id for x in s.services] + [x.id for x in s.endpoints]
    ]
    first = {pair: resolve_path(s, *pair) for pair in pairs}
    built = []
    init = m.Hop.__init__

    def counted(self, *args, **kwargs):
        built.append((args, kwargs))
        init(self, *args, **kwargs)

    monkeypatch.setattr(m.Hop, "__init__", counted)
    again = {pair: resolve_path(s, *pair) for pair in pairs}
    assert built == []
    assert again == first
    paths = [(first[pair], again[pair]) for pair in pairs if isinstance(first[pair], RoutePath)]
    assert paths and all(a is b for before, after in paths for a, b in zip(before.hops, after.hops))
    for _, path in paths:
        assert path.describe() == "+".join(
            f"{hop.kind.value}({hop.edge})" if hop.edge else hop.kind.value for hop in path.hops
        )


# ---------------------------------------------------------------------------
# Topologies where most loci are spokes
# ---------------------------------------------------------------------------

_TRANSIT_KINDS = (m.EdgeKind.PEERING, m.EdgeKind.INTERCONNECT, m.EdgeKind.VPN, m.EdgeKind.GATEWAY_APPLIANCE)


def _spoke_topology(rng):
    """A seeded topology in which most loci are spokes. Three or four hubs
    in a ring, ONPREM and INTERNET on them, and spokes of these kinds:

    - one uplink, now and then over two parallel edges or leaving only;
    - two uplinks on neighbouring hubs, so candidates tie on length;
    - non-routable, entered by vpc-connector from a hub and leaving by
      peering, now and then into a one-uplink spoke (so it searches);
    - a stub whose one edge is a vpc-connector into a non-routable spoke;
    - a leaf leaving only into a two-uplink spoke, which it does not compose through;
    - a pair of one-uplink loci peered together: neighbours of equal degree, which search.

    Some spokes also have NAT egress. Edge ids are drawn at random, so the
    edge-id order of a spoke's uplinks is too."""
    ids = iter(rng.sample(range(1000), 200))
    edges = []

    def edge(kind, a, b, direction=m.EdgeDirection.BIDIRECTIONAL):
        edges.append(m.ConnectivityEdge(id=f"e{next(ids):03d}", kind=kind, ends=(a, b), direction=direction))

    def transit(a, b):
        kind = rng.choice(_TRANSIT_KINDS)
        leaves_only = kind is not m.EdgeKind.PEERING and rng.random() < 0.2
        edge(kind, a, b, m.EdgeDirection.OUTBOUND_ONLY if leaves_only else m.EdgeDirection.BIDIRECTIONAL)

    hubs = [f"h{i}" for i in range(rng.randint(3, 4))]
    for a, b in zip(hubs, hubs[1:] + hubs[:1]):
        edge(rng.choice(_TRANSIT_KINDS), a, b)
    edge(m.EdgeKind.INTERCONNECT, m.ONPREM, rng.choice(hubs))
    edge(m.EdgeKind.GATEWAY_APPLIANCE, rng.choice(hubs), m.INTERNET)
    kinds = ["one", "two", "nr", "stub", "leaf", "pair"]
    kinds += rng.choices(["one", "one", "two", "two", "nr", "stub", "leaf", "pair"], k=rng.randint(6, 9))
    segments = [m.NetworkSegment(id=h, project="prj", routability=m.Routability.ROUTABLE,
                                 cidrs=(f"10.{i}.0.0/16",)) for i, h in enumerate(hubs)]
    ones, twos, non_routable = [], [], []

    def segment(name, routable=True):
        segments.append(m.NetworkSegment(
            id=name, project="prj",
            routability=m.Routability.ROUTABLE if routable else m.Routability.NON_ROUTABLE,
            cidrs=(f"10.{len(segments)}.0.0/16" if routable else "172.16.0.0/16",),
        ))
        return name

    for i, kind in enumerate(kinds):
        if kind == "one":
            ones.append(spoke := segment(f"s{i}"))
            hub = rng.choice(hubs)
            for _ in range(rng.choice((1, 1, 2))):
                transit(spoke, hub)
        elif kind == "two":
            twos.append(spoke := segment(f"s{i}"))
            k = rng.randrange(len(hubs))
            for hub in rng.sample([hubs[k], hubs[k - 1]], 2):
                transit(spoke, hub)
        elif kind == "nr":
            non_routable.append(spoke := segment(f"s{i}", routable=False))
            edge(m.EdgeKind.VPC_CONNECTOR, rng.choice(hubs), spoke)
            edge(m.EdgeKind.PEERING, spoke, rng.choice(hubs + ones[-1:]))
        elif kind == "stub" and non_routable:
            edge(m.EdgeKind.VPC_CONNECTOR, segment(f"s{i}"), rng.choice(non_routable))
        elif kind == "leaf" and twos:
            edge(m.EdgeKind.VPN, segment(f"s{i}"), rng.choice(twos), m.EdgeDirection.OUTBOUND_ONLY)
        elif kind == "pair":
            a, b = segment(f"s{i}a"), segment(f"s{i}b")
            transit(a, rng.choice(hubs))
            transit(b, rng.choice(hubs))
            edge(m.EdgeKind.PEERING, a, b)
    for spoke in rng.sample(ones + twos, 2):
        edge(m.EdgeKind.NAT_GATEWAY, spoke, m.INTERNET, m.EdgeDirection.OUTBOUND_ONLY)
    return Scenario(
        name="spokes",
        nodes=(m.ResourceNode(id="org", kind=m.NodeKind.ORGANIZATION),
               m.ResourceNode(id="prj", kind=m.NodeKind.PROJECT, parent="org")),
        segments=tuple(segments),
        edges=tuple(edges),
    )


def _tied_goals(s, spoke):
    """The goals a spoke reaches through more than one uplink on one shortest length."""
    idx = s.index()
    direct = {hop.dst for hop in idx.adjacency[spoke]}
    tied = []
    for goal in [x.id for x in s.segments] + [m.ONPREM, m.INTERNET]:
        if goal == spoke or goal in direct:
            continue
        lengths = [len(rest) for hop in idx.uplinks[spoke]
                   if (rest := _reference_locus_path(s, hop.dst, goal)) is not None]
        if lengths.count(min(lengths, default=None)) > 1:
            tied.append(goal)
    return tied


@pytest.mark.parametrize("seed", range(20))
def test_spoke_topologies_match_reference(seed):
    """Every (source, goal) path is the reference's, and only hubs keep trees."""
    s = _spoke_topology(random.Random(15000 + seed))
    assert validate_scenario(s) == []
    loci = [x.id for x in s.segments] + [m.ONPREM, m.INTERNET]
    for source in loci:
        for goal in loci:
            assert route_mod._locus_path(s, source, goal) == _reference_locus_path(s, source, goal), (source, goal)
    idx = s.index()
    assert idx.route_trees and not {hub for hub, _ in idx.route_trees} & idx.uplinks.keys()


def test_spoke_topologies_hold_every_case():
    """Over the seeds of the test above, the generator makes each case it is for."""
    seen = dict.fromkeys(("one uplink", "tied uplinks", "non-routable by connector", "outbound-only", "nat",
                          "equal degree"), 0)
    for seed in range(20):
        s = _spoke_topology(random.Random(15000 + seed))
        idx = s.index()
        transit = {at: {hop.dst for hop in hops if hop.kind is not HopKind.NAT and hop.dst not in idx.non_routable}
                   for at, hops in idx.adjacency.items()}
        entered = {hop.dst for hops in idx.adjacency.values() for hop in hops if hop.kind is HopKind.VPC_CONNECTOR}
        for at, uplinks in idx.uplinks.items():
            seen["one uplink"] += len(uplinks) == 1
            seen["tied uplinks"] += len(uplinks) > 1 and bool(_tied_goals(s, at))
            seen["non-routable by connector"] += at in idx.non_routable and at in entered
        seen["outbound-only"] += any(e.direction is m.EdgeDirection.OUTBOUND_ONLY for e in s.edges
                                     if e.kind is not m.EdgeKind.NAT_GATEWAY)
        seen["nat"] += any(e.kind is m.EdgeKind.NAT_GATEWAY for e in s.edges)
        for at, near in transit.items():
            if any(len(transit.get(n, ())) == len(near) for n in near):
                assert at not in idx.uplinks, at  # a neighbour of equal degree: it searches
                seen["equal degree"] += 1
    assert min(seen.values()) >= 10, seen


def _random_edge(rng, loci, edge_id):
    """An edge of any kind between random loci (self-loops included), in a
    direction validation accepts for its kind: a NAT edge is outbound-only
    with an INTERNET end at either position, a peering edge bidirectional."""
    kind = rng.choice(list(m.EdgeKind))
    ends = (rng.choice(loci), rng.choice(loci))
    direction = rng.choice(list(m.EdgeDirection))
    if kind is m.EdgeKind.NAT_GATEWAY:
        ends = rng.choice([(ends[0], m.INTERNET), (m.INTERNET, ends[1])])
        direction = m.EdgeDirection.OUTBOUND_ONLY
    elif kind is m.EdgeKind.PEERING:
        direction = m.EdgeDirection.BIDIRECTIONAL
    return m.ConnectivityEdge(id=edge_id, kind=kind, ends=ends, direction=direction)


def _with_random_edges(rng, s, count):
    """``s`` plus ``count`` random edges, so paths run long and hop-count ties are common."""
    loci = [x.id for x in s.segments] + [m.ONPREM, m.INTERNET]
    extra = tuple(_random_edge(rng, loci, f"x{i}") for i in rng.sample(range(1000), count))
    return dataclasses.replace(s, edges=s.edges + extra)


@pytest.mark.parametrize("seed", range(60))
def test_search_matches_reference_on_random_scenarios(seed, monkeypatch):
    rng = random.Random(9000 + seed)
    s = random_scenario(rng)
    _assert_search_matches_reference(s, monkeypatch)
    with_edges = _with_random_edges(rng, s, 2 * len(s.segments))
    assert validate_scenario(with_edges) == []
    _assert_search_matches_reference(with_edges, monkeypatch)


@pytest.mark.parametrize(
    "kind, ends, direction, message",
    [
        ("nat-gateway", ("green", "INTERNET"), "bidirectional", "nat-gateway edges are outbound-only"),
        ("nat-gateway", ("INTERNET", "green"), "bidirectional", "nat-gateway edges are outbound-only"),
        ("nat-gateway", ("green", "ONPREM"), "outbound-only", "nat-gateway must have an INTERNET end"),
        ("peering", ("green", "ONPREM"), "outbound-only", "peering edges are bidirectional"),
    ],
)
def test_nat_and_peering_edges_validation_rejects_are_refused(kind, ends, direction, message):
    s = builtin_scenario("fig1-lift-shift")
    edge = m.ConnectivityEdge(id="x1", kind=m.EdgeKind(kind), ends=ends, direction=m.EdgeDirection(direction))
    broken = dataclasses.replace(s, edges=s.edges + (edge,))
    violations = validate_scenario(broken)
    assert [(v.subject, v.message) for v in violations] == [("x1", message)]
    with pytest.raises(InvalidScenarioError) as refused:
        resolve_path(broken, "green", m.INTERNET)
    assert list(refused.value.violations) == violations
    assert broken._index is None
