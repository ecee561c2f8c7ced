"""Path resolution over the locus graph."""

import dataclasses
import heapq
import random
import sys
from pathlib import Path

import pytest

from cloudperim import (
    TEMPLATE_NAMES,
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
        return []
    counter = 0  # heap tiebreaker; Hop tuples do not order
    queue = [(0, (), 0, source, ())]
    best = {source: (0, ())}
    while queue:
        dist, key, _, at, hops = heapq.heappop(queue)
        if at == goal:
            return list(hops)
        if best.get(at, (dist, key)) < (dist, key):
            continue
        for edge, nxt in _reference_traversals(s, at, source, goal):
            cand_key = key + (edge.id,)
            cand = (dist + 1, cand_key)
            if nxt in best and best[nxt] <= cand:
                continue
            best[nxt] = cand
            hop = route_mod.Hop(kind=route_mod._EDGE_HOP[edge.kind], src=at, dst=nxt, edge=edge.id)
            counter += 1
            heapq.heappush(queue, (dist + 1, cand_key, counter, nxt, hops + (hop,)))
    return None


def _resolve_or_error(resolve, s, source, target):
    try:
        return resolve(s, source, target)
    except (UnknownLocusError, UnknownTargetError) as e:
        return type(e)


def _assert_search_matches_reference(s, monkeypatch):
    sources = [x.id for x in s.segments] + [m.ONPREM, m.INTERNET]
    targets = [x.id for x in s.services] + [x.id for x in s.endpoints] + [m.INTERNET]
    targets += [a for a in (prefix.first_host(x.cidrs[0]) for x in s.segments if x.cidrs) if a is not None]
    with monkeypatch.context() as patched:
        patched.setattr(route_mod, "_locus_path", _reference_locus_path)
        expected = {
            (src, tgt): _resolve_or_error(resolve_path, s, src, tgt)
            for src in sources
            for tgt in targets
        }
    fresh = dataclasses.replace(s)
    for (src, tgt), want in expected.items():
        assert _resolve_or_error(resolve_path, fresh, src, tgt) == want, (s.name, src, tgt)


@pytest.mark.parametrize("name", TEMPLATE_NAMES)
def test_search_matches_reference_on_templates(name, monkeypatch):
    _assert_search_matches_reference(builtin_scenario(name), monkeypatch)


def test_a_search_toward_internet_stops_at_internet_with_its_path():
    """Only the INTERNET goal reads a tree toward INTERNET, so the search ends
    with INTERNET reached: each source's path is still the reference's."""
    scenarios = [builtin_scenario(name) for name in TEMPLATE_NAMES]
    scenarios.append(parse_scenario(gen.hub_and_spoke(40, seed=0).text()))
    reached = 0
    for s in scenarios:
        for src in [x.id for x in s.segments] + [m.ONPREM]:
            want = _reference_locus_path(s, src, m.INTERNET)
            assert route_mod._locus_path(s, src, m.INTERNET) == want, (s.name, src)
            tree = s.index().route_trees[(src, True)]
            assert (list(tree)[-1:] == [m.INTERNET]) == (want is not None), (s.name, src)
            reached += want is not None
    assert reached > 40


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
