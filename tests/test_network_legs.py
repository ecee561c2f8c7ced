"""The per-scenario network-leg memo: a warm index answers every request as a
cold one does, and the network points run once per leg."""

import dataclasses
import ipaddress
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloudperim import TEMPLATE_NAMES, builtin_scenario, engine, evaluate_flow, parse_scenario, validate_scenario
from cloudperim import model as m
from cloudperim import prefix
from cloudperim.analysis import (
    default_request_space,
    flow_targets,
    method_universe,
    reachability_matrix,
    source_loci,
)
from cloudperim.errors import InvalidScenarioError, UnknownEntityError
from cloudperim.identity import resolve_credential
from cloudperim.route import RoutePath, resolve_path

sys.path.insert(0, str(Path(__file__).parent))
from genrandom import random_request, random_scenario  # noqa: E402


def _answer(s, r):
    """(decision, trace) of ``r``, or the type of the error it raises."""
    try:
        return evaluate_flow(s, r)
    except UnknownEntityError as e:
        return type(e)


def _assert_warm_matches_cold(s, requests):
    """Every request, asked in turn on one warm index, gets the decision and
    the full trace it gets on a cold index of its own."""
    warm = dataclasses.replace(s)
    for r in requests:
        assert _answer(warm, r) == _answer(dataclasses.replace(s), r), r


def _addresses(s):
    """Source addresses inside each segment, outside all of them, IPv6, malformed."""
    out = ["192.0.2.77", "2001:db8::5", "not-an-ip"]
    for seg in s.segments:
        for cidr in seg.cidrs:
            net = ipaddress.ip_network(cidr, strict=False)
            out += [str(net.network_address), str(net.broadcast_address)]
    return out


def _tag_sets(s):
    """Payload tags: none, each gateway content class and two data tags, all of them."""
    tags = {"pci:true", "pii:true"}
    tags.update(r.content_class for e in s.edges for r in e.gateway_rules if r.content_class)
    return [frozenset()] + [frozenset({t}) for t in sorted(tags)] + [frozenset(tags)]


def _chains(s):
    """Every chain a principal resolves to an idp, and each with its last step forged."""
    out = []
    for p in s.principals:
        for idp in s.idps:
            chain = resolve_credential(s, p.id, idp.id)
            if chain is None:
                continue
            out.append(chain)
            last = dataclasses.replace(chain.steps[-1], principal=s.principals[0].id)
            out.append(m.CredentialChain(chain.steps[:-1] + (last,)))
    return out


def _variants(rng, s, requests):
    """The requests, each also with a drawn source address and payload tags."""
    addresses, tag_sets = _addresses(s), _tag_sets(s)
    out = list(requests)
    for r in requests:
        out.append(
            dataclasses.replace(r, source_address=rng.choice(addresses), payload_tags=rng.choice(tag_sets))
        )
    rng.shuffle(out)
    return out


@pytest.mark.parametrize("name", sorted(TEMPLATE_NAMES))
def test_warm_index_matches_cold_on_template_request_space(name):
    s = builtin_scenario(name)
    rng = random.Random(name)
    _assert_warm_matches_cold(s, _variants(rng, s, default_request_space(s)))


@pytest.mark.parametrize("seed", range(15))
def test_warm_index_matches_cold_on_random_scenarios(seed):
    rng = random.Random(9000 + seed)
    s = random_scenario(rng)
    requests = [random_request(rng, s) for _ in range(40)]
    chains = _chains(s)
    requests += [dataclasses.replace(r, presented_chain=rng.choice(chains)) for r in requests[:20]]
    _assert_warm_matches_cold(s, _variants(rng, s, requests))


def _scenario(key):
    """A template by name, or a random scenario by seed."""
    return builtin_scenario(key) if isinstance(key, str) else random_scenario(random.Random(key))


def _requests(s):
    """Any request over the scenario's names, with every FlowRequest field drawn."""
    return st.builds(
        m.FlowRequest,
        principal=st.sampled_from(sorted(x.id for x in s.principals)),
        source=st.sampled_from(source_loci(s)),
        target=st.sampled_from(flow_targets(s)),
        method=st.sampled_from(method_universe(s) + ["admin"]),
        source_address=st.none() | st.sampled_from(_addresses(s)),
        payload_tags=st.sampled_from(_tag_sets(s)),
        presented_chain=st.none() | st.sampled_from(_chains(s) or [None]),
    )


@settings(max_examples=60, deadline=None)
@given(data=st.data(), key=st.sampled_from(sorted(TEMPLATE_NAMES)) | st.integers(0, 10**6))
def test_warm_index_matches_cold_on_drawn_requests(data, key):
    s = _scenario(key)
    _assert_warm_matches_cold(s, data.draw(st.lists(_requests(s), min_size=1, max_size=15)))


# ---------------------------------------------------------------------------
# Requests that share source and target but not their leg
# ---------------------------------------------------------------------------


def _meet_on_one_index(s, a, b):
    """``a`` and ``b`` decide differently; asked in either order on one warm
    index, each still gets its cold answer."""
    cold_a, cold_b = _answer(dataclasses.replace(s), a), _answer(dataclasses.replace(s), b)
    assert cold_a[0] != cold_b[0]
    for first, second in ((a, b), (b, a)):
        _assert_warm_matches_cold(s, [first, second, first])


def test_requests_differing_only_in_source_address_meet_on_one_warm_index():
    s = builtin_scenario("fig1-lift-shift")
    cold = dataclasses.replace(s)
    pairs = [
        (r, dataclasses.replace(r, source_address=address))
        for r in default_request_space(s)
        for address in _addresses(s)
    ]
    moved = [(r, addressed) for r, addressed in pairs if _answer(cold, r)[0] != _answer(cold, addressed)[0]]
    assert moved  # fig1 has CIDR-scoped rules that the address decides
    for r, addressed in moved[:5]:
        _meet_on_one_index(s, r, addressed)


def test_requests_differing_only_in_payload_tags_meet_on_one_warm_index():
    s = builtin_scenario("fig1-lift-shift")
    block = m.GatewayRule(
        id="gw-dlp", src_zone="green", dst_zone="yellow", action=m.RuleAction.DENY, content_class="pci:true"
    )
    guarded = dataclasses.replace(
        s,
        edges=tuple(
            dataclasses.replace(e, gateway_rules=(block,) + e.gateway_rules) if e.id == "gw-green-yellow" else e
            for e in s.edges
        ),
    )
    clean = m.FlowRequest("sa:green-a", "green", "yellow-pay")
    _meet_on_one_index(guarded, clean, dataclasses.replace(clean, payload_tags=frozenset({"pci:true"})))


# ---------------------------------------------------------------------------
# What the memo holds
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(TEMPLATE_NAMES))
def test_firewall_chain_runs_once_per_routed_leg(name, monkeypatch):
    s = dataclasses.replace(builtin_scenario(name))
    original = engine.evaluate_firewall_chain
    calls = []

    def counted(s_, leg):
        calls.append(leg)
        return original(s_, leg)

    monkeypatch.setattr(engine, "evaluate_firewall_chain", counted)
    matrix = reachability_matrix(s)
    requests = default_request_space(s)
    legs = {(r.source, r.target) for r in requests}
    routed = {leg for leg in legs if isinstance(resolve_path(s, *leg), RoutePath)}
    assert len(matrix.cells) == len(requests)
    assert len(s.index().legs) == len(legs)
    assert len(calls) == len(routed)


def test_denied_leg_answers_every_principal_with_one_shared_answer():
    s = dataclasses.replace(builtin_scenario("fig3-hierarchy"))  # isolated segments
    first = evaluate_flow(s, m.FlowRequest("sa:web-prod", "net-web-prod", "pay-prod"))
    again = evaluate_flow(s, m.FlowRequest("sa:web-prod", "net-web-prod", "pay-prod", method="read"))
    assert first[0].reason is m.DenyReason.NO_ROUTE
    assert again is first


def test_a_leg_that_raises_is_never_stored():
    doc = """
name: ghost
hierarchy:
  - {id: org, kind: organization}
  - {id: prj, kind: project, parent: org}
networks:
  segments:
    - {id: net, project: prj, routability: routable, cidrs: [10.0.0.0/16]}
  edges:
    - {id: nat, kind: nat-gateway, ends: [net, INTERNET]}
identity:
  idps: [{id: idp, kind: cloud-native}]
  principals: [{id: p, kind: service-account, idp: idp}]
"""
    s = parse_scenario(doc)
    # a scenario with a violation is refused before any leg is built, every time
    ghost = dataclasses.replace(s, segments=tuple(dataclasses.replace(x, project="ghost") for x in s.segments))
    request = m.FlowRequest("p", "net", m.INTERNET)
    for _ in range(2):
        with pytest.raises(InvalidScenarioError):
            evaluate_flow(ghost, request)
    assert ghost._index is None
    # a request naming what the scenario lacks raises, and leaves no leg behind
    for bad in (m.FlowRequest("p", "nowhere", m.INTERNET), m.FlowRequest("p", "net", "nothing")):
        with pytest.raises(UnknownEntityError):
            evaluate_flow(s, bad)
    assert s.index().legs == {}


def test_unknown_principal_is_reported_before_the_leg_warm_or_cold():
    s = dataclasses.replace(builtin_scenario("fig1-lift-shift"))
    with pytest.raises(UnknownEntityError, match="principal"):
        evaluate_flow(s, m.FlowRequest("ghost", "nowhere", "nothing"))
    evaluate_flow(s, m.FlowRequest("sa:green-a", "green", "yellow-pay"))
    with pytest.raises(UnknownEntityError, match="principal"):
        evaluate_flow(s, m.FlowRequest("ghost", "green", "yellow-pay"))
    with pytest.raises(UnknownEntityError, match="source"):
        evaluate_flow(s, m.FlowRequest("sa:green-a", "nowhere", "nothing"))


@pytest.mark.parametrize(
    "address, port, violations",
    [("10.2.9.9:8443", 8443, []), ("10.2.9.9", None, []), ("10.2.9.9:http", None, ["ENDPOINT_ADDR"])],
)
def test_leg_reads_the_target_host_and_port_once(address, port, violations):
    """The endpoint's host meets dst rules and its port is the flow's. A port
    the parser rejects (so does ``validate_scenario``) refuses the scenario
    before any leg is read."""
    s = builtin_scenario("fig1-lift-shift")
    s = dataclasses.replace(s, endpoints=(dataclasses.replace(s.endpoints[0], address=address),))
    assert [v.code for v in validate_scenario(s)] == violations
    r = m.FlowRequest(principal="sa:yellow-pay", source="yellow", target="ep-store", method="read")
    if violations:
        with pytest.raises(InvalidScenarioError):
            evaluate_flow(s, r)
        return
    leg = engine._network_leg(s, s.index(), (r.source, r.target, None, frozenset()))
    assert leg.target_nets[0] == prefix.address("10.2.9.9") and leg.dst_port == port


def test_a_perimeter_rule_reaches_the_source_tokens_only_of_legs_crossing_its_perimeter():
    """The source tokens are those of the rules the principal points read: a
    leg inside one perimeter reads none of its rules, so a rule whose network
    matches the source neither adds a token nor splits the leg's class; once
    the source's project leaves the perimeter, the leg crosses it and the
    network is a token."""
    s = builtin_scenario("fig10-zero-trust")
    rule = m.PerimeterRule(id="from-mesh", networks=("10.10.0.0/16", "192.168.0.0/16"))
    key = ("zt-net", "svc-b", None, frozenset())

    def leg(members):
        perimeters = tuple(dataclasses.replace(p, members=members, ingress=(rule,), egress=(rule,)) for p in s.perimeters)
        return engine.network_leg(dataclasses.replace(s, perimeters=perimeters), key)

    inside = leg(s.perimeters[0].members)
    assert inside.denied is None and inside.src_perimeter == inside.dst_perimeter
    assert inside.source_tokens == frozenset()
    assert inside.context == engine.network_leg(dataclasses.replace(s), key).context
    crossing = leg(m.MemberSelector(projects=("prj-a", "prj-b", "prj-c", "prj-d")))
    assert crossing.src_perimeter is None and crossing.dst_perimeter is not None
    assert crossing.source_tokens == frozenset({"10.10.0.0/16"})
