"""Enforcement-point evaluation and the full decision chain."""

import dataclasses
import random
import sys
from pathlib import Path

import pytest

from cloudperim import (
    builtin_scenario,
    evaluate_flow,
    oracle_decide,
    oracle_evaluate,
    parse_scenario,
    validate_scenario,
)
from cloudperim import model as m
from cloudperim.engine import (
    RequestContext,
    _network_leg,
    evaluate_endpoint_pair,
    evaluate_firewall_chain,
    evaluate_rbac,
)
from cloudperim.errors import InvalidScenarioError, UnknownEntityError, UnknownNodeError

sys.path.insert(0, str(Path(__file__).parent))
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from genrandom import random_request, random_scenario  # noqa: E402
from perfbench import gen  # noqa: E402  (read-only: the benchmark's estate generator)


def flow(principal, source, target, method="connect", **kw):
    return m.FlowRequest(principal=principal, source=source, target=target, method=method, **kw)


def verdicts(trace):
    return {step.point: (step.verdict, step.rule, step.reason) for step in trace}


def decide_as_oracle(s, r):
    """``evaluate_flow``'s decision on ``r`` and the point of its first deny
    (None if it allows), having checked that both are the oracle's and that
    each step's index is its position in the trace."""
    decision, trace = evaluate_flow(s, r)
    point = next((st.point for st in trace if st.verdict is m.Verdict.DENY), None)
    assert (decision, point) == oracle_decide(s, r), r
    assert [st.index for st in trace] == list(range(len(m.ENFORCEMENT_CHAIN))), r
    return decision, point


def leg_key(r):
    return (r.source, r.target, r.source_address, r.payload_tags)


def request_context(s, r):
    """What the principal points see of ``r``, its network leg built cold."""
    idx = s.index()
    return RequestContext(r, idx.principals[r.principal], _network_leg(s, idx, leg_key(r)), idx)


# ---------------------------------------------------------------------------
# fig1 directional checks
# ---------------------------------------------------------------------------


def test_fig1_green_to_yellow_allowed():
    s = builtin_scenario("fig1-lift-shift")
    decision, trace = evaluate_flow(s, flow("sa:green-a", "green", "yellow-pay"))
    assert decision.allowed
    assert verdicts(trace)[m.PointKind.GATEWAY][1] == "gw-gy-allow"


def test_fig1_green_to_internet_allowed():
    s = builtin_scenario("fig1-lift-shift")
    decision, _ = evaluate_flow(s, flow("sa:green-a", "green", m.INTERNET))
    assert decision.allowed


@pytest.mark.parametrize("target", ["green-app", m.INTERNET])
def test_fig1_yellow_egress_denied_at_gateway(target):
    s = builtin_scenario("fig1-lift-shift")
    decision, trace = evaluate_flow(s, flow("sa:yellow-pay", "yellow", target))
    assert not decision.allowed
    assert decision.reason is m.DenyReason.GATEWAY
    gateway_step = next(st for st in trace if st.point is m.PointKind.GATEWAY)
    assert gateway_step.verdict is m.Verdict.DENY


def test_fig1_store_endpoint_blocks_green_reader():
    s = builtin_scenario("fig1-lift-shift")
    decision, _ = evaluate_flow(s, flow("sa:green-a", "green", "yellow-store", "read"))
    assert decision.reason is m.DenyReason.CONSUMER
    decision, _ = evaluate_flow(s, flow("sa:yellow-pay", "yellow", "yellow-store", "read"))
    assert decision.allowed


# ---------------------------------------------------------------------------
# Firewall chain
# ---------------------------------------------------------------------------

HIER_DOC = """
name: hier
hierarchy:
  - {id: org, kind: organization}
  - {id: f, kind: folder, parent: org}
  - {id: prj, kind: project, parent: f}
networks:
  segments:
    - {id: net, project: prj, routability: routable, cidrs: [10.0.0.0/16]}
  edges:
    - id: gw-inet
      kind: gateway-appliance
      ends: [net, INTERNET]
      gateway_rules:
        - {id: gw-out, from: net, to: INTERNET, action: allow}
services:
  specs:
    - {id: svc, project: prj, segment: net, layer: l4, address: 10.0.0.10, compute: vm, auth_mode: perimeter-trusting}
identity:
  idps: [{id: idp, kind: cloud-native}]
  principals: [{id: p, kind: service-account, idp: idp}]
policies:
  firewall:
    - {id: folder-deny-inet, scope: "folder:f", priority: 10, action: deny, src: ["*"], dst: [INTERNET]}
    - {id: segment-allow-inet, scope: "segment:net", priority: 10, action: allow, src: ["*"], dst: [INTERNET]}
"""


def test_folder_deny_beats_segment_allow():
    s = parse_scenario(HIER_DOC)
    decision, trace = evaluate_flow(s, flow("p", "net", m.INTERNET))
    assert decision.reason is m.DenyReason.HIER_FIREWALL
    assert verdicts(trace)[m.PointKind.HIER_FIREWALL][1] == "folder-deny-inet"
    # removing the folder rule exposes the segment allow
    opened = dataclasses.replace(
        s, firewall_rules=tuple(r for r in s.firewall_rules if r.id != "folder-deny-inet")
    )
    decision, trace = evaluate_flow(opened, flow("p", "net", m.INTERNET))
    assert decision.allowed
    assert verdicts(trace)[m.PointKind.SEGMENT_FIREWALL][1] == "segment-allow-inet"


def test_segment_in_unknown_project_fails_closed():
    # A programmatic scenario skips the parser's reference checks. Skipping
    # the folder scopes would let the segment allow bypass the folder deny:
    # the engine refuses the scenario instead, and the oracle, which keeps
    # its own walks, fails on the unknown node.
    s = parse_scenario(HIER_DOC)
    ghost = dataclasses.replace(
        s, segments=tuple(dataclasses.replace(x, project="ghost") for x in s.segments)
    )
    request = flow("p", "net", m.INTERNET)
    with pytest.raises(InvalidScenarioError) as refused:
        evaluate_flow(ghost, request)
    assert [(v.code, v.subject) for v in refused.value.violations] == [("UNKNOWN_REF", "net")]
    with pytest.raises(UnknownNodeError):
        oracle_evaluate(ghost, request)


def test_segment_in_unknown_project_is_reported_by_validation():
    s = parse_scenario(HIER_DOC)
    ghost = dataclasses.replace(
        s, segments=tuple(dataclasses.replace(x, project="ghost") for x in s.segments)
    )
    violations = validate_scenario(ghost)
    assert [(v.code, v.subject) for v in violations] == [("UNKNOWN_REF", "net")]
    assert violations[0].message == "unknown project 'ghost'"


ONE_ADDRESS_DOC = """
name: one-address
hierarchy:
  - {id: org, kind: organization}
  - {id: prj, kind: project, parent: org}
networks:
  segments:
    - {id: a, project: prj, routability: routable, cidrs: [10.1.0.0/24]}
    - {id: b, project: prj, routability: routable, cidrs: [10.0.0.5/32]}
    - {id: c, project: prj, routability: routable, cidrs: [255.255.255.255/32]}
  edges:
    - {id: ab, kind: peering, ends: [a, b]}
    - {id: ac, kind: peering, ends: [a, c]}
services:
  specs:
    - {id: svc, project: prj, segment: a, layer: l4, address: 10.1.0.10, compute: vm, auth_mode: perimeter-trusting}
identity:
  idps: [{id: idp, kind: cloud-native}]
  principals: [{id: p, kind: service-account, idp: idp}]
policies:
  firewall:
    - {id: allow-next-address, scope: organization, priority: 10, action: allow, src: [10.0.0.6/32]}
    - {id: deny-rest, scope: organization, priority: 20, action: deny}
"""


@pytest.mark.parametrize("source", ["b", "c"])
def test_one_address_segment_is_its_own_source_address(source):
    # the canonical source address of a /32 segment is its one address, not the next one
    s = parse_scenario(ONE_ADDRESS_DOC)
    assert validate_scenario(s) == []
    request = flow("p", source, "svc")
    decision, trace = evaluate_flow(s, request)
    assert decision == oracle_evaluate(s, request)
    assert decision.reason is m.DenyReason.HIER_FIREWALL
    assert verdicts(trace)[m.PointKind.HIER_FIREWALL][1] == "deny-rest"


def test_no_rules_intra_segment_trusting_defaults_allow():
    doc = """
name: default
hierarchy:
  - {id: org, kind: organization}
  - {id: prj, kind: project, parent: org}
networks:
  segments:
    - {id: net, project: prj, routability: routable, cidrs: [10.0.0.0/16], trust_mode: trusting}
services:
  specs:
    - {id: svc, project: prj, segment: net, layer: l4, address: 10.0.0.10, compute: vm, auth_mode: perimeter-trusting}
identity:
  idps: [{id: idp, kind: cloud-native}]
  principals: [{id: p, kind: service-account, idp: idp}]
"""
    s = parse_scenario(doc)
    decision, trace = evaluate_flow(s, flow("p", "net", "svc"))
    assert decision.allowed
    assert verdicts(trace)[m.PointKind.SEGMENT_FIREWALL] == (m.Verdict.ALLOW, "default", None)
    # the same flow in a zero-trust segment denies by default
    zt = parse_scenario(doc.replace("trust_mode: trusting", "trust_mode: zero-trust"))
    decision, _ = evaluate_flow(zt, flow("p", "net", "svc"))
    assert decision.reason is m.DenyReason.FIREWALL_DEFAULT


def test_delegate_passes_to_next_scope():
    doc = HIER_DOC.replace(
        'action: deny, src: ["*"], dst: [INTERNET]', 'action: delegate, src: ["*"], dst: [INTERNET]'
    )
    s = parse_scenario(doc)
    decision, trace = evaluate_flow(s, flow("p", "net", m.INTERNET))
    assert decision.allowed
    assert verdicts(trace)[m.PointKind.SEGMENT_FIREWALL][1] == "segment-allow-inet"


def test_delegate_at_last_scope_falls_to_default():
    doc = HIER_DOC.replace(
        'action: allow, src: ["*"], dst: [INTERNET]',
        'action: delegate, src: ["*"], dst: [INTERNET]',
    ).replace(
        'action: deny, src: ["*"], dst: [INTERNET]',
        'action: delegate, src: ["*"], dst: [INTERNET]',
    )
    s = parse_scenario(doc)
    decision, trace = evaluate_flow(s, flow("p", "net", m.INTERNET))
    # both scopes delegate, nothing terminal, cross-boundary default denies
    assert decision.reason is m.DenyReason.FIREWALL_DEFAULT
    assert verdicts(trace)[m.PointKind.SEGMENT_FIREWALL][1] == m.DEFAULT_RULE


def _naive_firewall(s, leg):
    """Spec-order scan: org, folders root->leaf, segment; first non-delegate match."""
    from cloudperim.engine import _firewall_rule_matches, _scope_chain

    idx = s.index()
    for kind, key in _scope_chain(leg, idx):
        for rule in sorted((r for r in s.firewall_rules if r.scope == key), key=lambda r: r.priority):
            if _firewall_rule_matches(rule, leg):
                if rule.action is m.RuleAction.DELEGATE:
                    break
                return kind, rule
    return None, None


@pytest.mark.parametrize("seed", range(10))
def test_firewall_chain_matches_naive_scan_on_random_rules(seed):
    rng = random.Random(6000 + seed)
    s = random_scenario(rng)
    # densify: add up to 50 extra random rules with unique priorities
    cidr_pool = [c for seg in s.segments for c in seg.cidrs] + [m.ONPREM, m.INTERNET, m.ANY]
    scopes = [m.ORG_SCOPE] + [f"segment:{x.id}" for x in s.segments]
    extra = []
    used = {}
    for scope in scopes:
        used[scope] = {r.priority for r in s.firewall_rules if r.scope == scope}
    for i in range(50):
        scope = rng.choice(scopes)
        prio = rng.randint(1, 5000)
        while prio in used[scope]:
            prio += 1
        used[scope].add(prio)
        extra.append(
            m.FirewallRule(
                id=f"x{i}",
                scope=scope,
                priority=prio,
                action=rng.choice(list(m.RuleAction)),
                src=(rng.choice(cidr_pool),),
                dst=(rng.choice(cidr_pool),),
            )
        )
    dense = dataclasses.replace(s, firewall_rules=s.firewall_rules + tuple(extra))
    for _ in range(30):
        r = random_request(rng, dense)
        try:
            leg = _network_leg(dense, dense.index(), leg_key(r))
        except UnknownEntityError:
            continue
        if leg.path is None:
            continue
        hier, seg = evaluate_firewall_chain(dense, leg)
        # the leg keeps the outcomes as its HIER_FIREWALL and SEGMENT_FIREWALL steps
        assert [(st.verdict, st.rule) for st in leg.steps[1:3]] == [
            (hier.verdict, hier.rule),
            (seg.verdict, seg.rule),
        ]
        kind, rule = _naive_firewall(dense, leg)
        if rule is None:
            assert hier.rule == m.DEFAULT_RULE and seg.rule in (m.DEFAULT_RULE,)
        elif kind in ("organization", "folder"):
            assert hier.rule == rule.id
        else:
            assert seg.rule == rule.id


# ---------------------------------------------------------------------------
# Endpoint pair
# ---------------------------------------------------------------------------


def _endpoint_ctx(consumer_action, producer_action):
    s = builtin_scenario("fig4-landing-point")
    pred = lambda pid, action: (m.AccessPredicate(id=pid, action=action),)
    endpoints = tuple(
        dataclasses.replace(ep, policy=pred("c", consumer_action)) if ep.id == "ep-sql" else ep
        for ep in s.endpoints
    )
    attachments = tuple(
        dataclasses.replace(a, policy=pred("p", producer_action)) if a.id == "att-sql" else a
        for a in s.attachments
    )
    mutated = dataclasses.replace(s, endpoints=endpoints, attachments=attachments)
    return request_context(mutated, flow("user:analyst", m.ONPREM, "sql-db", "query"))


@pytest.mark.parametrize(
    "consumer,producer,expect_allow,deny_reason",
    [
        (m.RuleAction.ALLOW, m.RuleAction.ALLOW, True, None),
        (m.RuleAction.ALLOW, m.RuleAction.DENY, False, m.DenyReason.PRODUCER),
        (m.RuleAction.DENY, m.RuleAction.ALLOW, False, m.DenyReason.CONSUMER),
        (m.RuleAction.DENY, m.RuleAction.DENY, False, m.DenyReason.CONSUMER),
    ],
)
def test_endpoint_pair_and_composition(consumer, producer, expect_allow, deny_reason):
    ctx = _endpoint_ctx(consumer, producer)
    c, p = evaluate_endpoint_pair(ctx)
    overall_allow = c.verdict is m.Verdict.ALLOW and p.verdict is m.Verdict.ALLOW
    assert overall_allow == expect_allow
    if not expect_allow:
        first_deny = c if c.verdict is m.Verdict.DENY else p
        assert first_deny.reason is deny_reason


def test_empty_policies_default_allow():
    s = builtin_scenario("fig4-landing-point")
    ctx = request_context(s, flow("user:analyst", m.ONPREM, "sql-db", "query"))
    c, p = evaluate_endpoint_pair(ctx)
    assert c.verdict is m.Verdict.ALLOW and c.rule == m.DEFAULT_RULE
    assert p.verdict is m.Verdict.ALLOW and p.rule == m.DEFAULT_RULE


def test_consumer_deny_final_regardless_of_producer():
    s = builtin_scenario("fig4-landing-point")
    deny = (m.AccessPredicate(id="block-analyst", action=m.RuleAction.DENY, identities=("user:analyst",)),)
    endpoints = tuple(
        dataclasses.replace(ep, policy=deny) if ep.id == "ep-sql" else ep for ep in s.endpoints
    )
    mutated = dataclasses.replace(s, endpoints=endpoints)
    decision, _ = evaluate_flow(mutated, flow("user:analyst", m.ONPREM, "sql-db", "query"))
    assert decision.reason is m.DenyReason.CONSUMER
    # a different principal is untouched by the identity-scoped deny
    decision, _ = evaluate_flow(mutated, flow("user:intern", m.ONPREM, "sql-db", "query"))
    assert decision.allowed


# ---------------------------------------------------------------------------
# Perimeter crossing
# ---------------------------------------------------------------------------


def test_intra_perimeter_flow_unrestricted():
    s = builtin_scenario("fig4-landing-point")
    decision, trace = evaluate_flow(s, flow("sa:pay", "yellow-net", "pay-api", "read"))
    assert decision.allowed
    v = verdicts(trace)
    assert v[m.PointKind.PERIMETER_EGRESS] == (m.Verdict.ALLOW, "intra-perimeter", None)
    assert v[m.PointKind.PERIMETER_INGRESS] == (m.Verdict.ALLOW, "intra-perimeter", None)


def test_perimeter_egress_denied_without_rule():
    s = builtin_scenario("fig4-landing-point")
    decision, _ = evaluate_flow(s, flow("sa:pay", "yellow-net", m.INTERNET))
    assert decision.reason is m.DenyReason.PERIMETER_EGRESS


def test_crossing_needs_both_egress_and_ingress():
    s = builtin_scenario("fig4-landing-point")
    # route green-net -> clp endpoints does not exist, so build a synthetic crossing:
    # yellow egress to sql-db while green requires a matching ingress
    egress = m.PerimeterRule(
        id="eg-test", targets=(m.PerimeterTarget(project="prj-green", service="sql-db"),)
    )
    perims = tuple(
        dataclasses.replace(p, egress=(egress,)) if p.id == "yellow" else p for p in s.perimeters
    )
    bridged = dataclasses.replace(
        s,
        perimeters=perims,
        edges=s.edges + (m.ConnectivityEdge(id="peer-test", kind=m.EdgeKind.PEERING, ends=("yellow-net", "clp")),),
    )
    request = flow("sa:pay", "yellow-net", "sql-db", "query")
    decision, trace = evaluate_flow(bridged, request)
    # egress passes now, ingress still blocks (green's rule wants ONPREM analysts)
    assert decision.reason is m.DenyReason.PERIMETER_INGRESS
    assert verdicts(trace)[m.PointKind.PERIMETER_EGRESS][1] == "eg-test"

    # a matching ingress rule on the target perimeter completes the crossing
    ingress = m.PerimeterRule(
        id="ing-test",
        identities=("sa:pay",),
        targets=(m.PerimeterTarget(project="prj-green", service="sql-db", method="query"),),
    )
    opened_perims = tuple(
        dataclasses.replace(p, ingress=p.ingress + (ingress,)) if p.id == "green" else p
        for p in bridged.perimeters
    )
    rbac_grant = m.RBACBinding(
        id="rb-pay-sql", principal="sa:pay", role=(m.Permission(service="sql-db", method="query"),)
    )
    opened = dataclasses.replace(
        bridged, perimeters=opened_perims, bindings=bridged.bindings + (rbac_grant,)
    )
    decision, trace = evaluate_flow(opened, request)
    assert decision.allowed
    v = verdicts(trace)
    assert v[m.PointKind.PERIMETER_EGRESS][1] == "eg-test"
    assert v[m.PointKind.PERIMETER_INGRESS][1] == "ing-test"


def test_unperimetered_to_unperimetered_not_restricted():
    s = builtin_scenario("fig1-lift-shift")  # fig1 perimeters are not data-plane bound
    decision, trace = evaluate_flow(s, flow("sa:green-a", "green", "yellow-pay"))
    v = verdicts(trace)
    assert v[m.PointKind.PERIMETER_EGRESS] == (m.Verdict.ALLOW, m.NOT_APPLICABLE, None)
    assert v[m.PointKind.PERIMETER_INGRESS] == (m.Verdict.ALLOW, m.NOT_APPLICABLE, None)
    assert decision.allowed


def test_device_predicate_gates_ingress():
    s = builtin_scenario("fig4-landing-point")
    ok, _ = evaluate_flow(s, flow("user:analyst", m.ONPREM, "pay-api", "submit"))
    blocked, trace = evaluate_flow(s, flow("user:intern", m.ONPREM, "pay-api", "submit"))
    assert ok.allowed
    assert blocked.reason is m.DenyReason.PERIMETER_INGRESS


# ---------------------------------------------------------------------------
# AUTHN + RBAC
# ---------------------------------------------------------------------------


def test_fig10_rbac_default_deny_and_grant():
    s = builtin_scenario("fig10-zero-trust")
    denied, trace = evaluate_flow(s, flow("sa:c", "zt-net", "svc-a", "read"))
    assert denied.reason is m.DenyReason.RBAC_DEFAULT_DENY
    assert verdicts(trace)[m.PointKind.RBAC][0] is m.Verdict.DENY
    granted = dataclasses.replace(
        s,
        bindings=s.bindings
        + (m.RBACBinding(id="rb-ca", principal="sa:c", role=(m.Permission(service="svc-a", method="read"),)),),
    )
    allowed, _ = evaluate_flow(granted, flow("sa:c", "zt-net", "svc-a", "read"))
    assert allowed.allowed


def test_rbac_tag_condition_pii():
    s = builtin_scenario("fig8-direct-clp")
    sales, _ = evaluate_flow(s, flow("user:analyst", m.ONPREM, "bq-sales", "query"))
    customers, _ = evaluate_flow(s, flow("user:analyst", m.ONPREM, "bq-customers", "query"))
    assert sales.allowed
    assert customers.reason is m.DenyReason.RBAC_DEFAULT_DENY  # condition fails, no grant left


def test_rbac_group_expansion():
    s = builtin_scenario("fig4-landing-point")
    # binding names grp:analysts; the principal is a member
    decision, trace = evaluate_flow(s, flow("user:analyst", m.ONPREM, "sql-db", "query"))
    assert decision.allowed
    assert verdicts(trace)[m.PointKind.RBAC][1] == "rb-analyst-sql"


def test_authn_no_trust_path_denies():
    s = builtin_scenario("fig10-zero-trust")
    # give svc-a an idp nobody can reach from a foreign principal
    foreign_idp = m.IdentityProvider(id="idp-foreign", kind=m.IdpKind.CLOUD_NATIVE)
    stranger = m.Principal(id="sa:stranger", kind=m.PrincipalKind.SERVICE_ACCOUNT, idp="idp-foreign")
    mutated = dataclasses.replace(s, idps=s.idps + (foreign_idp,), principals=s.principals + (stranger,))
    decision, _ = evaluate_flow(mutated, flow("sa:stranger", "zt-net", "svc-a", "read"))
    assert decision.reason is m.DenyReason.NO_CREDENTIAL


def test_presented_chain_is_validated():
    s = builtin_scenario("fig5-vm")
    good = m.CredentialChain(
        steps=(
            m.ChainStep(idp="idp-ad", principal="ad:order-app", edge=None),
            m.ChainStep(idp="idp-cloud", principal="sa:order-fed", edge="fed-ad"),
        )
    )
    decision, _ = evaluate_flow(
        s, flow("ad:order-app", "ordering-net", "parts-store", "read", presented_chain=good)
    )
    assert decision.allowed
    forged = m.CredentialChain(
        steps=(
            m.ChainStep(idp="idp-ad", principal="ad:order-app", edge=None),
            m.ChainStep(idp="idp-cloud", principal="sa:ship", edge="fed-ad"),  # not the mapping
        )
    )
    decision, _ = evaluate_flow(
        s, flow("ad:order-app", "ordering-net", "parts-store", "read", presented_chain=forged)
    )
    assert decision.reason is m.DenyReason.NO_CREDENTIAL


def test_perimeter_trusting_binding_condition_denies():
    s = builtin_scenario("fig1-lift-shift")
    conditioned = m.RBACBinding(
        id="rb-pci-guard",
        principal="sa:green-a",
        role=(m.Permission(service="yellow-pay", method="connect"),),
        condition=m.TagCondition(key="pci", value="true"),
    )
    svc = s.index().services["yellow-pay"]
    outcome = evaluate_rbac(
        dataclasses.replace(s, bindings=(conditioned,)), svc, s.index().principals["sa:green-a"], "connect"
    )
    # yellow-pay serves no pci-tagged asset, so the governing condition fails
    assert outcome.reason is m.DenyReason.RBAC_CONDITION
    # absence of any applicable binding denies nothing
    outcome = evaluate_rbac(s, svc, s.index().principals["sa:green-a"], "connect")
    assert outcome.verdict is m.Verdict.ALLOW


@pytest.mark.parametrize("seed", range(5))
def test_rbac_matches_linear_scan(seed):
    rng = random.Random(7000 + seed)
    s = random_scenario(rng)
    # densify bindings: 10 random ones
    extra = []
    for i in range(10):
        extra.append(
            m.RBACBinding(
                id=f"dense{i}",
                principal=rng.choice([p.id for p in s.principals] + ["grp0", "grp1"]),
                role=(
                    m.Permission(
                        service=rng.choice([x.id for x in s.services]),
                        method=rng.choice(["read", "connect", m.ANY]),
                    ),
                ),
                condition=m.TagCondition(key="pii", value="true") if rng.random() < 0.3 else None,
            )
        )
    dense = dataclasses.replace(s, bindings=s.bindings + tuple(extra))
    from cloudperim.engine import target_tags

    for _ in range(20):
        svc = rng.choice(dense.services)
        principal = dense.index().principals[rng.choice([p.id for p in dense.principals])]
        method = rng.choice(["read", "connect", "query"])
        outcome = evaluate_rbac(dense, svc, principal, method)
        # oracle: scan every binding by hand
        tags = target_tags(dense, svc)
        hits = [
            b
            for b in dense.bindings
            if principal.matches_identity(b.principal) and b.grants(svc.id, method)
        ]
        ok = any(b.condition is None or b.condition.holds(tags) for b in hits)
        if svc.auth_mode is m.AuthMode.ZERO_TRUST:
            assert (outcome.verdict is m.Verdict.ALLOW) == ok
        else:
            assert (outcome.verdict is m.Verdict.ALLOW) == (ok or not hits)


# ---------------------------------------------------------------------------
# Chain semantics
# ---------------------------------------------------------------------------


def test_no_route_trace_shape():
    s = builtin_scenario("fig3-hierarchy")  # isolated segments
    decision, trace = evaluate_flow(s, flow("sa:web-prod", "net-web-prod", "pay-prod"))
    assert decision.reason is m.DenyReason.NO_ROUTE
    assert len(trace) == len(m.ENFORCEMENT_CHAIN)
    assert trace[0].point is m.PointKind.ROUTE and trace[0].verdict is m.Verdict.DENY
    for step in trace[1:]:
        assert step.verdict is m.Verdict.ALLOW and step.rule == m.NOT_APPLICABLE


def test_unknown_entities_raise():
    s = builtin_scenario("fig1-lift-shift")
    with pytest.raises(UnknownEntityError):
        evaluate_flow(s, flow("ghost", "green", "yellow-pay"))
    with pytest.raises(UnknownEntityError):
        evaluate_flow(s, flow("sa:green-a", "nowhere", "yellow-pay"))
    with pytest.raises(UnknownEntityError):
        evaluate_flow(s, flow("sa:green-a", "green", "10.2.0.9"))  # addresses are not flow targets


def test_gateway_content_class_matches_payload_tags():
    s = builtin_scenario("fig1-lift-shift")
    # tighten the green->yellow gateway: classified payloads are stopped first
    block = m.GatewayRule(
        id="gw-dlp",
        src_zone="green",
        dst_zone="yellow",
        action=m.RuleAction.DENY,
        content_class="pci:true",
    )
    edges = tuple(
        dataclasses.replace(e, gateway_rules=(block,) + e.gateway_rules)
        if e.id == "gw-green-yellow"
        else e
        for e in s.edges
    )
    guarded = dataclasses.replace(s, edges=edges)
    clean, _ = evaluate_flow(guarded, flow("sa:green-a", "green", "yellow-pay"))
    assert clean.allowed
    tainted, _ = evaluate_flow(
        guarded,
        flow("sa:green-a", "green", "yellow-pay", payload_tags=frozenset({"pci:true"})),
    )
    assert tainted.reason is m.DenyReason.GATEWAY


def test_concurrent_evaluation_matches_sequential():
    from concurrent.futures import ThreadPoolExecutor

    s = builtin_scenario("fig4-landing-point")
    from cloudperim.analysis import default_request_space

    requests = default_request_space(s)
    sequential = [evaluate_flow(s, r) for r in requests]
    fresh = dataclasses.replace(s)  # cold caches
    with ThreadPoolExecutor(max_workers=8) as pool:
        concurrent = list(pool.map(lambda r: evaluate_flow(fresh, r), requests))
    assert sequential == concurrent


@pytest.mark.parametrize("seed", range(15))
def test_and_composition_and_trace_completeness(seed):
    rng = random.Random(8000 + seed)
    s = random_scenario(rng)
    for _ in range(25):
        r = random_request(rng, s)
        try:
            decision, trace = evaluate_flow(s, r)
        except UnknownEntityError:
            continue
        assert len(trace) == 10
        assert [step.point for step in trace] == list(m.ENFORCEMENT_CHAIN)
        all_allow = all(step.verdict is m.Verdict.ALLOW for step in trace)
        assert decision.allowed == all_allow
        denies = [step for step in trace if step.verdict is m.Verdict.DENY]
        if denies:
            assert len(denies) == 1  # evaluation stops at the first deny
            assert decision.reason is denies[0].reason
            assert denies[0].reason is not None
        assert trace  # non-empty for every evaluated request


# ---------------------------------------------------------------------------
# Source addresses: engine and oracle agree wherever the address points
# ---------------------------------------------------------------------------


def _last_host(cidr):
    import ipaddress

    return str(ipaddress.ip_network(cidr, strict=False).broadcast_address - 1)


def _source_addresses(s, source):
    """Addresses inside the source segment, inside another segment, outside
    every segment, IPv6 and malformed."""
    import ipaddress

    cidrs = [ipaddress.ip_network(c, strict=False) for seg in s.segments for c in seg.cidrs]
    outside = next(
        a for a in ("192.0.2.77", "198.51.100.9", "203.0.113.5")
        if not any(ipaddress.ip_address(a) in net for net in cidrs)
    )
    own = next((seg for seg in s.segments if seg.id == source), None)
    other = next((seg for seg in s.segments if seg.id != source and seg.cidrs), None)
    addresses = [outside, "2001:db8::5", "not-an-ip"]
    if own is not None and own.cidrs:
        addresses.append(_last_host(own.cidrs[-1]))
    if other is not None:
        addresses.append(_last_host(other.cidrs[-1]))
    return addresses


@pytest.mark.parametrize("name", sorted(__import__("cloudperim").TEMPLATE_NAMES))
def test_engine_matches_oracle_with_source_addresses(name):
    from cloudperim.analysis import default_request_space

    s = builtin_scenario(name)
    moved = 0
    for r in default_request_space(s):
        plain, _ = evaluate_flow(s, r)
        for address in _source_addresses(s, r.source):
            addressed = dataclasses.replace(r, source_address=address)
            decision, _ = decide_as_oracle(s, addressed)
            moved += decision != plain
    if name in ("fig1-lift-shift", "fig11-combined"):
        assert moved  # the templates with CIDR-scoped rules see the address


@pytest.mark.parametrize("spokes, seed", [(10, 0), (10, 1), (10, 2), (50, 0)])
def test_engine_matches_oracle_on_a_generated_estate(spokes, seed):
    """A ``gen.flow_requests`` stream over a hub-and-spoke estate (every
    request field drawn, presented chains and source addresses included)
    decides alike, at the same deciding point, in the engine and the oracle,
    and every point decides some request."""
    estate = gen.hub_and_spoke(spokes, seed)
    s = parse_scenario(estate.text())
    deciding = set()
    for r in gen.flow_requests(estate, random.Random(seed), 500):
        deciding.add(decide_as_oracle(s, r)[1])
    assert deciding == {None, *m.ENFORCEMENT_CHAIN}


@pytest.mark.parametrize("seed", range(40))
def test_engine_matches_oracle_on_deep_folder_trees(seed):
    """Over the default request space of a scenario whose folders nest
    several levels deep, the engine decides as the oracle does, at the same
    point; so the hierarchical firewall's scopes are walked root first."""
    from cloudperim.analysis import default_request_space

    s = random_scenario(random.Random(seed), deep_folders=True)
    idx = s.index()
    assert max(len(idx.folders_above(n.id)) for n in s.nodes) >= 3
    for r in default_request_space(s):
        decide_as_oracle(s, r)
