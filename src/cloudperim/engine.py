"""Flow evaluation through the ordered chain of enforcement points.

Every request produces one trace step per point, in the fixed order

    ROUTE, HIER_FIREWALL, SEGMENT_FIREWALL, GATEWAY, CONSUMER_ENDPOINT,
    PRODUCER_ATTACHMENT, PERIMETER_EGRESS, PERIMETER_INGRESS, AUTHN, RBAC

mirroring the physical path of a request. Evaluation stops at the first
denying point; the remaining points are recorded as not-applicable, so the
overall verdict is Allow iff every step allows and a Deny always names
exactly one point and reason.

The chain splits at the principal. The network points (ROUTE through
GATEWAY) see only the request's network leg: its source, target, source
address and payload tags. They are evaluated once per leg and scenario, and
the leg, with its finished trace steps, is kept in the scenario index. The
principal points (CONSUMER_ENDPOINT through RBAC) run per request.

Defaults encode the trust split: unmatched intra-segment flows allow only in
trusting segments, everything else crossing a boundary denies; gateways deny
unmatched traversals; endpoint policies allow when empty.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator

from . import identity as identity_mod
from . import model as m
from . import prefix
from . import route as route_mod
from .errors import UnknownEntityError
from .scenario import Scenario, ScenarioIndex

FLOW_PROTOCOL = "tcp"  # modeled flows are connection-initiating TCP requests


@dataclass(frozen=True, slots=True)
class NetworkLeg:
    """The principal-independent half of a request, for one
    (source, target, source address, payload tags) in one scenario."""

    source: str
    payload_tags: frozenset[str]
    path: route_mod.RoutePath | None
    target_service: m.ServiceSpec | None   # None when target is INTERNET
    endpoint: m.ConsumerEndpoint | None
    attachment: m.ServiceAttachment | None
    source_segment: m.NetworkSegment | None
    source_nets: tuple[prefix.Interval, ...]  # source address, then source segment CIDRs
    target_nets: tuple[prefix.Interval, ...]  # target host addresses, then its segment CIDRs
    dst_port: int | None
    steps: m.DecisionTrace = ()  # the network points' steps; the whole trace if one denies
    denied: tuple[m.Decision, m.DecisionTrace] | None = None  # the answer, if a network point denies


@dataclass(frozen=True, slots=True)
class RequestContext:
    """What the principal points see of one request."""

    request: m.FlowRequest
    principal: m.Principal
    leg: NetworkLeg
    index: ScenarioIndex


# ---------------------------------------------------------------------------
# Match primitives
# ---------------------------------------------------------------------------


def _src_token_matches(token: str, leg: NetworkLeg) -> bool:
    """A CIDR token matches the source address or any CIDR of the source segment."""
    if token == m.ANY:
        return True
    if token in m.DISTINGUISHED_LOCI:
        return leg.source == token
    return prefix.meets_any(prefix.network(token), leg.source_nets)


def _dst_token_matches(token: str, leg: NetworkLeg) -> bool:
    """A CIDR token matches a target host address or any CIDR of the target's segment."""
    if token == m.ANY:
        return True
    if token == m.INTERNET:
        return leg.target_service is None
    # flows never target ONPREM
    return token != m.ONPREM and prefix.meets_any(prefix.network(token), leg.target_nets)


def _firewall_rule_matches(rule: m.FirewallRule, leg: NetworkLeg) -> bool:
    if rule.protocol not in ("any", FLOW_PROTOCOL):
        return False
    if not any(_src_token_matches(t, leg) for t in rule.src):
        return False
    if not any(_dst_token_matches(t, leg) for t in rule.dst):
        return False
    if rule.ports:
        if leg.dst_port is None:
            return False
        if not any(lo <= leg.dst_port <= hi for lo, hi in rule.ports):
            return False
    return True


def _predicate_matches(p: m.AccessPredicate, ctx: RequestContext) -> bool:
    if p.identities and not any(ctx.principal.matches_identity(t) for t in p.identities):
        return False
    if p.cidrs and not any(_src_token_matches(t, ctx.leg) for t in p.cidrs):
        return False
    if p.methods and not any(m.method_matches(t, ctx.request.method) for t in p.methods):
        return False
    return True


def _perimeter_rule_matches(rule: m.PerimeterRule, ctx: RequestContext) -> bool:
    if rule.identities and not any(ctx.principal.matches_identity(t) for t in rule.identities):
        return False
    for k, v in rule.device.items():
        if ctx.principal.device.get(k) != v:
            return False
    if rule.networks and not any(_src_token_matches(t, ctx.leg) for t in rule.networks):
        return False
    if rule.targets:
        svc = ctx.leg.target_service
        tgt_project = svc.project if svc else None
        tgt_service = svc.id if svc else m.INTERNET
        ok = any(
            (t.project == m.ANY or t.project == tgt_project)
            and (t.service == m.ANY or t.service == tgt_service)
            and m.method_matches(t.method, ctx.request.method)
            for t in rule.targets
        )
        if not ok:
            return False
    return True


def _gateway_rule_matches(rule: m.GatewayRule, hop: route_mod.Hop, leg: NetworkLeg) -> bool:
    if rule.src_zone not in (m.ANY, hop.src):
        return False
    if rule.dst_zone not in (m.ANY, hop.dst):
        return False
    if not rule.new_connection:
        return False  # modeled flows are always new connections
    if rule.protocol not in ("any", FLOW_PROTOCOL):
        return False
    if rule.content_class is not None and rule.content_class not in leg.payload_tags:
        return False
    return True


def target_tags(s: Scenario, svc: m.ServiceSpec) -> frozenset[str]:
    """Effective tags of the service's project plus its assets' classifications."""
    idx = s.index()
    cache = idx.target_tags
    if svc.id in cache:
        return cache[svc.id]
    tags = set(m.effective_tags(svc.project, idx.nodes))
    for asset_id in list(svc.reads) + list(svc.writes):
        asset = idx.assets.get(asset_id)
        if asset is None:
            continue
        tags.update(asset.tags)
        if asset.resource in idx.nodes:
            tags.update(m.effective_tags(asset.resource, idx.nodes))
    result = frozenset(tags)
    cache[svc.id] = result
    return result


# ---------------------------------------------------------------------------
# Enforcement points
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PointOutcome:
    verdict: m.Verdict
    rule: str
    reason: m.DenyReason | None = None


_ALLOW_NA = PointOutcome(m.Verdict.ALLOW, m.NOT_APPLICABLE)


def _scope_chain(s: Scenario, leg: NetworkLeg, idx: ScenarioIndex) -> list[tuple[str, str]]:
    """(scope kind, scope key) list for this flow: org, folders root->leaf, segment.

    Anchored at the source side for segment-borne flows and at the target side
    for flows entering from ONPREM/INTERNET. An anchor whose project is not in
    the hierarchy raises ``UnknownNodeError``: skipping its folder scopes would
    bypass their rules.
    """
    anchor_seg = leg.source_segment
    if anchor_seg is None and leg.target_service is not None:
        anchor_seg = idx.segments.get(leg.target_service.segment)
    scopes: list[tuple[str, str]] = [("organization", m.ORG_SCOPE)]
    if anchor_seg is not None:
        for node_id in m.ancestors(anchor_seg.project, idx.nodes):
            node = idx.nodes.get(node_id)
            if node is not None and node.kind is m.NodeKind.FOLDER:
                scopes.append(("folder", f"folder:{node_id}"))
        scopes.append(("segment", f"segment:{anchor_seg.id}"))
    return scopes


def _flow_is_intra_segment(leg: NetworkLeg) -> bool:
    if leg.source_segment is None:
        return False
    if leg.endpoint is not None:
        return leg.endpoint.segment == leg.source_segment.id
    if leg.target_service is not None:
        return leg.target_service.segment == leg.source_segment.id
    return False


def _terminal_rule(
    s: Scenario, leg: NetworkLeg, idx: ScenarioIndex
) -> tuple[str, m.FirewallRule] | tuple[None, None]:
    """(scope kind, rule) of the first matching non-delegate rule, scope by scope."""
    for scope_kind, scope_key in _scope_chain(s, leg, idx):
        for rule in idx.firewall_rules_by_scope.get(scope_key, ()):
            if _firewall_rule_matches(rule, leg):
                if rule.action is not m.RuleAction.DELEGATE:
                    return scope_kind, rule
                break  # hand over to the next scope
    return None, None


def evaluate_firewall_chain(
    s: Scenario, leg: NetworkLeg
) -> tuple[PointOutcome, PointOutcome]:
    """Hierarchical then segment firewall outcomes for one flow."""
    hier = PointOutcome(m.Verdict.ALLOW, m.DEFAULT_RULE)
    scope_kind, rule = _terminal_rule(s, leg, s.index())
    if rule is not None:
        segment = scope_kind == "segment"
        if rule.action is m.RuleAction.ALLOW:
            outcome = PointOutcome(m.Verdict.ALLOW, rule.id)
        else:
            reason = m.DenyReason.SEGMENT_FIREWALL if segment else m.DenyReason.HIER_FIREWALL
            outcome = PointOutcome(m.Verdict.DENY, rule.id, reason)
        return (hier, outcome) if segment else (outcome, _ALLOW_NA)
    if (
        _flow_is_intra_segment(leg)
        and leg.source_segment is not None
        and leg.source_segment.trust_mode is m.TrustMode.TRUSTING
    ):
        return hier, PointOutcome(m.Verdict.ALLOW, m.DEFAULT_RULE)
    return hier, PointOutcome(m.Verdict.DENY, m.DEFAULT_RULE, m.DenyReason.FIREWALL_DEFAULT)


def evaluate_gateways(leg: NetworkLeg, idx: ScenarioIndex) -> PointOutcome:
    hops = leg.path.gateway_hops() if leg.path else []
    if not hops:
        return _ALLOW_NA
    matched: list[str] = []
    for hop in hops:
        edge = idx.edges[hop.edge]
        hit = next((r for r in edge.gateway_rules if _gateway_rule_matches(r, hop, leg)), None)
        if hit is None:
            return PointOutcome(m.Verdict.DENY, m.DEFAULT_RULE, m.DenyReason.GATEWAY)
        if hit.action is m.RuleAction.DENY:
            return PointOutcome(m.Verdict.DENY, hit.id, m.DenyReason.GATEWAY)
        matched.append(hit.id)
    return PointOutcome(m.Verdict.ALLOW, "+".join(matched))


def evaluate_endpoint_pair(ctx: RequestContext) -> tuple[PointOutcome, PointOutcome]:
    """Consumer then producer policy; either side's deny is final (AND)."""
    endpoint, attachment = ctx.leg.endpoint, ctx.leg.attachment
    if endpoint is None or attachment is None:
        return _ALLOW_NA, _ALLOW_NA
    outcomes = []
    for policy, reason in (
        (endpoint.policy, m.DenyReason.CONSUMER),
        (attachment.policy, m.DenyReason.PRODUCER),
    ):
        hit = next((p for p in policy if _predicate_matches(p, ctx)), None)
        if hit is None:
            outcomes.append(PointOutcome(m.Verdict.ALLOW, m.DEFAULT_RULE))
        elif hit.action is m.RuleAction.DENY:
            outcomes.append(PointOutcome(m.Verdict.DENY, hit.id, reason))
        else:
            outcomes.append(PointOutcome(m.Verdict.ALLOW, hit.id))
    return outcomes[0], outcomes[1]


def evaluate_perimeter_crossing(
    s: Scenario, ctx: RequestContext
) -> tuple[PointOutcome, PointOutcome]:
    """Egress from the source's perimeter, ingress into the target's.

    Only perimeters bound to the data-plane-perimeter mechanism restrict
    crossings; flows wholly inside one perimeter pass unrestricted.
    """
    idx, leg = ctx.index, ctx.leg
    src_project = leg.source_segment.project if leg.source_segment else None
    dst_project = leg.target_service.project if leg.target_service else None
    src_perim = idx.data_plane_perimeter_of(src_project)
    dst_perim = idx.data_plane_perimeter_of(dst_project)

    if src_perim is not None and dst_perim is not None and src_perim.id == dst_perim.id:
        intra = PointOutcome(m.Verdict.ALLOW, "intra-perimeter")
        return intra, intra

    def crossing(rules: tuple[m.PerimeterRule, ...], reason: m.DenyReason) -> PointOutcome:
        hit = next((r for r in rules if _perimeter_rule_matches(r, ctx)), None)
        if hit is None:
            return PointOutcome(m.Verdict.DENY, m.DEFAULT_RULE, reason)
        return PointOutcome(m.Verdict.ALLOW, hit.id)

    return (
        _ALLOW_NA if src_perim is None else crossing(src_perim.egress, m.DenyReason.PERIMETER_EGRESS),
        _ALLOW_NA if dst_perim is None else crossing(dst_perim.ingress, m.DenyReason.PERIMETER_INGRESS),
    )


def evaluate_authn(s: Scenario, ctx: RequestContext) -> tuple[PointOutcome, m.Principal]:
    """Resolve the asserted principal the RBAC point will see."""
    svc = ctx.leg.target_service
    if svc is None or svc.auth_mode is not m.AuthMode.ZERO_TRUST or svc.idp is None:
        return _ALLOW_NA, ctx.principal
    chain = ctx.request.presented_chain
    if chain is not None:
        if not identity_mod.chain_is_valid(s, chain, ctx.principal.id, svc.idp):
            return (
                PointOutcome(m.Verdict.DENY, m.DEFAULT_RULE, m.DenyReason.NO_CREDENTIAL),
                ctx.principal,
            )
    else:
        chain = identity_mod.resolve_credential(s, ctx.principal.id, svc.idp)
        if chain is None:
            return (
                PointOutcome(m.Verdict.DENY, m.DEFAULT_RULE, m.DenyReason.NO_CREDENTIAL),
                ctx.principal,
            )
    terminal = ctx.index.principals.get(chain.terminal_principal, ctx.principal)
    edges = "+".join(step.edge for step in chain.steps if step.edge) or "home-idp"
    return PointOutcome(m.Verdict.ALLOW, edges), terminal


def evaluate_rbac(
    s: Scenario, svc: m.ServiceSpec, principal: m.Principal, method: str
) -> PointOutcome:
    """Per-service RBAC: grants for zero-trust, tag conditions for trusting."""
    tags = target_tags(s, svc)
    applicable = [
        b
        for b in s.index().bindings_for_service.get(svc.id, ())
        if principal.matches_identity(b.principal) and b.grants(svc.id, method)
    ]
    satisfied = next(
        (b for b in applicable if b.condition is None or b.condition.holds(tags)), None
    )
    if svc.auth_mode is m.AuthMode.ZERO_TRUST:
        if satisfied is not None:
            return PointOutcome(m.Verdict.ALLOW, satisfied.id)
        return PointOutcome(m.Verdict.DENY, m.DEFAULT_RULE, m.DenyReason.RBAC_DEFAULT_DENY)
    # perimeter-trusting: absence of bindings denies nothing; a governing
    # grant makes its tag condition binding
    if not applicable:
        return PointOutcome(m.Verdict.ALLOW, m.DEFAULT_RULE)
    if satisfied is not None:
        return PointOutcome(m.Verdict.ALLOW, satisfied.id)
    return PointOutcome(m.Verdict.DENY, applicable[0].id, m.DenyReason.RBAC_CONDITION)


# ---------------------------------------------------------------------------
# The chain
# ---------------------------------------------------------------------------

# ENFORCEMENT_CHAIN[:_PRINCIPAL_FROM] are the network points, the rest the
# principal points.
_PRINCIPAL_FROM = m.ENFORCEMENT_CHAIN.index(m.PointKind.CONSUMER_ENDPOINT)
# The step of each point that a request does not reach, or that does not apply.
_NOT_APPLICABLE_STEPS: m.DecisionTrace = tuple(
    m.TraceStep(i, point, m.Verdict.ALLOW, m.NOT_APPLICABLE)
    for i, point in enumerate(m.ENFORCEMENT_CHAIN)
)


def _steps(
    outcomes: Iterator[PointOutcome], first: int, stop: int
) -> tuple[m.Decision, m.DecisionTrace]:
    """The decision and steps ``first``..``stop - 1`` of the chain, pulling one
    outcome per point; a deny ends the steps with the not-applicable steps of
    every later point of the chain."""
    steps = []
    for i in range(first, stop):
        outcome = next(outcomes)
        if outcome.verdict is m.Verdict.DENY:
            steps.append(m.TraceStep(i, m.ENFORCEMENT_CHAIN[i], outcome.verdict, outcome.rule, outcome.reason))
            return m.deny(outcome.reason), tuple(steps) + _NOT_APPLICABLE_STEPS[i + 1:]
        if outcome is _ALLOW_NA:
            steps.append(_NOT_APPLICABLE_STEPS[i])
        else:
            steps.append(m.TraceStep(i, m.ENFORCEMENT_CHAIN[i], outcome.verdict, outcome.rule))
    return m.ALLOW, tuple(steps)


def _network_outcomes(s: Scenario, leg: NetworkLeg, idx: ScenarioIndex) -> Iterator[PointOutcome]:
    """The outcome of each network point, computed as it is pulled."""
    if leg.path is None:
        yield PointOutcome(m.Verdict.DENY, m.DEFAULT_RULE, m.DenyReason.NO_ROUTE)
        return
    yield PointOutcome(m.Verdict.ALLOW, leg.path.describe())
    yield from evaluate_firewall_chain(s, leg)
    yield evaluate_gateways(leg, idx)


def _principal_outcomes(s: Scenario, ctx: RequestContext) -> Iterator[PointOutcome]:
    """The outcome of each principal point, computed as it is pulled."""
    yield from evaluate_endpoint_pair(ctx)
    yield from evaluate_perimeter_crossing(s, ctx)
    authn, terminal = evaluate_authn(s, ctx)
    yield authn
    if ctx.leg.target_service is None:
        yield _ALLOW_NA
    else:
        yield evaluate_rbac(s, ctx.leg.target_service, terminal, ctx.request.method)


def _network_leg(s: Scenario, idx: ScenarioIndex, r: m.FlowRequest) -> NetworkLeg:
    """The network leg of ``r``, with its network points evaluated."""
    if r.source not in idx.segments and r.source not in m.DISTINGUISHED_LOCI:
        raise UnknownEntityError(f"source locus {r.source!r}")
    target_service: m.ServiceSpec | None = None
    endpoint: m.ConsumerEndpoint | None = None
    attachment: m.ServiceAttachment | None = None
    if r.target == m.INTERNET:
        pass
    elif r.target in idx.services:
        target_service = idx.services[r.target]
    elif r.target in idx.endpoints:
        endpoint = idx.endpoints[r.target]
        attachment = idx.attachments.get(endpoint.attachment)
        target_service = idx.services.get(attachment.service) if attachment else None
        if target_service is None:
            raise UnknownEntityError(f"endpoint {r.target!r} resolves to no service")
    else:
        raise UnknownEntityError(f"target {r.target!r}")

    result = route_mod.resolve_path(s, r.source, r.target)
    path = result if isinstance(result, route_mod.RoutePath) else None
    if path is not None and endpoint is None:
        ep_hop = path.endpoint_hop
        if ep_hop is not None:
            endpoint = idx.endpoints.get(ep_hop.edge)
            attachment = idx.attachments.get(ep_hop.attachment)
    if r.source_address is None:
        source_nets = idx.source_nets.get(r.source, ())
    else:
        address = prefix.address(r.source_address)
        source_nets = idx.segment_nets.get(r.source, ())
        if address is not None:
            source_nets = (address,) + source_nets
    target_nets: tuple[prefix.Interval, ...] = ()
    dst_port = None
    if target_service is not None:
        # the endpoint's address, then the service's: both hosts, the first port named
        addresses = [a for a in (endpoint and endpoint.address, target_service.address) if a]
        target_nets = tuple(filter(None, map(prefix.host, addresses))) + idx.segment_nets.get(target_service.segment, ())
        dst_port = next((hp[1] for hp in map(prefix.host_port, addresses) if hp and hp[1] is not None), None)
    leg = NetworkLeg(
        source=r.source,
        payload_tags=r.payload_tags,
        path=path,
        target_service=target_service,
        endpoint=endpoint,
        attachment=attachment,
        source_segment=idx.segments.get(r.source),
        source_nets=source_nets,
        target_nets=target_nets,
        dst_port=dst_port,
    )
    decision, steps = _steps(_network_outcomes(s, leg, idx), 0, _PRINCIPAL_FROM)
    return replace(leg, steps=steps, denied=None if decision.allowed else (decision, steps))


def evaluate_flow(s: Scenario, r: m.FlowRequest) -> tuple[m.Decision, m.DecisionTrace]:
    """Evaluate one request through every enforcement point, with full trace.

    The network leg comes from the index's memo, so only the principal points
    run when another request has already crossed the same leg."""
    idx = s.index()
    principal = idx.principals.get(r.principal)
    if principal is None:
        raise UnknownEntityError(f"principal {r.principal!r}")
    key = (r.source, r.target, r.source_address, r.payload_tags)
    leg = idx.legs.get(key)
    if leg is None:
        leg = idx.legs[key] = _network_leg(s, idx, r)
    if leg.denied is not None:
        return leg.denied
    decision, steps = _steps(
        _principal_outcomes(s, RequestContext(r, principal, leg, idx)),
        _PRINCIPAL_FROM,
        len(m.ENFORCEMENT_CHAIN),
    )
    return decision, leg.steps + steps
