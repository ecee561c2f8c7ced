"""Flow evaluation through the ordered chain of enforcement points.

Every request produces one trace step per point, in the fixed order

    ROUTE, HIER_FIREWALL, SEGMENT_FIREWALL, GATEWAY, CONSUMER_ENDPOINT,
    PRODUCER_ATTACHMENT, PERIMETER_EGRESS, PERIMETER_INGRESS, AUTHN, RBAC

mirroring the physical path of a request. Evaluation stops at the first
denying point; the remaining points are recorded as not-applicable, so the
overall verdict is Allow iff every step allows and a Deny always names
exactly one point and reason.

Defaults encode the trust split: unmatched intra-segment flows allow only in
trusting segments, everything else crossing a boundary denies; gateways deny
unmatched traversals; endpoint policies allow when empty.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from . import identity as identity_mod
from . import model as m
from . import prefix
from . import route as route_mod
from .errors import UnknownEntityError
from .scenario import Scenario, ScenarioIndex

FLOW_PROTOCOL = "tcp"  # modeled flows are connection-initiating TCP requests


@dataclass(frozen=True)
class FlowContext:
    """Derived facts the enforcement points share for one request."""

    request: m.FlowRequest
    principal: m.Principal
    path: route_mod.RoutePath | None
    target_service: m.ServiceSpec | None   # None when target is INTERNET
    endpoint: m.ConsumerEndpoint | None
    attachment: m.ServiceAttachment | None
    source_segment: m.NetworkSegment | None
    source_nets: tuple[prefix.Interval, ...]  # source address, then source segment CIDRs
    target_nets: tuple[prefix.Interval, ...]  # target host addresses, then its segment CIDRs
    dst_port: int | None
    index: ScenarioIndex


# ---------------------------------------------------------------------------
# Match primitives
# ---------------------------------------------------------------------------


def _src_token_matches(token: str, ctx: FlowContext) -> bool:
    """A CIDR token matches the source address or any CIDR of the source segment."""
    if token == m.ANY:
        return True
    if token in m.DISTINGUISHED_LOCI:
        return ctx.request.source == token
    return prefix.meets_any(ctx.index.network(token), ctx.source_nets)


def _dst_token_matches(token: str, ctx: FlowContext) -> bool:
    """A CIDR token matches a target host address or any CIDR of the target's segment."""
    if token == m.ANY:
        return True
    if token == m.INTERNET:
        return ctx.target_service is None
    # flows never target ONPREM
    return token != m.ONPREM and prefix.meets_any(ctx.index.network(token), ctx.target_nets)


def _firewall_rule_matches(rule: m.FirewallRule, ctx: FlowContext) -> bool:
    if rule.protocol not in ("any", FLOW_PROTOCOL):
        return False
    if not any(_src_token_matches(t, ctx) for t in rule.src):
        return False
    if not any(_dst_token_matches(t, ctx) for t in rule.dst):
        return False
    if rule.ports:
        if ctx.dst_port is None:
            return False
        if not any(lo <= ctx.dst_port <= hi for lo, hi in rule.ports):
            return False
    return True


def _predicate_matches(p: m.AccessPredicate, ctx: FlowContext) -> bool:
    if p.identities and not any(ctx.principal.matches_identity(t) for t in p.identities):
        return False
    if p.cidrs and not any(_src_token_matches(t, ctx) for t in p.cidrs):
        return False
    if p.methods and not any(m.method_matches(t, ctx.request.method) for t in p.methods):
        return False
    return True


def _perimeter_rule_matches(rule: m.PerimeterRule, ctx: FlowContext) -> bool:
    if rule.identities and not any(ctx.principal.matches_identity(t) for t in rule.identities):
        return False
    for k, v in rule.device.items():
        if ctx.principal.device.get(k) != v:
            return False
    if rule.networks and not any(_src_token_matches(t, ctx) for t in rule.networks):
        return False
    if rule.targets:
        tgt_project = ctx.target_service.project if ctx.target_service else None
        tgt_service = ctx.target_service.id if ctx.target_service else m.INTERNET
        ok = any(
            (t.project == m.ANY or t.project == tgt_project)
            and (t.service == m.ANY or t.service == tgt_service)
            and m.method_matches(t.method, ctx.request.method)
            for t in rule.targets
        )
        if not ok:
            return False
    return True


def _gateway_rule_matches(rule: m.GatewayRule, hop: route_mod.Hop, ctx: FlowContext) -> bool:
    if rule.src_zone not in (m.ANY, hop.src):
        return False
    if rule.dst_zone not in (m.ANY, hop.dst):
        return False
    if not rule.new_connection:
        return False  # modeled flows are always new connections
    if rule.protocol not in ("any", FLOW_PROTOCOL):
        return False
    if rule.content_class is not None and rule.content_class not in ctx.request.payload_tags:
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


def _scope_chain(s: Scenario, ctx: FlowContext, idx: ScenarioIndex) -> list[tuple[str, str]]:
    """(scope kind, scope key) list for this flow: org, folders root->leaf, segment.

    Anchored at the source side for segment-borne flows and at the target side
    for flows entering from ONPREM/INTERNET. An anchor whose project is not in
    the hierarchy raises ``UnknownNodeError``: skipping its folder scopes would
    bypass their rules.
    """
    anchor_seg = ctx.source_segment
    if anchor_seg is None and ctx.target_service is not None:
        anchor_seg = idx.segments.get(ctx.target_service.segment)
    scopes: list[tuple[str, str]] = [("organization", m.ORG_SCOPE)]
    if anchor_seg is not None:
        for node_id in m.ancestors(anchor_seg.project, idx.nodes):
            node = idx.nodes.get(node_id)
            if node is not None and node.kind is m.NodeKind.FOLDER:
                scopes.append(("folder", f"folder:{node_id}"))
        scopes.append(("segment", f"segment:{anchor_seg.id}"))
    return scopes


def _flow_is_intra_segment(ctx: FlowContext) -> bool:
    if ctx.source_segment is None:
        return False
    if ctx.endpoint is not None:
        return ctx.endpoint.segment == ctx.source_segment.id
    if ctx.target_service is not None:
        return ctx.target_service.segment == ctx.source_segment.id
    return False


def _terminal_rule(
    s: Scenario, ctx: FlowContext, idx: ScenarioIndex
) -> tuple[str, m.FirewallRule] | tuple[None, None]:
    """(scope kind, rule) of the first matching non-delegate rule, scope by scope."""
    for scope_kind, scope_key in _scope_chain(s, ctx, idx):
        for rule in idx.firewall_rules_by_scope.get(scope_key, ()):
            if _firewall_rule_matches(rule, ctx):
                if rule.action is not m.RuleAction.DELEGATE:
                    return scope_kind, rule
                break  # hand over to the next scope
    return None, None


def evaluate_firewall_chain(
    s: Scenario, ctx: FlowContext
) -> tuple[PointOutcome, PointOutcome]:
    """Hierarchical then segment firewall outcomes for one flow."""
    hier = PointOutcome(m.Verdict.ALLOW, m.DEFAULT_RULE)
    scope_kind, rule = _terminal_rule(s, ctx, s.index())
    if rule is not None:
        segment = scope_kind == "segment"
        if rule.action is m.RuleAction.ALLOW:
            outcome = PointOutcome(m.Verdict.ALLOW, rule.id)
        else:
            reason = m.DenyReason.SEGMENT_FIREWALL if segment else m.DenyReason.HIER_FIREWALL
            outcome = PointOutcome(m.Verdict.DENY, rule.id, reason)
        return (hier, outcome) if segment else (outcome, _ALLOW_NA)
    if (
        _flow_is_intra_segment(ctx)
        and ctx.source_segment is not None
        and ctx.source_segment.trust_mode is m.TrustMode.TRUSTING
    ):
        return hier, PointOutcome(m.Verdict.ALLOW, m.DEFAULT_RULE)
    return hier, PointOutcome(m.Verdict.DENY, m.DEFAULT_RULE, m.DenyReason.FIREWALL_DEFAULT)


def evaluate_gateways(ctx: FlowContext, idx: ScenarioIndex) -> PointOutcome:
    hops = ctx.path.gateway_hops() if ctx.path else []
    if not hops:
        return _ALLOW_NA
    matched: list[str] = []
    for hop in hops:
        edge = idx.edges[hop.edge]
        hit = next((r for r in edge.gateway_rules if _gateway_rule_matches(r, hop, ctx)), None)
        if hit is None:
            return PointOutcome(m.Verdict.DENY, m.DEFAULT_RULE, m.DenyReason.GATEWAY)
        if hit.action is m.RuleAction.DENY:
            return PointOutcome(m.Verdict.DENY, hit.id, m.DenyReason.GATEWAY)
        matched.append(hit.id)
    return PointOutcome(m.Verdict.ALLOW, "+".join(matched))


def evaluate_endpoint_pair(ctx: FlowContext) -> tuple[PointOutcome, PointOutcome]:
    """Consumer then producer policy; either side's deny is final (AND)."""
    if ctx.endpoint is None or ctx.attachment is None:
        return _ALLOW_NA, _ALLOW_NA
    outcomes = []
    for policy, reason in (
        (ctx.endpoint.policy, m.DenyReason.CONSUMER),
        (ctx.attachment.policy, m.DenyReason.PRODUCER),
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
    s: Scenario, ctx: FlowContext
) -> tuple[PointOutcome, PointOutcome]:
    """Egress from the source's perimeter, ingress into the target's.

    Only perimeters bound to the data-plane-perimeter mechanism restrict
    crossings; flows wholly inside one perimeter pass unrestricted.
    """
    idx = s.index()
    src_project = ctx.source_segment.project if ctx.source_segment else None
    dst_project = ctx.target_service.project if ctx.target_service else None
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


def evaluate_authn(s: Scenario, ctx: FlowContext) -> tuple[PointOutcome, m.Principal]:
    """Resolve the asserted principal the RBAC point will see."""
    svc = ctx.target_service
    if svc is None or svc.auth_mode is not m.AuthMode.ZERO_TRUST or svc.idp is None:
        return _ALLOW_NA, ctx.principal
    idx = s.index()
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
    terminal = idx.principals.get(chain.terminal_principal, ctx.principal)
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


def _build_context(s: Scenario, r: m.FlowRequest) -> FlowContext:
    idx = s.index()
    principal = idx.principals.get(r.principal)
    if principal is None:
        raise UnknownEntityError(f"principal {r.principal!r}")
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
    dst_port = None
    if endpoint is not None and endpoint.address and ":" in endpoint.address:
        dst_port = int(endpoint.address.split(":")[1])
    elif target_service is not None:
        dst_port = target_service.port
    return FlowContext(
        request=r,
        principal=principal,
        path=path,
        target_service=target_service,
        endpoint=endpoint,
        attachment=attachment,
        source_segment=idx.segments.get(r.source),
        source_nets=source_nets,
        target_nets=idx.target_nets(target_service, endpoint) if target_service is not None else (),
        dst_port=dst_port,
        index=idx,
    )


def _point_outcomes(s: Scenario, ctx: FlowContext) -> Iterator[PointOutcome]:
    """The outcome of each point in ``ENFORCEMENT_CHAIN`` order, computed as it
    is pulled; a point is evaluated only if every earlier one allowed."""
    if ctx.path is None:
        yield PointOutcome(m.Verdict.DENY, m.DEFAULT_RULE, m.DenyReason.NO_ROUTE)
        return
    yield PointOutcome(m.Verdict.ALLOW, ctx.path.describe())
    yield from evaluate_firewall_chain(s, ctx)
    yield evaluate_gateways(ctx, ctx.index)
    yield from evaluate_endpoint_pair(ctx)
    yield from evaluate_perimeter_crossing(s, ctx)
    authn, terminal = evaluate_authn(s, ctx)
    yield authn
    if ctx.target_service is None:
        yield _ALLOW_NA
    else:
        yield evaluate_rbac(s, ctx.target_service, terminal, ctx.request.method)


def evaluate_flow(s: Scenario, r: m.FlowRequest) -> tuple[m.Decision, m.DecisionTrace]:
    """Evaluate one request through every enforcement point, with full trace."""
    outcomes = _point_outcomes(s, _build_context(s, r))
    decision = m.ALLOW
    steps = []
    for i, point in enumerate(m.ENFORCEMENT_CHAIN):
        outcome = next(outcomes) if decision.allowed else _ALLOW_NA
        if outcome.verdict is m.Verdict.DENY:
            decision = m.deny(outcome.reason)
        steps.append(m.TraceStep(i, point, outcome.verdict, outcome.rule, outcome.reason))
    return decision, tuple(steps)
