"""Flow evaluation through the ordered chain of enforcement points.

Every request produces one trace step per point, in the fixed order

    ROUTE, HIER_FIREWALL, SEGMENT_FIREWALL, GATEWAY, CONSUMER_ENDPOINT,
    PRODUCER_ATTACHMENT, PERIMETER_EGRESS, PERIMETER_INGRESS, AUTHN, RBAC

mirroring the physical path of a request. Each point's function returns
its own step (a pair for the paired points), whose index is the point's
position in that order; an answer that never varies, such as a point that
does not apply, is one shared step. Evaluation collects the steps up to the
first deny; the remaining points are recorded as not-applicable, so the
overall verdict is Allow iff every step allows and a Deny always names
exactly one point and reason.

The chain splits at the principal. The network points (ROUTE through
GATEWAY) see only the request's network leg: its source, target, source
address and payload tags. They are evaluated once per leg and scenario, and
the leg, with its finished trace steps and what the principal points read of
it, is kept in the scenario index. The principal points (CONSUMER_ENDPOINT
through RBAC) run once per decision class (see ``principal_class``) and
scenario: their answer, the decision and their steps, is kept in the index's
class memo, and every other request of the class reuses it. A request that
presents a credential chain runs them itself. ``_MEMO_READS`` names, for
each query memo, every scenario field its entries read and what they read
of it; ``hand_on`` hands a later version of the scenario the entries that
still hold there.

Defaults encode the trust split: unmatched intra-segment flows allow only in
trusting segments, everything else crossing a boundary denies; gateways deny
unmatched traversals; endpoint policies allow when empty.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

from . import identity as identity_mod
from . import model as m
from . import prefix
from . import route as route_mod
from .errors import UnknownEntityError
from .scenario import Scenario, ScenarioIndex

FLOW_PROTOCOL = "tcp"  # modeled flows are connection-initiating TCP requests
# (source, target, source address, payload tags): what the network points read of a request
LegKey = tuple[str, str, str | None, frozenset[str]]
# the source tokens of every leg that matches none: most allowed legs
_NO_TOKENS: frozenset[str] = frozenset()


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
    # set only on a leg no network point denies: the data-plane perimeters of
    # both ends; the source tokens of the principal points' rules that match
    # the leg; what the principal points read of the leg (its decision-class
    # context); and the idp of its target when that is zero-trust
    src_perimeter: m.AbstractPerimeter | None = None
    dst_perimeter: m.AbstractPerimeter | None = None
    source_tokens: frozenset[str] = _NO_TOKENS
    context: tuple | None = None
    idp: str | None = None


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
    if p.cidrs and ctx.leg.source_tokens.isdisjoint(p.cidrs):
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
    if rule.networks and ctx.leg.source_tokens.isdisjoint(rule.networks):
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
    tags = set(m.inherited_tags(idx.nodes[n].tags for n in idx.chains[svc.project]))
    for asset_id in list(svc.reads) + list(svc.writes):
        asset = idx.assets[asset_id]
        tags.update(asset.tags)
        tags.update(m.inherited_tags(idx.nodes[n].tags for n in idx.chains[asset.resource]))
    result = frozenset(tags)
    cache[svc.id] = result
    return result


# ---------------------------------------------------------------------------
# Enforcement points
# ---------------------------------------------------------------------------


# The position of each point in the chain, which is its steps' index.
_POSITION = {point: i for i, point in enumerate(m.ENFORCEMENT_CHAIN)}


def _step(point: m.PointKind, rule: str, reason: m.DenyReason | None = None) -> m.TraceStep:
    """``point``'s step: a deny for ``reason`` when one is given, else an allow."""
    verdict = m.Verdict.ALLOW if reason is None else m.Verdict.DENY
    return m.TraceStep(_POSITION[point], point, verdict, rule, reason)


# The step of each point that a request does not reach, or that does not apply.
_NOT_APPLICABLE_STEPS: m.DecisionTrace = tuple(_step(point, m.NOT_APPLICABLE) for point in m.ENFORCEMENT_CHAIN)
_NOT_APPLICABLE = dict(zip(m.ENFORCEMENT_CHAIN, _NOT_APPLICABLE_STEPS))
# The answers that never vary, shared by every request that gets them.
_NO_ROUTE = _step(m.PointKind.ROUTE, m.DEFAULT_RULE, m.DenyReason.NO_ROUTE)
_HIER_DEFAULT = _step(m.PointKind.HIER_FIREWALL, m.DEFAULT_RULE)
_INTRA_PERIMETER = (
    _step(m.PointKind.PERIMETER_EGRESS, "intra-perimeter"),
    _step(m.PointKind.PERIMETER_INGRESS, "intra-perimeter"),
)
_NO_CREDENTIAL = _step(m.PointKind.AUTHN, m.DEFAULT_RULE, m.DenyReason.NO_CREDENTIAL)
_HOME_IDP = _step(m.PointKind.AUTHN, "home-idp")
# The default-rule steps of the principal points that no rule matched.
_DEFAULT_ALLOW = {
    point: _step(point, m.DEFAULT_RULE)
    for point in (m.PointKind.CONSUMER_ENDPOINT, m.PointKind.PRODUCER_ATTACHMENT, m.PointKind.RBAC)
}
_DEFAULT_DENY = {
    point: _step(point, m.DEFAULT_RULE, reason)
    for point, reason in (
        (m.PointKind.PERIMETER_EGRESS, m.DenyReason.PERIMETER_EGRESS),
        (m.PointKind.PERIMETER_INGRESS, m.DenyReason.PERIMETER_INGRESS),
        (m.PointKind.RBAC, m.DenyReason.RBAC_DEFAULT_DENY),
    )
}


def _scope_chain(leg: NetworkLeg, idx: ScenarioIndex) -> list[tuple[str, str]]:
    """(scope kind, scope key) list for this flow: org, folders root->leaf, segment.

    Anchored at the source side for segment-borne flows and at the target side
    for flows entering from ONPREM/INTERNET.
    """
    anchor_seg = leg.source_segment
    if anchor_seg is None and leg.target_service is not None:
        anchor_seg = idx.segments[leg.target_service.segment]
    scopes: list[tuple[str, str]] = [("organization", m.ORG_SCOPE)]
    if anchor_seg is not None:
        scopes.extend(("folder", f"folder:{f}") for f in idx.folders_above(anchor_seg.project))
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


def _terminal_rule(leg: NetworkLeg, idx: ScenarioIndex) -> tuple[str, m.FirewallRule] | tuple[None, None]:
    """(scope kind, rule) of the first matching non-delegate rule, scope by scope."""
    for scope_kind, scope_key in _scope_chain(leg, idx):
        for rule in idx.firewall_rules_by_scope.get(scope_key, ()):
            if _firewall_rule_matches(rule, leg):
                if rule.action is not m.RuleAction.DELEGATE:
                    return scope_kind, rule
                break  # hand over to the next scope
    return None, None


def evaluate_firewall_chain(s: Scenario, leg: NetworkLeg) -> tuple[m.TraceStep, m.TraceStep]:
    """Hierarchical then segment firewall steps for one flow."""
    scope_kind, rule = _terminal_rule(leg, s.index())
    if rule is not None:
        deny = rule.action is m.RuleAction.DENY
        if scope_kind == "segment":
            return _HIER_DEFAULT, _step(
                m.PointKind.SEGMENT_FIREWALL, rule.id, m.DenyReason.SEGMENT_FIREWALL if deny else None
            )
        return (
            _step(m.PointKind.HIER_FIREWALL, rule.id, m.DenyReason.HIER_FIREWALL if deny else None),
            _NOT_APPLICABLE[m.PointKind.SEGMENT_FIREWALL],
        )
    if (
        _flow_is_intra_segment(leg)
        and leg.source_segment is not None
        and leg.source_segment.trust_mode is m.TrustMode.TRUSTING
    ):
        return _HIER_DEFAULT, _step(m.PointKind.SEGMENT_FIREWALL, m.DEFAULT_RULE)
    return _HIER_DEFAULT, _step(m.PointKind.SEGMENT_FIREWALL, m.DEFAULT_RULE, m.DenyReason.FIREWALL_DEFAULT)


def evaluate_gateways(leg: NetworkLeg, idx: ScenarioIndex) -> m.TraceStep:
    hops = leg.path.gateway_hops() if leg.path else []
    if not hops:
        return _NOT_APPLICABLE[m.PointKind.GATEWAY]
    matched: list[str] = []
    for hop in hops:
        edge = idx.edges[hop.edge]
        hit = next((r for r in edge.gateway_rules if _gateway_rule_matches(r, hop, leg)), None)
        if hit is None:
            return _step(m.PointKind.GATEWAY, m.DEFAULT_RULE, m.DenyReason.GATEWAY)
        if hit.action is m.RuleAction.DENY:
            return _step(m.PointKind.GATEWAY, hit.id, m.DenyReason.GATEWAY)
        matched.append(hit.id)
    return _step(m.PointKind.GATEWAY, "+".join(matched))


def evaluate_endpoint_pair(ctx: RequestContext) -> tuple[m.TraceStep, m.TraceStep]:
    """Consumer then producer policy; either side's deny is final (AND)."""
    endpoint, attachment = ctx.leg.endpoint, ctx.leg.attachment
    if endpoint is None or attachment is None:
        return _NOT_APPLICABLE[m.PointKind.CONSUMER_ENDPOINT], _NOT_APPLICABLE[m.PointKind.PRODUCER_ATTACHMENT]

    def policy_step(policy: tuple[m.AccessPredicate, ...], point: m.PointKind, reason: m.DenyReason) -> m.TraceStep:
        hit = next((p for p in policy if _predicate_matches(p, ctx)), None)
        if hit is None:
            return _DEFAULT_ALLOW[point]
        return _step(point, hit.id, reason if hit.action is m.RuleAction.DENY else None)

    return (
        policy_step(endpoint.policy, m.PointKind.CONSUMER_ENDPOINT, m.DenyReason.CONSUMER),
        policy_step(attachment.policy, m.PointKind.PRODUCER_ATTACHMENT, m.DenyReason.PRODUCER),
    )


def evaluate_perimeter_crossing(ctx: RequestContext) -> tuple[m.TraceStep, m.TraceStep]:
    """Egress from the source's perimeter, ingress into the target's.

    Only perimeters bound to the data-plane-perimeter mechanism restrict
    crossings; flows wholly inside one perimeter pass unrestricted.
    """
    src_perim, dst_perim = ctx.leg.src_perimeter, ctx.leg.dst_perimeter
    if src_perim is not None and dst_perim is not None and src_perim.id == dst_perim.id:
        return _INTRA_PERIMETER

    def crossing(rules: tuple[m.PerimeterRule, ...], point: m.PointKind) -> m.TraceStep:
        hit = next((r for r in rules if _perimeter_rule_matches(r, ctx)), None)
        return _DEFAULT_DENY[point] if hit is None else _step(point, hit.id)

    egress, ingress = m.PointKind.PERIMETER_EGRESS, m.PointKind.PERIMETER_INGRESS
    return (
        _NOT_APPLICABLE[egress] if src_perim is None else crossing(src_perim.egress, egress),
        _NOT_APPLICABLE[ingress] if dst_perim is None else crossing(dst_perim.ingress, ingress),
    )


def evaluate_authn(s: Scenario, ctx: RequestContext) -> tuple[m.TraceStep, m.Principal]:
    """Resolve the asserted principal the RBAC point will see."""
    svc = ctx.leg.target_service
    if svc is None or svc.auth_mode is not m.AuthMode.ZERO_TRUST or svc.idp is None:
        return _NOT_APPLICABLE[m.PointKind.AUTHN], ctx.principal
    chain = ctx.request.presented_chain
    if chain is not None:
        if not identity_mod.chain_is_valid(s, chain, ctx.principal.id, svc.idp):
            return _NO_CREDENTIAL, ctx.principal
    else:
        chain = identity_mod.resolve_credential(s, ctx.principal.id, svc.idp)
        if chain is None:
            return _NO_CREDENTIAL, ctx.principal
    terminal = ctx.index.principals[chain.terminal_principal]
    edges = "+".join(step.edge for step in chain.steps if step.edge)
    return (_step(m.PointKind.AUTHN, edges) if edges else _HOME_IDP), terminal


def evaluate_rbac(
    s: Scenario, svc: m.ServiceSpec, principal: m.Principal, method: str
) -> m.TraceStep:
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
            return _step(m.PointKind.RBAC, satisfied.id)
        return _DEFAULT_DENY[m.PointKind.RBAC]
    # perimeter-trusting: absence of bindings denies nothing; a governing
    # grant makes its tag condition binding
    if not applicable:
        return _DEFAULT_ALLOW[m.PointKind.RBAC]
    if satisfied is not None:
        return _step(m.PointKind.RBAC, satisfied.id)
    return _step(m.PointKind.RBAC, applicable[0].id, m.DenyReason.RBAC_CONDITION)


# ---------------------------------------------------------------------------
# The chain
# ---------------------------------------------------------------------------


def _steps(steps: Iterator[m.TraceStep]) -> tuple[m.Decision, m.DecisionTrace]:
    """The decision and the steps pulled up to the first deny, which ends
    them with the not-applicable steps of every later point of the chain."""
    taken = []
    for step in steps:
        taken.append(step)
        if step.verdict is m.Verdict.DENY:
            return m.deny(step.reason), tuple(taken) + _NOT_APPLICABLE_STEPS[step.index + 1:]
    return m.ALLOW, tuple(taken)


def _network_steps(s: Scenario, leg: NetworkLeg, idx: ScenarioIndex) -> Iterator[m.TraceStep]:
    """The step of each network point, computed as it is pulled."""
    if leg.path is None:
        yield _NO_ROUTE
        return
    yield _step(m.PointKind.ROUTE, leg.path.describe())
    yield from evaluate_firewall_chain(s, leg)
    yield evaluate_gateways(leg, idx)


def _principal_steps(s: Scenario, ctx: RequestContext) -> Iterator[m.TraceStep]:
    """The step of each principal point, computed as it is pulled."""
    yield from evaluate_endpoint_pair(ctx)
    yield from evaluate_perimeter_crossing(ctx)
    authn, terminal = evaluate_authn(s, ctx)
    yield authn
    if ctx.leg.target_service is None:
        yield _NOT_APPLICABLE[m.PointKind.RBAC]
    else:
        yield evaluate_rbac(s, ctx.leg.target_service, terminal, ctx.request.method)


def _network_leg(s: Scenario, idx: ScenarioIndex, key: LegKey) -> NetworkLeg:
    """The network leg ``key``, with its network points evaluated, kept in the
    index's leg memo (a leg whose evaluation raises is not kept)."""
    source, target, source_address, payload_tags = key
    if source not in idx.segments and source not in m.DISTINGUISHED_LOCI:
        raise UnknownEntityError(f"source locus {source!r}")
    target_service: m.ServiceSpec | None = None
    endpoint: m.ConsumerEndpoint | None = None
    attachment: m.ServiceAttachment | None = None
    if target == m.INTERNET:
        pass
    elif target in idx.services:
        target_service = idx.services[target]
    elif target in idx.endpoints:
        endpoint = idx.endpoints[target]
        attachment = idx.attachments[endpoint.attachment]
        target_service = idx.services[attachment.service]
    else:
        raise UnknownEntityError(f"target {target!r}")

    result = route_mod.resolve_path(s, source, target)
    path = result if isinstance(result, route_mod.RoutePath) else None
    if path is not None and endpoint is None:
        ep_hop = path.endpoint_hop
        if ep_hop is not None:
            endpoint = idx.endpoints[ep_hop.edge]
            attachment = idx.attachments[ep_hop.attachment]
    if source_address is None:
        source_nets = idx.source_nets.get(source, ())
    else:
        address = prefix.address(source_address)
        source_nets = idx.segment_nets.get(source, ())
        if address is not None:
            source_nets = (address,) + source_nets
    target_nets: tuple[prefix.Interval, ...] = ()
    dst_port = None
    if target_service is not None:
        # the endpoint's address, then the service's: both hosts, the first port named
        addresses = [prefix.host_port(a) for a in (endpoint and endpoint.address, target_service.address) if a]
        target_nets = tuple(host for host, _ in addresses) + idx.segment_nets[target_service.segment]
        dst_port = next((port for _, port in addresses if port is not None), None)
    source_segment = idx.segments.get(source)
    facts = dict(
        source=source,
        payload_tags=payload_tags,
        path=path,
        target_service=target_service,
        endpoint=endpoint,
        attachment=attachment,
        source_segment=source_segment,
        source_nets=source_nets,
        target_nets=target_nets,
        dst_port=dst_port,
    )
    # the finished leg is built anew from the facts: cheaper than dataclasses.replace
    bare = NetworkLeg(**facts)
    decision, steps = _steps(_network_steps(s, bare, idx))
    if not decision.allowed:
        leg = idx.legs[key] = NetworkLeg(**facts, steps=steps, denied=(decision, steps))
        return leg
    src = idx.data_plane_perimeter.get(source_segment.project if source_segment else None)
    dst = idx.data_plane_perimeter.get(target_service.project if target_service else None)
    # the source tokens the principal points test: the endpoint's and
    # attachment's predicates', and the crossed perimeters' rules'
    tokens = {t for holder in (endpoint, attachment) if holder for p in holder.policy for t in p.cidrs}
    if src is None or dst is None or src.id != dst.id:
        for rule in (src.egress if src else ()) + (dst.ingress if dst else ()):
            tokens.update(rule.networks)
    source_tokens = frozenset(t for t in tokens if _src_token_matches(t, bare)) or _NO_TOKENS
    # the endpoint fixes the attachment, and the target service its perimeter
    context = (
        endpoint.id if endpoint else None,
        target_service.id if target_service else None,
        src.id if src else None,
        source_tokens,
    )
    zero_trust = target_service is not None and target_service.auth_mode is m.AuthMode.ZERO_TRUST
    leg = idx.legs[key] = NetworkLeg(
        **facts,
        steps=steps,
        src_perimeter=src,
        dst_perimeter=dst,
        source_tokens=source_tokens,
        context=context,
        idp=target_service.idp if zero_trust else None,
    )
    return leg


def network_leg(s: Scenario, key: LegKey) -> NetworkLeg:
    """The network leg ``key`` from the index's memo, built on first use as
    ``evaluate_flow`` builds it; an unknown source is reported before an
    unknown target."""
    idx = s.index()
    return idx.legs.get(key) or _network_leg(s, idx, key)


def evaluate_flow(s: Scenario, r: m.FlowRequest) -> tuple[m.Decision, m.DecisionTrace]:
    """Evaluate one request through every enforcement point, with full trace.

    The network leg comes from the index's leg memo, and the principal
    points' answer from its class memo, keyed by the request's decision
    class; so no point runs when other requests have already crossed the
    same leg and asked as the same class. A presented chain is checked per
    request."""
    idx = s.index()
    principal = idx.principals.get(r.principal)
    if principal is None:
        raise UnknownEntityError(f"principal {r.principal!r}")
    key = (r.source, r.target, r.source_address, r.payload_tags)
    leg = idx.legs.get(key) or _network_leg(s, idx, key)
    if leg.denied is not None:
        return leg.denied
    if r.presented_chain is not None:
        decision, steps = _steps(_principal_steps(s, RequestContext(r, principal, leg, idx)))
        return decision, leg.steps + steps
    cls = idx.principal_classes.get((r.principal, leg.idp)) or principal_class(s, r.principal, leg.idp)
    answer_key = (leg.context, cls, r.method)
    answer = idx.answers.get(answer_key)
    if answer is None:
        answer = idx.answers[answer_key] = _steps(_principal_steps(s, RequestContext(r, principal, leg, idx)))
    decision, steps = answer
    return decision, leg.steps + steps


# ---------------------------------------------------------------------------
# Decision classes
#
# Requests of one decision class get one decision from ``evaluate_flow``, and
# one answer from the principal points: their traces differ only in their
# legs' steps. A request whose leg a network point denies is keyed by its leg
# key; any other without a presented chain by its answer key: its leg's
# ``context``, its principal's class toward the leg's ``idp`` and its method.
# ---------------------------------------------------------------------------


def principal_class(s: Scenario, principal: str, idp: str | None) -> tuple:
    """``principal``'s class toward the zero-trust ``idp``, or toward a target
    that is not zero-trust for None: the policy identity tokens it matches,
    its device values on the keys perimeter rules name, and, toward a
    zero-trust ``idp``, its credential chain's edges and the tokens of the
    principal the chain asserts (None for no chain). It is a value, not an
    id: two principals of one class are told apart by no rule, so the class
    memo keeps one answer for both, and a later version whose rules for an
    answer key are the same may take that answer (``hand_on``)."""
    idx = s.index()
    cls = idx.principal_classes.get((principal, idp))
    if cls is None:
        known = idx.principals.get(principal)
        if known is None:
            raise UnknownEntityError(f"principal {principal!r}")
        cls = idx.principal_classes[(principal, idp)] = _principal_class(s, idx, known, idp)
    return cls


def _principal_class(s: Scenario, idx: ScenarioIndex, principal: m.Principal, idp: str | None) -> tuple:
    identities = idx.policy_identities

    def tokens(p: m.Principal) -> frozenset[str]:
        return identities.intersection((m.ANY, p.id, *p.groups))

    cls = (tokens(principal), tuple(map(principal.device.get, idx.device_keys)))
    if idp is None:
        return cls
    chain = identity_mod.resolve_credential(s, principal.id, idp)
    if chain is None:
        return cls + (None,)
    terminal = idx.principals[chain.terminal_principal]
    return cls + ((tuple(step.edge for step in chain.steps), tokens(terminal)),)


# ---------------------------------------------------------------------------
# Query memos across versions
# ---------------------------------------------------------------------------

_Clause = Callable[[ScenarioIndex, ScenarioIndex], Callable[[NetworkLeg], bool]]


def _always(_: object) -> bool:
    return True


def _never(_: object) -> bool:
    return False


def _facts_equal(*facts: str) -> _Clause:
    """The clause of entries that read only the index facts ``facts`` of the field: they are equal."""
    return lambda earlier, idx: _always if all(getattr(earlier, f) == getattr(idx, f) for f in facts) else _never


# what ``route._search`` reads; what a principal class reads of the policy, and of the perimeter rules
_routes_hold = _facts_equal("adjacency", "non_routable")
_identities_hold = _facts_equal("policy_identities")
_class_keys_hold = _facts_equal("policy_identities", "device_keys")


def _matching(rules: tuple[m.FirewallRule, ...], leg: NetworkLeg) -> list[m.FirewallRule]:
    return [rule for rule in rules if _firewall_rule_matches(rule, leg)]


def _rules_hold(earlier: ScenarioIndex, idx: ScenarioIndex) -> Callable[[NetworkLeg], bool]:
    """In each scope of the leg's chain, the rules that match it are the same, in order."""
    before, after = earlier.firewall_rules_by_scope, idx.firewall_rules_by_scope
    changed = {key for key in before.keys() | after.keys() if before.get(key, ()) != after.get(key, ())}

    def holds(leg: NetworkLeg) -> bool:
        return all(
            key not in changed or _matching(before.get(key, ()), leg) == _matching(after.get(key, ()), leg)
            for _, key in _scope_chain(leg, idx)
        )

    return holds


def _edges_hold(earlier: ScenarioIndex, idx: ScenarioIndex) -> Callable[[NetworkLeg], bool]:
    """The route trees hold, and so does the edge of each gateway hop of the leg's path."""
    if _routes_hold(earlier, idx) is _never:
        return _never
    return lambda leg: leg.path is None or all(
        idx.edges[hop.edge] is earlier.edges[hop.edge] for hop in leg.path.gateway_hops()
    )


def _perimeters_hold(earlier: ScenarioIndex, idx: ScenarioIndex) -> Callable[[NetworkLeg], bool]:
    """The data-plane perimeters of the source segment's project and of the target service's are the same."""
    before, after = earlier.data_plane_perimeter, idx.data_plane_perimeter

    def holds(leg: NetworkLeg) -> bool:
        src = leg.source_segment.project if leg.source_segment else None
        dst = leg.target_service.project if leg.target_service else None
        return before.get(src) is after.get(src) and before.get(dst) is after.get(dst)

    return holds


def _crossings_hold(earlier: ScenarioIndex, idx: ScenarioIndex) -> Callable[[NetworkLeg], bool]:
    """The device keys, which place the device values of a principal class,
    are equal, and the leg's perimeters hold."""
    return _perimeters_hold(earlier, idx) if earlier.device_keys == idx.device_keys else _never


def _endpoint_places(idx: ScenarioIndex) -> list[tuple[str, str, str]]:
    return [(ep.id, ep.segment, ep.attachment) for ep in idx.scenario.endpoints]


def _endpoints_hold(earlier: ScenarioIndex, idx: ScenarioIndex) -> Callable[[NetworkLeg], bool]:
    """Each endpoint keeps its id, segment and attachment, and the leg's own endpoint is the same."""
    if _endpoint_places(earlier) != _endpoint_places(idx):
        return _never
    return lambda leg: leg.endpoint is None or idx.endpoints[leg.endpoint.id] is leg.endpoint


def _bindings_hold(earlier: ScenarioIndex, idx: ScenarioIndex) -> Callable[[NetworkLeg], bool]:
    """The bindings of the leg's target service are the same, in order."""
    before, after = earlier.bindings_for_service, idx.bindings_for_service

    def holds(leg: NetworkLeg) -> bool:
        service = leg.target_service.id if leg.target_service else None
        theirs, ours = before.get(service, ()), after.get(service, ())
        return len(theirs) == len(ours) and all(a is b for a, b in zip(theirs, ours))

    return holds


# Each query memo of the index (``ScenarioIndex.QUERY_MEMOS``): each top-level
# ``Scenario`` field its entries read, and the clause comparing what they read
# of it in an earlier version and a later one, which gives the check of one
# entry by its leg (an answer's is the leg of the request handing it on); None
# for a field whose change holds no entry. A clause of facts alone gives
# ``_always`` or ``_never``.
_MEMO_READS: dict[str, dict[str, _Clause | None]] = {
    "route_trees": {"edges": _routes_hold, "segments": _routes_hold},
    "credential_chains": dict.fromkeys(("principals", "trust_edges", "chain_bound")),
    "target_tags": dict.fromkeys(("nodes", "services", "assets")),
    "legs": {
        **dict.fromkeys(("nodes", "segments", "services", "attachments")),
        "endpoints": _endpoints_hold,
        "perimeters": _perimeters_hold,
        "edges": _edges_hold,
        "firewall_rules": _rules_hold,
    },
    "answers": {
        **dict.fromkeys(("nodes", "services", "assets", "attachments")),
        "endpoints": _endpoints_hold,
        "bindings": _bindings_hold,
        "perimeters": _crossings_hold,
    },
    "principal_classes": {
        **dict.fromkeys(("principals", "idps", "trust_edges", "chain_bound")),
        **dict.fromkeys(("bindings", "endpoints", "attachments"), _identities_hold),
        "perimeters": _class_keys_hold,
    },
}


def _check(memo: str, earlier: ScenarioIndex, idx: ScenarioIndex) -> Callable[[NetworkLeg], bool]:
    """The check of whether an entry of ``earlier``'s memo ``memo`` holds in
    ``idx``: whether ``idx`` would derive the same entry for its key. Every
    clause of a field that is not the same object in both scenarios must
    hold; ``_never`` where a field without a clause changed or a clause
    rejects every entry, ``_always`` where none is left to check."""
    changed = [clause for f, clause in _MEMO_READS[memo].items()
               if getattr(idx.scenario, f) is not getattr(earlier.scenario, f)]
    if None in changed:
        return _never
    checks = [check for check in (clause(earlier, idx) for clause in dict.fromkeys(changed)) if check is not _always]
    if _never in checks:
        return _never
    if len(checks) <= 1:
        return checks[0] if checks else _always
    return lambda leg: all(check(leg) for check in checks)


def hand_on(earlier: ScenarioIndex, idx: ScenarioIndex) -> Callable[[m.FlowRequest], None]:
    """Hand ``idx`` what still holds of ``earlier``'s query memos: now, each
    memo whose check accepts every entry (entries ``idx`` has are kept); and
    through the step returned, once ``earlier`` has evaluated a request, the
    request's leg and its class's answer, each where its check accepts the
    request's leg."""
    checks = {memo: _check(memo, earlier, idx) for memo in _MEMO_READS}
    for memo, check in checks.items():
        if check is _always:
            setattr(idx, memo, {**getattr(earlier, memo), **getattr(idx, memo)})
    # a memo taken whole has nothing left to hand on
    legs_hold, answers_hold = (_never if checks[memo] is _always else checks[memo] for memo in ("legs", "answers"))

    def hand(r: m.FlowRequest) -> None:
        key = (r.source, r.target, r.source_address, r.payload_tags)
        leg = earlier.legs[key]
        if key not in idx.legs and legs_hold(leg):
            idx.legs[key] = leg
        if leg.denied is None and r.presented_chain is None and answers_hold(leg):
            answer = (leg.context, earlier.principal_classes[(r.principal, leg.idp)], r.method)
            idx.answers[answer] = earlier.answers[answer]

    return hand
