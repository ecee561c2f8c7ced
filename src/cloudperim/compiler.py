"""Compile abstract perimeters into concrete per-mechanism rule sets.

Three backends:

- ``lift-shift``: 5-tuple firewall rules with members expanded to concrete
  CIDRs, plus gateway rules for declared crossings. Identity, device, and
  method predicates cannot be expressed and are dropped with a note.
- ``hybrid``: a data-plane perimeter rule set (explicit membership plus the
  original ingress/egress rules) and a hierarchical deny backstop when the
  posture forbids internet egress.
- ``zero-trust``: RBAC bindings granting symmetric intra-group access among
  the member services' principals (logical perimeter).

``verify_compilation`` replays the request space against the original and
the compiled scenario and reports every verdict divergence, classifying the
ones a backend cannot avoid (ephemeral addressing, 5-tuple fidelity).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

from . import model as m
from .analysis import default_request_space, diff_decisions
from .errors import UnknownPerimeterError, UnresolvableMemberError
from .scenario import Scenario


class CompileMechanism(str, Enum):
    LIFT_SHIFT = "lift-shift"
    HYBRID = "hybrid"
    ZERO_TRUST = "zero-trust"


@dataclass(frozen=True)
class CompiledRuleSet:
    perimeter_id: str
    mechanism: CompileMechanism
    firewall_rules: tuple[m.FirewallRule, ...] = ()
    gateway_rules: tuple[m.GatewayRule, ...] = ()
    bindings: tuple[m.RBACBinding, ...] = ()
    perimeter: m.AbstractPerimeter | None = None
    divergence_notes: tuple[str, ...] = ()


@dataclass(frozen=True)
class Divergence:
    request: m.FlowRequest
    abstract: m.Decision
    compiled: m.Decision
    expected_class: str      # EXPECTED_EPHEMERAL | EXPECTED_FIDELITY | UNEXPECTED


@dataclass(frozen=True)
class EquivalenceReport:
    perimeter_id: str
    mechanism: CompileMechanism
    total_requests: int
    divergences: tuple[Divergence, ...]

    @property
    def equivalent(self) -> bool:
        return not self.divergences


def _perimeter(s: Scenario, perimeter_id: str) -> m.AbstractPerimeter:
    p = s.index().perimeters.get(perimeter_id)
    if p is None:
        raise UnknownPerimeterError(perimeter_id)
    return p


def _member_segments(s: Scenario, members: frozenset[str]) -> list[m.NetworkSegment]:
    return sorted(
        (seg for seg in s.segments if seg.project in members), key=lambda seg: seg.id
    )


def _no_internet_posture(p: m.AbstractPerimeter) -> bool:
    for rule in p.egress:
        if not rule.targets:
            return False
        if any(t.service == m.INTERNET for t in rule.targets):
            return False
    return True


def _rule_fidelity_notes(p: m.AbstractPerimeter) -> list[str]:
    notes = []
    rules = list(p.ingress) + list(p.egress)
    if any(r.identities or r.device for r in rules):
        notes.append(
            "identity and device predicates cannot be expressed as 5-tuples and were dropped"
        )
    if any(t.method != m.ANY for r in rules for t in r.targets):
        notes.append("per-method granularity cannot be expressed as 5-tuples and was dropped")
    return notes


def compile_perimeter(
    s: Scenario, perimeter_id: str, mechanism: CompileMechanism | str
) -> CompiledRuleSet:
    """Translate one abstract perimeter into the chosen mechanism's rules."""
    mechanism = CompileMechanism(mechanism)
    p = _perimeter(s, perimeter_id)
    members = s.index().memberships()[p.id]

    if mechanism is CompileMechanism.HYBRID:
        return _compile_hybrid(s, p, members)
    if mechanism is CompileMechanism.LIFT_SHIFT:
        return _compile_lift_shift(s, p, members)
    return _compile_zero_trust(s, p, members)


def _compile_hybrid(
    s: Scenario, p: m.AbstractPerimeter, members: frozenset[str]
) -> CompiledRuleSet:
    idx = s.index()
    # Preserve the bound mechanisms: compilation makes membership explicit and
    # carries the rules; it must not change what the perimeter enforces, which
    # is what makes hybrid verification zero-divergence by construction.
    compiled_perimeter = m.AbstractPerimeter(
        id=p.id,
        name=p.name,
        members=m.MemberSelector(projects=tuple(sorted(members))),
        ingress=p.ingress,
        egress=p.egress,
        mechanisms=p.mechanisms,
    )
    enforces_crossings = m.Mechanism.DATA_PLANE_PERIMETER in p.mechanisms
    firewall: list[m.FirewallRule] = []
    notes: list[str] = []
    if p.members.tags:
        notes.append("tag-selected members were expanded to a static project list")
    if not enforces_crossings:
        notes.append(
            "perimeter does not bind the data-plane mechanism; the rule set is emitted "
            "ready to bind but the scenario's enforcement is unchanged"
        )
    if enforces_crossings and _no_internet_posture(p):
        common: set[str] | None = None
        ordered_chain: list[str] = []
        for prj in sorted(members):
            chain = [
                nid
                for nid in m.ancestors(prj, idx.nodes)
                if idx.nodes[nid].kind is m.NodeKind.FOLDER
            ]
            if common is None:
                common = set(chain)
                ordered_chain = chain
            else:
                common &= set(chain)
        deepest = next((nid for nid in reversed(ordered_chain) if nid in (common or set())), None)
        scope = f"folder:{deepest}" if deepest else m.ORG_SCOPE
        existing = [r.priority for r in s.firewall_rules if r.scope == scope]
        firewall.append(
            m.FirewallRule(
                id=f"{p.id}-hier-deny-internet",
                scope=scope,
                priority=(min(existing) if existing else 1000) - 10,
                action=m.RuleAction.DENY,
                src=(m.ANY,),
                dst=(m.INTERNET,),
            )
        )
    return CompiledRuleSet(
        perimeter_id=p.id,
        mechanism=CompileMechanism.HYBRID,
        firewall_rules=tuple(firewall),
        perimeter=compiled_perimeter,
        divergence_notes=tuple(notes),
    )


def _expand_target(s: Scenario, t: m.PerimeterTarget) -> tuple[list[str], int | None]:
    """Concrete dst CIDR tokens (and port) for one perimeter-rule target."""
    if t.service == m.INTERNET:
        return [m.INTERNET], None
    if t.service == m.ANY:
        return [m.ANY], None
    svc = s.index().services.get(t.service)
    if svc is None:
        return [m.ANY], None
    if svc.host is not None:
        return [f"{svc.host}/32"], svc.port
    seg = s.index().segments.get(svc.segment)
    return (list(seg.cidrs) if seg and seg.cidrs else [m.ANY]), svc.port


def _compile_lift_shift(
    s: Scenario, p: m.AbstractPerimeter, members: frozenset[str]
) -> CompiledRuleSet:
    idx = s.index()
    segments = _member_segments(s, members)
    member_services = sorted(
        (svc for svc in s.services if svc.project in members), key=lambda x: x.id
    )
    for svc in member_services:
        if svc.compute is m.ComputeKind.SERVERLESS:
            bridged = any(
                e.kind is m.EdgeKind.VPC_CONNECTOR and svc.segment in e.ends for e in s.edges
            )
            if not bridged:
                raise UnresolvableMemberError(
                    f"serverless service {svc.id!r} has no vpc-connector, so no concrete address"
                )
    member_cidrs = sorted({c for seg in segments for c in seg.cidrs})
    if not member_cidrs:
        raise UnresolvableMemberError(
            f"perimeter {p.id!r} members own no addressable segments"
        )

    existing = [r.priority for r in s.firewall_rules if r.scope == m.ORG_SCOPE]
    base = (min(existing) if existing else 1000) - 1000
    prio = iter(range(base, base + 900))
    firewall: list[m.FirewallRule] = [
        m.FirewallRule(
            id=f"{p.id}-ls-intra",
            scope=m.ORG_SCOPE,
            priority=next(prio),
            action=m.RuleAction.ALLOW,
            src=tuple(member_cidrs),
            dst=tuple(member_cidrs),
        )
    ]
    gateway: list[m.GatewayRule] = []
    for i, rule in enumerate(p.egress):
        targets = rule.targets or (m.PerimeterTarget(),)
        for j, t in enumerate(targets):
            dst, port = _expand_target(s, t)
            firewall.append(
                m.FirewallRule(
                    id=f"{p.id}-ls-egress-{i}-{j}",
                    scope=m.ORG_SCOPE,
                    priority=next(prio),
                    action=m.RuleAction.ALLOW,
                    src=tuple(member_cidrs),
                    dst=tuple(dst),
                    ports=((port, port),) if port is not None else (),
                )
            )
            for seg in segments:
                zone = m.INTERNET
                if t.service not in (m.ANY, m.INTERNET):
                    svc = idx.services.get(t.service)
                    zone = svc.segment if svc else m.ANY
                elif t.service == m.ANY:
                    zone = m.ANY
                gateway.append(
                    m.GatewayRule(
                        id=f"{p.id}-ls-gw-egress-{i}-{j}-{seg.id}",
                        src_zone=seg.id,
                        dst_zone=zone,
                        action=m.RuleAction.ALLOW,
                    )
                )
    for i, rule in enumerate(p.ingress):
        src = [tok for tok in rule.networks if tok != m.ANY] or [m.ANY]
        targets = rule.targets or (m.PerimeterTarget(),)
        for j, t in enumerate(targets):
            if t.service not in (m.ANY, m.INTERNET):
                svc = idx.services.get(t.service)
                if svc is not None and svc.project not in members:
                    continue
            dst, port = _expand_target(s, t)
            if dst == [m.ANY]:
                dst = list(member_cidrs)
            firewall.append(
                m.FirewallRule(
                    id=f"{p.id}-ls-ingress-{i}-{j}",
                    scope=m.ORG_SCOPE,
                    priority=next(prio),
                    action=m.RuleAction.ALLOW,
                    src=tuple(src),
                    dst=tuple(dst),
                    ports=((port, port),) if port is not None else (),
                )
            )
            for seg in segments:
                for zone in (tok for tok in src if tok in m.DISTINGUISHED_LOCI):
                    gateway.append(
                        m.GatewayRule(
                            id=f"{p.id}-ls-gw-ingress-{i}-{j}-{seg.id}",
                            src_zone=zone,
                            dst_zone=seg.id,
                            action=m.RuleAction.ALLOW,
                        )
                    )
    firewall.append(
        m.FirewallRule(
            id=f"{p.id}-ls-deny-egress",
            scope=m.ORG_SCOPE,
            priority=next(prio),
            action=m.RuleAction.DENY,
            src=tuple(member_cidrs),
            dst=(m.ANY,),
        )
    )
    firewall.append(
        m.FirewallRule(
            id=f"{p.id}-ls-deny-ingress",
            scope=m.ORG_SCOPE,
            priority=next(prio),
            action=m.RuleAction.DENY,
            src=(m.ANY,),
            dst=tuple(member_cidrs),
        )
    )

    notes = [
        "members and targets are enforced as network addresses; controls outside this "
        "rule set (gateways, endpoint policies) and address reuse can still diverge"
    ]
    notes.extend(_rule_fidelity_notes(p))
    ephemeral = [
        svc.id
        for svc in member_services
        if svc.compute in (m.ComputeKind.KUBERNETES, m.ComputeKind.SERVERLESS)
    ]
    if ephemeral:
        notes.append(
            f"dynamically-addressed backends {ephemeral} enforce via ephemeral IPs; "
            "expect drift (EXPECTED_EPHEMERAL)"
        )
    if p.members.tags:
        notes.append("tag-selected members were expanded to static CIDRs at compile time")
    if not (p.ingress or p.egress):
        notes.append(
            "the abstract perimeter declares no crossings, so the compiled rules "
            "strictly isolate members; flows admitted by other controls will diverge"
        )
    return CompiledRuleSet(
        perimeter_id=p.id,
        mechanism=CompileMechanism.LIFT_SHIFT,
        firewall_rules=tuple(firewall),
        gateway_rules=tuple(gateway),
        divergence_notes=tuple(notes),
    )


def _compile_zero_trust(
    s: Scenario, p: m.AbstractPerimeter, members: frozenset[str]
) -> CompiledRuleSet:
    member_services = sorted(
        (svc for svc in s.services if svc.project in members), key=lambda x: x.id
    )
    bindings: list[m.RBACBinding] = []
    for caller in member_services:
        for callee in member_services:
            if caller.id == callee.id:
                continue
            for k, principal in enumerate(caller.run_as):
                bindings.append(
                    m.RBACBinding(
                        id=f"{p.id}-zt-{caller.id}-{callee.id}-{k}",
                        principal=principal,
                        role=(m.Permission(service=callee.id, method=m.ANY),),
                    )
                )
    notes = []
    if any(r.networks or r.device for r in list(p.ingress) + list(p.egress)):
        notes.append(
            "network and device conditions on crossings have no zero-trust equivalent here; "
            "cross-group access must be granted by hand-written bindings"
        )
    notes.append("intra-group access is symmetric; asymmetric intent needs explicit bindings")
    return CompiledRuleSet(
        perimeter_id=p.id,
        mechanism=CompileMechanism.ZERO_TRUST,
        bindings=tuple(bindings),
        divergence_notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------


def build_compiled_scenario(s: Scenario, compiled: CompiledRuleSet) -> Scenario:
    """The scenario with the abstract perimeter replaced by compiled rules."""
    perimeters = []
    for p in s.perimeters:
        if p.id != compiled.perimeter_id:
            perimeters.append(p)
            continue
        if compiled.mechanism is CompileMechanism.HYBRID and compiled.perimeter is not None:
            perimeters.append(compiled.perimeter)
        else:
            stripped = (p.mechanisms - {m.Mechanism.DATA_PLANE_PERIMETER}) | {
                m.Mechanism.NETWORK_SEGMENTATION
            }
            perimeters.append(replace(p, ingress=(), egress=(), mechanisms=frozenset(stripped)))
    edges = list(s.edges)
    if compiled.gateway_rules:
        edges = []
        for e in s.edges:
            if e.kind is not m.EdgeKind.GATEWAY_APPLIANCE:
                edges.append(e)
                continue
            extra = tuple(
                gr
                for gr in compiled.gateway_rules
                if {gr.src_zone, gr.dst_zone} - {m.ANY} <= set(e.ends)
            )
            edges.append(replace(e, gateway_rules=extra + e.gateway_rules) if extra else e)
    return replace(
        s,
        perimeters=tuple(perimeters),
        edges=tuple(edges),
        firewall_rules=tuple(s.firewall_rules) + compiled.firewall_rules,
        bindings=tuple(s.bindings) + compiled.bindings,
    )


def verify_compilation(
    s: Scenario,
    compiled: CompiledRuleSet,
    requests: list[m.FlowRequest] | None = None,
) -> EquivalenceReport:
    """Replay the request space under abstract and compiled enforcement."""
    if requests is None:
        requests = default_request_space(s)
    compiled_scenario = build_compiled_scenario(s, compiled)
    diffs = diff_decisions(s, compiled_scenario, requests)
    p = _perimeter(s, compiled.perimeter_id)
    has_fidelity_gap = bool(_rule_fidelity_notes(p)) or compiled.mechanism in (
        CompileMechanism.LIFT_SHIFT,
        CompileMechanism.ZERO_TRUST,
    )
    idx = s.index()
    divergences = []
    for d in diffs:
        svc = idx.services.get(d.request.target)
        if svc is not None and svc.compute in (m.ComputeKind.KUBERNETES, m.ComputeKind.SERVERLESS):
            cls = "EXPECTED_EPHEMERAL"
        elif has_fidelity_gap:
            cls = "EXPECTED_FIDELITY"
        else:
            cls = "UNEXPECTED"
        divergences.append(
            Divergence(request=d.request, abstract=d.before, compiled=d.after, expected_class=cls)
        )
    return EquivalenceReport(
        perimeter_id=compiled.perimeter_id,
        mechanism=compiled.mechanism,
        total_requests=len(requests),
        divergences=tuple(divergences),
    )
