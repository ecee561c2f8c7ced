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

from dataclasses import replace
from enum import Enum

from . import model as m
from . import prefix
from .analysis import default_request_space, diff_decisions
from .errors import UnknownPerimeterError, UnresolvableMemberError
from .scenario import Scenario


class CompileMechanism(str, Enum):
    LIFT_SHIFT = "lift-shift"
    HYBRID = "hybrid"
    ZERO_TRUST = "zero-trust"


@m.value_type
class CompiledRuleSet:
    perimeter_id: str
    mechanism: CompileMechanism
    firewall_rules: tuple[m.FirewallRule, ...] = ()
    gateway_rules: tuple[m.GatewayRule, ...] = ()
    bindings: tuple[m.RBACBinding, ...] = ()
    perimeter: m.AbstractPerimeter | None = None
    divergence_notes: tuple[str, ...] = ()


@m.value_type
class Divergence:
    request: m.FlowRequest
    abstract: m.Decision
    compiled: m.Decision
    expected_class: str      # EXPECTED_EPHEMERAL | EXPECTED_FIDELITY | UNEXPECTED


@m.value_type
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
        raise UnknownPerimeterError(f"unknown perimeter {perimeter_id!r}")
    return p


# compute whose addresses are ephemeral, so no 5-tuple pins them
_EPHEMERAL = frozenset({m.ComputeKind.KUBERNETES, m.ComputeKind.SERVERLESS})


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
    # Preserve the bound mechanisms: compilation makes membership explicit and
    # carries the rules; it must not change what the perimeter enforces, which
    # is what makes hybrid verification zero-divergence by construction.
    compiled_perimeter = m.AbstractPerimeter(
        id=p.id,
        name=p.name,
        members=m.MemberSelector(projects=sorted(members)),
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
    if enforces_crossings and not p.allows_internet:
        idx = s.index()
        common = idx.common_folders(members)
        scope = f"folder:{common[-1]}" if common else m.ORG_SCOPE
        firewall.append(
            m.FirewallRule(
                id=f"{p.id}-hier-deny-internet",
                scope=scope,
                priority=idx.lowest_priority(scope) - 10,
                action=m.RuleAction.DENY,
                src=(m.ANY,),
                dst=(m.INTERNET,),
            )
        )
    return CompiledRuleSet(
        perimeter_id=p.id,
        mechanism=CompileMechanism.HYBRID,
        firewall_rules=firewall,
        perimeter=compiled_perimeter,
        divergence_notes=notes,
    )


def _expand_target(s: Scenario, t: m.PerimeterTarget) -> tuple[list[str], int | None]:
    """Concrete dst CIDR tokens (and port) for one perimeter-rule target."""
    if t.service == m.INTERNET:
        return [m.INTERNET], None
    if t.service == m.ANY:
        return [m.ANY], None
    idx = s.index()
    svc = idx.services[t.service]
    if svc.address is not None:
        host, port = prefix.host_prefix(svc.address)
        return [host], port
    return list(idx.segments[svc.segment].cidrs) or [m.ANY], None


def _compile_lift_shift(
    s: Scenario, p: m.AbstractPerimeter, members: frozenset[str]
) -> CompiledRuleSet:
    idx = s.index()
    segments = idx.member_segments(members)
    member_services = idx.member_services(members)
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

    firewall: list[m.FirewallRule] = []
    gateway: list[m.GatewayRule] = []

    def fw(suffix: str, action: m.RuleAction, src, dst, port: int | None = None) -> None:
        # a rule's priority is its offset in the block until the block's size is known
        firewall.append(m.FirewallRule(
            id=f"{p.id}-ls-{suffix}", scope=m.ORG_SCOPE, priority=len(firewall), action=action,
            src=src, dst=dst, ports=((port, port),) if port is not None else (),
        ))

    def gw(suffix: str, src_zone: str, dst_zone: str) -> None:
        gateway.append(m.GatewayRule(
            id=f"{p.id}-ls-gw-{suffix}", src_zone=src_zone, dst_zone=dst_zone, action=m.RuleAction.ALLOW
        ))

    allow, deny = m.RuleAction.ALLOW, m.RuleAction.DENY
    fw("intra", allow, member_cidrs, member_cidrs)
    for i, rule in enumerate(p.egress):
        for j, t in enumerate(rule.targets or (m.PerimeterTarget(),)):
            fw(f"egress-{i}-{j}", allow, member_cidrs, *_expand_target(s, t))
            zone = t.service if t.service in (m.ANY, m.INTERNET) else idx.services[t.service].segment
            for seg in segments:
                gw(f"egress-{i}-{j}-{seg.id}", seg.id, zone)
    for i, rule in enumerate(p.ingress):
        src = [tok for tok in rule.networks if tok != m.ANY] or [m.ANY]
        for j, t in enumerate(rule.targets or (m.PerimeterTarget(),)):
            if t.service not in (m.ANY, m.INTERNET) and idx.services[t.service].project not in members:
                continue
            dst, port = _expand_target(s, t)
            fw(f"ingress-{i}-{j}", allow, src, member_cidrs if dst == [m.ANY] else dst, port)
            for seg in segments:
                for zone in (tok for tok in src if tok in m.DISTINGUISHED_LOCI):
                    gw(f"ingress-{i}-{j}-{seg.id}", zone, seg.id)
    fw("deny-egress", deny, member_cidrs, (m.ANY,))
    fw("deny-ingress", deny, (m.ANY,), member_cidrs)
    # one block of distinct priorities, all below the lowest at organization scope
    base = idx.lowest_priority(m.ORG_SCOPE) - max(1000, len(firewall))
    firewall = [replace(r, priority=base + r.priority) for r in firewall]

    notes = [
        "members and targets are enforced as network addresses; controls outside this "
        "rule set (gateways, endpoint policies) and address reuse can still diverge"
    ]
    notes.extend(_rule_fidelity_notes(p))
    ephemeral = [svc.id for svc in member_services if svc.compute in _EPHEMERAL]
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
        firewall_rules=firewall,
        gateway_rules=gateway,
        divergence_notes=notes,
    )


def _compile_zero_trust(
    s: Scenario, p: m.AbstractPerimeter, members: frozenset[str]
) -> CompiledRuleSet:
    member_services = s.index().member_services(members)
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
        bindings=bindings,
        divergence_notes=notes,
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
            perimeters.append(replace(p, ingress=(), egress=(), mechanisms=stripped))
    edges = s.edges
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
        perimeters=perimeters,
        edges=edges,
        firewall_rules=s.firewall_rules + compiled.firewall_rules,
        bindings=s.bindings + compiled.bindings,
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
        if svc is not None and svc.compute in _EPHEMERAL:
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
        divergences=divergences,
    )
