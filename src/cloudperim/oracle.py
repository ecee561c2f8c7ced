"""Independent brute-force decision oracle.

Re-derives every decision rule directly from its definition, in definition
order, sharing only the domain types with the optimized engine: paths come
from exhaustive simple-path enumeration instead of shortest-path search,
credential chains from exhaustive trust-walk enumeration, and every rule
scan is a plain loop. Deliberately unoptimized; exists to check the engine.
"""

from __future__ import annotations

import ipaddress

from . import model as m
from .errors import UnknownEntityError
from .scenario import Scenario


def _addr_in(address: str | None, cidr: str) -> bool:
    if address is None:
        return False
    try:
        return ipaddress.ip_address(address) in ipaddress.ip_network(cidr, strict=False)
    except ValueError:
        return False


def _overlaps_segment(cidr: str, seg: m.NetworkSegment) -> bool:
    try:
        net = ipaddress.ip_network(cidr, strict=False)
    except ValueError:
        return False
    return any(net.overlaps(ipaddress.ip_network(c, strict=False)) for c in seg.cidrs)


def _first_host(seg: m.NetworkSegment) -> str | None:
    if not seg.cidrs:
        return None
    net = ipaddress.ip_network(seg.cidrs[0], strict=False)
    return str(net[1] if net.num_addresses > 1 else net[0])  # a one-address segment is its own source


# ---------------------------------------------------------------------------
# Brute-force routing
# ---------------------------------------------------------------------------


def _all_simple_paths(s: Scenario, source: str, goal: str, final_target: str) -> list[list]:
    """Every legal simple path (lists of (edge, src, dst)) from source to goal."""
    segs = {x.id: x for x in s.segments}
    paths: list[list] = []

    def legal(edge: m.ConnectivityEdge, at: str, nxt: str) -> bool:
        at_seg = segs.get(at)
        if at_seg is not None and at_seg.routability is m.Routability.NON_ROUTABLE and at != source:
            return False
        if edge.direction is m.EdgeDirection.OUTBOUND_ONLY and edge.ends[0] != at:
            return False
        if edge.kind is m.EdgeKind.NAT_GATEWAY and (nxt != m.INTERNET or final_target != m.INTERNET):
            return False
        nxt_seg = segs.get(nxt)
        if (
            nxt_seg is not None
            and nxt_seg.routability is m.Routability.NON_ROUTABLE
            and edge.kind is not m.EdgeKind.VPC_CONNECTOR
        ):
            return False
        return True

    def walk(at: str, visited: set[str], acc: list) -> None:
        if at == goal:
            paths.append(list(acc))
            return
        for edge in s.edges:
            if at not in edge.ends:
                continue
            nxt = edge.other_end(at)
            if nxt in visited or nxt == at or not legal(edge, at, nxt):
                continue
            acc.append((edge, at, nxt))
            walk(nxt, visited | {nxt}, acc)
            acc.pop()

    walk(source, {source}, [])
    return paths


def _oracle_route(s: Scenario, source: str, target: str):
    """Returns (gateway traversals, endpoint or None, reached: bool, key)."""
    services = {x.id: x for x in s.services}
    endpoints = {x.id: x for x in s.endpoints}
    attachments = {x.id: x for x in s.attachments}
    att_for_svc = {a.service: a for a in s.attachments}
    segs = {x.id: x for x in s.segments}

    def locus_paths(goal: str, final: str) -> list[list[tuple[str, str, str]]]:
        raw = _all_simple_paths(s, source, goal, final)
        return [[(e.id, a, b) for (e, a, b) in p] for p in raw]

    candidates: list[tuple[list[tuple[str, str, str]], str | None]] = []
    if target == m.INTERNET:
        candidates = [(p, None) for p in locus_paths(m.INTERNET, m.INTERNET)]
    elif target in services:
        svc = services[target]
        if source == svc.segment:
            candidates.append(([("", source, source)], None))
        else:
            candidates.extend((p, None) for p in locus_paths(svc.segment, svc.segment))
        att = att_for_svc.get(svc.id)
        if att is not None:
            for ep in s.endpoints:
                if ep.attachment != att.id:
                    continue
                for lead in locus_paths(ep.segment, ep.segment) if ep.segment != source else [[]]:
                    candidates.append((lead + [(ep.id, ep.segment, svc.segment)], ep.id))
    elif target in endpoints:
        ep = endpoints[target]
        att = attachments.get(ep.attachment)
        svc = services.get(att.service) if att else None
        if svc is None:
            raise UnknownEntityError(target)
        for lead in locus_paths(ep.segment, ep.segment) if ep.segment != source else [[]]:
            candidates.append((lead + [(ep.id, ep.segment, svc.segment)], ep.id))
    else:
        host = target.split(":")[0]
        holder = next((g for g in s.segments if any(_addr_in(host, c) for c in g.cidrs)), None)
        if holder is None:
            raise UnknownEntityError(target)
        if holder.id == source:
            candidates.append(([("", source, source)], None))
        elif holder.routability is not m.Routability.NON_ROUTABLE:
            candidates.extend((p, None) for p in locus_paths(holder.id, holder.id))

    if not candidates:
        return None
    best = min(candidates, key=lambda c: (len(c[0]), tuple(step[0] for step in c[0])))
    steps, endpoint_id = best
    edge_ids = {e.id: e for e in s.edges}
    gateway_steps = [
        (edge_ids[eid], a, b)
        for (eid, a, b) in steps
        if eid in edge_ids and edge_ids[eid].kind is m.EdgeKind.GATEWAY_APPLIANCE
    ]
    return gateway_steps, endpoint_id


# ---------------------------------------------------------------------------
# Brute-force credential search
# ---------------------------------------------------------------------------


def _all_chains(s: Scenario, principal: m.Principal, target_idp: str, bound: int) -> list[list]:
    """All trust walks (edge id, idp, principal) from home idp to target idp
    whose chains, the home step included, have at most ``bound`` steps."""
    found: list[list] = []

    def traversals(at_idp: str, current: str):
        for e in s.trust_edges:
            if e.src == at_idp and current in e.mapping:
                yield e.id, e.dst, e.mapping[current]
            if e.kind is m.TrustKind.TWO_WAY_TRUST and e.dst == at_idp:
                inv: dict[str, str] = {}
                for k, v in sorted(e.mapping.items()):
                    inv.setdefault(v, k)
                if current in inv:
                    yield e.id, e.src, inv[current]

    def walk(at_idp: str, current: str, acc: list, seen: set) -> None:
        if at_idp == target_idp:
            found.append(list(acc))
            return
        if len(acc) + 1 >= bound:  # the chain so far: the home step and one per edge
            return
        for eid, nxt_idp, nxt_principal in traversals(at_idp, current):
            state = (nxt_idp, nxt_principal)
            if state in seen:
                continue
            acc.append((eid, nxt_idp, nxt_principal))
            walk(nxt_idp, nxt_principal, acc, seen | {state})
            acc.pop()

    walk(principal.idp, principal.id, [], {(principal.idp, principal.id)})
    return found


def _oracle_resolve_terminal(s: Scenario, principal: m.Principal, target_idp: str) -> str | None:
    chains = _all_chains(s, principal, target_idp, s.chain_bound)
    if not chains:
        return None
    best = min(chains, key=lambda c: (len(c), tuple(step[0] for step in c)))
    return best[-1][2] if best else principal.id


def _oracle_chain_ok(s: Scenario, chain: m.CredentialChain, p: m.Principal, target_idp: str) -> bool:
    if not chain.steps or len(chain) > s.chain_bound:
        return False
    first = chain.steps[0]
    if first.idp != p.idp or first.principal != p.id or first.edge is not None:
        return False
    edges = {e.id: e for e in s.trust_edges}
    for prev, step in zip(chain.steps, chain.steps[1:]):
        e = edges.get(step.edge or "")
        if e is None:
            return False
        forward_ok = e.src == prev.idp and e.dst == step.idp and e.mapping.get(prev.principal) == step.principal
        reverse_ok = (
            e.kind is m.TrustKind.TWO_WAY_TRUST
            and e.dst == prev.idp
            and e.src == step.idp
            and e.mapping.get(step.principal) == prev.principal
        )
        if not forward_ok and not reverse_ok:  # a two-way self-loop may be read either way
            return False
    return chain.terminal_idp == target_idp


# ---------------------------------------------------------------------------
# The oracle decision procedure
# ---------------------------------------------------------------------------


def oracle_evaluate(s: Scenario, r: m.FlowRequest) -> m.Decision:
    """Same contract as evaluate_flow, by direct application of every rule."""
    return oracle_decide(s, r)[0]


def oracle_decide(s: Scenario, r: m.FlowRequest) -> tuple[m.Decision, m.PointKind | None]:
    """The decision and the point that denies, None when the request is allowed."""
    nodes = {n.id: n for n in s.nodes}
    segs = {x.id: x for x in s.segments}
    services = {x.id: x for x in s.services}
    endpoints = {x.id: x for x in s.endpoints}
    attachments = {x.id: x for x in s.attachments}
    principals = {x.id: x for x in s.principals}

    principal = principals.get(r.principal)
    if principal is None:
        raise UnknownEntityError(f"principal {r.principal!r}")
    if r.source not in segs and r.source not in m.DISTINGUISHED_LOCI:
        raise UnknownEntityError(f"source locus {r.source!r}")

    svc: m.ServiceSpec | None = None
    declared_endpoint: m.ConsumerEndpoint | None = None
    if r.target == m.INTERNET:
        pass
    elif r.target in services:
        svc = services[r.target]
    elif r.target in endpoints:
        declared_endpoint = endpoints[r.target]
        att = attachments.get(declared_endpoint.attachment)
        svc = services.get(att.service) if att else None
        if svc is None:
            raise UnknownEntityError(r.target)
    else:
        raise UnknownEntityError(f"target {r.target!r}")

    routed = _oracle_route(s, r.source, r.target)
    if routed is None:
        return m.deny(m.DenyReason.NO_ROUTE), m.PointKind.ROUTE
    gateway_steps, endpoint_id = routed
    endpoint = declared_endpoint if declared_endpoint is not None else endpoints.get(endpoint_id or "")
    attachment = attachments.get(endpoint.attachment) if endpoint is not None else None

    src_seg = segs.get(r.source)
    src_addr = r.source_address
    if src_addr is None and src_seg is not None:
        src_addr = _first_host(src_seg)

    def src_match(token: str) -> bool:
        if token == m.ANY:
            return True
        if token in m.DISTINGUISHED_LOCI:
            return r.source == token
        if src_seg is None:
            return _addr_in(src_addr, token)
        return _addr_in(src_addr, token) or _overlaps_segment(token, src_seg)

    def dst_match(token: str) -> bool:
        if token == m.ANY:
            return True
        if token == m.INTERNET:
            return svc is None
        if token == m.ONPREM or svc is None:
            return False
        addrs = []
        if endpoint is not None and endpoint.address is not None:
            addrs.append(endpoint.address.split(":")[0])
        if svc.address is not None:
            addrs.append(svc.address.split(":")[0])
        if any(_addr_in(a, token) for a in addrs):
            return True
        home = segs.get(svc.segment)
        return home is not None and _overlaps_segment(token, home)

    dst_port: int | None = None
    if endpoint is not None and endpoint.address and ":" in endpoint.address:
        dst_port = int(endpoint.address.split(":")[1])
    elif svc is not None and svc.address and ":" in svc.address:
        dst_port = int(svc.address.split(":")[1])

    # --- firewall: org scope, then folders root to leaf, then segment scope
    anchor = src_seg
    if anchor is None and svc is not None:
        anchor = segs.get(svc.segment)
    scope_keys = [m.ORG_SCOPE]
    if anchor is not None:
        for node_id in m.ancestors(anchor.project, nodes):
            if nodes[node_id].kind is m.NodeKind.FOLDER:
                scope_keys.append(f"folder:{node_id}")
        scope_keys.append(f"segment:{anchor.id}")

    def fw_matches(rule: m.FirewallRule) -> bool:
        if rule.protocol not in ("any", "tcp"):
            return False
        if not any(src_match(t) for t in rule.src):
            return False
        if not any(dst_match(t) for t in rule.dst):
            return False
        if rule.ports:
            if dst_port is None or not any(lo <= dst_port <= hi for lo, hi in rule.ports):
                return False
        return True

    fw_terminal: tuple[str, m.FirewallRule] | None = None
    for scope_key in scope_keys:
        in_scope = sorted(
            (x for x in s.firewall_rules if x.scope == scope_key), key=lambda x: x.priority
        )
        hit = next((x for x in in_scope if fw_matches(x)), None)
        if hit is not None and hit.action is not m.RuleAction.DELEGATE:
            fw_terminal = (scope_key, hit)
            break
    if fw_terminal is not None:
        scope_key, rule = fw_terminal
        if rule.action is m.RuleAction.DENY:
            if scope_key.startswith("segment:"):
                return m.deny(m.DenyReason.SEGMENT_FIREWALL), m.PointKind.SEGMENT_FIREWALL
            return m.deny(m.DenyReason.HIER_FIREWALL), m.PointKind.HIER_FIREWALL
    else:
        addressed_seg = endpoint.segment if endpoint is not None else (svc.segment if svc else None)
        intra = src_seg is not None and addressed_seg == src_seg.id
        if not (intra and src_seg.trust_mode is m.TrustMode.TRUSTING):
            return m.deny(m.DenyReason.FIREWALL_DEFAULT), m.PointKind.SEGMENT_FIREWALL

    # --- gateways, in traversal order
    for edge, hop_src, hop_dst in gateway_steps:
        hit_rule = None
        for rule in edge.gateway_rules:
            if rule.src_zone not in (m.ANY, hop_src) or rule.dst_zone not in (m.ANY, hop_dst):
                continue
            if not rule.new_connection or rule.protocol not in ("any", "tcp"):
                continue
            if rule.content_class is not None and rule.content_class not in r.payload_tags:
                continue
            hit_rule = rule
            break
        if hit_rule is None or hit_rule.action is m.RuleAction.DENY:
            return m.deny(m.DenyReason.GATEWAY), m.PointKind.GATEWAY

    # --- consumer endpoint, then producer attachment
    def predicate_hit(policy):
        for p in policy:
            if p.identities and not any(principal.matches_identity(t) for t in p.identities):
                continue
            if p.cidrs and not any(src_match(t) for t in p.cidrs):
                continue
            if p.methods and not any(m.method_matches(t, r.method) for t in p.methods):
                continue
            return p
        return None

    if endpoint is not None and attachment is not None:
        hit = predicate_hit(endpoint.policy)
        if hit is not None and hit.action is m.RuleAction.DENY:
            return m.deny(m.DenyReason.CONSUMER), m.PointKind.CONSUMER_ENDPOINT
        hit = predicate_hit(attachment.policy)
        if hit is not None and hit.action is m.RuleAction.DENY:
            return m.deny(m.DenyReason.PRODUCER), m.PointKind.PRODUCER_ATTACHMENT

    # --- perimeter crossing
    dp_membership: dict[str, frozenset[str]] = {}
    for p in s.perimeters:
        if m.Mechanism.DATA_PLANE_PERIMETER in p.mechanisms:
            dp_membership[p.id] = m.resolve_members(p, nodes)

    def perimeter_of(project: str | None):
        if project is None:
            return None
        for p in s.perimeters:
            if p.id in dp_membership and project in dp_membership[p.id]:
                return p
        return None

    src_perim = perimeter_of(src_seg.project if src_seg else None)
    dst_perim = perimeter_of(svc.project if svc else None)

    def perim_rule_hit(rules) -> bool:
        for rule in rules:
            if rule.identities and not any(principal.matches_identity(t) for t in rule.identities):
                continue
            if any(principal.device.get(k) != v for k, v in rule.device.items()):
                continue
            if rule.networks and not any(src_match(t) for t in rule.networks):
                continue
            if rule.targets:
                tgt_project = svc.project if svc else None
                tgt_service = svc.id if svc else m.INTERNET
                if not any(
                    (t.project == m.ANY or t.project == tgt_project)
                    and (t.service == m.ANY or t.service == tgt_service)
                    and m.method_matches(t.method, r.method)
                    for t in rule.targets
                ):
                    continue
            return True
        return False

    same = src_perim is not None and dst_perim is not None and src_perim.id == dst_perim.id
    if not same:
        if src_perim is not None and not perim_rule_hit(src_perim.egress):
            return m.deny(m.DenyReason.PERIMETER_EGRESS), m.PointKind.PERIMETER_EGRESS
        if dst_perim is not None and not perim_rule_hit(dst_perim.ingress):
            return m.deny(m.DenyReason.PERIMETER_INGRESS), m.PointKind.PERIMETER_INGRESS

    # --- authn
    terminal = principal
    if svc is not None and svc.auth_mode is m.AuthMode.ZERO_TRUST and svc.idp is not None:
        if r.presented_chain is not None:
            if not _oracle_chain_ok(s, r.presented_chain, principal, svc.idp):
                return m.deny(m.DenyReason.NO_CREDENTIAL), m.PointKind.AUTHN
            terminal = principals.get(r.presented_chain.terminal_principal, principal)
        else:
            terminal_id = _oracle_resolve_terminal(s, principal, svc.idp)
            if terminal_id is None:
                return m.deny(m.DenyReason.NO_CREDENTIAL), m.PointKind.AUTHN
            terminal = principals.get(terminal_id, principal)

    # --- rbac
    if svc is not None:
        tags = set(m.effective_tags(svc.project, nodes))
        assets = {a.id: a for a in s.assets}
        for asset_id in list(svc.reads) + list(svc.writes):
            a = assets.get(asset_id)
            if a is None:
                continue
            tags.update(a.tags)
            if a.resource in nodes:
                tags.update(m.effective_tags(a.resource, nodes))
        applicable = [
            b
            for b in s.bindings
            if terminal.matches_identity(b.principal) and b.grants(svc.id, r.method)
        ]
        satisfied = any(b.condition is None or b.condition.holds(tags) for b in applicable)
        if svc.auth_mode is m.AuthMode.ZERO_TRUST:
            if not satisfied:
                return m.deny(m.DenyReason.RBAC_DEFAULT_DENY), m.PointKind.RBAC
        else:
            if applicable and not satisfied:
                return m.deny(m.DenyReason.RBAC_CONDITION), m.PointKind.RBAC

    return m.ALLOW, None
