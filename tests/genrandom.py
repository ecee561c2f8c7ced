"""Seeded random scenario/request generation and monotonicity mutations.

Scenarios produced are always structurally valid (asserted); requests always
reference existing entities. Mutations only add deny rules, remove allow
rules, add perimeters, or remove perimeter rules, i.e. every mutation is
restriction-only so the allowed-flow set must shrink or stay put.
"""

from __future__ import annotations

import random

from cloudperim import model as m
from cloudperim.analysis import method_universe, source_loci
from cloudperim.scenario import Scenario, validate_scenario

METHODS = ["connect", "read", "write", "query", "admin"]


def random_scenario(
    rng: random.Random, *, with_edges: bool = False, with_trust_edges: bool = False,
    deep_folders: bool = False,
) -> Scenario:
    """A random scenario. ``with_edges`` and ``with_trust_edges`` guarantee at
    least one connectivity edge and one trust edge. ``deep_folders`` adds
    three to six folders, each under the folder made before it, and one
    firewall rule in each folder, so projects and folder-scoped rules sit
    several levels down. Left False, they draw nothing from ``rng``."""
    nodes: list[m.ResourceNode] = [m.ResourceNode(id="org", kind=m.NodeKind.ORGANIZATION)]
    folders = []
    for i in range(rng.randint(0, 2)):
        fid = f"f{i}"
        folders.append(fid)
        nodes.append(m.ResourceNode(id=fid, kind=m.NodeKind.FOLDER, parent="org"))
    if deep_folders:
        for i in range(len(folders), len(folders) + rng.randint(3, 6)):
            fid = f"f{i}"
            parent = folders[-1] if folders else "org"
            folders.append(fid)
            nodes.append(m.ResourceNode(id=fid, kind=m.NodeKind.FOLDER, parent=parent))
    projects = []
    for i in range(rng.randint(2, 4)):
        pid = f"prj{i}"
        parent = rng.choice(["org"] + folders)
        tags = frozenset({f"env:{rng.choice(['prod', 'dev'])}"} if rng.random() < 0.5 else set())
        nodes.append(m.ResourceNode(id=pid, kind=m.NodeKind.PROJECT, parent=parent, tags=tags))
        projects.append(pid)
    resources = []
    for i in range(rng.randint(0, 2)):
        rid = f"res{i}"
        nodes.append(m.ResourceNode(id=rid, kind=m.NodeKind.RESOURCE, parent=rng.choice(projects)))
        resources.append(rid)

    segments = []
    n_seg = rng.randint(1, 3)
    for i in range(n_seg):
        routable = rng.random() < 0.7
        if routable:
            cidrs = [f"10.{2 * i + 1}.0.0/16"]
            if rng.random() < 0.3:
                cidrs.append(f"10.{2 * i + 2}.0.0/16")
        else:
            cidrs = ["172.16.0.0/16"]
        segments.append(
            m.NetworkSegment(
                id=f"seg{i}",
                project=rng.choice(projects),
                routability=m.Routability.ROUTABLE if routable else m.Routability.NON_ROUTABLE,
                cidrs=tuple(cidrs),
                trust_mode=rng.choice([m.TrustMode.TRUSTING, m.TrustMode.ZERO_TRUST]),
            )
        )

    edges = []
    eid = 0
    for i in range(len(segments)):
        for j in range(i + 1, len(segments)):
            if rng.random() < 0.5:
                continue
            a, b = segments[i], segments[j]
            if b.routability is m.Routability.NON_ROUTABLE and rng.random() < 0.7:
                continue
            kind = rng.choice([m.EdgeKind.PEERING, m.EdgeKind.GATEWAY_APPLIANCE, m.EdgeKind.VPN])
            rules = ()
            if kind is m.EdgeKind.GATEWAY_APPLIANCE:
                rules = tuple(
                    m.GatewayRule(
                        id=f"gwr{eid}-{k}",
                        src_zone=rng.choice([a.id, b.id, m.ANY]),
                        dst_zone=rng.choice([a.id, b.id, m.ANY]),
                        action=rng.choice([m.RuleAction.ALLOW, m.RuleAction.DENY]),
                        protocol=rng.choice(["tcp", "tcp", "tcp", "any", "udp"]),
                        content_class=rng.choice([None, None, None, "pci:true"]),
                    )
                    for k in range(rng.randint(0, 3))
                )
            edges.append(
                m.ConnectivityEdge(id=f"e{eid}", kind=kind, ends=(a.id, b.id), gateway_rules=rules)
            )
            eid += 1
    for seg in segments:
        if rng.random() < 0.4:
            edges.append(
                m.ConnectivityEdge(id=f"e{eid}", kind=m.EdgeKind.INTERCONNECT, ends=(m.ONPREM, seg.id))
            )
            eid += 1
        if rng.random() < 0.3:
            edges.append(
                m.ConnectivityEdge(
                    id=f"e{eid}",
                    kind=m.EdgeKind.NAT_GATEWAY,
                    ends=(seg.id, m.INTERNET),
                    direction=m.EdgeDirection.OUTBOUND_ONLY,
                )
            )
            eid += 1
        if rng.random() < 0.25:
            edges.append(
                m.ConnectivityEdge(
                    id=f"e{eid}",
                    kind=m.EdgeKind.GATEWAY_APPLIANCE,
                    ends=(seg.id, m.INTERNET),
                    gateway_rules=(
                        m.GatewayRule(
                            id=f"gwr{eid}",
                            src_zone=rng.choice([seg.id, m.ANY]),
                            dst_zone=m.INTERNET,
                            action=rng.choice([m.RuleAction.ALLOW, m.RuleAction.DENY]),
                        ),
                    ),
                )
            )
            eid += 1
    if with_edges and not edges:
        edges.append(
            m.ConnectivityEdge(
                id=f"e{eid}",
                kind=m.EdgeKind.NAT_GATEWAY,
                ends=(segments[0].id, m.INTERNET),
                direction=m.EdgeDirection.OUTBOUND_ONLY,
            )
        )

    idps = [m.IdentityProvider(id="idp0", kind=m.IdpKind.CLOUD_NATIVE)]
    extra_idps = rng.randint(0, 2)
    for extra in range(max(extra_idps, 1) if with_trust_edges else extra_idps):
        idps.append(
            m.IdentityProvider(
                id=f"idp{extra + 1}",
                kind=rng.choice([m.IdpKind.DIRECTORY, m.IdpKind.CLUSTER]),
                segment=rng.choice(segments).id if rng.random() < 0.4 else None,
            )
        )
    principals = []
    for i in range(rng.randint(2, 4)):
        principals.append(
            m.Principal(
                id=f"p{i}",
                kind=m.PrincipalKind.SERVICE_ACCOUNT,
                idp=rng.choice(idps).id,
                groups=tuple({f"grp{rng.randint(0, 1)}"} if rng.random() < 0.6 else set()),
                device={"managed": rng.choice(["true", "false"])} if rng.random() < 0.4 else {},
            )
        )
    trust_edges = []
    tid = 0
    for src_idp in idps:
        for dst_idp in idps:
            if src_idp.id == dst_idp.id or rng.random() < 0.6:
                continue
            mapping = {}
            for p in principals:
                if rng.random() < 0.6:
                    mapping[p.id] = rng.choice(principals).id
            trust_edges.append(
                m.TrustEdge(
                    id=f"t{tid}",
                    src=src_idp.id,
                    dst=dst_idp.id,
                    kind=rng.choice(
                        [m.TrustKind.WORKLOAD_FEDERATION, m.TrustKind.ONE_WAY_TRUST, m.TrustKind.TWO_WAY_TRUST]
                    ),
                    mapping=mapping,
                )
            )
            tid += 1
    if with_trust_edges and not trust_edges:
        # federate idp0 into another idp, mapping every principal
        trust_edges.append(
            m.TrustEdge(
                id=f"t{tid}",
                src="idp0",
                dst=rng.choice(idps[1:]).id,
                kind=rng.choice([m.TrustKind.WORKLOAD_FEDERATION, m.TrustKind.TWO_WAY_TRUST]),
                mapping={p.id: rng.choice(principals).id for p in principals},
            )
        )

    assets = [
        m.DataAsset(
            id=f"a{i}",
            resource=res,
            tags=frozenset({rng.choice(["pii:true", "pii:false", "pci:true"])}),
        )
        for i, res in enumerate(resources)
    ]

    services = []
    fqdn_n = 0
    for i in range(rng.randint(1, 4)):
        seg = rng.choice(segments)
        layer = rng.choice([m.ServiceLayer.L4, m.ServiceLayer.L7])
        address = fqdn = None
        if layer is m.ServiceLayer.L4:
            base = seg.cidrs[0].split("/")[0].rsplit(".", 2)[0]
            address = f"{base}.{i + 1}.{10 + i}:443"
        else:
            fqdn = f"svc{fqdn_n}.internal"
            fqdn_n += 1
        reads = tuple(a.id for a in assets if rng.random() < 0.4)
        services.append(
            m.ServiceSpec(
                id=f"svc{i}",
                project=rng.choice(projects),
                segment=seg.id,
                layer=layer,
                compute=rng.choice([m.ComputeKind.VM, m.ComputeKind.KUBERNETES, m.ComputeKind.PAAS]),
                auth_mode=rng.choice([m.AuthMode.ZERO_TRUST, m.AuthMode.PERIMETER_TRUSTING]),
                address=address,
                fqdn=fqdn,
                idp=rng.choice(idps).id if rng.random() < 0.7 else None,
                run_as=tuple({rng.choice(principals).id} if rng.random() < 0.7 else set()),
                workload=f"w{i}",
                reads=reads,
            )
        )
    attachments = []
    endpoints = []
    for svc in services:
        if rng.random() < 0.45:
            att = m.ServiceAttachment(
                id=f"att-{svc.id}",
                service=svc.id,
                policy=_random_predicates(rng, f"ap-{svc.id}", principals),
            )
            attachments.append(att)
            host_seg = rng.choice(segments)
            base = host_seg.cidrs[0].split("/")[0].rsplit(".", 2)[0]
            endpoints.append(
                m.ConsumerEndpoint(
                    id=f"ep-{svc.id}",
                    segment=host_seg.id,
                    attachment=att.id,
                    address=f"{base}.200.{len(endpoints) + 1}",
                    policy=_random_predicates(rng, f"cp-{svc.id}", principals),
                )
            )

    firewall = []
    used: dict[str, set[int]] = {}
    scopes = [m.ORG_SCOPE] + [f"folder:{f}" for f in folders] + [f"segment:{x.id}" for x in segments]
    cidr_pool = [c for seg in segments for c in seg.cidrs] + ["10.0.0.0/8", m.ONPREM, m.INTERNET, m.ANY]
    drawn = rng.randint(0, 5)
    # with deep folders, one more rule in each folder, so that rules at several levels of one chain meet
    deep = [f"folder:{f}" for f in folders] if deep_folders else []
    for i in range(drawn + len(deep)):
        scope = rng.choice(scopes) if i < drawn else deep[i - drawn]
        prio = rng.randint(1, 2000)
        while prio in used.setdefault(scope, set()):
            prio += 1
        used[scope].add(prio)
        firewall.append(
            m.FirewallRule(
                id=f"fw{i}",
                scope=scope,
                priority=prio,
                action=rng.choice([m.RuleAction.ALLOW, m.RuleAction.DENY, m.RuleAction.DELEGATE]),
                src=(rng.choice(cidr_pool),),
                dst=(rng.choice(cidr_pool),),
                protocol=rng.choice(["any", "any", "tcp", "udp"]),
                ports=((1, 443),) if rng.random() < 0.25 else (),
            )
        )

    bindings = []
    for i in range(rng.randint(0, 4)):
        who = rng.choice([rng.choice(principals).id, "grp0", "grp1"])
        perms = tuple(
            m.Permission(service=rng.choice(services).id, method=rng.choice(METHODS + [m.ANY]))
            for _ in range(rng.randint(1, 2))
        )
        condition = None
        if rng.random() < 0.3:
            condition = m.TagCondition(key="pii", value=rng.choice(["true", "false"]))
        bindings.append(m.RBACBinding(id=f"rb{i}", principal=who, role=perms, condition=condition))

    perimeters = []
    if projects and rng.random() < 0.8:
        pool = list(projects)
        rng.shuffle(pool)
        split = rng.randint(1, len(pool))
        groups = [pool[:split]] + ([pool[split:]] if pool[split:] and rng.random() < 0.5 else [])
        node_map = {n.id: n for n in nodes}
        for gi, group in enumerate(groups):
            members = m.MemberSelector(projects=tuple(group))
            if rng.random() < 0.3:
                # folder- or tag-based selection, falling back when it would
                # select nothing or stray into another data-plane perimeter
                candidate = None
                parent = node_map[group[0]].parent
                if parent != "org" and rng.random() < 0.5:
                    candidate = m.MemberSelector(folders=(parent,))
                else:
                    tags = sorted(node_map[group[0]].tags)
                    if tags:
                        candidate = m.MemberSelector(tags=(tags[0],))
                if candidate is not None:
                    resolved = m.resolve_members(
                        m.AbstractPerimeter(id="probe", name="probe", members=candidate), node_map
                    )
                    taken = {p for g in groups[:gi] + groups[gi + 1 :] for p in g}
                    if resolved and not (resolved & taken):
                        members = candidate
                        group = sorted(resolved)
            perimeters.append(
                m.AbstractPerimeter(
                    id=f"perim{gi}",
                    name=f"perim{gi}",
                    members=members,
                    ingress=_random_perim_rules(rng, f"in{gi}", projects, services),
                    egress=_random_perim_rules(rng, f"eg{gi}", projects, services),
                    mechanisms=frozenset({m.Mechanism.DATA_PLANE_PERIMETER}),
                )
            )

    s = Scenario(
        name=f"random-{rng.randint(0, 10**9)}",
        nodes=tuple(nodes),
        segments=tuple(segments),
        edges=tuple(edges),
        services=tuple(services),
        attachments=tuple(attachments),
        endpoints=tuple(endpoints),
        idps=tuple(idps),
        principals=tuple(principals),
        trust_edges=tuple(trust_edges),
        firewall_rules=tuple(firewall),
        bindings=tuple(bindings),
        constraints=(),
        perimeters=tuple(perimeters),
        assets=tuple(assets),
    )
    problems = validate_scenario(s)
    assert not problems, f"generator produced an invalid scenario: {problems}"
    return s


def _random_predicates(rng: random.Random, prefix: str, principals) -> tuple[m.AccessPredicate, ...]:
    preds = []
    for k in range(rng.randint(0, 2)):
        preds.append(
            m.AccessPredicate(
                id=f"{prefix}-{k}",
                action=rng.choice([m.RuleAction.ALLOW, m.RuleAction.DENY]),
                identities=tuple({rng.choice(principals).id} if rng.random() < 0.5 else set()),
                cidrs=tuple({rng.choice(["10.0.0.0/8", m.ONPREM])} if rng.random() < 0.3 else set()),
                methods=tuple({rng.choice(METHODS)} if rng.random() < 0.5 else set()),
            )
        )
    return tuple(preds)


def _random_perim_rules(rng: random.Random, prefix: str, projects, services) -> tuple[m.PerimeterRule, ...]:
    rules = []
    for k in range(rng.randint(0, 2)):
        targets = []
        if rng.random() < 0.7:
            targets.append(
                m.PerimeterTarget(
                    project=rng.choice(list(projects) + [m.ANY]),
                    service=rng.choice([x.id for x in services] + [m.ANY, m.INTERNET]),
                    method=rng.choice(METHODS + [m.ANY]),
                )
            )
        rules.append(
            m.PerimeterRule(
                id=f"{prefix}-{k}",
                identities=tuple({rng.choice(["grp0", "grp1", m.ANY])} if rng.random() < 0.6 else set()),
                networks=tuple({rng.choice([m.ONPREM, m.INTERNET, "10.0.0.0/8"])} if rng.random() < 0.4 else set()),
                targets=tuple(targets),
            )
        )
    return tuple(rules)


def random_request(rng: random.Random, s: Scenario) -> m.FlowRequest:
    methods = method_universe(s) + ["admin"]
    targets = [x.id for x in s.services] + [x.id for x in s.endpoints] + [m.INTERNET]
    return m.FlowRequest(
        principal=rng.choice([x.id for x in s.principals]),
        source=rng.choice(source_loci(s)),
        target=rng.choice(targets),
        method=rng.choice(methods),
        payload_tags=frozenset({"pci:true"} if rng.random() < 0.2 else set()),
    )


# ---------------------------------------------------------------------------
# Restriction-only mutations
# ---------------------------------------------------------------------------


def _replace(s: Scenario, **kwargs) -> Scenario:
    import dataclasses

    return dataclasses.replace(s, **kwargs)


def mutate_add_deny_firewall(rng: random.Random, s: Scenario) -> Scenario | None:
    scopes = [m.ORG_SCOPE] + [
        f"folder:{n.id}" for n in s.nodes if n.kind is m.NodeKind.FOLDER
    ] + [f"segment:{x.id}" for x in s.segments]
    scope = rng.choice(scopes)
    taken = {r.priority for r in s.firewall_rules if r.scope == scope}
    prio = rng.randint(1, 3000)
    while prio in taken:
        prio += 1
    pool = [c for seg in s.segments for c in seg.cidrs] + [m.ONPREM, m.INTERNET, m.ANY]
    rule = m.FirewallRule(
        id=f"mut-deny-{prio}",
        scope=scope,
        priority=prio,
        action=m.RuleAction.DENY,
        src=(rng.choice(pool),),
        dst=(rng.choice(pool),),
    )
    return _replace(s, firewall_rules=s.firewall_rules + (rule,))


def mutate_remove_allow_firewall(rng: random.Random, s: Scenario) -> Scenario | None:
    allows = [r for r in s.firewall_rules if r.action is m.RuleAction.ALLOW]
    if not allows:
        return None
    victim = rng.choice(allows)
    return _replace(s, firewall_rules=tuple(r for r in s.firewall_rules if r.id != victim.id))


def mutate_add_deny_gateway_rule(rng: random.Random, s: Scenario) -> Scenario | None:
    gateways = [e for e in s.edges if e.kind is m.EdgeKind.GATEWAY_APPLIANCE]
    if not gateways:
        return None
    import dataclasses

    victim = rng.choice(gateways)
    deny = m.GatewayRule(
        id=f"mut-gw-deny-{victim.id}", src_zone=m.ANY, dst_zone=m.ANY, action=m.RuleAction.DENY
    )
    pos = rng.randint(0, len(victim.gateway_rules))
    new_rules = victim.gateway_rules[:pos] + (deny,) + victim.gateway_rules[pos:]
    edges = tuple(
        dataclasses.replace(e, gateway_rules=new_rules) if e.id == victim.id else e for e in s.edges
    )
    return _replace(s, edges=edges)


def mutate_remove_allow_gateway_rule(rng: random.Random, s: Scenario) -> Scenario | None:
    import dataclasses

    candidates = [
        (e, r)
        for e in s.edges
        for r in e.gateway_rules
        if r.action is m.RuleAction.ALLOW
    ]
    if not candidates:
        return None
    edge, rule = rng.choice(candidates)
    edges = tuple(
        dataclasses.replace(e, gateway_rules=tuple(r for r in e.gateway_rules if r.id != rule.id))
        if e.id == edge.id
        else e
        for e in s.edges
    )
    return _replace(s, edges=edges)


def mutate_remove_zt_binding(rng: random.Random, s: Scenario) -> Scenario | None:
    """Remove a binding that only ever grants on zero-trust services.

    Bindings on perimeter-trusting services act as conditional restrictions,
    so removing those is not restriction-only and is out of scope here.
    """
    services = {x.id: x for x in s.services}
    all_zt = all(x.auth_mode is m.AuthMode.ZERO_TRUST for x in s.services)

    def removable(b: m.RBACBinding) -> bool:
        for perm in b.role:
            if perm.service == m.ANY:
                if not all_zt:
                    return False
                continue
            svc = services.get(perm.service)
            if svc is None or svc.auth_mode is not m.AuthMode.ZERO_TRUST:
                return False
        return True

    candidates = [b for b in s.bindings if removable(b)]
    if not candidates:
        return None
    victim = rng.choice(candidates)
    return _replace(s, bindings=tuple(b for b in s.bindings if b.id != victim.id))


def mutate_remove_perimeter_rule(rng: random.Random, s: Scenario) -> Scenario | None:
    import dataclasses

    candidates = [
        (p, rule, direction)
        for p in s.perimeters
        for direction, rules in (("ingress", p.ingress), ("egress", p.egress))
        for rule in rules
    ]
    if not candidates:
        return None
    p, rule, direction = rng.choice(candidates)
    changed = dataclasses.replace(
        p, **{direction: tuple(r for r in getattr(p, direction) if r.id != rule.id)}
    )
    return _replace(s, perimeters=tuple(changed if x.id == p.id else x for x in s.perimeters))


def mutate_add_perimeter(rng: random.Random, s: Scenario) -> Scenario | None:
    covered = set()
    for p in s.perimeters:
        if m.Mechanism.DATA_PLANE_PERIMETER in p.mechanisms:
            covered |= m.resolve_members(p, {n.id: n for n in s.nodes})
    free = sorted(
        n.id for n in s.nodes if n.kind is m.NodeKind.PROJECT and n.id not in covered
    )
    if not free:
        return None
    chosen = rng.sample(free, rng.randint(1, len(free)))
    perim = m.AbstractPerimeter(
        id=f"mut-perim-{len(s.perimeters)}",
        name="mutant",
        members=m.MemberSelector(projects=tuple(chosen)),
        mechanisms=frozenset({m.Mechanism.DATA_PLANE_PERIMETER}),
    )
    return _replace(s, perimeters=s.perimeters + (perim,))


def mutate_add_deny_endpoint_predicate(rng: random.Random, s: Scenario) -> Scenario | None:
    import dataclasses

    if not s.endpoints and not s.attachments:
        return None
    deny = m.AccessPredicate(id="mut-ep-deny", action=m.RuleAction.DENY)
    if s.endpoints and (not s.attachments or rng.random() < 0.5):
        victim = rng.choice(s.endpoints)
        eps = tuple(
            dataclasses.replace(e, policy=(deny,) + e.policy) if e.id == victim.id else e
            for e in s.endpoints
        )
        return _replace(s, endpoints=eps)
    victim = rng.choice(s.attachments)
    atts = tuple(
        dataclasses.replace(a, policy=(deny,) + a.policy) if a.id == victim.id else a
        for a in s.attachments
    )
    return _replace(s, attachments=atts)


MUTATIONS = [
    mutate_add_deny_firewall,
    mutate_remove_allow_firewall,
    mutate_add_deny_gateway_rule,
    mutate_remove_allow_gateway_rule,
    mutate_remove_zt_binding,
    mutate_remove_perimeter_rule,
    mutate_add_perimeter,
    mutate_add_deny_endpoint_predicate,
]


def random_restriction(rng: random.Random, s: Scenario) -> tuple[str, Scenario] | None:
    """Apply one random applicable restriction-only mutation."""
    options = list(MUTATIONS)
    rng.shuffle(options)
    for mutation in options:
        mutated = mutation(rng, s)
        if mutated is not None:
            return mutation.__name__, mutated
    return None
