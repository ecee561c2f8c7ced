"""Best-practice checks over validated scenarios.

The catalog is closed: BP1-BP7 (perimeter best practices), P_MICROSEG
(perimeter sizing), FLAT_AD (directory identity needs flat L3), ZT_NO_RBAC
and ZT_NO_ADMISSION (zero-trust hygiene). Severity policy: postures that
break the stated intent of a perimeter are errors, style and hygiene items
are warnings, sizing guidance is info. Findings are deterministic and
order-canonical.
"""

from __future__ import annotations

from . import model as m
from . import route as route_mod
from .scenario import Scenario

SENSITIVE_TAG_KEYS = frozenset({"pii", "pci", "phi", "sensitive"})
DEFAULT_PERIMETER_THRESHOLD = 8

_FLAT_HOPS = frozenset(
    {route_mod.HopKind.PEERING, route_mod.HopKind.INTERCONNECT, route_mod.HopKind.VPN}
)

CITATIONS = {
    "BP1_SHARED_PROJECT": "perimeter best practice 1: project and network isolation per workload",
    "BP2_NO_XPERIM_RULES": "perimeter best practice 2: explicit rules for cross-perimeter requests",
    "BP3_HIERARCHY_MISMATCH": "perimeter best practice 3: align perimeters to the folder hierarchy",
    "BP4_DEP_CROSSING": "perimeter best practice 4: manage cross-perimeter dependencies",
    "BP5_NO_HIER_DENY": "perimeter best practice 5: hierarchical deny firewall backstop",
    "BP6_TAG_GRANT_GAP": "perimeter best practice 6: tag-conditioned access grants",
    "BP7_CONSTRAINT_GAP": "perimeter best practice 7: org-policy guardrails per perimeter",
    "P_MICROSEG": "prefer a smaller number of large perimeters",
    "FLAT_AD": "directory authentication requires flat L3 connectivity (no NAT)",
    "ZT_NO_RBAC": "zero trust requires explicit per-service authorization",
    "ZT_NO_ADMISSION": "zero trust deployments declare admission constraints",
}

LINT_CODES = tuple(sorted(CITATIONS))


@m.value_type
class Finding:
    code: str
    severity: str          # error | warn | info
    subject: str
    message: str
    citation: str


def _finding(code: str, severity: str, subject: str, message: str) -> Finding:
    return Finding(code=code, severity=severity, subject=subject, message=message, citation=CITATIONS[code])


def lint(s: Scenario) -> list[Finding]:
    """Run every lint check; returns findings sorted by (code, subject)."""
    idx = s.index()
    findings: list[Finding] = []
    memberships = idx.memberships()

    def workload_key(svc: m.ServiceSpec) -> str:
        return svc.workload or svc.id

    # BP1: workloads sharing a project or a network
    by_project: dict[str, set[str]] = {}
    for svc in s.services:
        by_project.setdefault(svc.project, set()).add(workload_key(svc))
    for project, workloads in sorted(by_project.items()):
        if len(workloads) > 1:
            findings.append(
                _finding(
                    "BP1_SHARED_PROJECT",
                    "warn",
                    project,
                    f"project hosts {len(workloads)} workloads ({', '.join(sorted(workloads))}); "
                    "deploy each workload in its own project",
                )
            )
    by_segment: dict[str, set[str]] = {}
    for svc in s.services:
        by_segment.setdefault(svc.segment, set()).add(svc.project)
    for segment, projects in sorted(by_segment.items()):
        if len(projects) > 1:
            findings.append(
                _finding(
                    "BP1_SHARED_PROJECT",
                    "warn",
                    segment,
                    f"segment is shared by services from {len(projects)} projects; "
                    "give each workload a non-routable network of its own",
                )
            )

    # BP2: routable cross-perimeter traffic without any declared crossing rules
    seg_by_project: dict[str, list[m.NetworkSegment]] = {}
    for seg in s.segments:
        seg_by_project.setdefault(seg.project, []).append(seg)

    def member_segments(perimeter_id: str) -> list[m.NetworkSegment]:
        return [
            seg
            for prj in sorted(memberships[perimeter_id])
            for seg in seg_by_project.get(prj, [])
        ]

    for p in s.perimeters:
        for q in s.perimeters:
            if p.id == q.id:
                continue
            governed_by_rules = (
                m.Mechanism.DATA_PLANE_PERIMETER in p.mechanisms and p.egress
            ) or (m.Mechanism.DATA_PLANE_PERIMETER in q.mechanisms and q.ingress)
            ungoverned_path = False
            for seg in member_segments(p.id):
                for svc in s.services:
                    if svc.project not in memberships[q.id]:
                        continue
                    path = route_mod.resolve_path(s, seg.id, svc.id)
                    if not isinstance(path, route_mod.RoutePath):
                        continue
                    gateways = path.gateway_hops()
                    gated = bool(gateways) and all(
                        idx.edges[h.edge].gateway_rules for h in gateways
                    )
                    if not gated and not governed_by_rules:
                        ungoverned_path = True
                        break
                if ungoverned_path:
                    break
            if ungoverned_path:
                findings.append(
                    _finding(
                        "BP2_NO_XPERIM_RULES",
                        "error",
                        f"{p.id}->{q.id}",
                        f"traffic can route from perimeter {p.id!r} to {q.id!r} with no "
                        "gateway rules and no perimeter ingress/egress rules",
                    )
                )

    # BP3: perimeter members scattered across unrelated folders
    for p in s.perimeters:
        members = sorted(memberships[p.id])
        if len(members) < 2:
            continue
        if not set.intersection(*(set(idx.folders_above(prj)) for prj in members)):
            findings.append(
                _finding(
                    "BP3_HIERARCHY_MISMATCH",
                    "warn",
                    p.id,
                    f"members {members} share no common folder; place a perimeter's "
                    "projects in the same folder hierarchy",
                )
            )

    # BP4: declared service dependency crossing perimeters without rules
    for svc in sorted(s.services, key=lambda x: x.id):
        src_perim = idx.data_plane_perimeter.get(svc.project)
        for dep_id in svc.depends_on:
            dep = idx.services[dep_id]
            dst_perim = idx.data_plane_perimeter.get(dep.project)
            if src_perim is dst_perim:  # one perimeter, or none, holds both
                continue

            def mentions(rule: m.PerimeterRule) -> bool:
                if not rule.targets:
                    return True
                return any(
                    t.service in (m.ANY, dep_id) and t.project in (m.ANY, dep.project)
                    for t in rule.targets
                )

            declared = (src_perim is not None and any(mentions(r) for r in src_perim.egress)) or (
                dst_perim is not None and any(mentions(r) for r in dst_perim.ingress)
            )
            if not declared:
                findings.append(
                    _finding(
                        "BP4_DEP_CROSSING",
                        "warn",
                        svc.id,
                        f"dependency on {dep_id!r} crosses a perimeter boundary without a "
                        "declared ingress/egress rule",
                    )
                )

    # BP5: no-internet posture claiming hierarchical-firewall backing without a deny
    for p in s.perimeters:
        if m.Mechanism.HIERARCHICAL_FIREWALL not in p.mechanisms:
            continue
        allows_internet = any(
            t.service == m.INTERNET for rule in p.egress for t in rule.targets
        ) or any(not rule.targets for rule in p.egress)
        if allows_internet:
            continue
        members = memberships[p.id]
        backed = False
        for fw in s.firewall_rules:
            if fw.action is not m.RuleAction.DENY:
                continue
            if not any(tok in (m.INTERNET, m.ANY) for tok in fw.dst):
                continue
            if fw.scope == m.ORG_SCOPE:
                backed = True
                break
            if fw.scope_kind == "folder" and all(fw.scope_id in idx.chains[prj] for prj in members):
                backed = True
                break
        if not backed:
            findings.append(
                _finding(
                    "BP5_NO_HIER_DENY",
                    "error",
                    p.id,
                    "perimeter has a no-internet posture and claims hierarchical-firewall "
                    "backing, but no org/folder deny rule blocks internet egress",
                )
            )

    # BP6: sensitive asset reachable through an unconditioned grant
    sensitive_assets = {
        a.id
        for a in s.assets
        if any(m.tag_key(t) in SENSITIVE_TAG_KEYS and t.endswith(":true") for t in a.tags)
    }
    for b in sorted(s.bindings, key=lambda x: x.id):
        if b.condition is not None:
            continue
        for perm in b.role:
            svc = idx.services.get(perm.service)
            if svc is None:
                continue
            touched = sensitive_assets & set(list(svc.reads) + list(svc.writes))
            if touched:
                findings.append(
                    _finding(
                        "BP6_TAG_GRANT_GAP",
                        "warn",
                        b.id,
                        f"unconditioned grant on {svc.id!r} which serves sensitive "
                        f"asset(s) {sorted(touched)}; add a tag condition",
                    )
                )
                break

    # BP7: internet-exposed perimeter without the matching org constraint
    for p in s.perimeters:
        for seg in member_segments(p.id):
            if not any(m.INTERNET in e.ends and seg.id in e.ends for e in s.edges):
                continue
            chain = idx.chains[seg.project]
            constrained = any(
                c.kind is m.ConstraintKind.NO_INTERNET_EGRESS and c.scope in chain
                for c in s.constraints
            )
            if not constrained:
                findings.append(
                    _finding(
                        "BP7_CONSTRAINT_GAP",
                        "warn",
                        seg.id,
                        f"segment in perimeter {p.id!r} has an internet edge but no "
                        "no-internet-egress constraint governs its project",
                    )
                )

    # P_MICROSEG: more perimeters than the sizing guidance recommends
    if len(s.perimeters) > DEFAULT_PERIMETER_THRESHOLD:
        findings.append(
            _finding(
                "P_MICROSEG",
                "info",
                s.name,
                f"{len(s.perimeters)} perimeters exceed the threshold of "
                f"{DEFAULT_PERIMETER_THRESHOLD}; prefer fewer, larger perimeters",
            )
        )

    # FLAT_AD: directory identity without flat L3 connectivity
    def flat(a: str, b: str) -> bool:
        if a == b:
            return True
        hops = route_mod._locus_path(s, a, b)
        return hops is not None and all(h.kind in _FLAT_HOPS for h in hops)

    for edge in s.trust_edges:
        src_idp, dst_idp = idx.idps[edge.src], idx.idps[edge.dst]
        if src_idp.kind is m.IdpKind.DIRECTORY and dst_idp.kind is m.IdpKind.DIRECTORY:
            if src_idp.segment and dst_idp.segment and not flat(src_idp.segment, dst_idp.segment):
                findings.append(
                    _finding(
                        "FLAT_AD",
                        "warn",
                        edge.id,
                        f"directory trust between {edge.src!r} and {edge.dst!r} has no "
                        "flat route between their networks",
                    )
                )
    for svc in sorted(s.services, key=lambda x: x.id):
        if svc.idp is None:
            continue
        idp = idx.idps[svc.idp]
        if idp.kind is not m.IdpKind.DIRECTORY or idp.segment is None:
            continue
        if not flat(svc.segment, idp.segment):
            findings.append(
                _finding(
                    "FLAT_AD",
                    "warn",
                    svc.id,
                    f"service authenticates against directory idp {idp.id!r} without a "
                    "flat route to its network",
                )
            )

    # ZT_NO_RBAC: zero-trust service no binding ever grants (a permission
    # names one service; RBAC reads no wildcard service)
    for svc in sorted(s.services, key=lambda x: x.id):
        if svc.auth_mode is not m.AuthMode.ZERO_TRUST:
            continue
        if svc.id not in idx.bindings_for_service:
            findings.append(
                _finding(
                    "ZT_NO_RBAC",
                    "warn",
                    svc.id,
                    "zero-trust service has no RBAC binding; every request will be denied",
                )
            )

    # ZT_NO_ADMISSION: zero-trust scenario without declared admission constraints
    if any(svc.auth_mode is m.AuthMode.ZERO_TRUST for svc in s.services):
        if not any(c.kind is m.ConstraintKind.RESTRICT_SERVICE_KINDS for c in s.constraints):
            findings.append(
                _finding(
                    "ZT_NO_ADMISSION",
                    "warn",
                    s.name,
                    "scenario runs zero-trust services but declares no "
                    "restrict-service-kinds admission constraint",
                )
            )

    return sorted(findings, key=lambda f: (f.code, f.subject, f.message))


def error_findings(findings: list[Finding]) -> list[Finding]:
    return [f for f in findings if f.severity == "error"]
