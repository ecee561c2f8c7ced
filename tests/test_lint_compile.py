"""Lint catalog coverage and perimeter compilation."""

import dataclasses

import pytest

from cloudperim import (
    TEMPLATE_NAMES,
    builtin_scenario,
    build_compiled_scenario,
    compile_perimeter,
    validate_scenario,
    verify_compilation,
)
from cloudperim import model as m
from cloudperim.compiler import CompileMechanism
from cloudperim.errors import UnknownPerimeterError, UnresolvableMemberError
from cloudperim.lint import LINT_CODES, error_findings, lint
from cloudperim.scenario import Scenario


def codes(findings):
    return {f.code for f in findings}


def build(
    *,
    nodes=(),
    segments=(),
    edges=(),
    services=(),
    attachments=(),
    endpoints=(),
    idps=(),
    principals=(),
    trust_edges=(),
    firewall=(),
    bindings=(),
    constraints=(),
    perimeters=(),
    assets=(),
):
    s = Scenario(
        name="fixture",
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
        constraints=tuple(constraints),
        perimeters=tuple(perimeters),
        assets=tuple(assets),
    )
    assert validate_scenario(s) == [], "lint fixtures must be structurally valid"
    return s


def node(id, kind, parent=None, tags=()):
    return m.ResourceNode(id=id, kind=m.NodeKind(kind), parent=parent, tags=frozenset(tags))


def segment(id, project, cidr="10.1.0.0/16", routable=True):
    return m.NetworkSegment(
        id=id,
        project=project,
        routability=m.Routability.ROUTABLE if routable else m.Routability.NON_ROUTABLE,
        cidrs=(cidr,),
    )


def service(id, project, seg, *, workload=None, zero_trust=False, idp=None, reads=(), run_as=()):
    return m.ServiceSpec(
        id=id,
        project=project,
        segment=seg,
        layer=m.ServiceLayer.L7,
        compute=m.ComputeKind.VM,
        auth_mode=m.AuthMode.ZERO_TRUST if zero_trust else m.AuthMode.PERIMETER_TRUSTING,
        fqdn=f"{id}.internal",
        workload=workload,
        idp=idp,
        reads=tuple(reads),
        run_as=tuple(run_as),
    )


def perimeter(id, projects, *, mechanisms=(m.Mechanism.DATA_PLANE_PERIMETER,), ingress=(), egress=()):
    return m.AbstractPerimeter(
        id=id,
        name=id,
        members=m.MemberSelector(projects=tuple(projects)),
        ingress=tuple(ingress),
        egress=tuple(egress),
        mechanisms=frozenset(mechanisms),
    )


BASE_NODES = (
    node("org", "organization"),
    node("f1", "folder", "org"),
    node("f2", "folder", "org"),
    node("p1", "project", "f1"),
    node("p2", "project", "f2"),
)


# ---------------------------------------------------------------------------
# One trigger and one clean fixture per catalog code
# ---------------------------------------------------------------------------


def test_catalog_is_closed_and_complete():
    assert len(LINT_CODES) == 11
    assert set(LINT_CODES) == {
        "BP1_SHARED_PROJECT",
        "BP2_NO_XPERIM_RULES",
        "BP3_HIERARCHY_MISMATCH",
        "BP4_DEP_CROSSING",
        "BP5_NO_HIER_DENY",
        "BP6_TAG_GRANT_GAP",
        "BP7_CONSTRAINT_GAP",
        "P_MICROSEG",
        "FLAT_AD",
        "ZT_NO_RBAC",
        "ZT_NO_ADMISSION",
    }


def test_bp1_shared_project():
    trigger = build(
        nodes=BASE_NODES,
        segments=(segment("n1", "p1"),),
        services=(
            service("s1", "p1", "n1", workload="w1"),
            service("s2", "p1", "n1", workload="w2"),
        ),
    )
    assert "BP1_SHARED_PROJECT" in codes(lint(trigger))
    clean = build(
        nodes=BASE_NODES,
        segments=(segment("n1", "p1"), segment("n2", "p2", "10.2.0.0/16")),
        services=(
            service("s1", "p1", "n1", workload="w1"),
            service("s2", "p2", "n2", workload="w2"),
        ),
    )
    assert "BP1_SHARED_PROJECT" not in codes(lint(clean))


def _bp2_base(egress):
    return build(
        nodes=BASE_NODES,
        segments=(segment("n1", "p1"), segment("n2", "p2", "10.2.0.0/16")),
        edges=(m.ConnectivityEdge(id="peer", kind=m.EdgeKind.PEERING, ends=("n1", "n2")),),
        services=(service("s2", "p2", "n2"),),
        perimeters=(
            perimeter("P", ["p1"], egress=egress),
            perimeter("Q", ["p2"]),
        ),
    )


def test_bp2_no_cross_perimeter_rules():
    trigger = _bp2_base(egress=())
    assert "BP2_NO_XPERIM_RULES" in codes(lint(trigger))
    clean = _bp2_base(egress=(m.PerimeterRule(id="eg", targets=()),))
    assert "BP2_NO_XPERIM_RULES" not in codes(lint(clean))


def test_bp3_hierarchy_mismatch():
    trigger = build(nodes=BASE_NODES, perimeters=(perimeter("P", ["p1", "p2"]),))
    assert "BP3_HIERARCHY_MISMATCH" in codes(lint(trigger))
    together = BASE_NODES[:4] + (node("p2", "project", "f1"),)
    clean = build(nodes=together, perimeters=(perimeter("P", ["p1", "p2"]),))
    assert "BP3_HIERARCHY_MISMATCH" not in codes(lint(clean))


def _bp4_base(egress):
    return build(
        nodes=BASE_NODES,
        segments=(segment("n1", "p1"), segment("n2", "p2", "10.2.0.0/16")),
        services=(
            service("s1", "p1", "n1", workload="w1") and dataclasses.replace(
                service("s1", "p1", "n1", workload="w1"), depends_on=("s2",)
            ),
            service("s2", "p2", "n2", workload="w2"),
        ),
        perimeters=(perimeter("P", ["p1"], egress=egress), perimeter("Q", ["p2"])),
    )


def test_bp4_dependency_crossing():
    trigger = _bp4_base(egress=())
    assert "BP4_DEP_CROSSING" in codes(lint(trigger))
    declared = _bp4_base(
        egress=(m.PerimeterRule(id="eg", targets=(m.PerimeterTarget(project="p2", service="s2"),)),)
    )
    assert "BP4_DEP_CROSSING" not in codes(lint(declared))


def _bp5_base(firewall):
    return build(
        nodes=BASE_NODES,
        segments=(segment("n1", "p1"),),
        services=(service("s1", "p1", "n1"),),
        firewall=firewall,
        perimeters=(
            perimeter(
                "P",
                ["p1"],
                mechanisms=(m.Mechanism.DATA_PLANE_PERIMETER, m.Mechanism.HIERARCHICAL_FIREWALL),
            ),
        ),
    )


def test_bp5_no_hierarchical_deny():
    trigger = _bp5_base(firewall=())
    assert "BP5_NO_HIER_DENY" in codes(lint(trigger))
    backed = _bp5_base(
        firewall=(
            m.FirewallRule(
                id="deny-inet",
                scope="folder:f1",
                priority=10,
                action=m.RuleAction.DENY,
                dst=(m.INTERNET,),
            ),
        )
    )
    assert "BP5_NO_HIER_DENY" not in codes(lint(backed))


def _bp6_base(condition):
    return build(
        nodes=BASE_NODES + (node("res1", "resource", "p1"),),
        segments=(segment("n1", "p1"),),
        services=(service("s1", "p1", "n1", reads=("a1",)),),
        assets=(m.DataAsset(id="a1", resource="res1", tags=frozenset({"pii:true"})),),
        bindings=(
            m.RBACBinding(
                id="rb1",
                principal="grp:x",
                role=(m.Permission(service="s1", method="read"),),
                condition=condition,
            ),
        ),
    )


def test_bp6_unconditioned_grant_on_sensitive_asset():
    trigger = _bp6_base(condition=None)
    assert "BP6_TAG_GRANT_GAP" in codes(lint(trigger))
    clean = _bp6_base(condition=m.TagCondition(key="pii", value="true"))
    assert "BP6_TAG_GRANT_GAP" not in codes(lint(clean))


def _bp7_base(constraints):
    return build(
        nodes=BASE_NODES,
        segments=(segment("n1", "p1"),),
        edges=(
            m.ConnectivityEdge(
                id="nat1",
                kind=m.EdgeKind.NAT_GATEWAY,
                ends=("n1", m.INTERNET),
                direction=m.EdgeDirection.OUTBOUND_ONLY,
            ),
        ),
        services=(service("s1", "p1", "n1"),),
        constraints=constraints,
        perimeters=(perimeter("P", ["p1"]),),
    )


def test_bp7_constraint_gap():
    trigger = _bp7_base(constraints=())
    assert "BP7_CONSTRAINT_GAP" in codes(lint(trigger))
    governed = _bp7_base(
        constraints=(
            m.OrgConstraint(
                id="oc1",
                kind=m.ConstraintKind.NO_INTERNET_EGRESS,
                scope="f1",
                exception_tag="egress:ok",
            ),
        )
    )
    assert "BP7_CONSTRAINT_GAP" not in codes(lint(governed))


def _microseg_base(n):
    projects = tuple(node(f"mp{i}", "project", "org") for i in range(n))
    return build(
        nodes=(node("org", "organization"),) + projects,
        perimeters=tuple(perimeter(f"perim{i}", [f"mp{i}"]) for i in range(n)),
    )


def test_p_microseg_threshold():
    assert "P_MICROSEG" in codes(lint(_microseg_base(9)))
    assert "P_MICROSEG" not in codes(lint(_microseg_base(8)))


def _flat_ad_base(edges):
    return build(
        nodes=BASE_NODES,
        segments=(segment("n1", "p1"), segment("ad-net", "p2", "10.3.0.0/24")),
        edges=edges,
        services=(service("s1", "p1", "n1", idp="idp-ad"),),
        idps=(m.IdentityProvider(id="idp-ad", kind=m.IdpKind.DIRECTORY, segment="ad-net"),),
    )


def test_flat_ad():
    trigger = _flat_ad_base(edges=())
    assert "FLAT_AD" in codes(lint(trigger))
    peered = _flat_ad_base(
        edges=(m.ConnectivityEdge(id="peer-ad", kind=m.EdgeKind.PEERING, ends=("n1", "ad-net")),)
    )
    assert "FLAT_AD" not in codes(lint(peered))


def _zt_base(bindings, constraints):
    return build(
        nodes=BASE_NODES,
        segments=(segment("n1", "p1"),),
        services=(service("s1", "p1", "n1", zero_trust=True, idp="idp"),),
        idps=(m.IdentityProvider(id="idp", kind=m.IdpKind.CLOUD_NATIVE),),
        bindings=bindings,
        constraints=constraints,
    )


def test_zt_no_rbac():
    admission = (m.OrgConstraint(id="oc", kind=m.ConstraintKind.RESTRICT_SERVICE_KINDS, scope="org"),)
    trigger = _zt_base(bindings=(), constraints=admission)
    assert "ZT_NO_RBAC" in codes(lint(trigger))
    bound = _zt_base(
        bindings=(m.RBACBinding(id="rb", principal="x", role=(m.Permission(service="s1"),)),),
        constraints=admission,
    )
    assert "ZT_NO_RBAC" not in codes(lint(bound))
    # RBAC matches a permission's service exactly, so a wildcard grants nothing
    wildcard = _zt_base(
        bindings=(m.RBACBinding(id="rb", principal="x", role=(m.Permission(service=m.ANY),)),),
        constraints=admission,
    )
    assert "ZT_NO_RBAC" in codes(lint(wildcard))


def test_zt_no_rbac_agrees_with_rbac_on_a_wildcard_service():
    from cloudperim import evaluate_flow
    from cloudperim.analysis import default_request_space

    s = builtin_scenario("fig10-zero-trust")
    wildcard = m.RBACBinding(id="rb-any", principal="sa:d", role=(m.Permission(service=m.ANY, method=m.ANY),))
    s = dataclasses.replace(
        s, bindings=tuple(b for b in s.bindings if all(p.service != "svc-a" for p in b.role)) + (wildcard,)
    )
    assert validate_scenario(s) == []
    requests = default_request_space(s, targets=["svc-a"])
    decisions = [evaluate_flow(s, r)[0] for r in requests]
    assert requests and not any(d.allowed for d in decisions)
    assert {f.subject for f in lint(s) if f.code == "ZT_NO_RBAC"} == {"svc-a"}


def test_zt_no_admission():
    binding = (m.RBACBinding(id="rb", principal="x", role=(m.Permission(service="s1"),)),)
    trigger = _zt_base(bindings=binding, constraints=())
    assert "ZT_NO_ADMISSION" in codes(lint(trigger))
    constrained = _zt_base(
        bindings=binding,
        constraints=(m.OrgConstraint(id="oc", kind=m.ConstraintKind.RESTRICT_SERVICE_KINDS, scope="org"),),
    )
    assert "ZT_NO_ADMISSION" not in codes(lint(constrained))


@pytest.mark.parametrize("name", TEMPLATE_NAMES)
def test_templates_have_no_error_findings(name):
    assert error_findings(lint(builtin_scenario(name))) == []


def test_lint_is_deterministic():
    s = builtin_scenario("fig5-vm")
    assert lint(s) == lint(dataclasses.replace(s))


def test_fig4_mutated_to_claim_hier_firewall_fires_bp5():
    s = builtin_scenario("fig4-landing-point")
    perims = tuple(
        dataclasses.replace(p, mechanisms=p.mechanisms | {m.Mechanism.HIERARCHICAL_FIREWALL})
        if p.id == "yellow"
        else p
        for p in s.perimeters
    )
    assert "BP5_NO_HIER_DENY" in codes(lint(dataclasses.replace(s, perimeters=perims)))


def test_twelve_single_service_perimeters_fire_microseg():
    assert "P_MICROSEG" in codes(lint(_microseg_base(12)))


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------


def test_unknown_perimeter():
    with pytest.raises(UnknownPerimeterError):
        compile_perimeter(builtin_scenario("fig4-landing-point"), "purple", "hybrid")


def test_hybrid_fig4_yellow_emits_perimeter_and_folder_deny():
    s = builtin_scenario("fig4-landing-point")
    compiled = compile_perimeter(s, "yellow", "hybrid")
    assert compiled.perimeter is not None
    assert compiled.perimeter.members.projects == ("prj-yellow",)
    assert compiled.perimeter.ingress == s.index().perimeters["yellow"].ingress
    backstops = [r for r in compiled.firewall_rules if r.action is m.RuleAction.DENY]
    assert len(backstops) == 1
    assert backstops[0].scope == "folder:f-yellow"
    assert m.INTERNET in backstops[0].dst


@pytest.mark.parametrize("name", TEMPLATE_NAMES)
def test_hybrid_compilation_verifies_zero_divergence(name):
    s = builtin_scenario(name)
    for p in s.perimeters:
        report = verify_compilation(s, compile_perimeter(s, p.id, "hybrid"))
        assert report.equivalent, f"{name}/{p.id}: {report.divergences[:3]}"


def test_hybrid_compiled_scenario_stays_valid():
    s = builtin_scenario("fig4-landing-point")
    compiled = compile_perimeter(s, "yellow", "hybrid")
    assert validate_scenario(build_compiled_scenario(s, compiled)) == []


def test_lift_shift_serverless_without_connector_unresolvable():
    s = build(
        nodes=BASE_NODES,
        segments=(segment("fn-net", "p1", "100.64.0.0/24", routable=False),),
        services=(
            dataclasses.replace(
                service("fn", "p1", "fn-net"), compute=m.ComputeKind.SERVERLESS
            ),
        ),
        perimeters=(perimeter("P", ["p1"]),),
    )
    with pytest.raises(UnresolvableMemberError):
        compile_perimeter(s, "P", "lift-shift")
    # with a connector the members resolve
    bridged = dataclasses.replace(
        s,
        segments=s.segments + (segment("vpc", "p2", "10.5.0.0/16"),),
        edges=(m.ConnectivityEdge(id="conn", kind=m.EdgeKind.VPC_CONNECTOR, ends=("vpc", "fn-net")),),
    )
    compiled = compile_perimeter(bridged, "P", "lift-shift")
    assert compiled.firewall_rules


def test_lift_shift_expands_members_to_cidrs():
    s = builtin_scenario("fig4-landing-point")
    compiled = compile_perimeter(s, "yellow", "lift-shift")
    intra = next(r for r in compiled.firewall_rules if r.id.endswith("ls-intra"))
    assert intra.src == ("172.16.0.0/16",) and intra.dst == ("172.16.0.0/16",)
    denies = [r for r in compiled.firewall_rules if r.action is m.RuleAction.DENY]
    assert len(denies) == 2  # egress and ingress default denies
    assert compiled.divergence_notes


def test_lift_shift_device_condition_reports_expected_divergence():
    s = builtin_scenario("fig4-landing-point")
    report = verify_compilation(s, compile_perimeter(s, "yellow", "lift-shift"))
    assert len(report.divergences) >= 1
    assert all(d.expected_class.startswith("EXPECTED") for d in report.divergences)
    # the canonical witness: the unmanaged-device principal passes 5-tuples
    witnesses = [
        d
        for d in report.divergences
        if d.request.principal == "user:intern" and d.request.target == "pay-api"
    ]
    assert witnesses and witnesses[0].expected_class == "EXPECTED_FIDELITY"


def test_zero_trust_three_service_group_emits_six_grants():
    nodes = BASE_NODES + (node("p3", "project", "f1"),)
    idps = (m.IdentityProvider(id="idp", kind=m.IdpKind.CLOUD_NATIVE),)
    principals = tuple(
        m.Principal(id=f"sa{i}", kind=m.PrincipalKind.SERVICE_ACCOUNT, idp="idp") for i in (1, 2, 3)
    )
    s = build(
        nodes=nodes,
        segments=(segment("n1", "p1"),),
        idps=idps,
        principals=principals,
        services=tuple(
            dataclasses.replace(
                service(f"s{i}", f"p{i}", "n1", zero_trust=True, idp="idp"), run_as=(f"sa{i}",)
            )
            for i in (1, 2, 3)
        ),
        constraints=(m.OrgConstraint(id="oc", kind=m.ConstraintKind.RESTRICT_SERVICE_KINDS, scope="org"),),
        bindings=(m.RBACBinding(id="rb0", principal="sa1", role=(m.Permission(service="s2"),)),),
        perimeters=(perimeter("P", ["p1", "p2", "p3"]),),
    )
    compiled = compile_perimeter(s, "P", "zero-trust")
    assert len(compiled.bindings) == 6  # 3 services x 2 directions
    pairs = {(b.principal, b.role[0].service) for b in compiled.bindings}
    assert pairs == {
        ("sa1", "s2"), ("sa1", "s3"), ("sa2", "s1"), ("sa2", "s3"), ("sa3", "s1"), ("sa3", "s2"),
    }


def test_empty_perimeter_zero_trust_compiles_to_empty_set():
    s = build(
        nodes=BASE_NODES,
        segments=(segment("n1", "p1"),),
        services=(service("s1", "p1", "n1"),),
        perimeters=(perimeter("Q", ["p2"]),),  # p2 owns nothing
        idps=(m.IdentityProvider(id="idp", kind=m.IdpKind.CLOUD_NATIVE),),
        principals=(m.Principal(id="pr", kind=m.PrincipalKind.SERVICE_ACCOUNT, idp="idp"),),
    )
    compiled = compile_perimeter(s, "Q", "zero-trust")
    assert compiled.bindings == () and compiled.firewall_rules == ()
    report = verify_compilation(s, compiled)
    assert report.equivalent


def test_compile_mechanism_accepts_strings():
    s = builtin_scenario("fig4-landing-point")
    assert compile_perimeter(s, "green", "hybrid").mechanism is CompileMechanism.HYBRID


@pytest.mark.parametrize("name", TEMPLATE_NAMES)
@pytest.mark.parametrize("mechanism", ["lift-shift", "hybrid", "zero-trust"])
def test_divergence_notes_accompany_every_divergent_compilation(name, mechanism):
    s = builtin_scenario(name)
    for p in s.perimeters:
        try:
            compiled = compile_perimeter(s, p.id, mechanism)
        except UnresolvableMemberError:
            continue
        report = verify_compilation(s, compiled)
        if report.divergences:
            assert compiled.divergence_notes, (name, p.id, mechanism)
