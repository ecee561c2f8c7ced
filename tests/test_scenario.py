"""Scenario parsing, validation, serialization, and the built-in templates."""

import dataclasses
import typing

import pytest
import yaml

from cloudperim import (
    TEMPLATE_NAMES,
    builtin_scenario,
    evaluate_flow,
    parse_scenario,
    serialize_scenario,
    template_text,
    validate_scenario,
)
from cloudperim import model as m
from cloudperim import scenario as scenario_module
from cloudperim.errors import InvalidScenarioError, ScenarioParseError, UnknownTemplateError
from cloudperim.scenario import ParseIssue, Scenario, Violation

MINIMAL = """
name: minimal
hierarchy:
  - {id: org, kind: organization}
  - {id: prj, kind: project, parent: org}
networks:
  segments:
    - {id: net, project: prj, routability: routable, cidrs: [10.0.0.0/16]}
"""


def test_parse_minimal_document():
    s = parse_scenario(MINIMAL)
    assert s.name == "minimal"
    assert validate_scenario(s) == []


def test_parse_collects_all_errors_not_fail_fast():
    doc = """
name: broken
hierarchy:
  - {id: org, kind: organization}
  - {id: org, kind: project, parent: org}
  - {id: prj, kind: project, parent: ghost}
networks:
  segments:
    - {id: net, project: prj, routability: sideways, cidrs: [not-a-cidr]}
"""
    with pytest.raises(ScenarioParseError) as exc:
        parse_scenario(doc)
    codes = {i.code for i in exc.value.issues}
    assert {"DUP_ID", "UNKNOWN_REF", "BAD_VALUE"} <= codes
    assert len(exc.value.issues) >= 4


def test_parse_syntax_error_carries_location():
    with pytest.raises(ScenarioParseError) as exc:
        parse_scenario("name: [unclosed")
    assert exc.value.issues[0].code == "SYNTAX"


def test_endpoint_targeting_missing_attachment_is_unknown_reference():
    doc = MINIMAL + """
services:
  endpoints:
    - {id: ep, segment: net, attachment: missing, address: 10.0.0.9}
"""
    with pytest.raises(ScenarioParseError) as exc:
        parse_scenario(doc)
    assert any(i.code == "UNKNOWN_REF" and "missing" in i.message for i in exc.value.issues)


def test_unknown_section_rejected():
    with pytest.raises(ScenarioParseError) as exc:
        parse_scenario(MINIMAL + "\nwormholes: []\n")
    assert any("wormholes" in i.message for i in exc.value.issues)


def test_fig1_text_parses_identical_to_builtin():
    assert parse_scenario(template_text("fig1-lift-shift")) == builtin_scenario("fig1-lift-shift")


def test_cidr_overlap_violation():
    doc = """
name: overlap
hierarchy:
  - {id: org, kind: organization}
  - {id: prj, kind: project, parent: org}
networks:
  segments:
    - {id: a, project: prj, routability: routable, cidrs: [10.0.0.0/16]}
    - {id: b, project: prj, routability: routable, cidrs: [10.0.128.0/17]}
"""
    violations = validate_scenario(parse_scenario(doc))
    assert any(v.code == "CIDR_OVERLAP" for v in violations)


def test_non_routable_may_reuse_space_but_not_internally():
    doc = """
name: reuse
hierarchy:
  - {id: org, kind: organization}
  - {id: prj, kind: project, parent: org}
networks:
  segments:
    - {id: a, project: prj, routability: non-routable, cidrs: [172.16.0.0/16]}
    - {id: b, project: prj, routability: non-routable, cidrs: [172.16.0.0/16]}
    - {id: c, project: prj, routability: non-routable, cidrs: [172.17.0.0/16, 172.17.0.0/24]}
"""
    violations = validate_scenario(parse_scenario(doc))
    assert not any(v.code == "CIDR_OVERLAP" for v in violations)
    assert any(v.code == "CIDR_INTERNAL" and v.subject == "c" for v in violations)


def test_perim_overlap_violation_via_mutated_fig4():
    s = builtin_scenario("fig4-landing-point")
    grabby = m.AbstractPerimeter(
        id="grabby",
        name="grabby",
        members=m.MemberSelector(projects=("prj-yellow",)),
        mechanisms=frozenset({m.Mechanism.DATA_PLANE_PERIMETER}),
    )
    mutated = dataclasses.replace(s, perimeters=s.perimeters + (grabby,))
    violations = validate_scenario(mutated)
    assert any(v.code == "PERIM_OVERLAP" for v in violations)
    # oracle: the overlap is exactly the intersection of resolved member sets
    nodes = {n.id: n for n in mutated.nodes}
    yellow = next(p for p in mutated.perimeters if p.id == "yellow")
    assert m.resolve_members(yellow, nodes) & m.resolve_members(grabby, nodes)


def test_second_organization_rejected():
    doc = MINIMAL + """
  - {id: org2, kind: organization}
""".replace("\n  -", "\n")  # appending to hierarchy needs correct indent; build explicitly
    doc = """
name: twoorgs
hierarchy:
  - {id: org, kind: organization}
  - {id: org2, kind: organization}
"""
    violations = validate_scenario(parse_scenario(doc))
    assert any(v.code == "ORG_COUNT" for v in violations)


def test_duplicate_priority_rejected():
    doc = MINIMAL + """
policies:
  firewall:
    - {id: r1, scope: organization, priority: 5, action: allow}
    - {id: r2, scope: organization, priority: 5, action: deny}
"""
    violations = validate_scenario(parse_scenario(doc))
    assert any(v.code == "PRIORITY_DUP" for v in violations)


def test_endpoint_address_outside_segment_rejected():
    doc = MINIMAL + """
services:
  specs:
    - {id: svc, project: prj, segment: net, layer: l4, address: 10.0.1.1, compute: vm, auth_mode: perimeter-trusting}
  attachments:
    - {id: att, service: svc}
  endpoints:
    - {id: ep, segment: net, attachment: att, address: 192.168.1.1}
"""
    violations = validate_scenario(parse_scenario(doc))
    assert any(v.code == "ENDPOINT_ADDR" for v in violations)


@pytest.mark.parametrize("name", TEMPLATE_NAMES)
def test_template_validates_clean(name):
    assert validate_scenario(builtin_scenario(name)) == []


@pytest.mark.parametrize("name", TEMPLATE_NAMES)
def test_template_round_trips(name):
    s = builtin_scenario(name)
    assert parse_scenario(serialize_scenario(s)) == s


def test_round_trip_preserves_minimal():
    s = parse_scenario(MINIMAL)
    assert parse_scenario(serialize_scenario(s)) == s


@pytest.mark.parametrize("seed", range(10))
def test_round_trip_random_scenarios(seed):
    import random
    import sys
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).parent))
    from genrandom import random_scenario

    s = random_scenario(random.Random(60000 + seed))
    assert parse_scenario(serialize_scenario(s)) == s


def test_serialization_is_byte_deterministic():
    s = builtin_scenario("fig11-combined")
    assert serialize_scenario(s) == serialize_scenario(dataclasses.replace(s))


def test_scenario_is_frozen_after_index():
    # the index holds adjacency, route trees and rule groups derived from the
    # fields; an assignment would leave them describing another scenario
    s = parse_scenario(MINIMAL)
    s.index()
    with pytest.raises(dataclasses.FrozenInstanceError):
        s.edges = ()


def test_builtin_scenario_names():
    assert len(TEMPLATE_NAMES) == 10
    with pytest.raises(UnknownTemplateError):
        builtin_scenario("fig2-identity")


def test_fig1_template_content():
    s = builtin_scenario("fig1-lift-shift")
    gw = next(e for e in s.edges if e.id == "gw-green-yellow")
    actions = {(r.src_zone, r.dst_zone): r.action for r in gw.gateway_rules}
    assert actions[("green", "yellow")] is m.RuleAction.ALLOW
    assert actions[("yellow", "green")] is m.RuleAction.DENY


def test_fig10_template_content():
    s = builtin_scenario("fig10-zero-trust")
    zt = [x for x in s.services if x.auth_mode is m.AuthMode.ZERO_TRUST]
    assert len(zt) >= 4
    assert not any(e.kind is m.EdgeKind.GATEWAY_APPLIANCE for e in s.edges)
    assert len({x.segment for x in s.services}) == 1  # flat
    assert s.bindings  # RBAC present


def test_fig5_template_content():
    s = builtin_scenario("fig5-vm")
    ordering = [x for x in s.services if x.workload == "ordering"]
    assert {"txn", "inventory"} <= {x.id for x in ordering}
    assert any(e.kind is m.EdgeKind.NAT_GATEWAY for e in s.edges)


# ---------------------------------------------------------------------------
# Malformed addresses and hierarchy references are reported, never raised
# ---------------------------------------------------------------------------


def _fig4_with(old, new):
    text = template_text("fig4-landing-point")
    assert old in text
    return text.replace(old, new)


def _replace_entity(s, section, entity_id, **changes):
    items = tuple(
        dataclasses.replace(x, **changes) if x.id == entity_id else x for x in getattr(s, section)
    )
    return dataclasses.replace(s, **{section: items})


def test_service_address_with_non_integer_port_rejected():
    with pytest.raises(ScenarioParseError) as exc:
        parse_scenario(_fig4_with("172.16.1.10:5432", "172.16.1.10:http"))
    assert [i.code for i in exc.value.issues] == ["BAD_VALUE"]
    assert "172.16.1.10:http" in exc.value.issues[0].message
    # a scenario built in code is reported by the validator instead
    s = _replace_entity(builtin_scenario("fig4-landing-point"), "services", "sql-db",
                        address="172.16.1.10:http")
    assert [(v.code, v.subject) for v in validate_scenario(s)] == [("SERVICE_ADDR", "sql-db")]


def test_endpoint_address_that_is_not_an_ip_rejected():
    with pytest.raises(ScenarioParseError) as exc:
        parse_scenario(_fig4_with("address: 10.0.1.10}", "address: not-an-ip}"))
    assert [i.code for i in exc.value.issues] == ["BAD_VALUE"]
    s = _replace_entity(builtin_scenario("fig4-landing-point"), "endpoints", "ep-sql",
                        address="not-an-ip")
    assert [(v.code, v.subject) for v in validate_scenario(s)] == [("ENDPOINT_ADDR", "ep-sql")]


@pytest.mark.parametrize("address", ["10.0.1.10:65536", "10.0.1.10:", "2001:db8::1"])
def test_endpoint_address_port_out_of_range_or_missing_rejected(address):
    with pytest.raises(ScenarioParseError):
        parse_scenario(_fig4_with("address: 10.0.1.10}", f'address: "{address}"}}'))


def test_host_bit_segment_cidr_validates_and_evaluates_like_its_network():
    from cloudperim import evaluate_flow
    from cloudperim.analysis import default_request_space

    base = builtin_scenario("fig4-landing-point")
    text = template_text("fig4-landing-point")
    text = text.replace("cidrs: [172.16.0.0/16]", "cidrs: [172.16.0.5/16]")
    text = text.replace("cidrs: [10.0.0.0/16]", "cidrs: [10.0.3.4/16]")
    host_bits = parse_scenario(text)
    assert validate_scenario(host_bits) == validate_scenario(base) == []
    for r in default_request_space(base):
        assert evaluate_flow(host_bits, r) == evaluate_flow(base, r)


def test_unknown_parent_is_an_unknown_reference_not_a_cycle():
    s = _replace_entity(builtin_scenario("fig3-hierarchy"), "nodes", "f-prod-green", parent="ghost")
    violations = validate_scenario(s)
    assert [(v.code, v.subject) for v in violations] == [("UNKNOWN_REF", "f-prod-green")]
    assert "'ghost'" in violations[0].message


def test_parent_cycle_still_reported():
    s = builtin_scenario("fig3-hierarchy")
    s = _replace_entity(s, "nodes", "f-prod", parent="f-prod-green")
    assert "PARENT_CYCLE" in [v.code for v in validate_scenario(s)]


def test_overlapping_data_plane_perimeters_are_refused_in_either_order():
    s = builtin_scenario("fig3-hierarchy")
    wide = m.AbstractPerimeter(
        id="prod", name="prod", members=m.MemberSelector(folders=("f-prod",)),
        mechanisms=frozenset({m.Mechanism.DATA_PLANE_PERIMETER}),
    )
    for perimeters in (s.perimeters + (wide,), (wide,) + s.perimeters):
        overlapping = dataclasses.replace(s, perimeters=perimeters)
        with pytest.raises(InvalidScenarioError) as refused:
            overlapping.index()
        assert "PERIM_OVERLAP" in [v.code for v in refused.value.violations]
        assert overlapping._index is None
    # on a valid scenario each project is in at most one data-plane perimeter
    by_project = s.index().data_plane_perimeter
    assert by_project["prj-web-prod"].id == "green-prod"
    assert by_project["prj-web-dev"].id == "green-dev"
    assert by_project.get(None) is None and by_project.get("no-such-project") is None


def test_an_empty_perimeter_is_refused_with_or_without_the_data_plane_mechanism():
    s = builtin_scenario("fig3-hierarchy")
    empty = m.AbstractPerimeter(id="empty", name="empty", members=m.MemberSelector(projects=("gone",)))
    for perimeters in (s.perimeters + (empty,), (empty,)):
        with_empty = dataclasses.replace(s, perimeters=perimeters)
        for _ in range(2):
            with pytest.raises(InvalidScenarioError) as refused:
                with_empty.index()
            assert [(v.code, v.subject) for v in refused.value.violations] == [
                ("UNKNOWN_REF", "empty"), ("EMPTY_PERIMETER", "empty")
            ]


# ---------------------------------------------------------------------------
# The format table: every model field is declared, read and written
# ---------------------------------------------------------------------------


def _table_types():
    """Model type -> its declaration, for every type the document table reaches."""
    from cloudperim.scenario import _SCENARIO, _Many, _One

    found, todo = {}, [_SCENARIO]
    while todo:
        t = todo.pop()
        if t.model not in found:
            found[t.model] = t
            todo += [f.codec.type for f in t.fields if isinstance(f.codec, (_Many, _One))]
    return found


def _held_dataclasses(cls, found):
    """``cls`` and every dataclass its field annotations name, recursively."""
    if not dataclasses.is_dataclass(cls) or cls in found:
        return found
    found.add(cls)
    todo = list(typing.get_type_hints(cls).values())
    while todo:
        hint = todo.pop()
        todo += typing.get_args(hint)
        _held_dataclasses(typing.get_origin(hint) or hint, found)
    return found


def test_every_model_field_is_declared_in_the_format_table():
    from cloudperim.scenario import Scenario, ScenarioIndex, Violation

    table = _table_types()
    held = _held_dataclasses(Scenario, set())
    assert set(table) == held - {ScenarioIndex, Violation}
    assert len(table) == 22  # the document and the 21 model types it holds
    for model, t in table.items():
        declared = [f.attr for f in t.fields]
        assert len(declared) == len(set(declared)), model
        assert set(declared) == {f.name for f in dataclasses.fields(model) if f.init}, model


def _every_field_set():
    pred = m.AccessPredicate(
        "a1", m.RuleAction.DENY, identities=("grp:x",), cidrs=("10.0.0.0/8",), methods=("read",)
    )
    rule = m.PerimeterRule(
        "in1", identities=("grp:x",), device={"managed": "true"}, networks=(m.ONPREM,),
        targets=(m.PerimeterTarget("prj", "svc", "read"),),
    )
    return Scenario(
        name="every-field",
        description="Every declared field holds a value other than its default.",
        chain_bound=6,
        nodes=(
            m.ResourceNode("org", m.NodeKind.ORGANIZATION),
            m.ResourceNode("f", m.NodeKind.FOLDER, parent="org", tags=frozenset({"env:prod"}),
                           labels={"team": "payments"}),
            m.ResourceNode("prj", m.NodeKind.PROJECT, parent="f"),
            m.ResourceNode("res", m.NodeKind.RESOURCE, parent="prj"),
        ),
        segments=(
            m.NetworkSegment("net", "prj", m.Routability.NON_ROUTABLE, ("10.0.0.0/16",),
                             subnets={"app": "10.0.1.0/24"}, trust_mode=m.TrustMode.ZERO_TRUST),
            m.NetworkSegment("hub", "prj", m.Routability.ROUTABLE, ("10.1.0.0/16",)),
        ),
        edges=(
            m.ConnectivityEdge(
                "gw", m.EdgeKind.GATEWAY_APPLIANCE, ("hub", m.INTERNET), m.EdgeDirection.OUTBOUND_ONLY,
                gateway_rules=(m.GatewayRule("g1", "hub", m.INTERNET, m.RuleAction.ALLOW,
                                             new_connection=False, protocol="udp", content_class="pci:true"),),
            ),
        ),
        services=(
            m.ServiceSpec(
                "svc", "prj", "net", m.ServiceLayer.L7, m.ComputeKind.KUBERNETES, m.AuthMode.ZERO_TRUST,
                address="10.0.1.10:443", fqdn="svc.example", backends=("vm-1",), run_as=("sa:svc",),
                workload="payments", idp="idp", reads=("asset",), writes=("asset",), depends_on=("svc2",),
            ),
            m.ServiceSpec("svc2", "prj", "net", m.ServiceLayer.L4, m.ComputeKind.VM, m.AuthMode.PERIMETER_TRUSTING),
        ),
        attachments=(m.ServiceAttachment("att", "svc", policy=(pred,)),),
        endpoints=(m.ConsumerEndpoint("ep", "hub", "att", address="10.1.0.9", fqdn="ep.example", policy=(pred,)),),
        idps=(m.IdentityProvider("idp", m.IdpKind.DIRECTORY, segment="net"),
              m.IdentityProvider("idp2", m.IdpKind.CLUSTER)),
        principals=(
            m.Principal("sa:svc", m.PrincipalKind.HUMAN, "idp", groups=("grp:x",), device={"managed": "true"}),
            m.Principal("sa:other", m.PrincipalKind.WORKLOAD, "idp2"),
        ),
        trust_edges=(m.TrustEdge("t1", "idp", "idp2", m.TrustKind.WORKLOAD_FEDERATION,
                                 mapping={"sa:svc": "sa:other"}),),
        firewall_rules=(
            m.FirewallRule("fw1", "folder:f", 10, m.RuleAction.ALLOW, src=("10.0.0.0/8",), dst=(m.ONPREM,),
                           protocol="tcp", ports=((443, 443), (8000, 8080))),
        ),
        bindings=(m.RBACBinding("rb1", "grp:x", (m.Permission("svc", "read"),), m.TagCondition("pii", "false")),),
        constraints=(m.OrgConstraint("oc1", m.ConstraintKind.NO_INTERNET_EGRESS, "org", exception_tag="egress:ok"),),
        perimeters=(
            m.AbstractPerimeter(
                "p1", "Perimeter One", m.MemberSelector(folders=("f",), projects=("prj",), tags=("env:prod",)),
                ingress=(rule,), egress=(dataclasses.replace(rule, id="eg1"),),
                mechanisms=frozenset({m.Mechanism.DATA_PLANE_PERIMETER, m.Mechanism.HIERARCHICAL_FIREWALL}),
            ),
        ),
        assets=(m.DataAsset("asset", "res", tags=frozenset({"pii:false"})),),
    )


def test_scenario_setting_every_declared_field_round_trips():
    from cloudperim.scenario import _REQUIRED, _SCENARIO, _Many, _One

    s = _every_field_set()
    assert parse_scenario(serialize_scenario(s)) == s
    # each declared field holds a value other than its default in some entity
    set_somewhere: dict[tuple[str, str], bool] = {}

    def visit(t, entity):
        values = {}
        for f in t.order:
            value = values[f.attr] = getattr(entity, f.attr)
            default = f.default(values) if callable(f.default) else f.default
            key = (t.model.__name__, f.key)
            set_somewhere[key] = set_somewhere.get(key, False) or default is _REQUIRED or value != default
            if isinstance(f.codec, _Many):
                for x in value:
                    visit(f.codec.type, x)
            elif isinstance(f.codec, _One) and value is not None:
                visit(f.codec.type, value)

    visit(_SCENARIO, s)
    assert len(set_somewhere) == sum(len(t.fields) for t in _table_types().values())
    assert [key for key, ok in set_somewhere.items() if not ok] == []


# ---------------------------------------------------------------------------
# Integer and boolean fields are type-checked, never converted
# ---------------------------------------------------------------------------


def _issues(doc):
    with pytest.raises(ScenarioParseError) as exc:
        parse_scenario(doc)
    return [(i.code, i.subject, i.message) for i in exc.value.issues]


def test_non_integer_priority_is_a_bad_value():
    for value, shown in (("high", "'high'"), ("true", "True"), ('"5"', "'5'")):
        doc = MINIMAL + f"policies:\n  firewall:\n    - {{id: r1, priority: {value}}}\n"
        assert _issues(doc) == [("BAD_VALUE", "policies.firewall[0]", f"{shown} is not an integer")]


def test_non_integer_port_is_a_bad_value():
    doc = MINIMAL + "policies:\n  firewall:\n    - {id: r1, ports: [{from: a}, true, 443, {to: 80}]}\n"
    assert _issues(doc) == [
        ("BAD_VALUE", "policies.firewall[0]", "bad port entry {'from': 'a'}"),
        ("BAD_VALUE", "policies.firewall[0]", "bad port entry True"),
    ]
    ok = parse_scenario(MINIMAL + "policies:\n  firewall:\n    - {id: r1, ports: [443, {to: 80}]}\n")
    assert ok.firewall_rules[0].ports == ((443, 443), (0, 80))


def test_non_integer_chain_bound_is_a_bad_value():
    assert _issues(MINIMAL + "chain_bound: many\n") == [("BAD_VALUE", "document", "chain_bound 'many' is not an integer")]
    assert parse_scenario(MINIMAL + "chain_bound: 6\n").chain_bound == 6


def test_non_boolean_new_connection_is_a_bad_value():
    doc = MINIMAL + """  edges:
    - id: gw
      kind: gateway-appliance
      ends: [net, INTERNET]
      gateway_rules: [{id: g1, new_connection: NEW_CONNECTION}]
"""
    subject = "networks.edges[0].gateway_rules[0]"
    for value, shown in (('"no"', "'no'"), ("1", "1"), ("~", "None")):
        assert _issues(doc.replace("NEW_CONNECTION", value)) == [
            ("BAD_VALUE", subject, f"{shown} is not true or false")
        ]
    s = parse_scenario(doc.replace("NEW_CONNECTION", "false"))
    assert s.edges[0].gateway_rules[0].new_connection is False


def test_duplicate_ids_in_a_scenario_built_in_code_are_reported():
    s = builtin_scenario("fig1-lift-shift")
    twin = dataclasses.replace(s.principals[0], kind=m.PrincipalKind.HUMAN)
    violations = validate_scenario(dataclasses.replace(s, principals=s.principals + (twin,)))
    assert [(v.code, v.subject, v.message) for v in violations] == [
        ("DUP_ID", twin.id, "duplicate principal id")
    ]


def test_null_text_field_is_a_bad_value():
    gateway = MINIMAL + """  edges:
    - id: gw
      kind: gateway-appliance
      ends: [net, INTERNET]
      gateway_rules: [{id: g, from: ~, to: INTERNET}]
"""
    assert _issues(gateway) == [("BAD_VALUE", "networks.edges[0].gateway_rules[0]", "None is not text")]
    # a reported null reads as the field's default, as if the key were absent
    project = MINIMAL.replace("project: prj", "project: ~")
    assert _issues(project) == [
        ("BAD_VALUE", "networks.segments[0]", "None is not text"),
        ("UNKNOWN_REF", "net", "unknown project ''"),
    ]
    condition = MINIMAL + "policies:\n  rbac:\n    - {id: b, principal: p, condition: {key: pii, value: ~}}\n"
    assert ("BAD_VALUE", "policies.rbac[0]", "None is not text") in _issues(condition)


def test_null_id_is_a_missing_id():
    doc = MINIMAL + "assets:\n  - {id: ~, resource: prj}\n"
    assert _issues(doc) == [("BAD_VALUE", "assets[0]", "missing id")]
    # an entry with a generated id takes it, as if the id were absent
    gateway = MINIMAL + """  edges:
    - {id: gw, kind: gateway-appliance, ends: [net, INTERNET], gateway_rules: [{id: ~, to: INTERNET}]}
"""
    assert parse_scenario(gateway).edges[0].gateway_rules[0].id == "gw-r0"


@pytest.mark.parametrize(
    "ends,issues",
    [
        ("[net]", [("BAD_VALUE", "networks.edges[0]", "ends must name exactly two loci, got 1")]),
        ("[]", [("BAD_VALUE", "networks.edges[0]", "ends must name exactly two loci, got 0")]),
        (
            "[net, INTERNET, ONPREM]",
            [("BAD_VALUE", "networks.edges[0]", "ends must name exactly two loci, got 3")],
        ),
        (
            "[ghost]",
            [
                ("BAD_VALUE", "networks.edges[0]", "ends must name exactly two loci, got 1"),
                ("UNKNOWN_REF", "e", "unknown locus 'ghost'"),
            ],
        ),
        (
            "[net, INTERNET, ghost]",
            [
                ("BAD_VALUE", "networks.edges[0]", "ends must name exactly two loci, got 3"),
                ("UNKNOWN_REF", "e", "unknown locus 'ghost'"),
            ],
        ),
    ],
)
def test_wrong_number_of_edge_ends_reports_only_the_loci_named(ends, issues):
    doc = MINIMAL + f"  edges:\n    - {{id: e, kind: peering, ends: {ends}}}\n"
    assert _issues(doc) == issues


# ---------------------------------------------------------------------------
# A tagged scalar that does not convert, or a character YAML does not allow,
# is one located SYNTAX issue
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("loader", ["libyaml", "pure-python"])
@pytest.mark.parametrize(
    "value, message",
    [
        ("!!bool maybe", "'maybe' is not a valid !!bool"),
        ("!!int x", "'x' is not a valid !!int"),
        ("!!int ''", "'' is not a valid !!int"),
        ("!!float -", "'-' is not a valid !!float"),
        ("!!float x", "'x' is not a valid !!float"),
        ("!!timestamp 2001-13-45", "'2001-13-45' is not a valid !!timestamp"),
        ("!!timestamp x", "'x' is not a valid !!timestamp"),
    ],
)
def test_tagged_scalar_that_does_not_construct_is_a_syntax_issue(monkeypatch, loader, value, message):
    if loader == "pure-python":
        monkeypatch.setattr(scenario_module, "_FAST_LOADER", None)
    doc = MINIMAL + f"assets:\n  - {{id: a, resource: prj, tags: [{value}]}}\n"
    with pytest.raises(ScenarioParseError) as exc:
        parse_scenario(doc)
    assert exc.value.issues == [ParseIssue("SYNTAX", "document", message, "line 10, column 35")]


@pytest.mark.parametrize("loader", ["libyaml", "pure-python"])
@pytest.mark.parametrize(
    "document, location",
    [
        ("name: x\x01", "line 1, column 8"),
        ("name: x\r\nhierarchy: []\n  \x01", "line 3, column 3"),
    ],
    ids=["one-line", "crlf"],
)
def test_unacceptable_character_is_one_located_syntax_issue(monkeypatch, loader, document, location):
    if loader == "pure-python":
        monkeypatch.setattr(scenario_module, "_FAST_LOADER", None)
    with pytest.raises(ScenarioParseError) as exc:
        parse_scenario(document)
    message = "unacceptable character #x0001: special characters are not allowed"
    assert exc.value.issues == [ParseIssue("SYNTAX", "document", message, location)]


# ---------------------------------------------------------------------------
# A scenario built in code is held to the parser's value checks
# ---------------------------------------------------------------------------


def _fig1_with_block(**changes):
    """fig1 plus an organization rule denying green's own traffic, changed by ``changes``."""
    s = builtin_scenario("fig1-lift-shift")
    block = m.FirewallRule(
        id="fw-block", scope=m.ORG_SCOPE, priority=50, action=m.RuleAction.DENY, src=("10.1.0.0/16",), dst=(m.ANY,)
    )
    return dataclasses.replace(s, firewall_rules=(dataclasses.replace(block, **changes),) + s.firewall_rules)


_GREEN_CONNECT = m.FlowRequest(principal="sa:green-a", source="green", target="green-app", method="connect")


def test_firewall_rule_built_in_code_denies_as_parsed():
    s = _fig1_with_block()
    assert validate_scenario(s) == []
    decision, _ = evaluate_flow(s, _GREEN_CONNECT)
    assert decision.reason is m.DenyReason.HIER_FIREWALL


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"scope": "organisation"}, "scope 'organisation' must be organization, folder:<id> or segment:<id>"),
        ({"scope": "folder-x:f"}, "scope 'folder-x:f' must be organization, folder:<id> or segment:<id>"),
        ({"src": ("10.0.0.0/99",)}, "'10.0.0.0/99' is not a CIDR or ONPREM/INTERNET/*"),
        ({"dst": ("green-app",)}, "'green-app' is not a CIDR or ONPREM/INTERNET/*"),
    ],
)
def test_firewall_rule_value_the_parser_rejects_is_a_violation(changes, message):
    # each of these makes the rule match nothing, so the request it denies would be allowed
    violations = validate_scenario(_fig1_with_block(**changes))
    assert [(v.code, v.subject, v.message) for v in violations] == [("BAD_VALUE", "fw-block", message)]


def test_policy_and_perimeter_tokens_built_in_code_are_checked():
    s = builtin_scenario("fig1-lift-shift")
    ep = s.endpoints[0]
    predicate = dataclasses.replace(ep.policy[0], cidrs=("10.2.0.0/16", "yellow"))
    wide = m.AccessPredicate(id="p", action=m.RuleAction.ALLOW, cidrs=("*", "::/200"))
    attachment = dataclasses.replace(s.attachments[0], policy=(wide,))
    rule = m.PerimeterRule(id="in-0", networks=("ONPREM", "10.300.0.0/16"))
    perimeter = dataclasses.replace(s.perimeters[0], ingress=(rule,))
    mutated = dataclasses.replace(
        s,
        endpoints=(dataclasses.replace(ep, policy=(predicate,) + ep.policy[1:]),) + s.endpoints[1:],
        attachments=(attachment,) + s.attachments[1:],
        perimeters=(perimeter,) + s.perimeters[1:],
    )
    assert [(v.code, v.subject, v.message) for v in validate_scenario(mutated)] == [
        ("BAD_VALUE", predicate.id, "'yellow' is not a CIDR or ONPREM/INTERNET/*"),
        ("BAD_VALUE", "p", "'::/200' is not a CIDR or ONPREM/INTERNET/*"),
        ("BAD_VALUE", "in-0", "'10.300.0.0/16' is not a CIDR or ONPREM/INTERNET/*"),
    ]


def test_edge_with_three_ends_built_in_code_is_a_violation():
    s = builtin_scenario("fig1-lift-shift")
    edge = dataclasses.replace(s.edges[-1], ends=("ONPREM", "yellow", "green"))
    violations = validate_scenario(dataclasses.replace(s, edges=s.edges[:-1] + (edge,)))
    assert [(v.code, v.subject, v.message) for v in violations] == [
        ("BAD_VALUE", edge.id, "ends must name exactly two loci, got 3")
    ]


def test_list_or_mapping_in_a_text_field_is_a_bad_value():
    assert _issues("name: [[a]]\n") == [("BAD_VALUE", "document", "[['a']] is not text")]
    parent = MINIMAL.replace("parent: org", "parent: {x: 1}")
    assert _issues(parent) == [("BAD_VALUE", "hierarchy[1]", "{'x': 1} is not text")]
    # an id that is not text is reported once, and its entity skipped
    assert _issues(MINIMAL + "assets:\n  - {id: [a], resource: nowhere}\n") == [
        ("BAD_VALUE", "assets[0]", "['a'] is not text")
    ]


@pytest.mark.parametrize(
    "entry, subject",
    [
        ("identity:\n  idps:\n    - {id: i}\n  principals:\n    - {id: p, idp: i, groups: [ok, ITEM]}\n",
         "identity.principals[0]"),
        ("  edges:\n    - {id: e, kind: peering, ends: [net, ITEM]}\n", "networks.edges[0]"),
        ("services:\n  specs:\n    - {id: s, segment: net, run_as: [ITEM]}\n", "services.specs[0]"),
        ("perimeters:\n  - {id: pe, members: {projects: [prj, ITEM]}}\n", "perimeters[0]"),
        ("perimeters:\n  - {id: pe, members: {projects: [prj], tags: [ITEM]}}\n", "perimeters[0]"),
        ("assets:\n  - {id: a, resource: prj, tags: ['k:v', ITEM]}\n", "assets[0]"),
    ],
    ids=["groups", "ends", "run_as", "member-projects", "member-tags", "asset-tags"],
)
@pytest.mark.parametrize(
    "item, text", [("[a, 'b:c']", "['a', 'b:c']"), ("{k: v}", "{'k': 'v'}")], ids=["list", "mapping"]
)
def test_list_or_mapping_in_a_list_of_text_is_a_bad_value(entry, subject, item, text):
    issues = _issues(MINIMAL + entry.replace("ITEM", item))
    assert ("BAD_VALUE", subject, f"{text} is not text") in issues
    assert not any(text in message for _, _, message in issues if not message.endswith("is not text"))


def test_tag_that_is_not_key_value_built_in_code_is_a_violation():
    s = builtin_scenario("fig1-lift-shift")
    asset = dataclasses.replace(s.assets[0], tags=frozenset({"pci"}))
    node = dataclasses.replace(s.nodes[-1], tags=frozenset({"env:prod", "gold"}))
    mutated = dataclasses.replace(s, nodes=s.nodes[:-1] + (node,), assets=(asset,) + s.assets[1:])
    assert [(v.code, v.subject, v.message) for v in validate_scenario(mutated)] == [
        ("BAD_VALUE", node.id, "tag 'gold' is not key:value"),
        ("BAD_VALUE", asset.id, "tag 'pci' is not key:value"),
    ]


def test_bad_subnet_cidr_built_in_code_is_a_violation():
    s = builtin_scenario("fig1-lift-shift")
    segment = dataclasses.replace(s.segments[0], subnets={"web": "10.1.0.0/99"})
    violations = validate_scenario(dataclasses.replace(s, segments=(segment,) + s.segments[1:]))
    assert [(v.code, v.subject, v.message) for v in violations] == [
        ("BAD_VALUE", segment.id, "bad subnet CIDR '10.1.0.0/99' for 'web'")
    ]


def _with_second_rule(s, rule):
    """``s`` with its first firewall rule replaced by ``rule``, and an integer
    priority alongside it in the same scope, which a sort by priority compares."""
    second = dataclasses.replace(s.firewall_rules[0], id="fw-second", priority=200)
    return dataclasses.replace(s, firewall_rules=(rule,) + s.firewall_rules[1:] + (second,))


@pytest.mark.parametrize("priority", [None, "5", True, [5]], ids=["none", "text", "bool", "list"])
def test_a_priority_that_is_not_an_integer_is_a_bad_value(priority):
    s = builtin_scenario("fig1-lift-shift")
    rule = dataclasses.replace(s.firewall_rules[0], priority=priority)
    broken = _with_second_rule(s, rule)
    violations = validate_scenario(broken)
    assert Violation("BAD_VALUE", rule.id, f"{priority!r} is not an integer") in violations
    for _ in range(2):
        with pytest.raises(InvalidScenarioError) as refused:
            broken.index()
        assert list(refused.value.violations) == violations
    with pytest.raises(InvalidScenarioError):
        evaluate_flow(broken, m.FlowRequest("sa:green-a", "green", "yellow-pay"))


@pytest.mark.parametrize("priority", [True, 1.0], ids=["bool", "float"])
def test_a_priority_that_is_not_an_integer_is_no_duplicate_of_the_integer_it_equals(priority):
    s = builtin_scenario("fig1-lift-shift")
    rules = tuple(
        m.FirewallRule(id=rule_id, scope=m.ORG_SCOPE, priority=p, action=m.RuleAction.DENY, src=(m.ANY,), dst=(m.ANY,))
        for rule_id, p in (("x-one", 1), ("x-other", priority))
    )
    violations = validate_scenario(dataclasses.replace(s, firewall_rules=s.firewall_rules + rules))
    assert violations == [Violation("BAD_VALUE", "x-other", f"{priority!r} is not an integer")]


def _parser_messages(s, edit):
    """The messages of the parser's issues with ``s`` written out, ``edit``ed
    as a document and read back."""
    document = yaml.safe_load(serialize_scenario(s))
    edit(document)
    with pytest.raises(ScenarioParseError) as refused:
        parse_scenario(yaml.safe_dump(document))
    return [issue.message for issue in refused.value.issues]


@pytest.mark.parametrize(
    "span", [("80", "90"), (None, 90), (1, 2, 3), (True, 90)], ids=["text", "none", "three", "bool"]
)
def test_a_port_entry_that_is_not_two_integers_is_a_bad_value(span):
    s = builtin_scenario("fig1-lift-shift")
    rules = tuple(
        dataclasses.replace(r, ports=((443, 443), span)) if r.id == "fw-allow-internal" else r
        for r in s.firewall_rules
    )
    broken = dataclasses.replace(s, firewall_rules=rules)
    message = f"bad port entry {span!r}"
    assert validate_scenario(broken) == [Violation("BAD_VALUE", "fw-allow-internal", message)]
    with pytest.raises(InvalidScenarioError):
        evaluate_flow(broken, m.FlowRequest("sa:green-a", "green", "yellow-pay"))

    def edit(document):
        document["policies"]["firewall"][0]["ports"] = [443, list(span)]

    assert _parser_messages(s, edit) == [f"bad port entry {list(span)!r}"]


@pytest.mark.parametrize(
    "span, entry",
    [((90, 80), {"from": 90, "to": 80}), ((-1, 80), {"from": -1, "to": 80}), ((0, 65536), {"to": 65536}),
     ((70000, 70000), 70000)],
    ids=["reversed", "below-0", "above-65535", "single-above-65535"],
)
def test_a_port_span_reversed_or_outside_0_65535_is_a_bad_value(span, entry):
    s = builtin_scenario("fig1-lift-shift")
    rules = tuple(
        dataclasses.replace(r, ports=((443, 443), span)) if r.id == "fw-allow-internal" else r
        for r in s.firewall_rules
    )
    broken = dataclasses.replace(s, firewall_rules=rules)
    assert validate_scenario(broken) == [Violation("BAD_VALUE", "fw-allow-internal", f"bad port entry {span!r}")]

    def edit(document):
        document["policies"]["firewall"][0]["ports"] = [443, entry]

    assert _parser_messages(s, edit) == [f"bad port entry {entry!r}"]


def test_a_port_span_at_the_ends_of_0_65535_is_accepted():
    s = parse_scenario(MINIMAL + "policies:\n  firewall:\n    - {id: r1, ports: [0, 65535, {from: 80, to: 80}]}\n")
    assert s.firewall_rules[0].ports == ((0, 0), (65535, 65535), (80, 80))
    assert validate_scenario(dataclasses.replace(s, firewall_rules=(
        dataclasses.replace(s.firewall_rules[0], ports=((0, 65535),)),
    ))) == []


@pytest.mark.parametrize("value", ["no", None, 1], ids=["text", "none", "int"])
def test_a_new_connection_that_is_not_true_or_false_is_a_bad_value(value):
    s = builtin_scenario("fig1-lift-shift")
    edges = tuple(
        dataclasses.replace(e, gateway_rules=(dataclasses.replace(e.gateway_rules[0], new_connection=value),)
                            + e.gateway_rules[1:]) if e.id == "gw-green-yellow" else e
        for e in s.edges
    )
    broken = dataclasses.replace(s, edges=edges)
    message = f"{value!r} is not true or false"
    assert validate_scenario(broken) == [Violation("BAD_VALUE", "gw-gy-allow", message)]
    with pytest.raises(InvalidScenarioError):
        evaluate_flow(broken, m.FlowRequest("sa:green-a", "green", "yellow-pay"))

    def edit(document):
        edge = next(e for e in document["networks"]["edges"] if e["id"] == "gw-green-yellow")
        edge["gateway_rules"][0]["new_connection"] = value

    assert _parser_messages(s, edit) == [message]


def test_a_parse_issue_is_a_violation():
    assert ParseIssue is Violation
    assert str(Violation("SYNTAX", "document", "bad", "line 1, column 2")) == "SYNTAX: document: bad (line 1, column 2)"
    document = MINIMAL + "assets:\n  - {id: a, resource: prj}\n  - {id: a, resource: prj}\n"
    with pytest.raises(ScenarioParseError) as refused:
        parse_scenario(document)
    assert refused.value.issues == [Violation("DUP_ID", "a", "duplicate asset id")]


def test_an_id_that_is_not_text_is_a_bad_value():
    s = builtin_scenario("fig1-lift-shift")
    broken = dataclasses.replace(s, edges=(dataclasses.replace(s.edges[0], id=7),) + s.edges[1:])
    violations = validate_scenario(broken)
    assert violations == [Violation("BAD_VALUE", "edge id", "7 is not text")]
    with pytest.raises(InvalidScenarioError) as refused:
        broken.index()
    assert list(refused.value.violations) == violations
    with pytest.raises(InvalidScenarioError):
        evaluate_flow(broken, m.FlowRequest("sa:green-a", "green", "yellow-pay"))


@pytest.mark.parametrize(
    "bound, message",
    [
        ("4", "chain_bound '4' is not an integer"),
        (True, "chain_bound True is not an integer"),
        (None, "chain_bound None is not an integer"),
        (0, "chain_bound 0 is below 1"),
        (-1, "chain_bound -1 is below 1"),
    ],
    ids=["text", "bool", "none", "zero", "negative"],
)
def test_a_chain_bound_that_is_not_a_positive_integer_is_a_bad_value(bound, message):
    broken = dataclasses.replace(builtin_scenario("fig5-vm"), chain_bound=bound)
    violations = validate_scenario(broken)
    assert violations == [Violation("BAD_VALUE", "document", message)]
    with pytest.raises(InvalidScenarioError) as refused:
        broken.index()
    assert list(refused.value.violations) == violations


def test_a_document_chain_bound_below_1_is_a_violation():
    s = parse_scenario(MINIMAL + "chain_bound: 0\n")
    assert validate_scenario(s) == [Violation("BAD_VALUE", "document", "chain_bound 0 is below 1")]
    assert validate_scenario(parse_scenario(MINIMAL + "chain_bound: 1\n")) == []


def _first_retyped(s, field, **changes):
    items = getattr(s, field)
    return dataclasses.replace(s, **{field: (dataclasses.replace(items[0], **changes),) + items[1:]})


def _second_attachment(s):
    """fig1 with a second attachment whose service is 5, which ATTACH_DUP's sort would compare."""
    return dataclasses.replace(s, attachments=s.attachments + (m.ServiceAttachment("att-int", 5),))


def _gateway_content_class(s):
    edge = s.edges[0]
    rule = dataclasses.replace(edge.gateway_rules[0], content_class=5)
    return _first_retyped(s, "edges", gateway_rules=(rule,) + edge.gateway_rules[1:])


@pytest.mark.parametrize(
    "retype, subject, shown",
    [
        (lambda s: _first_retyped(s, "edges", id=["e"]), "edge id", "['e']"),
        (lambda s: _first_retyped(s, "assets", tags=frozenset({"pci:true", 5})), "carddata", "5"),
        (lambda s: _first_retyped(s, "firewall_rules", scope=5), "fw-allow-internal", "5"),
        (_second_attachment, "att-int", "5"),
        (lambda s: _first_retyped(s, "services", address=5), "green-app", "5"),
        (lambda s: _first_retyped(s, "services", run_as=("sa:green-a", None)), "green-app", "None"),
        (lambda s: _first_retyped(s, "segments", project=None), "green", "None"),
        (lambda s: _first_retyped(s, "segments", subnets={"web": 5}), "green", "5"),
        (lambda s: _first_retyped(s, "firewall_rules", src=(5,)), "fw-allow-internal", "5"),
        (_gateway_content_class, "gw-gy-allow", "5"),
        (lambda s: dataclasses.replace(s, name=5), "document", "5"),
    ],
    ids=[
        "list-id", "asset-tag", "scope", "attachment-service", "address",
        "run-as", "project", "subnet", "token", "nested", "name",
    ],
)
def test_a_text_that_is_not_a_str_is_a_bad_value(retype, subject, shown):
    """Every text field of the format table is checked before anything
    hashes, sorts or splits its value; a None only where the parser would
    report a null."""
    broken = retype(builtin_scenario("fig1-lift-shift"))
    violations = validate_scenario(broken)
    assert violations == [Violation("BAD_VALUE", subject, f"{shown} is not text")]
    with pytest.raises(InvalidScenarioError) as refused:
        broken.index()
    assert list(refused.value.violations) == violations


def _ghosts(t, entity):
    """(path, ``entity`` with the text "ghost" in place of one nested entity
    list or entity, the subject it is reported under, the model type it is
    not) for each nested field of ``t``, at every depth ``entity`` holds."""
    for f, many in t.nested:
        ghost = ("ghost",) if many else "ghost"
        yield f.attr, dataclasses.replace(entity, **{f.attr: ghost}), entity.id, f.codec.type
        held = getattr(entity, f.attr)
        for j, x in enumerate(held if many else (held,)):
            for path, changed, subject, model in _ghosts(f.codec.type, x) if x is not None else ():
                value = held[:j] + (changed,) + held[j + 1:] if many else changed
                yield f"{f.attr}[{j}].{path}", dataclasses.replace(entity, **{f.attr: value}), subject, model


def _ghost_cases(s):
    """(path, ``s`` with one element of an entity list, or one nested entity, that is the text "ghost",
    its subject, the model type it is not)."""
    for f, _ in scenario_module._SCENARIO.nested:
        entities = getattr(s, f.attr)
        yield f.attr, dataclasses.replace(s, **{f.attr: entities + ("ghost",)}), f"{f.key}[{len(entities)}]", f.codec.type
        for j, entity in enumerate(entities):
            for path, changed, subject, t in _ghosts(f.codec.type, entity):
                changed_list = entities[:j] + (changed,) + entities[j + 1:]
                yield f"{f.attr}[{j}].{path}", dataclasses.replace(s, **{f.attr: changed_list}), subject, t


def _nested_fields(t):
    """The names of ``t``'s fields that hold entities, at every depth."""
    return {name for f, _ in t.nested for name in (f.attr, *_nested_fields(f.codec.type))}


def test_an_element_that_is_not_its_entity_type_is_a_bad_value():
    """A text in place of an entity of any entity list, or of a nested rule
    list or entity at any depth, is one violation, found before anything reads
    a field it lacks, and the scenario is refused."""
    s = builtin_scenario("fig11-combined")
    covered = set()
    for path, broken, subject, t in _ghost_cases(s):
        violations = validate_scenario(broken)
        assert violations == [Violation("BAD_VALUE", subject, f"'ghost' is not a {t.model.__name__}")], path
        with pytest.raises(InvalidScenarioError) as refused:
            broken.index()
        assert list(refused.value.violations) == violations
        covered.add(path.rpartition(".")[2].partition("[")[0])
    # fig11 holds an owner of every nested field of the format table
    assert covered == _nested_fields(scenario_module._SCENARIO)


def test_a_missing_nested_entity_is_a_bad_value_only_where_its_default_is_not_none():
    s = builtin_scenario("fig11-combined")
    broken = dataclasses.replace(s, perimeters=(dataclasses.replace(s.perimeters[0], members=None),) + s.perimeters[1:])
    assert validate_scenario(broken) == [Violation("BAD_VALUE", "green", "None is not a MemberSelector")]
    assert s.bindings[0].condition is None and validate_scenario(s) == []
