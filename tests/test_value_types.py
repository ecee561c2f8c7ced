"""Frozen values hold what their annotations declare (``model.value_type``).

A collection field given a list, set or dict holds an immutable copy, a
bare string given for one is refused, and an enum field holds its member.
Such misuses used to pass validation, then decide a request the wrong way
or crash the engine or the compiler.
"""

import collections.abc
import dataclasses
import importlib
import inspect
import pkgutil
import sys
import typing
from dataclasses import replace
from enum import Enum
from pathlib import Path
from types import MappingProxyType

import pytest

import cloudperim
from cloudperim import TEMPLATE_NAMES, analysis, builtin_scenario, compiler, engine, evaluate_flow
from cloudperim import model as m
from cloudperim import parse_scenario, records, route, scenario
from cloudperim.lint import Finding, lint
from cloudperim.route import resolve_path
from cloudperim.scenario import Scenario

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench import gen  # noqa: E402  (read-only: the benchmark's estate generator)

_MODULES = [importlib.import_module(f"cloudperim.{info.name}") for info in pkgutil.iter_modules(cloudperim.__path__)]
FROZEN = list(dict.fromkeys(
    c for mod in _MODULES for c in vars(mod).values()
    if isinstance(c, type) and dataclasses.is_dataclass(c) and c.__module__ == mod.__name__
    and c.__dataclass_params__.frozen
))
# built by one module on a hot path, or private to the document format's table
PLAIN = {m.TraceStep, engine.NetworkLeg, engine.RequestContext, route.Hop,
         scenario._Codec, scenario._Many, scenario._One}
DECORATED = [c for c in FROZEN if c not in PLAIN]


def _collection(cls, name):
    """The collection type a field's annotation declares, or None."""
    origin = typing.get_origin(typing.get_type_hints(cls)[name])
    return origin if origin in (tuple, frozenset, collections.abc.Mapping) else None


def _samples():
    """Per decorated type and field, an instance whose field is not empty; and
    per type, an instance."""
    out, of_type = {}, {}
    stack = [builtin_scenario(name) for name in TEMPLATE_NAMES]
    fig1, fig4, fig5, fig11 = map(builtin_scenario, ("fig1-lift-shift", "fig4-landing-point", "fig5-vm",
                                                      "fig11-combined"))
    lift_shift = compiler.compile_perimeter(fig4, "green", "lift-shift")
    stack += [
        resolve_path(stack[0], stack[0].segments[0].id, m.INTERNET),
        lift_shift, compiler.verify_compilation(fig4, lift_shift),
        compiler.compile_perimeter(fig5, "green", "zero-trust"),
        *analysis.exfiltration_paths(fig1, "pci:true", "green").chains,
        *analysis.diff_decisions(fig1, fig11, analysis.default_request_space(fig1))[:1],
        *lint(fig1)[:1],
        route.Unreachable(route.UnreachableReason.NO_PATH),
        scenario.Violation("BAD_VALUE", "document", "message", "line 1, column 1"),
        m.FlowRequest("p", "ONPREM", "svc", payload_tags=frozenset({"pii:true"})),
        m.CredentialChain((m.ChainStep("idp", "p", None),)),
        m.FirewallRule(id="fw", scope=m.ORG_SCOPE, priority=1, action=m.RuleAction.DENY, ports=((80, 81),)),
        m.AbstractPerimeter(
            id="p", name="p", members=m.MemberSelector(folders=("f",), projects=("p",), tags=("k:v",)),
            mechanisms=frozenset({m.Mechanism.DATA_PLANE_PERIMETER}),
        ),
        m.PerimeterRule(id="r", device={"managed": "true"}),
        m.ResourceNode(id="prj", kind=m.NodeKind.PROJECT, labels={"team": "a"}),
        m.NetworkSegment(id="s", project="p", routability=m.Routability.ROUTABLE, cidrs=("10.0.0.0/8",),
                         subnets={"app": "10.1.0.0/16"}),
        m.ServiceAttachment(id="att", service="svc", policy=(
            m.AccessPredicate(id="a", action=m.RuleAction.ALLOW, identities=("group:x",), methods=("read",)),
        )),
        m.ALLOW, m.deny(m.DenyReason.NO_ROUTE),
    ]
    while stack:
        x = stack.pop()
        of_type.setdefault(type(x), x)
        for f in dataclasses.fields(x):
            value = getattr(x, f.name)
            if f.init and value and _collection(type(x), f.name):
                out.setdefault((type(x), f.name), x)
            held = value.values() if isinstance(value, MappingProxyType) else value
            held = held if isinstance(held, (tuple, frozenset)) else (held,)
            stack.extend(v for v in held if dataclasses.is_dataclass(v) and not isinstance(v, type))
    return out, of_type


_SAMPLES, _OF_TYPE = _samples()
_FIELDS = [
    (cls, f.name)
    for cls in DECORATED
    for f in dataclasses.fields(cls)
    if f.init and not f.name.startswith("_") and _collection(cls, f.name)
]
# each collection field with each mutable form of input it takes
_INPUTS = [
    (cls, name, form)
    for cls, name in _FIELDS
    for form in ((dict,) if _collection(cls, name) is collections.abc.Mapping else (list, set))
]
_ENUM_FIELDS = [
    (cls, f.name, enum)
    for cls in DECORATED
    for f in dataclasses.fields(cls)
    for enum in vars(sys.modules[cls.__module__]).values()
    if isinstance(enum, type) and issubclass(enum, Enum) and f.type in (enum.__name__, f"{enum.__name__} | None")
]


def _id(param):
    return param.__name__ if isinstance(param, type) else str(param)


def test_every_frozen_dataclass_is_a_value_type():
    assert PLAIN <= set(FROZEN)
    assert {analysis.ExfilChain, analysis.DecisionDiff, compiler.CompiledRuleSet, compiler.Divergence,
            compiler.EquivalenceReport, Finding, route.Unreachable, scenario.Violation} <= set(DECORATED)
    made_otherwise = [c for c in DECORATED if not inspect.getsource(c).startswith(("@value_type\n", "@m.value_type\n"))]
    assert made_otherwise == []


def test_every_field_has_a_sample():
    assert len(_FIELDS) > 40
    assert [key for key in _FIELDS if key not in _SAMPLES] == []
    assert {(c.__name__, n) for c, n, _ in _ENUM_FIELDS} >= {
        ("FirewallRule", "action"), ("Decision", "reason"), ("ResourceNode", "kind"), ("GatewayRule", "action"),
        ("CompiledRuleSet", "mechanism"), ("EquivalenceReport", "mechanism"), ("Unreachable", "reason"),
    }
    assert [cls for cls in DECORATED if cls not in _OF_TYPE] == []


@pytest.mark.parametrize("cls, name, form", _INPUTS, ids=_id)
def test_mutable_inputs_are_held_as_immutable_copies(cls, name, form):
    sample = _SAMPLES[(cls, name)]
    current = getattr(sample, name)
    given = form(current)
    expected = dict(given) if form is dict else type(current)(given)
    x = replace(sample, **{name: given})
    held = getattr(x, name)
    assert type(held) is type(current)
    assert held == expected
    assert hash(x) == hash(replace(x)) and x == replace(x)
    given.clear()
    assert getattr(x, name) == expected
    if form is dict:
        with pytest.raises(TypeError):
            held["k"] = "v"


@pytest.mark.parametrize("cls, name", [(c, n) for c, n, form in _INPUTS if form is list], ids=_id)
def test_text_for_a_collection_field_is_refused(cls, name):
    with pytest.raises(TypeError, match=rf"^{cls.__name__}\.{name} "):
        replace(_SAMPLES[(cls, name)], **{name: "text"})


@pytest.mark.parametrize("cls, name, enum", _ENUM_FIELDS, ids=_id)
def test_enum_fields_hold_the_member_and_refuse_other_values(cls, name, enum):
    sample = _OF_TYPE[cls]
    member = list(enum)[-1]
    held = getattr(replace(sample, **{name: member.value}), name)
    assert held is member
    with pytest.raises(ValueError, match=rf"^{cls.__name__}\.{name} "):
        replace(sample, **{name: "no-such-value"})


def test_nested_elements_are_held_the_same_way():
    rule = m.FirewallRule(id="fw", scope=m.ORG_SCOPE, priority=1, action=m.RuleAction.DENY, ports=[[80, 81]])
    assert rule.ports == ((80, 81),) and type(rule.ports[0]) is tuple
    perimeter = replace(_SAMPLES[(m.AbstractPerimeter, "mechanisms")], mechanisms=["data-plane-perimeter"])
    assert [type(x) for x in perimeter.mechanisms] == [m.Mechanism]


def test_an_entity_tuple_given_is_kept():
    s = builtin_scenario("fig1-lift-shift")
    assert replace(s, name="other").nodes is s.nodes


def test_types_without_conversions_have_no_post_init():
    assert not hasattr(m.ChainStep, "__post_init__") and not hasattr(m.Permission, "__post_init__")
    assert not hasattr(m.TraceStep, "__post_init__")


# ---------------------------------------------------------------------------
# The misuses that used to fail open
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def estate():
    return parse_scenario(gen.hub_and_spoke(12, 0, 0).text())


def _with_predicate_first(s, endpoint, predicate):
    return replace(s, endpoints=tuple(
        replace(ep, policy=(predicate,) + ep.policy) if ep.id == endpoint else ep for ep in s.endpoints
    ))


def test_text_identities_are_refused(estate):
    request = m.FlowRequest("user:h3", m.ONPREM, "ep-s5-app", "read")
    deny = m.AccessPredicate(id="deny-h3", action=m.RuleAction.DENY, identities=("user:h3",))
    decision, _ = evaluate_flow(_with_predicate_first(estate, "ep-s5-app", deny), request)
    assert decision == m.deny(m.DenyReason.CONSUMER)
    with pytest.raises(TypeError, match="AccessPredicate.identities"):
        m.AccessPredicate(id="deny-h3", action=m.RuleAction.DENY, identities="user:h3")


def test_text_mechanisms_are_refused(estate):
    request = m.FlowRequest("k8s:s8-app", "sp0", "ep-s11-app")
    assert evaluate_flow(estate, request)[0] == m.deny(m.DenyReason.PERIMETER_EGRESS)
    with pytest.raises(TypeError, match="AbstractPerimeter.mechanisms"):
        replace(estate.perimeters[0], mechanisms="data-plane-perimeter")


def test_enum_text_decides_as_its_member():
    s = builtin_scenario("fig1-lift-shift")
    request = m.FlowRequest("sa:green-a", "green", "green-app")
    assert evaluate_flow(s, request)[0].allowed
    rule = m.FirewallRule(id="deny-all", scope=m.ORG_SCOPE, action="deny", src=("*",), dst=("*",), priority=1)
    assert rule.action is m.RuleAction.DENY
    decision, trace = evaluate_flow(replace(s, firewall_rules=(rule,) + s.firewall_rules), request)
    assert decision == m.deny(m.DenyReason.HIER_FIREWALL)
    assert trace[1].point is m.PointKind.HIER_FIREWALL and trace[1].rule == "deny-all"


@pytest.mark.parametrize("name", ["fig1-lift-shift", "fig4-landing-point", "fig11-combined"])
def test_payload_tags_given_as_a_set_or_list_decide_like_a_frozenset(name):
    s = builtin_scenario(name)
    for r in [m.FlowRequest(p.id, m.ONPREM, svc.id, payload_tags=frozenset({"pii:true", "data:x"}))
              for p in s.principals for svc in s.services]:
        expected = evaluate_flow(s, r)
        for form in (set, list, sorted):
            assert evaluate_flow(s, replace(r, payload_tags=form(r.payload_tags))) == expected


def test_text_entity_list_is_refused():
    s = builtin_scenario("fig1-lift-shift")
    with pytest.raises(TypeError, match="Scenario.principals"):
        replace(s, principals="alice")


@pytest.mark.parametrize("mechanism", list(compiler.CompileMechanism), ids=lambda x: x.value)
def test_text_mechanism_verifies_as_its_member(mechanism):
    s = builtin_scenario("fig4-landing-point")
    compiled = compiler.compile_perimeter(s, "green", mechanism)
    expected = compiler.verify_compilation(s, compiled)
    report = compiler.verify_compilation(s, replace(compiled, mechanism=mechanism.value))
    assert report.mechanism is mechanism
    assert report == expected and report.equivalent is (mechanism is compiler.CompileMechanism.HYBRID)
    assert records.divergence_records(report) == records.divergence_records(expected)


@pytest.mark.parametrize("name, perimeter, mechanism, field", [
    ("fig4-landing-point", "green", "lift-shift", "firewall_rules"),
    ("fig4-landing-point", "green", "hybrid", "firewall_rules"),
    ("fig5-vm", "green", "zero-trust", "bindings"),
])
def test_rule_lists_verify_as_tuples(name, perimeter, mechanism, field):
    s = builtin_scenario(name)
    compiled = compiler.compile_perimeter(s, perimeter, mechanism)
    expected = compiler.verify_compilation(s, compiled)
    assert expected.divergences or mechanism == "hybrid"
    listed = replace(compiled, **{field: list(getattr(compiled, field))})
    assert listed == compiled
    assert compiler.verify_compilation(s, listed) == expected
