"""Hierarchy, tag, and membership queries."""

import random

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from cloudperim import builtin_scenario, template_text
from cloudperim import model as m
from cloudperim.errors import EmptyPerimeterError, InvalidHierarchyError, UnknownNodeError


def _nodes(*specs):
    out = {}
    for spec in specs:
        node = m.ResourceNode(**spec)
        out[node.id] = node
    return out


def test_ancestors_of_org_is_itself():
    nodes = _nodes({"id": "org", "kind": m.NodeKind.ORGANIZATION})
    assert m.ancestors("org", nodes) == ["org"]


def test_ancestors_project_under_folder():
    nodes = _nodes(
        {"id": "O", "kind": m.NodeKind.ORGANIZATION},
        {"id": "F", "kind": m.NodeKind.FOLDER, "parent": "O"},
        {"id": "P", "kind": m.NodeKind.PROJECT, "parent": "F"},
    )
    assert m.ancestors("P", nodes) == ["O", "F", "P"]


def test_ancestors_unknown_node():
    with pytest.raises(UnknownNodeError):
        m.ancestors("nope", _nodes({"id": "org", "kind": m.NodeKind.ORGANIZATION}))


def test_ancestors_detects_cycle():
    nodes = _nodes(
        {"id": "a", "kind": m.NodeKind.FOLDER, "parent": "b"},
        {"id": "b", "kind": m.NodeKind.FOLDER, "parent": "a"},
    )
    with pytest.raises(InvalidHierarchyError):
        m.ancestors("a", nodes)


def test_fig4_yellow_project_chain_matches_document_walk():
    # independent oracle: walk the raw template document's parent pointers
    doc = yaml.safe_load(template_text("fig4-landing-point"))
    parents = {e["id"]: e.get("parent") for e in doc["hierarchy"]}
    chain = ["prj-yellow"]
    while parents[chain[-1]] is not None:
        chain.append(parents[chain[-1]])
    chain.reverse()

    s = builtin_scenario("fig4-landing-point")
    assert m.ancestors("prj-yellow", s.index().nodes) == chain
    assert chain[0] == "org" and chain[-1] == "prj-yellow"


def test_effective_tags_empty():
    nodes = _nodes(
        {"id": "org", "kind": m.NodeKind.ORGANIZATION},
        {"id": "p", "kind": m.NodeKind.PROJECT, "parent": "org"},
    )
    assert m.effective_tags("p", nodes) == frozenset()


def test_effective_tags_bucket_under_untagged_project():
    nodes = _nodes(
        {"id": "org", "kind": m.NodeKind.ORGANIZATION},
        {"id": "p", "kind": m.NodeKind.PROJECT, "parent": "org"},
        {"id": "bucket", "kind": m.NodeKind.RESOURCE, "parent": "p", "tags": frozenset({"pii:true"})},
    )
    assert m.effective_tags("bucket", nodes) == frozenset({"pii:true"})


def test_effective_tags_union_of_folder_and_project():
    nodes = _nodes(
        {"id": "org", "kind": m.NodeKind.ORGANIZATION},
        {"id": "f", "kind": m.NodeKind.FOLDER, "parent": "org", "tags": frozenset({"dept:risk"})},
        {"id": "p", "kind": m.NodeKind.PROJECT, "parent": "f", "tags": frozenset({"pii:false"})},
    )
    # oracle: plain union, no key collisions
    assert m.effective_tags("p", nodes) == frozenset({"dept:risk"}) | frozenset({"pii:false"})


def test_effective_tags_nearest_definition_wins():
    nodes = _nodes(
        {"id": "org", "kind": m.NodeKind.ORGANIZATION, "tags": frozenset({"env:dev"})},
        {"id": "p", "kind": m.NodeKind.PROJECT, "parent": "org", "tags": frozenset({"env:prod"})},
    )
    assert m.effective_tags("p", nodes) == frozenset({"env:prod"})


def _random_hierarchy(rng: random.Random):
    nodes = {"org": m.ResourceNode(id="org", kind=m.NodeKind.ORGANIZATION)}
    folders = ["org"]
    for i in range(rng.randint(0, 4)):
        fid = f"f{i}"
        tags = frozenset({f"env:{rng.choice(['prod', 'dev'])}"} if rng.random() < 0.5 else set())
        nodes[fid] = m.ResourceNode(
            id=fid, kind=m.NodeKind.FOLDER, parent=rng.choice(folders), tags=tags
        )
        folders.append(fid)
    for i in range(rng.randint(1, 6)):
        pid = f"p{i}"
        tags = frozenset({f"env:{rng.choice(['prod', 'dev'])}"} if rng.random() < 0.5 else set())
        nodes[pid] = m.ResourceNode(
            id=pid, kind=m.NodeKind.PROJECT, parent=rng.choice(folders), tags=tags
        )
    return nodes


def test_resolve_members_direct_folder_containment():
    nodes = _nodes(
        {"id": "org", "kind": m.NodeKind.ORGANIZATION},
        {"id": "f", "kind": m.NodeKind.FOLDER, "parent": "org"},
        {"id": "p1", "kind": m.NodeKind.PROJECT, "parent": "f"},
        {"id": "p2", "kind": m.NodeKind.PROJECT, "parent": "f"},
        {"id": "p3", "kind": m.NodeKind.PROJECT, "parent": "org"},
    )
    p = m.AbstractPerimeter(id="x", name="x", members=m.MemberSelector(folders=("f",)))
    assert m.resolve_members(p, nodes) == frozenset({"p1", "p2"})


def test_resolve_members_fig3_green_prod_excludes_dev():
    s = builtin_scenario("fig3-hierarchy")
    members = s.index().memberships()["green-prod"]
    assert members == frozenset({"prj-web-prod", "prj-api-prod"})
    assert not any("dev" in p for p in members)


def test_resolve_members_empty_raises():
    nodes = _nodes(
        {"id": "org", "kind": m.NodeKind.ORGANIZATION},
        {"id": "p1", "kind": m.NodeKind.PROJECT, "parent": "org"},
    )
    p = m.AbstractPerimeter(id="x", name="x", members=m.MemberSelector(tags=("env:prod",)))
    with pytest.raises(EmptyPerimeterError):
        m.resolve_members(p, nodes)


@pytest.mark.parametrize("seed", range(25))
def test_resolve_members_tag_selector_equals_brute_force(seed):
    rng = random.Random(seed)
    nodes = _random_hierarchy(rng)
    selector = m.AbstractPerimeter(
        id="x", name="x", members=m.MemberSelector(tags=("env:prod",))
    )
    # brute-force oracle: filter every project by its effective tags
    expected = {
        n.id
        for n in nodes.values()
        if n.kind is m.NodeKind.PROJECT and "env:prod" in m.effective_tags(n.id, nodes)
    }
    if not expected:
        with pytest.raises(EmptyPerimeterError):
            m.resolve_members(selector, nodes)
    else:
        assert m.resolve_members(selector, nodes) == frozenset(expected)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), extra=st.sampled_from(["env:prod", "dept:x", "pii:true"]))
def test_effective_tags_monotone_under_ancestor_tagging(seed, extra):
    """Adding a tag to an ancestor never removes a key from a descendant's set."""
    rng = random.Random(seed)
    nodes = _random_hierarchy(rng)
    target = rng.choice([n.id for n in nodes.values() if n.kind is m.NodeKind.PROJECT])
    ancestor = rng.choice(m.ancestors(target, nodes))
    before = m.effective_tags(target, nodes)
    tagged = dict(nodes)
    old = tagged[ancestor]
    tagged[ancestor] = m.ResourceNode(
        id=old.id, kind=old.kind, parent=old.parent, tags=old.tags | {extra}, labels=old.labels
    )
    after = m.effective_tags(target, tagged)
    assert {m.tag_key(t) for t in before} <= {m.tag_key(t) for t in after}


def test_method_matches():
    assert m.method_matches("*", "anything")
    assert m.method_matches("read", "read")
    assert not m.method_matches("read", "reader")
    assert m.method_matches("admin.*", "admin.reset")
    assert not m.method_matches("admin.*", "user.reset")


def test_tag_condition_exact_presence_and_conflict():
    cond = m.TagCondition(key="pii", value="false")
    assert cond.holds({"pii:false", "env:prod"})
    assert not cond.holds({"pii:true"})
    assert not cond.holds(set())
    assert not cond.holds({"pii:false", "pii:true"})  # conflicting values fail closed


# ---------------------------------------------------------------------------
# Immutability of mapping fields
# ---------------------------------------------------------------------------


def test_mapping_fields_are_read_only():
    p = m.Principal(id="u", kind=m.PrincipalKind.HUMAN, idp="idp", device={"managed": "true"})
    node = m.ResourceNode(id="prj", kind=m.NodeKind.PROJECT, parent="org", labels={"team": "a"})
    with pytest.raises(TypeError):
        p.device["managed"] = "false"
    with pytest.raises(TypeError):
        node.labels["team"] = "b"
    assert p.device == {"managed": "true"} and node.labels == {"team": "a"}


def test_mapping_fields_copy_their_input():
    device = {"managed": "true"}
    p = m.Principal(id="u", kind=m.PrincipalKind.HUMAN, idp="idp", device=device)
    device["managed"] = "false"
    assert p.device["managed"] == "true"


@pytest.mark.parametrize(
    "make",
    [
        lambda d: m.ResourceNode(id="n", kind=m.NodeKind.PROJECT, parent="org", labels=d),
        lambda d: m.NetworkSegment(
            id="s", project="p", routability=m.Routability.ROUTABLE, cidrs=("10.0.0.0/8",), subnets=d
        ),
        lambda d: m.PerimeterRule(id="r", device=d),
        lambda d: m.Principal(id="u", kind=m.PrincipalKind.HUMAN, idp="idp", device=d),
        lambda d: m.TrustEdge(id="t", src="a", dst="b", kind=m.TrustKind.ONE_WAY_TRUST, mapping=d),
    ],
)
def test_equal_instances_hash_equal_and_mappings_compare_by_value(make):
    a, b = make({"k": "1", "j": "2"}), make({"j": "2", "k": "1"})
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != make({"k": "other"})


def test_deny_returns_one_shared_decision_per_reason():
    for reason in m.DenyReason:
        assert m.deny(reason) is m.deny(reason)
        assert m.deny(reason) == m.Decision(m.Verdict.DENY, reason)
        assert not m.deny(reason).allowed
