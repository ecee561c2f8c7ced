"""The scenario index: the facts it derives once, and validation reading them.

The index keeps each node's ancestor chain and each perimeter's members as
the model's reference walks (``m.ancestors``, ``m.resolve_members``) give
them. It is built only for a scenario with no violations: on any other, the
walks' errors show as the refusal's violations, and no index is kept.
Validation reports from those facts, so its output must not depend on what
queries ran on the index first.
"""

import contextlib
import dataclasses
import random
import sys
from pathlib import Path

import pytest

from cloudperim import (
    TEMPLATE_NAMES,
    builtin_scenario,
    evaluate_flow,
    lint,
    parse_scenario,
    validate_scenario,
)
from cloudperim import model as m
from cloudperim.analysis import default_request_space
from cloudperim.errors import CloudPerimError, InvalidHierarchyError, InvalidScenarioError, UnknownNodeError

sys.path.insert(0, str(Path(__file__).parent))
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import genrandom  # noqa: E402
from perfbench import gen  # noqa: E402  (read-only: the benchmark's estate generator)


def _outcome(walk):
    try:
        return walk()
    except CloudPerimError as e:
        return e


def _walk_violations(s, chains, members):
    """(code, subject) of the violations the reference walks' errors stand
    for: the first node whose walk meets a cycle, each node naming an unknown
    parent, and each perimeter that resolves to no project."""
    out = set()
    cycle = next((nid for nid, chain in chains.items() if isinstance(chain, InvalidHierarchyError)), None)
    if cycle is not None:
        out.add(("PARENT_CYCLE", cycle))
    for chain in chains.values():
        if isinstance(chain, UnknownNodeError):
            out.update(("UNKNOWN_REF", n.id) for n in s.nodes if n.parent == str(chain))
    out.update(
        ("EMPTY_PERIMETER", p.id) for p, x in zip(s.perimeters, members) if isinstance(x, m.EmptyPerimeterError)
    )
    return out


def _assert_index_matches_walks(s):
    nodes = {n.id: n for n in s.nodes}
    chains = {n.id: _outcome(lambda: tuple(m.ancestors(n.id, nodes))) for n in s.nodes}
    members = [_outcome(lambda: m.resolve_members(p, nodes)) for p in s.perimeters]
    violations = validate_scenario(s)
    reported = {
        (v.code, v.subject)
        for v in violations
        if v.code in ("PARENT_CYCLE", "EMPTY_PERIMETER") or v.message.startswith("unknown parent node")
    }
    assert reported == _walk_violations(s, chains, members)
    if violations:
        with pytest.raises(InvalidScenarioError) as refused:
            s.index()
        assert list(refused.value.violations) == violations
        assert s._index is None
        return
    idx = s.index()
    for node, expected in chains.items():
        assert idx.chains[node] == expected, node
    assert "no-such-node" not in idx.chains
    assert list(idx.perimeter_members) == members
    assert idx.memberships() == {p.id: x for p, x in zip(s.perimeters, members)}


def _broken_hierarchies(s):
    """``s`` with each non-organization node re-parented onto itself, onto an
    unknown node, and onto one of its children (a cycle)."""
    for i, n in enumerate(s.nodes):
        if n.kind is m.NodeKind.ORGANIZATION:
            continue
        children = [x.id for x in s.nodes if x.parent == n.id]
        for parent in [n.id, "ghost"] + children[:1]:
            node = dataclasses.replace(n, parent=parent)
            yield dataclasses.replace(s, nodes=s.nodes[:i] + (node,) + s.nodes[i + 1 :])


@pytest.mark.parametrize("name", TEMPLATE_NAMES)
def test_index_facts_match_the_reference_walks_on_templates(name):
    s = builtin_scenario(name)
    _assert_index_matches_walks(dataclasses.replace(s))
    for broken in _broken_hierarchies(s):
        _assert_index_matches_walks(broken)


@pytest.mark.parametrize("spokes", [4, 12, 40])
def test_index_facts_match_the_reference_walks_on_estates(spokes):
    s = parse_scenario(gen.hub_and_spoke(spokes, seed=0).text())
    _assert_index_matches_walks(s)
    empty = dataclasses.replace(s.perimeters[0], members=m.MemberSelector(projects=("gone",)))
    _assert_index_matches_walks(dataclasses.replace(s, perimeters=s.perimeters + (empty,)))


def test_index_facts_match_the_reference_walks_on_random_scenarios():
    for seed in range(60):
        s = genrandom.random_scenario(random.Random(seed), with_edges=seed % 2 == 1)
        _assert_index_matches_walks(s)
        for broken in _broken_hierarchies(s):
            _assert_index_matches_walks(broken)


def _query(s):
    """Build ``s``'s index and fill its memos: evaluate requests, then lint."""
    requests = default_request_space(s)
    for r in requests[:: max(1, len(requests) // 60)]:
        with contextlib.suppress(CloudPerimError):
            evaluate_flow(s, r)
    with contextlib.suppress(CloudPerimError):
        lint(s)


def _assert_validation_ignores_index_state(s):
    cold = validate_scenario(dataclasses.replace(s))
    warm = dataclasses.replace(s)
    _query(warm)
    assert warm.index().legs or cold, "a valid scenario's queries fill the index"
    assert validate_scenario(warm) == cold


@pytest.mark.parametrize("name", TEMPLATE_NAMES)
def test_validation_does_not_depend_on_index_state_on_templates(name):
    _assert_validation_ignores_index_state(builtin_scenario(name))


def test_validation_does_not_depend_on_index_state_on_mutated_scenarios():
    for seed in range(20):
        s = genrandom.random_scenario(random.Random(seed), with_edges=True)
        _assert_validation_ignores_index_state(s)
        for mutation in genrandom.MUTATIONS:
            mutated = mutation(random.Random(f"{seed}:{mutation.__name__}"), s)
            if mutated is not None:
                _assert_validation_ignores_index_state(mutated)


@pytest.mark.parametrize("ends", [("ONPREM", "green", "yellow"), ("ONPREM",)], ids=["three", "one"])
def test_edge_without_two_ends_is_reported_and_joins_nothing(ends):
    s = builtin_scenario("fig1-lift-shift")
    edge = next(e for e in s.edges if e.id == "ic-green")
    others = tuple(e for e in s.edges if e is not edge)
    malformed = dataclasses.replace(s, edges=others + (dataclasses.replace(edge, ends=ends),))
    violations = validate_scenario(malformed)
    assert [(v.code, v.subject) for v in violations] == [("BAD_VALUE", edge.id)]
    for r in default_request_space(s):
        with pytest.raises(InvalidScenarioError) as refused:
            evaluate_flow(malformed, r)
        assert list(refused.value.violations) == violations
    assert malformed._index is None


# ---------------------------------------------------------------------------
# The perimeter facts that compilation and lint share, against brute force
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def perimeter_corpus():
    """(name, scenario) for the templates, two estates and 50 random scenarios."""
    return (
        [(name, builtin_scenario(name)) for name in TEMPLATE_NAMES]
        + [(f"spokes{n}", parse_scenario(gen.hub_and_spoke(n, 0, 0).text())) for n in (12, 40)]
        + [(f"random{seed}", genrandom.random_scenario(random.Random(seed))) for seed in range(50)]
    )


def _members_by_walk(s):
    """Perimeter id -> its member projects, by the model's reference walk."""
    nodes = {n.id: n for n in s.nodes}
    return {p.id: m.resolve_members(p, nodes) for p in s.perimeters}


def test_member_segments_are_each_member_projects_segments_by_id(perimeter_corpus):
    seen = 0
    for name, s in perimeter_corpus:
        idx = s.index()
        for pid, members in _members_by_walk(s).items():
            want = sorted(seg.id for seg in s.segments if seg.project in members)
            assert [seg.id for seg in idx.member_segments(members)] == want, (name, pid)
            assert [seg.id for seg in idx.member_segments(idx.memberships()[pid])] == want, (name, pid)
            seen += len(want)
    assert seen > 100


def test_common_folders_are_the_folders_above_every_member_root_first(perimeter_corpus):
    differing = 0
    for name, s in perimeter_corpus:
        nodes = {n.id: n for n in s.nodes}
        idx = s.index()

        def folders(node):
            return [x for x in m.ancestors(node, nodes) if nodes[x].kind is m.NodeKind.FOLDER]

        for pid, members in _members_by_walk(s).items():
            common = set.intersection(*(set(folders(prj)) for prj in members))
            want = tuple(sorted(common, key=lambda f: len(m.ancestors(f, nodes))))
            assert idx.common_folders(members) == want, (name, pid)
            differing += len({tuple(folders(prj)) for prj in members}) > 1
    assert differing > 5  # members under different folders, so the intersection matters


def test_internet_posture_is_a_per_rule_scan_of_egress(perimeter_corpus):
    def scan(p):
        for rule in p.egress:
            if not rule.targets:
                return True  # a rule with no targets admits any, INTERNET too
            for t in rule.targets:
                if t.service == m.INTERNET:
                    return True
        return False

    postures = {True: 0, False: 0}
    for name, s in perimeter_corpus:
        for p in s.perimeters:
            assert p.allows_internet is scan(p), (name, p.id)
            postures[scan(p)] += 1
    targetless = [(name, p.id) for name, s in perimeter_corpus for p in s.perimeters
                  if any(not r.targets for r in p.egress)]
    assert min(postures.values()) > 5 and len(targetless) > 5
    # a ``*`` target is not INTERNET
    star = m.AbstractPerimeter(
        id="p", name="p", members=m.MemberSelector(),
        egress=(m.PerimeterRule(id="r", targets=(m.PerimeterTarget(service=m.ANY),)),),
    )
    assert not star.allows_internet


def test_lowest_priority_at_a_scope_is_the_minimum_over_its_rules(perimeter_corpus):
    for name, s in perimeter_corpus:
        idx = s.index()
        for scope in {r.scope for r in s.firewall_rules} | {m.ORG_SCOPE, "folder:nowhere"}:
            want = min((r.priority for r in s.firewall_rules if r.scope == scope), default=1000)
            assert idx.lowest_priority(scope) == want, (name, scope)
