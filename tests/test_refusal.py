"""One gate for broken scenarios: the index refuses a scenario with violations.

Every entry point reaches the scenario's facts through ``Scenario.index()``,
so each one must raise the same ``InvalidScenarioError``, whose violations
are ``validate_scenario``'s in order, and the scenario must keep no index.
"""

import contextlib
import dataclasses
import random
import sys
from pathlib import Path

import pytest

from cloudperim import (
    TEMPLATE_NAMES,
    analysis,
    builtin_scenario,
    compiler,
    engine,
    identity,
    lint,
    route,
    scenario,
    validate_scenario,
)
from cloudperim import model as m
from cloudperim.errors import InvalidScenarioError

sys.path.insert(0, str(Path(__file__).parent))
import genrandom  # noqa: E402


def _at(items, i, item):
    return items[:i] + (item,) + items[i + 1 :]


def broken_variants(s):
    """``s`` broken in each way validation reports: every node re-parented
    onto itself, onto an unknown node and onto a child; a two-node parent
    cycle; a duplicate node; each perimeter's selector emptied three ways;
    each edge with 3, 1 and 0 ends; each segment with a bad CIDR; a
    duplicate segment id; a firewall priority that is not an integer; a
    chain bound that is not an integer or is below 1."""
    for i, n in enumerate(s.nodes):
        if n.kind is m.NodeKind.ORGANIZATION:
            continue
        children = [x.id for x in s.nodes if x.parent == n.id]
        for parent in [n.id, "ghost"] + children[:1]:
            yield dataclasses.replace(s, nodes=_at(s.nodes, i, dataclasses.replace(n, parent=parent)))
    loop = (
        m.ResourceNode("loop-a", m.NodeKind.FOLDER, parent="loop-b"),
        m.ResourceNode("loop-b", m.NodeKind.FOLDER, parent="loop-a"),
    )
    yield dataclasses.replace(s, nodes=s.nodes + loop)
    yield dataclasses.replace(s, nodes=s.nodes + s.nodes[-1:])
    emptied = (m.MemberSelector(), m.MemberSelector(projects=("gone",)), m.MemberSelector(tags=("no:such",)))
    for i, p in enumerate(s.perimeters):
        for members in emptied:
            yield dataclasses.replace(s, perimeters=_at(s.perimeters, i, dataclasses.replace(p, members=members)))
    for i, e in enumerate(s.edges):
        for ends in (e.ends + e.ends[:1], e.ends[:1], ()):
            yield dataclasses.replace(s, edges=_at(s.edges, i, dataclasses.replace(e, ends=ends)))
    for i, seg in enumerate(s.segments):
        bad = dataclasses.replace(seg, cidrs=seg.cidrs + ("10.0.0.0/33",))
        yield dataclasses.replace(s, segments=_at(s.segments, i, bad))
    yield dataclasses.replace(s, segments=s.segments + s.segments[:1])
    for priority in (None, "5", True):
        rule = m.FirewallRule("not-an-integer", m.ORG_SCOPE, priority, m.RuleAction.DENY)
        yield dataclasses.replace(s, firewall_rules=s.firewall_rules + (rule,))
    for bound in ("4", True, 0):
        yield dataclasses.replace(s, chain_bound=bound)


def entry_points(base):
    """(name, call on a scenario) of every entry point, with arguments taken
    from the valid ``base``, so only the scenario can be at fault."""
    r = analysis.default_request_space(base)[0]
    perimeter = base.perimeters[0].id if base.perimeters else "none"
    compiled = (
        compiler.compile_perimeter(base, perimeter, "hybrid")
        if base.perimeters
        else compiler.CompiledRuleSet(perimeter_id=perimeter, mechanism=compiler.CompileMechanism.HYBRID)
    )
    tag = next((t for a in base.assets for t in sorted(a.tags)), "pci:true")
    idp = base.idps[0].id
    return [
        ("evaluate_flow", lambda s: engine.evaluate_flow(s, r)),
        ("network_leg", lambda s: engine.network_leg(s, (r.source, r.target, None, frozenset()))),
        ("reachability_matrix", lambda s: analysis.reachability_matrix(s)),
        ("reachability_matrix no principals", lambda s: analysis.reachability_matrix(s, principals=[])),
        ("blast_radius", lambda s: analysis.blast_radius(s, base.services[0].id)),
        ("blast_radius bound 0", lambda s: analysis.blast_radius(s, base.services[0].id, bound=0)),
        ("exfiltration_paths", lambda s: analysis.exfiltration_paths(s, tag, perimeter)),
        ("diff_decisions before", lambda s: analysis.diff_decisions(s, base, [r])),
        ("diff_decisions after", lambda s: analysis.diff_decisions(base, s, [r])),
        ("diff_decisions before, no requests", lambda s: analysis.diff_decisions(s, base, [])),
        ("diff_decisions after, no requests", lambda s: analysis.diff_decisions(base, s, [])),
        ("lint", lambda s: lint(s)),
        ("compile_perimeter", lambda s: compiler.compile_perimeter(s, perimeter, "lift-shift")),
        ("verify_compilation", lambda s: compiler.verify_compilation(s, compiled, [r])),
        ("resolve_path", lambda s: route.resolve_path(s, r.source, r.target)),
        ("resolve_credential", lambda s: identity.resolve_credential(s, r.principal, idp)),
    ]


def _assert_every_entry_point_refuses(base):
    assert validate_scenario(base) == []
    calls = entry_points(base)
    count = 0
    for broken in broken_variants(base):
        violations = validate_scenario(broken)
        assert violations, "each variant breaks the scenario"
        for name, call in calls:
            with pytest.raises(InvalidScenarioError) as refused:
                call(broken)
            assert list(refused.value.violations) == violations, name
        assert broken._index is None
        count += 1
    assert count > 10


@pytest.mark.parametrize("name", TEMPLATE_NAMES)
def test_every_entry_point_refuses_broken_templates(name):
    _assert_every_entry_point_refuses(dataclasses.replace(builtin_scenario(name)))


@pytest.mark.parametrize("seed", range(0, 40, 4))
def test_every_entry_point_refuses_broken_random_scenarios(seed):
    for s in range(seed, seed + 4):
        base = genrandom.random_scenario(random.Random(s), with_edges=s % 2 == 1)
        _assert_every_entry_point_refuses(base)


def test_validation_runs_once_per_scenario(monkeypatch):
    runs = []
    original = scenario._validate
    monkeypatch.setattr(scenario, "_validate", lambda s, idx: runs.append(s) or original(s, idx))
    valid = dataclasses.replace(builtin_scenario("fig1-lift-shift"))
    broken = next(broken_variants(valid))
    for s in (valid, broken):
        for _ in range(2):
            validate_scenario(s)
            with pytest.raises(InvalidScenarioError) if s is broken else contextlib.nullcontext():
                s.index()
                engine.evaluate_flow(s, analysis.default_request_space(valid)[0])
    assert len(runs) == 2 and runs[0] is valid and runs[1] is broken
    assert valid._index is not None and broken._index is None
