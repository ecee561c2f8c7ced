"""An edited scenario re-derives only what its edit touched, and never reads a stale fact.

A version made with ``dataclasses.replace`` keeps the facts, text checks and
check families (``scenario._READS``) whose fields are all the objects of the
last version that built clean, and ``diff_decisions`` hands its after-side
the credential chains and target tags whose fields both versions share, the
route trees while the facts the route search reads are equal, and each
network leg that ``engine.leg_check`` accepts. Each version here is built
twice: incrementally, right after its parent built clean, and from scratch
with that memo cleared. Its violations (text and order), every fact, the diff
against its parent and every entry of the taken query memos must be the same
both ways, and an earlier leg is taken exactly when the leg check accepts it.
"""

import contextlib
import dataclasses
import random
import sys
import typing
from enum import Enum
from pathlib import Path
from typing import Mapping

import pytest

from cloudperim import analysis, builtin_scenario, engine, identity, parse_scenario, route, scenario
from cloudperim import model as m
from cloudperim.analysis import default_request_space, diff_decisions
from cloudperim.errors import CloudPerimError
from cloudperim.scenario import validate_scenario

sys.path.insert(0, str(Path(__file__).parent))
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import genrandom  # noqa: E402
import workloads  # noqa: E402  (read-only: the benchmark's edits and their replay)

FACTS = (*scenario._CHECKED_FACTS, *scenario._FACTS)
QUERY_MEMOS = ("legs", "route_trees", "credential_chains", "target_tags", "decisions", "principal_classes")
# the query memos ``diff_decisions`` fills from the earlier version's
TAKEN_MEMOS = (*scenario._TAKEN_QUERIES, "route_trees", "legs")
EDIT_SEEDS = range(5)


@contextlib.contextmanager
def _cleared():
    """Builds inside derive every fact and run every check, as the first build of a process does."""
    saved = scenario._last_clean
    scenario._last_clean = scenario._Clean({}, {})
    try:
        yield
    finally:
        scenario._last_clean = saved


def _outcome(call):
    """What ``call()`` returns, or the class and text of the error it raises."""
    try:
        return call()
    except CloudPerimError as e:
        return type(e), str(e), getattr(e, "violations", None)


def _scratch_entry(s, memo, key):
    """The entry ``key`` of ``s``'s query memo ``memo``, derived anew."""
    idx = s.index()
    if memo == "legs":
        return engine._network_leg(s, idx, key)
    if memo == "route_trees":
        return route._search(idx, *key)
    if memo == "credential_chains":
        return identity._chains(idx, idx.principals[key], s.chain_bound)
    return engine.target_tags(s, idx.services[key])


def _assert_incremental_equals_scratch(before, after, requests, label=""):
    """``after`` built right after ``before`` (valid, evaluated on ``requests``)
    built clean gives what a build from scratch gives."""
    dataclasses.replace(before).index()  # the memo now holds ``before``'s fields
    for r in requests:
        _outcome(lambda: engine.evaluate_flow(before, r))
    violations = validate_scenario(after)
    with _cleared():
        scratch = dataclasses.replace(after)
        expected = validate_scenario(scratch)
    assert [str(v) for v in violations] == [str(v) for v in expected], label
    assert violations == expected, label
    if not violations:
        idx, scratch_idx = after.index(), scratch.index()
        for name in FACTS:
            assert getattr(idx, name) == getattr(scratch_idx, name), (label, name)
    diffs = _outcome(lambda: diff_decisions(before, after, requests))
    with _cleared():
        assert diffs == _outcome(lambda: diff_decisions(dataclasses.replace(before), scratch, requests)), label
    if not violations:
        # each request's leg is the earlier one exactly when the leg check accepts that
        earlier, later = before.index(), after.index()
        holds = engine.leg_check(earlier, later)
        for key, leg in later.legs.items():
            assert (leg is earlier.legs.get(key)) == (key in earlier.legs and holds(earlier.legs[key])), (label, key)
        for memo in TAKEN_MEMOS:
            for key, entry in getattr(later, memo).items():
                assert entry == _scratch_entry(scratch, memo, key), (label, memo, key)


def _sample(s, count=40, seed=0):
    requests = default_request_space(s)
    return random.Random(seed).sample(requests, min(count, len(requests)))


# ---------------------------------------------------------------------------
# One-field edits: every version differs from its parent in one top-level field
# ---------------------------------------------------------------------------


def _alternatives(value, pool):
    """Other values for a field holding ``value``: up to three that fields of
    its name hold elsewhere in the scenario (``pool``), and a few that break
    or widen it, each of the field's own type where it has one."""
    borrowed = []
    for v in pool:
        if v != value and v not in borrowed and len(borrowed) < 3:
            borrowed.append(v)
    if isinstance(value, Enum):
        return [next(x for x in type(value) if x is not value)]
    if isinstance(value, bool):
        return [not value, "no"]
    if isinstance(value, int):
        return borrowed + ["5"]
    if isinstance(value, str):  # a scope or tag keeps its shape, naming what is not there
        return borrowed + ["ghost", 5] + [f"{value.partition(':')[0]}:ghost"] * (":" in value)
    if value is None:
        return [v for v in borrowed if v is not None]
    if isinstance(value, frozenset):
        if value and isinstance(next(iter(value)), Enum):
            return borrowed + [frozenset()]
        return borrowed + [value | {"bad"}, value | {"ghost:ghost"}]
    if isinstance(value, Mapping):
        return borrowed + [{}, {**value, "ghost": "ghost"}]
    if isinstance(value, tuple):
        if value and isinstance(value[0], tuple):
            return borrowed + [value + ((90, 80),)]
        return borrowed + [(), value + ("ghost",)]
    return []


def _holds_entities(cls, name):
    """Whether field ``name`` of ``cls`` is a tuple of model entities."""
    hint = typing.get_type_hints(cls)[name]
    return typing.get_origin(hint) is tuple and dataclasses.is_dataclass(typing.get_args(hint)[0])


def _pool(entities, pool):
    """Add the value of each field of ``entities``, and of the entities they hold, to ``pool`` by field name."""
    for entity in entities:
        for f in dataclasses.fields(entity):
            value = getattr(entity, f.name)
            if _holds_entities(type(entity), f.name):
                _pool(value, pool)
            elif dataclasses.is_dataclass(value):
                _pool((value,), pool)
            else:
                pool.setdefault(f.name, []).append(value)
    return pool


def _entity_edits(entity, pool):
    """``entity`` with one of its fields, or one field of an entity it holds, changed."""
    for f in dataclasses.fields(entity):
        value = getattr(entity, f.name)
        if _holds_entities(type(entity), f.name):
            for j, nested in enumerate(value):
                yield dataclasses.replace(entity, **{f.name: value[:j] + value[j + 1:]})
                for changed in _entity_edits(nested, pool):
                    yield dataclasses.replace(entity, **{f.name: value[:j] + (changed,) + value[j + 1:]})
            continue
        if dataclasses.is_dataclass(value):
            for changed in _entity_edits(value, pool):
                yield dataclasses.replace(entity, **{f.name: changed})
            continue
        for alternative in _alternatives(value, pool.get(f.name, ())):
            try:
                yield dataclasses.replace(entity, **{f.name: alternative})
            except (TypeError, ValueError):
                continue  # a value the model type refuses to hold


def one_field_edits(s):
    """(label, version) of ``s`` with one entity list changed: an entity
    dropped, one duplicated, or one field of one entity changed; and ``s``
    with each of a few chain bounds."""
    pool = _pool([x for f, _ in scenario._SCENARIO.nested for x in getattr(s, f.attr)], {})
    for f, _ in scenario._SCENARIO.nested:
        entities = getattr(s, f.attr)
        for j, entity in enumerate(entities):
            yield f"{f.attr}[{j}] dropped", dataclasses.replace(s, **{f.attr: entities[:j] + entities[j + 1:]})
            for changed in _entity_edits(entity, pool):
                changed_list = entities[:j] + (changed,) + entities[j + 1:]
                yield f"{f.attr}[{j}] changed", dataclasses.replace(s, **{f.attr: changed_list})
        if entities:
            yield f"{f.attr}[0] duplicated", dataclasses.replace(s, **{f.attr: entities + entities[:1]})
    for bound in (1, 2, 0, "4"):
        yield f"chain_bound {bound!r}", dataclasses.replace(s, chain_bound=bound)


ONE_FIELD_BASES = {
    **{name: lambda name=name: builtin_scenario(name) for name in ("fig11-combined", "fig5-vm", "fig6-k8s")},
    "random deep": lambda: genrandom.random_scenario(
        random.Random(7), with_edges=True, with_trust_edges=True, deep_folders=True
    ),
}


@pytest.mark.parametrize("name", ONE_FIELD_BASES)
def test_every_one_field_edit_equals_a_build_from_scratch(name):
    base = dataclasses.replace(ONE_FIELD_BASES[name]())
    assert validate_scenario(base) == []
    analysis.reachability_matrix(base)  # every leg, route tree, credential chain and target tag
    requests = _sample(base)
    count = 0
    for label, version in one_field_edits(base):
        _assert_incremental_equals_scratch(base, version, requests, label)
        count += 1
    assert count > 200


# ---------------------------------------------------------------------------
# The benchmark's restriction edits, and the random restriction mutators
# ---------------------------------------------------------------------------


def replay_policy_edits(seed):
    """Each edit of policy-edits seed ``seed``, checked against a build from scratch."""
    w = workloads.WORKLOADS["policy-edits"](seed)
    w.prepare()
    prev = parse_scenario(w.text)
    for edit in w.edits:
        nxt = workloads.apply_edit(prev, edit)
        _assert_incremental_equals_scratch(prev, nxt, w.sample, f"seed {seed} edit {edit}")
        prev = nxt
    return len(w.edits)


@pytest.mark.parametrize("seed", EDIT_SEEDS)
def test_policy_edits_equal_builds_from_scratch(seed):
    assert replay_policy_edits(seed) == 60


def test_random_mutations_equal_builds_from_scratch():
    applied = set()
    for seed in range(12):
        rng = random.Random(seed)
        s = genrandom.random_scenario(
            rng, with_edges=True, with_trust_edges=seed % 2 == 0, deep_folders=seed % 3 == 0
        )
        assert validate_scenario(s) == []
        requests = [genrandom.random_request(rng, s) for _ in range(30)]
        for mutation in genrandom.MUTATIONS:
            mutated = mutation(random.Random(f"{seed}:{mutation.__name__}"), s)
            if mutated is not None:
                _assert_incremental_equals_scratch(s, mutated, requests, mutation.__name__)
                applied.add(mutation.__name__)
    assert applied == {mutation.__name__ for mutation in genrandom.MUTATIONS}


# ---------------------------------------------------------------------------
# What a version reuses, and what it never inherits
# ---------------------------------------------------------------------------


def test_a_copy_starts_with_every_query_memo_empty():
    s = dataclasses.replace(builtin_scenario("fig11-combined"))
    analysis.reachability_matrix(s)
    for r in default_request_space(s):
        engine.evaluate_flow(s, r)
    assert all(getattr(s.index(), memo) for memo in QUERY_MEMOS)
    copy = dataclasses.replace(s).index()
    assert {memo: getattr(copy, memo) for memo in QUERY_MEMOS} == dict.fromkeys(QUERY_MEMOS, {})


def _kinds_of_edit(seed=0):
    """One edit of each kind of the policy-edits workload, each applied to the estate."""
    w = workloads.WORKLOADS["policy-edits"](seed)
    w.prepare()
    base = parse_scenario(w.text)
    kinds = {}
    for edit in w.edits:
        kinds.setdefault(edit["kind"], workloads.apply_edit(base, edit))
    return base, w.sample, kinds


def test_an_edit_rederives_only_the_facts_that_read_its_field():
    base, _, kinds = _kinds_of_edit()
    for kind, version in kinds.items():
        before = dataclasses.replace(base).index()
        after = version.index()
        (edited,) = [f for f in scenario._FIELDS if getattr(version, f) is not getattr(base, f)]
        kept = {name for name in FACTS if getattr(after, name) is getattr(before, name)}
        # a fact that reads the field is derived again (though an empty one may be the same object)
        assert kept >= {name for name in FACTS if edited not in scenario._READS[name]}, kind
        if kind == "add_perimeter":
            # each perimeter the estate held keeps its members; only the new one resolves its own
            assert all(a is b for a, b in zip(after.perimeter_members, before.perimeter_members))
            assert len(after.perimeter_members) == len(before.perimeter_members) + 1


def test_a_check_family_runs_only_when_a_field_it_reads_changed(monkeypatch):
    base, _, kinds = _kinds_of_edit()
    ran = []
    for name, (reads, check) in scenario._CHECKS.items():
        monkeypatch.setitem(scenario._CHECKS, name, (reads, lambda s, idx, out, name=name, check=check: (
            ran.append(name), check(s, idx, out))))
    for kind, version in kinds.items():
        dataclasses.replace(base).index()
        ran.clear()
        version.index()
        (edited,) = [f for f in scenario._FIELDS if getattr(version, f) is not getattr(base, f)]
        assert ran == [name for name, (reads, _) in scenario._CHECKS.items() if edited in reads], kind


def test_diff_decisions_takes_only_the_queries_an_edit_cannot_change():
    """Credential chains and target tags are taken whole where the fields
    they read are the same objects, route trees where the routing topology
    is equal (no policy edit changes it), and legs one at a time."""
    base, sample, kinds = _kinds_of_edit()
    for kind, version in kinds.items():
        before = dataclasses.replace(base)
        for r in sample:
            engine.evaluate_flow(before, r)
        diff_decisions(before, version, sample)
        (edited,) = [f for f in scenario._FIELDS if getattr(version, f) is not getattr(base, f)]
        earlier, later = before.index(), version.index()
        for memo in TAKEN_MEMOS:
            theirs, ours = getattr(earlier, memo), getattr(later, memo)
            shared = {key for key in theirs if key in ours and ours[key] is theirs[key]}
            if memo == "legs":
                holds = engine.leg_check(earlier, later)
                assert shared == {key for key, leg in theirs.items() if holds(leg)}, kind
                if kind == "drop_binding":  # no leg reads the bindings
                    assert shared == set(theirs)
                else:  # each other edit reaches a few of the sample's legs at most
                    assert len(shared) > len(theirs) / 2, kind
            else:
                taken = memo == "route_trees" or edited not in scenario._TAKEN_QUERIES[memo]
                assert shared == (set(theirs) if taken else set()), (kind, memo)


def test_diff_decisions_still_evaluates_every_request_on_both_sides(monkeypatch):
    base, sample, kinds = _kinds_of_edit()
    calls = []
    original = analysis.evaluate_flow
    monkeypatch.setattr(analysis, "evaluate_flow", lambda s, r: calls.append(s) or original(s, r))
    before = dataclasses.replace(base)
    for version in kinds.values():
        calls.clear()
        diff_decisions(before, version, sample)
        assert calls == [before, version] * len(sample)


def test_the_read_table_names_every_fact_check_and_taken_memo_once():
    texts = [f"text {f.attr}" for f, _ in scenario._SCENARIO.nested]
    named = [*texts, *FACTS, *scenario._CHECKS, *scenario._TAKEN_QUERIES]
    # the read table merges these tables, so a name in two of them would lose one's reads
    assert len(set(named)) == len(named) == len(scenario._READS)
    fields = {f.name for f in dataclasses.fields(scenario.Scenario)}
    assert all(reads and set(reads) <= fields for reads in scenario._READS.values())
    assert set(engine._LEG_CLAUSES) <= fields


# ---------------------------------------------------------------------------
# Legs taken one at a time, and route trees taken on the topology
# ---------------------------------------------------------------------------

NO_TAGS = frozenset()
# legs of fig11, keyed as its reachability matrix keys them
GREEN_TO_PAY = ("green", "yellow-pay", None, NO_TAGS)
GREEN_TO_APP = ("green", "green-app", None, NO_TAGS)
YELLOW_TO_INTERNET = ("yellow", "INTERNET", None, NO_TAGS)
YELLOW_TO_STORE = ("yellow", "yellow-store", None, NO_TAGS)
YELLOW_TO_PAY = ("yellow", "yellow-pay", None, NO_TAGS)
YELLOW_TO_APP = ("yellow", "green-app", None, NO_TAGS)


def _fig11():
    return dataclasses.replace(builtin_scenario("fig11-combined"))


def _replaced(entities, entity_id, **changes):
    return tuple(dataclasses.replace(x, **changes) if x.id == entity_id else x for x in entities)


def _legs_taken(before, after):
    """The keys of ``before``'s legs, one for each (locus, target) of its
    reachability matrix, that ``diff_decisions`` over a request on each hands
    to ``after``, and all of ``before``'s legs by key; each taken leg is the
    leg a build from scratch gives."""
    before = dataclasses.replace(before)
    analysis.reachability_matrix(before)
    assert validate_scenario(after) == []
    principal = before.principals[0].id
    diff_decisions(before, after, [m.FlowRequest(principal, key[0], key[1]) for key in before.index().legs])
    theirs, ours = before.index().legs, after.index().legs
    taken = {key for key in theirs if ours.get(key) is theirs[key]}
    assert set(ours) == set(theirs)
    with _cleared():
        scratch = dataclasses.replace(after)
        for key in taken:
            assert ours[key] == engine._network_leg(scratch, scratch.index(), key), key
    assert GREEN_TO_PAY in theirs and YELLOW_TO_STORE in theirs
    return taken, theirs


def _firewall_rule(rule_id, dst, priority=50, scope=m.ORG_SCOPE, action=m.RuleAction.DENY):
    return m.FirewallRule(id=rule_id, scope=scope, priority=priority, action=action, src=(m.ANY,), dst=(dst,))


def _crossing(legs, edge):
    """The keys of the ``legs`` whose path crosses ``edge``."""
    return {key for key, leg in legs.items() if leg.path and any(hop.edge == edge for hop in leg.path.hops)}


def test_an_equal_copy_of_a_field_the_check_compares_takes_every_leg():
    s = _fig11()
    for field in (f for f, clause in engine._LEG_CLAUSES.items() if clause is not None):
        taken, legs = _legs_taken(s, dataclasses.replace(s, **{field: tuple(list(getattr(s, field)))}))
        assert taken == set(legs), field


def test_any_other_field_the_legs_read_takes_no_leg():
    s = _fig11()
    others = {f for f, clause in engine._LEG_CLAUSES.items() if clause is None}
    assert others == {"nodes", "segments", "services", "attachments"}
    for field in others:
        taken, _ = _legs_taken(s, dataclasses.replace(s, **{field: tuple(list(getattr(s, field)))}))
        assert taken == set(), field


def test_a_firewall_rule_keeps_the_legs_it_does_not_match():
    s = _fig11()
    # yellow-pay's host: the legs toward it match, the legs toward green do not
    after = dataclasses.replace(s, firewall_rules=s.firewall_rules + (_firewall_rule("deny-pay", "10.2.1.10/32"),))
    taken, legs = _legs_taken(s, after)
    assert GREEN_TO_PAY not in taken and YELLOW_TO_PAY not in taken
    assert GREEN_TO_APP in taken and YELLOW_TO_APP in taken
    # a rule that matches no leg keeps them all
    nothing = _firewall_rule("deny-nothing", "192.0.2.0/24")
    assert _legs_taken(s, dataclasses.replace(s, firewall_rules=s.firewall_rules + (nothing,)))[0] == set(legs)


def test_a_firewall_rule_keeps_the_legs_outside_its_scope():
    s = _fig11()
    everything = _firewall_rule("deny-green", m.ANY, scope="segment:green")
    taken, legs = _legs_taken(s, dataclasses.replace(s, firewall_rules=s.firewall_rules + (everything,)))
    # a leg's scopes are its source segment's, or its target's when it enters from ONPREM or INTERNET
    in_green = {key for key in legs if key[0] == "green" or key[0] in m.DISTINGUISHED_LOCI and key[1] == "green-app"}
    assert taken == set(legs) - in_green
    assert GREEN_TO_APP not in taken and YELLOW_TO_APP in taken


def test_matching_rules_swapped_in_order_rebuild_the_leg():
    """Two rules in one scope that a leg matches, their priorities swapped.
    (Equal priorities in one scope are a PRIORITY_DUP, so the order of the
    rules a leg matches changes only with their priorities.)"""
    s = _fig11()
    deny, allow = _firewall_rule("deny-yellow", "10.2.0.0/16", 40), _firewall_rule(
        "allow-yellow", "10.2.0.0/16", 50, action=m.RuleAction.ALLOW
    )
    before = dataclasses.replace(s, firewall_rules=s.firewall_rules + (deny, allow))
    swapped = (dataclasses.replace(deny, priority=50), dataclasses.replace(allow, priority=40))
    after = dataclasses.replace(s, firewall_rules=s.firewall_rules + swapped)
    taken, _ = _legs_taken(before, after)
    assert GREEN_TO_PAY not in taken and YELLOW_TO_PAY not in taken
    assert GREEN_TO_APP in taken
    request = m.FlowRequest("sa:green-a", "green", "yellow-pay")
    assert engine.evaluate_flow(before, request)[0] != engine.evaluate_flow(after, request)[0]


def test_a_gateway_rule_keeps_the_legs_whose_path_does_not_cross_its_edge():
    s = _fig11()
    for edge, key in (("gw-yellow-inet", YELLOW_TO_INTERNET), ("gw-green-yellow", GREEN_TO_PAY)):
        taken, legs = _legs_taken(s, dataclasses.replace(s, edges=_replaced(s.edges, edge, gateway_rules=())))
        crossing = _crossing(legs, edge)
        assert key in crossing and taken == set(legs) - crossing, edge


def _one_way(s):
    return dataclasses.replace(s, edges=_replaced(s.edges, "gw-green-yellow", direction=m.EdgeDirection.OUTBOUND_ONLY))


def test_a_changed_topology_takes_no_leg():
    s = _fig11()
    assert _legs_taken(s, _one_way(s))[0] == set()


def test_reversed_edges_take_every_route_tree_and_every_leg():
    """Route trees and legs read the edges through the adjacency, which sorts
    the hops from each locus by edge id, so the order of the edges is
    nothing they read."""
    s = _fig11()
    before, after = dataclasses.replace(s), dataclasses.replace(s, edges=s.edges[::-1])
    analysis.reachability_matrix(before)
    earlier = before.index()
    diff_decisions(before, after, [m.FlowRequest(s.principals[0].id, key[0], key[1]) for key in earlier.legs])
    later = after.index()
    with _cleared():
        scratch = dataclasses.replace(after)
        for memo, count in (("route_trees", 15), ("legs", 48)):
            theirs, ours = getattr(earlier, memo), getattr(later, memo)
            assert len(theirs) == count and ours.keys() == theirs.keys(), memo
            for key, entry in ours.items():
                assert entry is theirs[key] and entry == _scratch_entry(scratch, memo, key), (memo, key)


def test_route_trees_are_taken_while_the_topology_and_non_routable_segments_hold():
    s = _fig11()
    rules_only = dataclasses.replace(s, edges=_replaced(s.edges, "gw-green-yellow", gateway_rules=()))
    trusted = dataclasses.replace(s, segments=_replaced(s.segments, "green", trust_mode=m.TrustMode.ZERO_TRUST))
    routable = dataclasses.replace(s, segments=_replaced(s.segments, "g2-net", routability=m.Routability.ROUTABLE))
    for after, taken in ((rules_only, True), (trusted, True), (routable, False), (_one_way(s), False)):
        before = dataclasses.replace(s)
        analysis.reachability_matrix(before)
        assert validate_scenario(after) == []
        diff_decisions(before, after, [])
        theirs, ours = before.index().route_trees, after.index().route_trees
        assert theirs and ours == (theirs if taken else {})
        for key, tree in ours.items():
            assert tree == route._search(after.index(), *key)


def test_a_perimeter_rebuilds_the_legs_from_and_to_its_projects():
    s = _fig11()
    perimeter = m.AbstractPerimeter(
        id="green-dp", name="green-dp", members=m.MemberSelector(projects=("prj-green",)),
        mechanisms=frozenset({m.Mechanism.DATA_PLANE_PERIMETER}),
    )
    taken, legs = _legs_taken(s, dataclasses.replace(s, perimeters=s.perimeters + (perimeter,)))
    assert GREEN_TO_PAY not in taken and YELLOW_TO_APP not in taken  # its source's, then its target's
    assert taken == {key for key in legs if key[0] != "green" and key[1] != "green-app"}


def test_an_endpoint_policy_rebuilds_only_the_legs_through_it():
    s = _fig11()
    (endpoint,) = [ep for ep in s.endpoints if ep.id == "ep-store"]
    after = dataclasses.replace(s, endpoints=_replaced(s.endpoints, endpoint.id, policy=endpoint.policy[1:]))
    taken, legs = _legs_taken(s, after)
    through = {key for key, leg in legs.items() if leg.endpoint is endpoint}
    assert YELLOW_TO_STORE in through and taken == set(legs) - through


def test_an_endpoint_moved_to_another_segment_takes_no_leg():
    s = _fig11()
    moved = dataclasses.replace(s, endpoints=_replaced(s.endpoints, "ep-g2", segment="yellow", address="10.2.5.11"))
    assert _legs_taken(s, moved)[0] == set()
