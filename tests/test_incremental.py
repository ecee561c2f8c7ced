"""An edited scenario re-derives only what its edit touched, and never reads a stale fact.

A version made with ``dataclasses.replace`` builds on a base: of the live
scenarios built clean on one of its entity lists, the one that shares the
most top-level fields with it (``scenario._Delta``). It
keeps the base's facts, text checks and check families
(``scenario._READS``) whose fields are all the base's objects, and
``diff_decisions`` hands its after-side what still holds of its
before-side's query memos (``engine.hand_on``): each memo whose check
(``engine._check``, built from the clauses of ``engine._MEMO_READS``)
accepts every entry, and otherwise each request's leg and class answer
where the check accepts the request's leg. Each version here is built
twice: incrementally, on a copy of its parent built just before it, and
from scratch, as a copy whose every entity is a new object, which shares
no list with any index and so has no base. Its violations (text and
order), every fact, the diff against its parent and every entry of its
query memos must be the same both ways, and an earlier leg or answer is
taken exactly when its check accepts it. A scenario owns its index, which
holds no scenario, so a version dropped is freed at once and is no base
after that: a test that wants a base holds its scenario. What else the
process built and holds may change a version's base but never what it
builds.
"""

import copy
import dataclasses
import gc
import random
import sys
import typing
import weakref
from enum import Enum
from pathlib import Path
from typing import Mapping

import pytest

from cloudperim import analysis, builtin_scenario, engine, identity, parse_scenario, prefix, route, scenario, template_text
from cloudperim import model as m
from cloudperim.analysis import default_request_space, diff_decisions
from cloudperim.errors import CloudPerimError
from cloudperim.scenario import validate_scenario

sys.path.insert(0, str(Path(__file__).parent))
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import genrandom  # noqa: E402
import workloads  # noqa: E402  (read-only: the benchmark's edits and their replay)

FACTS = (*scenario._CHECKED_FACTS, *scenario._FACTS)
QUERY_MEMOS = scenario.ScenarioIndex.QUERY_MEMOS
EDIT_SEEDS = range(5)


def _scratch(s):
    """An equal copy of ``s`` whose every entity is a new object: it shares no
    entity list with any live index, so its build derives every fact and runs
    every check, as the first build of a process does."""
    return dataclasses.replace(s, **{f: tuple(map(copy.copy, getattr(s, f))) for f in scenario._ENTITY_LISTS})


def _outcome(call):
    """What ``call()`` returns, or the class and text of the error it raises."""
    try:
        return call()
    except CloudPerimError as e:
        return type(e), str(e), getattr(e, "violations", None)


def _answer_witness(s, key):
    """The principal points' answer for the answer ``key``, run anew in ``s``
    for a request of that class whose leg ``s``'s leg memo holds; None when
    no such request is found there."""
    idx = s.index()
    context, cls, method = key
    for (source, target, address, tags), leg in list(idx.legs.items()):
        if leg.context != context:
            continue
        for principal in idx.principals.values():
            if engine.principal_class(s, principal.id, leg.idp) == cls:
                r = m.FlowRequest(principal.id, source, target, method, source_address=address, payload_tags=tags)
                return engine._steps(engine._principal_steps(s, engine.RequestContext(r, principal, leg, idx)))
    return None


def _scratch_entry(s, memo, key):
    """The entry ``key`` of ``s``'s query memo ``memo``, derived anew (None
    for an answer that no request of ``s``'s leg memo witnesses)."""
    idx = s.index()
    if memo == "legs":
        return engine._network_leg(s, idx, key)
    if memo == "answers":
        return _answer_witness(s, key)
    if memo == "principal_classes":
        return engine._principal_class(s, idx, idx.principals[key[0]], key[1])
    if memo == "route_trees":
        return route._search(idx, *key)
    if memo == "credential_chains":
        return identity._chains(idx, idx.principals[key], s.chain_bound)
    return engine.target_tags(s, idx.services[key])


def _leg(s, r):
    return s.index().legs[(r.source, r.target, r.source_address, r.payload_tags)]


def _answer_key(s, r):
    """The answer key under which ``evaluate_flow`` kept ``r``'s answer in
    ``s``, or None for a request whose leg a network point denies or that
    presents a chain."""
    leg = _leg(s, r)
    if leg.denied is not None or r.presented_chain is not None:
        return None
    return leg.context, s.index().principal_classes[(r.principal, leg.idp)], r.method


def _handed_on(before, after, requests):
    """(answer key, leg) in ``before`` of each request that ``diff_decisions``
    handed on an answer for: each in its order, up to the first that one side
    cannot evaluate, where the diff stops."""
    handed = []
    for r in sorted(requests, key=analysis.request_key):
        try:
            engine.evaluate_flow(before, r)
            key = _answer_key(before, r)
            if key is not None:
                handed.append((key, _leg(before, r)))
            engine.evaluate_flow(after, r)
        except CloudPerimError:
            break
    return handed


def _answers_expected(before, after, handed):
    """The keys of the answers ``after`` takes from ``before``: all of them
    where the check accepts every entry, else each that the check accepts on
    the leg of a request that handed it on."""
    accepts = engine._check("answers", before, after)
    if accepts is engine._always:
        return set(before.index().answers)
    return {key for key, leg in handed if accepts(leg)}


def _assert_incremental_equals_scratch(before, after, requests, label=""):
    """``after`` built right after ``before`` (valid, evaluated on ``requests``)
    built clean gives what a build from scratch gives."""
    base = dataclasses.replace(before)  # a live scenario built clean on ``before``'s lists: ``after``'s base
    base.index()
    for r in requests:
        _outcome(lambda: engine.evaluate_flow(before, r))
    violations = validate_scenario(after)
    scratch = _scratch(after)
    expected = validate_scenario(scratch)
    assert [str(v) for v in violations] == [str(v) for v in expected], label
    assert violations == expected, label
    if not violations:
        idx, scratch_idx = after.index(), scratch.index()
        for name in FACTS:
            assert getattr(idx, name) == getattr(scratch_idx, name), (label, name)
    diffs = _outcome(lambda: diff_decisions(before, after, requests))
    assert diffs == _outcome(lambda: diff_decisions(_scratch(before), scratch, requests)), label
    if not violations:
        # each request's leg is the earlier one exactly when the leg check accepts that
        earlier, later = before.index(), after.index()
        holds = engine._check("legs", before, after)
        for key, leg in later.legs.items():
            assert (leg is earlier.legs.get(key)) == (key in earlier.legs and holds(earlier.legs[key])), (label, key)
        # each request's answer is handed on exactly when the answer check accepts its leg
        taken = {key for key, entry in later.answers.items() if entry is earlier.answers.get(key)}
        assert taken == _answers_expected(before, after, _handed_on(before, after, requests)), label
        for memo in QUERY_MEMOS:
            for key, entry in getattr(later, memo).items():
                expected = _scratch_entry(scratch, memo, key)
                assert entry == expected or memo == "answers" and expected is None, (label, memo, key)


def _widened(s, requests, rng):
    """Each of ``requests`` again from a source address: a host of some
    segment or one outside them all; and, toward a zero-trust target, again
    presenting the credential chain its principal resolves there."""
    idx = s.index()
    addresses = [prefix.first_host(cidr) for seg in s.segments for cidr in seg.cidrs] + ["198.51.100.7"]
    out = []
    for r in requests:
        out.append(dataclasses.replace(r, source_address=rng.choice(addresses)))
        svc = idx.services.get(r.target)
        if r.target in idx.endpoints:
            svc = idx.services[idx.attachments[idx.endpoints[r.target].attachment].service]
        if svc and svc.auth_mode is m.AuthMode.ZERO_TRUST and svc.idp:
            chain = identity.resolve_credential(s, r.principal, svc.idp)
            if chain:
                out.append(dataclasses.replace(r, presented_chain=chain))
    return out


def _sample(s, count=40, seed=0):
    """``count`` requests of ``s``'s default request space, widened."""
    rng = random.Random(seed)
    requests = default_request_space(s)
    drawn = rng.sample(requests, min(count, len(requests)))
    return drawn + _widened(s, drawn, rng)


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
        requests += _widened(s, requests, rng)
        for mutation in genrandom.MUTATIONS:
            mutated = mutation(random.Random(f"{seed}:{mutation.__name__}"), s)
            if mutated is not None:
                _assert_incremental_equals_scratch(s, mutated, requests, mutation.__name__)
                applied.add(mutation.__name__)
    assert applied == {mutation.__name__ for mutation in genrandom.MUTATIONS}


@pytest.mark.parametrize("names", [
    ("fig1-lift-shift", "fig11-combined"), ("fig11-combined", "fig1-lift-shift"), ("fig5-vm", "fig6-k8s"),
])
def test_unrelated_versions_equal_builds_from_scratch(names):
    """Templates parsed apart share no field that a memo reads, so every
    check rejects every entry, and the diff takes nothing. Copies, so that no
    cached template's memos are written into."""
    before, after = (dataclasses.replace(builtin_scenario(name)) for name in names)
    analysis.reachability_matrix(before)
    # the requests both can evaluate, so that the diff runs past the first
    probe = dataclasses.replace(after)
    requests = [r for r in _sample(before, 200)
                if isinstance(_outcome(lambda: engine.evaluate_flow(probe, r))[0], m.Decision)]
    _assert_incremental_equals_scratch(before, after, requests)
    earlier, later = before.index(), after.index()
    assert all(engine._check(memo, before, after) is engine._never for memo in QUERY_MEMOS)
    assert later.legs and later.answers
    for memo in ("route_trees", "legs", "answers"):
        theirs = getattr(earlier, memo)
        assert not any(theirs.get(key) is entry for key, entry in getattr(later, memo).items()), memo


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
        held = dataclasses.replace(base)  # a base lives as long as its scenario
        before, after = held.index(), version.index()
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
    for name, family in scenario._CHECKS.items():
        monkeypatch.setitem(scenario._CHECKS, name, family._replace(
            check=lambda of, idx, out, name=name, check=family.check: (ran.append(name), check(of, idx, out))
        ))
    for kind, version in kinds.items():
        held = dataclasses.replace(base)  # a base lives as long as its scenario
        held.index()
        ran.clear()
        version.index()
        (edited,) = [f for f in scenario._FIELDS if getattr(version, f) is not getattr(base, f)]
        assert ran == [name for name, family in scenario._CHECKS.items() if edited in family.reads], kind


# ---------------------------------------------------------------------------
# Validation per entity: an edit checks the entities it did not hold, and the
# firewall scopes it reached
# ---------------------------------------------------------------------------


def _estate():
    """The policy-edits estate: every entity list holds at least three entities."""
    w = workloads.WORKLOADS["policy-edits"](0)
    w.prepare()
    return parse_scenario(w.text)


def _placed(entities, broken):
    """(where, ``entities`` with ``broken`` there): at the front, in place of the middle entity, and at the end."""
    mid = len(entities) // 2
    yield "front", (broken,) + entities
    yield "middle", entities[:mid] + (broken,) + entities[mid + 1:]
    yield "end", entities + (broken,)


def _violations_placed(s, attr, broken, code, label):
    """For each placement of ``broken`` in ``s``'s list ``attr``: its
    violations equal a build from scratch's, and one of them is a ``code``."""
    for where, entities in _placed(getattr(s, attr), broken):
        version = dataclasses.replace(s, **{attr: entities})
        _assert_incremental_equals_scratch(s, version, [], f"{label} ({where})")
        assert code in {v.code for v in validate_scenario(version)}, (label, where)


def _broken_entities(s):
    """Family name -> (the list it checks, an entity of that list that it
    finds a violation in, the code of that violation), for each family that
    checks one entity at a time."""
    x = dataclasses.replace
    edge, rule, seg, ep, att = s.edges[0], s.firewall_rules[0], s.segments[0], s.endpoints[0], s.attachments[0]
    gateway = next(e for e in s.edges if e.gateway_rules)
    perimeter, node = s.perimeters[0], s.nodes[1]
    bad_predicate = m.AccessPredicate(id="x-predicate", action=m.RuleAction.DENY, cidrs=("not-a-cidr",))
    return {
        "edge ends": ("edges", x(edge, id="x-edge", ends=edge.ends + (m.INTERNET,)), "BAD_VALUE"),
        "firewall values": ("firewall_rules", x(rule, id="x-rule", priority=7, ports=((90, 80),)), "BAD_VALUE"),
        "gateway values": ("edges", x(gateway, id="x-edge", gateway_rules=(
            x(gateway.gateway_rules[0], id="x-gateway-rule", new_connection="no"),
        )), "BAD_VALUE"),
        "predicate tokens of endpoints": ("endpoints", x(ep, id="x-ep", policy=(bad_predicate,)), "BAD_VALUE"),
        "predicate tokens of attachments": ("attachments", x(att, id="x-att", policy=(bad_predicate,)), "BAD_VALUE"),
        "perimeter rule tokens": ("perimeters", x(perimeter, id="x-perimeter", mechanisms=frozenset(), ingress=(
            m.PerimeterRule(id="x-in", networks=("not-a-cidr",)),
        )), "BAD_VALUE"),
        "tags of nodes": ("nodes", x(node, id="x-node", tags=frozenset({"untagged"})), "BAD_VALUE"),
        "tags of assets": ("assets", x(s.assets[0], id="x-asset", tags=frozenset({"untagged"})), "BAD_VALUE"),
        "subnets": ("segments", x(seg, id="x-seg", cidrs=(), subnets={"web": "10.1.0.0/99"}), "BAD_VALUE"),
        "refs of segments": ("segments", x(seg, id="x-seg", cidrs=(), project="ghost"), "UNKNOWN_REF"),
        "refs of edges": ("edges", x(edge, id="x-edge", ends=(edge.ends[0], "ghost")), "UNKNOWN_REF"),
        "refs of attachments": ("attachments", x(att, id="x-att", service="ghost"), "UNKNOWN_REF"),
        "refs of endpoints": ("endpoints", x(ep, id="x-ep", attachment="ghost"), "UNKNOWN_REF"),
        "refs of principals": ("principals", x(s.principals[0], id="x-principal", idp="ghost"), "UNKNOWN_REF"),
        "refs of idps": ("idps", x(s.idps[0], id="x-idp", segment="ghost"), "UNKNOWN_REF"),
        "refs of trust edges": ("trust_edges", x(s.trust_edges[0], id="x-trust", src="ghost"), "UNKNOWN_REF"),
        "refs of firewall rules": ("firewall_rules", x(rule, id="x-rule", priority=7, scope="segment:ghost"),
                                   "UNKNOWN_REF"),
        "refs of bindings": ("bindings", x(s.bindings[0], id="x-binding", role=(m.Permission(service="ghost"),)),
                             "UNKNOWN_REF"),
        "refs of constraints": ("constraints", x(s.constraints[0], id="x-constraint", scope="ghost"), "UNKNOWN_REF"),
        "refs of perimeters": ("perimeters", x(perimeter, id="x-perimeter", members=m.MemberSelector(
            projects=("ghost",)
        )), "UNKNOWN_REF"),
        "refs of assets": ("assets", x(s.assets[0], id="x-asset", resource="ghost"), "UNKNOWN_REF"),
        "endpoint addresses": ("endpoints", x(ep, id="x-ep", address="192.0.2.1"), "ENDPOINT_ADDR"),
        "service addresses": ("services", x(s.services[0], id="x-svc", address="192.0.2.1"), "SERVICE_ADDR"),
        "edge kinds": ("edges", x(edge, id="x-edge", kind=m.EdgeKind.PEERING,
                                  direction=m.EdgeDirection.OUTBOUND_ONLY), "EDGE_PEERING"),
        # a new rule reusing an unchanged rule's priority in its scope
        "priorities": ("firewall_rules", x(rule, id="x-rule"), "PRIORITY_DUP"),
    }


def test_a_broken_entity_gives_the_violations_of_a_build_from_scratch_wherever_it_is_placed():
    s = _estate()
    assert validate_scenario(s) == []
    cases = _broken_entities(s)
    assert set(cases) == {name for name, family in scenario._CHECKS.items() if family.each}
    for name, (attr, broken, code) in cases.items():
        _violations_placed(s, attr, broken, code, name)
    # an id that is not text, in each entity list
    for f, _ in scenario._SCENARIO.nested:
        _violations_placed(s, f.attr, dataclasses.replace(getattr(s, f.attr)[0], id=5), "BAD_VALUE", f.attr)


def test_a_new_entity_meeting_an_unchanged_one_gives_the_violations_of_a_build_from_scratch():
    s = _estate()
    seg = next(x for x in s.segments if x.routability is m.Routability.ROUTABLE and x.cidrs)
    for attr, broken, code in (
        ("segments", dataclasses.replace(seg, id="x-seg"), "CIDR_OVERLAP"),
        ("bindings", dataclasses.replace(s.bindings[0], principal="sa:hub-dns"), "DUP_ID"),
        # services and endpoints share their ids
        ("endpoints", dataclasses.replace(s.endpoints[0], id=s.services[0].id), "DUP_ID"),
    ):
        _violations_placed(s, attr, broken, code, f"{attr} {code}")


def _dropped(s, attr, entity_id):
    return dataclasses.replace(s, **{attr: tuple(x for x in getattr(s, attr) if x.id != entity_id)})


def _unknown_refs(s, before):
    """The subjects of ``s``'s UNKNOWN_REFs, built right after ``before``, which equal a build from scratch's."""
    _assert_incremental_equals_scratch(before, s, [])
    return {v.subject for v in validate_scenario(s) if v.code == "UNKNOWN_REF"}


def test_a_dropped_node_is_an_unknown_parent_of_the_unchanged_nodes_under_it():
    s = dataclasses.replace(builtin_scenario("fig5-vm"))
    for parent in {n.parent for n in s.nodes if n.parent}:
        children = {n.id for n in s.nodes if n.parent == parent}
        assert _unknown_refs(_dropped(s, "nodes", parent), s) >= children, parent


def test_a_dropped_service_is_an_unknown_dependency_of_the_unchanged_services_naming_it():
    s = dataclasses.replace(builtin_scenario("fig5-vm"))
    (txn,) = [svc for svc in s.services if svc.depends_on]
    for dependency in txn.depends_on:
        assert txn.id in _unknown_refs(_dropped(s, "services", dependency), s), dependency


@pytest.mark.parametrize("segment", ["ordering-net", "ad-net"])
def test_a_dropped_segment_is_an_unknown_ref_of_the_unchanged_entities_naming_it(segment):
    s = dataclasses.replace(builtin_scenario("fig5-vm"))
    naming = {e.id for e in s.edges if segment in e.ends} | {
        x.id for x in (*s.endpoints, *s.services, *s.idps) if x.segment == segment
    }
    # between them, the two segments are named by edges, endpoints, services and idps
    assert len(naming) >= 3
    assert _unknown_refs(_dropped(s, "segments", segment), s) >= naming


def _received(monkeypatch):
    """What each top-level text walk (by the subject of its ids) and each
    family checking one entity at a time receives in the builds that follow."""
    got = {}
    walk = scenario._walk_texts

    def recording_walk(out, t, entities, owners, id_subject):
        if id_subject is not None:
            got.setdefault(id_subject, []).extend(entities)
        walk(out, t, entities, owners, id_subject)

    monkeypatch.setattr(scenario, "_walk_texts", recording_walk)
    for name, family in scenario._CHECKS.items():
        if family.each:
            monkeypatch.setitem(scenario._CHECKS, name, family._replace(
                check=lambda entities, idx, out, name=name, check=family.check: (
                    got.setdefault(name, []).extend(entities), check(entities, idx, out))
            ))
    return got


def _unrelated_builds():
    """A template's copy built and another template parsed: indexes that share no entity list with the estate."""
    dataclasses.replace(builtin_scenario("fig1-lift-shift")).index()
    parse_scenario(template_text("fig3-hierarchy")).index()


@pytest.mark.parametrize("between", [lambda: None, _unrelated_builds], ids=["in-turn", "unrelated-builds-between"])
def test_an_edit_walks_and_checks_only_the_entities_it_did_not_hold(monkeypatch, between):
    base, _, kinds = _kinds_of_edit()
    got = _received(monkeypatch)

    def build(version):
        held = dataclasses.replace(base)  # a base lives as long as its scenario
        before = held.index()
        between()
        got.clear()
        return before, version.index()

    # one firewall rule appended: it alone is walked and checked, and its scope's rules for priorities
    version = kinds["deny_rule"]
    before, after = build(version)
    (rule,) = version.firewall_rules[len(base.firewall_rules):]
    in_scope = [r for r in version.firewall_rules if r.scope == rule.scope]
    assert got == {"firewall rule id": [rule], "firewall values": [rule], "refs of firewall rules": [rule],
                   "priorities": in_scope}
    assert len(in_scope) < len(version.firewall_rules) / 4
    # and only its scope's rules are sorted and compiled again
    assert after.firewall_rules_by_scope[rule.scope] == tuple(sorted(in_scope, key=lambda r: r.priority))
    assert all(rules is before.firewall_rules_by_scope[scope]
               and after.firewall_scopes[scope] is before.firewall_scopes[scope]
               for scope, rules in after.firewall_rules_by_scope.items() if scope != rule.scope)
    assert after.firewall_scopes[rule.scope] is not before.firewall_scopes.get(rule.scope)

    # a binding dropped: no binding is walked or checked
    build(kinds["drop_binding"])
    assert got == {"binding id": [], "refs of bindings": []}

    # a gateway rule dropped: its edge alone is walked and checked, and the routing graph is kept
    version = kinds["drop_gateway_allow"]
    before, after = build(version)
    (edge,) = [e for e, was in zip(version.edges, base.edges) if e is not was]
    assert got == dict.fromkeys(("edge id", "edge ends", "gateway values", "refs of edges", "edge kinds"), [edge])
    assert after.adjacency is before.adjacency and after.uplinks is before.uplinks


def test_an_edit_builds_on_the_live_index_sharing_the_most_fields_with_it(monkeypatch):
    base, _, kinds = _kinds_of_edit()
    got = _received(monkeypatch)
    # ``ruled`` shares every list but the firewall rules with the estate, and
    # ``pruned`` every list but the bindings and edges; each list is entered
    # under the last scenario to build on it, so each of the two is found
    ruled = kinds["deny_rule"]
    pruned = dataclasses.replace(kinds["drop_binding"], edges=kinds["drop_gateway_allow"].edges)
    ruled.index(), pruned.index()
    got.clear()
    kinds["add_perimeter"].index()
    # on ``ruled``, the firewall rules are walked (none is new) and no binding or edge is
    assert got["firewall rule id"] == [] and "binding id" not in got and "edge id" not in got


def test_an_index_that_dies_drops_only_its_own_entries():
    base, _, _ = _kinds_of_edit()
    gc.collect()
    # the keys alone: a copy of the weak table's items would keep their scenarios alive
    entries = set(scenario._holders)
    first = _scratch(base)
    first.index()
    # the last to build on every list of ``first`` but its bindings, whose entry ``first`` keeps
    later = dataclasses.replace(first, bindings=first.bindings[1:])
    later.index()
    assert len(scenario._holders) > len(entries)
    del first
    gc.collect()
    # ``later``'s entries stand, so an edit of it builds on it and keeps its routing graph
    assert dataclasses.replace(later, bindings=later.bindings[1:]).index().adjacency is later.index().adjacency
    del later
    gc.collect()
    assert set(scenario._holders) == entries


def test_a_dropped_version_keeps_none_of_its_entities_alive():
    s = _scratch(builtin_scenario("fig1-lift-shift"))
    s.index()
    rule = weakref.ref(s.firewall_rules[0])
    del s
    gc.collect()
    assert rule() is None


def test_a_dropped_version_is_freed_at_once_without_the_cyclic_gc():
    """A scenario owns its index, which holds no scenario, and the base table
    holds scenarios weakly: nothing forms a cycle, so reference counting frees
    a version, with its facts and query memos, as soon as it is dropped."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        before = _scratch(builtin_scenario("fig1-lift-shift"))
        before.index()
        for r in default_request_space(before):
            engine.evaluate_flow(before, r)
        analysis.reachability_matrix(before)
        after = dataclasses.replace(before, firewall_rules=before.firewall_rules[1:])
        diff_decisions(before, after, default_request_space(before))
        alive = [weakref.ref(x) for x in (before, after, before.index(), after.index())]
        del before, after
        assert [ref() is None for ref in alive] == [True] * 4
    finally:
        if enabled:
            gc.enable()


def test_diff_decisions_takes_only_the_queries_an_edit_cannot_change():
    """No policy edit touches what route trees, credential chains or target
    tags read, so they are taken whole; principal classes are taken whole
    where the policy identities and device keys are equal. Legs and class
    answers are taken whole where the edit reads nothing of them, and one at
    a time otherwise."""
    base, sample, kinds = _kinds_of_edit()
    for kind, version in kinds.items():
        before = dataclasses.replace(base)
        for r in sample:
            engine.evaluate_flow(before, r)
        diff_decisions(before, version, sample)
        earlier, later = before.index(), version.index()
        whole = {"route_trees", "credential_chains", "target_tags"}
        if (earlier.policy_identities, earlier.device_keys) == (later.policy_identities, later.device_keys):
            whole.add("principal_classes")
        # no leg reads the bindings, and no answer the firewall rules or edges
        whole |= {"drop_binding": {"legs"}, "deny_rule": {"answers"}, "drop_gateway_allow": {"answers"}}.get(
            kind, set())
        for memo in QUERY_MEMOS:
            theirs, ours = getattr(earlier, memo), getattr(later, memo)
            shared = {key for key in theirs if key in ours and ours[key] is theirs[key]}
            check = engine._check(memo, before, version)
            assert (check is engine._always) == (memo in whole), (kind, memo)
            if memo in whole:
                assert shared == set(theirs), (kind, memo)
            elif memo == "legs":
                assert shared == {key for key, leg in theirs.items() if check(leg)}, kind
                assert len(shared) > len(theirs) / 2, kind  # each edit reaches a few of the sample's legs at most
            elif memo == "answers":
                assert shared == _answers_expected(before, version, _handed_on(before, version, sample)), kind
                assert len(shared) > len(theirs) / 2, kind  # and a few of its classes
            else:
                assert check is engine._never and shared == set(), (kind, memo)


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
    named = [*texts, *FACTS, *scenario._CHECKS]
    # the read table merges these tables, so a name in two of them would lose one's reads
    assert len(set(named)) == len(named) == len(scenario._READS)
    fields = {f.name for f in dataclasses.fields(scenario.Scenario)}
    assert all(reads and set(reads) <= fields for reads in scenario._READS.values())
    assert set(engine._MEMO_READS) == set(QUERY_MEMOS)
    assert all(reads and set(reads) <= fields for reads in engine._MEMO_READS.values())


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
    scratch = _scratch(after)
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
    for field in (f for f, clause in engine._MEMO_READS["legs"].items() if clause is not None):
        taken, legs = _legs_taken(s, dataclasses.replace(s, **{field: tuple(list(getattr(s, field)))}))
        assert taken == set(legs), field


def test_any_other_field_the_legs_read_takes_no_leg():
    s = _fig11()
    others = {f for f, clause in engine._MEMO_READS["legs"].items() if clause is None}
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
    scratch = _scratch(after)
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


def test_the_spokes_are_kept_while_the_routing_graph_is():
    """A segment's trust mode edited: the non-routable segments are derived
    again, equal, so the routing graph and its spokes are the base's. A
    non-routable segment made routable: both are derived again."""
    base, _, _ = _kinds_of_edit()
    held = dataclasses.replace(base)  # a base lives as long as its scenario
    before = held.index()
    spoke = next(x for x in base.segments if x.routability is m.Routability.NON_ROUTABLE)
    assert spoke.id in before.uplinks
    trusted = dataclasses.replace(base, segments=_replaced(base.segments, spoke.id, trust_mode=m.TrustMode.ZERO_TRUST))
    after = trusted.index()
    assert after.non_routable is not before.non_routable and after.non_routable == before.non_routable
    assert after.adjacency is before.adjacency and after.uplinks is before.uplinks
    routable = dataclasses.replace(base, segments=_replaced(base.segments, spoke.id, routability=m.Routability.ROUTABLE))
    after = routable.index()
    assert after.adjacency is not before.adjacency and after.uplinks is not before.uplinks
    assert after.uplinks == _scratch(routable).index().uplinks


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


# ---------------------------------------------------------------------------
# Class answers taken one at a time
# ---------------------------------------------------------------------------


def _answers_taken(before, after):
    """The answer keys of ``before``'s class memo, one for each class of its
    default request space, that ``diff_decisions`` over one request of each
    hands to ``after``, and the leg of that request by key; each taken answer
    is the answer the principal points give a request of its class in a build
    from scratch, where the edit left such a request."""
    before = dataclasses.replace(before)
    assert validate_scenario(after) == []
    firsts = {}
    for r in default_request_space(before):
        engine.evaluate_flow(before, r)
        firsts.setdefault(_answer_key(before, r), r)
    firsts.pop(None, None)  # the requests of denied legs
    diff_decisions(before, after, list(firsts.values()))
    theirs, ours = before.index().answers, after.index().answers
    assert set(theirs) == set(firsts)
    taken = {key for key in theirs if ours.get(key) is theirs[key]}
    scratch = _scratch(after)
    analysis.reachability_matrix(scratch)  # the leg of each (locus, target), to witness a class
    for key in taken:
        witness = _answer_witness(scratch, key)
        assert witness is None or ours[key] == witness, key
    return taken, {key: _leg(before, r) for key, r in firsts.items()}


def test_an_equal_copy_of_a_field_the_answer_check_compares_takes_every_answer():
    s = _fig11()
    for field in (f for f, clause in engine._MEMO_READS["answers"].items() if clause is not None):
        taken, answers = _answers_taken(s, dataclasses.replace(s, **{field: tuple(list(getattr(s, field)))}))
        assert taken == answers.keys(), field


def test_any_other_field_the_answers_read_takes_no_answer():
    s = _fig11()
    others = {f for f, clause in engine._MEMO_READS["answers"].items() if clause is None}
    assert others == {"nodes", "services", "assets", "attachments"}
    for field in others:
        taken, _ = _answers_taken(s, dataclasses.replace(s, **{field: tuple(list(getattr(s, field)))}))
        assert taken == set(), field


def test_an_endpoint_policy_keeps_the_answers_of_every_other_endpoint():
    s = _fig11()
    (endpoint,) = [ep for ep in s.endpoints if ep.id == "ep-store"]
    taken, answers = _answers_taken(s, dataclasses.replace(
        s, endpoints=_replaced(s.endpoints, endpoint.id, policy=endpoint.policy[1:])
    ))
    through = {key for key in answers if key[0][0] == endpoint.id}
    assert through and taken == answers.keys() - through


def test_a_dropped_binding_keeps_the_answers_of_every_other_service():
    s = _fig11()
    (binding,) = [b for b in s.bindings if b.id == "rb-staff-g2"]
    without = dataclasses.replace(s, bindings=tuple(b for b in s.bindings if b is not binding))
    taken, answers = _answers_taken(s, without)
    toward = {key for key in answers if key[0][1] == "svc-g2"}
    assert toward and taken == answers.keys() - toward


def test_an_added_perimeter_keeps_the_answers_outside_its_projects():
    s = _fig11()
    perimeter = m.AbstractPerimeter(
        id="green-dp", name="green-dp", members=m.MemberSelector(projects=("prj-green",)),
        mechanisms=frozenset({m.Mechanism.DATA_PLANE_PERIMETER}),
    )
    taken, answers = _answers_taken(s, dataclasses.replace(s, perimeters=s.perimeters + (perimeter,)))
    # the answers handed on by a leg that starts or ends in the perimeter's project
    inside = {key for key, leg in answers.items() if "prj-green" in (
        leg.source_segment and leg.source_segment.project, leg.target_service and leg.target_service.project
    )}
    assert inside and taken == answers.keys() - inside


def test_a_firewall_or_gateway_edit_keeps_every_answer():
    s = _fig11()
    for after in (
        dataclasses.replace(s, firewall_rules=s.firewall_rules + (_firewall_rule("deny-pay", "10.2.1.10/32"),)),
        dataclasses.replace(s, edges=_replaced(s.edges, "gw-green-yellow", gateway_rules=())),
    ):
        taken, answers = _answers_taken(s, after)
        assert answers and taken == answers.keys()


def test_moved_device_keys_take_no_answer():
    """A principal class holds its device values in the order of the device
    keys. Here an edit of a perimeter that the request does not cross moves
    the keys ``a, b`` to ``b, c``, so the class of ``p2`` after the edit
    equals that of ``p1`` before it, while the rule the request meets reads
    ``b``, which the two principals hold apart. No answer is taken."""
    s = _fig11()
    principals = (
        m.Principal(id="user:p1", kind=m.PrincipalKind.HUMAN, idp="idp-mesh", device={"a": "1", "b": "2"}),
        m.Principal(id="user:p2", kind=m.PrincipalKind.HUMAN, idp="idp-mesh", device={"b": "1", "c": "2"}),
    )
    (yellow2,) = [p for p in s.perimeters if p.id == "yellow2"]
    perimeters = _replaced(s.perimeters, "yellow2", ingress=yellow2.ingress + (
        m.PerimeterRule(id="in-b", device={"b": "2"}),
    ))

    def reading(key):  # the perimeter ``green``, which the request does not cross, reads ``key``
        return dataclasses.replace(s, principals=s.principals + principals, perimeters=_replaced(
            perimeters, "green", egress=(m.PerimeterRule(id="out-dev", device={key: "1"}),)
        ))

    before, after = reading("a"), reading("c")
    requests = [m.FlowRequest(p.id, "clp", "svc-y2", "read") for p in principals]
    _assert_incremental_equals_scratch(before, after, requests)
    assert (before.index().device_keys, after.index().device_keys) == (("a", "b"), ("b", "c"))
    assert [engine.evaluate_flow(after, r)[0].reason for r in requests] == [
        m.DenyReason.RBAC_DEFAULT_DENY, m.DenyReason.PERIMETER_INGRESS
    ]
    assert engine.principal_class(after, "user:p2", "idp-mesh") == engine.principal_class(before, "user:p1", "idp-mesh")
    assert not engine._check("answers", before, after)(_leg(before, requests[0]))


def test_an_asset_or_attachment_edit_takes_no_answer():
    """No clause compares target tags or attachment policies, so an edit of
    either takes no answer; each edit here changes a decision."""
    fig8 = dataclasses.replace(builtin_scenario("fig8-direct-clp"))
    fig11 = _fig11()
    for s, after in (
        (fig8, dataclasses.replace(fig8, assets=_replaced(fig8.assets, "sales-table", tags=frozenset({"pii:true"})))),
        (fig11, dataclasses.replace(fig11, attachments=_replaced(
            fig11.attachments, "att-store", policy=(m.AccessPredicate(id="deny-all", action=m.RuleAction.DENY),)
        ))),
    ):
        taken, answers = _answers_taken(s, after)
        assert answers and taken == set()
        assert diff_decisions(dataclasses.replace(s), dataclasses.replace(after), default_request_space(s))
