"""Credential chains, trust edges, and federation."""

import dataclasses
import itertools
import random
import sys
from pathlib import Path

import pytest

from cloudperim import (
    TEMPLATE_NAMES,
    builtin_scenario,
    evaluate_flow,
    oracle,
    oracle_evaluate,
    parse_scenario,
    resolve_credential,
)
from cloudperim import model as m
from cloudperim.analysis import source_loci
from cloudperim.errors import UnknownIdpError, UnknownPrincipalError

sys.path.insert(0, str(Path(__file__).parent))
from genrandom import random_scenario  # noqa: E402

AD_DOC = """
name: ad-trust
hierarchy:
  - {id: org, kind: organization}
  - {id: prj, kind: project, parent: org}
networks:
  segments:
    - {id: net, project: prj, routability: routable, cidrs: [10.0.0.0/16]}
identity:
  idps:
    - {id: ad-onprem, kind: directory, segment: ONPREM}
    - {id: ad-cloud, kind: directory, segment: net}
    - {id: idp-cloud, kind: cloud-native}
  principals:
    - {id: "user:dev", kind: human, idp: ad-onprem}
    - {id: "user:dev-cloud", kind: human, idp: ad-cloud}
    - {id: "ad:svc1", kind: ad-identity, idp: ad-cloud}
    - {id: "sa:gcp1", kind: service-account, idp: idp-cloud}
  trust_edges:
    - id: trust-onprem
      from: ad-onprem
      to: ad-cloud
      kind: one-way-trust
      mapping: {"user:dev": "user:dev-cloud"}
    - id: fed-wif
      from: ad-cloud
      to: idp-cloud
      kind: workload-federation
      mapping: {"ad:svc1": "sa:gcp1", "user:dev-cloud": "sa:gcp1"}
"""


@pytest.fixture
def ad():
    return parse_scenario(AD_DOC)


def test_home_idp_is_single_step_chain(ad):
    chain = resolve_credential(ad, "user:dev", "ad-onprem")
    assert chain is not None and len(chain) == 1
    assert chain.terminal_principal == "user:dev"
    assert chain.steps[0].edge is None


def test_onprem_ad_user_reaches_cloud_domain_in_two_steps(ad):
    chain = resolve_credential(ad, "user:dev", "ad-cloud")
    assert chain is not None and len(chain) == 2
    assert chain.steps[1].edge == "trust-onprem"
    assert chain.terminal_principal == "user:dev-cloud"


def test_workload_federation_asserts_mapped_principal(ad):
    chain = resolve_credential(ad, "ad:svc1", "idp-cloud")
    assert chain is not None
    assert chain.terminal_principal == "sa:gcp1"
    assert chain.terminal_idp == "idp-cloud"


def test_two_step_federation_composes_mappings(ad):
    chain = resolve_credential(ad, "user:dev", "idp-cloud")
    assert chain is not None and len(chain) == 3
    # oracle: compose the two mapping tables by hand
    hop1 = {"user:dev": "user:dev-cloud"}
    hop2 = {"ad:svc1": "sa:gcp1", "user:dev-cloud": "sa:gcp1"}
    assert chain.terminal_principal == hop2[hop1["user:dev"]]


def test_no_trust_path_returns_none(ad):
    # nothing maps from idp-cloud outward
    assert resolve_credential(ad, "sa:gcp1", "ad-onprem") is None


def test_unknown_principal_and_idp(ad):
    with pytest.raises(UnknownPrincipalError):
        resolve_credential(ad, "ghost", "idp-cloud")
    with pytest.raises(UnknownIdpError):
        resolve_credential(ad, "user:dev", "idp-ghost")


def test_chain_bound_limits_resolution(ad):
    bounded = dataclasses.replace(ad, chain_bound=2)
    assert resolve_credential(bounded, "user:dev", "idp-cloud") is None  # needs 3 steps
    assert resolve_credential(ad, "user:dev", "idp-cloud") is not None


def test_two_way_trust_traverses_in_reverse():
    doc = AD_DOC.replace("kind: one-way-trust", "kind: two-way-trust")
    s = parse_scenario(doc)
    chain = resolve_credential(s, "user:dev-cloud", "ad-onprem")
    assert chain is not None
    assert chain.terminal_principal == "user:dev"


# Four idps; a@A reaches D by two chains of three steps, e1+e2 through C and
# e3+e4 through B, asserting different principals. The edges are declared in
# reverse id order, so only the edge-id tie-break picks e1+e2.
TIE_DOC = """
name: tie-break
hierarchy:
  - {id: org, kind: organization}
identity:
  idps: [{id: A}, {id: B}, {id: C}, {id: D}]
  principals:
    - {id: a, idp: A}
    - {id: b, idp: B}
    - {id: c, idp: C}
    - {id: d-via-c, idp: D}
    - {id: d-via-b, idp: D}
  trust_edges:
    - {id: e4, from: B, to: D, mapping: {b: d-via-b}}
    - {id: e3, from: A, to: B, mapping: {a: b}}
    - {id: e2, from: C, to: D, mapping: {c: d-via-c}}
    - {id: e1, from: A, to: C, mapping: {a: c}}
"""


def test_equal_length_chains_tie_break_on_edge_ids_not_declaration_order():
    s = parse_scenario(TIE_DOC)
    chain = resolve_credential(s, "a", "D")
    assert [step.edge for step in chain.steps] == [None, "e1", "e2"]
    assert chain.terminal_principal == "d-via-c"
    declared = dataclasses.replace(s, trust_edges=tuple(reversed(s.trust_edges)))
    assert resolve_credential(declared, "a", "D") == chain


def test_forward_move_comes_before_reverse_move_on_one_edge():
    # the two-way self-loop e takes a to x forward and to y in reverse, both
    # one step over the same edge id; f then maps each on to B
    s = parse_scenario("""
name: self-loop
hierarchy:
  - {id: org, kind: organization}
identity:
  idps: [{id: A}, {id: B}]
  principals: [{id: a, idp: A}, {id: x, idp: A}, {id: y, idp: A}, {id: bx, idp: B}, {id: by, idp: B}]
  trust_edges:
    - {id: e, from: A, to: A, kind: two-way-trust, mapping: {a: x, y: a}}
    - {id: f, from: A, to: B, mapping: {x: bx, y: by}}
""")
    chain = resolve_credential(s, "a", "B")
    assert [step.principal for step in chain.steps] == ["a", "x", "bx"]


def test_self_loop_tie_orders_the_next_level_by_edge_ids():
    # s takes a to x forward and to y in reverse, one edge-id sequence; of the
    # next steps, c (from y) sorts before f (from x), so s then c wins
    s = parse_scenario("""
name: self-loop-then-two-edges
hierarchy:
  - {id: org, kind: organization}
identity:
  idps: [{id: A}, {id: B}]
  principals: [{id: a, idp: A}, {id: x, idp: A}, {id: y, idp: A}, {id: bx, idp: B}, {id: by, idp: B}]
  trust_edges:
    - {id: s, from: A, to: A, kind: two-way-trust, mapping: {a: x, y: a}}
    - {id: c, from: A, to: B, mapping: {y: by}}
    - {id: f, from: A, to: B, mapping: {x: bx}}
""")
    chain = resolve_credential(s, "a", "B")
    assert [(step.edge, step.principal) for step in chain.steps] == [(None, "a"), ("s", "y"), ("c", "by")]
    assert oracle._oracle_resolve_terminal(s, s.principals[0], "B") == "by"


def test_a_resolved_chain_that_takes_a_self_loop_in_reverse_is_valid_when_presented():
    # the chain a -s-> y -c-> by reads the two-way self-loop s in reverse
    # (s maps y to a); its ends are both A, so its forward reading (a to x)
    # must not be the only one tried
    s = parse_scenario("""
name: self-loop-presented
hierarchy:
  - {id: org, kind: organization}
  - {id: prj, kind: project, parent: org}
networks:
  segments:
    - {id: net, project: prj, routability: routable, cidrs: [10.0.0.0/16], trust_mode: trusting}
services:
  specs:
    - {id: svc, project: prj, segment: net, auth_mode: zero-trust, idp: B}
identity:
  idps: [{id: A}, {id: B}]
  principals: [{id: a, idp: A}, {id: x, idp: A}, {id: y, idp: A}, {id: bx, idp: B}, {id: by, idp: B}]
  trust_edges:
    - {id: s, from: A, to: A, kind: two-way-trust, mapping: {a: x, y: a}}
    - {id: c, from: A, to: B, mapping: {y: by}}
    - {id: f, from: A, to: B, mapping: {x: bx}}
policies:
  rbac:
    - {id: rb-by, principal: by, role: [{service: svc, method: read}]}
""")
    chain = resolve_credential(s, "a", "B")
    assert [(step.edge, step.principal) for step in chain.steps] == [(None, "a"), ("s", "y"), ("c", "by")]
    r = m.FlowRequest("a", "net", "svc", "read", presented_chain=chain)
    decision, trace = evaluate_flow(s, r)
    assert decision.allowed
    assert next(x for x in trace if x.point is m.PointKind.AUTHN).rule == "s+c"
    assert oracle_evaluate(s, r).allowed


def _trust_graph(seed):
    """A small random trust document: two or three idps, three to six
    principals, and three to six trust edges declared in random id order, the
    first a two-way self-loop, the rest one- or two-way between any idps."""
    r = random.Random(seed)
    idps = [f"I{i}" for i in range(r.randint(2, 3))]
    home = {f"p{i}": r.choice(idps) for i in range(r.randint(3, 6))}
    names = sorted(home)
    ids = [f"e{i}" for i in range(r.randint(3, 6))]
    r.shuffle(ids)
    loop = r.choice(idps)
    edges = []
    for j, eid in enumerate(ids):
        src, dst = (loop, loop) if j == 0 else (r.choice(idps), r.choice(idps))
        kind = "two-way-trust" if j == 0 else r.choice(["one-way-trust", "two-way-trust"])
        mapping = ", ".join(f"{k}: {r.choice(names)}" for k in r.sample(names, r.randint(1, len(names))))
        edges.append(f"    - {{id: {eid}, from: {src}, to: {dst}, kind: {kind}, mapping: {{{mapping}}}}}")
    return "\n".join([
        "name: trust-graph",
        "hierarchy: [{id: org, kind: organization}]",
        "identity:",
        "  idps: [" + ", ".join(f"{{id: {i}}}" for i in idps) + "]",
        "  principals: [" + ", ".join(f"{{id: {p}, idp: {i}}}" for p, i in home.items()) + "]",
        "  trust_edges:",
        *edges,
        "",
    ])


@pytest.mark.parametrize("seed", range(200))
def test_resolved_chain_is_the_oracle_minimal_walk_through_self_loops(seed):
    """The whole resolved chain, not only its terminal principal, is the
    oracle's first walk minimal by (steps, edge ids), at chain bounds 1-5."""
    drawn = parse_scenario(_trust_graph(seed))
    for bound in range(1, 6):
        s = dataclasses.replace(drawn, chain_bound=bound)
        for p, idp in itertools.product(s.principals, s.idps):
            chain = resolve_credential(s, p.id, idp.id)
            got = None if chain is None else [(x.edge, x.idp, x.principal) for x in chain.steps[1:]]
            walks = oracle._all_chains(s, p, idp.id, bound)
            best = min(walks, key=lambda w: (len(w), [x[0] for x in w])) if walks else None
            assert got == (None if best is None else [tuple(x) for x in best]), (bound, p.id, idp.id)


def test_reverse_step_asserts_the_smallest_source_principal(ad):
    # user:zed and user:dev both map to user:dev-cloud, the larger one first
    zed = m.Principal(id="user:zed", kind=m.PrincipalKind.HUMAN, idp="ad-onprem")
    trust = dataclasses.replace(
        ad.trust_edges[0],
        kind=m.TrustKind.TWO_WAY_TRUST,
        mapping={"user:zed": "user:dev-cloud", "user:dev": "user:dev-cloud"},
    )
    s = dataclasses.replace(ad, principals=ad.principals + (zed,), trust_edges=(trust,) + ad.trust_edges[1:])
    chain = resolve_credential(s, "user:dev-cloud", "ad-onprem")
    assert chain.terminal_principal == "user:dev"


def test_fig5_federation_end_to_end():
    s = builtin_scenario("fig5-vm")
    chain = resolve_credential(s, "ad:order-app", "idp-cloud")
    assert chain is not None
    assert chain.terminal_principal == "sa:order-fed"


def _brute_force_reachable(s, principal: m.Principal, bound: int) -> set[tuple[str, str]]:
    """All (idp, asserted principal) states reachable by composing mappings."""
    states = {(principal.idp, principal.id)}
    frontier = set(states)
    for _ in range(bound - 1):
        nxt = set()
        for idp, who in frontier:
            for e in s.trust_edges:
                if e.src == idp and who in e.mapping:
                    nxt.add((e.dst, e.mapping[who]))
                if e.kind is m.TrustKind.TWO_WAY_TRUST and e.dst == idp:
                    inv = {}
                    for k, v in sorted(e.mapping.items()):
                        inv.setdefault(v, k)
                    if who in inv:
                        nxt.add((e.src, inv[who]))
        frontier = nxt - states
        states |= nxt
    return states


@pytest.mark.parametrize("seed", range(20))
def test_privilege_non_amplification(seed):
    """Any chain terminal is reachable by brute-force mapping composition."""
    rng = random.Random(3000 + seed)
    s = random_scenario(rng)
    for principal, idp in itertools.product(s.principals, s.idps):
        chain = resolve_credential(s, principal.id, idp.id)
        if chain is None:
            continue
        reachable = _brute_force_reachable(s, principal, s.chain_bound)
        assert (chain.terminal_idp, chain.terminal_principal) in reachable


@pytest.mark.parametrize("seed", range(20))
def test_resolution_to_home_idp_always_single_step(seed):
    rng = random.Random(4000 + seed)
    s = random_scenario(rng)
    for principal in s.principals:
        chain = resolve_credential(s, principal.id, principal.idp)
        assert chain is not None and len(chain) == 1


@pytest.mark.parametrize("seed", range(20))
def test_removing_trust_edge_never_creates_chain(seed):
    rng = random.Random(5000 + seed)
    s = random_scenario(rng, with_trust_edges=True)
    assert s.trust_edges
    victim = rng.choice(s.trust_edges)
    smaller = dataclasses.replace(
        s, trust_edges=tuple(e for e in s.trust_edges if e.id != victim.id)
    )
    for principal, idp in itertools.product(s.principals, s.idps):
        before = resolve_credential(s, principal.id, idp.id)
        after = resolve_credential(smaller, principal.id, idp.id)
        if before is None:
            assert after is None


def test_terminal_principal_matches_oracle_at_chain_bounds_1_to_4():
    """At every chain bound 1-4, each principal's resolved terminal principal
    toward each idp is the oracle's, on AD_DOC and on ``genrandom`` trust
    graphs; some chains exist at one bound and not at the one below it."""
    drawn = [parse_scenario(AD_DOC)]
    drawn += [random_scenario(random.Random(seed), with_trust_edges=True) for seed in range(50)]
    cut_by_bound = 0
    for base in drawn:
        terminals = []
        for bound in range(1, 5):
            s = dataclasses.replace(base, chain_bound=bound)
            terminals.append({})
            for p, idp in itertools.product(s.principals, s.idps):
                chain = resolve_credential(s, p.id, idp.id)
                terminal = None if chain is None else chain.terminal_principal
                assert terminal == oracle._oracle_resolve_terminal(s, p, idp.id), (base.name, bound, p.id, idp.id)
                terminals[-1][(p.id, idp.id)] = terminal
        cut_by_bound += sum(
            below[pair] is None and terminal is not None
            for below, above in zip(terminals, terminals[1:])
            for pair, terminal in above.items()
        )
    assert cut_by_bound > 20


@pytest.mark.parametrize("seed", range(50))
def test_resolution_ignores_declaration_order_and_matches_oracle(seed):
    s = random_scenario(random.Random(seed), with_trust_edges=True)
    edges = list(s.trust_edges)
    random.Random(seed).shuffle(edges)
    shuffled = dataclasses.replace(s, trust_edges=tuple(edges))
    for principal, idp in itertools.product(s.principals, s.idps):
        chain = resolve_credential(s, principal.id, idp.id)
        assert resolve_credential(shuffled, principal.id, idp.id) == chain
        terminal = None if chain is None else chain.terminal_principal
        assert terminal == oracle._oracle_resolve_terminal(s, principal, idp.id)


def _presented_chains(s, p, target_idp):
    """Chains ``p`` may present toward ``target_idp`` in ``s``: the resolved
    one (the home step alone when there is none); that chain with a wrong home
    idp, a wrong mapped principal and an unknown edge id; and one reverse step
    over each trust edge into ``p``'s home idp through each source principal
    mapped to ``p``, which is forged on a one-way edge and valid on a two-way
    one."""
    home = m.ChainStep(idp=p.idp, principal=p.id, edge=None)
    resolved = resolve_credential(s, p.id, target_idp)
    base = resolved.steps if resolved is not None else (home,)
    other_idp = next(x.id for x in s.idps if x.id != p.idp)
    other_principal = next(x.id for x in s.principals if x.id != base[-1].principal)
    ghost = dataclasses.replace(base[-1], edge="ghost") if len(base) > 1 else m.ChainStep(target_idp, p.id, "ghost")
    chains = [
        base,
        (dataclasses.replace(home, idp=other_idp),) + base[1:],
        base[:-1] + (dataclasses.replace(base[-1], principal=other_principal),),
        base[:-1] + (ghost,) if len(base) > 1 else base + (ghost,),
    ]
    for e in s.trust_edges:
        if e.dst == p.idp:
            chains += [(home, m.ChainStep(e.src, src_p, e.id)) for src_p, dst_p in e.mapping.items() if dst_p == p.id]
    return [m.CredentialChain(steps=c) for c in chains]


def _with_trust_edges():
    """(scenario, the scenario its presented chains are resolved in) for the
    templates with trust edges and ``genrandom`` seeds 0-49 with trust edges.
    Each is also opened (its firewall one allow-all rule, its perimeters gone)
    so that more requests reach the AUTHN point, and each of these is also
    given a chain bound of 2, under which every resolved chain of three or
    more steps is presented over the bound."""
    scenarios = [builtin_scenario(name) for name in TEMPLATE_NAMES]
    scenarios += [random_scenario(random.Random(seed), with_trust_edges=True) for seed in range(50)]
    allow_all = m.FirewallRule("allow-all", m.ORG_SCOPE, 0, m.RuleAction.ALLOW)
    for s in scenarios:
        if s.trust_edges:
            for x in (s, dataclasses.replace(s, firewall_rules=(allow_all,), perimeters=())):
                yield x, x
                yield dataclasses.replace(x, chain_bound=2), x


def _non_smallest_reverse_step(s, p, chain):
    """True if ``chain`` is ``p``'s home step and one reverse step over a
    two-way edge through a source principal other than the smallest."""
    if len(chain) != 2:
        return False
    step = chain.steps[1]
    for e in s.trust_edges:
        if e.id == step.edge and e.kind is m.TrustKind.TWO_WAY_TRUST and (e.dst, e.src) == (p.idp, step.idp):
            return step.principal != min(k for k, v in e.mapping.items() if v == p.id)
    return False


def _deciding_point(trace):
    return next((x.point for x in trace if x.verdict is m.Verdict.DENY), None)


def test_engine_matches_oracle_on_presented_chains():
    """Every request to a zero-trust service from every source locus, with
    each of ``_presented_chains``, decides alike, at the same deciding point,
    in the engine and the oracle."""
    authn_decided = accepted_reverse = over_bound = 0
    for s, resolved_in in _with_trust_edges():
        zero_trust = [x for x in s.services if x.auth_mode is m.AuthMode.ZERO_TRUST and x.idp is not None]
        for svc, p, locus in itertools.product(zero_trust, s.principals, source_loci(s)):
            for chain in _presented_chains(resolved_in, p, svc.idp):
                r = m.FlowRequest(p.id, locus, svc.id, "read", presented_chain=chain)
                decision, trace = evaluate_flow(s, r)
                assert (decision, _deciding_point(trace)) == oracle.oracle_decide(s, r), (s.name, r)
                assert [x.index for x in trace] == list(range(len(m.ENFORCEMENT_CHAIN)))
                authn = next(x for x in trace if x.point is m.PointKind.AUTHN)
                if authn.rule != "not-applicable":
                    authn_decided += 1
                    accepted_reverse += authn.verdict is m.Verdict.ALLOW and _non_smallest_reverse_step(s, p, chain)
                    over_bound += len(chain) > s.chain_bound and chain == resolve_credential(resolved_in, p.id, svc.idp)
    assert authn_decided > 2000 and accepted_reverse > 0 and over_bound > 0
