"""Reachability matrices, exfiltration chains, blast radius, decision diffs."""

import dataclasses
import itertools
import random
import sys
from pathlib import Path

import pytest

from cloudperim import (
    TEMPLATE_NAMES,
    blast_radius,
    builtin_scenario,
    default_request_space,
    diff_decisions,
    evaluate_flow,
    exfiltration_paths,
    method_universe,
    oracle_evaluate,
    parse_scenario,
    reachability_matrix,
    validate_scenario,
)
from cloudperim import analysis, engine
from cloudperim import model as m
from cloudperim.analysis import request_key, source_loci
from cloudperim.errors import (
    IncompatibleRequestSpaceError,
    RequestSpaceTooLargeError,
    UnknownEntityError,
    UnknownPerimeterError,
    UnknownTagError,
    UnknownWorkloadError,
)

sys.path.insert(0, str(Path(__file__).parent))
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from genrandom import random_scenario  # noqa: E402
from perfbench import gen  # noqa: E402  (read-only: the benchmark's estate generator)

GOLDEN_FIG1_FIG11_DIFF = [
    # the combined architecture funnels on-prem through the CLP: direct legacy
    # reachability (green-app is not published) and internet transit disappear
    ("sa:green-a", "ONPREM", "INTERNET", "connect", "allow", "deny"),
    ("sa:green-a", "ONPREM", "INTERNET", "read", "allow", "deny"),
    ("sa:green-a", "ONPREM", "green-app", "connect", "allow", "deny"),
    ("sa:green-a", "ONPREM", "green-app", "read", "allow", "deny"),
    ("sa:yellow-pay", "ONPREM", "INTERNET", "connect", "allow", "deny"),
    ("sa:yellow-pay", "ONPREM", "INTERNET", "read", "allow", "deny"),
    ("sa:yellow-pay", "ONPREM", "green-app", "connect", "allow", "deny"),
    ("sa:yellow-pay", "ONPREM", "green-app", "read", "allow", "deny"),
]


# ---------------------------------------------------------------------------
# Reachability matrix
# ---------------------------------------------------------------------------


def test_empty_principal_set_gives_empty_matrix():
    s = builtin_scenario("fig1-lift-shift")
    matrix = reachability_matrix(s, principals=[])
    assert matrix.rows == () and matrix.cells == {}


@pytest.mark.parametrize(
    "axes, message",
    [
        (dict(principals=["ghost"]), "principal 'ghost'"),
        (dict(loci=["nowhere"]), "source locus 'nowhere'"),
        (dict(targets=["nothing"]), "target 'nothing'"),
        (dict(principals=["ghost"], loci=["nowhere"], targets=["nothing"]), "principal 'ghost'"),
        (dict(principals=["sa:green-a"], loci=["nowhere"], targets=["nothing"]), "source locus 'nowhere'"),
        # the first row is answered in full before the next row's principal or locus is read
        (dict(principals=["sa:green-a", "ghost"], loci=["green", "nowhere"]), "source locus 'nowhere'"),
        (dict(principals=["sa:green-a", "ghost"], targets=["green-app", "nothing"]), "target 'nothing'"),
        (dict(principals=["sa:green-a", "ghost"], loci=["green"]), "principal 'ghost'"),
    ],
)
def test_matrix_reports_the_first_unknown_entity_of_the_grid(axes, message):
    """Cell by cell in grid order, an unknown principal, then source, then
    target: the error ``evaluate_flow`` raises for the first cell that names one."""
    s = dataclasses.replace(builtin_scenario("fig1-lift-shift"))
    with pytest.raises(UnknownEntityError) as raised:
        reachability_matrix(s, **axes)
    assert type(raised.value) is UnknownEntityError and str(raised.value) == message


def test_fig1_yellow_row_denies_internet_and_green():
    s = builtin_scenario("fig1-lift-shift")
    matrix = reachability_matrix(s)
    row = ("sa:yellow-pay", "yellow")
    assert not matrix.cells[(row, (m.INTERNET, "connect"))].allowed
    assert not matrix.cells[(row, ("green-app", "connect"))].allowed
    assert matrix.cells[(row, ("yellow-pay", "connect"))].allowed


def test_fig4_matrix_equals_oracle_cell_by_cell():
    s = builtin_scenario("fig4-landing-point")
    matrix = reachability_matrix(s)
    for (principal, locus), (target, method) in itertools.product(matrix.rows, matrix.columns):
        cell = matrix.cells[((principal, locus), (target, method))]
        expected = oracle_evaluate(
            s, m.FlowRequest(principal=principal, source=locus, target=target, method=method)
        )
        assert (cell.verdict, cell.reason) == (expected.verdict, expected.reason)


def test_matrix_cap_enforced(monkeypatch):
    s = builtin_scenario("fig4-landing-point")
    evaluated = []
    monkeypatch.setattr(analysis, "evaluate_flow", lambda s, r: evaluated.append(r))
    with pytest.raises(RequestSpaceTooLargeError):
        reachability_matrix(s, cap=10)
    assert evaluated == []


def test_repeated_axis_entries_give_one_row_and_column_each():
    s = builtin_scenario("fig1-lift-shift")
    once = reachability_matrix(s, principals=["sa:green-a"], methods=["read"])
    twice = reachability_matrix(s, principals=["sa:green-a", "sa:green-a"], methods=["read", "read"])
    assert once.rows == tuple(("sa:green-a", locus) for locus in source_loci(s))
    assert once.columns == tuple((target, "read") for target in analysis.flow_targets(s))
    assert (twice.rows, twice.columns) == (once.rows, once.columns)
    assert list(twice.cells.items()) == list(once.cells.items())


def test_matrix_renders_text():
    s = builtin_scenario("fig10-zero-trust")
    text = reachability_matrix(s).render_text()
    assert "svc-a.read" in text and "DENY" in text and "allow" in text


# ---------------------------------------------------------------------------
# Exfiltration
# ---------------------------------------------------------------------------


def _inject_fig1_yellow_internet_allow(s):
    allow = m.GatewayRule(
        id="gw-yi-inject", src_zone="yellow", dst_zone="INTERNET", action=m.RuleAction.ALLOW
    )
    edges = tuple(
        dataclasses.replace(e, gateway_rules=(allow,) + e.gateway_rules)
        if e.id == "gw-yellow-inet"
        else e
        for e in s.edges
    )
    return dataclasses.replace(s, edges=edges)


def test_fig1_yellow_pci_has_no_escape():
    s = builtin_scenario("fig1-lift-shift")
    report = exfiltration_paths(s, "pci:true", "yellow")
    assert report.empty


def test_fig1_single_gateway_allow_opens_escape():
    s = _inject_fig1_yellow_internet_allow(builtin_scenario("fig1-lift-shift"))
    report = exfiltration_paths(s, "pci:true", "yellow")
    assert not report.empty
    for chain in report.chains:
        assert chain.escape_locus == m.INTERNET
        # soundness: every link replays to Allow
        for link in chain.flows:
            decision, _ = evaluate_flow(s, link)
            assert decision.allowed


def test_exfil_bound_zero_is_an_error():
    s = builtin_scenario("fig1-lift-shift")
    with pytest.raises(ValueError):
        exfiltration_paths(s, "pci:true", "yellow", bound=0)


def test_exfil_unknown_perimeter_and_tag():
    s = builtin_scenario("fig1-lift-shift")
    with pytest.raises(UnknownPerimeterError, match=r"^unknown perimeter 'purple'$"):
        exfiltration_paths(s, "pci:true", "purple")
    with pytest.raises(UnknownTagError, match=r"^unknown tag 'alien:true'$"):
        exfiltration_paths(s, "alien:true", "yellow")


def test_explicit_green_escape_is_a_two_hop_chain():
    """A reader outside the perimeter plus internet egress yields a 2-link chain."""
    s = builtin_scenario("fig1-lift-shift")
    # let green read the store (replace the endpoint policy) -> data lands at green,
    # which is already outside the yellow perimeter; green->INTERNET is open
    endpoints = tuple(
        dataclasses.replace(ep, policy=()) if ep.id == "ep-store" else ep for ep in s.endpoints
    )
    opened = dataclasses.replace(s, endpoints=endpoints)
    report = exfiltration_paths(opened, "pci:true", "yellow", bound=2)
    assert not report.empty
    green_reads = [c for c in report.chains if c.flows[0].source == "green"]
    assert green_reads and all(len(c.flows) == 1 for c in green_reads)  # reader already outside


def test_exfil_completeness_matches_exhaustive_enumeration():
    """Brute-force every flow sequence up to the bound and compare escapes."""
    s = _inject_fig1_yellow_internet_allow(builtin_scenario("fig1-lift-shift"))
    bound = 2
    report = exfiltration_paths(s, "pci:true", "yellow", bound=bound)
    members = s.index().memberships()["yellow"]

    def outside(locus):
        seg = s.index().segments.get(locus)
        return locus in m.DISTINGUISHED_LOCI or seg is None or seg.project not in members

    serving = [
        svc.id
        for svc in s.services
        if any("pci:true" in a.tags for a in s.assets if a.id in set(svc.reads) | set(svc.writes))
    ]
    methods = method_universe(s)
    targets = sorted(x.id for x in s.services) + [m.INTERNET]
    principals = sorted(p.id for p in s.principals)

    expected = set()

    def explore(flows, trajectory, held):
        position = trajectory[-1]
        if outside(position):
            expected.add(tuple((f.principal, f.source, f.target, f.method) for f in flows))
            return
        if len(flows) >= bound:
            return
        for target in targets:
            for principal in sorted(held):
                for method in methods:
                    r = m.FlowRequest(principal=principal, source=position, target=target, method=method)
                    d, _ = evaluate_flow(s, r)
                    if not d.allowed:
                        continue
                    if target == m.INTERNET:
                        nxt, gained = m.INTERNET, held
                    else:
                        svc = s.index().services[target]
                        nxt, gained = svc.segment, held | frozenset(svc.run_as)
                    if nxt in trajectory:
                        continue
                    explore(flows + [r], trajectory + [nxt], gained)

    for svc_id in serving:
        for principal in principals:
            for locus in source_loci(s):
                r = m.FlowRequest(principal=principal, source=locus, target=svc_id, method="read")
                d, _ = evaluate_flow(s, r)
                if d.allowed:
                    explore([r], [locus], frozenset({principal}))

    got = {tuple((f.principal, f.source, f.target, f.method) for f in c.flows) for c in report.chains}
    assert got == expected


# ---------------------------------------------------------------------------
# Blast radius
# ---------------------------------------------------------------------------


def test_isolated_workload_has_empty_radius():
    doc_scenario = builtin_scenario("fig3-hierarchy")  # no edges between segments
    report = blast_radius(doc_scenario, "web")
    assert report.reached == {}


def test_unknown_workload():
    with pytest.raises(UnknownWorkloadError, match=r"^unknown workload 'nonesuch'$"):
        blast_radius(builtin_scenario("fig10-zero-trust"), "nonesuch")


@pytest.mark.parametrize("bound", [0, -1])
def test_blast_bound_below_one_is_an_error(bound):
    with pytest.raises(ValueError, match=rf"^hop bound must be >= 1, got {bound}$"):
        blast_radius(builtin_scenario("fig10-zero-trust"), "app-a", bound=bound)


def test_fig10_rbac_strips_to_full_reach():
    s = builtin_scenario("fig10-zero-trust")
    intact = blast_radius(s, "app-a")
    stripped_scenario = dataclasses.replace(
        s,
        services=tuple(
            dataclasses.replace(x, auth_mode=m.AuthMode.PERIMETER_TRUSTING) for x in s.services
        ),
        bindings=(),
    )
    stripped = blast_radius(stripped_scenario, "app-a")
    other_services = {x.id for x in s.services if x.id != "svc-a"}
    assert stripped.services == other_services  # flat trusting net: everything reachable
    assert set(intact.reached) < set(stripped.reached)  # defense-in-depth, strictly


def test_blast_accepts_service_and_backend_ids():
    s = builtin_scenario("fig10-zero-trust")
    by_workload = blast_radius(s, "app-a")
    by_service = blast_radius(s, "svc-a")
    by_backend = blast_radius(s, "pod-a")
    assert by_workload.reached == by_service.reached == by_backend.reached


def test_blast_hop_annotation_monotone_in_bound():
    s = builtin_scenario("fig10-zero-trust")
    r1 = blast_radius(s, "app-a", bound=1)
    r3 = blast_radius(s, "app-a", bound=3)
    assert set(r1.reached) <= set(r3.reached)
    assert r1.reached == {("svc-b", "read"): 1}
    assert r3.reached[("svc-d", "read")] == 3


def _exhaustive_blast(s, workload, bound):
    """The least hop of each (service, method) that some allowed sequence of
    at most ``bound`` flows from ``workload`` reaches, by brute force."""
    origin = {x.id for x in s.services if workload in (x.id, x.workload) or workload in x.backends}
    targets = [x for x in sorted(s.services, key=lambda x: x.id) if x.id not in origin]
    methods = method_universe(s)
    reached = {}

    def explore(locus, held, hop):
        for svc in targets:
            for principal in sorted(held):
                for method in methods:
                    r = m.FlowRequest(principal=principal, source=locus, target=svc.id, method=method)
                    if not evaluate_flow(s, r)[0].allowed:
                        continue
                    reached[(svc.id, method)] = min(hop, reached.get((svc.id, method), hop))
                    if hop < bound:
                        explore(svc.segment, held | frozenset(svc.run_as), hop + 1)

    held = frozenset(p for x in s.services if x.id in origin for p in x.run_as)
    for locus in sorted({x.segment for x in s.services if x.id in origin}):
        explore(locus, held, 1)
    return reached


@pytest.mark.parametrize(
    "s",
    # copies, so the shared templates' decision memos stay empty
    [dataclasses.replace(builtin_scenario(name)) for name in TEMPLATE_NAMES]
    + [random_scenario(random.Random(seed), with_edges=True) for seed in range(20)],
    ids=lambda s: s.name,
)
def test_blast_matches_exhaustive_enumeration(s):
    """Brute-force every flow sequence up to the bound and compare least hops."""
    workloads = sorted({x.id for x in s.services} | {x.workload for x in s.services if x.workload})
    for workload in workloads:
        for bound in (1, 2):
            assert blast_radius(s, workload, bound=bound).reached == _exhaustive_blast(s, workload, bound)


# ---------------------------------------------------------------------------
# Decision diffs
# ---------------------------------------------------------------------------


def test_identical_scenarios_diff_empty():
    s = builtin_scenario("fig4-landing-point")
    assert diff_decisions(s, s, default_request_space(s)) == ()


def test_added_deny_only_flips_allow_to_deny():
    s = builtin_scenario("fig4-landing-point")
    deny = m.FirewallRule(
        id="extra-deny",
        scope=m.ORG_SCOPE,
        priority=50,
        action=m.RuleAction.DENY,
        src=(m.ONPREM,),
        dst=(m.ANY,),
    )
    harder = dataclasses.replace(s, firewall_rules=(deny,) + s.firewall_rules)
    diffs = diff_decisions(s, harder, default_request_space(s))
    assert diffs
    for d in diffs:
        assert d.before.verdict is m.Verdict.ALLOW and d.after.verdict is m.Verdict.DENY
        assert d.trace_before and d.trace_after


def _with_extra(s):
    """``s`` with one more principal, segment and service, each a copy of its first."""
    return dataclasses.replace(
        s,
        principals=s.principals + (dataclasses.replace(s.principals[0], id="sa:extra"),),
        segments=s.segments + (dataclasses.replace(s.segments[0], id="extra-net", cidrs=("10.250.0.0/16",)),),
        services=s.services + (dataclasses.replace(s.services[0], id="extra-app"),),
    )


def test_incompatible_request_space():
    s1 = builtin_scenario("fig1-lift-shift")
    s10 = builtin_scenario("fig10-zero-trust")
    with pytest.raises(IncompatibleRequestSpaceError):
        diff_decisions(s1, s10, default_request_space(s1))
    # a principal, a source and a target each missing from one scenario, then from the other
    extra = _with_extra(s1)
    assert validate_scenario(extra) == []
    known = m.FlowRequest("sa:green-a", "green", "yellow-pay", "read")
    assert diff_decisions(s1, extra, [known]) == ()
    cases = [
        (dataclasses.replace(known, principal="sa:extra"), "principal 'sa:extra'"),
        (dataclasses.replace(known, source="extra-net"), "source locus 'extra-net'"),
        (dataclasses.replace(known, target="extra-app"), "target 'extra-app'"),
    ]
    for (r, missing), pair in itertools.product(cases, [(extra, s1), (s1, extra)]):
        with pytest.raises(IncompatibleRequestSpaceError) as refused:
            diff_decisions(*pair, [r])
        assert str(refused.value) == f"request {request_key(r)} references entities missing from one scenario"
        assert type(refused.value.__cause__) is UnknownEntityError and str(refused.value.__cause__) == missing


def test_fig1_vs_fig11_matches_golden_diff():
    s1 = builtin_scenario("fig1-lift-shift")
    s11 = builtin_scenario("fig11-combined")
    diffs = diff_decisions(s1, s11, default_request_space(s1))
    got = [
        (
            d.request.principal,
            d.request.source,
            d.request.target,
            d.request.method,
            d.before.verdict.value,
            d.after.verdict.value,
        )
        for d in diffs
    ]
    assert got == GOLDEN_FIG1_FIG11_DIFF


# ---------------------------------------------------------------------------
# Oracle spot checks
# ---------------------------------------------------------------------------


def test_oracle_matches_on_template_spot_checks():
    s = builtin_scenario("fig1-lift-shift")
    for principal, source, target in [
        ("sa:green-a", "green", "yellow-pay"),
        ("sa:green-a", "green", m.INTERNET),
        ("sa:yellow-pay", "yellow", "green-app"),
        ("sa:yellow-pay", "yellow", m.INTERNET),
    ]:
        r = m.FlowRequest(principal=principal, source=source, target=target)
        engine_decision, _ = evaluate_flow(s, r)
        oracle_decision = oracle_evaluate(s, r)
        assert (engine_decision.verdict, engine_decision.reason) == (
            oracle_decision.verdict,
            oracle_decision.reason,
        )


@pytest.mark.parametrize("seed", range(5))
def test_oracle_error_parity(seed):
    rng = random.Random(9000 + seed)
    s = random_scenario(rng)
    from cloudperim.errors import UnknownEntityError

    bad = m.FlowRequest(principal="ghost", source="nowhere", target="nothing")
    with pytest.raises(UnknownEntityError):
        evaluate_flow(s, bad)
    with pytest.raises(UnknownEntityError):
        oracle_evaluate(s, bad)


# ---------------------------------------------------------------------------
# Decision classes
# ---------------------------------------------------------------------------


def _fig1_with_twin_endpoint():
    """fig1 plus a second endpoint of ``att-store`` whose policy reads the
    same CIDR with the opposite actions."""
    s = builtin_scenario("fig1-lift-shift")
    ep = s.index().endpoints["ep-store"]
    flipped = {m.RuleAction.ALLOW: m.RuleAction.DENY, m.RuleAction.DENY: m.RuleAction.ALLOW}
    twin = dataclasses.replace(
        ep,
        id="ep-store-twin",
        address="10.2.9.10",
        policy=tuple(dataclasses.replace(p, id=f"{p.id}-twin", action=flipped[p.action]) for p in ep.policy),
    )
    return dataclasses.replace(s, endpoints=s.endpoints + (twin,))


def _fig10_with_federated_twins():
    """fig10 plus two principals of a second idp, alike but for the mesh
    principal that one trust edge maps each to."""
    s = builtin_scenario("fig10-zero-trust")
    home = m.IdentityProvider(id="idp-home", kind=m.IdpKind.CLOUD_NATIVE)
    twins = tuple(m.Principal(id=f"u{i}", kind=m.PrincipalKind.HUMAN, idp=home.id) for i in (1, 2))
    edge = m.TrustEdge(
        id="home-to-mesh", src=home.id, dst="idp-mesh", kind=m.TrustKind.ONE_WAY_TRUST,
        mapping={"u1": "sa:a", "u2": "sa:d"},
    )
    return dataclasses.replace(
        s, idps=s.idps + (home,), principals=s.principals + twins, trust_edges=s.trust_edges + (edge,)
    )


_TWINS = [_fig1_with_twin_endpoint(), _fig10_with_federated_twins()]
# two small generated estates, named for their seeds
_ESTATES = [
    dataclasses.replace(parse_scenario(gen.hub_and_spoke(4, seed).text()), name=f"spokes4-seed{seed}")
    for seed in (0, 1)
]


def _analyses(s, matrix=reachability_matrix):
    """The matrix, every blast radius at bounds 1-3 and every exfiltration
    report at bounds 1-2 of ``s``, as comparable values, the matrix's cells
    in their order."""
    grid = matrix(s)
    out = [("matrix", grid.rows, grid.columns, list(grid.cells.items()))]
    for svc in sorted(x.id for x in s.services):
        for bound in (1, 2, 3):
            out.append(("blast", svc, bound, blast_radius(s, svc, bound=bound).entries()))
    tags = sorted({t for a in s.assets for t in a.tags})
    for tag in tags:
        for perimeter in sorted(p.id for p in s.perimeters):
            for bound in (1, 2):
                out.append(("exfil", tag, perimeter, bound, exfiltration_paths(s, tag, perimeter, bound=bound)))
    return out


def _principal_answer(s, r, leg):
    """The principal points' answer to ``r`` over its allowed ``leg``, run
    for ``r`` itself, not looked up in the index's class memo."""
    idx = s.index()
    return engine._steps(engine._principal_steps(s, engine.RequestContext(r, idx.principals[r.principal], leg, idx)))


def _decided_alone(s, r):
    """``r``'s decision: its leg's when a network point denies the leg, else
    the principal points' answer to ``r`` itself."""
    leg = engine.network_leg(s, leg_key(r))
    return leg.denied[0] if leg.denied is not None else _principal_answer(s, r, leg)[0]


def _matrix_per_request(s):
    """``reachability_matrix(s)`` with every cell's request decided alone."""
    cells = {
        ((r.principal, r.source), (r.target, r.method)): _decided_alone(s, r)
        for r in default_request_space(s)
    }
    rows = tuple(dict.fromkeys(row for row, _ in cells))
    columns = tuple(dict.fromkeys(col for _, col in cells))
    return analysis.ReachabilityMatrix(rows=rows, columns=columns, cells=cells)


def _moves_per_request(called):
    """``analysis._moves`` with every (target, principal, method) request
    decided alone, yielding what ``_moves`` yields; each call's locus is
    appended to ``called``."""

    def moves(s, locus, held, targets, methods):
        called.append(locus)
        services = s.index().services
        for target in targets:
            if target == m.INTERNET:
                position, gained = m.INTERNET, held
            else:
                position, gained = services[target].segment, held | frozenset(services[target].run_as)
            for principal in sorted(held):
                for method in methods:
                    r = m.FlowRequest(principal=principal, source=locus, target=target, method=method)
                    if _decided_alone(s, r).allowed:
                        yield principal, target, method, position, gained

    return moves


@pytest.mark.parametrize(
    "s",
    [builtin_scenario(name) for name in TEMPLATE_NAMES]
    + [random_scenario(random.Random(seed), with_edges=True, with_trust_edges=True) for seed in range(40)]
    + _TWINS
    + _ESTATES,
    ids=lambda s: s.name,
)
def test_analyses_decided_per_class_equal_per_request(s, monkeypatch):
    joined = _analyses(dataclasses.replace(s))
    called = []
    monkeypatch.setattr(analysis, "_moves", _moves_per_request(called))
    reference = _analyses(dataclasses.replace(s), matrix=_matrix_per_request)
    assert joined == reference
    assert bool(called) == bool(s.services)  # every blast radius moved through the reference


class _AskedMemo(dict):
    """A class memo that records the class key of every lookup."""

    def __init__(self):
        super().__init__()
        self.asked = []

    def get(self, key, default=None):
        self.asked.append(key)
        return super().get(key, default)


def leg_key(r):
    return (r.source, r.target, r.source_address, r.payload_tags)


def class_key(s, r):
    """The decision class of ``r``, which presents no chain: its leg key when
    a network point denies the leg, else the leg's context, the principal's
    class toward the leg's zero-trust idp, and the method."""
    leg = engine.network_leg(s, leg_key(r))
    if leg.denied is not None:
        return leg_key(r)
    return leg.context, engine.principal_class(s, r.principal, leg.idp), r.method


def test_each_class_and_each_denied_leg_is_evaluated_once(monkeypatch):
    """Each class is evaluated once, and no request whose leg a network point
    denies is evaluated at all: its decision is the leg's."""
    # a copy: the cached template's class memo may already hold classes
    # that an earlier test asked, and they would not be evaluated here
    s = dataclasses.replace(builtin_scenario("fig11-combined"))
    memo = s.index().answers = _AskedMemo()
    evaluated, original_flow = [], analysis.evaluate_flow

    def evaluate(s, r):
        evaluated.append(r)
        return original_flow(s, r)

    monkeypatch.setattr(analysis, "evaluate_flow", evaluate)
    _analyses(s)
    legs = s.index().legs
    keys = [class_key(s, r) for r in evaluated]
    assert len(keys) == len(set(keys))
    assert set(keys) == set(memo.asked) == set(memo)
    assert all(legs[leg_key(r)].denied is None for r in evaluated)
    assert any(leg.denied is not None for leg in legs.values())  # the analyses met denied legs
    # the memo answers most lookups
    assert 2 * len(evaluated) < len(memo.asked)


@pytest.mark.parametrize(
    "s",
    _TWINS
    + [builtin_scenario(name) for name in TEMPLATE_NAMES]
    + [random_scenario(random.Random(seed), with_edges=True, with_trust_edges=True) for seed in (3, 8)],
    ids=lambda s: s.name,
)
def test_requests_of_one_class_decide_alike(s):
    """Every request of one decision class, endpoint targets, source addresses
    and payload tags included, gets one answer from the principal points, run
    anew for each request: one decision and one list of principal steps. So
    the class memo may keep one answer per class, and ``evaluate_flow``
    gives each request its leg's steps and then that answer's."""
    s = dataclasses.replace(s)
    idx = s.index()
    targets = analysis.flow_targets(s) + sorted(idx.endpoints)
    addresses = [None] + [f"{cidr.rsplit('.', 2)[0]}.7.7" for seg in s.segments for cidr in seg.cidrs[:1]]
    tag_sets = [frozenset()] + [frozenset({t}) for t in sorted({t for a in s.assets for t in a.tags})]
    requests = [
        dataclasses.replace(r, source_address=address, payload_tags=tags)
        for r in default_request_space(s, targets=targets)
        for address, tags in itertools.product(addresses, tag_sets)
    ]
    answered: dict[tuple, set[tuple]] = {}
    for r in requests:
        leg = engine.network_leg(s, leg_key(r))
        if leg.denied is not None:
            assert evaluate_flow(s, r) == leg.denied
            continue
        decision, steps = _principal_answer(s, r, leg)
        assert evaluate_flow(s, r) == (decision, leg.steps + steps)
        answered.setdefault(class_key(s, r), set()).add((decision, steps))
    assert all(len(answers) == 1 for answers in answered.values())
    assert answered and len(answered) < len(requests)


def test_federated_twins_decide_apart():
    s = _fig10_with_federated_twins()
    assert validate_scenario(s) == []
    reach = reachability_matrix(s, principals=["u1", "u2"], methods=["read"])
    rows = {p: {col for (row, col), d in reach.cells.items() if row[0] == p and d.allowed} for p in ("u1", "u2")}
    assert rows["u1"] and rows["u2"] and not rows["u1"] & rows["u2"]


def test_twin_endpoints_decide_apart():
    s = _fig1_with_twin_endpoint()
    for target, allowed in (("ep-store", True), ("ep-store-twin", False)):
        r = m.FlowRequest(principal="sa:yellow-pay", source="yellow", target=target, method="read")
        assert evaluate_flow(s, r)[0].allowed is allowed
