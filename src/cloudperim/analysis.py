"""Whole-scenario analyses: reachability, exfiltration chains, blast radius,
and decision diffing between scenario variants.

All enumerations are canonical (sorted keys), so results are byte-identical
regardless of evaluation order. The request space is finite by construction:
loci and services come from the scenario, methods from the method universe
(every method named by a binding, perimeter rule, or endpoint policy, plus
the defaults ``connect`` and ``read``).
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field

from . import model as m
from .engine import NetworkLeg, evaluate_flow, hand_on, network_leg, principal_class
from .errors import (
    IncompatibleRequestSpaceError,
    RequestSpaceTooLargeError,
    UnknownEntityError,
    UnknownPerimeterError,
    UnknownTagError,
    UnknownWorkloadError,
)
from .scenario import Scenario

DEFAULT_CELL_CAP = 10**6
DEFAULT_READ_METHODS = ("read",)
DEFAULT_HOP_BOUND = 3
_NO_TAGS: frozenset[str] = frozenset()


def method_universe(s: Scenario) -> list[str]:
    """Concrete methods named anywhere in the scenario, plus defaults."""
    methods = {"connect", "read"}
    for b in s.bindings:
        methods.update(p.method for p in b.role)
    for p in s.perimeters:
        for rule in list(p.ingress) + list(p.egress):
            methods.update(t.method for t in rule.targets)
    for holder in list(s.endpoints) + list(s.attachments):
        for pred in holder.policy:
            methods.update(pred.methods)
    return sorted(t for t in methods if "*" not in t)


def source_loci(s: Scenario) -> list[str]:
    return sorted(x.id for x in s.segments) + [m.ONPREM, m.INTERNET]


def flow_targets(s: Scenario) -> list[str]:
    return sorted(x.id for x in s.services) + [m.INTERNET]


def _axes(
    s: Scenario, principals: list[str] | None, loci: list[str] | None,
    targets: list[str] | None, methods: list[str] | None, cap: int,
) -> tuple[list[str], list[str], list[str], list[str]]:
    """The request space's principals, loci, targets and methods, defaulted
    from the scenario, once their product is known to be within ``cap``."""
    principals = sorted(x.id for x in s.principals) if principals is None else list(principals)
    loci = source_loci(s) if loci is None else list(loci)
    targets = flow_targets(s) if targets is None else list(targets)
    methods = method_universe(s) if methods is None else list(methods)
    total = len(principals) * len(loci) * len(targets) * len(methods)
    if total > cap:
        raise RequestSpaceTooLargeError(f"{total} requests exceed the cap of {cap}")
    return principals, loci, targets, methods


def default_request_space(
    s: Scenario,
    principals: list[str] | None = None,
    loci: list[str] | None = None,
    targets: list[str] | None = None,
    methods: list[str] | None = None,
    cap: int = DEFAULT_CELL_CAP,
) -> list[m.FlowRequest]:
    """Canonical finite enumeration of requests for matrices and diffs."""
    axes = _axes(s, principals, loci, targets, methods, cap)
    return [
        m.FlowRequest(principal=p, source=l, target=t, method=meth)
        for p, l, t, meth in itertools.product(*axes)
    ]


def request_key(r: m.FlowRequest) -> tuple[str, str, str, str]:
    return (r.principal, r.source, r.target, r.method)


def _evaluated(s: Scenario, principal: str, locus: str, target: str, method: str) -> tuple[m.Decision, m.DecisionTrace]:
    """The answer to the request of ``principal`` from ``locus`` to ``target``
    by ``method``, the first of its decision class: ``evaluate_flow`` keeps
    its principal points' answer in the index's class memo."""
    return evaluate_flow(s, m.FlowRequest(principal=principal, source=locus, target=target, method=method))


def _moves(
    s: Scenario, locus: str, held: frozenset[str], targets: list[str], methods: Sequence[str]
) -> Iterator[tuple[str, str, str, str, frozenset[str]]]:
    """Every allowed request from ``locus`` to ``targets`` by a principal in
    ``held``, as its (principal, target, method), with the position it leads
    to and the principals held there: a service's segment, where its
    ``run_as`` joins ``held``, or INTERNET. No request is built.

    Each target's leg is resolved once, and a leg a network point denies
    allows no move. The held principals are decided once per class and method."""
    idx = s.index()
    memo, services, principals = idx.answers, idx.services, sorted(held)
    for target in targets:
        leg = network_leg(s, (locus, target, None, _NO_TAGS))
        if leg.denied is not None:
            continue
        if target == m.INTERNET:
            position, gained = m.INTERNET, held
        else:
            svc = services[target]
            position, gained = svc.segment, held | frozenset(svc.run_as)
        allowed: dict[tuple, list[str]] = {}  # class -> its allowed methods
        for principal in principals:
            cls = principal_class(s, principal, leg.idp)
            ok = allowed.get(cls)
            if ok is None:
                ok = allowed[cls] = []
                for method in methods:
                    key = (leg.context, cls, method)
                    if (memo.get(key) or _evaluated(s, principal, locus, target, method))[0].allowed:
                        ok.append(method)
            for method in ok:
                yield principal, target, method, position, gained


# ---------------------------------------------------------------------------
# Reachability matrix
# ---------------------------------------------------------------------------


@dataclass
class ReachabilityMatrix:
    rows: tuple[tuple[str, str], ...]            # (principal, source locus)
    columns: tuple[tuple[str, str], ...]         # (target, method)
    cells: dict[tuple[tuple[str, str], tuple[str, str]], m.Decision]

    def render_text(self) -> str:
        col_labels = [f"{svc}.{meth}" for svc, meth in self.columns]
        row_labels = [f"{p}@{l}" for p, l in self.rows]
        width = max([len(x) for x in col_labels + ["allow", "DENY"]] or [5])
        left = max([len(x) for x in row_labels] or [3]) + 2
        lines = [" " * left + " ".join(x.rjust(width) for x in col_labels)]
        for row, label in zip(self.rows, row_labels):
            marks = []
            for col in self.columns:
                d = self.cells[(row, col)]
                marks.append(("allow" if d.allowed else "DENY").rjust(width))
            lines.append(label.ljust(left) + " ".join(marks))
        return "\n".join(lines)


def reachability_matrix(
    s: Scenario,
    principals: list[str] | None = None,
    loci: list[str] | None = None,
    targets: list[str] | None = None,
    methods: list[str] | None = None,
    cap: int = DEFAULT_CELL_CAP,
) -> ReachabilityMatrix:
    """Evaluate the full (principal, locus) x (target, method) grid."""
    idx = s.index()  # refuses a broken scenario, even when the grid is empty
    principals, loci, targets, methods = _axes(s, principals, loci, targets, methods, cap)
    rows = tuple(dict.fromkeys(itertools.product(principals, loci)))
    columns = tuple(dict.fromkeys(itertools.product(targets, methods)))
    if not (rows and columns):
        return ReachabilityMatrix(rows=(), columns=(), cells={})
    # each (locus, target) leg is resolved once, and each principal once per
    # idp. A cell of a denied leg takes the leg's decision; any other cell is
    # one lookup of its class.
    memo = idx.answers
    legs: dict[str, dict[str, NetworkLeg]] = {}  # locus -> target -> leg
    cells = {}
    for row in rows:
        principal, locus = row
        if principal not in idx.principals:
            raise UnknownEntityError(f"unknown principal {principal!r}")
        at, classes = legs.setdefault(locus, {}), {}
        for col in columns:
            target, method = col
            leg = at.get(target)
            if leg is None:
                leg = at[target] = network_leg(s, (locus, target, None, _NO_TAGS))
            if leg.denied is not None:
                cells[(row, col)] = leg.denied[0]
                continue
            cls = classes.get(leg.idp)
            if cls is None:
                cls = classes[leg.idp] = principal_class(s, principal, leg.idp)
            key = (leg.context, cls, method)
            cells[(row, col)] = (memo.get(key) or _evaluated(s, principal, locus, target, method))[0]
    return ReachabilityMatrix(rows=rows, columns=columns, cells=cells)


# ---------------------------------------------------------------------------
# Exfiltration chains
# ---------------------------------------------------------------------------


@m.value_type
class ExfilChain:
    flows: tuple[m.FlowRequest, ...]
    trajectory: tuple[str, ...]    # data positions, reader locus first
    escape_locus: str


@dataclass
class ExfilReport:
    tag: str
    perimeter: str
    chains: tuple[ExfilChain, ...]

    @property
    def empty(self) -> bool:
        return not self.chains


def _outside(locus: str, member_projects: frozenset[str], s: Scenario) -> bool:
    return locus in m.DISTINGUISHED_LOCI or s.index().segments[locus].project not in member_projects


def exfiltration_paths(
    s: Scenario,
    tag: str,
    perimeter: str,
    bound: int = DEFAULT_HOP_BOUND,
) -> ExfilReport:
    """Read-then-relay chains that move tagged data outside the perimeter.

    A chain starts with an allowed read of a service holding a tagged asset;
    each relay is any allowed flow from the data's current position; the
    chain escapes when the data lands outside the perimeter or on INTERNET.
    """
    if bound < 1:
        raise ValueError(f"hop bound must be >= 1, got {bound}")
    idx = s.index()
    if perimeter not in idx.perimeters:
        raise UnknownPerimeterError(f"unknown perimeter {perimeter!r}")
    if not any(tag in a.tags for a in s.assets):
        raise UnknownTagError(f"unknown tag {tag!r}")
    members = idx.memberships()[perimeter]

    tagged_assets = {a.id for a in s.assets if tag in a.tags}
    serving = [
        svc.id
        for svc in sorted(s.services, key=lambda x: x.id)
        if tagged_assets & set(list(svc.reads) + list(svc.writes))
    ]
    targets = flow_targets(s)
    methods = method_universe(s)
    chains: list[ExfilChain] = []

    def extend(flows: list[tuple[str, str, str, str]], trajectory: list[str], held: frozenset[str]) -> None:
        """Chains on from ``flows``, each a request's (principal, source, target, method)."""
        position = trajectory[-1]
        if _outside(position, members, s):
            requests = [m.FlowRequest(*flow) for flow in flows]
            chains.append(ExfilChain(flows=requests, trajectory=trajectory, escape_locus=position))
            return
        if len(flows) >= bound:
            return
        for principal, target, method, nxt, nxt_held in _moves(s, position, held, targets, methods):
            if nxt in trajectory:
                continue
            extend(flows + [(principal, position, target, method)], trajectory + [nxt], nxt_held)

    # a chain starts with one principal's read, so each reader holds only itself;
    # every principal's reads from a locus are asked for at once
    everyone = frozenset(x.id for x in s.principals)
    for locus in source_loci(s):
        for principal, target, method, _, _ in _moves(s, locus, everyone, serving, DEFAULT_READ_METHODS):
            extend([(principal, locus, target, method)], [locus], frozenset({principal}))

    uniq = sorted(set(chains), key=lambda c: (len(c.flows), tuple(map(request_key, c.flows))))
    return ExfilReport(tag=tag, perimeter=perimeter, chains=tuple(uniq))


# ---------------------------------------------------------------------------
# Blast radius
# ---------------------------------------------------------------------------


@dataclass
class BlastReport:
    workload: str
    reached: dict[tuple[str, str], int] = field(default_factory=dict)  # (service, method) -> hops

    @property
    def services(self) -> frozenset[str]:
        return frozenset(svc for svc, _ in self.reached)

    def entries(self) -> list[tuple[str, str, int]]:
        return sorted((svc, meth, hops) for (svc, meth), hops in self.reached.items())


def blast_radius(s: Scenario, workload: str, bound: int = DEFAULT_HOP_BOUND) -> BlastReport:
    """Breadth-first closure of allowed flows from a compromised workload.

    The attacker starts with the workload's principals and network loci; each
    newly reached service contributes its own principals and locus.
    """
    s.index()  # refuses a broken scenario, even when nothing is evaluated
    if bound < 1:
        raise ValueError(f"hop bound must be >= 1, got {bound}")
    origin = [
        svc
        for svc in s.services
        if svc.id == workload or svc.workload == workload or workload in svc.backends
    ]
    if not origin:
        raise UnknownWorkloadError(f"unknown workload {workload!r}")
    methods = method_universe(s)
    targets = sorted(x.id for x in s.services if x.id not in {o.id for o in origin})

    held = frozenset(p for svc in origin for p in svc.run_as)
    loci = frozenset(svc.segment for svc in origin)
    report = BlastReport(workload=workload)
    frontier: set[tuple[str, frozenset[str]]] = {(locus, held) for locus in loci}
    visited: set[tuple[str, frozenset[str]]] = set(frontier)

    for hop in range(1, bound + 1):
        moved: set[tuple[str, frozenset[str]]] = set()
        for locus, have in sorted(frontier, key=lambda st: (st[0], sorted(st[1]))):
            for _, target, method, position, gained in _moves(s, locus, have, targets, methods):
                report.reached.setdefault((target, method), hop)
                moved.add((position, gained))
        frontier = moved - visited
        visited |= frontier
        if not frontier:
            break
    return report


# ---------------------------------------------------------------------------
# Decision diffing
# ---------------------------------------------------------------------------


@m.value_type
class DecisionDiff:
    request: m.FlowRequest
    before: m.Decision
    after: m.Decision
    trace_before: m.DecisionTrace
    trace_after: m.DecisionTrace


def diff_decisions(
    s_before: Scenario, s_after: Scenario, requests: list[m.FlowRequest]
) -> tuple[DecisionDiff, ...]:
    """Requests whose verdicts differ between two scenarios, with both traces.

    ``s_after`` takes what still holds of the query memos of ``s_before``
    (``engine.hand_on``): each memo that nothing its entries read has
    changed, and, once ``s_before`` has evaluated a request, that request's
    leg and its class's answer where their checks accept them. Every request
    still goes through ``evaluate_flow`` on both sides.
    """
    hand = hand_on(s_before, s_after)  # refuses a broken scenario, even with no requests
    diffs = []
    for r in sorted(requests, key=request_key):
        try:
            before, trace_before = evaluate_flow(s_before, r)
            hand(r)
            after, trace_after = evaluate_flow(s_after, r)
        except UnknownEntityError as e:
            raise IncompatibleRequestSpaceError(
                f"request {request_key(r)} references entities missing from one scenario"
            ) from e
        if before.verdict != after.verdict:
            diffs.append(
                DecisionDiff(
                    request=r,
                    before=before,
                    after=after,
                    trace_before=trace_before,
                    trace_after=trace_after,
                )
            )
    return tuple(diffs)
