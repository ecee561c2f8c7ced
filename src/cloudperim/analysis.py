"""Whole-scenario analyses: reachability, exfiltration chains, blast radius,
and decision diffing between scenario variants.

All enumerations are canonical (sorted keys), so results are byte-identical
regardless of evaluation order. The request space is finite by construction:
loci and services come from the scenario, methods from the method universe
(every method named by a binding, perimeter rule, or endpoint policy, plus
the defaults ``connect`` and ``read``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import model as m
from .engine import evaluate_flow
from .errors import (
    IncompatibleRequestSpaceError,
    RequestSpaceTooLargeError,
    UnknownPerimeterError,
    UnknownTagError,
    UnknownWorkloadError,
)
from .scenario import Scenario

DEFAULT_CELL_CAP = 10**6
DEFAULT_READ_METHODS = ("read",)
DEFAULT_HOP_BOUND = 3


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


def default_request_space(
    s: Scenario,
    principals: list[str] | None = None,
    loci: list[str] | None = None,
    targets: list[str] | None = None,
    methods: list[str] | None = None,
    cap: int = DEFAULT_CELL_CAP,
) -> list[m.FlowRequest]:
    """Canonical finite enumeration of requests for matrices and diffs."""
    principals = sorted(x.id for x in s.principals) if principals is None else list(principals)
    loci = source_loci(s) if loci is None else list(loci)
    targets = flow_targets(s) if targets is None else list(targets)
    methods = method_universe(s) if methods is None else list(methods)
    total = len(principals) * len(loci) * len(targets) * len(methods)
    if total > cap:
        raise RequestSpaceTooLargeError(f"{total} requests exceed the cap of {cap}")
    return [
        m.FlowRequest(principal=p, source=l, target=t, method=meth)
        for p in principals
        for l in loci
        for t in targets
        for meth in methods
    ]


def request_key(r: m.FlowRequest) -> tuple[str, str, str, str]:
    return (r.principal, r.source, r.target, r.method)


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
    requests = default_request_space(s, principals, loci, targets, methods, cap)
    rows: list[tuple[str, str]] = []
    cols: list[tuple[str, str]] = []
    cells = {}
    for r in requests:
        row = (r.principal, r.source)
        col = (r.target, r.method)
        if row not in rows:
            rows.append(row)
        if col not in cols:
            cols.append(col)
        decision, _ = evaluate_flow(s, r)
        cells[(row, col)] = decision
    return ReachabilityMatrix(rows=tuple(rows), columns=tuple(cols), cells=cells)


# ---------------------------------------------------------------------------
# Exfiltration chains
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
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
    if locus in m.DISTINGUISHED_LOCI:
        return True
    seg = s.index().segments.get(locus)
    return seg is None or seg.project not in member_projects


def exfiltration_paths(
    s: Scenario,
    tag: str,
    perimeter: str,
    bound: int = DEFAULT_HOP_BOUND,
    read_methods: tuple[str, ...] = DEFAULT_READ_METHODS,
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
        raise UnknownPerimeterError(perimeter)
    if not any(tag in a.tags for a in s.assets):
        raise UnknownTagError(tag)
    members = idx.memberships()[perimeter]

    tagged_assets = {a.id for a in s.assets if tag in a.tags}
    serving = [
        svc
        for svc in sorted(s.services, key=lambda x: x.id)
        if tagged_assets & set(list(svc.reads) + list(svc.writes))
    ]
    methods = method_universe(s)
    chains: list[ExfilChain] = []

    def relay_positions(locus: str, held: frozenset[str]):
        for target in flow_targets(s):
            for principal in sorted(held):
                for method in methods:
                    r = m.FlowRequest(principal=principal, source=locus, target=target, method=method)
                    decision, _ = evaluate_flow(s, r)
                    if not decision.allowed:
                        continue
                    if target == m.INTERNET:
                        yield r, m.INTERNET, held
                    else:
                        svc = idx.services[target]
                        yield r, svc.segment, held | frozenset(svc.run_as)

    def extend(flows: list[m.FlowRequest], trajectory: list[str], held: frozenset[str]) -> None:
        position = trajectory[-1]
        if _outside(position, members, s):
            chains.append(
                ExfilChain(flows=tuple(flows), trajectory=tuple(trajectory), escape_locus=position)
            )
            return
        if len(flows) >= bound:
            return
        for flow, nxt, nxt_held in relay_positions(position, held):
            if nxt in trajectory:
                continue
            extend(flows + [flow], trajectory + [nxt], nxt_held)

    for svc in serving:
        for principal in sorted(x.id for x in s.principals):
            for locus in source_loci(s):
                for method in read_methods:
                    r = m.FlowRequest(principal=principal, source=locus, target=svc.id, method=method)
                    decision, _ = evaluate_flow(s, r)
                    if decision.allowed:
                        extend([r], [locus], frozenset({principal}))

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
    origin = [
        svc
        for svc in s.services
        if svc.id == workload or svc.workload == workload or workload in svc.backends
    ]
    if not origin:
        raise UnknownWorkloadError(workload)
    idx = s.index()
    methods = method_universe(s)
    targets = sorted(x.id for x in s.services if x.id not in {o.id for o in origin})

    held = frozenset(p for svc in origin for p in svc.run_as)
    loci = frozenset(svc.segment for svc in origin)
    report = BlastReport(workload=workload)
    frontier: set[tuple[str, frozenset[str]]] = {(locus, held) for locus in loci}
    visited: set[tuple[str, frozenset[str]]] = set(frontier)

    for hop in range(1, bound + 1):
        nxt_frontier: set[tuple[str, frozenset[str]]] = set()
        for locus, have in sorted(frontier, key=lambda st: (st[0], sorted(st[1]))):
            for target in targets:
                svc = idx.services[target]
                for principal in sorted(have):
                    for method in methods:
                        r = m.FlowRequest(
                            principal=principal, source=locus, target=target, method=method
                        )
                        decision, _ = evaluate_flow(s, r)
                        if not decision.allowed:
                            continue
                        key = (target, method)
                        if key not in report.reached:
                            report.reached[key] = hop
                        state = (svc.segment, have | frozenset(svc.run_as))
                        if state not in visited:
                            visited.add(state)
                            nxt_frontier.add(state)
        frontier = nxt_frontier
        if not frontier:
            break
    return report


# ---------------------------------------------------------------------------
# Decision diffing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DecisionDiff:
    request: m.FlowRequest
    before: m.Decision
    after: m.Decision
    trace_before: m.DecisionTrace
    trace_after: m.DecisionTrace


def _entities_known(s: Scenario, r: m.FlowRequest) -> bool:
    idx = s.index()
    if r.principal not in idx.principals:
        return False
    if r.source not in idx.segments and r.source not in m.DISTINGUISHED_LOCI:
        return False
    return r.target == m.INTERNET or r.target in idx.services or r.target in idx.endpoints


def diff_decisions(
    s_before: Scenario, s_after: Scenario, requests: list[m.FlowRequest]
) -> tuple[DecisionDiff, ...]:
    """Requests whose verdicts differ between two scenarios, with both traces."""
    diffs = []
    for r in sorted(requests, key=request_key):
        if not _entities_known(s_before, r) or not _entities_known(s_after, r):
            raise IncompatibleRequestSpaceError(
                f"request {request_key(r)} references entities missing from one scenario"
            )
        before, trace_before = evaluate_flow(s_before, r)
        after, trace_after = evaluate_flow(s_after, r)
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
