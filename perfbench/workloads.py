"""The four workloads: what one pass does, what it outputs, how it is checked.

Every workload has the same life cycle, driven by ``run.py``:

1. ``prepare``: build the inputs from the seed (untimed).
2. ``setup``: scenario text in memory -> ``parse_scenario`` +
   ``validate_scenario`` + first ``Scenario.index()``; returns seconds.
3. ``run_pass``: one pass over the workload's fixed inputs. A pass is a
   fixed sequence of timed steps, the same in every pass, each labelled with
   what it does; the steps labelled with one of ``units`` are the unit
   operations.
4. ``digest_lines`` and ``decided``: correctness, run outside the timed
   region. ``decided`` gives every ``evaluate_flow`` call behind the
   workload's own outputs, for the decision-coverage self-check and the
   oracle sample.

cloudperim functions are always reached through their module
(``engine.evaluate_flow``), so the traced run sees every call.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import random
import time
from importlib import resources

import gen
from cloudperim import analysis, cli, compiler, engine, records, scenario, templates
from cloudperim import model as m

perf = time.perf_counter
MECHANISMS = ("lift-shift", "hybrid", "zero-trust")
POINTS = ("ALLOW",) + tuple(p.value for p in m.ENFORCEMENT_CHAIN)


@dataclasses.dataclass
class PassResult:
    wall: float                                   # seconds for the whole pass
    labels: list[str]                             # what each timed step does
    steps: list[float]                            # seconds per step, same order every pass
    outputs: object = None                        # what the pass produced, for the checks
    failures: int = 0                             # invalid results and internal errors
    counts: dict = dataclasses.field(default_factory=dict)
    marks: list[int] = dataclasses.field(default_factory=list)  # speed.Meter mark per step


class Steps:
    """Times labelled steps of one pass.

    With a ``speed.Meter``, the reference kernel runs between steps when it
    is due; that time is left out of the steps and of the pass's wall time.
    """

    def __init__(self, meter=None) -> None:
        self.labels: list[str] = []
        self.steps: list[float] = []
        self.marks: list[int] = []
        self.meter = meter
        self.metered = 0.0
        self.start = perf()

    def add(self, label: str, t0: float) -> None:
        self.steps.append(perf() - t0)
        self.labels.append(label)
        if self.meter is not None:
            self.marks.append(self.meter.mark())
            self.metered += self.meter.tick()

    def result(self, outputs, failures: int = 0, **counts) -> PassResult:
        wall = perf() - self.start - self.metered
        return PassResult(wall, self.labels, self.steps, outputs, failures, counts, self.marks)


# ---------------------------------------------------------------------------
# Output formatting for digests
# ---------------------------------------------------------------------------


def fmt_request(r: m.FlowRequest) -> str:
    chain = ""
    if r.presented_chain is not None:
        chain = ">".join(f"{s.idp}/{s.principal}/{s.edge or ''}" for s in r.presented_chain.steps)
    tags = ",".join(sorted(r.payload_tags))
    return f"{r.principal}|{r.source}|{r.target}|{r.method}|{r.source_address or ''}|{tags}|{chain}"


def fmt_decision(d: m.Decision) -> str:
    return d.verdict.value + (f":{d.reason.value}" if d.reason else "")


def fmt_trace(trace) -> str:
    return ";".join(
        f"{st.point.value},{st.verdict.value},{st.rule},{st.reason.value if st.reason else ''}"
        for st in trace
    )


def deciding_point(decision: m.Decision, trace) -> str:
    if decision.allowed:
        return "ALLOW"
    return next(st.point.value for st in trace if st.verdict is m.Verdict.DENY)


@contextlib.contextmanager
def recording():
    """Record (scenario, request, decision, deciding point) of every
    ``evaluate_flow`` call inside the block, wherever callers look it up."""
    original = engine.evaluate_flow
    calls: list[tuple] = []

    def recorder(s, r):
        decision, trace = original(s, r)
        calls.append((s, r, decision, deciding_point(decision, trace)))
        return decision, trace

    owners = [mod for mod in (engine, analysis) if mod.evaluate_flow is original]
    for mod in owners:
        mod.evaluate_flow = recorder
    try:
        yield calls
    finally:
        for mod in owners:
            mod.evaluate_flow = original


def fresh(s: scenario.Scenario) -> scenario.Scenario:
    """An equal scenario with a cold index, built outside any timed region."""
    copy = dataclasses.replace(s)
    copy.index()
    return copy


def timed_setup(text: str) -> tuple[float, scenario.Scenario]:
    t0 = perf()
    s = scenario.parse_scenario(text)
    violations = scenario.validate_scenario(s)
    s.index()
    elapsed = perf() - t0
    if violations:
        raise RuntimeError(f"{s.name}: {len(violations)} violations, first: {violations[0]}")
    return elapsed, s


class Workload:
    name = ""
    units: tuple[str, ...] = ()  # labels of the steps that are unit operations
    op = ""              # what one unit operation is, in words
    # op_tail_us's percentile over the operations of a pass: p99, or lower where
    # a pass has too few operations to leave 10 beyond p99
    tail = 0.99
    setup_repeats = 5
    # outcomes the self-check requires at least one decision for
    required_points = POINTS
    oracle_count: int | None = None  # decisions compared with the oracle; None: all
    meter = None         # a speed.Meter while the timed passes run untraced

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def decided(self, outputs) -> list[tuple]:
        """(scenario, request, decision, deciding point) of every ``evaluate_flow``
        call of one pass. By default the pass is run again, untimed, with the
        calls recorded."""
        with recording() as calls:
            self.run_pass()
        return calls

    def oracle_sample(self, decided: list[tuple]) -> list[tuple]:
        if self.oracle_count is None or self.oracle_count >= len(decided):
            return decided
        return random.Random(f"oracle:{self.name}:{self.seed}").sample(decided, self.oracle_count)


# ---------------------------------------------------------------------------
# templates
# ---------------------------------------------------------------------------


class Templates(Workload):
    name = "templates"
    units = ("eval",)
    op = "evaluate_flow call"
    # The templates' default request spaces decide nothing at these two points.
    required_points = tuple(p for p in POINTS if p not in ("HIER_FIREWALL", "PRODUCER_ATTACHMENT"))

    def prepare(self) -> None:
        rng = random.Random(f"templates:{self.seed}")
        self.order = list(templates.TEMPLATE_NAMES)
        rng.shuffle(self.order)
        self.text = {n: templates.template_text(n) for n in self.order}
        self.requests = {}
        self.suite: list[tuple[str, list[str]]] = []
        for n in self.order:
            s = scenario.parse_scenario(self.text[n])
            reqs = analysis.default_request_space(s)
            rng.shuffle(reqs)
            self.requests[n] = reqs
            path = str(resources.files("cloudperim.data").joinpath(f"{n}.yaml"))
            self.suite += [(n, argv) for argv in _cli_suite(s, path)]
        self.scenarios: dict[str, scenario.Scenario] = {}

    def setup(self) -> float:
        return sum(timed_setup(self.text[n])[0] for n in self.order)

    def run_pass(self) -> PassResult:
        steps = Steps(self.meter)
        evals, runs = [], []
        failures = 0
        for n in self.order:
            t0 = perf()
            s = scenario.parse_scenario(self.text[n])
            violations = scenario.validate_scenario(s)
            steps.add("load", t0)
            failures += bool(violations)
            self.scenarios[n] = s
            for r in self.requests[n]:
                t0 = perf()
                decision, trace = engine.evaluate_flow(s, r)
                steps.add("eval", t0)
                evals.append((n, r, decision, trace))
        for n, argv in self.suite:
            out, err = io.StringIO(), io.StringIO()
            t0 = perf()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            steps.add("cli", t0)
            failures += code == cli.EXIT_INTERNAL
            # the template name stands for its path, which differs between checkouts
            command = " ".join(argv[:1] + [n] + argv[3:])
            runs.append((command, code, out.getvalue(), err.getvalue()))
        return steps.result((evals, runs), failures)

    def digest_lines(self, outputs) -> list[str]:
        # sorted, so the seed (which only orders the work) does not change the digest
        evals, runs = outputs
        return sorted(
            f"{n}|{fmt_request(r)}|{fmt_decision(d)}|{fmt_trace(t)}" for n, r, d, t in evals
        ) + sorted(f"{command}|{code}|{out}|{err}" for command, code, out, err in runs)

    def decided(self, outputs) -> list[tuple]:
        return [(self.scenarios[n], r, d, deciding_point(d, t)) for n, r, d, t in outputs[0]]


def _cli_suite(s: scenario.Scenario, path: str) -> list[list[str]]:
    """validate, lint, matrix, exfil, blast, compile and verify-compile for one file."""
    base = ["--scenario", path, "--output", "records"]
    suite = [["validate", *base], ["lint", *base], ["matrix", *base]]
    for tag in sorted({t for a in s.assets for t in a.tags}):
        for p in s.perimeters:
            suite.append(["exfil", *base, "--tag", tag, "--perimeter", p.id])
    for w in sorted({svc.workload for svc in s.services if svc.workload}):
        suite.append(["blast", *base, "--workload", w])
    # one mechanism per perimeter, rotating so every mechanism is exercised
    for i, p in enumerate(s.perimeters):
        suite.append(["compile", *base, "--perimeter", p.id, "--mechanism", MECHANISMS[(i + 1) % 3]])
        suite.append(["verify-compile", *base, "--perimeter", p.id, "--mechanism", MECHANISMS[i % 3]])
    return suite


# ---------------------------------------------------------------------------
# Generated estates
# ---------------------------------------------------------------------------


class _Generated(Workload):
    spokes = 0
    layout: int | None = None  # fixed role layout, or None to draw it from the seed
    oracle_count = 100

    def prepare(self) -> None:
        self.estate = gen.hub_and_spoke(self.spokes, self.seed, self.layout)
        self.text = self.estate.text()

    def setup(self) -> float:
        elapsed, self.base = timed_setup(self.text)
        return elapsed


class SpokesQuery(_Generated):
    name = "spokes-query"
    units = ("eval",)
    op = "evaluate_flow call"
    spokes = 200
    stream_count = 1500
    setup_repeats = 3

    def prepare(self) -> None:
        super().prepare()
        self.stream = gen.flow_requests(
            self.estate, random.Random(f"stream:{self.seed}"), self.stream_count
        )

    def run_pass(self) -> PassResult:
        s = fresh(self.base)
        steps = Steps(self.meter)
        outputs = []
        for r in self.stream:
            t0 = perf()
            decision, trace = engine.evaluate_flow(s, r)
            steps.add("eval", t0)
            outputs.append((r, decision, trace))
        return steps.result(outputs)

    def digest_lines(self, outputs) -> list[str]:
        return [f"{fmt_request(r)}|{fmt_decision(d)}|{fmt_trace(t)}" for r, d, t in outputs]

    def decided(self, outputs) -> list[tuple]:
        return [(self.base, r, d, deciding_point(d, t)) for r, d, t in outputs]


class SpokesAnalysis(_Generated):
    name = "spokes-analysis"
    units = ("matrix", "blast", "exfil", "verify_compile")
    op = "analysis call"
    spokes = 12
    layout = 0
    tail = 0.6  # 26 calls a pass

    def prepare(self) -> None:
        super().prepare()
        e = self.estate
        # Each analysis covers the whole estate: every spoke's principal, every
        # workload, every data tag.
        self.matrix_principals = sorted(sp.app_principal for sp in e.spokes)
        # Spoke workloads one hop out; the hub's two hops out, where blast
        # radius asks the same requests again.
        self.blasts = [(w, 1) for w in e.workloads if w != "wl-hub"] + [("wl-hub", 2)]
        self.exfil = [(tag, p) for tag in gen.DATA_TAGS for p in e.dp_perimeters]
        self.verify_perimeter = e.dp_perimeters[0]
        self.verify_requests = gen.flow_requests(e, random.Random(f"verify:{self.seed}"), 100)

    def run_pass(self) -> PassResult:
        s = fresh(self.base)
        steps = Steps(self.meter)
        outputs = []
        cells = 0
        for principal in self.matrix_principals:
            t0 = perf()
            matrix = analysis.reachability_matrix(s, principals=[principal], methods=["read"])
            steps.add("matrix", t0)
            cells += len(matrix.cells)
            outputs.append(("matrix", matrix))
        for w, bound in self.blasts:
            t0 = perf()
            report = analysis.blast_radius(s, w, bound=bound)
            steps.add("blast", t0)
            outputs.append(("blast", report))
        for tag, p in self.exfil:
            t0 = perf()
            report = analysis.exfiltration_paths(s, tag, p, bound=1)
            steps.add("exfil", t0)
            outputs.append(("exfil", report))
        for mech in MECHANISMS:
            t0 = perf()
            compiled = compiler.compile_perimeter(s, self.verify_perimeter, mech)
            report = compiler.verify_compilation(s, compiled, self.verify_requests)
            steps.add("verify_compile", t0)
            outputs.append(("verify", report))
        return steps.result(outputs, matrix_cells=cells)

    def digest_lines(self, outputs) -> list[str]:
        emit = {
            "matrix": records.matrix_records,
            "blast": records.blast_records,
            "exfil": records.exfil_records,
            "verify": records.divergence_records,
        }
        lines = []
        for kind, report in outputs:
            lines.append(f"# {kind}")
            lines += emit[kind](report)
        return lines


class PolicyEdits(_Generated):
    name = "policy-edits"
    units = ("edit",)
    op = "edit (build, validate, diff)"
    spokes = 40
    layout = 0
    tail = 0.8  # 60 edits a pass
    edit_count = 60
    sample_count = 40

    def prepare(self) -> None:
        super().prepare()
        candidates = gen.flow_requests(
            self.estate, random.Random(f"sample:{self.seed}"), 10 * self.sample_count
        )
        self.sample = stratified_sample(
            scenario.parse_scenario(self.text), candidates, self.sample_count
        )
        self.edits = gen.restriction_edits(
            self.estate, random.Random(f"edits:{self.seed}"), self.edit_count
        )

    def run_pass(self) -> PassResult:
        prev = fresh(self.base)
        steps = Steps(self.meter)
        outputs = []
        failures = 0
        for edit in self.edits:
            t0 = perf()
            nxt = apply_edit(prev, edit)
            violations = scenario.validate_scenario(nxt)
            diffs = analysis.diff_decisions(prev, nxt, self.sample)
            steps.add("edit", t0)
            failures += bool(violations)
            outputs.append((edit, violations, diffs))
            prev = nxt
        return steps.result(outputs, failures)

    def digest_lines(self, outputs) -> list[str]:
        lines = []
        for edit, violations, diffs in outputs:
            lines.append(f"edit {sorted(edit.items())} violations={len(violations)}")
            for d in diffs:
                lines.append(
                    f"{fmt_request(d.request)}|{fmt_decision(d.before)}>{fmt_decision(d.after)}|"
                    f"{fmt_trace(d.trace_before)}|{fmt_trace(d.trace_after)}"
                )
        return lines


def stratified_sample(s: scenario.Scenario, candidates: list, count: int) -> list:
    """``count`` of the candidates, in their order, with each outcome that ``s``
    decides for them in its share of the candidates, and at least once.

    A few dozen requests drawn plainly can miss an outcome that is a few
    percent of the mix, and their outcome mix, and so their cost, moves with
    the seed; this sample keeps both steady.
    """
    by_point: dict[str, list[int]] = {}
    for i, r in enumerate(candidates):
        by_point.setdefault(deciding_point(*engine.evaluate_flow(s, r)), []).append(i)
    n = len(candidates)
    quota = {p: max(1, count * len(ix) // n) for p, ix in by_point.items()}
    # the places left go to the outcomes with the largest remainders
    by_remainder = sorted(by_point, key=lambda p: -(count * len(by_point[p]) % n))
    for p in by_remainder[: count - sum(quota.values())]:
        quota[p] += 1
    return [candidates[i] for i in sorted(i for p, ix in by_point.items() for i in ix[: quota[p]])]


def apply_edit(s: scenario.Scenario, edit: dict) -> scenario.Scenario:
    """The scenario after one restriction edit planned by ``gen.restriction_edits``."""
    n, kind = edit["n"], edit["kind"]
    if kind == "deny_rule":
        rule = m.FirewallRule(
            id=f"edit{n}-deny", scope=edit["scope"], priority=edit["priority"],
            action=m.RuleAction.DENY, src=(m.ANY,), dst=(edit["dst"],),
        )
        return dataclasses.replace(s, firewall_rules=s.firewall_rules + (rule,))
    if kind == "drop_gateway_allow":
        edges = tuple(
            dataclasses.replace(
                e, gateway_rules=tuple(r for r in e.gateway_rules if r.id != edit["rule"])
            ) if e.id == edit["edge"] else e
            for e in s.edges
        )
        return dataclasses.replace(s, edges=edges)
    if kind == "drop_binding":
        return dataclasses.replace(
            s, bindings=tuple(b for b in s.bindings if b.id != edit["binding"])
        )
    if kind == "add_perimeter":
        perimeter = m.AbstractPerimeter(
            id=f"edit{n}-perimeter",
            name=f"edit {n}",
            members=m.MemberSelector(projects=(edit["project"],)),
            ingress=(m.PerimeterRule(id=f"edit{n}-in", identities=("grp:staff",),
                                     networks=(m.ONPREM,)),),
            egress=(m.PerimeterRule(id=f"edit{n}-out",
                                    targets=(m.PerimeterTarget(project="prj-hub"),)),),
            mechanisms=frozenset({m.Mechanism.DATA_PLANE_PERIMETER}),
        )
        return dataclasses.replace(s, perimeters=s.perimeters + (perimeter,))
    predicate = m.AccessPredicate(
        id=f"edit{n}-deny", action=m.RuleAction.DENY,
        identities=tuple(edit.get("identities", ())), methods=tuple(edit.get("methods", ())),
    )
    endpoints = tuple(
        dataclasses.replace(ep, policy=(predicate,) + ep.policy) if ep.id == edit["endpoint"] else ep
        for ep in s.endpoints
    )
    return dataclasses.replace(s, endpoints=endpoints)


WORKLOADS = {w.name: w for w in (Templates, SpokesQuery, SpokesAnalysis, PolicyEdits)}
