"""cloudperim benchmark: one workload, one seed, one line of JSON.

    python3 perfbench/run.py --workload templates --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` the last line holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced run. See
``perfbench/README.md`` for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import math
import random
import resource
import statistics
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
DIGESTS = HERE / "digests.json"
SPANS_WRITTEN = 250_000
SWEEP_SPOKES = (10, 50, 200, 800)
SWEEP_REQUESTS = 60
# Enforcement-point functions of the engine, by per-layer metric stem.
ENGINE_POINTS = {
    "firewall_chain": "engine.evaluate_firewall_chain",
    "gateways": "engine.evaluate_gateways",
    "endpoint_pair": "engine.evaluate_endpoint_pair",
    "perimeter_crossing": "engine.evaluate_perimeter_crossing",
    "authn": "engine.evaluate_authn",
    "rbac": "engine.evaluate_rbac",
}
ANALYSIS_SPANS = {
    "matrix": "analysis.reachability_matrix",
    "exfil": "analysis.exfiltration_paths",
    "blast": "analysis.blast_radius",
    "diff": "analysis.diff_decisions",
}

perf = time.perf_counter


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def digest(lines: list[str]) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


def digest_key(workload, seed: int) -> str:
    # the templates' outputs do not depend on the seed, which only orders them
    return "*" if workload.name == "templates" else str(seed)


def load_program():
    src = ROOT / "src"
    if not (src / "cloudperim" / "__init__.py").is_file():
        raise SystemExit(f"error: no cloudperim package under {src}; run from a checkout root")
    sys.path.insert(0, str(src))
    import workloads

    return workloads


class Run:
    """The passes of one run.

    Every pass runs the same steps in the same order. Outputs are digested
    pass by pass; only the first pass's outputs are kept, for the oracle and
    self-checks. A shared machine switches between slower and faster
    stretches, some lasting under a second and some longer than a run. So
    with a ``speed.Meter`` (untraced runs), each step's time is divided by
    the machine's slowness around it, and timings average over the run's
    passes rather than take one median of all samples.
    """

    def __init__(self, workload, seconds: float, tracer=None, setups: list[float] | None = None,
                 meter=None):
        self.workload = workload
        self.walls: list[float] = []
        self.steps: list[list[float]] = []
        self.slowness: list[float] = []
        self.digests: list[str] = []
        self.failures = 0
        workload.meter = meter
        passes = []
        deadline = perf() + seconds
        while not passes or perf() < deadline:
            if setups is not None and len(setups) < workload.setup_repeats:
                # Set-ups are spread between the passes, so that their median
                # samples the whole run; they do not count against its length.
                t0 = perf()
                setups.append(scaled_setup(workload, meter))
                deadline += perf() - t0
            gc.collect()
            p = workload.run_pass()
            if not passes:
                self.labels, self.counts, self.outputs = p.labels, p.counts, p.outputs
            elif p.labels != self.labels:
                raise RuntimeError("a pass ran different steps from the first")
            with tracer.paused() if tracer else contextlib.nullcontext():
                self.digests.append(digest(workload.digest_lines(p.outputs)))
            self.failures += p.failures
            passes.append((p.wall, p.steps, p.marks))  # not the outputs, which would add to peak RSS
        workload.meter = None
        if meter:
            meter.finish()
        for wall, raw, marks in passes:
            steps = [t / meter.slowness(mark) for t, mark in zip(raw, marks)] if meter else raw
            k = sum(raw) / sum(steps)
            self.walls.append(wall / k)
            self.steps.append(steps)
            self.slowness.append(k)

    def ops(self, steps: list[float] | None = None) -> list[float]:
        """Unit-operation times of one pass, or of every pass pooled."""
        if steps is None:
            return [t for pass_steps in self.steps for t in self.ops(pass_steps)]
        return [t for t, label in zip(steps, self.labels) if label in self.workload.units]

    def seconds(self, label: str) -> float:
        """Mean over passes of the time one pass spends in steps labelled ``label``."""
        return statistics.fmean(
            sum(t for t, lab in zip(steps, self.labels) if lab == label) for steps in self.steps
        )

    def tail(self) -> float:
        """The workload's tail percentile over the operations of a pass, each
        taken at its median latency over the passes. Every pass runs the same
        operations, so a pause that hits one operation in one pass does not
        reach the tail; an operation that is slow in every pass does."""
        per_op = [statistics.median(times) for times in zip(*map(self.ops, self.steps))]
        return percentile(per_op, self.workload.tail)

    def p50(self) -> float:
        """Median unit-operation latency of a pass, averaged over the passes."""
        return statistics.fmean(statistics.median(self.ops(steps)) for steps in self.steps)

    def ops_per_s(self) -> float:
        """Unit operations per second of operation time, over all passes."""
        ops = self.ops()
        return len(ops) / sum(ops)

    @property
    def passes(self) -> int:
        return len(self.walls)


def scaled_setup(workload, meter=None) -> float:
    """One set-up's seconds, scaled by the machine's slowness around it."""
    gc.collect()
    return meter.around(workload.setup) if meter else workload.setup()


def check(run: Run, recorded: str | None, log) -> tuple[int, int, dict]:
    """Digest, oracle and self-checks. Returns (attempted, failed, facts)."""
    import workloads
    from cloudperim import engine, oracle

    workload = run.workload
    ops_per_pass = len(run.ops(run.steps[0]))
    attempted = ops_per_pass * run.passes
    if workload.name == "templates":
        attempted += run.labels.count("cli") * run.passes
    failed = run.failures
    reference = recorded or run.digests[0]
    failed += ops_per_pass * sum(d != reference for d in run.digests)
    log(f"digest {run.digests[0][:16]} "
        + ("matches the recorded digest" if recorded == run.digests[0]
           else "differs from the recorded digest" if recorded
           else "(no digest recorded for this seed; passes compared with each other)")
        + f"; {sum(d == reference for d in run.digests)}/{run.passes} passes agree")

    decided = workload.decided(run.outputs)
    mix = {p: 0 for p in workloads.POINTS}
    for *_, point in decided:
        mix[point] += 1
    missing = [p for p in workload.required_points if not mix[p]]
    log(f"decided by ({len(decided)} evaluate_flow calls of one pass): "
        + ", ".join(f"{p}={n}" for p, n in mix.items()))
    if missing:
        log(f"self-check failed: no request decided at {', '.join(missing)}")
        failed += 1

    # The engine is timed on an equal scenario with a cold index, first (cold
    # route cache, as the oracle always is) and then again (warm).
    oracle_s = cold_s = warm_s = 0.0
    sample = workload.oracle_sample(decided)
    mismatched = 0
    for s, r, decision, _ in sample:
        t0 = perf()
        expected = oracle.oracle_evaluate(s, r)
        oracle_s += perf() - t0
        copy = workloads.fresh(s)
        t0 = perf()
        engine.evaluate_flow(copy, r)
        t1 = perf()
        engine.evaluate_flow(copy, r)
        warm_s += perf() - t1
        cold_s += t1 - t0
        mismatched += expected != decision
    attempted += len(sample)
    failed += mismatched
    log(f"oracle: {len(sample) - mismatched}/{len(sample)} decisions agree (verdict and reason)")
    facts = {"oracle_s": oracle_s, "engine_cold_s": cold_s, "engine_warm_s": warm_s}
    return attempted, failed, facts


def end_to_end(run: Run, setups: list[float], peak_rss_mb: float) -> dict:
    return {
        "setup_s": (statistics.median(setups), "s"),
        "op_p50_us": (run.p50() * 1e6, "us"),
        "op_tail_us": (run.tail() * 1e6, "us"),
        "ops_per_s": (run.ops_per_s(), "1/s"),
        "pass_s": (statistics.fmean(run.walls), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def named_metrics(run: Run) -> dict:
    """The workload's metrics under the names the README gives them."""
    workload = run.workload
    tail = f"p{round(workload.tail * 100)}"
    if workload.name in ("templates", "spokes-query"):
        out = {
            "eval_p50_us": (run.p50() * 1e6, "us"),
            f"eval_tail_us ({tail})": (run.tail() * 1e6, "us"),
            "decisions_per_s": (run.ops_per_s(), "1/s"),
        }
        if workload.name == "templates":
            out["cli_suite_s"] = (run.seconds("cli"), "s")
        return out
    if workload.name == "spokes-analysis":
        return {
            "matrix_cells_per_s": (run.counts["matrix_cells"] / run.seconds("matrix"), "1/s"),
            "blast_s": (run.seconds("blast"), "s"),
            "exfil_s": (run.seconds("exfil"), "s"),
            "verify_compile_s": (run.seconds("verify_compile"), "s"),
        }
    return {
        "edit_p50_ms": (run.p50() * 1e3, "ms"),
        f"edit_tail_ms ({tail})": (run.tail() * 1e3, "ms"),
    }


def per_layer(tracer, run: Run, baseline, facts: dict, sweep: dict) -> dict:
    import workloads

    totals = tracer.totals()

    def calls(name):
        return totals[name][0] if name in totals else 0

    def seconds(name, self_only=False):
        return totals[name][2 if self_only else 1] if name in totals else 0.0

    out = {
        "scenario.yaml_load_s": (seconds("yaml.safe_load"), "s"),
        "scenario.parse_s": (seconds("scenario.parse_scenario", self_only=True), "s"),
        "scenario.validate_s": (seconds("scenario.validate_scenario"), "s"),
        "scenario.validate_calls": (calls("scenario.validate_scenario"), "count"),
        "scenario.index_build_s": (seconds("scenario.ScenarioIndex"), "s"),
        "scenario.index_builds": (calls("scenario.ScenarioIndex"), "count"),
        "route.resolve_calls": (tracer.route_calls, "count"),
        "route.resolve_s": (seconds("route.resolve_path"), "s"),
        "route.hit_ratio": (tracer.route_repeats / tracer.route_calls if tracer.route_calls else 0.0,
                            "ratio"),
        "identity.resolve_credential_calls": (calls("identity.resolve_credential"), "count"),
        "identity.resolve_credential_s": (seconds("identity.resolve_credential"), "s"),
        "identity.chain_is_valid_calls": (calls("identity.chain_is_valid"), "count"),
        "identity.chain_is_valid_s": (seconds("identity.chain_is_valid"), "s"),
    }
    children = tracer.child_totals("engine.evaluate_flow")
    evaluate_s = seconds("engine.evaluate_flow")
    for stem, span in ENGINE_POINTS.items():
        out[f"engine.{stem}_calls"] = (calls(span), "count")
        out[f"engine.{stem}_s"] = (seconds(span), "s")
    out["engine.target_tags_s"] = (seconds("engine.target_tags"), "s")
    out["engine.route_s"] = (children.get("route.resolve_path", 0.0), "s")
    out["engine.self_s"] = (seconds("engine.evaluate_flow", self_only=True), "s")
    out["engine.evaluate_s"] = (evaluate_s, "s")
    out["engine.requests"] = (calls("engine.evaluate_flow"), "count")
    # the share of evaluate_flow time that the route and the six points explain
    named = out["engine.route_s"][0] + sum(children.get(span, 0.0) for span in ENGINE_POINTS.values())
    out["engine.accounted_ratio"] = (named / evaluate_s if evaluate_s else 0.0, "ratio")
    for point in workloads.POINTS:
        out[f"engine.decided_by.{point}"] = (tracer.decided_by[point], "count")
    for stem, span in ANALYSIS_SPANS.items():
        out[f"analysis.{stem}_s"] = (seconds(span), "s")
    for stem in ANALYSIS_SPANS:
        n = tracer.analysis_calls[stem]
        out[f"analysis.evaluate_calls.{stem}"] = (n, "count")
        out[f"analysis.useful_ratio.{stem}"] = (tracer.analysis_distinct[stem] / n if n else 0.0,
                                                "ratio")
    out["compiler.compile_s"] = (seconds("compiler.compile_perimeter"), "s")
    out["compiler.build_compiled_s"] = (seconds("compiler.build_compiled_scenario"), "s")
    out["compiler.verify_s"] = (seconds("compiler.verify_compilation"), "s")
    out["lint.lint_s"] = (seconds("lint.lint"), "s")
    out["cli.main_s"] = (seconds("cli.main"), "s")
    out["records.emit_s"] = (
        sum((v[1] for k, v in totals.items() if k.startswith("records.")), 0.0), "s"
    )
    out["oracle.evaluate_s"] = (facts["oracle_s"], "s")
    for key, name in (("engine_cold_s", "engine.vs_oracle_ratio"),
                      ("engine_warm_s", "engine.vs_oracle_ratio.warm")):
        out[name] = (facts[key] / facts["oracle_s"] if facts["oracle_s"] else 0.0, "ratio")
    out["trace.overhead_ratio"] = (statistics.fmean(run.walls) / baseline.wall, "ratio")
    out["trace.spans"] = (len(tracer.name), "count")
    out.update(sweep)
    return out


def scale_sweep(seed: int, log) -> dict:
    """Set-up time and warm/cold evaluation latency across estate sizes (untraced)."""
    import gen
    import workloads
    from cloudperim import engine

    out = {}
    for spokes in SWEEP_SPOKES:
        estate = gen.hub_and_spoke(spokes, seed)
        elapsed, base = workloads.timed_setup(estate.text())
        requests = gen.flow_requests(estate, random.Random(f"sweep:{seed}:{spokes}"), SWEEP_REQUESTS)
        s = workloads.fresh(base)
        timings = {"cold": [], "warm": []}
        for phase in ("cold", "warm"):
            for r in requests:
                t0 = perf()
                engine.evaluate_flow(s, r)
                timings[phase].append(perf() - t0)
        out[f"scenario.setup_s.spokes{spokes}"] = (elapsed, "s")
        for phase in ("warm", "cold"):
            out[f"engine.eval_p50_us.spokes{spokes}.{phase}"] = (
                statistics.median(timings[phase]) * 1e6, "us"
            )
        log(f"sweep {spokes} spokes: setup {elapsed:.3f} s")
    return out


def record_digest(workloads, name: str, seed: int) -> None:
    workload = workloads.WORKLOADS[name](seed)
    workload.prepare()
    workload.setup()
    value = digest(workload.digest_lines(workload.run_pass().outputs))
    table = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    table.setdefault(name, {})[digest_key(workload, seed)] = value
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"{name} seed {seed}: {value}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digest", action="store_true",
                        help="run one pass and store its output digest for this seed")
    args = parser.parse_args(argv)

    workloads = load_program()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    if args.record_digest:
        record_digest(workloads, args.workload, args.seed)
        return 0

    def log(line: str) -> None:
        print(f"[{args.workload} seed {args.seed}] {line}", flush=True)

    workload = workloads.WORKLOADS[args.workload](args.seed)
    workload.prepare()
    meter = None if args.trace else speed.Meter()
    setups = [scaled_setup(workload, meter)]

    tracer = baseline = None
    if args.trace:
        from spans import Tracer

        gc.collect()
        baseline = workload.run_pass()
        tracer = Tracer()
        tracer.install()
    try:
        if tracer is None:
            run = Run(workload, args.seconds, setups=setups, meter=meter)
            while len(setups) < workload.setup_repeats:
                setups.append(scaled_setup(workload, meter))
            log(f"setup_s runs: {', '.join(f'{t:.4f}' for t in setups)}")
            log(f"machine slowness per pass: {', '.join(f'{k:.3f}' for k in run.slowness)}; "
                f"unscaled pass_s {statistics.fmean(w * k for w, k in zip(run.walls, run.slowness)):.4f}")
        else:
            workload.setup()  # so the traced run sees YAML load, model build and validation
            run = Run(workload, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    # before the checks, whose oracle and re-run passes would add their own peak
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    recorded = None
    if DIGESTS.exists():
        table = json.loads(DIGESTS.read_text())
        recorded = table.get(workload.name, {}).get(digest_key(workload, args.seed))
    attempted, failed, facts = check(run, recorded, log)
    if tracer is not None:
        broken = tracer.nesting_errors("engine.evaluate_flow")
        log(f"span nesting: {broken} evaluate_flow spans whose children do not nest inside them")
        failed += bool(broken)
    ops = len(run.ops())
    log(f"{run.passes} passes, {ops} x {workload.op}; error_rate {failed}/{attempted}")

    if args.trace:
        sweep = scale_sweep(args.seed, log)
        metrics = per_layer(tracer, run, baseline, facts, sweep)
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"spans-{workload.name}-seed{args.seed}.tsv"
        written = tracer.write(path, SPANS_WRITTEN)
        log(f"{len(tracer.name)} spans, {written} written to {path.relative_to(ROOT)}")
    else:
        metrics = end_to_end(run, setups, peak_rss_mb)
        for name, (value, unit) in named_metrics(run).items():
            log(f"{name} = {value:.6g} {unit}")
        per_pass = ops // run.passes
        log(f"op_tail_us is p{round(workload.tail * 100)} of the {per_pass} operations of a pass "
            f"({per_pass - math.ceil(workload.tail * per_pass)} beyond it), "
            f"each at its median over {run.passes} passes")
    for name, (value, unit) in metrics.items():
        log(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
