"""Command-line surface.

Subcommands: validate, eval, matrix, exfil, blast, lint, compile,
verify-compile, scenarios. A scenario source is a file path or a built-in
template name (``fig*`` names work directly). Exit codes: 0 success/allow,
1 internal error, 2 bad input (a scenario that does not parse, or that has
violations, for every subcommand but validate), 3 policy deny or findings
present.

``--output records`` emits the stable line-delimited records documented in
the README; human output may change between versions.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from . import analysis, engine, prefix, records
from . import compiler as compiler_mod
from . import model as m
from .lint import error_findings
from .lint import lint as run_lint
from .errors import CloudPerimError, InvalidScenarioError, ScenarioParseError
from .scenario import Scenario, parse_scenario, validate_scenario
from .templates import TEMPLATE_NAMES, builtin_scenario, template_text

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_BAD_INPUT = 2
EXIT_POLICY = 3


class CliError(Exception):
    """Bad invocation or input; exits 2."""


def _read_scenario(source: str) -> Scenario:
    if source in TEMPLATE_NAMES:
        return builtin_scenario(source)
    path = Path(source)
    try:
        if not path.exists():
            raise CliError(f"scenario {source!r} is neither a template name nor a file")
        text = path.read_text("utf-8")
    except OSError as e:
        raise CliError(f"cannot read scenario {source!r}: {e.strerror}") from e
    return parse_scenario(text)


def _load_scenario(source: str) -> Scenario:
    """The scenario, indexed: one with violations is refused before any answer."""
    s = _read_scenario(source)
    s.index()
    return s


def _resolve_locus(s: Scenario, token: str) -> str:
    idx = s.index()
    if token in m.DISTINGUISHED_LOCI or token in idx.segments:
        return token
    if token.startswith("vm:"):
        backend = token[3:]
        for svc in s.services:
            if backend in svc.backends:
                return svc.segment
        raise CliError(f"no service has backend {backend!r}")
    if token.startswith("svc:") and token[4:] in idx.services:
        return idx.services[token[4:]].segment
    if token in idx.services:
        return idx.services[token].segment
    raise CliError(f"unknown source locus {token!r}")


def _resolve_target(s: Scenario, token: str) -> str:
    idx = s.index()
    if token == m.INTERNET or token in idx.services or token in idx.endpoints:
        return token
    for prefix in ("svc:", "ep:"):
        if token.startswith(prefix):
            bare = token[len(prefix):]
            if bare in idx.services or bare in idx.endpoints:
                return bare
    raise CliError(f"unknown target {token!r}")


def _split_csv(value: str | None) -> list[str] | None:
    if value is None:
        return None
    return [v.strip() for v in value.split(",") if v.strip()]


def _emit(lines: list[str]) -> None:
    if lines:
        sys.stdout.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_validate(args) -> int:
    s = _read_scenario(args.scenario)
    violations = validate_scenario(s)
    if args.output == "records":
        _emit(records.violation_records(violations))
    else:
        for v in violations:
            print(v)
        print(f"{len(violations)} violation(s) in {s.name}")
    return EXIT_OK if not violations else EXIT_POLICY


def _cmd_eval(args) -> int:
    # the engine reads an address it cannot parse as none given, which may allow
    # what the address would deny, so the command line refuses it
    if args.source_address is not None and prefix.address(args.source_address) is None:
        raise CliError(f"--source-address {args.source_address!r} is not an IP address")
    s = _load_scenario(args.scenario)
    request = m.FlowRequest(
        principal=args.principal,
        source=_resolve_locus(s, getattr(args, "from")),
        target=_resolve_target(s, args.to),
        method=args.method,
        source_address=args.source_address,
        payload_tags=frozenset(_split_csv(args.payload_tags) or ()),
    )
    decision, trace = engine.evaluate_flow(s, request)
    if args.output == "records":
        _emit(records.trace_records(trace))
    else:
        for step in trace:
            reason = f" reason={step.reason.value}" if step.reason else ""
            print(f"{step.index:2d} {step.point.value:20s} {step.verdict.value:5s} {step.rule}{reason}")
        verdict = "ALLOW" if decision.allowed else f"DENY ({decision.reason.value})"
        print(f"decision: {verdict}")
    return EXIT_OK if decision.allowed else EXIT_POLICY


def _cmd_matrix(args) -> int:
    s = _load_scenario(args.scenario)
    matrix = analysis.reachability_matrix(
        s,
        principals=_split_csv(args.principals),
        loci=_split_csv(args.loci),
        targets=_split_csv(args.targets),
        methods=_split_csv(args.methods),
    )
    if args.output == "records":
        _emit(records.matrix_records(matrix))
    else:
        print(matrix.render_text())
    return EXIT_OK


def _cmd_exfil(args) -> int:
    s = _load_scenario(args.scenario)
    report = analysis.exfiltration_paths(s, args.tag, args.perimeter, bound=args.bound)
    if args.output == "records":
        _emit(records.exfil_records(report))
    else:
        if report.empty:
            print(f"no escape chains for tag {args.tag!r} from perimeter {args.perimeter!r}")
        for chain in report.chains:
            hops = " -> ".join(
                f"{f.principal}@{f.source} -[{f.method}]-> {f.target}" for f in chain.flows
            )
            print(f"escape via {chain.escape_locus}: {hops}")
    return EXIT_OK if report.empty else EXIT_POLICY


def _cmd_blast(args) -> int:
    s = _load_scenario(args.scenario)
    report = analysis.blast_radius(s, args.workload, bound=args.bound)
    if args.output == "records":
        _emit(records.blast_records(report))
    else:
        if not report.reached:
            print(f"workload {args.workload!r} reaches nothing")
        for svc, meth, hops in report.entries():
            print(f"hop {hops}: {svc}.{meth}")
    return EXIT_OK


def _cmd_lint(args) -> int:
    s = _load_scenario(args.scenario)
    findings = run_lint(s)
    if args.output == "records":
        _emit(records.finding_records(findings))
    else:
        for f in findings:
            print(f"{f.severity:5s} {f.code:22s} {f.subject}: {f.message}")
        print(f"{len(findings)} finding(s), {len(error_findings(findings))} error(s)")
    return EXIT_OK if not error_findings(findings) else EXIT_POLICY


def _cmd_compile(args) -> int:
    s = _load_scenario(args.scenario)
    compiled = compiler_mod.compile_perimeter(s, args.perimeter, args.mechanism)
    if args.output == "records":
        _emit(records.compiled_records(compiled))
    else:
        print(f"compiled {args.perimeter!r} with mechanism {compiled.mechanism.value}:")
        for rule in compiled.firewall_rules:
            print(f"  firewall {rule.id} [{rule.scope} p{rule.priority}] {rule.action.value} "
                  f"{','.join(rule.src)} -> {','.join(rule.dst)}")
        for rule in compiled.gateway_rules:
            print(f"  gateway  {rule.id} {rule.src_zone} -> {rule.dst_zone} {rule.action.value}")
        for b in compiled.bindings:
            grants = ", ".join(f"{p.service}.{p.method}" for p in b.role)
            print(f"  rbac     {b.id} {b.principal}: {grants}")
        for note in compiled.divergence_notes:
            print(f"  note: {note}")
    return EXIT_OK


def _cmd_verify_compile(args) -> int:
    s = _load_scenario(args.scenario)
    compiled = compiler_mod.compile_perimeter(s, args.perimeter, args.mechanism)
    report = compiler_mod.verify_compilation(s, compiled)
    if args.output == "records":
        _emit(records.divergence_records(report))
    else:
        print(
            f"{report.mechanism.value} compilation of {report.perimeter_id!r}: "
            f"{len(report.divergences)} divergence(s) over {report.total_requests} requests"
        )
        for d in report.divergences:
            r = d.request
            print(
                f"  [{d.expected_class}] {r.principal}@{r.source} -[{r.method}]-> {r.target}: "
                f"abstract={d.abstract.verdict.value} compiled={d.compiled.verdict.value}"
            )
    return EXIT_OK if report.equivalent else EXIT_POLICY


def _cmd_scenarios(args) -> int:
    if args.action == "list":
        for name in TEMPLATE_NAMES:
            print(name)
        return EXIT_OK
    if not args.name:
        raise CliError("scenarios show requires a template name")
    print(template_text(args.name), end="")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cloudperim",
        description="Model and verify cloud data-plane security architectures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(handler=handler)
        p.add_argument("--output", choices=["human", "records"], default="human")
        return p

    p = add("validate", _cmd_validate, help="check scenario structure; exit 0 iff clean")
    p.add_argument("--scenario", required=True)

    p = add("eval", _cmd_eval, help="evaluate one flow; exit 0 allow, 3 deny")
    p.add_argument("--scenario", required=True)
    p.add_argument("--from", required=True, dest="from", metavar="LOCUS")
    p.add_argument("--principal", required=True)
    p.add_argument("--to", required=True, metavar="TARGET")
    p.add_argument("--method", default="connect")
    p.add_argument("--source-address", default=None)
    p.add_argument("--payload-tags", default=None, help="comma-separated key:value tags")

    p = add("matrix", _cmd_matrix, help="reachability matrix over the request space")
    p.add_argument("--scenario", required=True)
    p.add_argument("--principals", default=None, help="comma-separated; default all")
    p.add_argument("--loci", default=None)
    p.add_argument("--targets", default=None)
    p.add_argument("--methods", default=None)

    p = add("exfil", _cmd_exfil, help="escape chains for tagged data; exit 3 if any")
    p.add_argument("--scenario", required=True)
    p.add_argument("--tag", required=True)
    p.add_argument("--perimeter", required=True)
    p.add_argument("--bound", type=int, default=analysis.DEFAULT_HOP_BOUND)

    p = add("blast", _cmd_blast, help="transitive reach from a compromised workload")
    p.add_argument("--scenario", required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--bound", type=int, default=analysis.DEFAULT_HOP_BOUND)

    p = add("lint", _cmd_lint, help="best-practice findings; exit 3 on errors")
    p.add_argument("--scenario", required=True)

    p = add("compile", _cmd_compile, help="compile a perimeter to a concrete mechanism")
    p.add_argument("--scenario", required=True)
    p.add_argument("--perimeter", required=True)
    p.add_argument("--mechanism", required=True, choices=[mech.value for mech in compiler_mod.CompileMechanism])

    p = add("verify-compile", _cmd_verify_compile, help="replay request space against compiled rules")
    p.add_argument("--scenario", required=True)
    p.add_argument("--perimeter", required=True)
    p.add_argument("--mechanism", required=True, choices=[mech.value for mech in compiler_mod.CompileMechanism])

    p = add("scenarios", _cmd_scenarios, help="list or show built-in templates")
    p.add_argument("action", choices=["list", "show"])
    p.add_argument("name", nargs="?", default=None)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built on first use and kept for the process.

    Parsing leaves no state on a parser: each parse makes a new namespace, reads
    the subcommands' defaults again, and prints usage and help to the
    ``sys.stdout``/``sys.stderr`` of the moment. So one call of ``main`` cannot
    change what a later one parses.
    """
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return EXIT_BAD_INPUT if e.code not in (0, None) else EXIT_OK
    try:
        return args.handler(args)
    except (ScenarioParseError, InvalidScenarioError) as e:
        for problem in e.issues if isinstance(e, ScenarioParseError) else e.violations:
            print(f"error: {problem}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except (CliError, CloudPerimError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except Exception as e:  # internal failure
        print(f"internal error: {e!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
