"""End-to-end CLI coverage: every subcommand against a template."""

import argparse
import dataclasses
import json

import pytest

from cloudperim import (
    build_compiled_scenario,
    builtin_scenario,
    compile_perimeter,
    evaluate_flow,
    parse_scenario,
    records,
    serialize_scenario,
    validate_scenario,
)
from cloudperim import model as m
from cloudperim.cli import EXIT_BAD_INPUT, EXIT_INTERNAL, EXIT_OK, EXIT_POLICY, build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_allow_exit_zero(capsys):
    code, out, _ = run(
        capsys,
        "eval", "--scenario", "fig1-lift-shift", "--from", "vm:green-a",
        "--principal", "sa:green-a", "--to", "svc:yellow-pay", "--method", "connect",
    )
    assert code == EXIT_OK
    assert "decision: ALLOW" in out


def test_eval_deny_exit_three(capsys):
    code, out, _ = run(
        capsys,
        "eval", "--scenario", "fig1-lift-shift", "--from", "yellow",
        "--principal", "sa:yellow-pay", "--to", "INTERNET",
    )
    assert code == EXIT_POLICY
    assert "DENY (GATEWAY)" in out


def test_eval_records_mode_fields(capsys):
    code, out, _ = run(
        capsys,
        "eval", "--scenario", "fig1-lift-shift", "--from", "green",
        "--principal", "sa:green-a", "--to", "yellow-pay", "--output", "records",
    )
    assert code == EXIT_OK
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert len(lines) == 10
    assert list(lines[0].keys()) == ["step", "point", "verdict", "rule", "reason"]
    assert lines[0]["point"] == "ROUTE"


def test_validate_clean_template(capsys):
    code, out, _ = run(capsys, "validate", "--scenario", "fig4-landing-point")
    assert code == EXIT_OK
    assert "0 violation(s)" in out


def test_validate_dirty_file(tmp_path, capsys):
    doc = tmp_path / "bad.yaml"
    doc.write_text(
        """
name: dirty
hierarchy:
  - {id: org, kind: organization}
  - {id: prj, kind: project, parent: org}
networks:
  segments:
    - {id: a, project: prj, routability: routable, cidrs: [10.0.0.0/16]}
    - {id: b, project: prj, routability: routable, cidrs: [10.0.0.0/16]}
"""
    )
    code, out, _ = run(capsys, "validate", "--scenario", str(doc))
    assert code == EXIT_POLICY
    assert "CIDR_OVERLAP" in out


@pytest.fixture
def overlapping(tmp_path):
    """fig1 with a copy of its green segment: a file that parses, whose one
    violation is a CIDR_OVERLAP."""
    s = builtin_scenario("fig1-lift-shift")
    copy = dataclasses.replace(s.segments[0], id="green-copy")
    doc = tmp_path / "overlap.yaml"
    doc.write_text(serialize_scenario(dataclasses.replace(s, segments=s.segments + (copy,))))
    violations = validate_scenario(parse_scenario(doc.read_text()))
    assert [v.code for v in violations] == ["CIDR_OVERLAP"]
    return str(doc), violations


def test_validate_reports_violations_and_exits_three(overlapping, capsys):
    path, violations = overlapping
    code, out, err = run(capsys, "validate", "--scenario", path)
    assert code == EXIT_POLICY
    assert out == f"{violations[0]}\n1 violation(s) in fig1-lift-shift\n"
    assert err == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--from", "green", "--principal", "sa:green-a", "--to", "yellow-pay"],
        ["matrix"],
        ["lint"],
        ["verify-compile", "--perimeter", "green", "--mechanism", "hybrid"],
        ["exfil", "--tag", "pci:true", "--perimeter", "yellow"],
        ["blast", "--workload", "webshop"],
        ["compile", "--perimeter", "green", "--mechanism", "lift-shift"],
    ],
    ids=lambda argv: argv[0],
)
def test_a_scenario_with_violations_exits_two_with_one_error_line_each(overlapping, capsys, argv):
    path, violations = overlapping
    code, out, err = run(capsys, argv[0], "--scenario", path, *argv[1:])
    assert code == EXIT_BAD_INPUT
    assert out == ""
    assert err == "".join(f"error: {v}\n" for v in violations)


def test_parse_errors_exit_two(tmp_path, capsys):
    doc = tmp_path / "broken.yaml"
    doc.write_text("name: x\nhierarchy:\n  - {id: prj, kind: project, parent: ghost}\n")
    code, _, err = run(capsys, "validate", "--scenario", str(doc))
    assert code == EXIT_BAD_INPUT
    assert "UNKNOWN_REF" in err


def test_tagged_scalar_that_does_not_construct_exits_two(tmp_path, capsys):
    doc = tmp_path / "tagged.yaml"
    doc.write_text("name: !!bool maybe\n")
    code, out, err = run(capsys, "validate", "--scenario", str(doc))
    assert code == EXIT_BAD_INPUT
    assert out == ""
    assert err == "error: SYNTAX: document: 'maybe' is not a valid !!bool (line 1, column 7)\n"


def test_document_nested_too_deeply_exits_two(tmp_path, capsys):
    doc = tmp_path / "deep.yaml"
    doc.write_text("name: x\nhierarchy: " + "[" * 3000 + "]" * 3000 + "\n")
    code, out, err = run(capsys, "validate", "--scenario", str(doc))
    assert code == EXIT_BAD_INPUT
    assert out == ""
    assert err == "error: SYNTAX: document: nested too deeply to load\n"


def test_unacceptable_character_exits_two_with_one_error_line(tmp_path, capsys):
    doc = tmp_path / "control.yaml"
    doc.write_text("name: x\x01")
    code, out, err = run(capsys, "validate", "--scenario", str(doc))
    assert code == EXIT_BAD_INPUT
    assert out == ""
    assert err == (
        "error: SYNTAX: document: unacceptable character #x0001: special characters are not allowed"
        " (line 1, column 8)\n"
    )


def test_matrix_human_and_records(capsys):
    code, out, _ = run(capsys, "matrix", "--scenario", "fig10-zero-trust")
    assert code == EXIT_OK and "svc-a.read" in out
    code, out, _ = run(
        capsys, "matrix", "--scenario", "fig10-zero-trust", "--output", "records",
        "--principals", "sa:a", "--methods", "read",
    )
    assert code == EXIT_OK
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert all(row["principal"] == "sa:a" and row["method"] == "read" for row in rows)
    assert {"principal", "source", "target", "method", "verdict", "reason"} == set(rows[0])


def test_exfil_empty_exits_zero(capsys):
    code, out, _ = run(
        capsys, "exfil", "--scenario", "fig1-lift-shift", "--tag", "pci:true", "--perimeter", "yellow"
    )
    assert code == EXIT_OK
    assert "no escape chains" in out


def test_exfil_chains_exit_three(tmp_path, capsys):
    from cloudperim import builtin_scenario, serialize_scenario
    import dataclasses
    from cloudperim import model as m

    s = builtin_scenario("fig1-lift-shift")
    allow = m.GatewayRule(id="inj", src_zone="yellow", dst_zone="INTERNET", action=m.RuleAction.ALLOW)
    edges = tuple(
        dataclasses.replace(e, gateway_rules=(allow,) + e.gateway_rules)
        if e.id == "gw-yellow-inet" else e
        for e in s.edges
    )
    doc = tmp_path / "leaky.yaml"
    doc.write_text(serialize_scenario(dataclasses.replace(s, edges=edges)))
    code, out, _ = run(
        capsys, "exfil", "--scenario", str(doc), "--tag", "pci:true", "--perimeter", "yellow",
        "--output", "records",
    )
    assert code == EXIT_POLICY
    chains = [json.loads(line) for line in out.strip().splitlines()]
    assert chains and all(c["escape"] == "INTERNET" for c in chains)


def test_blast(capsys):
    code, out, _ = run(capsys, "blast", "--scenario", "fig10-zero-trust", "--workload", "app-a")
    assert code == EXIT_OK
    assert "svc-b.read" in out
    code, out, _ = run(
        capsys, "blast", "--scenario", "fig10-zero-trust", "--workload", "app-a",
        "--output", "records",
    )
    entries = [json.loads(line) for line in out.strip().splitlines()]
    assert {"workload", "service", "method", "hops"} == set(entries[0])


def test_lint_clean_template_exits_zero(capsys):
    code, out, _ = run(capsys, "lint", "--scenario", "fig4-landing-point")
    assert code == EXIT_OK
    assert "0 error(s)" in out


def test_lint_records(capsys):
    code, out, _ = run(capsys, "lint", "--scenario", "fig1-lift-shift", "--output", "records")
    assert code == EXIT_OK  # warns only
    findings = [json.loads(line) for line in out.strip().splitlines()]
    assert findings and {"code", "severity", "subject", "message", "citation"} == set(findings[0])


def test_compile_and_verify_compile(capsys):
    code, out, _ = run(
        capsys, "compile", "--scenario", "fig4-landing-point", "--perimeter", "yellow",
        "--mechanism", "hybrid",
    )
    assert code == EXIT_OK
    assert "hier-deny-internet" in out
    code, out, _ = run(
        capsys, "verify-compile", "--scenario", "fig4-landing-point", "--perimeter", "yellow",
        "--mechanism", "hybrid",
    )
    assert code == EXIT_OK
    assert "0 divergence(s)" in out
    code, out, _ = run(
        capsys, "verify-compile", "--scenario", "fig4-landing-point", "--perimeter", "yellow",
        "--mechanism", "lift-shift", "--output", "records",
    )
    assert code == EXIT_POLICY
    divergences = [json.loads(line) for line in out.strip().splitlines()]
    assert all(d["class"].startswith("EXPECTED") for d in divergences)


@pytest.mark.parametrize("egress_rules", [897, 1000])
def test_lift_shift_of_a_large_perimeter_keeps_priorities_distinct(tmp_path, capsys, egress_rules):
    """However many rules a lift-shift perimeter emits, their priorities are
    distinct and below every organization-scope rule, and the CLI compiles
    and verifies it."""
    s = builtin_scenario("fig4-landing-point")
    egress = tuple(
        m.PerimeterRule(id=f"eg-{i}", targets=(m.PerimeterTarget(service=m.INTERNET),))
        for i in range(egress_rules)
    )
    s = dataclasses.replace(
        s, perimeters=tuple(dataclasses.replace(p, egress=egress) if p.id == "yellow" else p for p in s.perimeters)
    )
    compiled = compile_perimeter(s, "yellow", "lift-shift")
    priorities = [r.priority for r in compiled.firewall_rules]
    assert len(priorities) == egress_rules + 4  # intra, egress, one ingress, two denies
    assert len(set(priorities)) == len(priorities)
    assert max(priorities) < min(r.priority for r in s.firewall_rules if r.scope == m.ORG_SCOPE)
    assert validate_scenario(build_compiled_scenario(s, compiled)) == []
    doc = tmp_path / "large.yaml"
    doc.write_text(serialize_scenario(s))
    for command in ("compile", "verify-compile"):
        code, _, err = run(
            capsys, command, "--scenario", str(doc), "--perimeter", "yellow", "--mechanism", "lift-shift"
        )
        assert code != EXIT_INTERNAL and not err


@pytest.mark.parametrize("mechanism", ["hybrid", "lift-shift", "zero-trust"])
def test_compile_records_have_one_documented_shape_per_kind(capsys, mechanism):
    fields = {
        "firewall": ["kind", "id", "scope", "priority", "action", "src", "dst"],
        "gateway": ["kind", "id", "from", "to", "action"],
        "rbac": ["kind", "id", "principal", "role"],
        "note": ["kind", "text"],
    }
    code, out, _ = run(
        capsys, "compile", "--scenario", "fig4-landing-point", "--perimeter", "yellow",
        "--mechanism", mechanism, "--output", "records",
    )
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines
    kinds = []
    for line in lines:
        record = json.loads(line)
        assert list(record) == fields[record["kind"]]
        assert line == json.dumps(record)
        kinds.append(record["kind"])
    assert kinds == sorted(kinds, key=list(fields).index)  # firewall, gateway, rbac, then notes


def test_scenarios_list_has_ten_templates(capsys):
    code, out, _ = run(capsys, "scenarios", "list")
    assert code == EXIT_OK
    names = out.strip().splitlines()
    assert len(names) == 10
    assert names[0] == "fig1-lift-shift"


def test_scenarios_show_round_trips(capsys):
    code, out, _ = run(capsys, "scenarios", "show", "fig10-zero-trust")
    assert code == EXIT_OK
    from cloudperim import builtin_scenario, parse_scenario

    assert parse_scenario(out) == builtin_scenario("fig10-zero-trust")


def test_unknown_flag_is_an_error(capsys):
    code, _, _ = run(capsys, "lint", "--scenario", "fig1-lift-shift", "--sideways")
    assert code == EXIT_BAD_INPUT


def test_unknown_template_exits_two(capsys):
    code, _, err = run(capsys, "lint", "--scenario", "fig99-nope")
    assert code == EXIT_BAD_INPUT
    assert "error:" in err


def test_unknown_template_to_show_exits_two_naming_it(capsys):
    assert run(capsys, "scenarios", "show", "fig99") == (EXIT_BAD_INPUT, "", "error: unknown template 'fig99'\n")


def test_scenario_path_that_cannot_be_read_exits_two_with_one_line(tmp_path, capsys):
    assert run(capsys, "validate", "--scenario", str(tmp_path)) == (
        EXIT_BAD_INPUT, "", f"error: cannot read scenario {str(tmp_path)!r}: Is a directory\n"
    )


@pytest.mark.parametrize("bound", ["0", "-1"])
def test_blast_bound_below_one_exits_two(capsys, bound):
    # as exfil's does: a mistyped bound must not read as "reaches nothing"
    assert run(capsys, "blast", "--scenario", "fig10-zero-trust", "--workload", "app-a", "--bound", bound) == (
        EXIT_BAD_INPUT, "", f"error: hop bound must be >= 1, got {bound}\n"
    )


@pytest.mark.parametrize("argv, unknown", [
    (["blast", "--scenario", "fig10-zero-trust", "--workload", "ghost"], "workload"),
    (["exfil", "--scenario", "fig1-lift-shift", "--tag", "pci:true", "--perimeter", "ghost"], "perimeter"),
    (["exfil", "--scenario", "fig1-lift-shift", "--tag", "ghost", "--perimeter", "yellow"], "tag"),
    (["compile", "--scenario", "fig4-landing-point", "--perimeter", "ghost", "--mechanism", "hybrid"], "perimeter"),
], ids=["blast-workload", "exfil-perimeter", "exfil-tag", "compile-perimeter"])
def test_an_unknown_id_exits_two_saying_what_is_unknown(capsys, argv, unknown):
    assert run(capsys, *argv) == (EXIT_BAD_INPUT, "", f"error: unknown {unknown} 'ghost'\n")


FIG1_EVAL = ["eval", "--scenario", "fig1-lift-shift", "--from", "green", "--principal", "sa:green-a",
             "--to", "yellow-pay"]


@pytest.mark.parametrize("address", ["not-an-ip", "10.0.0.300", "10.0.0.0/8"])
def test_source_address_that_is_not_an_address_exits_two(capsys, address):
    # the engine reads it as no address given, which could turn a deny into an allow
    assert run(capsys, *FIG1_EVAL, "--source-address", address) == (
        EXIT_BAD_INPUT, "", f"error: --source-address {address!r} is not an IP address\n"
    )


@pytest.mark.parametrize("address", ["10.1.0.5", "2001:db8::7"])
def test_source_address_v4_or_v6_is_evaluated(capsys, address):
    decision, trace = evaluate_flow(
        builtin_scenario("fig1-lift-shift"),
        m.FlowRequest(principal="sa:green-a", source="green", target="yellow-pay", source_address=address),
    )
    expected = "".join(line + "\n" for line in records.trace_records(trace))
    assert run(capsys, *FIG1_EVAL, "--source-address", address, "--output", "records") == (
        EXIT_OK if decision.allowed else EXIT_POLICY, expected, ""
    )


def test_unknown_flow_entity_exits_two(capsys):
    code, _, err = run(
        capsys, "eval", "--scenario", "fig1-lift-shift", "--from", "green",
        "--principal", "ghost", "--to", "yellow-pay",
    )
    assert code == EXIT_BAD_INPUT
    assert "error:" in err


@pytest.mark.parametrize("serverless_missing_connector", [True])
def test_compile_unresolvable_member_exits_two(tmp_path, capsys, serverless_missing_connector):
    doc = tmp_path / "srvless.yaml"
    doc.write_text(
        """
name: srvless
hierarchy:
  - {id: org, kind: organization}
  - {id: prj, kind: project, parent: org}
networks:
  segments:
    - {id: fn-net, project: prj, routability: non-routable, cidrs: [100.64.0.0/24]}
services:
  specs:
    - {id: fn, project: prj, segment: fn-net, layer: l7, fqdn: fn.internal, compute: serverless, auth_mode: perimeter-trusting}
perimeters:
  - {id: P, name: P, members: {projects: [prj]}, mechanisms: [data-plane-perimeter]}
"""
    )
    code, _, err = run(
        capsys, "compile", "--scenario", str(doc), "--perimeter", "P", "--mechanism", "lift-shift"
    )
    assert code == EXIT_BAD_INPUT
    assert "vpc-connector" in err


@pytest.fixture
def content_gated(tmp_path):
    """fig1 with a gateway rule that denies green to yellow for pci:true
    payloads only, so ``eval`` answers differently with and without
    ``--payload-tags``."""
    s = builtin_scenario("fig1-lift-shift")
    deny = m.GatewayRule(id="no-pci", src_zone="green", dst_zone="yellow", action=m.RuleAction.DENY,
                         content_class="pci:true")
    edges = tuple(
        dataclasses.replace(e, gateway_rules=(deny,) + e.gateway_rules) if e.id == "gw-green-yellow" else e
        for e in s.edges
    )
    doc = tmp_path / "gated.yaml"
    doc.write_text(serialize_scenario(dataclasses.replace(s, edges=edges)))
    return str(doc)


def test_a_call_does_not_depend_on_earlier_calls_in_the_process(content_gated, capsys):
    """main keeps one parser for the process: options, defaults, errors and
    help of one call leave nothing that a later call parses or prints."""
    flow = ["eval", "--scenario", content_gated, "--from", "vm:green-a", "--principal", "sa:green-a",
            "--to", "svc:yellow-pay"]
    exfil = ["exfil", "--scenario", "fig5-vm", "--tag", "pii:false", "--perimeter", "green"]
    matrix = ["matrix", "--scenario", "fig10-zero-trust"]
    argvs = [
        ["lint", "--scenario", "fig1-lift-shift", "--sideways"],
        ["--help"],
        [*exfil, "--bound", "1"],
        exfil,
        [*matrix, "--principals", "sa:a"],
        matrix,
        [*flow, "--payload-tags", "pci:true"],
        flow,
        ["eval", "--scenario", "fig1-lift-shift", "--from", "green", "--principal", "ghost", "--to", "yellow-pay"],
        ["eval", "--help"],
    ]
    first = [run(capsys, *argv) for argv in argvs]
    codes = [code for code, _, _ in first]
    assert codes == [EXIT_BAD_INPUT, EXIT_OK, EXIT_OK, EXIT_POLICY, EXIT_OK, EXIT_OK, EXIT_POLICY, EXIT_OK,
                     EXIT_BAD_INPUT, EXIT_OK]
    assert first[4] != first[5] and first[6] != first[7]
    backward = list(reversed(range(len(argvs))))
    interleaved = [i for pair in zip(backward, range(len(argvs))) for i in pair]
    for i in backward + interleaved:
        assert run(capsys, *argvs[i]) == first[i], argvs[i]


def test_main_builds_its_parser_once_per_process(monkeypatch, capsys):
    constructed = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        constructed.append(self)
        init(self, *args, **kwargs)

    run(capsys, "scenarios", "list")
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    for _ in range(10):
        run(capsys, "scenarios", "list")
        run(capsys, "lint", "--scenario", "fig1-lift-shift", "--sideways")
    assert constructed == []
    # a caller that extends build_parser's parser does not change what main parses
    assert build_parser() is not build_parser()
