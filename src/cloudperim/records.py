"""Line-delimited structured records for machine consumption.

Field names and ordering are stable interfaces; the human renderings in the
CLI may change freely, these may not. One JSON object per line.

- trace step: step, point, verdict, rule, reason
- finding: code, severity, subject, message, citation
- violation: code, subject, message
- matrix cell: principal, source, target, method, verdict, reason
- exfil chain: tag, perimeter, hops, trajectory, escape, flows
- blast entry: workload, service, method, hops
- divergence: mechanism, perimeter, principal, source, target, method,
  abstract, compiled, class
- compiled rule, by ``kind``:
  - ``firewall``: kind, id, scope, priority, action, src, dst
  - ``gateway``: kind, id, from, to, action
  - ``rbac``: kind, id, principal, role (a list of {service, method})
  - ``note``: kind, text
"""

from __future__ import annotations

import json
from typing import Any

from . import model as m
from .analysis import BlastReport, ExfilReport, ReachabilityMatrix
from .compiler import CompiledRuleSet, EquivalenceReport
from .lint import Finding
from .scenario import Violation


def _line(obj: dict[str, Any]) -> str:
    return json.dumps(obj)


def trace_records(trace: m.DecisionTrace) -> list[str]:
    return [
        _line(
            {
                "step": step.index,
                "point": step.point.value,
                "verdict": step.verdict.value,
                "rule": step.rule,
                "reason": step.reason.value if step.reason else None,
            }
        )
        for step in trace
    ]


def finding_records(findings: list[Finding]) -> list[str]:
    return [
        _line(
            {
                "code": f.code,
                "severity": f.severity,
                "subject": f.subject,
                "message": f.message,
                "citation": f.citation,
            }
        )
        for f in findings
    ]


def violation_records(violations: list[Violation]) -> list[str]:
    return [
        _line({"code": v.code, "subject": v.subject, "message": v.message}) for v in violations
    ]


def matrix_records(matrix: ReachabilityMatrix) -> list[str]:
    out = []
    for row in matrix.rows:
        for col in matrix.columns:
            decision = matrix.cells[(row, col)]
            out.append(
                _line(
                    {
                        "principal": row[0],
                        "source": row[1],
                        "target": col[0],
                        "method": col[1],
                        "verdict": decision.verdict.value,
                        "reason": decision.reason.value if decision.reason else None,
                    }
                )
            )
    return out


def exfil_records(report: ExfilReport) -> list[str]:
    out = []
    for chain in report.chains:
        out.append(
            _line(
                {
                    "tag": report.tag,
                    "perimeter": report.perimeter,
                    "hops": len(chain.flows),
                    "trajectory": list(chain.trajectory),
                    "escape": chain.escape_locus,
                    "flows": [
                        {
                            "principal": f.principal,
                            "source": f.source,
                            "target": f.target,
                            "method": f.method,
                        }
                        for f in chain.flows
                    ],
                }
            )
        )
    return out


def blast_records(report: BlastReport) -> list[str]:
    return [
        _line({"workload": report.workload, "service": svc, "method": meth, "hops": hops})
        for svc, meth, hops in report.entries()
    ]


def divergence_records(report: EquivalenceReport) -> list[str]:
    out = []
    for d in report.divergences:
        out.append(
            _line(
                {
                    "mechanism": report.mechanism.value,
                    "perimeter": report.perimeter_id,
                    "principal": d.request.principal,
                    "source": d.request.source,
                    "target": d.request.target,
                    "method": d.request.method,
                    "abstract": d.abstract.verdict.value,
                    "compiled": d.compiled.verdict.value,
                    "class": d.expected_class,
                }
            )
        )
    return out


def compiled_records(compiled: CompiledRuleSet) -> list[str]:
    """Firewall rules, gateway rules, bindings, then divergence notes."""
    out = [
        _line({"kind": "firewall", "id": r.id, "scope": r.scope, "priority": r.priority,
               "action": r.action.value, "src": list(r.src), "dst": list(r.dst)})
        for r in compiled.firewall_rules
    ]
    out += [
        _line({"kind": "gateway", "id": r.id, "from": r.src_zone, "to": r.dst_zone, "action": r.action.value})
        for r in compiled.gateway_rules
    ]
    out += [
        _line({"kind": "rbac", "id": b.id, "principal": b.principal,
               "role": [{"service": p.service, "method": p.method} for p in b.role]})
        for b in compiled.bindings
    ]
    return out + [_line({"kind": "note", "text": note}) for note in compiled.divergence_notes]
