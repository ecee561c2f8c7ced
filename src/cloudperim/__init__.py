"""Modeling and verification toolkit for cloud data-plane security architectures.

Build a Scenario (parse a document or pick a built-in template), then ask
questions: evaluate single flows with full enforcement traces, enumerate
reachability, hunt exfiltration chains and blast radii, lint against best
practices, and compile abstract perimeters to concrete mechanisms with
equivalence verification.
"""

from .analysis import (
    BlastReport,
    ExfilChain,
    ExfilReport,
    ReachabilityMatrix,
    blast_radius,
    default_request_space,
    diff_decisions,
    exfiltration_paths,
    method_universe,
    reachability_matrix,
)
from .compiler import (
    CompiledRuleSet,
    CompileMechanism,
    EquivalenceReport,
    build_compiled_scenario,
    compile_perimeter,
    verify_compilation,
)
from .engine import evaluate_flow
from .identity import resolve_credential
from .lint import Finding, LINT_CODES, lint
from .model import (
    ANY,
    INTERNET,
    ONPREM,
    AbstractPerimeter,
    AuthMode,
    ConnectivityEdge,
    CredentialChain,
    DataAsset,
    Decision,
    DecisionTrace,
    DenyReason,
    ENFORCEMENT_CHAIN,
    FlowRequest,
    IdentityProvider,
    NetworkSegment,
    PointKind,
    Principal,
    ResourceNode,
    ServiceAttachment,
    ServiceSpec,
    TrustEdge,
    Verdict,
    ancestors,
    effective_tags,
    resolve_members,
)
from .oracle import oracle_decide, oracle_evaluate
from .route import RoutePath, Unreachable, resolve_path, routable_pairs
from .scenario import (
    ParseIssue,
    Scenario,
    Violation,
    parse_scenario,
    serialize_scenario,
    validate_scenario,
)
from .templates import TEMPLATE_NAMES, builtin_scenario, template_text

__version__ = "0.1.0"

__all__ = [
    "ANY",
    "AbstractPerimeter",
    "AuthMode",
    "BlastReport",
    "CompileMechanism",
    "CompiledRuleSet",
    "ConnectivityEdge",
    "CredentialChain",
    "DataAsset",
    "Decision",
    "DecisionTrace",
    "DenyReason",
    "ENFORCEMENT_CHAIN",
    "EquivalenceReport",
    "ExfilChain",
    "ExfilReport",
    "Finding",
    "FlowRequest",
    "INTERNET",
    "IdentityProvider",
    "LINT_CODES",
    "NetworkSegment",
    "ONPREM",
    "ParseIssue",
    "PointKind",
    "Principal",
    "ReachabilityMatrix",
    "ResourceNode",
    "RoutePath",
    "Scenario",
    "ServiceAttachment",
    "ServiceSpec",
    "TEMPLATE_NAMES",
    "TrustEdge",
    "Unreachable",
    "Verdict",
    "Violation",
    "ancestors",
    "blast_radius",
    "build_compiled_scenario",
    "builtin_scenario",
    "compile_perimeter",
    "default_request_space",
    "diff_decisions",
    "effective_tags",
    "evaluate_flow",
    "exfiltration_paths",
    "lint",
    "method_universe",
    "oracle_decide",
    "oracle_evaluate",
    "parse_scenario",
    "reachability_matrix",
    "resolve_credential",
    "resolve_members",
    "resolve_path",
    "routable_pairs",
    "serialize_scenario",
    "template_text",
    "validate_scenario",
]
