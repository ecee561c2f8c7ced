"""Domain model: resource hierarchy, networks, services, identity, policy, flows.

Everything here is an immutable value object plus pure queries. A scenario
(module ``scenario``) is just a bag of these; evaluators never mutate them.

Loci are addressed by segment id or by the distinguished strings ``ONPREM``
and ``INTERNET``. Tags are ``key:value`` strings; duplicate keys resolve
nearest-definition-wins down the hierarchy.
"""

from __future__ import annotations

import collections.abc
import sys
from dataclasses import dataclass, field
from enum import Enum
from types import MappingProxyType, UnionType
from typing import Any, Callable, Iterable, Mapping, Union, get_args, get_origin

from .errors import EmptyPerimeterError, InvalidHierarchyError, UnknownNodeError

ONPREM = "ONPREM"
INTERNET = "INTERNET"
DISTINGUISHED_LOCI = frozenset({ONPREM, INTERNET})

# Wildcard token accepted in rule match positions (CIDR lists, target sets, methods).
ANY = "*"


def _holder(tp: Any, where: str) -> Callable[[Any], Any] | None:
    """How a field annotated ``tp`` holds the value given for it, or None where
    it holds the value as given. Errors name the field ``where``."""
    origin, args = get_origin(tp), get_args(tp)
    if origin is tuple or origin is frozenset:
        element = _holder(args[0], where) if len(set(args) - {Ellipsis}) == 1 else None

        def hold(value: Any) -> Any:
            if isinstance(value, str):
                raise TypeError(f"{where} takes a {origin.__name__}, not the text {value!r}")
            if element is not None:
                return origin(map(element, value))
            return value if type(value) is origin else origin(value)

        return hold
    if origin is collections.abc.Mapping:
        return lambda value: MappingProxyType(dict(value))
    if origin is Union or origin is UnionType:
        inner = [a for a in args if a is not type(None)]
        hold = _holder(inner[0], where) if len(inner) == 1 else None
        return hold and (lambda value: None if value is None else hold(value))
    if isinstance(tp, type) and issubclass(tp, Enum):

        def member(value: Any) -> Enum:
            try:
                return tp(value)
            except ValueError:
                choices = ", ".join(e.value for e in tp)
                raise ValueError(f"{where} takes one of: {choices}; not {value!r}") from None

        return member
    return None


def value_type(cls: type) -> type:
    """``dataclass(frozen=True)`` whose public fields hold what their annotations declare.

    A ``tuple[...]`` or ``frozenset[...]`` field holds that collection, its
    elements held the same way, and refuses a bare ``str`` with ``TypeError``.
    A ``Mapping[...]`` field holds a read-only view of a copy; keep it out of
    the hash (``field(hash=False)``). An ``Enum`` field, or ``Enum | None``,
    holds the member and refuses a value the enum lacks with ``ValueError``.
    Any other field holds the value as given. The conversions are derived once
    per class; a class needing none gets no ``__post_init__``.
    """
    namespace = vars(sys.modules[cls.__module__])
    holders = []
    for name, tp in cls.__dict__.get("__annotations__", {}).items():
        if not name.startswith("_"):  # a private field's annotation may name a later class
            hold = _holder(eval(tp, namespace) if isinstance(tp, str) else tp, f"{cls.__name__}.{name}")
            if hold is not None:
                holders.append((name, hold))
    if holders:

        def __post_init__(self: Any) -> None:
            for name, hold in holders:
                value = getattr(self, name)
                held = hold(value)
                if held is not value:
                    object.__setattr__(self, name, held)

        cls.__post_init__ = __post_init__
    return dataclass(frozen=True)(cls)


class NodeKind(str, Enum):
    ORGANIZATION = "organization"
    FOLDER = "folder"
    PROJECT = "project"
    RESOURCE = "resource"


class Routability(str, Enum):
    ROUTABLE = "routable"
    NON_ROUTABLE = "non-routable"


class TrustMode(str, Enum):
    """Intra-segment default verdict when no firewall rule matches."""

    TRUSTING = "trusting"
    ZERO_TRUST = "zero-trust"


class EdgeKind(str, Enum):
    PEERING = "peering"
    INTERCONNECT = "interconnect"
    VPN = "vpn"
    NAT_GATEWAY = "nat-gateway"
    VPC_CONNECTOR = "vpc-connector"
    GATEWAY_APPLIANCE = "gateway-appliance"


class EdgeDirection(str, Enum):
    BIDIRECTIONAL = "bidirectional"
    OUTBOUND_ONLY = "outbound-only"


class ServiceLayer(str, Enum):
    L4 = "l4"
    L7 = "l7"


class ComputeKind(str, Enum):
    VM = "vm"
    KUBERNETES = "kubernetes"
    SERVERLESS = "serverless"
    PAAS = "paas"
    SAAS = "saas"


class AuthMode(str, Enum):
    ZERO_TRUST = "zero-trust"
    PERIMETER_TRUSTING = "perimeter-trusting"


class IdpKind(str, Enum):
    CLOUD_NATIVE = "cloud-native"
    DIRECTORY = "directory"
    CLUSTER = "cluster"


class TrustKind(str, Enum):
    ONE_WAY_TRUST = "one-way-trust"
    TWO_WAY_TRUST = "two-way-trust"
    WORKLOAD_FEDERATION = "workload-federation"


class PrincipalKind(str, Enum):
    HUMAN = "human"
    SERVICE_ACCOUNT = "service-account"
    WORKLOAD = "workload"
    AD_IDENTITY = "ad-identity"
    K8S_SERVICE_ACCOUNT = "k8s-service-account"


class RuleAction(str, Enum):
    ALLOW = "allow"
    DENY = "deny"
    DELEGATE = "delegate"


class Mechanism(str, Enum):
    NETWORK_SEGMENTATION = "network-segmentation"
    DATA_PLANE_PERIMETER = "data-plane-perimeter"
    HIERARCHICAL_FIREWALL = "hierarchical-firewall"
    ORG_CONSTRAINT = "org-constraint"


class ConstraintKind(str, Enum):
    NO_PUBLIC_IP = "no-public-ip"
    NO_EXTERNAL_LB = "no-external-lb"
    NO_INTERNET_EGRESS = "no-internet-egress"
    RESTRICT_SERVICE_KINDS = "restrict-service-kinds"


class Verdict(str, Enum):
    ALLOW = "allow"
    DENY = "deny"


class PointKind(str, Enum):
    """Enforcement points, in fixed evaluation order."""

    ROUTE = "ROUTE"
    HIER_FIREWALL = "HIER_FIREWALL"
    SEGMENT_FIREWALL = "SEGMENT_FIREWALL"
    GATEWAY = "GATEWAY"
    CONSUMER_ENDPOINT = "CONSUMER_ENDPOINT"
    PRODUCER_ATTACHMENT = "PRODUCER_ATTACHMENT"
    PERIMETER_EGRESS = "PERIMETER_EGRESS"
    PERIMETER_INGRESS = "PERIMETER_INGRESS"
    AUTHN = "AUTHN"
    RBAC = "RBAC"


ENFORCEMENT_CHAIN: tuple[PointKind, ...] = tuple(PointKind)


class DenyReason(str, Enum):
    """Closed enumeration of deny reason codes."""

    NO_ROUTE = "NO_ROUTE"
    HIER_FIREWALL = "HIER_FIREWALL"
    SEGMENT_FIREWALL = "SEGMENT_FIREWALL"
    FIREWALL_DEFAULT = "FIREWALL_DEFAULT"
    GATEWAY = "GATEWAY"
    CONSUMER = "CONSUMER"
    PRODUCER = "PRODUCER"
    PERIMETER_EGRESS = "PERIMETER_EGRESS"
    PERIMETER_INGRESS = "PERIMETER_INGRESS"
    NO_CREDENTIAL = "NO_CREDENTIAL"
    RBAC_DEFAULT_DENY = "RBAC_DEFAULT_DENY"
    RBAC_CONDITION = "RBAC_CONDITION"


NOT_APPLICABLE = "not-applicable"
DEFAULT_RULE = "default"


# ---------------------------------------------------------------------------
# Hierarchy and tags
# ---------------------------------------------------------------------------


@value_type
class ResourceNode:
    """One element of the org/folder/project/resource tree."""

    id: str
    kind: NodeKind
    parent: str | None = None
    tags: frozenset[str] = frozenset()
    labels: Mapping[str, str] = field(default_factory=dict, hash=False)


def tag_key(tag: str) -> str:
    """Key part of a ``key:value`` tag."""
    return tag.split(":", 1)[0]


def method_matches(pattern: str, method: str) -> bool:
    """Exact match or a single trailing-wildcard prefix (``admin.*`` style)."""
    if pattern == ANY:
        return True
    if pattern.endswith("*"):
        return method.startswith(pattern[:-1])
    return pattern == method


def ancestors(node: str, nodes: Mapping[str, ResourceNode]) -> list[str]:
    """Node ids from the organization root down to ``node`` inclusive."""
    if node not in nodes:
        raise UnknownNodeError(node)
    chain: list[str] = []
    seen: set[str] = set()
    cur: str | None = node
    while cur is not None:
        if cur in seen:
            raise InvalidHierarchyError(f"parent cycle at {cur!r}")
        if cur not in nodes:
            raise UnknownNodeError(cur)
        seen.add(cur)
        chain.append(cur)
        cur = nodes[cur].parent
    chain.reverse()
    return chain


def effective_tags(node: str, nodes: Mapping[str, ResourceNode]) -> frozenset[str]:
    """Union of own and inherited tags, nearest definition winning per key."""
    return inherited_tags(nodes[nid].tags for nid in ancestors(node, nodes))


def inherited_tags(chain: Iterable[frozenset[str]]) -> frozenset[str]:
    """Union of a root-first chain of nodes' own tags, nearest definition winning per key."""
    resolved: dict[str, set[str]] = {}
    for tags in chain:
        here: dict[str, set[str]] = {}
        for tag in tags:
            here.setdefault(tag_key(tag), set()).add(tag)
        # nearer definitions replace the whole key, not just one value
        resolved.update(here)
    return frozenset(t for tags in resolved.values() for t in tags)


# ---------------------------------------------------------------------------
# Network substrate
# ---------------------------------------------------------------------------


@value_type
class NetworkSegment:
    id: str
    project: str
    routability: Routability
    cidrs: tuple[str, ...]
    subnets: Mapping[str, str] = field(default_factory=dict, hash=False)
    trust_mode: TrustMode = TrustMode.TRUSTING


@value_type
class GatewayRule:
    """Directional rule on a gateway-appliance edge; first match wins."""

    id: str
    src_zone: str
    dst_zone: str
    action: RuleAction
    new_connection: bool = True
    protocol: str = "tcp"
    content_class: str | None = None


@value_type
class ConnectivityEdge:
    id: str
    kind: EdgeKind
    ends: tuple[str, str]
    direction: EdgeDirection = EdgeDirection.BIDIRECTIONAL
    gateway_rules: tuple[GatewayRule, ...] = ()

    def other_end(self, locus: str) -> str:
        a, b = self.ends
        return b if locus == a else a


# ---------------------------------------------------------------------------
# Services and service networking
# ---------------------------------------------------------------------------


@value_type
class ServiceSpec:
    id: str
    project: str
    segment: str
    layer: ServiceLayer
    compute: ComputeKind
    auth_mode: AuthMode
    address: str | None = None        # L4: "ip" or "ip:port"
    fqdn: str | None = None           # L7
    backends: tuple[str, ...] = ()
    run_as: tuple[str, ...] = ()      # principal ids the backends execute as
    workload: str | None = None       # grouping for blast radius / lint
    idp: str | None = None            # idp whose credentials the service accepts
    reads: tuple[str, ...] = ()
    writes: tuple[str, ...] = ()
    depends_on: tuple[str, ...] = ()


@value_type
class AccessPredicate:
    """One entry of a consumer/producer endpoint policy; first match decides."""

    id: str
    action: RuleAction
    identities: tuple[str, ...] = ()  # principal ids or group names; empty = any
    cidrs: tuple[str, ...] = ()       # source CIDRs; empty = any
    methods: tuple[str, ...] = ()     # empty = any


@value_type
class ServiceAttachment:
    id: str
    service: str
    policy: tuple[AccessPredicate, ...] = ()


@value_type
class ConsumerEndpoint:
    id: str
    segment: str
    attachment: str
    address: str | None = None
    fqdn: str | None = None
    policy: tuple[AccessPredicate, ...] = ()


# ---------------------------------------------------------------------------
# Policy rules
# ---------------------------------------------------------------------------

ORG_SCOPE = "organization"


@value_type
class FirewallRule:
    """5-tuple-style rule at organization, folder, or segment scope.

    ``scope`` is ``organization``, ``folder:<id>`` or ``segment:<id>``.
    ``src``/``dst`` entries are CIDRs or the tokens ONPREM/INTERNET/``*``.
    """

    id: str
    scope: str
    priority: int
    action: RuleAction
    src: tuple[str, ...] = (ANY,)
    dst: tuple[str, ...] = (ANY,)
    protocol: str = "any"
    ports: tuple[tuple[int, int], ...] = ()

    @property
    def scope_kind(self) -> str:
        return self.scope.split(":", 1)[0]

    @property
    def scope_id(self) -> str | None:
        return self.scope.split(":", 1)[1] if ":" in self.scope else None


@value_type
class PerimeterTarget:
    """One (project, service, method) entry of a perimeter rule's target set."""

    project: str = ANY
    service: str = ANY
    method: str = ANY


@value_type
class PerimeterRule:
    """Allow-only ingress/egress rule for data-plane perimeter crossings."""

    id: str
    identities: tuple[str, ...] = ()          # principal ids / groups; empty = any
    device: Mapping[str, str] = field(default_factory=dict, hash=False)
    networks: tuple[str, ...] = ()            # CIDRs or ONPREM/INTERNET; empty = any
    targets: tuple[PerimeterTarget, ...] = ()  # empty = any target


@value_type
class MemberSelector:
    folders: tuple[str, ...] = ()
    projects: tuple[str, ...] = ()
    tags: tuple[str, ...] = ()


@value_type
class AbstractPerimeter:
    id: str
    name: str
    members: MemberSelector
    ingress: tuple[PerimeterRule, ...] = ()
    egress: tuple[PerimeterRule, ...] = ()
    mechanisms: frozenset[Mechanism] = frozenset()

    @property
    def allows_internet(self) -> bool:
        """Whether an egress rule admits INTERNET: one that names no target,
        or one naming INTERNET (a ``*`` target counts in neither)."""
        return any(not r.targets or any(t.service == INTERNET for t in r.targets) for r in self.egress)


@value_type
class TagCondition:
    key: str
    value: str

    def holds(self, tags: Iterable[str]) -> bool:
        tags = set(tags)
        want = f"{self.key}:{self.value}"
        if want not in tags:
            return False
        # conflicting values for the same key fail closed
        return not any(t != want and tag_key(t) == self.key for t in tags)


@value_type
class Permission:
    service: str
    method: str = ANY


@value_type
class RBACBinding:
    id: str
    principal: str                      # principal id or group name
    role: tuple[Permission, ...]
    condition: TagCondition | None = None

    def grants(self, service: str, method: str) -> bool:
        return any(
            p.service == service and (p.method == ANY or p.method == method)
            for p in self.role
        )


@value_type
class OrgConstraint:
    id: str
    kind: ConstraintKind
    scope: str                          # org or folder node id
    exception_tag: str | None = None


# ---------------------------------------------------------------------------
# Identity
# ---------------------------------------------------------------------------


@value_type
class IdentityProvider:
    id: str
    kind: IdpKind
    segment: str | None = None          # where the idp's servers live (directory idps)


@value_type
class Principal:
    id: str
    kind: PrincipalKind
    idp: str
    groups: tuple[str, ...] = ()
    device: Mapping[str, str] = field(default_factory=dict, hash=False)

    def matches_identity(self, token: str) -> bool:
        """True if ``token`` names this principal, one of its groups, or any."""
        return token == ANY or token == self.id or token in self.groups


@value_type
class TrustEdge:
    id: str
    src: str
    dst: str
    kind: TrustKind
    mapping: Mapping[str, str] = field(default_factory=dict, hash=False)


@value_type
class ChainStep:
    idp: str
    principal: str
    edge: str | None                    # None for the home-idp first step


@value_type
class CredentialChain:
    steps: tuple[ChainStep, ...]

    @property
    def terminal_principal(self) -> str:
        return self.steps[-1].principal

    @property
    def terminal_idp(self) -> str:
        return self.steps[-1].idp

    def __len__(self) -> int:
        return len(self.steps)


# ---------------------------------------------------------------------------
# Data assets and flows
# ---------------------------------------------------------------------------


@value_type
class DataAsset:
    id: str
    resource: str
    tags: frozenset[str] = frozenset()


@value_type
class FlowRequest:
    """A candidate flow: who, from where, to what, doing what."""

    principal: str
    source: str                          # segment id, ONPREM, or INTERNET
    target: str                          # service id, endpoint id, or INTERNET
    method: str = "connect"
    source_address: str | None = None
    payload_tags: frozenset[str] = frozenset()
    presented_chain: CredentialChain | None = None


@value_type
class Decision:
    verdict: Verdict
    reason: DenyReason | None = None

    @property
    def allowed(self) -> bool:
        return self.verdict is Verdict.ALLOW


ALLOW = Decision(Verdict.ALLOW)


_DENIALS = {reason: Decision(Verdict.DENY, reason) for reason in DenyReason}


def deny(reason: DenyReason) -> Decision:
    """The one shared Decision that denies for ``reason``."""
    return _DENIALS[reason]


@dataclass(frozen=True, slots=True)
class TraceStep:
    index: int
    point: PointKind
    verdict: Verdict
    rule: str                            # matched rule id, "default", or "not-applicable"
    reason: DenyReason | None = None


DecisionTrace = tuple[TraceStep, ...]


# ---------------------------------------------------------------------------
# Perimeter membership
# ---------------------------------------------------------------------------


def resolve_members(
    perimeter: AbstractPerimeter, nodes: Mapping[str, ResourceNode]
) -> frozenset[str]:
    """Project ids selected by folders, explicit listing, or tag selectors."""
    projects = {n.id for n in nodes.values() if n.kind is NodeKind.PROJECT}
    selected: set[str] = set()
    for pid in projects:
        chain = ancestors(pid, nodes)
        if any(f in chain for f in perimeter.members.folders):
            selected.add(pid)
    selected.update(p for p in perimeter.members.projects if p in projects)
    if perimeter.members.tags:
        for pid in projects:
            etags = effective_tags(pid, nodes)
            if any(sel in etags for sel in perimeter.members.tags):
                selected.add(pid)
    if not selected:
        raise EmptyPerimeterError(perimeter.id)
    return frozenset(selected)
