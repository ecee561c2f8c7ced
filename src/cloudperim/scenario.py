"""Scenario documents: parsing, structural validation, serialization.

A scenario is one YAML document with top-level sections ``hierarchy``,
``networks``, ``services``, ``identity``, ``policies``, ``perimeters`` and
``assets`` (plus ``name``/``description``/``chain_bound`` metadata). The
exact field keys are documented in the README and exercised by the built-in
templates, which are stored in this format and parsed by this parser.

The format is declared once, as one field table per model type (``_NODE``,
``_SEGMENT``, ... and ``_SCENARIO`` for the document): each field's key,
codec and default. Parsing, the unknown-field check and serialization are
walks over that table. Parsing collects every problem it finds instead of
stopping at the first one; scenario authors get the complete list in a
single run.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import partial
from typing import TYPE_CHECKING, Any, Callable

import yaml

from . import model as m
from . import prefix
from .errors import InvalidHierarchyError, ScenarioParseError, UnknownNodeError

if TYPE_CHECKING:
    from .engine import NetworkLeg


@dataclass(frozen=True)
class ParseIssue:
    code: str                 # SYNTAX | DUP_ID | UNKNOWN_REF | BAD_VALUE
    subject: str
    message: str
    location: str | None = None

    def __str__(self) -> str:
        loc = f" ({self.location})" if self.location else ""
        return f"{self.code}: {self.subject}: {self.message}{loc}"


@dataclass(frozen=True)
class Violation:
    code: str
    subject: str
    message: str

    def __str__(self) -> str:
        return f"{self.code}: {self.subject}: {self.message}"


@dataclass(frozen=True)
class Scenario:
    """Immutable container for one modeled architecture.

    Assigning a field raises ``FrozenInstanceError``: the index built on first
    use holds facts derived from every field, so a changed scenario is a new
    one (``dataclasses.replace``).
    """

    name: str
    description: str = ""
    nodes: tuple[m.ResourceNode, ...] = ()
    segments: tuple[m.NetworkSegment, ...] = ()
    edges: tuple[m.ConnectivityEdge, ...] = ()
    services: tuple[m.ServiceSpec, ...] = ()
    attachments: tuple[m.ServiceAttachment, ...] = ()
    endpoints: tuple[m.ConsumerEndpoint, ...] = ()
    idps: tuple[m.IdentityProvider, ...] = ()
    principals: tuple[m.Principal, ...] = ()
    trust_edges: tuple[m.TrustEdge, ...] = ()
    firewall_rules: tuple[m.FirewallRule, ...] = ()
    bindings: tuple[m.RBACBinding, ...] = ()
    constraints: tuple[m.OrgConstraint, ...] = ()
    perimeters: tuple[m.AbstractPerimeter, ...] = ()
    assets: tuple[m.DataAsset, ...] = ()
    chain_bound: int = 4
    _index: "ScenarioIndex | None" = field(
        default=None, init=False, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        for f in fields(self):
            if f.name.startswith("_") or f.name in ("name", "description", "chain_bound"):
                continue
            object.__setattr__(self, f.name, tuple(getattr(self, f.name)))

    def index(self) -> "ScenarioIndex":
        if self._index is None:
            object.__setattr__(self, "_index", ScenarioIndex(self))
        return self._index


class ScenarioIndex:
    """Facts derived once per scenario, and the memos of queries over it.

    Scenarios are frozen, so neither the facts nor the memos can go stale.
    """

    def __init__(self, s: Scenario) -> None:
        self.scenario = s
        self.nodes = {n.id: n for n in s.nodes}
        self.segments = {x.id: x for x in s.segments}
        self.edges = {x.id: x for x in s.edges}
        self.services = {x.id: x for x in s.services}
        self.attachments = {x.id: x for x in s.attachments}
        self.endpoints = {x.id: x for x in s.endpoints}
        self.idps = {x.id: x for x in s.idps}
        self.principals = {x.id: x for x in s.principals}
        self.assets = {x.id: x for x in s.assets}
        self.perimeters = {x.id: x for x in s.perimeters}
        self.attachment_for_service = {a.service: a for a in s.attachments}
        self.endpoints_for_attachment: dict[str, list[m.ConsumerEndpoint]] = {}
        for ep in s.endpoints:
            self.endpoints_for_attachment.setdefault(ep.attachment, []).append(ep)
        self.services_in_segment: dict[str, list[m.ServiceSpec]] = {}
        for svc in s.services:
            self.services_in_segment.setdefault(svc.segment, []).append(svc)
        # firewall rules per scope in evaluation order: ascending priority,
        # scenario order among equal priorities
        by_scope: dict[str, list[m.FirewallRule]] = {}
        for r in s.firewall_rules:
            by_scope.setdefault(r.scope, []).append(r)
        self.firewall_rules_by_scope: dict[str, tuple[m.FirewallRule, ...]] = {
            scope: tuple(sorted(rules, key=lambda r: r.priority)) for scope, rules in by_scope.items()
        }
        # bindings with a permission naming the service, in scenario order
        self.bindings_for_service: dict[str, list[m.RBACBinding]] = {}
        for b in s.bindings:
            for svc_id in dict.fromkeys(p.service for p in b.role):
                self.bindings_for_service.setdefault(svc_id, []).append(b)
        self.non_routable = frozenset(
            x.id for x in s.segments if x.routability is m.Routability.NON_ROUTABLE
        )
        self.adjacency = _locus_adjacency(s.edges, self.non_routable)
        # each segment's CIDRs as intervals; a request from a segment that
        # names no source address carries the segment's canonical address
        self.segment_nets: dict[str, tuple[prefix.Interval, ...]] = {}
        self.source_nets: dict[str, tuple[prefix.Interval, ...]] = {}
        for seg in s.segments:
            nets = tuple(n for n in map(prefix.network, seg.cidrs) if n is not None)
            canonical = prefix.address(prefix.first_host(seg.cidrs[0])) if seg.cidrs else None
            self.segment_nets[seg.id] = nets
            self.source_nets[seg.id] = nets if canonical is None else (canonical,) + nets
        # memos of route, identity and engine queries
        self.route_trees: dict[tuple[str, bool], dict[str, m.ConnectivityEdge]] = {}
        self.credential_cache: dict[tuple[str, str], m.CredentialChain | None] = {}
        self.target_tags: dict[str, frozenset[str]] = {}
        # (source, target, source address, payload tags) -> network leg
        self.legs: dict[tuple[str, str, str | None, frozenset[str]], NetworkLeg] = {}
        self._memberships: dict[str, frozenset[str]] | None = None
        self._data_plane_perimeter: dict[str, m.AbstractPerimeter] | None = None

    def memberships(self) -> dict[str, frozenset[str]]:
        """Perimeter id -> resolved member project set."""
        if self._memberships is None:
            self._memberships = {
                p.id: m.resolve_members(p, self.nodes) for p in self.scenario.perimeters
            }
        return self._memberships

    def data_plane_perimeter_of(self, project: str | None) -> m.AbstractPerimeter | None:
        """The first data-plane perimeter, in scenario order, holding ``project``."""
        if project is None:
            return None
        if self._data_plane_perimeter is None:
            dp = [p for p in self.scenario.perimeters if m.Mechanism.DATA_PLANE_PERIMETER in p.mechanisms]
            members = self.memberships() if dp else {}
            by_project: dict[str, m.AbstractPerimeter] = {}
            for p in dp:
                for prj in members[p.id]:
                    by_project.setdefault(prj, p)
            self._data_plane_perimeter = by_project
        return self._data_plane_perimeter.get(project)


def _locus_adjacency(
    edges: tuple[m.ConnectivityEdge, ...], non_routable: frozenset[str]
) -> dict[str, tuple[tuple[m.ConnectivityEdge, str], ...]]:
    """Locus -> the (edge, next locus) pairs legal from it for any flow, by edge id.

    An outbound-only edge leaves only its first end. Self-loops, NAT edges not
    leading into INTERNET, and entries into a non-routable segment other than
    by vpc-connector are never legal. The rules that depend on the flow
    (non-routable transit, NAT only toward INTERNET) are the route search's.
    """
    out: dict[str, list[tuple[m.ConnectivityEdge, str]]] = {}
    for e in edges:
        a, b = e.ends
        if a == b:
            continue
        for at, nxt in ((a, b), (b, a)):
            if e.direction is m.EdgeDirection.OUTBOUND_ONLY and at != a:
                continue
            if e.kind is m.EdgeKind.NAT_GATEWAY and nxt != m.INTERNET:
                continue
            if nxt in non_routable and e.kind is not m.EdgeKind.VPC_CONNECTOR:
                continue
            out.setdefault(at, []).append((e, nxt))
    return {at: tuple(sorted(pairs, key=lambda p: p[0].id)) for at, pairs in out.items()}


# ---------------------------------------------------------------------------
# The document format: one field table per model type
# ---------------------------------------------------------------------------


class _Ctx(list):
    """The issues found so far."""

    def err(self, code: str, subject: str, message: str, location: str | None = None) -> None:
        self.append(ParseIssue(code, subject, message, location))


def _expect_map(ctx: _Ctx, value: Any, subject: str, allowed: set[str]) -> dict:
    if value is None:
        return {}
    if not isinstance(value, dict):
        ctx.err("BAD_VALUE", subject, f"expected a mapping, got {type(value).__name__}")
        return {}
    for key in value:
        if key not in allowed:
            ctx.err("BAD_VALUE", subject, f"unknown field {key!r}")
    return value


def _expect_list(ctx: _Ctx, value: Any, subject: str) -> list:
    if value is None:
        return []
    if not isinstance(value, list):
        ctx.err("BAD_VALUE", subject, f"expected a list, got {type(value).__name__}")
        return []
    return value


def _scalar_str(value: Any) -> str:
    """A scalar compared with tag text; a YAML boolean keeps its YAML spelling."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class _Codec:
    """How a field's document value becomes its model value, and back.

    ``read(ctx, raw, subject, default)`` reports problems under ``subject``
    and falls back to ``default``; it reads a null only for a field whose
    default is not None. ``write`` gives the value as the document holds it.
    """

    read: Callable[[_Ctx, Any, str, Any], Any]
    write: Callable[[Any], Any] = lambda value: value


def _typed(accepts: Callable[[Any], bool], what: str) -> _Codec:
    """A value taken as it is if ``accepts`` it, never converted; else reported as not ``what``."""

    def read(ctx: _Ctx, raw: Any, subject: str, default: Any) -> Any:
        if accepts(raw):
            return raw
        ctx.err("BAD_VALUE", subject, f"{raw!r} is not {what}")
        return default

    return _Codec(read)


def _read_enum(cls, ctx: _Ctx, raw: Any, subject: str, default: Any):
    if raw is None:
        return default
    try:
        return cls(raw)
    except ValueError:
        choices = ", ".join(e.value for e in cls)
        ctx.err("BAD_VALUE", subject, f"{raw!r} is not one of: {choices}")
        return default


def _enum(cls) -> _Codec:
    return _Codec(partial(_read_enum, cls), lambda member: member.value)


def _enum_set(cls, member_default) -> _Codec:
    def read(ctx: _Ctx, raw: Any, subject: str, default: Any) -> frozenset:
        items = _expect_list(ctx, raw, subject)
        return frozenset(_read_enum(cls, ctx, v, subject, member_default) for v in items)

    return _Codec(read, lambda members: sorted(x.value for x in members))


def _read_text_map(ctx: _Ctx, raw: Any, subject: str, default: Any) -> dict[str, str]:
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        ctx.err("BAD_VALUE", subject, "expected a mapping of scalars")
        return {}
    return {str(k): _scalar_str(v) for k, v in raw.items()}


def _read_tags(ctx: _Ctx, raw: Any, subject: str, default: Any) -> frozenset[str]:
    tags = tuple(map(_scalar_str, _expect_list(ctx, raw, subject)))
    for tag in tags:
        if ":" not in tag:
            ctx.err("BAD_VALUE", subject, f"tag {tag!r} is not key:value")
    return frozenset(tags)


def _cidr_tokens(ctx: _Ctx, subject: str, tokens: tuple[str, ...]) -> tuple[str, ...]:
    """CIDRs plus the ONPREM/INTERNET/* tokens used in match positions."""
    for tok in tokens:
        if tok not in (m.ONPREM, m.INTERNET, m.ANY) and prefix.network(tok) is None:
            ctx.err("BAD_VALUE", subject, f"{tok!r} is not a CIDR or ONPREM/INTERNET/*")
    return tokens


def _read_tokens(ctx: _Ctx, raw: Any, subject: str, default: Any) -> tuple[str, ...]:
    return _cidr_tokens(ctx, subject, tuple(map(str, _expect_list(ctx, raw, subject)))) or default


def _read_address(ctx: _Ctx, raw: Any, subject: str, default: Any) -> str:
    """An ``ip`` or ``ip:port`` address."""
    text = str(raw)
    if prefix.host_port(text) is None:
        ctx.err("BAD_VALUE", subject, f"address {text!r} is not ip or ip:port (port 0-65535)")
    return text


def _read_ports(ctx: _Ctx, raw: Any, subject: str, default: Any) -> tuple[tuple[int, int], ...]:
    """Ports as ``p`` or ``{from: lo, to: hi}`` (each end defaulting to 0 and 65535)."""
    ports = []
    for p in _expect_list(ctx, raw, subject):
        span = (p, p)
        if isinstance(p, dict) and set(p) <= {"from", "to"}:
            span = (p.get("from", 0), p.get("to", 65535))
        if _is_int(span[0]) and _is_int(span[1]):
            ports.append(span)
        else:
            ctx.err("BAD_VALUE", subject, f"bad port entry {p!r}")
    return tuple(ports)


def _text(convert: Callable[[Any], str]) -> _Codec:
    """Text from any scalar; a null, list or mapping is reported, not read as its ``str()``."""

    def read(ctx: _Ctx, raw: Any, subject: str, default: Any) -> Any:
        if raw is None or isinstance(raw, (list, dict)):
            ctx.err("BAD_VALUE", subject, f"{raw!r} is not text")
            return default
        return convert(raw)

    return _Codec(read)


_TEXT = _text(str)  # names and references
_TAG_TEXT = _text(_scalar_str)  # text compared with tags
_INT = _typed(_is_int, "an integer")
_BOOL = _typed(lambda value: isinstance(value, bool), "true or false")
_TEXTS = _Codec(lambda ctx, raw, subject, default: tuple(map(str, _expect_list(ctx, raw, subject))), list)
_TAG_TEXTS = _Codec(
    lambda ctx, raw, subject, default: tuple(map(_scalar_str, _expect_list(ctx, raw, subject))), list
)
_TEXT_MAP = _Codec(_read_text_map, dict)
_TAGS = _Codec(_read_tags, sorted)
_TOKENS = _Codec(_read_tokens, list)
_ADDRESS = _Codec(_read_address)
_PORTS = _Codec(_read_ports, lambda ports: [{"from": lo, "to": hi} for lo, hi in ports])


@dataclass(frozen=True)
class _Many:
    """A list of nested entities. Entry ``j`` is reported as
    ``<subject>.<key>[j]``, and the list itself as ``<subject>.<key>``, or as
    ``<subject>`` when ``owner_subject`` is set. The ids of a scenario's list
    are unique within its ``noun``; lists sharing a noun share their ids."""

    type: "_Type"
    noun: str | None = None
    owner_subject: bool = False


@dataclass(frozen=True)
class _One:
    """One nested entity. Its mapping is reported as ``<subject>.<key>``, its
    fields as ``<subject>``."""

    type: "_Type"


_REQUIRED = object()  # the default of an id: an entity without one is reported and skipped
_ABSENT = object()  # the document value of a field the document leaves out


class _F:
    """One document field: its key, its codec, its default, and the model
    attribute it fills (the key's last part unless named).

    A callable default is computed from the owner's fields read before it.
    ``check`` is a rule of the owning type alone, run on the value read.
    ``elide`` leaves the field out of a written document when it holds its
    default.
    """

    def __init__(self, key: str, codec: _Codec | _Many | _One, default: Any = None, *,
                 attr: str | None = None, check: Callable[[_Ctx, str, Any], Any] | None = None,
                 elide: bool = False) -> None:
        self.key, self.codec, self.default = key, codec, default
        self.attr = attr or key.rpartition(".")[2]
        self.check, self.elide = check, elide


class _Type:
    """The document form of one model type: its fields in document order.

    The id is read first and the keys in ``first`` next, so problems are
    reported in their established order. ``ids`` is the ``str.format``
    pattern of the default id of entry ``{j}`` of a nested list reported as
    ``{subject}``, given the ``{owner}``'s fields read so far.
    """

    def __init__(self, model: Callable[..., Any], *fields: _F, first: tuple[str, ...] = (),
                 ids: str | None = None) -> None:
        self.model, self.fields, self.ids = model, fields, ids
        self.keys = {f.key for f in fields}
        self.order = sorted(fields, key=lambda f: (f.key != "id", f.key not in first))


_ID = _F("id", _TEXT, _REQUIRED)

_NODE = _Type(
    m.ResourceNode,
    _ID,
    _F("kind", _enum(m.NodeKind), m.NodeKind.PROJECT),
    _F("parent", _TEXT),
    _F("tags", _TAGS, frozenset()),
    _F("labels", _TEXT_MAP, {}),
)


def _segment_cidrs(ctx: _Ctx, subject: str, cidrs: tuple[str, ...]) -> tuple[str, ...]:
    for c in cidrs:
        if prefix.network(c) is None:
            ctx.err("BAD_VALUE", subject, f"bad CIDR {c!r}")
    return cidrs


def _subnet_cidrs(ctx: _Ctx, subject: str, subnets: dict[str, str]) -> dict[str, str]:
    for name, c in subnets.items():
        if prefix.network(c) is None:
            ctx.err("BAD_VALUE", subject, f"bad subnet CIDR {c!r} for {name!r}")
    return subnets


_SEGMENT = _Type(
    m.NetworkSegment,
    _ID,
    _F("project", _TEXT, ""),
    _F("routability", _enum(m.Routability), m.Routability.ROUTABLE),
    _F("cidrs", _TEXTS, (), check=_segment_cidrs),
    _F("subnets", _TEXT_MAP, {}, check=_subnet_cidrs),
    _F("trust_mode", _enum(m.TrustMode), m.TrustMode.TRUSTING),
    first=("cidrs", "subnets"),
)
_GATEWAY_RULE = _Type(
    m.GatewayRule,
    _ID,
    _F("from", _TEXT, m.ANY, attr="src_zone"),
    _F("to", _TEXT, m.ANY, attr="dst_zone"),
    _F("action", _enum(m.RuleAction), m.RuleAction.DENY),
    _F("new_connection", _BOOL, True),
    _F("protocol", _TEXT, "tcp"),
    _F("content_class", _TAG_TEXT),
    ids="{owner[id]}-r{j}",
)


def _two_ends(ctx: _Ctx, subject: str, ends: tuple[str, ...]) -> tuple[str, ...]:
    if len(ends) != 2:
        ctx.err("BAD_VALUE", subject, f"ends must name exactly two loci, got {len(ends)}")
    return ends


_EDGE = _Type(
    m.ConnectivityEdge,
    _ID,
    _F("kind", _enum(m.EdgeKind), m.EdgeKind.PEERING),
    _F("ends", _TEXTS, (), check=_two_ends),
    _F("direction", _enum(m.EdgeDirection), lambda edge: (
        m.EdgeDirection.OUTBOUND_ONLY if edge["kind"] is m.EdgeKind.NAT_GATEWAY
        else m.EdgeDirection.BIDIRECTIONAL
    )),
    _F("gateway_rules", _Many(_GATEWAY_RULE, owner_subject=True), ()),
    first=("ends", "gateway_rules"),
)
_SERVICE = _Type(
    m.ServiceSpec,
    _ID,
    _F("project", _TEXT, ""),
    _F("segment", _TEXT, ""),
    _F("layer", _enum(m.ServiceLayer), m.ServiceLayer.L4),
    _F("compute", _enum(m.ComputeKind), m.ComputeKind.VM),
    _F("auth_mode", _enum(m.AuthMode), m.AuthMode.PERIMETER_TRUSTING),
    _F("address", _ADDRESS),
    _F("fqdn", _TEXT),
    _F("backends", _TEXTS, ()),
    _F("run_as", _TEXTS, ()),
    _F("workload", _TEXT),
    _F("idp", _TEXT),
    _F("reads", _TEXTS, ()),
    _F("writes", _TEXTS, ()),
    _F("depends_on", _TEXTS, ()),
)
_PREDICATE = _Type(
    m.AccessPredicate,
    _ID,
    _F("action", _enum(m.RuleAction), m.RuleAction.ALLOW),
    _F("identities", _TEXTS, ()),
    _F("cidrs", _TOKENS, ()),
    _F("methods", _TEXTS, ()),
    ids="{subject}-{j}",
)
_ATTACHMENT = _Type(
    m.ServiceAttachment,
    _ID,
    _F("service", _TEXT, ""),
    _F("policy", _Many(_PREDICATE), ()),
)
_ENDPOINT = _Type(
    m.ConsumerEndpoint,
    _ID,
    _F("segment", _TEXT, ""),
    _F("attachment", _TEXT, ""),
    _F("address", _ADDRESS),
    _F("fqdn", _TEXT),
    _F("policy", _Many(_PREDICATE), ()),
)
_IDP = _Type(
    m.IdentityProvider,
    _ID,
    _F("kind", _enum(m.IdpKind), m.IdpKind.CLOUD_NATIVE),
    _F("segment", _TEXT),
)
_PRINCIPAL = _Type(
    m.Principal,
    _ID,
    _F("kind", _enum(m.PrincipalKind), m.PrincipalKind.SERVICE_ACCOUNT),
    _F("idp", _TEXT, ""),
    _F("groups", _TEXTS, ()),
    _F("device", _TEXT_MAP, {}),
)
_TRUST_EDGE = _Type(
    m.TrustEdge,
    _ID,
    _F("from", _TEXT, "", attr="src"),
    _F("to", _TEXT, "", attr="dst"),
    _F("kind", _enum(m.TrustKind), m.TrustKind.ONE_WAY_TRUST),
    _F("mapping", _TEXT_MAP, {}),
)


def _scope_shape(ctx: _Ctx, subject: str, scope: str) -> str:
    if scope != m.ORG_SCOPE and scope.split(":", 1)[0] not in ("folder", "segment"):
        ctx.err("BAD_VALUE", subject, f"scope {scope!r} must be organization, folder:<id> or segment:<id>")
    return scope


_FIREWALL_RULE = _Type(
    m.FirewallRule,
    _ID,
    _F("scope", _TEXT, m.ORG_SCOPE, check=_scope_shape),
    _F("priority", _INT, 1000),
    _F("action", _enum(m.RuleAction), m.RuleAction.DENY),
    _F("src", _TOKENS, (m.ANY,)),
    _F("dst", _TOKENS, (m.ANY,)),
    _F("protocol", _TEXT, "any"),
    _F("ports", _PORTS, ()),
)
_PERMISSION = _Type(m.Permission, _F("service", _TEXT, m.ANY), _F("method", _TEXT, m.ANY))
_CONDITION = _Type(m.TagCondition, _F("key", _TEXT, ""), _F("value", _TAG_TEXT, ""))
_BINDING = _Type(
    m.RBACBinding,
    _ID,
    _F("principal", _TEXT, ""),
    _F("role", _Many(_PERMISSION, owner_subject=True), ()),
    _F("condition", _One(_CONDITION)),
)
_CONSTRAINT = _Type(
    m.OrgConstraint,
    _ID,
    _F("kind", _enum(m.ConstraintKind), m.ConstraintKind.NO_PUBLIC_IP),
    _F("scope", _TEXT, ""),
    _F("exception_tag", _TAG_TEXT),
)
_MEMBERS = _Type(
    m.MemberSelector, _F("folders", _TEXTS, ()), _F("projects", _TEXTS, ()), _F("tags", _TAG_TEXTS, ())
)
_TARGET = _Type(
    m.PerimeterTarget, _F("project", _TEXT, m.ANY), _F("service", _TEXT, m.ANY), _F("method", _TEXT, m.ANY)
)
_PERIMETER_RULE = _Type(
    m.PerimeterRule,
    _ID,
    _F("identities", _TEXTS, ()),
    _F("device", _TEXT_MAP, {}),
    _F("networks", _TOKENS, ()),
    _F("targets", _Many(_TARGET, owner_subject=True), ()),
    first=("targets",),
    ids="{subject}-{j}",
)
_PERIMETER = _Type(
    m.AbstractPerimeter,
    _ID,
    _F("name", _TEXT, lambda perimeter: perimeter["id"]),
    _F("members", _One(_MEMBERS), m.MemberSelector()),
    _F("mechanisms", _enum_set(m.Mechanism, m.Mechanism.NETWORK_SEGMENTATION), frozenset()),
    _F("ingress", _Many(_PERIMETER_RULE), ()),
    _F("egress", _Many(_PERIMETER_RULE), ()),
)
_ASSET = _Type(m.DataAsset, _ID, _F("resource", _TEXT, ""), _F("tags", _TAGS, frozenset()))

# The document itself: a dotted key is a list inside a top-level section.
_SCENARIO = _Type(
    Scenario,
    _F("name", _TEXT, "unnamed"),
    _F("description", _TEXT, "", check=lambda ctx, subject, text: text.strip(), elide=True),
    _F("chain_bound", _INT, 4, elide=True),
    _F("hierarchy", _Many(_NODE, "node"), (), attr="nodes"),
    _F("networks.segments", _Many(_SEGMENT, "segment"), ()),
    _F("networks.edges", _Many(_EDGE, "edge"), ()),
    _F("services.specs", _Many(_SERVICE, "service/endpoint"), (), attr="services"),
    _F("services.attachments", _Many(_ATTACHMENT, "attachment"), ()),
    _F("services.endpoints", _Many(_ENDPOINT, "service/endpoint"), ()),
    _F("identity.idps", _Many(_IDP, "idp"), ()),
    _F("identity.principals", _Many(_PRINCIPAL, "principal"), ()),
    _F("identity.trust_edges", _Many(_TRUST_EDGE, "trust edge"), ()),
    _F("policies.firewall", _Many(_FIREWALL_RULE, "firewall rule"), (), attr="firewall_rules"),
    _F("policies.rbac", _Many(_BINDING, "binding"), (), attr="bindings"),
    _F("policies.org_constraints", _Many(_CONSTRAINT, "org constraint"), (), attr="constraints"),
    _F("perimeters", _Many(_PERIMETER, "perimeter"), ()),
    _F("assets", _Many(_ASSET, "asset"), ()),
)
_SECTIONS: dict[str, set[str]] = {}  # top-level key -> the keys inside it
for _key in _SCENARIO.keys:
    _SECTIONS.setdefault(_key.split(".")[0], set()).add(_key.rpartition(".")[2])


def _read(ctx: _Ctx, t: _Type, d: dict, subject: str, default_id: str | None = None,
          get: Callable[[str, Any], Any] | None = None) -> Any:
    """The entity of type ``t`` from its mapping ``d`` (its fields looked up
    by ``get``, ``d.get`` unless given); None, once reported, if it has no id
    that is text and none is given."""
    get = get or d.get
    values: dict[str, Any] = {}
    for f in t.order:
        raw = get(f.key, _ABSENT)
        default = f.default
        if default is _REQUIRED and (raw is _ABSENT or raw is None):
            if default_id is None:
                ctx.err("BAD_VALUE", subject, "missing id")
                return None
            raw = default_id
        elif callable(default):
            default = default(values)
        if raw is _ABSENT or (raw is None and default is None):
            value = default
        elif isinstance(f.codec, _Codec):
            value = f.codec.read(ctx, raw, subject, default)
        else:
            value = _read_nested(ctx, f, raw, subject, values)
        if value is _REQUIRED:
            return None  # an id that is not text, reported by its codec
        values[f.attr] = value if f.check is None else f.check(ctx, subject, value)
    return t.model(**values)


def _read_nested(ctx: _Ctx, f: _F, raw: Any, subject: str, owner: dict) -> Any:
    """The nested entity, or the tuple of them, of field ``f`` of ``owner``."""
    t = f.codec.type
    if isinstance(f.codec, _One):
        return _read(ctx, t, _expect_map(ctx, raw, f"{subject}.{f.key}", t.keys), subject)
    path = f.key if subject == "document" else f"{subject}.{f.key}"
    list_subject = subject if f.codec.owner_subject else path
    entries = []
    for j, item in enumerate(_expect_list(ctx, raw, list_subject)):
        sub = f"{path}[{j}]"
        default_id = t.ids and t.ids.format(subject=list_subject, j=j, owner=owner)
        entry = _read(ctx, t, _expect_map(ctx, item, sub, t.keys), sub, default_id)
        if entry is not None:
            entries.append(entry)
    return tuple(entries)


# ---------------------------------------------------------------------------
# YAML load
#
# PyYAML's pure-Python loader is the reference. libyaml, where PyYAML was
# built with it, loads the same documents about five times faster, but it is
# not a drop-in replacement, so it is used only inside a gate that a
# differential corpus (tests/test_yaml_parity.py) backs.
# ---------------------------------------------------------------------------

_FAST_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else None

# What SafeConstructor lets escape when a tagged scalar does not convert:
# ``!!bool maybe`` raises KeyError and ``!!int ''`` IndexError (both
# LookupErrors), ``!!int x`` ValueError and ``!!timestamp x`` AttributeError.
_CONSTRUCT_ERRORS = (LookupError, ValueError, AttributeError)

# libyaml composes nested collections by C recursion, and crashes the process
# somewhere between 20,000 and 40,000 levels on an 8 MB stack; the reference
# composes by Python recursion and runs out of it from about 490 levels. Its
# parser keeps its own stack, so its event stream measures a document's
# nesting depth safely, and libyaml composes only documents nested at most
# this deep, where the reference never runs out.
_FAST_LOAD_MAX_DEPTH = 100

_NESTING_STEP = {
    yaml.SequenceStartEvent: 1,
    yaml.MappingStartEvent: 1,
    yaml.SequenceEndEvent: -1,
    yaml.MappingEndEvent: -1,
}


class _ScalarErrorLoader(yaml.SafeLoader):
    """The reference loader, raising a located ConstructorError for a tagged
    scalar that does not convert."""

    def construct_object(self, node: yaml.Node, deep: bool = False) -> Any:
        try:
            return super().construct_object(node, deep)
        except _CONSTRUCT_ERRORS:
            tag = node.tag.replace("tag:yaml.org,2002:", "!!")
            raise yaml.constructor.ConstructorError(
                None, None, f"{node.value!r} is not a valid {tag}", node.start_mark
            ) from None


def _fast_loadable(document: str) -> bool:
    """Whether libyaml loads ``document`` as the reference does; a YAMLError
    if libyaml's parser rejects it.

    libyaml accepts tabs as separators and ``?`` inside flow-context plain
    scalars, where the reference rejects them, and reads a mid-document
    byte-order mark differently, so it only sees ASCII documents with
    neither, and none nested past ``_FAST_LOAD_MAX_DEPTH``.
    """
    if not (document.isascii() and "\t" not in document and "?" not in document):
        return False
    depth = 0
    for event in yaml.parse(document, Loader=_FAST_LOADER):
        depth += _NESTING_STEP.get(type(event), 0)
        if depth > _FAST_LOAD_MAX_DEPTH:
            return False
    return True


def _load(document: str) -> Any:
    """The document's data, or a YAMLError worded by the reference loader.

    A document libyaml rejects is loaded again by the reference, which then
    words the error or accepts what libyaml does not (``%FOO`` directives).
    """
    if _FAST_LOADER is not None:
        try:
            if _fast_loadable(document):
                return yaml.load(document, Loader=_FAST_LOADER)
        except (yaml.YAMLError, *_CONSTRUCT_ERRORS):
            pass
    try:
        return yaml.safe_load(document)
    except _CONSTRUCT_ERRORS:
        return yaml.load(document, Loader=_ScalarErrorLoader)  # raises at the scalar
    except RecursionError:
        raise yaml.YAMLError("nested too deeply to load") from None


def parse_scenario(document: str) -> Scenario:
    """Parse a scenario document, raising ScenarioParseError with every issue found."""
    ctx = _Ctx()
    try:
        raw = _load(document)
    except yaml.YAMLError as e:
        loc = None
        mark = getattr(e, "problem_mark", None)
        if mark is not None:
            loc = f"line {mark.line + 1}, column {mark.column + 1}"
        ctx.err("SYNTAX", "document", str(getattr(e, "problem", None) or e), loc)
        raise ScenarioParseError(ctx)
    if not isinstance(raw, dict):
        ctx.err("SYNTAX", "document", "top level must be a mapping")
        raise ScenarioParseError(ctx)
    for key in raw:
        if key not in _SECTIONS:
            ctx.err("BAD_VALUE", "document", f"unknown section {key!r}")

    sections: dict[str, dict] = {}

    def get(path: str, absent: Any) -> Any:
        """A dotted path names a key of a section, checked when first read."""
        section, _, key = path.rpartition(".")
        if not section:
            return raw.get(key, absent)
        if section not in sections:
            sections[section] = _expect_map(ctx, raw.get(section), section, _SECTIONS[section])
        return sections[section].get(key, absent)

    s = _read(ctx, _SCENARIO, raw, "document", get=get)
    ctx.extend(ParseIssue(*problem) for problem in _integrity_problems(s))
    if ctx:
        raise ScenarioParseError(ctx)
    return s


def _integrity_problems(s: Scenario) -> list[tuple[str, str, str]]:
    """Duplicate ids, then references to nothing, as (code, subject, message)."""
    out: list[tuple[str, str, str]] = []
    namespaces: dict[str, list[str]] = {}  # noun -> ids, in table then scenario order
    for f in _SCENARIO.fields:
        if isinstance(f.codec, _Many):
            namespaces.setdefault(f.codec.noun, []).extend(x.id for x in getattr(s, f.attr))
    for noun, ids in namespaces.items():
        seen: set[str] = set()
        for i in ids:
            if i in seen:
                out.append(("DUP_ID", i, f"duplicate {noun} id"))
            seen.add(i)

    nodes = {n.id: n for n in s.nodes}
    node_kind = {n.id: n.kind for n in s.nodes}
    seg_ids = {x.id for x in s.segments}
    loci = seg_ids | m.DISTINGUISHED_LOCI
    svc_ids = {x.id for x in s.services}
    att_ids = {x.id for x in s.attachments}
    idp_ids = {x.id for x in s.idps}
    principal_ids = {x.id for x in s.principals}
    asset_ids = {x.id for x in s.assets}

    def ref(ok: bool, subject: str, target: str, what: str) -> None:
        if not ok:
            out.append(("UNKNOWN_REF", subject, f"unknown {what} {target!r}"))

    for n in s.nodes:
        if n.parent is not None:
            ref(n.parent in nodes, n.id, n.parent, "parent node")
    for seg in s.segments:
        ref(node_kind.get(seg.project) is m.NodeKind.PROJECT, seg.id, seg.project, "project")
    for e in s.edges:
        for end in e.ends:
            ref(end in loci, e.id, end, "locus")
        for r in e.gateway_rules:
            for zone in (r.src_zone, r.dst_zone):
                ref(zone in loci or zone == m.ANY, r.id, zone, "zone")
    for svc in s.services:
        ref(node_kind.get(svc.project) is m.NodeKind.PROJECT, svc.id, svc.project, "project")
        ref(svc.segment in seg_ids, svc.id, svc.segment, "segment")
        if svc.idp is not None:
            ref(svc.idp in idp_ids, svc.id, svc.idp, "idp")
        for p in svc.run_as:
            ref(p in principal_ids, svc.id, p, "principal")
        for a in list(svc.reads) + list(svc.writes):
            ref(a in asset_ids, svc.id, a, "asset")
        for d in svc.depends_on:
            ref(d in svc_ids, svc.id, d, "service")
    for att in s.attachments:
        ref(att.service in svc_ids, att.id, att.service, "service")
    for ep in s.endpoints:
        ref(ep.segment in seg_ids, ep.id, ep.segment, "segment")
        ref(ep.attachment in att_ids, ep.id, ep.attachment, "attachment")
    for p in s.principals:
        ref(p.idp in idp_ids, p.id, p.idp, "idp")
    for idp in s.idps:
        if idp.segment is not None:
            ref(idp.segment in loci, idp.id, idp.segment, "segment")
    for t in s.trust_edges:
        ref(t.src in idp_ids, t.id, t.src, "idp")
        ref(t.dst in idp_ids, t.id, t.dst, "idp")
        for src_p, dst_p in t.mapping.items():
            ref(src_p in principal_ids, t.id, src_p, "principal")
            ref(dst_p in principal_ids, t.id, dst_p, "principal")
    for fw in s.firewall_rules:
        if fw.scope_kind == "folder":
            ref(node_kind.get(fw.scope_id) is m.NodeKind.FOLDER, fw.id, fw.scope, "folder scope")
        elif fw.scope_kind == "segment":
            ref(fw.scope_id in seg_ids, fw.id, fw.scope, "segment scope")
    for b in s.bindings:
        for perm in b.role:
            ref(
                perm.service in svc_ids or perm.service in (m.ANY, m.INTERNET),
                b.id,
                perm.service,
                "service",
            )
    for c in s.constraints:
        ref(
            node_kind.get(c.scope) in (m.NodeKind.ORGANIZATION, m.NodeKind.FOLDER),
            c.id,
            c.scope,
            "org/folder scope",
        )
    for p in s.perimeters:
        for f in p.members.folders:
            ref(node_kind.get(f) is m.NodeKind.FOLDER, p.id, f, "folder")
        for prj in p.members.projects:
            ref(node_kind.get(prj) is m.NodeKind.PROJECT, p.id, prj, "project")
        for rule in list(p.ingress) + list(p.egress):
            for t in rule.targets:
                if t.project not in (m.ANY,):
                    ref(node_kind.get(t.project) is m.NodeKind.PROJECT, rule.id, t.project, "project")
                if t.service not in (m.ANY, m.INTERNET):
                    ref(t.service in svc_ids, rule.id, t.service, "service")
    for a in s.assets:
        ref(a.resource in nodes, a.id, a.resource, "resource")
    return out


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def validate_scenario(s: Scenario) -> list[Violation]:
    """Structural invariant check; empty list iff the scenario is well formed.

    The parser's own checks of scopes, CIDR tokens and edge ends come first,
    then duplicate ids and references to nothing, found as the parser finds
    them, so a scenario built in code is held to the same rules.
    """
    ctx = _Ctx()
    for e in s.edges:
        _two_ends(ctx, e.id, e.ends)
    for fw in s.firewall_rules:
        _scope_shape(ctx, fw.id, fw.scope)
        _cidr_tokens(ctx, fw.id, fw.src + fw.dst)
    for predicate in (p for holder in (*s.endpoints, *s.attachments) for p in holder.policy):
        _cidr_tokens(ctx, predicate.id, predicate.cidrs)
    for rule in (r for perimeter in s.perimeters for r in perimeter.ingress + perimeter.egress):
        _cidr_tokens(ctx, rule.id, rule.networks)
    out = [Violation(issue.code, issue.subject, issue.message) for issue in ctx]
    out.extend(Violation(*problem) for problem in _integrity_problems(s))
    nodes = {n.id: n for n in s.nodes}

    orgs = [n for n in s.nodes if n.kind is m.NodeKind.ORGANIZATION]
    if len(orgs) != 1:
        out.append(
            Violation("ORG_COUNT", s.name, f"expected exactly one organization, found {len(orgs)}")
        )
    for n in s.nodes:
        if n.kind is m.NodeKind.ORGANIZATION:
            if n.parent is not None:
                out.append(Violation("ORG_PARENT", n.id, "organization must not have a parent"))
            continue
        if n.parent is None:
            out.append(Violation("NO_PARENT", n.id, f"{n.kind.value} has no parent"))
            continue
        parent = nodes.get(n.parent)
        if parent is None:
            continue  # an unknown parent is reported as UNKNOWN_REF above
        allowed = {
            m.NodeKind.FOLDER: (m.NodeKind.ORGANIZATION, m.NodeKind.FOLDER),
            m.NodeKind.PROJECT: (m.NodeKind.ORGANIZATION, m.NodeKind.FOLDER),
            m.NodeKind.RESOURCE: (m.NodeKind.PROJECT,),
        }[n.kind]
        if parent.kind not in allowed:
            out.append(
                Violation(
                    "BAD_PARENT_KIND",
                    n.id,
                    f"{n.kind.value} cannot be parented under {parent.kind.value} {parent.id!r}",
                )
            )
    for n in s.nodes:
        try:
            m.ancestors(n.id, nodes)
        except UnknownNodeError:
            continue  # the node naming the unknown parent is reported above
        except InvalidHierarchyError:
            out.append(Violation("PARENT_CYCLE", n.id, "hierarchy contains a parent cycle"))
            break

    nets_of: list[list[prefix.Interval]] = []
    for seg in s.segments:
        nets_of.append([])
        for c in seg.cidrs:
            net = prefix.network(c)
            if net is None:
                out.append(Violation("CIDR_BAD", seg.id, f"{c!r} is not a CIDR"))
            else:
                nets_of[-1].append(net)
    seg_nets = {seg.id: nets for seg, nets in zip(s.segments, nets_of)}
    routable = [i for i, seg in enumerate(s.segments) if seg.routability is m.Routability.ROUTABLE]
    for i, j in prefix.overlapping_pairs([nets_of[k] for k in routable]):
        a, b = s.segments[routable[i]], s.segments[routable[j]]
        out.append(Violation("CIDR_OVERLAP", a.id, f"routable segments {a.id!r} and {b.id!r} overlap"))
    for seg, nets in zip(s.segments, nets_of):
        if prefix.overlapping_pairs([[net] for net in nets]):
            out.append(Violation("CIDR_INTERNAL", seg.id, "segment reuses address space internally"))

    scope_priorities: dict[str, set[int]] = {}
    for fw in s.firewall_rules:
        seen = scope_priorities.setdefault(fw.scope, set())
        if fw.priority in seen:
            out.append(
                Violation("PRIORITY_DUP", fw.id, f"duplicate priority {fw.priority} in scope {fw.scope}")
            )
        seen.add(fw.priority)

    attach_count: dict[str, int] = {}
    for att in s.attachments:
        attach_count[att.service] = attach_count.get(att.service, 0) + 1
    for svc_id, count in sorted(attach_count.items()):
        if count > 1:
            out.append(Violation("ATTACH_DUP", svc_id, f"service has {count} attachments; at most one"))

    def host(thing: m.ServiceSpec | m.ConsumerEndpoint, code: str) -> prefix.Interval | None:
        """The host of ``thing``'s address; an address that is not ip or ip:port is reported."""
        if thing.address is None:
            return None
        parsed = prefix.host_port(thing.address)
        if parsed is None:
            out.append(Violation(code, thing.id, f"address {thing.address!r} is not ip or ip:port"))
            return None
        return parsed[0]

    for ep in s.endpoints:
        addr = host(ep, "ENDPOINT_ADDR")
        if addr is not None and ep.segment in seg_nets and not prefix.meets_any(addr, seg_nets[ep.segment]):
            out.append(
                Violation("ENDPOINT_ADDR", ep.id, f"address {ep.address} outside segment {ep.segment} CIDRs")
            )
        if ep.address is None and ep.fqdn is None:
            out.append(Violation("ENDPOINT_ADDR", ep.id, "endpoint needs an address or fqdn"))
    fqdns: dict[str, str] = {}
    for thing in list(s.endpoints) + list(s.services):
        if thing.fqdn is not None:
            if thing.fqdn in fqdns:
                out.append(
                    Violation("FQDN_DUP", thing.id, f"fqdn {thing.fqdn!r} already used by {fqdns[thing.fqdn]!r}")
                )
            fqdns[thing.fqdn] = thing.id

    for svc in s.services:
        if svc.layer is m.ServiceLayer.L7 and svc.fqdn is None:
            out.append(Violation("SERVICE_FQDN", svc.id, "L7 service must expose an fqdn"))
        addr = host(svc, "SERVICE_ADDR")
        if addr is not None and seg_nets.get(svc.segment) and not prefix.meets_any(addr, seg_nets[svc.segment]):
            out.append(Violation("SERVICE_ADDR", svc.id, f"address {svc.address} outside home segment CIDRs"))

    backend_segment: dict[str, str] = {}
    for svc in s.services:
        for b in svc.backends:
            prev = backend_segment.setdefault(b, svc.segment)
            if prev != svc.segment:
                out.append(
                    Violation("BACKEND_SPLIT", b, f"backend appears in segments {prev!r} and {svc.segment!r}")
                )

    for e in s.edges:
        if e.kind is m.EdgeKind.PEERING and e.direction is not m.EdgeDirection.BIDIRECTIONAL:
            out.append(Violation("EDGE_PEERING", e.id, "peering edges are bidirectional"))
        if e.kind is m.EdgeKind.NAT_GATEWAY:
            if m.INTERNET not in e.ends:
                out.append(Violation("EDGE_NAT", e.id, "nat-gateway must have an INTERNET end"))
            if e.direction is not m.EdgeDirection.OUTBOUND_ONLY:
                out.append(Violation("EDGE_NAT", e.id, "nat-gateway edges are outbound-only"))

    memberships: dict[str, frozenset[str]] = {}
    for p in s.perimeters:
        try:
            memberships[p.id] = m.resolve_members(p, nodes)
        except m.EmptyPerimeterError:
            out.append(Violation("EMPTY_PERIMETER", p.id, "member selector resolves to zero projects"))
        except (UnknownNodeError, InvalidHierarchyError):
            continue  # hierarchy problems reported above
    dp = [p for p in s.perimeters if m.Mechanism.DATA_PLANE_PERIMETER in p.mechanisms]
    for i, a in enumerate(dp):
        for b in dp[i + 1 :]:
            shared = memberships.get(a.id, frozenset()) & memberships.get(b.id, frozenset())
            if shared:
                out.append(
                    Violation(
                        "PERIM_OVERLAP",
                        a.id,
                        f"projects {sorted(shared)} are in data-plane perimeters {a.id!r} and {b.id!r}",
                    )
                )

    return out


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _drop_empty(d: dict) -> dict:
    return {k: v for k, v in d.items() if v not in (None, [], {}, ())}


def _write(t: _Type, entity: Any) -> dict:
    return _drop_empty({f.key: _write_field(f, getattr(entity, f.attr)) for f in t.fields})


def _write_field(f: _F, value: Any) -> Any:
    codec = f.codec
    if isinstance(codec, _Codec):
        return codec.write(value)
    if isinstance(codec, _One):
        return None if value is None else _write(codec.type, value)
    return [_write(codec.type, entry) for entry in value]


def serialize_scenario(s: Scenario) -> str:
    """Render a scenario back to its document form (parse-stable)."""
    doc: dict[str, Any] = {}
    for f in _SCENARIO.fields:
        value = getattr(s, f.attr)
        if f.elide and value == f.default:
            continue
        section, _, key = f.key.rpartition(".")
        (doc.setdefault(section, {}) if section else doc)[key] = _write_field(f, value)
    doc = _drop_empty({k: _drop_empty(v) if isinstance(v, dict) else v for k, v in doc.items()})
    return yaml.safe_dump(doc, sort_keys=False, default_flow_style=False, width=100)
