"""Scenario documents: parsing, structural validation, serialization.

A scenario is one YAML document with top-level sections ``hierarchy``,
``networks``, ``services``, ``identity``, ``policies``, ``perimeters`` and
``assets`` (plus ``name``/``description``/``chain_bound`` metadata). The
exact field keys are documented in the README and exercised by the built-in
templates, which are stored in this format and parsed by this parser.

Parsing collects every problem it finds instead of stopping at the first
one; scenario authors get the complete list in a single run.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Any, Iterator

import yaml

from . import model as m
from . import prefix
from .errors import InvalidHierarchyError, ScenarioParseError, UnknownNodeError

if TYPE_CHECKING:
    from .route import RoutePath, Unreachable


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

    def entity_count(self) -> int:
        return sum(
            len(getattr(self, f.name))
            for f in fields(self)
            if f.name
            not in ("name", "description", "chain_bound", "firewall_rules", "bindings", "constraints", "_index")
        )


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
        self.path_cache: dict[tuple[str, str], RoutePath | Unreachable] = {}
        self.route_trees: dict[tuple[str, bool], dict[str, m.ConnectivityEdge]] = {}
        self.credential_cache: dict[tuple[str, str, int], m.CredentialChain | None] = {}
        self.target_tags: dict[str, frozenset[str]] = {}
        self._networks: dict[str, prefix.Interval | None] = {}
        self._target_nets: dict[tuple[str, str | None], tuple[prefix.Interval, ...]] = {}
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

    def network(self, token: str) -> prefix.Interval | None:
        """A rule's CIDR token as an interval, parsed once per scenario."""
        try:
            return self._networks[token]
        except KeyError:
            net = self._networks[token] = prefix.network(token)
            return net

    def target_nets(
        self, svc: m.ServiceSpec, endpoint: m.ConsumerEndpoint | None
    ) -> tuple[prefix.Interval, ...]:
        """The endpoint's and the service's host addresses and the service segment's CIDRs."""
        key = (svc.id, endpoint.id if endpoint is not None else None)
        nets = self._target_nets.get(key)
        if nets is None:
            hosts = (endpoint.address if endpoint is not None else None, svc.address)
            points = (prefix.address(h.split(":", 1)[0]) for h in hosts if h is not None)
            nets = tuple(p for p in points if p is not None) + self.segment_nets.get(svc.segment, ())
            self._target_nets[key] = nets
        return nets


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
# Parsing
# ---------------------------------------------------------------------------


class _Ctx:
    def __init__(self) -> None:
        self.issues: list[ParseIssue] = []

    def err(self, code: str, subject: str, message: str, location: str | None = None) -> None:
        self.issues.append(ParseIssue(code, subject, message, location))


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
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _str_map(ctx: _Ctx, value: Any, subject: str) -> dict[str, str]:
    if value is None:
        return {}
    if not isinstance(value, dict):
        ctx.err("BAD_VALUE", subject, "expected a mapping of scalars")
        return {}
    return {str(k): _scalar_str(v) for k, v in value.items()}


def _enum(ctx: _Ctx, enum_cls, value: Any, subject: str, default=None):
    if value is None and default is not None:
        return default
    try:
        return enum_cls(value)
    except ValueError:
        choices = ", ".join(e.value for e in enum_cls)
        ctx.err("BAD_VALUE", subject, f"{value!r} is not one of: {choices}")
        return default if default is not None else next(iter(enum_cls))


def _tags(ctx: _Ctx, value: Any, subject: str) -> frozenset[str]:
    out = set()
    for t in _expect_list(ctx, value, subject):
        t = _scalar_str(t)
        if ":" not in t:
            ctx.err("BAD_VALUE", subject, f"tag {t!r} is not key:value")
            continue
        out.add(t)
    return frozenset(out)


def _net_tokens(ctx: _Ctx, value: Any, subject: str, default: tuple[str, ...] = ()) -> tuple[str, ...]:
    """CIDRs plus the ONPREM/INTERNET/* tokens used in match positions."""
    items = _expect_list(ctx, value, subject)
    if not items:
        return default
    out = []
    for tok in items:
        tok = str(tok)
        if tok in (m.ONPREM, m.INTERNET, m.ANY) or prefix.network(tok) is not None:
            out.append(tok)
        else:
            ctx.err("BAD_VALUE", subject, f"{tok!r} is not a CIDR or ONPREM/INTERNET/*")
    return tuple(out)


def _address(ctx: _Ctx, value: Any, subject: str) -> str | None:
    """An ``ip`` or ``ip:port`` address."""
    if value is None:
        return None
    text = str(value)
    if prefix.host_port(text) is None:
        ctx.err("BAD_VALUE", subject, f"address {text!r} is not ip or ip:port (port 0-65535)")
    return text


def _str_list(ctx: _Ctx, value: Any, subject: str) -> tuple[str, ...]:
    return tuple(str(v) for v in _expect_list(ctx, value, subject))


def _ports(ctx: _Ctx, value: Any, subject: str) -> tuple[tuple[int, int], ...]:
    out = []
    for p in _expect_list(ctx, value, subject):
        if isinstance(p, int):
            out.append((p, p))
        elif isinstance(p, dict) and set(p) <= {"from", "to"}:
            out.append((int(p.get("from", 0)), int(p.get("to", 65535))))
        else:
            ctx.err("BAD_VALUE", subject, f"bad port entry {p!r}")
    return tuple(out)


def _predicates(ctx: _Ctx, value: Any, subject: str) -> tuple[m.AccessPredicate, ...]:
    out = []
    for i, raw in enumerate(_expect_list(ctx, value, subject)):
        sub = f"{subject}[{i}]"
        d = _expect_map(ctx, raw, sub, {"id", "action", "identities", "cidrs", "methods"})
        out.append(
            m.AccessPredicate(
                id=str(d.get("id", f"{subject}-{i}")),
                action=_enum(ctx, m.RuleAction, d.get("action"), sub, m.RuleAction.ALLOW),
                identities=_str_list(ctx, d.get("identities"), sub),
                cidrs=_net_tokens(ctx, d.get("cidrs"), sub),
                methods=_str_list(ctx, d.get("methods"), sub),
            )
        )
    return tuple(out)


def _perimeter_rules(ctx: _Ctx, value: Any, subject: str) -> tuple[m.PerimeterRule, ...]:
    out = []
    for i, raw in enumerate(_expect_list(ctx, value, subject)):
        sub = f"{subject}[{i}]"
        d = _expect_map(ctx, raw, sub, {"id", "identities", "device", "networks", "targets"})
        targets = []
        for j, t in enumerate(_expect_list(ctx, d.get("targets"), sub)):
            td = _expect_map(ctx, t, f"{sub}.targets[{j}]", {"project", "service", "method"})
            targets.append(
                m.PerimeterTarget(
                    project=str(td.get("project", m.ANY)),
                    service=str(td.get("service", m.ANY)),
                    method=str(td.get("method", m.ANY)),
                )
            )
        out.append(
            m.PerimeterRule(
                id=str(d.get("id", f"{subject}-{i}")),
                identities=_str_list(ctx, d.get("identities"), sub),
                device=_str_map(ctx, d.get("device"), sub),
                networks=_net_tokens(ctx, d.get("networks"), sub),
                targets=tuple(targets),
            )
        )
    return tuple(out)


_SECTIONS = {
    "name",
    "description",
    "chain_bound",
    "hierarchy",
    "networks",
    "services",
    "identity",
    "policies",
    "perimeters",
    "assets",
}


def parse_scenario(document: str) -> Scenario:
    """Parse a scenario document, raising ScenarioParseError with every issue found."""
    ctx = _Ctx()
    try:
        raw = yaml.safe_load(document)
    except yaml.YAMLError as e:
        loc = None
        mark = getattr(e, "problem_mark", None)
        if mark is not None:
            loc = f"line {mark.line + 1}, column {mark.column + 1}"
        ctx.err("SYNTAX", "document", str(getattr(e, "problem", None) or e), loc)
        raise ScenarioParseError(ctx.issues)
    if not isinstance(raw, dict):
        ctx.err("SYNTAX", "document", "top level must be a mapping")
        raise ScenarioParseError(ctx.issues)
    for key in raw:
        if key not in _SECTIONS:
            ctx.err("BAD_VALUE", "document", f"unknown section {key!r}")

    nodes = _parse_hierarchy(ctx, raw.get("hierarchy"))
    segments, edges = _parse_networks(ctx, raw.get("networks"))
    services, attachments, endpoints = _parse_services(ctx, raw.get("services"))
    idps, principals, trust_edges = _parse_identity(ctx, raw.get("identity"))
    firewall_rules, bindings, constraints = _parse_policies(ctx, raw.get("policies"))
    perimeters = _parse_perimeters(ctx, raw.get("perimeters"))
    assets = _parse_assets(ctx, raw.get("assets"))

    s = Scenario(
        name=str(raw.get("name", "unnamed")),
        description=str(raw.get("description", "")).strip(),
        nodes=tuple(nodes),
        segments=tuple(segments),
        edges=tuple(edges),
        services=tuple(services),
        attachments=tuple(attachments),
        endpoints=tuple(endpoints),
        idps=tuple(idps),
        principals=tuple(principals),
        trust_edges=tuple(trust_edges),
        firewall_rules=tuple(firewall_rules),
        bindings=tuple(bindings),
        constraints=tuple(constraints),
        perimeters=tuple(perimeters),
        assets=tuple(assets),
        chain_bound=int(raw.get("chain_bound", 4)),
    )
    _check_duplicates(ctx, s)
    _check_references(ctx, s)
    if ctx.issues:
        raise ScenarioParseError(ctx.issues)
    return s


def _parse_hierarchy(ctx: _Ctx, raw: Any) -> list[m.ResourceNode]:
    out = []
    for i, entry in enumerate(_expect_list(ctx, raw, "hierarchy")):
        sub = f"hierarchy[{i}]"
        d = _expect_map(ctx, entry, sub, {"id", "kind", "parent", "tags", "labels"})
        if "id" not in d:
            ctx.err("BAD_VALUE", sub, "missing id")
            continue
        out.append(
            m.ResourceNode(
                id=str(d["id"]),
                kind=_enum(ctx, m.NodeKind, d.get("kind"), sub, m.NodeKind.PROJECT),
                parent=str(d["parent"]) if d.get("parent") is not None else None,
                tags=_tags(ctx, d.get("tags"), sub),
                labels=_str_map(ctx, d.get("labels"), sub),
            )
        )
    return out


def _parse_networks(ctx: _Ctx, raw: Any) -> tuple[list, list]:
    d = _expect_map(ctx, raw, "networks", {"segments", "edges"})
    segments = []
    for i, entry in enumerate(_expect_list(ctx, d.get("segments"), "networks.segments")):
        sub = f"networks.segments[{i}]"
        sd = _expect_map(
            ctx, entry, sub, {"id", "project", "routability", "cidrs", "subnets", "trust_mode"}
        )
        if "id" not in sd:
            ctx.err("BAD_VALUE", sub, "missing id")
            continue
        cidrs = []
        for c in _expect_list(ctx, sd.get("cidrs"), sub):
            c = str(c)
            if prefix.network(c) is not None:
                cidrs.append(c)
            else:
                ctx.err("BAD_VALUE", sub, f"bad CIDR {c!r}")
        subnets = _str_map(ctx, sd.get("subnets"), sub)
        for name, c in subnets.items():
            if prefix.network(c) is None:
                ctx.err("BAD_VALUE", sub, f"bad subnet CIDR {c!r} for {name!r}")
        segments.append(
            m.NetworkSegment(
                id=str(sd["id"]),
                project=str(sd.get("project", "")),
                routability=_enum(
                    ctx, m.Routability, sd.get("routability"), sub, m.Routability.ROUTABLE
                ),
                cidrs=tuple(cidrs),
                subnets=subnets,
                trust_mode=_enum(ctx, m.TrustMode, sd.get("trust_mode"), sub, m.TrustMode.TRUSTING),
            )
        )
    edges = []
    for i, entry in enumerate(_expect_list(ctx, d.get("edges"), "networks.edges")):
        sub = f"networks.edges[{i}]"
        ed = _expect_map(ctx, entry, sub, {"id", "kind", "ends", "direction", "gateway_rules"})
        if "id" not in ed:
            ctx.err("BAD_VALUE", sub, "missing id")
            continue
        ends = _str_list(ctx, ed.get("ends"), sub)
        if len(ends) != 2:
            ctx.err("BAD_VALUE", sub, f"ends must name exactly two loci, got {len(ends)}")
            ends = (ends + ("?", "?"))[:2]
        rules = []
        for j, r in enumerate(_expect_list(ctx, ed.get("gateway_rules"), sub)):
            rsub = f"{sub}.gateway_rules[{j}]"
            rd = _expect_map(
                ctx, r, rsub, {"id", "from", "to", "action", "new_connection", "protocol", "content_class"}
            )
            rules.append(
                m.GatewayRule(
                    id=str(rd.get("id", f"{ed['id']}-r{j}")),
                    src_zone=str(rd.get("from", m.ANY)),
                    dst_zone=str(rd.get("to", m.ANY)),
                    action=_enum(ctx, m.RuleAction, rd.get("action"), rsub, m.RuleAction.DENY),
                    new_connection=bool(rd.get("new_connection", True)),
                    protocol=str(rd.get("protocol", "tcp")),
                    content_class=(
                        _scalar_str(rd["content_class"]) if rd.get("content_class") is not None else None
                    ),
                )
            )
        kind = _enum(ctx, m.EdgeKind, ed.get("kind"), sub, m.EdgeKind.PEERING)
        default_dir = (
            m.EdgeDirection.OUTBOUND_ONLY
            if kind is m.EdgeKind.NAT_GATEWAY
            else m.EdgeDirection.BIDIRECTIONAL
        )
        edges.append(
            m.ConnectivityEdge(
                id=str(ed["id"]),
                kind=kind,
                ends=tuple(ends),
                direction=_enum(ctx, m.EdgeDirection, ed.get("direction"), sub, default_dir),
                gateway_rules=tuple(rules),
            )
        )
    return segments, edges


def _parse_services(ctx: _Ctx, raw: Any) -> tuple[list, list, list]:
    d = _expect_map(ctx, raw, "services", {"specs", "attachments", "endpoints"})
    specs = []
    for i, entry in enumerate(_expect_list(ctx, d.get("specs"), "services.specs")):
        sub = f"services.specs[{i}]"
        sd = _expect_map(
            ctx,
            entry,
            sub,
            {
                "id", "project", "segment", "layer", "compute", "auth_mode", "address",
                "fqdn", "backends", "run_as", "workload", "idp", "reads", "writes", "depends_on",
            },
        )
        if "id" not in sd:
            ctx.err("BAD_VALUE", sub, "missing id")
            continue
        specs.append(
            m.ServiceSpec(
                id=str(sd["id"]),
                project=str(sd.get("project", "")),
                segment=str(sd.get("segment", "")),
                layer=_enum(ctx, m.ServiceLayer, sd.get("layer"), sub, m.ServiceLayer.L4),
                compute=_enum(ctx, m.ComputeKind, sd.get("compute"), sub, m.ComputeKind.VM),
                auth_mode=_enum(
                    ctx, m.AuthMode, sd.get("auth_mode"), sub, m.AuthMode.PERIMETER_TRUSTING
                ),
                address=_address(ctx, sd.get("address"), sub),
                fqdn=str(sd["fqdn"]) if sd.get("fqdn") is not None else None,
                backends=_str_list(ctx, sd.get("backends"), sub),
                run_as=_str_list(ctx, sd.get("run_as"), sub),
                workload=str(sd["workload"]) if sd.get("workload") is not None else None,
                idp=str(sd["idp"]) if sd.get("idp") is not None else None,
                reads=_str_list(ctx, sd.get("reads"), sub),
                writes=_str_list(ctx, sd.get("writes"), sub),
                depends_on=_str_list(ctx, sd.get("depends_on"), sub),
            )
        )
    attachments = []
    for i, entry in enumerate(_expect_list(ctx, d.get("attachments"), "services.attachments")):
        sub = f"services.attachments[{i}]"
        ad = _expect_map(ctx, entry, sub, {"id", "service", "policy"})
        if "id" not in ad:
            ctx.err("BAD_VALUE", sub, "missing id")
            continue
        attachments.append(
            m.ServiceAttachment(
                id=str(ad["id"]),
                service=str(ad.get("service", "")),
                policy=_predicates(ctx, ad.get("policy"), f"{sub}.policy"),
            )
        )
    endpoints = []
    for i, entry in enumerate(_expect_list(ctx, d.get("endpoints"), "services.endpoints")):
        sub = f"services.endpoints[{i}]"
        ed = _expect_map(ctx, entry, sub, {"id", "segment", "attachment", "address", "fqdn", "policy"})
        if "id" not in ed:
            ctx.err("BAD_VALUE", sub, "missing id")
            continue
        endpoints.append(
            m.ConsumerEndpoint(
                id=str(ed["id"]),
                segment=str(ed.get("segment", "")),
                attachment=str(ed.get("attachment", "")),
                address=_address(ctx, ed.get("address"), sub),
                fqdn=str(ed["fqdn"]) if ed.get("fqdn") is not None else None,
                policy=_predicates(ctx, ed.get("policy"), f"{sub}.policy"),
            )
        )
    return specs, attachments, endpoints


def _parse_identity(ctx: _Ctx, raw: Any) -> tuple[list, list, list]:
    d = _expect_map(ctx, raw, "identity", {"idps", "principals", "trust_edges"})
    idps = []
    for i, entry in enumerate(_expect_list(ctx, d.get("idps"), "identity.idps")):
        sub = f"identity.idps[{i}]"
        idd = _expect_map(ctx, entry, sub, {"id", "kind", "segment"})
        if "id" not in idd:
            ctx.err("BAD_VALUE", sub, "missing id")
            continue
        idps.append(
            m.IdentityProvider(
                id=str(idd["id"]),
                kind=_enum(ctx, m.IdpKind, idd.get("kind"), sub, m.IdpKind.CLOUD_NATIVE),
                segment=str(idd["segment"]) if idd.get("segment") is not None else None,
            )
        )
    principals = []
    for i, entry in enumerate(_expect_list(ctx, d.get("principals"), "identity.principals")):
        sub = f"identity.principals[{i}]"
        pd = _expect_map(ctx, entry, sub, {"id", "kind", "idp", "groups", "device"})
        if "id" not in pd:
            ctx.err("BAD_VALUE", sub, "missing id")
            continue
        principals.append(
            m.Principal(
                id=str(pd["id"]),
                kind=_enum(ctx, m.PrincipalKind, pd.get("kind"), sub, m.PrincipalKind.SERVICE_ACCOUNT),
                idp=str(pd.get("idp", "")),
                groups=_str_list(ctx, pd.get("groups"), sub),
                device=_str_map(ctx, pd.get("device"), sub),
            )
        )
    trust_edges = []
    for i, entry in enumerate(_expect_list(ctx, d.get("trust_edges"), "identity.trust_edges")):
        sub = f"identity.trust_edges[{i}]"
        td = _expect_map(ctx, entry, sub, {"id", "from", "to", "kind", "mapping"})
        if "id" not in td:
            ctx.err("BAD_VALUE", sub, "missing id")
            continue
        trust_edges.append(
            m.TrustEdge(
                id=str(td["id"]),
                src=str(td.get("from", "")),
                dst=str(td.get("to", "")),
                kind=_enum(ctx, m.TrustKind, td.get("kind"), sub, m.TrustKind.ONE_WAY_TRUST),
                mapping=_str_map(ctx, td.get("mapping"), sub),
            )
        )
    return idps, principals, trust_edges


def _parse_policies(ctx: _Ctx, raw: Any) -> tuple[list, list, list]:
    d = _expect_map(ctx, raw, "policies", {"firewall", "rbac", "org_constraints"})
    firewall = []
    for i, entry in enumerate(_expect_list(ctx, d.get("firewall"), "policies.firewall")):
        sub = f"policies.firewall[{i}]"
        fd = _expect_map(
            ctx, entry, sub, {"id", "scope", "priority", "action", "src", "dst", "protocol", "ports"}
        )
        if "id" not in fd:
            ctx.err("BAD_VALUE", sub, "missing id")
            continue
        scope = str(fd.get("scope", m.ORG_SCOPE))
        if scope != m.ORG_SCOPE and scope.split(":", 1)[0] not in ("folder", "segment"):
            ctx.err("BAD_VALUE", sub, f"scope {scope!r} must be organization, folder:<id> or segment:<id>")
        firewall.append(
            m.FirewallRule(
                id=str(fd["id"]),
                scope=scope,
                priority=int(fd.get("priority", 1000)),
                action=_enum(ctx, m.RuleAction, fd.get("action"), sub, m.RuleAction.DENY),
                src=_net_tokens(ctx, fd.get("src"), sub, default=(m.ANY,)),
                dst=_net_tokens(ctx, fd.get("dst"), sub, default=(m.ANY,)),
                protocol=str(fd.get("protocol", "any")),
                ports=_ports(ctx, fd.get("ports"), sub),
            )
        )
    bindings = []
    for i, entry in enumerate(_expect_list(ctx, d.get("rbac"), "policies.rbac")):
        sub = f"policies.rbac[{i}]"
        bd = _expect_map(ctx, entry, sub, {"id", "principal", "role", "condition"})
        if "id" not in bd:
            ctx.err("BAD_VALUE", sub, "missing id")
            continue
        role = []
        for j, p in enumerate(_expect_list(ctx, bd.get("role"), sub)):
            pd = _expect_map(ctx, p, f"{sub}.role[{j}]", {"service", "method"})
            role.append(
                m.Permission(service=str(pd.get("service", m.ANY)), method=str(pd.get("method", m.ANY)))
            )
        condition = None
        if bd.get("condition") is not None:
            cd = _expect_map(ctx, bd["condition"], f"{sub}.condition", {"key", "value"})
            condition = m.TagCondition(key=str(cd.get("key", "")), value=_scalar_str(cd.get("value", "")))
        bindings.append(
            m.RBACBinding(
                id=str(bd["id"]),
                principal=str(bd.get("principal", "")),
                role=tuple(role),
                condition=condition,
            )
        )
    constraints = []
    for i, entry in enumerate(_expect_list(ctx, d.get("org_constraints"), "policies.org_constraints")):
        sub = f"policies.org_constraints[{i}]"
        cd = _expect_map(ctx, entry, sub, {"id", "kind", "scope", "exception_tag"})
        if "id" not in cd:
            ctx.err("BAD_VALUE", sub, "missing id")
            continue
        constraints.append(
            m.OrgConstraint(
                id=str(cd["id"]),
                kind=_enum(ctx, m.ConstraintKind, cd.get("kind"), sub, m.ConstraintKind.NO_PUBLIC_IP),
                scope=str(cd.get("scope", "")),
                exception_tag=(
                    _scalar_str(cd["exception_tag"]) if cd.get("exception_tag") is not None else None
                ),
            )
        )
    return firewall, bindings, constraints


def _parse_perimeters(ctx: _Ctx, raw: Any) -> list[m.AbstractPerimeter]:
    out = []
    for i, entry in enumerate(_expect_list(ctx, raw, "perimeters")):
        sub = f"perimeters[{i}]"
        pd = _expect_map(ctx, entry, sub, {"id", "name", "members", "ingress", "egress", "mechanisms"})
        if "id" not in pd:
            ctx.err("BAD_VALUE", sub, "missing id")
            continue
        md = _expect_map(ctx, pd.get("members"), f"{sub}.members", {"folders", "projects", "tags"})
        members = m.MemberSelector(
            folders=_str_list(ctx, md.get("folders"), sub),
            projects=_str_list(ctx, md.get("projects"), sub),
            tags=tuple(_scalar_str(t) for t in _expect_list(ctx, md.get("tags"), sub)),
        )
        mechanisms = frozenset(
            _enum(ctx, m.Mechanism, v, sub, m.Mechanism.NETWORK_SEGMENTATION)
            for v in _expect_list(ctx, pd.get("mechanisms"), sub)
        )
        out.append(
            m.AbstractPerimeter(
                id=str(pd["id"]),
                name=str(pd.get("name", pd["id"])),
                members=members,
                ingress=_perimeter_rules(ctx, pd.get("ingress"), f"{sub}.ingress"),
                egress=_perimeter_rules(ctx, pd.get("egress"), f"{sub}.egress"),
                mechanisms=mechanisms,
            )
        )
    return out


def _parse_assets(ctx: _Ctx, raw: Any) -> list[m.DataAsset]:
    out = []
    for i, entry in enumerate(_expect_list(ctx, raw, "assets")):
        sub = f"assets[{i}]"
        ad = _expect_map(ctx, entry, sub, {"id", "resource", "tags"})
        if "id" not in ad:
            ctx.err("BAD_VALUE", sub, "missing id")
            continue
        out.append(
            m.DataAsset(
                id=str(ad["id"]),
                resource=str(ad.get("resource", "")),
                tags=_tags(ctx, ad.get("tags"), sub),
            )
        )
    return out


def _check_duplicates(ctx: _Ctx, s: Scenario) -> None:
    def dupes(items: Iterator[str], what: str) -> None:
        seen: set[str] = set()
        for i in items:
            if i in seen:
                ctx.err("DUP_ID", i, f"duplicate {what} id")
            seen.add(i)

    dupes((n.id for n in s.nodes), "node")
    dupes((x.id for x in s.segments), "segment")
    dupes((x.id for x in s.edges), "edge")
    # services and endpoints share the flow-target namespace
    dupes((x.id for x in list(s.services) + list(s.endpoints)), "service/endpoint")
    dupes((x.id for x in s.attachments), "attachment")
    dupes((x.id for x in s.idps), "idp")
    dupes((x.id for x in s.principals), "principal")
    dupes((x.id for x in s.trust_edges), "trust edge")
    dupes((x.id for x in s.firewall_rules), "firewall rule")
    dupes((x.id for x in s.bindings), "binding")
    dupes((x.id for x in s.constraints), "org constraint")
    dupes((x.id for x in s.perimeters), "perimeter")
    dupes((x.id for x in s.assets), "asset")


def _check_references(ctx: _Ctx, s: Scenario) -> None:
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
            ctx.err("UNKNOWN_REF", subject, f"unknown {what} {target!r}")

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


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def validate_scenario(s: Scenario) -> list[Violation]:
    """Structural invariant check; empty list iff the scenario is well formed."""
    out: list[Violation] = []
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
            out.append(Violation("UNKNOWN_REF", n.id, f"unknown parent node {n.parent!r}"))
            continue
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


def _predicate_doc(p: m.AccessPredicate) -> dict:
    return _drop_empty(
        {
            "id": p.id,
            "action": p.action.value,
            "identities": list(p.identities),
            "cidrs": list(p.cidrs),
            "methods": list(p.methods),
        }
    )


def _perimeter_rule_doc(r: m.PerimeterRule) -> dict:
    return _drop_empty(
        {
            "id": r.id,
            "identities": list(r.identities),
            "device": dict(r.device),
            "networks": list(r.networks),
            "targets": [
                _drop_empty({"project": t.project, "service": t.service, "method": t.method})
                for t in r.targets
            ],
        }
    )


def serialize_scenario(s: Scenario) -> str:
    """Render a scenario back to its document form (parse-stable)."""
    doc: dict[str, Any] = {"name": s.name}
    if s.description:
        doc["description"] = s.description
    if s.chain_bound != 4:
        doc["chain_bound"] = s.chain_bound
    doc["hierarchy"] = [
        _drop_empty(
            {
                "id": n.id,
                "kind": n.kind.value,
                "parent": n.parent,
                "tags": sorted(n.tags),
                "labels": dict(n.labels),
            }
        )
        for n in s.nodes
    ]
    doc["networks"] = _drop_empty(
        {
            "segments": [
                _drop_empty(
                    {
                        "id": x.id,
                        "project": x.project,
                        "routability": x.routability.value,
                        "cidrs": list(x.cidrs),
                        "subnets": dict(x.subnets),
                        "trust_mode": x.trust_mode.value,
                    }
                )
                for x in s.segments
            ],
            "edges": [
                _drop_empty(
                    {
                        "id": x.id,
                        "kind": x.kind.value,
                        "ends": list(x.ends),
                        "direction": x.direction.value,
                        "gateway_rules": [
                            _drop_empty(
                                {
                                    "id": r.id,
                                    "from": r.src_zone,
                                    "to": r.dst_zone,
                                    "action": r.action.value,
                                    "new_connection": r.new_connection,
                                    "protocol": r.protocol,
                                    "content_class": r.content_class,
                                }
                            )
                            for r in x.gateway_rules
                        ],
                    }
                )
                for x in s.edges
            ],
        }
    )
    doc["services"] = _drop_empty(
        {
            "specs": [
                _drop_empty(
                    {
                        "id": x.id,
                        "project": x.project,
                        "segment": x.segment,
                        "layer": x.layer.value,
                        "compute": x.compute.value,
                        "auth_mode": x.auth_mode.value,
                        "address": x.address,
                        "fqdn": x.fqdn,
                        "backends": list(x.backends),
                        "run_as": list(x.run_as),
                        "workload": x.workload,
                        "idp": x.idp,
                        "reads": list(x.reads),
                        "writes": list(x.writes),
                        "depends_on": list(x.depends_on),
                    }
                )
                for x in s.services
            ],
            "attachments": [
                _drop_empty(
                    {"id": x.id, "service": x.service, "policy": [_predicate_doc(p) for p in x.policy]}
                )
                for x in s.attachments
            ],
            "endpoints": [
                _drop_empty(
                    {
                        "id": x.id,
                        "segment": x.segment,
                        "attachment": x.attachment,
                        "address": x.address,
                        "fqdn": x.fqdn,
                        "policy": [_predicate_doc(p) for p in x.policy],
                    }
                )
                for x in s.endpoints
            ],
        }
    )
    doc["identity"] = _drop_empty(
        {
            "idps": [
                _drop_empty({"id": x.id, "kind": x.kind.value, "segment": x.segment}) for x in s.idps
            ],
            "principals": [
                _drop_empty(
                    {
                        "id": x.id,
                        "kind": x.kind.value,
                        "idp": x.idp,
                        "groups": list(x.groups),
                        "device": dict(x.device),
                    }
                )
                for x in s.principals
            ],
            "trust_edges": [
                _drop_empty(
                    {
                        "id": x.id,
                        "from": x.src,
                        "to": x.dst,
                        "kind": x.kind.value,
                        "mapping": dict(x.mapping),
                    }
                )
                for x in s.trust_edges
            ],
        }
    )
    doc["policies"] = _drop_empty(
        {
            "firewall": [
                _drop_empty(
                    {
                        "id": x.id,
                        "scope": x.scope,
                        "priority": x.priority,
                        "action": x.action.value,
                        "src": list(x.src),
                        "dst": list(x.dst),
                        "protocol": x.protocol,
                        "ports": [{"from": lo, "to": hi} for lo, hi in x.ports],
                    }
                )
                for x in s.firewall_rules
            ],
            "rbac": [
                _drop_empty(
                    {
                        "id": x.id,
                        "principal": x.principal,
                        "role": [{"service": p.service, "method": p.method} for p in x.role],
                        "condition": (
                            {"key": x.condition.key, "value": x.condition.value} if x.condition else None
                        ),
                    }
                )
                for x in s.bindings
            ],
            "org_constraints": [
                _drop_empty(
                    {
                        "id": x.id,
                        "kind": x.kind.value,
                        "scope": x.scope,
                        "exception_tag": x.exception_tag,
                    }
                )
                for x in s.constraints
            ],
        }
    )
    doc["perimeters"] = [
        _drop_empty(
            {
                "id": x.id,
                "name": x.name,
                "members": _drop_empty(
                    {
                        "folders": list(x.members.folders),
                        "projects": list(x.members.projects),
                        "tags": list(x.members.tags),
                    }
                ),
                "mechanisms": sorted(mech.value for mech in x.mechanisms),
                "ingress": [_perimeter_rule_doc(r) for r in x.ingress],
                "egress": [_perimeter_rule_doc(r) for r in x.egress],
            }
        )
        for x in s.perimeters
    ]
    doc["assets"] = [
        _drop_empty({"id": x.id, "resource": x.resource, "tags": sorted(x.tags)}) for x in s.assets
    ]
    doc = {k: v for k, v in doc.items() if v not in ([], {}, None)}
    return yaml.safe_dump(doc, sort_keys=False, default_flow_style=False, width=100)
