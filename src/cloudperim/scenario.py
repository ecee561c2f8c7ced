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

import re
import weakref
from dataclasses import dataclass, field
from functools import partial
from itertools import takewhile
from operator import is_, truth
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping, NamedTuple, Sequence

import yaml

from . import model as m
from . import prefix
from .errors import CloudPerimError, InvalidHierarchyError, InvalidScenarioError, ScenarioParseError

if TYPE_CHECKING:
    from .engine import NetworkLeg


# (the locus a hop leaves, the id and kind of the edge it crosses)
LastHop = tuple[str, str, m.EdgeKind]


@m.value_type
class Violation:
    """One problem with a scenario, found by the parser or by validation; a
    syntax error names its ``location`` in the document."""

    code: str                 # SYNTAX | DUP_ID | UNKNOWN_REF | BAD_VALUE | ...
    subject: str
    message: str
    location: str | None = None

    def __str__(self) -> str:
        loc = f" ({self.location})" if self.location else ""
        return f"{self.code}: {self.subject}: {self.message}{loc}"


ParseIssue = Violation  # the name the parser's issues go by: the same type


@m.value_type
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
    # the violations the index was refused for, once it has been
    _violations: tuple[Violation, ...] | None = field(
        default=None, init=False, compare=False, repr=False
    )

    def index(self) -> "ScenarioIndex":
        """The scenario's index. A scenario with violations is refused with
        ``InvalidScenarioError``; validation runs once per scenario."""
        if self._index is None:
            if self._violations is None:
                try:
                    object.__setattr__(self, "_index", ScenarioIndex(self))
                except InvalidScenarioError as e:
                    object.__setattr__(self, "_violations", e.violations)
                else:  # a base is read through its index, so it is entered once that is stored
                    for f in _ENTITY_LISTS:  # a loop: a comprehension here would make ``self`` a cell in every call
                        if x := getattr(self, f):
                            _holders[id(x)] = self
            if self._violations is not None:
                raise InvalidScenarioError(self._violations)
        return self._index


class ScenarioIndex:
    """Facts derived once per valid scenario, and the memos of queries over it.

    Building it is the one gate for broken scenarios. A scenario holding a
    text that is not a ``str`` is refused first, before anything hashes, sorts
    or splits it. The facts validation reads come next: the id maps, each
    node's ancestor chain, each perimeter's members and each segment's CIDR
    intervals, with the errors of hierarchy walks kept as values. A scenario
    with any violation is refused with ``InvalidScenarioError`` before
    anything sorts or joins on them, so every query reads plain values.
    Scenarios are frozen, so neither the facts nor the memos can go stale.

    A version made with ``dataclasses.replace`` shares every field it does not
    replace, so it derives again only what its edit touched, on a base
    (``_Delta``): of the live scenarios that last built clean on one of its
    entity lists, the one that shares the most top-level fields with it. A
    scenario owns its index, which holds no scenario, so a version is freed,
    and is a base no longer, once nothing holds its scenario. Each fact and
    each check family of validation is declared once, with the top-level
    fields it reads (``_CHECKED_FACTS``, ``_FACTS``, ``_CHECKS``; ``_READS``
    gathers them, and the text check of each entity list). A fact whose fields
    are all the base's objects is taken from it as it is, and such a check is
    skipped, since it found nothing there. Within a list that changed, an
    entity that is the same object as one of the base's is held (``_Delta``):
    the text walk, and each family that checks one entity at a time while
    every other field it reads is held, check only the entities not held
    (another document parsed has no base, and is checked whole). Firewall
    priorities are checked, and the rules by scope derived again, only in the
    scopes that gained or lost a rule; a perimeter keeps its members while the
    hierarchy is the same, and the routing graph is kept while what it reads
    of the edges and segments is equal. The query memos (``QUERY_MEMOS``)
    always start empty. Only ``analysis.diff_decisions``, which holds both
    versions, fills the later one's memos from the earlier one's, with
    ``engine.hand_on``: ``engine._MEMO_READS`` names the fields each memo's
    entries read.
    """

    # the memos of queries over the scenario, each empty in a new index
    QUERY_MEMOS = ("route_trees", "credential_chains", "target_tags", "legs", "answers", "principal_classes")

    nodes: dict[str, m.ResourceNode]
    segments: dict[str, m.NetworkSegment]
    edges: dict[str, m.ConnectivityEdge]
    services: dict[str, m.ServiceSpec]
    attachments: dict[str, m.ServiceAttachment]
    endpoints: dict[str, m.ConsumerEndpoint]
    idps: dict[str, m.IdentityProvider]
    principals: dict[str, m.Principal]
    assets: dict[str, m.DataAsset]
    perimeters: dict[str, m.AbstractPerimeter]
    # node id -> its root-first chain (from the organization root down to
    # the node), or the error ``m.ancestors`` raises for it
    chains: dict[str, tuple[str, ...] | CloudPerimError]
    # per perimeter in scenario order, its members or the error resolving them raised
    perimeter_members: tuple[frozenset[str] | CloudPerimError, ...]
    # per segment in scenario order, each CIDR's interval or None; per
    # segment id, its intervals, and those of its requests: a request that
    # names no source address carries the segment's canonical address
    cidr_nets: tuple[tuple[prefix.Interval | None, ...], ...]
    segment_nets: dict[str, tuple[prefix.Interval, ...]]
    source_nets: dict[str, tuple[prefix.Interval, ...]]
    # derived once the scenario is valid
    attachment_for_service: dict[str, m.ServiceAttachment]
    endpoints_for_attachment: dict[str, list[m.ConsumerEndpoint]]
    # firewall rules per scope in evaluation order: ascending priority, which
    # is unique in a scope of a valid scenario (PRIORITY_DUP); the scopes are
    # in no order that an edit keeps
    firewall_rules_by_scope: dict[str, tuple[m.FirewallRule, ...]]
    # bindings with a permission naming the service, in scenario order
    bindings_for_service: dict[str, list[m.RBACBinding]]
    # what principal classes read: the identity tokens that bindings,
    # predicates and perimeter rules name, and the device keys of the rules
    policy_identities: frozenset[str]
    device_keys: tuple[str, ...]
    non_routable: frozenset[str]
    # the routing graph, which holds no edge, so no gateway rule (see _locus_adjacency)
    adjacency: dict[str, tuple[tuple[str, LastHop], ...]]
    trust_edges: dict[str, m.TrustEdge]
    # idp -> the (edge, next idp, mapping) moves of credential chains from it
    trust_moves: dict[str, list[tuple[m.TrustEdge, str, Mapping[str, str]]]]
    # project -> the data-plane perimeter holding it (no two overlap)
    data_plane_perimeter: dict[str, m.AbstractPerimeter]
    # the query memos: (source, toward INTERNET) -> locus -> the last hop of
    # its path; principal -> idp -> its credential chain; service -> its
    # target tags; (source, target, source address, payload tags) -> network
    # leg; answer key (see engine.principal_class) -> the principal points'
    # decision and steps; (principal, zero-trust idp or None) -> its class
    route_trees: dict[tuple[str, bool], dict[str, LastHop]]
    credential_chains: dict[str, dict[str, m.CredentialChain]]
    target_tags: dict[str, frozenset[str]]
    legs: dict[tuple[str, str, str | None, frozenset[str]], NetworkLeg]
    answers: dict[tuple, tuple[m.Decision, m.DecisionTrace]]
    principal_classes: dict[tuple[str, str | None], tuple]

    def __init__(self, s: Scenario) -> None:
        # what ``s`` holds that its base did not, read while building only
        self._delta = _Delta(s)
        untyped = _untyped(s, self._delta)
        if untyped:
            raise InvalidScenarioError(untyped)
        self._derive(s, _CHECKED_FACTS)
        violations = _validate(s, self)
        if violations:
            raise InvalidScenarioError(violations)
        self._derive(s, _FACTS)
        del self._delta  # it holds the base, which this index must not keep alive
        for memo in self.QUERY_MEMOS:
            setattr(self, memo, {})

    def _derive(self, s: Scenario, facts: Mapping[str, "_Fact"]) -> None:
        """Each of ``facts`` of ``s`` in order: the base's where it is kept, else derived."""
        delta = self._delta
        for name, (_, derive) in facts.items():
            setattr(self, name, getattr(delta.base._index, name) if name in delta.kept else derive(s, self))

    def folders_above(self, node: str) -> tuple[str, ...]:
        """The folders of ``node``'s ancestor chain, root first."""
        return tuple(n for n in self.chains[node] if self.nodes[n].kind is m.NodeKind.FOLDER)

    def memberships(self) -> dict[str, frozenset[str]]:
        """Perimeter id -> resolved member project set."""
        return dict(zip(self.perimeters, self.perimeter_members))  # the ids are unique, in scenario order

    def member_segments(self, members: frozenset[str]) -> list[m.NetworkSegment]:
        """The segments of the projects ``members``, by id."""
        return sorted((x for x in self.segments.values() if x.project in members), key=lambda x: x.id)

    def member_services(self, members: frozenset[str]) -> list[m.ServiceSpec]:
        """The services of the projects ``members``, by id."""
        return sorted((x for x in self.services.values() if x.project in members), key=lambda x: x.id)

    def common_folders(self, members: frozenset[str]) -> tuple[str, ...]:
        """The folders above every one of the projects ``members`` (at least
        one), root first: in a tree, a prefix of each member's chain."""
        first, *rest = members
        return tuple(f for f in self.folders_above(first) if all(f in self.chains[prj] for prj in rest))

    def lowest_priority(self, scope: str) -> int:
        """The lowest firewall priority at ``scope``; where no rule is, 1000,
        the priority a parsed rule takes by default."""
        rules = self.firewall_rules_by_scope.get(scope)
        return rules[0].priority if rules else 1000


def _outcome(walk: Callable[[], Any]) -> Any:
    """What ``walk()`` returns, or the hierarchy error it raises."""
    try:
        return walk()
    except CloudPerimError as e:
        return e


def _locus_adjacency(
    edges: tuple[m.ConnectivityEdge, ...], non_routable: frozenset[str]
) -> dict[str, tuple[tuple[str, LastHop], ...]]:
    """Locus -> the (next locus, the hop into it) pairs legal from it for any
    flow, by edge id; a hop is (the locus it leaves, its edge's id and kind).

    An outbound-only edge leaves only its first end. Self-loops, NAT edges
    not leading into INTERNET, and entries into a non-routable segment other
    than by vpc-connector are never legal. The rules that depend on the flow
    (non-routable transit, NAT only toward INTERNET) are the route search's.
    """
    out: dict[str, list[tuple[str, LastHop]]] = {}
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
            out.setdefault(at, []).append((nxt, (at, e.id, e.kind)))
    return {at: tuple(sorted(pairs, key=lambda p: p[1][1])) for at, pairs in out.items()}


# ---------------------------------------------------------------------------
# The document format: one field table per model type
# ---------------------------------------------------------------------------


class _Ctx(list):
    """The issues found so far."""

    def err(self, code: str, subject: str, message: str, location: str | None = None) -> None:
        self.append(Violation(code, subject, message, location))


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


def _typed(accepts: Callable[[Any], bool], what: str, name: str = "") -> _Codec:
    """A value taken as it is if ``accepts`` it, never converted; else reported
    as not ``what``, after the field ``name`` if one is given."""
    label = f"{name} " if name else ""

    def read(ctx: _Ctx, raw: Any, subject: str, default: Any) -> Any:
        if accepts(raw):
            return raw
        ctx.err("BAD_VALUE", subject, f"{label}{raw!r} is not {what}")
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


def _is_port_span(lo: Any, hi: Any) -> bool:
    """Two integer ports with ``0 <= lo <= hi <= 65535``."""
    return _is_int(lo) and _is_int(hi) and 0 <= lo <= hi <= 65535


def _read_ports(ctx: _Ctx, raw: Any, subject: str, default: Any) -> tuple[tuple[int, int], ...]:
    """Ports as ``p`` or ``{from: lo, to: hi}`` (each end defaulting to 0 and 65535)."""
    ports = []
    for p in _expect_list(ctx, raw, subject):
        span = (p, p)
        if isinstance(p, dict) and set(p) <= {"from", "to"}:
            span = (p.get("from", 0), p.get("to", 65535))
        if _is_port_span(*span):
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
_CHAIN_BOUND = _typed(_is_int, "an integer", "chain_bound")  # its subject is the whole document
_BOOL = _typed(lambda value: isinstance(value, bool), "true or false")


def _texts(convert: Callable[[Any], str]) -> Callable[[_Ctx, Any, str, Any], tuple[str, ...]]:
    """A list of text from scalars; a list or mapping in it is reported and left out."""

    def read(ctx: _Ctx, raw: Any, subject: str, default: Any) -> tuple[str, ...]:
        items = []
        for value in _expect_list(ctx, raw, subject):
            if isinstance(value, (list, dict)):
                ctx.err("BAD_VALUE", subject, f"{value!r} is not text")
            else:
                items.append(convert(value))
        return tuple(items)

    return read


_read_tag_texts = _texts(_scalar_str)


def _key_value_tags(ctx: _Ctx, subject: str, tags: Iterable[str]) -> None:
    for tag in tags:
        if ":" not in tag:
            ctx.err("BAD_VALUE", subject, f"tag {tag!r} is not key:value")


def _read_tags(ctx: _Ctx, raw: Any, subject: str, default: Any) -> frozenset[str]:
    tags = _read_tag_texts(ctx, raw, subject, default)
    _key_value_tags(ctx, subject, tags)
    return frozenset(tags)


_TEXTS = _Codec(_texts(str), list)
_TAG_TEXTS = _Codec(_read_tag_texts, list)
_TEXT_MAP = _Codec(_read_text_map, dict)
_TAGS = _Codec(_read_tags, sorted)
_TOKENS = _Codec(_read_tokens, list)
_ADDRESS = _Codec(_read_address)
_PORTS = _Codec(_read_ports, lambda ports: [{"from": lo, "to": hi} for lo, hi in ports])

# codec -> the texts a value it reads holds, or None when the value is one text
_HELD_TEXTS: dict[_Codec, Callable[[Any], Iterable[Any]] | None] = {
    **dict.fromkeys((_TEXT, _TAG_TEXT, _ADDRESS)),
    **dict.fromkeys((_TEXTS, _TAG_TEXTS, _TAGS, _TOKENS), tuple),
    _TEXT_MAP: lambda mapping: (*mapping, *mapping.values()),
}


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
        # the text fields with the texts their values hold; the fields of nested entities, and if a list
        self.texts = [(f, _HELD_TEXTS[f.codec]) for f in fields if f.codec in _HELD_TEXTS]
        self.nested = [(f, isinstance(f.codec, _Many)) for f in fields if isinstance(f.codec, (_Many, _One))]


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
    _F("chain_bound", _CHAIN_BOUND, 4, elide=True),
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
# PyYAML's pure-Python loader is the reference. Where PyYAML was built with
# libyaml, one walk over libyaml's parse events builds the data of the
# documents it can be sure of: on a 200-spoke estate (2 vCPUs) it takes about
# half the time of libyaml's own loader, which composes a node graph first,
# and a tenth of the reference's. libyaml is not a drop-in replacement, so
# the walk decides only inside a gate that a differential corpus
# (tests/test_yaml_parity.py) backs, and the reference decides the rest.
# ---------------------------------------------------------------------------

_FAST_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else None

# What SafeConstructor lets escape when a tagged scalar does not convert:
# ``!!bool maybe`` raises KeyError and ``!!int ''`` IndexError (both
# LookupErrors), ``!!int x`` ValueError and ``!!timestamp x`` AttributeError.
_CONSTRUCT_ERRORS = (LookupError, ValueError, AttributeError)

# The one-pass load keeps its own stack and could build any depth, but the
# reference composes by Python recursion and runs out of it from about 490
# levels. The walk gives up past this depth, so every deeper document gets
# the reference's outcome, and one too deep for it stays a SYNTAX issue.
_FAST_LOAD_MAX_DEPTH = 100

# The reference's implicit resolvers (``Resolver.resolve``) by a plain
# scalar's first character ('' for the empty one), in the order it tries
# them: each regexp's match, and the SafeConstructor conversion of its tag,
# or None for a type left to the reference. A plain scalar whose first
# character has none is text, as is a quoted one unless tagged ``!``.
_CONSTRUCTOR = yaml.constructor.SafeConstructor()
_SCALAR_CONSTRUCTORS = {
    f"tag:yaml.org,2002:{name}": getattr(_CONSTRUCTOR, f"construct_yaml_{name}")
    for name in ("null", "bool", "int", "float")
}
_RESOLVERS = {
    first: tuple((regexp.match, _SCALAR_CONSTRUCTORS.get(tag)) for tag, regexp in resolvers)
    for first, resolvers in yaml.resolver.Resolver.yaml_implicit_resolvers.items()
}

# A comment right after a block scalar's indicator and its header's
# indentation and chomping, from the position after the indicator. The walk
# sees ASCII text alone, so libyaml's mark index is that position whether it
# counts characters or bytes.
_HEADER_COMMENT = re.compile(r"[-+0-9]*#").match

# What the one-pass load returns for a document it leaves to the reference.
_UNDECIDED = object()
_NO_KEY = object()


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


def _resolved(value: str, resolvers: tuple) -> Any:
    """A scalar the reference resolves, as SafeLoader constructs it, given the
    resolvers of its first character, or ``_UNDECIDED`` for a type left to
    the reference."""
    for match, construct in resolvers:
        if match(value):
            if construct is None:
                return _UNDECIDED
            try:
                return construct(yaml.ScalarNode(None, value))
            except _CONSTRUCT_ERRORS:
                return _UNDECIDED
    return value


def _fast_load(document: Any) -> Any:
    """The document's data, built in one walk over libyaml's events, or
    ``_UNDECIDED`` for a document that only the reference may decide.

    libyaml accepts tabs as separators and ``?`` inside flow-context plain
    scalars, where the reference rejects them, and reads a mid-document
    byte-order mark differently, so the walk only sees ASCII text with
    neither. It also gives up where the two differ in place: at a scalar
    tagged ``!`` inside a flow collection (libyaml ends the tag at ``,``),
    and at a block scalar whose header a comment follows with no space, or
    a tagged one.

    It builds plain mappings, sequences and the scalars SafeLoader resolves
    to str, null, bool, int or float, and leaves to the reference anything
    else: anchors and aliases, explicit tags other than ``!``, merge keys,
    collection keys, other scalar types, a second document, nesting past
    ``_FAST_LOAD_MAX_DEPTH``, and every document libyaml rejects.
    """
    if not (isinstance(document, str) and document.isascii() and "\t" not in document and "?" not in document):
        return _UNDECIDED
    parser = _FAST_LOADER(document)
    root: list = []
    stack: list = [root]  # the open collections, innermost last, under a holder for the document
    keys: list = [_NO_KEY]  # for each open mapping, the key awaiting its value
    flow = 0  # how many open collections are flow ones; a flow one holds no block one
    try:
        while (kind := type(event := parser.get_event())) is not yaml.StreamEndEvent:
            if kind is yaml.ScalarEvent or kind is yaml.MappingStartEvent or kind is yaml.SequenceStartEvent:
                tag = event.tag
                if event.anchor is not None or tag not in (None, "!"):
                    return _UNDECIDED
                if kind is yaml.ScalarEvent:
                    value, style = event.value, event.style
                    if style == "|" or style == ">":
                        if tag is not None or _HEADER_COMMENT(document, event.start_mark.index + 1):
                            return _UNDECIDED
                    elif flow and tag is not None:
                        return _UNDECIDED
                    # the reference resolves every ``!``-tagged scalar; libyaml
                    # marks an empty one as not to be resolved
                    if event.implicit[0] or tag is not None:
                        resolvers = _RESOLVERS.get(value[:1])
                        if resolvers is not None:
                            value = _resolved(value, resolvers)
                            if value is _UNDECIDED:
                                return _UNDECIDED
                elif len(stack) > _FAST_LOAD_MAX_DEPTH:
                    return _UNDECIDED
                else:
                    value = {} if kind is yaml.MappingStartEvent else []
                    flow += event.flow_style is True
                top = stack[-1]
                if type(top) is list:
                    top.append(value)
                elif keys[-1] is not _NO_KEY:
                    top[keys[-1]] = value
                    keys[-1] = _NO_KEY
                elif kind is yaml.ScalarEvent:
                    keys[-1] = value
                else:
                    return _UNDECIDED  # a collection as a key
                if kind is not yaml.ScalarEvent:
                    stack.append(value)
                    keys.append(_NO_KEY)
            elif kind is yaml.MappingEndEvent or kind is yaml.SequenceEndEvent:
                stack.pop()
                keys.pop()
                flow -= flow > 0
            elif kind is yaml.AliasEvent:
                return _UNDECIDED
            elif kind is yaml.DocumentStartEvent and root:
                return _UNDECIDED  # a second document
    except yaml.YAMLError:
        return _UNDECIDED
    finally:
        parser.dispose()
    return root[0] if root else None


def _load(document: Any) -> Any:
    """The document's data, or a YAMLError worded by the reference loader.

    A document libyaml rejects is loaded again by the reference, which then
    words the error or accepts what libyaml does not (``%FOO`` directives).
    """
    if _FAST_LOADER is not None:
        data = _fast_load(document)
        if data is not _UNDECIDED:
            return data
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
        message = str(getattr(e, "problem", None) or e)
        mark = getattr(e, "problem_mark", None)
        if isinstance(e, yaml.reader.ReaderError):
            message = message.partition("\n")[0]
            if isinstance(document, str):
                # no mark, only a character offset: count lines and columns
                # over the text before it as the reference's reader does (a
                # byte string or a stream has no text to count over)
                reader = yaml.reader.Reader(document[: e.position])
                reader.forward(e.position)
                mark = reader.get_mark()
        loc = None if mark is None else f"line {mark.line + 1}, column {mark.column + 1}"
        ctx.err("SYNTAX", "document", message, loc)
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
    try:
        s.index()
    except InvalidScenarioError as e:
        # of the refusal, the parser reports duplicate ids and references to nothing
        ctx.extend(v for v in e.violations if v.code in ("DUP_ID", "UNKNOWN_REF"))
    if ctx:
        raise ScenarioParseError(ctx)
    return s


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def _untyped(s: Scenario, delta: "_Delta") -> list[Violation]:
    """A ``BAD_VALUE`` for each text in ``s`` that is not a ``str`` (a None only
    where its field's default is not None, as the parser reads it): a top-level
    entity's id under ``<noun> id``, any other under its entity's or owner's id.
    An element of an entity list, or a nested entity, that is not its model
    type is one ``BAD_VALUE`` (a top-level one under its document path) and is
    not walked, so nothing reads a field it lacks.

    An entity list whose text check ``delta`` keeps is not walked, and of one
    that changed since the base only the elements not held are
    (``delta.fresh``): a held entity was walked there, and a walk reads
    nothing outside its entity, so the violations and their order are those
    of a walk over the whole list."""
    out = [Violation("BAD_VALUE", "document", f"{getattr(s, f.attr)!r} is not text")
           for f, _ in _SCENARIO.texts if not isinstance(getattr(s, f.attr), str)]
    for f, _ in _SCENARIO.nested:
        if f"text {f.attr}" in delta.kept:
            continue
        value = getattr(s, f.attr)
        at = delta.fresh.get(f.attr)  # None: every element
        if at is not None:
            value = [value[j] for j in at]
        typed = _of_type(out, f.codec.type, value, lambda k: f"{f.key}[{k if at is None else at[k]}]")
        entities = value if typed is None else [value[k] for k in typed]
        _walk_texts(out, f.codec.type, entities, [x.id for x in entities], f"{f.codec.noun} id")
    return out


def _of_type(out: list[Violation], t: _Type, values: Sequence, subject_of: Callable[[int], str],
             none_ok: bool = False) -> list[int] | None:
    """None if all ``values`` are ``t``'s entities, else the positions of
    those that are; each other value (but a None if ``none_ok``) is a
    ``BAD_VALUE`` under ``subject_of(j)``."""
    if set(map(type, values)) <= {t.model}:
        return None
    positions = []
    for j, x in enumerate(values):
        if isinstance(x, t.model):
            positions.append(j)
        elif not (x is None and none_ok):
            out.append(Violation("BAD_VALUE", subject_of(j), f"{x!r} is not a {t.model.__name__}"))
    return positions


def _walk_texts(out: list[Violation], t: _Type, entities: Sequence, owners: Sequence, id_subject: str | None) -> None:
    """Each text field of ``t`` over all ``entities`` at once, then the
    entities they hold; ``owners[j]`` is the subject of ``entities[j]``, and
    ``id_subject``, if given, that of an id."""
    for f, held in t.texts:
        none_ok = held is None and f.default is None
        values = [getattr(e, f.attr) for e in entities]
        texts = values if held is None else (x for v in values for x in held(v))
        if set(map(type, texts)) <= ({str, type(None)} if none_ok else {str}):
            continue
        for v, owner in zip(values, owners):
            subject = id_subject if f is _ID and id_subject else owner
            for x in sorted((v,) if held is None else held(v), key=repr):
                if not (isinstance(x, str) or x is None and none_ok):
                    out.append(Violation("BAD_VALUE", subject, f"{x!r} is not text"))
    for f, many in t.nested:
        groups = [getattr(e, f.attr) if many else (getattr(e, f.attr),) for e in entities]
        nested = [x for xs in groups for x in xs]
        nested_owners = [o for xs, o in zip(groups, owners) for _ in xs]
        at = _of_type(out, f.codec.type, nested, nested_owners.__getitem__, none_ok=not many and f.default is None)
        if at is not None:
            nested, nested_owners = [nested[j] for j in at], [nested_owners[j] for j in at]
        if nested:
            _walk_texts(out, f.codec.type, nested, [getattr(x, "id", o) for x, o in zip(nested, nested_owners)], None)


def validate_scenario(s: Scenario) -> list[Violation]:
    """Structural invariant check; empty list iff the scenario is well formed,
    which is when ``Scenario.index`` builds its index instead of refusing it."""
    try:
        s.index()
    except InvalidScenarioError as e:
        return list(e.violations)
    return []


def _validate(s: Scenario, idx: ScenarioIndex) -> list[Violation]:
    """The violations of ``s``, read from the facts ``idx`` has derived so far.

    The check families of ``_CHECKS`` run in the order they are declared,
    each but those the build keeps (``_Delta.kept``): the chain bound (an
    integer of at least 1) and the parser's own checks of scopes,
    priorities, ports, CIDR tokens, edge ends, gateway rules'
    ``new_connection``, tags and subnets come first, then duplicate ids and
    references to nothing, found as the parser finds them, so a scenario
    built in code is held to the same rules.

    A family declared with ``each`` checks the entities of that list it is
    given, each on its own: the entities not held by the base where every
    other field it reads is the base's (each held entity
    passed it there, with the same facts), else all of them. One declared
    with ``by`` as well is given every entity sharing its ``by`` value with
    one not held or one dropped. Either way its violations, and their order,
    are those of a check of the whole list. A family that looks an entity's
    references up in its own list (``refs of nodes``, ``refs of services``)
    checks the whole list, since dropping one entity can break a held one.
    """
    delta = idx._delta
    out = _Ctx()
    for name, (reads, check, each, by) in _CHECKS.items():
        if name in delta.kept:
            continue
        if each is None:
            check(s, idx, out)
        elif each in delta.fresh and all(f == each or f in delta.same for f in reads):
            check(delta.reached(s, each, by), idx, out)
        else:
            check(getattr(s, each), idx, out)
    return list(out)


_Check = Callable[[Scenario, ScenarioIndex, _Ctx], None]  # a check of the whole scenario


class _Family(NamedTuple):
    """A check family: the top-level fields it reads, and its check, of the
    whole scenario or, with ``each``, of the entities of that list it is
    given (see ``_validate``)."""

    reads: tuple[str, ...]
    check: Callable[[Any, ScenarioIndex, _Ctx], None]
    each: str | None = None
    by: str | None = None


# Each check family of ``_validate`` by name, in the order it runs.
_CHECKS: dict[str, _Family] = {}


def _check(name: str, *reads: str, each: str | None = None, by: str | None = None) -> Callable[[Callable], Callable]:
    """Declare the decorated function the check family ``name``, reading the
    fields ``reads``, of the entities of the list ``each`` if given, grouped
    by their attribute ``by`` if given."""

    def declare(check: Callable) -> Callable:
        _CHECKS[name] = _Family(reads, check, each, by)
        return check

    return declare


@_check("chain bound", "chain_bound")
def _check_chain_bound(s: Scenario, idx: ScenarioIndex, out: _Ctx) -> None:
    bound = _CHAIN_BOUND.read(out, s.chain_bound, "document", None)
    if bound is not None and bound < 1:
        out.err("BAD_VALUE", "document", f"chain_bound {bound} is below 1")


@_check("edge ends", "edges", each="edges")
def _check_edge_ends(edges: Sequence[m.ConnectivityEdge], idx: ScenarioIndex, out: _Ctx) -> None:
    for e in edges:
        _two_ends(out, e.id, e.ends)


@_check("firewall values", "firewall_rules", each="firewall_rules")
def _check_firewall_values(rules: Sequence[m.FirewallRule], idx: ScenarioIndex, out: _Ctx) -> None:
    for fw in rules:
        _scope_shape(out, fw.id, fw.scope)
        _INT.read(out, fw.priority, fw.id, None)
        for span in fw.ports:
            if len(span) != 2 or not _is_port_span(*span):
                out.err("BAD_VALUE", fw.id, f"bad port entry {span!r}")
        _cidr_tokens(out, fw.id, fw.src + fw.dst)


@_check("gateway values", "edges", each="edges")
def _check_gateway_values(edges: Sequence[m.ConnectivityEdge], idx: ScenarioIndex, out: _Ctx) -> None:
    for gw in (r for e in edges for r in e.gateway_rules):
        _BOOL.read(out, gw.new_connection, gw.id, None)


def _check_predicate_tokens(holders: Sequence[m.ConsumerEndpoint | m.ServiceAttachment], idx: ScenarioIndex,
                            out: _Ctx) -> None:
    for predicate in (p for holder in holders for p in holder.policy):
        _cidr_tokens(out, predicate.id, predicate.cidrs)


for _attr in ("endpoints", "attachments"):
    _check(f"predicate tokens of {_attr}", _attr, each=_attr)(_check_predicate_tokens)


@_check("perimeter rule tokens", "perimeters", each="perimeters")
def _check_perimeter_rule_tokens(perimeters: Sequence[m.AbstractPerimeter], idx: ScenarioIndex, out: _Ctx) -> None:
    for rule in (r for perimeter in perimeters for r in perimeter.ingress + perimeter.egress):
        _cidr_tokens(out, rule.id, rule.networks)


def _check_tags(tagged: Sequence[m.ResourceNode | m.DataAsset], idx: ScenarioIndex, out: _Ctx) -> None:
    for x in tagged:
        _key_value_tags(out, x.id, sorted(x.tags))


for _attr in ("nodes", "assets"):
    _check(f"tags of {_attr}", _attr, each=_attr)(_check_tags)


@_check("subnets", "segments", each="segments")
def _check_subnets(segments: Sequence[m.NetworkSegment], idx: ScenarioIndex, out: _Ctx) -> None:
    for seg in segments:
        _subnet_cidrs(out, seg.id, seg.subnets)


def _duplicate_ids(noun: str, attrs: tuple[str, ...]) -> _Check:
    """The check of the ids of the entity lists ``attrs``, which share ``noun``'s namespace."""

    def check(s: Scenario, idx: ScenarioIndex, out: _Ctx) -> None:
        seen: set[str] = set()
        for i in (x.id for attr in attrs for x in getattr(s, attr)):
            if i in seen:
                out.err("DUP_ID", i, f"duplicate {noun} id")
            seen.add(i)

    return check


# id noun -> the entity lists sharing its namespace, in table order
_NAMESPACES: dict[str, tuple[str, ...]] = {}
for _f, _ in _SCENARIO.nested:
    _NAMESPACES[_f.codec.noun] = _NAMESPACES.get(_f.codec.noun, ()) + (_f.attr,)
for _noun, _attrs in _NAMESPACES.items():
    _check(f"ids of {_noun}", *_attrs)(_duplicate_ids(_noun, _attrs))


def _kind(idx: ScenarioIndex, node_id: str | None) -> m.NodeKind | None:
    return idx.nodes[node_id].kind if node_id in idx.nodes else None


def _is_locus(idx: ScenarioIndex, locus: str) -> bool:
    return locus in idx.segments or locus in m.DISTINGUISHED_LOCI


def _ref(out: _Ctx, ok: bool, subject: str, target: str, what: str) -> None:
    if not ok:
        out.err("UNKNOWN_REF", subject, f"unknown {what} {target!r}")


@_check("refs of nodes", "nodes")
def _refs_of_nodes(s: Scenario, idx: ScenarioIndex, out: _Ctx) -> None:
    for n in s.nodes:
        if n.parent is not None:
            _ref(out, n.parent in idx.nodes, n.id, n.parent, "parent node")


@_check("refs of segments", "segments", "nodes", each="segments")
def _refs_of_segments(segments: Sequence[m.NetworkSegment], idx: ScenarioIndex, out: _Ctx) -> None:
    for seg in segments:
        _ref(out, _kind(idx, seg.project) is m.NodeKind.PROJECT, seg.id, seg.project, "project")


@_check("refs of edges", "edges", "segments", each="edges")
def _refs_of_edges(edges: Sequence[m.ConnectivityEdge], idx: ScenarioIndex, out: _Ctx) -> None:
    for e in edges:
        for end in e.ends:
            _ref(out, _is_locus(idx, end), e.id, end, "locus")
        for r in e.gateway_rules:
            for zone in (r.src_zone, r.dst_zone):
                _ref(out, _is_locus(idx, zone) or zone == m.ANY, r.id, zone, "zone")


@_check("refs of services", "services", "nodes", "segments", "idps", "principals", "assets")
def _refs_of_services(s: Scenario, idx: ScenarioIndex, out: _Ctx) -> None:
    for svc in s.services:
        _ref(out, _kind(idx, svc.project) is m.NodeKind.PROJECT, svc.id, svc.project, "project")
        _ref(out, svc.segment in idx.segments, svc.id, svc.segment, "segment")
        if svc.idp is not None:
            _ref(out, svc.idp in idx.idps, svc.id, svc.idp, "idp")
        for p in svc.run_as:
            _ref(out, p in idx.principals, svc.id, p, "principal")
        for a in list(svc.reads) + list(svc.writes):
            _ref(out, a in idx.assets, svc.id, a, "asset")
        for d in svc.depends_on:
            _ref(out, d in idx.services, svc.id, d, "service")


@_check("refs of attachments", "attachments", "services", each="attachments")
def _refs_of_attachments(attachments: Sequence[m.ServiceAttachment], idx: ScenarioIndex, out: _Ctx) -> None:
    for att in attachments:
        _ref(out, att.service in idx.services, att.id, att.service, "service")


@_check("refs of endpoints", "endpoints", "segments", "attachments", each="endpoints")
def _refs_of_endpoints(endpoints: Sequence[m.ConsumerEndpoint], idx: ScenarioIndex, out: _Ctx) -> None:
    for ep in endpoints:
        _ref(out, ep.segment in idx.segments, ep.id, ep.segment, "segment")
        _ref(out, ep.attachment in idx.attachments, ep.id, ep.attachment, "attachment")


@_check("refs of principals", "principals", "idps", each="principals")
def _refs_of_principals(principals: Sequence[m.Principal], idx: ScenarioIndex, out: _Ctx) -> None:
    for p in principals:
        _ref(out, p.idp in idx.idps, p.id, p.idp, "idp")


@_check("refs of idps", "idps", "segments", each="idps")
def _refs_of_idps(idps: Sequence[m.IdentityProvider], idx: ScenarioIndex, out: _Ctx) -> None:
    for idp in idps:
        if idp.segment is not None:
            _ref(out, _is_locus(idx, idp.segment), idp.id, idp.segment, "segment")


@_check("refs of trust edges", "trust_edges", "idps", "principals", each="trust_edges")
def _refs_of_trust_edges(trust_edges: Sequence[m.TrustEdge], idx: ScenarioIndex, out: _Ctx) -> None:
    for t in trust_edges:
        _ref(out, t.src in idx.idps, t.id, t.src, "idp")
        _ref(out, t.dst in idx.idps, t.id, t.dst, "idp")
        for src_p, dst_p in t.mapping.items():
            _ref(out, src_p in idx.principals, t.id, src_p, "principal")
            _ref(out, dst_p in idx.principals, t.id, dst_p, "principal")


@_check("refs of firewall rules", "firewall_rules", "nodes", "segments", each="firewall_rules")
def _refs_of_firewall_rules(rules: Sequence[m.FirewallRule], idx: ScenarioIndex, out: _Ctx) -> None:
    for fw in rules:
        if fw.scope_kind == "folder":
            _ref(out, _kind(idx, fw.scope_id) is m.NodeKind.FOLDER, fw.id, fw.scope, "folder scope")
        elif fw.scope_kind == "segment":
            _ref(out, fw.scope_id in idx.segments, fw.id, fw.scope, "segment scope")


@_check("refs of bindings", "bindings", "services", each="bindings")
def _refs_of_bindings(bindings: Sequence[m.RBACBinding], idx: ScenarioIndex, out: _Ctx) -> None:
    for b in bindings:
        for perm in b.role:
            known = perm.service in idx.services or perm.service in (m.ANY, m.INTERNET)
            _ref(out, known, b.id, perm.service, "service")


@_check("refs of constraints", "constraints", "nodes", each="constraints")
def _refs_of_constraints(constraints: Sequence[m.OrgConstraint], idx: ScenarioIndex, out: _Ctx) -> None:
    for c in constraints:
        scope = _kind(idx, c.scope) in (m.NodeKind.ORGANIZATION, m.NodeKind.FOLDER)
        _ref(out, scope, c.id, c.scope, "org/folder scope")


@_check("refs of perimeters", "perimeters", "nodes", "services", each="perimeters")
def _refs_of_perimeters(perimeters: Sequence[m.AbstractPerimeter], idx: ScenarioIndex, out: _Ctx) -> None:
    for p in perimeters:
        for f in p.members.folders:
            _ref(out, _kind(idx, f) is m.NodeKind.FOLDER, p.id, f, "folder")
        for prj in p.members.projects:
            _ref(out, _kind(idx, prj) is m.NodeKind.PROJECT, p.id, prj, "project")
        for rule in list(p.ingress) + list(p.egress):
            for t in rule.targets:
                if t.project not in (m.ANY,):
                    _ref(out, _kind(idx, t.project) is m.NodeKind.PROJECT, rule.id, t.project, "project")
                if t.service not in (m.ANY, m.INTERNET):
                    _ref(out, t.service in idx.services, rule.id, t.service, "service")


@_check("refs of assets", "assets", "nodes", each="assets")
def _refs_of_assets(assets: Sequence[m.DataAsset], idx: ScenarioIndex, out: _Ctx) -> None:
    for a in assets:
        _ref(out, a.resource in idx.nodes, a.id, a.resource, "resource")


_PARENT_KINDS = {
    m.NodeKind.FOLDER: (m.NodeKind.ORGANIZATION, m.NodeKind.FOLDER),
    m.NodeKind.PROJECT: (m.NodeKind.ORGANIZATION, m.NodeKind.FOLDER),
    m.NodeKind.RESOURCE: (m.NodeKind.PROJECT,),
}


@_check("hierarchy", "nodes")
def _check_hierarchy(s: Scenario, idx: ScenarioIndex, out: _Ctx) -> None:
    orgs = [n for n in s.nodes if n.kind is m.NodeKind.ORGANIZATION]
    if len(orgs) != 1:
        out.err("ORG_COUNT", s.name, f"expected exactly one organization, found {len(orgs)}")
    for n in s.nodes:
        if n.kind is m.NodeKind.ORGANIZATION:
            if n.parent is not None:
                out.err("ORG_PARENT", n.id, "organization must not have a parent")
            continue
        if n.parent is None:
            out.err("NO_PARENT", n.id, f"{n.kind.value} has no parent")
            continue
        parent = idx.nodes.get(n.parent)
        if parent is None:
            continue  # an unknown parent is reported as UNKNOWN_REF
        if parent.kind not in _PARENT_KINDS[n.kind]:
            out.err("BAD_PARENT_KIND", n.id, f"{n.kind.value} cannot be parented under {parent.kind.value} {parent.id!r}")
    # the first node whose walk up meets a cycle; one meeting an unknown
    # parent instead is reported as UNKNOWN_REF
    cycle = next((n for n in s.nodes if isinstance(idx.chains[n.id], InvalidHierarchyError)), None)
    if cycle is not None:
        out.err("PARENT_CYCLE", cycle.id, "hierarchy contains a parent cycle")


@_check("segment cidrs", "segments")
def _check_segment_cidrs(s: Scenario, idx: ScenarioIndex, out: _Ctx) -> None:
    for seg, cidr_nets in zip(s.segments, idx.cidr_nets):
        for c, net in zip(seg.cidrs, cidr_nets):
            if net is None:
                out.err("CIDR_BAD", seg.id, f"{c!r} is not a CIDR")
    nets_of = [[net for net in cidr_nets if net is not None] for cidr_nets in idx.cidr_nets]
    routable = [i for i, seg in enumerate(s.segments) if seg.routability is m.Routability.ROUTABLE]
    for i, j in prefix.overlapping_pairs([nets_of[k] for k in routable]):
        a, b = s.segments[routable[i]], s.segments[routable[j]]
        out.err("CIDR_OVERLAP", a.id, f"routable segments {a.id!r} and {b.id!r} overlap")
    for seg, nets in zip(s.segments, nets_of):
        if prefix.overlapping_pairs([[net] for net in nets]):
            out.err("CIDR_INTERNAL", seg.id, "segment reuses address space internally")


@_check("priorities", "firewall_rules", each="firewall_rules", by="scope")
def _check_priorities(rules: Sequence[m.FirewallRule], idx: ScenarioIndex, out: _Ctx) -> None:
    scope_priorities: dict[str, set[int]] = {}
    for fw in rules:
        if not _is_int(fw.priority):
            continue  # a ``firewall values`` BAD_VALUE; True and 1.0 would equal 1 here
        seen = scope_priorities.setdefault(fw.scope, set())
        if fw.priority in seen:
            out.err("PRIORITY_DUP", fw.id, f"duplicate priority {fw.priority} in scope {fw.scope}")
        seen.add(fw.priority)


@_check("attachments per service", "attachments")
def _check_attachments_per_service(s: Scenario, idx: ScenarioIndex, out: _Ctx) -> None:
    attach_count: dict[str, int] = {}
    for att in s.attachments:
        attach_count[att.service] = attach_count.get(att.service, 0) + 1
    for svc_id, count in sorted(attach_count.items()):
        if count > 1:
            out.err("ATTACH_DUP", svc_id, f"service has {count} attachments; at most one")


def _host(out: _Ctx, thing: m.ServiceSpec | m.ConsumerEndpoint, code: str) -> prefix.Interval | None:
    """The host of ``thing``'s address; an address that is not ip or ip:port is reported."""
    if thing.address is None:
        return None
    parsed = prefix.host_port(thing.address)
    if parsed is None:
        out.err(code, thing.id, f"address {thing.address!r} is not ip or ip:port")
        return None
    return parsed[0]


@_check("endpoint addresses", "endpoints", "segments", each="endpoints")
def _check_endpoint_addresses(endpoints: Sequence[m.ConsumerEndpoint], idx: ScenarioIndex, out: _Ctx) -> None:
    seg_nets = idx.segment_nets
    for ep in endpoints:
        addr = _host(out, ep, "ENDPOINT_ADDR")
        if addr is not None and ep.segment in seg_nets and not prefix.meets_any(addr, seg_nets[ep.segment]):
            out.err("ENDPOINT_ADDR", ep.id, f"address {ep.address} outside segment {ep.segment} CIDRs")
        if ep.address is None and ep.fqdn is None:
            out.err("ENDPOINT_ADDR", ep.id, "endpoint needs an address or fqdn")


@_check("fqdns", "endpoints", "services")
def _check_fqdns(s: Scenario, idx: ScenarioIndex, out: _Ctx) -> None:
    fqdns: dict[str, str] = {}
    for thing in list(s.endpoints) + list(s.services):
        if thing.fqdn is not None:
            if thing.fqdn in fqdns:
                out.err("FQDN_DUP", thing.id, f"fqdn {thing.fqdn!r} already used by {fqdns[thing.fqdn]!r}")
            fqdns[thing.fqdn] = thing.id


@_check("service addresses", "services", "segments", each="services")
def _check_service_addresses(services: Sequence[m.ServiceSpec], idx: ScenarioIndex, out: _Ctx) -> None:
    seg_nets = idx.segment_nets
    for svc in services:
        if svc.layer is m.ServiceLayer.L7 and svc.fqdn is None:
            out.err("SERVICE_FQDN", svc.id, "L7 service must expose an fqdn")
        addr = _host(out, svc, "SERVICE_ADDR")
        if addr is not None and seg_nets.get(svc.segment) and not prefix.meets_any(addr, seg_nets[svc.segment]):
            out.err("SERVICE_ADDR", svc.id, f"address {svc.address} outside home segment CIDRs")


@_check("backends", "services")
def _check_backends(s: Scenario, idx: ScenarioIndex, out: _Ctx) -> None:
    backend_segment: dict[str, str] = {}
    for svc in s.services:
        for b in svc.backends:
            prev = backend_segment.setdefault(b, svc.segment)
            if prev != svc.segment:
                out.err("BACKEND_SPLIT", b, f"backend appears in segments {prev!r} and {svc.segment!r}")


@_check("edge kinds", "edges", each="edges")
def _check_edge_kinds(edges: Sequence[m.ConnectivityEdge], idx: ScenarioIndex, out: _Ctx) -> None:
    for e in edges:
        if e.kind is m.EdgeKind.PEERING and e.direction is not m.EdgeDirection.BIDIRECTIONAL:
            out.err("EDGE_PEERING", e.id, "peering edges are bidirectional")
        if e.kind is m.EdgeKind.NAT_GATEWAY:
            if m.INTERNET not in e.ends:
                out.err("EDGE_NAT", e.id, "nat-gateway must have an INTERNET end")
            if e.direction is not m.EdgeDirection.OUTBOUND_ONLY:
                out.err("EDGE_NAT", e.id, "nat-gateway edges are outbound-only")


@_check("perimeter members", "nodes", "perimeters")
def _check_perimeter_members(s: Scenario, idx: ScenarioIndex, out: _Ctx) -> None:
    memberships: dict[str, frozenset[str]] = {}
    for p, members in zip(s.perimeters, idx.perimeter_members):
        if isinstance(members, m.EmptyPerimeterError):
            out.err("EMPTY_PERIMETER", p.id, "member selector resolves to zero projects")
        elif not isinstance(members, CloudPerimError):  # hierarchy errors are reported above
            memberships[p.id] = members
    dp = [p for p in s.perimeters if m.Mechanism.DATA_PLANE_PERIMETER in p.mechanisms]
    for i, a in enumerate(dp):
        for b in dp[i + 1 :]:
            shared = memberships.get(a.id, frozenset()) & memberships.get(b.id, frozenset())
            if shared:
                out.err(
                    "PERIM_OVERLAP", a.id, f"projects {sorted(shared)} are in data-plane perimeters {a.id!r} and {b.id!r}"
                )


# ---------------------------------------------------------------------------
# The facts, and what each fact, check and memo taken whole reads
# ---------------------------------------------------------------------------

# the entity lists the index maps by id before validation (trust edges are mapped after it)
_ID_MAPS = ("nodes", "segments", "edges", "services", "attachments", "endpoints", "idps", "principals", "assets",
            "perimeters")


# The id of each non-empty entity list of a scenario built clean -> the last
# such scenario holding it, held weakly: an entry goes when its scenario does
# (taken over from an earlier one or not), and while that lives, it holds the
# list, so no other object takes the id.
_holders: weakref.WeakValueDictionary[int, Scenario] = weakref.WeakValueDictionary()


class _Delta:
    """What a scenario holds that ``base``, the scenario it builds on, did not.

    ``base`` is the live scenario, of those that last built clean on one of
    the scenario's entity lists (``_holders``), that shares the most top-level
    fields with it by identity (the first found on a tie), or None; its facts
    are those of its ``_index``. ``same`` is those fields, and ``kept`` the
    names of ``_READS`` whose fields all are. An element of an entity list is
    held when it is one of ``base``'s entities there, which ``base`` keeps
    alive; each holds one element at most, so a repeat is not held. For each
    entity list that is not ``base``'s, ``fresh`` has the positions of its
    elements not held, and ``lost`` the entities of ``base``'s list that it
    holds no more. Without a base (another document parsed), all are empty:
    the scenario is checked whole.
    """

    def __init__(self, s: Scenario) -> None:
        # each scenario found, once, by id (hashing one walks its entities), and the fields it shares with ``s``
        found = {id(b): b for f in _ENTITY_LISTS if (b := _holders.get(id(getattr(s, f)))) is not None}
        shared = [(b, {f for f in _FIELDS if getattr(s, f) is getattr(b, f)}) for b in found.values()]
        self.base, self.same = max(shared, key=lambda pair: len(pair[1]), default=(None, set()))
        changed = [f for f in _FIELDS if f not in self.same]
        self.kept = _READS.keys() - set().union(*map(_READERS.get, changed))  # each name reads some field
        self.fresh: dict[str, list[int]] = {}
        self.lost: dict[str, list[Any]] = {}
        for f in changed if self.base is not None else ():
            if f in _ENTITY_LISTS:
                self.fresh[f], self.lost[f] = _unheld(getattr(s, f), getattr(self.base, f))

    def reached(self, s: Scenario, each: str, by: str | None) -> list[Any]:
        """The entities of ``s``'s list ``each`` (which is in ``fresh``) not
        held; with ``by``, every entity whose attribute ``by`` is that of one
        not held or one lost, in order."""
        entities = getattr(s, each)
        fresh = [entities[j] for j in self.fresh[each]]
        if by is None:
            return fresh
        keys = {getattr(x, by) for x in (*fresh, *self.lost[each])}
        return [x for x in entities if getattr(x, by) in keys]


def _unheld(now: Sequence, then: Sequence) -> tuple[list[int], list[Any]]:
    """The positions of the elements of ``now`` that ``then`` does not hold,
    and the elements of ``then`` that hold none of ``now``. Each element of
    ``then`` (distinct objects) holds at most one element of ``now``, one
    that is the same object. The runs that both start, and then both end,
    with the same objects are matched at C speed, and only the rest one by
    one."""
    head = tail = 0
    if now and then and (now[0] is then[0] or now[-1] is then[-1]):
        head = _same_run(now, then)
        tail = _same_run(reversed(now[head:]), reversed(then[head:]))
    middle = then[head:len(then) - tail]
    unmatched = set(map(id, middle))
    fresh = []
    for j in range(head, len(now) - tail):
        if id(now[j]) in unmatched:
            unmatched.remove(id(now[j]))
        else:
            fresh.append(j)
    return fresh, [x for x in middle if id(x) in unmatched]


def _same_run(a: Iterable, b: Iterable) -> int:
    """How many elements ``a`` and ``b`` start with that are the same objects."""
    return len(list(takewhile(truth, map(is_, a, b))))


def _ids(attr: str) -> Callable[[Scenario, ScenarioIndex], dict[str, Any]]:
    return lambda s, idx: {x.id: x for x in getattr(s, attr)}


def _perimeter_members(s: Scenario, idx: ScenarioIndex) -> tuple[frozenset[str] | CloudPerimError, ...]:
    """Each perimeter's members; one the base held keeps them while the
    hierarchy is the same (its id map is kept only then)."""
    base = idx._delta.base
    kept = {}
    if base is not None and idx.nodes is base._index.nodes:
        kept = {id(p): x for p, x in zip(base.perimeters, base._index.perimeter_members)}
    return tuple(
        kept[id(p)] if id(p) in kept else _outcome(lambda: m.resolve_members(p, idx.nodes)) for p in s.perimeters
    )


def _source_nets(s: Scenario, idx: ScenarioIndex) -> dict[str, tuple[prefix.Interval, ...]]:
    out = {}
    for seg in s.segments:
        nets = idx.segment_nets[seg.id]
        canonical = prefix.address(prefix.first_host(seg.cidrs[0])) if seg.cidrs else None
        out[seg.id] = nets if canonical is None else (canonical,) + nets
    return out


def _by_scope(s: Scenario, idx: ScenarioIndex) -> dict[str, tuple[m.FirewallRule, ...]]:
    """Firewall rules per scope; on a base, only the scopes that gained or
    lost a rule are derived again, and the rest are the base's."""
    delta, rules, kept = idx._delta, s.firewall_rules, {}
    if "firewall_rules" in delta.fresh:
        rules = delta.reached(s, "firewall_rules", "scope")
        scopes = {r.scope for r in (*rules, *delta.lost["firewall_rules"])}
        kept = {scope: x for scope, x in delta.base._index.firewall_rules_by_scope.items() if scope not in scopes}
    by_scope: dict[str, list[m.FirewallRule]] = {}
    for r in rules:
        by_scope.setdefault(r.scope, []).append(r)
    return {**kept, **{scope: tuple(sorted(group, key=lambda r: r.priority)) for scope, group in by_scope.items()}}


def _adjacency(s: Scenario, idx: ScenarioIndex) -> dict[str, tuple[tuple[str, LastHop], ...]]:
    """The routing graph: the base's while the non-routable segments and
    each edge's id, ends, kind and direction, in order, are equal, which is
    all ``_locus_adjacency`` reads (an edit of a gateway rule replaces its
    edge but changes none of them)."""
    base = idx._delta.base
    if base is not None and idx.non_routable == base._index.non_routable and len(s.edges) == len(base.edges):
        if all(a is b or (a.id, a.ends, a.kind, a.direction) == (b.id, b.ends, b.kind, b.direction)
               for a, b in zip(s.edges, base.edges)):
            return base._index.adjacency
    return _locus_adjacency(s.edges, idx.non_routable)


def _grouped(pairs: Iterable[tuple[str, Any]]) -> dict[str, list[Any]]:
    out: dict[str, list[Any]] = {}
    for key, value in pairs:
        out.setdefault(key, []).append(value)
    return out


def _perimeter_rules(s: Scenario) -> list[m.PerimeterRule]:
    return [r for p in s.perimeters for r in p.ingress + p.egress]


def _policy_identities(s: Scenario, idx: ScenarioIndex) -> frozenset[str]:
    predicates = [p for holder in (*s.endpoints, *s.attachments) for p in holder.policy]
    return frozenset(b.principal for b in s.bindings).union(
        *(x.identities for x in _perimeter_rules(s) + predicates)
    )


def _trust_moves(s: Scenario, idx: ScenarioIndex) -> dict[str, list[tuple[m.TrustEdge, str, Mapping[str, str]]]]:
    """A two-way edge also moves from its ``to`` end, after its forward move,
    inverted to the smallest source."""
    moves: dict[str, list[tuple[m.TrustEdge, str, Mapping[str, str]]]] = {}
    for e in s.trust_edges:
        moves.setdefault(e.src, []).append((e, e.dst, e.mapping))
        if e.kind is m.TrustKind.TWO_WAY_TRUST:
            inverted = {dst_p: src_p for src_p, dst_p in sorted(e.mapping.items(), reverse=True)}
            moves.setdefault(e.dst, []).append((e, e.src, inverted))
    return moves


_Fact = tuple[tuple[str, ...], Callable[[Scenario, ScenarioIndex], Any]]
# Each fact by name, in the order it is derived: the top-level fields it
# reads, and its derivation from the scenario and the facts derived before it.
# First the facts validation reads, then those of a valid scenario.
_CHECKED_FACTS: dict[str, _Fact] = {
    **{attr: ((attr,), _ids(attr)) for attr in _ID_MAPS},
    "chains": (("nodes",), lambda s, idx: {
        nid: _outcome(lambda: tuple(m.ancestors(nid, idx.nodes))) for nid in idx.nodes
    }),
    "perimeter_members": (("nodes", "perimeters"), _perimeter_members),
    "cidr_nets": (("segments",), lambda s, idx: tuple(tuple(map(prefix.network, seg.cidrs)) for seg in s.segments)),
    "segment_nets": (("segments",), lambda s, idx: {
        seg.id: tuple(n for n in nets if n is not None) for seg, nets in zip(s.segments, idx.cidr_nets)
    }),
    "source_nets": (("segments",), _source_nets),
}
_FACTS: dict[str, _Fact] = {
    "attachment_for_service": (("attachments",), lambda s, idx: {a.service: a for a in s.attachments}),
    "endpoints_for_attachment": (("endpoints",), lambda s, idx: _grouped((ep.attachment, ep) for ep in s.endpoints)),
    "firewall_rules_by_scope": (("firewall_rules",), _by_scope),
    "bindings_for_service": (("bindings",), lambda s, idx: _grouped(
        (svc_id, b) for b in s.bindings for svc_id in dict.fromkeys(p.service for p in b.role)
    )),
    "policy_identities": (("bindings", "perimeters", "endpoints", "attachments"), _policy_identities),
    "device_keys": (("perimeters",), lambda s, idx: tuple(sorted({k for r in _perimeter_rules(s) for k in r.device}))),
    "non_routable": (("segments",), lambda s, idx: frozenset(
        x.id for x in s.segments if x.routability is m.Routability.NON_ROUTABLE
    )),
    "adjacency": (("edges", "segments"), _adjacency),
    "trust_edges": (("trust_edges",), _ids("trust_edges")),
    "trust_moves": (("trust_edges",), _trust_moves),
    "data_plane_perimeter": (("nodes", "perimeters"), lambda s, idx: {
        prj: p
        for p, members in zip(s.perimeters, idx.perimeter_members)
        if m.Mechanism.DATA_PLANE_PERIMETER in p.mechanisms
        for prj in members
    }),
}
# What each text check, fact and check family reads, by name; one whose
# fields are all the objects the base's scenario holds is kept from it. No
# name is in two tables.
_READS: dict[str, tuple[str, ...]] = {
    **{f"text {f.attr}": (f.attr,) for f, _ in _SCENARIO.nested},
    **{name: entry[0] for table in (_CHECKED_FACTS, _FACTS, _CHECKS) for name, entry in table.items()},
}
_FIELDS = tuple(dict.fromkeys(f for fields in _READS.values() for f in fields))
_ENTITY_LISTS = tuple(f.attr for f, _ in _SCENARIO.nested)
_READERS = {f: {name for name, reads in _READS.items() if f in reads} for f in _FIELDS}  # field -> what reads it


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
