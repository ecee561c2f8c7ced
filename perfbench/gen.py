"""Seeded hub-and-spoke estates, request streams and restriction edits.

The shape of an estate depends only on the number of spokes: how many spokes
of each kind, how many services, rules, bindings, perimeters and trust edges.
A layout seed decides which spoke plays which role and which data tag each
asset carries; the seed decides the address blocks, and the request streams
and edits are drawn from their own seeded generators. Two seeds therefore
give estates of equal size and equal feature mix, so timings taken on
different seeds are comparable.

Every estate exercises each enforcement point:

- ROUTE: non-routable spokes reuse 172.16.0.0/16 and are reachable only
  through endpoints published in the hub; INTERNET has no way in but through
  gateways.
- HIER_FIREWALL: organization ``delegate`` rule, folder deny backstops.
- SEGMENT_FIREWALL: per-spoke allow/deny rules and zero-trust segments.
- GATEWAY: directional gateway rules, one of them conditioned on content.
- CONSUMER_ENDPOINT / PRODUCER_ATTACHMENT: endpoint and attachment policies.
- PERIMETER_EGRESS / PERIMETER_INGRESS: data-plane perimeters whose rules use
  identities, device, networks and targets.
- AUTHN: zero-trust services behind a cluster IdP, reached through
  federation trust edges (and presented chains).
- RBAC: per-service grants and tag-conditioned bindings on tagged assets.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import yaml

try:
    _DUMPER = yaml.CSafeDumper
except AttributeError:  # PyYAML built without libyaml
    _DUMPER = yaml.SafeDumper

ONPREM = "ONPREM"
INTERNET = "INTERNET"
ANY = "*"
METHODS = ("connect", "read", "write", "query", "admin")
DATA_TAGS = ("pii:true", "pci:true", "data:confidential", "data:open")


@dataclass
class Spoke:
    index: int
    segment: str
    project: str
    group: int
    kind: str            # peer | gw | nr
    cidr: str
    zero_trust_app: bool
    app: str
    db: str
    app_principal: str


@dataclass
class Estate:
    """A generated scenario document plus the facts request streams need."""

    document: dict
    spokes: list[Spoke]
    services: list[str]
    endpoints: list[str]              # hub endpoint ids
    endpoint_service: dict[str, str]
    zero_trust_services: list[str]
    service_segment: dict[str, str]
    humans: list[str]
    principals: list[str]
    home_idp: dict[str, str]
    trust_edges: list[dict]
    workloads: list[str]
    dp_perimeters: list[str]
    groups: int

    def text(self) -> str:
        return yaml.dump(self.document, Dumper=_DUMPER, sort_keys=False, width=100)


def _block_cidr(block: int) -> str:
    return f"10.{1 + block // 250}.{block % 250}.0/24"


def _host(cidr: str, last: int) -> str:
    return cidr.split("/")[0].rsplit(".", 1)[0] + f".{last}"


def hub_and_spoke(spokes: int, seed: int, layout: int | None = None) -> Estate:
    """One estate of ``spokes`` spokes around a hub.

    ``layout`` (default: ``seed``) decides which spoke plays which role and
    which tag each asset carries; ``seed`` decides the address blocks. A small
    estate with a fixed layout costs the same to analyse for every seed.
    """
    if spokes < 4:
        raise ValueError("an estate needs at least 4 spokes")
    rng = random.Random(f"estate:{seed if layout is None else layout}:{spokes}")
    groups = max(2, spokes // 10)

    n_nr, n_gw = spokes // 4, spokes // 4
    kinds = ["nr"] * n_nr + ["gw"] * n_gw + ["peer"] * (spokes - n_nr - n_gw)
    rng.shuffle(kinds)
    zt_apps = set(rng.sample(range(spokes), spokes // 3))
    zt_segments = set(rng.sample(range(spokes), spokes // 3))
    open_spokes = set(rng.sample(range(spokes), (2 * spokes) // 3))
    egress_spokes = set(rng.sample(range(spokes), spokes // 2))
    inet_gateway = set(rng.sample(range(spokes), spokes // 5))
    tag_pool = [DATA_TAGS[i % len(DATA_TAGS)] for i in range(spokes)]
    rng.shuffle(tag_pool)
    routable_published = set(
        rng.sample([i for i in range(spokes) if kinds[i] != "nr"], (spokes - n_nr) // 4)
    )
    blocks = random.Random(f"addresses:{seed}:{spokes}").sample(range(spokes * 2), spokes)

    hierarchy = [
        {"id": "org", "kind": "organization"},
        {"id": "f-hub", "kind": "folder", "parent": "org"},
        {"id": "f-spokes", "kind": "folder", "parent": "org"},
        {"id": "prj-hub", "kind": "project", "parent": "f-hub", "tags": ["env:prod"]},
    ]
    for k in range(groups):
        hierarchy.append(
            {"id": f"f-g{k}", "kind": "folder", "parent": "f-spokes", "tags": [f"tier:t{k % 3}"]}
        )

    segments = [
        {"id": "hub", "project": "prj-hub", "routability": "routable", "cidrs": ["10.0.0.0/16"],
         "trust_mode": "trusting"}
    ]
    edges: list[dict] = [
        {"id": "ic-onprem", "kind": "interconnect", "ends": [ONPREM, "hub"]},
        {"id": "nat-hub", "kind": "nat-gateway", "ends": ["hub", INTERNET],
         "direction": "outbound-only"},
    ]
    specs: list[dict] = [
        {"id": "hub-dns", "project": "prj-hub", "segment": "hub", "layer": "l4",
         "address": "10.0.0.53:53", "compute": "vm", "auth_mode": "perimeter-trusting",
         "workload": "wl-hub", "backends": ["vm-dns"], "run_as": ["sa:hub-dns"]},
        {"id": "hub-log", "project": "prj-hub", "segment": "hub", "layer": "l7",
         "fqdn": "log.hub.internal", "compute": "paas", "auth_mode": "perimeter-trusting",
         "workload": "wl-hub", "run_as": ["sa:hub-log"]},
    ]
    attachments: list[dict] = []
    endpoints: list[dict] = []
    firewall: list[dict] = [
        {"id": "fw-org-onprem", "scope": "organization", "priority": 100, "action": "allow",
         "src": [ONPREM], "dst": ["10.0.0.0/16"]},
        {"id": "fw-org-delegate", "scope": "organization", "priority": 200, "action": "delegate",
         "src": [ANY], "dst": [ANY]},
        {"id": "fw-hub-allow", "scope": "segment:hub", "priority": 100, "action": "allow"},
    ]
    rbac: list[dict] = []
    assets: list[dict] = []
    principals: list[dict] = [
        {"id": "sa:hub-dns", "kind": "service-account", "idp": "idp-cloud"},
        {"id": "sa:hub-log", "kind": "service-account", "idp": "idp-cloud"},
    ]
    constraints: list[dict] = [
        {"id": "oc-no-public-ip", "kind": "no-public-ip", "scope": "org"},
        {"id": "oc-admission", "kind": "restrict-service-kinds", "scope": "org"},
    ]

    for k in range(groups):
        if k % 2 == 0:
            firewall.append({"id": f"fw-g{k}-backstop", "scope": f"folder:f-g{k}", "priority": 100,
                             "action": "deny", "src": [ANY], "dst": [INTERNET]})
            constraints.append({"id": f"oc-g{k}-egress", "kind": "no-internet-egress",
                                "scope": f"f-g{k}"})
        elif k % 4 == 1:
            firewall.append({"id": f"fw-g{k}-no-onprem", "scope": f"folder:f-g{k}", "priority": 100,
                             "action": "deny", "src": [ONPREM], "dst": [ANY]})

    spoke_list: list[Spoke] = []
    ep_n = 0
    for i in range(spokes):
        kind = kinds[i]
        seg_id, prj = f"sp{i}", f"prj-sp{i}"
        group = i % groups
        cidr = _block_cidr(blocks[i]) if kind != "nr" else "172.16.0.0/16"
        app, db = f"s{i}-app", f"s{i}-db"
        zt = i in zt_apps
        app_principal = f"k8s:s{i}-app" if zt else f"sa:s{i}-app"
        published = kind == "nr" or i in routable_published
        spoke_list.append(
            Spoke(i, seg_id, prj, group, kind, cidr, zt, app, db, app_principal)
        )
        hierarchy.append({"id": prj, "kind": "project", "parent": f"f-g{group}",
                          "tags": ["env:prod" if i % 2 else "env:dev"]})
        hierarchy.append({"id": f"res-{i}", "kind": "resource", "parent": prj})
        segments.append({
            "id": seg_id, "project": prj,
            "routability": "non-routable" if kind == "nr" else "routable",
            "cidrs": [cidr],
            "trust_mode": "zero-trust" if i in zt_segments else "trusting",
        })
        if kind == "gw":
            rules = [{"id": f"gw{i}-out", "from": seg_id, "to": "hub", "action": "allow"}]
            if i % 2 == 0:
                rules.append({"id": f"gw{i}-in-pci", "from": "hub", "to": seg_id,
                              "action": "deny", "content_class": "pci:true"})
                rules.append({"id": f"gw{i}-in", "from": "hub", "to": seg_id, "action": "allow"})
            else:
                rules.append({"id": f"gw{i}-in-deny", "from": "hub", "to": seg_id,
                              "action": "deny"})
            edges.append({"id": f"gw-sp{i}", "kind": "gateway-appliance", "ends": ["hub", seg_id],
                          "gateway_rules": rules})
        else:
            edges.append({"id": f"peer-sp{i}", "kind": "peering", "ends": [seg_id, "hub"]})
        if i in inet_gateway:
            edges.append({
                "id": f"inet-sp{i}", "kind": "gateway-appliance", "ends": [seg_id, INTERNET],
                "gateway_rules": [
                    {"id": f"inet{i}-pii", "from": seg_id, "to": INTERNET, "action": "deny",
                     "content_class": "pii:true"},
                    {"id": f"inet{i}-out", "from": seg_id, "to": INTERNET, "action": "allow"},
                    {"id": f"inet{i}-in", "from": INTERNET, "to": seg_id, "action": "deny"},
                ],
            })

        app_host = _host(cidr, 10) if kind != "nr" else f"172.16.{i % 250}.10"
        app_spec = {
            "id": app, "project": prj, "segment": seg_id, "layer": "l4",
            "address": f"{app_host}:443",
            "compute": "kubernetes" if zt else "vm",
            "auth_mode": "zero-trust" if zt else "perimeter-trusting",
            "workload": f"wl-{i // 2}", "backends": [f"vm-{i}"], "run_as": [app_principal],
            "depends_on": [db, "hub-dns"],
        }
        if zt:
            app_spec["idp"] = "idp-mesh"
        specs.append(app_spec)
        specs.append({
            "id": db, "project": prj, "segment": seg_id, "layer": "l7", "fqdn": f"db{i}.internal",
            "compute": "paas", "auth_mode": "perimeter-trusting", "workload": f"wl-{i // 2}",
            "run_as": [f"sa:s{i}-db"], "reads": [f"a{i}"], "writes": [f"a{i}"],
        })
        principals.append({"id": app_principal,
                           "kind": "k8s-service-account" if zt else "service-account",
                           "idp": "idp-mesh" if zt else "idp-cloud"})
        principals.append({"id": f"sa:s{i}-db", "kind": "service-account", "idp": "idp-cloud"})
        assets.append({"id": f"a{i}", "resource": f"res-{i}", "tags": [tag_pool[i]]})

        if published:
            attachments.append({"id": f"att-{app}", "service": app, "policy": [
                {"id": f"ap{i}-ops", "action": "allow", "identities": ["grp:ops"]},
                {"id": f"ap{i}-no-write", "action": "deny", "methods": ["write", "admin"]},
            ]})
            endpoints.append({
                "id": f"ep-{app}", "segment": "hub", "attachment": f"att-{app}",
                "address": f"10.0.{1 + ep_n // 200}.{10 + ep_n % 200}:443",
                "policy": [
                    {"id": f"cp{i}-staff", "action": "allow", "identities": ["grp:staff"],
                     "methods": ["read", "connect"]},
                    {"id": f"cp{i}-no-onprem", "action": "deny", "cidrs": [ONPREM]},
                ],
            })
            ep_n += 1

        scope = f"segment:{seg_id}"
        firewall.append({"id": f"fw-sp{i}-hub", "scope": scope, "priority": 100,
                         "action": "allow", "dst": ["10.0.0.0/16"]})
        neighbour = (i + 1) % spokes
        deny_dst = _block_cidr(blocks[neighbour]) if kinds[neighbour] != "nr" else "10.255.0.0/16"
        firewall.append({"id": f"fw-sp{i}-deny", "scope": scope, "priority": 200,
                         "action": "deny", "dst": [deny_dst]})
        if i in open_spokes:
            firewall.append({"id": f"fw-sp{i}-peers", "scope": scope, "priority": 300,
                             "action": "allow", "dst": ["10.0.0.0/8"]})
            firewall.append({"id": f"fw-sp{i}-onprem", "scope": scope, "priority": 500,
                             "action": "allow", "src": [ONPREM], "ports": [443]})
        if i in egress_spokes:
            firewall.append({"id": f"fw-sp{i}-inet", "scope": scope, "priority": 400,
                             "action": "allow", "dst": [INTERNET]})

    # Callers: each app is allowed into one other group's perimeter.
    caller_group = {sp.index: (sp.group + 1 + sp.index % max(1, groups - 1)) % groups
                    for sp in spoke_list}
    groups_of: dict[str, list[str]] = {}
    for sp in spoke_list:
        if not sp.zero_trust_app:
            groups_of.setdefault(sp.app_principal, []).append(f"grp:callers-g{caller_group[sp.index]}")
            if sp.index in egress_spokes:
                groups_of[sp.app_principal].append("grp:egress")
    for p in principals:
        if p["id"] in groups_of:
            p["groups"] = groups_of[p["id"]]

    humans = max(6, spokes // 8)
    human_ids = [f"user:h{j}" for j in range(humans)]
    direct_fed = {h: f"mesh:h{j}" for j, h in enumerate(human_ids) if j % 3 != 2}
    via_cloud = {h: f"sa:ops-h{j}" for j, h in enumerate(human_ids) if j % 3 == 2}
    for j, h in enumerate(human_ids):
        grp = ["grp:staff"]
        if j % 3 == 2:
            grp.append("grp:ops")
        if j % 2 == 0:
            grp.append("grp:analysts")
        principals.append({"id": h, "kind": "human", "idp": "idp-corp", "groups": grp,
                           "device": {"managed": "true" if j % 4 != 3 else "false"}})
    for j, h in enumerate(human_ids):
        if h in direct_fed:
            principals.append({"id": direct_fed[h], "kind": "k8s-service-account",
                               "idp": "idp-mesh", "groups": ["grp:mesh-staff"]})
        else:
            principals.append({"id": via_cloud[h], "kind": "service-account", "idp": "idp-cloud"})
            principals.append({"id": f"mesh:ops-h{j}", "kind": "k8s-service-account",
                               "idp": "idp-mesh", "groups": ["grp:mesh-staff", "grp:mesh-ops"]})
    cloud_to_mesh = {}
    for sp in spoke_list:
        if not sp.zero_trust_app and sp.index % 2 == 0:
            cloud_to_mesh[sp.app_principal] = f"mesh:s{sp.index}"
            principals.append({"id": f"mesh:s{sp.index}", "kind": "k8s-service-account",
                               "idp": "idp-mesh"})
    for j, h in enumerate(human_ids):
        if h in via_cloud:
            cloud_to_mesh[via_cloud[h]] = f"mesh:ops-h{j}"
    trust_edges = [
        {"id": "fed-corp-mesh", "from": "idp-corp", "to": "idp-mesh",
         "kind": "workload-federation", "mapping": direct_fed},
        {"id": "trust-corp-cloud", "from": "idp-corp", "to": "idp-cloud",
         "kind": "two-way-trust", "mapping": via_cloud},
        {"id": "fed-cloud-mesh", "from": "idp-cloud", "to": "idp-mesh",
         "kind": "workload-federation", "mapping": cloud_to_mesh},
    ]

    mesh_callers = sorted(cloud_to_mesh.values())
    for sp in spoke_list:
        if sp.zero_trust_app:
            rbac.append({"id": f"rb-{sp.app}-staff", "principal": "grp:mesh-staff",
                         "role": [{"service": sp.app, "method": "read"}]})
            rbac.append({"id": f"rb-{sp.app}-ops", "principal": "grp:mesh-ops",
                         "role": [{"service": sp.app, "method": ANY}]})
            if mesh_callers:
                caller = mesh_callers[sp.index % len(mesh_callers)]
                rbac.append({"id": f"rb-{sp.app}-peer", "principal": caller,
                             "role": [{"service": sp.app, "method": ANY}]})
        rbac.append({"id": f"rb-{sp.db}-owner", "principal": sp.app_principal,
                     "role": [{"service": sp.db, "method": ANY}]})
        rbac.append({"id": f"rb-{sp.db}-analysts", "principal": "grp:analysts",
                     "role": [{"service": sp.db, "method": "read"}],
                     "condition": {"key": "data", "value": "open"}})

    perimeters = []
    dp_ids = []
    for k in range(groups):
        members = [sp for sp in spoke_list if sp.group == k]
        first_app = members[0].app
        if k % 2 == 0:
            dp_ids.append(f"dp-g{k}")
            perimeters.append({
                "id": f"dp-g{k}", "name": f"group {k}", "members": {"folders": [f"f-g{k}"]},
                "mechanisms": ["data-plane-perimeter"],
                "ingress": [
                    {"id": f"in-g{k}-staff", "identities": ["grp:staff"],
                     "device": {"managed": "true"}, "networks": [ONPREM],
                     "targets": [{"method": "read"}, {"method": "connect"}]},
                    {"id": f"in-g{k}-callers", "identities": [f"grp:callers-g{k}"],
                     "targets": [{"service": first_app}, {"project": members[-1].project,
                                                          "method": "read"}]},
                    {"id": f"in-g{k}-hub", "networks": ["10.0.0.0/16"]},
                ],
                "egress": [
                    {"id": f"eg-g{k}-hub", "targets": [{"project": "prj-hub"}]},
                    {"id": f"eg-g{k}-readers", "identities": ["grp:egress"],
                     "targets": [{"method": "read"}]},
                ],
            })
        else:
            perimeters.append({
                "id": f"ns-g{k}", "name": f"group {k}", "members": {"folders": [f"f-g{k}"]},
                "mechanisms": ["network-segmentation"],
                "ingress": [{"id": f"in-g{k}-hub", "networks": ["10.0.0.0/16"]}],
                "egress": [{"id": f"eg-g{k}-hub", "targets": [{"project": "prj-hub"}]}],
            })

    document = {
        "name": f"hub-and-spoke-{spokes}-seed{seed}",
        "description": f"generated hub-and-spoke estate, {spokes} spokes",
        "hierarchy": hierarchy,
        "networks": {"segments": segments, "edges": edges},
        "services": {"specs": specs, "attachments": attachments, "endpoints": endpoints},
        "identity": {
            "idps": [
                {"id": "idp-cloud", "kind": "cloud-native"},
                {"id": "idp-corp", "kind": "directory", "segment": ONPREM},
                {"id": "idp-mesh", "kind": "cluster"},
            ],
            "principals": principals,
            "trust_edges": trust_edges,
        },
        "policies": {"firewall": firewall, "rbac": rbac, "org_constraints": constraints},
        "perimeters": perimeters,
        "assets": assets,
    }
    return Estate(
        document=document,
        spokes=spoke_list,
        services=[s["id"] for s in specs],
        endpoints=[e["id"] for e in endpoints],
        endpoint_service={e["id"]: e["attachment"][len("att-"):] for e in endpoints},
        zero_trust_services=[sp.app for sp in spoke_list if sp.zero_trust_app],
        service_segment={s["id"]: s["segment"] for s in specs},
        humans=human_ids,
        principals=[p["id"] for p in principals],
        home_idp={p["id"]: p["idp"] for p in principals},
        trust_edges=trust_edges,
        workloads=sorted({s["workload"] for s in specs}),
        dp_perimeters=dp_ids,
        groups=groups,
    )


# ---------------------------------------------------------------------------
# Request streams
# ---------------------------------------------------------------------------

# Share of each kind of caller in a stream, in the order they are drawn. These
# shares, and the target and method splits in ``flow_requests``, are
# assumptions, not measured traffic: README.md gives the reason for each.
MIX = (
    ("workload", 0.35),   # workload to workload from its own segment, own identity
    ("human", 0.20),      # humans from ONPREM through published endpoints
    ("federated", 0.15),  # callers of zero-trust services, credentials federated
    ("egress", 0.10),     # internet egress from a spoke
    ("random", 0.20),     # anything, using every FlowRequest field
)


def _chain(estate: Estate, principal: str, target_idp: str, rng: random.Random, valid: bool):
    """A presented credential chain from the principal's home IdP, valid or not."""
    from cloudperim import model as m

    steps = [m.ChainStep(idp=estate.home_idp[principal], principal=principal, edge=None)]
    for _ in range(2):
        at = steps[-1]
        if at.idp == target_idp:
            break
        edge = next((e for e in estate.trust_edges
                     if e["from"] == at.idp and at.principal in e["mapping"]), None)
        if edge is None:
            break
        steps.append(m.ChainStep(idp=edge["to"], principal=edge["mapping"][at.principal],
                                 edge=edge["id"]))
    if not valid:
        edge = rng.choice(estate.trust_edges)
        steps.append(m.ChainStep(idp=edge["to"], principal=rng.choice(estate.principals),
                                 edge=edge["id"]))
    return m.CredentialChain(steps=tuple(steps))


def flow_requests(estate: Estate, rng: random.Random, count: int) -> list:
    """``count`` requests in the caller mix of ``MIX``, each kind in its exact share."""
    from cloudperim import model as m

    quota = [round(count * w) for _, w in MIX]
    quota[0] += count - sum(quota)
    order = [kind for (kind, _), n in zip(MIX, quota) for _ in range(n)]
    rng.shuffle(order)
    spokes = estate.spokes
    services = estate.services
    hub_services = [s for s in services if estate.service_segment[s] == "hub"]
    non_zt_callers = [sp for sp in spokes if not sp.zero_trust_app]
    loci = [sp.segment for sp in spokes] + ["hub", ONPREM, INTERNET]
    targets = services + estate.endpoints + [INTERNET]
    out = []
    for kind in order:
        source_address = None
        payload_tags: frozenset = frozenset()
        chain = None
        if kind == "workload":
            sp = rng.choice(spokes)
            principal = sp.app_principal if rng.random() < 0.7 else f"sa:{sp.db}"
            source = sp.segment
            roll = rng.random()
            if roll < 0.4:
                peer = rng.choice([x for x in spokes if x.group == sp.group])
                target = rng.choice((peer.app, peer.db))
            elif roll < 0.6:
                target = rng.choice(hub_services)
            else:
                target = rng.choice(services)
            method = rng.choice(METHODS)
        elif kind == "human":
            principal = rng.choice(estate.humans)
            source = ONPREM
            roll = rng.random()
            if roll < 0.5:
                target = rng.choice(estate.endpoints)
            elif roll < 0.75:
                target = estate.endpoint_service[rng.choice(estate.endpoints)]
            else:
                target = rng.choice(services)
            method = rng.choice(("read", "read", "connect", "write", "query"))
        elif kind == "federated":
            target = rng.choice(estate.zero_trust_services)
            if rng.random() < 0.5:
                principal, source = rng.choice(estate.humans), ONPREM
            else:
                sp = rng.choice(non_zt_callers)
                principal, source = sp.app_principal, sp.segment
            method = rng.choice(("read", "read", "connect", "write", "admin"))
        elif kind == "egress":
            sp = rng.choice(spokes)
            principal, source, target, method = sp.app_principal, sp.segment, INTERNET, "connect"
            if rng.random() < 0.3:
                payload_tags = frozenset({"pii:true"})
        else:
            principal = rng.choice(estate.principals)
            source = rng.choice(loci)
            target = rng.choice(targets)
            method = rng.choice(METHODS)
            if rng.random() < 0.4:
                if source in (ONPREM, INTERNET):
                    source_address = f"192.168.{rng.randrange(256)}.{rng.randrange(1, 255)}"
                elif rng.random() < 0.7:
                    cidr = next((sp.cidr for sp in spokes if sp.segment == source), "10.0.0.0/16")
                    source_address = _host(cidr, 77)
                else:
                    source_address = f"10.0.0.{rng.randrange(1, 255)}"
            if rng.random() < 0.4:
                payload_tags = frozenset(rng.sample(DATA_TAGS, rng.randint(1, 2)))
            svc = estate.endpoint_service.get(target, target)
            if svc in estate.zero_trust_services and rng.random() < 0.6:
                chain = _chain(estate, principal, "idp-mesh", rng, valid=rng.random() < 0.6)
        out.append(m.FlowRequest(principal=principal, source=source, target=target, method=method,
                                 source_address=source_address, payload_tags=payload_tags,
                                 presented_chain=chain))
    return out


# ---------------------------------------------------------------------------
# Restriction edits
# ---------------------------------------------------------------------------

EDIT_KINDS = ("deny_rule", "drop_gateway_allow", "drop_binding", "add_perimeter", "tighten_endpoint")


def restriction_edits(estate: Estate, rng: random.Random, count: int) -> list[dict]:
    """A sequence of ``count`` edits, each valid after the ones before it.

    The kinds come in equal numbers (deny firewall rule first for any
    remainder), in seeded order. Only bindings of zero-trust services are
    dropped, so every edit restricts.
    """
    doc = estate.document
    kinds = [EDIT_KINDS[i % len(EDIT_KINDS)] for i in range(count)]
    rng.shuffle(kinds)
    gateway_allows = {
        e["id"]: [r["id"] for r in e.get("gateway_rules", ()) if r["action"] == "allow"]
        for e in doc["networks"]["edges"]
    }
    bindings = [b["id"] for b in doc["policies"]["rbac"] if "-app-" in b["id"]]
    dp_folders = {f"f-g{k}" for k in range(estate.groups) if k % 2 == 0}
    parent = {n["id"]: n.get("parent") for n in doc["hierarchy"]}
    free_projects = [sp.project for sp in estate.spokes if parent[sp.project] not in dp_folders]
    free_projects.append("prj-hub")
    rng.shuffle(free_projects)
    routable_cidrs = [sp.cidr for sp in estate.spokes if sp.kind != "nr"]
    edits = []
    for n, kind in enumerate(kinds):
        if kind == "drop_gateway_allow" and not any(gateway_allows.values()):
            kind = "deny_rule"
        if kind == "drop_binding" and not bindings:
            kind = "deny_rule"
        if kind == "add_perimeter" and not free_projects:
            kind = "deny_rule"
        edit = {"n": n, "kind": kind}
        if kind == "deny_rule":
            if rng.random() < 0.5:
                edit["scope"] = f"segment:{rng.choice(estate.spokes).segment}"
            else:
                edit["scope"] = f"folder:f-g{rng.randrange(estate.groups)}"
            edit["priority"] = 1 + n  # ahead of every generated rule (100 and up)
            edit["dst"] = rng.choice(routable_cidrs + [INTERNET, "10.0.0.0/16"])
        elif kind == "drop_gateway_allow":
            edge = rng.choice(sorted(e for e, rules in gateway_allows.items() if rules))
            edit["edge"] = edge
            edit["rule"] = gateway_allows[edge].pop(0)
        elif kind == "drop_binding":
            edit["binding"] = bindings.pop(rng.randrange(len(bindings)))
        elif kind == "add_perimeter":
            edit["project"] = free_projects.pop()
        else:
            edit["endpoint"] = rng.choice(estate.endpoints)
            if rng.random() < 0.5:
                edit["identities"] = [rng.choice(("grp:analysts", "grp:ops", "grp:staff"))]
            else:
                edit["methods"] = [rng.choice(("read", "connect", "query"))]
        edits.append(edit)
    return edits
