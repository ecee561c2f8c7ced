"""Credential chains, trust edges, and federation."""

import dataclasses
import itertools
import random
import sys
from pathlib import Path

import pytest

from cloudperim import builtin_scenario, federate, parse_scenario, resolve_credential
from cloudperim import model as m
from cloudperim.errors import (
    ChainTooLongError,
    NoMappingError,
    UnknownIdpError,
    UnknownPrincipalError,
)

sys.path.insert(0, str(Path(__file__).parent))
from genrandom import random_scenario  # noqa: E402

AD_DOC = """
name: ad-trust
hierarchy:
  - {id: org, kind: organization}
  - {id: prj, kind: project, parent: org}
networks:
  segments:
    - {id: net, project: prj, routability: routable, cidrs: [10.0.0.0/16]}
identity:
  idps:
    - {id: ad-onprem, kind: directory, segment: ONPREM}
    - {id: ad-cloud, kind: directory, segment: net}
    - {id: idp-cloud, kind: cloud-native}
  principals:
    - {id: "user:dev", kind: human, idp: ad-onprem}
    - {id: "user:dev-cloud", kind: human, idp: ad-cloud}
    - {id: "ad:svc1", kind: ad-identity, idp: ad-cloud}
    - {id: "sa:gcp1", kind: service-account, idp: idp-cloud}
  trust_edges:
    - id: trust-onprem
      from: ad-onprem
      to: ad-cloud
      kind: one-way-trust
      mapping: {"user:dev": "user:dev-cloud"}
    - id: fed-wif
      from: ad-cloud
      to: idp-cloud
      kind: workload-federation
      mapping: {"ad:svc1": "sa:gcp1", "user:dev-cloud": "sa:gcp1"}
"""


@pytest.fixture
def ad():
    return parse_scenario(AD_DOC)


def test_home_idp_is_single_step_chain(ad):
    chain = resolve_credential(ad, "user:dev", "ad-onprem")
    assert chain is not None and len(chain) == 1
    assert chain.terminal_principal == "user:dev"
    assert chain.steps[0].edge is None


def test_onprem_ad_user_reaches_cloud_domain_in_two_steps(ad):
    chain = resolve_credential(ad, "user:dev", "ad-cloud")
    assert chain is not None and len(chain) == 2
    assert chain.steps[1].edge == "trust-onprem"
    assert chain.terminal_principal == "user:dev-cloud"


def test_workload_federation_asserts_mapped_principal(ad):
    chain = resolve_credential(ad, "ad:svc1", "idp-cloud")
    assert chain is not None
    assert chain.terminal_principal == "sa:gcp1"
    assert chain.terminal_idp == "idp-cloud"


def test_two_step_federation_composes_mappings(ad):
    chain = resolve_credential(ad, "user:dev", "idp-cloud")
    assert chain is not None and len(chain) == 3
    # oracle: compose the two mapping tables by hand
    hop1 = {"user:dev": "user:dev-cloud"}
    hop2 = {"ad:svc1": "sa:gcp1", "user:dev-cloud": "sa:gcp1"}
    assert chain.terminal_principal == hop2[hop1["user:dev"]]


def test_no_trust_path_returns_none(ad):
    # nothing maps from idp-cloud outward
    assert resolve_credential(ad, "sa:gcp1", "ad-onprem") is None


def test_unknown_principal_and_idp(ad):
    with pytest.raises(UnknownPrincipalError):
        resolve_credential(ad, "ghost", "idp-cloud")
    with pytest.raises(UnknownIdpError):
        resolve_credential(ad, "user:dev", "idp-ghost")


def test_federate_applies_mapping(ad):
    edge = next(e for e in ad.trust_edges if e.id == "fed-wif")
    chain = m.CredentialChain(steps=(m.ChainStep(idp="ad-cloud", principal="ad:svc1", edge=None),))
    extended = federate(chain, edge)
    assert extended.terminal_principal == "sa:gcp1"
    assert extended.steps[-1].edge == "fed-wif"


def test_federate_missing_mapping_raises(ad):
    edge = next(e for e in ad.trust_edges if e.id == "trust-onprem")
    chain = m.CredentialChain(
        steps=(m.ChainStep(idp="ad-onprem", principal="user:unknown", edge=None),)
    )
    with pytest.raises(NoMappingError):
        federate(chain, edge)


def test_federate_wrong_source_idp_raises(ad):
    edge = next(e for e in ad.trust_edges if e.id == "fed-wif")
    chain = m.CredentialChain(steps=(m.ChainStep(idp="ad-onprem", principal="user:dev", edge=None),))
    with pytest.raises(NoMappingError):
        federate(chain, edge)


def test_federate_chain_bound(ad):
    edge = next(e for e in ad.trust_edges if e.id == "fed-wif")
    steps = tuple(
        m.ChainStep(idp="ad-cloud", principal="ad:svc1", edge=None) for _ in range(4)
    )
    with pytest.raises(ChainTooLongError):
        federate(m.CredentialChain(steps=steps), edge, bound=4)


def test_chain_bound_limits_resolution(ad):
    bounded = dataclasses.replace(ad, chain_bound=2)
    assert resolve_credential(bounded, "user:dev", "idp-cloud") is None  # needs 3 steps
    assert resolve_credential(ad, "user:dev", "idp-cloud") is not None


def test_two_way_trust_traverses_in_reverse():
    doc = AD_DOC.replace("kind: one-way-trust", "kind: two-way-trust")
    s = parse_scenario(doc)
    chain = resolve_credential(s, "user:dev-cloud", "ad-onprem")
    assert chain is not None
    assert chain.terminal_principal == "user:dev"


def test_fig5_federation_end_to_end():
    s = builtin_scenario("fig5-vm")
    chain = resolve_credential(s, "ad:order-app", "idp-cloud")
    assert chain is not None
    assert chain.terminal_principal == "sa:order-fed"


def _brute_force_reachable(s, principal: m.Principal, bound: int) -> set[tuple[str, str]]:
    """All (idp, asserted principal) states reachable by composing mappings."""
    states = {(principal.idp, principal.id)}
    frontier = set(states)
    for _ in range(bound - 1):
        nxt = set()
        for idp, who in frontier:
            for e in s.trust_edges:
                if e.src == idp and who in e.mapping:
                    nxt.add((e.dst, e.mapping[who]))
                if e.kind is m.TrustKind.TWO_WAY_TRUST and e.dst == idp:
                    inv = {}
                    for k, v in sorted(e.mapping.items()):
                        inv.setdefault(v, k)
                    if who in inv:
                        nxt.add((e.src, inv[who]))
        frontier = nxt - states
        states |= nxt
    return states


@pytest.mark.parametrize("seed", range(20))
def test_privilege_non_amplification(seed):
    """Any chain terminal is reachable by brute-force mapping composition."""
    rng = random.Random(3000 + seed)
    s = random_scenario(rng)
    for principal, idp in itertools.product(s.principals, s.idps):
        chain = resolve_credential(s, principal.id, idp.id)
        if chain is None:
            continue
        reachable = _brute_force_reachable(s, principal, s.chain_bound)
        assert (chain.terminal_idp, chain.terminal_principal) in reachable


@pytest.mark.parametrize("seed", range(20))
def test_resolution_to_home_idp_always_single_step(seed):
    rng = random.Random(4000 + seed)
    s = random_scenario(rng)
    for principal in s.principals:
        chain = resolve_credential(s, principal.id, principal.idp)
        assert chain is not None and len(chain) == 1


@pytest.mark.parametrize("seed", range(20))
def test_removing_trust_edge_never_creates_chain(seed):
    rng = random.Random(5000 + seed)
    s = random_scenario(rng, with_trust_edges=True)
    assert s.trust_edges
    victim = rng.choice(s.trust_edges)
    smaller = dataclasses.replace(
        s, trust_edges=tuple(e for e in s.trust_edges if e.id != victim.id)
    )
    for principal, idp in itertools.product(s.principals, s.idps):
        before = resolve_credential(s, principal.id, idp.id)
        after = resolve_credential(smaller, principal.id, idp.id)
        if before is None:
            assert after is None
