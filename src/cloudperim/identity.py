"""Credential resolution across identity providers.

A credential is modeled as an asserted principal identity, not token bytes:
policy decisions depend only on who the chain terminates as. Chains follow
trust edges from the principal's home idp, applying each edge's principal
mapping; a federation step asserts exactly the mapped principal, never a
superset. As with routes, one breadth-first pass per principal yields its
shortest chain to every idp, memoised in the scenario index.
"""

from __future__ import annotations

from . import model as m
from .errors import UnknownIdpError, UnknownPrincipalError
from .scenario import Scenario, ScenarioIndex


def _chains(idx: ScenarioIndex, p: m.Principal, bound: int) -> dict[str, m.CredentialChain]:
    """Idp -> ``p``'s chain to it, for every idp reachable in at most ``bound``
    steps. Each level is stably sorted by its chains' edge-id sequences (a
    forward move stays before a reverse one) before the first chain to reach
    a state keeps it, so the first to reach an idp is minimal by (steps, edge ids)."""
    home = m.CredentialChain(steps=(m.ChainStep(idp=p.idp, principal=p.id, edge=None),))
    chains, seen, level = {p.idp: home}, {(p.idp, p.id)}, [home]
    for _ in range(bound - 1):
        reached = []
        for chain in level:
            for edge, nxt_idp, mapping in idx.trust_moves.get(chain.terminal_idp, ()):
                mapped = mapping.get(chain.terminal_principal)
                if mapped is not None and (nxt_idp, mapped) not in seen:
                    step = m.ChainStep(idp=nxt_idp, principal=mapped, edge=edge.id)
                    reached.append(m.CredentialChain(steps=chain.steps + (step,)))
        reached.sort(key=lambda c: [step.edge for step in c.steps[1:]])
        level = []
        for chain in reached:
            state = (chain.terminal_idp, chain.terminal_principal)
            if state not in seen:
                seen.add(state)
                chains.setdefault(state[0], chain)
                level.append(chain)
    return chains


def resolve_credential(s: Scenario, principal: str, target_idp: str) -> m.CredentialChain | None:
    """Shortest trust path from the principal's home idp to ``target_idp``.

    Returns None when no chain exists within the scenario's chain bound.
    """
    idx = s.index()
    if principal not in idx.principals:
        raise UnknownPrincipalError(principal)
    if target_idp not in idx.idps:
        raise UnknownIdpError(target_idp)
    chains = idx.credential_chains.get(principal)
    if chains is None:
        chains = idx.credential_chains[principal] = _chains(idx, idx.principals[principal], s.chain_bound)
    return chains.get(target_idp)


def chain_is_valid(s: Scenario, chain: m.CredentialChain, principal: str, target_idp: str) -> bool:
    """Check a presented chain: starts at the principal's home idp, follows
    existing edges with their mappings, and terminates at the target idp. A
    reverse two-way step may assert any source principal mapped to the previous
    one, not only the smallest, which resolution asserts; a step over a
    two-way self-loop holds if either reading does."""
    idx = s.index()
    p = idx.principals.get(principal)
    if p is None or len(chain) > s.chain_bound or chain.steps[:1] != (m.ChainStep(p.idp, p.id, None),):
        return False
    for prev, step in zip(chain.steps, chain.steps[1:]):
        edge = idx.trust_edges.get(step.edge or "")
        if edge is None:
            return False
        forward = (edge.src, edge.dst) == (prev.idp, step.idp) and edge.mapping.get(prev.principal) == step.principal
        reverse = (
            edge.kind is m.TrustKind.TWO_WAY_TRUST
            and (edge.dst, edge.src) == (prev.idp, step.idp)
            and edge.mapping.get(step.principal) == prev.principal
        )
        if not (forward or reverse):
            return False
    return chain.terminal_idp == target_idp
