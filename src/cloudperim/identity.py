"""Credential resolution across identity providers.

A credential is modeled as an asserted principal identity, not token bytes:
policy decisions depend only on who the chain terminates as. Chains follow
trust edges from the principal's home idp, applying each edge's principal
mapping; a federation step asserts exactly the mapped principal, never a
superset.
"""

from __future__ import annotations

import heapq

from . import model as m
from .errors import (
    ChainTooLongError,
    NoMappingError,
    UnknownIdpError,
    UnknownPrincipalError,
)
from .scenario import Scenario

DEFAULT_CHAIN_BOUND = 4


def _traversals(s: Scenario, at_idp: str):
    """Yield (edge, next idp, mapping) usable from ``at_idp``.

    Two-way trust edges are traversable in reverse with the inverted mapping
    (deterministically picking the smallest source principal on collisions).
    """
    for e in s.trust_edges:
        if e.src == at_idp:
            yield e, e.dst, e.mapping
        if e.kind is m.TrustKind.TWO_WAY_TRUST and e.dst == at_idp:
            inverted: dict[str, str] = {}
            for src_p, dst_p in sorted(e.mapping.items()):
                inverted.setdefault(dst_p, src_p)
            yield e, e.src, inverted


def federate(
    chain: m.CredentialChain, edge: m.TrustEdge, bound: int = DEFAULT_CHAIN_BOUND
) -> m.CredentialChain:
    """Extend a chain across one trust edge, asserting the mapped principal."""
    if chain.terminal_idp != edge.src:
        raise NoMappingError(
            f"chain terminates at idp {chain.terminal_idp!r}, edge starts at {edge.src!r}"
        )
    if len(chain) + 1 > bound:
        raise ChainTooLongError(f"chain would exceed bound {bound}")
    mapped = edge.mapping.get(chain.terminal_principal)
    if mapped is None:
        raise NoMappingError(
            f"edge {edge.id!r} has no mapping for principal {chain.terminal_principal!r}"
        )
    step = m.ChainStep(idp=edge.dst, principal=mapped, edge=edge.id)
    return m.CredentialChain(steps=chain.steps + (step,))


def resolve_credential(
    s: Scenario, principal: str, target_idp: str, bound: int | None = None
) -> m.CredentialChain | None:
    """Shortest trust path from the principal's home idp to ``target_idp``.

    Returns None when no chain exists within the bound (no trust path).
    """
    idx = s.index()
    if principal not in idx.principals:
        raise UnknownPrincipalError(principal)
    if target_idp not in idx.idps:
        raise UnknownIdpError(target_idp)
    bound = bound if bound is not None else s.chain_bound
    cache = idx.credential_cache
    key = (principal, target_idp, bound)
    if key in cache:
        return cache[key]

    p = idx.principals[principal]
    home = m.CredentialChain(steps=(m.ChainStep(idp=p.idp, principal=p.id, edge=None),))
    result: m.CredentialChain | None = None
    if p.idp == target_idp:
        result = home
    else:
        counter = 0
        queue: list[tuple[int, tuple[str, ...], int, m.CredentialChain]] = [(1, (), 0, home)]
        best: dict[tuple[str, str], tuple[int, tuple[str, ...]]] = {(p.idp, p.id): (1, ())}
        while queue:
            length, key_edges, _, chain = heapq.heappop(queue)
            if chain.terminal_idp == target_idp:
                result = chain
                break
            if length + 1 > bound:
                continue
            for edge, nxt_idp, mapping in _traversals(s, chain.terminal_idp):
                mapped = mapping.get(chain.terminal_principal)
                if mapped is None:
                    continue
                step = m.ChainStep(idp=nxt_idp, principal=mapped, edge=edge.id)
                cand_chain = m.CredentialChain(steps=chain.steps + (step,))
                cand = (length + 1, key_edges + (edge.id,))
                state = (nxt_idp, mapped)
                if state in best and best[state] <= cand:
                    continue
                best[state] = cand
                counter += 1
                heapq.heappush(queue, (cand[0], cand[1], counter, cand_chain))
    cache[key] = result
    return result


def chain_is_valid(s: Scenario, chain: m.CredentialChain, principal: str, target_idp: str) -> bool:
    """Check a presented chain: starts at the principal's home idp, follows
    existing edges with their mappings, and terminates at the target idp."""
    idx = s.index()
    p = idx.principals.get(principal)
    if p is None or not chain.steps:
        return False
    first = chain.steps[0]
    if first.idp != p.idp or first.principal != p.id or first.edge is not None:
        return False
    if len(chain) > s.chain_bound:
        return False
    edges = {e.id: e for e in s.trust_edges}
    for prev, step in zip(chain.steps, chain.steps[1:]):
        edge = edges.get(step.edge or "")
        if edge is None:
            return False
        forward = edge.src == prev.idp and edge.dst == step.idp
        reverse = (
            edge.kind is m.TrustKind.TWO_WAY_TRUST
            and edge.dst == prev.idp
            and edge.src == step.idp
        )
        if forward:
            if edge.mapping.get(prev.principal) != step.principal:
                return False
        elif reverse:
            if edge.mapping.get(step.principal) != prev.principal:
                return False
        else:
            return False
    return chain.terminal_idp == target_idp
