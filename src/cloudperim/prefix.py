"""Addresses and CIDR prefixes as integer intervals.

The one module that reads address and CIDR text. A prefix becomes the
interval ``(version, first, last)`` of the addresses it covers and an address
the one-address interval ``(version, a, a)``. Host bits are ignored, so
``10.0.0.5/24`` is ``10.0.0.0/24``. A v4 interval never meets a v6 one, and
malformed text parses to ``None``, which meets nothing.
"""

from __future__ import annotations

import ipaddress
from typing import Iterable, Sequence

Interval = tuple[int, int, int]


def network(text: str) -> Interval | None:
    """A CIDR (a bare address is its one-address prefix), or None if malformed."""
    try:
        net = ipaddress.ip_network(text, strict=False)
    except ValueError:
        return None
    return (net.version, int(net.network_address), int(net.broadcast_address))


def address(text: str | None) -> Interval | None:
    """One address, or None if absent or malformed."""
    if text is None:
        return None
    try:
        a = ipaddress.ip_address(text)
    except ValueError:
        return None
    return (a.version, int(a), int(a))


def host_port(text: str) -> tuple[Interval, int | None] | None:
    """An ``ip`` or ``ip:port`` address as (host, port); None if the host is
    not an address or the port is not an integer in 0-65535."""
    host, sep, port = text.partition(":")
    net = address(host)
    if net is None:
        return None
    if not sep:
        return net, None
    try:
        number = int(port)
    except ValueError:
        return None
    return (net, number) if 0 <= number <= 65535 else None


def first_host(text: str) -> str | None:
    """The address after a CIDR's network address, or the one address of a
    one-address prefix; None if the CIDR is malformed."""
    try:
        net = ipaddress.ip_network(text, strict=False)
    except ValueError:
        return None
    return str(net.network_address + (net.num_addresses > 1))


def meets_any(net: Interval | None, nets: Iterable[Interval]) -> bool:
    """True if ``net`` shares an address with one of ``nets``."""
    if net is None:
        return False
    version, first, last = net
    return any(v == version and f <= last and first <= l for v, f, l in nets)


def overlapping_pairs(groups: Sequence[Sequence[Interval]]) -> list[tuple[int, int]]:
    """Sorted index pairs ``(i, j)``, ``i < j``, of groups that share an address.

    One sort and one sweep: an interval meets every earlier-starting interval
    of its version that has not ended before it starts.
    """
    spans = sorted((net, i) for i, nets in enumerate(groups) for net in nets)
    pairs: set[tuple[int, int]] = set()
    active: list[tuple[Interval, int]] = []
    for net, i in spans:
        version, first, _ = net
        active = [(a, j) for a, j in active if a[0] == version and a[2] >= first]
        pairs.update((min(i, j), max(i, j)) for _, j in active if j != i)
        active.append((net, i))
    return sorted(pairs)
