"""Addresses and CIDR prefixes as integer intervals.

The one module that reads address and CIDR text. A prefix becomes the
interval ``(version, first, last)`` of the addresses it covers and an address
the one-address interval ``(version, a, a)``. Host bits are ignored, so
``10.0.0.5/24`` is ``10.0.0.0/24``. A v4 interval never meets a v6 one, and
malformed text parses to ``None``, which meets nothing.

Each parser is a pure function of its text, so the parser, validation, the
scenario index and the engine share one bounded memo of parses, across every
scenario that holds the text.
"""

from __future__ import annotations

import functools
import ipaddress
from typing import Any, Callable, Iterable, Sequence

Interval = tuple[int, int, int]

MEMO_SIZE = 4096  # parses kept; a stream of new texts evicts the least recently used


@functools.lru_cache(maxsize=MEMO_SIZE)
def _memo(parse: Callable[[str], Any], text: str) -> Any:
    return parse(text)


def _memoised(parse: Callable[[Any], Any]) -> Callable[[Any], Any]:
    """``parse``, answering a str from the memo. Anything else (a value a
    scenario built in code may hold) is parsed each time: it may not be
    hashable, and ``1``, ``1.0`` and ``True`` are equal keys that parse apart."""

    @functools.wraps(parse)
    def read(text: Any) -> Any:
        return _memo(parse, text) if type(text) is str else parse(text)

    return read


@_memoised
def network(text: str) -> Interval | None:
    """A CIDR (a bare address is its one-address prefix), or None if malformed."""
    try:
        net = ipaddress.ip_network(text, strict=False)
    except ValueError:
        return None
    return (net.version, int(net.network_address), int(net.broadcast_address))


@_memoised
def address(text: str | None) -> Interval | None:
    """One address, or None if absent or malformed."""
    if text is None:
        return None
    try:
        a = ipaddress.ip_address(text)
    except ValueError:
        return None
    return (a.version, int(a), int(a))


def host(text: str) -> Interval | None:
    """The host of an ``ip`` or ``ip:port`` address, however malformed its
    port; None if it is not an address."""
    return address(text.partition(":")[0])


@_memoised
def host_port(text: str) -> tuple[Interval, int | None] | None:
    """An ``ip`` or ``ip:port`` address as (host, port); None if the host is
    not an address or the port is not an integer in 0-65535."""
    host_text, sep, port = text.partition(":")
    net = address(host_text)
    if net is None:
        return None
    if not sep:
        return net, None
    try:
        number = int(port)
    except ValueError:
        return None
    return (net, number) if 0 <= number <= 65535 else None


def host_prefix(text: str) -> tuple[str, int | None]:
    """The one-address prefix of the host of an address ``host_port`` reads, and its port."""
    (version, first, _), port = host_port(text)
    return str((ipaddress.IPv4Network if version == 4 else ipaddress.IPv6Network)(first)), port


@_memoised
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
