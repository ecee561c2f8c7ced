"""Machine speed, read off a fixed reference kernel run between timed steps.

On a shared virtual machine the same code runs up to about 1.7x slower in
some stretches than in others. A stretch can last a second or outlast a
whole run, so raw times of runs made minutes apart differ by more than any
change worth measuring. The reference kernel below is plain-Python work of
the same kind as cloudperim's (small frozen dataclasses, dict and set
lookups, address parsing, string joins, small sorts) that never calls
cloudperim. A ``Meter`` runs it every ``INTERVAL`` seconds between the timed
steps of a pass, outside their timers, and the kernel times nearest a step
say how slow the machine was while it ran. Each step's time is divided by
that slowness.

Slowness 1.0 is the kernel's time on the machine where the benchmark was
set up (``REFERENCE_S``), so scaled timings read as seconds at that speed.
A change to cloudperim moves the pass times and not the kernel, so it moves
the scaled timings by the same share as the raw ones.
"""

from __future__ import annotations

import dataclasses
import ipaddress
import statistics
import time

perf = time.perf_counter
INTERVAL = 0.05      # seconds of timed work between two kernel runs
WINDOW = 3           # kernel runs on each side of a step that give its slowness
REFERENCE_S = 0.004  # about one kernel run on a 2.1 GHz Xeon vCPU in its fastest stretches


@dataclasses.dataclass(frozen=True)
class _Rule:
    id: str
    cidr: str
    tags: tuple[str, ...]
    priority: int


def _table() -> tuple[list[_Rule], dict[str, _Rule], list[str]]:
    rules = [
        _Rule(f"r{i}", f"10.{i % 200}.{(i * 7) % 256}.0/24",
              tuple(f"t{(i + k) % 13}" for k in range(i % 4)), (i * 37) % 1000)
        for i in range(600)
    ]
    return rules, {r.id: r for r in rules}, [f"10.{i % 200}.{(i * 7) % 256}.{i % 250}" for i in range(600)]


_RULES, _BY_ID, _ADDRESSES = _table()


def kernel() -> int:
    """One fixed unit of reference work; returns a checksum."""
    total = 0
    for step in range(6):
        wanted = frozenset(f"t{(step * 5 + k) % 13}" for k in range(4))
        matched = []
        for i in range(0, 600, 3):
            rule = _BY_ID.get(f"r{(i * 11 + step) % 600}")
            if rule is None or not wanted.intersection(rule.tags):
                continue
            address = ipaddress.ip_address(_ADDRESSES[i])
            inside = address in ipaddress.ip_network(rule.cidr)
            matched.append(dataclasses.replace(rule, priority=rule.priority + inside))
        matched.sort(key=lambda r: (r.priority, r.id))
        total += len(";".join(f"{r.id}:{r.priority}" for r in matched[:50]))
    return total


_CHECKSUM = kernel()


def timed_kernel() -> float:
    t0 = perf()
    if kernel() != _CHECKSUM:
        raise RuntimeError("the reference kernel gave a different result")
    return perf() - t0


class Meter:
    """Kernel times taken between the timed steps of a run.

    A step is scaled by the median of the ``WINDOW`` kernel runs before it
    and the ``WINDOW`` after it, so by the machine's speed within a few
    tenths of a second of the step: some slow stretches are that short.
    """

    def __init__(self) -> None:
        self.times: list[float] = []
        self.due = perf()

    def mark(self) -> int:
        """Where the next step falls in the kernel series."""
        return len(self.times)

    def tick(self) -> float:
        """Run the kernel if it is due; returns the seconds this took."""
        start = perf()
        if start < self.due:
            return 0.0
        self.times.append(timed_kernel())
        end = perf()
        self.due = end + INTERVAL
        return end - start

    def finish(self) -> None:
        """Run the kernels that follow the last step."""
        self.times += [timed_kernel() for _ in range(WINDOW)]

    def slowness(self, mark: int) -> float:
        """Slowness around a step at ``mark``; call ``finish`` first."""
        window = self.times[max(0, mark - WINDOW):mark + WINDOW]
        return statistics.median(window) / REFERENCE_S

    def around(self, step):
        """``step()``'s result divided by the slowness measured right before
        and right after it."""
        before = [timed_kernel() for _ in range(WINDOW)]
        value = step()
        after = [timed_kernel() for _ in range(WINDOW)]
        return value / (statistics.median(before + after) / REFERENCE_S)
