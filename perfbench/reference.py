"""Reference kernel: a fixed amount of pure-Python work to gauge host speed.

The benchmark's hosts are shared virtual machines whose speed drifts by
20-40 % over tens of seconds, far more than the changes the benchmark must
resolve.  The kernel imports nothing from ``repro``: a small event loop over
``heapq`` with slotted objects and a dict, the same kinds of operation as
the simulator's hot path.  Timing it right before and after a measured
stretch gives the host's speed during that stretch, and the benchmark scales
its host times by ``REFERENCE_S / kernel seconds``.  The result reads "host
seconds on a host that runs the kernel in ``REFERENCE_S`` seconds".

A change to the program never changes the kernel's time; a change to this
file changes every timed metric and is a benchmark change.
"""

from __future__ import annotations

import heapq
import statistics
import time

#: Kernel seconds of the nominal host the timings are scaled to.
REFERENCE_S = 0.02

_OBJECTS = 4000
_STEPS = 12000
_QUEUE = 800


class _Node:
    __slots__ = ("key", "value", "peer")

    def __init__(self, key: int) -> None:
        self.key = key
        self.value = 3 * key
        self.peer = None


def _kernel() -> int:
    nodes = [_Node(i) for i in range(_OBJECTS)]
    for index, node in enumerate(nodes):
        node.peer = nodes[(index * 7919) % _OBJECTS]
    queue: list = []
    seen = {}
    x = 12345
    for step in range(_STEPS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        heapq.heappush(queue, (x, step, nodes[x % _OBJECTS]))
        if len(queue) > _QUEUE:
            _, _, node = heapq.heappop(queue)
            seen[node.key] = node.peer.value + 1
    return len(seen)


def kernel_seconds(repeats: int = 3) -> float:
    """Median wall time of ``repeats`` kernel runs."""
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        _kernel()
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)
