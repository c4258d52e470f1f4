"""Span tracing and simulator profiling from outside the program.

The benchmark never edits the package it measures. It times a layer by
routing its own calls into that layer's public functions through
:meth:`Tracer.call`, which records one span (name, layer, start, end,
parent) per call in memory. :class:`NullTracer` is the untraced twin:
the same call shape with no bookkeeping, so traced and untraced runs
execute the same benchmark code.

The simulator's per-event work happens inside ``SimNetwork.run`` where
no public boundary exists, so :func:`profile_simulator` attributes it
with the standard-library profiler instead: exact call counts for the
hot-path functions, and approximate (profiled) self-time shares per
simulator module.
"""

import cProfile
import json
import os
import pstats
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Layers spans are attributed to. ``bench`` is the benchmark's own glue
#: (building inputs, copying tables), the root span of every operation.
LAYERS = (
    "bench", "topology", "routing", "core", "lint", "deploy",
    "simulator", "detect", "obs", "fuzz",
)


class NullTracer:
    """Calls straight through; used for every untraced operation."""

    enabled = False

    def call(self, layer: str, name: str, fn: Callable[..., Any],
             *args: Any, **kwargs: Any) -> Any:
        return fn(*args, **kwargs)


class Tracer:
    """In-memory span recorder; spans are written out once, at the end."""

    enabled = True

    def __init__(self) -> None:
        #: (op, name, layer, start, end, parent index or -1)
        self.spans: List[Tuple[int, str, str, float, float, int]] = []
        self._stack: List[int] = []
        self.op = 0

    def call(self, layer: str, name: str, fn: Callable[..., Any],
             *args: Any, **kwargs: Any) -> Any:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append((self.op, name, layer, 0.0, 0.0, parent))
        self._stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (self.op, name, layer, start, end, parent)

    def self_seconds(self) -> Dict[str, float]:
        """Per-layer self time: each span's duration minus its children's."""
        child = [0.0] * len(self.spans)
        for _, _, _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = dict.fromkeys(LAYERS, 0.0)
        for index, (_, _, layer, start, end, _) in enumerate(self.spans):
            totals[layer] += (end - start) - child[index]
        return totals

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                [
                    {"op": op, "name": name, "layer": layer,
                     "start": start, "end": end, "parent": parent}
                    for op, name, layer, start, end, parent in self.spans
                ],
                handle,
            )


def _code_key(fn: Callable[..., Any]) -> Tuple[str, int, str]:
    code = fn.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


def profile_simulator(
    run: Callable[[], Any], delivered: Callable[[], int]
) -> Dict[str, float]:
    """Profile one ``run()`` and attribute it to simulator modules.

    Returns exact hot-path call counts per delivered packet
    (``sim.calls_per_packet.*``) and approximate self-time shares of the
    profiled run (``profiled.self_share.*``).
    """
    from repro.simulator.host import FastSimHost
    from repro.simulator.switch import FastSimSwitch
    from repro.simulator.txport import FastTxPort

    hot = {
        "switch_receive": _code_key(FastSimSwitch.receive),
        "txport_complete_tx": _code_key(FastTxPort._complete_tx),
        "txport_deliver_next": _code_key(FastTxPort._deliver_next),
        "host_receive": _code_key(FastSimHost.receive),
    }
    profiler = cProfile.Profile()
    profiler.runcall(run)
    stats = pstats.Stats(profiler).stats  # type: ignore[attr-defined]
    packets = max(delivered(), 1)

    metrics: Dict[str, float] = {}
    for label, key in hot.items():
        calls = stats[key][1] if key in stats else 0
        metrics[f"sim.calls_per_packet.{label}"] = calls / packets

    shares = dict.fromkeys(
        ("engine", "switch", "txport", "host", "buffers", "detection", "obs"),
        0.0,
    )
    total = 0.0
    for (filename, _, _), entry in stats.items():
        tottime = entry[2]
        total += tottime
        label = _module_label(filename)
        if label in shares:
            shares[label] += tottime
    for label, seconds in shares.items():
        metrics[f"profiled.self_share.{label}"] = seconds / total if total else 0.0
    return metrics


def _module_label(filename: str) -> Optional[str]:
    parts = filename.replace("\\", "/").split("/")
    if len(parts) >= 3 and parts[-3] == "repro" and parts[-2] == "obs":
        return "obs"
    if len(parts) >= 2 and parts[-2] == "simulator":
        return os.path.splitext(parts[-1])[0]
    return None
