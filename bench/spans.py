"""Bench-side tracing: spans around public entry points, and the ledger.

Used only by the traced run, which switches on the system's own
telemetry (``AdaptiveSystem.enable_telemetry()``, which makes the kernel
time every event handler into ``kernel_handler_seconds{handler=...}``)
and wraps the public calls listed in :data:`WRAP_POINTS` with a span
recorder (:func:`activate` before the world is built, :func:`attach`
once its system exists).  Nothing here is installed during a timed run: tracing
perturbs the program (telemetry routes sessions off the generated fast
path), which is why it never feeds an end-to-end number.

A span is ``(name, start, end, parent)`` with ``parent`` the index of the
enclosing bench span (-1 at top level, i.e. directly inside a kernel
handler or the workload driver).  A layer's self time is its spans'
duration minus the child spans inside them (:func:`self_times`).
"""

from __future__ import annotations

import functools
import importlib
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (module, attribute path, span name).  Functions imported by name are
#: wrapped in every module that holds a reference to them.
WRAP_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.mantts.api", "MANTTS.open", "mantts.open"),
    ("repro.mantts.api", "AdaptiveConnection.send", "mantts.conn_send"),
    ("repro.mantts.api", "AdaptiveConnection.close", "mantts.conn_close"),
    ("repro.tko.session", "TKOSession.send", "tko.session_send"),
    ("repro.netsim.network", "Network.send", "netsim.network_send"),
    ("repro.transport.fabric", "RealFabric.send", "transport.fabric_send"),
    ("repro.netsim.frame", "encode_frame_into", "netsim.frame.encode"),
    ("repro.transport.fabric", "encode_frame_into", "netsim.frame.encode"),
    ("repro.shard.gateway", "encode_frame_into", "netsim.frame.encode"),
    ("repro.netsim.frame", "decode_frame", "netsim.frame.decode"),
    ("repro.transport.loopback", "decode_frame", "netsim.frame.decode"),
    ("repro.transport.udp", "decode_frame", "netsim.frame.decode"),
    ("repro.shard.gateway", "decode_frame", "netsim.frame.decode"),
    ("repro.shard.coordinator", "ShardCoordinator.run", "shard.coordinator_run"),
    ("repro.sweep.pool", "WorkerTeam.gather", "sweep.team_gather"),
)

#: first component of a kernel handler's ``__qualname__`` -> owning module:
#: every name seen in traced runs of the five workloads, plus the classes
#: under ``src/`` that hand their own methods to the kernel.  A traced run
#: that meets a name not listed here reports itself incorrect and names it.
HANDLER_MODULES: Dict[str, str] = {
    # sim: timer and process trampolines own no protocol work of their own
    "Timer": "sim", "Process": "sim", "EventChain": "sim",
    "Link": "netsim", "Node": "netsim", "Network": "netsim",
    "FaultInjector": "netsim",
    # host: CPU completion callbacks, the connection manager's timer groups
    "noop": "host", "Host": "host", "TimerGroup": "host",
    "TKOProtocol": "tko", "TKOSession": "tko", "TKOEvent": "tko",
    "TKOSynthesizer": "tko", "CompiledExecutor": "tko",
    "ReferenceExecutor": "tko", "_ExecutorBase": "tko",
    "_RetransmitBase": "mechanisms", "DelayedAck": "mechanisms",
    "_ExplicitBase": "mechanisms", "Explicit3Way": "mechanisms",
    "ConnectionLifecycle": "mantts", "NetworkMonitor": "mantts",
    "RealFabric": "transport",
    # core: the scenarios' own wave/send/close handlers; MANTTS.open runs
    # inside them and is split out by its span
    "ChurnScenario": "core", "GroupedChurnScenario": "core",
}


def handler_module(qualname: str) -> Optional[str]:
    """The module that owns a kernel handler, by its qualified name."""
    return HANDLER_MODULES.get(qualname.split(".", 1)[0])


class SpanRecorder:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: List[Optional[Tuple[str, float, float, int]]] = []
        self._stack: List[int] = []
        self._undo: List[Tuple[Any, str, Any]] = []
        self._telemetry = None

    # ------------------------------------------------------------------
    def wrap(self, fn: Callable, name: str) -> Callable:
        spans, stack, clock = self.spans, self._stack, perf_counter

        @functools.wraps(fn)   # keeps __qualname__: the kernel's handler label
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[index] = (name, t0, t1, parent)

        return traced

    def install(self) -> None:
        for module_name, path, span_name in WRAP_POINTS:
            owner: Any = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
            setattr(owner, attr, self.wrap(original, span_name))
            self._undo.append((owner, attr, original))

    def reset(self) -> None:
        """Forget everything recorded so far (a forked shard worker starts
        with its parent's spans, one of them still open)."""
        self.spans.clear()    # in place: the wrappers hold these lists
        self._stack.clear()

    def remove(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def finish(self) -> Dict[str, Any]:
        """Stop tracing; return spans and the kernel's handler histogram."""
        self.remove()
        handlers: Dict[str, List[float]] = {}
        gauges: Dict[str, float] = {}
        dropped = 0
        if self._telemetry is not None:
            tele = self._telemetry
            for metric in tele.metrics.collect():
                if metric.name == "kernel_handler_seconds":
                    name = dict(metric.labels)["handler"]
                    handlers[name] = [metric.count, metric.sum]
                elif metric.name in ("kernel_wheel_cancelled_total",
                                     "kernel_lazy_deletion_ratio"):
                    gauges[metric.name] = metric.value
            dropped = tele.dropped
            tele.disable()
            tele.reset()
        return {
            # a span still open here keeps its slot, so parent indices hold
            "spans": [s if s is not None else ("<open>", 0.0, 0.0, -1)
                      for s in self.spans],
            "handlers": handlers,
            "gauges": gauges,
            "telemetry_dropped": dropped,
        }


#: the process's recorder while a traced run is in progress.  Shard
#: workers are forked from the traced child, so they inherit the installed
#: wrappers together with (a copy of) this recorder.
ACTIVE: Optional[SpanRecorder] = None


def activate() -> SpanRecorder:
    """Install the wrappers (once per process); call before the world is
    built, because sessions bind their send path when they are created."""
    global ACTIVE
    if ACTIVE is None:
        ACTIVE = SpanRecorder()
        ACTIVE.install()
    return ACTIVE


def attach(system, fresh: bool = False) -> SpanRecorder:
    """Switch on ``system``'s own telemetry for the active recorder;
    ``fresh`` first drops what a parent process had recorded."""
    recorder = activate()
    if fresh:
        recorder.reset()
    # max_records=0: the kernel's per-event spans are counted as dropped
    # instead of stored; the ledger needs only its handler histogram
    recorder._telemetry = system.enable_telemetry(max_records=0)
    return recorder


# ----------------------------------------------------------------------
# the ledger
# ----------------------------------------------------------------------
def self_times(spans: List[Tuple[str, float, float, int]]) -> Dict[str, Dict[str, float]]:
    """Per span name: count, total seconds, and self seconds (total minus
    the time of child spans recorded inside)."""
    child_time = [0.0] * len(spans)
    for name, t0, t1, parent in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    out: Dict[str, Dict[str, float]] = {}
    for i, (name, t0, t1, parent) in enumerate(spans):
        row = out.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
        row["count"] += 1
        row["total_s"] += t1 - t0
        row["self_s"] += (t1 - t0) - child_time[i]
    return out


def handler_ledger(handlers: Dict[str, List[float]]) -> Dict[str, Any]:
    """Bucket kernel handler time by owning module.

    Returns ``{"by_module": {module: seconds}, "total_s", "unattributed_s",
    "unknown": [handler names the map does not cover]}``.
    """
    by_module: Dict[str, float] = {}
    unknown: List[str] = []
    unattributed = 0.0
    total = 0.0
    for name, (_count, seconds) in handlers.items():
        total += seconds
        module = handler_module(name)
        if module is None:
            unknown.append(name)
            unattributed += seconds
        else:
            by_module[module] = by_module.get(module, 0.0) + seconds
    return {"by_module": by_module, "total_s": total,
            "unattributed_s": unattributed, "unknown": sorted(unknown)}


def durations_us(spans, name: str) -> List[float]:
    return [(t1 - t0) * 1e6 for n, t0, t1, _p in spans if n == name]
