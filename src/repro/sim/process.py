"""Generator-based simulation processes.

A ``Process`` wraps a Python generator that ``yield``s delays (floats, in
seconds).  The kernel resumes the generator after each yielded delay.  This
gives workload generators and control loops sequential, readable code without
callback chains:

    def talker(proc):
        while True:
            send_burst()
            yield 0.35          # talk spurt
            yield proc.rng.exponential(0.65)   # silence gap

Processes are cooperative and single-threaded; all concurrency is virtual.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional

from repro.sim.kernel import Event, Simulator

ProcessBody = Generator[float, None, None]


class Process:
    """Drives a generator through the simulator's virtual clock."""

    def __init__(
        self,
        sim: Simulator,
        body: Callable[..., ProcessBody],
        *args: Any,
        name: str = "",
        start_delay: float = 0.0,
    ) -> None:
        self.sim = sim
        self.name = name or getattr(body, "__name__", "process")
        self._gen: Optional[ProcessBody] = body(*args)
        self._event: Optional[Event] = None
        self.finished = False
        self._event = sim.schedule(start_delay, self._resume)

    def _resume(self) -> None:
        self._event = None
        if self._gen is None:
            return
        try:
            delay = next(self._gen)
        except StopIteration:
            self.finished = True
            self._gen = None
            return
        if delay is None or delay < 0:
            raise ValueError(
                f"process {self.name!r} yielded invalid delay {delay!r}"
            )
        self._event = self.sim.schedule(delay, self._resume)

    def kill(self) -> None:
        """Stop the process; any pending resume is cancelled."""
        if self._event is not None:
            self.sim.cancel(self._event)
            self._event = None
        if self._gen is not None:
            self._gen.close()
            self._gen = None
        self.finished = True

    @property
    def alive(self) -> bool:
        return not self.finished
