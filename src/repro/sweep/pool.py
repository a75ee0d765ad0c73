"""Shared multiprocessing substrate for sweeps and shards.

Two execution shapes, one module:

* :func:`map_unordered` — the fire-and-forget pool used by
  :class:`~repro.sweep.runner.SweepRunner`: independent payloads fanned
  over ``multiprocessing.Pool``, results yielded in completion order,
  with :class:`OrderedStreamer` reassembling the contiguous index-order
  prefix for deterministic streaming.  Worker exceptions come back as a
  :class:`WorkerCrashError` naming the failing cell instead of a bare
  pickled traceback deep inside pool internals.
* :class:`WorkerTeam` — the long-lived conversational workers the shard
  coordinator (:mod:`repro.shard.coordinator`) watches over: one process
  + one duplex pipe per worker, and *every* receive waits on the pipes
  and the process sentinels together with a bounded timeout, so a worker
  that raises, is killed, or wedges surfaces a :class:`WorkerCrashError`
  naming it — a receive can never hang forever.

Both shapes share the determinism conventions established by the sweep
engine: targets must be importable module-level callables (pickled by
reference), per-task seeds come from
:func:`~repro.sweep.spec.derive_cell_seed` (re-exported here), and
nothing about worker count or completion order may leak into results.
"""

from __future__ import annotations

import multiprocessing
import traceback
from typing import Any, Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.sweep.spec import derive_cell_seed

__all__ = [
    "WorkerCrashError",
    "OrderedStreamer",
    "map_unordered",
    "WorkerTeam",
    "derive_cell_seed",
]


class WorkerCrashError(RuntimeError):
    """A pool or team worker raised, died, or stopped responding.

    ``task_id`` names the failing unit of work — the sweep cell index or
    the ``"shard N"`` label — so a 4-shard run that loses worker 2 fails
    with *which* worker, not a generic pool traceback.
    """

    def __init__(self, task_id: Any, detail: str) -> None:
        super().__init__(f"worker for {task_id} failed: {detail}")
        self.task_id = task_id
        self.detail = detail


# ----------------------------------------------------------------------
# pool shape: independent payloads, completion-order results
# ----------------------------------------------------------------------
def _guarded(payload: Tuple[Callable[[Any], Any], Any, Any]) -> Tuple[Any, bool, Any, Optional[str]]:
    """Worker-side wrapper: never lets an exception escape unpickled."""
    fn, item, task_id = payload
    try:
        return task_id, True, fn(item), None
    except Exception:
        return task_id, False, None, traceback.format_exc()


def map_unordered(
    fn: Callable[[Any], Any],
    items: Sequence[Any],
    workers: int,
    ids: Optional[Sequence[Any]] = None,
    ctx: Optional[multiprocessing.context.BaseContext] = None,
) -> Iterator[Tuple[Any, Any]]:
    """Run ``fn(item)`` for every item across ``workers`` processes.

    Yields ``(task_id, result)`` in completion order (``chunksize=1``, so
    scheduling cannot batch-bias which worker sees which payload).  A
    worker exception tears the pool down and raises
    :class:`WorkerCrashError` carrying the task id and the child-side
    traceback text.
    """
    items = list(items)
    task_ids = list(ids) if ids is not None else list(range(len(items)))
    if len(task_ids) != len(items):
        raise ValueError("ids must match items one-to-one")
    payloads = [(fn, item, tid) for item, tid in zip(items, task_ids)]
    ctx = ctx if ctx is not None else multiprocessing.get_context()
    with ctx.Pool(processes=workers) as pool:
        for tid, ok, value, err in pool.imap_unordered(
            _guarded, payloads, chunksize=1
        ):
            if not ok:
                raise WorkerCrashError(tid, err.strip())
            yield tid, value


class OrderedStreamer:
    """Reassemble indexed completion-order results into index order.

    Results may arrive in any order; :meth:`put` stores each one and
    reports the newly contiguous completed prefix ``[start, upto)`` so
    the caller can flush side effects (repository rows, span records) in
    exactly the order a serial run would have produced them.
    """

    def __init__(self, slots: List[Optional[Any]]) -> None:
        self.slots = slots
        self.streamed = 0

    def put(self, index: int, value: Any) -> Tuple[int, int]:
        self.slots[index] = value
        start = self.streamed
        while self.streamed < len(self.slots) and self.slots[self.streamed] is not None:
            self.streamed += 1
        return start, self.streamed


# ----------------------------------------------------------------------
# team shape: long-lived conversational workers behind a crash-safe pipe
# ----------------------------------------------------------------------
def _team_main(conn, worker_id: int, target, args: tuple) -> None:
    """Child entry: run ``target(conn, worker_id, *args)`` to completion.

    An escaping exception is reported over the pipe (best-effort) before
    the child exits, so the parent's next receive names the failure with
    its traceback instead of seeing only a dead process.
    """
    try:
        target(conn, worker_id, *args)
    except Exception:
        try:
            conn.send(("__crash__", worker_id, traceback.format_exc()))
        except Exception:
            pass
    finally:
        try:
            conn.close()
        except Exception:
            pass


class WorkerTeam:
    """``n`` long-lived processes, one duplex pipe each.

    Unlike a ``Pool`` barrier — which deadlocks forever if a worker is
    SIGKILLed mid-task — every receive here (:meth:`recv`,
    :meth:`recv_any`) waits on the pipes and the child processes'
    sentinels together, and gives up after its timeout, so the caller
    always gets a :class:`WorkerCrashError` naming the dead or wedged
    worker, the moment it dies.

    ``target`` must be an importable module-level callable (pickled by
    reference) invoked in the child as ``target(conn, worker_id, *args)``
    where ``args`` comes from ``args_for(worker_id)``.
    """

    def __init__(
        self,
        target: Callable[..., None],
        n: int,
        args_for: Optional[Callable[[int], tuple]] = None,
        name: str = "worker",
        timeout: float = 120.0,
        ctx: Optional[multiprocessing.context.BaseContext] = None,
    ) -> None:
        if n < 1:
            raise ValueError("team needs at least one worker")
        self.name = name
        self.timeout = float(timeout)
        ctx = ctx if ctx is not None else multiprocessing.get_context()
        self._procs = []
        self._pipes = []
        self._closed = False
        for i in range(n):
            parent_conn, child_conn = ctx.Pipe(duplex=True)
            args = tuple(args_for(i)) if args_for is not None else ()
            proc = ctx.Process(
                target=_team_main,
                args=(child_conn, i, target, args),
                name=f"{name}-{i}",
                daemon=True,
            )
            proc.start()
            child_conn.close()
            self._procs.append(proc)
            self._pipes.append(parent_conn)

    def __len__(self) -> int:
        return len(self._procs)

    def task_id(self, i: int) -> str:
        """The label a :class:`WorkerCrashError` names worker ``i`` by."""
        return f"{self.name} {i}"

    # ------------------------------------------------------------------
    def send(self, i: int, msg: Any) -> None:
        try:
            self._pipes[i].send(msg)
        except (BrokenPipeError, OSError) as exc:
            raise WorkerCrashError(self.task_id(i), f"pipe closed on send ({exc})")

    def recv(self, i: int, timeout: Optional[float] = None) -> Any:
        """Receive one message from worker ``i``, crash-safely.

        Raises :class:`WorkerCrashError` when the worker reported a
        traceback, its process died (buffered messages are still drained
        first), or nothing arrives within the timeout — the wedged-barrier
        guard.
        """
        limit = self.timeout if timeout is None else float(timeout)
        got = self.recv_any([i], limit)
        if got is None:
            raise WorkerCrashError(
                self.task_id(i),
                f"no reply within {limit:.1f}s (wedged worker or barrier)",
            )
        return got[1]

    def recv_any(self, ids: Iterable[int], timeout: float
                 ) -> Optional[Tuple[int, Any]]:
        """The next message from whichever of workers ``ids`` speaks first.

        Waits on their pipes and process sentinels together, so a death
        is seen the moment it happens.  Returns ``(i, message)``, or
        ``None`` if ``timeout`` seconds pass in silence.  Raises
        :class:`WorkerCrashError` when a worker reported a traceback or
        died; a message it sent before dying is still delivered first.
        """
        # loaded already by the Pipe() that built the team; importing it at
        # module level would put it on the cold start of every importer
        from multiprocessing.connection import wait

        watch = {}
        for i in ids:
            watch[self._pipes[i]] = i
            watch[self._procs[i].sentinel] = i
        ready = wait(list(watch), max(0.0, timeout))
        if not ready:
            return None
        # a pipe first: a last message or a crash report outranks the
        # death that follows it
        ready.sort(key=lambda obj: isinstance(obj, int))
        i = watch[ready[0]]
        pipe = self._pipes[i]
        if not pipe.poll(0):
            raise self._died(i)
        try:
            msg = pipe.recv()
        except (EOFError, OSError):
            raise self._died(i)
        if isinstance(msg, tuple) and msg and msg[0] == "__crash__":
            raise WorkerCrashError(self.task_id(i), str(msg[-1]))
        return i, msg

    def _died(self, i: int) -> WorkerCrashError:
        proc = self._procs[i]
        proc.join(1.0)
        return WorkerCrashError(
            self.task_id(i), f"worker process died (exit code {proc.exitcode})")

    def lost(self, i: int, seen_by: int) -> WorkerCrashError:
        """The error for worker ``i``, whose pipe worker ``seen_by`` saw close.

        Worker ``i``'s own report (a traceback, or its death) is what
        names the failure; this waits briefly for it.
        """
        try:
            self.recv_any([i], timeout=1.0)
        except WorkerCrashError as exc:
            return exc
        return WorkerCrashError(
            self.task_id(i),
            f"closed its pipe to {self.task_id(seen_by)} while still running")

    def broadcast(self, msgs: Iterable[Any]) -> None:
        """Send one (distinct) message to each worker, in worker order."""
        for i, msg in enumerate(msgs):
            self.send(i, msg)

    def gather(self, timeout: Optional[float] = None) -> List[Any]:
        """One message from every worker, in worker order (the barrier)."""
        return [self.recv(i, timeout=timeout) for i in range(len(self))]

    # ------------------------------------------------------------------
    def close(self, farewell: Any = None, join_timeout: float = 5.0) -> None:
        """Shut the team down; stragglers are terminated, never waited on.

        Each worker gets ``join_timeout`` seconds to exit on its own; pass
        0 after a failure to terminate the rest at once.  Every process is
        reaped and every pipe and sentinel closed, so a closed team holds
        no descriptor.
        """
        if self._closed:
            return
        self._closed = True
        if farewell is not None:
            for i in range(len(self)):
                if self._procs[i].is_alive():
                    try:
                        self._pipes[i].send(farewell)
                    except (BrokenPipeError, OSError):
                        pass
        for proc in self._procs:
            proc.join(join_timeout)
            if proc.is_alive():
                proc.terminate()
                proc.join(1.0)
            if proc.is_alive():
                proc.kill()
                proc.join()
            proc.close()
        for pipe in self._pipes:
            pipe.close()

    def __enter__(self) -> "WorkerTeam":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
