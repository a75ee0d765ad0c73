"""The shard coordinator: set up the epoch mesh, then stand watch.

Conservative parallel scheduling in the synchronous variant of
Chandy–Misra–Bryant null messages.  The epoch barrier itself runs among
the workers (:mod:`repro.shard.worker`): each epoch every shard sends
every other shard one message and all of them apply the same pure rule,
:func:`~repro.shard.worker.next_horizon`, to compute the global minimum
``N`` and the horizon ``H = N + L``.  The parent process is not on that
path: it builds a full mesh of duplex pipes between the workers (one per
pair), starts the :class:`~repro.sweep.pool.WorkerTeam`, and then only
waits for one ``("done", result)`` per worker.

While it waits it is the world's watchdog.  It waits on every worker's
pipe and process sentinel together, so

* a worker that raises (its traceback comes over the pipe) or dies (its
  sentinel fires) is named at once as a
  :class:`~repro.sweep.pool.WorkerCrashError`; a worker that reports a
  closed peer pipe names that peer;
* a worker that goes quiet — no tick for ``recv_timeout`` while its
  peers keep ticking as they wait on it — is named as wedged;
* a wedged *barrier* (a horizon that stops advancing with no events
  dispatched) is detected by the rule in every worker at once and raised
  here as :class:`ShardSyncError`, as is any disagreement between the
  workers' epoch counts.

On any failure the team is terminated at once: a worker blocked on a
dead peer is never waited on.
"""

from __future__ import annotations

import multiprocessing
from time import perf_counter
from typing import Any, Callable, Dict, List

from repro.shard.worker import ShardSyncError, record_shard_metrics, shard_worker_main
from repro.sweep.pool import WorkerCrashError, WorkerTeam

__all__ = ["ShardCoordinator", "ShardSyncError"]


class ShardCoordinator:
    """Run ``n_shards`` worker kernels to ``until`` in lockstep epochs.

    Parameters
    ----------
    builder:
        Importable module-level callable; each worker calls
        ``builder(shard_id=i, **builder_kw)`` and gets the shard runtime
        (``sim`` / ``gateway`` / ``collect()``).
    lookahead:
        The conservative bound ``L`` — must not exceed the true minimum
        boundary-link delay of the built topology (the builder should
        derive both from the same plan; see
        :meth:`repro.shard.partition.ShardPlan.lookahead`).
    recv_timeout:
        How long a worker may go without a sign of life — an epoch
        finished, or a tick while it waits on a peer — before it is named
        as wedged.  Generous by default: it is a wedge detector, not a
        performance target.  A death or a crash is named at once.
    """

    def __init__(
        self,
        builder: Callable[..., Any],
        builder_kw: Dict[str, Any],
        n_shards: int,
        until: float,
        lookahead: float,
        recv_timeout: float = 300.0,
        name: str = "shard",
    ) -> None:
        if n_shards < 2:
            raise ValueError("sharding needs at least two shards")
        if lookahead <= 0.0:
            raise ValueError("lookahead must be positive")
        if until <= 0.0:
            raise ValueError("until must be positive")
        self.builder = builder
        self.builder_kw = dict(builder_kw)
        self.n_shards = n_shards
        self.until = float(until)
        self.lookahead = float(lookahead)
        self.recv_timeout = float(recv_timeout)
        self.name = name
        #: filled by :meth:`run`
        self.stats: Dict[str, Any] = {}

    # ------------------------------------------------------------------
    def run(self) -> Dict[str, Any]:
        """Execute the world; returns per-shard results + barrier stats."""
        n = self.n_shards
        ctx = multiprocessing.get_context()
        mesh = [(i, j, *ctx.Pipe(duplex=True))
                for i in range(n) for j in range(i + 1, n)]
        args = (self.builder, self.builder_kw, mesh, self.until,
                self.lookahead, self.recv_timeout / 4)
        try:
            team = WorkerTeam(shard_worker_main, n, args_for=lambda i: args,
                              name=self.name, timeout=self.recv_timeout,
                              ctx=ctx)
        finally:
            # the workers hold their own ends now; a copy kept here would
            # keep a dead worker's end open for its peers
            for _i, _j, end_i, end_j in mesh:
                end_i.close()
                end_j.close()
        ok = False
        try:
            results = self._await_done(team)
            ok = True
        finally:
            team.close(join_timeout=5.0 if ok else 0.0)
        return self._summarise(results)

    # ------------------------------------------------------------------
    def _await_done(self, team: WorkerTeam) -> List[Dict[str, Any]]:
        n, limit = self.n_shards, self.recv_timeout
        results: List[Any] = [None] * n
        heard = [perf_counter()] * n
        waiting = set(range(n))
        while waiting:
            quiet = min(waiting, key=lambda i: heard[i])
            left = heard[quiet] + limit - perf_counter()
            if left <= 0:
                raise WorkerCrashError(
                    team.task_id(quiet),
                    f"no sign of life within {limit:.1f}s (wedged worker)",
                )
            got = team.recv_any(waiting, timeout=left)
            if got is None:
                continue
            i, (kind, body) = got
            heard[i] = perf_counter()
            if kind == "done":
                results[i] = body
                waiting.discard(i)
            elif kind == "wedged":
                raise ShardSyncError(f"{team.task_id(i)}: {body}")
            elif kind == "lost":
                raise team.lost(body, seen_by=i)
        return results

    def _summarise(self, results: List[Dict[str, Any]]) -> Dict[str, Any]:
        counts = {(r["shard_epochs"], r["shard_horizon_stalls"]) for r in results}
        if len(counts) != 1:
            raise ShardSyncError(
                "shards disagree on (epochs, horizon stalls): "
                + ", ".join(f"shard {r['shard_id']}: "
                            f"({r['shard_epochs']}, {r['shard_horizon_stalls']})"
                            for r in results)
            )
        (epochs, stalls), = counts
        self.stats = {
            "n_shards": self.n_shards,
            "epochs": epochs,
            "horizon_stalls": stalls,
            # the longest any one shard spent blocked on its peers
            "barrier_wait_s": max(r["shard_barrier_wait_s"] for r in results),
            "lookahead": self.lookahead,
            "cross_frames": sum(r.get("shard_frames_out", 0) for r in results),
            "cross_bytes": sum(r.get("shard_bytes_out", 0) for r in results),
        }
        for r in results:
            record_shard_metrics(r["shard_id"], {
                "epochs": epochs,
                "horizon_stalls": stalls,
                "frames_out": r.get("shard_frames_out", 0),
                "frames_in": r.get("shard_frames_in", 0),
                "bytes_out": r.get("shard_bytes_out", 0),
                "barrier_wait_s": r["shard_barrier_wait_s"],
            })
        return {"shards": results, "coordinator": dict(self.stats)}
