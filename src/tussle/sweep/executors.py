"""Sweep executors: the one sanctioned parallelism site in the package.

Everything else in the simulation stack is single-threaded by design
(lint rule D110 enforces it); fan-out happens only here, where the three
hazards of parallel simulation are contained:

* **RNG isolation** — a worker runs a cell at its *derived* seed
  (:func:`tussle.canon.derive_seed`), a pure function of the cell's
  identity, so no two cells share RNG state and results do not
  depend on worker assignment.
* **Completion order** — both executors return payloads in whatever
  order cells finish; the scheduler re-sorts by cell identity before
  merging, so the merged output is order-independent by construction.
* **Failure isolation** — :func:`run_cell` converts any exception into
  an error payload for that cell alone, and :class:`ResilientExecutor`
  turns a dead or hung worker into a retry; one diverging cell never
  takes down its worker or its siblings.

Workers communicate in JSON-safe dicts (the ``ExperimentResult.to_dict``
form), so payloads cross process boundaries and the result cache without
a separate serialisation step.  Wall-clock per cell is measured with the
sanctioned :class:`~tussle.obs.profiler.Profiler` and travels in a
side channel that the scheduler quarantines from the deterministic
merge.
"""

from __future__ import annotations

import itertools
import json
import math
import multiprocessing
import os
import signal
import time
from multiprocessing.connection import wait
from typing import Any, Dict, Iterator, List, Optional

from ..canon import derive_seed
from ..errors import SweepError
from ..obs import Profiler, current
from ..resil.backoff import Backoff
from ..resil.failures import FailedCell
from ..resil.workerchaos import WorkerChaos
from .cells import Cell

__all__ = ["InProcessExecutor", "ResilientExecutor", "run_cell", "cell_task"]


def cell_task(cell: Cell) -> Dict[str, Any]:
    """The picklable work order handed to a worker for one cell."""
    return {
        "experiment_id": cell.experiment_id,
        "params_json": cell.params_json,
        "base_seed": cell.base_seed,
        "seed": cell.seed,
    }


def run_cell(task: Dict[str, Any]) -> Dict[str, Any]:
    """Worker entry point: run one cell, never raise.

    Returns ``{"payload": ..., "profile": ...}`` where ``payload`` is
    the deterministic channel (identity, status, result dict or error)
    and ``profile`` is the quarantined wall-clock channel (worker name,
    seconds).
    """
    from ..experiments import ALL_EXPERIMENTS

    profiler = Profiler()
    payload: Dict[str, Any] = {
        "experiment_id": task["experiment_id"],
        "params": json.loads(task["params_json"]),
        "base_seed": task["base_seed"],
        "seed": task["seed"],
    }
    try:
        entry = ALL_EXPERIMENTS.get(task["experiment_id"])
        if entry is None:
            raise SweepError(f"unknown experiment {task['experiment_id']!r}")
        with profiler.time("cell"):
            result = entry(seed=task["seed"], **payload["params"])
        payload.update(status="ok", result=result.to_dict(), error=None)
    except Exception as exc:  # failure isolation: one cell, one verdict
        payload.update(
            status="error",
            result=None,
            error={"type": type(exc).__name__, "message": str(exc)},
        )
    return {
        "payload": payload,
        "profile": {
            "worker": multiprocessing.current_process().name,
            "seconds": profiler.total_seconds("cell"),
        },
    }


class InProcessExecutor:
    """Serial executor: runs cells in the calling process.

    The debugging baseline — no pickling, no fork, breakpoints and
    monkeypatches work — and the parity reference: its merged output
    must be byte-identical to :class:`ResilientExecutor`'s.
    """

    jobs = 1
    #: quarantined telemetry sink, injected by the scheduler
    telemetry: Any = None

    def imap(self, tasks: List[Dict[str, Any]]) -> Iterator[Dict[str, Any]]:
        """Yield outputs one by one as cells finish (streaming channel)."""
        for task in tasks:
            yield run_cell(task)

    def map(self, tasks: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
        return list(self.imap(tasks))


def _resilient_worker(conn: Any) -> None:
    """Worker loop for :class:`ResilientExecutor`: one cell at a time.

    Answers every task received over ``conn`` with its :func:`run_cell`
    output, and returns once the parent process is gone, however it
    died.  Pipe EOF cannot signal that: a forked worker holds copies of
    the parent's end of every pipe open when it started, its own
    included.  Honors the chaos directive planted by the parent
    (``_chaos`` key): ``"exit"`` dies with a nonzero exit code,
    ``"kill"`` SIGKILLs itself, ``"hang"`` blocks past any per-cell
    timeout.
    """
    parent = multiprocessing.parent_process().sentinel
    while parent not in wait([conn, parent]):
        task = conn.recv()
        mode = task.pop("_chaos", None)
        if mode == "exit":
            os._exit(3)
        elif mode == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        elif mode == "hang":  # until the parent's deadline reaps us
            wait([parent])
            return
        conn.send(run_cell(task))


class _PendingCell:
    """Parent-side retry state for one cell in a resilient sweep."""

    __slots__ = ("task", "backoff", "attempt", "reasons", "retry_at")

    def __init__(self, task: Dict[str, Any], backoff: Backoff):
        self.task = task
        self.backoff = backoff
        self.attempt = 0
        self.reasons: List[str] = []
        self.retry_at = 0.0  # on the quarantined monotonic clock

    def identity(self) -> tuple:
        return (self.task["experiment_id"], self.task["params_json"],
                self.task["base_seed"])


class _Worker:
    """Parent-side handle on one job slot's worker process."""

    __slots__ = ("process", "conn", "cell", "deadline")

    def __init__(self, name: str):
        self.conn, child = multiprocessing.Pipe()
        self.process = multiprocessing.Process(
            target=_resilient_worker, args=(child,), name=name, daemon=True)
        self.process.start()
        child.close()  # the worker holds the only other end
        #: the cell now running here, and its monotonic-clock deadline
        self.cell: Optional[_PendingCell] = None
        self.deadline = 0.0

    @property
    def name(self) -> str:
        return self.process.name

    def assign(self, pending: _PendingCell, task: Dict[str, Any],
               timeout: float) -> None:
        self.cell = pending
        self.deadline = time.monotonic() + timeout
        try:
            self.conn.send(task)
        except OSError:  # died while idle: its sentinel reports the death
            pass

    def stop(self) -> None:
        self.process.kill()
        self.process.join()
        self.conn.close()


class ResilientExecutor:
    """Crash-safe parallel executor: one supervised worker per job slot.

    Each of ``jobs`` slots keeps one worker process that runs cells one
    at a time, so a sweep pays a fork per slot, not per cell.  Reuse is
    safe because nothing reachable from a worker writes module state
    (lint rule F207): a cell cannot observe the cells that ran before
    it in the same process.

    The parent watches every running cell with a wall-clock deadline
    and retries infrastructure failures — worker death, timeout — with
    seeded exponential backoff; the slot gets a fresh process.
    Deterministic ``status: "error"`` payloads are *not* retried: the
    cell ran to a verdict, and rerunning a pure function cannot change
    it.  Between events the parent blocks in
    :func:`multiprocessing.connection.wait` on the busy workers' pipes
    and process sentinels, until a result, a death, the nearest
    deadline, or — while a slot is free — the nearest backoff expiry.

    A cell that exhausts its retry budget yields a structured
    ``status: "failed"`` payload (:class:`~tussle.resil.FailedCell`)
    instead of aborting the sweep.  Recovery accounting lands in
    ``self.recovery`` and in ``resil``-scope obs counters; both are
    quarantined from the deterministic merge, which stays byte-identical
    to a fault-free run whenever every cell eventually succeeds.

    The wall-clock reads (``time.monotonic``) sit outside the
    simulation; lint rule D104 allowlists them in this module only.

    ``chaos`` (a :class:`~tussle.resil.WorkerChaos`) deterministically
    sabotages a fraction of first attempts — the chaos gate in CI.
    """

    def __init__(self, jobs: int = 1, timeout: float = 30.0,
                 retries: int = 3, backoff: Optional[Backoff] = None,
                 chaos: Optional[WorkerChaos] = None,
                 backoff_seed: int = 0):
        if jobs < 1:
            raise SweepError(f"jobs must be >= 1, got {jobs}")
        if not 0 < timeout < math.inf:
            raise SweepError(
                f"timeout must be positive and finite, got {timeout}")
        if retries < 0:
            raise SweepError(f"retries must be >= 0, got {retries}")
        self.jobs = jobs
        self.timeout = float(timeout)
        self.retries = int(retries)
        self._backoff_template = backoff if backoff is not None else Backoff(
            base=0.05, factor=2.0, cap=1.0, max_retries=retries, jitter=0.5)
        self.chaos = chaos
        self.backoff_seed = int(backoff_seed)
        self.recovery: Dict[str, int] = self._fresh_recovery()
        #: quarantined telemetry sink, injected by the scheduler
        self.telemetry: Any = None

    @staticmethod
    def _fresh_recovery() -> Dict[str, int]:
        return {"retries": 0, "worker_deaths": 0, "timeouts": 0,
                "recovered_cells": 0, "failed_cells": 0}

    def _cell_backoff(self, task: Dict[str, Any]) -> Backoff:
        """A per-cell retry schedule seeded from the cell's identity."""
        seed = derive_seed(self.backoff_seed, "retry", task["experiment_id"],
                           task["params_json"], str(task["base_seed"]))
        return self._backoff_template.spawn(seed)

    def _attempt_task(self, pending: _PendingCell) -> Dict[str, Any]:
        """The task for the cell's next attempt, with any chaos directive."""
        task = dict(pending.task)
        if self.chaos is not None:
            mode = self.chaos.mode_for(task["experiment_id"],
                                       task["params_json"],
                                       task["base_seed"], pending.attempt)
            if mode is not None:
                task["_chaos"] = mode
        return task

    def _failed_payload(self, pending: _PendingCell) -> Dict[str, Any]:
        task = pending.task
        record = FailedCell(
            experiment_id=task["experiment_id"],
            params_json=task["params_json"],
            base_seed=task["base_seed"],
            attempts=pending.attempt + 1,
            reasons=list(pending.reasons),
        )
        payload = {
            "experiment_id": task["experiment_id"],
            "params": json.loads(task["params_json"]),
            "base_seed": task["base_seed"],
            "seed": task["seed"],
            "status": "failed",
            "result": None,
            "error": record.to_error_dict(),
        }
        return {"payload": payload,
                "profile": {"worker": "resil-failed", "seconds": 0.0}}

    def imap(self, tasks: List[Dict[str, Any]]) -> Iterator[Dict[str, Any]]:
        """Yield outputs as cells reach a final verdict (any order).

        Quarantined telemetry (worker lifecycle, attempts, retries,
        deaths, timeouts) flows to ``self.telemetry`` when the scheduler
        injected one; none of it can reach the deterministic channel.
        """
        self.recovery = self._fresh_recovery()
        context = current()
        scope = (context.metrics.scope("resil")
                 if context.metrics.enabled else None)
        telemetry = (self.telemetry
                     if self.telemetry is not None
                     and self.telemetry.enabled else None)
        names = (f"resil-{n}" for n in itertools.count())

        def count(event: str) -> None:
            self.recovery[event] += 1
            if scope is not None:
                scope.counter(event).inc(1)

        def spawn() -> _Worker:
            worker = _Worker(next(names))
            if telemetry is not None:
                telemetry.worker_started(worker.name)
            return worker

        def retire(worker: _Worker, reason: str) -> None:
            worker.stop()
            if telemetry is not None:
                telemetry.worker_exited(worker.name, reason)

        # Look every experiment up before the first fork, so each worker
        # inherits its module instead of importing it again; an import
        # error is left for the cell's own worker to report.
        from ..experiments import ALL_EXPERIMENTS
        for experiment_id in sorted({task["experiment_id"] for task in tasks}):
            try:
                ALL_EXPERIMENTS.get(experiment_id)
            except Exception:
                pass
        waiting = [_PendingCell(task, self._cell_backoff(task))
                   for task in tasks]
        workers = [spawn() for _ in range(min(self.jobs, len(tasks)))]
        try:
            while True:
                now = time.monotonic()
                for worker in workers:
                    if worker.cell is not None:
                        continue
                    ready = next((p for p in waiting if p.retry_at <= now),
                                 None)
                    if ready is None:
                        break
                    waiting.remove(ready)
                    worker.assign(ready, self._attempt_task(ready),
                                  self.timeout)
                    if telemetry is not None:
                        telemetry.cell_attempt(ready.identity(),
                                               ready.attempt, worker.name)
                busy = [w for w in workers if w.cell is not None]
                if not busy and not waiting:
                    return
                # Sleep until the next thing that needs the parent: a
                # deadline, or a backoff expiry once a slot is free.
                wake = [w.deadline for w in busy]
                if waiting and len(busy) < len(workers):
                    wake.append(min(p.retry_at for p in waiting))
                signalled = wait(
                    [w.conn for w in busy] + [w.process.sentinel for w in busy],
                    max(0.0, min(wake) - time.monotonic()))

                for index, worker in enumerate(workers):
                    pending = worker.cell
                    if pending is None:
                        continue
                    output = None
                    if worker.process.sentinel in signalled:
                        failure = "death"
                    elif worker.conn.poll():  # a result beats the deadline
                        try:
                            output = worker.conn.recv()
                            failure = None
                        except EOFError:  # died mid-send
                            failure = "death"
                    elif time.monotonic() >= worker.deadline:
                        failure = "timeout"
                    else:
                        continue
                    if failure is None:
                        worker.cell = None
                        if pending.attempt > 0:
                            count("recovered_cells")
                        yield output
                        continue
                    # infrastructure failure: fresh worker, then retry or
                    # give up
                    if failure == "death":
                        worker.process.join()
                        reason = (f"worker-death(exitcode="
                                  f"{worker.process.exitcode})")
                        count("worker_deaths")
                    else:
                        reason = f"timeout({self.timeout:g}s)"
                        count("timeouts")
                    pending.reasons.append(reason)
                    retire(worker, reason)
                    workers[index] = spawn()
                    if pending.backoff.exhausted:
                        count("failed_cells")
                        if telemetry is not None:
                            telemetry.wall_event(
                                "cell_abandoned",
                                experiment_id=pending.task["experiment_id"],
                                base_seed=pending.task["base_seed"],
                                attempts=pending.attempt + 1,
                                reasons=list(pending.reasons))
                        yield self._failed_payload(pending)
                        continue
                    count("retries")
                    delay = pending.backoff.next_delay()
                    if telemetry is not None:
                        telemetry.cell_retried(pending.identity(),
                                               pending.attempt, reason, delay)
                    pending.attempt += 1
                    pending.retry_at = time.monotonic() + delay
                    waiting.append(pending)
        finally:
            for worker in workers:
                retire(worker, "done")

    def map(self, tasks: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
        return list(self.imap(tasks))
