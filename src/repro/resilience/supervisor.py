"""The supervisor: deadlines, retries, quarantine, graceful degradation.

Wraps every dispatched grid/fleet job in a supervised attempt loop:

- **watchdog** -- each attempt runs in its own worker process with a
  wall-clock deadline; a hung worker is killed and the attempt becomes
  a structured :class:`~repro.resilience.errors.JobTimeout`;
- **crash isolation** -- a worker that dies (segfault, ``os._exit``,
  OOM kill) takes down only its own job; the attempt becomes a
  :class:`~repro.resilience.errors.WorkerCrash` and the job is requeued
  on a fresh worker;
- **deterministic retries** -- failed attempts back off per the seeded
  :class:`~repro.resilience.policy.RetryPolicy` (jitter derived from
  the job label, never from shared RNG state), so a rerun makes the
  same scheduling decisions;
- **quarantine + degradation** -- a job that exhausts its attempts is
  quarantined: recorded in the :class:`~repro.resilience.manifest.
  FailureManifest` with its spec, seed and full attempt history, while
  the rest of the run completes. ``fail_fast=True`` restores
  stop-on-first-quarantine semantics;
- **runaway budgets** -- an optional :class:`~repro.sim.engine.
  RunBudget` is armed ambiently inside each worker, so a simulation
  that would spin forever aborts with kernel diagnostics instead.

When worker processes are unavailable (sandboxes without
``/dev/shm``, restricted seccomp profiles) the supervisor degrades to
in-process serial attempts: crash/hang harness faults are then
*synthesised* as their structured failures -- which keeps the whole
retry/quarantine state machine testable in any environment -- and the
wall-clock deadline is enforced by fusing it into the ambient
:class:`RunBudget` (a runaway simulation still gets cut; a job stuck
outside the sim kernel cannot be preempted without a process).
"""

import sys
import time
import traceback

from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, fields

from repro.resilience.errors import (
    InjectedFault,
    JobQuarantined,
    JobTimeout,
    RunInterrupted,
    WorkerCrash,
)
from repro.resilience.hooks import HarnessFaults, apply_in_worker
from repro.resilience.manifest import (
    AttemptRecord,
    FailureManifest,
    FailureRecord,
    seed_of,
)
from repro.resilience.policy import RetryPolicy
from repro.sim.engine import RunBudget, set_ambient_budget

#: Grace period between SIGTERM and SIGKILL when reaping a worker.
_KILL_GRACE_S = 2.0

#: Upper bound on one event-loop wait so deadlines are polled timely.
_MAX_WAIT_S = 0.2


def _worker_main(conn, spec, label, attempt, budget_limits, faults_json):
    """Entry point of one supervised attempt in a worker process.

    Applies any matching harness fault first (which may never return),
    arms the ambient runaway budget, runs the spec, and ships either
    ``("ok", result)`` or ``("error", type, message, traceback)`` back
    through the pipe. A crash before the send is what the parent
    observes as EOF + a dead process.
    """
    try:
        if faults_json:
            apply_in_worker(HarnessFaults.from_json(faults_json),
                            label, attempt)
        if budget_limits:
            set_ambient_budget(RunBudget(**budget_limits))
        result = spec.execute()
        try:
            conn.send(("ok", result))
        except Exception as exc:  # unpicklable result: a structured error
            conn.send(("error", type(exc).__name__,
                       "result not sendable: {}".format(exc), ""))
    except BaseException as exc:  # noqa: BLE001 -- becomes a record
        try:
            conn.send(("error", type(exc).__name__, str(exc),
                       traceback.format_exc()))
        except Exception:
            pass
    finally:
        try:
            conn.close()
        except Exception:
            pass


@dataclass
class SupervisorStats:
    """Counters over a supervisor's lifetime (summed across runs)."""

    jobs: int = 0
    attempts: int = 0
    succeeded: int = 0
    recovered: int = 0  # succeeded on attempt >= 2
    retries: int = 0
    timeouts: int = 0
    crashes: int = 0
    quarantined: int = 0
    interrupted: int = 0
    serial_fallbacks: int = 0

    def as_dict(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}


class _Job:
    """Mutable dispatch state for one spec."""

    __slots__ = ("spec", "label", "index", "attempt", "eligible_at",
                 "records")

    def __init__(self, spec, label, index):
        self.spec = spec
        self.label = label
        self.index = index
        self.attempt = 0
        self.eligible_at = 0.0
        self.records = []


class _Attempt:
    """One live worker attempt (process mode)."""

    __slots__ = ("job", "proc", "conn", "started", "deadline")

    def __init__(self, job, proc, conn, started, deadline):
        self.job = job
        self.proc = proc
        self.conn = conn
        self.started = started
        self.deadline = deadline


class _Failure:
    """A structured attempt failure, pre-manifest."""

    __slots__ = ("outcome", "error", "traceback")

    def __init__(self, outcome, error, tb=""):
        self.outcome = outcome
        self.error = error
        self.traceback = tb


@contextmanager
def sigterm_as_interrupt():
    """Deliver SIGTERM as KeyboardInterrupt for the enclosed block.

    A supervised run killed by the operator (or a CI timeout) then
    flushes checkpoints and writes its manifest exactly as Ctrl-C
    does. No-op off the main thread (signal handlers cannot be
    installed there).
    """
    import signal
    import threading

    if threading.current_thread() is not threading.main_thread():
        yield
        return
    previous = signal.getsignal(signal.SIGTERM)

    def _handler(signum, frame):
        raise KeyboardInterrupt()

    signal.signal(signal.SIGTERM, _handler)
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


class Supervisor:
    """Supervised execution of declarative job specs.

    ``job_timeout_s``: per-attempt wall-clock deadline (None = no
    watchdog). ``max_retries``: retries after the first attempt, so a
    job gets ``max_retries + 1`` attempts before quarantine.
    ``fail_fast``: raise :class:`JobQuarantined` on the first
    quarantine instead of degrading. ``sim_budget``: a
    :class:`RunBudget` template armed (fresh per attempt) inside every
    worker. ``harness_faults``: a :class:`HarnessFaults` for
    deterministic supervisor testing; defaults to whatever
    ``REPRO_HARNESS_FAULTS`` carries. ``mode``: ``"auto"`` uses worker
    processes when the platform allows and falls back to serial
    in-process attempts; ``"serial"``/``"process"`` force one.
    """

    def __init__(self, job_timeout_s=None, max_retries=2, fail_fast=False,
                 retry_policy=None, harness_faults=None, sim_budget=None,
                 mode="auto", verbose=False, sleep=time.sleep):
        if mode not in ("auto", "process", "serial"):
            raise ValueError("mode must be auto, process or serial")
        self.job_timeout_s = job_timeout_s
        max_attempts = max(1, int(max_retries) + 1)
        self.retry_policy = retry_policy if retry_policy is not None \
            else RetryPolicy(max_attempts=max_attempts)
        self.fail_fast = fail_fast
        self.sim_budget = sim_budget
        self.harness_faults = harness_faults if harness_faults is not None \
            else HarnessFaults.from_env()
        self.mode = mode
        self.verbose = verbose
        self.manifest = FailureManifest()
        self.stats = SupervisorStats()
        #: Optional :class:`~repro.telemetry.emit.RunTelemetry`; when a
        #: FleetRunner attaches one, every failed attempt / quarantine
        #: / budget abort also lands in the run's telemetry stream.
        self.telemetry = None
        self._sleep = sleep
        self._serial_reason = None
        self._serial_logged = False
        self._run_base = self.stats.as_dict()
        self._mp_context = None

    def begin_run(self):
        """Re-scope per-run state at the start of a new run.

        A supervisor outlives individual runs (lifetime ``stats`` are
        deliberately cumulative), but warn-once gates and the run
        summary must not leak between runs: without this, a second
        :class:`~repro.fleet.shard.FleetRunner` sharing the supervisor
        in one process never re-prints the serial-fallback warning and
        ``run_stats`` would report the first run's counters too.
        """
        self._serial_logged = False
        self._run_base = self.stats.as_dict()

    def run_stats(self):
        """Counters accrued since the last :meth:`begin_run` (the
        current run), as a plain dict."""
        current = self.stats.as_dict()
        return {name: current[name] - self._run_base.get(name, 0)
                for name in current}

    # -- public API --------------------------------------------------------

    def execute(self, specs, labels=None, workers=1, on_result=None):
        """Run ``specs`` supervised; returns ``{spec: result}``.

        Quarantined jobs are absent from the mapping and present in
        :attr:`manifest`. ``labels`` parallels ``specs`` (defaults to
        positional labels); ``on_result(spec, result)`` fires the
        moment each job completes -- cache writes and checkpoints ride
        on it, which is what makes interrupt/degrade flushes exact.
        """
        specs = list(specs)
        if labels is None:
            labels = [self.label_for(spec, index)
                      for index, spec in enumerate(specs)]
        if len(labels) != len(specs):
            raise ValueError("labels must parallel specs")
        jobs = [_Job(spec, label, index)
                for index, (spec, label) in enumerate(zip(specs, labels))]
        self.stats.jobs += len(jobs)
        results = {}
        with sigterm_as_interrupt():
            try:
                self._dispatch(jobs, max(1, int(workers)),
                               self._use_processes(workers), results,
                               on_result)
            except KeyboardInterrupt:
                raise RunInterrupted(len(results),
                                     len(jobs) - len(results)) from None
        return results

    @staticmethod
    def label_for(spec, index):
        token = getattr(spec, "case_key", None)
        if token is None:
            func = getattr(spec, "func", "")
            token = func.rpartition(":")[2] or type(spec).__name__
        return "job:{:04d}:{}".format(index, token)

    @property
    def serial_reason(self):
        """Why process mode was abandoned, or ``None``."""
        return self._serial_reason

    # -- mode selection ----------------------------------------------------

    def _use_processes(self, workers):
        if self.mode == "serial":
            return False
        if self._mp_context is not None:
            return True
        try:
            import multiprocessing

            # fork keeps worker start cheap and inherits the warmed
            # interpreter; fall back to the platform default elsewhere.
            try:
                context = multiprocessing.get_context("fork")
            except ValueError:
                context = multiprocessing.get_context()
            # Probe the pipe transport now so an unusable platform is
            # one cheap failure here, not one per dispatched job.
            parent, child = context.Pipe(duplex=False)
            parent.close()
            child.close()
        except (ImportError, NotImplementedError, OSError) as exc:
            if self.mode == "process":
                raise
            self._note_serial_fallback(exc)
            return False
        self._mp_context = context
        return True

    def _note_serial_fallback(self, exc):
        self.stats.serial_fallbacks += 1
        reason = "{}: {}".format(type(exc).__name__, exc)
        # Warn once *per run*, not per supervisor lifetime: begin_run
        # re-arms the gate so a second run's operator sees it too.
        if not self._serial_logged:
            self._serial_logged = True
            print("supervisor: worker processes unavailable ({}); "
                  "running jobs in-process -- hung jobs cannot be "
                  "preempted, only budget-aborted".format(reason),
                  file=sys.stderr)
        self._serial_reason = reason

    # -- the dispatch loop -------------------------------------------------

    def _dispatch(self, jobs, workers, processes, results, on_result):
        """The one scheduling loop, for forked and in-process attempts.

        Owns the pending queue, the backoff parking lot, the deadline
        poll and interrupt accounting. Its launch step either forks an
        attempt (``processes``) or runs it in-process to completion; an
        in-process attempt never occupies ``active``, so serial dispatch
        drains the queue before it revisits the parking lot.
        """
        pending = deque(jobs)
        waiting = []  # (eligible_at, job) backoff parking lot
        active = {}  # conn -> _Attempt (forked attempts only)
        try:
            while pending or waiting or active:
                if waiting:
                    now = time.monotonic()
                    pending.extend(job for eligible_at, job in waiting
                                   if eligible_at <= now)
                    waiting = [(eligible_at, job)
                               for eligible_at, job in waiting
                               if eligible_at > now]
                while pending and len(active) < workers:
                    job = pending.popleft()
                    job.attempt += 1
                    self.stats.attempts += 1
                    if processes:
                        attempt = self._launch(job)
                        active[attempt.conn] = attempt
                    else:
                        self._run_inline(job, pending, waiting, results,
                                         on_result)
                if active:
                    self._poll(active, pending, waiting, results,
                               on_result)
                elif waiting:
                    self._sleep(max(0.0, min(e for e, __ in waiting)
                                    - time.monotonic()))
        except BaseException:
            self._reap(active)
            if pending or waiting or active:
                self._note_interrupt(results, jobs)
            raise

    def _poll(self, active, pending, waiting, results, on_result):
        """Wait on live workers: finish the ready, expire the overdue."""
        from multiprocessing.connection import wait as _wait

        timeout = _MAX_WAIT_S
        deadlines = [a.deadline for a in active.values()
                     if a.deadline is not None]
        if deadlines:
            timeout = min(timeout, max(0.0, min(deadlines)
                                       - time.monotonic()))
        for conn in _wait(list(active), timeout=timeout):
            self._finish(active.pop(conn), pending, waiting, results,
                         on_result)
        now = time.monotonic()
        for conn, attempt in list(active.items()):
            if attempt.deadline is not None and now >= attempt.deadline:
                del active[conn]
                self._expire(attempt, pending, waiting)

    # -- forked attempts ---------------------------------------------------

    def _launch(self, job):
        context = self._mp_context
        parent, child = context.Pipe(duplex=False)
        budget_limits = self.sim_budget.limits() \
            if self.sim_budget is not None else None
        faults_json = self.harness_faults.to_json() \
            if self.harness_faults else ""
        proc = context.Process(
            target=_worker_main,
            args=(child, job.spec, job.label, job.attempt, budget_limits,
                  faults_json),
            daemon=True, name="repro-supervised-{}".format(job.label))
        proc.start()
        child.close()
        started = time.monotonic()
        deadline = started + self.job_timeout_s \
            if self.job_timeout_s is not None else None
        if self.verbose:
            print("supervisor: {} attempt {} started (pid {})".format(
                job.label, job.attempt, proc.pid), file=sys.stderr)
        return _Attempt(job, proc, parent, started, deadline)

    def _finish(self, attempt, pending, waiting, results, on_result):
        """A worker's pipe is ready: success, error, or EOF (crash)."""
        job = attempt.job
        elapsed = time.monotonic() - attempt.started
        try:
            message = attempt.conn.recv()
        except (EOFError, OSError):
            message = None
        attempt.conn.close()
        attempt.proc.join(_KILL_GRACE_S)
        if message is not None and message[0] == "ok":
            self._succeed(job, message[1], results, on_result)
            return
        if message is None:
            exitcode = attempt.proc.exitcode
            crash = WorkerCrash(job.label, job.attempt, exitcode)
            self.stats.crashes += 1
            failure = _Failure("crash", str(crash))
        else:
            __, type_name, text, tb = message
            outcome = "budget" if type_name == "BudgetExceeded" else "error"
            failure = _Failure(outcome,
                               "{}: {}".format(type_name, text), tb)
        self._fail(job, failure, elapsed, pending, waiting)

    def _expire(self, attempt, pending, waiting):
        """Deadline passed: kill the worker, record a JobTimeout."""
        job = attempt.job
        elapsed = time.monotonic() - attempt.started
        self._kill(attempt)
        timeout = JobTimeout(job.label, job.attempt, self.job_timeout_s,
                             elapsed)
        self.stats.timeouts += 1
        self._fail(job, _Failure("timeout", str(timeout)), elapsed,
                   pending, waiting)

    @staticmethod
    def _kill(attempt):
        attempt.conn.close()
        proc = attempt.proc
        if proc.is_alive():
            proc.terminate()
            proc.join(_KILL_GRACE_S)
            if proc.is_alive():
                proc.kill()
                proc.join(_KILL_GRACE_S)

    def _reap(self, active):
        for attempt in active.values():
            self._kill(attempt)
            attempt.job.records.append(AttemptRecord(
                attempt=attempt.job.attempt, outcome="interrupted",
                error="run interrupted while attempt was live",
                elapsed_s=round(time.monotonic() - attempt.started, 3)))

    # -- in-process attempts -----------------------------------------------

    def _run_inline(self, job, pending, waiting, results, on_result):
        started = time.monotonic()
        outcome = self._attempt_serial(job)
        elapsed = time.monotonic() - started
        if isinstance(outcome, _Failure):
            self._fail(job, outcome, elapsed, pending, waiting)
        else:
            self._succeed(job, outcome[0], results, on_result)

    def _attempt_serial(self, job):
        """One in-process attempt; a ``_Failure`` or ``(result,)``."""
        faults = self.harness_faults
        directive = faults.directive(job.label, job.attempt) \
            if faults else None
        if directive == "crash":
            self.stats.crashes += 1
            crash = WorkerCrash(job.label, job.attempt,
                                "synthesised-serial")
            return _Failure("crash", str(crash))
        if directive == "hang":
            self.stats.timeouts += 1
            timeout = JobTimeout(job.label, job.attempt,
                                 self.job_timeout_s or float("inf"), 0.0)
            return _Failure("timeout", str(timeout))
        budget = None
        if self.sim_budget is not None:
            budget = self.sim_budget.fresh(max_wall_s=self.job_timeout_s)
        elif self.job_timeout_s is not None:
            budget = RunBudget(max_wall_s=self.job_timeout_s)
        previous = set_ambient_budget(budget)
        try:
            if directive == "fail":
                raise InjectedFault(job.label, job.attempt)
            result = job.spec.execute()
        except KeyboardInterrupt:
            raise
        except BaseException as exc:  # noqa: BLE001 -- becomes a record
            from repro.sim.engine import BudgetExceeded

            outcome = "budget" if isinstance(exc, BudgetExceeded) \
                else "error"
            return _Failure(outcome,
                            "{}: {}".format(type(exc).__name__, exc),
                            traceback.format_exc())
        finally:
            set_ambient_budget(previous)
        return (result,)

    # -- shared attempt bookkeeping ----------------------------------------

    def _succeed(self, job, result, results, on_result):
        results[job.spec] = result
        self.stats.succeeded += 1
        if job.attempt > 1:
            self.stats.recovered += 1
        if self.verbose and job.attempt > 1:
            print("supervisor: {} recovered on attempt {}".format(
                job.label, job.attempt), file=sys.stderr)
        if on_result is not None:
            on_result(job.spec, result)

    def _fail(self, job, failure, elapsed, pending, waiting):
        record = AttemptRecord(
            attempt=job.attempt, outcome=failure.outcome,
            error=failure.error, traceback=failure.traceback,
            elapsed_s=round(elapsed, 3))
        job.records.append(record)
        if self.telemetry is not None:
            self.telemetry.supervisor_attempt(
                job.label, job.attempt, failure.outcome, failure.error)
            if failure.outcome == "budget":
                self.telemetry.budget(job.label, job.attempt,
                                      failure.error)
        if job.attempt < self.retry_policy.max_attempts:
            delay = self.retry_policy.delay_s(job.label, job.attempt + 1)
            record.delay_s = round(delay, 6)
            self.stats.retries += 1
            if self.verbose:
                print("supervisor: {} attempt {} {} ({}); retrying in "
                      "{:.2f}s".format(job.label, job.attempt,
                                       failure.outcome, failure.error,
                                       delay), file=sys.stderr)
            if delay > 0:
                waiting.append((time.monotonic() + delay, job))
            else:
                pending.append(job)
            return
        self._quarantine(job, failure)

    def _quarantine(self, job, failure):
        spec_token = job.spec.cache_token()
        self.manifest.add(FailureRecord(
            label=job.label, spec=spec_token, seed=seed_of(spec_token),
            attempts=list(job.records), quarantined=True))
        self.stats.quarantined += 1
        if self.telemetry is not None:
            self.telemetry.supervisor_attempt(
                job.label, job.attempt, "quarantined", failure.error)
        print("supervisor: {} quarantined after {} attempt(s); last "
              "error: {}".format(job.label, job.attempt, failure.error),
              file=sys.stderr)
        if self.fail_fast:
            raise JobQuarantined(job.label, job.attempt, failure.error)

    def _note_interrupt(self, results, jobs):
        outstanding = len(jobs) - len(results)
        self.stats.interrupted += outstanding
        print("supervisor: interrupted with {} job(s) outstanding; "
              "completed work is flushed".format(outstanding),
              file=sys.stderr)
