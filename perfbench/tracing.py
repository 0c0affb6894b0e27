"""Span tracing of the program's layers, installed from outside.

Nothing under ``src/`` knows about this module. :func:`install` wraps
the public entry points of each layer (plus the two checkpoint helpers
of ``FleetRunner``) in the running interpreter, so every call records a
span: ``(id, parent, name, start, end)`` on ``time.perf_counter``,
kept in memory. Forked supervisor workers inherit the wrappers; each
worker records its job under a ``worker.job`` span whose parent is the
``supervisor.execute`` span that forked it, and writes its spans to
``<spans_dir>/worker-<pid>.json`` before it hands its result back.
:func:`layer_metrics` folds the parent's spans and every worker file
into the per-layer metrics named in ``BENCHMARK.json``.

A layer's self time is the time of its spans minus the time of their
direct child spans, in whatever process the child ran.
"""

import functools
import itertools
import json
import os
import sys
import time

#: Layer keys, in the order the per-layer metrics list them.
LAYERS = ("supervisor", "grid", "fastpath", "sim", "shard", "population",
          "vector", "stats", "report", "telemetry", "state", "storage",
          "service")

#: Root span of the benchmark's own timed code; its self time is
#: the time no wrapped entry point accounts for.
ROOT = "bench"


class Tracer:
    """In-memory span recorder for one process (and its forks)."""

    def __init__(self, spans_dir):
        self.spans_dir = spans_dir
        self.pid = os.getpid()
        self.spans = []
        self.stack = []
        self.counters = {}
        self._ids = itertools.count(1)

    def _new_id(self):
        return "{}:{}".format(self.pid, next(self._ids))

    def count(self, name, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def record(self, name, value):
        self.counters[name] = value

    def call(self, name, fn, args, kwargs):
        span_id = self._new_id()
        parent = self.stack[-1] if self.stack else None
        self.stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans.append((span_id, parent, name, start, end))

    def root(self, fn, *args, **kwargs):
        """Run ``fn`` under a benchmark root span; returns its result."""
        return self.call(ROOT, fn, args, kwargs)

    # -- forked workers ------------------------------------------------

    def enter_worker(self):
        """Called first thing in a forked worker: keep the inherited
        stack (it names the span that forked us), drop inherited
        spans and counters, and take fresh ids."""
        self.pid = os.getpid()
        self.spans = []
        self.counters = {}
        self._ids = itertools.count(1)

    def dump(self):
        os.makedirs(self.spans_dir, exist_ok=True)
        path = os.path.join(self.spans_dir,
                            "worker-{}.json".format(self.pid))
        with open(path, "w") as handle:
            json.dump({"spans": self.spans, "counters": self.counters},
                      handle)

    def all_spans(self):
        """This process's spans plus every worker file, and the summed
        counters."""
        spans = list(self.spans)
        counters = dict(self.counters)
        if os.path.isdir(self.spans_dir):
            for name in sorted(os.listdir(self.spans_dir)):
                with open(os.path.join(self.spans_dir, name)) as handle:
                    payload = json.load(handle)
                spans.extend(tuple(span) for span in payload["spans"])
                for key, value in payload["counters"].items():
                    counters[key] = counters.get(key, 0) + value
        return spans, counters


class _WorkerSpec:
    """What a traced worker executes in place of the real spec: the
    job under a ``worker.job`` span, then the span file."""

    def __init__(self, tracer, spec):
        self.tracer = tracer
        self.spec = spec

    def execute(self):
        try:
            return self.tracer.call("worker.job", self.spec.execute, (), {})
        finally:
            self.tracer.dump()


def _wrapper(tracer, name, fn, after=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if after is None:
            return tracer.call(name, fn, args, kwargs)
        result = tracer.call(name, fn, args, kwargs)
        after(args, result)
        return result

    return traced


def _replace_everywhere(original, replacement):
    """Point every loaded ``repro`` module's reference to ``original``
    (definitions and ``from x import y`` copies alike) at
    ``replacement``."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(spans_dir):
    """Wrap every traced entry point; returns the :class:`Tracer`."""
    import repro.experiments.grid as grid
    import repro.faults.invariants as invariants
    import repro.fleet.fastpath as fastpath
    import repro.fleet.population as population
    import repro.fleet.report as report
    import repro.fleet.shard as shard
    import repro.fleet.stats as stats
    import repro.fleet.vector as vector
    import repro.resilience.supervisor as supervisor
    import repro.service.service as service
    import repro.service.state as state
    import repro.service.storage as storage
    import repro.sim.engine as engine
    import repro.telemetry.writer as writer

    tracer = Tracer(spans_dir)

    def patch_method(cls, attr, name, after=None):
        setattr(cls, attr, _wrapper(tracer, name, getattr(cls, attr), after))

    def patch_function(module, attr, name, after=None):
        original = getattr(module, attr)
        _replace_everywhere(original,
                            _wrapper(tracer, name, original, after))

    # supervisor: the dispatch loop, and the job inside each worker.
    patch_method(supervisor.Supervisor, "execute", "supervisor.execute")
    worker_main = supervisor._worker_main

    def traced_worker_main(conn, spec, *rest):
        tracer.enter_worker()
        return worker_main(conn, _WorkerSpec(tracer, spec), *rest)

    supervisor._worker_main = traced_worker_main

    patch_method(grid.GridRunner, "run", "grid.run")
    patch_method(grid.ResultCache, "load", "grid.cache_read")
    patch_method(grid.ResultCache, "store", "grid.cache_write")

    patch_function(fastpath, "needed_probes", "fastpath.needed_probes",
                   after=lambda args, probes: tracer.record(
                       "fastpath.probes", len(probes)))
    patch_function(fastpath, "build_table", "fastpath.build_table")
    patch_function(fastpath, "probe_day", "fastpath.probe_day")

    def sim_call(method):
        def run(self, *args, **kwargs):
            before = self.dispatched
            try:
                return method(self, *args, **kwargs)
            finally:
                tracer.count("sim.events", self.dispatched - before)

        return functools.wraps(method)(run)

    for attr in ("run_until", "run"):
        setattr(engine.Simulator, attr, _wrapper(
            tracer, "sim.run", sim_call(getattr(engine.Simulator, attr))))

    patch_function(shard, "simulate_device_day", "shard.simulate_device_day")
    patch_function(shard, "run_shard", "shard.run_shard")
    patch_method(shard.FleetRunner, "run_shards", "shard.run_shards")
    patch_method(shard.FleetRunner, "merged_stats", "shard.merged_stats")
    patch_method(shard.FleetRunner, "_write_checkpoint",
                 "shard.checkpoint_write")
    patch_method(shard.FleetRunner, "_load_checkpoint",
                 "shard.checkpoint_load")

    patch_method(population.PopulationSpec, "sample_columns",
                 "population.sample_columns")
    patch_method(population.PopulationSpec, "device", "population.device")

    patch_function(vector, "replay_shard_vector", "vector.replay_shard")
    patch_function(vector, "compose_shard", "vector.compose_shard")

    patch_method(stats.FleetStats, "observe", "stats.observe")
    patch_method(stats.FleetStats, "observe_many", "stats.observe_many")
    patch_method(stats.FleetStats, "merge", "stats.merge")

    patch_function(report, "build_report", "report.build")
    patch_function(report, "write_report", "report.write")

    patch_method(writer.TelemetryWriter, "emit", "telemetry.emit")

    patch_method(state.ServiceState, "check", "state.check")
    patch_method(state.ServiceState, "apply", "state.apply")
    patch_method(state.ServiceState, "to_canonical", "state.to_canonical")

    patch_method(storage.JournalStorage, "append", "storage.append")
    flush = storage.JournalStorage.flush

    def counted_flush(self):
        if self._handle is not None and self._unsynced:
            tracer.count("storage.fsyncs")
        return flush(self)

    storage.JournalStorage.flush = _wrapper(
        tracer, "storage.flush", functools.wraps(flush)(counted_flush))
    patch_method(storage.JournalStorage, "snapshot", "storage.snapshot",
                 after=lambda args, result: tracer.count("storage.fsyncs"))
    patch_method(storage.JournalStorage, "load", "storage.load")

    for attr in ("register", "acquire", "renew", "release",
                 "note_utility", "maybe_sweep"):
        patch_method(service.LeaseService, attr, "service." + attr)
    patch_method(service.LeaseService, "_sweep_at", "service.sweep")
    # recover is a classmethod: wrap the underlying function.
    recover = service.LeaseService.__dict__["recover"].__func__
    service.LeaseService.recover = classmethod(
        _wrapper(tracer, "service.recover", recover))
    patch_function(invariants, "check_service_recovery",
                   "service.recover_audit")
    return tracer


def _layer(name):
    if name == "worker.job":
        return "supervisor"
    return name.split(".", 1)[0]


def layer_metrics(tracer):
    """Fold every recorded span into the per-layer metrics.

    Returns ``{metric: value}`` for the span-derived metrics; the
    caller adds those read from program counters and files.
    """
    spans, counters = tracer.all_spans()
    by_id = {span[0]: span for span in spans}
    child_time = {}
    for span_id, parent, __, start, end in spans:
        if parent is not None and parent in by_id:
            child_time[parent] = child_time.get(parent, 0.0) + end - start
    total = {}
    calls = {}
    durations = {}
    self_time = {layer: 0.0 for layer in LAYERS}
    unattributed = 0.0
    fallback_s = 0.0
    for span_id, parent, name, start, end in spans:
        duration = end - start
        own = duration - child_time.get(span_id, 0.0)
        total[name] = total.get(name, 0.0) + duration
        calls[name] = calls.get(name, 0) + 1
        durations.setdefault(name, []).append(duration)
        if name == ROOT:
            unattributed += own
        else:
            self_time[_layer(name)] += own
        if name == "shard.simulate_device_day" and parent in by_id \
                and by_id[parent][2] == "vector.replay_shard":
            fallback_s += duration

    def seconds(name):
        return total.get(name, 0.0)

    probe_days = sorted(durations.get("fastpath.probe_day", []))
    sim_s = seconds("sim.run")
    recover_s = seconds("service.recover")
    metrics = {
        "supervisor.dispatch_overhead_s": self_time["supervisor"],
        "grid.cache_read_s": seconds("grid.cache_read"),
        "grid.cache_write_s": seconds("grid.cache_write"),
        "fastpath.probes": counters.get("fastpath.probes", 0),
        "fastpath.needed_probes_s": seconds("fastpath.needed_probes"),
        "fastpath.build_table_s": seconds("fastpath.build_table"),
        "fastpath.probe_day_s": seconds("fastpath.probe_day"),
        "fastpath.probe_day_p50_ms":
            1000.0 * probe_days[(len(probe_days) - 1) // 2]
            if probe_days else 0.0,
        "sim.events": counters.get("sim.events", 0),
        "sim.events_per_s":
            counters.get("sim.events", 0) / sim_s if sim_s else 0.0,
        "shard.device_days_kernel": calls.get("shard.simulate_device_day",
                                              0),
        "shard.simulate_device_day_s":
            seconds("shard.simulate_device_day"),
        "shard.run_shard_s": seconds("shard.run_shard"),
        "shard.checkpoint_write_s": seconds("shard.checkpoint_write"),
        "shard.checkpoint_load_s": seconds("shard.checkpoint_load"),
        "population.sample_columns_s":
            seconds("population.sample_columns"),
        "population.device_s": seconds("population.device"),
        "vector.compose_shard_s": seconds("vector.compose_shard"),
        "vector.replay_shard_s": seconds("vector.replay_shard"),
        "vector.fallback_s": fallback_s,
        "stats.observe_many_s": seconds("stats.observe_many"),
        "stats.observe_s": seconds("stats.observe"),
        "stats.merge_s": seconds("stats.merge"),
        "report.build_s": seconds("report.build"),
        "telemetry.events": calls.get("telemetry.emit", 0),
        "telemetry.emit_s": seconds("telemetry.emit"),
        "state.check_s": seconds("state.check"),
        "state.apply_s": seconds("state.apply"),
        "state.to_canonical_s": seconds("state.to_canonical"),
        "storage.append_s": seconds("storage.append"),
        "storage.fsyncs": counters.get("storage.fsyncs", 0),
        "storage.snapshots": calls.get("storage.snapshot", 0),
        "storage.snapshot_s": seconds("storage.snapshot"),
        "storage.load_s": seconds("storage.load"),
        "service.sweeps": calls.get("service.sweep", 0),
        "service.sweep_s": seconds("service.sweep"),
        "service.recover_audit_s": seconds("service.recover_audit"),
        "service.recover_replay_s":
            max(recover_s - seconds("storage.load")
                - seconds("service.recover_audit"), 0.0)
            if recover_s else 0.0,
        "trace.unattributed_s": unattributed,
        "trace.spans": len(spans),
    }
    for layer in LAYERS:
        metrics[layer + ".self_s"] = self_time[layer]
    return metrics
