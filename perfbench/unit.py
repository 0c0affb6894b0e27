"""One benchmark step in a fresh interpreter: set-up, or one timed run.

    python3 perfbench/unit.py setup <workload> --seed S --dir DIR
    python3 perfbench/unit.py run <workload> --seed S --dir DIR \\
        [--trace] [--corrupt KIND]

``perfbench/run.py`` launches this with ``PYTHONPATH=src`` and a pinned
environment; it is not meant to be run by hand. The step prints one
JSON object on its last stdout line. ``setup`` writes the workload's
generated inputs into DIR (and, for ``fleet-warm``, the probe result
cache). ``run`` performs one timed unit of work in DIR, which holds a
fresh copy of those inputs, checks its outputs, and reports what it
measured.

Every input the program sees is generated here from ``--seed``: the
:class:`~repro.fleet.population.PopulationSpec` of a fleet workload,
or the op stream of ``service-journal``.
"""

import argparse
import collections
import hashlib
import json
import os
import random
import resource
import statistics
import sys
import time

FLEET_MINUTES = 15.0
MITIGATIONS = ("vanilla", "leaseos")
WARM_PROFILE = "Google Pixel XL"

#: Per-workload sizes. "full" is the benchmark; "tiny" is the
#: self-test's (seconds per workload, same code paths).
SIZES = {
    "full": {
        # Default law; the population is conditioned on exactly
        # ``classes`` disjoint device classes, whose apps cost about
        # ``class_cost_ms`` of kernel time, so every seed needs the
        # same number of kernel probes (see classes_disjoint).
        "fleet-cold": {"devices": 2, "shard_size": 50, "classes": 10,
                       "class_cost_ms": 175.0},
        "fleet-warm": {"devices": 50000, "shard_size": 12500,
                       "buggy_cases": 4},
        # Default law; conditioned so that each shard's apps cost about
        # ``shard_cost_ms`` of kernel time (see KERNEL_APP_MS).
        "fleet-kernel": {"devices": 16, "shard_size": 8,
                         "shard_cost_ms": 800.0},
        "service-journal": {"ops": 10000},
    },
    "tiny": {
        "fleet-cold": {"devices": 1, "shard_size": 50, "classes": None,
                       "class_cost_ms": None},
        "fleet-warm": {"devices": 400, "shard_size": 200,
                       "buggy_cases": 1},
        "fleet-kernel": {"devices": 2, "shard_size": 1,
                         "shard_cost_ms": None},
        "service-journal": {"ops": 400},
    },
}

WORKLOADS = tuple(SIZES["full"])

#: Kernel milliseconds one installed app adds to a device-day, by app:
#: a 15 sim-min day, both mitigations, of a Nexus 6 device (device 0 of
#: population seed 777) with only that app installed, median of three,
#: measured on a 2-vCPU Intel Xeon at 2.1 GHz. The benchmark's own
#: estimate of how much kernel work a device holds, used only to pick
#: comparable ``fleet-cold`` and ``fleet-kernel`` populations; it is
#: fixed here, so a program change never alters which population a
#: seed gets.
KERNEL_APP_MS = {"k9": 145.2, "runkeeper": 71.6, "opengpstracker": 62.2,
                 "spotify": 51.9, "podcast": 46.5, "textsecure": 27.9,
                 "haven": 19.2, "servalmesh": 16.3, "tapandturn": 11.7,
                 "where": 11.3, "messenger": 8.6, "riot": 8.2,
                 "aimsicd": 8.1, "facebook": 7.9, "opensciencemap": 7.6,
                 "k9-fixed": 7.5, "browser": 6.8, "maps": 6.7,
                 "standup-timer": 6.6, "mozstumbler": 6.5, "gpslogger": 5.1,
                 "bostonbusmap": 4.6, "osmtracker": 4.1,
                 "connectbot-screen": 2.9, "nextcloud": 2.7, "kontalk": 2.4,
                 "betterweather": 2.1, "connectbot-wifi": 1.6, "torch": 1.5}

#: The service client's traffic, measured on the lease traffic the
#: simulated LeaseOS devices mirror into the lease authority:
#: ``repro fleet --seed 2019 --devices 64 --shard-size 32 --mode kernel
#: --service-journal DIR`` (the default law otherwise), 8,176 journal
#: records in two worker journals. Counts, not shares, so the numbers
#: can be checked against that journal (perfbench/README.md).
#: Calls other than register and sweep, by kind.
MIRROR_OPS = (("acquire", 962), ("renew", 877), ("note_utility", 5990),
              ("release", 48))
#: 271 registrations over 962 acquires: an acquire is a new consumer's
#: first with this probability. Otherwise it comes from one of the
#: ``MIRROR_CONSUMERS`` newest consumers (the median per device-day).
MIRROR_NEW_CONSUMER = 271 / 962
MIRROR_CONSUMERS = 4
#: Every acquire and renew carried LeaseOS's 5 s term.
MIRROR_TERM_S = 5.0
MIRROR_RESOURCES = (("wakelock", 646), ("gps", 177), ("audio", 74),
                    ("sensor", 55), ("screen", 7), ("wifi", 3))
#: 817 of 5,990 utility notes flagged misbehaviour; values 0, 50 and
#: 100 took 740, 1,102 and 2,145 of them, the rest spread over (0, 100).
MIRROR_MISBEHAVIOR = 817 / 5990
MIRROR_UTILITY = ((0.0, 740), (50.0, 1102), (100.0, 2145), (None, 2003))
#: Simulated seconds between consecutive calls of one device-day,
#: rounded up to a multiple of 5 s (half the calls share a timestamp).
MIRROR_STEP_S = ((0, 4108), (5, 2250), (10, 269), (15, 186), (20, 270),
                 (25, 167), (30, 442), (35, 73), (40, 45), (45, 22),
                 (50, 36), (55, 29), (60, 145), (65, 4), (70, 2), (75, 2),
                 (80, 3), (85, 3), (95, 1), (100, 2), (105, 10),
                 (115, 1), (120, 6))


def derive_seed(workload, seed, attempt):
    """A population seed for ``attempt`` of ``workload`` at ``seed``."""
    token = "{}:{}:{}".format(workload, seed, attempt).encode("utf-8")
    return int.from_bytes(hashlib.sha256(token).digest()[:4], "big") >> 1


# -- input generation -----------------------------------------------------------

def device_classes(population):
    """Distinct (profile, buggy set, app) classes among the devices.

    The benchmark's own measure of how much distinct work a small
    fleet holds: a device's base day (app ``""``) and each of its apps
    under its profile and its set of buggy apps. It reads only the
    sampled inputs, not the program's probe planner.
    """
    classes = set()
    for index in range(population.devices):
        device = population.device(index)
        buggy = tuple(sorted(device.buggy_apps))
        for name in ("",) + device.normal_apps + device.buggy_apps:
            classes.add((device.profile, buggy, name))
    return classes


def classes_disjoint(population):
    """True when no two devices can share a class and every device
    with buggy apps also runs normal ones.

    Devices of distinct profiles never share a class, and a buggy app
    next to normal apps is exercised the same way on every device. So
    the fleet's kernel work is the same function of its class count
    for every seed; without this rule two seeds with the same count
    differed by 10% in their days to simulate.
    """
    devices = [population.device(index)
               for index in range(population.devices)]
    return len({device.profile for device in devices}) == len(devices) \
        and all(device.normal_apps for device in devices
                if device.buggy_apps)


def near(value, target, tolerance):
    return abs(value - target) <= tolerance * target


def shard_costs_ms(population):
    """Estimated kernel milliseconds of each shard (KERNEL_APP_MS),
    one shard at a time."""
    for shard in range(population.shard_count):
        start, stop = population.shard_range(shard)
        yield sum(KERNEL_APP_MS[name]
                  for device in population.devices_in(start, stop)
                  for name in device.normal_apps + device.buggy_apps)


def population_kwargs(workload, seed, size):
    """The PopulationSpec keyword arguments ``workload`` runs at."""
    from repro.fleet import PopulationSpec
    from repro.fleet.population import BUGGY_POOL

    law = dict(devices=size["devices"], shard_size=size["shard_size"],
               mitigations=MITIGATIONS, minutes=FLEET_MINUTES,
               buggy_prevalence=0.25, chaos_rate=0.0)
    if workload == "fleet-warm":
        law.update(profiles=(WARM_PROFILE,),
                   buggy_pool=BUGGY_POOL[:size["buggy_cases"]])
        return dict(law, seed=derive_seed(workload, seed, 0))
    for attempt in range(100000):
        kwargs = dict(law, seed=derive_seed(workload, seed, attempt))
        population = PopulationSpec(**kwargs)
        if workload == "fleet-cold" and size["classes"] is not None:
            if not classes_disjoint(population):
                continue
            classes = device_classes(population)
            if len(classes) != size["classes"] or not near(
                    sum(KERNEL_APP_MS[name] for __, __, name in classes
                        if name), size["class_cost_ms"], 0.05):
                continue
        if workload == "fleet-kernel" and size["shard_cost_ms"] \
                is not None and not all(
                    near(cost, size["shard_cost_ms"], 0.02)
                    for cost in shard_costs_ms(population)):
            continue
        return kwargs
    raise RuntimeError("no population of the requested size found")


def _draw(rng, table):
    values, weights = zip(*table)
    return rng.choices(values, weights)[0]


def service_ops(seed, size):
    """The closed-loop client's call stream, generated from ``seed``.

    One client issues calls one after another on a simulated clock,
    with the kinds, terms, resources, consumers, utility notes and
    clock steps measured on mirrored fleet traffic (``MIRROR_*``).
    Before each call the client runs ``maybe_sweep``, as the fleet's
    mirror does. It registers a consumer on first use. It renews and
    releases only leases that no sweep can have expired yet, and when
    it has none, a renew becomes a fresh acquire (as the mirror does
    for a swept lease) and a release is skipped. Utility is noted on
    leases of its newest consumers. Lease ids are predicted (the
    service grants them in order), so the stream is fixed before the
    service runs.
    """
    from repro.service.service import SWEEP_INTERVAL_S

    rng = random.Random(seed)
    ops = []
    recent = []  # newest consumers, oldest first
    leases = {}  # consumer -> lease ids
    expiry = {}  # unreleased lease id -> expiry time
    consumers = 0
    next_id = 1
    t = 0.0

    while len(ops) < size["ops"]:
        kind = _draw(rng, MIRROR_OPS)
        now = t + _draw(rng, MIRROR_STEP_S)
        # Scheduled sweep k fires in [(k + 1) I, (k + 1) I + I / 4] and
        # expires leases whose term ended by then; a lease that may
        # have been swept by ``now`` is dropped for good.
        last = int(now // SWEEP_INTERVAL_S) - 1
        if last >= 0:
            swept_by = (last + 1.25) * SWEEP_INTERVAL_S
            expiry = {lease: end for lease, end in expiry.items()
                      if end > swept_by}
        live = sorted(expiry)
        noted = [lease for name in recent for lease in leases[name]]
        if kind == "release" and not live:
            continue
        if kind == "renew" and not live or \
                kind == "note_utility" and not noted:
            kind = "acquire"
        t = now
        if kind == "acquire":
            if not recent or rng.random() < MIRROR_NEW_CONSUMER:
                consumer = "c{:05d}".format(consumers)
                consumers += 1
                recent = (recent + [consumer])[-MIRROR_CONSUMERS:]
                leases[consumer] = []
                ops.append(["register", t, consumer])
            else:
                consumer = rng.choice(recent)
            ops.append(["acquire", t, consumer,
                        _draw(rng, MIRROR_RESOURCES), MIRROR_TERM_S,
                        next_id])
            leases[consumer].append(next_id)
            expiry[next_id] = t + MIRROR_TERM_S
            next_id += 1
        elif kind == "renew":
            lease = rng.choice(live)
            ops.append(["renew", t, lease, MIRROR_TERM_S])
            expiry[lease] = t + MIRROR_TERM_S
        elif kind == "release":
            lease = rng.choice(live)
            ops.append(["release", t, lease])
            del expiry[lease]
        else:
            value = _draw(rng, MIRROR_UTILITY)
            if value is None:
                value = round(rng.uniform(0.0, 100.0), 6)
            ops.append(["note_utility", t, rng.choice(noted), value,
                        rng.random() < MIRROR_MISBEHAVIOR])
    return ops[:size["ops"]]


def setup(workload, seed, size, directory):
    """Write the workload's inputs into ``directory``."""
    os.makedirs(directory, exist_ok=True)
    inputs = {"workload": workload, "seed": seed}
    if workload == "service-journal":
        inputs["ops"] = service_ops(seed, size)
    else:
        from repro.fleet import PopulationSpec

        kwargs = population_kwargs(workload, seed, size)
        inputs["population"] = PopulationSpec(**kwargs).to_json()
        if workload == "fleet-warm":
            # Every probe lands in the result cache the timed runs
            # start from; they run in-process here, which writes the
            # same cache entries as supervised dispatch.
            from repro.experiments.grid import GridRunner
            from repro.fleet.fastpath import build_table

            build_table(PopulationSpec(**kwargs),
                        runner=GridRunner(jobs=1, cache=os.path.join(
                            directory, "cache")))
    payload = json.dumps(inputs, sort_keys=True)
    with open(os.path.join(directory, "inputs.json"), "w") as handle:
        handle.write(payload)
    return {"inputs_sha256": hashlib.sha256(
        payload.encode("utf-8")).hexdigest()}


# -- measurement helpers ----------------------------------------------------------

def _files(directory):
    if not os.path.isdir(directory):
        return []
    out = []
    for root, __, names in os.walk(directory):
        out.extend(os.path.join(root, name) for name in names)
    return out


def dir_bytes(directory):
    return sum(os.path.getsize(path) for path in _files(directory))


def peak_rss_mb():
    """Peak RSS of this process and of its waited-for workers."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0


def nearest_rank(sorted_values, q):
    """The nearest-rank ``q`` quantile of an ascending list."""
    rank = max(int(-(-q * len(sorted_values) // 1)), 1)
    return sorted_values[min(rank, len(sorted_values)) - 1]


def repeated(fn, budget_s=0.5, limit=25):
    """Wall times of ``fn`` over up to ``limit`` calls (at least one;
    stops once ``budget_s`` is spent), ascending, and its last
    result."""
    times = []
    result = None
    while len(times) < limit and (not times or sum(times) < budget_s):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    times.sort()
    return times, result


# -- the fleet unit ----------------------------------------------------------------

def _fleet_runner(population, directory, mode, telemetry):
    """A FleetRunner built the way ``repro fleet`` builds one:
    supervised, serial dispatch, result cache on."""
    from repro.experiments.grid import GridRunner
    from repro.fleet import FleetRunner
    from repro.resilience.supervisor import Supervisor

    runner = GridRunner(jobs=1, cache=os.path.join(directory, "cache"),
                        supervisor=Supervisor(job_timeout_s=None,
                                              max_retries=2,
                                              fail_fast=False))
    return FleetRunner(
        population, runner=runner,
        checkpoint_dir=os.path.join(directory, "checkpoints"),
        mode=mode,
        telemetry_dir=os.path.join(directory, "telemetry")
        if telemetry else None)


def _fleet_report(fleet_runner):
    """What ``repro fleet`` does after its shards ran: merge, report."""
    from repro.fleet import build_report

    degraded = bool(fleet_runner.pending_shards())
    merged = fleet_runner.merged_stats(allow_missing=degraded)
    execution = {"mode": fleet_runner.mode,
                 "requested_mode": fleet_runner.requested_mode}
    if fleet_runner.mode == "vector":
        execution["table_fingerprint"] = fleet_runner.table_fingerprint or ""
    report = build_report(fleet_runner.population, merged,
                          execution=execution)
    if degraded:
        report["degraded"] = {
            "missing_shards": list(fleet_runner.missing_shards),
            "failure_manifest": ""}
    return report, execution


def fleet_run(workload, inputs, directory, tracer):
    """One ``repro fleet`` run, timed from the PopulationSpec to the
    report bytes written, then resumed from disk."""
    from repro.fleet import PopulationSpec, write_report

    mode = "kernel" if workload == "fleet-kernel" else "vector"
    telemetry = workload == "fleet-cold"
    report_path = os.path.join(directory, "report.json")
    spec_json = inputs["population"]
    written = [os.path.join(directory, name)
               for name in ("cache", "checkpoints", "telemetry")]
    cache_before = dir_bytes(written[0])

    def unit():
        population = PopulationSpec.from_json(spec_json)
        fleet_runner = _fleet_runner(population, directory, mode, telemetry)
        fleet_runner.run_shards()
        report, execution = _fleet_report(fleet_runner)
        write_report(report, path=report_path)
        return population, fleet_runner, report, execution

    start = time.perf_counter()
    if tracer is not None:
        population, fleet_runner, report, execution = tracer.root(unit)
    else:
        population, fleet_runner, report, execution = unit()
    wall_s = time.perf_counter() - start
    rss = peak_rss_mb()

    from repro.fleet.report import report_json

    canonical = report_json(report)
    if fleet_runner.telemetry is not None:
        # The CLI's terminal record, which the stream check folds to.
        fleet_runner.telemetry.run_finished(
            fleet_runner.run_summary(), population.devices, execution,
            hashlib.sha256(canonical.encode("utf-8")).hexdigest(),
            degraded=report.get("degraded"))
        fleet_runner.telemetry.close()

    # Device-days of shards that left no checkpoint.
    lost = 0
    for shard in range(population.shard_count):
        if not os.path.exists(fleet_runner._checkpoint_path(shard)):
            shard_start, shard_stop = population.shard_range(shard)
            lost += (shard_stop - shard_start) * len(population.mitigations)
    disk = sum(dir_bytes(path) for path in written) - cache_before \
        + os.path.getsize(report_path)
    table = fleet_runner._table_json
    probes = len(json.loads(table)["entries"]) if table else 0
    runners = [fleet_runner.runner]

    def recover():
        resumed = _fleet_runner(PopulationSpec.from_json(spec_json),
                                directory, mode, telemetry=False)
        runners.append(resumed.runner)
        resumed.run_shards()
        return report_json(_fleet_report(resumed)[0]), resumed

    if tracer is not None:
        recover_times, (resumed_json, resumed) = repeated(
            lambda: tracer.root(recover), limit=1)
    else:
        recover_times, (resumed_json, resumed) = repeated(recover,
                                                          limit=200)
    return {
        "population": population, "fleet_runner": fleet_runner,
        "report": report, "canonical": canonical,
        "report_path": report_path, "wall_s": wall_s, "rss": rss,
        "lost": lost, "disk": disk,
        "recover_times": recover_times, "resumed_json": resumed_json,
        "resumed_run": resumed.shards_run, "runners": runners,
        "probes": probes,
    }


def fleet_checks(workload, run, directory):
    """Output checks of one fleet run: ``{check: problem or None}``."""
    population = run["population"]
    fleet_runner = run["fleet_runner"]
    runner = fleet_runner.runner
    checks = {}
    with open(run["report_path"], "rb") as handle:
        on_disk = handle.read()
    checks["report_bytes"] = None \
        if on_disk == (run["canonical"] + "\n").encode("utf-8") \
        else "report file differs from the report the run built"
    problem = None
    try:
        report = json.loads(on_disk.decode("utf-8"))
        for name in population.mitigations:
            counters = report["mitigations"][name]["counters"]
            if counters.get("devices") != population.devices:
                problem = "{} devices counter {} != {}".format(
                    name, counters.get("devices"), population.devices)
            elif counters.get("crashed", 0) != 0:
                problem = "{} crashed {} device-days".format(
                    name, counters["crashed"])
    except (ValueError, KeyError, TypeError) as exc:
        problem = "report unreadable: {}".format(exc)
    checks["counters"] = problem
    checks["complete"] = None if not fleet_runner.quarantined_shards \
        and not fleet_runner.missing_shards and run["lost"] == 0 else \
        "shards quarantined or missing"
    checks["resume"] = None \
        if run["resumed_json"] + "\n" == on_disk.decode("utf-8", "replace") \
        and run["resumed_run"] == 0 \
        else "resuming from checkpoints did not rebuild the report"
    stats = runner.stats
    if workload == "fleet-cold":
        from repro.telemetry.watch import check_report, load_view

        view, problems = load_view(os.path.join(directory, "telemetry"))
        checks["telemetry"] = "; ".join(problems) if problems \
            else check_report(view, run["report_path"])
        checks["cold_cache"] = None if stats.cache_hits == 0 \
            else "{} cache hits on a cold run".format(stats.cache_hits)
    if workload == "fleet-warm":
        shards = population.shard_count
        checks["warm_cache"] = None \
            if stats.cache_hits == stats.submitted - shards == run["probes"] \
            and stats.cache_misses == stats.executed == shards \
            else ("{} cache hits for {} probes, {} of {} shards "
                  "executed".format(stats.cache_hits, run["probes"],
                                    stats.executed, shards))
    return checks


def fleet_result(workload, inputs, directory, tracer, corrupt):
    run = fleet_run(workload, inputs, directory, tracer)
    if corrupt == "report-byte":
        with open(run["report_path"], "r+b") as handle:
            handle.seek(len(run["canonical"]) // 2)
            byte = handle.read(1)
            handle.seek(-1, os.SEEK_CUR)
            handle.write(bytes([byte[0] ^ 0x01]))
    checks = fleet_checks(workload, run, directory)
    population = run["population"]
    device_days = population.devices * len(population.mitigations)
    crashed = 0
    for name in population.mitigations:
        crashed += run["report"]["mitigations"][name]["counters"].get(
            "crashed", 0)
    # A fleet finishes device-days a shard at a time, so no single
    # device-day has a latency of its own: the per-op figures are the
    # wall time per device-day, and stand in for wall_s.
    per_day_us = 1e6 * run["wall_s"] / device_days
    counters = run["report"]["mitigations"]["vanilla"]["counters"]
    with open(run["report_path"], "rb") as handle:
        report_sha = hashlib.sha256(handle.read()).hexdigest()
    result = {
        "metrics": {
            "wall_s": run["wall_s"],
            "peak_rss_mb": run["rss"],
            "ops_per_s": device_days / run["wall_s"],
            "op_p50_us": per_day_us,
            "op_p999_us": per_day_us,
            "recover_s": statistics.median(run["recover_times"]),
            "disk_bytes_per_op": run["disk"] / device_days,
        },
        "ops": device_days,
        "failed_ops": crashed + run["lost"],
        "checks": checks,
        "output_sha256": report_sha,
        "sizes": {"devices": population.devices,
                  "shards": population.shard_count,
                  "device_days": device_days,
                  "population_seed": population.seed,
                  "probes": run["probes"],
                  "recover_calls": len(run["recover_times"]),
                  "vector_devices": counters.get("vector_devices", 0),
                  "fallback_devices": counters.get("fastpath_fallbacks",
                                                   0)},
    }
    if tracer is not None:
        result["layers"] = fleet_layers(run, directory)
    return result


def _sum_stats(runners):
    from repro.experiments.grid import RunnerStats
    from repro.resilience.supervisor import SupervisorStats

    grid, supervised = RunnerStats(), SupervisorStats()
    for runner in runners:
        for name, value in runner.stats.as_dict().items():
            setattr(grid, name, getattr(grid, name) + value)
        for name, value in runner.supervisor.stats.as_dict().items():
            setattr(supervised, name, getattr(supervised, name) + value)
    return grid, supervised


def fleet_layers(run, directory):
    """Per-layer counts read from the program and from disk."""
    grid, supervised = _sum_stats(run["runners"])
    counters = run["report"]["mitigations"]["vanilla"]["counters"]
    return {
        "supervisor.jobs": supervised.jobs,
        "supervisor.attempts": supervised.attempts,
        "supervisor.retries": supervised.retries,
        "supervisor.quarantined": supervised.quarantined,
        "grid.executed": grid.executed,
        "grid.cache_hits": grid.cache_hits,
        "grid.cache_bytes": dir_bytes(os.path.join(directory, "cache")),
        "shard.checkpoint_bytes":
            dir_bytes(os.path.join(directory, "checkpoints")),
        "vector.devices": counters.get("vector_devices", 0),
        "vector.fallback_devices": counters.get("fastpath_fallbacks", 0),
        "report.bytes": os.path.getsize(run["report_path"]),
        "telemetry.bytes": dir_bytes(os.path.join(directory, "telemetry")),
    }


# -- the service unit --------------------------------------------------------------

def service_result(inputs, directory, tracer, corrupt):
    """The op stream against a journaled LeaseService, then a strict
    recovery from disk alone."""
    from repro.service.service import LeaseService, ServiceError
    from repro.service.storage import JOURNAL_NAME, JournalStorage

    ops = inputs["ops"]
    seed = inputs["seed"]
    journal = os.path.join(directory, "journal")
    latencies = [0] * len(ops)
    state = {"failed": 0, "mispredicted": 0}

    def unit():
        service = LeaseService(storage=JournalStorage(journal), seed=seed)
        clock = time.perf_counter_ns
        for index, op in enumerate(ops):
            kind, t = op[0], op[1]
            begin = clock()
            try:
                service.maybe_sweep(t)
                if kind == "register":
                    service.register(op[2], t=t)
                elif kind == "acquire":
                    granted = service.acquire(op[2], op[3], t=t,
                                              term_s=op[4])
                    if granted != op[5]:
                        state["mispredicted"] += 1
                elif kind == "renew":
                    service.renew(op[2], t=t, term_s=op[3])
                elif kind == "note_utility":
                    service.note_utility(op[2], op[3], t=t,
                                         misbehavior=op[4])
                else:
                    service.release(op[2], t=t)
            except ServiceError:
                state["failed"] += 1
            latencies[index] = clock() - begin
        service.close()
        return service

    start = time.perf_counter()
    service = tracer.root(unit) if tracer is not None else unit()
    wall_s = time.perf_counter() - start
    rss = peak_rss_mb()
    live = service.fingerprint()
    leases = len(service.state.leases)
    disk = dir_bytes(journal)
    journal_bytes = os.path.getsize(os.path.join(journal, JOURNAL_NAME))
    if corrupt == "journal-record":
        _tamper_journal(os.path.join(journal, JOURNAL_NAME))

    def recover():
        try:
            return LeaseService.recover(JournalStorage(journal), seed=seed,
                                        strict=True)
        except ServiceError as exc:
            return exc

    if tracer is not None:
        recover_times, recovered = repeated(lambda: tracer.root(recover),
                                            limit=1)
    else:
        recover_times, recovered = repeated(recover, budget_s=1.0,
                                            limit=5)
    checks = {"ops": None if state["failed"] == 0
              and state["mispredicted"] == 0 else
              "{} ops raised ServiceError, {} lease ids mispredicted"
              .format(state["failed"], state["mispredicted"])}
    if isinstance(recovered, ServiceError):
        checks["recovery"] = "strict recovery failed: {}".format(recovered)
    elif recovered.recovery.degraded or recovered.violations:
        checks["recovery"] = "recovery degraded ({}) with {} violation(s)" \
            .format(recovered.recovery.reason, len(recovered.violations))
    elif recovered.fingerprint() != live:
        checks["recovery"] = "recovered fingerprint differs from live"
    else:
        checks["recovery"] = None
    latencies.sort()
    result = {
        "metrics": {
            "wall_s": wall_s,
            "peak_rss_mb": rss,
            "ops_per_s": len(ops) / wall_s,
            "op_p50_us": nearest_rank(latencies, 0.5) / 1000.0,
            "op_p999_us": nearest_rank(latencies, 0.999) / 1000.0,
            "recover_s": statistics.median(recover_times),
            "disk_bytes_per_op": disk / len(ops),
        },
        "ops": len(ops),
        "failed_ops": state["failed"],
        "checks": checks,
        "output_sha256": live,
        "sizes": {"ops": len(ops), "latency_samples": len(latencies),
                  "recover_calls": len(recover_times),
                  "beyond_p999": len(latencies) - int(
                      -(-0.999 * len(latencies) // 1)),
                  "calls": dict(collections.Counter(op[0] for op in ops)),
                  "sweeps": service.state.sweep_index,
                  "leases": leases, "disk_bytes": disk,
                  "files": len(_files(journal))},
    }
    if tracer is not None:
        snapshots = [path for path in _files(journal)
                     if os.path.basename(path).startswith("snapshot-")]
        result["layers"] = {
            "state.leases_retained": leases,
            "storage.snapshot_bytes": sum(os.path.getsize(path)
                                          for path in snapshots),
            "storage.journal_bytes": journal_bytes,
        }
    return result


def _tamper_journal(path):
    """Change one journaled value in the middle of the journal, keeping
    the line valid JSON: only the record's crc can tell."""
    with open(path) as handle:
        lines = handle.readlines()
    index = len(lines) // 2
    record = json.loads(lines[index])
    record["t"] = record["t"] + 1.0
    lines[index] = json.dumps(record, sort_keys=True,
                              separators=(",", ":")) + "\n"
    with open(path, "w") as handle:
        handle.writelines(lines)


# -- host facts -----------------------------------------------------------------

def host_facts():
    import platform

    from repro.fleet.stats import numpy_backend
    from repro.service.service import SNAPSHOT_EVERY
    from repro.service.storage import FSYNC_BATCH
    from repro.version import __version__

    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy_version,
            "numpy_backend": numpy_backend() is not None,
            "package_version": __version__,
            "FSYNC_BATCH": FSYNC_BATCH, "SNAPSHOT_EVERY": SNAPSHOT_EVERY}


# -- entry point -------------------------------------------------------------------

def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("phase", choices=("setup", "run"))
    parser.add_argument("workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=tuple(SIZES), default="full")
    parser.add_argument("--dir", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--corrupt", default="none",
                        choices=("none", "report-byte", "journal-record"))
    args = parser.parse_args(argv)
    size = SIZES[args.size][args.workload]
    if args.phase == "setup":
        result = setup(args.workload, args.seed, size, args.dir)
        result["host"] = host_facts()
        print(json.dumps(result))
        return 0
    with open(os.path.join(args.dir, "inputs.json")) as handle:
        inputs = json.load(handle)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.install(os.path.join(args.dir, "spans"))
    if args.workload == "service-journal":
        result = service_result(inputs, args.dir, tracer, args.corrupt)
    else:
        result = fleet_result(args.workload, inputs, args.dir, tracer,
                              args.corrupt)
    if tracer is not None:
        import tracing

        layers = result["layers"]
        layers.update(tracing.layer_metrics(tracer))
        attempts = layers.get("supervisor.attempts", 0)
        layers["supervisor.overhead_ms_per_job"] = 1000.0 * layers[
            "supervisor.dispatch_overhead_s"] / attempts if attempts else 0.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
