"""Scenario devices across the shard executors and the scalar oracle.

Scenario cases always run on the event kernel -- the transition-table
composition was never validated against generated families -- so the
contract under test is: (a) the vector engine and its scalar oracle
(``fastpath.replay_shard``) route scenario devices to the kernel
fallback, (b) kernel, vector and oracle produce identical
``scenario:<family>`` counters and vector matches the oracle's metric
stats, and (c) telemetry snapshots carry the family histogram exactly
when scenarios are present.
"""

from repro.fleet.fastpath import (
    TransitionTable,
    _scenario_guard,
    build_table,
    needed_probes,
    replay_shard,
    reset_fallback_warnings,
)
from repro.fleet.population import PopulationSpec
from repro.fleet.shard import run_shard
from repro.scenarios.catalog import ScenarioCatalog

EXAMPLE_PATH = "tests/data/scenario_catalog_example.json"


def scenario_population():
    return PopulationSpec(
        seed=11, devices=8, shard_size=8, minutes=2.0,
        mitigations=("vanilla", "leaseos"),
        catalog_json=ScenarioCatalog.from_file(EXAMPLE_PATH).to_json(),
        scenario_prevalence=0.5)


def test_scenario_guard_recognises_scenario_keys():
    assert _scenario_guard(()) is None
    assert _scenario_guard(("sync_abuser",)) is None
    assert _scenario_guard(
        ("sync_abuser", "scenario:late-release:gps:001")) == "scenario-app"


def test_needed_probes_skips_scenario_devices():
    population = scenario_population()
    probes = needed_probes(population)
    assert probes, "probe set empty"
    # Probe tuples are (kind, name, profile, mitigation, variant, env);
    # no buggy-kind probe may name a scenario key.
    for kind, name, *_rest in probes:
        if kind == "buggy":
            assert _scenario_guard((name,)) is None


def _scenario_counters(stats):
    return {name: count for name, count in stats["counters"].items()
            if name.startswith("scenario:")}


def test_executors_agree_on_scenario_devices():
    from repro.apps.buggy import scenario_families

    population = scenario_population()
    devices = [population.device(i) for i in range(8)]
    n_scenario = sum(1 for d in devices
                     if _scenario_guard(d.buggy_apps))
    # One count per (device, family) pair per mitigation day.
    n_family_days = sum(len(scenario_families(d.buggy_apps))
                        for d in devices)
    assert n_scenario, "seed lost its scenario devices"
    table_json = build_table(population).to_json()
    reset_fallback_warnings()
    kernel = run_shard(population.to_json(), 0, 8)
    oracle, oracle_crashes = replay_shard(
        population, 0, 8, TransitionTable.from_json(table_json))
    vector = run_shard(population.to_json(), 0, 8, mode="vector",
                       table_json=table_json)
    assert vector["crashes"] == oracle_crashes
    for mitigation in population.mitigations:
        k, v = (run["stats"][mitigation] for run in (kernel, vector))
        f = oracle[mitigation].to_dict()
        # The family counters are exact on every executor and the
        # oracle (scenario days always run on the kernel, whatever the
        # mode).
        assert _scenario_counters(k) == _scenario_counters(f) \
            == _scenario_counters(v)
        assert sum(_scenario_counters(k).values()) == n_family_days
        # Vector is bit-identical to the scalar oracle -- metrics and
        # counters -- apart from its own vector_devices counter.
        assert v["metrics"] == f["metrics"]
        assert {name: count for name, count in v["counters"].items()
                if name != "vector_devices"} == f["counters"]
        # Every scenario device fell back to the kernel on both.
        assert f["counters"]["fastpath_fallbacks"] >= n_scenario
        assert v["counters"]["fastpath_fallbacks"] >= n_scenario


def test_telemetry_snapshots_carry_family_histogram(tmp_path,
                                                    monkeypatch):
    from repro.telemetry.emit import ENV_DIR, ENV_FP, ENV_PROGRESS
    from repro.telemetry.schema import load_stream_dir

    population = scenario_population()
    monkeypatch.setenv(ENV_DIR, str(tmp_path))
    monkeypatch.setenv(ENV_FP, population.fingerprint()[:12])
    monkeypatch.setenv(ENV_PROGRESS, "0")
    run_shard(population.to_json(), 0, 8)
    events, problems = load_stream_dir(str(tmp_path))
    assert problems == []
    progress = [e for e in events if e["event"] == "shard_progress"]
    final = progress[-1]
    families = final["scenario_families"]
    assert families
    assert all(count > 0 for count in families.values())
    assert list(families) == sorted(families)


def test_catalog_free_stream_has_no_family_field(tmp_path, monkeypatch):
    from repro.telemetry.emit import ENV_DIR, ENV_FP, ENV_PROGRESS
    from repro.telemetry.schema import load_stream_dir

    population = PopulationSpec(seed=11, devices=4, shard_size=4,
                                minutes=2.0)
    monkeypatch.setenv(ENV_DIR, str(tmp_path))
    monkeypatch.setenv(ENV_FP, population.fingerprint()[:12])
    monkeypatch.setenv(ENV_PROGRESS, "0")
    run_shard(population.to_json(), 0, 4)
    events, problems = load_stream_dir(str(tmp_path))
    assert problems == []
    for event in events:
        assert "scenario_families" not in event
