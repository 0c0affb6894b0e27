"""Failure manifests: exact accounting, and replay as repro bundles."""

import io
import json

from contextlib import redirect_stdout

import pytest

from repro.experiments.grid import FuncSpec
from repro.resilience.manifest import (
    AttemptRecord,
    FailureManifest,
    FailureRecord,
    seed_of,
)


def _chaos_spec(seed=7):
    from repro.experiments.chaos import run_chaos_case

    return FuncSpec.make(run_chaos_case, case_key="torch",
                         mitigation="vanilla", minutes=1.0,
                         seed=seed, plan_json="")


def _record(spec, label="job:0000:run_chaos_case"):
    token = spec.cache_token()
    return FailureRecord(
        label=label, spec=token, seed=seed_of(token),
        attempts=[AttemptRecord(attempt=1, outcome="timeout",
                                error="deadline", elapsed_s=1.5,
                                delay_s=0.2),
                  AttemptRecord(attempt=2, outcome="crash",
                                error="exitcode 86")])


def test_manifest_round_trips_through_disk(tmp_path):
    manifest = FailureManifest(run_fingerprint="abc123def456")
    manifest.add(_record(_chaos_spec()))
    path = manifest.write(directory=str(tmp_path))
    assert path.endswith("failures_abc123def456.json")
    loaded = FailureManifest.load(path)
    assert loaded.fingerprint() == "abc123def456"
    assert len(loaded) == 1
    record = loaded.records[0]
    assert record.seed == 7
    assert record.spec == _chaos_spec().cache_token()
    assert [a.outcome for a in record.attempts] == ["timeout", "crash"]
    assert record.attempts[0].delay_s == 0.2
    # the JSON is self-describing
    data = json.loads(open(path).read())
    assert data["kind"] == "failure_manifest"
    assert data["failed_jobs"] == 1


def test_failed_manifest_rewrite_keeps_the_old_file(tmp_path,
                                                   monkeypatch):
    import os

    manifest = FailureManifest(run_fingerprint="abc123def456")
    manifest.add(_record(_chaos_spec()))
    path = manifest.write(directory=str(tmp_path))
    with open(path, "rb") as handle:
        before = handle.read()
    manifest.add(_record(_chaos_spec(seed=8), label="job:0001:x"))

    def fail(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError):
        manifest.write(directory=str(tmp_path))
    with open(path, "rb") as handle:
        assert handle.read() == before
    assert not [name for name in os.listdir(str(tmp_path))
                if name.endswith(".tmp")]


def test_fingerprint_derived_from_specs_when_unset():
    a = FailureManifest()
    a.add(_record(_chaos_spec()))
    b = FailureManifest()
    b.add(_record(_chaos_spec()))
    assert a.fingerprint() == b.fingerprint()
    c = FailureManifest()
    c.add(_record(_chaos_spec(seed=8)))
    assert c.fingerprint() != a.fingerprint()


def test_seed_of_handles_every_spec_shape():
    assert seed_of({"kind": "case", "seed": 11}) == 11
    assert seed_of({"kind": "func",
                    "kwargs": [["seed", 5], ["x", 1]]}) == 5
    population_json = json.dumps({"seed": 2019, "devices": 4})
    assert seed_of({"kind": "func",
                    "kwargs": [["population_json", population_json]]}) \
        == 2019
    assert seed_of({"kind": "func", "kwargs": [["x", 1]]}) is None


# -- the acceptance path: manifest -> `repro chaos --replay` -----------------

def test_manifest_replays_through_the_chaos_cli(tmp_path):
    from repro.cli import main

    manifest = FailureManifest()
    manifest.add(_record(_chaos_spec()))
    # a fleet shard record rides along and must be skipped, not crash
    shard_spec = {"kind": "func", "func": "repro.fleet.shard:run_shard",
                  "kwargs": [["population_json", "{\"seed\": 1}"],
                             ["start", 0], ["stop", 2]]}
    manifest.add(FailureRecord(label="shard:000000", spec=shard_spec,
                               seed=1, attempts=[AttemptRecord(
                                   attempt=1, outcome="timeout",
                                   error="deadline")]))
    path = manifest.write(directory=str(tmp_path))

    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(["chaos", "--replay", path])
    text = buffer.getvalue()
    # torch/vanilla replays clean -> exit 0; the shard row is listed
    assert code == 0
    assert "replaying failure manifest" in text
    assert "replayed seed 7" in text
    assert "shard:000000" in text and "skipped" in text
    assert "1 job(s) replayed, 1 skipped" in text


def test_manifest_replay_surfaces_violations(tmp_path, monkeypatch):
    from repro.cli import main

    manifest = FailureManifest()
    manifest.add(_record(_chaos_spec()))
    path = manifest.write(directory=str(tmp_path))

    def fake_case(**kwargs):
        return {"seed": kwargs.get("seed", 0), "fingerprint": "f" * 64,
                "violations": [{"invariant": "planted", "time": 1.0,
                                "detail": "boom", "data": {}}]}

    import repro.experiments.chaos as chaos_module

    monkeypatch.setattr(chaos_module, "run_chaos_case", fake_case)
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(["chaos", "--replay", path])
    assert code == 1  # a reproduced violation must gate CI
    assert "1 violation(s)" in buffer.getvalue()
