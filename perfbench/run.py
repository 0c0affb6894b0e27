"""The repository's benchmark: four workloads, end to end and per layer.

    python3 perfbench/run.py --workload fleet-cold --seed 1 --seconds 20 \\
        --trace 0

Run from the repository root. The workloads, their metrics and the
layer map are described in ``perfbench/README.md`` and listed in
``BENCHMARK.json``. One invocation:

1. sets the workload up in fresh interpreters (inputs generated from
   ``--seed``), ``SETUP_REPEATS`` times or more while ``SETUP_BUDGET_S``
   lasts, and reports the median as ``setup_s``;
2. runs timed units, each in a fresh interpreter on a fresh copy of
   the inputs, until ``--seconds`` of them have elapsed (at least
   ``MIN_RUNS``), and reports the median of every metric;
3. checks every run's outputs, and that all runs of the workload
   produced the same report (or state fingerprint);
4. with ``--trace 1``, also makes one traced run and reports the
   per-layer metrics instead of the end-to-end ones.

The last stdout line is the result object; the line before it is a
JSON record of host facts, sizes, per-run values and checks. Every
file lives under ``.perfbench/`` in the working directory and is
removed on exit. Exits 2 without a result when the program's sources
are not there.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
UNIT = os.path.join(HERE, "unit.py")

SETUP_REPEATS = 3
#: Further set-ups run, up to ``SETUP_MAX``, until this many seconds of
#: set-up have passed: a cheap set-up is repeated more, so its median
#: rests on more samples.
SETUP_BUDGET_S = 3.0
SETUP_MAX = 9
MIN_RUNS = 2
#: Wall-clock budget of one invocation: a step still running when it
#: is spent is killed, with every process it started, and the
#: invocation fails.
DEADLINE_S = 170.0


def step_env(root):
    """The environment every step runs under.

    Drops every ``REPRO_*`` variable an operator's shell may carry
    (jobs, cache, numpy switch, harness faults, telemetry, service
    journal), then pins the few the workloads depend on.
    """
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env.update({
        "PYTHONPATH": os.path.join(root, "src"),
        "PYTHONHASHSEED": "0",
        "REPRO_JOBS": "1",
        "REPRO_FASTPATH_NUMPY": "1",
    })
    return env


class StepFailed(Exception):
    """A step crashed, printed no result or ran past the deadline."""


def run_step(args, env, work_dir, deadline):
    """Run one step in a fresh interpreter; ``(wall_s, result)``.

    The step runs in its own session, so on a timeout the whole group
    (its supervisor workers included) is killed and reaped.
    """
    tmp_dir = os.path.join(work_dir, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(env, TMPDIR=tmp_dir)
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, UNIT] + args, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(
            timeout=max(deadline - time.monotonic(), 1.0))
    except BaseException as exc:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise StepFailed("{} ran past the deadline".format(
                " ".join(args[:2]))) from None
        raise
    wall = time.perf_counter() - start
    if proc.returncode != 0 or not out.strip():
        raise StepFailed("{} exited {}: {}".format(
            " ".join(args[:2]), proc.returncode, err[-2000:]))
    return wall, json.loads(out.strip().splitlines()[-1])


def git_sha(root):
    """The checkout's commit, read from ``.git`` without running git."""
    head_path = os.path.join(root, ".git", "HEAD")
    try:
        with open(head_path) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(root, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path) as handle:
                return handle.read().strip()
        with open(os.path.join(root, ".git", "packed-refs")) as handle:
            for line in handle:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def spread(values):
    """Interquartile range over median (0 for fewer than two values)."""
    if len(values) < 2:
        return 0.0
    q1, __, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def benchmark(args, root, spec):
    deadline = time.monotonic() + DEADLINE_S
    env = step_env(root)
    base = os.path.join(root, ".perfbench")
    os.makedirs(base, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=base)
    common = [args.workload, "--seed", str(args.seed), "--size", args.size]
    try:
        setups = []
        while len(setups) < SETUP_REPEATS or (
                len(setups) < SETUP_MAX
                and sum(wall for wall, __ in setups) < SETUP_BUDGET_S):
            index = len(setups)
            setup_dir = os.path.join(work, "setup-{}".format(index))
            wall, result = run_step(["setup"] + common + ["--dir", setup_dir],
                                    env, work, deadline)
            setups.append((wall, result))
            if index:
                shutil.rmtree(setup_dir)
        inputs_dir = os.path.join(work, "setup-0")
        runs = []
        started = last = time.monotonic()
        while len(runs) < MIN_RUNS or (
                time.monotonic() - started < args.seconds
                and time.monotonic() + 3 * (time.monotonic() - last)
                < deadline):
            last = time.monotonic()
            runs.append(timed_run(common, env, work, inputs_dir,
                                  len(runs), deadline, trace=False,
                                  corrupt=args.corrupt))
        traced = None
        if args.trace:
            traced = timed_run(common, env, work, inputs_dir, len(runs),
                               deadline, trace=True, corrupt="none")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(base)
        except OSError:
            pass
    return summarise(args, root, spec, setups, runs, traced)


def timed_run(common, env, work, inputs_dir, index, deadline, trace,
              corrupt):
    run_dir = os.path.join(work, "run-{}".format(index))
    shutil.copytree(inputs_dir, run_dir)
    step = ["run"] + common + ["--dir", run_dir, "--corrupt", corrupt]
    if trace:
        step.append("--trace")
    try:
        __, result = run_step(step, env, work, deadline)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return result


def summarise(args, root, spec, setups, runs, traced):
    """The detail record and the result object."""
    problems = []
    digests = {result["inputs_sha256"] for __, result in setups}
    if len(digests) != 1:
        problems.append("set-ups of one seed generated different inputs")
    outputs = {run["output_sha256"] for run in runs}
    if len(outputs) != 1:
        problems.append("runs of one seed produced {} different outputs"
                        .format(len(outputs)))
    attempted = failed = 0
    for number, run in enumerate(runs):
        attempted += run["ops"]
        bad = {name: problem for name, problem in run["checks"].items()
               if problem}
        if bad:
            failed += run["ops"]
            problems.extend("run {}: {}: {}".format(number, name, problem)
                            for name, problem in sorted(bad.items()))
        else:
            failed += run["failed_ops"]
    if traced is not None:
        problems.extend("traced run: {}: {}".format(name, problem)
                        for name, problem in sorted(traced["checks"].items())
                        if problem)
        if traced["output_sha256"] not in outputs:
            problems.append("traced run produced a different output")
    if problems and not failed:
        # A cross-run disagreement fails every run it covers.
        failed = attempted
    medians = {name: statistics.median(run["metrics"][name] for run in runs)
               for name in runs[0]["metrics"]}
    medians["setup_s"] = statistics.median(wall for wall, __ in setups)
    detail = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "host": dict(setups[0][1]["host"], git_sha=git_sha(root)),
        "sizes": runs[0]["sizes"],
        "runs": len(runs),
        "setup_s": [wall for wall, __ in setups],
        "per_run": {name: [run["metrics"][name] for run in runs]
                    for name in runs[0]["metrics"]},
        "spread": {name: spread([run["metrics"][name] for run in runs])
                   for name in runs[0]["metrics"]},
        "output_sha256": sorted(outputs),
        "failed_share": failed / attempted if attempted else 1.0,
        "problems": problems,
    }
    if traced is None:
        metrics = {entry["name"]: {"value": medians[entry["name"]],
                                   "unit": entry["unit"]}
                   for entry in spec["end_to_end"]}
    else:
        layers = dict(traced["layers"])
        layers["trace.traced_wall_s"] = traced["metrics"]["wall_s"]
        layers["trace.overhead_share"] = \
            traced["metrics"]["wall_s"] / medians["wall_s"] - 1.0
        detail["trace"] = layers
        metrics = {entry["name"]: {"value": layers.get(entry["name"], 0),
                                   "unit": entry["unit"]}
                   for entry in spec["per_layer"]}
    result = {"correct": not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return detail, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="workload sizes; tiny is for the self-test")
    parser.add_argument("--corrupt", default="none",
                        choices=("none", "report-byte", "journal-record"),
                        help="tamper with each run's output before it is "
                             "checked (self-test of the checks)")
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("perfbench: no program sources under {}/src; run from the "
              "repository root".format(root), file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        parser.error("unknown workload {!r}".format(args.workload))
    try:
        detail, result = benchmark(args, root, spec)
    except StepFailed as exc:
        print("perfbench: {}".format(exc), file=sys.stderr)
        return 1
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
