#!/usr/bin/env python3
"""Host-time benchmark of cmpqos: build, run one workload, check, report.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and builds
perfbench/ (its own CMake package) under .bench_build/. The run then
starts as many workload instances as fill --seconds on the reference
host, each in a fresh process on its own seed derived from --seed, and
every metric is the median over the instances. An unmeasured instance
on the pinned seed (fingerprints.json) runs first and must reproduce
the pinned engine fingerprints. --trace 0 reports the end-to-end metrics of BENCHMARK.json;
--trace 1 alternates untraced and traced instances, adds one layer
replay, reports the per-layer metrics and writes the spans to
.bench_build/perfbench-spans/<workload>-seed<n>.json (open it in
https://ui.perfetto.dev). The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

Exit codes: 0 result printed; 1 an output check failed (fingerprint,
oracle, replay); 2 usage or missing source tree; 3 build failed or the
build is not an optimised one.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Engine fingerprints pinned for one seed, which every run replays
# first; other seeds are checked for agreement between traced and
# untraced instances (and, for qosd, by replaying its journals).
PINNED = json.loads((HERE / "fingerprints.json").read_text())
# Instance ceiling so one run stays far inside the 180 s budget.
INSTANCE_TIMEOUT_S = 150
# No instance starts after this many seconds of a run, so a run on a
# much slower build still ends inside 180 s; its medians then cover
# fewer instances.
RUN_BUDGET_S = 100
# Host seconds one instance takes on a 4-core 2.1 GHz host; the number
# of instances per run is --seconds over this, so it depends only on
# the arguments, never on how fast the build under test happens to be.
INSTANCE_SECONDS = {"batch_long": 5.0, "fed_storm": 1.4,
                    "qosd_epochs": 3.9}
MIN_INSTANCES = 3
# Percentile metrics and the instance field holding their sample count.
SAMPLE_COUNTS = {
    "admit_p50_ms": "admit_n", "admit_tail_ms": "admit_n",
    "cluster.place_us.p50": "cluster.place_us.n",
    "cluster.place_us.tail": "cluster.place_us.n",
    "cluster.quantum_ms.p50": "cluster.quantum_ms.n",
    "cluster.quantum_ms.tail": "cluster.quantum_ms.n",
}
# Distance between the seeds of one run's instances.
SEED_STRIDE = 1_000_003


def instance_count(workload, seconds, traced):
    """Instances per run: enough to fill --seconds (at least three).
    A traced run pairs each traced instance with an untraced one."""
    n = max(MIN_INSTANCES, round(seconds / INSTANCE_SECONDS[workload]))
    return max(2, (n + 1) // 2) if traced else n


def instance_seeds(seed, count):
    """The run's instance seeds: the workload seed itself, then seeds a
    fixed stride apart, so a run averages over several inputs and the
    same --seed always yields the same inputs."""
    return [seed + i * SEED_STRIDE for i in range(count)]


def source_digest(root):
    """Digest of the source tree under test (paths and contents of
    src/), which identifies the build where the checkout carries no git
    metadata."""
    h = hashlib.sha256()
    for p in sorted((root / "src").rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(root)).encode() + b"\0")
            h.update(p.read_bytes())
    return h.hexdigest()[:12]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(code, msg):
    log("perfbench: " + msg)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return (ROOT / base / "perfbench").resolve()


def build():
    """Configure + build the runner; returns the binary path."""
    if not (ROOT / "src" / "cluster" / "engine.hh").is_file():
        fail(2, "no cmpqos source tree next to perfbench/ (run from a "
                "checkout of the repository)")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            fail(3, "build failed: " + " ".join(cmd))
    return out / "perfbench"


def load_spec():
    path = ROOT / "BENCHMARK.json"
    try:
        spec = json.loads(path.read_text())
    except (OSError, ValueError) as e:
        fail(2, f"cannot read {path}: {e}")
    return spec


def last_json_line(text):
    for line in reversed(text.strip().splitlines()):
        line = line.strip()
        if line.startswith("{"):
            return json.loads(line)
    raise ValueError("no JSON line in output")


def pin_to_one_cpu():
    """Run every instance on one CPU (the highest this process may use).

    Pinned, an instance's parallelism does not depend on how busy the
    host's other CPUs happen to be. In interleaved runs of qosd_epochs
    on a shared 4-vCPU host, unpinned runs moved from 293 to 409 jobs/s
    as the host quietened, pinned ones from 297 to 345. A change that
    gains only from running threads in parallel cannot show here.
    """
    if hasattr(os, "sched_setaffinity"):
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
        return cpu
    return None


def run_instance(binary, args, scratch):
    """One fresh process; returns its JSON report."""
    if scratch.exists():
        shutil.rmtree(scratch)
    scratch.mkdir(parents=True)
    try:
        proc = subprocess.run([str(binary)] + args + ["--scratch", "."],
                              cwd=scratch, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=INSTANCE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(1, "instance timed out: " + " ".join(args))
    if proc.returncode != 0:
        log(proc.stderr[-4000:])
        fail(3 if proc.returncode == 3 else 1,
             f"instance exited {proc.returncode}: " + " ".join(args))
    try:
        return last_json_line(proc.stdout)
    except ValueError as e:
        fail(1, f"unreadable instance output ({e}): " + " ".join(args))


def median_of(reports, key):
    values = [r[key] for r in reports if r.get(key) is not None]
    return statistics.median(values) if values else None


def aggregate(reports, names):
    """Median of each named value over the instances that report it."""
    return {n: median_of(reports, n) for n in names}


def tally(reports):
    """Sum attempted / failed over instances; failed_frac of the sums."""
    attempted = sum(int(r["attempted"]) for r in reports)
    failed = sum(int(r["failed"]) for r in reports)
    frac = failed / attempted if attempted else 0.0
    return attempted, failed, frac


def check(reports, workload):
    """Every instance correct; instances of one seed (traced or not)
    agree on their fingerprints, and the pinned seed matches its pinned
    ones. Returns (ok, message, {seed: fingerprints})."""
    prints = {}
    for r in reports:
        if not r["correct"]:
            return False, f"{r['mode']} instance: {r['error']}", None
        seen = prints.setdefault(r["seed"], r["fingerprints"])
        if seen != r["fingerprints"]:
            return False, f"seed {r['seed']}: fingerprints {seen} vs " \
                f"{r['fingerprints']}", None
    seed = PINNED["seed"]
    if seed in prints:
        want = ",".join(PINNED["workloads"][workload])
        if want != prints[seed]:
            return False, f"fingerprints {prints[seed]} differ from the " \
                f"pinned {want} for seed {seed}", None
    return True, "", prints


def sample_note(name, measured, replay):
    """How a printed metric was sampled: the replay, or the instances it
    is the median of and, for a percentile, the fewest samples any
    instance took it over."""
    if replay and name in replay:
        return "1 replay"
    note = f"median of {len(measured)} instances"
    samples = SAMPLE_COUNTS.get(name)
    if samples in measured[0]:
        note += f", >= {min(r[samples] for r in measured)} samples each"
    return note


def merge_spans(paths, dest):
    """Concatenate Chrome trace files, one process id per file."""
    events = []
    for pid, path in enumerate(paths, start=1):
        doc = json.loads(path.read_text())
        for e in doc["traceEvents"]:
            e["pid"] = pid
            events.append(e)
    dest.parent.mkdir(parents=True, exist_ok=True)
    dest.write_text(json.dumps({"displayTimeUnit": "ms",
                                "traceEvents": events}))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    binary = build()
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    if a.workload not in workloads:
        fail(2, f"unknown workload {a.workload!r}; one of {workloads}")
    if a.seed < 0:
        fail(2, "--seed takes a non-negative integer")

    host = subprocess.run([str(binary), "--host"], stdout=subprocess.PIPE,
                          text=True)
    info = last_json_line(host.stdout)
    if host.returncode != 0 or not info["benchmarkable"]:
        fail(3, "refusing to measure: " + info.get("why", "?"))
    print(f"# host: nproc={info['nproc']} build={info['build_type']} "
          f"flags='{info['flags']}' compiler='{info['compiler']}' "
          f"git={info['git']} src={source_digest(ROOT)} seed={a.seed}")
    print(f"# build: {info['build_line']}")
    print(f"# pinned to cpu {pin_to_one_cpu()}")

    scratch = build_dir().parent / "perfbench-run" / str(os.getpid())
    seeds = instance_seeds(a.seed, instance_count(a.workload, a.seconds,
                                                  a.trace))
    untraced, traced = [], []
    span_files = []
    try:
        # The pinned seed runs first, unmeasured, so a change in the
        # engines' results fails the run whatever --seed is.
        reference = run_instance(
            binary, ["--workload", a.workload, "--seed",
                     str(PINNED["seed"]), "--trace", "0"], scratch)
        start = time.monotonic()
        for s in seeds:
            if untraced and time.monotonic() - start > RUN_BUDGET_S:
                log(f"perfbench: run budget spent after {len(untraced)} "
                    f"of {len(seeds)} instances")
                break
            base = ["--workload", a.workload, "--seed", str(s)]
            untraced.append(run_instance(binary, base + ["--trace", "0"],
                                         scratch))
            if a.trace:
                # Spans of the first traced instance go to the trace file.
                extra = []
                if not span_files:
                    span_files.append(
                        scratch.parent / f"{os.getpid()}-run.json")
                    extra = ["--spans", str(span_files[0])]
                traced.append(run_instance(
                    binary, base + ["--trace", "1"] + extra, scratch))
        replay = None
        if a.trace:
            spans = scratch.parent / f"{os.getpid()}-replay.json"
            replay = run_instance(
                binary, ["--workload", a.workload, "--seed", str(a.seed),
                         "--replay", "--spans", str(spans)], scratch)
            span_files.append(spans)
        ok, why, prints = check([reference] + untraced + traced,
                                a.workload)
        if ok and replay is not None and not replay["correct"]:
            ok, why = False, "replay: " + replay["error"]
        measured = traced if a.trace else untraced
        attempted, failed, frac = tally(measured)
        if not ok:
            log("perfbench: output check failed: " + why)
            print(json.dumps({"correct": False, "attempted": attempted,
                              "failed": failed, "metrics": {}}))
            sys.exit(1)

        if a.trace:
            names = [m["name"] for m in spec["per_layer"]]
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            values = aggregate(traced, names)
            values.update({k: v for k, v in replay.items() if k in names})
            values["trace_overhead_frac"] = (
                median_of(traced, "run_s") / median_of(untraced, "run_s")
                - 1.0)
            dest = build_dir().parent / "perfbench-spans" / \
                f"{a.workload}-seed{a.seed}.json"
            merge_spans(span_files, dest)
            print(f"# spans: {dest} (traced run = pid 1, replay = pid 2)")
        else:
            names = [m["name"] for m in spec["end_to_end"]]
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
            values = aggregate(untraced, names)
        missing = [n for n in names if values.get(n) is None]
        if missing:
            fail(1, "metrics not measured: " + ", ".join(missing))

        print(f"# {a.workload}: {len(untraced)} untraced + {len(traced)} "
              f"traced instance(s) in {time.monotonic() - start:.1f} s")
        for s, fp in prints.items():
            print(f"# fingerprints seed {s}: {fp}")
        misses = sum(int(r["deadline_misses"]) for r in measured)
        print(f"# failed_frac = {frac:.6f} ({failed} of {attempted} "
              f"operations failed; {misses} deadline misses)")
        for n in names:
            print(f"{n:32s} {values[n]:16.6f} {units[n]:10s} "
                  f"{sample_note(n, measured, replay)}")
        print(f"# tail = highest percentile with 10 samples beyond: "
              f"p{100 * measured[0]['admit_tail_level']:.2f} of admissions")
        print(json.dumps({
            "correct": True,
            "attempted": attempted,
            "failed": failed,
            "metrics": {n: {"value": values[n], "unit": units[n]}
                        for n in names},
        }))
    finally:
        if scratch.exists():
            shutil.rmtree(scratch)
        for f in span_files:
            if f.exists():
                f.unlink()


if __name__ == "__main__":
    main()
