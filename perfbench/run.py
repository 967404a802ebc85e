#!/usr/bin/env python3
"""The repository benchmark: one command, three workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload fig7-batch --seed 1 \
        --seconds 40 --trace 0 [--out results.jsonl]

Builds perfbench_driver against ../src (CMake, into $CARGO_TARGET_DIR or
.bench_build), then runs repetitions of the workload, each in a fresh
process, until --seconds have passed (at least three). Every
repetition's simulated outputs are checked against reference/<workload>.json
and against each other. Prints each metric by name with its unit, then,
as the last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics (medians over repetitions).
--trace 1 alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones plus the tracing overhead.
--out appends the run, with its host descriptor, to a JSON-lines file
that compare.py reads. The exit code is 0 only when every output check
passed. See NOTES.md for why each workload exists.
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import perflib  # noqa: E402

# Registry order of the 16 proxies (workloads/workload.h).
ALL_PROXIES = [
    "pointer_chase", "mcf", "lbm", "omnetpp", "xhpcg", "bwaves", "namd",
    "deepsjeng", "perlbench", "gcc", "fotonik", "cactus", "nab", "moses",
    "memcached", "imgdnn",
]

WORKLOADS = {
    # Figure 7's exact inputs (bench/fig07_ipc.cpp).
    "fig7-batch": {
        "mode": "evaluate-all", "workloads": ALL_PROXIES,
        "variants": ["ooo", "crisp", "ibda-1K", "ibda-8K", "ibda-64K",
                     "ibda-inf"],
        "train": 250_000, "ref": 500_000, "jobs": 4,
    },
    # ROADMAP's 4M-op single run (crisp_sim --workload mcf --ref 4000000).
    "long-mcf": {
        "mode": "run-core", "workloads": ["mcf"],
        "variants": ["ooo", "crisp"],
        "train": 200_000, "ref": 4_000_000, "jobs": 1,
    },
    # A cold and a restarted crisp_serve sweep of sampled runs.
    "serve-sweep": {
        "mode": "serve",
        "workloads": ["mcf", "omnetpp", "xhpcg", "namd", "deepsjeng",
                      "perlbench", "memcached", "imgdnn"],
        "variants": ["ooo", "crisp", "ibda-1K"],
        "train": 200_000, "ref": 500_000, "jobs": 4,
        "sample": "100000:50000",
    },
}

E2E_UNITS = {
    "setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
    "sim_mops": "Mops/s", "sweep_cold_s": "s", "sweep_restart_s": "s",
    "job_p50_ms": "ms", "job_tail_ms": "ms",
}

LAYER_UNITS = {
    "vm.trace_s": "s", "vm.trace_mops": "Mops/s", "vm.traces_built": "count",
    "core.analyze_s": "s", "core.tag_s": "s", "core.tagged_statics": "count",
    "cpu.run_s": "s", "cpu.sim_mops": "Mops/s",
    "cpu.sim_mcycles_per_s": "Mcycles/s", "cpu.runs": "count",
    "pool.utilization": "ratio", "pool.queue_wait_s": "s",
    "cache.hits": "count", "cache.misses": "count",
    "cache.hit_ratio": "ratio", "cache.compute_s": "s", "cache.wait_s": "s",
    "sampled.warm_s": "s", "sampled.detail_s": "s", "sampled.stitch_s": "s",
    "warmstore.hits": "count", "warmstore.misses": "count",
    "warmstore.write_s": "s", "warmstore.read_s": "s",
    "warmstore.bytes": "bytes",
    "serve.queue_wait_p50_ms": "ms", "serve.job_run_p50_ms": "ms",
    "serve.retries": "count", "serve.result_bytes": "bytes",
    "serve.persist_s": "s",
    "telemetry.export_s": "s", "telemetry.export_bytes": "bytes",
    "other.self_s": "s", "trace.overhead_s": "s", "trace.events": "count",
    "model.crisp_gain_geomean_pct": "%", "model.ibda1k_gain_geomean_pct": "%",
    "model.mcf_ipc_ooo": "IPC", "model.mcf_ipc_crisp": "IPC",
}

MIN_REPS = 3
RUN_LIMIT_S = 170  # a run must end well inside the 180 s contract


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build_driver():
    """Configures and builds perfbench_driver; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("libcrisp sources not found next to perfbench/")
    out = os.path.join(build_dir(), "perfbench")
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "perfbench_driver",
                  "-j", "4"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            raise RuntimeError("build failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench_driver")


def plan(name, seed, rep):
    """The inputs of repetition `rep` under `seed`: the workload's fixed
    set of runs, in an order drawn from (seed, rep).

    Each repetition gets its own order, so a run's medians average over
    several schedules instead of hanging on one. evaluateAll always runs
    ooo then crisp, so only the IBDA variants of fig7-batch move."""
    spec = dict(WORKLOADS[name])
    rng = random.Random(f"{seed}:{rep}")
    wls = list(spec["workloads"])
    rng.shuffle(wls)
    variants = list(spec["variants"])
    if spec["mode"] == "evaluate-all":
        ists = variants[2:]
        rng.shuffle(ists)
        variants = variants[:2] + ists
    else:
        rng.shuffle(variants)
    spec["workloads"], spec["variants"] = wls, variants
    return spec


def expected_jobs(spec):
    waves = 2 if spec["mode"] == "serve" else 1
    return len(spec["workloads"]) * len(spec["variants"]) * waves


def run_rep(driver, spec, tmp, trace_out, timeout):
    """One repetition in a fresh process; returns its record or None."""
    cmd = [driver, "--mode", spec["mode"],
           "--workloads", ",".join(spec["workloads"]),
           "--variants", ",".join(spec["variants"]),
           "--train", str(spec["train"]), "--ref", str(spec["ref"]),
           "--jobs", str(spec["jobs"]),
           "--tmp", os.path.relpath(tmp)]
    if spec.get("sample"):
        cmd += ["--sample", spec["sample"]]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        log("repetition timed out")
        return None
    if proc.returncode != 0:
        log(proc.stderr[-4000:])
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def host_descriptor(rec):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, files in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for fn in sorted(files):
                path = os.path.join(dirpath, fn)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "compiler": rec["compiler"],
        "build_type": rec["build_type"],
        "commit": commit,
        "source_sha256": digest.hexdigest()[:16],
    }


def e2e_values(rec):
    """One repetition's end-to-end values (job latencies are pooled)."""
    waves = rec["waves"]
    return {
        "setup_s": rec["setup_s"],
        "wall_s": rec["wall_s"],
        "cpu_s": rec["cpu_s"],
        "peak_rss_mb": rec["peak_rss_mb"],
        "sim_mops": rec["retired"] / rec["sim_s"] / 1e6,
        # The batch workloads run one batch from a fresh cache: cold is
        # set-up plus simulation, restart the batch on resident artifacts.
        "sweep_cold_s": waves.get("cold", rec["setup_s"] + rec["sim_s"]),
        "sweep_restart_s": waves.get("restart", rec["sim_s"]),
    }


def layer_values(rec, events, jobs):
    """One traced repetition's per-layer values."""
    spans = perflib.complete_spans(events)
    main = next(sp["tid"] for sp in spans if sp["name"] == "bench.rep")
    st = perflib.self_times(spans, main)
    c = rec["counters"]
    trace_keys = [sp["key"] for sp in spans if sp["name"] == "cache.compute"
                  and sp["key"].startswith("trace:")]
    trace_ops = sum(int(k.rsplit(":", 1)[1]) for k in trace_keys)
    detail = st.get("cpu.run", 0.0) + st.get("sampled.detail", 0.0)
    hits, misses = c.get("cache.hits", 0), c.get("cache.misses", 0)

    def per_s(amount, seconds):
        return amount / seconds / 1e6 if seconds else 0.0

    vals = {
        "vm.trace_s": st.get("vm.trace", 0.0),
        "vm.trace_mops": per_s(trace_ops, st.get("vm.trace", 0.0)),
        "vm.traces_built": len(trace_keys),
        "core.analyze_s": st.get("core.analyze", 0.0),
        "core.tag_s": st.get("core.tag", 0.0),
        "core.tagged_statics": c.get("core.tagged_statics", 0),
        "cpu.run_s": st.get("cpu.run", 0.0),
        "cpu.sim_mops": per_s(rec["retired"], detail),
        "cpu.sim_mcycles_per_s": per_s(rec["cycles"], detail),
        "cpu.runs": rec["core_runs"],
        "pool.utilization": rec["cpu_s"] / (rec["wall_s"] * jobs),
        "pool.queue_wait_s": perflib.async_durations(events,
                                                     "pool.queue_wait"),
        "cache.hits": hits,
        "cache.misses": misses,
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "cache.compute_s": perflib.busy_time(spans, "cache.compute"),
        "cache.wait_s": st.get("cache.wait", 0.0),
        "sampled.warm_s": st.get("sampled.warm", 0.0),
        "sampled.detail_s": st.get("sampled.detail", 0.0),
        "sampled.stitch_s": st.get("sampled.stitch", 0.0),
        "warmstore.hits": c.get("warmstore.hits", 0),
        "warmstore.misses": c.get("warmstore.misses", 0),
        "warmstore.write_s": st.get("warmstore.write", 0.0),
        "warmstore.read_s": st.get("warmstore.read", 0.0),
        "warmstore.bytes": c.get("warmstore.bytes", 0),
        "serve.queue_wait_p50_ms": c.get("serve.queue_wait_p50_ms", 0),
        "serve.job_run_p50_ms": c.get("serve.job_run_p50_ms", 0),
        "serve.retries": c.get("serve.retries", 0),
        "serve.result_bytes": c.get("serve.result_bytes", 0),
        "serve.persist_s": st.get("serve.persist", 0.0),
        "telemetry.export_s": st.get("telemetry.export", 0.0),
        "telemetry.export_bytes": c.get("telemetry.export_bytes", 0),
        "other.self_s": st.get(perflib.OTHER, 0.0),
        "trace.events": len(events),
    }
    vals.update(perflib.model_metrics(rec["outputs"]))
    return vals


def fmt(v):
    return f"{v:.6g}"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append this run to a JSON-lines file")
    ap.add_argument("--write-reference", action="store_true",
                    help="record this run's outputs as the reference")
    args = ap.parse_args(argv)

    try:
        driver = build_driver()
    except RuntimeError as e:
        log(f"perfbench: {e}")
        return 2

    ref_path = os.path.join(HERE, "reference", args.workload + ".json")
    reference = None
    if not args.write_reference:
        with open(ref_path) as f:
            reference = json.load(f)["outputs"]

    tmp_root = os.path.join(build_dir(), "perfbench-tmp", str(os.getpid()))
    os.makedirs(tmp_root, exist_ok=True)
    start = time.monotonic()
    untraced, traced, rep_times = [], [], []
    attempted = failed = 0
    first_outputs = None
    try:
        while True:
            elapsed = time.monotonic() - start
            n = len(rep_times)
            est = statistics.median(rep_times) if rep_times else 0.0
            want = MIN_REPS * (2 if args.trace else 1)
            if n >= want and elapsed + est > args.seconds:
                break
            if n >= 1 and elapsed + est > RUN_LIMIT_S - 5:
                break
            is_traced = bool(args.trace) and n % 2 == 1
            trace_out = (os.path.join(tmp_root, f"trace-{n}.json")
                         if is_traced else None)
            t0 = time.monotonic()
            # A traced repetition repeats the order of the untraced one
            # before it, so the pair differs only in tracing.
            spec = plan(args.workload, args.seed, n // 2 if args.trace else n)
            rec = run_rep(driver, spec, os.path.join(tmp_root, f"rep-{n}"),
                          trace_out, max(10.0, RUN_LIMIT_S - elapsed))
            rep_times.append(time.monotonic() - t0)
            if rec is None:
                attempted += expected_jobs(spec)
                failed += expected_jobs(spec)
                continue
            attempted += rec["jobs_attempted"]
            bad = rec["jobs_failed"]
            bad += int(rec["counters"].get("serve.restart_mismatches", 0))
            if reference is not None:
                mism = perflib.check_outputs(reference, rec["outputs"])
                for key in mism:
                    log(f"output check failed: {key}: "
                        f"{rec['outputs'].get(key)} != {reference.get(key)}")
                bad += len(mism)
            if first_outputs is None:
                first_outputs = rec["outputs"]
            elif rec["outputs"] != first_outputs:
                log("outputs differ between repetitions")
                bad += len(perflib.check_outputs(first_outputs,
                                                 rec["outputs"]))
            failed += min(bad, rec["jobs_attempted"])
            if is_traced:
                with open(trace_out) as f:
                    rec["events"] = json.load(f)["traceEvents"]
                traced.append(rec)
            else:
                untraced.append(rec)
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)

    if not untraced or (args.trace and not traced):
        log("perfbench: no repetition completed")
        return 1

    if args.write_reference:
        os.makedirs(os.path.dirname(ref_path), exist_ok=True)
        with open(ref_path, "w") as f:
            json.dump({"workload": args.workload,
                       "outputs": first_outputs}, f, indent=1,
                      sort_keys=True)
            f.write("\n")
        log(f"wrote {ref_path}")

    host = host_descriptor(untraced[0])
    correct = failed == 0
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"repetitions: {len(untraced)} untraced, {len(traced)} traced")
    print("host " + json.dumps(host, sort_keys=True))

    metrics = {}
    if args.trace == 0:
        per_rep = [e2e_values(r) for r in untraced]
        for name, unit in E2E_UNITS.items():
            if name.startswith("job_"):
                continue
            vals = [v[name] for v in per_rep]
            q1, med, q3 = perflib.quartiles(vals)
            metrics[name] = {"value": med, "unit": unit}
            print(f"{name:<22} {fmt(med):>12} {unit:<8} "
                  f"median of {len(vals)}, quartiles {fmt(q1)}..{fmt(q3)}")
        lat = [x for r in untraced for x in r["job_latency_ms"]]
        p50 = statistics.median(lat)
        tail, pct, count = perflib.tail_percentile(lat)
        metrics["job_p50_ms"] = {"value": p50, "unit": "ms"}
        metrics["job_tail_ms"] = {"value": tail, "unit": "ms"}
        print(f"{'job_p50_ms':<22} {fmt(p50):>12} {'ms':<8} "
              f"median of {count} jobs")
        label = f"p{pct:.1f}" if pct is not None else "max (n<=10)"
        print(f"{'job_tail_ms':<22} {fmt(tail):>12} {'ms':<8} "
              f"{label} of {count} jobs")
    else:
        jobs = WORKLOADS[args.workload]["jobs"]
        per_rep = [layer_values(r, r["events"], jobs) for r in traced]
        overhead = (statistics.median(r["wall_s"] for r in traced) -
                    statistics.median(r["wall_s"] for r in untraced))
        for name, unit in LAYER_UNITS.items():
            if name == "trace.overhead_s":
                value = overhead
            else:
                value = statistics.median(v[name] for v in per_rep)
            metrics[name] = {"value": value, "unit": unit}
            print(f"{name:<30} {fmt(value):>12} {unit}")
    ratio = failed / attempted if attempted else 1.0
    print(f"{'failed_ratio':<22} {fmt(ratio):>12} {'ratio':<8} "
          f"{failed} of {attempted} operations")

    if args.out:
        with open(args.out, "a") as f:
            f.write(json.dumps({
                "workload": args.workload, "seed": args.seed,
                "trace": args.trace, "host": host, "correct": correct,
                "attempted": attempted, "failed": failed,
                "metrics": {k: v["value"] for k, v in metrics.items()},
            }, sort_keys=True) + "\n")

    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
