#!/usr/bin/env python3
"""Repository benchmark: the paper's Tables 1-4, the NLDM library farm
and a 50-island voltage-island fabric, end to end and per layer.

    python3 perfbench/run.py --workload paper_tables|nldm_farm|fabric_chain|all
                             [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --compare RESULT_A.json RESULT_B.json
    python3 perfbench/run.py --write-reference

Run from the repository root. The library and perfbench_runner are
built from source under .bench_build/perfbench. Each repetition of a
workload is one runner process; repetitions continue until --seconds
have been measured; each metric summarizes them (see end_to_end). Every
repetition's outputs are checked against reference.json. The human
report goes to standard output; its last line is the result as one JSON
object: end-to-end metrics with --trace 0, per-layer metrics with
--trace 1. The full record, host and build included, is written to
.bench_build/perfbench/results/.

Seeds: 20080310 (the paper benches' seed) is the default and 4242 is
held out; both have exact references. fabric_chain has fixed inputs and
ignores the seed.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import benchlib  # noqa: E402
import checks  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("paper_tables", "nldm_farm", "fabric_chain")
DEFAULT_SEED = 20080310
HELDOUT_SEED = 4242
POPULATION_SAMPLES = 480   # per case, for the population reference
REP_TIMEOUT_S = 150


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


# ----------------------------------------------------------------------
# Build and host record


def build():
    """Configure (once) and build the runner; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no repository sources around " + HERE)
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(min(len(os.sched_getaffinity(0)), 4))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target", "perfbench_runner"])
    # Compiler scratch files stay inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(BUILD, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT, env=env).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("build failed; see " + log_path, 1)
    return os.path.join(BUILD, "perfbench_runner")


def thread_count():
    """VLS_THREADS for the runs: the caller's value, else min(nproc, 4)."""
    env = os.environ.get("VLS_THREADS", "")
    return int(env) if env.isdigit() and int(env) > 0 else min(len(os.sched_getaffinity(0)), 4)


def host_record(threads):
    """What must match before two results may be compared."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    info = {}
    with open(os.path.join(BUILD, "build_info.txt")) as f:
        for line in f:
            key, _, value = line.rstrip("\n").partition("=")
            info[key] = value
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "compiler": info.get("compiler", ""),
        "flags": info.get("flags", ""),
        "build_type": info.get("build_type", ""),
        "sstvs_simd": info.get("simd", ""),
        "threads": threads,
    }


def source_record():
    """The code measured: the git commit when the checkout is a git work
    tree of its own, and a digest of the sources in every case."""
    commit = None
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and os.path.samefile(lines[0], ROOT):
            commit = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for base in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, base)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cpp", ".hpp", ".txt", ".py", ".json")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return {"git_commit": commit, "source_sha256": digest.hexdigest()}


# ----------------------------------------------------------------------
# Repetitions


def run_rep(runner, workload, seed, trace, threads, extra=()):
    """One runner process; returns (rep, trace_events, process seconds)."""
    tag = f"{workload}-{os.getpid()}-{time.monotonic_ns()}"
    out = os.path.join(BUILD, "reps", tag + ".json")
    trace_out = os.path.join(BUILD, "reps", tag + ".trace.json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    env = dict(os.environ, VLS_THREADS=str(threads))
    spawn = time.monotonic_ns()
    cmd = [runner, "--workload", workload, "--seed", str(seed), "--trace", str(trace),
           "--spawn-ns", str(spawn), "--out", out, "--trace-out", trace_out, *extra]
    proc = subprocess.Popen(cmd, env=env, stdout=sys.stderr)
    try:
        code = proc.wait(timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        code = "timeout"
    finally:
        if proc.poll() is None:  # timed out, or this process is being stopped
            proc.kill()
            proc.wait()
    elapsed = (time.monotonic_ns() - spawn) / 1e9
    if code != 0:
        print(f"perfbench: {workload} repetition failed ({code})", file=sys.stderr)
        return None, None, elapsed
    with open(out) as f:
        rep = json.load(f)
    os.remove(out)
    events = None
    if trace:
        with open(trace_out) as f:
            events = json.load(f)["traceEvents"]
        os.replace(trace_out, os.path.join(BUILD, f"{workload}-seed{seed}.trace.json"))
    return rep, events, elapsed


def load_reference():
    with open(os.path.join(HERE, "reference.json")) as f:
        return json.load(f)


def measure(runner, workload, seed, seconds, trace, threads, reference):
    """Repeat the workload until `seconds` are used. Untraced runs time
    every repetition; traced runs alternate an untraced and a traced
    repetition, so the tracing overhead is measured in the same run."""
    kinds = [0, 1] if trace else [0]
    min_reps = 4 if trace else 3
    reps = []   # (kind, rep, events); kind None marks the warm-up
    durations = []
    attempted = failed = 0
    devs, problems = [], []
    start = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        if len(reps) > min_reps and elapsed + benchlib.median(durations) > seconds:
            break
        # The first repetition warms the page cache and the CPU; its
        # outputs are checked, its times are not used.
        kind = kinds[(len(reps) - 1) % len(kinds)] if reps else None
        rep, events, dt = run_rep(runner, workload, seed, kind or 0, threads)
        durations.append(dt)
        if rep is None:
            attempted += 1
            failed += 1
            problems.append("runner failed")
            reps.append((kind, None, None))
            continue
        dev, rep_problems = checks.check(workload, rep["outputs"], reference[workload], seed,
                                         DEFAULT_SEED)
        devs.append(dev)
        problems.extend(rep_problems)
        attempted += rep["attempted"]
        failed += rep["attempted"] if rep_problems else rep["failed"]
        reps.append((kind, rep, events))
    good = [(k, r, e) for k, r, e in reps if r is not None]
    return {
        "plain": [benchlib.rep_times(r) for k, r, e in good if k == 0],
        "traced": [(r, e, benchlib.rep_times(r)) for k, r, e in good if k == 1],
        "attempted": max(attempted, 1),
        "failed": failed,
        "result_dev": max(devs, default=float("inf")),
        "problems": sorted(set(problems)),
    }


def end_to_end(m):
    """Median set-up time and peak RSS; first quartile of wall and CPU
    time. A shared host now and then stalls one vCPU for tens of seconds,
    and the fabric's thousands of pool dispatches per second turn that
    into 2-3x slower repetitions. The first quartile ignores such
    episodes while they hit fewer than three quarters of a run's
    repetitions; the median moved a fabric run 3x in one of them."""
    def column(name):
        return [t[name] for t in m["plain"]]
    return {
        "wall_s": benchlib.quartiles(column("wall_s"))[0],
        "cpu_s": benchlib.quartiles(column("cpu_s"))[0],
        "setup_s": benchlib.median(column("setup_s")),
        "peak_rss_mb": benchlib.median(column("peak_rss_mb")),
    }


def per_layer(m):
    """Medians over the traced repetitions, plus the metrics that need
    both kinds of repetition."""
    layers = [benchlib.layer_metrics(r, e) for r, e, _ in m["traced"]]
    out = {name: benchlib.median([x[name] for x in layers]) for name in layers[0]}
    out.update({name: value for name, value in layers[0].items()   # counts stay whole
                if isinstance(value, int) and all(x[name] == value for x in layers)})
    plain_wall = benchlib.median([t["wall_s"] for t in m["plain"]])
    traced_wall = benchlib.median([t["wall_s"] for _, _, t in m["traced"]])
    threads = m["traced"][0][0]["threads"]
    out["base.pool_efficiency"] = benchlib.median(
        [t["cpu_s"] / (t["wall_s"] * threads) for t in m["plain"]])
    out["bench.trace_overhead_frac"] = traced_wall / plain_wall - 1.0
    out["bench.failed_frac"] = m["failed"] / m["attempted"]
    out["bench.result_dev"] = m["result_dev"]
    return out


# ----------------------------------------------------------------------
# Commands


def run_workload(args, spec, runner, threads, reference):
    m = measure(runner, args.workload, args.seed, args.seconds, args.trace, threads, reference)
    section = "per_layer" if args.trace else "end_to_end"
    if not m["plain"] or (args.trace and not m["traced"]):
        fail(f"{args.workload}: no repetition completed", 1)
    values = per_layer(m) if args.trace else end_to_end(m)
    units = {d["name"]: d["unit"] for d in spec[section]}
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    # Within-run quartiles of the end-to-end metrics, for the report.
    quart = {} if args.trace else {
        name: benchlib.quartiles([t[name] for t in m["plain"]]) for name in metrics}
    host = host_record(threads)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "host": host, "source": source_record(),
        "repetitions": {"plain": m["plain"], "traced": [t for _, _, t in m["traced"]]},
        "metrics": metrics, "quartiles": quart, "problems": m["problems"],
    }
    if args.trace:
        record["layer_self_s"] = benchlib.layer_self_times(m["traced"][-1][1])
    os.makedirs(os.path.join(BUILD, "results"), exist_ok=True)
    result_path = os.path.join(BUILD, "results",
                               f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(result_path, "w") as f:
        json.dump(record, f, indent=1)

    print(f"workload {args.workload}  seed {args.seed}  "
          f"repetitions {len(m['plain'])} plain + {len(m['traced'])} traced")
    print("host " + json.dumps(host, sort_keys=True))
    for p in m["problems"]:
        print("CHECK FAILED: " + p)
    for name, mv in metrics.items():
        q = quart.get(name)
        spread = f"  (quartiles {q[0]:.6g} .. {q[2]:.6g})" if q else ""
        print(f"  {name:34s} {mv['value']:.6g} {mv['unit']}{spread}")
    if args.trace:
        print("  layer self time of the last traced repetition (s): " +
              json.dumps({k: round(v, 6) for k, v in sorted(record["layer_self_s"].items())}))
    print("record " + os.path.relpath(result_path, ROOT))
    return {
        "correct": not m["problems"],
        "attempted": m["attempted"],
        "failed": m["failed"],
        "metrics": metrics,
    }


def compare(path_a, path_b):
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    if a["host"] != b["host"]:
        diff = {k: (a["host"].get(k), b["host"].get(k))
                for k in sorted(set(a["host"]) | set(b["host"]))
                if a["host"].get(k) != b["host"].get(k)}
        fail("refusing to compare results from different hosts or builds: " + json.dumps(diff))
    if (a["workload"], a["trace"]) != (b["workload"], b["trace"]):
        fail("refusing to compare different workloads or run kinds")
    print(f"{a['workload']}: {a['source']['git_commit']} -> {b['source']['git_commit']}")
    for name, ma in a["metrics"].items():
        mb = b["metrics"].get(name)
        if mb is None:
            continue
        ratio = mb["value"] / ma["value"] if ma["value"] else float("nan")
        print(f"  {name:34s} {ma['value']:.6g} -> {mb['value']:.6g} {ma['unit']}  (x{ratio:.4f})")


def write_reference(runner, threads):
    """Record the current code's outputs as the reference (maintenance:
    run only when a change is meant to move the outputs)."""
    ref = {}
    pt = {"monte_carlo": {}}
    for seed in (DEFAULT_SEED, HELDOUT_SEED):
        rep, _, _ = run_rep(runner, "paper_tables", seed, 0, threads)
        pt["worst_case"] = rep["outputs"]["worst_case"]
        pt["monte_carlo"][str(seed)] = rep["outputs"]["monte_carlo"]
    rep, _, _ = run_rep(runner, "paper_tables", DEFAULT_SEED + 1000, 0, threads,
                        ("--mc-samples", str(POPULATION_SAMPLES)))
    pt["population"] = rep["outputs"]["monte_carlo"]
    ref["paper_tables"] = pt
    farm = {"tables": {}}
    for seed in (DEFAULT_SEED, HELDOUT_SEED):
        rep, _, _ = run_rep(runner, "nldm_farm", seed, 0, threads)
        farm["tables"][str(seed)] = rep["outputs"]["tables"]
        farm["liberty"] = {k: rep["outputs"]["liberty"][k] for k in ("cells", "tables")}
    ref["nldm_farm"] = farm
    rep, _, _ = run_rep(runner, "fabric_chain", DEFAULT_SEED, 0, threads)
    ref["fabric_chain"] = rep["outputs"]
    with open(os.path.join(HERE, "reference.json"), "w") as f:
        json.dump(ref, f, indent=1)
        f.write("\n")
    print("wrote " + os.path.join("perfbench", "reference.json"))


def main():
    # SIGTERM unwinds like an exception, so no runner outlives this process.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar="RESULT")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args()
    if args.compare:
        compare(*args.compare)
        return
    if not args.write_reference and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    runner = build()
    threads = thread_count()
    if args.write_reference:
        write_reference(runner, threads)
        return
    reference = load_reference()

    if args.workload != "all":
        print(json.dumps(run_workload(args, spec, runner, threads, reference)))
        return
    # Every workload, untraced then traced; the last line sums them up.
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            sub = argparse.Namespace(**{**vars(args), "workload": workload, "trace": trace})
            result = run_workload(sub, spec, runner, threads, reference)
            print(json.dumps(result))
            summary["correct"] = summary["correct"] and result["correct"]
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            for name, mv in result["metrics"].items():
                summary["metrics"][f"{workload}.{name}"] = mv
    print(json.dumps(summary))


if __name__ == "__main__":
    main()
