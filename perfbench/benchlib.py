"""Arithmetic of the benchmark: statistics, resource usage, span self
times, output deviations and the per-layer metrics derived from one
traced repetition. Pure functions over the runner's JSON, so every
number the benchmark prints can be unit-tested (test_benchlib.py)."""

import statistics

# ----------------------------------------------------------------------
# Statistics


def median(values):
    return statistics.median(values)


def quartiles(values):
    """First quartile, median, third quartile, as statistics.quantiles
    (default 'exclusive' method) gives them; a single value is its own
    quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


# ----------------------------------------------------------------------
# Resource usage (raw getrusage readings from the runner)


def cpu_seconds(start, end):
    """User plus system CPU seconds between two usage readings."""
    return (end["utime_us"] + end["stime_us"] - start["utime_us"] - start["stime_us"]) / 1e6


def peak_rss_mb(usage):
    """Peak resident set size in MiB from a Linux ru_maxrss (KiB)."""
    return usage["maxrss_kib"] / 1024.0


def rep_times(rep):
    """Set-up, wall and CPU seconds of one repetition."""
    return {
        "setup_s": (rep["body_start_ns"] - rep["spawn_ns"]) / 1e9,
        "wall_s": (rep["body_end_ns"] - rep["body_start_ns"]) / 1e9,
        "cpu_s": cpu_seconds(rep["usage_start"], rep["usage_end"]),
        "peak_rss_mb": peak_rss_mb(rep["usage_exit"]),
    }


# ----------------------------------------------------------------------
# Spans (Chrome trace events with args.id / args.parent)


def union_length(intervals):
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(events):
    """Self time in seconds of every span, keyed by span id: its
    duration minus the part of it that its children cover (children
    may run on other threads and overlap each other)."""
    by_id = {e["args"]["id"]: e for e in events}
    children = {}
    for e in events:
        children.setdefault(e["args"]["parent"], []).append(e)
    out = {}
    for sid, e in by_id.items():
        start, end = e["ts"], e["ts"] + e["dur"]
        covered = union_length(
            (max(c["ts"], start), min(c["ts"] + c["dur"], end))
            for c in children.get(sid, [])
            if c["ts"] < end and c["ts"] + c["dur"] > start
        )
        out[sid] = (e["dur"] - covered) / 1e6
    return out


def layer_self_times(events):
    """Self seconds summed per layer (the span name's prefix)."""
    selfs = self_times(events)
    layers = {}
    for e in events:
        layer = e["name"].split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + selfs[e["args"]["id"]]
    return layers


def span_seconds(events, name):
    """Durations in seconds of every span with this name."""
    return [e["dur"] / 1e6 for e in events if e["name"] == name]


# ----------------------------------------------------------------------
# Output deviations


def full_scale_dev(values, refs):
    """Largest |value - ref| over a family of outputs, divided by the
    family's largest reference magnitude (the farm's lane_rel_tol
    convention: near-zero entries are not blown up)."""
    scale = max((abs(r) for r in refs), default=0.0)
    worst = max((abs(v - r) for v, r in zip(values, refs)), default=0.0)
    if worst == 0.0:
        return 0.0
    return worst / scale if scale > 0.0 else float("inf")


def count_dev(value, ref):
    """Relative deviation of a count that must match exactly."""
    if value == ref:
        return 0.0
    return abs(value - ref) / max(abs(ref), 1)


# ----------------------------------------------------------------------
# Per-layer metrics of one traced repetition


def _sum(values):
    return float(sum(values))


def layer_metrics(rep, events):
    """Per-layer metrics that one traced repetition yields on its own.
    Layers a workload does not exercise read 0."""
    counters = rep["counters"]
    sim = counters.get("sim", {})
    probe = counters.get("lu_probe", {})
    body = _sum(span_seconds(events, "bench.body"))
    selfs = self_times(events)
    body_self = _sum(selfs[e["args"]["id"]] for e in events if e["name"] == "bench.body")
    tasks = span_seconds(events, "analysis.characterizeCell")
    op_s = _sum(span_seconds(events, "sim.solveOp"))
    tran_s = _sum(span_seconds(events, "sim.transient"))
    sim_s = op_s + tran_s
    steps = sim.get("steps", 0)
    replays_x_devices = sim.get("assembly_replays", 0) * sim.get("devices", 0)
    bbd_total = sim.get("bbd_block_refactors", 0) + sim.get("bbd_block_skips", 0)

    def frac(x, base):
        return x / base if base else 0.0

    cells_s = _sum(selfs[e["args"]["id"]] for e in events if e["name"].startswith("cells."))
    return {
        "base.task_max_over_mean": frac(max(tasks), statistics.mean(tasks)) if tasks else 0.0,
        "cells.build_s": cells_s,
        "analysis.mc_s": _sum(span_seconds(events, "analysis.runMonteCarlo")),
        "analysis.worst_case_s": _sum(span_seconds(events, "analysis.measureShifterWorstCase")),
        "analysis.mc_retried": counters.get("mc_retried", 0),
        "analysis.mc_sim_errors": counters.get("mc_sim_errors", 0),
        "analysis.mc_nonfunctional": counters.get("mc_nonfunctional", 0),
        "analysis.char_task_s_p50": statistics.median(tasks) if tasks else 0.0,
        "analysis.char_task_s_max": max(tasks) if tasks else 0.0,
        "analysis.char_scalar_fallbacks": counters.get("char_scalar_fallbacks", 0),
        "analysis.char_retried_points": counters.get("char_retried_points", 0),
        "analysis.char_holes": counters.get("char_holes", 0),
        "analysis.bootstrap_s": _sum(span_seconds(events, "analysis.fabricDcGuess")),
        "sim.op_s": op_s,
        "sim.tran_s": tran_s,
        "sim.newton_iters": sim.get("newton_iters", 0),
        "sim.steps": steps,
        "sim.rejected_steps": sim.get("rejected_steps", 0),
        "sim.newton_per_step": frac(sim.get("newton_iters", 0), steps),
        "sim.recovery_events": sim.get("recovery_events", 0),
        "sim.recovery_stages": sim.get("recovery_stages", 0),
        "circuit.assembly_s": sim.get("assembly_sec", 0.0),
        "circuit.assembly_frac": frac(sim.get("assembly_sec", 0.0), sim_s),
        "circuit.bypass_ratio": frac(sim.get("bypassed_evals", 0), replays_x_devices),
        "circuit.batched_evals": sim.get("batched_evals", 0),
        "devices.model_eval_s": sim.get("model_eval_sec", 0.0),
        "devices.model_eval_frac": frac(sim.get("model_eval_sec", 0.0), sim_s),
        "numeric.factor_s": sim.get("factor_sec", 0.0),
        "numeric.solve_s": sim.get("solve_sec", 0.0),
        "numeric.lu_frac": frac(sim.get("factor_sec", 0.0) + sim.get("solve_sec", 0.0), sim_s),
        "numeric.lu_fill": sim.get("lu_fill", 0),
        "numeric.symbolic_factorizations": sim.get("symbolic_factorizations", 0),
        "numeric.numeric_refactorizations": sim.get("numeric_refactorizations", 0)
        + sim.get("bbd_block_refactors", 0),
        "numeric.bbd_skip_ratio": frac(sim.get("bbd_block_skips", 0), bbd_total),
        "numeric.refactor_us": probe.get("refactor_us", 0.0),
        "numeric.solve_us": probe.get("solve_us", 0.0),
        "io.lib_write_s": _sum(span_seconds(events, "io.writeLiberty")),
        "io.lib_validate_s": _sum(span_seconds(events, "io.validateLiberty")),
        "bench.unattributed_frac": frac(body_self, body),
    }
