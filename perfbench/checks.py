"""Output checks: each workload's outputs against the reference values
in reference.json. A check returns (result_dev, problems): the largest
relative deviation from the exact references that exist for the seed,
and what failed. Exact references cover the seed-independent outputs
(Tables 1/2, the fabric) always and the seeded ones (Monte-Carlo
statistics, farm tables) on the pinned seeds; other seeds get the
statistical and order-tolerance checks instead."""

import math

from benchlib import count_dev, full_scale_dev

# Agreement bound for every exact reference: CharGrid::lane_rel_tol, the
# repository's documented full-scale accuracy contract (also the printed
# precision of the paper tables).
TOL = 1e-3
# Farm tables of a seed without an exact reference, against the default
# seed's tables (see check_nldm_farm).
ORDER_TOL = 2e-2
# A Monte-Carlo mean on a seed without an exact reference must sit within
# this many standard errors of the population mean.
MC_SIGMAS = 6.0

PAPER_CASES = ("sstvs_l2h", "combined_l2h", "sstvs_h2l", "combined_h2l")
PAPER_METRICS = ("delay_rise", "delay_fall", "power_rise", "power_fall",
                 "leakage_high", "leakage_low")
# Column families of a farm point: [slew, load, delay_rise, delay_fall,
# trans_rise, trans_fall, energy_rise, energy_fall, ok]; the two energy
# tables share one full scale, as in CharGrid::lane_rel_tol.
NLDM_FAMILIES = ((2,), (3,), (4,), (5,), (6, 7))


def check_paper_tables(out, ref, seed):
    devs, problems = [], []
    wc, rwc = out["worst_case"], ref["worst_case"]
    for m in PAPER_METRICS:
        devs.append(full_scale_dev([wc[c][m] for c in PAPER_CASES],
                                   [rwc[c][m] for c in PAPER_CASES]))
    for c in PAPER_CASES:
        if wc[c]["functional"] != rwc[c]["functional"]:
            problems.append(f"worst case {c}: functional={wc[c]['functional']}")

    mc = out["monte_carlo"]
    exact = ref["monte_carlo"].get(str(seed))
    if exact and all(mc[c]["samples"] == exact[c]["samples"] for c in PAPER_CASES):
        for key in ("mean", "stddev"):
            for i, m in enumerate(PAPER_METRICS):
                devs.append(full_scale_dev([mc[c][key][i] for c in PAPER_CASES],
                                           [exact[c][key][i] for c in PAPER_CASES]))
        for c in PAPER_CASES:
            if mc[c]["failed_ids"] != exact[c]["failed_ids"]:
                devs.append(count_dev(len(mc[c]["failed_ids"]), len(exact[c]["failed_ids"])) or 1.0)
                problems.append(f"monte carlo {c}: failed ids {mc[c]['failed_ids']}")
    else:
        # No exact reference for this seed: the sample means must agree
        # with the population statistics within sampling error.
        pop = ref["population"]
        for c in PAPER_CASES:
            n = max(1, mc[c]["samples"] - len(mc[c]["failed_ids"]))
            for i, m in enumerate(PAPER_METRICS):
                mean, p_mean, p_std = mc[c]["mean"][i], pop[c]["mean"][i], pop[c]["stddev"][i]
                limit = MC_SIGMAS * p_std / math.sqrt(n) + TOL * abs(p_mean)
                if mean is None or abs(mean - p_mean) > limit:
                    problems.append(f"monte carlo {c} {m}: mean {mean} vs population {p_mean}")
    return _finish(devs, problems)


def check_nldm_farm(out, ref, seed, default_seed):
    devs, problems = [], []
    tables = out["tables"]
    exact = ref["tables"].get(str(seed))
    rtables = exact or ref["tables"][str(default_seed)]
    if [(t["kind"], t["corner"]) for t in tables] != [(t["kind"], t["corner"]) for t in rtables]:
        return float("inf"), ["farm: table list differs from the reference"]
    order_dev = 0.0
    for t, rt in zip(tables, rtables):
        pts, rpts = t["points"], rt["points"]
        if [p[:2] for p in pts] != [p[:2] for p in rpts]:
            problems.append(f"farm {t['kind']} {t['corner']}: grid differs")
            continue
        for fam in NLDM_FAMILIES:
            dev = full_scale_dev([p[i] for p in pts for i in fam], [p[i] for p in rpts for i in fam])
            if exact:
                devs.append(dev)
            else:
                order_dev = max(order_dev, dev)
        if [p[8] for p in pts] != [p[8] for p in rpts]:
            problems.append(f"farm {t['kind']} {t['corner']}: ok flags differ")
    # Another seed evaluates the grid in another order, which regroups
    # the points into other lane batches; that alone moves entries by up
    # to ~6e-3 of full scale (Combined VS energies), so only the looser
    # ORDER_TOL applies against the default seed's tables.
    if not order_dev <= ORDER_TOL:
        problems.append(f"farm: deviation {order_dev:.3g} from the default order exceeds "
                        f"{ORDER_TOL:g}")
    lib, rlib = out["liberty"], ref["liberty"]
    if not lib["ok"]:
        problems.append("farm: .lib fails validateLiberty: " + lib["summary"])
    for key in ("cells", "tables"):
        devs.append(count_dev(lib[key], rlib[key]))
    return _finish(devs, problems)


def check_fabric_chain(out, ref):
    devs, problems = [], []
    for key in ("devices", "unknowns", "steps", "newton_iters"):
        devs.append(count_dev(out[key], ref[key]))
        if out[key] != ref[key]:
            problems.append(f"fabric: {key} {out[key]} != {ref[key]}")
    cross, rcross = out["crossings"], ref["crossings"]
    if [(c["island"], c["rising"]) for c in cross] != [(c["island"], c["rising"]) for c in rcross]:
        problems.append("fabric: crossing list differs from the reference")
        devs.append(1.0)
    else:
        devs.extend(abs(c["t"] - r["t"]) / abs(r["t"]) for c, r in zip(cross, rcross))
    devs.append(full_scale_dev(out["final_v"], ref["final_v"]))
    return _finish(devs, problems)


def _finish(devs, problems):
    dev = max(devs, default=0.0)
    if not dev <= TOL:
        problems.append(f"largest deviation {dev:.3g} exceeds {TOL:g}")
    return dev, problems


def check(workload, out, ref, seed, default_seed):
    if workload == "paper_tables":
        return check_paper_tables(out, ref, seed)
    if workload == "nldm_farm":
        return check_nldm_farm(out, ref, seed, default_seed)
    return check_fabric_chain(out, ref)
