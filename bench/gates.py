#!/usr/bin/env python3
"""Solver-status regression gate over a bench_table1_complexity JSON file.

Usage: python3 bench/gates.py bench_table1_smoke.json

Every reduction row must come back with a completed proof: an unproven
upwards search or an unproven/infeasible B&B row means a solver regressed,
even if its unit tests still pass. The other sections are checked for the
structural properties their parts promise (see the comments per check).
Prints one line per violation and exits 1, or prints a summary and exits 0.
"""
import json
import sys


# Multitree dirty recomputes per per-tree resolve. Each lexico/DFS probe
# re-folds the root paths of the vertices it re-constrains, ~14 bags per
# resolve on the CI smoke overlays (13.6-14.7 at member s=10^4); a probe that
# recomputed its whole member tree would read ~member_s. 45 is 3x the smoke
# figure and host-independent, unlike the solve_ms ceiling.
MULTITREE_DIRTY_PER_RESOLVE = 45.0


def sized_rows(d, part):
    """The rows of a sized part, whether it is a list or an object with runs."""
    section = d[part]
    return section["runs"] if isinstance(section, dict) else section


def check(d):
    bad = []
    # A size asked for must come back as a row, even when its instance fails
    # (the row then says why); a silently dropped size hides the failure.
    if "requested_sizes" not in d:
        bad.append("requested_sizes missing: cannot tell dropped sizes")
    for part, sizes in d.get("requested_sizes", {}).items():
        got = {r["s"] for r in sized_rows(d, part)}
        for s in sizes:
            if s not in got:
                bad.append(f"{part} s={s} requested but has no row")
    for r in d["upwards_reduction"]:
        if not r["proven"]:
            bad.append(f"upwards_reduction clients={r['clients']} unproven")
    for r in d["multiple_ilp_reduction"]:
        if not r["proven"] or not r["feasible"]:
            bad.append(f"multiple_ilp_reduction m={r['m']} status regressed")
        # fig8 2-PARTITION NO-instance: optimum is S + 2 = 4m + 4.
        if r["feasible"] and r["cost"] != 4 * r["m"] + 4:
            bad.append(f"multiple_ilp_reduction m={r['m']} optimal cost "
                       f"{r['cost']} != {4 * r['m'] + 4}")
        if r["bb_warm"]["basis_reuse_rate"] < 0.5 and r["bb_nodes"] > 10:
            bad.append(f"multiple_ilp_reduction m={r['m']} warm-start reuse "
                       f"collapsed: {r['bb_warm']['basis_reuse_rate']:.2f}")
        # Bounded-variable layout: finite ranges are column boxes, so a real
        # search resolves some ratio tests as bound flips. Zero flips over
        # more than a handful of nodes means the box ratio tests went unused.
        if r["bb_nodes"] > 10 and r["bb_warm"]["bound_flips"] <= 0:
            bad.append(f"multiple_ilp_reduction m={r['m']} made no bound "
                       f"flips in {r['bb_nodes']} nodes")
    runs = d["large_scale"]["runs"]
    if not runs:
        bad.append("large_scale section is empty")
    for r in runs:
        # The feasible-at-scale generator profile must stay feasible under
        # all three streaming DPs, and the whole bench process must stay far
        # below the dense-era footprint.
        for policy in ("closest", "multiple", "qos"):
            if not r[policy]["feasible"]:
                bad.append(f"large_scale s={r['s']} {policy} infeasible")
        if r["peak_rss_bytes"] > 2_000_000_000:
            bad.append(f"large_scale s={r['s']} peak RSS "
                       f"{r['peak_rss_bytes']} > 2 GB")
    solved = []
    for r in d["warm_vs_cold"]:
        # The drawn Multiple relaxation is infeasible at s=64 (no timings);
        # any other non-optimal root means the LP solve regressed.
        if r["status"] == "infeasible" and r["s"] == 64:
            continue
        if r["status"] != "optimal":
            bad.append(f"warm_vs_cold s={r['s']} root LP {r['status']}")
            continue
        solved.append(r)
        # Eta-file refactorization policy: a refactorization per handful of
        # re-solves means the product-form updates stopped carrying.
        if r["warm"]["refactorizations"] > r["resolves"] // 4:
            bad.append(f"warm_vs_cold s={r['s']} refactorizes too often: "
                       f"{r['warm']['refactorizations']} in "
                       f"{r['resolves']} resolves")
    if solved:
        # Same-run ratio at the largest size: a warm dual re-solve from the
        # previous basis against a cold two-phase solve of the same box
        # update (locally ~190x at s=256). 50x leaves more than 3x headroom
        # for runner jitter while still catching warm starts that stopped
        # carrying.
        last = solved[-1]
        if last["speedup"] < 50.0:
            bad.append(f"warm_vs_cold s={last['s']} warm-resolve speedup "
                       f"collapsed: {last['speedup']:.2f}x")
    inc = d["incremental"]["runs"]
    if not inc:
        bad.append("incremental section is empty")
    for r in inc:
        # Every step must match the from-scratch optimum bit-for-bit — a
        # single mismatch means the dirty-closure or repair logic is wrong,
        # not slow.
        if not r["all_match"]:
            bad.append(f"incremental s={r['s']} {r['policy']} diverged "
                       "from the scratch optimum")
        # Single-client mutations dirty O(depth) subtrees; the cache must
        # reuse nearly everything.
        if r["cache"]["hit_rate"] < 0.9:
            bad.append(f"incremental s={r['s']} {r['policy']} hit rate "
                       f"collapsed: {r['cache']['hit_rate']:.3f}")
        # Locally ~10x at s=10^4; 3x leaves CI-runner headroom while still
        # catching a fall back to from-scratch-like latency.
        if r["s"] >= 10000 and r["speedup_p50"] < 3.0:
            bad.append(f"incremental s={r['s']} {r['policy']} p50 "
                       f"speedup collapsed: {r['speedup_p50']:.2f}x")
    res = d["resilience"]["runs"]
    if not res:
        bad.append("resilience section is empty")
    for r in res:
        tag = f"resilience s={r['s']} {r['policy']}"
        # 10% of the scratch wall time must still yield a usable answer:
        # exact if it fits, else a validated placement with a certified
        # bracket — never Error and never an invalid one.
        if r["status"] not in ("Optimal", "FeasibleDegraded"):
            bad.append(f"{tag} degraded past a usable answer: {r['status']}")
        if not r["valid"]:
            bad.append(f"{tag} returned an invalid placement")
        if r["gap"] is None:
            bad.append(f"{tag} lost its certified bracket")
        elif r["lower_bound"] <= 0:
            bad.append(f"{tag} floor went trivial: {r['lower_bound']}")
        # Deadlines are enforced at safepoint granularity (locally ~1 ms
        # overshoot at s=10^4); 100 ms absorbs runner jitter while still
        # catching an unguarded path sneaking in.
        if r["overshoot_ms"] > 100:
            bad.append(f"{tag} overshot its deadline by "
                       f"{r['overshoot_ms']:.0f} ms")
    mtr = d["multitree"]["runs"]
    if len(mtr) < 3:
        bad.append("multitree section must cover k=2..4 overlays")
    for r in mtr:
        tag = f"multitree k={r['trees']} s={r['member_s']}"
        # The feasible-at-scale profile must stay feasible on every overlay,
        # the placement must pass the overlay validator, and the gateway
        # search must terminate without tripping its node valve (exhaustion
        # means the B&B pruning regressed).
        if not r["feasible"]:
            bad.append(f"{tag} infeasible")
        if not r["valid"]:
            bad.append(f"{tag} returned an invalid placement")
        if r["exhausted"]:
            bad.append(f"{tag} tripped the DFS node valve")
        # The lexico scan recomputes O(depth) dirty paths per probe. The
        # counter ratio catches a whole-tree-per-probe regression on any
        # host; the wall-time ceiling (locally ~2 s) is the coarse backstop.
        per_resolve = r["dirty_recomputes"] / max(1, r["dp_resolves"])
        if per_resolve > MULTITREE_DIRTY_PER_RESOLVE:
            bad.append(f"{tag} recomputes {per_resolve:.1f} bags per resolve "
                       f"> {MULTITREE_DIRTY_PER_RESOLVE:.0f}")
        if r["solve_ms"] > 30000:
            bad.append(f"{tag} solve took {r['solve_ms']:.0f} ms")
    svc = d["service"]["soak"]
    if len(svc) < 3:
        bad.append("service soak must cover 1/2/4 workers")
    for r in svc:
        # The strand model's whole promise: concurrency must be invisible in
        # the answers. A single response differing from the session's serial
        # replay is a race, not noise.
        if not r["all_match"]:
            bad.append(f"service soak workers={r['workers']} diverged "
                       "from the serial per-session replay")
    w = d["service"]["warm_ilp"]
    if not w["all_match"]:
        bad.append("service warm-ILP re-solve missed the cold optimum")
    if w["seeded_solves"] == 0:
        bad.append("service warm-ILP path never seeded an incumbent")
    # Locally ~70% at s=48: the repaired incumbent plus the cached
    # decomposition floor prune most of the cold search. 20% leaves wide
    # headroom while still catching a seeding path that stopped reaching the
    # B&B.
    if w["node_savings"] < 0.2:
        bad.append(f"service warm-ILP node savings collapsed: "
                   f"{w['node_savings']:.2f}")
    return bad


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    with open(argv[1]) as f:
        bad = check(json.load(f))
    if bad:
        print("\n".join(bad))
        return 1
    print("every requested size reported; all reduction rows proven; "
          "warm-start reuse healthy; box ratio tests flipping bounds; "
          "streaming DPs feasible at scale; warm re-solves ahead of cold; "
          "incremental re-solves exact and fast; resilient pipeline "
          "bracketed and on deadline; multitree overlays solved, validated, "
          "and re-folding dirty paths only; placement service "
          "replay-identical with warm-ILP seeding")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
