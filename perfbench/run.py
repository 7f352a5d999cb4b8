#!/usr/bin/env python3
"""Host-time benchmark of the Adyna simulator.

Builds the benchmark binary from the repository's sources (into
.bench_build/ at the repository root), runs one workload, checks its
outputs, and prints the metrics as the last line of standard output:

    python3 perfbench/run.py --workload offline --seed 1 --seconds 20 --trace 0

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer
ledger. --smoke runs every workload briefly, traced and untraced, and
checks that every metric named in BENCHMARK.json prints with its unit
and that no unit fails. --write-digests records the reference output
digests of the reference seed. See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
DIGESTS = os.path.join(HERE, "digests.json")

WORKLOADS = ("offline", "serve", "fleet", "plan")

# Outputs are compared with the stored digests at this seed; at any
# other seed they are printed so two commits can be compared.
REFERENCE_SEED = 1

# Host times are reported at a reference machine speed: the one at
# which the benchmark's fixed probe (a ~1 ms piece of reference work
# the binary runs before every unit and around every set-up) takes
# PROBE_REF_MS. Each unit's time is scaled by PROBE_REF_MS over the
# median of the PROBE_WINDOW probes on either side of it; set-up times
# by the median of the probes around the set-ups. On a shared
# machine the speed drifts by 10-50% over seconds; the probe tracks
# that drift, the simulator's own speed does not affect it.
PROBE_REF_MS = 1.0
PROBE_WINDOW = 4

# Seconds a run may take before it is abandoned: a run takes under a
# minute, and a first run additionally builds (before this clock).
RUN_TIMEOUT_S = 170

# (name, unit) of every metric, in print order. BENCHMARK.json lists
# the same names; --smoke checks that the two agree.
END_TO_END = [
    ("setup_s", "s"),
    ("units_per_s", "units/s"),
    ("unit_ms.p50", "ms"),
    ("unit_ms.p90", "ms"),
    ("peak_rss_mb", "MB"),
]

PER_LAYER = [
    # offline: engine, trace, scheduler, sampling, validation
    ("core.engine.run_period.calls", "count"),
    ("core.engine.run_period.self_ms", "ms"),
    ("core.engine.us_per_batch", "us"),
    ("core.engine.ns_per_kbytehop", "ns"),
    ("trace.next.calls", "count"),
    ("trace.next.self_ms", "ms"),
    ("core.system.profile_ms", "ms"),
    ("core.scheduler.build.calls", "count"),
    ("core.scheduler.build.self_ms", "ms"),
    ("core.sampling.self_ms", "ms"),
    ("core.validate.self_ms", "ms"),
    # plan: re-planning
    ("core.scheduler.cold_build_ms", "ms"),
    ("core.scheduler.warm_build_ms", "ms"),
    ("core.scheduler.delta_build_ms", "ms"),
    ("costmodel.mapper.searches", "count"),
    ("kernels.store.compiles", "count"),
    # caches (offline, serve, fleet, plan)
    ("costmodel.mapper.hit_ratio", "ratio"),
    ("costmodel.mapper.lookups", "count"),
    ("kernels.store.hit_ratio", "ratio"),
    ("kernels.store.lookups", "count"),
    ("core.engine.exec_hit_ratio", "ratio"),
    ("core.engine.exec_lookups", "count"),
    # serve
    ("serve.run.stationary_ms", "ms"),
    ("serve.run.drifting_ms", "ms"),
    ("serve.batches", "count"),
    ("serve.mean_batch", "requests"),
    ("serve.reschedules", "count"),
    ("serve.delta_reschedules", "count"),
    ("serve.search_reschedules", "count"),
    ("core.scheduler.splice_ratio", "ratio"),
    ("search.candidates_tried", "count"),
    ("search.materialized", "count"),
    # fleet
    ("mtenant.run_ms", "ms"),
    ("mtenant.repartitions", "count"),
    ("mtenant.tenant_switches", "count"),
    ("pod.run_ms", "ms"),
    ("pod.hedges", "count"),
    ("pod.hedge_cancelled", "count"),
    ("pod.wasted_completions", "count"),
    ("pod.breaker_trips", "count"),
    ("pod.ic_transfers", "count"),
    ("pod.rerouted", "count"),
    # simulated quantities: identical under any host-only change
    ("sim.cycles", "cycles"),
    ("arch.noc.byte_hops", "byte-hops"),
    ("arch.noc.link_busy_ticks", "ticks"),
    ("arch.hbm.bytes", "B"),
    ("arch.hbm.busy_ticks", "ticks"),
    ("serve.sim_p99_ms", "sim-ms"),
    ("serve.sim_goodput_rps", "sim-requests/s"),
    ("pod.sim_goodput_rps", "sim-requests/s"),
    ("mtenant.sim_goodput_rps", "sim-requests/s"),
    ("tracing.overhead_ratio", "ratio"),
]


def log(*parts):
    print("[perfbench]", *parts, file=sys.stderr, flush=True)


def build():
    """Configure and build the benchmark binary; exit 2 on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "system.hh")):
        log("simulator sources not found under", os.path.join(ROOT, "src"))
        sys.exit(2)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only results.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed:", " ".join(cmd))
            sys.exit(2)


def run_binary(workload, seed, seconds, trace, timeout):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        log("timed out:", " ".join(cmd))
        sys.exit(3)
    if proc.returncode:
        log("exited with", proc.returncode, ":", " ".join(cmd))
        sys.exit(3)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def load_digests():
    if not os.path.isfile(DIGESTS):
        return {}
    with open(DIGESTS) as f:
        return json.load(f)


def count_failures(raw, reference):
    """Units failed: the program's own checks plus, at the reference
    seed, every unit of a cell whose digest differs from the stored
    one."""
    failed = 0
    for cell in raw["cells"]:
        bad = cell["failed"]
        if reference is not None:
            want = reference.get(cell["name"])
            if want != cell["digest"]:
                log("FAIL %s: digest %s, reference %s"
                    % (cell["name"], cell["digest"], want))
                bad = cell["units"]
        failed += bad
    return failed


def speed_factors(probe_ms, count):
    """PROBE_REF_MS over the local probe time, for each of the count
    units that probe_ms[i] and probe_ms[i + 1] bracket."""
    out = []
    for i in range(count):
        lo = max(0, i - PROBE_WINDOW + 1)
        hi = min(len(probe_ms), i + PROBE_WINDOW + 1)
        out.append(PROBE_REF_MS / statistics.median(probe_ms[lo:hi]))
    return out


def p90(values):
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 \
        else values[0]


def end_to_end(raw, normalize=True):
    unit_ms = raw["unit_ms"]
    setup_s = raw["setup_s"]
    if normalize:
        f = speed_factors(raw["probe_ms"], len(unit_ms))
        unit_ms = [u * k for u, k in zip(unit_ms, f)]
        speed = PROBE_REF_MS / statistics.median(raw["setup_probe_ms"])
        setup_s = [s * speed for s in setup_s]
    return {
        "setup_s": statistics.median(setup_s),
        "units_per_s": len(unit_ms) / (sum(unit_ms) / 1e3),
        "unit_ms.p50": statistics.median(unit_ms),
        "unit_ms.p90": p90(unit_ms),
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def metrics(raw, trace):
    if trace:
        # Layer host times at the run's median machine speed.
        speed = PROBE_REF_MS / statistics.median(raw["probe_ms"])
        layers = raw["layers"]
        return {name: {"value": layers.get(name, 0.0) *
                       (speed if unit in ("ms", "us", "ns") else 1.0),
                       "unit": unit}
                for name, unit in PER_LAYER}
    values = end_to_end(raw)
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END}


def info_lines(raw, attempted, failed):
    """The workload's own throughput and check figures, as comment
    lines ahead of the result."""
    unit_ms = raw["unit_ms"]
    busy_s = len(unit_ms) / end_to_end(raw)["units_per_s"]
    w = raw["workload"]
    lines = []
    own = {
        "offline": [("sim_batches_per_s", raw["sim_batches"], "batches/s"),
                    ("sim_requests_per_s", raw["sim_requests"],
                     "requests/s")],
        "serve": [("sim_requests_per_s", raw["sim_requests"],
                   "requests/s"),
                  ("sim_batches_per_s", raw["sim_batches"], "batches/s")],
        "fleet": [("sim_requests_per_s", raw["sim_requests"],
                   "requests/s"),
                  ("sim_batches_per_s", raw["sim_batches"], "batches/s")],
        "plan": [("plans_per_s", raw["plans"], "plans/s")],
    }[w]
    for name, amount, unit in own:
        lines.append("# %s %s: %r %s" % (w, name, amount / busy_s, unit))
    tail = p90(unit_ms)
    lines.append("# %s unit_ms.p90 from %d units, %d beyond it"
                 % (w, len(unit_ms), sum(1 for x in unit_ms if x > tail)))
    rawm = end_to_end(raw, normalize=False)
    lines.append("# %s at the measured machine speed (median probe %.4g ms): "
                 % (w, statistics.median(raw["probe_ms"])) +
                 ", ".join("%s=%.6g" % kv for kv in rawm.items()))
    lines.append("# %s fail_frac: %r ratio (%d of %d units)"
                 % (w, failed / attempted, failed, attempted))
    if raw["seed"] != REFERENCE_SEED:
        for cell in raw["cells"]:
            lines.append("# digest %s %s" % (cell["name"], cell["digest"]))
    return lines


def run_once(workload, seed, seconds, trace, quiet=False):
    raw = run_binary(workload, seed, seconds, trace,
                     RUN_TIMEOUT_S)
    reference = None
    if seed == REFERENCE_SEED:
        reference = load_digests().get(workload)
        if reference is None:
            log("no reference digests for", workload)
            reference = {}
    attempted = sum(c["units"] for c in raw["cells"])
    failed = count_failures(raw, reference)
    if not quiet:
        for line in info_lines(raw, attempted, failed):
            print(line)
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics(raw, trace)}
    return raw, result


def write_digests(seconds):
    digests = load_digests()
    for w in WORKLOADS:
        raw = run_binary(w, REFERENCE_SEED, seconds, 0, RUN_TIMEOUT_S)
        if any(c["failed"] for c in raw["cells"]):
            log("not recording", w, ": units failed their own checks")
            sys.exit(1)
        digests[w] = {c["name"]: c["digest"] for c in raw["cells"]}
        log("recorded", len(digests[w]), "digests for", w)
    with open(DIGESTS, "w") as f:
        json.dump(digests, f, indent=1, sort_keys=True)
        f.write("\n")


def smoke(seconds):
    """Every workload, untraced and traced: every metric BENCHMARK.json
    names prints with its unit, and fail_frac is 0."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ok = True
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        log("BENCHMARK.json workloads differ from", WORKLOADS)
        ok = False
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        for w in WORKLOADS:
            _, result = run_once(w, REFERENCE_SEED, seconds, trace,
                                 quiet=True)
            printed = result["metrics"]
            for m in spec[key]:
                got = printed.get(m["name"])
                if got is None or got["unit"] != m["unit"] or \
                        not isinstance(got["value"], (int, float)):
                    log("%s trace=%d: %s missing or without unit %s"
                        % (w, trace, m["name"], m["unit"]))
                    ok = False
            extra = set(printed) - {m["name"] for m in spec[key]}
            if extra:
                log("%s trace=%d: not in BENCHMARK.json: %s"
                    % (w, trace, sorted(extra)))
                ok = False
            if result["failed"]:
                log("%s trace=%d: fail_frac %d/%d"
                    % (w, trace, result["failed"], result["attempted"]))
                ok = False
            log("%s trace=%d: %d units, %d failed"
                % (w, trace, result["attempted"], result["failed"]))
    print("smoke:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=REFERENCE_SEED)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--write-digests", action="store_true")
    args = ap.parse_args()

    build()
    if args.smoke:
        return smoke(min(args.seconds, 1.0))
    if args.write_digests:
        write_digests(min(args.seconds, 1.0))
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    _, result = run_once(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
