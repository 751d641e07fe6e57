#!/usr/bin/env python3
"""The repository benchmark: four simulator workloads, measured end to end
with tracing off (--trace 0) or layer by layer (--trace 1).

    python3 perfbench/run.py --workload tunnel-flood --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout.  It builds perfbench/trial.exe with dune
into .bench_build/, runs trials of the workload in fresh processes until
--seconds have passed, checks every trial's simulated outcomes, and prints
one JSON object as the last line of standard output.  See
perfbench/README.md for the workloads, the metrics and the layer map.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BUILD_DIR = os.path.join(".bench_build", "dune")
OUT_DIR = os.path.join(".bench_build", "perfbench")
TRIAL = os.path.join(BUILD_DIR, "default", "perfbench", "trial.exe")
DIGESTS = os.path.join("perfbench", "digests.json")

WORKLOADS = ("tunnel-flood", "capture-flood", "roaming-population", "sharded-regions")

# Fresh-process set-ups per run besides the trials' own: set-up takes well
# under a millisecond on the flood worlds, so it needs many samples.
SETUP_PROBES = 24
MIN_TRIALS = 5
FASTEST = 5

# The host-speed references (perfbench/reference.ml), by the trial.exe
# mode that times them, with their (wall, CPU) seconds on this 2-core
# container when no other tenant loads it; and the reference each
# workload's host times are scaled by: the single-core loop for the
# single-core workloads, the two-core one for the parallel executor.
# See host_speed().
REFERENCE_S = {"reference": (0.05, 0.05), "reference-parallel": (0.13, 0.2)}
REFERENCE_OF = {
    "tunnel-flood": "reference",
    "capture-flood": "reference",
    "roaming-population": "reference",
    "sharded-regions": "reference-parallel",
}
TRIAL_TIMEOUT_S = 150

# Comparison passes of the traced run, as extra trial arguments.
CAPTURE_BASE = ["--flows", "32", "--size", "1"]  # capture-flood's traffic, no capture
QUARTER_HOSTS = 256  # a quarter of roaming-population's 1024 hosts


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    for path in ("dune-project", os.path.join("lib", "netsim"), os.path.join("perfbench", "dune")):
        if not os.path.exists(path):
            die("run from the root of a mobility4x4 checkout (missing %s)" % path)
    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = ["dune", "build", "--root", ".", "--build-dir", os.path.abspath(BUILD_DIR), "./perfbench/trial.exe"]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, timeout=840)
    except (OSError, subprocess.TimeoutExpired) as e:
        die("build failed: %s" % e)
    if r.returncode != 0:
        sys.stderr.write(r.stdout.decode(errors="replace"))
        die("build failed")


def trial(workload, seed, *extra):
    """One trial in a fresh process; returns its measurement lines."""
    cmd = [TRIAL, workload, "--seed", str(seed), "--out", OUT_DIR] + list(extra)
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=TRIAL_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return [{"ok": False, "checks_failed": "trial timed out", "attempted": 0, "failed": 0}]
    lines = [json.loads(l) for l in r.stdout.decode().splitlines() if l.startswith("{")]
    if r.returncode != 0 or not lines:
        err = r.stderr.decode(errors="replace").strip().splitlines()
        return [{"ok": False, "checks_failed": "trial exited %d: %s" % (r.returncode, err[-1:] if err else ""),
                 "attempted": 0, "failed": 0}]
    return lines


def reference(kind="reference"):
    """One run of a host-speed reference: its wall time [ref_s] and CPU
    time [ref_cpu_s], in seconds."""
    r = subprocess.run([TRIAL, kind], stdout=subprocess.PIPE, timeout=TRIAL_TIMEOUT_S, check=True)
    line = json.loads(r.stdout.decode().splitlines()[-1])
    return {k: line[k] for k in ("ref_s", "ref_cpu_s")}


def host_speed(row):
    """How much faster than nominal the host ran during one trial: the
    factor for its wall time and the factor for its CPU time.

    Other tenants' load slows this host by up to half, in bursts of seconds
    and in spells of minutes, so even a run's fastest trials follow it.
    Each trial is followed by a run of its workload's reference: fixed code
    that no change to the simulator can speed up.  The single-core loop
    follows the single-core workloads: over 25-second blocks of
    capture-flood trials, the median trial time moved by up to 23% as
    measured and the median scaled one by 12%.  sharded-regions' speed
    depends on the second core and on domain spawns, which only the
    two-core loop follows: over such blocks its median trial time moved by
    27% and the scaled one by 3%.  In one spell of load the two-core loop's
    wall time slowed 2.2x where the trials slowed 1.4x, so a run in such a
    spell reads up to 1.5x faster.  CPU times are scaled by the reference's
    CPU time: a loaded host stretches the wall time of two domains that
    wait for each other more than their CPU time."""
    wall, cpu = REFERENCE_S[REFERENCE_OF[row["workload"]]]
    return wall / row["ref_s"], cpu / row["ref_cpu_s"]


def med(rows, key):
    return statistics.median(r[key] for r in rows)


def fast(values):
    """Median of the five fastest host-time samples.  On a shared host,
    interference from other tenants only ever slows a trial, and it comes
    and goes within seconds: the fastest trials estimate the simulator's
    own cost, where the median of all trials follows the neighbours' load."""
    return statistics.median(sorted(values)[:FASTEST])


class Run:
    """The trials of one benchmark run and its correctness verdict."""

    def __init__(self, workload, seed):
        self.workload, self.seed = workload, seed
        self.rows, self.problems = [], []
        ref = {}
        if os.path.exists(DIGESTS):
            with open(DIGESTS) as f:
                ref = json.load(f).get(workload, {})
        self.digest = ref.get(str(seed))

    def add(self, rows, compare=True):
        """Record trials; [compare] checks their digests against the run's."""
        for row in rows:
            if not row.get("ok"):
                self.problems.append(row.get("checks_failed", "trial failed"))
            self.rows.append(row)
            d = row.get("digest")
            if compare and d is not None:
                if self.digest is None:
                    self.digest = d
                elif d != self.digest:
                    self.problems.append("digest mismatch: %s != %s" % (d, self.digest))
        return rows

    def timed(self, seconds):
        """Trials until [seconds] have passed (at least MIN_TRIALS), each
        followed by runs of the host-speed references, whose times the
        trial's row records."""
        rows, t0 = [], time.monotonic()
        while len(rows) < MIN_TRIALS or time.monotonic() - t0 < seconds:
            row = self.add(trial(self.workload, self.seed))[0]
            if self.problems:
                break
            row.update(reference(REFERENCE_OF[self.workload]))
            rows.append(row)
        return rows

    def result(self, metrics):
        attempted = sum(r.get("attempted", 0) for r in self.rows)
        failed = sum(r.get("failed", 0) for r in self.rows)
        for p in self.problems:
            print("perfbench: check failed: %s" % p, file=sys.stderr)
        return {
            "correct": not self.problems,
            "attempted": max(attempted, 1),
            "failed": failed,
            "metrics": metrics,
        }


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(run, seconds):
    rows = run.timed(seconds)
    if run.problems:
        return {}
    setups = [r["setup"] for r in rows]
    for _ in range(SETUP_PROBES):
        setups += [r["setup"] for r in run.add(trial(run.workload, run.seed, "--setup-only"), compare=False)]
    attempted = sum(r["attempted"] for r in rows)
    failed = sum(r["failed"] for r in rows)
    pps = [r["delivered"] / r["wall_s"] for r in rows]
    cpu = [1e6 * r["cpu_s"] / r["delivered"] for r in rows]
    speed = [host_speed(r) for r in rows]
    setup = fast(setups)
    print("perfbench: %d trials; as measured: %.1f datagrams/s, %.3f us cpu/delivery, %.6f s set-up; "
          "host speed %.3f (wall) and %.3f (CPU) of nominal"
          % (len(rows), statistics.median(pps), statistics.median(cpu), setup,
             statistics.median(s[0] for s in speed), statistics.median(s[1] for s in speed)), file=sys.stderr)
    return {
        "delivered_pps": metric(statistics.median(p / s[0] for p, s in zip(pps, speed)), "datagrams/s"),
        "setup_s": metric(setup, "s"),
        "cpu_us_per_delivery": metric(statistics.median(c * s[1] for c, s in zip(cpu, speed)), "us"),
        "peak_heap_mb": metric(med(rows, "top_heap_mb"), "MB"),
        "success_frac": metric((attempted - failed) / attempted, "ratio"),
    }


def per_layer(run, seconds):
    w = run.workload
    spans = os.path.join(OUT_DIR, "spans-%s-%d.jsonl" % (w, run.seed))
    if os.path.exists(spans):
        os.remove(spans)
    # The first plain trial also measures per-call costs after its run;
    # then counted and plain trials alternate.
    plain = run.add(trial(w, run.seed, "--micro", "--spans", spans))
    counted = []
    t0 = time.monotonic()
    while not run.problems and (not counted or time.monotonic() - t0 < seconds):
        counted += run.add(trial(w, run.seed, "--count", "--spans", spans))
        plain += run.add(trial(w, run.seed, "--spans", spans))
    # Comparison passes.  Capture and the shard count must not change the
    # simulated outcome, so those digests must match the run's.
    if not run.problems and w == "capture-flood":
        base = run.add([trial("tunnel-flood", run.seed, *CAPTURE_BASE)[0] for _ in range(3)])
    if not run.problems and w == "sharded-regions":
        one = run.add([trial(w, run.seed, "--shards", "1")[0] for _ in range(3)])
    if not run.problems and w == "roaming-population":
        quarter = run.add([trial(w, run.seed, "--size", str(QUARTER_HOSTS), *extra)[0]
                           for extra in (["--micro"], [], [])], compare=False)
    # In one process, a second trial after a first: what a measured run
    # would inherit without process isolation.
    if not run.problems:
        again = run.add(trial(w, run.seed, "--repeat", "2"))
    if run.problems:
        return {}

    m = {}

    def put(name, value, unit):
        m[name] = metric(value, unit)

    def us_per_event(rows):
        return 1e6 * fast(r["wall_s"] for r in rows) / med(rows, "events")

    micro = plain[0]
    c = counted[0]
    prof = lambda k: c.get("prof." + k, 0)
    d = med(plain, "delivered")
    wall = fast(r["wall_s"] for r in plain)
    events = med(plain, "events")
    records = c["trace_records"]
    capture = w == "capture-flood"

    put("engine.events_per_delivery", events / d, "count")
    put("engine.events_per_s", events / wall, "1/s")
    put("engine.max_pending", med(plain, "max_pending"), "count")
    put("engine.ns_per_event", micro["micro.event_ns"], "ns")
    put("routing.lookups_per_delivery", prof("routing-lookup") / d, "count")
    put("routing.ns_per_lookup", micro["micro.routing_ns"], "ns")
    put("checksum.calls_per_delivery", prof("checksum") / d, "count")
    put("checksum.ns_per_call", micro["micro.checksum_ns"], "ns")
    put("encap.wraps_per_delivery", prof("encapsulation") / d, "count")
    put("encap.unwraps_per_delivery", prof("decapsulation") / d, "count")
    put("encap.ns_per_wrap", micro["micro.wrap_ns"], "ns")
    put("encap.ns_per_unwrap", micro["micro.unwrap_ns"], "ns")
    put("agent.hooks_per_delivery", prof("agent-processing") / d, "count")
    put("agent.packets_tunneled", c["tunneled"], "count")
    put("agent.packets_encapsulated", c["encapsulated"], "count")
    put("net.ns_per_hop", micro["micro.hop_ns"], "ns")
    put("gc.minor_words_per_delivery", med(plain, "minor_words") / d, "words")
    put("gc.major_words_per_delivery", med(plain, "major_words") / d, "words")
    put("gc.promoted_words_per_delivery", med(plain, "promoted_words") / d, "words")
    put("gc.minor_collections", med(plain, "minor_gcs"), "count")
    put("gc.major_collections", med(plain, "major_gcs"), "count")
    put("gc.live_heap_mb", med(plain, "live_heap_mb"), "MB")

    put("trace.records_per_delivery", records / d, "count")
    put("trace.bytes_per_delivery", c["trace_bytes"] / d, "B")
    put("trace.log_records", records, "count")
    put("trace.jsonl_us_per_record", micro["micro.jsonl_ns"] / 1e3, "us")
    put("trace.pcap_us_per_record", micro["micro.pcap_ns"] / 1e3, "us")
    put("trace.recorder_ns_per_record", micro["micro.recorder_ns"], "ns")
    put("trace.capture_overhead_x", wall / fast(r["wall_s"] for r in base) if capture else 0.0, "x")

    roaming = w == "roaming-population"
    put("transport.get_us", micro["micro.udp_get_ns"] / 1e3, "us")
    put("transport.get_us_quarter", quarter[0]["micro.udp_get_ns"] / 1e3 if roaming else 0.0, "us")

    handovers = c["handovers"]
    put("mobileip.registration_attempts", c["regs_attempted"], "count")
    put("mobileip.registrations_accepted", c["regs_accepted"], "count")
    put("mobileip.registrations_denied", c["regs_denied"], "count")
    put("mobileip.retransmissions", c["retransmissions"], "count")
    put("mobileip.bindings_final", c["bindings_final"], "count")
    put("mobileip.loss_per_handover", c["lost"] / handovers if handovers else 0.0, "count")

    full = us_per_event(plain) if roaming else 0.0
    small = us_per_event(quarter) if roaming else 0.0
    put("scale.us_per_event_ratio", full / small if roaming else 0.0, "x")
    put("scale.us_per_event_full", full, "us")
    put("scale.us_per_event_quarter", small, "us")

    # A sequential world runs as one window: no lookahead, no windows.
    lookahead = c.get("lookahead_s") or 0.0
    windows = med(plain, "sim_end") / lookahead if lookahead else 0.0
    put("shard.count", c["shards"], "count")
    put("shard.lookahead_s", lookahead, "s")
    put("shard.windows", windows, "count")
    put("shard.us_per_window", 1e6 * wall / windows if windows else 0.0, "us")
    put("shard.cpu_over_wall", fast(r["cpu_s"] for r in plain) / wall, "x")
    put("shard.speedup_vs_1shard",
        fast(r["wall_s"] for r in one) / wall if w == "sharded-regions" else 0.0, "x")

    put("setup.build_s", fast(r["setup.build"] for r in plain), "s")
    put("setup.settle_s", fast(r["setup.settle"] for r in plain), "s")
    put("setup.partition_s", fast(r["setup.partition"] for r in plain), "s")

    # The ledger: exact call counts times per-call costs, against the
    # untraced wall time of the same work.  The residual is what no
    # per-call cost explains.
    explained_ns = (
        prof("routing-lookup") * micro["micro.routing_ns"]
        + prof("checksum") * micro["micro.checksum_ns"]
        + prof("encapsulation") * micro["micro.wrap_ns"]
        + prof("decapsulation") * micro["micro.unwrap_ns"]
        + events * micro["micro.event_ns"]
    )
    if capture:
        explained_ns += records * (micro["micro.jsonl_ns"] + micro["micro.pcap_ns"] + micro["micro.recorder_ns"])
    explained = explained_ns / (wall * 1e9)
    put("ledger.explained_frac", explained, "ratio")
    put("ledger.residual_frac", 1.0 - explained, "ratio")
    put("ledger.traced_over_untraced", fast(r["wall_s"] for r in counted) / wall, "x")
    put("host.reference_ms", 1e3 * fast(reference()["ref_s"] for _ in range(FASTEST)), "ms")
    put("host.reference_parallel_ms",
        1e3 * fast(reference("reference-parallel")["ref_s"] for _ in range(FASTEST)), "ms")
    put("isolation.second_trial_ratio", us_per_event(again[1:]) / us_per_event(again[:1]), "x")
    return m


def write_digests(seeds):
    """Record every workload's outcome digest for [seeds] (perf-only
    changes must reproduce them)."""
    build()
    out = {}
    for w in WORKLOADS:
        out[w] = {}
        for s in seeds:
            row = trial(w, s)[0]
            if not row.get("ok"):
                die("%s seed %d: %s" % (w, s, row.get("checks_failed")))
            out[w][str(s)] = row["digest"]
    with open(DIGESTS, "w") as f:
        json.dump(out, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-digests", type=int, metavar="N",
                    help="record outcome digests for seeds 0..N-1 into %s" % DIGESTS)
    a = ap.parse_args()
    if a.write_digests:
        write_digests(range(a.write_digests))
        return
    if a.workload is None:
        die("--workload is required")
    build()
    run = Run(a.workload, a.seed)
    metrics = (per_layer if a.trace else end_to_end)(run, a.seconds)
    result = run.result(metrics)
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
