#!/usr/bin/env python3
"""One command for the dfrlib benchmark: build, run one workload, print metrics.

    python3 perfbench/run.py --workload <tune|serve|serve-fleet|serve-routed>
                             --seed N --seconds S --trace 0|1

Run it from the repository root. It builds dfr_perfbench (harness.cpp) and
dfr_shard in Release into $CARGO_TARGET_DIR (default .bench_build), drives
the harness over a pipe, and prints one JSON object as its last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones in BENCHMARK.json, all
measured untraced. With --trace 1 the run is split in two halves, untraced
then traced; the metrics are the per-layer ones, including
trace.overhead_frac.<metric> = (traced - untraced) / untraced for every
end-to-end metric. A per-layer metric of a layer the workload never reaches
reads 0. Everything else (host key, per-point detail) goes to stdout before
the result line or to stderr. See perfbench/README.md.
"""

import argparse
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_DIR = os.path.join(ROOT, ".bench_run")

# The generator is late when its lag p99 exceeds this share of the
# workload's SLO. A window with a late generator is invalid and enters no
# median. A point whose lag p99 over all its windows together is late is
# invalid, and so is the run; one stalled window does not make it so.
LAG_SHARE = 0.1
# The steal rule: a serving window or capacity run during which the
# hypervisor took more than this share of the VM's CPU time (steal in
# /proc/stat) is invalid. On the reference host steal came in bursts of
# several seconds; serve-fleet windows at 7-15% steal read a p50 up to 2.7x
# that of windows below 5%, and two whole runs at 11-12% steal read twice
# the set's median light_ms. tune is exempt: its repeats keep all four vCPUs
# busy, two of three exceeded the share in one run, and its figures held
# within 5% across seeds without the rule.
STEAL_SHARE = 0.05
# The host-speed rule: a round (serving) or repeat (tune) is steady when the
# host-speed probes taken just before and just after it are both within this
# share of the run's median probe. An unsteady round's windows are invalid
# like a late generator's; a run with no more steady rounds than unsteady
# ones is invalid. On the reference host the probe moved by 25-45% between
# the host's fast and slow states, and mostly stayed within 10% of a run's
# median inside the slow one.
PROBE_SHARE = 0.2
# Completed requests aimed for per window: at least 10 beyond p99 (>= 1000)
# and fewer than 10 beyond p99.9 (< 10000).
WINDOW_SAMPLES = 2500
MIN_WINDOW_S, MAX_WINDOW_S = 0.1, 2.0
# Requests per closed-loop capacity run, one run per round: 0.2-0.4 s at the
# capacities seen on the reference host.
SATURATE_REQUESTS = 6000
# Repeats (tune) or rounds (serving) every run makes, however short, so
# each half of a traced run may run past its share of --seconds.
MIN_ROUNDS = 3
# Knee tests besides the SLO.
KNEE_OK_FRAC = 0.999
KNEE_ACHIEVED_FRAC = 0.98

# Rates in requests/s; the SLO is on the p99, in microseconds. It sits above
# the 1-10 ms wake-up noise of the reference host, so queueing past the
# knee, not noise, decides where it is crossed. lo_qps is about 30% of the
# knee measured there and hi_qps 30-45%, where the p50 still held between
# runs (see README.md); the ladder runs from lo_qps to past the knee.
# inflight is how many requests the closed-loop capacity run keeps
# outstanding. On serve, 16-64 all kept the one worker busy (17-19k/s). On
# serve-fleet batches fill only as the queue deepens, so the served rate
# grows with it (64: 12-14k/s, 128: 16-18k/s, near the knee of its open-loop
# ladder). serve-routed's two synchronous senders allow two.
WORKLOADS = {
    "tune": {"kind": "tune", "setups": 7},
    "serve": {"kind": "serving", "setups": 15, "slo_us": 20000.0,
              "lo_qps": 5500.0, "hi_qps": 8000.0, "inflight": 32,
              "ladder": [5500.0, 8000.0, 13000.0, 15000.0, 16000.0, 17000.0,
                         18000.0, 19000.0, 20000.0, 21000.0, 22000.0, 24000.0,
                         26000.0, 28000.0, 30000.0, 33000.0, 36000.0, 40000.0,
                         45000.0]},
    "serve-fleet": {"kind": "serving", "setups": 15, "slo_us": 20000.0,
                    "lo_qps": 3500.0, "hi_qps": 5000.0,
                    "inflight": 128,
                    "ladder": [3500.0, 5000.0, 8000.0, 10000.0, 12000.0,
                               14000.0, 16000.0, 18000.0, 20000.0, 22000.0,
                               24000.0, 27000.0, 30000.0, 34000.0, 38000.0,
                               45000.0]},
    "serve-routed": {"kind": "serving", "setups": 41, "slo_us": 20000.0,
                     "lo_qps": 5000.0, "hi_qps": 8000.0, "inflight": 2,
                     "ladder": [5000.0, 8000.0, 11000.0, 13000.0, 14000.0,
                                15000.0, 16000.0, 17000.0, 18000.0, 19000.0,
                                20000.0, 22000.0, 24000.0, 26000.0, 29000.0,
                                32000.0, 36000.0, 42000.0]},
}

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class BenchError(Exception):
    """The benchmark could not produce a result."""


# ---- statistics ----------------------------------------------------------------


def percentile(values, q):
    """Nearest-rank q-quantile (0 < q <= 1) of `values`; nan when empty."""
    if not values:
        return math.nan
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def median(values):
    """Median of the finite values; nan when there are none."""
    finite = [v for v in values if not math.isnan(v)]
    return statistics.median(finite) if finite else math.nan


def median_of_windows(windows, key):
    """The median, over windows, of each window's `key` (a per-window value)."""
    return median([w[key] for w in windows])


def rung_passes(rung, slo_us):
    """The three knee tests on one rung's medians."""
    return (rung["p99_us"] <= slo_us and rung["ok_frac"] >= KNEE_OK_FRAC
            and rung["achieved_frac"] >= KNEE_ACHIEVED_FRAC)


def interpolate_knee(rungs, slo_us):
    """Highest offered rate that passes, from ascending ladder results.

    Each rung is a dict with qps, p99_us, ok_frac and achieved_frac (medians
    over its windows). Every test the first failing rung fails is crossed
    between the last passing rung and it, linearly in rate; the knee is the
    lowest such crossing. An idle rung at 0/s passes ahead of the ladder, so
    a first rung that fails still gives a knee below it. The last rate when
    every rung passes.
    """
    limits = (("p99_us", slo_us, False), ("ok_frac", KNEE_OK_FRAC, True),
              ("achieved_frac", KNEE_ACHIEVED_FRAC, True))
    last_pass = {"qps": 0.0, "p99_us": 0.0, "ok_frac": 1.0, "achieved_frac": 1.0}
    for rung in rungs:
        if rung_passes(rung, slo_us):
            last_pass = rung
            continue
        crossings = []
        for key, limit, floor in limits:
            before, after = last_pass[key], rung[key]
            if (after < limit) if floor else (after > limit):
                share = 1.0 if math.isinf(after) else (limit - before) / (after - before)
                crossings.append(last_pass["qps"] +
                                 min(1.0, max(0.0, share)) * (rung["qps"] - last_pass["qps"]))
        return min(crossings)
    return last_pass["qps"]


def window_is_valid(lag_p99_us, slo_us):
    """The lag-validity rule: a window whose generator lag p99 exceeds
    LAG_SHARE of the SLO does not measure the offered schedule."""
    return lag_p99_us <= LAG_SHARE * slo_us


def point_is_valid(windows, slo_us):
    """The lag-validity rule for a point: its windows' lags pooled."""
    return window_is_valid(percentile([x for w in windows for x in w["lag_us"]], 0.99),
                           slo_us)


def steady_rounds(probes):
    """The host-speed rule. `probes` holds one probe time before each round
    and one after the last; round i ran between probes i and i + 1. Returns
    one flag per round: both of its probes within PROBE_SHARE of the median
    probe."""
    mid = median(probes)
    near = [abs(p - mid) <= PROBE_SHARE * mid for p in probes]
    return [before and after for before, after in zip(near, near[1:])]


def host_speed_check(probes):
    """Steady-round flags plus the run-level verdict: a list with the reason
    the run is invalid, or an empty list."""
    steady = steady_rounds(probes)
    if 2 * sum(steady) <= len(steady):
        return steady, ["host speed moved: %d of %d rounds steady (probe %.0f..%.0f us)"
                        % (sum(steady), len(steady), min(probes), max(probes))]
    return steady, []


def window_seconds(qps):
    """Window length that collects about WINDOW_SAMPLES requests at `qps`."""
    return min(MAX_WINDOW_S, max(MIN_WINDOW_S, WINDOW_SAMPLES / qps))


def check_names(entries):
    """Raise BenchError unless every metric name and unit fits the charset
    and no name repeats."""
    seen = set()
    for entry in entries:
        if not NAME_RE.match(entry["name"]) or entry["name"] in seen:
            raise BenchError("bad or repeated metric name %r" % entry["name"])
        if not UNIT_RE.match(entry["unit"]):
            raise BenchError("bad unit %r for %s" % (entry["unit"], entry["name"]))
        seen.add(entry["name"])


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    check_names(spec["end_to_end"] + spec["per_layer"])
    return spec


# ---- build and harness ------------------------------------------------------------


def build():
    """Configure (once) and build the harness and dfr_shard; returns the
    build directory."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
            os.path.join(ROOT, "src")):
        raise BenchError("no dfrlib sources next to perfbench/")
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs], check=True,
                   stdout=sys.stderr, stderr=sys.stderr)
    return build_dir


class Harness:
    """dfr_perfbench for one workload, driven one command line at a time."""

    def __init__(self, build_dir, workload, seed):
        os.makedirs(RUN_DIR, exist_ok=True)
        self.proc = subprocess.Popen(
            [os.path.join(build_dir, "dfr_perfbench"), workload,
             "--seed", str(seed), "--run-dir", RUN_DIR,
             "--shard-bin", os.path.join(build_dir, "dfrlib", "dfr_shard")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def ask(self, *words):
        self.proc.stdin.write(" ".join(str(w) for w in words) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError("dfr_perfbench exited during %r" % (words,))
        return json.loads(line)

    def close(self):
        """Stop the harness (which stops its shards) and wait for it."""
        reply = None
        try:
            reply = self.ask("finish")
        except (BenchError, OSError, ValueError):
            pass
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=20)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        return reply


def setup_seconds(harness, count, pinned):
    """Median set-up time over `count` set-ups; returns (seconds, simd).

    With `pinned`, each of the `count` is a round that sets up once on each
    CPU the harness may use, pinned to it, and counts the round's mean; the
    median is over rounds. On the reference host two vCPUs ran tune's
    single-threaded set-up in ~11.5 ms and the other two in 15-16.5 ms, and
    a process stays on the CPU it starts on, so an unpinned median took one
    speed or the other per run."""
    first = harness.ask("setup")
    if not pinned:
        rest = [harness.ask("setup")["setup_s"] for _ in range(count - 1)]
        return median([first["setup_s"]] + rest), first["simd"]
    rounds = [statistics.fmean(harness.ask("setup", k)["setup_s"] for k in range(first["cpus"]))
              for _ in range(count)]
    return median(rounds), first["simd"]


def probe(harness):
    return harness.ask("probe")["probe_us"]


def ask_stolen(harness, *words):
    """harness.ask, with the share of CPU time stolen meanwhile as "steal"."""
    before = steal_ticks()
    reply = harness.ask(*words)
    reply["steal"] = steal_share(before, steal_ticks())
    return reply


# ---- tune ----------------------------------------------------------------------------


def run_tune(harness, seconds, traced):
    """Repeats of fit_multistart + 8x8 run_grid_level until `seconds` run out
    (at least MIN_ROUNDS)."""
    repeats, probes = [], [probe(harness)]
    start = time.monotonic()
    while len(repeats) < MIN_ROUNDS or time.monotonic() - start < seconds:
        repeats.append(harness.ask("repeat", int(traced)))
        probes.append(probe(harness))
    first = repeats[0]
    ok = sum(1 for r in repeats
             if r["bp_acc"] == first["bp_acc"] and r["gs_acc"] == first["gs_acc"]
             and r["candidates"] == 64 and r["valid"] > 0)
    flags, invalid = host_speed_check(probes)
    steady = [r for r, f in zip(repeats, flags) if f] or repeats
    bp_s = median([r["bp_s"] for r in steady])
    gs_s = median([r["gs_s"] for r in steady])
    result = {
        "attempted": len(repeats), "failed": len(repeats) - ok,
        "invalid": invalid, "probes": probes,
        "e2e": {"ok_frac": ok / len(repeats), "light_ms": bp_s * 1e3,
                "heavy_ms": gs_s * 1e3,
                "capacity_per_s": 1.0 / median([r["bp_s"] + r["gs_s"] for r in steady])},
        "detail": {"repeats": len(repeats), "steady": sum(flags), "bp_s": bp_s, "gs_s": gs_s,
                   "bp_acc": first["bp_acc"], "gs_acc": first["gs_acc"]},
    }
    if traced:
        replay = harness.ask("replay")
        result["layers"] = {
            "trainer.sgd_s": median([r["sgd_s"] for r in steady]),
            "trainer.ridge_s": median([r["ridge_s"] for r in steady]),
            "trainer.skipped_updates": first["skipped_updates"],
            "trainer.bp_acc": first["bp_acc"],
            "backprop.forward_us": median(replay["forward_us"]),
            "backprop.backward_us": median(replay["backward_us"]),
            "backprop.state_values": replay["state_values"],
            "features.series_us": median(replay["features_series_us"]),
            "ridge.sweep_s": median(replay["ridge_sweep_s"]),
            "grid_search.candidates": first["candidates"],
            "grid_search.valid_frac": first["valid"] / first["candidates"],
            "grid_search.candidate_s": gs_s / first["candidates"],
            "grid_search.gs_acc": first["gs_acc"],
        }
    return result


# ---- serving ---------------------------------------------------------------------------


def achieved_frac(latencies_us, secs):
    """Served rate over offered rate, from how fast the backlog grows.

    Past capacity, a request arriving t into the window waits (offered /
    served - 1) * t longer than one arriving at its start. `latencies_us`
    are in arrival order; the slope is the median latency of the last
    quarter minus that of the second, over the 0.5 * `secs` between the
    quarters' midpoints. Below capacity the slope is ~0 whatever the
    steady latency, which a completions-over-elapsed-time ratio would
    count against a short window. The first quarter is left out: a window
    starts with an empty queue, and a micro-batching server lets its queue
    build before batches fill, which is a rise to a steady latency, not a
    growing backlog.
    """
    quarter = len(latencies_us) // 4
    if quarter == 0:
        return 1.0
    growth_us = (percentile(latencies_us[-quarter:], 0.5)
                 - percentile(latencies_us[quarter:2 * quarter], 0.5))
    return 1.0 / (1.0 + max(0.0, growth_us * 1e-6 / (0.5 * secs)))


def summarize_window(reply, qps, secs):
    """Per-window figures from one `window` reply. Failed requests count as
    missing the SLO, so they enter the percentiles as +inf."""
    sent = reply["sent"]
    latencies = reply["latency_us"] + [math.inf] * (sent - len(reply["latency_us"]))
    lags = reply["lag_us"] or [0.0]
    window = {
        "qps": qps, "sent": sent, "ok": reply["ok"], "rejected": reply["rejected"], "shed": reply["shed"],
        "completed": len(reply["latency_us"]), "lag_us": lags,
        "p50_us": percentile(latencies, 0.50),
        "p99_us": percentile(latencies, 0.99),
        "lag_p50_us": percentile(lags, 0.50),
        "lag_p99_us": percentile(lags, 0.99),
        "achieved_frac": achieved_frac(reply["latency_us"], secs) * reply["ok"] / sent
                         if sent else 0.0,
        "ok_frac": reply["ok"] / sent if sent else 0.0,
        "steal": reply.get("steal", 0.0),
    }
    waits = reply.get("sender_wait_us")
    if waits is not None:
        window["wait_p99_us"] = percentile(waits + [0.0] * (sent - len(waits)), 0.99)
    for key in ("server_us", "submit_us", "get_hit_us", "get_fault_us",
                "rtt_us", "shard_us"):
        if reply.get(key):
            window[key] = reply[key]
    for key in ("store_hits", "store_faults", "store_evictions",
                "store_load_us_p50", "router_retried", "router_io_failures",
                "router_p2c_primary", "router_p2c_alternate"):
        if key in reply:
            window[key] = reply[key]
    return window


def point_summary(windows):
    return {key: median_of_windows(windows, key)
            for key in ("p50_us", "p99_us", "lag_p50_us", "lag_p99_us",
                        "achieved_frac", "ok_frac", "completed")}


def run_serving(harness, config, seed, seconds, traced):
    """Windows in rounds. A round holds one window at the low rate, one at
    the high rate, one on every ladder rung and one closed-loop capacity
    run, so a busy spell of the host touches every point alike. Rounds
    repeat until `seconds` run out (at least MIN_ROUNDS). A host-speed probe
    before the first round and after every round decides which rounds were
    steady. Each point reports medians over its valid windows, and the
    capacity the median over the valid capacity runs."""
    slo = config["slo_us"]
    rates = sorted({config["lo_qps"], config["hi_qps"], *config["ladder"]})
    windows = {qps: [] for qps in rates}
    served = []
    sent = ok = rounds = 0
    probes = [probe(harness)]
    start = time.monotonic()
    while rounds < MIN_ROUNDS or time.monotonic() - start < seconds:
        for index, qps in enumerate(rates):
            secs = window_seconds(qps)
            reply = ask_stolen(harness, "window", qps, secs,
                               seed * 1000003 + rounds * 1000 + index, int(traced))
            window = summarize_window(reply, qps, secs)
            sent += window["sent"]
            ok += window["ok"]
            window["round"] = rounds
            windows[qps].append(window)
        reply = ask_stolen(harness, "saturate", SATURATE_REQUESTS, config["inflight"],
                           seed * 1000003 + rounds * 1000 + len(rates))
        sent += reply["sent"]
        ok += reply["ok"]
        served.append(reply)
        probes.append(probe(harness))
        rounds += 1
    steady, invalid = host_speed_check(probes)
    for ws in windows.values():
        for w in ws:
            w["valid"] = (steady[w["round"]] and window_is_valid(w["lag_p99_us"], slo)
                          and w["steal"] <= STEAL_SHARE)
    valid = {qps: [w for w in ws if w["valid"]] or ws for qps, ws in windows.items()}
    rungs = []
    for qps in config["ladder"]:
        rung = point_summary(valid[qps])
        rung["qps"] = qps
        rungs.append(rung)
        passed = rung_passes(rung, slo)
        print("rung %.0f/s: p99 %.0f us, ok %.4f, achieved %.4f -> %s" %
              (qps, rung["p99_us"], rung["ok_frac"], rung["achieved_frac"],
               "pass" if passed else "fail"))
        if not passed:
            break
    # Only points that enter a reported figure can invalidate the run.
    used = {config["lo_qps"], config["hi_qps"]} | {r["qps"] for r in rungs}
    invalid += ["point %.0f/s: generator lag p99 over %.0f%% of the SLO" % (qps, LAG_SHARE * 100)
                for qps in sorted(used) if not point_is_valid(windows[qps], slo)]
    invalid += ["point %.0f/s: no valid window, reported from all %d" % (qps, len(windows[qps]))
                for qps in sorted(used) if not any(w["valid"] for w in windows[qps])]
    knee = interpolate_knee(rungs, slo)
    lo, hi = valid[config["lo_qps"]], valid[config["hi_qps"]]
    lo_s, hi_s = point_summary(lo), point_summary(hi)
    calm = [r["served_qps"] for r, f in zip(served, steady) if f and r["steal"] <= STEAL_SHARE]
    if not calm:
        invalid.append("no valid capacity run, reported from all %d" % len(served))
    capacity = median(calm or [r["served_qps"] for r in served])
    result = {
        "attempted": sent, "failed": sent - ok, "invalid": invalid, "probes": probes,
        "e2e": {"ok_frac": ok / sent, "light_ms": lo_s["p50_us"] * 1e-3,
                "heavy_ms": hi_s["p50_us"] * 1e-3, "capacity_per_s": capacity},
        "detail": {"rounds": rounds, "steady": sum(steady), "knee_qps": knee,
                   "stolen": sum(w["steal"] > STEAL_SHARE for ws in windows.values() for w in ws)
                             + sum(r["steal"] > STEAL_SHARE for r in served),
                   "p50_us_lo": lo_s["p50_us"], "p99_us_lo": lo_s["p99_us"],
                   "p50_us_hi": hi_s["p50_us"], "p99_us_hi": hi_s["p99_us"],
                   "samples_lo": lo_s["completed"], "samples_hi": hi_s["completed"]},
    }
    if traced:
        # The store's counts come from the first rounds' low-rate windows,
        # which every run makes, so they repeat exactly for a seed.
        exact = windows[config["lo_qps"]][:MIN_ROUNDS]
        result["layers"] = serving_layers(harness, lo, hi, lo_s, hi_s, exact)
        result["layers"]["request.knee_qps"] = knee
    return result


def window_median(windows, key, q):
    return median([percentile(w[key], q) for w in windows if w.get(key)])


def serving_layers(harness, lo, hi, lo_s, hi_s, exact):
    """Per-layer figures from the traced windows plus the stage replay."""
    replay = harness.ask("replay")
    layers = {
        # The end-to-end tail, from scheduled arrival; too noisy on the
        # reference host to carry a bound (see README.md).
        "request.p99_us_lo": lo_s["p99_us"],
        "request.p99_us_hi": hi_s["p99_us"],
        "loadgen.lag_us_p50": hi_s["lag_p50_us"],
        "loadgen.lag_us_p99": hi_s["lag_p99_us"],
        "loadgen.achieved_frac_hi": hi_s["achieved_frac"],
        "loadgen.samples_lo": lo_s["completed"],
        "loadgen.samples_hi": hi_s["completed"],
    }
    if "wait_p99_us" in hi[0]:
        layers["loadgen.sender_wait_us_p99"] = median_of_windows(hi, "wait_p99_us")
    if "engine_single_us" in replay:
        single = percentile(replay["engine_single_us"], 0.5)
        layers["engine.single_us_p50"] = single
        layers["engine.single_us_p99"] = percentile(replay["engine_single_us"], 0.99)
        if replay.get("engine_batched_us"):
            layers["engine.batched_us"] = median(replay["engine_batched_us"])
    if "server_us" in hi[0]:
        sent = sum(w["sent"] for w in lo + hi)
        layers.update({
            "server.latency_us_p50_lo": window_median(lo, "server_us", 0.5),
            "server.latency_us_p99_lo": window_median(lo, "server_us", 0.99),
            "server.latency_us_p50_hi": window_median(hi, "server_us", 0.5),
            "server.latency_us_p99_hi": window_median(hi, "server_us", 0.99),
            "server.queue_us_p50_hi": window_median(hi, "server_us", 0.5)
                                      - layers["engine.single_us_p50"],
            "server.submit_us_p99": window_median(hi, "submit_us", 0.99),
            "server.rejected_frac": sum(w["rejected"] for w in lo + hi) / sent,
            "server.shed_frac": sum(w["shed"] for w in lo + hi) / sent,
        })
    if "store_faults" in lo[0]:
        hits = sum(w["store_hits"] for w in exact)
        faults = sum(w["store_faults"] for w in exact)
        layers.update({
            "artifact_store.hits": hits,
            "artifact_store.faults": faults,
            "artifact_store.evictions": sum(w["store_evictions"] for w in exact),
            "artifact_store.cold_fault_frac": faults / max(1, hits + faults),
            "artifact_store.load_us_p50": lo[-1]["store_load_us_p50"],
            "artifact_store.hit_get_us_p99": window_median(lo, "get_hit_us", 0.99),
            "artifact_store.fault_get_us_p50": window_median(lo, "get_fault_us", 0.5),
        })
    if "rtt_us" in lo[0]:
        overhead = [percentile([r - s for r, s in zip(w["rtt_us"], w["shard_us"])], 0.5)
                    for w in lo]
        primary = sum(w["router_p2c_primary"] for w in lo + hi)
        alternate = sum(w["router_p2c_alternate"] for w in lo + hi)
        layers.update({
            "wire.encode_us": median(replay["wire_encode_us"]),
            "wire.decode_us": median(replay["wire_decode_us"]),
            "wire.request_bytes": replay["wire_request_bytes"],
            "wire.response_bytes": replay["wire_response_bytes"],
            "wire.overhead_us_p50_lo": median(overhead),
            "router.rtt_us_p50_lo": window_median(lo, "rtt_us", 0.5),
            "router.rtt_us_p99_lo": window_median(lo, "rtt_us", 0.99),
            "router.rtt_us_p50_hi": window_median(hi, "rtt_us", 0.5),
            "router.rtt_us_p99_hi": window_median(hi, "rtt_us", 0.99),
            "router.retried": sum(w["router_retried"] for w in lo + hi),
            "router.io_failures": sum(w["router_io_failures"] for w in lo + hi),
            "router.p2c_alternate_frac": alternate / max(1, primary + alternate),
            "shard.latency_us_p50_hi": window_median(hi, "shard_us", 0.5),
            "shard.latency_us_p99_hi": window_median(hi, "shard_us", 0.99),
        })
    return layers


# ---- one run -------------------------------------------------------------------------------


def host_key(simd):
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model, "simd": simd}


def steal_share(before, after):
    """Share of the VM's CPU time stolen between two steal_ticks()."""
    total = after[1] - before[1]
    return (after[0] - before[0]) / total if total > 0 else 0.0


def steal_ticks():
    """(steal, total) jiffies from the first line of /proc/stat."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
        return fields[7], sum(fields)
    except (OSError, ValueError, IndexError):
        return 0, 0


def measure(build_dir, workload, seed, seconds, traced):
    """One measurement of `workload` in its own harness process: set-up,
    timed operations, peak RSS. Returns the result dict."""
    config = WORKLOADS[workload]
    harness = Harness(build_dir, workload, seed)
    try:
        setup_s, simd = setup_seconds(harness, config["setups"], config["kind"] == "tune")
        if config["kind"] == "tune":
            result = run_tune(harness, seconds, traced)
        else:
            result = run_serving(harness, config, seed, seconds, traced)
        result["e2e"]["setup_s"] = setup_s
        result["e2e"]["peak_rss_mb"] = harness.ask("rss")["peak_rss_mb"]
        result["simd"] = simd
    finally:
        finish = harness.close()
    if traced and finish:
        result["trace"] = finish
    return result


def run_once(spec, workload, seed, seconds, trace):
    build_dir = build()
    e2e_names = [m["name"] for m in spec["end_to_end"]]
    steal0 = steal_ticks()
    started = time.monotonic()
    if not trace:
        result = measure(build_dir, workload, seed, seconds, False)
        probes = result["probes"]
        metrics = {name: result["e2e"][name] for name in e2e_names}
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    else:
        half = max(1.0, seconds / 2.0)
        plain = measure(build_dir, workload, seed, half, False)
        result = measure(build_dir, workload, seed, half, True)
        probes = plain["probes"] + result["probes"]
        # Correctness covers both halves.
        result["attempted"] += plain["attempted"]
        result["failed"] += plain["failed"]
        result["invalid"] = plain["invalid"] + result["invalid"]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = {name: 0 for name in units}
        metrics.update(result.get("layers", {}))
        for name in e2e_names:
            base = plain["e2e"][name]
            metrics["trace.overhead_frac." + name] = (
                (result["e2e"][name] - base) / base if base else 0.0)
        if "trace" in result:
            metrics["trace.spans"] = result["trace"]["spans"]
            if result["trace"]["spans_dropped"]:
                print("spans dropped (span buffer full): %d" %
                      result["trace"]["spans_dropped"])
            summarize_trace(result["trace"].get("trace", ""))
    key = host_key(result["simd"])
    key["steal_frac"] = steal_share(steal0, steal_ticks())
    key["probe_us_start"], key["probe_us_end"] = probes[0], probes[-1]
    key["probe_us_min"], key["probe_us_max"] = min(probes), max(probes)
    key["DFR_SIMD"] = os.environ.get("DFR_SIMD", "")
    print("host " + json.dumps(key))
    print("detail " + json.dumps(result["detail"]))
    print("elapsed_s %.1f" % (time.monotonic() - started))
    # Validity is about the measurement, correctness about the program's
    # outputs: an invalid run is flagged here and leaves `correct` alone.
    for reason in result["invalid"]:
        print("invalid: " + reason)
    print("valid %s" % json.dumps(not result["invalid"]))
    missing = [n for n in units if n not in metrics]
    if missing:
        raise BenchError("metrics not produced: %s" % missing)
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }


def summarize_trace(path):
    """Print each span name's count, total and self time from a trace file.
    Self time is a span's duration minus the part its children cover."""
    if not path or not os.path.isfile(path):
        return
    spans = {}
    with open(path) as f:
        next(f)
        for line in f:
            sid, name, parent, _seq, start, end, _attr = line.rstrip("\n").split("\t")
            spans[int(sid)] = (name, int(parent), float(start), float(end))
    children = {}
    for sid, (_n, parent, start, end) in spans.items():
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    totals = {}
    for sid, (name, _p, start, end) in spans.items():
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(sid, [])):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        count, total, self_time = totals.get(name, (0, 0.0, 0.0))
        totals[name] = (count + 1, total + end - start, self_time + end - start - covered)
    for name, (count, total, self_time) in sorted(totals.items()):
        print("span %-34s n=%-7d total_us=%-12.1f self_us=%.1f" %
              (name, count, total, self_time))


def smoke(spec):
    """Every workload briefly in both modes; every named metric printed.
    Returns whether every run passed."""
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            out = run_once(spec, workload, 1, 2, trace)
            print(json.dumps(out))
            names = spec["per_layer"] if trace else spec["end_to_end"]
            missing = [m["name"] for m in names if m["name"] not in out["metrics"]]
            zero_e2e = [n for n, v in out["metrics"].items()
                        if not trace and not v["value"]]
            status = "ok" if not missing and not zero_e2e and out["correct"] else "FAIL"
            ok = ok and status == "ok"
            print("smoke %s trace=%d: %s missing=%s zero=%s" %
                  (workload, trace, status, missing, zero_e2e))
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        spec = load_spec()
        result = run_once(spec, args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, OSError, subprocess.CalledProcessError, KeyError,
            ValueError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
