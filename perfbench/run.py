#!/usr/bin/env python3
"""The repository benchmark: open-loop ingest, streaming detect and why-not
explain, measured end to end and per layer.

    python3 perfbench/run.py --seed 1                # all four workloads
    python3 perfbench/run.py --workload detect --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload ingest_seq --seed 1 --trace 1
    python3 perfbench/run.py --self-test

Run it from the repository root. It builds `perfbench/wb.exe` and the
`whynot` CLI with dune, then runs each workload in a fresh process (and,
for the ingest workloads, a fresh `whynot serve` process). The last line
of standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`: the end-to-end metrics, or with `--trace 1` the per-layer
metrics. The exit code is 1 when an output check fails and 2 when the
benchmark cannot build or run. See perfbench/NOTES.md.
"""

import argparse
import http.client
import json
import os
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, "_build", "default")
WB = os.path.join(BUILD, "perfbench", "wb.exe")
CLI = os.path.join(BUILD, "bin", "whynot_cli.exe")
RUNS = os.path.join(ROOT, "_perfbench")

WORKLOADS = ["ingest_seq", "ingest_pool", "detect", "explain"]
SERVE_QUERY = "SEQ(E1, E2) WITHIN 20"
SERVE_FLAGS = {"ingest_seq": [], "ingest_pool": ["--workers", "2", "--shards", "2"]}

# Process start-up varies widely from spawn to spawn, so set-up is the
# median of many spawns, half before the traffic and half after it. The
# traffic itself (rates, scrape interval, latency limit) is fixed in
# w_ingest.ml, and the generator reports it with its results.
SETUP_SPAWNS = 60

# The end-to-end metrics of the result line: every workload reports each
# of them, and they repeat from run to run within their bounds.
END_TO_END = [
    ("cpu_us_per_op", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
]
# End-to-end metrics printed beside them where they apply. Wall-clock
# figures swing with CPU steal on a shared 2-vCPU machine (see
# perfbench/NOTES.md for their spreads), and the ingest-only ones do not
# apply to every workload, so they stay out of the result line.
PRINTED = [
    ("throughput_per_s", "1/s"),
    ("p50_us", "us"),
    ("p99_us", "us"),
    ("scrape_p50_us", "us"),
    ("error_ratio", "share"),
    ("idle_conn_block_s", "s"),
]
# Per-layer metrics of the traced run, 0 where the layer does not run.
# Times are per operation: per request (ingest, explain) or per event
# (detect).
PER_LAYER = [
    ("http.client_late_us", "us"), ("http.queue_wait_us", "us"), ("http.read_us", "us"),
    ("http.write_us", "us"), ("http.outside_us", "us"), ("http.conns_opened", "count"),
    ("http.keepalive_reuses", "count"),
    ("service.ingest_us", "us"), ("service.bytes_out_per_line", "B"),
    ("service.scrape_us", "us"), ("scrape.bytes", "B"),
    ("shard.service_us", "us"), ("shard.handoff_us", "us"), ("shard.skew", "ratio"),
    ("shard.shed", "count"),
    ("compile.us", "us"), ("plan.matrices", "count"),
    ("plan.step_us", "us"), ("plan.live_mean", "count"), ("plan.live_peak", "count"),
    ("plan.horizon_evicted", "count"), ("plan.capacity_evicted", "count"),
    ("plan.candidates_per_event", "count"),
    ("matcher.confirm_us", "us"), ("matcher.confirm_ratio", "ratio"), ("matcher.check_us", "us"),
    ("detector.overhead_us", "us"), ("detector.matches_per_line", "ratio"),
    ("detector.partials_peak", "count"),
    ("consistency.us", "us"), ("consistency.bindings_checked", "count"), ("encode.us", "us"),
    ("bnb.self_us", "us"), ("bnb.nodes_expanded", "count"), ("bnb.leaves_solved", "count"),
    ("bnb.pruned_bound", "count"), ("bnb.pruned_inconsistent", "count"), ("bnb.leaf_ratio", "ratio"),
    ("stn_inc.pushes", "count"),
    ("repair.us", "us"), ("repair.calls", "count"), ("simplex.pivots", "count"),
    ("pipeline.other_us", "us"),
    ("gc.overlap_us", "us"), ("gc.pause_us", "us"), ("gc.minor_words_per_op", "words"),
    ("gc.major_collections", "count"),
] + [(f"{fam}.{part}", "us") for fam in ("rtfm", "flight4", "flight6")
     for part in ("total_us", "check_us", "consistency_us", "encode_us", "bnb_self_us", "repair_us")] + [
    ("trace.e2e_us", "us"), ("trace.residual_abs_pct", "%"), ("trace.overhead_abs_pct", "%"),
    ("trace.noise_pct", "%"),
]
# Facts of the ingest traffic, as the generator reports them.
TRAFFIC_FACTS = ["ref_rate_per_s", "offered_rates_per_s", "step_s", "scrape_interval_s", "latency_limit_ms"]


class BenchError(Exception):
    """The benchmark could not run (as opposed to a wrong output)."""


def log(msg):
    print(msg, flush=True)


def build():
    cmd = ["dune", "build", "--root", ".", "./perfbench/wb.exe", "./perfbench/selftest.exe",
           "./bin/whynot_cli.exe"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise BenchError(f"build failed to run: {e}")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise BenchError("build failed")


# --- run facts ---------------------------------------------------------------

def cpu_times():
    with open("/proc/stat") as f:
        return [int(x) for x in f.readline().split()[1:]]


def steal_share(before, after):
    d = [b - a for a, b in zip(before, after)]
    total = sum(d[:8])
    return d[7] / total if total > 0 and len(d) > 7 else 0.0


def command_output(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def run_facts(workload, seed, seconds):
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "nproc": os.cpu_count(),
        "ocaml": command_output(["ocamlopt", "-version"]),
        # a checkout outside git (or inside another repository) has no
        # commit of its own to report
        "commit": (command_output(["git", "rev-parse", "HEAD"])
                   if command_output(["git", "rev-parse", "--show-toplevel"]) == ROOT else "unknown"),
    }


# --- the server under test ---------------------------------------------------

def free_port():
    s = socket.socket()
    s.bind(("127.0.0.1", 0))
    port = s.getsockname()[1]
    s.close()
    return port


def http_get(port, path, timeout=30):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


class Server:
    """One `whynot serve` process. setup_s runs from spawn to the first 200
    from /health; the server prints its listening line on stderr once its
    socket listens, so the benchmark waits on that line instead of polling
    (a polling client would compete with the starting server for the
    CPU). Its stderr goes on to [log_path]."""

    def __init__(self, workload, extra=(), log_path=os.devnull):
        self.port = free_port()
        args = [CLI, "serve", SERVE_QUERY, "-p", str(self.port)] + SERVE_FLAGS[workload] + list(extra)
        self.log = open(log_path, "wb", buffering=0)
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(args, cwd=ROOT, stdin=subprocess.DEVNULL,
                                     stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        while True:
            line = self.proc.stderr.readline()
            if not line:
                self.proc.wait()
                raise BenchError(f"whynot serve exited with {self.proc.returncode}")
            self.log.write(line)
            if b"listening on" in line:
                break
        # line by line and unbuffered, so the generator can read the
        # access log while the server runs
        self.copier = threading.Thread(target=self.copy_log)
        self.copier.start()
        if http_get(self.port, "/health")[0] != 200:
            self.stop()
            raise BenchError("whynot serve did not answer /health")
        self.setup_s = time.perf_counter() - t0

    def copy_log(self):
        for line in self.proc.stderr:
            self.log.write(line)

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.copier.join()
        self.log.close()


def idle_conn_block(port, out):
    """How long a POST on a fresh connection waits while another client
    holds an idle keep-alive connection."""
    try:
        held = socket.create_connection(("127.0.0.1", port), timeout=60)
        held.sendall(b"GET /health HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: keep-alive\r\n\r\n")
        buf = b""
        while b"\r\n\r\n" not in buf:
            chunk = held.recv(4096)
            if not chunk:
                raise OSError("held connection closed")
            buf += chunk
        body = b"E1,1,idle,idle\n"
        t0 = time.perf_counter()
        post = socket.create_connection(("127.0.0.1", port), timeout=60)
        post.sendall(b"POST /ingest HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n"
                     + b"Content-Length: %d\r\n\r\n" % len(body) + body)
        reply = b""
        while True:
            chunk = post.recv(65536)
            if not chunk:
                break
            reply += chunk
        out["idle_conn_block_s"] = time.perf_counter() - t0
        out["idle_status"] = int(reply.split(b" ", 2)[1]) if reply else 0
        post.close()
        held.close()
    except OSError as e:
        out["error"] = str(e)


def ingest_pass(workload, seed, seconds, tag, ladder=True, trace=False):
    """One server process driven by the generator, which reads the
    server's counters before and after its run; returns the generator's
    result. Traced, the server writes its access log and the generator
    joins it into the per-layer table."""
    os.makedirs(RUNS, exist_ok=True)
    log_path = os.path.join(RUNS, f"{workload}-seed{seed}-{tag}.log")
    extra = ["--access-log", "warn", "--rt-events"] if trace else []
    server = Server(workload, extra, log_path)
    try:
        cmd = [WB, "load", "--port", str(server.port), "--server-pid", str(server.proc.pid),
               "--seed", str(seed), "--seconds", str(seconds), "--ladder", "1" if ladder else "0",
               "--records", os.path.join(RUNS, f"{workload}-seed{seed}-{tag}.tsv")]
        if trace:
            cmd += ["--access-log", log_path]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    except subprocess.TimeoutExpired:
        raise BenchError("load generator timed out")
    finally:
        server.stop()
    if not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise BenchError("load generator failed")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spawn_times(workload, count):
    times = []
    for _ in range(count):
        server = Server(workload)
        times.append(server.setup_s)
        server.stop()
    return times


def run_ingest(workload, seed, seconds):
    setups = spawn_times(workload, SETUP_SPAWNS // 2)
    # the idle-connection probe runs on a server of its own, which sits
    # blocked and idle while the probe waits, so it costs the measured
    # server nothing
    idle_server = Server(workload)
    idle = {}
    probe = threading.Thread(target=idle_conn_block, args=(idle_server.port, idle))
    probe.start()
    try:
        gen = ingest_pass(workload, seed, seconds, "run")
    finally:
        probe.join(timeout=60)
        idle_server.stop()
    setups += spawn_times(workload, SETUP_SPAWNS - SETUP_SPAWNS // 2)
    checks = gen["checks"]
    checks["idle_probe_answered"] = idle.get("idle_status") == 200
    metrics = {
        "cpu_us_per_op": gen["cpu_us_per_op"],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": gen["peak_rss_mb"],
        "throughput_per_s": gen["throughput_per_s"],
        "p50_us": gen["p50_us"],
        "p99_us": gen["p99_us"],
        "scrape_p50_us": gen["scrape_p50_us"],
        "error_ratio": gen["error_ratio"],
        "idle_conn_block_s": idle.get("idle_conn_block_s", -1.0),
    }
    detail = {k: gen[k] for k in ("ref_samples", "cpu_windows", "scrape_samples", "lines_sent",
                                  "matches_seen", "matches_expected", "conns_opened", "late_p99_us",
                                  "late_max_us", "steps")}
    detail["setup_runs_s"] = setups
    return checks, gen["attempted"], gen["failed"], metrics, detail, {k: gen[k] for k in TRAFFIC_FACTS}


def run_ingest_trace(workload, seed, seconds):
    """The reference window twice with the same seed: untraced, then with
    the access log and GC profiling on. The traced generator joins the
    access lines with its requests into the layer table; the difference
    between the two runs' mean latency is the tracing overhead, and the
    spread of the untraced run's quarters is the noise it is judged
    against."""
    plain = ingest_pass(workload, seed, seconds, "untraced", ladder=False)
    gen = ingest_pass(workload, seed, seconds, "traced", ladder=False, trace=True)
    untraced = max(plain["ref_mean_us"], 1e-9)
    quarters = plain["ref_quarter_means_us"]
    layers = dict(gen.get("layers", {}))
    layers.update({
        "trace.e2e_us": untraced,
        "trace.overhead_pct": 100 * (gen["ref_mean_us"] - untraced) / untraced,
        "trace.noise_pct": 100 * (max(quarters) - min(quarters)) / 2 / untraced,
    })
    detail = {"traced_e2e_us": gen["ref_mean_us"], "untraced_quarters_us": quarters,
              "cpu_us_per_event_by_thread": gen["cpu_us_per_event_by_thread"]}
    return gen["checks"], gen["attempted"], gen["failed"], layers, detail, {k: gen[k] for k in TRAFFIC_FACTS}


def run_inproc(workload, seed, seconds, trace):
    os.makedirs(RUNS, exist_ok=True)
    cmd = [WB, workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--spans", os.path.join(RUNS, f"{workload}-seed{seed}-spans.tsv")]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=175)
    if not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise BenchError(f"wb.exe {workload} failed")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    checks = {"outputs_match_oracles": out["correct"]}
    if trace:
        return checks, out["attempted"], out["failed"], out["layers"], {}, {}
    metrics = {k: out[k] for k, _ in END_TO_END + PRINTED if k in out}
    detail = {k: v for k, v in out.items()
              if k not in metrics and k not in ("correct", "attempted", "failed")}
    return checks, out["attempted"], out["failed"], metrics, detail, {}


def run_workload(workload, seed, seconds, trace):
    stat0 = cpu_times()
    if workload.startswith("ingest"):
        checks, attempted, failed, metrics, detail, traffic = (
            run_ingest_trace(workload, seed, seconds) if trace else run_ingest(workload, seed, seconds))
    else:
        checks, attempted, failed, metrics, detail, traffic = run_inproc(workload, seed, seconds, trace)
    facts = run_facts(workload, seed, seconds)
    facts.update(traffic)
    facts["steal_share"] = steal_share(stat0, cpu_times())
    if trace:
        # residual and overhead are signed; the result line carries their
        # size, which a better tracer or a closer rebuild makes smaller
        metrics["trace.residual_abs_pct"] = abs(metrics.get("trace.residual_pct", 0.0))
        metrics["trace.overhead_abs_pct"] = abs(metrics.get("trace.overhead_pct", 0.0))
    return checks, attempted, failed, metrics, detail, facts


def traced_table(workload, metrics, detail):
    """The per-layer table: each layer's self time and counts, then the
    residual against the end-to-end time and the tracing overhead."""
    for name, unit in PER_LAYER:
        value = metrics.get(name, 0.0)
        if value and not name.startswith("trace."):
            log(f"  {name:34s} {value:14.4f} {unit}")
    e2e = metrics.get("trace.e2e_us", 0.0)
    residual = metrics.get("trace.residual_pct", 0.0)
    overhead = metrics.get("trace.overhead_pct", 0.0)
    noise = metrics.get("trace.noise_pct", 0.0)
    target = "within" if abs(residual) <= 10 else "NOT within"
    if workload.startswith("ingest"):
        # the server's stages and the client's measure add up to the
        # traced latency, so the residual is the share no server stage
        # accounts for
        log(f"  untraced end to end {e2e:.4f} us/op; unattributed (http.outside_us) "
            f"{residual:.1f}% of the traced latency ({target} the 10% target)")
    else:
        log(f"  untraced end to end {e2e:.4f} us/op; residual {residual:+.1f}% ({target} the 10% target)")
    if abs(overhead) <= noise:
        log(f"  tracing overhead: within noise (\u00b1{noise:.1f}%)")
    else:
        log(f"  tracing overhead: {overhead:+.1f}% (run-to-run noise \u00b1{noise:.1f}%)")
    if "cpu_us_per_event_by_thread" in detail:
        log(f"  server CPU per event by thread (us): {detail['cpu_us_per_event_by_thread']}")


def report(workload, trace, checks, metrics, detail, facts):
    log(f"== {workload}" + (" (traced)" if trace else ""))
    log("facts " + json.dumps(facts))
    if trace:
        traced_table(workload, metrics, detail)
    else:
        for name, unit in END_TO_END + PRINTED:
            if name in metrics:
                log(f"{name} {metrics[name]:.6g} {unit}")
    for name, ok in checks.items():
        log(f"check {name} {'ok' if ok else 'FAILED'}")
    os.makedirs(RUNS, exist_ok=True)
    path = os.path.join(RUNS, f"{workload}-seed{facts['seed']}{'-traced' if trace else ''}.json")
    with open(path, "w") as f:
        json.dump({"facts": facts, "checks": checks, "metrics": metrics, "detail": detail}, f, indent=1)


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    try:
        build()
        if args.self_test:
            return subprocess.run([os.path.join(BUILD, "perfbench", "selftest.exe")], cwd=ROOT).returncode
        all_ok = True
        for w in [args.workload] if args.workload else WORKLOADS:
            checks, attempted, failed, metrics, detail, facts = run_workload(w, args.seed, args.seconds, args.trace)
            report(w, args.trace, checks, metrics, detail, facts)
            all_ok = all_ok and all(checks.values())
        if args.workload:
            names = PER_LAYER if args.trace else END_TO_END
            result = {"correct": all_ok, "attempted": attempted, "failed": failed,
                      "metrics": {n: {"value": float(metrics.get(n, 0.0)), "unit": u} for n, u in names}}
            print(json.dumps(result), flush=True)
        return 0 if all_ok else 1
    except BenchError as e:
        sys.stderr.write(f"perfbench: {e}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
