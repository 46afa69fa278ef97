"""The three workloads. Each drives the real program from outside, checks
every answer, and returns end-to-end metrics (trace off) or per-layer
metrics (trace on) plus a detail record of bases and sample counts."""

import json
import os
import shutil
import socket
import subprocess
import threading
import time

from . import gen
from .build import nproc
from .measure import (Record, RefStore, median, normalize_request, normalize_response,
                      percentile, ratio, read_records, read_spans, ref_store_path,
                      span_summary, tail)

# resident-hot: the fixed rate its latency is measured at, the latency limit
# of the rate ladder, and the ladder itself. Constants, never calibrated.
HOT_RATE = 2000.0
P99_LIMIT_MS = 100.0
LADDER = [1250.0 * 2 ** k for k in range(6)]   # 1250 ... 40000 req/s
LADDER_CLIMBS = 3        # max_rate_rps is the median climb
WINDOWS = 5              # latencies: median over this many windows of a run
DRAIN_GRACE_MS = 1000.0
# Admission queue deep enough to ride out a host hiccup at the ladder's top
# rates (the default 256 sheds after ~25 ms at 10k req/s), so the ladder
# finds where the backlog grows, not where a stall overflows a short queue.
SERVE_QUEUE = 4096
HOT_SHARE = 0.5          # of --seconds at HOT_RATE; the ladder gets the rest

COLD_BLOCKS = 1000       # ~1.9x what a 30 s run gets through on 4 vCPUs
QOR_PREFIX = 720         # compile-cold: qor/core counts over the first 80 blocks
TRACE_MIN = 48           # inputs every traced replay covers, whatever the time
# Idle time before each timed set-up. Back to back, a spawn rides the warm
# caches and clock of the one before it, and how much it gains drifts from
# run to run (compile-cold medians 1.6-3.5 ms); after a short idle every
# spawn starts the way a user's launch does. The set-ups are also taken in
# three groups - before, between and after the measured work - so that
# their median spans more than one state of a shared host.
SETUP_GAP_S = 0.1


def add_setup_times(times, count, setup):
    """Appends `count` timings of `setup(k)` (s) to `times`, each after
    SETUP_GAP_S of idling; k numbers the set-ups of the run."""
    for _ in range(count):
        time.sleep(SETUP_GAP_S)
        times.append(setup(len(times)))


class Failure(Exception):
    """The benchmark could not measure (as opposed to the program being wrong)."""


class Bench:
    """Paths, processes and checks of one benchmark invocation."""

    def __init__(self, workload, seed, seconds, trace, record):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.cli, self.tool = record["cli"], record["tool"]
        self.jobs = nproc()
        self.dir = os.path.join(".bench_build", "runs", f"{workload}-{seed}-{os.getpid()}")
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.procs = []
        self.rss_files = {}      # pid -> where peak-rss writes that program's peak
        self.refs = RefStore(ref_store_path(".bench_build", workload, self.cli))
        self.wrong = []          # answers that are false, not merely missing

    def path(self, name):
        return os.path.join(self.dir, name)

    # -- processes -----------------------------------------------------------
    def spawn(self, cmd, peak_rss=False, **kw):
        """Starts `cmd`; with peak_rss, under `perfbench_tool peak-rss`, so
        that reap() can return the program's own peak resident set."""
        if peak_rss:
            rss_path = self.path(f"rss{len(self.procs)}")
            cmd = [self.tool, "peak-rss", rss_path, *cmd]
        p = subprocess.Popen(cmd, **kw)
        self.procs.append(p)
        if peak_rss:
            self.rss_files[p.pid] = rss_path
        return p

    def reap(self, p, timeout=60):
        """Waits for `p`, killing it after `timeout` s. The wait blocks (no
        polling), so a caller timing the process reads its exit precisely.
        Returns its peak RSS in MiB when it was spawned with peak_rss, else
        None."""
        watchdog = threading.Timer(timeout, p.kill)
        watchdog.start()
        try:
            p.wait()
        finally:
            watchdog.cancel()
        rss_path = self.rss_files.pop(p.pid, None)
        if rss_path is None:
            return None
        with open(rss_path) as f:
            return int(f.read()) / 1024.0

    def cleanup(self):
        for p in self.procs:
            if p.returncode is None and p.poll() is None:
                p.kill()
                p.wait()
        shutil.rmtree(self.dir, ignore_errors=True)

    def tool_run(self, *argv, pass_fds=(), ok_codes=(0,)):
        done = subprocess.run([self.tool, *map(str, argv)], pass_fds=pass_fds,
                              stderr=subprocess.PIPE, check=False)
        if done.returncode not in ok_codes:
            raise Failure(f"perfbench_tool {argv[0]} exited {done.returncode}: "
                          + done.stderr.decode(errors="replace")[-2000:])
        return done.returncode

    # -- inputs --------------------------------------------------------------
    def write_requests(self, name, requests, prefix):
        path = self.path(name)
        with open(path, "w") as f:
            for i, req in enumerate(requests):
                f.write(json.dumps(dict(id=f"{prefix}{i}", **req), separators=(",", ":")) + "\n")
        return path

    def fill_uploads(self, requests, uploads):
        """Replaces each upload's design with renumbered .dfg text."""
        if not uploads:
            return
        src = self.path("renumber.in")
        with open(src, "w") as f:
            for rseed, entry, _ in uploads:
                f.write(f"{rseed}\t{json.dumps(entry, separators=(',', ':'))}\n")
        self.tool_run("renumber", "--input", src, "--out", self.path("renumber.out"))
        with open(self.path("renumber.out")) as f:
            for (_, _, at), line in zip(uploads, f):
                requests[at]["dfg"] = json.loads(line)

    # -- the output check ----------------------------------------------------
    def check(self, records, request_lines):
        """Judges every record. Returns {index: (verdict, reason, serial
        length of the design)}; records the false answers in self.wrong.
        Identical requests must get identical payloads (here and across runs
        of the same program), and one cache key one outcome."""
        verdicts, pending, by_pair = {}, [], {}
        by_request, by_key = {}, {}
        for r in records:
            req = request_lines[r.index]
            if r.payload and '"error":' not in r.payload:
                norm_req, norm_resp = normalize_request(req), normalize_response(r.payload)
                if by_request.setdefault(norm_req, norm_resp) != norm_resp:
                    self.wrong.append(f"request {r.index}: payload differs from its repeat")
                if not self.refs.check(req, r.payload):
                    self.wrong.append(f"request {r.index}: payload differs from an earlier run")
                self._key_outcome(by_key, r)
            pair = (normalize_request(req), normalize_response(r.payload))
            if pair not in by_pair:
                by_pair[pair] = len(pending)
                pending.append((req, r.payload))
            verdicts[r.index] = by_pair[pair]
        src, out = self.path("check.in"), self.path("check.out")
        with open(src, "w") as f:
            for tag, (req, payload) in enumerate(pending):
                f.write(f"{tag}\t{req}\t{payload}\n")
        self.tool_run("check", "--input", src, "--out", out, "--jobs", self.jobs)
        judged = {}
        with open(out) as f:
            for line in f:
                tag, kind, serial, reason = line.rstrip("\n").split("\t", 3)
                judged[int(tag)] = (kind, reason, int(serial))
        for index, v in verdicts.items():
            verdicts[index] = judged[v]
            if verdicts[index][0] == "wrong":
                self.wrong.append(f"request {index}: {verdicts[index][1]}")
        return verdicts

    def _key_outcome(self, by_key, r):
        resp = json.loads(r.payload)
        outcome = (resp.get("feasible"), resp.get("latency"),
                   json.dumps(resp.get("stats"), sort_keys=True))
        if by_key.setdefault(resp.get("key"), outcome) != outcome:
            self.wrong.append(f"request {r.index}: same cache key, different outcome")


# -- shared daemon plumbing ------------------------------------------------------

def frame(payload):
    data = payload.encode()
    return str(len(data)).encode() + b"\n" + data + b"\n"


def read_frame(stream):
    length = stream.readline()
    if not length:
        raise Failure("daemon closed the stream")
    data = stream.read(int(length))
    stream.read(1)
    return data.decode()


def connect(sock_path, timeout=20.0):
    deadline = time.monotonic() + timeout
    while True:
        s = socket.socket(socket.AF_UNIX)
        try:
            s.connect(sock_path)
            return s
        except OSError:
            s.close()
            if time.monotonic() > deadline:
                raise Failure(f"daemon never listened on {sock_path}")
            time.sleep(0.001)


def control(sock_path, op):
    with connect(sock_path) as s:
        s.sendall(frame(json.dumps({"op": op})))
        return json.loads(read_frame(s.makefile("rb")))


def latency_metrics(samples):
    p99, q = tail(samples)
    return {"latency_p50_ms": percentile(samples, 50), "latency_p99_ms": p99}, {
        "latency_samples": len(samples), "latency_tail_percentile": q}


def windowed_latency(records, from_due, windows=WINDOWS):
    """p50 and tail latency per equal time window of the run (by send or due
    time), each reported as the median over the windows: one stalled window
    of a shared host moves neither."""
    answered = sorted((r for r in records if r.received >= 0),
                      key=lambda r: r.due if from_due else r.sent)
    t0 = answered[0].due if from_due else answered[0].sent
    t1 = answered[-1].due if from_due else answered[-1].sent
    width = max(1, (t1 - t0) / windows)
    slices = [[] for _ in range(windows)]
    for r in answered:
        start = r.due if from_due else r.sent
        slices[min(windows - 1, int((start - t0) / width))].append(
            (r.received - start) / 1e6)
    per = [latency_metrics(w)[0] for w in slices if len(w) > 10]
    p50s = [m["latency_p50_ms"] for m in per]
    p99s = [m["latency_p99_ms"] for m in per]
    _, q = tail(max(slices, key=len))
    return {"latency_p50_ms": median(p50s), "latency_p99_ms": median(p99s)}, {
        "latency_samples": len(answered), "latency_windows": len(per),
        "latency_tail_percentile": q, "window_p50_ms": p50s, "window_p99_ms": p99s}


SOFT_COUNTERS = ("select_calls", "positions_scanned", "commits", "nodes_relabeled",
                 "closure_rows_touched")


def qor_stats(answers):
    """QoR over a fixed set of requests, given as (verdict, answer) pairs
    (the answer is a dict, None unless the verdict is ok). A checked feasible
    answer adds its `latency`; every other one - infeasible, failed or
    unanswered - adds its design's serial length as a fixed penalty, so
    losing answers never reads as a better schedule. Returns (qor, feasible
    count, soft kernel counters summed over the feasible soft answers)."""
    qor, feasible = 0, 0
    soft = dict.fromkeys(SOFT_COUNTERS, 0)
    for (kind, _, serial), resp in answers:
        if kind != "ok" or not resp.get("feasible"):
            qor += serial
            continue
        qor += resp["latency"]
        feasible += 1
        if resp["backend"] == "soft":
            for k in SOFT_COUNTERS:
                soft[k] += resp["stats"][k]
    return qor, feasible, soft


def record_answers(records, verdicts):
    """(verdict, answer) pairs of `records` for qor_stats."""
    return [(verdicts[r.index], json.loads(r.payload) if verdicts[r.index][0] == "ok" else None)
            for r in records]


def core_counts(soft):
    return {
        "core.positions_per_select": ratio(soft["positions_scanned"], soft["select_calls"]),
        "core.relabels_per_commit": ratio(soft["nodes_relabeled"], soft["commits"]),
        "core.closure_rows_touched": soft["closure_rows_touched"],
    }


def serve_stats_metrics(stats, client_p50_ms):
    conns = stats.get("conns", {})
    disk = stats.get("disk", {})
    completed = stats.get("completed", 0)
    return {
        "serve.service_p50_ms": stats.get("p50_ms", 0.0),
        "serve.service_p99_ms": stats.get("p99_ms", 0.0),
        "serve.transport_ms": client_p50_ms - stats.get("p50_ms", 0.0),
        "serve.peak_queue_depth": stats.get("peak_queue_depth", 0),
        "serve.overloaded": stats.get("overloaded", 0),
        "serve.bytes_per_req": ratio(conns.get("bytes_in", 0) + conns.get("bytes_out", 0),
                                     stats.get("submitted", 0)),
        "serve.hit_share": ratio(stats.get("cache_hits", 0) + stats.get("deduped", 0),
                                 completed),
        "serve.disk_writes": disk.get("writes", 0),
        "serve.disk_queue_dropped": disk.get("queue_dropped", 0),
        "serve.disk_hits": disk.get("hits", 0),
    }


def trace_metrics(bench, summary_path, spans_path):
    """Per-layer metrics of a traced replay: per-call p50 durations, the
    backend run distributions, and the span accounting."""
    with open(summary_path) as f:
        summary = json.load(f)
    spans = read_spans(spans_path)
    durations, self_total, root_total, root_self = span_summary(spans)

    def p50_us(name):
        d = durations.get(name)
        return percentile(d, 50) / 1e3 if d else 0.0

    out = {name: p50_us(span) for name, span in (
        ("serve.parse_us", "serve.parse"), ("serve.key_us", "serve.key"),
        ("serve.serialize_us", "serve.serialize"), ("serve.remap_us", "serve.remap"),
        ("serve.cache_lookup_us", "serve.cache_lookup"),
        ("serve.cache_insert_us", "serve.cache_insert"),
        ("serve.disk_lookup_us", "serve.disk_lookup"),
        ("serve.disk_store_us", "serve.disk_store"), ("ir.hash_us", "ir.hash"),
        ("meta.order_us", "meta.order"), ("core.state_build_us", "core.state_build"),
        ("core.extract_us", "core.extract"))}
    out["core.kernel_ms"] = p50_us("core.kernel") / 1e3
    hash_ops = sum(s.arg for s in spans if s.name == "ir.hash" and s.arg > 0)
    out["ir.hash_us_per_op"] = ratio(sum(durations.get("ir.hash", [])) / 1e3, hash_ops)
    for family, prefix in (("sched.run_ms", "sched.run."), ("explore.point_ms",
                                                              "explore.run_point.")):
        backends = ("soft", "list", "fds", "sdc-iter") if family == "sched.run_ms" else (
            "soft", "list", "sdc-iter")
        for b in backends:
            d = [x / 1e6 for x in durations.get(prefix + b, [])]
            out[f"{family}.{b}.p50"] = percentile(d, 50) if d else 0.0
            out[f"{family}.{b}.p99"] = tail(d)[0] if d else 0.0
    out["sched.iterations"] = ratio(summary["sdc_iterations"], summary["sdc_runs"])
    # positions_rejected and positions_scanned count disjoint slots (the guard
    # skips a slot before it is costed), so the wasted share is over their sum.
    rejected = summary["soft_positions_rejected"]
    out["core.rejected_share"] = ratio(rejected,
                                       rejected + summary["soft_stats"]["positions_scanned"])
    out["util.arena_peak_bytes"] = summary["arena_peak_bytes"]
    out["util.arena_blocks"] = summary["arena_blocks"]
    out["bench.tracing_overhead"] = ratio(summary["traced_wall_s"], summary["untraced_wall_s"])
    out["bench.unattributed_share"] = ratio(root_self / 1e9, root_total / 1e9)
    if summary["soft_mismatch"]:
        bench.wrong.append(f"soft-path split disagrees with the backend on "
                             f"{summary['soft_mismatch']} of {summary['soft_checked']} runs")
    detail = {"replayed": summary["replayed"], "soft_split_checked": summary["soft_checked"],
              "self_ms_by_span": {k: v / 1e6 for k, v in sorted(self_total.items())}}
    return out, detail


# -- compile-cold ----------------------------------------------------------------

def _stdio_daemon(bench, disk_dir):
    """A stdio daemon with the RAM cache and a disk tier in a fresh directory."""
    return [bench.cli, "--serve", "-", "--jobs", str(bench.jobs), "--cache-mb", "64",
            "--cache-dir", disk_dir, "--disk-cache-mb", "64"]


def _stdio_setup(bench, k):
    """Spawn -> hello ack of one stdio daemon, in seconds."""
    t0 = time.perf_counter()
    p = bench.spawn(_stdio_daemon(bench, bench.path(f"setup-disk{k}")), stdin=subprocess.PIPE,
                    stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    p.stdin.write(frame('{"op":"hello"}'))
    p.stdin.flush()
    ack = read_frame(p.stdout)
    elapsed = time.perf_counter() - t0
    if '"op":"hello"' not in ack:
        raise Failure(f"unexpected hello answer {ack!r}")
    p.stdin.write(frame('{"op":"shutdown"}'))
    p.stdin.close()
    p.stdout.read()
    bench.reap(p)
    return elapsed


def _fds_probe(bench):
    """Asks gen.fds_defect_probe() of a fresh batch process and checks every
    answer. The probe is not among the run's operations: a spurious
    infeasible there is the known defect, counted; any other rejected answer
    makes the run incorrect. Returns the defect count with its base."""
    path = bench.write_requests("probe.jsonl", gen.fds_defect_probe(), "p")
    out = bench.path("probe.out")
    with open(out, "w") as f:
        p = bench.spawn([bench.cli, "--serve-batch", path, "--jobs", str(bench.jobs)],
                        stdin=subprocess.DEVNULL, stdout=f, stderr=subprocess.DEVNULL)
        bench.reap(p, timeout=120)
    if p.returncode != 0:
        raise Failure(f"--serve-batch exited {p.returncode} on the fds probe")
    with open(path) as f:
        lines = f.read().splitlines()
    with open(out) as f:
        records = [Record(int(json.loads(line)["id"][1:]), 0, 0, 0, line.rstrip("\n"))
                   for line in f]
    if len(records) != len(lines):
        bench.wrong.append(f"fds probe: {len(records)} answers to {len(lines)} requests")
    spurious = 0
    for i, (kind, reason, _) in bench.check(records, lines).items():
        if reason == "spurious infeasible":
            spurious += 1
        elif kind != "ok":
            bench.wrong.append(f"fds probe {i}: {reason}")
    return ratio(spurious, len(lines))


def compile_cold(bench):
    setup = lambda k: _stdio_setup(bench, k)  # noqa: E731
    setups, group = [], 0 if bench.trace else 5
    add_setup_times(setups, group or 1, setup)
    requests = gen.compile_cold(bench.seed, COLD_BLOCKS)
    req_path = bench.write_requests("cold.jsonl", requests, "c")
    with open(req_path) as f:
        lines = f.read().splitlines()

    to_daemon_r, to_daemon_w = os.pipe()
    from_daemon_r, from_daemon_w = os.pipe()
    daemon = bench.spawn(_stdio_daemon(bench, bench.path("disk")), peak_rss=True,
                         stdin=to_daemon_r, stdout=from_daemon_w, stderr=subprocess.DEVNULL)
    os.close(to_daemon_r)
    os.close(from_daemon_w)
    try:
        bench.tool_run("closed", "--fd-in", from_daemon_r, "--fd-out", to_daemon_w,
                         "--requests", req_path, "--callers", bench.jobs,
                         "--seconds", bench.seconds, "--min-requests", QOR_PREFIX,
                         "--out", bench.path("cold.rec"), "--finish",
                         "--stats-out", bench.path("stats.json"),
                         pass_fds=(from_daemon_r, to_daemon_w))
    finally:
        os.close(from_daemon_r)
        os.close(to_daemon_w)
    rss = bench.reap(daemon)
    add_setup_times(setups, group, setup)
    records = read_records(bench.path("cold.rec"))
    if len(records) == len(lines):
        raise Failure("compile-cold ran out of unique inputs before the deadline")
    with open(bench.path("stats.json")) as f:
        stats = json.loads(f.read() or "{}")
    verdicts = bench.check(records, lines)
    probe = _fds_probe(bench)
    add_setup_times(setups, group, setup)

    ok_in_window = sum(1 for r in records if verdicts[r.index][0] == "ok"
                       and r.received <= bench.seconds * 1e9)
    throughput = ok_in_window / bench.seconds
    failed = sum(1 for v in verdicts.values() if v[0] != "ok")
    spurious = sum(1 for v in verdicts.values() if v[1] == "spurious infeasible")
    # Latency is declared over the random designs, where the kernels do the
    # work; the small named designs are mostly transport and parse, and are
    # reported beside it.
    by_population = {True: [], False: []}
    for r in records:
        if r.received >= 0:
            by_population["random" in requests[r.index]].append((r.received - r.sent) / 1e6)
    lat, lat_detail = latency_metrics(by_population[True])
    named_lat, named_detail = latency_metrics(by_population[False])
    prefix = [r for r in records if r.index < QOR_PREFIX]
    if len(prefix) != QOR_PREFIX:
        raise Failure(f"only {len(prefix)} of the first {QOR_PREFIX} requests were sent")
    qor, feasible, soft = qor_stats(record_answers(prefix, verdicts))
    detail = dict(lat_detail, latency_population="random designs",
                  named_designs={**named_lat, **named_detail}, setups_s=setups,
                  fail_share=ratio(failed, len(records)), spurious_infeasible=spurious,
                  fds_defect_probe=probe,
                  qor_requests=QOR_PREFIX, qor_feasible=feasible,
                  fail_reasons=_reasons(verdicts))
    e2e = dict(lat, setup_s=median(setups), throughput_per_s=throughput,
               ok_share=1 - failed / len(records),
               qor_states_total=qor, peak_rss_mb=rss)
    layer = {}
    if bench.trace:
        all_p50 = percentile(by_population[True] + by_population[False], 50)
        layer.update(serve_stats_metrics(stats, all_p50))
        layer.update(core_counts(soft))
        layer["sched.spurious_infeasible"] = spurious + probe["num"]
        bench.tool_run("trace-serve", "--requests", req_path, "--seconds", bench.seconds,
                         "--min-requests", TRACE_MIN, "--cache-mb", 64,
                         "--disk-dir", bench.path("replay-disk"),
                         "--spans", bench.path("spans.tsv"),
                         "--summary", bench.path("trace.json"), ok_codes=(0, 3))
        traced, trace_detail = trace_metrics(bench, bench.path("trace.json"),
                                             bench.path("spans.tsv"))
        layer.update(traced)
        detail["replay"] = trace_detail
        detail["serve_stats"] = stats
    return len(records), failed, e2e, layer, detail


def _reasons(verdicts):
    counts = {}
    for kind, reason, _ in verdicts.values():
        if kind != "ok":
            key = reason if len(reason) < 80 else reason[:80]
            counts[key] = counts.get(key, 0) + 1
    return counts


# -- resident-hot ----------------------------------------------------------------

def _socket_daemon(bench, k):
    """Spawns a socket daemon over a fresh disk tier; returns (proc, socket)."""
    home = bench.path(f"d{k}")
    os.makedirs(home)
    sock = os.path.join(home, "s")
    p = bench.spawn([bench.cli, "--serve", "--listen", f"unix:{sock}",
                       "--jobs", str(bench.jobs), "--cache-mb", "1",
                       "--serve-queue", str(SERVE_QUEUE),
                       "--cache-dir", os.path.join(home, "disk"), "--disk-cache-mb", "64"],
                      stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                      stderr=subprocess.DEVNULL)
    return p, sock


def _peak_rss_mb(pid):
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise Failure("no VmHWM for the daemon")


def _shutdown(bench, p, sock):
    ack = control(sock, "shutdown")
    if not ack.get("drained"):
        raise Failure(f"unexpected shutdown answer {ack}")
    return bench.reap(p)


def _open_loop(bench, sock, name, requests, rate):
    path = bench.write_requests(f"{name}.jsonl", requests, name)
    bench.tool_run("open", "--socket", sock, "--requests", path, "--rate", rate,
                     "--conns", bench.jobs, "--grace-ms", DRAIN_GRACE_MS,
                     "--out", bench.path(f"{name}.rec"))
    with open(path) as f:
        lines = f.read().splitlines()
    return read_records(bench.path(f"{name}.rec")), lines


def _rung_passes(records, verdicts, expected):
    """p99 under the limit, failures counted as over it, every request
    attempted, and no growing backlog: the median of the last tenth (by due
    time) is under the limit too."""
    if len(records) < expected:
        return False, {"attempted": len(records)}
    by_due = sorted(records, key=lambda r: r.due)
    over = [float("inf") if verdicts[r.index][0] != "ok" else (r.received - r.due) / 1e6
            for r in by_due]
    p99 = tail(over)[0]
    last_tenth = percentile(over[-max(1, len(over) // 10):], 50)
    ok = p99 <= P99_LIMIT_MS and last_tenth <= P99_LIMIT_MS
    finite = lambda x: x if x != float("inf") else None  # noqa: E731 - keep the detail JSON strict
    return ok, {"p99_ms": finite(p99), "last_tenth_p50_ms": finite(last_tenth),
                "failed": sum(1 for r in records if verdicts[r.index][0] != "ok")}


def resident_hot(bench):
    entries = gen.catalog(bench.seed)
    warm_path = bench.write_requests("warm.jsonl", entries, "w")
    with open(warm_path) as f:
        warm_lines = f.read().splitlines()
    hot_n = int(HOT_RATE * bench.seconds * HOT_SHARE)
    hot, hot_up = gen.hot_stream(bench.seed, 0, hot_n, entries)
    bench.fill_uploads(hot, hot_up)
    climbs = []
    if not bench.trace:
        rung_s = bench.seconds * (1 - HOT_SHARE) / (LADDER_CLIMBS * len(LADDER))
        for c in range(LADDER_CLIMBS):
            climbs.append([])
            for k, rate in enumerate(LADDER):
                phase = 1 + c * len(LADDER) + k
                reqs, ups = gen.hot_stream(bench.seed, phase, int(rate * rung_s), entries)
                bench.fill_uploads(reqs, ups)
                climbs[-1].append((rate, reqs))

    setups, daemon = [], None
    for k in range(1 if bench.trace else 3):
        t0 = time.perf_counter()
        p, sock = _socket_daemon(bench, k)
        if control(sock, "hello").get("op") != "hello":
            raise Failure("daemon did not answer hello")
        bench.tool_run("closed", "--socket", sock, "--requests", warm_path,
                         "--callers", bench.jobs, "--out", bench.path(f"warm{k}.rec"))
        setups.append(time.perf_counter() - t0)
        if daemon is not None:
            _shutdown(bench, *daemon)
        daemon = (p, sock)
    p, sock = daemon
    warm = read_records(bench.path(f"warm{len(setups) - 1}.rec"))

    hot_records, hot_lines = _open_loop(bench, sock, "hot", hot, HOT_RATE)
    rss = _peak_rss_mb(p.pid)   # before the ladder overloads it on purpose
    max_rates, ladder_detail = [], []
    for c, rungs in enumerate(climbs):
        max_rate = 0.0
        for k, (rate, reqs) in enumerate(rungs):
            recs, lines = _open_loop(bench, sock, f"rung{c}-{k}", reqs, rate)
            ok, info = _rung_passes(recs, bench.check(recs, lines), len(reqs))
            ladder_detail.append(dict(info, climb=c, rate=rate, passed=ok))
            if not ok:
                break
            max_rate = rate
        max_rates.append(max_rate)
    stats = control(sock, "stats")
    _shutdown(bench, p, sock)

    warm_verdicts = bench.check(warm, warm_lines)
    hot_verdicts = bench.check(hot_records, hot_lines)
    attempted = len(warm) + len(hot_records)
    failed = sum(1 for v in list(warm_verdicts.values()) + list(hot_verdicts.values())
                 if v[0] != "ok")
    lat, lat_detail = windowed_latency(hot_records, from_due=True)
    qor, feasible, soft = qor_stats(record_answers(warm, warm_verdicts))
    # Goodput over the span from the first due time to the last answer.
    hot_s = max(r.received for r in hot_records) / 1e9
    ok_hot = sum(1 for v in hot_verdicts.values() if v[0] == "ok")
    detail = dict(lat_detail, setups_s=setups, catalog=len(entries), hot_requests=hot_n,
                  qor_requests=len(warm), qor_feasible=feasible,
                  fail_share=ratio(failed, attempted), ladder=ladder_detail,
                  max_rate_rps=median(max_rates) if max_rates else 0.0, climbs=max_rates,
                  fail_reasons=_reasons({**{("w", i): v for i, v in warm_verdicts.items()},
                                         **{("h", i): v for i, v in hot_verdicts.items()}}))
    e2e = dict(lat, setup_s=median(setups), throughput_per_s=ok_hot / hot_s,
               ok_share=1 - failed / attempted,
               qor_states_total=qor, peak_rss_mb=rss)
    layer = {}
    if bench.trace:
        layer.update(serve_stats_metrics(stats, lat["latency_p50_ms"]))
        layer.update(core_counts(soft))
        layer["sched.spurious_infeasible"] = sum(
            1 for v in warm_verdicts.values() if v[1] == "spurious infeasible")
        lag = [(r.sent - r.due) / 1e6 for r in hot_records]
        layer["bench.generator_lag_ms"] = tail(lag)[0]
        replay = bench.path("replay.jsonl")
        with open(replay, "w") as f:
            f.write("\n".join(warm_lines + hot_lines) + "\n")
        bench.tool_run("trace-serve", "--requests", replay, "--seconds", bench.seconds,
                         "--min-requests", len(warm_lines), "--cache-mb", 1,
                         "--disk-dir", bench.path("replay-disk"),
                         "--spans", bench.path("spans.tsv"),
                         "--summary", bench.path("trace.json"), ok_codes=(0, 3))
        traced, trace_detail = trace_metrics(bench, bench.path("trace.json"),
                                             bench.path("spans.tsv"))
        layer.update(traced)
        detail["replay"] = trace_detail
        detail["serve_stats"] = stats
    return attempted, failed, e2e, layer, detail


# -- dse-sweep -------------------------------------------------------------------

def _explore(bench, grid, out):
    cmd = [bench.cli, "--explore", "--bench", f"random{gen.DSE_OPS}",
           "--seed", str(bench.seed), "--jobs", str(bench.jobs),
           "--alus-range", grid["alus"], "--muls-range", grid["muls"],
           "--mul-lat-range", grid["mul-lat"], "--backend", grid["backends"]]
    if out:
        cmd += ["--explore-out", out]
    t0 = time.perf_counter()
    p = bench.spawn(cmd, peak_rss=out is not None, stdin=subprocess.DEVNULL,
                    stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    rss = bench.reap(p, timeout=170)
    wall = time.perf_counter() - t0
    if p.returncode != 0:
        raise Failure(f"--explore exited {p.returncode}: {p.stderr.read().decode()[-2000:]}")
    p.stderr.close()
    return wall, rss


def _point_key(point):
    return json.dumps({k: v for k, v in point.items() if k != "wall_ms"}, sort_keys=True)


def dse_sweep(bench):
    one_point = {"alus": "1:1", "muls": "1:1", "mul-lat": "1:1", "backends": "soft"}
    setup = lambda _: _explore(bench, one_point, None)[0]  # noqa: E731
    setups, group = [], 0 if bench.trace else 3
    add_setup_times(setups, group or 1, setup)

    sweeps, rss, reports = [], 0.0, []
    start = time.perf_counter()
    while not sweeps or (time.perf_counter() - start + sweeps[-1] <= bench.seconds):
        out = bench.path(f"report{len(sweeps)}.json")
        wall, peak = _explore(bench, gen.DSE_GRID, out)
        sweeps.append(wall)
        rss = max(rss, peak)
        with open(out) as f:
            reports.append(json.load(f))
        if bench.trace:
            break
    add_setup_times(setups, group, setup)
    first = reports[0]
    bench.tool_run("check-dse", "--report", bench.path("report0.json"),
                     "--random", gen.DSE_OPS, "--seed", bench.seed, "--jobs", bench.jobs,
                     "--out", bench.path("check.out"))
    verdicts = []
    with open(bench.path("check.out")) as f:
        for line in f:
            _, _, kind, serial, reason = line.rstrip("\n").split("\t", 4)
            verdicts.append((kind, reason, int(serial)))
            if kind == "wrong":
                bench.wrong.append(f"dse point: {reason}")
    reference = [_point_key(p) for p in first["points"]]
    for report in reports[1:]:
        if [_point_key(p) for p in report["points"]] != reference:
            bench.wrong.append("a repeated sweep answered differently")
    for i, p in enumerate(first["points"]):
        if not bench.refs.check(json.dumps({"dse": gen.DSE_OPS, "seed": bench.seed,
                                              "i": i}), _point_key(p)):
            bench.wrong.append(f"dse point {i}: differs from an earlier run")
    add_setup_times(setups, group, setup)

    points = len(first["points"])
    attempted = points * len(reports)
    failed = sum(1 for v in verdicts if v[0] != "ok") * len(reports)
    # Each sweep is a window: the median sweep's p50 and tail.
    per_sweep = [latency_metrics([p["wall_ms"] for p in r["points"]])[0] for r in reports]
    lat = {k: median([m[k] for m in per_sweep]) for k in per_sweep[0]}
    lat_detail = {"latency_samples": points * len(reports), "latency_windows": len(reports),
                  "latency_tail_percentile": tail(list(range(points)))[1]}
    qor, feasible, soft = qor_stats(
        (v, p if v[0] == "ok" else None) for p, v in zip(first["points"], verdicts))
    throughput = points / median(sweeps)   # the median sweep sets the rate
    detail = dict(lat_detail, setups_s=setups, sweeps_s=sweeps, points_per_sweep=points,
                  fail_share=ratio(failed, attempted), jobs=first["jobs"],
                  qor_requests=points, qor_feasible=feasible)
    e2e = dict(lat, setup_s=median(setups), throughput_per_s=throughput,
               ok_share=1 - failed / attempted,
               qor_states_total=qor, peak_rss_mb=rss)
    layer = {}
    if bench.trace:
        layer.update(core_counts(soft))
        layer["sched.spurious_infeasible"] = sum(
            1 for v in verdicts if v[1] == "spurious infeasible")
        point_sum = sum(p["wall_ms"] for p in first["points"])
        layer["explore.parallel_eff"] = ratio(point_sum, first["jobs"] * first["wall_ms"])
        layer["explore.straggler_share"] = ratio(max(p["wall_ms"] for p in first["points"]),
                                                 first["wall_ms"])
        bench.tool_run("trace-dse", "--random", gen.DSE_OPS, "--seed", bench.seed,
                         "--alus", gen.DSE_GRID["alus"], "--muls", gen.DSE_GRID["muls"],
                         "--mul-lat", gen.DSE_GRID["mul-lat"],
                         "--backends", gen.DSE_GRID["backends"],
                         "--seconds", bench.seconds, "--min-requests", 6,
                         "--spans", bench.path("spans.tsv"),
                         "--summary", bench.path("trace.json"))
        traced, trace_detail = trace_metrics(bench, bench.path("trace.json"),
                                             bench.path("spans.tsv"))
        layer.update(traced)
        detail["replay"] = trace_detail
    return attempted, failed, e2e, layer, detail


WORKLOADS = {"compile-cold": compile_cold, "resident-hot": resident_hot,
             "dse-sweep": dse_sweep}
