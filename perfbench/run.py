#!/usr/bin/env python3
"""End-to-end benchmark of `lockdoc import`, `analyze` and `serve`.

Run from the root of a source checkout:

  python3 perfbench/run.py --workload cli-vfs --seed 1 --seconds 15 --trace 0

The script builds the CLI and the tracer (Release) into
.bench_build/, simulates its inputs from --seed into .bench_run/, records
reference bytes from standalone `lockdoc <pass> FILE [--format F]` commands,
measures the workload for --seconds with the real `lockdoc` binary, checks
every output against the references, and prints one JSON object as its last
line of stdout. --trace 1 instead runs the tracer and prints the
per-layer metrics. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import signal
import socket
import statistics
import struct
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
WORK = os.path.join(ROOT, ".bench_run")
LOCKDOC = os.path.join(BUILD, "repo", "tools", "lockdoc")
TRACER = os.path.join(BUILD, "lockdoc_perf_trace")

WORKLOADS = ("cli-vfs", "serve-warm", "serve-churn")
# Simulated kernel operations per input trace. Sized so that a run, set-up
# included, takes about half a minute and the churn loop still collects well
# over 100 latency samples in a run.
OPS = 10000
PASSES = ("check", "derive", "violations", "lock-order", "modes", "report")
CHEAP_PASSES = ("check", "lock-order", "derive")
INPUTS = ("vfs", "mm")
# serve-churn cycles over three resident names, mm2 being a second copy of
# the mm trace. Strict alternation between vfs and mm alone would split the
# cold latencies into two equal clusters and put the median in the gap
# between them, where it jumps from run to run; with the cycle every request
# is still a cold reload and the median lies inside one cluster.
CHURN_INPUTS = ("vfs", "mm", "mm2")
# serve-warm's format mix: most requests text, a fixed share json and html.
FORMAT_WEIGHTS = (("text", 7), ("json", 2), ("html", 1))
SETUP_REPEATS = 5
CHURN_DROP_EVERY_S = 2.0
PROBE_QUERIES = 130
PROBE_ROUND_QUERIES = 10
CLI_PROBE_CYCLES = 11
INGEST_DROPS = 16
# Latency percentile reported besides the median; a run must leave at least
# this many samples above it.
P90_MIN_ABOVE = 10
MIN_TIMED_SAMPLES = 110


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


class BenchError(Exception):
    pass


# --------------------------------------------------------------------------
# Build and host


def build():
    for need in ("CMakeLists.txt", "src", "tools", "scripts/bench_common.sh",
                 "perfbench/CMakeLists.txt"):
        if not os.path.exists(os.path.join(ROOT, need)):
            raise BenchError(f"run from a source checkout: {need} is missing")
    with open(os.path.join(WORK, "build.log"), "wb") as log_file:
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", "perfbench", "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=log_file, stderr=subprocess.STDOUT, check=True)
        # The repository's guard against recording numbers from a debug
        # build (an existing .bench_build/ keeps the type it was configured
        # with).
        guard = subprocess.run(
            ["bash", "-c", 'source scripts/bench_common.sh && '
             'lockdoc_bench_require_release "$1" perfbench && echo "$LOCKDOC_BENCH_BUILD_TYPE"',
             "guard", BUILD], capture_output=True, text=True)
        if guard.returncode != 0:
            raise BenchError(guard.stderr.strip() or "build-type guard refused the build")
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target", "lockdoc_cli",
                        "lockdoc_perf_trace"],
                       stdout=log_file, stderr=subprocess.STDOUT, check=True)
    return guard.stdout.strip()


def host_info(build_type, seed):
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = os.environ.get("PERFBENCH_COMMIT", "unknown")
    if os.path.isdir(os.path.join(ROOT, ".git")):
        got = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        if got.returncode == 0:
            commit = got.stdout.strip()
    return {"nproc": os.cpu_count(), "cpu_model": model, "kernel": os.uname().release,
            "cmake_build_type": build_type, "commit": commit, "seed": seed}


# --------------------------------------------------------------------------
# Running the program


class Stats:
    """Failure accounting and the peak RSS of every program process."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.peak_rss_mb = 0.0
        self.lock = threading.Lock()

    def op(self, ok, what="", evidence=None):
        """Counts one operation; a failed one is logged, and the bytes it
        produced, if given, are kept in .bench_run/failed/."""
        with self.lock:
            self.attempted += 1
            if ok:
                return True
            self.failed += 1
            if evidence is not None:
                kept = os.path.join(WORK, "failed", f"{self.failed:03d}")
                os.makedirs(os.path.dirname(kept), exist_ok=True)
                with open(kept, "wb") as f:
                    f.write(evidence)
                what += f" (output kept in {kept})"
            log(f"FAILED: {what}")
        return False

    def rss(self, mb):
        with self.lock:
            self.peak_rss_mb = max(self.peak_rss_mb, mb)


STATS = Stats()


def run_lockdoc(args, stdout_path=os.devnull):
    """Runs one CLI command to completion: (wall seconds, exit code)."""
    with open(stdout_path, "wb") as out, open(os.path.join(WORK, "cli.stderr"), "ab") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([LOCKDOC] + args, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    STATS.rss(usage.ru_maxrss / 1024.0)
    return wall, proc.returncode


def read_bytes(path):
    with open(path, "rb") as f:
        return f.read()


def digest(path):
    return hashlib.sha256(read_bytes(path)).hexdigest()


def simulate(inputs):
    for name in inputs:
        _, rc = run_lockdoc(["simulate", "--workload", name, "--ops", str(OPS), "--seed",
                             str(ARGS.seed), "--out", trace_path(name)])
        if rc != 0:
            raise BenchError(f"simulate --workload {name} exited {rc}")


def trace_path(name):
    return os.path.join(WORK, f"{name}.trace")


def ref_db(name):
    return os.path.join(WORK, "ref", f"{name}.lockdb")


def ref_path(pass_name, input_name, fmt):
    return os.path.join(WORK, "ref", f"{pass_name}.{input_name}.{fmt}")


# --------------------------------------------------------------------------
# References and the correctness check


REFS = {}


def record_references(keys):
    """Imports both inputs and records standalone CLI bytes for every
    (pass, input, format) in `keys`."""
    os.makedirs(os.path.join(WORK, "ref"), exist_ok=True)
    for name in sorted({k[1] for k in keys} | {"vfs"}):
        _, rc = run_lockdoc(["import", trace_path(name), "--out", ref_db(name)])
        if rc != 0:
            raise BenchError(f"reference import of {name} exited {rc}")

    def one(key):
        pass_name, input_name, fmt = key
        args = [pass_name, ref_db(input_name)]
        if fmt != "text":
            args += ["--format", fmt]
        _, rc = run_lockdoc(args, ref_path(*key))
        if rc != 0:
            raise BenchError(f"reference `lockdoc {' '.join(args)}` exited {rc}")
        return key, read_bytes(ref_path(*key))

    with ThreadPoolExecutor(max_workers=3) as pool:
        REFS.update(pool.map(one, sorted(keys)))


def matches(expected, actual):
    return expected == actual


def self_test():
    """The check must trip on a corrupted reference."""
    key = next(iter(sorted(REFS)))
    good = REFS[key]
    corrupted = bytearray(good)
    corrupted[len(corrupted) // 2] ^= 0x01
    if not matches(good, good) or matches(bytes(corrupted), good) or matches(good[:-1], good):
        raise BenchError("self-test: the byte check did not trip on a corrupted reference")


# --------------------------------------------------------------------------
# CLI batch path


class CliSamples:
    def __init__(self):
        self.import_s = []
        self.analyze_s = []
        self.check_s = []


def cli_cycle(samples):
    """`lockdoc import`, `analyze` (all passes) and `analyze --passes check`
    on the vfs trace, each checked against the references."""
    db = os.path.join(WORK, "cycle.lockdb")
    wall, rc = run_lockdoc(["import", trace_path("vfs"), "--out", db])
    samples.import_s.append(wall)
    ok = rc == 0 and digest(db) == REF_DB_DIGEST
    STATS.op(ok, f"import exited {rc} or its .lockdb differs from the first import",
             None if ok or rc else read_bytes(db))
    out = os.path.join(WORK, "analyze.out")
    wall, rc = run_lockdoc(["analyze", db], out)
    samples.analyze_s.append(wall)
    expected = b"".join(REFS[(p, "vfs", "text")] for p in PASSES)
    got = read_bytes(out)
    STATS.op(rc == 0 and matches(expected, got),
             f"analyze exited {rc} or its stdout is not the per-pass references concatenated", got)
    wall, rc = run_lockdoc(["analyze", db, "--passes", "check"], out)
    samples.check_s.append(wall)
    got = read_bytes(out)
    STATS.op(rc == 0 and matches(REFS[("check", "vfs", "text")], got),
             f"analyze --passes check exited {rc} or differs from `lockdoc check`", got)


# --------------------------------------------------------------------------
# serve


class Serve:
    """One `lockdoc serve --listen` process on a fresh spool."""

    def __init__(self, name, max_resident):
        self.spool = os.path.join(WORK, name)
        shutil.rmtree(self.spool, ignore_errors=True)
        os.makedirs(os.path.join(self.spool, "incoming"))
        self.err_path = self.spool + ".stderr"
        self.err = open(self.err_path, "wb")
        # An idle spool scan backs off to 8x --poll-ms, and ingest_s includes
        # that wait; at 1 ms it stays under 8 ms.
        self.proc = subprocess.Popen(
            [LOCKDOC, "serve", self.spool, "--listen", "127.0.0.1:0", "--workers", "2",
             "--poll-ms", "1", "--max-resident", str(max_resident)],
            stdout=subprocess.DEVNULL, stderr=self.err)
        self.port = None
        deadline = time.monotonic() + 30
        while self.port is None:
            with open(self.err_path, "rb") as f:
                for line in f.read().decode(errors="replace").splitlines():
                    if "listening on" in line:
                        self.port = int(line.rsplit(":", 1)[1])
            if self.proc.poll() is not None or time.monotonic() > deadline:
                raise BenchError("lockdoc serve did not start listening")
            time.sleep(0.002)

    def drop(self, name):
        """Publishes a copy of the `name` trace into incoming/ atomically;
        returns the perf_counter time of the rename."""
        tmp = os.path.join(self.spool, "incoming", f".tmp.{name}")
        target = os.path.join(self.spool, "incoming", f"{name}.trace")
        shutil.copyfile(trace_path(name), tmp)
        # serve publishes the ingest ack before it removes the source, so a
        # copy renamed in between would be deleted unread: wait for the
        # previous copy to go.
        deadline = time.monotonic() + 60
        while os.path.exists(target) and time.monotonic() < deadline:
            time.sleep(0.001)
        meta = self.ingest_meta(name)
        if os.path.exists(meta):
            os.remove(meta)
        published = time.perf_counter()
        os.rename(tmp, target)
        return published

    def ingest_meta(self, name):
        return os.path.join(self.spool, "responses", f"{name}.ingest.meta")

    def wait_ingest(self, name, published):
        meta = self.ingest_meta(name)
        deadline = time.monotonic() + 120
        while not os.path.exists(meta):
            if time.monotonic() > deadline or self.proc.poll() is not None:
                STATS.op(False, f"ingest of {name} never acknowledged")
                return None
            time.sleep(0.001)
        elapsed = time.perf_counter() - published
        ack = read_bytes(meta)
        return elapsed if STATS.op(ack.startswith(b"status=ok"), f"ingest of {name}", ack) else None

    def stop(self):
        if self.proc.poll() is None:
            try:
                with open(f"/proc/{self.proc.pid}/status") as f:
                    for line in f:
                        if line.startswith("VmHWM:"):
                            STATS.rss(int(line.split()[1]) / 1024.0)
            except OSError:
                pass
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
            STATS.op(self.proc.returncode == 0,
                     f"serve exited {self.proc.returncode} (stderr in {self.err_path})")
        self.err.close()


SERVERS = []


def start_serve(name, max_resident):
    serve = Serve(name, max_resident)
    SERVERS.append(serve)
    return serve


class Client:
    """Speaks the socket protocol exactly as `lockdoc query` does: one framed
    request (header and payload sent separately, as WriteFrame does), then
    the meta frame and the output frame. It sets no socket option — no
    TCP_NODELAY, no TCP_QUICKACK — because the server's small writes meet
    the client's delayed ACKs: that costs ~44 ms per answer, and forcing
    quick ACKs drops it to ~1 ms. A client that hid it would hide what
    users of `lockdoc query` see."""

    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port))

    def _read(self, n):
        buf = bytearray()
        while len(buf) < n:
            chunk = self.sock.recv(n - len(buf))
            if not chunk:
                raise BenchError("serve closed the connection")
            buf += chunk
        return bytes(buf)

    def _frame(self):
        (length,) = struct.unpack(">I", self._read(4))
        return self._read(length)

    def query(self, pass_name, input_name, fmt):
        payload = f"pass={pass_name}\ninput={input_name}\nformat={fmt}\n".encode()
        start = time.perf_counter()
        self.sock.sendall(struct.pack(">I", len(payload)))
        self.sock.sendall(payload)
        meta = self._frame()
        out = self._frame()
        latency = time.perf_counter() - start
        ok = meta.startswith(b"status=ok") and matches(REFS[(pass_name, input_name, fmt)], out)
        STATS.op(ok, f"serve answer {pass_name}/{input_name}/{fmt} is an error or differs from "
                 "the CLI bytes", meta + out)
        return latency, ok

    def close(self):
        self.sock.close()


def shuffled_blocks(rng, block, n):
    """`n` items: copies of `block`, each copy shuffled by `rng`. Every
    stretch of a block's length holds each item of the block about once, so
    how much work a run's prefix of the sequence asks for does not depend on
    the seed; only its order does."""
    out = []
    while len(out) < n:
        copy = list(block)
        rng.shuffle(copy)
        out.extend(copy)
    return out[:n]


def warm_sequence(rng, n):
    formats = [f for f, w in FORMAT_WEIGHTS for _ in range(w)]
    requests = shuffled_blocks(rng, [(p, i) for p in PASSES for i in INPUTS], n)
    return [(p, i, f) for (p, i), f in zip(requests, shuffled_blocks(rng, formats, n))]


def churn_sequence(rng, n):
    """Inputs in a fixed cycle, so every request is a cold reload; over each
    block of three cycles every input is asked for every cheap pass once."""
    out = []
    while len(out) < n:
        passes = list(CHEAP_PASSES)
        rng.shuffle(passes)
        for cycle in range(len(CHEAP_PASSES)):
            out.extend((passes[(j + cycle) % len(passes)], name, "text")
                       for j, name in enumerate(CHURN_INPUTS))
    return out[:n]


def alias_mm2_refs():
    """mm2's references are mm's."""
    for (pass_name, input_name, fmt), ref in list(REFS.items()):
        if input_name == "mm":
            REFS[(pass_name, "mm2", fmt)] = ref


class Loop:
    """Closed-loop load over `connections` clients, one thread each, that
    walks `sequence` in order. The connections stay open from one round to
    the next, so a pause between rounds does not reset their TCP state."""

    def __init__(self, port, sequence, connections):
        self.sequence = sequence
        self.cursor = 0
        self.latencies = []
        self.elapsed = 0.0
        self.clients = []
        try:
            for _ in range(connections):
                self.clients.append(Client(port))
        except OSError as e:
            self.close()
            raise BenchError(f"serve connection: {e}")

    def round(self, seconds=None, count=None):
        """Sends requests until `seconds` elapse or `count` more were sent;
        keeps the latencies of ok answers and adds the round's time to
        `elapsed`."""
        lock = threading.Lock()
        errors = []
        stop_at = None if count is None else self.cursor + count
        start = time.perf_counter()

        def worker(client):
            try:
                while True:
                    with lock:
                        i = self.cursor
                        if (stop_at is not None and i >= stop_at) or \
                           (seconds is not None and time.perf_counter() - start >= seconds):
                            return
                        self.cursor += 1
                    latency, ok = client.query(*self.sequence[i % len(self.sequence)])
                    if ok:
                        with lock:
                            self.latencies.append(latency)
            except (BenchError, OSError) as e:
                STATS.op(False, f"serve connection: {e}")
                errors.append(e)

        threads = [threading.Thread(target=worker, args=(c,)) for c in self.clients]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        self.elapsed += time.perf_counter() - start
        if errors:
            raise BenchError(f"serve connection: {errors[0]}")

    def close(self):
        for client in self.clients:
            client.close()


def warm_up(port, keys):
    """Loads every resident and builds its lazy indexes before timing."""
    loop = Loop(port, sorted(keys), 1)
    try:
        loop.round(count=len(keys))
    finally:
        loop.close()


def serve_setup(max_resident, inputs):
    """Simulation, serve start and the initial ingest of `inputs`. Returns
    (serve, seconds)."""
    start = time.perf_counter()
    simulate(INPUTS)
    if "mm2" in inputs:
        shutil.copyfile(trace_path("mm"), trace_path("mm2"))
    serve = start_serve("spool", max_resident)
    for name in inputs:
        if serve.wait_ingest(name, serve.drop(name)) is None:
            raise BenchError("initial ingest failed")
    return serve, time.perf_counter() - start


def churn_round(serve, loop, seconds):
    """One round of cold requests while a fresh copy of the mm trace is
    dropped into incoming/ under its own name, once per CHURN_DROP_EVERY_S
    of the round and first half that far into it."""
    stop = threading.Event()

    def dropper():
        while not stop.wait(CHURN_DROP_EVERY_S / 2):
            serve.wait_ingest("mm", serve.drop("mm"))
            if stop.wait(CHURN_DROP_EVERY_S / 2):
                return

    thread = threading.Thread(target=dropper)
    thread.start()
    try:
        loop.round(seconds=seconds)
    finally:
        stop.set()
        thread.join()


def interleaved(serve, loop, seconds, samples, churn):
    """The serve workloads' timed loop, cut into CLI_PROBE_CYCLES rounds of
    equal length, each after one CLI probe cycle run while the server idles.
    Spread over the whole run, the probe and the loop both see the host as
    it is through the run, not as it was for a few seconds of it. The loop
    runs on in more rounds, up to twice --seconds, while it has too few
    samples for its p90."""
    round_s = seconds / CLI_PROBE_CYCLES

    def one_round():
        if churn:
            churn_round(serve, loop, round_s)
        else:
            loop.round(seconds=round_s)

    for _ in range(CLI_PROBE_CYCLES):
        cli_cycle(samples)
        one_round()
    while len(loop.latencies) < MIN_TIMED_SAMPLES and loop.elapsed < 2 * seconds:
        one_round()


# --------------------------------------------------------------------------
# Metrics


def p90(latencies):
    ordered = sorted(latencies)
    rank = math.ceil(0.9 * len(ordered))
    if len(ordered) - rank < P90_MIN_ABOVE:
        raise BenchError(f"only {len(ordered)} latency samples: p90 needs "
                         f"{P90_MIN_ABOVE} above it")
    return ordered[rank - 1]


def query_metrics(latencies, elapsed):
    return {"query_p50_ms": (statistics.median(latencies) * 1000, "ms"),
            "query_p90_ms": (p90(latencies) * 1000, "ms"),
            "queries_per_s": (len(latencies) / elapsed, "1/s")}


def cli_metrics(samples):
    return {"import_s": (statistics.median(samples.import_s), "s"),
            "analyze_s": (statistics.median(samples.analyze_s), "s"),
            "check_s": (statistics.median(samples.check_s), "s"),
            "lockdb_bytes_per_trace_byte":
                (os.path.getsize(ref_db("vfs")) / os.path.getsize(trace_path("vfs")), "ratio")}


def ingest_samples(serve):
    """Re-publishes the mm trace a few times, one at a time: the seconds from
    each rename until its ingest ack appears."""
    samples = []
    for _ in range(INGEST_DROPS):
        elapsed = serve.wait_ingest("mm", serve.drop("mm"))
        if elapsed is None:
            raise BenchError("ingest of mm failed")
        samples.append(elapsed)
    return samples


def run_untraced(workload, seconds):
    rng = random.Random(ARGS.seed)
    global REF_DB_DIGEST
    metrics = {}
    setup_s = []
    samples = CliSamples()
    if workload == "cli-vfs":
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            simulate(INPUTS)
            setup_s.append(time.perf_counter() - start)
        record_references({(p, "vfs", "text") for p in PASSES})
        self_test()
        REF_DB_DIGEST = digest(ref_db("vfs"))
        # Probe of the serve path, so every workload reports every metric,
        # sent in rounds between the timed CLI cycles for the reason
        # interleaved() gives.
        serve = start_serve("probe", 8)
        if serve.wait_ingest("vfs", serve.drop("vfs")) is None:
            raise BenchError("probe ingest failed")
        probe = [(p, "vfs", "text") for p in CHEAP_PASSES]
        warm_up(serve.port, probe)
        loop = Loop(serve.port, probe, 2)
        try:
            cli_s = 0.0
            while cli_s < seconds:
                start = time.perf_counter()
                cli_cycle(samples)
                cli_s += time.perf_counter() - start
                if loop.cursor < PROBE_QUERIES:
                    loop.round(count=PROBE_ROUND_QUERIES)
            if loop.cursor < PROBE_QUERIES:
                loop.round(count=PROBE_QUERIES - loop.cursor)
        finally:
            loop.close()
        serve.stop()
    else:
        warm = workload == "serve-warm"
        max_resident = 8 if warm else 1
        for rep in range(SETUP_REPEATS):
            serve, seconds_taken = serve_setup(max_resident, INPUTS if warm else CHURN_INPUTS)
            setup_s.append(seconds_taken)
            if rep + 1 < SETUP_REPEATS:
                serve.stop()
        if warm:
            keys = {(p, i, f) for p in PASSES for i in INPUTS for f, _ in FORMAT_WEIGHTS}
            sequence = warm_sequence(rng, 20000)
        else:
            keys = {(p, i, "text") for p in PASSES for i in INPUTS}
            sequence = churn_sequence(rng, 20000)
        record_references(keys)
        alias_mm2_refs()
        self_test()
        REF_DB_DIGEST = digest(ref_db("vfs"))
        if warm:
            warm_up(serve.port, keys)
        # The CLI batch path is probed between the loop's rounds, so every
        # workload reports every metric.
        loop = Loop(serve.port, sequence, 2 if warm else 1)
        try:
            interleaved(serve, loop, seconds, samples, churn=not warm)
        finally:
            loop.close()
        serve.stop()
    with open(os.path.join(WORK, "samples.json"), "w") as f:
        json.dump({"setup_s": setup_s, "latency_s": loop.latencies,
                   "import_s": samples.import_s, "analyze_s": samples.analyze_s,
                   "check_s": samples.check_s}, f)
    metrics.update(cli_metrics(samples))
    metrics.update(query_metrics(loop.latencies, loop.elapsed))
    metrics["setup_s"] = (statistics.median(setup_s), "s")
    metrics["peak_rss_mb"] = (STATS.peak_rss_mb, "MB")
    return metrics


# --------------------------------------------------------------------------
# Traced run


TRACE_WARM_REQUESTS = 60
TRACE_CHURN_REQUESTS = 48
TRACE_CLI_REPEATS = 5


def duration(span):
    return span["end"] - span["start"]


class Spans:
    """The tracer's span list with parent links."""

    def __init__(self, spans):
        self.spans = spans
        self.children = {}
        for i, s in enumerate(spans):
            self.children.setdefault(s["parent"], []).append(i)

    def roots(self, name):
        return [i for i, s in enumerate(self.spans) if s["name"] == name and s["parent"] == -1]

    def named(self, name, under):
        """Indices of the spans called `name` below span `under`."""
        out = []
        stack = list(self.children.get(under, []))
        while stack:
            j = stack.pop()
            if self.spans[j]["name"] == name:
                out.append(j)
            stack.extend(self.children.get(j, []))
        return out

    def total(self, name, under):
        return sum(duration(self.spans[i]) for i in self.named(name, under))

    def durations(self, name):
        return [duration(s) for s in self.spans if s["name"] == name]

    def child_time(self, i):
        return sum(duration(self.spans[c]) for c in self.children.get(i, []))


def run_traced():
    rng = random.Random(ARGS.seed)
    simulate(INPUTS)
    shutil.copyfile(trace_path("mm"), trace_path("mm2"))
    warm = warm_sequence(rng, TRACE_WARM_REQUESTS)
    churn = churn_sequence(rng, TRACE_CHURN_REQUESTS)
    keys = {(p, "vfs", "text") for p in PASSES} | set(warm) | set(churn)
    record_references({k for k in keys if k[1] != "mm2"})
    alias_mm2_refs()
    self_test()

    seq_files = {}
    for name, seq in (("warm", warm), ("churn", churn)):
        seq_files[name] = os.path.join(WORK, f"{name}.seq")
        with open(seq_files[name], "w") as f:
            f.writelines(f"{p} {i} {fmt}\n" for p, i, fmt in seq)
    traced_dir = os.path.join(WORK, "traced")
    os.makedirs(traced_dir)
    spans_path = os.path.join(WORK, "spans.json")
    with open(os.path.join(WORK, "tracer.stderr"), "wb") as err:
        proc = subprocess.Popen([TRACER, "--vfs", trace_path("vfs"), "--mm", trace_path("mm"),
                                 "--work", traced_dir, "--warm", seq_files["warm"],
                                 "--churn", seq_files["churn"], "--out", spans_path,
                                 "--cli-repeats", str(TRACE_CLI_REPEATS)],
                                stdout=subprocess.DEVNULL, stderr=err)
        _, status, _ = os.wait4(proc.pid, 0)
    if not STATS.op(os.waitstatus_to_exitcode(status) == 0, "tracer failed"):
        raise BenchError("tracer failed; see .bench_run/tracer.stderr")

    answers = os.path.join(traced_dir, "answers")
    expected = {"analyze.vfs.text": b"".join(REFS[(p, "vfs", "text")] for p in PASSES),
                "check.vfs.text": REFS[("check", "vfs", "text")]}
    for key in set(warm) | set(churn):
        expected[".".join(key)] = REFS[key]
    for name, want in expected.items():
        STATS.op(matches(want, read_bytes(os.path.join(answers, name))),
                 f"traced answer {name} differs from the CLI bytes")

    with open(spans_path) as f:
        traced = json.load(f)
    spans, values = Spans(traced["spans"]), traced["values"]
    cli_roots = spans.roots("workload.cli-vfs")

    def cli(name, command=None):
        """Median over the CLI repetitions of the time in spans `name`,
        optionally only inside one command."""
        per_rep = []
        for root in cli_roots:
            scope = spans.named(command, root)[0] if command else root
            per_rep.append(spans.total(name, scope))
        return statistics.median(per_rep)

    m = {}
    m["cli.sniff_s"] = (cli("cli.sniff", "cmd.check"), "s")
    m["trace.read_s"] = (cli("trace.read"), "s")
    m["trace.events"] = (values["trace.events"], "count")
    for name in ("core.build_snapshot", "core.database_import", "core.observation_extraction",
                 "snapshot.serialize", "snapshot.save"):
        m[f"{name}_s"] = (cli(name), "s")
    m["snapshot.bytes"] = (values["snapshot.bytes"], "bytes")
    for section in ("meta", "strings", "table", "pool", "seqs", "groups"):
        m[f"snapshot.section_bytes.{section}"] = \
            (values.get(f"snapshot.section_bytes.{section}", 0), "bytes")
    m["snapshot.peek_s"] = (cli("snapshot.peek", "cmd.check"), "s")
    m["snapshot.load_s"] = (cli("snapshot.load", "cmd.check"), "s")
    for index in ("rules", "lock_order_graph", "member_access", "lock_postings"):
        m[f"index.{index}_s"] = (cli(f"index.{index}"), "s")
    for p in PASSES:
        m[f"pass.{p}_s"] = (cli(f"pass.{p}"), "s")
    hits = values["mining.enum_cache_hits"]
    lookups = hits + values["mining.enum_cache_misses"]
    m["pass.derive.cache_hit_ratio"] = (hits / lookups if lookups else 0.0, "ratio")
    for fmt, _ in FORMAT_WEIGHTS:
        m[f"render.{fmt}_s"] = (sum(spans.durations(f"render.{fmt}")), "s")
        m[f"render.{fmt}_bytes"] = (values[f"render.{fmt}_bytes"], "bytes")
    answer_warm = spans.durations("serve.answer.warm")
    socket_warm = spans.durations("serve.socket.warm")
    answer_cold = spans.durations("serve.answer.cold")
    m["serve.answer_warm_ms"] = (statistics.median(answer_warm) * 1000, "ms")
    m["serve.answer_cold_ms"] = (statistics.median(answer_cold) * 1000, "ms")
    m["serve.transport_ms"] = (statistics.median(
        s - a for s, a in zip(socket_warm, answer_warm)) * 1000, "ms")
    m["serve.evictions"] = (values["serve.evictions"], "count")
    m["serve.resident_hit_ratio"] = (1 - values["serve.evictions"] / values["serve.answered"],
                                     "ratio")
    m["serve.ingest_scan_s"] = (statistics.median(spans.durations("serve.ingest_scan")), "s")

    # Untraced equivalents of the traced operations: the CLI commands as
    # processes, the serve sequences over the socket of a real serve.
    global REF_DB_DIGEST
    REF_DB_DIGEST = digest(ref_db("vfs"))
    samples = CliSamples()
    for _ in range(TRACE_CLI_REPEATS):
        cli_cycle(samples)
    untraced_cli = {"cmd.import": statistics.median(samples.import_s),
                    "cmd.analyze": statistics.median(samples.analyze_s),
                    "cmd.check": statistics.median(samples.check_s)}
    traced_cli = {}
    attributed = {}
    for cmd in untraced_cli:
        commands = [spans.named(cmd, root)[0] for root in cli_roots]
        traced_cli[cmd] = statistics.median(duration(spans.spans[i]) for i in commands)
        attributed[cmd] = statistics.median(spans.child_time(i) for i in commands)
    # Over analyze and check only: the traced import runs serve's serial
    # sequence, not the CLI's overlapped one, so its difference is no gap.
    m["cli.unattributed_s"] = (sum(untraced_cli[c] - attributed[c]
                                   for c in ("cmd.analyze", "cmd.check")), "s")
    untraced = {"cli-vfs": sum(untraced_cli.values())}
    traced = {"cli-vfs": sum(traced_cli.values())}
    for name, seq, max_resident, inputs in (("serve-warm", warm, 8, INPUTS),
                                            ("serve-churn", churn, 1, CHURN_INPUTS)):
        serve = start_serve(f"spool-{name}", max_resident)
        for i in inputs:
            if serve.wait_ingest(i, serve.drop(i)) is None:
                raise BenchError(f"ingest into the untraced {name} server failed")
        if name == "serve-warm":
            warm_up(serve.port, set(seq))
        loop = Loop(serve.port, seq, 1)
        try:
            loop.round(count=len(seq))
        finally:
            loop.close()
        if name == "serve-churn":
            m["ingest_s"] = (statistics.median(ingest_samples(serve)), "s")
        serve.stop()
        untraced[name] = sum(loop.latencies)
    traced["serve-warm"] = sum(socket_warm)
    traced["serve-churn"] = sum(answer_cold)

    # Coverage: the share of the traced wall time inside layer spans. For
    # cli-vfs that is measured inside each command (below cmd.import,
    # cmd.analyze and cmd.check); a serve request is itself one layer span,
    # so the serve workloads are measured at the workload root.
    commands = [i for root in cli_roots for cmd in untraced_cli for i in spans.named(cmd, root)]
    m["trace.coverage.cli-vfs"] = (
        sum(spans.child_time(i) for i in commands) /
        sum(duration(spans.spans[i]) for i in commands), "ratio")
    for name in WORKLOADS:
        if name != "cli-vfs":
            (root,) = spans.roots(f"workload.{name}")
            m[f"trace.coverage.{name}"] = (spans.child_time(root) /
                                           duration(spans.spans[root]), "ratio")
        m[f"trace.overhead.{name}"] = (traced[name] / untraced[name], "ratio")
    return m


# --------------------------------------------------------------------------


def main():
    global ARGS
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ARGS = parser.parse_args()
    # A terminated benchmark still stops the servers it started.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    # Compilers and tools put their scratch files here, inside the checkout.
    os.makedirs(os.path.join(WORK, "tmp"))
    os.environ["TMPDIR"] = os.path.join(WORK, "tmp")
    try:
        build_type = build()
        print(json.dumps({"host": host_info(build_type, ARGS.seed),
                          "workload": ARGS.workload, "trace": ARGS.trace}), flush=True)
        metrics = run_traced() if ARGS.trace else run_untraced(ARGS.workload, ARGS.seconds)
    except (BenchError, subprocess.CalledProcessError, OSError, KeyError) as e:
        log(f"error: {e}")
        return 2
    finally:
        for serve in SERVERS:
            serve.stop()
    result = {"correct": STATS.failed == 0, "attempted": STATS.attempted,
              "failed": STATS.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
