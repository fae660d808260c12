#!/usr/bin/env python3
"""End-to-end benchmark of superfe_run, with per-layer timings taken from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a SuperFE source tree. The script builds superfe_run,
superfe_tracegen and the per-layer probe (perfbench/layers.cc) into
$CARGO_TARGET_DIR (default .bench_build), generates the workload's pcap from
the seed, produces an untimed serial reference export, and then:

  --trace 0  runs superfe_run as a child process, one child per timed run,
             for S seconds, checks every export against the reference, and
             reports the end-to-end metrics;
  --trace 1  runs the probe once on the same inputs (a serial pipeline with
             a timer at every layer boundary, plus the topology drivers and
             Run/RunDaemon at the workload topology) and untimed children
             for the rest of the S seconds, and reports the per-layer metrics.

The last line of stdout is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
Any failure before measuring (build, trace digest drift, reference run)
exits non-zero without printing it. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
PROFILE = "campus"
PACKETS = 500_000
SETUP_REPS = 9
MIN_TIMED_RUNS = 3
# Kill a child after CHILD_TIMEOUT_S and launch no new one after
# MAX_LOOP_S, so a hung program still ends the run within 180 s.
CHILD_TIMEOUT_S = 45
PROBE_TIMEOUT_S = 90
MAX_LOOP_S = 90
QUIET_STEAL = 0.01
BUILD_TARGETS = ["superfe_run", "superfe_tracegen", "perfbench_layers"]

# Each workload is one superfe_run command shape over the seeded pcap.
WORKLOADS = {
    "kitsune_pkt": {
        "policy": "multi_granularity.sfe",
        "loop": 1, "shards": 2, "workers": 2, "daemon": False,
    },
    "flow_serial": {
        "policy": "channel_stats.sfe",
        "loop": 4, "shards": 1, "workers": 0, "daemon": False,
    },
    "daemon_epochs": {
        "policy": "basic_stats.sfe",
        "loop": 16, "shards": 2, "workers": 2, "daemon": True,
    },
}

class BenchError(Exception):
    """A failure that makes the run unmeasurable: exit non-zero, no result."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


# ---- build and provenance ---------------------------------------------------


def build(bdir):
    """Configures (once) and builds the targets; returns their paths."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"{ROOT} is not a SuperFE source tree")
    cmake_dir = bdir / "cmake"
    cmake_dir.mkdir(parents=True, exist_ok=True)
    build_log = bdir / "build.log"
    # Keep the compiler's temporary files inside the checkout too.
    tmp = bdir / "tmp"
    tmp.mkdir(exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    with open(build_log, "w") as out:
        steps = []
        if not (cmake_dir / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(cmake_dir),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(cmake_dir), "-j", "4", "--target"]
                     + BUILD_TARGETS)
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT, env=env,
                              timeout=840).returncode != 0:
                raise BenchError(f"build failed: {' '.join(cmd)} (see {build_log})")
    tools = cmake_dir / "superfe" / "tools"
    return {
        "run": tools / "superfe_run",
        "tracegen": tools / "superfe_tracegen",
        "layers": cmake_dir / "perfbench_layers",
        "cache": cmake_dir / "CMakeCache.txt",
    }


def build_type(cache_path):
    """Returns the build type; refuses Debug, unoptimized and sanitizer builds."""
    cache = {}
    for line in cache_path.read_text().splitlines():
        if ":" in line and "=" in line and not line.startswith(("#", "//")):
            key, _, value = line.partition("=")
            cache[key.split(":")[0]] = value
    kind = cache.get("CMAKE_BUILD_TYPE", "")
    flags = " ".join(cache.get(k, "") for k in
                     ("CMAKE_CXX_FLAGS", "CMAKE_CXX_FLAGS_" + kind.upper()))
    if kind.lower() not in ("release", "relwithdebinfo"):
        raise BenchError(f"refusing a {kind or 'default'} build: need Release")
    if cache.get("SUPERFE_SANITIZE") or "-fsanitize" in flags or "-O0" in flags:
        raise BenchError("refusing a sanitizer or -O0 build")
    return kind


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_digest():
    """sha256 over the program's sources and this benchmark, path by path."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for sub in ("src", "tools", "perfbench"):
        files += sorted(p for p in (ROOT / sub).rglob("*")
                        if p.is_file() and "__pycache__" not in p.parts)
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


# ---- inputs ----------------------------------------------------------------


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def make_trace(tools, seed, packets, work, bdir):
    """Generates the seeded pcap and checks its digest against the ledgers.

    perfbench/trace_digests.json pins the digests of the default workload
    size for a range of seeds; any other (seed, size) is recorded in the
    build directory on first use. A seed whose pcap digest differs from
    its recorded digest means the generator drifted: fail loudly.
    """
    pcap = work / f"campus_{packets}_{seed}.pcap"
    out = subprocess.run([str(tools["tracegen"]), "--profile", PROFILE,
                          "--packets", str(packets), "--seed", str(seed),
                          "--out", str(pcap)],
                         capture_output=True, text=True, timeout=120)
    if out.returncode != 0:
        raise BenchError(f"superfe_tracegen failed: {out.stderr.strip()}")
    try:
        count = int(out.stdout.split("pkts=")[1].split()[0])
    except (IndexError, ValueError):
        raise BenchError(f"unexpected superfe_tracegen output: {out.stdout.strip()}")
    digest = sha256_file(pcap)
    key = f"{PROFILE}-{packets}"
    pinned = json.loads((BENCH_DIR / "trace_digests.json").read_text()).get(key, {})
    local_path = bdir / "trace_digests.json"
    local = json.loads(local_path.read_text()) if local_path.is_file() else {}
    expected = pinned.get(str(seed)) or local.get(key, {}).get(str(seed))
    got = {"packets": count, "sha256": digest}
    if expected is not None and expected != got:
        raise BenchError(f"trace generator drift: seed {seed} ({key}) gave {got}, "
                         f"recorded {expected}")
    if expected is None:
        local.setdefault(key, {})[str(seed)] = got
        local_path.write_text(json.dumps(local, indent=1, sort_keys=True) + "\n")
    return {"path": pcap, "packets": count, "sha256": digest,
            "pinned": str(seed) in pinned}


# ---- child processes -------------------------------------------------------


def spawn(ctx, argv, log_path):
    """Runs argv under the probe's launcher; returns rc, wall, cpu and peak RSS."""
    steal0, total0 = cpu_jiffies()
    out = subprocess.run([str(ctx["tools"]["layers"]), "spawn", str(CHILD_TIMEOUT_S),
                          str(log_path), *argv],
                         capture_output=True, text=True, timeout=CHILD_TIMEOUT_S + 30)
    steal1, total1 = cpu_jiffies()
    if out.returncode != 0:
        raise BenchError(f"launcher failed: {out.stderr.strip()}")
    result = json.loads(out.stdout)
    result["rc"] = int(result["rc"])
    result["steal_frac"] = (steal1 - steal0) / max(total1 - total0, 1)
    return result


def cpu_jiffies():
    """(steal, total) jiffies over all CPUs, from /proc/stat."""
    try:
        fields = [int(x) for x in Path("/proc/stat").read_text().split("\n")[0].split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


def quiet_runs(runs):
    """The successful children the timing metrics are taken from.

    On a virtual machine the hypervisor can take CPU time from the guest
    ("steal"). The pipelines wait on each other's threads, so a few percent
    of steal slows a parallel child several times as much. Every child
    with at most QUIET_STEAL of steal counts; when fewer than half of the
    children ran that quietly, the quieter half (at least MIN_TIMED_RUNS)
    counts instead. Failed children never count.
    """
    ok = [r for r in runs if r["ok"]]
    keep = max(min(len(ok), MIN_TIMED_RUNS), (len(ok) + 1) // 2)
    quiet = [r for r in ok if r["steal_frac"] <= QUIET_STEAL]
    return quiet if len(quiet) >= keep else sorted(ok, key=lambda r: r["steal_frac"])[:keep]


def superfe_args(tools, w, pcap, out, reference=False):
    argv = [str(tools["run"]), str(BENCH_DIR / "policies" / w["policy"]),
            "--pcap", str(pcap), "--loop", str(w["loop"])]
    if reference:
        return argv + ["--workers", "0", "--out", str(out)]
    argv += ["--switch-shards", str(w["shards"]), "--workers", str(w["workers"])]
    if w["daemon"]:
        return argv + ["--daemon", "--epoch-dir", str(out)]
    return argv + ["--out", str(out)]


def read_export(w, out, reference=False):
    """Header, row count, sorted-row digest and size of one export.

    A daemon export is the concatenation of its epoch CSVs, headers
    dropped; every epoch must carry the same header and reconcile.
    """
    if w["daemon"] and not reference:
        files = sorted(out.glob("epoch_*.csv"))
        ledger = (out / "epochs.jsonl").read_text().splitlines()
        if not files or len(files) != len(ledger):
            raise ValueError(f"{len(files)} epoch files for {len(ledger)} epochs")
        epochs = [json.loads(line) for line in ledger]
        if not all(e["reconciled"] is True for e in epochs):
            raise ValueError("an epoch did not reconcile")
    else:
        files, epochs = [out], []
    header, rows, size = None, [], 0
    for path in files:
        data = path.read_bytes()
        size += len(data)
        lines = data.split(b"\n")
        if lines[-1] != b"":
            raise ValueError(f"{path.name} does not end in a newline")
        if header is not None and lines[0] != header:
            raise ValueError(f"{path.name} has a different header")
        header = lines[0]
        rows.extend(lines[1:-1])
    rows.sort()
    digest = hashlib.sha256(b"\n".join(rows)).hexdigest()
    return {"header": header, "rows": len(rows), "digest": digest, "bytes": size,
            "epoch_ms": [e["wall_ms"] for e in epochs if not e["final"]]}


def make_reference(ctx):
    """The untimed serial one-shot export of the same policy and stream."""
    out = ctx["work"] / "reference.csv"
    child = spawn(ctx, superfe_args(ctx["tools"], ctx["w"], ctx["trace"]["path"], out,
                                    reference=True), ctx["work"] / "reference.log")
    if child["rc"] != 0:
        raise BenchError(f"reference run exited {child['rc']} "
                         f"(see {ctx['work'] / 'reference.log'})")
    ref = read_export(ctx["w"], out, reference=True)
    out.unlink()
    return ref


def timed_run(ctx, index, tamper=None, extra_args=()):
    """One superfe_run child, checked against the reference.

    Returns the child's measurements with "ok" and, when not ok, "error".
    `tamper` (a function of the export path) and `extra_args` exist for
    the harness self-test.
    """
    w = ctx["w"]
    out = ctx["work"] / (f"run{index}" if w["daemon"] else f"run{index}.csv")
    if w["daemon"]:
        out.mkdir()
    argv = superfe_args(ctx["tools"], w, ctx["trace"]["path"], out) + list(extra_args)
    result = spawn(ctx, argv, ctx["work"] / f"run{index}.log")
    result["ok"] = False
    try:
        if result["rc"] != 0:
            result["error"] = f"exit code {result['rc']}"
            return result
        if tamper is not None:
            tamper(out)
        got = read_export(w, out)
        ref = ctx["reference"]
        if got["header"] != ref["header"]:
            result["error"] = "export header differs from the reference"
        elif got["rows"] != ref["rows"]:
            result["error"] = f"{got['rows']} rows, reference has {ref['rows']}"
        elif got["digest"] != ref["digest"]:
            result["error"] = "sorted export differs from the reference"
        else:
            result["ok"] = True
            result["bytes"] = got["bytes"]
            result["epoch_ms"] = got["epoch_ms"]
    except (OSError, ValueError, KeyError) as e:
        result["error"] = f"unreadable export: {e}"
    finally:
        remove(out)
    return result


def remove(path):
    if path.is_dir():
        for p in path.iterdir():
            p.unlink()
        path.rmdir()
    elif path.exists():
        path.unlink()


def run_children(ctx, seconds, minimum):
    """Timed children, back to back, for `seconds` (and at least `minimum`)."""
    runs = []
    t0 = time.monotonic()
    while ((len(runs) < minimum or time.monotonic() - t0 < seconds)
           and time.monotonic() - t0 < MAX_LOOP_S):
        run = timed_run(ctx, len(runs))
        if not run["ok"]:
            log(f"run {len(runs)} failed: {run['error']}")
        runs.append(run)
    return runs


# ---- probe -----------------------------------------------------------------


def probe(ctx, mode, *extra):
    w = ctx["w"]
    argv = [str(ctx["tools"]["layers"]), mode, str(BENCH_DIR / "policies" / w["policy"]),
            str(ctx["trace"]["path"]), str(w["loop"]), str(w["shards"]),
            str(w["workers"]), "1" if w["daemon"] else "0", *extra]
    out = subprocess.run(argv, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if out.returncode != 0:
        raise BenchError(f"perfbench_layers {mode} failed: {out.stderr.strip()}")
    return json.loads(out.stdout)


# ---- metrics ---------------------------------------------------------------


def p90(values):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def e2e_metrics(ctx, ok, setup):
    """End-to-end metrics over the children `ok` (see quiet_runs)."""
    packets = ctx["trace"]["packets"] * ctx["w"]["loop"]
    if ctx["w"]["daemon"]:
        epochs = [ms for r in ok for ms in r["epoch_ms"]]
    else:
        # A one-shot run is a single epoch spanning the whole stream.
        epochs = [r["wall_s"] * 1e3 for r in ok]
    return {
        "mpps": statistics.median(packets / r["wall_s"] / 1e6 for r in ok),
        "setup_s": statistics.median(setup["setup_s"]),
        "cpu_s": statistics.median(r["cpu_s"] for r in ok),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in ok),
        "epoch_ms_p50": statistics.median(epochs),
        "epoch_ms_p90": p90(epochs),
    }


def layer_metrics(ctx, raw, setup, ok):
    """Per-layer metrics from the probe's raw totals (see README.md)."""
    pkts = raw["packets"]
    reports = raw["reports"]
    vectors = raw["vectors"]
    evictions = raw["evictions"]
    ev_total = sum(evictions.values()) or 1
    self_ns = (raw["replay_self_ns"] + raw["switch_packet_self_ns"]
               + raw["switch_flush_self_ns"] + raw["nic_call_self_ns"]
               + raw["nic_flush_self_ns"] + raw["emit_ns"])
    exported = ctx["reference"]["rows"]
    setup_s = statistics.median(setup["setup_s"])
    wall_s = statistics.median(r["wall_s"] for r in ok)
    m = {
        "policy.compile_ms": statistics.median(setup["compile_ms"]),
        "core.create_ms": statistics.median(setup["create_ms"]),
        "net.read_pcap_ns_per_pkt":
            statistics.median(setup["read_pcap_ms"]) * 1e6 / raw["trace_packets"],
        "net.materialize_ms": raw["materialize_ns"] / 1e6,
        "net.replay_ns_per_pkt": raw["replay_self_ns"] / pkts,
        "net.parallel_replay_ns_per_pkt":
            raw["parallel_replay_ns"] / raw["parallel_replay_packets"],
        "net.stream_feed_ns_per_pkt": raw["stream_feed_ns"] / raw["stream_feed_packets"],
        "switchsim.self_ns_per_pkt": raw["switch_packet_self_ns"] / pkts,
        "switchsim.flush_ms": raw["switch_flush_self_ns"] / 1e6,
        "switchsim.filter_pass_frac": raw["packets_batched"] / raw["packets_seen"],
        "switchsim.reports_per_pkt": reports / pkts,
        "switchsim.syncs_per_pkt": raw["syncs"] / pkts,
        "nicsim.self_ns_per_report": raw["nic_call_self_ns"] / reports,
        "nicsim.self_ns_per_cell": raw["nic_call_self_ns"] / raw["cells"],
        "nicsim.flush_ms": raw["nic_flush_self_ns"] / 1e6,
        "nicsim.vectors_per_report": vectors / reports,
        "nicsim.emit_ns_per_vector": raw["emit_ns"] / vectors if vectors else 0.0,
        "nicsim.cluster.backpressure_waits": raw["cluster_backpressure_waits"],
        "nicsim.cluster.queue_high_watermark": raw["cluster_queue_high_watermark"],
        "nicsim.cluster.load_imbalance": raw["cluster_load_imbalance"],
        "nicsim.cluster.reports_dropped": raw["cluster_reports_dropped"],
        "core.pipeline_ns_per_pkt": raw["pipeline_ns"] / raw["pipeline_packets"],
        "core.pipeline_cpu_per_wall": raw["pipeline_cpu_ns"] / raw["pipeline_ns"],
        # Derived: what the untraced child spends outside set-up and the
        # pipeline is the CSV sink (plus process start and exit).
        "sink.ns_per_vector": (wall_s - setup_s - raw["pipeline_ns"] / 1e9) * 1e9 / exported,
        "sink.bytes_per_vector": statistics.median(r["bytes"] for r in ok) / exported,
        "trace.packets": pkts,
        "trace.total_ms": raw["total_ns"] / 1e6,
        "trace.unattributed_frac": (raw["total_ns"] - self_ns) / raw["total_ns"],
        "trace.overhead_frac": raw["total_ns"] / raw["untraced_total_ns"] - 1.0,
    }
    for cause, count in evictions.items():
        m[f"switchsim.evict_share.{cause}"] = count / ev_total
    return m


def probe_errors(ctx, raw):
    """The probe's pipelines must emit exactly the reference's vectors."""
    want = ctx["reference"]["rows"]
    errors = []
    for key in ("vectors_counted", "untraced_vectors", "pipeline_vectors"):
        if raw[key] != want:
            errors.append(f"probe {key} = {raw[key]:.0f}, reference has {want} rows")
    if raw["cluster_reports_dropped"] != 0:
        errors.append("the cluster dropped reports")
    return errors


# ---- one benchmark run -----------------------------------------------------


def prepare(workload, seed, packets):
    """Builds, generates the trace and the reference; returns the context."""
    if os.environ.get("SUPERFE_NO_SIMD"):
        raise BenchError("refusing to run with SUPERFE_NO_SIMD set")
    bdir = build_dir()
    tools = build(bdir)
    kind = build_type(tools["cache"])
    work = bdir / "work" / workload
    work.mkdir(parents=True, exist_ok=True)
    for stale in work.iterdir():
        remove(stale)
    ctx = {"w": WORKLOADS[workload], "tools": tools, "work": work, "build_type": kind}
    ctx["trace"] = make_trace(tools, seed, packets, work, bdir)
    ctx["reference"] = make_reference(ctx)
    return ctx


def measure(workload, seed, seconds, trace, packets=PACKETS):
    """One benchmark run; returns (result line dict, provenance dict)."""
    steal0, total0 = cpu_jiffies()
    ctx = prepare(workload, seed, packets)
    setup = probe(ctx, "setup", str(SETUP_REPS))
    errors = []
    if trace:
        t0 = time.monotonic()
        raw = probe(ctx, "trace")
        errors = probe_errors(ctx, raw)
        runs = run_children(ctx, seconds - (time.monotonic() - t0), 1)
    else:
        runs = run_children(ctx, seconds, MIN_TIMED_RUNS)
    failed = len(errors) + sum(not r["ok"] for r in runs)
    attempted = len(runs) + (1 if trace else 0)
    for e in errors:
        log(e)
    if not any(r["ok"] for r in runs):
        raise BenchError("every timed run failed")
    used = quiet_runs(runs)
    metrics = layer_metrics(ctx, raw, setup, used) if trace else e2e_metrics(ctx, used, setup)
    steal1, total1 = cpu_jiffies()
    provenance = {
        "workload": workload,
        "seed": seed,
        "trace": "per-layer" if trace else "off",
        "runs": len(runs),
        "nproc": os.cpu_count(),
        "build_type": ctx["build_type"],
        "simd": setup["simd"],
        "compiler": setup["compiler"],
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "trace_packets": ctx["trace"]["packets"],
        "trace_sha256": ctx["trace"]["sha256"],
        "trace_digest_pinned": ctx["trace"]["pinned"],
        "reference_rows": ctx["reference"]["rows"],
        "reference_sha256": ctx["reference"]["digest"],
        "error_rate": failed / attempted,
        "timed_runs_used": len(used),
        "steal_frac_used": statistics.median(r["steal_frac"] for r in used),
        # Share of CPU time the hypervisor gave to other guests during the
        # run: wall-time metrics move with it.
        "host_steal_frac": (steal1 - steal0) / max(total1 - total0, 1),
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    remove(ctx["trace"]["path"])
    return result, provenance


def units(section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--packets", type=int, default=PACKETS,
                        help="trace size (the benchmark uses the default)")
    args = parser.parse_args(argv)
    try:
        result, provenance = measure(args.workload, args.seed, args.seconds,
                                     bool(args.trace), args.packets)
        unit_of = units("per_layer" if args.trace else "end_to_end")
    except (BenchError, OSError, subprocess.TimeoutExpired) as e:
        log(f"perfbench: {e}")
        return 1
    result["metrics"] = {name: {"value": value, "unit": unit_of[name]}
                         for name, value in result["metrics"].items()}
    print(f"{args.workload}: error_rate {provenance['error_rate']:g} fraction "
          f"({result['failed']} of {result['attempted']} runs failed)")
    for name, m in result["metrics"].items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    print("provenance " + json.dumps(provenance, sort_keys=True))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
