#!/usr/bin/env python3
"""Host-time benchmark of the HeMem simulator.

Usage, from the root of a checkout:

  python3 perfbench/run.py --workload gups-hot --seed 1 --seconds 40 --trace 0
  python3 perfbench/run.py --list          # every metric: name, unit, direction
  python3 perfbench/run.py --selftest      # attribution + gate transparency
  python3 perfbench/run.py --pin 1-10      # rewrite perfbench/pins.json

A run builds perfbench/runner.cc against ../src into .bench_build/ (Release
with debug info), then launches the runner, one GUPS result per process,
until --seconds have passed. Every result's virtual-time fingerprint must
equal the one pinned for its workload and seed (perfbench/pins.json) or, for
an unpinned seed, that of a 1-worker reference run made first. --trace 0
reports the end-to-end metrics as medians over the processes; --trace 1
runs traced processes for half of --seconds and reports the per-layer
metrics, the obs layer's from one more traced process with access
observation on. The last line of stdout is the result object; the line
before it is the run record.
"""

import argparse
import collections
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(OUT, "perfbench")
RUNNER = os.path.join(BUILD, "perfbench_runner")
RUNS = os.path.join(OUT, "runs")
PINS = os.path.join(HERE, "pins.json")

MODULES = ["apps", "sim", "tier", "mem", "vm", "pebs", "policy", "core", "obs", "common"]
# A public function of each module; the attribution self-test maps each to
# its module through the same addr2line path the traced run uses.
KNOWN_FUNCTIONS = {
    "apps": "hemem::GupsBenchmark::Run(",
    "sim": "hemem::Engine::Run(",
    "tier": "hemem::ParallelCoordinator::EpochHorizon(",
    "mem": "hemem::MemoryDevice::Access(",
    "vm": "hemem::Tlb::Shootdown(",
    "pebs": "hemem::PebsBuffer::CountAccess(",
    "policy": "hemem::policy::PaperDefaultPolicy::Decide(",
    "core": "hemem::Hemem::Start(",
    "obs": "hemem::obs::MetricsRegistry::Snapshot(",
    "common": "hemem::Rng::Next(",
}
SETUP_ONLY_RUNS = 15  # extra set-up-only processes per run for setup_s
MIN_RUNS = 3          # measured processes per run, however short --seconds is
MAX_FAILED = 3        # failed processes after which a run gives up
PROCESS_TIMEOUT_S = 60


class BenchError(Exception):
    pass


def load_spec():
    with open(os.path.join(HERE, "spec.json")) as f:
        return json.load(f)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---- Build ------------------------------------------------------------------

def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("library sources not found: %s/src" % ROOT)
    for tool in ("cmake", "addr2line", "nm"):
        if shutil.which(tool) is None:
            raise BenchError("required tool not found: " + tool)
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    log_path = os.path.join(OUT, "build.log")
    with open(log_path, "w") as build_log:
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"] + gen
            if subprocess.call(cmd, stdout=build_log, stderr=subprocess.STDOUT) != 0:
                raise BenchError("cmake configure failed, see " + log_path)
        cmd = ["cmake", "--build", BUILD, "--target", "perfbench_runner", "-j", jobs]
        if subprocess.call(cmd, stdout=build_log, stderr=subprocess.STDOUT) != 0:
            raise BenchError("build failed, see " + log_path)


def cmake_cache(key):
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return ""


def run_record(workload, seed, trace, workers, cpus, accesses):
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    compiler = cmake_cache("CMAKE_CXX_COMPILER")
    try:
        compiler = subprocess.run([compiler, "--version"], capture_output=True,
                                  text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        pass
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        got = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if got.returncode == 0:
            commit = got.stdout.strip()
    return {
        "workload": workload, "seed": seed, "trace": trace,
        "host_cores": os.cpu_count(), "cpu_model": cpu_model, "compiler": compiler,
        "build_type": cmake_cache("CMAKE_BUILD_TYPE") + " -g",
        "commit": commit, "source_digest": source_digest(),
        "host_workers": workers, "cpus_used": cpus, "simulated_accesses": accesses,
    }


def source_digest():
    """sha256 over the sources the runner is built from."""
    h = hashlib.sha256()
    for top in ("src", "bench", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cc", ".h", ".txt")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


# ---- Runner processes -------------------------------------------------------

class Result:
    """One runner process: its JSON output plus what the OS measured."""

    def __init__(self, out, wall_s, cpu_s, rss_mb):
        self.out = out
        self.wall_s = wall_s
        self.cpu_s = cpu_s
        self.rss_mb = rss_mb


def launch(workload, seed, extra=()):
    os.makedirs(RUNS, exist_ok=True)
    out_path = os.path.join(RUNS, "runner.out")
    err_path = os.path.join(RUNS, "runner.err")
    cmd = [RUNNER, "--workload=" + workload, "--seed=%d" % seed] + list(extra)
    with open(out_path, "w") as out, open(err_path, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err)
        watchdog = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall_s = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        with open(err_path) as f:
            tail = f.read()[-2000:]
        raise BenchError("runner %s exited with %d: %s" % (" ".join(cmd[1:]), proc.returncode,
                                                          tail.strip()))
    with open(out_path) as f:
        out = json.load(f)
    return Result(out, wall_s, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


def diff_fields(what, want, got):
    """Names every field of `got` that differs from `want`."""
    diffs = []
    for key in sorted(set(want) | set(got)):
        if want.get(key) != got.get(key):
            diffs.append("%s.%s: expected %s, got %s" % (what, key, want.get(key), got.get(key)))
    return diffs


class Checker:
    """Compares each result with the pinned or reference fingerprint."""

    def __init__(self, workload, seed):
        pins = load_pins()
        pin = pins.get(workload, {}).get(str(seed))
        self.reference = "pin"
        self.epochs = None
        if pin is not None:
            self.fingerprint = pin["fingerprint"]
            self.epochs = pin["epochs"]
        else:
            self.fingerprint = launch(workload, seed, ["--workers=1"]).out["fingerprint"]
            self.reference = "1-worker reference run"

    def problems(self, result):
        out = result.out
        problems = diff_fields("fingerprint", self.fingerprint, out["fingerprint"])
        if self.epochs is None:
            self.epochs = out["epochs"]  # later results must match the first
        problems += diff_fields("epochs", self.epochs, out["epochs"])
        return problems


def load_pins():
    try:
        with open(PINS) as f:
            return json.load(f)
    except FileNotFoundError:
        return {}


def measure(workload, seed, seconds, checker, stats, min_runs=MIN_RUNS, extra=lambda i: ()):
    """Launches runner processes until `seconds` have passed and at least
    `min_runs` of them passed the correctness check. Process i gets the
    extra arguments extra(i)."""
    results = []
    failed = 0
    t_end = time.perf_counter() + seconds
    while len(results) < min_runs or time.perf_counter() < t_end:
        if failed > MAX_FAILED:
            raise BenchError("%d runs failed" % failed)
        stats["attempted"] += 1
        try:
            result = launch(workload, seed, extra(len(results)))
            problems = checker.problems(result)
        except (BenchError, ValueError, KeyError) as e:
            problems = [str(e)]
        if problems:
            log("run failed the correctness check against the %s:\n  %s"
                % (checker.reference, "\n  ".join(problems)))
            stats["failed"] += 1
            failed += 1
            continue
        results.append(result)
    return results


def median(values):
    return statistics.median(values) if values else 0.0


def quartiles(values):
    return statistics.quantiles(values, n=4) if len(values) > 1 else list(values) * 3


# ---- Profile attribution ----------------------------------------------------

def module_of(path):
    """src/<module> of a source path, or None outside src/."""
    if path.startswith("??"):
        return None
    rel = os.path.relpath(os.path.realpath(path), os.path.realpath(ROOT))
    parts = rel.split(os.sep)
    if len(parts) >= 3 and parts[0] == "src" and parts[1] in MODULES:
        return parts[1]
    return None


def innermost_modules(addresses):
    """Maps each address to the src/<module> of its innermost inlined frame
    that lies in src/ (library code inlined into a src/ function, such as a
    std::push_heap, belongs to that function), or None when no frame does."""
    if not addresses:
        return {}
    text = "\n".join("0x%x" % a for a in addresses) + "\n"
    out = subprocess.run(["addr2line", "-i", "-a", "-e", RUNNER], input=text,
                         capture_output=True, text=True, check=True).stdout
    modules = {}
    current = None
    for line in out.splitlines():
        if line.startswith("0x"):
            current = int(line, 16)
            modules[current] = None
        elif current is not None and modules[current] is None:
            modules[current] = module_of(line.split(":", 1)[0])
    return modules


def known_function_addresses():
    out = subprocess.run(["nm", "-C", "--defined-only", RUNNER], capture_output=True,
                         text=True, check=True).stdout
    found = {}
    for line in out.splitlines():
        parts = line.split(" ", 2)
        if len(parts) < 3 or parts[1] not in ("T", "t") or "[clone" in parts[2]:
            continue
        for module, prefix in KNOWN_FUNCTIONS.items():
            if module not in found and parts[2].startswith(prefix):
                found[module] = int(parts[0], 16)
    return found


def attribution_selftest():
    """A known function of each module must map to that module."""
    found = known_function_addresses()
    mapped = innermost_modules(sorted(found.values()))
    problems = []
    for module, prefix in KNOWN_FUNCTIONS.items():
        if module not in found:
            problems.append("%s: symbol %s not found" % (module, prefix))
        elif mapped.get(found[module]) != module:
            problems.append("%s: %s maps to %s" % (module, prefix, mapped.get(found[module])))
    return problems


def attribute(traces):
    """Per-module self milliseconds per traced process, from the program
    counters sampled in all of them."""
    pcs = [pc for t in traces for pc in t["pcs"]]
    counts = collections.Counter(pcs)
    modules = innermost_modules(sorted(counts))
    per_module = collections.Counter()
    for pc, n in counts.items():
        per_module[modules.get(pc) or "unattributed"] += n
    total_ms = statistics.mean(t["sampled_cpu_s"] for t in traces) * 1e3
    scale = total_ms / len(pcs) if pcs else 0.0
    self_ms = {m: per_module[m] * scale for m in MODULES}
    unattributed_ms = per_module["unattributed"] * scale
    if abs(sum(self_ms.values()) + unattributed_ms - total_ms) > 1e-6 * max(total_ms, 1.0):
        raise BenchError("attribution: module self times plus unattributed time do not "
                         "sum to the sampled total")
    return self_ms, unattributed_ms, total_ms, len(pcs)


# ---- Metrics ----------------------------------------------------------------

def end_to_end_metrics(results, setups):
    return {
        "accesses_per_s": median([r.out["accesses"] / r.out["timing"]["run_s"] for r in results]),
        "wall_s": median([r.wall_s for r in results]),
        "setup_s": median([r.out["timing"]["setup_s"] for r in results + setups]),
        "cpu_s": median([r.cpu_s for r in results]),
        "peak_rss_mb": median([r.rss_mb for r in results]),
    }


def per_layer_metrics(traced, traces, untraced_wall_s):
    """Counts come from the first traced process (they are exact and equal in
    every process); host times are medians over the traced processes."""
    out = traced[0].out
    fp = out["fingerprint"]
    m = traces[0]["metrics"]
    gate = {k: median([t["gate"][k] for t in traces]) for k in traces[0]["gate"]}
    accesses = out["accesses"]
    self_ms, unattributed_ms, total_ms, samples = attribute(traces)

    def host(name):
        return median([t["metrics"].get(name, 0) for t in traces])

    def span_ms(name):
        return median([r.out["timing"][name] for r in traced])

    def metric(name, default=0):
        return m.get(name, default)

    def summed(suffix):
        return median([sum(v for k, v in t["metrics"].items()
                           if k.startswith("engine.worker.#") and k.endswith(suffix))
                       for t in traces])

    asks = traces[0]["gate"].get("asks", 0)
    grants = metric("engine.epoch.count")
    values = {
        "sim.epoch.asks": asks,
        "sim.epoch.grants": grants,
        "sim.epoch.grant_rate": grants / asks if asks else 0.0,
        "sim.epoch.refused": metric("engine.epoch.rejected"),
        "sim.epoch.ask_ms": gate.get("ask_ns", 0) / 1e6,
        "sim.epoch.virtual_frac": (metric("engine.epoch.virtual_ns") / fp["sim_end_ns"]
                                   if fp["sim_end_ns"] else 0.0),
        "sim.epoch.begin_ms": gate.get("begin_ns", 0) / 1e6,
        "sim.epoch.merge_ms": gate.get("merge_ns", 0) / 1e6,
        "sim.epoch.barrier_ms": host("engine.epoch.barrier_ns") / 1e6,
        "sim.worker.busy_ms": summed(".busy_ns") / 1e6,
        "sim.worker.stall_ms": summed(".stall_ns") / 1e6,
        "tier.ns_per_access": self_ms["tier"] * 1e6 / accesses,
        "tier.missing_faults": fp["manager.missing_faults"],
        "tier.wp_faults": fp["manager.wp_faults"],
        "tier.wp_wait_ms": fp["manager.wp_wait_ns"] / 1e6,
        "mem.accesses": accesses,
        "mem.nvm_queue_delay_ms": metric("device.nvm.queue_delay_total_ns") / 1e6,
        "mem.dma.batches": metric("dma.batches"),
        "mem.dma.bytes": metric("dma.bytes_copied"),
        "mem.dma.retries": metric("dma.retries"),
        "vm.tlb.shootdowns": metric("tlb.shootdowns"),
        "vm.tlb.victim_interrupts": metric("tlb.victim_interrupts"),
        "pebs.samples": metric("pebs.samples_written"),
        "pebs.drop_rate": metric("pebs.drop_rate", 0.0),
        "policy.passes": fp.get("hemem.policy_passes", 0),
        "core.pages_promoted": fp["manager.pages_promoted"],
        "core.pages_demoted": fp["manager.pages_demoted"],
        "core.bytes_migrated": fp["manager.bytes_migrated"],
        "apps.sim_gups": fp["sim_gups"],
        "apps.sim_end_ms": fp["sim_end_ns"] / 1e6,
        "setup.machine_ms": span_ms("machine_ms"),
        "setup.host_workers_ms": span_ms("host_workers_ms"),
        "setup.start_ms": span_ms("start_ms"),
        "setup.prepare_ms": span_ms("prepare_ms"),
        "trace.overhead_x": median([r.wall_s for r in traced]) / untraced_wall_s,
        "trace.unattributed_frac": unattributed_ms / total_ms if total_ms else 0.0,
        "trace.samples": samples,
    }
    for module in MODULES:
        values[module + ".self_ms"] = self_ms[module]
    return values


def obs_metrics(observed, trace, traced):
    """The obs layer, from one traced process with access observation on."""
    self_ms = attribute([trace])[0]["obs"]
    return {
        "obs.self_ms": self_ms,
        "obs.ns_per_access": self_ms * 1e6 / observed.out["accesses"],
        "obs.overhead_x": observed.wall_s / median([r.wall_s for r in traced]),
        "obs.epoch_grants": trace["metrics"].get("engine.epoch.count", 0),
    }


def with_units(values, specs):
    missing = [s["name"] for s in specs if s["name"] not in values]
    if missing:
        raise BenchError("metrics not computed: " + ", ".join(missing))
    return {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs}


# ---- Commands ---------------------------------------------------------------

def run(args, spec):
    build()
    stats = {"attempted": 0, "failed": 0}
    checker = Checker(args.workload, args.seed)
    if args.trace == 0:
        setups = [launch(args.workload, args.seed, ["--setup-only"])
                  for _ in range(SETUP_ONLY_RUNS)]
        results = measure(args.workload, args.seed, args.seconds, checker, stats)
        metrics = with_units(end_to_end_metrics(results, setups), spec["end_to_end"])
        details = {"wall_s_quartiles": quartiles([r.wall_s for r in results]),
                  "setup_s_samples": len(results) + len(setups)}
    else:
        problems = attribution_selftest()
        if problems:
            raise BenchError("attribution self-test: " + "; ".join(problems))
        # Untraced processes first: their median wall time is the base of
        # trace.overhead_x, and their epoch decisions are what the traced
        # processes (through the timing gate) must reproduce.
        results = measure(args.workload, args.seed, 0, checker, stats)
        paths = [os.path.join(RUNS, "%s-seed%d-%d.trace.json" % (args.workload, args.seed, i))
                 for i in range(64)]
        traced = measure(args.workload, args.seed, args.seconds / 2, checker, stats, min_runs=1,
                         extra=lambda i: ["--trace=" + paths[i % 64]])
        traces = []
        for i in range(len(traced)):
            with open(paths[i % 64]) as f:
                traces.append(json.load(f))
        # One more traced process with access observation on measures the obs
        # layer. Observation must leave the fingerprint unchanged; it refuses
        # every epoch, so its epoch decisions are not compared.
        obs_path = os.path.join(RUNS, "%s-seed%d-observed.trace.json" % (args.workload, args.seed))
        stats["attempted"] += 1
        observed = launch(args.workload, args.seed, ["--trace=" + obs_path, "--observe"])
        problems = diff_fields("fingerprint", checker.fingerprint, observed.out["fingerprint"])
        if problems:
            stats["failed"] += 1
            raise BenchError("observed run: " + "; ".join(problems))
        with open(obs_path) as f:
            observed_trace = json.load(f)
        values = per_layer_metrics(traced, traces, median([r.wall_s for r in results]))
        values.update(obs_metrics(observed, observed_trace, traced))
        metrics = with_units(values, spec["per_layer"])
        details = {"traced_processes": len(traced)}
    first = results[0].out
    record = run_record(args.workload, args.seed, args.trace, first["workers"], first["cpus"],
                        first["accesses"])
    record.update(details)
    record.update({"reference": checker.reference, "measured_processes": len(results),
                   "failed_frac": stats["failed"] / stats["attempted"]})
    print("run record: " + json.dumps(record, sort_keys=True))
    with open(os.path.join(RUNS, "%s-seed%d-trace%d.json" % (args.workload, args.seed,
                                                              args.trace)), "w") as f:
        json.dump({"record": record, "metrics": metrics,
                   "processes": [{"wall_s": r.wall_s, "cpu_s": r.cpu_s, "rss_mb": r.rss_mb,
                                  "timing": r.out["timing"]} for r in results]}, f, indent=1)
    print(json.dumps({"correct": stats["failed"] == 0, "attempted": stats["attempted"],
                      "failed": stats["failed"], "metrics": metrics}), flush=True)


def list_metrics(spec):
    """Every metric with its unit, direction and, for per-layer metrics, the
    end-to-end metrics it should move and on which workloads."""
    rows = [("metric", "unit", "better", "layer", "moves", "on", "stays put on")]
    for s in spec["end_to_end"]:
        rows.append((s["name"], s["unit"], s["better"], "end-to-end", "", "", ""))
    for s in spec["per_layer"]:
        rows.append((s["name"], s["unit"], s["better"], s["layer"], ",".join(s["moves"]) or "-",
                     ",".join(s["on"]), ",".join(s["stays_put_on"]) or "-"))
    width = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    for r in rows:
        print("  ".join(c.ljust(w) for c, w in zip(r, width)).rstrip())


def benchmark_json(spec):
    """BENCHMARK.json as derived from spec.json."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": spec["run_seconds"],
        "workloads": [{"name": w["name"], "why": w["why"]} for w in spec["workloads"]],
        "end_to_end": [{k: s[k] for k in ("name", "unit", "better", "bound")}
                       for s in spec["end_to_end"]],
        "per_layer": [{k: s[k] for k in ("name", "unit", "better")} for s in spec["per_layer"]],
    }


def selftest():
    """Attribution self-test, and the timing gate's transparency."""
    build()
    problems = ["attribution: " + p for p in attribution_selftest()]
    for workload in ("gups-hot", "gups-dram"):
        plain = launch(workload, 1).out
        gated = launch(workload, 1, ["--gate-timer"]).out
        diffs = diff_fields("fingerprint", plain["fingerprint"], gated["fingerprint"])
        diffs += diff_fields("epochs", plain["epochs"], gated["epochs"])
        if plain["workers"] < 2:
            diffs.append("runs at 1 host worker, so the gate is never asked")
        print("%s: fingerprint and epochs %s with the timing gate"
              % (workload, "differ" if diffs else "identical"))
        problems += ["%s: %s" % (workload, d) for d in diffs]
    for p in problems:
        log("selftest: " + p)
    print("selftest %s" % ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def pin(seeds, spec):
    """Pins each workload's fingerprint for `seeds` from 1-worker reference runs,
    and its epoch decisions from a run at the workload's own worker count."""
    build()
    pins = load_pins()
    for workload in [w["name"] for w in spec["workloads"]]:
        for seed in seeds:
            ref = launch(workload, seed, ["--workers=1"]).out
            own = launch(workload, seed).out
            problems = diff_fields("fingerprint", ref["fingerprint"], own["fingerprint"])
            if problems:
                raise BenchError("%s seed %d: %s" % (workload, seed, "; ".join(problems)))
            pins.setdefault(workload, {})[str(seed)] = {
                "fingerprint": own["fingerprint"], "epochs": own["epochs"]}
            log("pinned %s seed %d" % (workload, seed))
    with open(PINS, "w") as f:
        json.dump(pins, f, indent=1, sort_keys=True)
        f.write("\n")


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--list", action="store_true", help="print every metric")
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--pin", metavar="SEEDS", help="pin fingerprints, e.g. 1-10")
    parser.add_argument("--benchmark-json", action="store_true",
                        help="print BENCHMARK.json as derived from spec.json")
    args = parser.parse_args()
    try:
        spec = load_spec()
        if args.list:
            list_metrics(spec)
            return 0
        if args.benchmark_json:
            print(json.dumps(benchmark_json(spec), indent=1))
            return 0
        if args.selftest:
            return selftest()
        if args.pin:
            pin(parse_seeds(args.pin), spec)
            return 0
        if args.workload not in [w["name"] for w in spec["workloads"]]:
            raise BenchError("--workload must be one of: " +
                             ", ".join(w["name"] for w in spec["workloads"]))
        if args.seed < 0:
            raise BenchError("--seed must be non-negative")
        run(args, spec)
        return 0
    except (BenchError, OSError, subprocess.CalledProcessError) as e:
        log("perfbench: %s" % e)
        return 1


if __name__ == "__main__":
    sys.exit(main())
