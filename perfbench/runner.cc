// Host-time benchmark runner: one GUPS result per process.
//
// Builds the workload named by --workload from the library's public API,
// times each call the benchmark makes into it, and prints one JSON object
// on stdout: the virtual-time fingerprint (the correctness check compares
// it), the host timings, and the simulated access count. run.py launches
// this binary repeatedly and turns the objects into metrics.
//
// --trace=FILE makes this the traced run: the epoch gate is wrapped in a
// timing decorator, the program counter of every host thread is sampled
// with ITIMER_PROF, and spans, gate timings, the counters of
// Machine::metrics().Snapshot() and the raw samples are written to FILE.
// run.py maps the samples to src/<module> with addr2line. --observe turns on
// Machine::EnableAccessObservation(), which must not change the fingerprint.

#include <sched.h>
#include <signal.h>
#include <sys/time.h>
#include <ucontext.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <memory>
#include <string>
#include <vector>

#include "gups_bench.h"
#include "tier/parallel.h"

namespace {

using namespace hemem;
using namespace hemem::bench;

double NowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuS() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// ---- Workloads -------------------------------------------------------------

struct Workload {
  std::string system;  // MakeSystem name
  int workers = 2;
  // Confine every host thread to one CPU. See MakeWorkload.
  bool one_cpu = false;
  GupsConfig gups;
};

// The paper's headline GUPS inputs (StandardHotGups: 512 GiB working set,
// 16 GiB hot, 90% of operations hot, prefilled, 16 threads). Each thread
// runs a fixed number of updates after its prefill, so a result's work is
// fixed by the inputs, not by how far a deadline happens to reach.
GupsConfig HotGups(uint64_t seed, uint64_t updates_per_thread) {
  GupsConfig config = StandardHotGups(16);
  config.seed = seed;
  config.updates_per_thread = updates_per_thread;
  return config;
}

// Update counts are sized for one to two host seconds per result.
//
// gups-hot runs on one CPU. Its gate grants about 1,600 short epochs per
// result, and at each one a host thread goes to sleep and another wakes. On
// a virtual machine a wake on an idle CPU waits until the hypervisor runs
// that virtual CPU again, which added 5-20% to the wall time, varying with
// the load of other guests. On one CPU the hand-off is a context switch.
// The granted epochs cover under 0.1% of its virtual time, so the lost
// parallelism costs nothing measurable; gups-dram measures parallel epochs.
bool MakeWorkload(const std::string& name, uint64_t seed, Workload* w) {
  if (name == "gups-hot") {
    w->system = "HeMem";
    w->one_cpu = true;
    w->gups = HotGups(seed, 350'000);
  } else if (name == "gups-dram") {
    w->system = "DRAM";
    w->gups = HotGups(seed, 1'200'000);
  } else {
    return false;
  }
  return true;
}

// Records the simulated end time the engine reports at the end of Run().
// The engine calls its observer only on cold paths, so installing one does
// not change execution.
class EndObserver : public EngineObserver {
 public:
  void OnRunFinished(SimTime end) override { end_ = end; }
  SimTime end() const { return end_; }

 private:
  SimTime end_ = 0;
};

// ---- Timing epoch gate -----------------------------------------------------

// Forwards every call to a ParallelCoordinator the benchmark owns and times
// the gate's three host-time entry points. Decisions are the inner
// coordinator's, unchanged.
class TimingGate : public EpochGate {
 public:
  explicit TimingGate(Machine& machine) : inner_(machine) {}

  SimTime EpochHorizon(SimTime frontier, SimTime want,
                       const std::vector<SimThread*>& shard_threads) override {
    const auto t0 = std::chrono::steady_clock::now();
    const SimTime horizon = inner_.EpochHorizon(frontier, want, shard_threads);
    ask_ns += Ns(t0);
    asks++;
    return horizon;
  }
  void BeginEpoch(int views) override {
    const auto t0 = std::chrono::steady_clock::now();
    inner_.BeginEpoch(views);
    begin_ns += Ns(t0);
  }
  void BindShard(int view) override { inner_.BindShard(view); }
  void UnbindShard() override { inner_.UnbindShard(); }
  void MergeEpoch(SimTime horizon, int views) override {
    const auto t0 = std::chrono::steady_clock::now();
    inner_.MergeEpoch(horizon, views);
    merge_ns += Ns(t0);
  }

  uint64_t asks = 0;
  uint64_t ask_ns = 0;
  uint64_t begin_ns = 0;
  uint64_t merge_ns = 0;

 private:
  static uint64_t Ns(std::chrono::steady_clock::time_point t0) {
    return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                     std::chrono::steady_clock::now() - t0)
                                     .count());
  }

  ParallelCoordinator inner_;
};

// ---- PC sampler ------------------------------------------------------------

// ITIMER_PROF counts the CPU time of the whole process; Linux delivers the
// expiry signal to the thread whose tick expired it, so every busy host
// thread is sampled in proportion to its CPU time.
constexpr size_t kMaxSamples = size_t{1} << 20;
// Requested period; the kernel tick (commonly 4 ms) may coarsen it. run.py
// weights samples by the process CPU time, so only their shares matter.
constexpr long kSampleUs = 1000;
uintptr_t g_pcs[kMaxSamples];  // untouched, so not resident, unless traced
std::atomic<size_t> g_samples{0};

void OnProf(int /*sig*/, siginfo_t* /*info*/, void* ucontext) {
  const auto* uc = static_cast<const ucontext_t*>(ucontext);
#if defined(__x86_64__)
  const auto pc = static_cast<uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
  const auto pc = static_cast<uintptr_t>(uc->uc_mcontext.pc);
#else
  const uintptr_t pc = 0;
  (void)uc;
#endif
  const size_t i = g_samples.fetch_add(1, std::memory_order_relaxed);
  if (i < kMaxSamples) {
    g_pcs[i] = pc;
  }
}

void SetProfTimer(long usec) {
  itimerval it{};
  it.it_interval.tv_usec = usec;
  it.it_value.tv_usec = usec;
  setitimer(ITIMER_PROF, &it, nullptr);
}

void StartSampler() {
  struct sigaction sa {};
  sa.sa_sigaction = OnProf;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, nullptr);
  SetProfTimer(kSampleUs);
}

void StopSampler() {
  SetProfTimer(0);
  signal(SIGPROF, SIG_IGN);
}

// Keeps the process on the CPU it started on. Threads started later
// inherit the mask.
bool ConfineToOneCpu() {
  const int cpu = sched_getcpu();
  if (cpu < 0) return false;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  return sched_setaffinity(0, sizeof(one), &one) == 0;
}

// ---- Output ----------------------------------------------------------------

// Ordered name -> value map printed as a flat JSON object. Values are kept as
// preformatted text so exact integers and full-precision doubles survive.
class Fields {
 public:
  void U(const std::string& k, uint64_t v) { m_.emplace_back(k, std::to_string(v)); }
  void D(const std::string& k, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    m_.emplace_back(k, buf);
  }
  std::string Json() const {
    std::string out = "{";
    for (size_t i = 0; i < m_.size(); ++i) {
      out += (i ? ", \"" : "\"") + m_[i].first + "\": " + m_[i].second;
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> m_;
};

struct Span {
  const char* name;
  double begin_s;
  double end_s;
};

int Usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench_runner: %s\n"
               "usage: perfbench_runner --workload=NAME --seed=N [--workers=N] "
               "[--setup-only] [--observe] [--gate-timer] [--trace=FILE]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  uint64_t seed = 0;
  bool have_seed = false;
  int workers = -1;
  bool gate_timer = false;
  bool setup_only = false;
  bool observe = false;
  std::string trace_path;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&a](const char* flag) -> const char* {
      const size_t n = std::strlen(flag);
      return a.compare(0, n, flag) == 0 ? a.c_str() + n : nullptr;
    };
    char* rest = nullptr;
    if (const char* v = value("--workload=")) {
      workload_name = v;
    } else if (const char* v = value("--seed=")) {
      seed = std::strtoull(v, &rest, 10);
      have_seed = *v != '\0' && *rest == '\0';
    } else if (const char* v = value("--workers=")) {
      workers = static_cast<int>(std::strtol(v, &rest, 10));
      if (*rest != '\0' || workers < 1) return Usage("bad --workers");
    } else if (a == "--setup-only") {
      setup_only = true;
    } else if (a == "--observe") {
      observe = true;
    } else if (a == "--gate-timer") {
      gate_timer = true;
    } else if (const char* v = value("--trace=")) {
      trace_path = v;
      gate_timer = true;
    } else {
      return Usage(("unknown argument " + a).c_str());
    }
  }
  Workload w;
  if (!have_seed) return Usage("--seed=N is required");
  if (!MakeWorkload(workload_name, seed, &w)) return Usage("unknown --workload");
  if (workers > 0) w.workers = workers;
  const bool traced = !trace_path.empty();
  if (w.one_cpu && !ConfineToOneCpu()) {
    std::fprintf(stderr, "perfbench_runner: cannot confine the process to one CPU\n");
    return 1;
  }

  std::vector<Span> spans;
  auto span = [&spans](const char* name, double t0) { spans.push_back({name, t0, NowS()}); };

  if (traced) StartSampler();
  const double cpu0 = ProcessCpuS();
  const double setup0 = NowS();

  EndObserver end_observer;  // outlives the machine that points to it
  double t = NowS();
  Machine machine(GupsMachine());
  machine.engine().set_observer(&end_observer);
  if (observe) machine.EnableAccessObservation();
  span("machine", t);

  t = NowS();
  machine.EnableHostWorkers(w.workers);
  std::unique_ptr<TimingGate> gate;
  if (gate_timer && w.workers > 1) {
    gate = std::make_unique<TimingGate>(machine);
    machine.engine().set_epoch_gate(gate.get());
  }
  span("host_workers", t);

  t = NowS();
  std::unique_ptr<TieredMemoryManager> manager = MakeSystem(w.system, machine);
  manager->Start();
  span("start", t);

  t = NowS();
  GupsBenchmark gups(*manager, w.gups);
  gups.Prepare();
  span("prepare", t);
  const double setup_s = NowS() - setup0;
  if (setup_only) {
    std::printf("{\"timing\": {\"setup_s\": %.17g}}\n", setup_s);
    return 0;
  }

  t = NowS();
  const GupsResult result = gups.Run();
  span("run", t);
  const double run_s = spans.back().end_s - spans.back().begin_s;
  const double cpu_s = ProcessCpuS() - cpu0;
  if (traced) StopSampler();

  // ---- Fingerprint: virtual-time results, independent of host workers ----
  auto* hemem_manager = dynamic_cast<Hemem*>(manager.get());
  Fields fp;
  fp.U("sim_end_ns", end_observer.end());
  fp.D("sim_gups", result.gups);
  fp.U("updates", result.total_updates);
  fp.U("measured_ns", result.elapsed);
  const ManagerStats& ms = manager->stats();
  fp.U("manager.missing_faults", ms.missing_faults);
  fp.U("manager.wp_faults", ms.wp_faults);
  fp.U("manager.wp_wait_ns", ms.wp_wait_ns);
  fp.U("manager.pages_promoted", ms.pages_promoted);
  fp.U("manager.pages_demoted", ms.pages_demoted);
  fp.U("manager.bytes_migrated", ms.bytes_migrated);
  fp.U("manager.small_allocs", ms.small_allocs);
  fp.U("manager.managed_allocs", ms.managed_allocs);
  fp.U("dram.loads", machine.dram().stats().loads);
  fp.U("dram.stores", machine.dram().stats().stores);
  fp.U("nvm.loads", machine.nvm().stats().loads);
  fp.U("nvm.stores", machine.nvm().stats().stores);
  if (hemem_manager != nullptr) {
    const HememStats& hs = hemem_manager->hstats();
    fp.U("hemem.samples_processed", hs.samples_processed);
    fp.U("hemem.cooling_epochs", hs.cooling_epochs);
    fp.U("hemem.policy_passes", hs.policy_passes);
    fp.U("hemem.promotion_stalls", hs.promotion_stalls);
    fp.U("hemem.migration_aborts", hs.migration_aborts);
    fp.U("hemem.deferred_allocs", hs.deferred_allocs);
    fp.U("hemem.txn_starts", hs.txn_starts);
    fp.U("hemem.txn_commits", hs.txn_commits);
    fp.U("hemem.txn_aborts", hs.txn_aborts);
    fp.U("hemem.shadow_demotions", hs.shadow_demotions);
    fp.U("hemem.shadow_invalidations", hs.shadow_invalidations);
    fp.U("hemem.shadow_reclaims", hs.shadow_reclaims);
  }
  // Epoch decisions depend only on virtual state, so they are pinned for a
  // fixed worker count (not across worker counts).
  const Engine::EpochStats& es = machine.engine().epoch_stats();
  Fields epochs;
  epochs.U("workers", static_cast<uint64_t>(w.workers));
  epochs.U("count", es.epochs);
  epochs.U("rejected", es.rejected);
  epochs.U("threads", es.epoch_threads);
  epochs.U("virtual_ns", es.virtual_ns);

  const uint64_t accesses = machine.dram().stats().loads + machine.dram().stats().stores +
                            machine.nvm().stats().loads + machine.nvm().stats().stores;
  Fields timing;
  timing.D("setup_s", setup_s);
  timing.D("run_s", run_s);
  timing.D("cpu_s", cpu_s);
  for (const Span& s : spans) {
    timing.D(std::string(s.name) + "_ms", (s.end_s - s.begin_s) * 1e3);
  }

  if (traced) {
    FILE* f = std::fopen(trace_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "perfbench_runner: cannot write %s\n", trace_path.c_str());
      return 1;
    }
    Fields g;
    if (gate != nullptr) {
      g.U("asks", gate->asks);
      g.U("ask_ns", gate->ask_ns);
      g.U("begin_ns", gate->begin_ns);
      g.U("merge_ns", gate->merge_ns);
    }
    Fields metrics;
    const obs::MetricsSnapshot snapshot = machine.metrics().Snapshot();
    for (const obs::MetricEntry& e : snapshot.entries()) {
      if (e.value.kind == obs::MetricValue::Kind::kUint) {
        metrics.U(e.name, e.value.u);
      } else {
        metrics.D(e.name, e.value.d);
      }
    }
    std::fprintf(f, "{\"spans\": [");
    for (size_t i = 0; i < spans.size(); ++i) {
      std::fprintf(f, "%s{\"name\": \"%s\", \"begin_s\": %.9f, \"end_s\": %.9f}",
                   i ? ", " : "", spans[i].name, spans[i].begin_s - spans[0].begin_s,
                   spans[i].end_s - spans[0].begin_s);
    }
    const size_t n = std::min(g_samples.load(), kMaxSamples);
    std::fprintf(f, "],\n\"gate\": %s,\n\"metrics\": %s,\n"
                 "\"sampled_cpu_s\": %.9f,\n\"samples_lost\": %zu,\n\"pcs\": [",
                 g.Json().c_str(), metrics.Json().c_str(), cpu_s,
                 g_samples.load() - n);
    for (size_t i = 0; i < n; ++i) {
      std::fprintf(f, "%s%zu", i ? "," : "", static_cast<size_t>(g_pcs[i]));
    }
    std::fprintf(f, "]}\n");
    std::fclose(f);
  }

  cpu_set_t allowed;
  const int cpus = sched_getaffinity(0, sizeof(allowed), &allowed) == 0 ? CPU_COUNT(&allowed) : 0;
  std::printf("{\"workload\": \"%s\", \"seed\": %lu, \"workers\": %d, \"cpus\": %d, \"accesses\": %lu, "
              "\"fingerprint\": %s,\n \"epochs\": %s,\n"
              " \"timing\": %s}\n",
              workload_name.c_str(), static_cast<unsigned long>(seed), w.workers, cpus,
              static_cast<unsigned long>(accesses), fp.Json().c_str(),
              epochs.Json().c_str(), timing.Json().c_str());
  return 0;
}
