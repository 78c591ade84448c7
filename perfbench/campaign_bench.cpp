// Campaign benchmark program.
//
// Runs one workload through the entry points the `sfi` CLI uses —
// sched::run_campaign_to_store for in-process campaigns, and
// farm::run_farm_campaign with fork-call workers for the farm — with the
// CLI's defaults for shard size, flush size and farm metrics cadence, and
// checks every campaign it times against an exact oracle computed in the
// same run (oracle.hpp).
//
//   campaign_bench --workload NAME --seed N --seconds S --trace 0|1
//                    --work DIR --results DIR [--source-id ID] [--git-sha SHA]
//   campaign_bench --selftest --work DIR
//
// --trace 0 measures the end-to-end metrics (tracing off). --trace 1 is the
// separate traced run: it times the benchmark's own calls into each layer
// (avp, emu, core, sfi runner/engine, sched, store, farm) as spans and
// reports the per-layer metrics. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}. The line
// before it, prefixed "perfbench-record: ", carries the run's metadata and
// deterministic counters for the ledger. README.md maps every metric to its
// layer and workload.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "avp/runner.hpp"
#include "avp/testgen.hpp"
#include "emu/checkpoint_store.hpp"
#include "farm/farm.hpp"
#include "oracle.hpp"
#include "sched/scheduler.hpp"
#include "sfi/engine.hpp"
#include "sfi/telemetry.hpp"
#include "spans.hpp"
#include "stats/rng.hpp"
#include "store/merge.hpp"
#include "store/reader.hpp"
#include "store/writer.hpp"
#include "telemetry/json.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PERFBENCH_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer) || __has_feature(undefined_behavior_sanitizer)
#define PERFBENCH_SANITIZED 1
#endif
#endif

namespace fs = std::filesystem;
using namespace sfi;
using perfbench::SpanLog;
using perfbench::SpanScope;
using perfbench::StoreCheck;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Load: one process with 2 scheduler threads or 2 farm workers. Fixed rather
// than derived from the host so every machine does the same work per run.
constexpr u32 kThreads = 2;
// The CLI's defaults (`sfi campaign --shard-size 64 --flush 32`, farm
// `--metrics-every 32`).
constexpr u32 kShardSize = 64;
constexpr u32 kFlushRecords = 32;
constexpr u32 kMetricsEvery = 32;

struct Workload {
  const char* name;
  inject::EngineKind engine;
  bool raw;   ///< all core checkers masked (Table 3 "Raw")
  bool farm;  ///< run by the farm instead of the in-process scheduler
  /// Testcase instruction budget at the reference seed 2026, and the
  /// fault-free length in cycles it gives there. Every other seed's testcase
  /// is sized to the same length (make_testcase), so seeds vary the program,
  /// not the amount of work per injection.
  u32 budget;
  Cycle target_cycles;
  u32 injections;  ///< per timed campaign
};

// avp-scalar and avp-lanes share inputs and size: their canonical stores
// must be byte-identical for the same seed.
constexpr Workload kWorkloads[] = {
    {"avp-scalar", inject::EngineKind::Scalar, false, false, 160, 982, 5000},
    {"avp-lanes", inject::EngineKind::Lanes, false, false, 160, 982, 5000},
    {"long-raw-farm", inject::EngineKind::Scalar, true, true, 1200, 5577, 1000},
};

/// Work per run. The self-test shrinks all of it.
struct Sizes {
  u32 testcases = 4;
  double injection_scale = 1.0;
  u32 min_rounds = 2;
  u32 setup_reps = 6;  ///< traced run's layer-by-layer set-up
  u32 step_reps = 9;
  u32 runner_sample = 1000;  ///< >= 1000 so p99 has ten samples beyond it
  u32 engine_sample = 1000;
  u32 probe_sample = 250;  ///< engine probe per testcase in measured runs
  u32 oracle_sample = 256;
};

struct Options {
  std::string workload;
  u64 seed = 0;
  double seconds = 10.0;
  bool trace = false;
  bool selftest = false;
  std::string work_dir;
  std::string results_dir;
  std::string source_id = "unknown";
  std::string git_sha = "unknown";
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct RunOutput {
  std::vector<Metric> metrics;
  u64 attempted = 0;
  u64 failed = 0;
  bool correct = true;
  std::vector<std::string> notes;
  std::map<std::string, u64> counters;  ///< deterministic work counters
  /// Canonical store digest per testcase, joined by '.'.
  std::string digest;
  /// Per testcase: generator budget, instructions and fault-free cycles.
  std::vector<u64> budgets, instructions, cycles;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void fail(std::string note) {
    correct = false;
    notes.push_back(std::move(note));
  }
  /// Count a checked campaign into attempted/failed.
  void count(const StoreCheck& check, u32 n, const std::string& what) {
    attempted += n;
    const u64 f = check.failed(n);
    failed += f;
    if (f != 0) {
      fail(what + ": " + std::to_string(f) + " failed injection(s)");
      for (const auto& note : check.notes) notes.push_back("  " + note);
    }
  }
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 != 0 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Nearest-rank percentile (q in [0, 1]).
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

/// Reset the kernel's peak-RSS mark for this process (Linux clear_refs).
bool reset_peak_rss() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.flush();
  return static_cast<bool>(f);
}

/// Peak resident memory in MiB since reset_peak_rss() (or since start when
/// the reset was refused), plus the largest reaped child process — the farm's
/// workers.
double peak_rss_mib(bool since_reset) {
  double self_kib = 0.0;
  std::ifstream status("/proc/self/status");
  std::string line;
  while (since_reset && std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) self_kib = std::stod(line.substr(6));
  }
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  if (self_kib == 0.0) self_kib = static_cast<double>(self.ru_maxrss);
  return (self_kib + static_cast<double>(children.ru_maxrss)) / 1024.0;
}

std::string cpu_model() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        const auto start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

/// The workload's testcase for `seed`: the AVP generator's program for that
/// seed, sized so its fault-free run is as long as the workload's reference
/// testcase (within 2%, else the closest budget a bisection finds).
avp::Testcase make_testcase(const Workload& wl, u64 seed, u32* budget_out) {
  const auto generate = [seed](u32 budget) {
    avp::TestcaseConfig tc;
    tc.seed = seed;
    tc.num_instructions = budget;
    return avp::generate_testcase(tc);
  };
  const auto cycles_of = [](const avp::Testcase& tc) {
    return avp::measure_mix(tc).cycles;
  };
  const auto distance = [&wl](Cycle c) {
    return c > wl.target_cycles ? c - wl.target_cycles : wl.target_cycles - c;
  };
  u32 best_budget = wl.budget;
  avp::Testcase best = generate(best_budget);
  Cycle best_distance = distance(cycles_of(best));
  if (best_distance * 50 > wl.target_cycles) {
    const auto consider = [&](u32 budget) {
      avp::Testcase tc = generate(budget);
      const Cycle c = cycles_of(tc);
      if (distance(c) < best_distance) {
        best_distance = distance(c);
        best_budget = budget;
        best = std::move(tc);
      }
      return c;
    };
    u32 lo = std::max<u32>(wl.budget / 4, 8);
    u32 hi = wl.budget * 4;
    while (lo < hi) {
      const u32 mid = lo + (hi - lo) / 2;
      if (consider(mid) < wl.target_cycles) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    consider(lo);
  }
  *budget_out = best_budget;
  return best;
}

inject::CampaignConfig make_config(const Workload& wl, u64 seed, u32 n) {
  inject::CampaignConfig cfg;
  cfg.seed = seed;
  cfg.num_injections = n;
  cfg.threads = kThreads;
  cfg.core.checkers_enabled = !wl.raw;
  cfg.engine = wl.engine;
  return cfg;
}

/// What one campaign entry call returned, plus what the benchmark observed
/// around it.
struct EntryRun {
  double wall_s = 0.0;  ///< wall time of the entry call
  u64 executed = 0;
  bool complete = false;
  inject::CampaignAggregate agg;
  u64 shards = 0;
  u64 assignments = 0;
  u64 retries = 0;
  /// Traced runs only: progress (seconds since the call, done) and the
  /// first and last farm record timestamps.
  std::vector<std::pair<double, u64>> progress;
  double first_record_s = -1.0;
  double last_record_s = -1.0;
};

/// The campaign entry call in progress, as the `sfi campaign` command that
/// makes the same call. Written by the main thread before each call; read
/// only by on_terminate().
std::atomic<const std::string*> g_entry_call{nullptr};

/// An exception thrown inside a library worker thread cannot be caught here:
/// the library's thread lets it escape, and the process ends in
/// std::terminate. Say which campaign was running, so the failure can be
/// reproduced with the CLI, then abort as the default handler would.
[[noreturn]] void on_terminate() {
  std::string what = "unknown exception";
  if (const std::exception_ptr e = std::current_exception()) {
    try {
      std::rethrow_exception(e);
    } catch (const std::exception& ex) {
      what = ex.what();
    } catch (...) {
    }
  }
  const std::string* call = g_entry_call.load();
  std::cerr << "perfbench: the library threw out of a worker thread (" << what
            << ") and the process must abort; "
            << (call != nullptr ? "campaign running: " + *call
                                : std::string("no campaign entry call running"))
            << std::endl;
  std::abort();
}

/// The `sfi campaign` command line that runs the same campaign.
std::string cli_equivalent(bool farm_route, const avp::Testcase& tc,
                           const inject::CampaignConfig& cfg) {
  std::string cmd = "sfi campaign --testcase-seed " +
                    std::to_string(tc.config.seed) + " --instructions " +
                    std::to_string(tc.config.num_instructions) + " --seed " +
                    std::to_string(cfg.seed) + " --n " +
                    std::to_string(cfg.num_injections);
  if (!cfg.core.checkers_enabled) cmd += " --raw";
  if (cfg.engine == inject::EngineKind::Lanes) cmd += " --engine lanes";
  cmd += farm_route ? " --workers " : " --threads ";
  return cmd + std::to_string(kThreads) + " --out FILE.sfr";
}

/// One campaign through the CLI's entry point for the workload: the farm
/// with fork-call workers, or the in-process store scheduler. The CLI always
/// installs a progress callback; the untraced run installs one that only
/// keeps the latest count, the traced run one that only records timestamps.
EntryRun run_entry(bool farm_route, const avp::Testcase& tc,
                   const inject::CampaignConfig& cfg, const std::string& out,
                   bool traced) {
  EntryRun r;
  const std::string call = cli_equivalent(farm_route, tc, cfg);
  struct Running {
    explicit Running(const std::string* c) { g_entry_call.store(c); }
    ~Running() { g_entry_call.store(nullptr); }
  } running(&call);
  std::atomic<u64> last_done{0};
  const auto t0 = Clock::now();
  const auto on_progress = [&](const sched::Progress& p) {
    if (traced) {
      r.progress.emplace_back(seconds_since(t0), p.done);
    } else {
      last_done.store(p.done, std::memory_order_relaxed);
    }
  };
  if (farm_route) {
    farm::FarmConfig fc;
    fc.workers = kThreads;
    fc.shard_size = kShardSize;
    fc.metrics_every = kMetricsEvery;
    fc.on_progress = on_progress;
    if (traced) {
      fc.on_record = [&](const store::StoredRecord&) {
        const double t = seconds_since(t0);
        if (r.first_record_s < 0.0) r.first_record_s = t;
        r.last_record_s = t;
      };
    }
    const farm::FarmResult fr = farm::run_farm_campaign(tc, cfg, out, fc);
    r.wall_s = seconds_since(t0);
    r.executed = fr.executed;
    r.complete = fr.complete && fr.harness_fatal.empty();
    r.agg = fr.agg;
    r.assignments = fr.assignments;
    r.retries = fr.shard_retries;
    r.shards = fr.assignments - fr.shard_retries;
  } else {
    sched::SchedulerConfig sc;
    sc.threads = kThreads;
    sc.shard_size = kShardSize;
    sc.flush_records = kFlushRecords;
    sc.on_progress = on_progress;
    const sched::ScheduledResult sr =
        sched::run_campaign_to_store(tc, cfg, out, sc);
    r.wall_s = seconds_since(t0);
    r.executed = sr.executed;
    r.complete = sr.complete;
    r.agg = sr.agg;
    r.shards = sr.shards;
  }
  return r;
}

/// Check an entry call's store; the caller counts the result.
StoreCheck check_entry(const EntryRun& r, const std::string& path,
                       const inject::CampaignConfig& cfg,
                       const inject::CampaignPlan& plan) {
  StoreCheck check = perfbench::check_store(path, cfg, plan, r.agg);
  if (!r.complete || r.executed != cfg.num_injections) {
    check.fail_whole("entry call persisted " + std::to_string(r.executed) +
                     " of " + std::to_string(cfg.num_injections) +
                     " injections");
  }
  return check;
}

/// The scheduler's dispatch order: by fault cycle, ties by index.
void sort_by_cycle(std::vector<u32>& order, const inject::CampaignPlan& plan) {
  std::sort(order.begin(), order.end(), [&](u32 a, u32 b) {
    return plan.faults[a].cycle != plan.faults[b].cycle
               ? plan.faults[a].cycle < plan.faults[b].cycle
               : a < b;
  });
}

/// The engine probe: one make_engine(...)->run(next, emit) over a seeded
/// sample of the plan's indices in cycle-sorted order, timing each index
/// from its claim to its emit. Its work counters are deterministic (one
/// engine, fixed order) and every emitted record is checked against the
/// stored one.
struct EngineProbe {
  std::vector<double> emit_ms;
  u64 cycles = 0;
  u64 ff_cycles = 0;
  u64 ckpt_ops = 0;
  u32 count = 0;
};

EngineProbe probe_engine(const avp::Testcase& tc,
                         const inject::CampaignConfig& cfg,
                         const inject::CampaignPlan& plan, u32 sample,
                         u64 seed, StoreCheck& check, SpanLog* spans) {
  std::vector<u32> order = perfbench::sample_indices(
      static_cast<u32>(plan.faults.size()), sample, seed);
  sort_by_cycle(order, plan);
  std::unique_ptr<inject::InjectionEngine> engine;
  {
    SpanScope s(spans, "engine.make_engine");
    engine = inject::make_engine(tc, cfg, plan);
  }
  EngineProbe p;
  p.count = static_cast<u32>(order.size());
  std::vector<Clock::time_point> claimed(plan.faults.size());
  std::size_t pos = 0;
  const inject::InjectionEngine::Next next = [&]() -> std::optional<u32> {
    if (pos == order.size()) return std::nullopt;
    const u32 i = order[pos++];
    claimed[i] = Clock::now();
    return i;
  };
  const inject::InjectionEngine::Emit emit =
      [&](u32 i, const inject::InjectionRecord& rec,
          std::optional<inject::PropagationRecord>) {
        p.emit_ms.push_back(
            std::chrono::duration<double, std::milli>(Clock::now() -
                                                      claimed[i])
                .count());
        if (check.records[i] && !perfbench::records_equal(rec, *check.records[i])) {
          check.fail_index(i, "engine probe record differs from the store");
        }
      };
  {
    SpanScope s(spans, "engine.run");
    engine->run(next, emit, nullptr);
  }
  if (p.emit_ms.size() != order.size()) {
    check.fail_whole("engine probe emitted " +
                     std::to_string(p.emit_ms.size()) + " of " +
                     std::to_string(order.size()) + " claimed indices");
  }
  p.cycles = engine->cycles_evaluated();
  p.ff_cycles = engine->cycles_fast_forwarded();
  p.ckpt_ops = engine->checkpoint_ops();
  return p;
}

/// Everything the campaigns of one run share. A workload is a suite of
/// testcases, as the AVP itself is a stream of small testcases (paper §2.2):
/// a round runs one campaign per testcase, so no single program's outcome
/// mix sets a seed's throughput.
struct Inputs {
  const Workload* wl = nullptr;
  std::vector<avp::Testcase> tcs;
  std::vector<u32> budgets;
  inject::CampaignConfig cfg;
  u32 n = 0;
};

/// Testcase seed of suite member `j`; member 0 is the seed's own program.
u64 testcase_seed(u64 seed, u32 j) { return seed + u64{j} * 7919; }

Inputs make_inputs(const Workload& wl, u64 seed, const Sizes& sizes) {
  Inputs in;
  in.wl = &wl;
  for (u32 j = 0; j < sizes.testcases; ++j) {
    u32 budget = 0;
    in.tcs.push_back(make_testcase(wl, testcase_seed(seed, j), &budget));
    in.budgets.push_back(budget);
  }
  in.n = std::max<u32>(
      1, static_cast<u32>(std::lround(wl.injections * sizes.injection_scale)));
  in.cfg = make_config(wl, seed, in.n);
  return in;
}

void note_inputs(RunOutput& out, u32 budget, const inject::CampaignPlan& plan) {
  out.budgets.push_back(budget);
  out.instructions.push_back(plan.golden.instructions);
  out.cycles.push_back(plan.trace.completion_cycle);
}

/// Add one testcase's deterministic counters to the run's.
void note_counters(RunOutput& out, const EngineProbe& probe,
                   const EntryRun& entry, const std::string& canonical) {
  out.counters["cycles_evaluated"] += probe.cycles;
  out.counters["cycles_fast_forwarded"] += probe.ff_cycles;
  out.counters["checkpoint_ops"] += probe.ckpt_ops;
  out.counters["store_bytes"] += fs::file_size(canonical);
  out.counters["shards"] += entry.shards;
  out.counters["farm_assignments"] += entry.assignments;
  out.digest += (out.digest.empty() ? "" : ".") + perfbench::file_digest(canonical);
}

/// A store produced by a different route for the same campaign: the other
/// engine for the avp workloads, the in-process scheduler for the farm.
inject::CampaignConfig reference_config(const Inputs& in) {
  inject::CampaignConfig ref = in.cfg;
  if (!in.wl->farm) {
    ref.engine = in.cfg.engine == inject::EngineKind::Scalar
                     ? inject::EngineKind::Lanes
                     : inject::EngineKind::Scalar;
  }
  return ref;
}

// ---------------------------------------------------------------------------
// --trace 0: end-to-end metrics.

/// Check testcase `j`'s timed campaigns: each store on its own, every one
/// byte-identical to the first, and the first against the oracle — a fresh
/// scalar re-run of a seeded sample, the engine probe, and the whole
/// campaign by a different route.
void check_testcase(RunOutput& out, const Inputs& in, u32 j,
                    const std::vector<EntryRun>& runs,
                    const std::vector<std::string>& paths, const Sizes& sizes,
                    const std::string& work, u64 seed) {
  const avp::Testcase& tc = in.tcs[j];
  const u32 n = in.n;
  const inject::CampaignPlan plan = inject::plan_campaign(tc, in.cfg);
  note_inputs(out, in.budgets[j], plan);
  const std::string tag = "testcase " + std::to_string(j) + " ";
  std::vector<StoreCheck> checks;
  const std::string canon0 = work + "/canon0.sfr";
  for (std::size_t c = 0; c < runs.size(); ++c) {
    StoreCheck check = check_entry(runs[c], paths[c], in.cfg, plan);
    const std::string canon = c == 0 ? canon0 : work + "/canon.sfr";
    perfbench::canonicalize(paths[c], canon);
    if (c > 0) {
      perfbench::check_against_reference(check, canon, canon0);
      if (runs[c].shards != runs[0].shards ||
          runs[c].assignments != runs[0].assignments) {
        out.fail(tag + "shard/assignment counts differ between campaigns");
      }
      fs::remove(canon);
    }
    fs::remove(paths[c]);
    checks.push_back(std::move(check));
  }

  StoreCheck& base = checks.front();
  perfbench::check_sample(base, tc, in.cfg, plan, sizes.oracle_sample,
                          seed ^ 0x0a11ce);
  const EngineProbe probe = probe_engine(tc, in.cfg, plan, sizes.probe_sample,
                                         seed ^ 0xe1e, base, nullptr);
  {
    const inject::CampaignConfig ref_cfg = reference_config(in);
    const std::string path = work + "/reference.sfr";
    const std::string canon = work + "/reference-canon.sfr";
    const EntryRun r = run_entry(false, tc, ref_cfg, path, false);
    StoreCheck ref = check_entry(r, path, ref_cfg, plan);
    if (ref.failed(n) != 0) {
      out.fail(tag + "reference route failed its own store check");
      for (const auto& note : ref.notes) out.notes.push_back("  " + note);
    }
    perfbench::canonicalize(path, canon);
    perfbench::check_against_reference(base, canon0, canon);
    fs::remove(path);
    fs::remove(canon);
  }
  // A wrong record in the first campaign is wrong in every campaign that
  // matched it byte for byte.
  for (std::size_t c = 0; c < checks.size(); ++c) {
    if (c > 0) checks[c].bad.insert(base.bad.begin(), base.bad.end());
    out.count(checks[c], n, tag + "campaign " + std::to_string(c));
  }
  note_counters(out, probe, runs[0], canon0);
  fs::remove(canon0);
}

RunOutput run_measured(const Inputs& in, double seconds, const Sizes& sizes,
                       const std::string& work, u64 seed) {
  RunOutput out;
  const u32 k = static_cast<u32>(in.tcs.size());

  // Timed rounds of one campaign per testcase, nothing else in between. The
  // peak-memory mark is reset before each entry call, so it covers that call
  // alone; the median over calls is the suite's typical campaign, not its
  // largest testcase or one allocator spike.
  std::vector<double> setup;
  std::vector<double> rates;
  std::vector<double> peaks;
  std::vector<std::vector<EntryRun>> runs(k);
  std::vector<std::vector<std::string>> paths(k);
  double timed = 0.0;
  while (timed < seconds || rates.size() < sizes.min_rounds) {
    // Set-up as a CLI campaign pays it before the first injection: the
    // golden run, reference trace and checkpoint build (plan_campaign) plus
    // one engine. Timed before every round, so its median covers the whole
    // run: the host's speed drifts, and a block of calls at the start would
    // sample one moment of it.
    for (const avp::Testcase& tc : in.tcs) {
      const auto t0 = Clock::now();
      const inject::CampaignPlan p = inject::plan_campaign(tc, in.cfg);
      const auto engine = inject::make_engine(tc, in.cfg, p);
      setup.push_back(seconds_since(t0));
    }
    double round = 0.0;
    for (u32 j = 0; j < k; ++j) {
      paths[j].push_back(work + "/campaign" + std::to_string(rates.size()) +
                         "-" + std::to_string(j) + ".sfr");
      const bool peak_reset = reset_peak_rss();
      runs[j].push_back(
          run_entry(in.wl->farm, in.tcs[j], in.cfg, paths[j].back(), false));
      peaks.push_back(peak_rss_mib(peak_reset));
      round += runs[j].back().wall_s;
    }
    timed += round;
    rates.push_back(static_cast<double>(k) * in.n / round);
  }

  for (u32 j = 0; j < k; ++j) {
    check_testcase(out, in, j, runs[j], paths[j], sizes, work, seed);
  }

  out.add("inj_per_s", median(rates), "1/s");
  out.add("setup_s", median(setup), "s");
  out.add("peak_rss_mb", median(peaks), "MiB");
  std::cerr << "[perfbench] " << rates.size() << " rounds of " << k << " x "
            << in.n << " injections, injections/s:";
  for (const double r : rates) std::cerr << " " << std::lround(r);
  std::cerr << "\n";
  return out;
}

// ---------------------------------------------------------------------------
// --trace 1: per-layer metrics from spans around each layer call.

RunOutput run_traced(const Inputs& in, const Sizes& sizes,
                     const std::string& work, const std::string& span_file,
                     u64 seed) {
  RunOutput out;
  SpanLog spans;
  const u32 n = in.n;
  const Workload& wl = *in.wl;
  // Per-layer figures describe one program: the suite's first testcase.
  const avp::Testcase& tc = in.tcs.front();
  const int root = spans.open("bench.run");

  // Set-up, layer by layer: the same calls plan_campaign makes, in order.
  std::vector<double> golden_s, trace_s, ckpt_s, make_s;
  inject::CampaignPlan plan;
  for (u32 r = 0; r < sizes.setup_reps; ++r) {
    SpanScope rep(&spans, "bench.setup");
    inject::CampaignPlan p;
    auto t0 = Clock::now();
    {
      SpanScope s(&spans, "avp.run_golden");
      p.golden = avp::run_golden(tc);
    }
    golden_s.push_back(seconds_since(t0));
    core::Pearl6Model ref_model(in.cfg.core);
    emu::Emulator ref_emu(ref_model);
    t0 = Clock::now();
    {
      SpanScope s(&spans, "avp.run_reference");
      p.trace = avp::run_reference(ref_model, ref_emu, tc, 200000, true);
    }
    trace_s.push_back(seconds_since(t0));
    {
      SpanScope s(&spans, "sfi.sample_faults");
      p.population = inject::LatchPopulation::all(ref_model.registry());
      inject::FaultSampler sampler;
      sampler.population = &p.population;
      sampler.window_begin = in.cfg.window_begin;
      sampler.window_end = p.trace.completion_cycle;
      p.window_begin = sampler.window_begin;
      p.window_end = sampler.window_end;
      p.faults.resize(n);
      for (u32 i = 0; i < n; ++i) {
        stats::Xoshiro256 rng(stats::derive_seed(in.cfg.seed, i));
        p.faults[i] = sampler.sample(rng);
      }
    }
    t0 = Clock::now();
    {
      SpanScope s(&spans, "emu.build_checkpoint_store");
      emu::CheckpointStoreConfig cc;
      cc.memory_budget_bytes = in.cfg.ckpt_memory_budget;
      p.ckpts = emu::build_checkpoint_store(ref_emu, p.window_end - 1, cc,
                                            &p.trace);
    }
    ckpt_s.push_back(seconds_since(t0));
    t0 = Clock::now();
    {
      SpanScope s(&spans, "engine.make_engine");
      const auto engine = inject::make_engine(tc, in.cfg, p);
    }
    make_s.push_back(seconds_since(t0));
    plan = std::move(p);
  }
  {
    // The layer-by-layer set-up must be the plan the library builds.
    SpanScope s(&spans, "sfi.plan_campaign");
    const inject::CampaignPlan lib = inject::plan_campaign(tc, in.cfg);
    bool same = lib.faults.size() == plan.faults.size() &&
                lib.window_begin == plan.window_begin &&
                lib.window_end == plan.window_end &&
                lib.ckpts.size() == plan.ckpts.size() &&
                lib.ckpts.resident_bytes() == plan.ckpts.resident_bytes();
    for (std::size_t i = 0; same && i < lib.faults.size(); ++i) {
      same = lib.faults[i].index == plan.faults[i].index &&
             lib.faults[i].cycle == plan.faults[i].cycle;
    }
    if (!same) out.fail("layer-by-layer set-up differs from plan_campaign");
  }
  note_inputs(out, in.budgets.front(), plan);
  out.add("avp.golden_s", median(golden_s), "s");
  out.add("emu.trace_s", median(trace_s), "s");
  out.add("emu.ckpt_build_s", median(ckpt_s), "s");
  out.add("engine.make_s", median(make_s), "s");
  out.add("emu.ckpt_count", static_cast<double>(plan.ckpts.size()), "count");
  out.add("emu.ckpt_mib",
          static_cast<double>(plan.ckpts.resident_bytes()) / (1 << 20), "MiB");

  // Fault-free Pearl6 run of the whole workload.
  const Cycle cycles = plan.trace.completion_cycle;
  double fault_free_s = 0.0;
  {
    core::Pearl6Model model(in.cfg.core);
    model.load_workload(tc.program, tc.init);
    emu::Emulator emu(model);
    emu.reset();
    const emu::Checkpoint reset = emu.save_checkpoint();
    std::vector<double> runs;
    for (u32 r = 0; r < sizes.step_reps; ++r) {
      emu.restore_checkpoint(reset);
      const auto t0 = Clock::now();
      {
        SpanScope s(&spans, "core.run");
        emu.run(cycles);
      }
      runs.push_back(seconds_since(t0));
    }
    fault_free_s = median(runs);
    out.add("core.step_ns", fault_free_s * 1e9 / static_cast<double>(cycles),
            "ns");
  }

  // Scheduler: the traced entry call, the same call untraced, and the
  // in-memory campaign on the same config.
  const std::string sched_path = work + "/sched.sfr";
  const std::string sched_canon = work + "/sched-canon.sfr";
  EntryRun traced;
  {
    SpanScope s(&spans, "sched.run_campaign_to_store");
    traced = run_entry(false, tc, in.cfg, sched_path, true);
  }
  StoreCheck check = check_entry(traced, sched_path, in.cfg, plan);
  double untraced_s = 0.0;
  {
    const std::string path = work + "/sched-untraced.sfr";
    const EntryRun r = run_entry(false, tc, in.cfg, path, false);
    untraced_s = r.wall_s;
    StoreCheck c = check_entry(r, path, in.cfg, plan);
    out.count(c, n, "untraced scheduler campaign");
    fs::remove(path);
  }
  double inmem_s = 0.0;
  {
    const auto t0 = Clock::now();
    inject::CampaignResult mem;
    {
      SpanScope s(&spans, "sfi.run_campaign");
      mem = inject::run_campaign(tc, in.cfg);
    }
    inmem_s = seconds_since(t0);
    out.attempted += n;
    u64 bad = 0;
    for (u32 i = 0; i < mem.records.size() && i < n; ++i) {
      if (check.records[i] &&
          !perfbench::records_equal(mem.records[i], *check.records[i])) {
        ++bad;
      }
    }
    if (mem.records.size() != n) bad = n;
    out.failed += bad;
    if (bad != 0) out.fail("in-memory campaign differs from the store");
  }
  double first_flush = -1.0;
  double at95 = -1.0;
  for (const auto& [t, done] : traced.progress) {
    if (done > 0 && first_flush < 0.0) first_flush = t;
    if (done * 100 >= static_cast<u64>(n) * 95 && at95 < 0.0) at95 = t;
  }
  out.add("sched.first_flush_s", first_flush, "s");
  out.add("sched.tail_s", at95 < 0.0 ? -1.0 : traced.wall_s - at95, "s");
  out.add("sched.vs_inmem", untraced_s / inmem_s, "ratio");

  // Runner: a seeded sample replayed through the exact sequence run()
  // executes, in the cycle order campaigns dispatch.
  {
    core::Pearl6Model model(in.cfg.core);
    model.load_workload(tc.program, tc.init);
    emu::Emulator emu(model);
    emu.reset();
    const emu::Checkpoint reset = emu.save_checkpoint();
    inject::InjectionRunner runner(model, emu, reset, plan.trace, plan.golden,
                                   in.cfg.run,
                                   plan.ckpts.empty() ? nullptr : &plan.ckpts);
    std::vector<u32> order = perfbench::sample_indices(
        n, sizes.runner_sample, seed ^ 0x5eed);
    sort_by_cycle(order, plan);
    std::vector<double> seek_us, post_us, total_s;
    double poll_s = 0.0, classify_s = 0.0, post_sum = 0.0;
    u64 early = 0;
    const u64 cycles0 = emu.cycles_evaluated();
    SpanScope sample_span(&spans, "bench.runner_sample");
    for (const u32 i : order) {
      const inject::FaultSpec& f = plan.faults[i];
      inject::RunPhaseTimes phases;
      const auto t0 = Clock::now();
      {
        SpanScope s(&spans, "runner.seek_for_replay");
        runner.seek_for_replay(f.cycle);
      }
      const auto t1 = Clock::now();
      {
        SpanScope s(&spans, "runner.apply_fault");
        runner.apply_fault(f);
      }
      const auto t2 = Clock::now();
      inject::RunResult rr;
      {
        SpanScope s(&spans, "runner.continue_run");
        rr = runner.continue_run(f, &phases);
      }
      const auto t3 = Clock::now();
      seek_us.push_back(std::chrono::duration<double, std::micro>(t1 - t0).count());
      const double post = std::chrono::duration<double>(t3 - t2).count();
      post_us.push_back(post * 1e6);
      post_sum += post;
      total_s.push_back(std::chrono::duration<double>(t3 - t0).count());
      poll_s += phases.seconds[static_cast<std::size_t>(
          inject::RunPhase::ConvergencePoll)];
      classify_s +=
          phases.seconds[static_cast<std::size_t>(inject::RunPhase::Classify)];
      early += rr.early_exited ? 1 : 0;
      const inject::InjectionRecord rec =
          inject::make_record(model.registry(), f, rr);
      if (check.records[i] && !perfbench::records_equal(rec, *check.records[i])) {
        check.fail_index(i, "runner replay differs from the store");
      }
    }
    const double k = static_cast<double>(order.size());
    out.add("runner.seek_us.p50", median(seek_us), "us");
    out.add("runner.post_us.p50", median(post_us), "us");
    out.add("runner.post_us.p99", percentile(post_us, 0.99), "us");
    out.add("runner.poll_frac", poll_s / post_sum, "ratio");
    out.add("runner.classify_frac", classify_s / post_sum, "ratio");
    out.add("runner.early_exit_frac", static_cast<double>(early) / k, "ratio");
    out.add("runner.cycles_per_inj",
            static_cast<double>(emu.cycles_evaluated() - cycles0) / k,
            "cycles");
    // ZOFI's figure: mean host time per injection over the fault-free run.
    double total = 0.0;
    for (const double t : total_s) total += t;
    out.add("runner.overhead_x", total / k / fault_free_s, "ratio");
  }

  // Engine: claim-to-emit latency over a cycle-sorted sample.
  const EngineProbe probe = probe_engine(tc, in.cfg, plan,
                                         sizes.engine_sample, seed ^ 0xe1e,
                                         check, &spans);
  {
    const double k = static_cast<double>(probe.count);
    out.add("engine.emit_ms.p50", median(probe.emit_ms), "ms");
    out.add("engine.emit_ms.p99", percentile(probe.emit_ms, 0.99), "ms");
    out.add("engine.cycles_per_inj", static_cast<double>(probe.cycles) / k,
            "cycles");
    out.add("engine.ff_cycles_per_inj",
            static_cast<double>(probe.ff_cycles) / k, "cycles");
    out.add("engine.ckpt_ops_per_inj", static_cast<double>(probe.ckpt_ops) / k,
            "count");
  }

  // Store: rewrite the scheduler's records at the CLI's flush cadence, then
  // aggregate and canonically merge the scheduler's output.
  {
    store::StoreContents contents;
    {
      SpanScope s(&spans, "store.read_store");
      contents = store::read_store(sched_path);
    }
    const std::string copy = work + "/append.sfr";
    const auto t0 = Clock::now();
    {
      SpanScope s(&spans, "store.append");
      store::StoreWriter w = store::StoreWriter::create(copy, contents.meta);
      const std::span<const store::StoredRecord> all(contents.records);
      for (std::size_t at = 0; at < all.size(); at += kFlushRecords) {
        w.append(all.subspan(at, std::min<std::size_t>(kFlushRecords,
                                                       all.size() - at)));
        w.flush();
      }
    }
    out.add("store.append_us", seconds_since(t0) * 1e6 / n, "us");
    double read_s = 0.0;
    {
      const auto t1 = Clock::now();
      SpanScope s(&spans, "store.aggregate_store");
      const auto agg = store::aggregate_store(sched_path).second;
      read_s = seconds_since(t1);
      if (!perfbench::aggregates_equal(agg, traced.agg)) {
        check.fail_whole("aggregate_store differs from the returned aggregate");
      }
    }
    out.add("store.read_s", read_s, "s");
    double merge_s = 0.0;
    {
      const auto t1 = Clock::now();
      SpanScope s(&spans, "store.merge_stores");
      (void)store::merge_stores({sched_path}, sched_canon);
      merge_s = seconds_since(t1);
    }
    out.add("store.merge_s", merge_s, "s");
    out.add("store.bytes_per_inj",
            static_cast<double>(fs::file_size(sched_canon)) / n, "bytes");
    const std::string copy_canon = work + "/append-canon.sfr";
    perfbench::canonicalize(copy, copy_canon);
    perfbench::check_against_reference(check, copy_canon, sched_canon);
    fs::remove(copy);
    fs::remove(copy_canon);
  }

  // Farm: the same campaign by worker processes; its merged store must be
  // byte-identical to the scheduler's.
  EntryRun farm_run;
  {
    const std::string path = work + "/farm.sfr";
    {
      SpanScope s(&spans, "farm.run_farm_campaign");
      farm_run = run_entry(true, tc, in.cfg, path, true);
    }
    StoreCheck c = check_entry(farm_run, path, in.cfg, plan);
    perfbench::check_against_reference(c, path, sched_canon);
    out.count(c, n, "farm campaign");
    out.add("farm.first_record_s", farm_run.first_record_s, "s");
    out.add("farm.finish_s", farm_run.wall_s - farm_run.last_record_s, "s");
    out.add("farm.assignments", static_cast<double>(farm_run.assignments),
            "count");
    out.add("farm.retries", static_cast<double>(farm_run.retries), "count");
    fs::remove(path);
  }

  out.count(check, n, "traced scheduler campaign");
  note_counters(out, probe, wl.farm ? farm_run : traced, sched_canon);
  fs::remove(sched_path);
  fs::remove(sched_canon);
  spans.close(root);

  for (const auto& [layer, s] : spans.self_seconds_by_layer()) {
    if (layer != "bench") out.add("self_s." + layer, s, "s");
  }
  out.add("trace.overhead_s", traced.wall_s - untraced_s, "s");
  spans.write_trace_json(span_file);
  return out;
}

// ---------------------------------------------------------------------------
// Output.

void print_result(const RunOutput& out, const Options& opt, const Inputs& in) {
  std::cout << "workload " << in.wl->name << " seed " << opt.seed << ": "
            << in.n << " injections per campaign, " << kThreads
            << (in.wl->farm ? " farm workers" : " scheduler threads") << "\n";
  for (std::size_t j = 0; j < out.cycles.size(); ++j) {
    std::cout << "  testcase " << j << ": " << out.instructions[j]
              << " instructions / " << out.cycles[j] << " cycles (budget "
              << out.budgets[j] << ")\n";
  }
  for (const Metric& m : out.metrics) {
    std::printf("  %-26s %16.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  const double failed_frac =
      out.attempted == 0 ? 1.0
                         : static_cast<double>(out.failed) /
                               static_cast<double>(out.attempted);
  std::printf("  %-26s %16.6g %s (%llu of %llu injections)\n", "failed_frac",
              failed_frac, "ratio", static_cast<unsigned long long>(out.failed),
              static_cast<unsigned long long>(out.attempted));
  std::cout << "  canonical store digest " << out.digest << "\n";
  for (const auto& note : out.notes) std::cout << "  CHECK FAILED " << note << "\n";

  telemetry::JsonWriter rec;
  rec.begin_object()
      .field("workload", in.wl->name)
      .field("seed", opt.seed)
      .field("trace", opt.trace)
      .field("correct", out.correct)
      .field("attempted", out.attempted)
      .field("failed", out.failed)
      .field("injections", in.n)
      .field("testcases", static_cast<u64>(out.cycles.size()))
      .field("canonical_digest", std::string_view(out.digest))
      .field("git_sha", std::string_view(opt.git_sha))
      .field("source_id", std::string_view(opt.source_id))
      .field("build_type", PERFBENCH_BUILD_TYPE)
      .field("compiler", __VERSION__)
      .field("cpu", std::string_view(cpu_model()))
      .field("nproc", static_cast<u64>(std::thread::hardware_concurrency()))
      .field("threads", kThreads);
  const auto list = [&rec](std::string_view key, const std::vector<u64>& v) {
    rec.key(key).begin_array();
    for (const u64 x : v) rec.value(x);
    rec.end_array();
  };
  list("testcase_budgets", out.budgets);
  list("testcase_instructions", out.instructions);
  list("testcase_cycles", out.cycles);
  rec.key("counters").begin_object();
  for (const auto& [k, v] : out.counters) rec.field(k, v);
  rec.end_object();
  rec.end_object();
  std::cout << "perfbench-record: " << rec.str() << "\n";

  telemetry::JsonWriter w;
  w.begin_object()
      .field("correct", out.correct)
      .field("attempted", out.attempted)
      .field("failed", out.failed);
  w.key("metrics").begin_object();
  for (const Metric& m : out.metrics) {
    w.key(m.name)
        .begin_object()
        .field("value", m.value)
        .field("unit", std::string_view(m.unit))
        .end_object();
  }
  w.end_object().end_object();
  std::cout << w.str() << std::endl;
}

// ---------------------------------------------------------------------------
// --selftest: every workload at a tiny size, then planted faults.

/// Run the full check on a planted copy of a canonical store; returns the
/// check so the caller can assert what it caught.
StoreCheck check_planted(const std::string& path, const Inputs& in,
                         const inject::CampaignPlan& plan,
                         const inject::CampaignAggregate& agg,
                         const std::string& reference,
                         const std::string& work) {
  StoreCheck check = perfbench::check_store(path, in.cfg, plan, agg);
  const std::string canon = work + "/planted-canon.sfr";
  try {
    perfbench::canonicalize(path, canon);
    perfbench::check_against_reference(check, canon, reference);
  } catch (const std::exception& e) {
    check.fail_whole(std::string("canonical merge failed: ") + e.what());
  }
  fs::remove(canon);
  return check;
}

int run_selftest(const std::string& work) {
  Sizes tiny;
  tiny.injection_scale = 0.024;
  tiny.testcases = 2;
  tiny.min_rounds = 2;
  tiny.setup_reps = 1;
  tiny.step_reps = 1;
  tiny.runner_sample = 24;
  tiny.engine_sample = 24;
  tiny.probe_sample = 24;
  tiny.oracle_sample = 16;
  const u64 seed = 2026;
  bool ok = true;
  for (const Workload& wl : kWorkloads) {
    const Inputs in = make_inputs(wl, seed, tiny);
    for (const bool traced : {false, true}) {
      const RunOutput out =
          traced ? run_traced(in, tiny, work, work + "/selftest-spans.json", seed)
                 : run_measured(in, 0.0, tiny, work, seed);
      const bool pass = out.correct && out.failed == 0 && out.attempted > 0;
      std::cout << "selftest " << wl.name << (traced ? " traced" : " measured")
                << ": " << (pass ? "ok" : "FAILED") << " (" << out.attempted
                << " injections checked, digest " << out.digest << ")\n";
      for (const auto& note : out.notes) std::cout << "  " << note << "\n";
      ok = ok && pass;
    }
  }

  // Planted faults: one altered record in a copy of a canonical store must
  // be caught, and the unaltered copy must pass.
  const Inputs in = make_inputs(kWorkloads[0], seed, tiny);
  const avp::Testcase& tc = in.tcs.front();
  const inject::CampaignPlan plan = inject::plan_campaign(tc, in.cfg);
  const std::string path = work + "/selftest.sfr";
  const std::string canon = work + "/selftest-canon.sfr";
  const std::string ref_path = work + "/selftest-ref.sfr";
  const std::string reference = work + "/selftest-ref-canon.sfr";
  const EntryRun r = run_entry(false, tc, in.cfg, path, false);
  perfbench::canonicalize(path, canon);
  (void)run_entry(false, tc, reference_config(in), ref_path, false);
  perfbench::canonicalize(ref_path, reference);
  const store::StoreContents contents = store::read_store(canon);
  const u32 victim = in.n / 2;
  const std::string planted = work + "/planted.sfr";

  using Records = std::vector<store::StoredRecord>;
  const auto flags_only_victim = [victim](const StoreCheck& c) {
    return !c.whole_failed && c.bad == std::set<u32>{victim};
  };
  struct Plant {
    const char* what;
    std::function<void(Records&)> alter;
    /// What the check must report for this plant.
    std::function<bool(const StoreCheck&)> caught;
  };
  const Plant plants[] = {
      {"unaltered copy", [](Records&) {},
       [](const StoreCheck& c) { return !c.whole_failed && c.bad.empty(); }},
      // Same outcome, so only the reference route can see it.
      {"end_cycle + 1", [&](Records& rs) { rs[victim].rec.end_cycle += 1; },
       flags_only_victim},
      {"outcome changed",
       [&](Records& rs) {
         auto& o = rs[victim].rec.outcome;
         o = o == inject::Outcome::Vanished ? inject::Outcome::Corrected
                                            : inject::Outcome::Vanished;
       },
       [victim](const StoreCheck& c) {
         return c.whole_failed && c.bad.count(victim) == 1;
       }},
      {"record dropped",
       [&](Records& rs) { rs.erase(rs.begin() + victim); },
       [victim](const StoreCheck& c) {
         return c.whole_failed && c.bad.count(victim) == 1;
       }},
  };
  for (const Plant& p : plants) {
    Records records = contents.records;
    p.alter(records);
    perfbench::write_store(planted, contents.meta, records);
    const StoreCheck c =
        check_planted(planted, in, plan, r.agg, reference, work);
    const bool pass = p.caught(c);
    std::cout << "selftest plant " << p.what << ": "
              << (pass ? "ok" : "FAILED") << " (" << c.failed(in.n)
              << " failed injection(s) reported)\n";
    for (const auto& note : c.notes) std::cout << "  " << note << "\n";
    ok = ok && pass;
  }
  for (const auto& f : {path, canon, ref_path, reference, planted}) fs::remove(f);
  std::cout << "selftest " << (ok ? "passed" : "FAILED") << std::endl;
  return ok ? 0 : 1;
}

Options parse_args(int argc, char** argv) {
  Options o;
  bool have_workload = false, have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = value();
      have_workload = true;
    } else if (a == "--seed") {
      o.seed = std::stoull(value());
      have_seed = true;
    } else if (a == "--seconds") {
      o.seconds = std::stod(value());
    } else if (a == "--trace") {
      const std::string t = value();
      if (t != "0" && t != "1") throw std::invalid_argument("--trace is 0 or 1");
      o.trace = t == "1";
    } else if (a == "--work") {
      o.work_dir = value();
    } else if (a == "--results") {
      o.results_dir = value();
    } else if (a == "--source-id") {
      o.source_id = value();
    } else if (a == "--git-sha") {
      o.git_sha = value();
    } else if (a == "--selftest") {
      o.selftest = true;
    } else {
      throw std::invalid_argument("unknown argument " + a);
    }
  }
  if (o.work_dir.empty()) throw std::invalid_argument("--work DIR is required");
  if (!o.selftest) {
    if (!have_workload || !have_seed) {
      throw std::invalid_argument("--workload and --seed are required");
    }
    if (o.results_dir.empty()) {
      throw std::invalid_argument("--results DIR is required");
    }
    if (!(o.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  }
  return o;
}

}  // namespace

int main(int argc, char** argv) {
#ifdef PERFBENCH_SANITIZED
  std::cerr << "perfbench: refusing to measure a sanitizer build\n";
  return 2;
#endif
  std::set_terminate(on_terminate);
  Options opt;
  try {
    opt = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
  try {
    fs::create_directories(opt.work_dir);
    if (opt.selftest) return run_selftest(opt.work_dir);
    fs::create_directories(opt.results_dir);
    const Workload* wl = nullptr;
    for (const Workload& w : kWorkloads) {
      if (opt.workload == w.name) wl = &w;
    }
    if (wl == nullptr) {
      std::cerr << "perfbench: unknown workload " << opt.workload << "\n";
      return 2;
    }
    const Sizes sizes;
    const Inputs in = make_inputs(*wl, opt.seed, sizes);
    const RunOutput out =
        opt.trace ? run_traced(in, sizes, opt.work_dir,
                               opt.results_dir + "/spans-" + wl->name +
                                   "-seed" + std::to_string(opt.seed) + ".json",
                               opt.seed)
                  : run_measured(in, opt.seconds, sizes, opt.work_dir,
                                 opt.seed);
    print_result(out, opt, in);
    return out.correct && out.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
