#include "beam/beam.hpp"

#include <atomic>
#include <chrono>

#include "common/check.hpp"

namespace sfi::beam {

namespace {
using inject::FaultSpec;
using inject::FaultTarget;
using inject::InjectionRecord;
}  // namespace

BeamResult run_beam_experiment(const avp::Testcase& tc,
                               const BeamConfig& cfg) {
  require(cfg.num_events > 0, "beam needs events");
  require(cfg.latch_cross_section >= 0.0 && cfg.array_cross_section >= 0.0,
          "cross-sections must be non-negative");
  const auto t0 = std::chrono::steady_clock::now();

  inject::CampaignTelemetry* tel = cfg.telemetry;
  if (tel != nullptr) {
    tel->campaign_start("beam", cfg.seed, cfg.num_events, /*resumed=*/0);
  }

  // Beam observability: the experimenter cannot watch internal state, so
  // the golden-hash early exit is off — classification uses only RAS
  // reporting and the end-of-test compare, like the real irradiation runs.
  // This is also why beam is pinned to the scalar runner (a CampaignWorker)
  // rather than dispatching through sfi::InjectionEngine (DESIGN.md §16):
  // the lane engine's whole fast path is an internal-state convergence
  // proof against the reference replay, and beam's array strikes diverge in
  // aux state (array cells, ECC words) that the latch diff carrier cannot
  // represent.
  inject::CampaignConfig wcfg;
  wcfg.num_injections = 1;  // unused: beam samples its own strikes below
  wcfg.run = cfg.run;
  wcfg.run.early_exit = false;
  wcfg.core = cfg.core;
  wcfg.ckpt_interval = cfg.ckpt_interval;
  wcfg.ckpt_memory_budget = cfg.ckpt_memory_budget;
  // Reference runs and the shared interval-checkpoint store, planned like a
  // campaign's: beam runs replay to the strike cycle exactly like campaign
  // injections, so Table 2 calibration gets the same warm-start speedup.
  const inject::CampaignPlan plan = inject::plan_campaign(tc, wcfg);
  const Cycle completion = plan.trace.completion_cycle;

  core::Pearl6Model shape(cfg.core);
  const u64 latch_bits = shape.registry().num_latches();
  const u64 array_bits = shape.arrays().total_storage_bits();
  const double latch_weight =
      static_cast<double>(latch_bits) * cfg.latch_cross_section;
  const double array_weight =
      static_cast<double>(array_bits) * cfg.array_cross_section;
  require(latch_weight + array_weight > 0.0, "beam sees no sensitive bits");

  // Pre-generate strikes: uniform arrival over the exposure window, target
  // cell weighted by cross-section.
  std::vector<FaultSpec> strikes(cfg.num_events);
  u64 latch_events = 0;
  u64 array_events = 0;
  for (u32 i = 0; i < cfg.num_events; ++i) {
    stats::Xoshiro256 rng(stats::derive_seed(cfg.seed, i));
    FaultSpec f;
    f.cycle = 1 + rng.below(completion - 1);
    const double pick = rng.uniform() * (latch_weight + array_weight);
    if (pick < latch_weight) {
      f.target = FaultTarget::Latch;
      f.index = static_cast<u32>(rng.below(latch_bits));
      ++latch_events;
    } else {
      f.target = FaultTarget::ArrayCell;
      f.array_bit = rng.below(array_bits);
      ++array_events;
    }
    strikes[i] = f;
  }

  // Dispatch strikes cycle-sorted so consecutive runs share a hot
  // checkpoint; records land at their original index.
  const std::vector<u32> order = inject::cycle_sorted(strikes);

  std::vector<InjectionRecord> records(cfg.num_events);
  std::atomic<u32> next{0};

  const u32 threads = inject::worker_threads(cfg.threads);
  if (tel != nullptr) tel->prepare_workers(threads);

  inject::WorkerPool pool;
  pool.run(threads, [&](u32 tid) {
    inject::WorkerTelemetry* wt =
        tel != nullptr ? &tel->worker(tid) : nullptr;
    inject::CampaignWorker worker(tc, wcfg, plan);
    while (!pool.failed()) {
      const u32 k = next.fetch_add(1, std::memory_order_relaxed);
      if (k >= cfg.num_events) break;
      const u32 i = order[k];
      records[i] = worker.run(strikes[i], wt, i);
    }
  });

  BeamResult result;
  result.records = std::move(records);
  result.latch_events = latch_events;
  result.array_events = array_events;
  result.agg = inject::aggregate_records(result.records);
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  if (tel != nullptr) {
    tel->campaign_finish(result.agg, result.records.size(),
                         result.wall_seconds);
  }
  return result;
}

}  // namespace sfi::beam
