// Campaign scheduler: sharded, streaming, resumable execution of a fault
// injection campaign into a durable store (src/store/).
//
// Injections run on the one in-process dispatcher, inject::dispatch_campaign
// (the same one inject::run_campaign drives with an in-memory sink). The
// scheduler claims work from it in shards and is its store sink:
//
//   * completed records stream into the store as they finish — appends
//     are order-insensitive because records carry their index — with a
//     bounded, flush-throttled at-risk window,
//   * progress is reported through a callback,
//   * and resume is exact: injection i derives its RNG stream from
//     (seed, i), so a restarted campaign validates the store's campaign
//     fingerprint, truncates any torn tail, skips persisted indices and
//     re-derives only the missing faults. The canonical merge of an
//     interrupted-then-resumed store is byte-identical to that of an
//     uninterrupted run (tests/test_store.cpp proves this). A worker
//     exception reaches the caller with the store readable and resumable.
#pragma once

#include <cmath>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "sfi/engine.hpp"
#include "store/reader.hpp"

namespace sfi::sched {

struct Progress {
  u64 done = 0;      ///< persisted records, including resumed ones
  u64 total = 0;     ///< campaign size
  u64 resumed = 0;   ///< records inherited from a previous run
  u64 executed = 0;  ///< injections newly run by this invocation so far
  /// Wall seconds since this invocation entered run_campaign_to_store —
  /// executed / wall_seconds is the live injection rate.
  double wall_seconds = 0.0;
  /// Monotonic (steady-clock) stamp of this report in microseconds, so
  /// consumers can compute inter-report rates without their own clock.
  u64 steady_us = 0;

  /// Live injection rate, or nullopt until the measurement window is real.
  /// The first report of a run fires before any injection completes
  /// (executed == 0, wall ~ 0); a naive executed/wall there is 0, inf or
  /// nan depending on clock resolution — consumers must render nullopt as
  /// "—", never divide themselves.
  [[nodiscard]] std::optional<double> rate_per_s() const {
    if (executed == 0 || !(wall_seconds > 0.0)) return std::nullopt;
    const double r = static_cast<double>(executed) / wall_seconds;
    if (!std::isfinite(r)) return std::nullopt;
    return r;
  }

  /// Seconds until done reaches total at rate_per_s(); nullopt whenever the
  /// rate is (and on a done > total resume overshoot, which a cancelled
  /// --max-new campaign can produce).
  [[nodiscard]] std::optional<double> eta_seconds() const {
    const auto r = rate_per_s();
    if (!r || done > total) return std::nullopt;
    return static_cast<double>(total - done) / *r;
  }
};

/// Dispatch knobs (threads, shard_size, max_new_injections, should_stop;
/// sfi/engine.hpp) plus the store sink's own.
struct SchedulerConfig : inject::DispatchConfig {
  u32 flush_records = 32; ///< records a worker batches between store appends
  /// Called under the store lock after every flushed batch, on the worker
  /// thread that flushed it. An exception thrown here fails the campaign
  /// like any worker exception (run_campaign_to_store rethrows it).
  std::function<void(const Progress&)> on_progress;
};

/// Dispatch outcome (shards, stopped, host-cost counters; sfi/engine.hpp)
/// plus the store's view of the campaign.
struct ScheduledResult : inject::DispatchStats {
  store::CampaignMeta meta;
  /// Aggregation over every record now in the store (resumed + new).
  inject::CampaignAggregate agg;
  u64 executed = 0;   ///< injections run by this invocation
  u64 resumed = 0;    ///< injections skipped because already persisted
  u64 footprints = 0; ///< propagation footprints persisted this invocation
  bool complete = false;  ///< store now covers all num_injections indices
  double wall_seconds = 0.0;
  /// Resident reference checkpoints and their encoded footprint.
  std::size_t checkpoints = 0;
  u64 checkpoint_bytes = 0;

  [[nodiscard]] double injections_per_second() const {
    return wall_seconds <= 0.0 ? 0.0
                               : static_cast<double>(executed) / wall_seconds;
  }
};

/// Identity of the workload a campaign ran (hash of program image + config).
[[nodiscard]] u64 workload_id(const avp::Testcase& testcase);

/// Fingerprint of everything that shapes fault generation and outcome
/// classification for a campaign. Resume refuses a store whose fingerprint
/// differs: its records would not be re-derivable from (seed, i).
[[nodiscard]] u64 campaign_fingerprint(const inject::CampaignConfig& config,
                                       const inject::CampaignPlan& plan);

/// Build the store header for (testcase, config, plan).
[[nodiscard]] store::CampaignMeta make_campaign_meta(
    const avp::Testcase& testcase, const inject::CampaignConfig& config,
    const inject::CampaignPlan& plan);

/// Resume scan of a prior output store, shared with the farm. A missing
/// file inherits nothing; otherwise the store must record `meta`'s
/// campaign, a torn final frame is cut off (its injection is simply re-run)
/// and each record index not yet in `done` is marked and passed to
/// `inherit`. Logs the "resume" event either way; true if the file exists.
bool resume_scan(
    const std::string& path, const store::CampaignMeta& meta,
    std::vector<bool>& done, inject::CampaignTelemetry* telemetry,
    const std::function<void(const store::StoredRecord&)>& inherit);

/// Run (or resume) a campaign, streaming records into the store at
/// `store_path`. With `resume` true and an existing store: validate it,
/// truncate a torn tail, execute only missing indices. With `resume` false
/// the store is created fresh (an existing file is overwritten).
ScheduledResult run_campaign_to_store(const avp::Testcase& testcase,
                                      const inject::CampaignConfig& config,
                                      const std::string& store_path,
                                      const SchedulerConfig& sched = {},
                                      bool resume = false);

}  // namespace sfi::sched
