// InjectionEngine: the backend-neutral execution engine behind a campaign.
//
// An engine turns a stream of planned fault indices into a stream of
// (record, forensics) pairs. The contract is deliberately narrow so both
// drivers — the in-process dispatcher below (in-memory and store campaigns,
// serve daemon) and the farm worker — drive any engine the same way:
//
//   - the engine *pulls* injection indices via `next` until it returns
//     nullopt (claiming stays with the caller: --max-new caps, SIGINT stop
//     flags, worker failures and early-stop decisions all live in `next`),
//   - every claimed index is finished and reported exactly once via `emit`,
//     in arbitrary order (records carry their (seed, i) identity; canonical
//     merge sorts and resume scans are order-independent),
//   - records are field-identical across engines for the same plan: the
//     engine choice is a speed knob, never a result knob (gated by the
//     engine A/B CI job), and is excluded from the campaign fingerprint.
//
// Two implementations:
//   ScalarEngine — the classic one-injection-at-a-time InjectionRunner.
//   LaneEngine   — N in-flight injections as sparse XOR-diff lanes against
//                  one shared reference replay (see engine.cpp).
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "avp/testgen.hpp"
#include "sfi/campaign.hpp"

namespace sfi::inject {

class InjectionEngine {
 public:
  /// Claim stream: the next injection index to run, nullopt to finish.
  using Next = std::function<std::optional<u32>()>;
  /// Result stream: one call per claimed index, any order.
  using Emit = std::function<void(u32 index, const InjectionRecord& rec,
                                 std::optional<PropagationRecord> footprint)>;

  virtual ~InjectionEngine() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Run every index `next` yields and emit its record (plus footprint when
  /// the campaign's forensics select it). `telemetry` is an optional
  /// observability sink; results are identical with or without it.
  virtual void run(const Next& next, const Emit& emit,
                   WorkerTelemetry* telemetry) = 0;

  // Host-cost accounting across the engine's private emulators (summed into
  // CampaignResult / scheduler stats exactly like a worker's).
  [[nodiscard]] virtual u64 cycles_evaluated() const = 0;
  [[nodiscard]] virtual u64 cycles_fast_forwarded() const = 0;
  [[nodiscard]] virtual u64 checkpoint_ops() const = 0;
};

/// One engine instance per worker thread (engines are not thread-safe).
[[nodiscard]] std::unique_ptr<InjectionEngine> make_engine(
    const avp::Testcase& testcase, const CampaignConfig& config,
    const CampaignPlan& plan);

/// How dispatch_campaign claims work (sched::SchedulerConfig extends it).
struct DispatchConfig {
  u32 threads = 0;        ///< 0: campaign config threads, else hardware
  u32 shard_size = 64;    ///< injections per shard (work-stealing unit)
  /// Stop after this many newly executed injections (0 = run to completion).
  /// This is the test hook that simulates an interrupted campaign without
  /// killing the process.
  u64 max_new_injections = 0;
  /// Cooperative stop: polled before each injection is claimed. When it
  /// returns true workers stop claiming and flush what they finished — this
  /// is how `sfi campaign` turns SIGINT/SIGTERM into an ordinary resumable
  /// interruption (store closed cleanly, no torn tail) instead of leaning
  /// on torn-tail truncation.
  std::function<bool()> should_stop;
};

struct DispatchStats {
  u64 shards = 0;        ///< shards dispatched this invocation
  bool stopped = false;  ///< should_stop() interrupted dispatch
  u64 cycles_evaluated = 0;
  /// Replay cycles skipped by warm-starting from reference checkpoints.
  u64 cycles_fast_forwarded = 0;
  /// Host checkpoint interactions (saves + restores) across all workers.
  u64 checkpoint_ops = 0;
};

/// A worker's result sink. The dispatcher calls it once on each worker
/// thread; it sets up worker-local state, calls `run(emit)` — which claims
/// and executes injections, handing every finished one to `emit` on this
/// thread — and then flushes what it holds.
using WorkerSink = std::function<void(
    u32 tid, const std::function<void(const InjectionEngine::Emit&)>& run)>;

/// How a dispatch_campaign worker claims indices.
enum class Claims {
  /// Shards of DispatchConfig::shard_size (grown to cfg.lanes for the lane
  /// engine), one engine run each: the unit of shard telemetry and of
  /// DispatchStats::shards (the store sink).
  Shards,
  /// Single indices from one shared stream through one engine run per
  /// worker, with no shard telemetry; shard_size is ignored (the in-memory
  /// sink).
  Stream,
};

/// The in-process campaign dispatcher: one engine per WorkerPool thread,
/// claiming from `pending` (cycle-sorted by the caller) until it is
/// exhausted, the claim cap is reached, should_stop() fires or a worker
/// throws (rethrown here once the others have flushed).
DispatchStats dispatch_campaign(const avp::Testcase& testcase,
                                const CampaignConfig& config,
                                const CampaignPlan& plan,
                                const std::vector<u32>& pending,
                                const DispatchConfig& dispatch,
                                const WorkerSink& sink,
                                Claims claims = Claims::Shards);

[[nodiscard]] const char* engine_name(EngineKind kind);
[[nodiscard]] std::optional<EngineKind> parse_engine(std::string_view name);

}  // namespace sfi::inject
