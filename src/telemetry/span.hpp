// Span plane: the one Trace Event timeline of a campaign.
//
// Every process that takes part in a campaign records SpanRecords into its
// own SpanBook: the campaign root slice, the checkpoint-store build, shard
// slices and tail-latency exemplar injections per worker thread, and, in a
// farm, the coordinator's dispatch and retry spans. A farm campaign is many
// processes on (potentially) many hosts, and the interesting time often
// goes *between* them: dispatch-to-first-heartbeat, retry backoff, a
// straggler shard. So the spans travel durably, in the same store the
// results travel through ('S' frames, store/codec.hpp), and one renderer
// (spans_to_chrome_json) turns them into the file `--chrome-trace`,
// `sfi trace` and the daemon's /trace all produce.
//
// Clock reconciliation without coordination: every SpanBook captures one
// (wall, steady) pair at construction and stamps spans with
// wall_epoch + steady_elapsed. Timestamps are therefore monotonic within a
// process but expressed on the shared wall clock, so the stitcher can
// overlay processes (and hosts, to NTP accuracy) by doing nothing at all.
//
// Like every other telemetry surface the plane is strictly read-only:
// spans observe, never steer, and the canonical merge drops 'S' frames, so
// store bytes are identical plane-on vs plane-off (the ablation gates it).
#pragma once

#include <array>
#include <chrono>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"

namespace sfi::telemetry {

/// One span, self-describing enough to survive alone in a shard store:
/// it names its process (row) and carries wall-anchored timestamps, so a
/// stitcher needs no side tables.
struct SpanRecord {
  u64 trace_id = 0;   ///< campaign-scoped trace (propagated daemon→worker)
  u64 span_id = 0;    ///< unique within the trace (pid folded into the id)
  u64 parent_id = 0;  ///< 0 = root
  u64 pid = 0;        ///< OS process id: one trace process row per pid
  u32 tid = 0;        ///< track: 0 lifecycle, k + 1 worker thread k
  char ph = 'X';      ///< 'X' complete slice | 'i' instant
  u64 ts_us = 0;      ///< wall-anchored microseconds (unix epoch)
  u64 dur_us = 0;     ///< slice duration ('i': 0)
  std::string process;   ///< process row label, e.g. "sfi worker 3"
  std::string name;
  std::string cat;
  std::string args_json;  ///< pre-rendered JSON object ("{...}") or empty
};

/// Per-process span recorder. Thread-safe (one mutex; spans are emitted at
/// flush-grade rates, not per-cycle). now_us() is the book's wall-anchored
/// clock — use it for slice start stamps so starts and ends share the
/// anchor.
class SpanBook {
 public:
  explicit SpanBook(std::string process_name);

  /// Wall-anchored now: wall epoch at construction + steady elapsed.
  [[nodiscard]] u64 now_us() const;
  /// The wall anchor itself (construction instant) — the natural start
  /// stamp for spans that began with the process, e.g. admission wait.
  [[nodiscard]] u64 wall_epoch_us() const { return wall_epoch_us_; }

  void set_trace_id(u64 id);
  [[nodiscard]] u64 trace_id() const;
  void set_process_name(std::string name);
  [[nodiscard]] u64 pid() const { return pid_; }

  /// Record a completed slice [ts_us, ts_us + dur_us]; returns its span id
  /// (use as `parent` of children; pass parent 0 for roots).
  u64 slice(std::string_view name, std::string_view cat, u64 ts_us,
            u64 dur_us, u64 parent = 0, std::string args_json = {},
            u32 tid = 0);
  /// Record a zero-duration marker; returns its span id.
  u64 instant(std::string_view name, std::string_view cat, u64 ts_us,
              u64 parent = 0, std::string args_json = {}, u32 tid = 0);

  /// Move the recorded spans out (the store-flush drain path).
  [[nodiscard]] std::vector<SpanRecord> drain();
  /// Copy without draining (the /trace live view).
  [[nodiscard]] std::vector<SpanRecord> snapshot() const;
  [[nodiscard]] std::size_t size() const;

 private:
  u64 push(std::string_view name, std::string_view cat, char ph, u64 ts_us,
           u64 dur_us, u64 parent, std::string args_json, u32 tid);

  mutable std::mutex mu_;
  std::string process_;
  u64 pid_ = 0;
  u64 trace_id_ = 0;
  u64 next_span_ = 0;  ///< seeded from pid so ids are fleet-unique
  u64 wall_epoch_us_ = 0;
  std::chrono::steady_clock::time_point steady_epoch_;
  std::vector<SpanRecord> spans_;
};

/// Tail-latency exemplar policy: which injections earn full phase slices.
//
// Recording every injection's five phase slices would blow the 5% budget
// on serialization alone, and uniform sampling is exactly wrong for the
// question traces answer ("why was *that* one slow?"). So: maintain a
// moving log2-bucket histogram of injection wall times; an injection
// slower than the current p99 is always recorded and tagged an exemplar
// (with its record id, so `sfi explain` cross-references it); the rest are
// sampled 1-in-N. The histogram decays by halving periodically, so the
// threshold tracks the workload's present, not its history. Deterministic:
// decisions depend only on the sequence of durations, never on wall time.
class TailExemplarPolicy {
 public:
  struct Decision {
    bool record = false;    ///< emit full phase slices for this injection
    bool exemplar = false;  ///< recorded because it exceeded the p99
  };

  explicit TailExemplarPolicy(u32 sample_every = 16, u32 warmup = 64);

  /// Observe one injection's wall time and decide whether to record it.
  Decision note(u64 dur_us);

  /// Current p99 threshold (u64 max until warmed up).
  [[nodiscard]] u64 threshold_us() const { return threshold_us_; }
  [[nodiscard]] u64 noted() const { return seq_; }
  [[nodiscard]] u64 exemplars() const { return exemplars_; }

 private:
  static constexpr std::size_t kBuckets = 64;  ///< log2(dur_us) buckets
  static constexpr u32 kRecomputeEvery = 64;
  static constexpr u64 kDecayEvery = 4096;  ///< halve counts this often

  void recompute();

  std::array<u64, kBuckets> counts_{};
  u64 total_ = 0;       ///< histogram mass (decays)
  u64 seq_ = 0;         ///< injections noted (never decays)
  u64 exemplars_ = 0;
  u32 sample_every_;
  u32 warmup_;
  u64 threshold_us_ = ~0ull;
};

/// Render spans as a Trace Event JSON document ({"traceEvents":[...]}) —
/// one process row per distinct pid (process_name metadata from the first
/// span carrying that pid), one named track per (pid, tid) ("lifecycle"
/// for tid 0, "worker k" for tid k + 1), timestamps normalized to the
/// earliest span so the file opens at t=0 in Perfetto / chrome://tracing.
[[nodiscard]] std::string spans_to_chrome_json(
    const std::vector<SpanRecord>& spans);

}  // namespace sfi::telemetry
