#include "farm/worker.hpp"

#include <cerrno>
#include <chrono>
#include <csignal>
#include <sstream>
#include <thread>

#include "sched/scheduler.hpp"
#include "sfi/engine.hpp"
#include "sfi/telemetry.hpp"
#include "store/writer.hpp"
#include "telemetry/json.hpp"

#include <unistd.h>

namespace sfi::farm {

namespace {

/// Line-buffered reader over a raw fd (the control pipe). Blocking: a
/// worker with nothing assigned should sit in read(), not spin.
class LineReader {
 public:
  explicit LineReader(int fd) : fd_(fd) {}

  /// Next full line (without the '\n'); false on EOF/error.
  bool next(std::string& line) {
    for (;;) {
      const auto nl = buf_.find('\n');
      if (nl != std::string::npos) {
        line.assign(buf_, 0, nl);
        buf_.erase(0, nl + 1);
        return true;
      }
      char chunk[4096];
      const ssize_t n = read(fd_, chunk, sizeof chunk);
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      if (n == 0) return false;  // EOF: coordinator is gone or done
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_;
  std::string buf_;
};

struct Assignment {
  u64 shard = 0;
  u32 attempt = 0;
  std::vector<u32> indices;
  u64 trace_id = 0;       ///< span-plane extension (0 when absent)
  u64 dispatch_span = 0;  ///< coordinator's dispatch span: shard parent
};

/// Parse "A <shard> <attempt> <count> <index>..."; false on malformed input
/// (a malformed assignment is a coordinator bug — the worker exits nonzero
/// rather than guessing). Trailing `<trace_id> <dispatch_span>` tokens are
/// the span plane's optional extension.
bool parse_assignment(const std::string& line, Assignment& out) {
  std::istringstream in(line);
  std::string verb;
  u64 count = 0;
  if (!(in >> verb >> out.shard >> out.attempt >> count) || verb != "A") {
    return false;
  }
  out.indices.clear();
  out.indices.reserve(count);
  for (u64 i = 0; i < count; ++i) {
    u32 index = 0;
    if (!(in >> index)) return false;
    out.indices.push_back(index);
  }
  out.trace_id = 0;
  out.dispatch_span = 0;
  if (!(in >> out.trace_id >> out.dispatch_span)) {
    out.trace_id = 0;
    out.dispatch_span = 0;
  }
  return true;
}

void maybe_sabotage(const SabotageConfig& sabotage, u32 index, u32 attempt) {
  if (sabotage.crash_index && *sabotage.crash_index == index &&
      attempt == 0) {
    // A literal kill -9 of ourselves: no exit handlers, no flush — the
    // shard store ends wherever the last commit marker landed.
    raise(SIGKILL);
  }
  if (sabotage.wedge_index && *sabotage.wedge_index == index &&
      (!sabotage.wedge_once || attempt == 0)) {
    // Loss of forward progress without CPU burn; only the coordinator's
    // SIGKILL ends this.
    for (;;) std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
}

}  // namespace

int run_worker(const avp::Testcase& tc, const inject::CampaignConfig& cfg,
               const WorkerOptions& opts,
               const inject::CampaignPlan* plan_in) {
  // Workers are single-threaded and report nothing to a telemetry facade —
  // their observable output is the shard store, full stop. (With
  // metrics_every set, a worker-private registry accumulates phase/outcome
  // metrics and ships them as 'M' frames through that same store.)
  inject::CampaignConfig wcfg = cfg;
  wcfg.telemetry = nullptr;
  wcfg.threads = 1;

  std::optional<inject::CampaignTelemetry> tel;
  inject::WorkerTelemetry* wt = nullptr;
  if (opts.metrics_every > 0 || opts.trace_spans) {
    tel.emplace();
    if (opts.trace_spans) {
      // Trace id arrives with the first assignment; until then spans carry
      // id 0 and the book back-fills nothing — all spans recorded after
      // set_trace_id carry the campaign id, and the pre-assignment ones
      // (plan build) are stitched by pid anyway.
      tel->enable_span_plane(
          "sfi worker " + std::to_string(opts.worker_id), 0);
    }
    tel->prepare_workers(1);
    wt = &tel->worker(0);
  }
  telemetry::SpanBook* book = tel ? tel->spans() : nullptr;
  // Drain recorded spans into the shard store as 'S' frames; committed by
  // the caller's next flush, delivered by the coordinator's FrameTail.
  const auto ship_spans = [&](store::StoreWriter& w) {
    if (book == nullptr || book->size() == 0) return;
    for (const telemetry::SpanRecord& sp : book->drain()) w.append_span(sp);
  };

  std::optional<inject::CampaignPlan> own_plan;
  if (plan_in == nullptr) {
    const u64 plan_t0 = book != nullptr ? book->now_us() : 0;
    own_plan.emplace(inject::plan_campaign(tc, wcfg));
    if (book != nullptr) {
      // Exec-mode startup is dominated by this rebuild; the slice is what
      // makes the farm's startup_seconds grace visible in the trace.
      book->slice("plan build", "worker.startup", plan_t0,
                  book->now_us() - plan_t0);
    }
    plan_in = &*own_plan;
  }
  const inject::CampaignPlan& plan = *plan_in;

  const store::CampaignMeta meta = sched::make_campaign_meta(tc, wcfg, plan);
  store::StoreWriter writer = store::StoreWriter::create(
      opts.shard_path, meta, {.commit_markers = true});

  const std::unique_ptr<inject::InjectionEngine> engine =
      inject::make_engine(tc, wcfg, plan);

  u64 hb_seq = 0;
  u64 executed = 0;
  u64 m_seq = 0;
  u64 last_snapshot = 0;
  // Cumulative snapshot: fold the shard, copy the registry, append. The
  // coordinator keeps only the newest per (slot, generation), so cadence
  // only trades freshness against bytes.
  const auto emit_metrics = [&] {
    if (wt == nullptr) return;
    wt->fold();
    writer.append_metrics({opts.worker_id, m_seq++, tel->metrics().snapshot()});
    last_snapshot = executed;
  };
  // First committed frame doubles as the startup signal: the (possibly
  // slow) plan build above is done and the watchdog clock may start.
  writer.append_heartbeat(
      {opts.worker_id, hb_seq++, store::kHeartbeatIdle, executed});
  writer.flush();

  LineReader lines(opts.control_fd);
  std::string line;
  Assignment a;
  while (lines.next(line)) {
    if (line.empty()) continue;
    if (line == "Q") break;
    if (!parse_assignment(line, a)) return 3;
    if (book != nullptr && a.trace_id != 0) book->set_trace_id(a.trace_id);
    const u64 shard_t0 = book != nullptr ? book->now_us() : 0;
    writer.append_assignment({opts.worker_id, a.shard, a.attempt,
                              static_cast<u32>(a.indices.size())});
    writer.flush();
    // Claims pull from the assignment in order; the engine may hold several
    // in flight (lanes), so the heartbeat names the latest *claimed* index —
    // the supervisor's blame stays shard-attempt granular either way.
    bool bad_index = false;
    std::size_t p = 0;
    engine->run(
        [&]() -> std::optional<u32> {
          if (bad_index || p >= a.indices.size()) return std::nullopt;
          const u32 index = a.indices[p++];
          if (index >= plan.faults.size()) {
            bad_index = true;
            return std::nullopt;
          }
          writer.append_heartbeat({opts.worker_id, hb_seq++, index, executed});
          writer.flush();
          // Sabotage strikes after the heartbeat commits, like the real
          // failure it stands in for (the injected flip wedging the harness
          // mid-run) — so the supervisor can finger this index as the
          // culprit.
          maybe_sabotage(opts.sabotage, index, a.attempt);
          return index;
        },
        [&](u32 index, const inject::InjectionRecord& rec,
            std::optional<inject::PropagationRecord> fp) {
          store::StoredRecord sr;
          sr.index = index;
          sr.rec = rec;
          writer.append(sr);
          if (fp) writer.append_propagation(*fp);
          ++executed;
          if (opts.metrics_every > 0 &&
              executed - last_snapshot >= opts.metrics_every) {
            emit_metrics();
          }
          // Per-record flush+commit: the coordinator's done-count advances
          // one committed record at a time, and a crash can only lose the
          // injections in flight — exactly what the supervisor re-runs.
          ship_spans(writer);
          writer.flush();
        },
        wt);
    if (bad_index) return 3;
    if (book != nullptr) {
      // The shard slice parents under the coordinator's dispatch span —
      // the cross-process edge the stitched trace hangs together by.
      telemetry::JsonWriter args;
      args.begin_object()
          .field("shard", a.shard)
          .field("attempt", a.attempt)
          .field("indices", a.indices.size())
          .end_object();
      book->slice("shard " + std::to_string(a.shard) + " attempt " +
                      std::to_string(a.attempt),
                  "shard.exec", shard_t0, book->now_us() - shard_t0,
                  a.dispatch_span, args.str());
      ship_spans(writer);
      writer.flush();
    }
  }
  // Parting snapshot so the fleet view ends exact, not one interval stale
  // (the lane engine folds its lane.* counters after its last record).
  if (wt != nullptr) emit_metrics();
  ship_spans(writer);
  writer.flush();
  return 0;
}

}  // namespace sfi::farm
