#include "sfi/telemetry.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "sfi/aggregate.hpp"
#include "sfi/propagation.hpp"
#include "stats/intervals.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/json.hpp"

namespace sfi::inject {

namespace {

/// Power-of-two cycle-latency bounds: 1, 2, 4, ... 2^max_exp.
std::vector<double> pow2_buckets(u32 max_exp) {
  std::vector<double> bounds;
  bounds.reserve(max_exp + 1);
  double b = 1.0;
  for (u32 i = 0; i <= max_exp; ++i, b *= 2.0) bounds.push_back(b);
  return bounds;
}

u64 micros(double seconds) {
  return seconds <= 0.0 ? 0 : static_cast<u64>(seconds * 1e6);
}

/// Registry names of LaneCounters' scalar fields.
constexpr std::array<std::pair<std::string_view, u64 LaneCounters::*>,
                     kNumLaneCounters>
    kLaneCounters = {{
        {"lane.trips", &LaneCounters::trips},
        {"lane.ejected", &LaneCounters::ejected},
        {"lane.tails", &LaneCounters::tails},
        {"lane.fallbacks", &LaneCounters::fallbacks},
        {"lane.retired_converged", &LaneCounters::retired_converged},
        {"lane.finish_live", &LaneCounters::finish_live},
        {"lane.saves", &LaneCounters::saves},
        {"lane.restores", &LaneCounters::restores},
        {"lane.restore_ns", &LaneCounters::restore_ns},
        {"lane.probation_fail.sig", &LaneCounters::fail_sig},
        {"lane.probation_fail.ras", &LaneCounters::fail_ras},
        {"lane.probation_fail.wide", &LaneCounters::fail_wide},
        {"lane.tail_cycles", &LaneCounters::tail_cycles},
    }};

}  // namespace

WorkerTelemetry::WorkerTelemetry(CampaignTelemetry& owner, u32 tid)
    : owner_(owner),
      tid_(tid),
      shard_(owner.registry_.make_shard()),
      book_(owner.span_book_.get()) {}

void WorkerTelemetry::shard_begin(u64 shard, u64 injections) {
  if (book_ != nullptr) span_shard_start_us_ = book_->now_us();
  if (auto* log = owner_.events()) {
    telemetry::JsonWriter w;
    w.begin_object()
        .field("ev", "shard_dispatch")
        .field("t_us", owner_.now_us())
        .field("shard", shard)
        .field("worker", u64{tid_})
        .field("injections", injections)
        .end_object();
    log->emit(w.str());
  }
}

void WorkerTelemetry::shard_end(u64 shard, u64 executed) {
  shard_.add(owner_.c_shards_);
  if (book_ != nullptr) {
    const u64 now = book_->now_us();
    telemetry::JsonWriter args;
    args.begin_object().field("shard", shard).field("executed", executed)
        .end_object();
    book_->slice("shard " + std::to_string(shard), "shard",
                 span_shard_start_us_, now - span_shard_start_us_, 0,
                 args.str(), tid_ + 1);
  }
  if (auto* log = owner_.events()) {
    telemetry::JsonWriter w;
    w.begin_object()
        .field("ev", "shard_complete")
        .field("t_us", owner_.now_us())
        .field("shard", shard)
        .field("worker", u64{tid_})
        .field("executed", executed)
        .end_object();
    log->emit(w.str());
  }
}

void WorkerTelemetry::record_injection(u32 index, const InjectionRecord& rec,
                                       std::optional<Cycle> detect_latency) {
  const RunPhaseTimes& ph = phases_;
  CampaignTelemetry& o = owner_;

  // --- metrics (lock-free: private shard) ---
  shard_.add(o.c_injections_);
  if (rec.early_exited) shard_.add(o.c_early_exits_);
  shard_.add(o.c_recoveries_, rec.recoveries);
  shard_.add(o.c_polls_, ph.polls);
  shard_.add(o.c_ff_cycles_, ph.ff_cycles);
  if (ph.warm_restore) shard_.add(o.c_warm_restores_);
  if (ph.new_checkpoint) shard_.add(o.c_ckpt_materializations_);
  shard_.add(o.c_outcome_[static_cast<std::size_t>(rec.outcome)]);
  o.live_outcomes_[static_cast<std::size_t>(rec.outcome)].fetch_add(
      1, std::memory_order_relaxed);

  for (std::size_t p = 0; p < kNumRunPhases; ++p) {
    shard_.observe(o.h_phase_[p], ph.seconds[p]);
  }
  shard_.observe(o.h_injection_seconds_, ph.total_seconds());
  if (detect_latency) {
    const auto lat = static_cast<double>(*detect_latency);
    shard_.observe(o.h_detect_latency_, lat);
    shard_.observe(o.h_detect_unit_[static_cast<std::size_t>(rec.unit)], lat);
  }

  // --- event log (sampled) ---
  auto* log = o.events();
  if (log != nullptr && ph.new_checkpoint) {
    telemetry::JsonWriter& w = scratch_;
    w.clear();
    w.begin_object()
        .field("ev", "ckpt_restore")
        .field("t_us", o.now_us())
        .field("worker", u64{tid_})
        .field("cycle", ph.restore_cycle)
        .end_object();
    log->emit(w.str());
  }
  const u32 es = o.cfg_.event_sample;
  if (log != nullptr && es != 0 && index % es == 0) {
    telemetry::JsonWriter& w = scratch_;
    w.clear();
    w.begin_object()
        .field("ev", "injection")
        .field("t_us", o.now_us())
        .field("i", u64{index})
        .field("worker", u64{tid_})
        .field("cycle", rec.fault.cycle)
        .field("target",
               rec.fault.target == FaultTarget::Latch ? "latch" : "array")
        .field("ordinal", rec.fault.target == FaultTarget::Latch
                              ? u64{rec.fault.index}
                              : rec.fault.array_bit)
        .field("unit", netlist::to_string(rec.unit))
        .field("type", netlist::to_string(rec.type))
        .field("outcome", to_string(rec.outcome))
        .field("end_cycle", rec.end_cycle)
        .field("early_exit", rec.early_exited)
        .field("recoveries", u64{rec.recoveries});
    if (detect_latency) w.field("detect_latency", *detect_latency);
    w.key("phase_s").begin_object();
    for (std::size_t p = 0; p < kNumRunPhases; ++p) {
      w.field(to_string(static_cast<RunPhase>(p)), ph.seconds[p]);
    }
    w.end_object();
    w.field("polls", ph.polls).field("ff_cycles", ph.ff_cycles).end_object();
    log->emit(w.str());
  }

  // --- span plane (tail-latency exemplar policy) ---
  // Full phase slices for every injection would dominate the 5% budget, so
  // the policy keeps the ones worth looking at: anything over the moving
  // p99 is always recorded and tagged an exemplar with its record id
  // (`"i"`, the index `sfi explain` keys on); the rest sample 1-in-N.
  sliced_index_.reset();
  if (book_ != nullptr) {
    const u64 us_restore = micros(ph.seconds[0]);
    const u64 us_ff = micros(ph.seconds[1]);
    const u64 us_sim = micros(ph.seconds[2]);
    const u64 us_poll = micros(ph.seconds[3]);
    const u64 us_classify = micros(ph.seconds[4]);
    const u64 total = us_restore + us_ff + us_sim + us_poll + us_classify;
    const auto d = exemplar_.note(total);
    if (d.record) {
      sliced_index_ = index;
      const u32 track = tid_ + 1;
      const u64 end = book_->now_us();
      const u64 start = end > total ? end - total : 0;
      telemetry::JsonWriter& args = scratch_;
      args.clear();
      args.begin_object()
          .field("i", u64{index})
          .field("outcome", to_string(rec.outcome))
          .field("exemplar", d.exemplar)
          .end_object();
      const u64 parent = book_->slice(
          std::string("inject → ") + std::string(to_string(rec.outcome)),
          d.exemplar ? "injection.exemplar" : "injection", start, total, 0,
          args.str(), track);
      u64 at = start;
      book_->slice("restore", "phase", at, us_restore, parent, {}, track);
      at += us_restore;
      book_->slice("fast-forward", "phase", at, us_ff, parent, {}, track);
      at += us_ff;
      book_->slice("post-fault-sim", "phase", at, us_sim + us_poll, parent,
                   {}, track);
      at += us_sim + us_poll;
      book_->slice("classify", "phase", at, us_classify, parent, {}, track);
    }
  }
}

void WorkerTelemetry::record_footprint(u32 index,
                                       const PropagationRecord& rec,
                                       double seconds) {
  CampaignTelemetry& o = owner_;

  // --- metrics (lock-free: private shard) ---
  shard_.add(o.c_footprints_);
  shard_.add(o.c_fp_rerun_cycles_, rec.rerun_cycles);
  shard_.add(o.c_fp_samples_, rec.samples.size());
  if (rec.masked) {
    shard_.add(o.c_fp_masked_);
    shard_.observe(o.h_fp_mask_latency_, static_cast<double>(rec.masked_at));
  }
  if (rec.reached_arch) shard_.add(o.c_fp_reached_arch_);
  if (rec.reached_memory) shard_.add(o.c_fp_reached_mem_);
  if (rec.truncated) shard_.add(o.c_fp_truncated_);
  for (std::size_t u = 0; u < netlist::kNumUnits; ++u) {
    if (u == static_cast<std::size_t>(rec.unit)) continue;
    if (rec.first_corrupt[u] != kNeverCorrupted) shard_.add(o.c_fp_crossed_[u]);
  }
  shard_.observe(o.h_fp_peak_bits_, static_cast<double>(rec.peak_bits));
  shard_.observe(o.h_fp_seconds_, seconds);

  // --- event log (same sampling policy as per-injection records) ---
  auto* log = o.events();
  const u32 es = o.cfg_.event_sample;
  if (log != nullptr && es != 0 && index % es == 0) {
    telemetry::JsonWriter& w = scratch_;
    w.clear();
    w.begin_object()
        .field("ev", "propagation")
        .field("t_us", o.now_us())
        .field("i", u64{rec.index})
        .field("worker", u64{tid_})
        .field("unit", netlist::to_string(rec.unit))
        .field("type", netlist::to_string(rec.type))
        .field("outcome", to_string(rec.outcome))
        .field("peak_bits", u64{rec.peak_bits})
        .field("rerun_cycles", u64{rec.rerun_cycles})
        .field("masked", rec.masked);
    if (rec.masked) w.field("masked_at", rec.masked_at);
    if (rec.detected) w.field("detected_at", rec.detected_at);
    w.field("reached_arch", rec.reached_arch)
        .field("reached_memory", rec.reached_memory)
        .field("truncated", rec.truncated);
    if (rec.checker_fired) {
      w.field("checker", core::checker_name(rec.checker))
          .field("checker_fatal", rec.checker_fatal);
    }
    w.key("samples").begin_array();
    for (const FootprintSample& s : rec.samples) {
      w.begin_array().value(u64{s.offset}).value(u64{s.total_bits}).end_array();
    }
    w.end_array().end_object();
    log->emit(w.str());
  }

  // --- span plane (the footprint of an injection it sliced) ---
  // The infection curve itself is `sfi explain`'s, from the 'P' frames.
  if (book_ != nullptr && sliced_index_ == index) {
    const u64 dur = micros(seconds);
    const u64 end = book_->now_us();
    telemetry::JsonWriter& args = scratch_;
    args.clear();
    args.begin_object()
        .field("i", u64{rec.index})
        .field("peak_bits", u64{rec.peak_bits})
        .field("outcome", to_string(rec.outcome))
        .end_object();
    book_->slice("footprint " + std::string(netlist::to_string(rec.unit)),
                 "footprint", end > dur ? end - dur : 0, dur, 0, args.str(),
                 tid_ + 1);
  }
}

void WorkerTelemetry::record_lane_run(const LaneCounters& c) {
  const CampaignTelemetry& o = owner_;
  for (std::size_t i = 0; i < kLaneCounters.size(); ++i) {
    shard_.add(o.c_lane_[i], c.*kLaneCounters[i].second);
  }
  for (std::size_t i = 0; i < kNumOutcomes; ++i) {
    shard_.add(o.c_lane_tail_[i], c.tail[i]);
    shard_.add(o.c_lane_tail_exec_[i], c.tail_exec_cycles[i]);
  }
}

CampaignTelemetry::CampaignTelemetry(TelemetryConfig cfg)
    : cfg_(cfg), epoch_(std::chrono::steady_clock::now()) {
  c_injections_ = registry_.counter("injections");
  c_early_exits_ = registry_.counter("early_exits");
  c_recoveries_ = registry_.counter("recoveries");
  c_polls_ = registry_.counter("convergence_polls");
  c_ff_cycles_ = registry_.counter("fast_forward_cycles");
  c_warm_restores_ = registry_.counter("warm_restores");
  c_ckpt_materializations_ = registry_.counter("ckpt_materializations");
  c_shards_ = registry_.counter("shards_completed");
  c_farm_spawned_ = registry_.counter("farm.workers_spawned");
  c_farm_crashes_ = registry_.counter("farm.worker_crashes");
  c_farm_watchdog_kills_ = registry_.counter("farm.watchdog_kills");
  c_farm_retries_ = registry_.counter("farm.shard_retries");
  c_farm_strikeouts_ = registry_.counter("farm.strikeouts");
  c_farm_hb_gaps_ = registry_.counter("farm.heartbeat_gaps");
  for (std::size_t i = 0; i < kNumOutcomes; ++i) {
    c_outcome_[i] = registry_.counter(
        "outcome." + std::string(to_string(kAllOutcomes[i])));
  }
  const std::vector<double> secs = telemetry::exp_buckets(1e-6, 10.0, 3);
  for (std::size_t p = 0; p < kNumRunPhases; ++p) {
    h_phase_[p] = registry_.histogram(
        "phase_seconds." + std::string(to_string(static_cast<RunPhase>(p))),
        secs);
  }
  h_injection_seconds_ = registry_.histogram("injection_seconds", secs);
  const std::vector<double> cyc = pow2_buckets(17);  // 1 .. 128k cycles
  h_detect_latency_ = registry_.histogram("detect_latency_cycles", cyc);
  for (const auto u : netlist::kAllUnits) {
    h_detect_unit_[static_cast<std::size_t>(u)] = registry_.histogram(
        "detect_latency_cycles." + std::string(netlist::to_string(u)), cyc);
  }
  c_footprints_ = registry_.counter("footprint.traced");
  c_fp_rerun_cycles_ = registry_.counter("footprint.rerun_cycles");
  c_fp_samples_ = registry_.counter("footprint.samples");
  c_fp_masked_ = registry_.counter("footprint.masked");
  c_fp_reached_arch_ = registry_.counter("footprint.reached_arch");
  c_fp_reached_mem_ = registry_.counter("footprint.reached_memory");
  c_fp_truncated_ = registry_.counter("footprint.truncated");
  for (const auto u : netlist::kAllUnits) {
    c_fp_crossed_[static_cast<std::size_t>(u)] = registry_.counter(
        "footprint.crossed." + std::string(netlist::to_string(u)));
  }
  h_fp_peak_bits_ = registry_.histogram("footprint.peak_bits",
                                        pow2_buckets(12));  // 1 .. 4k bits
  h_fp_mask_latency_ = registry_.histogram("footprint.mask_latency_cycles",
                                           cyc);
  h_fp_seconds_ = registry_.histogram("footprint.rerun_seconds", secs);
  g_wall_seconds_ = registry_.gauge("wall_seconds");
  g_executed_ = registry_.gauge("executed");
  g_resumed_ = registry_.gauge("resumed");
  g_total_ = registry_.gauge("total_injections");
  g_ckpt_count_ = registry_.gauge("ckpt.count");
  g_ckpt_bytes_ = registry_.gauge("ckpt.resident_bytes");
  g_ckpt_interval_ = registry_.gauge("ckpt.interval_cycles");
  for (std::size_t i = 0; i < kLaneCounters.size(); ++i) {
    c_lane_[i] = registry_.counter(std::string(kLaneCounters[i].first));
  }
  for (std::size_t i = 0; i < kNumOutcomes; ++i) {
    const std::string o(to_string(kAllOutcomes[i]));
    c_lane_tail_[i] = registry_.counter("lane.tail." + o);
    c_lane_tail_exec_[i] = registry_.counter("lane.tail_exec_cycles." + o);
  }
}

CampaignTelemetry::~CampaignTelemetry() = default;

u64 CampaignTelemetry::now_us() const {
  return static_cast<u64>(std::chrono::duration_cast<std::chrono::microseconds>(
                              std::chrono::steady_clock::now() - epoch_)
                              .count());
}

void CampaignTelemetry::open_event_log(const std::string& path) {
  events_.open(path);
}

void CampaignTelemetry::enable_span_plane(std::string process_name,
                                          u64 trace_id) {
  if (!span_book_) {
    span_book_ =
        std::make_unique<telemetry::SpanBook>(std::move(process_name));
    span_campaign_start_us_ = span_book_->wall_epoch_us();
    // Late enablement: handles made before the plane was on pick up the
    // book here (prepare_workers is idempotent and keeps references).
    for (const auto& w : workers_) w->book_ = span_book_.get();
  } else if (!process_name.empty()) {
    span_book_->set_process_name(std::move(process_name));
  }
  if (trace_id != 0) span_book_->set_trace_id(trace_id);
}

void CampaignTelemetry::retain_spans(
    const std::vector<telemetry::SpanRecord>& spans) {
  // Cap: keep the oldest — campaign lifecycle and dispatch spans land
  // early; a runaway tail of per-injection slices is the droppable part.
  constexpr std::size_t kMaxRetained = 200'000;
  const std::lock_guard<std::mutex> lock(span_mu_);
  for (const telemetry::SpanRecord& s : spans) {
    if (retained_spans_.size() >= kMaxRetained) break;
    retained_spans_.push_back(s);
  }
}

std::vector<telemetry::SpanRecord> CampaignTelemetry::all_spans() const {
  std::vector<telemetry::SpanRecord> out;
  if (span_book_) out = span_book_->snapshot();
  const std::lock_guard<std::mutex> lock(span_mu_);
  out.insert(out.end(), retained_spans_.begin(), retained_spans_.end());
  return out;
}

std::string CampaignTelemetry::trace_chrome_json() const {
  return telemetry::spans_to_chrome_json(all_spans());
}

namespace {

/// `"ev":"..."` extraction from a flight-recorder line (machine-written
/// JSONL; a miss degrades to a generic name, never an error).
std::string_view event_name_of(std::string_view line) {
  const auto key = line.find("\"ev\":\"");
  if (key == std::string_view::npos) return "event";
  const auto begin = key + 6;
  const auto end = line.find('"', begin);
  if (end == std::string_view::npos) return "event";
  return line.substr(begin, end - begin);
}

}  // namespace

void CampaignTelemetry::flight_recorder_tail_to_spans(
    std::string_view reason) {
  if (!span_book_) return;
  auto& recorder = telemetry::FlightRecorder::global();
  if (!recorder.enabled()) return;
  // Lines are stamped on this telemetry's steady clock ("t_us"); the book
  // shares the process, so the wall offset between the two clocks is exact.
  const u64 wall_offset = span_book_->now_us() - now_us();
  telemetry::JsonWriter name;
  for (const std::string& line : recorder.snapshot()) {
    const auto t = line.find("\"t_us\":");
    u64 t_us = 0;
    if (t != std::string::npos) {
      for (std::size_t i = t + 7; i < line.size(); ++i) {
        const char c = line[i];
        if (c < '0' || c > '9') break;
        t_us = t_us * 10 + static_cast<u64>(c - '0');
      }
    }
    name.clear();
    name.begin_object().field("reason", reason).field("line", line)
        .end_object();
    span_book_->instant(std::string(event_name_of(line)), "flight_recorder",
                        t_us + wall_offset, 0, name.str());
  }
}

void CampaignTelemetry::campaign_start(std::string_view kind, u64 seed,
                                       u64 total, u64 resumed) {
  registry_.set_gauge(g_total_, static_cast<double>(total));
  registry_.set_gauge(g_resumed_, static_cast<double>(resumed));
  if (span_book_) {
    span_campaign_start_us_ = span_book_->now_us();
    telemetry::JsonWriter args;
    args.begin_object()
        .field("kind", kind)
        .field("seed", seed)
        .field("total", total)
        .field("resumed", resumed)
        .end_object();
    span_book_->instant("campaign start", "lifecycle",
                        span_campaign_start_us_, 0, args.str());
  }
  if (auto* log = events()) {
    telemetry::JsonWriter w;
    w.begin_object()
        .field("ev", "campaign_start")
        .field("t_us", now_us())
        .field("kind", kind)
        .field("seed", seed)
        .field("total", total)
        .field("resumed", resumed)
        .end_object();
    log->emit(w.str());
  }
}

void CampaignTelemetry::checkpoint_store_built(
    std::size_t count, u64 resident_bytes, Cycle interval,
    double build_seconds, const std::vector<Cycle>& cycles) {
  registry_.set_gauge(g_ckpt_count_, static_cast<double>(count));
  registry_.set_gauge(g_ckpt_bytes_, static_cast<double>(resident_bytes));
  registry_.set_gauge(g_ckpt_interval_, static_cast<double>(interval));
  if (auto* log = events()) {
    telemetry::JsonWriter w;
    w.begin_object()
        .field("ev", "ckpt_store")
        .field("t_us", now_us())
        .field("count", u64{count})
        .field("resident_bytes", resident_bytes)
        .field("interval", interval)
        .field("build_seconds", build_seconds)
        .end_object();
    log->emit(w.str());
    const u32 es = cfg_.event_sample == 0 ? 1 : cfg_.event_sample;
    for (std::size_t i = 0; i < cycles.size(); i += es) {
      telemetry::JsonWriter s;
      s.begin_object()
          .field("ev", "ckpt_save")
          .field("t_us", now_us())
          .field("index", u64{i})
          .field("cycle", cycles[i])
          .end_object();
      log->emit(s.str());
    }
  }
  if (span_book_) {
    const u64 end = span_book_->now_us();
    const u64 dur = micros(build_seconds);
    span_book_->slice("build checkpoint store", "plan",
                      end > dur ? end - dur : 0, dur);
  }
}

void CampaignTelemetry::campaign_finish(const CampaignAggregate& agg,
                                        u64 executed, double wall_seconds) {
  merge_workers();
  registry_.set_gauge(g_wall_seconds_, wall_seconds);
  registry_.set_gauge(g_executed_, static_cast<double>(executed));
  if (auto* log = events()) {
    telemetry::JsonWriter w;
    w.begin_object()
        .field("ev", "campaign_finish")
        .field("t_us", now_us())
        .field("executed", executed)
        .field("wall_seconds", wall_seconds);
    w.key("outcomes").begin_object();
    for (const auto o : kAllOutcomes) {
      w.field(to_string(o), agg.counts.of(o));
    }
    w.end_object().end_object();
    log->emit(w.str());
    log->flush();
  }
  if (span_book_) {
    const u64 end = span_book_->now_us();
    telemetry::JsonWriter args;
    args.begin_object()
        .field("executed", executed)
        .field("wall_seconds", wall_seconds)
        .end_object();
    span_book_->slice("campaign", "lifecycle", span_campaign_start_us_,
                      end > span_campaign_start_us_
                          ? end - span_campaign_start_us_
                          : 0,
                      0, args.str());
  }
}

namespace {

/// Shared shape of the farm lifecycle events: {"ev": ..., "t_us": ...} plus
/// caller-specific fields appended by `extra`.
template <typename Fn>
void emit_farm_event(telemetry::EventLog* log, u64 t_us, std::string_view ev,
                     Fn&& extra) {
  // Without an event log the line still goes to the crash flight recorder
  // (when one is enabled): farm supervision events are exactly the context
  // a postmortem needs. EventLog::emit tees on its own, so the direct
  // note() only runs on the log-less path.
  auto& recorder = telemetry::FlightRecorder::global();
  if (log == nullptr && !recorder.enabled()) return;
  telemetry::JsonWriter w;
  w.begin_object().field("ev", ev).field("t_us", t_us);
  extra(w);
  w.end_object();
  if (log != nullptr) {
    log->emit(w.str());
  } else {
    recorder.note(w.str());
  }
}

}  // namespace

void CampaignTelemetry::farm_worker_spawned(u32 slot, i64 pid,
                                            u32 generation) {
  registry_.add(c_farm_spawned_);
  emit_farm_event(events(), now_us(), "farm_spawn", [&](auto& w) {
    w.field("slot", static_cast<u64>(slot))
        .field("pid", pid)
        .field("generation", static_cast<u64>(generation));
  });
  if (span_book_) {
    telemetry::JsonWriter args;
    args.begin_object()
        .field("slot", static_cast<u64>(slot))
        .field("pid", pid)
        .field("generation", static_cast<u64>(generation))
        .end_object();
    span_book_->instant("spawn worker " + std::to_string(slot), "farm",
                        span_book_->now_us(), 0, args.str());
  }
}

void CampaignTelemetry::farm_worker_exited(u32 slot, i64 pid, bool clean,
                                           int detail) {
  if (!clean) registry_.add(c_farm_crashes_);
  emit_farm_event(events(), now_us(), "farm_exit", [&](auto& w) {
    w.field("slot", static_cast<u64>(slot))
        .field("pid", pid)
        .field("clean", clean)
        .field("detail", static_cast<i64>(detail));
  });
  if (span_book_) {
    telemetry::JsonWriter args;
    args.begin_object()
        .field("slot", static_cast<u64>(slot))
        .field("pid", pid)
        .field("clean", clean)
        .field("detail", static_cast<i64>(detail))
        .end_object();
    span_book_->instant(
        std::string(clean ? "worker exit " : "worker crash ") +
            std::to_string(slot),
        "farm", span_book_->now_us(), 0, args.str());
  }
}

void CampaignTelemetry::farm_watchdog_kill(u32 slot, i64 pid,
                                           std::optional<u32> in_flight) {
  registry_.add(c_farm_watchdog_kills_);
  emit_farm_event(events(), now_us(), "farm_watchdog_kill", [&](auto& w) {
    w.field("slot", static_cast<u64>(slot)).field("pid", pid);
    if (in_flight) w.field("in_flight", static_cast<u64>(*in_flight));
  });
  if (span_book_) {
    telemetry::JsonWriter args;
    args.begin_object().field("slot", static_cast<u64>(slot)).field("pid",
                                                                    pid);
    if (in_flight) args.field("in_flight", static_cast<u64>(*in_flight));
    args.end_object();
    span_book_->instant("watchdog kill " + std::to_string(slot), "farm",
                        span_book_->now_us(), 0, args.str());
  }
}

void CampaignTelemetry::farm_shard_retry(u64 shard, u32 attempt,
                                         double backoff_seconds) {
  registry_.add(c_farm_retries_);
  emit_farm_event(events(), now_us(), "farm_retry", [&](auto& w) {
    w.field("shard", shard)
        .field("attempt", static_cast<u64>(attempt))
        .field("backoff_seconds", backoff_seconds);
  });
  if (span_book_) {
    telemetry::JsonWriter args;
    args.begin_object()
        .field("shard", shard)
        .field("attempt", static_cast<u64>(attempt))
        .field("backoff_seconds", backoff_seconds)
        .end_object();
    // The backoff window is a real slice of campaign wall time: dispatch of
    // this shard is deferred until the slice's right edge.
    span_book_->slice("retry shard " + std::to_string(shard) + " backoff",
                      "farm.retry", span_book_->now_us(),
                      micros(backoff_seconds), 0, args.str());
  }
}

void CampaignTelemetry::farm_strikeout(u32 index, u32 strikes) {
  registry_.add(c_farm_strikeouts_);
  emit_farm_event(events(), now_us(), "farm_strikeout", [&](auto& w) {
    w.field("index", static_cast<u64>(index))
        .field("strikes", static_cast<u64>(strikes));
  });
  if (span_book_) {
    telemetry::JsonWriter args;
    args.begin_object()
        .field("i", static_cast<u64>(index))
        .field("strikes", static_cast<u64>(strikes))
        .end_object();
    span_book_->instant("strikeout i=" + std::to_string(index), "farm",
                        span_book_->now_us(), 0, args.str());
  }
}

void CampaignTelemetry::farm_heartbeat_gap(u32 slot, double gap_seconds) {
  registry_.add(c_farm_hb_gaps_);
  emit_farm_event(events(), now_us(), "farm_heartbeat_gap", [&](auto& w) {
    w.field("slot", static_cast<u64>(slot))
        .field("gap_seconds", gap_seconds);
  });
}

void CampaignTelemetry::prepare_workers(u32 n) {
  while (workers_.size() < n) {
    const u32 tid = static_cast<u32>(workers_.size());
    workers_.push_back(
        std::unique_ptr<WorkerTelemetry>(new WorkerTelemetry(*this, tid)));
  }
}

void CampaignTelemetry::merge_workers() {
  for (const auto& w : workers_) registry_.merge(w->shard_);
}

void WorkerTelemetry::fold() { owner_.registry_.merge(shard_); }

void CampaignTelemetry::note_worker_snapshot(u32 slot, u32 generation,
                                             telemetry::MetricsSnapshot snap) {
  const u64 key = (static_cast<u64>(slot) << 32) | generation;
  const std::lock_guard<std::mutex> lock(fleet_mu_);
  worker_snapshots_[key] = std::move(snap);
}

telemetry::MetricsSnapshot CampaignTelemetry::fleet_snapshot() const {
  telemetry::MetricsSnapshot fleet = registry_.snapshot();
  const std::lock_guard<std::mutex> lock(fleet_mu_);
  for (const auto& [key, snap] : worker_snapshots_) {
    fleet.merge_from(snap);
  }
  return fleet;
}

std::size_t CampaignTelemetry::fleet_workers() const {
  const std::lock_guard<std::mutex> lock(fleet_mu_);
  return worker_snapshots_.size();
}

std::array<u64, kNumOutcomes> CampaignTelemetry::live_outcome_counts() const {
  std::array<u64, kNumOutcomes> counts{};
  for (std::size_t i = 0; i < kNumOutcomes; ++i) {
    counts[i] = live_outcomes_[i].load(std::memory_order_relaxed);
  }
  return counts;
}

void CampaignTelemetry::set_stop_target(double confidence,
                                        double half_width) {
  target_half_width_.store(half_width, std::memory_order_relaxed);
  target_z_.store(stats::z_for_confidence(confidence),
                  std::memory_order_relaxed);
}

std::string CampaignTelemetry::progress_line(u64 done, u64 total,
                                             u64 executed,
                                             double wall_seconds) const {
  const double rate =
      wall_seconds > 0.0 ? static_cast<double>(executed) / wall_seconds : 0.0;
  std::string line = std::to_string(done) + "/" + std::to_string(total);
  char buf[64];
  // Guard the live line against degenerate rates: before the first
  // completion (done == 0, executed == 0) or with a zero/denormal wall
  // clock the division yields 0, inf or nan — print placeholders instead of
  // leaking them into the terminal.
  if (rate > 0.0 && std::isfinite(rate) && done <= total) {
    const double remaining = static_cast<double>(total - done) / rate;
    std::snprintf(buf, sizeof buf, " (%.0f inj/s, ETA %.0fs)", rate,
                  remaining);
    line += buf;
  } else {
    line += " (-- inj/s, ETA --)";
  }
  static constexpr std::array<std::string_view, kNumOutcomes> kShort = {
      "van", "corr", "hang", "cstop", "sdc", "hfatal"};
  u64 tally_total = 0;
  for (std::size_t i = 0; i < kNumOutcomes; ++i) {
    const u64 n = live_outcomes_[i].load(std::memory_order_relaxed);
    tally_total += n;
    line += " ";
    line += kShort[i];
    line += " ";
    line += std::to_string(n);
  }
  // Live early-stop state: the worst (widest) outcome-stratum Wilson
  // half-width so far, against the stop target when one is set — the same
  // statistic the daemon stops campaigns on, visible while it converges.
  const double target = target_half_width_.load(std::memory_order_relaxed);
  double z = target_z_.load(std::memory_order_relaxed);
  if (z <= 0.0) z = stats::z_for_confidence(stats::kDefaultConfidence);
  if (tally_total > 0) {
    double worst = 0.0;
    for (std::size_t i = 0; i < kNumOutcomes; ++i) {
      const u64 n = live_outcomes_[i].load(std::memory_order_relaxed);
      const stats::Interval iv = stats::wilson(n, tally_total, z);
      worst = std::max(worst, iv.width() / 2.0);
    }
    std::snprintf(buf, sizeof buf, " hw %.4f", worst);
    line += buf;
    if (target > 0.0) {
      std::snprintf(buf, sizeof buf, "/%.4f", target);
      line += buf;
    }
  } else {
    line += " hw --";
  }
  return line;
}

void CampaignTelemetry::write_metrics(const std::string& path) {
  merge_workers();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("cannot open metrics output " + path);
  const std::string json = registry_.to_json();
  out.write(json.data(), static_cast<std::streamsize>(json.size()));
  out.put('\n');
}

void CampaignTelemetry::write_chrome_trace(const std::string& path) const {
  if (!span_book_) {
    throw std::runtime_error("span plane was not enabled for this campaign");
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("cannot open chrome trace output " + path);
  out << trace_chrome_json() << '\n';
}

}  // namespace sfi::inject
