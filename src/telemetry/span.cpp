#include "telemetry/span.hpp"

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <map>
#include <set>
#include <utility>

#include "telemetry/json.hpp"

namespace sfi::telemetry {

SpanBook::SpanBook(std::string process_name)
    : process_(std::move(process_name)),
      pid_(static_cast<u64>(::getpid())),
      steady_epoch_(std::chrono::steady_clock::now()) {
  // One (wall, steady) pair, captured together: every timestamp this book
  // ever emits is wall_epoch + steady_elapsed, so within the process time
  // is monotonic even if the wall clock steps underneath us.
  wall_epoch_us_ = static_cast<u64>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
  // Fleet-unique span ids without coordination: fold the pid into the
  // counter's high bits (collisions would need 2^24 spans per process).
  next_span_ = (pid_ << 24) + 1;
}

u64 SpanBook::now_us() const {
  const auto elapsed = std::chrono::steady_clock::now() - steady_epoch_;
  return wall_epoch_us_ +
         static_cast<u64>(
             std::chrono::duration_cast<std::chrono::microseconds>(elapsed)
                 .count());
}

void SpanBook::set_trace_id(u64 id) {
  std::lock_guard lock(mu_);
  trace_id_ = id;
}

u64 SpanBook::trace_id() const {
  std::lock_guard lock(mu_);
  return trace_id_;
}

void SpanBook::set_process_name(std::string name) {
  std::lock_guard lock(mu_);
  process_ = std::move(name);
}

u64 SpanBook::push(std::string_view name, std::string_view cat, char ph,
                   u64 ts_us, u64 dur_us, u64 parent, std::string args_json,
                   u32 tid) {
  std::lock_guard lock(mu_);
  SpanRecord s;
  s.trace_id = trace_id_;
  s.span_id = next_span_++;
  s.parent_id = parent;
  s.pid = pid_;
  s.tid = tid;
  s.ph = ph;
  s.ts_us = ts_us;
  s.dur_us = dur_us;
  s.process = process_;
  s.name = std::string(name);
  s.cat = std::string(cat);
  s.args_json = std::move(args_json);
  const u64 id = s.span_id;
  spans_.push_back(std::move(s));
  return id;
}

u64 SpanBook::slice(std::string_view name, std::string_view cat, u64 ts_us,
                    u64 dur_us, u64 parent, std::string args_json, u32 tid) {
  return push(name, cat, 'X', ts_us, dur_us, parent, std::move(args_json),
              tid);
}

u64 SpanBook::instant(std::string_view name, std::string_view cat, u64 ts_us,
                      u64 parent, std::string args_json, u32 tid) {
  return push(name, cat, 'i', ts_us, 0, parent, std::move(args_json), tid);
}

std::vector<SpanRecord> SpanBook::drain() {
  std::lock_guard lock(mu_);
  std::vector<SpanRecord> out;
  out.swap(spans_);
  return out;
}

std::vector<SpanRecord> SpanBook::snapshot() const {
  std::lock_guard lock(mu_);
  return spans_;
}

std::size_t SpanBook::size() const {
  std::lock_guard lock(mu_);
  return spans_.size();
}

// --- tail-latency exemplar policy ------------------------------------------

TailExemplarPolicy::TailExemplarPolicy(u32 sample_every, u32 warmup)
    : sample_every_(sample_every == 0 ? 1 : sample_every), warmup_(warmup) {}

void TailExemplarPolicy::recompute() {
  if (total_ == 0) {
    threshold_us_ = ~0ull;
    return;
  }
  // Find the bucket where the cumulative count crosses 99% and interpolate
  // the threshold inside it (bucket b holds durations with bit_width b,
  // i.e. [2^(b-1), 2^b)). A bucket-edge threshold would demand a 2x
  // outlier before anything counted as tail — on a workload whose
  // durations live in one or two log2 buckets that records no exemplars at
  // all, which is exactly the regime injections are in.
  const u64 target = total_ - total_ / 100;
  u64 cum = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    if (counts_[b] == 0) continue;
    cum += counts_[b];
    if (cum >= target) {
      if (b >= 63) {
        threshold_us_ = ~0ull;
        return;
      }
      const u64 lower = b == 0 ? 0 : u64{1} << (b - 1);
      const u64 upper = (u64{1} << b) - 1;
      const double below = static_cast<double>(cum - counts_[b]);
      const double frac = (static_cast<double>(target) - below) /
                          static_cast<double>(counts_[b]);
      threshold_us_ =
          lower + static_cast<u64>(frac * static_cast<double>(upper - lower));
      return;
    }
  }
  threshold_us_ = ~0ull;
}

TailExemplarPolicy::Decision TailExemplarPolicy::note(u64 dur_us) {
  Decision d;
  const bool warmed = seq_ >= warmup_;
  if (warmed && dur_us > threshold_us_) {
    d.record = true;
    d.exemplar = true;
    ++exemplars_;
  } else if (seq_ % sample_every_ == 0) {
    d.record = true;
  }
  const auto bucket =
      static_cast<std::size_t>(std::bit_width(dur_us));  // 0..64
  counts_[std::min(bucket, kBuckets - 1)] += 1;
  ++total_;
  ++seq_;
  if (seq_ % kRecomputeEvery == 0 || (warmed && threshold_us_ == ~0ull)) {
    recompute();
  }
  if (seq_ % kDecayEvery == 0) {
    // Halve the histogram so the threshold tracks the recent workload; the
    // next recompute sees half-weight history plus full-weight present.
    total_ = 0;
    for (auto& c : counts_) {
      c /= 2;
      total_ += c;
    }
  }
  return d;
}

// --- stitched rendering -----------------------------------------------------

std::string spans_to_chrome_json(const std::vector<SpanRecord>& spans) {
  u64 min_ts = ~0ull;
  for (const SpanRecord& s : spans) min_ts = std::min(min_ts, s.ts_us);
  if (spans.empty()) min_ts = 0;

  JsonWriter w;
  w.begin_object().key("traceEvents").begin_array();

  // One process_name metadata row per distinct pid (first span's label
  // wins), in first-seen order so worker rows come out dispatch-ordered.
  std::map<u64, const SpanRecord*> seen;
  for (const SpanRecord& s : spans) seen.try_emplace(s.pid, &s);
  for (const auto& [pid, first] : seen) {
    w.begin_object()
        .field("name", "process_name")
        .field("ph", "M")
        .field("pid", pid)
        .field("tid", u64{0})
        .key("args")
        .begin_object()
        .field("name", first->process)
        .end_object()
        .end_object();
  }
  // One thread_name row per (pid, tid): tid 0 is the process's lifecycle
  // row, tid k + 1 carries worker k's shard and injection slices.
  std::set<std::pair<u64, u32>> tracks;
  for (const SpanRecord& s : spans) tracks.emplace(s.pid, s.tid);
  for (const auto& [pid, tid] : tracks) {
    w.begin_object()
        .field("name", "thread_name")
        .field("ph", "M")
        .field("pid", pid)
        .field("tid", tid)
        .key("args")
        .begin_object()
        .field("name", tid == 0 ? std::string("lifecycle")
                                : "worker " + std::to_string(tid - 1))
        .end_object()
        .end_object();
  }

  for (const SpanRecord& s : spans) {
    w.begin_object()
        .field("name", s.name)
        .field("cat", s.cat.empty() ? std::string_view("span")
                                    : std::string_view(s.cat))
        .field("ph", std::string_view(&s.ph, 1))
        .field("ts", s.ts_us - min_ts)
        .field("pid", s.pid)
        .field("tid", s.tid);
    if (s.ph == 'X') w.field("dur", s.dur_us);
    if (s.ph == 'i') w.field("s", "t");
    w.key("args").begin_object();
    w.field("trace_id", s.trace_id).field("span_id", s.span_id);
    if (s.parent_id != 0) w.field("parent", s.parent_id);
    if (!s.args_json.empty()) {
      // args_json is a pre-rendered object; splice its fields.
      std::string_view inner(s.args_json);
      if (inner.size() >= 2 && inner.front() == '{' && inner.back() == '}') {
        inner = inner.substr(1, inner.size() - 2);
      }
      if (!inner.empty()) w.raw(std::string(inner));
    }
    w.end_object().end_object();
  }

  w.end_array().field("displayTimeUnit", "ms").end_object();
  return w.str();
}

}  // namespace sfi::telemetry
