// Campaign telemetry: registry semantics, sink formats, and the headline
// guarantee — telemetry is strictly read-only, so a campaign run with every
// sink enabled produces byte-identical records to one with telemetry off.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "avp/testgen.hpp"
#include "sched/scheduler.hpp"
#include "sfi/campaign.hpp"
#include "sfi/engine.hpp"
#include "sfi/telemetry.hpp"
#include "store/merge.hpp"
#include "store/reader.hpp"
#include "telemetry/events.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/json.hpp"
#include "telemetry/metrics.hpp"

namespace sfi {
namespace {

/// Per-test scratch file, removed on destruction.
class TempFile {
 public:
  explicit TempFile(const std::string& name)
      : path_((std::filesystem::temp_directory_path() /
               ("sfi_telemetry_" + name))
                  .string()) {
    std::filesystem::remove(path_);
  }
  ~TempFile() {
    std::error_code ec;
    std::filesystem::remove(path_, ec);
  }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// --- JsonWriter -----------------------------------------------------------

TEST(JsonWriter, ObjectsArraysAndEscapes) {
  telemetry::JsonWriter w;
  w.begin_object()
      .field("s", "a\"b\\c\nd")
      .field("n", u64{42})
      .field("f", 1.5)
      .field("b", true)
      .key("arr")
      .begin_array()
      .value(u64{1})
      .value(u64{2})
      .end_array()
      .end_object();
  EXPECT_EQ(w.str(),
            "{\"s\":\"a\\\"b\\\\c\\nd\",\"n\":42,\"f\":1.5,\"b\":true,"
            "\"arr\":[1,2]}");
}

TEST(JsonWriter, ControlCharactersAreUnicodeEscaped) {
  telemetry::JsonWriter w;
  w.begin_object().field("s", std::string_view("\x01", 1)).end_object();
  EXPECT_EQ(w.str(), "{\"s\":\"\\u0001\"}");
}

// --- metrics registry -----------------------------------------------------

TEST(Metrics, CounterShardMergeIsIdempotent) {
  telemetry::MetricsRegistry reg;
  const auto c = reg.counter("hits");
  telemetry::MetricsShard shard = reg.make_shard();
  shard.add(c);
  shard.add(c, 4);
  EXPECT_EQ(shard.counter(c), 5u);
  EXPECT_EQ(reg.counter_value(c), 0u);  // not merged yet

  reg.merge(shard);
  EXPECT_EQ(reg.counter_value(c), 5u);
  EXPECT_EQ(shard.counter(c), 0u);  // merge zeroes the shard...
  reg.merge(shard);                 // ...so a re-merge is a no-op
  EXPECT_EQ(reg.counter_value(c), 5u);

  shard.add(c, 2);
  reg.merge(shard);
  EXPECT_EQ(reg.counter_value(c), 7u);
}

TEST(Metrics, HistogramBucketsAndOverflow) {
  telemetry::MetricsRegistry reg;
  const auto h = reg.histogram("lat", {1.0, 10.0, 100.0});
  telemetry::MetricsShard shard = reg.make_shard();
  shard.observe(h, 0.5);    // bucket 0: <= 1
  shard.observe(h, 1.0);    // bucket 0: boundary is inclusive
  shard.observe(h, 5.0);    // bucket 1
  shard.observe(h, 1000.0); // overflow bucket
  reg.merge(shard);

  EXPECT_EQ(reg.histogram_count(h), 4u);
  EXPECT_DOUBLE_EQ(reg.histogram_sum(h), 1006.5);
  const auto& buckets = reg.histogram_buckets(h);
  ASSERT_EQ(buckets.size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(buckets[0], 2u);
  EXPECT_EQ(buckets[1], 1u);
  EXPECT_EQ(buckets[2], 0u);
  EXPECT_EQ(buckets[3], 1u);
}

TEST(Metrics, QuantilePinnedValues) {
  // bounds {1,2,4}, buckets {2,4,2} + 2 overflow; 10 observations total.
  const std::vector<double> bounds = {1.0, 2.0, 4.0};
  const std::vector<u64> buckets = {2, 4, 2, 2};

  // Prometheus convention: rank = q * total, linear interpolation inside
  // the holding bucket, first bucket interpolates from 0, overflow clamps
  // to the last finite bound. Every value below is hand-computed.
  EXPECT_DOUBLE_EQ(telemetry::histogram_quantile(bounds, buckets, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(telemetry::histogram_quantile(bounds, buckets, 0.2), 1.0);
  EXPECT_DOUBLE_EQ(telemetry::histogram_quantile(bounds, buckets, 0.5), 1.75);
  EXPECT_DOUBLE_EQ(telemetry::histogram_quantile(bounds, buckets, 0.75), 3.5);
  EXPECT_DOUBLE_EQ(telemetry::histogram_quantile(bounds, buckets, 0.95), 4.0);
  EXPECT_DOUBLE_EQ(telemetry::histogram_quantile(bounds, buckets, 0.99), 4.0);
  // q outside [0,1] clamps rather than extrapolating.
  EXPECT_DOUBLE_EQ(telemetry::histogram_quantile(bounds, buckets, 1.5), 4.0);
  EXPECT_DOUBLE_EQ(telemetry::histogram_quantile(bounds, buckets, -0.5), 0.0);

  // Empty histogram: 0, not NaN.
  EXPECT_DOUBLE_EQ(
      telemetry::histogram_quantile(bounds, {0, 0, 0, 0}, 0.5), 0.0);
  // A rank landing in an empty bucket resolves to that bucket's bound.
  EXPECT_DOUBLE_EQ(
      telemetry::histogram_quantile(bounds, {0, 0, 0, 5}, 0.1), 4.0);

  // The snapshot-side helper is the same estimator.
  telemetry::MetricsSnapshot::Hist h;
  h.bounds = bounds;
  h.buckets = buckets;
  h.count = 10;
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 1.75);
  EXPECT_DOUBLE_EQ(h.quantile(0.95), 4.0);
}

TEST(Metrics, QuantileDegenerateShapes) {
  // No buckets at all (a snapshot from a build with no histograms, or a
  // truncated 'M' frame): 0, never an out-of-bounds read.
  EXPECT_DOUBLE_EQ(telemetry::histogram_quantile({}, {}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(telemetry::histogram_quantile({}, {7}, 0.99), 0.0);

  // Single finite bucket: every quantile interpolates within [0, bound].
  const std::vector<double> one_bound = {8.0};
  EXPECT_DOUBLE_EQ(telemetry::histogram_quantile(one_bound, {4, 0}, 0.5),
                   4.0);
  EXPECT_DOUBLE_EQ(telemetry::histogram_quantile(one_bound, {4, 0}, 1.0),
                   8.0);

  // All mass in the overflow bucket: the estimator has no finite upper
  // edge, so it clamps to the last finite bound instead of inventing one.
  EXPECT_DOUBLE_EQ(telemetry::histogram_quantile(one_bound, {0, 9}, 0.01),
                   8.0);
  EXPECT_DOUBLE_EQ(telemetry::histogram_quantile(one_bound, {0, 9}, 0.99),
                   8.0);

  // And the same shapes through the snapshot-side helper.
  telemetry::MetricsSnapshot::Hist empty;
  EXPECT_DOUBLE_EQ(empty.quantile(0.5), 0.0);
  telemetry::MetricsSnapshot::Hist overflow_only;
  overflow_only.bounds = one_bound;
  overflow_only.buckets = {0, 9};
  overflow_only.count = 9;
  EXPECT_DOUBLE_EQ(overflow_only.quantile(0.5), 8.0);
}

TEST(Metrics, SnapshotMergeAddsAndUnions) {
  telemetry::MetricsRegistry a;
  const auto ca = a.counter("hits");
  const auto ga = a.gauge("level");
  const auto ha = a.histogram("lat", {1.0, 2.0});
  a.add(ca, 3);
  a.set_gauge(ga, 1.0);
  a.observe(ha, 0.5);

  telemetry::MetricsRegistry b;
  const auto cb = b.counter("hits");
  const auto cb2 = b.counter("misses");  // only registered in b
  const auto gb = b.gauge("level");
  const auto hb = b.histogram("lat", {1.0, 2.0});
  b.add(cb, 4);
  b.add(cb2, 9);
  b.set_gauge(gb, 2.0);
  b.observe(hb, 1.5);
  b.observe(hb, 9.0);

  telemetry::MetricsSnapshot s = a.snapshot();
  s.merge_from(b.snapshot());

  // Counters add; instruments unknown on one side are unioned in.
  EXPECT_EQ(s.counter_value("hits"), 7u);
  EXPECT_EQ(s.counter_value("misses"), 9u);
  EXPECT_EQ(s.counter_value("unknown"), 0u);
  // Gauges are levels: last write (the merged-in snapshot) wins.
  EXPECT_DOUBLE_EQ(s.gauge_value("level"), 2.0);
  // Histogram buckets add element-wise.
  const telemetry::MetricsSnapshot::Hist* h = s.histogram("lat");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 3u);
  EXPECT_DOUBLE_EQ(h->sum, 11.0);
  ASSERT_EQ(h->buckets.size(), 3u);
  EXPECT_EQ(h->buckets[0], 1u);
  EXPECT_EQ(h->buckets[1], 1u);
  EXPECT_EQ(h->buckets[2], 1u);

  // Merging is associative enough for the fleet use: folding the same
  // worker snapshot into a fresh base twice gives doubled counters (the
  // coordinator guards against this by keeping only the LATEST snapshot
  // per worker; this just pins the additive semantics it relies on).
  telemetry::MetricsSnapshot twice = a.snapshot();
  twice.merge_from(b.snapshot());
  twice.merge_from(b.snapshot());
  EXPECT_EQ(twice.counter_value("hits"), 11u);
}

TEST(Metrics, ExpBucketsAreStrictlyIncreasing) {
  const auto b = telemetry::exp_buckets(1e-6, 10.0, 3);
  ASSERT_GE(b.size(), 2u);
  for (std::size_t i = 1; i < b.size(); ++i) EXPECT_GT(b[i], b[i - 1]);
  EXPECT_DOUBLE_EQ(b.front(), 1e-6);
  EXPECT_GE(b.back(), 10.0 - 1e-9);
}

TEST(Metrics, ToJsonCarriesEveryInstrument) {
  telemetry::MetricsRegistry reg;
  const auto c = reg.counter("hits");
  const auto g = reg.gauge("level");
  const auto h = reg.histogram("lat", {1.0, 2.0});
  reg.add(c, 3);
  reg.set_gauge(g, 2.5);
  reg.observe(h, 1.5);
  const std::string j = reg.to_json();
  EXPECT_NE(j.find("\"hits\":3"), std::string::npos);
  EXPECT_NE(j.find("\"level\":2.5"), std::string::npos);
  EXPECT_NE(j.find("\"lat\""), std::string::npos);
  EXPECT_NE(j.find("\"count\":1"), std::string::npos);
}

// --- flight recorder -------------------------------------------------------

TEST(FlightRecorder, DisabledRecorderIsInert) {
  telemetry::FlightRecorder fr;
  EXPECT_FALSE(fr.enabled());
  fr.note("never stored");  // must not crash
  TempFile f("fr_disabled.jsonl");
  EXPECT_EQ(fr.dump(f.path()), 0u);
}

TEST(FlightRecorder, RingOverflowKeepsNewestOldestFirst) {
  telemetry::FlightRecorder fr;
  fr.enable(4);
  ASSERT_TRUE(fr.enabled());
  EXPECT_EQ(fr.capacity(), 4u);
  for (int i = 0; i < 10; ++i) fr.note("line " + std::to_string(i));
  EXPECT_EQ(fr.noted(), 10u);  // wrapped: 10 noted into 4 slots

  TempFile f("fr_ring.jsonl");
  EXPECT_EQ(fr.dump(f.path()), 4u);
  // The survivors are exactly the newest capacity lines, oldest first.
  EXPECT_EQ(slurp(f.path()), "line 6\nline 7\nline 8\nline 9\n");

  // enable() is first-call-wins: the ring must never move or resize once
  // signal handlers may read it.
  fr.enable(64);
  EXPECT_EQ(fr.capacity(), 4u);
}

TEST(FlightRecorder, OverlongLinesAreTruncatedNotDropped) {
  telemetry::FlightRecorder fr;
  fr.enable(2);
  const std::string big(telemetry::FlightRecorder::kLineBytes + 100, 'x');
  fr.note(big);
  TempFile f("fr_trunc.jsonl");
  ASSERT_EQ(fr.dump(f.path()), 1u);
  const std::string out = slurp(f.path());
  EXPECT_EQ(out.size(), telemetry::FlightRecorder::kLineBytes + 1);  // + \n
  EXPECT_EQ(out.back(), '\n');
  EXPECT_EQ(out.find_first_not_of("x\n"), std::string::npos);
}

TEST(FlightRecorder, EventLogTeesIntoGlobalRecorder) {
  // The global recorder is process-wide and first-enable-wins; use a small
  // ring here (other tests in this binary use local instances).
  telemetry::FlightRecorder& g = telemetry::FlightRecorder::global();
  g.enable(16);
  const u64 before = g.noted();
  TempFile f("fr_tee.jsonl");
  telemetry::EventLog log;
  log.open(f.path());
  log.emit("{\"ev\":\"recorded\"}");
  log.flush();
  EXPECT_GE(g.noted(), before + 1);
  TempFile dumped("fr_tee_dump.jsonl");
  ASSERT_GT(g.dump(dumped.path()), 0u);
  EXPECT_NE(slurp(dumped.path()).find("\"ev\":\"recorded\""),
            std::string::npos);
}

// --- event log ---------------------------------------------------------

TEST(EventLog, EmitsOneLinePerEvent) {
  TempFile f("events.jsonl");
  telemetry::EventLog log;
  log.open(f.path());
  log.emit("{\"ev\":\"a\"}");
  log.emit("{\"ev\":\"b\"}");
  log.flush();
  EXPECT_EQ(log.emitted(), 2u);
  EXPECT_EQ(slurp(f.path()), "{\"ev\":\"a\"}\n{\"ev\":\"b\"}\n");
}

// --- campaign integration -------------------------------------------------

avp::Testcase small_testcase() {
  avp::TestcaseConfig cfg;
  cfg.seed = 11;
  cfg.num_instructions = 80;
  return avp::generate_testcase(cfg);
}

inject::CampaignConfig small_campaign(u32 n, u32 threads) {
  inject::CampaignConfig cfg;
  cfg.seed = 77;
  cfg.num_injections = n;
  cfg.threads = threads;
  return cfg;
}

bool records_equal(const inject::InjectionRecord& a,
                   const inject::InjectionRecord& b) {
  return a.fault.index == b.fault.index && a.fault.cycle == b.fault.cycle &&
         a.outcome == b.outcome && a.unit == b.unit && a.type == b.type &&
         a.end_cycle == b.end_cycle && a.early_exited == b.early_exited &&
         a.recoveries == b.recoveries;
}

/// Worker indices (tid - 1) matched by `re` in a rendered trace.
std::set<u32> worker_tids(const std::string& json, const std::regex& re) {
  std::set<u32> out;
  for (auto it = std::sregex_iterator(json.begin(), json.end(), re);
       it != std::sregex_iterator(); ++it) {
    const auto tid = static_cast<u32>(std::stoul((*it)[1].str()));
    if (tid > 0) out.insert(tid - 1);
  }
  return out;
}

/// The span plane of an in-process campaign, rendered: the lifecycle
/// slices on tid 0, and one named track per worker that recorded spans
/// (every worker that ran an injection does: the exemplar policy always
/// slices its first). `shards`: the store path also records shard slices.
void expect_campaign_trace(const inject::CampaignTelemetry& tel,
                           bool shards) {
  const std::string json = tel.trace_chrome_json();
  EXPECT_NE(json.find("\"name\":\"campaign\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"build checkpoint store\",\"cat\":\"plan\""),
            std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"injection"), std::string::npos);
  EXPECT_EQ(json.find("\"cat\":\"shard\"") != std::string::npos, shards);
  const std::set<u32> rows = worker_tids(
      json,
      std::regex(R"re("name":"thread_name","ph":"M","pid":\d+,"tid":(\d+))re"));
  const std::set<u32> tracks = worker_tids(
      json, std::regex(R"re("ph":"X","ts":\d+,"pid":\d+,"tid":(\d+))re"));
  EXPECT_FALSE(tracks.empty());
  EXPECT_EQ(rows, tracks);
  for (const u32 w : rows) {
    EXPECT_NE(json.find("\"name\":\"worker " + std::to_string(w) + "\""),
              std::string::npos)
        << w;
  }
}

TEST(CampaignTelemetry, ResultsIdenticalWithAndWithoutTelemetry) {
  const avp::Testcase tc = small_testcase();

  const inject::CampaignResult plain =
      inject::run_campaign(tc, small_campaign(40, 2));

  TempFile events("campaign_events.jsonl");
  inject::CampaignTelemetry tel;
  tel.open_event_log(events.path());
  tel.enable_span_plane("sfi", 0);
  inject::CampaignConfig cfg = small_campaign(40, 2);
  cfg.telemetry = &tel;
  const inject::CampaignResult traced = inject::run_campaign(tc, cfg);

  ASSERT_EQ(plain.records.size(), traced.records.size());
  for (std::size_t i = 0; i < plain.records.size(); ++i) {
    EXPECT_TRUE(records_equal(plain.records[i], traced.records[i]))
        << "record " << i;
  }

  // The registry's authoritative counters agree with the aggregation.
  EXPECT_EQ(tel.metrics().counter_value_by_name("injections"), 40u);
  for (const auto o : inject::kAllOutcomes) {
    const std::string name = "outcome." + std::string(to_string(o));
    EXPECT_EQ(tel.metrics().counter_value_by_name(name),
              traced.agg.counts.of(o))
        << name;
  }

  // The event log bookends the campaign.
  const std::string log = slurp(events.path());
  EXPECT_NE(log.find("\"ev\":\"campaign_start\""), std::string::npos);
  EXPECT_NE(log.find("\"ev\":\"campaign_finish\""), std::string::npos);
  EXPECT_NE(log.find("\"ev\":\"injection\""), std::string::npos);
  expect_campaign_trace(tel, /*shards=*/false);
}

// The in-memory campaign claims single indices, so a small campaign still
// spreads over several workers (the thread-count identity tests rely on
// it), and it has no shards, so it writes no shard events.
TEST(CampaignTelemetry, InMemoryCampaignClaimsSingleIndicesOnEveryWorker) {
  const avp::Testcase tc = small_testcase();
  TempFile events("stream_events.jsonl");
  inject::CampaignTelemetry tel;
  tel.open_event_log(events.path());
  inject::CampaignConfig cfg = small_campaign(60, 3);
  cfg.telemetry = &tel;
  const inject::CampaignResult r = inject::run_campaign(tc, cfg);
  EXPECT_EQ(r.counts().total(), 60u);

  const std::string log = slurp(events.path());
  EXPECT_EQ(log.find("\"ev\":\"shard_"), std::string::npos);
  std::vector<bool> seen(3, false);
  std::istringstream lines(log);
  for (std::string line; std::getline(lines, line);) {
    if (line.find("\"ev\":\"injection\"") == std::string::npos) continue;
    for (u32 t = 0; t < 3; ++t) {
      if (line.find("\"worker\":" + std::to_string(t) + ",") !=
          std::string::npos) {
        seen[t] = true;
      }
    }
  }
  // Every worker starts before the first one could finish 60 injections
  // alone; at least two of them must have run some.
  EXPECT_GE(std::count(seen.begin(), seen.end(), true), 2);
}

TEST(CampaignTelemetry, ProgressLineHasRateAndTallies) {
  inject::CampaignTelemetry tel;
  const std::string line = tel.progress_line(50, 100, 50, 2.0);
  EXPECT_NE(line.find("50/100"), std::string::npos);
  EXPECT_NE(line.find("25 inj/s"), std::string::npos);
  EXPECT_NE(line.find("ETA"), std::string::npos);
  EXPECT_NE(line.find("van"), std::string::npos);
  EXPECT_NE(line.find("sdc"), std::string::npos);
}

TEST(CampaignTelemetry, ProgressLineGuardsDegenerateRate) {
  inject::CampaignTelemetry tel;
  // Zero executed / zero wall time must not divide through to inf/nan ETAs.
  const std::string at_start = tel.progress_line(0, 100, 0, 0.0);
  EXPECT_NE(at_start.find("0/100"), std::string::npos);
  EXPECT_NE(at_start.find("ETA --"), std::string::npos);
  EXPECT_EQ(at_start.find("nan"), std::string::npos);
  EXPECT_EQ(at_start.find("inf"), std::string::npos);

  // Resumed-only progress: everything persisted, nothing executed live.
  const std::string resumed_only = tel.progress_line(80, 100, 0, 5.0);
  EXPECT_NE(resumed_only.find("ETA --"), std::string::npos);

  // done > total (defensive: a resumed store with surplus records) must not
  // print a negative ETA.
  const std::string overshoot = tel.progress_line(120, 100, 120, 2.0);
  EXPECT_NE(overshoot.find("ETA --"), std::string::npos);
}

TEST(CampaignTelemetry, ProgressLineShowsEarlyStopState) {
  inject::CampaignTelemetry tel;
  // No records yet: the half-width is meaningless, print a placeholder.
  EXPECT_NE(tel.progress_line(0, 100, 0, 0.0).find("hw --"),
            std::string::npos);

  // 90/10 split over 100 records: the worst outcome-stratum Wilson
  // half-width is a concrete number, rendered against the stop target.
  for (int i = 0; i < 90; ++i) {
    tel.live_outcome_add(inject::Outcome::Vanished);
  }
  for (int i = 0; i < 10; ++i) {
    tel.live_outcome_add(inject::Outcome::Corrected);
  }
  tel.set_stop_target(0.95, 0.05);
  const std::string line = tel.progress_line(100, 600, 100, 1.0);
  const auto hw = line.find(" hw 0.0");
  ASSERT_NE(hw, std::string::npos) << line;
  EXPECT_NE(line.find("/0.05", hw), std::string::npos) << line;
  EXPECT_EQ(line.find("hw --"), std::string::npos);
}

TEST(CampaignTelemetry, FleetSnapshotFoldsWorkerReports) {
  inject::CampaignTelemetry tel;
  EXPECT_EQ(tel.fleet_workers(), 0u);

  telemetry::MetricsSnapshot w0;
  w0.counters.emplace_back("injections", 10);
  telemetry::MetricsSnapshot w0_later;
  w0_later.counters.emplace_back("injections", 25);
  telemetry::MetricsSnapshot w1;
  w1.counters.emplace_back("injections", 7);

  tel.note_worker_snapshot(0, 0, w0);
  tel.note_worker_snapshot(0, 0, w0_later);  // same worker: latest wins
  tel.note_worker_snapshot(1, 0, w1);
  EXPECT_EQ(tel.fleet_workers(), 2u);
  // Snapshots are cumulative per worker, so the fleet view is the sum of
  // the LATEST report per (slot, generation) — not of every report.
  EXPECT_EQ(tel.fleet_snapshot().counter_value("injections"), 32u);

  // A replacement worker (new generation) adds rather than overwrites: the
  // crashed predecessor's final counts stay in the fleet view.
  telemetry::MetricsSnapshot w0g1;
  w0g1.counters.emplace_back("injections", 3);
  tel.note_worker_snapshot(0, 1, w0g1);
  EXPECT_EQ(tel.fleet_workers(), 3u);
  EXPECT_EQ(tel.fleet_snapshot().counter_value("injections"), 35u);
}

TEST(CampaignTelemetry, EventSamplingThinsInjectionRecords) {
  const avp::Testcase tc = small_testcase();
  TempFile events("sampled_events.jsonl");
  inject::TelemetryConfig tcfg;
  tcfg.event_sample = 0;  // lifecycle only
  inject::CampaignTelemetry tel(tcfg);
  tel.open_event_log(events.path());
  inject::CampaignConfig cfg = small_campaign(20, 1);
  cfg.telemetry = &tel;
  (void)inject::run_campaign(tc, cfg);
  const std::string log = slurp(events.path());
  EXPECT_EQ(log.find("\"ev\":\"injection\""), std::string::npos);
  EXPECT_NE(log.find("\"ev\":\"campaign_finish\""), std::string::npos);
}

TEST(ScheduledTelemetry, StoreBytesIdenticalWithTelemetryOn) {
  const avp::Testcase tc = small_testcase();

  // Single-threaded: append order is deterministic, so the raw store files
  // must match byte for byte.
  TempFile plain_store("plain.sfr");
  TempFile traced_store("traced.sfr");
  TempFile events("sched_events.jsonl");

  sched::SchedulerConfig sc;
  sc.threads = 1;
  (void)sched::run_campaign_to_store(tc, small_campaign(30, 1),
                                     plain_store.path(), sc);

  inject::CampaignTelemetry tel;
  tel.open_event_log(events.path());
  tel.enable_span_plane("sfi", 0);
  inject::CampaignConfig cfg = small_campaign(30, 1);
  cfg.telemetry = &tel;
  const sched::ScheduledResult r =
      sched::run_campaign_to_store(tc, cfg, traced_store.path(), sc);

  EXPECT_TRUE(r.complete);
  EXPECT_EQ(slurp(plain_store.path()), slurp(traced_store.path()));

  // Shard lifecycle made it into the event log.
  const std::string log = slurp(events.path());
  EXPECT_NE(log.find("\"ev\":\"shard_dispatch\""), std::string::npos);
  EXPECT_NE(log.find("\"ev\":\"shard_complete\""), std::string::npos);
  expect_campaign_trace(tel, /*shards=*/true);
  EXPECT_NE(tel.trace_chrome_json().find("\"name\":\"worker 0\""),
            std::string::npos);
}

TEST(ScheduledTelemetry, CanonicalMergeIdenticalAcrossThreadCounts) {
  const avp::Testcase tc = small_testcase();

  // Multi-threaded append order is nondeterministic; the canonical merge is
  // the byte-identity surface (same guarantee the store tests rely on).
  TempFile plain_store("mt_plain.sfr");
  TempFile traced_store("mt_traced.sfr");
  TempFile plain_merged("mt_plain_merged.sfr");
  TempFile traced_merged("mt_traced_merged.sfr");

  sched::SchedulerConfig sc;
  sc.threads = 3;
  sc.shard_size = 4;
  (void)sched::run_campaign_to_store(tc, small_campaign(36, 3),
                                     plain_store.path(), sc);

  inject::CampaignTelemetry tel;
  tel.enable_span_plane("sfi", 0);
  inject::CampaignConfig cfg = small_campaign(36, 3);
  cfg.telemetry = &tel;
  (void)sched::run_campaign_to_store(tc, cfg, traced_store.path(), sc);

  (void)store::merge_stores({plain_store.path()}, plain_merged.path());
  (void)store::merge_stores({traced_store.path()}, traced_merged.path());
  EXPECT_EQ(slurp(plain_merged.path()), slurp(traced_merged.path()));
  expect_campaign_trace(tel, /*shards=*/true);
}

// The lane engine's work counters reach the metrics registry (and from
// there --metrics-out, /metrics and 'M' frames) without touching records.
TEST(CampaignTelemetry, LaneCountersFoldIntoRegistry) {
  const avp::Testcase tc = small_testcase();
  inject::CampaignConfig cfg = small_campaign(200, 3);
  cfg.engine = inject::EngineKind::Lanes;
  cfg.lanes = 16;
  const inject::CampaignResult plain = inject::run_campaign(tc, cfg);

  inject::CampaignTelemetry tel;
  cfg.telemetry = &tel;
  const inject::CampaignResult traced = inject::run_campaign(tc, cfg);
  ASSERT_EQ(plain.records.size(), traced.records.size());
  for (std::size_t i = 0; i < plain.records.size(); ++i) {
    EXPECT_TRUE(records_equal(plain.records[i], traced.records[i]))
        << "record " << i;
  }

  const auto& m = tel.metrics();
  const u64 trips = m.counter_value_by_name("lane.trips");
  const u64 tails = m.counter_value_by_name("lane.tails");
  EXPECT_GT(trips, 0u);
  EXPECT_EQ(trips, m.counter_value_by_name("lane.ejected") + tails);
  u64 tail_sum = 0;
  for (const auto o : inject::kAllOutcomes) {
    tail_sum += m.counter_value_by_name("lane.tail." +
                                        std::string(to_string(o)));
  }
  EXPECT_EQ(tail_sum, tails);
  EXPECT_GT(m.counter_value_by_name("lane.retired_converged"), 0u);
  if (m.counter_value_by_name("lane.restores") > 0) {
    EXPECT_GT(m.counter_value_by_name("lane.restore_ns"), 0u);
  }

  // The scalar engine registers the same counters and never moves them.
  inject::CampaignTelemetry scalar_tel;
  cfg.engine = inject::EngineKind::Scalar;
  cfg.telemetry = &scalar_tel;
  (void)inject::run_campaign(tc, cfg);
  std::size_t lane_counters = 0;
  for (const auto& [name, value] : scalar_tel.metrics().snapshot().counters) {
    if (!name.starts_with("lane.")) continue;
    ++lane_counters;
    EXPECT_EQ(value, 0u) << name;
  }
  EXPECT_EQ(lane_counters, 13u + 2 * inject::kNumOutcomes);
}

TEST(ScheduledTelemetry, ProgressReportsExecutedAndWall) {
  const avp::Testcase tc = small_testcase();
  TempFile store("progress.sfr");
  sched::SchedulerConfig sc;
  sc.threads = 1;
  sc.flush_records = 8;
  std::vector<sched::Progress> seen;
  sc.on_progress = [&](const sched::Progress& p) { seen.push_back(p); };
  (void)sched::run_campaign_to_store(tc, small_campaign(24, 1), store.path(),
                                     sc);
  ASSERT_FALSE(seen.empty());
  EXPECT_EQ(seen.front().executed, 0u);
  EXPECT_EQ(seen.back().done, 24u);
  EXPECT_EQ(seen.back().executed, 24u);
  for (std::size_t i = 1; i < seen.size(); ++i) {
    EXPECT_GE(seen[i].executed, seen[i - 1].executed);
    EXPECT_GE(seen[i].wall_seconds, seen[i - 1].wall_seconds);
    EXPECT_GE(seen[i].steady_us, seen[i - 1].steady_us);
  }
}

}  // namespace
}  // namespace sfi
