// Distributed span plane (telemetry/span, store 'S' frames, trace_stitch):
// the campaign-scoped tracing layer farm/serve processes record into their
// stores and `sfi trace` stitches back together.
//
// Load-bearing assertions:
//   * 'S' frames are invisible to every consumer of campaign data — readers
//     skip them, the canonical merge drops them — so the merged store is
//     byte-identical with the plane on or off (the observability-only
//     contract every telemetry surface in this repo honours);
//   * SpanRecord codec round-trips exactly and rejects malformed input;
//   * SpanBook timestamps are wall-anchored and monotonic, so a stitcher
//     can overlay processes with no clock coordination;
//   * TailExemplarPolicy always records injections beyond the moving p99
//     and samples the rest 1-in-N;
//   * a farm campaign with the plane on leaves a stitchable sidecar with
//     one process row per OS process and the dispatch→shard parent link.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "avp/testgen.hpp"
#include "farm/farm.hpp"
#include "sfi/telemetry.hpp"
#include "store/codec.hpp"
#include "store/merge.hpp"
#include "store/reader.hpp"
#include "store/trace_stitch.hpp"
#include "store/writer.hpp"
#include "telemetry/span.hpp"

namespace sfi {
namespace {

class TempFile {
 public:
  explicit TempFile(const std::string& name)
      : path_((std::filesystem::temp_directory_path() /
               ("sfi_trace_plane_test_" + name + ".sfr"))
                  .string()) {
    std::filesystem::remove(path_);
    std::filesystem::remove(sidecar());
  }
  ~TempFile() {
    std::error_code ec;
    std::filesystem::remove(path_, ec);
    std::filesystem::remove(sidecar(), ec);
  }
  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] std::string sidecar() const {
    std::string base = path_;
    base.resize(base.size() - 4);  // strip ".sfr"
    return base + ".trace.sfr";
  }

 private:
  std::string path_;
};

std::vector<u8> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

telemetry::SpanRecord sample_span() {
  telemetry::SpanRecord sp;
  sp.trace_id = 0xCAFE;
  sp.span_id = 42;
  sp.parent_id = 7;
  sp.pid = 1234;
  sp.tid = 3;
  sp.ph = 'X';
  sp.ts_us = 1'700'000'000'000'000ull;
  sp.dur_us = 250;
  sp.process = "sfi worker 3";
  sp.name = "shard 9 attempt 1";
  sp.cat = "shard.exec";
  sp.args_json = R"({"shard":9})";
  return sp;
}

store::CampaignMeta tiny_meta() {
  store::CampaignMeta meta;
  meta.seed = 1;
  meta.num_injections = 4;
  return meta;
}

TEST(SpanCodec, RoundTripsEveryField) {
  const telemetry::SpanRecord sp = sample_span();
  const std::vector<u8> bytes = store::encode_span(sp);
  const telemetry::SpanRecord back = store::decode_span(bytes);
  EXPECT_EQ(back.trace_id, sp.trace_id);
  EXPECT_EQ(back.span_id, sp.span_id);
  EXPECT_EQ(back.parent_id, sp.parent_id);
  EXPECT_EQ(back.pid, sp.pid);
  EXPECT_EQ(back.tid, sp.tid);
  EXPECT_EQ(back.ph, sp.ph);
  EXPECT_EQ(back.ts_us, sp.ts_us);
  EXPECT_EQ(back.dur_us, sp.dur_us);
  EXPECT_EQ(back.process, sp.process);
  EXPECT_EQ(back.name, sp.name);
  EXPECT_EQ(back.cat, sp.cat);
  EXPECT_EQ(back.args_json, sp.args_json);
}

TEST(SpanCodec, RejectsUnknownPhase) {
  telemetry::SpanRecord sp = sample_span();
  sp.ph = 'Z';
  const std::vector<u8> bytes = store::encode_span(sp);
  EXPECT_THROW((void)store::decode_span(bytes), store::StoreError);
}

TEST(SpanCodec, RejectsTruncatedPayload) {
  std::vector<u8> bytes = store::encode_span(sample_span());
  bytes.resize(bytes.size() / 2);
  EXPECT_THROW((void)store::decode_span(bytes), store::StoreError);
}

TEST(SpanFrames, InvisibleToReadersAndDroppedByMerge) {
  TempFile with("with_spans"), without("without_spans"), merged("merged");
  const store::CampaignMeta meta = tiny_meta();
  const auto write_records = [&](store::StoreWriter& w) {
    for (u32 i = 0; i < 4; ++i) {
      store::StoredRecord sr;
      sr.index = i;
      sr.rec.outcome = inject::Outcome::Vanished;
      w.append(sr);
    }
  };
  {
    store::StoreWriter w = store::StoreWriter::create(with.path(), meta);
    w.append_span(sample_span());
    write_records(w);
    w.append_span(sample_span());
    w.flush();
  }
  {
    store::StoreWriter w = store::StoreWriter::create(without.path(), meta);
    write_records(w);
    w.flush();
  }

  // Readers surface the records and skip 'S' silently.
  const store::StoreContents c = store::read_store(with.path());
  EXPECT_EQ(c.records.size(), 4u);

  // The canonical merge of the span-bearing store is byte-identical to the
  // merge of the clean one: 'S' never reaches campaign data.
  TempFile merged2("merged2");
  (void)store::merge_stores({with.path()}, merged.path());
  (void)store::merge_stores({without.path()}, merged2.path());
  EXPECT_EQ(slurp(merged.path()), slurp(merged2.path()));

  // And the raw frame stream of the merged store contains no 'S'.
  store::StoreReader r(merged.path());
  u8 kind = 0;
  std::vector<u8> payload;
  while (r.next_frame(kind, payload)) {
    EXPECT_NE(kind, store::kSpanFrame);
  }
}

TEST(SpanBook, WallAnchoredMonotonicIds) {
  telemetry::SpanBook book("proc");
  const u64 wall_now = static_cast<u64>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
  // The anchor is the construction instant, so now_us() tracks the wall
  // clock to well under a minute even on a loaded box.
  const u64 t0 = book.now_us();
  EXPECT_LT(t0 > wall_now ? t0 - wall_now : wall_now - t0, 60'000'000ull);
  const u64 t1 = book.now_us();
  EXPECT_GE(t1, t0);

  book.set_trace_id(99);
  const u64 a = book.slice("a", "cat", t0, 5);
  const u64 b = book.instant("b", "cat", t1, a);
  EXPECT_NE(a, 0u);
  EXPECT_NE(b, a);
  // Ids fold in the pid, so two processes can never collide.
  EXPECT_EQ(a >> 24, book.pid());

  EXPECT_EQ(book.size(), 2u);
  const auto snap = book.snapshot();
  EXPECT_EQ(snap.size(), 2u);
  EXPECT_EQ(book.size(), 2u);  // snapshot copies
  const auto drained = book.drain();
  ASSERT_EQ(drained.size(), 2u);
  EXPECT_EQ(book.size(), 0u);  // drain moves
  EXPECT_EQ(drained[0].trace_id, 99u);
  EXPECT_EQ(drained[1].parent_id, a);
  EXPECT_EQ(drained[0].process, "proc");
  EXPECT_EQ(drained[0].ph, 'X');
  EXPECT_EQ(drained[1].ph, 'i');
}

TEST(TailExemplarPolicy, SamplesDuringWarmupThenFlagsTail) {
  telemetry::TailExemplarPolicy policy(/*sample_every=*/16, /*warmup=*/64);
  // Warmup: threshold undefined, decisions are pure 1-in-16 sampling.
  u32 recorded = 0;
  for (u32 i = 0; i < 64; ++i) {
    const auto d = policy.note(100);
    EXPECT_FALSE(d.exemplar);
    if (d.record) ++recorded;
  }
  EXPECT_EQ(recorded, 4u);  // 64 / 16

  // Warmed on a uniform 100us workload: a 100x outlier must always record,
  // tagged as an exemplar.
  for (u32 i = 0; i < 64; ++i) (void)policy.note(100);
  const auto slow = policy.note(10'000);
  EXPECT_TRUE(slow.record);
  EXPECT_TRUE(slow.exemplar);
  EXPECT_GE(policy.exemplars(), 1u);
  // And the p99 threshold sits at the top bucket of the 100us mass, far
  // below the outlier.
  EXPECT_LT(policy.threshold_us(), 10'000u);
  EXPECT_GE(policy.threshold_us(), 63u);  // >= the 100us bucket's lower edge

  // A typical injection after warmup is still sampled, not always-on.
  u32 post = 0;
  for (u32 i = 0; i < 160; ++i) {
    if (policy.note(100).record) ++post;
  }
  EXPECT_EQ(post, 10u);  // 160 / 16
}

TEST(ChromeJson, ProcessRowsAndTsNormalization) {
  std::vector<telemetry::SpanRecord> spans;
  telemetry::SpanRecord a = sample_span();
  a.pid = 1;
  a.process = "alpha";
  a.ts_us = 1000;
  telemetry::SpanRecord b = sample_span();
  b.pid = 2;
  b.process = "beta";
  b.ts_us = 1500;
  b.ph = 'i';
  spans = {a, b};
  const std::string json = telemetry::spans_to_chrome_json(spans);
  EXPECT_NE(json.find("\"alpha\""), std::string::npos);
  EXPECT_NE(json.find("\"beta\""), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  // Earliest span normalizes to ts 0; the other keeps its 500us offset.
  EXPECT_NE(json.find("\"ts\":0"), std::string::npos);
  EXPECT_NE(json.find("\"ts\":500"), std::string::npos);
}

// One named track per (pid, tid), complete slices with their duration,
// instants, and args spliced into each event's args object.
TEST(ChromeJson, TracksSlicesAndMetadata) {
  telemetry::SpanRecord lifecycle = sample_span();
  lifecycle.pid = 9;
  lifecycle.tid = 0;
  lifecycle.process = "proc";
  lifecycle.name = "campaign";
  lifecycle.args_json.clear();
  telemetry::SpanRecord inject = lifecycle;
  inject.tid = 1;
  inject.name = "inject";
  inject.ts_us += 10;
  inject.dur_us = 5;
  inject.args_json = R"({"i":1})";
  telemetry::SpanRecord mark = lifecycle;
  mark.tid = 2;
  mark.ph = 'i';
  mark.name = "mark";
  mark.ts_us += 12;
  const std::string j =
      telemetry::spans_to_chrome_json({lifecycle, inject, mark});
  EXPECT_NE(j.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(j.find(R"("name":"process_name","ph":"M","pid":9,"tid":0,)"
                   R"("args":{"name":"proc"})"),
            std::string::npos);
  EXPECT_NE(j.find(R"("name":"thread_name","ph":"M","pid":9,"tid":0,)"
                   R"("args":{"name":"lifecycle"})"),
            std::string::npos);
  EXPECT_NE(j.find(R"("name":"thread_name","ph":"M","pid":9,"tid":1,)"
                   R"("args":{"name":"worker 0"})"),
            std::string::npos);
  EXPECT_NE(j.find(R"("name":"thread_name","ph":"M","pid":9,"tid":2,)"
                   R"("args":{"name":"worker 1"})"),
            std::string::npos);
  EXPECT_NE(j.find(R"("name":"inject","cat":"shard.exec","ph":"X","ts":10,)"
                   R"("pid":9,"tid":1,"dur":5,)"),
            std::string::npos);
  EXPECT_NE(j.find(R"("name":"mark","cat":"shard.exec","ph":"i","ts":12,)"),
            std::string::npos);
  EXPECT_NE(j.find(R"("span_id":42,"parent":7,"i":1})"), std::string::npos);
}

TEST(ChromeJson, OneThreadRowPerProcessTrack) {
  std::vector<telemetry::SpanRecord> spans;
  for (const u64 pid : {1u, 2u}) {
    for (const u32 tid : {0u, 1u, 1u, 4u}) {
      telemetry::SpanRecord sp = sample_span();
      sp.pid = pid;
      sp.tid = tid;
      spans.push_back(sp);
    }
  }
  const std::string j = telemetry::spans_to_chrome_json(spans);
  std::size_t rows = 0;
  for (auto at = j.find("\"thread_name\""); at != std::string::npos;
       at = j.find("\"thread_name\"", at + 1)) {
    ++rows;
  }
  EXPECT_EQ(rows, 6u);  // {0, 1, 4} on each of two processes
  EXPECT_NE(j.find(R"("pid":2,"tid":4,"args":{"name":"worker 3"})"),
            std::string::npos);
}

TEST(ChromeJson, EscapesHostileSpanNames) {
  telemetry::SpanRecord sp = sample_span();
  sp.name = "quote\" backslash\\ newline\n tab\t bell\x07";
  sp.cat = "c\"at";
  sp.args_json.clear();
  const std::string json = telemetry::spans_to_chrome_json({sp});
  // The document must stay parseable JSON: every hostile byte escaped.
  EXPECT_NE(json.find("quote\\\" backslash\\\\ newline\\n tab\\t"),
            std::string::npos);
  EXPECT_NE(json.find("\\u0007"), std::string::npos);
  EXPECT_EQ(json.find('\x07'), std::string::npos);
  EXPECT_NE(json.find("c\\\"at"), std::string::npos);
}

TEST(TraceStitch, MissingFilesYieldEmptyResult) {
  const store::StitchResult r =
      store::stitch_trace("/nonexistent/dir/nothing.sfr");
  EXPECT_EQ(r.spans, 0u);
  EXPECT_EQ(r.processes, 0u);
  EXPECT_NE(r.json.find("traceEvents"), std::string::npos);
}

TEST(FarmTracePlane, SidecarStitchesAndStoreBytesIdentical) {
  avp::TestcaseConfig tcfg;
  tcfg.seed = 11;
  tcfg.num_instructions = 60;
  const avp::Testcase tc = avp::generate_testcase(tcfg);
  inject::CampaignConfig cfg;
  cfg.seed = 7;
  cfg.num_injections = 24;

  const auto run = [&](const std::string& tag, bool spans,
                       std::string* sidecar_out) -> std::vector<u8> {
    TempFile out("farm_" + tag);
    inject::CampaignTelemetry tel;
    inject::CampaignConfig run_cfg = cfg;
    run_cfg.telemetry = &tel;
    farm::FarmConfig fc;
    fc.workers = 2;
    fc.shard_size = 8;
    fc.watchdog_seconds = 20.0;
    fc.poll_seconds = 0.005;
    fc.trace_spans = spans;
    fc.sabotage.crash_index = 5;  // one kill -9 mid-shard => retry spans
    const farm::FarmResult r =
        farm::run_farm_campaign(tc, run_cfg, out.path(), fc);
    EXPECT_TRUE(r.complete);
    if (sidecar_out != nullptr) {
      *sidecar_out = out.sidecar();
      // Keep the sidecar alive past TempFile destruction for stitching.
      const std::string kept = out.sidecar() + ".kept";
      std::filesystem::copy_file(
          out.sidecar(), kept,
          std::filesystem::copy_options::overwrite_existing);
      *sidecar_out = kept;
    }
    return slurp(out.path());
  };

  std::string sidecar;
  const std::vector<u8> with = run("on", true, &sidecar);
  const std::vector<u8> without = run("off", false, nullptr);
  // The observability-only gate: canonical store bytes never depend on the
  // span plane.
  EXPECT_EQ(with, without);

  // The sidecar alone stitches into a multi-process trace with the
  // coordinator's dispatch spans, worker shard slices, and the retry span
  // from the sabotaged worker.
  const std::vector<telemetry::SpanRecord> spans =
      store::read_spans(sidecar);
  ASSERT_FALSE(spans.empty());
  std::set<u64> pids;
  bool saw_dispatch = false;
  bool saw_shard = false;
  bool saw_retry = false;
  bool parent_link = false;
  std::set<u64> coordinator_ids;
  for (const telemetry::SpanRecord& sp : spans) {
    pids.insert(sp.pid);
    if (sp.cat == "farm.dispatch") {
      saw_dispatch = true;
      coordinator_ids.insert(sp.span_id);
    }
    if (sp.cat == "farm.retry") saw_retry = true;
  }
  for (const telemetry::SpanRecord& sp : spans) {
    if (sp.cat == "shard.exec") {
      saw_shard = true;
      if (coordinator_ids.contains(sp.parent_id)) parent_link = true;
    }
  }
  EXPECT_GE(pids.size(), 2u) << "coordinator + at least one worker pid";
  EXPECT_TRUE(saw_dispatch);
  EXPECT_TRUE(saw_shard);
  EXPECT_TRUE(saw_retry);
  EXPECT_TRUE(parent_link)
      << "worker shard slices must parent under coordinator dispatch spans";

  std::filesystem::remove(sidecar);
}

}  // namespace
}  // namespace sfi
