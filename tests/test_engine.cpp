// Injection engines (src/sfi/engine.hpp): the lane engine must be a pure
// speed knob. Every test here is some variation of the module's central
// contract — records (and stores, and footprints) produced under
// EngineKind::Lanes are field/byte-identical to EngineKind::Scalar for the
// same plan, for every lane count, fault mode, and resume split.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "avp/testgen.hpp"
#include "netlist/state_vector.hpp"
#include "sched/scheduler.hpp"
#include "sfi/engine.hpp"
#include "store/merge.hpp"

namespace sfi::inject {
namespace {

avp::Testcase small_testcase() {
  avp::TestcaseConfig cfg;
  cfg.seed = 11;
  cfg.num_instructions = 80;
  return avp::generate_testcase(cfg);
}

CampaignConfig small_campaign(u32 n, EngineKind engine, u32 lanes = 64) {
  CampaignConfig cfg;
  cfg.seed = 7;
  cfg.num_injections = n;
  cfg.threads = 1;
  cfg.engine = engine;
  cfg.lanes = lanes;
  return cfg;
}

void expect_records_equal(const std::vector<InjectionRecord>& a,
                          const std::vector<InjectionRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].fault.index, b[i].fault.index) << "record " << i;
    EXPECT_EQ(a[i].fault.cycle, b[i].fault.cycle) << "record " << i;
    EXPECT_EQ(a[i].outcome, b[i].outcome) << "record " << i;
    EXPECT_EQ(a[i].unit, b[i].unit) << "record " << i;
    EXPECT_EQ(a[i].type, b[i].type) << "record " << i;
    EXPECT_EQ(a[i].end_cycle, b[i].end_cycle) << "record " << i;
    EXPECT_EQ(a[i].early_exited, b[i].early_exited) << "record " << i;
    EXPECT_EQ(a[i].recoveries, b[i].recoveries) << "record " << i;
  }
}

TEST(EngineAB, RecordsIdenticalToggleCampaign) {
  const avp::Testcase tc = small_testcase();
  const CampaignResult scalar =
      run_campaign(tc, small_campaign(300, EngineKind::Scalar));
  const CampaignResult lanes =
      run_campaign(tc, small_campaign(300, EngineKind::Lanes));
  expect_records_equal(scalar.records, lanes.records);
}

TEST(EngineAB, RecordsIdenticalAcrossLaneCounts) {
  const avp::Testcase tc = small_testcase();
  const CampaignResult scalar =
      run_campaign(tc, small_campaign(120, EngineKind::Scalar));
  for (const u32 lanes : {1u, 3u, 64u, 512u}) {
    const CampaignResult r =
        run_campaign(tc, small_campaign(120, EngineKind::Lanes, lanes));
    expect_records_equal(scalar.records, r.records);
  }
}

TEST(EngineAB, RecordsIdenticalStickyFallback) {
  // Sticky faults never enter the fast path — the engine must route them
  // through the verbatim scalar runner and still match.
  const avp::Testcase tc = small_testcase();
  CampaignConfig a = small_campaign(80, EngineKind::Scalar);
  a.mode = FaultMode::Sticky;
  a.sticky_duration = 6;
  CampaignConfig b = a;
  b.engine = EngineKind::Lanes;
  const CampaignResult scalar = run_campaign(tc, a);
  const CampaignResult lanes = run_campaign(tc, b);
  expect_records_equal(scalar.records, lanes.records);
}

TEST(EngineAB, RecordsIdenticalMultiBitUpsets) {
  // Wide adjacent upsets (beam-style faults, widened post-plan): in-carrier
  // widths ride lanes, anything spanning more diff words than the carrier
  // falls back. Both engines must match, driven through the raw interface.
  const avp::Testcase tc = small_testcase();
  CampaignConfig cfg = small_campaign(120, EngineKind::Scalar);
  CampaignPlan plan = plan_campaign(tc, cfg);
  for (std::size_t i = 0; i < plan.faults.size(); ++i) {
    plan.faults[i].adjacent_bits = static_cast<u8>(1 + i % 9);
  }

  const auto run_all = [&](EngineKind kind) {
    CampaignConfig c = cfg;
    c.engine = kind;
    const auto eng = make_engine(tc, c, plan);
    std::vector<InjectionRecord> records(plan.faults.size());
    u32 p = 0;
    eng->run(
        [&]() -> std::optional<u32> {
          if (p >= plan.faults.size()) return std::nullopt;
          return p++;
        },
        [&](u32 i, const InjectionRecord& rec,
            std::optional<PropagationRecord>) { records[i] = rec; },
        nullptr);
    return records;
  };
  expect_records_equal(run_all(EngineKind::Scalar),
                       run_all(EngineKind::Lanes));
}

TEST(EngineAB, FootprintsIdentical) {
  const avp::Testcase tc = small_testcase();
  CampaignConfig a = small_campaign(100, EngineKind::Scalar);
  a.footprint.enabled = true;
  a.footprint.vanished_sample = 8;
  CampaignConfig b = a;
  b.engine = EngineKind::Lanes;
  const CampaignResult scalar = run_campaign(tc, a);
  const CampaignResult lanes = run_campaign(tc, b);
  expect_records_equal(scalar.records, lanes.records);
  ASSERT_EQ(scalar.footprints.size(), lanes.footprints.size());
  for (std::size_t i = 0; i < scalar.footprints.size(); ++i) {
    const PropagationRecord& x = scalar.footprints[i];
    const PropagationRecord& y = lanes.footprints[i];
    EXPECT_EQ(x.index, y.index);
    EXPECT_EQ(x.outcome, y.outcome);
    EXPECT_EQ(x.masked, y.masked);
    EXPECT_EQ(x.detected, y.detected);
    EXPECT_EQ(x.reached_arch, y.reached_arch);
    EXPECT_EQ(x.reached_memory, y.reached_memory);
    EXPECT_EQ(x.masked_at, y.masked_at);
    EXPECT_EQ(x.detected_at, y.detected_at);
    EXPECT_EQ(x.peak_bits, y.peak_bits);
    EXPECT_EQ(x.samples.size(), y.samples.size());
  }
}

std::vector<u8> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

class TempFile {
 public:
  explicit TempFile(const std::string& name)
      : path_((std::filesystem::temp_directory_path() /
               ("sfi_engine_test_" + name + ".sfr"))
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

std::vector<u8> canonical_store(const avp::Testcase& tc,
                                const CampaignConfig& cfg,
                                const std::string& tag) {
  TempFile raw("raw_" + tag), canon("canon_" + tag);
  const auto r = sched::run_campaign_to_store(tc, cfg, raw.path(), {});
  EXPECT_TRUE(r.complete);
  (void)store::merge_stores({raw.path()}, canon.path());
  return slurp(canon.path());
}

TEST(EngineAB, CanonicalStoreByteIdentical) {
  const avp::Testcase tc = small_testcase();
  const auto scalar =
      canonical_store(tc, small_campaign(200, EngineKind::Scalar), "s");
  const auto lanes =
      canonical_store(tc, small_campaign(200, EngineKind::Lanes), "l");
  EXPECT_EQ(scalar, lanes);
}

TEST(EngineAB, ResumeAcrossEnginesByteIdentical) {
  // Start a campaign under one engine, interrupt it, resume under the
  // other: engine choice is excluded from the fingerprint and the canonical
  // merge must still match an uninterrupted scalar run byte-for-byte.
  const avp::Testcase tc = small_testcase();
  const auto reference =
      canonical_store(tc, small_campaign(200, EngineKind::Scalar), "ref");

  TempFile raw("resume"), canon("resume_canon");
  sched::SchedulerConfig head;
  head.max_new_injections = 90;
  const auto r1 = sched::run_campaign_to_store(
      tc, small_campaign(200, EngineKind::Scalar), raw.path(), head);
  EXPECT_FALSE(r1.complete);
  const auto r2 = sched::run_campaign_to_store(
      tc, small_campaign(200, EngineKind::Lanes), raw.path(), {},
      /*resume=*/true);
  EXPECT_TRUE(r2.complete);
  EXPECT_EQ(r2.resumed, r1.executed);
  (void)store::merge_stores({raw.path()}, canon.path());
  EXPECT_EQ(slurp(canon.path()), reference);
}

// Fault 2290 of campaign seed 0 on testcase seed 0 (219 instructions)
// toggles the top bit of the FXU's 5-bit destination while a CR-field result
// is on its way to writeback. The IDU's CR bypass must select the same field
// as the completion write (dest & 7); it used to hand the raw value to
// cr_insert, which rejects fields >= 8 and aborted the campaign.
TEST(EngineAB, CorruptedCrDestinationForwardsLikeWriteback) {
  avp::TestcaseConfig tcfg;
  tcfg.seed = 0;
  tcfg.num_instructions = 219;
  const avp::Testcase tc = avp::generate_testcase(tcfg);
  constexpr u32 kIndex = 2290;
  CampaignConfig cfg = small_campaign(kIndex + 1, EngineKind::Scalar);
  cfg.seed = 0;
  const CampaignPlan plan = plan_campaign(tc, cfg);

  const FaultSpec& fault = plan.faults[kIndex];
  const core::Pearl6Model model(cfg.core);
  const netlist::LatchMeta& meta =
      model.registry().meta_of_ordinal(fault.index);
  ASSERT_EQ(meta.name, "fxu.ex.dest");
  ASSERT_EQ(fault.index - meta.ordinal_start, 4u);

  std::vector<InjectionRecord> got;
  for (const EngineKind kind : {EngineKind::Scalar, EngineKind::Lanes}) {
    cfg.engine = kind;
    bool claimed = false;
    make_engine(tc, cfg, plan)->run(
        [&]() -> std::optional<u32> {
          if (claimed) return std::nullopt;
          claimed = true;
          return kIndex;
        },
        [&](u32 i, const InjectionRecord& rec,
            std::optional<PropagationRecord>) {
          EXPECT_EQ(i, kIndex);
          got.push_back(rec);
        },
        nullptr);
  }
  ASSERT_EQ(got.size(), 2u);
  EXPECT_NE(got[0].outcome, Outcome::HarnessFatal);
  expect_records_equal({got[0]}, {got[1]});
}

TEST(EngineAB, NamesRoundTrip) {
  EXPECT_STREQ(engine_name(EngineKind::Scalar), "scalar");
  EXPECT_STREQ(engine_name(EngineKind::Lanes), "lanes");
  EXPECT_EQ(parse_engine("scalar"), EngineKind::Scalar);
  EXPECT_EQ(parse_engine("lanes"), EngineKind::Lanes);
  EXPECT_EQ(parse_engine("vector"), std::nullopt);
}

TEST(AccessRecorder, RecordsReadsAndWrites) {
  netlist::StateVector sv(256);
  netlist::AccessRecorder rec;
  rec.bind(sv.words().size());
  sv.set_recorder(&rec);

  rec.begin_cycle();
  (void)sv.get_bit(5);
  sv.set_bit(70, true);
  sv.write(130, 10, 0x3ff);
  (void)sv.read(200, 8);
  EXPECT_EQ(rec.reads()[0], u64{1} << 5);
  EXPECT_EQ(rec.writes()[1], u64{1} << 6);
  EXPECT_EQ(rec.writes()[2], u64{0x3ff} << 2);
  EXPECT_EQ(rec.reads()[3], u64{0xff} << 8);

  // flip_bit is a read-modify-write: both sets.
  rec.begin_cycle();
  EXPECT_EQ(rec.reads()[0], 0u);
  sv.flip_bit(3);
  EXPECT_EQ(rec.reads()[0], u64{1} << 3);
  EXPECT_EQ(rec.writes()[0], u64{1} << 3);
}

TEST(AccessRecorder, NeverPropagatesThroughCopies) {
  // Checkpoints and trace snapshots copy StateVectors; a recorder riding
  // along would record phantom accesses (and break equality compares).
  netlist::StateVector sv(128);
  netlist::AccessRecorder rec;
  rec.bind(sv.words().size());
  sv.set_recorder(&rec);

  netlist::StateVector copy(sv);
  rec.begin_cycle();
  copy.set_bit(9, true);
  EXPECT_EQ(rec.writes()[0], 0u);  // copy is unarmed

  netlist::StateVector other(128);
  other.set_bit(9, true);
  EXPECT_FALSE(sv == other);
  other = sv;  // assignment into an unarmed vector stays unarmed...
  EXPECT_TRUE(sv == other);  // ...and equality ignores the recorder
  rec.begin_cycle();
  other.set_bit(11, true);
  EXPECT_EQ(rec.writes()[0], 0u);
}

}  // namespace
}  // namespace sfi::inject
