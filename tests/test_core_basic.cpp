// Pipeline correctness: Pearl6 must architecturally match the ISA golden
// model on fault-free runs — the bedrock property fault classification
// stands on.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <random>
#include <string>

#include "core/core_model.hpp"
#include "core/fpu.hpp"
#include "emu/emulator.hpp"
#include "emu/golden_trace.hpp"
#include "isa/assembler.hpp"
#include "isa/golden.hpp"

namespace sfi::core {
namespace {

using isa::ArchState;
using isa::Program;

struct RunResult {
  ArchState core_state;
  ArchState golden_state;
  Cycle cycles = 0;
  u64 instructions = 0;
  bool finished = false;
};

RunResult run_both(std::string_view src, ArchState init = {},
                   Cycle max_cycles = 20000, CoreConfig cfg = {}) {
  Program prog;
  prog.code = isa::assemble(src);

  isa::GoldenModel gm(CoreConfig::kMemBytes);
  gm.reset(prog, init);
  EXPECT_EQ(gm.run(1u << 20), isa::GoldenModel::Status::Stopped);

  Pearl6Model model(cfg);
  model.load_workload(prog, init);
  emu::Emulator emu(model);
  emu.reset();

  RunResult r;
  for (Cycle c = 0; c < max_cycles; ++c) {
    emu.step();
    const emu::RasStatus ras = model.ras_status(emu.state());
    EXPECT_FALSE(ras.checkstop) << "fault-free run checkstopped";
    EXPECT_FALSE(ras.hang_detected) << "fault-free run hung";
    EXPECT_EQ(ras.recovery_count, 0u) << "fault-free run recovered";
    if (ras.test_finished) {
      r.finished = true;
      r.instructions = ras.instructions_completed;
      break;
    }
  }
  r.cycles = emu.cycle();
  r.core_state = model.arch_state(emu.state());
  r.golden_state = gm.state();
  EXPECT_TRUE(r.finished) << "core did not finish within " << max_cycles;
  return r;
}

void expect_match(const RunResult& r) {
  const std::string d = r.core_state.diff(r.golden_state);
  EXPECT_TRUE(d.empty()) << "core vs golden: " << d;
}

TEST(CoreBasic, MinimalStop) {
  const RunResult r = run_both("stop");
  expect_match(r);
  EXPECT_EQ(r.instructions, 0u);  // STOP itself is not counted
}

TEST(CoreBasic, StraightLineArithmetic) {
  const RunResult r = run_both(R"(
    li r1, 6
    li r2, 7
    mulld r3, r1, r2
    subf r4, r1, r3
    divd r5, r3, r2
    neg r6, r5
    extsw r7, r6
    stop
  )");
  expect_match(r);
  EXPECT_EQ(r.core_state.gpr[3], 42u);
}

TEST(CoreBasic, DependentAluChain) {
  const RunResult r = run_both(R"(
    li r1, 1
    add r1, r1, r1
    add r1, r1, r1
    add r1, r1, r1
    add r1, r1, r1
    stop
  )");
  expect_match(r);
  EXPECT_EQ(r.core_state.gpr[1], 16u);
}

TEST(CoreBasic, LogicalAndShifts) {
  const RunResult r = run_both(R"(
    li r1, 0x0FF0
    ori r2, r1, 0x00FF
    xori r3, r2, 0x0F0F
    andi r4, r3, 0xFFF0
    sld r5, r4, r1
    srd r6, r5, r1
    srad r7, r6, r1
    nor r8, r7, r1
    stop
  )");
  expect_match(r);
}

TEST(CoreBasic, MemoryRoundTrip) {
  const RunResult r = run_both(R"(
    li   r1, 0x4000
    li   r2, -123
    std  r2, 16(r1)
    ld   r3, 16(r1)
    lwz  r4, 16(r1)
    lbz  r5, 16(r1)
    stb  r5, 100(r1)
    lbz  r6, 100(r1)
    stop
  )");
  expect_match(r);
  EXPECT_EQ(r.core_state.gpr[3], static_cast<u64>(-123));
}

TEST(CoreBasic, UnalignedAccessUsesUncachedPath) {
  const RunResult r = run_both(R"(
    li  r1, 0x4005        # 8-byte access crossing an 8B boundary
    li  r2, 0x7EF1
    std r2, 0(r1)
    ld  r3, 0(r1)
    lwz r4, 1(r1)
    stop
  )");
  expect_match(r);
}

TEST(CoreBasic, CountedLoop) {
  const RunResult r = run_both(R"(
    li r1, 25
    mtctr r1
    li r2, 0
  loop:
    addi r2, r2, 3
    bdnz loop
    stop
  )");
  expect_match(r);
  EXPECT_EQ(r.core_state.gpr[2], 75u);
}

TEST(CoreBasic, ConditionalsAndCr) {
  const RunResult r = run_both(R"(
    li r1, 5
    cmpi 0, r1, 7
    blt 0, less
    li r2, 111
    b end
  less:
    li r2, 222
    cmpi 3, r2, 222
    beq 3, end
    li r2, 333
  end:
    cmp 1, r1, r2
    stop
  )");
  expect_match(r);
  EXPECT_EQ(r.core_state.gpr[2], 222u);
}

TEST(CoreBasic, CallReturn) {
  const RunResult r = run_both(R"(
    bl f1
    li r10, 1
    bl f1
    li r11, 2
    stop
  f1:
    addi r3, r3, 7
    blr
  )");
  expect_match(r);
  EXPECT_EQ(r.core_state.gpr[3], 14u);
}

TEST(CoreBasic, IndirectBranchViaCtr) {
  const RunResult r = run_both(R"(
    li r1, 0x1000
    addi r1, r1, 24
    mtctr r1
    bctr
    li r2, 1
    li r2, 2
  target:
    li r3, 5
    stop
  )");
  expect_match(r);
  EXPECT_EQ(r.core_state.gpr[2], 0u);
  EXPECT_EQ(r.core_state.gpr[3], 5u);
}

TEST(CoreBasic, FloatingPointPipeline) {
  ArchState init;
  init.fpr[1] = std::bit_cast<u64>(1.5);
  init.fpr[2] = std::bit_cast<u64>(2.5);
  const RunResult r = run_both(R"(
    fadd f3, f1, f2
    fmul f4, f3, f2
    fdiv f5, f4, f1
    fsub f6, f5, f4
    stop
  )", init);
  expect_match(r);
  EXPECT_EQ(std::bit_cast<double>(r.core_state.fpr[4]), 10.0);
}

// The FPU advances its pipe as precomputed word moves. They must stage
// exactly what copying every stage field onto the next one does, and report
// exactly the same read and write bits to an armed recorder, in the same
// first-touch word order: the lane engine trips lanes on those sets.
TEST(CoreBasic, FpuPipeWordMovesEqualFieldByFieldShift) {
  netlist::LatchRegistry reg;
  Fpu fpu(reg);
  reg.finalize();

  constexpr std::array<const char*, 10> kSuffixes = {
      ".v", ".mn", ".dest", ".a", ".a.p", ".b", ".b.p", ".pc", ".pcn",
      ".ctl.p"};
  constexpr u32 kStages = CoreConfig::kFpuStages;
  std::array<std::array<netlist::Field, kSuffixes.size()>, kStages> st;
  for (u32 i = 0; i < kStages; ++i) {
    for (std::size_t k = 0; k < kSuffixes.size(); ++k) {
      const std::string name =
          "fpu.s" + std::to_string(i + 1) + kSuffixes[k];
      const netlist::LatchMeta* meta = nullptr;
      for (const netlist::LatchMeta& m : reg.fields()) {
        if (m.name == name) meta = &m;
      }
      ASSERT_NE(meta, nullptr) << name;
      st[i][k] = netlist::Field({meta->bit_offset, meta->width});
    }
  }

  struct Machine {
    netlist::StateVector cur, nxt;
    netlist::AccessRecorder rec;
  };
  std::mt19937_64 rng(11);
  const auto random_state = [&](netlist::StateVector& sv) {
    sv = netlist::StateVector(reg.total_bits());
    auto w = sv.words_mut();
    for (u64& x : w) x = rng();
    if (reg.total_bits() % 64 != 0) {
      w[w.size() - 1] &= mask_low(reg.total_bits() % 64);
    }
  };
  for (int trial = 0; trial < 50; ++trial) {
    Machine fast, ref;
    random_state(fast.cur);
    random_state(fast.nxt);
    ref.cur = fast.cur;
    ref.nxt = fast.nxt;
    for (Machine* m : {&fast, &ref}) {
      m->rec.bind(m->cur.words().size());
      m->cur.set_recorder(&m->rec);
      m->nxt.set_recorder(&m->rec);
      m->rec.begin_cycle();
    }

    fpu.update(netlist::CycleFrame{fast.cur, fast.nxt}, Fpu::Plan{},
               Controls{}, std::nullopt);

    // Reference: back to front, field by field, then the empty stage 1.
    const netlist::CycleFrame f{ref.cur, ref.nxt};
    for (u32 i = kStages - 1; i >= 1; --i) {
      for (std::size_t k = 0; k < kSuffixes.size(); ++k) {
        st[i][k].set(f, st[i - 1][k].get(f));
      }
    }
    st[0][0].set(f, 0);

    ASSERT_EQ(fast.nxt, ref.nxt) << "trial " << trial;
    EXPECT_EQ(fast.cur, ref.cur);
    const auto same = [](auto a, auto b) {
      return std::equal(a.begin(), a.end(), b.begin(), b.end());
    };
    EXPECT_TRUE(same(fast.rec.reads(), ref.rec.reads()));
    EXPECT_TRUE(same(fast.rec.writes(), ref.rec.writes()));
    EXPECT_TRUE(same(fast.rec.read_words(), ref.rec.read_words()));
    EXPECT_TRUE(same(fast.rec.write_words(), ref.rec.write_words()));
  }
}

TEST(CoreBasic, FpMemoryRoundTrip) {
  ArchState init;
  init.fpr[1] = std::bit_cast<u64>(3.25);
  const RunResult r = run_both(R"(
    li r1, 0x5000
    stfd f1, 0(r1)
    lfd f2, 0(r1)
    fadd f3, f2, f2
    stfd f3, 8(r1)
    lfd f4, 8(r1)
    stop
  )", init);
  expect_match(r);
  EXPECT_EQ(std::bit_cast<double>(r.core_state.fpr[4]), 6.5);
}

TEST(CoreBasic, SprMoves) {
  const RunResult r = run_both(R"(
    li r1, 777
    mtlr r1
    mflr r2
    li r3, 42
    mtctr r3
    mfctr r4
    stop
  )");
  expect_match(r);
  EXPECT_EQ(r.core_state.gpr[2], 777u);
  EXPECT_EQ(r.core_state.gpr[4], 42u);
}

TEST(CoreBasic, StoreLoadDependency) {
  // Loads stall until the store queue drains: memory must be coherent.
  const RunResult r = run_both(R"(
    li r1, 0x6000
    li r2, 11
    stw r2, 0(r1)
    lwz r3, 0(r1)
    addi r2, r2, 1
    stw r2, 0(r1)
    lwz r4, 0(r1)
    stop
  )");
  expect_match(r);
  EXPECT_EQ(r.core_state.gpr[3], 11u);
  EXPECT_EQ(r.core_state.gpr[4], 12u);
}

TEST(CoreBasic, CacheLineReuse) {
  // Repeated hits in one D-cache line plus store-invalidate behaviour.
  const RunResult r = run_both(R"(
    li r1, 0x7000
    li r5, 3
    mtctr r5
    li r6, 0
  loop:
    stw r6, 0(r1)
    lwz r7, 0(r1)
    add r6, r7, r5
    bdnz loop
    stop
  )");
  expect_match(r);
}

TEST(CoreBasic, GoldenTraceRecordsCompletion) {
  Program prog;
  prog.code = isa::assemble(R"(
    li r1, 9
    add r2, r1, r1
    stop
  )");
  Pearl6Model model;
  model.load_workload(prog, {});
  emu::Emulator emu(model);
  const emu::GoldenTrace trace = emu::record_golden_trace(emu, 5000);
  EXPECT_TRUE(trace.completed);
  EXPECT_GT(trace.completion_cycle, 0u);
  EXPECT_GE(trace.hashes.size(), trace.completion_cycle);
  EXPECT_EQ(trace.final_state.gpr[2], 18u);
}

TEST(CoreBasic, DeterministicAcrossRuns) {
  const RunResult a = run_both("li r1, 3\n mulld r2, r1, r1\n stop");
  const RunResult b = run_both("li r1, 3\n mulld r2, r1, r1\n stop");
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.core_state.hash(), b.core_state.hash());
}

TEST(CoreBasic, CheckpointRestartIsExact) {
  Program prog;
  prog.code = isa::assemble(R"(
    li r1, 100
    mtctr r1
    li r2, 0
  loop:
    addi r2, r2, 1
    bdnz loop
    stop
  )");
  Pearl6Model model;
  model.load_workload(prog, {});
  emu::Emulator emu(model);
  emu.reset();
  emu.run(50);
  const emu::Checkpoint cp = emu.save_checkpoint();
  emu.run(100);
  const u64 hash_at_150 =
      emu.state().masked_hash(model.registry().hash_masks());

  emu.restore_checkpoint(cp);
  EXPECT_EQ(emu.cycle(), 50u);
  emu.run(100);
  EXPECT_EQ(emu.state().masked_hash(model.registry().hash_masks()),
            hash_at_150);
}

TEST(CoreBasic, RawModeRunsIdenticallyWhenFaultFree) {
  CoreConfig raw;
  raw.checkers_enabled = false;
  const RunResult r = run_both(R"(
    li r1, 12
    mtctr r1
    li r2, 1
  loop:
    add r2, r2, r2
    bdnz loop
    stop
  )", {}, 20000, raw);
  expect_match(r);
}

TEST(CoreBasic, CpiIsSane) {
  const RunResult r = run_both(R"(
    li r1, 40
    mtctr r1
    li r2, 0
  loop:
    addi r2, r2, 1
    addi r3, r2, 2
    addi r4, r3, 3
    bdnz loop
    stop
  )");
  expect_match(r);
  const double cpi =
      static_cast<double>(r.cycles) / static_cast<double>(r.instructions);
  EXPECT_LT(cpi, 8.0) << "pipeline pathologically slow";
  EXPECT_GT(cpi, 0.99);
}

}  // namespace
}  // namespace sfi::core
