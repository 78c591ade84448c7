// google-benchmark microbenchmarks: the primitive rates that determine
// campaign throughput — state-vector ops, hashing, ECC, core cycle
// evaluation, golden-model execution, checkpoint reload, and end-to-end
// injections per second.
#include <benchmark/benchmark.h>

#include <vector>

#include "avp/runner.hpp"
#include "avp/testgen.hpp"
#include "common/hash.hpp"
#include "core/core_model.hpp"
#include "emu/checkpoint_store.hpp"
#include "emu/emulator.hpp"
#include "netlist/ecc.hpp"
#include "sfi/runner.hpp"
#include "sfi/telemetry.hpp"
#include "stats/rng.hpp"
#include "telemetry/metrics.hpp"

namespace {

using namespace sfi;

void BM_StateVectorFlip(benchmark::State& state) {
  netlist::StateVector sv(16384);
  u32 i = 7;
  for (auto _ : state) {
    sv.flip_bit(i);
    i = (i * 2654435761u) % 16384;
    benchmark::DoNotOptimize(sv);
  }
}
BENCHMARK(BM_StateVectorFlip);

void BM_MaskedHash(benchmark::State& state) {
  core::Pearl6Model model;
  netlist::StateVector sv(model.registry().total_bits());
  const auto& masks = model.registry().hash_masks();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sv.masked_hash(masks));
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(masks.size() * 8));
}
BENCHMARK(BM_MaskedHash);

void BM_EccEncodeDecode(benchmark::State& state) {
  stats::Xoshiro256 rng(1);
  for (auto _ : state) {
    const u64 v = rng.next();
    const u8 c = netlist::ecc_encode(v);
    benchmark::DoNotOptimize(netlist::ecc_decode(v ^ 1, c));
  }
}
BENCHMARK(BM_EccEncodeDecode);

void BM_CoreCycle(benchmark::State& state) {
  const avp::Testcase tc = [&] {
    avp::TestcaseConfig cfg;
    cfg.seed = 3;
    cfg.num_instructions = 4000;  // long enough to not finish mid-benchmark
    return avp::generate_testcase(cfg);
  }();
  core::Pearl6Model model;
  model.load_workload(tc.program, tc.init);
  emu::Emulator emu(model);
  emu.reset();
  for (auto _ : state) {
    emu.step();
    if (model.ras_status(emu.state()).test_finished) emu.reset();
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()));
}
BENCHMARK(BM_CoreCycle);

// One convergence poll of the injection runner: the exact masked compare of
// the live state against the golden trace's pre-masked state. A diverged
// run differs at a fixed mid-vector word and keeps its hint across polls, as
// the runner does; a converged run scans every word.
void BM_ConvergencePoll(benchmark::State& state, bool diverged) {
  const avp::Testcase tc = [&] {
    avp::TestcaseConfig cfg;
    cfg.seed = 3;
    return avp::generate_testcase(cfg);
  }();
  core::Pearl6Model model;
  model.load_workload(tc.program, tc.init);
  emu::Emulator emu(model);
  emu.reset();
  emu.run(200);
  const auto& masks = model.registry().hash_masks();
  std::vector<u64> ref(masks.size());
  for (std::size_t w = 0; w < masks.size(); ++w) {
    ref[w] = emu.state().words()[w] & masks[w];
  }
  if (diverged) {
    std::size_t w = masks.size() / 2;
    while (masks[w] == 0) ++w;
    ref[w] ^= masks[w] & (~masks[w] + 1);
  }
  u32 hint = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(emu.state().masked_equals(masks, ref.data(), hint));
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()));
}
BENCHMARK_CAPTURE(BM_ConvergencePoll, diverged, true);
BENCHMARK_CAPTURE(BM_ConvergencePoll, converged, false);

void BM_GoldenModelInstruction(benchmark::State& state) {
  const avp::Testcase tc = [&] {
    avp::TestcaseConfig cfg;
    cfg.seed = 4;
    cfg.num_instructions = 4000;
    return avp::generate_testcase(cfg);
  }();
  isa::GoldenModel gm(1u << 16);
  gm.reset(tc.program, tc.init);
  for (auto _ : state) {
    if (gm.step() != isa::GoldenModel::Status::Running) {
      gm.reset(tc.program, tc.init);
    }
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()));
}
BENCHMARK(BM_GoldenModelInstruction);

void BM_CheckpointReload(benchmark::State& state) {
  const avp::Testcase tc = [&] {
    avp::TestcaseConfig cfg;
    cfg.seed = 5;
    return avp::generate_testcase(cfg);
  }();
  core::Pearl6Model model;
  model.load_workload(tc.program, tc.init);
  emu::Emulator emu(model);
  emu.reset();
  const emu::Checkpoint cp = emu.save_checkpoint();
  for (auto _ : state) {
    emu.restore_checkpoint(cp);
    benchmark::DoNotOptimize(emu.cycle());
  }
}
BENCHMARK(BM_CheckpointReload);

void BM_CheckpointSave(benchmark::State& state) {
  const avp::Testcase tc = [&] {
    avp::TestcaseConfig cfg;
    cfg.seed = 5;
    return avp::generate_testcase(cfg);
  }();
  core::Pearl6Model model;
  model.load_workload(tc.program, tc.init);
  emu::Emulator emu(model);
  emu.reset();
  for (auto _ : state) {
    benchmark::DoNotOptimize(emu.save_checkpoint());
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()));
}
BENCHMARK(BM_CheckpointSave);

void BM_CheckpointStoreReconstruct(benchmark::State& state) {
  // Worst-case materialization: rotate through every record, so each call
  // replays a full-snapshot base plus its delta chain (up to full_every-1
  // XOR applications) — no same-index caching.
  const avp::Testcase tc = [&] {
    avp::TestcaseConfig cfg;
    cfg.seed = 5;
    cfg.num_instructions = 160;
    return avp::generate_testcase(cfg);
  }();
  core::Pearl6Model model;
  emu::Emulator emu(model);
  const emu::GoldenTrace trace = avp::run_reference(model, emu, tc);
  emu::CheckpointStoreConfig cfg;
  cfg.interval = 4;
  const emu::CheckpointStore store = emu::build_checkpoint_store(
      emu, trace.completion_cycle - 1, cfg, &trace);
  emu::Checkpoint cp;
  std::size_t i = 0;
  for (auto _ : state) {
    store.materialize(i, cp);
    benchmark::DoNotOptimize(cp.cycle);
    i = (i + 1) % store.size();
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()));
}
BENCHMARK(BM_CheckpointStoreReconstruct);

void BM_InjectionRun(benchmark::State& state) {
  const avp::Testcase tc = [&] {
    avp::TestcaseConfig cfg;
    cfg.seed = 6;
    cfg.num_instructions = 160;
    return avp::generate_testcase(cfg);
  }();
  const avp::GoldenResult golden = avp::run_golden(tc);
  core::Pearl6Model model;
  emu::Emulator emu(model);
  const emu::GoldenTrace trace = avp::run_reference(model, emu, tc);
  emu.reset();
  const emu::Checkpoint cp = emu.save_checkpoint();
  inject::InjectionRunner runner(model, emu, cp, trace, golden, {});

  stats::Xoshiro256 rng(9);
  const u32 latches = model.registry().num_latches();
  for (auto _ : state) {
    inject::FaultSpec f;
    f.index = static_cast<u32>(rng.below(latches));
    f.cycle = 1 + rng.below(trace.completion_cycle - 1);
    benchmark::DoNotOptimize(runner.run(f));
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()));
}
BENCHMARK(BM_InjectionRun);

void BM_InjectionRunWarmStart(benchmark::State& state) {
  // Same fault stream as BM_InjectionRun, but warm-started from an
  // interval checkpoint store — the ratio of the two is the campaign
  // speedup the checkpointing buys per injection.
  const avp::Testcase tc = [&] {
    avp::TestcaseConfig cfg;
    cfg.seed = 6;
    cfg.num_instructions = 160;
    return avp::generate_testcase(cfg);
  }();
  const avp::GoldenResult golden = avp::run_golden(tc);
  core::Pearl6Model model;
  emu::Emulator emu(model);
  const emu::GoldenTrace trace = avp::run_reference(model, emu, tc);
  const emu::CheckpointStore store = emu::build_checkpoint_store(
      emu, trace.completion_cycle - 1, {}, &trace);
  emu.reset();
  const emu::Checkpoint cp = emu.save_checkpoint();
  inject::InjectionRunner runner(model, emu, cp, trace, golden, {}, &store);

  stats::Xoshiro256 rng(9);
  const u32 latches = model.registry().num_latches();
  for (auto _ : state) {
    inject::FaultSpec f;
    f.index = static_cast<u32>(rng.below(latches));
    f.cycle = 1 + rng.below(trace.completion_cycle - 1);
    benchmark::DoNotOptimize(runner.run(f));
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()));
}
BENCHMARK(BM_InjectionRunWarmStart);

void BM_TelemetryCounterAdd(benchmark::State& state) {
  // The hot-path instrumentation primitive: one unsharded, unlocked add
  // into a worker's private shard. Budget: a handful of cycles.
  telemetry::MetricsRegistry reg;
  const auto c = reg.counter("hits");
  telemetry::MetricsShard shard = reg.make_shard();
  for (auto _ : state) {
    shard.add(c);
    benchmark::DoNotOptimize(shard);
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()));
}
BENCHMARK(BM_TelemetryCounterAdd);

void BM_TelemetryHistogramObserve(benchmark::State& state) {
  // Per-injection phase timing lands here: a lower_bound over ~22
  // exponential bounds plus two adds, per observation.
  telemetry::MetricsRegistry reg;
  const auto h =
      reg.histogram("seconds", telemetry::exp_buckets(1e-6, 10.0, 3));
  telemetry::MetricsShard shard = reg.make_shard();
  stats::Xoshiro256 rng(11);
  for (auto _ : state) {
    shard.observe(h, rng.uniform() * 0.01);
    benchmark::DoNotOptimize(shard);
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()));
}
BENCHMARK(BM_TelemetryHistogramObserve);

void BM_TelemetryRegistryMerge(benchmark::State& state) {
  // Folding a worker shard into the registry (once per flush/finish, not
  // per injection) across a campaign-sized instrument set.
  telemetry::MetricsRegistry reg;
  std::vector<telemetry::CounterId> counters;
  std::vector<telemetry::HistogramId> hists;
  for (int i = 0; i < 16; ++i) {
    counters.push_back(reg.counter("c" + std::to_string(i)));
  }
  for (int i = 0; i < 16; ++i) {
    hists.push_back(reg.histogram("h" + std::to_string(i),
                                  telemetry::exp_buckets(1e-6, 10.0, 3)));
  }
  telemetry::MetricsShard shard = reg.make_shard();
  stats::Xoshiro256 rng(12);
  for (auto _ : state) {
    state.PauseTiming();
    for (const auto c : counters) shard.add(c, 3);
    for (const auto h : hists) shard.observe(h, rng.uniform());
    state.ResumeTiming();
    reg.merge(shard);
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()));
}
BENCHMARK(BM_TelemetryRegistryMerge);

void BM_InjectionRunTelemetry(benchmark::State& state) {
  // BM_InjectionRunWarmStart with the phase-timer out-param attached: the
  // delta between the two is the whole per-injection telemetry overhead
  // (clock reads at phase boundaries; the acceptance budget is <5%).
  const avp::Testcase tc = [&] {
    avp::TestcaseConfig cfg;
    cfg.seed = 6;
    cfg.num_instructions = 160;
    return avp::generate_testcase(cfg);
  }();
  const avp::GoldenResult golden = avp::run_golden(tc);
  core::Pearl6Model model;
  emu::Emulator emu(model);
  const emu::GoldenTrace trace = avp::run_reference(model, emu, tc);
  const emu::CheckpointStore store = emu::build_checkpoint_store(
      emu, trace.completion_cycle - 1, {}, &trace);
  emu.reset();
  const emu::Checkpoint cp = emu.save_checkpoint();
  inject::InjectionRunner runner(model, emu, cp, trace, golden, {}, &store);

  inject::RunPhaseTimes phases;
  stats::Xoshiro256 rng(9);
  const u32 latches = model.registry().num_latches();
  for (auto _ : state) {
    inject::FaultSpec f;
    f.index = static_cast<u32>(rng.below(latches));
    f.cycle = 1 + rng.below(trace.completion_cycle - 1);
    benchmark::DoNotOptimize(runner.run(f, &phases));
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()));
}
BENCHMARK(BM_InjectionRunTelemetry);

}  // namespace

BENCHMARK_MAIN();
