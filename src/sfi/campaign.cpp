#include "sfi/campaign.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>

#include "common/check.hpp"
#include "sfi/engine.hpp"
#include "sfi/tracer.hpp"

namespace sfi::inject {

CampaignPlan plan_campaign(const avp::Testcase& tc,
                           const CampaignConfig& cfg) {
  require(cfg.num_injections > 0, "campaign needs injections");

  CampaignPlan plan;

  // Reference executions (shared, read-only).
  plan.golden = avp::run_golden(tc);

  core::Pearl6Model ref_model(cfg.core);
  emu::Emulator ref_emu(ref_model);
  // Masked per-cycle states make the runner's convergence poll an exact
  // early-out compare instead of a full-state hash — worth the memory for a
  // many-injection campaign.
  plan.trace = avp::run_reference(ref_model, ref_emu, tc,
                                  /*max_cycles=*/200000,
                                  /*record_states=*/true);

  // Population & sampler (identical across workers and across resumes).
  plan.population =
      cfg.filter ? LatchPopulation::filtered(ref_model.registry(), cfg.filter)
                 : LatchPopulation::all(ref_model.registry());
  FaultSampler sampler;
  sampler.population = &plan.population;
  sampler.window_begin = cfg.window_begin;
  sampler.window_end =
      cfg.window_end != 0 ? cfg.window_end : plan.trace.completion_cycle;
  require(sampler.window_end > sampler.window_begin,
          "injection window is empty (workload too short?)");
  sampler.mode = cfg.mode;
  sampler.sticky_duration = cfg.sticky_duration;
  plan.window_begin = sampler.window_begin;
  plan.window_end = sampler.window_end;

  // Pre-generate every fault spec so results are thread-count independent
  // and so any subset of indices can be (re-)executed independently.
  plan.faults.resize(cfg.num_injections);
  for (u32 i = 0; i < cfg.num_injections; ++i) {
    stats::Xoshiro256 rng(stats::derive_seed(cfg.seed, i));
    plan.faults[i] = sampler.sample(rng);
  }

  // Interval checkpoints of the reference run (one extra fault-free replay,
  // amortized over every injection). The last useful snapshot cycle is the
  // latest possible fault cycle, window_end - 1.
  if (cfg.ckpt_interval != 0) {
    const auto t0 = std::chrono::steady_clock::now();
    emu::CheckpointStoreConfig cc;
    cc.interval =
        cfg.ckpt_interval == emu::kCkptAuto ? 0 : cfg.ckpt_interval;
    cc.memory_budget_bytes = cfg.ckpt_memory_budget;
    plan.ckpts = emu::build_checkpoint_store(ref_emu, sampler.window_end - 1,
                                             cc, &plan.trace);
    if (cfg.telemetry != nullptr) {
      std::vector<Cycle> cycles(plan.ckpts.size());
      for (std::size_t i = 0; i < plan.ckpts.size(); ++i) {
        cycles[i] = plan.ckpts.cycle_at(i);
      }
      cfg.telemetry->checkpoint_store_built(
          plan.ckpts.size(), plan.ckpts.resident_bytes(),
          plan.ckpts.interval(),
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count(),
          cycles);
    }
  }
  return plan;
}

std::vector<u32> cycle_sorted(const std::vector<FaultSpec>& faults) {
  std::vector<u32> order(faults.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](u32 a, u32 b) {
    return faults[a].cycle != faults[b].cycle ? faults[a].cycle < faults[b].cycle
                                              : a < b;
  });
  return order;
}

CampaignWorker::CampaignWorker(const avp::Testcase& tc,
                               const CampaignConfig& cfg,
                               const CampaignPlan& plan) {
  model_ = std::make_unique<core::Pearl6Model>(cfg.core);
  model_->load_workload(tc.program, tc.init);
  emu_ = std::make_unique<emu::Emulator>(*model_);
  emu_->reset();
  reset_cp_ = emu_->save_checkpoint();
  runner_ = std::make_unique<InjectionRunner>(
      *model_, *emu_, reset_cp_, plan.trace, plan.golden, cfg.run,
      plan.ckpts.empty() ? nullptr : &plan.ckpts);
  if (cfg.footprint.enabled) {
    tracker_ = std::make_unique<InfectionTracker>(
        *model_, *emu_, *runner_, plan.trace, plan.golden, cfg.footprint);
    if (!tracker_->usable()) tracker_.reset();
  }
}

CampaignWorker::~CampaignWorker() = default;

InjectionRecord make_record(const netlist::LatchRegistry& reg,
                            const FaultSpec& fault, const RunResult& rr) {
  InjectionRecord rec;
  rec.fault = fault;
  rec.outcome = rr.outcome;
  if (fault.target == FaultTarget::Latch) {
    const netlist::LatchMeta& meta = reg.meta_of_ordinal(fault.index);
    rec.unit = meta.unit;
    rec.type = meta.type;
  }
  rec.end_cycle = rr.end_cycle;
  rec.early_exited = rr.early_exited;
  rec.recoveries = rr.recoveries;
  return rec;
}

InjectionRecord make_record(core::Pearl6Model& model, const FaultSpec& fault,
                            const RunResult& rr) {
  InjectionRecord rec = make_record(model.registry(), fault, rr);
  const FaultOrigin origin = fault_origin(model, fault);
  rec.unit = origin.unit;
  rec.type = origin.type;
  return rec;
}

InjectionRecord CampaignWorker::run(
    const FaultSpec& fault, WorkerTelemetry* telemetry, u32 index,
    std::optional<PropagationRecord>* footprint) {
  // The pre-fault snapshot only exists so the tracker's deferred re-run can
  // skip the seek; the primary run never reads it back.
  emu::Checkpoint* prefault =
      tracker_ != nullptr ? &tracker_->prefault() : nullptr;
  const RunResult rr = runner_->run(
      fault, telemetry != nullptr ? telemetry->phase_scratch() : nullptr,
      prefault);
  InjectionRecord rec = make_record(*model_, fault, rr);
  if (telemetry != nullptr) {
    std::optional<Cycle> latency;
    if (rr.detected_cycle) latency = *rr.detected_cycle - fault.cycle;
    telemetry->record_injection(index, rec, latency);
  }
  if (tracker_ != nullptr && tracker_->should_trace(index, rr.outcome)) {
    const auto t0 = std::chrono::steady_clock::now();
    PropagationRecord prec = tracker_->trace(index, fault, rr);
    if (telemetry != nullptr) {
      telemetry->record_footprint(
          index, prec,
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count());
    }
    if (footprint != nullptr) *footprint = std::move(prec);
  }
  return rec;
}

u64 CampaignWorker::cycles_evaluated() const {
  return emu_->cycles_evaluated();
}

u64 CampaignWorker::cycles_fast_forwarded() const {
  return emu_->cycles_fast_forwarded();
}

u64 CampaignWorker::checkpoint_ops() const {
  return emu_->hostlink().checkpoint_ops;
}

u32 worker_threads(u32 requested) {
  return requested != 0 ? requested
                        : std::max(1u, std::thread::hardware_concurrency());
}

void WorkerPool::run(u32 threads, const std::function<void(u32)>& body) {
  const auto fail = [this] {  // called from a catch block
    const std::lock_guard<std::mutex> lock(mu_);
    if (!first_) first_ = std::current_exception();
    failed_.store(true, std::memory_order_relaxed);
  };
  const auto guarded = [&](u32 tid) {
    try {
      body(tid);
    } catch (...) {
      fail();
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(threads);
  // A thread that cannot start fails the run like a throwing worker: the
  // ones already running stop at their next claim and are still joined.
  try {
    for (u32 t = 0; t < threads; ++t) pool.emplace_back(guarded, t);
  } catch (...) {
    fail();
  }
  for (auto& th : pool) th.join();
  if (first_) std::rethrow_exception(first_);
}

DispatchStats dispatch_campaign(const avp::Testcase& tc,
                                const CampaignConfig& cfg,
                                const CampaignPlan& plan,
                                const std::vector<u32>& pending,
                                const DispatchConfig& dc,
                                const WorkerSink& sink, Claims claims) {
  // A stream claims single indices. Shards: the lane engine batches up to
  // cfg.lanes in-flight injections per claim stream; shards below that
  // would cap its batch size, so they grow to match. Shard boundaries are
  // progress/telemetry granularity only — records are identical at any
  // shard size.
  const bool stream = claims == Claims::Stream;
  const u32 shard_size =
      stream ? 1u
             : std::max(std::max(1u, dc.shard_size),
                        cfg.engine == EngineKind::Lanes ? cfg.lanes : 1u);
  const u64 num_shards = (pending.size() + shard_size - 1) / shard_size;
  const u64 cap = dc.max_new_injections == 0
                      ? pending.size()
                      : std::min<u64>(dc.max_new_injections, pending.size());
  DispatchStats stats;
  if (cap == 0) return stats;

  const u32 threads = static_cast<u32>(std::min<u64>(
      worker_threads(dc.threads != 0 ? dc.threads : cfg.threads),
      num_shards));
  CampaignTelemetry* tel = cfg.telemetry;
  if (tel != nullptr) tel->prepare_workers(threads);

  std::atomic<u64> next_shard{0};
  std::atomic<u64> claimed{0};
  std::atomic<bool> stop_observed{false};
  std::mutex stats_mu;
  std::vector<std::unique_ptr<InjectionEngine>> engines(threads);
  for (auto& e : engines) e = make_engine(tc, cfg, plan);
  WorkerPool pool;

  pool.run(threads, [&](u32 tid) {
    InjectionEngine* eng = engines[tid].get();
    WorkerTelemetry* wt = tel != nullptr ? &tel->worker(tid) : nullptr;
    WorkerTelemetry* shard_wt = stream ? nullptr : wt;
    sink(tid, [&](const InjectionEngine::Emit& emit) {
      u64 shard = 0;
      std::size_t p = 0;
      std::size_t end = 0;
      // Claims the next shard into [p, end); false once none is left.
      const auto claim_shard = [&] {
        shard = next_shard.fetch_add(1, std::memory_order_relaxed);
        if (shard >= num_shards) return false;
        p = shard * shard_size;
        end = std::min<std::size_t>(p + shard_size, pending.size());
        return true;
      };
      bool capped = false;
      while (!capped && claim_shard()) {
        if (shard_wt != nullptr) shard_wt->shard_begin(shard, end - p);
        u64 shard_executed = 0;
        // The engine pulls claims one at a time; stop/cap checks live in
        // the claim callback so an engine holding lanes in flight still
        // stops claiming the moment either fires (everything already
        // claimed is finished and emitted — the engine contract).
        eng->run(
            [&]() -> std::optional<u32> {
              // A shard ends the engine run; a stream rolls straight on.
              if (p >= end && !(stream && claim_shard())) return std::nullopt;
              // A failed sibling or a cooperative interruption
              // (SIGINT/SIGTERM): stop claiming; the sink still flushes
              // every finished record. Otherwise claim one execution slot;
              // the cap models an interrupted run.
              const bool stop = dc.should_stop && dc.should_stop();
              if (stop) stop_observed.store(true, std::memory_order_relaxed);
              if (stop || pool.failed() ||
                  claimed.fetch_add(1, std::memory_order_relaxed) >= cap) {
                capped = true;
                return std::nullopt;
              }
              return pending[p++];
            },
            [&](u32 index, const InjectionRecord& rec,
                std::optional<PropagationRecord> fp) {
              ++shard_executed;
              emit(index, rec, std::move(fp));
            },
            wt);
        if (shard_wt != nullptr) shard_wt->shard_end(shard, shard_executed);
      }
    });
    const std::lock_guard<std::mutex> lock(stats_mu);
    stats.cycles_evaluated += eng->cycles_evaluated();
    stats.cycles_fast_forwarded += eng->cycles_fast_forwarded();
    stats.checkpoint_ops += eng->checkpoint_ops();
  });

  stats.shards = std::min<u64>(next_shard.load(), num_shards);
  stats.stopped = stop_observed.load();
  return stats;
}

CampaignResult run_campaign(const avp::Testcase& tc,
                            const CampaignConfig& cfg) {
  const auto t0 = std::chrono::steady_clock::now();

  CampaignTelemetry* tel = cfg.telemetry;
  if (tel != nullptr) {
    tel->campaign_start("campaign", cfg.seed, cfg.num_injections,
                        /*resumed=*/0);
  }

  const CampaignPlan plan = plan_campaign(tc, cfg);

  // In-memory sink: workers claim single indices from one cycle-sorted
  // stream, and records land at their original index, so results stay
  // identical to index-ordered dispatch.
  CampaignResult result;
  result.records.resize(cfg.num_injections);
  std::mutex fp_mu;
  const DispatchStats stats = dispatch_campaign(
      tc, cfg, plan, cycle_sorted(plan.faults), {},
      [&](u32, const auto& run) {
        run([&](u32 i, const InjectionRecord& rec,
                std::optional<PropagationRecord> fp) {
          result.records[i] = rec;
          if (!fp) return;
          const std::lock_guard<std::mutex> lock(fp_mu);
          result.footprints.push_back(std::move(*fp));
        });
      },
      Claims::Stream);

  std::sort(result.footprints.begin(), result.footprints.end(),
            [](const PropagationRecord& a, const PropagationRecord& b) {
              return a.index < b.index;
            });
  result.population_size = plan.population.size();
  result.workload_cycles = plan.trace.completion_cycle;
  result.workload_instructions = plan.golden.instructions;
  result.cycles_evaluated = stats.cycles_evaluated;
  result.cycles_fast_forwarded = stats.cycles_fast_forwarded;
  result.checkpoint_ops = stats.checkpoint_ops;
  result.checkpoints = plan.ckpts.size();
  result.checkpoint_bytes = plan.ckpts.resident_bytes();
  result.agg = aggregate_records(result.records);
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  if (tel != nullptr) {
    tel->campaign_finish(result.agg, result.records.size(),
                         result.wall_seconds);
  }
  return result;
}

}  // namespace sfi::inject
