#include "sched/scheduler.hpp"

#include <chrono>
#include <filesystem>
#include <mutex>

#include "common/hash.hpp"
#include "store/writer.hpp"
#include "telemetry/json.hpp"

namespace sfi::sched {

u64 workload_id(const avp::Testcase& tc) {
  u64 h = mix64(tc.config.seed ^
                (static_cast<u64>(tc.config.num_instructions) << 32));
  h = mix64(h ^ tc.program.entry);
  h = mix64(h ^ tc.program.code_base);
  for (const u32 word : tc.program.code) h = mix64(h ^ word);
  for (const auto& blob : tc.program.data) {
    h = mix64(h ^ blob.addr);
    h = hash_bytes(std::span<const u8>(blob.bytes.data(), blob.bytes.size()),
                   h);
  }
  return h;
}

u64 campaign_fingerprint(const inject::CampaignConfig& cfg,
                         const inject::CampaignPlan& plan) {
  u64 h = mix64(0x5F1C0DE5u ^ static_cast<u64>(plan.population.size()));
  // The population ordinal set pins down any filter the campaign ran with
  // (filters themselves are opaque callables and cannot be hashed).
  for (const u32 ord : plan.population.ordinals()) h = mix64(h ^ ord);
  h = mix64(h ^ plan.window_begin);
  h = mix64(h ^ plan.window_end);
  h = mix64(h ^ static_cast<u64>(cfg.mode));
  h = mix64(h ^ cfg.sticky_duration);
  h = mix64(h ^ cfg.run.hang_margin);
  h = mix64(h ^ cfg.run.horizon);
  h = mix64(h ^ (cfg.run.early_exit ? 1u : 0u));
  h = mix64(h ^ (cfg.core.checkers_enabled ? 2u : 0u));
  h = mix64(h ^ cfg.core.checker_mask);
  h = mix64(h ^ cfg.core.watchdog_timeout);
  h = mix64(h ^ cfg.core.recovery_threshold);
  h = mix64(h ^ cfg.core.recovery_timeout);
  h = mix64(h ^ (cfg.core.recovery_enabled ? 4u : 0u));
  // cfg.footprint, cfg.telemetry, cfg.engine and cfg.lanes are deliberately
  // NOT part of the fingerprint: forensics/telemetry are observability-only,
  // and the engine choice is a speed knob whose records are byte-identical
  // (gated by the engine A/B CI job) — so a store written under one engine
  // resumes cleanly under the other.
  return h;
}

store::CampaignMeta make_campaign_meta(const avp::Testcase& tc,
                                       const inject::CampaignConfig& cfg,
                                       const inject::CampaignPlan& plan) {
  store::CampaignMeta meta;
  meta.seed = cfg.seed;
  meta.num_injections = cfg.num_injections;
  meta.config_fingerprint = campaign_fingerprint(cfg, plan);
  meta.workload_id = workload_id(tc);
  meta.population_size = plan.population.size();
  meta.workload_cycles = plan.trace.completion_cycle;
  meta.workload_instructions = plan.golden.instructions;
  meta.window_begin = plan.window_begin;
  meta.window_end = plan.window_end;
  return meta;
}

bool resume_scan(
    const std::string& path, const store::CampaignMeta& meta,
    std::vector<bool>& done, inject::CampaignTelemetry* tel,
    const std::function<void(const store::StoredRecord&)>& inherit) {
  const bool exists = std::filesystem::exists(path);
  u64 resumed = 0;
  if (exists) {
    const store::StoreContents prior =
        store::read_store(path, {.tolerate_torn_tail = true});
    if (!prior.meta.same_campaign(meta)) {
      throw store::StoreError(
          "refusing to resume " + path +
          ": it records a different campaign (seed/config/workload "
          "fingerprint mismatch) — rerun without --resume to overwrite");
    }
    if (prior.torn_tail) std::filesystem::resize_file(path, prior.valid_bytes);
    for (const store::StoredRecord& sr : prior.records) {
      if (sr.index >= done.size()) {
        throw store::StoreError("record index out of range in " + path);
      }
      if (!done[sr.index]) {
        done[sr.index] = true;
        ++resumed;
        inherit(sr);
      }
    }
  }
  if (tel != nullptr) {
    if (auto* log = tel->events()) {
      telemetry::JsonWriter w;
      w.begin_object()
          .field("ev", "resume")
          .field("t_us", tel->now_us())
          .field("resumed", resumed)
          .field("store", path)
          .end_object();
      log->emit(w.str());
    }
  }
  return exists;
}

ScheduledResult run_campaign_to_store(const avp::Testcase& tc,
                                      const inject::CampaignConfig& cfg,
                                      const std::string& store_path,
                                      const SchedulerConfig& sched,
                                      bool resume) {
  const auto t0 = std::chrono::steady_clock::now();
  const auto wall_now = [t0] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
  };
  const auto steady_us_now = [] {
    return static_cast<u64>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  };

  inject::CampaignTelemetry* tel = cfg.telemetry;
  if (tel != nullptr) {
    // The resumed count is only known after the store scan below; the
    // resume event carries it.
    tel->campaign_start("campaign", cfg.seed, cfg.num_injections,
                        /*resumed=*/0);
  }

  const inject::CampaignPlan plan = inject::plan_campaign(tc, cfg);
  const store::CampaignMeta meta = make_campaign_meta(tc, cfg, plan);

  ScheduledResult result;
  result.meta = meta;

  std::vector<bool> done(cfg.num_injections, false);
  const bool fresh_store =
      !resume || !resume_scan(store_path, meta, done, tel,
                              [&](const store::StoredRecord& sr) {
                                result.agg.add(sr.rec);
                                ++result.resumed;
                              });

  // Commit markers seal each flush window so a crash can be rolled back to
  // a whole-window boundary (no orphaned 'R' whose 'P' was lost).
  const store::WriteOptions wopts{.commit_markers = true};
  store::StoreWriter writer =
      fresh_store ? store::StoreWriter::create(store_path, meta, wopts)
                  : store::StoreWriter::append_to(store_path, wopts);

  // --- dispatch the remaining index space, cycle-sorted ---
  // Workers warm-start from the plan's checkpoint store; handing out
  // injections in fault-cycle order keeps each worker's materialized
  // checkpoint hot across a shard. Records carry their index, so store
  // ordering, resume and canonical merge are unaffected.
  std::vector<u32> pending;
  pending.reserve(cfg.num_injections - result.resumed);
  for (const u32 i : inject::cycle_sorted(plan.faults)) {
    if (!done[i]) pending.push_back(i);
  }

  if (sched.on_progress) {
    sched.on_progress({result.resumed, cfg.num_injections, result.resumed, 0,
                       wall_now(), steady_us_now()});
  }

  std::mutex store_mu;
  u64 persisted = result.resumed;  // guarded by store_mu
  u64 executed_live = 0;           // guarded by store_mu

  // Store sink: each worker batches records and their footprints, appending
  // them to the store in flush windows.
  const auto store_sink = [&](u32 tid, const auto& run) {
    inject::WorkerTelemetry* wt =
        tel != nullptr ? &tel->worker(tid) : nullptr;
    std::vector<store::StoredRecord> buf;
    buf.reserve(sched.flush_records);
    std::vector<inject::PropagationRecord> fp_buf;
    inject::CampaignAggregate local;
    u64 local_footprints = 0;

    const auto flush = [&] {
      // Fold this worker's metrics shard into the registry at every flush
      // boundary: live readers (the daemon's /metrics scrape) then see
      // near-current totals without ever touching a foreign shard. The
      // worker thread owns the shard, so this is race-free by construction.
      if (wt != nullptr) wt->fold();
      if (buf.empty() && fp_buf.empty()) return;
      const std::lock_guard<std::mutex> lock(store_mu);
      writer.append(std::span<const store::StoredRecord>(buf.data(),
                                                         buf.size()));
      // Footprints ride in the same flush window: a crash tears at most one
      // frame, and resume re-runs the injections whose records were lost
      // (re-tracing their footprints with them).
      for (const inject::PropagationRecord& fp : fp_buf) {
        writer.append_propagation(fp);
      }
      writer.flush();
      persisted += buf.size();
      executed_live += buf.size();
      if (sched.on_progress) {
        sched.on_progress({persisted, cfg.num_injections, result.resumed,
                           executed_live, wall_now(), steady_us_now()});
      }
      local_footprints += fp_buf.size();
      buf.clear();
      fp_buf.clear();
    };

    run([&](u32 index, const inject::InjectionRecord& rec,
            std::optional<inject::PropagationRecord> fp) {
      store::StoredRecord sr;
      sr.index = index;
      sr.rec = rec;
      local.add(sr.rec);
      buf.push_back(sr);
      if (fp) fp_buf.push_back(std::move(*fp));
      if (buf.size() >= std::max(1u, sched.flush_records)) flush();
    });
    flush();
    const std::lock_guard<std::mutex> lock(store_mu);
    result.agg.merge(local);
    result.executed += local.total();
    result.footprints += local_footprints;
  };

  static_cast<inject::DispatchStats&>(result) =
      inject::dispatch_campaign(tc, cfg, plan, pending, sched, store_sink);
  result.checkpoints = plan.ckpts.size();
  result.checkpoint_bytes = plan.ckpts.resident_bytes();
  result.complete = result.agg.total() == cfg.num_injections;
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  if (tel != nullptr) {
    tel->campaign_finish(result.agg, result.executed, result.wall_seconds);
  }
  return result;
}

}  // namespace sfi::sched
