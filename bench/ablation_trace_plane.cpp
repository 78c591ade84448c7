// Ablation — span-plane overhead and read-only gate: a farm campaign with
// the distributed tracing plane enabled (worker 'S' frames with exemplar
// phase slices, coordinator dispatch spans, trace sidecar tee, post-run
// stitch) must produce a byte-identical merged store to a plane-off run of
// the same plan, at <5% wall-clock overhead.
//
// Both invariants gate CI (nonzero exit on violation). Arms are interleaved
// off/on/off/on... and the overhead estimate is the MEDIAN of the per-pair
// on/off ratios (bench::run_paired_ablation; min-vs-min compares arms that
// may have gotten lucky at different times, which flips sign run to run on
// a busy box). Byte identity is checked on every pair. The stitch runs
// inside the ON arm's wall time: "trace on" means paying for both
// recording and reassembly.
#include <chrono>
#include <filesystem>
#include <iostream>
#include <thread>

#include "bench/common.hpp"
#include "farm/farm.hpp"
#include "sfi/telemetry.hpp"
#include "store/trace_stitch.hpp"

int main(int argc, char** argv) {
  using namespace sfi;
  const bench::Options opt = bench::parse_options(argc, argv);
  // Quick mode still runs ~1.5s arms: shorter farm runs are dominated by
  // supervision-poll jitter and the min-vs-min overhead estimate turns into
  // a coin flip against a 5% budget (the plane's true cost is ~2-3%).
  const u32 n = opt.full ? 10000 : 5000;
  const u32 pairs = opt.full ? 3 : 5;
  bench::print_scale_note(opt, "5000 flips x 5 reps/arm",
                          "10000 flips x 3 reps/arm");

  const avp::Testcase tc = bench::standard_testcase();
  inject::CampaignConfig base;
  base.seed = opt.seed;
  base.num_injections = n;

  const auto dir = std::filesystem::temp_directory_path();
  const std::string out_off = (dir / "sfi_trace_plane_off.sfr").string();
  const std::string out_on = (dir / "sfi_trace_plane_on.sfr").string();
  const std::string sidecar = (dir / "sfi_trace_plane_on.trace.sfr").string();

  farm::FarmConfig farm_base;
  farm_base.workers = 2;
  farm_base.shard_size = 64;

  const auto run_off = [&] {
    std::filesystem::remove(out_off);
    inject::CampaignConfig cfg = base;
    return farm::run_farm_campaign(tc, cfg, out_off, farm_base);
  };

  std::size_t stitched_spans = 0;
  std::size_t stitched_processes = 0;
  std::size_t trace_json_bytes = 0;
  const auto run_on = [&] {
    std::filesystem::remove(out_on);
    std::filesystem::remove(sidecar);
    inject::CampaignTelemetry tel;
    inject::CampaignConfig cfg = base;
    cfg.telemetry = &tel;
    farm::FarmConfig fc = farm_base;
    fc.trace_spans = true;
    farm::FarmResult r = farm::run_farm_campaign(tc, cfg, out_on, fc);
    // The stitch is part of what "tracing on" costs: fold it into the arm.
    const auto t0 = std::chrono::steady_clock::now();
    const store::StitchResult st = store::stitch_trace(out_on);
    r.wall_seconds += std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    stitched_spans = st.spans;
    stitched_processes = st.processes;
    trace_json_bytes = st.json.size();
    return r;
  };

  std::cout << report::section(
      "Ablation: span-plane overhead + read-only gate");
  const bench::PairedRuns p = bench::run_paired_ablation(
      pairs, "spans", out_off, out_on, run_off, run_on);
  if (!p.complete) return 1;
  std::cout << "stitched: " << stitched_spans << " spans across "
            << stitched_processes << " processes ("
            << trace_json_bytes << " bytes of trace JSON)\n";
  std::cout << "merged store byte-identical plane-on vs plane-off: "
            << (p.identical ? "yes" : "NO") << "\n";

  std::filesystem::remove(out_off);
  std::filesystem::remove(out_on);
  std::filesystem::remove(sidecar);

  if (!p.identical) {
    std::cout << "VIOLATION: span plane changed store bytes\n";
    return 1;
  }
  if (stitched_spans == 0 || stitched_processes < 2) {
    std::cout << "VIOLATION: trace stitched empty (plane not recording?)\n";
    return 1;
  }
  if (p.median_overhead() >= 0.05) {
    // A farm arm is 3 processes (coordinator + 2 workers); on a machine
    // with fewer cores than that they time-slice one another and wall
    // clock measures scheduler contention, not the plane. The overhead
    // gate is only meaningful — and only enforced — where the arms can
    // actually run unserialized (CI runners have 4 cores).
    const unsigned cores = std::thread::hardware_concurrency();
    if (cores != 0 && cores < 3) {
      std::cout << "WARNING: overhead above the 5% budget, but this machine "
                   "has "
                << cores
                << " core(s) for a 3-process farm — measurement is "
                   "contention-dominated, not gating\n";
      return 0;
    }
    std::cout << "VIOLATION: span-plane overhead above the 5% budget\n";
    return 1;
  }
  return 0;
}
