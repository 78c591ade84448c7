// Ablation — observability-plane overhead and read-only gate: a farm
// campaign with the full plane enabled (campaign telemetry, per-worker 'M'
// metrics frames, a concurrent Prometheus-rendering scrape thread, the
// crash flight recorder) must produce a byte-identical merged store to a
// plane-off run of the same plan, at <5% wall-clock overhead.
//
// Both invariants gate CI (nonzero exit on violation). Arms are interleaved
// off/on/off/on... and the overhead estimate is the median of the per-pair
// on/off ratios (bench::run_paired_ablation); byte identity is checked on
// every pair.
#include <atomic>
#include <chrono>
#include <filesystem>
#include <iostream>
#include <thread>
#include <vector>

#include "bench/common.hpp"
#include "farm/farm.hpp"
#include "sfi/telemetry.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/prometheus.hpp"

int main(int argc, char** argv) {
  using namespace sfi;
  const bench::Options opt = bench::parse_options(argc, argv);
  const u32 n = opt.full ? 10000 : 2000;
  const u32 pairs = opt.full ? 3 : 5;
  bench::print_scale_note(opt, "2000 flips x 5 off/on pairs",
                          "10000 flips x 3 off/on pairs");

  const avp::Testcase tc = bench::standard_testcase();
  inject::CampaignConfig base;
  base.seed = opt.seed;
  base.num_injections = n;

  const auto dir = std::filesystem::temp_directory_path();
  const std::string out_off = (dir / "sfi_obs_plane_off.sfr").string();
  const std::string out_on = (dir / "sfi_obs_plane_on.sfr").string();
  const std::string postmortem = (dir / "sfi_obs_plane.postmortem").string();

  // The plane's process-wide half: the crash flight recorder ring that the
  // event-emission path tees into on every line.
  telemetry::FlightRecorder::global().enable(2048);

  farm::FarmConfig farm_base;
  farm_base.workers = 2;
  farm_base.shard_size = 64;

  const auto run_off = [&] {
    std::filesystem::remove(out_off);
    inject::CampaignConfig cfg = base;
    return farm::run_farm_campaign(tc, cfg, out_off, farm_base);
  };

  u64 scrapes = 0;
  u64 scrape_bytes = 0;
  const auto run_on = [&] {
    std::filesystem::remove(out_on);
    inject::CampaignTelemetry tel;
    tel.set_stop_target(0.95, 0.02);
    inject::CampaignConfig cfg = base;
    cfg.telemetry = &tel;
    farm::FarmConfig fc = farm_base;
    fc.metrics_every = 32;      // workers stream cumulative 'M' frames
    fc.postmortem_path = postmortem;

    // A /metrics scrape once a second, rendered exactly the way the serve
    // daemon renders it: fleet snapshot (with quantile gauges) under the
    // campaign labels, concurrent with the running coordinator.
    std::atomic<bool> running{true};
    std::thread scraper([&] {
      const std::vector<telemetry::PromLabel> labels = {
          {"campaign", "1"}, {"tenant", "bench"}, {"engine", "farm"}};
      while (running.load(std::memory_order_relaxed)) {
        telemetry::PrometheusWriter pw;
        pw.add_gauge("campaign.injections_total", labels, n);
        pw.add_gauge("campaign.fleet_workers", labels,
                     static_cast<double>(tel.fleet_workers()));
        pw.add_snapshot(tel.fleet_snapshot(), labels);
        scrape_bytes += pw.str().size();
        ++scrapes;
        for (int i = 0; i < 20 && running.load(); ++i) {
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
        }
      }
    });
    const farm::FarmResult r = farm::run_farm_campaign(tc, cfg, out_on, fc);
    running.store(false);
    scraper.join();
    return r;
  };

  std::cout << report::section(
      "Ablation: observability plane overhead + read-only gate");
  const bench::PairedRuns p = bench::run_paired_ablation(
      pairs, "plane", out_off, out_on, run_off, run_on);
  if (!p.complete) return 1;
  std::cout << "scrapes: " << scrapes << " (" << scrape_bytes
            << " bytes of exposition text)\n";
  std::cout << "merged store byte-identical plane-on vs plane-off: "
            << (p.identical ? "yes" : "NO") << "\n";

  std::filesystem::remove(out_off);
  std::filesystem::remove(out_on);
  std::filesystem::remove(postmortem);

  if (!p.identical) {
    std::cout << "VIOLATION: observability plane changed store bytes\n";
    return 1;
  }
  if (p.median_overhead() >= 0.05) {
    std::cout << "VIOLATION: plane overhead above the 5% budget\n";
    return 1;
  }
  return 0;
}
