// Shared scaffolding for the paper-reproduction benches.
//
// Every bench runs at a scaled-down default (these run on a laptop-class
// single core in seconds) and accepts --full for paper-scale numbers, plus
// --seed N. The workload is the standard AVP testcase unless the bench
// says otherwise.
#pragma once

#include <algorithm>
#include <cstring>
#include <fstream>
#include <iostream>
#include <iterator>
#include <string>
#include <vector>

#include "avp/testgen.hpp"
#include "report/table.hpp"
#include "sfi/campaign.hpp"

namespace sfi::bench {

struct Options {
  bool full = false;
  u64 seed = 42;
};

inline Options parse_options(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--full") == 0) {
      opt.full = true;
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      opt.seed = std::strtoull(argv[++i], nullptr, 0);
    } else if (std::strcmp(argv[i], "--help") == 0) {
      std::cout << "usage: " << argv[0] << " [--full] [--seed N]\n"
                << "  --full  paper-scale sample sizes (slower)\n";
      std::exit(0);
    }
  }
  return opt;
}

/// The standard AVP workload used across benches.
inline avp::Testcase standard_testcase(u64 seed = 2026) {
  avp::TestcaseConfig cfg;
  cfg.seed = seed;
  cfg.num_instructions = 160;
  return avp::generate_testcase(cfg);
}

inline void print_scale_note(const Options& opt, const std::string& deflt,
                             const std::string& full) {
  std::cout << (opt.full ? "[--full: " + full + "]\n"
                         : "[scaled default: " + deflt +
                               "; run with --full for paper scale]\n");
}

/// Outcome row formatting shared by several benches.
inline std::vector<std::string> outcome_row(
    const std::string& label, const inject::OutcomeCounts& c) {
  return {label,
          report::Table::count(c.total()),
          report::Table::pct(c.fraction(inject::Outcome::Vanished)),
          report::Table::pct(c.fraction(inject::Outcome::Corrected)),
          report::Table::pct(c.fraction(inject::Outcome::Hang)),
          report::Table::pct(c.fraction(inject::Outcome::Checkstop)),
          report::Table::pct(c.fraction(inject::Outcome::BadArchState))};
}

inline std::vector<std::string> outcome_headers(const std::string& first) {
  return {first,   "flips",     "vanished", "corrected",
          "hangs", "checkstop", "SDC"};
}

/// Interleaved off/on pairs of a plane ablation (see run_paired_ablation).
struct PairedRuns {
  std::vector<double> ratios;  ///< per-pair on/off wall ratios
  bool complete = true;        ///< false: some run did not finish
  bool identical = true;       ///< every pair's stores byte-identical
  /// Median pair ratio minus one: each pair runs back to back under the
  /// same ambient load, so pairing cancels drift, and the median discards
  /// the pair a noisy neighbour landed on.
  [[nodiscard]] double median_overhead() const {
    if (ratios.empty()) return 0.0;
    std::vector<double> r = ratios;
    std::sort(r.begin(), r.end());
    return r[r.size() / 2] - 1.0;
  }
};

inline std::vector<u8> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

/// Runs `pairs` interleaved (off, on) campaign pairs, where `run_off` and
/// `run_on` write their stores to `out_off` / `out_on` and return a result
/// with complete, executed, wall_seconds and injections_per_second(). Checks
/// byte identity of the two stores on every pair; prints the per-run table
/// (column `arm` labels off/ON), the ratios and their median.
template <class RunOff, class RunOn>
PairedRuns run_paired_ablation(u32 pairs, const std::string& arm,
                               const std::string& out_off,
                               const std::string& out_on, RunOff run_off,
                               RunOn run_on) {
  PairedRuns p;
  report::Table t({"rep", arm, "executed", "wall (s)", "inj/s"});
  const auto row = [&t](u32 rep, const char* label, const auto& r) {
    t.add_row({report::Table::count(rep), label,
               report::Table::count(r.executed),
               report::Table::num(r.wall_seconds, 2),
               report::Table::count(
                   static_cast<u64>(r.injections_per_second()))});
  };
  for (u32 rep = 0; rep < pairs; ++rep) {
    const auto off = run_off();
    const auto on = run_on();
    if (!off.complete || !on.complete) {
      std::cout << "ERROR: farm run incomplete\n";
      p.complete = false;
      return p;
    }
    if (slurp(out_off) != slurp(out_on)) p.identical = false;
    if (off.wall_seconds > 0.0) {
      p.ratios.push_back(on.wall_seconds / off.wall_seconds);
    }
    row(rep, "off", off);
    row(rep, "ON", on);
  }
  std::cout << t.to_string() << "per-pair on/off ratios:";
  for (const double r : p.ratios) std::cout << ' ' << report::Table::num(r, 3);
  std::cout << "\nmedian overhead " << report::Table::pct(p.median_overhead())
            << " (budget 5%)\n";
  return p;
}

}  // namespace sfi::bench
