#include "oracle.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>

#include "sched/scheduler.hpp"
#include "stats/sampling.hpp"
#include "store/merge.hpp"
#include "store/reader.hpp"
#include "store/writer.hpp"

namespace perfbench {

using namespace sfi;

void StoreCheck::fail_whole(std::string note) {
  whole_failed = true;
  notes.push_back(std::move(note));
}

void StoreCheck::fail_index(u32 index, std::string note) {
  if (bad.insert(index).second && notes.size() < 32) {
    notes.push_back("index " + std::to_string(index) + ": " + note);
  }
}

bool records_equal(const inject::InjectionRecord& a,
                   const inject::InjectionRecord& b) {
  const inject::FaultSpec& fa = a.fault;
  const inject::FaultSpec& fb = b.fault;
  return fa.target == fb.target && fa.index == fb.index &&
         fa.array_bit == fb.array_bit && fa.cycle == fb.cycle &&
         fa.mode == fb.mode && fa.sticky_duration == fb.sticky_duration &&
         fa.sticky_value == fb.sticky_value &&
         fa.adjacent_bits == fb.adjacent_bits && a.outcome == b.outcome &&
         a.unit == b.unit && a.type == b.type && a.end_cycle == b.end_cycle &&
         a.early_exited == b.early_exited && a.recoveries == b.recoveries;
}

bool aggregates_equal(const inject::CampaignAggregate& a,
                      const inject::CampaignAggregate& b) {
  const auto same = [](const inject::OutcomeCounts& x,
                       const inject::OutcomeCounts& y) {
    return x.counts == y.counts;
  };
  return same(a.counts, b.counts) &&
         std::equal(a.by_unit.begin(), a.by_unit.end(), b.by_unit.begin(),
                    same) &&
         std::equal(a.by_type.begin(), a.by_type.end(), b.by_type.begin(),
                    same);
}

StoreCheck check_store(const std::string& path,
                       const inject::CampaignConfig& config,
                       const inject::CampaignPlan& plan,
                       const inject::CampaignAggregate& returned) {
  const u32 n = config.num_injections;
  StoreCheck check;
  check.records.assign(n, std::nullopt);
  store::StoreContents contents;
  try {
    contents = store::read_store(path);
  } catch (const std::exception& e) {
    check.fail_whole(std::string("store unreadable: ") + e.what());
    return check;
  }
  const store::CampaignMeta& meta = contents.meta;
  if (meta.config_fingerprint != sched::campaign_fingerprint(config, plan) ||
      meta.seed != config.seed || meta.num_injections != n) {
    check.fail_whole("store header does not match the campaign fingerprint");
  }
  std::vector<u32> seen(n, 0);
  for (const store::StoredRecord& sr : contents.records) {
    if (sr.index >= n) {
      check.fail_whole("record index " + std::to_string(sr.index) +
                       " out of range");
      continue;
    }
    if (++seen[sr.index] == 1) check.records[sr.index] = sr.rec;
    if (sr.rec.outcome == inject::Outcome::HarnessFatal) {
      check.fail_index(sr.index, "HarnessFatal");
    }
  }
  for (u32 i = 0; i < n; ++i) {
    if (seen[i] == 0) check.fail_index(i, "missing from the store");
    if (seen[i] > 1) check.fail_index(i, "present more than once");
  }
  try {
    if (!aggregates_equal(store::aggregate_store(path).second, returned)) {
      check.fail_whole("aggregate_store differs from the returned aggregate");
    }
  } catch (const std::exception& e) {
    check.fail_whole(std::string("aggregate_store failed: ") + e.what());
  }
  return check;
}

void check_sample(StoreCheck& check, const avp::Testcase& testcase,
                  const inject::CampaignConfig& config,
                  const inject::CampaignPlan& plan, u32 count, u64 seed) {
  inject::CampaignConfig scalar = config;
  scalar.engine = inject::EngineKind::Scalar;
  inject::CampaignWorker worker(testcase, scalar, plan);
  for (const u32 i :
       sample_indices(static_cast<u32>(plan.faults.size()), count, seed)) {
    const inject::InjectionRecord fresh = worker.run(plan.faults[i]);
    if (!check.records[i]) continue;  // already failed as missing
    if (!records_equal(fresh, *check.records[i])) {
      check.fail_index(i, "differs from a fresh scalar re-run");
    }
  }
}

void check_against_reference(StoreCheck& check, const std::string& canonical,
                             const std::string& reference) {
  if (read_file(canonical) == read_file(reference)) return;
  bool attributed = false;
  try {
    const store::StoreContents ref = store::read_store(reference);
    for (const store::StoredRecord& sr : ref.records) {
      if (sr.index >= check.records.size()) continue;
      const auto& mine = check.records[sr.index];
      if (mine && !records_equal(*mine, sr.rec)) {
        check.fail_index(sr.index, "differs from the reference route");
        attributed = true;
      }
    }
  } catch (const std::exception& e) {
    check.fail_whole(std::string("reference store unreadable: ") + e.what());
    return;
  }
  if (!attributed) {
    check.fail_whole("canonical store is not byte-identical to the reference");
  }
}

void canonicalize(const std::string& in, const std::string& out) {
  (void)store::merge_stores({in}, out);
}

std::vector<u8> read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>()};
}

std::string file_digest(const std::string& path) {
  const std::vector<u8> bytes = read_file(path);
  u64 h = 0xcbf29ce484222325ull;
  for (const u8 b : bytes) h = (h ^ b) * 0x100000001b3ull;
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

void write_store(const std::string& path, const store::CampaignMeta& meta,
                 const std::vector<store::StoredRecord>& records) {
  store::StoreWriter w = store::StoreWriter::create(path, meta);
  w.append(records);
  w.flush();
}

std::vector<u32> sample_indices(u32 n, u32 k, u64 seed) {
  stats::Xoshiro256 rng(seed);
  std::vector<u32> out;
  for (const u64 i : stats::sample_without_replacement(n, std::min(k, n), rng)) {
    out.push_back(static_cast<u32>(i));
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace perfbench
