// Exact output check for one campaign store.
//
// Every comparison is against values computed in the same run — the plan's
// fingerprint, the aggregate the entry call returned, a fresh scalar
// re-execution, or a reference store produced by a different route — never
// against numbers written down in advance. A failure is attributed to the
// injection indices it implicates; a failure no index explains (a bad
// header, a disagreeing aggregate) fails the whole campaign.
#pragma once

#include <optional>
#include <set>
#include <string>
#include <vector>

#include "sfi/campaign.hpp"
#include "store/codec.hpp"

namespace perfbench {

struct StoreCheck {
  /// Indices that failed a per-record check.
  std::set<sfi::u32> bad;
  /// A check failed that implicates the campaign as a whole.
  bool whole_failed = false;
  /// One line per failed check, for the log.
  std::vector<std::string> notes;
  /// Records by index as read from the store (nullopt: missing).
  std::vector<std::optional<sfi::inject::InjectionRecord>> records;

  [[nodiscard]] sfi::u64 failed(sfi::u32 n) const {
    return whole_failed ? n : static_cast<sfi::u64>(bad.size());
  }
  void fail_whole(std::string note);
  void fail_index(sfi::u32 index, std::string note);
};

/// Field-for-field equality of two injection records.
[[nodiscard]] bool records_equal(const sfi::inject::InjectionRecord& a,
                                 const sfi::inject::InjectionRecord& b);

[[nodiscard]] bool aggregates_equal(const sfi::inject::CampaignAggregate& a,
                                    const sfi::inject::CampaignAggregate& b);

/// Check the store at `path` that an entry call wrote for (config, plan):
/// the header matches campaign_fingerprint(config, plan); every index
/// 0..N-1 is present exactly once and none is HarnessFatal; and
/// aggregate_store() equals `returned`, the aggregate the call returned.
[[nodiscard]] StoreCheck check_store(
    const std::string& path, const sfi::inject::CampaignConfig& config,
    const sfi::inject::CampaignPlan& plan,
    const sfi::inject::CampaignAggregate& returned);

/// Re-run `count` indices drawn from `seed` on a fresh scalar
/// CampaignWorker and compare each to the stored record field for field.
void check_sample(StoreCheck& check, const sfi::avp::Testcase& testcase,
                  const sfi::inject::CampaignConfig& config,
                  const sfi::inject::CampaignPlan& plan, sfi::u32 count,
                  sfi::u64 seed);

/// Compare the canonical store at `canonical` with `reference`, the
/// canonical store of the same campaign produced by another route: they
/// must be byte-identical. Records that differ are attributed by index.
void check_against_reference(StoreCheck& check, const std::string& canonical,
                             const std::string& reference);

/// Canonical merge of one store (sorted, deduplicated, marker-free).
void canonicalize(const std::string& in, const std::string& out);

[[nodiscard]] std::vector<sfi::u8> read_file(const std::string& path);

/// FNV-1a digest of a file's bytes, as 16 hex digits.
[[nodiscard]] std::string file_digest(const std::string& path);

/// Write `records` under `meta` as a fresh store (used by the self-test to
/// plant altered copies of a canonical store).
void write_store(const std::string& path, const sfi::store::CampaignMeta& meta,
                 const std::vector<sfi::store::StoredRecord>& records);

/// `k` distinct indices in [0, n) drawn from `seed`, ascending.
[[nodiscard]] std::vector<sfi::u32> sample_indices(sfi::u32 n, sfi::u32 k,
                                                   sfi::u64 seed);

}  // namespace perfbench
