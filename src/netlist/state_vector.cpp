#include "netlist/state_vector.hpp"

#include <algorithm>
#include <bit>

#include "common/bits.hpp"
#include "common/check.hpp"

namespace sfi::netlist {

void add_field_copy(std::vector<WordMove>& moves, u32 src_offset,
                    u32 dst_offset, u32 width) {
  const u32 src_lsb = src_offset % 64;
  const u32 dst_lsb = dst_offset % 64;
  ensure(width >= 1 && src_lsb + width <= 64 && dst_lsb + width <= 64,
         "add_field_copy: a field straddles a word");
  const u32 src_word = src_offset / 64;
  const u32 dst_word = dst_offset / 64;
  const i32 shift = static_cast<i32>(dst_lsb) - static_cast<i32>(src_lsb);
  const u64 src_mask = mask_low(width) << src_lsb;
  const u64 dst_mask = mask_low(width) << dst_lsb;
  for (WordMove& m : moves) {
    if (m.src_word == src_word && m.dst_word == dst_word && m.shift == shift) {
      m.src_mask |= src_mask;
      m.dst_mask |= dst_mask;
      return;
    }
  }
  moves.push_back({src_word, dst_word, shift, src_mask, dst_mask});
}

StateVector::StateVector(u32 num_bits)
    : words_(words_for_bits(num_bits), 0), num_bits_(num_bits) {}

bool StateVector::get_bit(BitIndex i) const {
  require(i < num_bits_, "StateVector::get_bit out of range");
  if (recorder_ != nullptr) [[unlikely]] {
    recorder_->on_read(i / 64, u64{1} << (i % 64));
  }
  return (words_[i / 64] >> (i % 64)) & 1;
}

void StateVector::set_bit(BitIndex i, bool v) {
  require(i < num_bits_, "StateVector::set_bit out of range");
  if (recorder_ != nullptr) [[unlikely]] {
    recorder_->on_write(i / 64, u64{1} << (i % 64));
  }
  const u64 m = u64{1} << (i % 64);
  if (v) {
    words_[i / 64] |= m;
  } else {
    words_[i / 64] &= ~m;
  }
}

void StateVector::flip_bit(BitIndex i) {
  require(i < num_bits_, "StateVector::flip_bit out of range");
  if (recorder_ != nullptr) [[unlikely]] {
    // A flip is a read-modify-write of the bit.
    recorder_->on_read(i / 64, u64{1} << (i % 64));
    recorder_->on_write(i / 64, u64{1} << (i % 64));
  }
  words_[i / 64] ^= u64{1} << (i % 64);
}

void StateVector::note_read(u32 word, u64 mask) const {
  recorder_->on_read(word, mask);
}

void StateVector::note_write(u32 word, u64 mask) const {
  recorder_->on_write(word, mask);
}

u64 StateVector::masked_hash(std::span<const u64> masks) const {
  ensure(masks.size() == words_.size(), "mask/word size mismatch");
  // The injection runner polls this hash every simulated cycle to detect
  // convergence onto the golden trace, so it must not be latency-bound: a
  // single h = mix64(h ^ ...) chain serializes ~6 cycles of multiply
  // latency per word and ends up costing more than evaluating the model
  // itself. Four independent multiply–rotate lanes keep the pipeline full;
  // each lane stays order-sensitive within its stride and the lanes are
  // folded through mix64 at the end.
  constexpr u64 kM0 = 0x9E3779B97F4A7C15ULL;
  constexpr u64 kM1 = 0xC2B2AE3D27D4EB4FULL;
  u64 h0 = 0x533F1B05CA11ED01ULL;
  u64 h1 = 0x8EBC6AF09C88C6E3ULL;
  u64 h2 = 0x589965CC75374CC3ULL;
  u64 h3 = 0x1D8E4E27C47D124FULL;
  const std::size_t n = words_.size();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    h0 = std::rotl((h0 ^ (words_[i] & masks[i])) * kM0, 29);
    h1 = std::rotl((h1 ^ (words_[i + 1] & masks[i + 1])) * kM1, 29);
    h2 = std::rotl((h2 ^ (words_[i + 2] & masks[i + 2])) * kM0, 29);
    h3 = std::rotl((h3 ^ (words_[i + 3] & masks[i + 3])) * kM1, 29);
  }
  for (; i < n; ++i) {
    h0 = std::rotl((h0 ^ (words_[i] & masks[i])) * kM0, 29);
  }
  return mix64(h0 ^ mix64(h1 ^ mix64(h2 ^ mix64(h3 ^ (n * kM1)))));
}

bool StateVector::masked_equals(std::span<const u64> masks, const u64* ref,
                                u32& hint) const {
  ensure(masks.size() == words_.size(), "mask/word size mismatch");
  const std::size_t n = words_.size();
  if (hint < n && (words_[hint] & masks[hint]) != ref[hint]) return false;
  for (std::size_t i = 0; i < n; ++i) {
    if ((words_[i] & masks[i]) != ref[i]) {
      hint = static_cast<u32>(i);
      return false;
    }
  }
  return true;
}

u32 StateVector::masked_distance(const StateVector& other,
                                 std::span<const u64> masks) const {
  ensure(words_.size() == other.words_.size(), "StateVector size mismatch");
  ensure(masks.size() == words_.size(), "mask/word size mismatch");
  u32 d = 0;
  for (std::size_t i = 0; i < words_.size(); ++i) {
    d += static_cast<u32>(
        std::popcount((words_[i] ^ other.words_[i]) & masks[i]));
  }
  return d;
}

u32 StateVector::masked_diff_groups(std::span<const u64> masks, const u64* ref,
                                    std::span<const u64> group_masks,
                                    std::size_t num_groups,
                                    std::span<u32> out_group_bits) const {
  ensure(masks.size() == words_.size(), "mask/word size mismatch");
  ensure(group_masks.size() == num_groups * words_.size(),
         "group mask size mismatch");
  ensure(out_group_bits.size() >= num_groups, "group output too small");
  std::fill(out_group_bits.begin(), out_group_bits.begin() + num_groups, 0);
  u32 total = 0;
  const std::size_t n = words_.size();
  for (std::size_t w = 0; w < n; ++w) {
    const u64 diff = (words_[w] & masks[w]) ^ ref[w];
    if (diff == 0) continue;
    total += static_cast<u32>(std::popcount(diff));
    for (std::size_t g = 0; g < num_groups; ++g) {
      const u64 gm = group_masks[g * n + w];
      if (gm == 0) continue;
      out_group_bits[g] += static_cast<u32>(std::popcount(diff & gm));
    }
  }
  return total;
}

void StateVector::fill_zero() { std::fill(words_.begin(), words_.end(), 0); }

}  // namespace sfi::netlist
