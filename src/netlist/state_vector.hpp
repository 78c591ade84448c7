// StateVector: the dense bit image of every latch in the model.
//
// This is the single source of truth for sequential state. The core's units
// read the *current* vector and write the *next* vector each cycle (see
// emu::CycleFrame), so flipping any bit here genuinely perturbs the machine —
// the property that makes arbitrary-latch fault injection meaningful.
#pragma once

#include <span>
#include <vector>

#include "common/bits.hpp"
#include "common/check.hpp"
#include "common/hash.hpp"
#include "common/types.hpp"

namespace sfi::netlist {

/// Exact per-cycle read/write bit-set recorder for a StateVector.
///
/// When armed on a vector (StateVector::set_recorder), every access through
/// the bit/field API ORs the touched bits into per-word masks. The lane
/// engine arms this on its reference cursor's frame vectors: a cycle whose
/// read set is disjoint from a lane's diff is provably identical to the
/// reference cycle, and the reference's write set erases diff bits that were
/// overwritten without being read. Reads may be over-approximated safely
/// (more lane trips, never wrong results); writes are exact because the
/// field API writes exactly the field's bits.
///
/// Touched word indices are kept as dense lists so per-cycle reset is
/// O(touched), not O(words).
class AccessRecorder {
 public:
  /// Size the masks for a vector of `num_words` words and clear them.
  void bind(std::size_t num_words) {
    reads_.assign(num_words, 0);
    writes_.assign(num_words, 0);
    read_words_.clear();
    write_words_.clear();
  }

  /// Clear only the words touched since the last call (cheap).
  void begin_cycle() {
    for (const u32 w : read_words_) reads_[w] = 0;
    for (const u32 w : write_words_) writes_[w] = 0;
    read_words_.clear();
    write_words_.clear();
  }

  [[nodiscard]] std::span<const u64> reads() const { return reads_; }
  [[nodiscard]] std::span<const u64> writes() const { return writes_; }
  [[nodiscard]] std::span<const u32> read_words() const { return read_words_; }
  [[nodiscard]] std::span<const u32> write_words() const {
    return write_words_;
  }

  void on_read(u32 word, u64 mask) {
    if (reads_[word] == 0) read_words_.push_back(word);
    reads_[word] |= mask;
  }
  void on_write(u32 word, u64 mask) {
    if (writes_[word] == 0) write_words_.push_back(word);
    writes_[word] |= mask;
  }

 private:
  std::vector<u64> reads_;
  std::vector<u64> writes_;
  std::vector<u32> read_words_;
  std::vector<u32> write_words_;
};

/// A precomputed copy of bits between two vectors, one word to one word:
/// dst[dst_word] takes (src[src_word] & src_mask) shifted left by `shift`
/// (right when negative) in the bits of dst_mask, the rest of the
/// destination word is kept. dst_mask is src_mask shifted the same way.
/// Built by add_field_copy(); applied by StateVector::apply_move().
struct WordMove {
  u32 src_word = 0;
  u32 dst_word = 0;
  i32 shift = 0;
  u64 src_mask = 0;
  u64 dst_mask = 0;
};

/// Append the copy of the `width`-bit field at `src_offset` onto the field
/// at `dst_offset` to `moves`. A copy that shares source word, destination
/// word and shift with an earlier move is merged into it, so a move list
/// touches each word in the same first-touch order as the field-by-field
/// copies it replaces. Neither field may straddle a word.
void add_field_copy(std::vector<WordMove>& moves, u32 src_offset,
                    u32 dst_offset, u32 width);

class StateVector {
 public:
  StateVector() = default;
  explicit StateVector(u32 num_bits);

  // A recorder is a property of the vector *instance* (the cursor's live
  // frame), never of its value: copies and moves of the value — checkpoint
  // saves, golden-trace snapshots, nxt = cur frame seeding — must not
  // propagate the recorder, and assignment into an armed vector must not
  // disarm it.
  StateVector(const StateVector& other)
      : words_(other.words_), num_bits_(other.num_bits_) {}
  StateVector(StateVector&& other) noexcept
      : words_(std::move(other.words_)), num_bits_(other.num_bits_) {}
  StateVector& operator=(const StateVector& other) {
    words_ = other.words_;
    num_bits_ = other.num_bits_;
    return *this;
  }
  StateVector& operator=(StateVector&& other) noexcept {
    words_ = std::move(other.words_);
    num_bits_ = other.num_bits_;
    return *this;
  }

  /// Arm (or with nullptr, disarm) access recording on this vector.
  void set_recorder(AccessRecorder* rec) { recorder_ = rec; }

  [[nodiscard]] u32 num_bits() const { return num_bits_; }
  [[nodiscard]] std::span<const u64> words() const { return words_; }
  /// Mutable word access for bulk state transfer (checkpoint restore and
  /// delta reconstruction); bits past num_bits() in the last word must stay
  /// zero.
  [[nodiscard]] std::span<u64> words_mut() { return words_; }

  [[nodiscard]] bool get_bit(BitIndex i) const;
  void set_bit(BitIndex i, bool v);
  void flip_bit(BitIndex i);

  // read()/write() are the model's latch-field accessors, called at every
  // field access of every evaluated cycle, so they are forced inline: the
  // checks stay, but their throw paths and the recorder hook are out-of-line
  // calls on never-taken (unarmed) branches.

  /// Read a field of `width` bits at `offset`. The field must not straddle a
  /// word (guaranteed by LatchRegistry's allocator).
  [[nodiscard]] [[gnu::always_inline]] u64 read(u32 offset, u32 width) const {
    ensure(offset + width <= num_bits_, "StateVector::read out of range");
    const u32 lsb = offset % 64;
    ensure(lsb + width <= 64, "StateVector::read straddles a word");
    if (recorder_ != nullptr) [[unlikely]] {
      note_read(offset / 64, mask_low(width) << lsb);
    }
    return (words_[offset / 64] >> lsb) & mask_low(width);
  }
  /// Write the low `width` bits of `v` into the field at `offset`.
  [[gnu::always_inline]] void write(u32 offset, u32 width, u64 v) {
    ensure(offset + width <= num_bits_, "StateVector::write out of range");
    const u32 lsb = offset % 64;
    ensure(lsb + width <= 64, "StateVector::write straddles a word");
    if (recorder_ != nullptr) [[unlikely]] {
      // Only the field's own bits count as written: insert() preserves the
      // rest of the word, which is a carry, not a write.
      note_write(offset / 64, mask_low(width) << lsb);
    }
    u64& w = words_[offset / 64];
    w = insert(w, lsb, width, v);
  }

  /// Apply one word move from `src` into this vector (see WordMove). Reports
  /// a read of src_mask on `src` and a write of dst_mask on this vector to
  /// their armed recorders, the same bits the field copies it replaces read
  /// and write. `src` must not be this vector.
  void apply_move(const StateVector& src, const WordMove& m) {
    ensure(m.src_word < src.words_.size() && m.dst_word < words_.size(),
           "StateVector::apply_move out of range");
    if (src.recorder_ != nullptr) [[unlikely]] {
      src.note_read(m.src_word, m.src_mask);
    }
    if (recorder_ != nullptr) [[unlikely]] {
      note_write(m.dst_word, m.dst_mask);
    }
    const u64 v = src.words_[m.src_word] & m.src_mask;
    const u64 moved = m.shift >= 0 ? v << m.shift : v >> -m.shift;
    u64& w = words_[m.dst_word];
    w = (w & ~m.dst_mask) | moved;
  }

  /// Fingerprint of the bits selected by `masks` (one AND-mask per word, as
  /// produced by LatchRegistry::hash_masks()).
  [[nodiscard]] u64 masked_hash(std::span<const u64> masks) const;

  /// Exact compare of the masked state against a pre-masked reference
  /// (ref[i] == words[i] & masks[i] for all i). Word `hint` is tested first:
  /// a diverged run usually still differs where the previous poll found it,
  /// so that poll costs one word. Otherwise the scan early-outs on the first
  /// differing word and stores its index in `hint` for the next poll. Any
  /// hint (stale, or >= the word count) gives the same answer as a full
  /// scan; start each run's polls with 0.
  [[nodiscard]] bool masked_equals(std::span<const u64> masks, const u64* ref,
                                   u32& hint) const;

  /// Number of bit positions (under `masks`) where *this differs from other.
  [[nodiscard]] u32 masked_distance(const StateVector& other,
                                    std::span<const u64> masks) const;

  /// Per-group popcount of the diff against a pre-masked reference: for each
  /// group g, out_group_bits[g] = popcount over words w of
  /// ((words[w] & masks[w]) ^ ref[w]) & group_masks[g * W + w], with
  /// W == masks.size() and group_masks holding num_groups masks group-major
  /// (LatchRegistry::unit_masks()/type_masks() layout). Returns the total
  /// diff popcount under `masks`. Infection footprints are sparse, so words
  /// with a zero diff are skipped before any group work.
  u32 masked_diff_groups(std::span<const u64> masks, const u64* ref,
                         std::span<const u64> group_masks,
                         std::size_t num_groups,
                         std::span<u32> out_group_bits) const;

  void fill_zero();

  /// Value equality: words and size only (a recorder is not part of the
  /// value, see the copy semantics above).
  friend bool operator==(const StateVector& a, const StateVector& b) {
    return a.num_bits_ == b.num_bits_ && a.words_ == b.words_;
  }

 private:
  // The recorder hooks of the inlined accessors, out of line.
  [[gnu::noinline]] void note_read(u32 word, u64 mask) const;
  [[gnu::noinline]] void note_write(u32 word, u64 mask) const;

  std::vector<u64> words_;
  u32 num_bits_ = 0;
  AccessRecorder* recorder_ = nullptr;
};

}  // namespace sfi::netlist
