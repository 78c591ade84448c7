#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "netlist/field.hpp"
#include "netlist/registry.hpp"
#include "netlist/state_vector.hpp"

namespace sfi::netlist {
namespace {

LatchRegistry make_reg() {
  LatchRegistry reg;
  reg.add("a.x", Unit::IFU, LatchType::Func, 0, 16);
  reg.add("a.y", Unit::IFU, LatchType::Func, 0, 1);
  reg.add("b.gpr0", Unit::FXU, LatchType::RegFile, 2, 64);
  reg.add("b.mode", Unit::FXU, LatchType::Mode, 2, 8, /*hashable=*/false);
  reg.add("b.mode_wedge", Unit::FXU, LatchType::Mode, 2, 1);  // hashable
  reg.add("c.gptr", Unit::Core, LatchType::Gptr, 6, 4, /*hashable=*/false);
  reg.finalize();
  return reg;
}

TEST(Registry, OrdinalCountsExcludePadding) {
  const LatchRegistry reg = make_reg();
  EXPECT_EQ(reg.num_latches(), 16u + 1 + 64 + 8 + 1 + 4);
  // 16+1 fit in word 0; 64 needs its own word → padding inserted.
  EXPECT_GT(reg.total_bits(), reg.num_latches());
}

TEST(Registry, FieldsNeverStraddleWords) {
  const LatchRegistry reg = make_reg();
  for (const LatchMeta& m : reg.fields()) {
    EXPECT_EQ(m.bit_offset / 64, (m.bit_offset + m.width - 1) / 64) << m.name;
  }
}

TEST(Registry, OrdinalToBitRoundTrip) {
  const LatchRegistry reg = make_reg();
  for (u32 ord = 0; ord < reg.num_latches(); ++ord) {
    const LatchMeta& m = reg.meta_of_ordinal(ord);
    const BitIndex bit = reg.bit_of_ordinal(ord);
    EXPECT_GE(bit, m.bit_offset);
    EXPECT_LT(bit, m.bit_offset + m.width);
  }
}

TEST(Registry, MetaLookup) {
  const LatchRegistry reg = make_reg();
  EXPECT_EQ(reg.meta_of_ordinal(0).name, "a.x");
  EXPECT_EQ(reg.meta_of_ordinal(16).name, "a.y");
  EXPECT_EQ(reg.meta_of_ordinal(17).name, "b.gpr0");
  EXPECT_EQ(reg.name_of_ordinal(5), "a.x[5]");
  EXPECT_EQ(reg.name_of_ordinal(16), "a.y");
}

TEST(Registry, CountsByUnitAndType) {
  const LatchRegistry reg = make_reg();
  const auto by_unit = reg.latch_count_by_unit();
  EXPECT_EQ(by_unit[static_cast<std::size_t>(Unit::IFU)], 17u);
  EXPECT_EQ(by_unit[static_cast<std::size_t>(Unit::FXU)], 73u);
  EXPECT_EQ(by_unit[static_cast<std::size_t>(Unit::Core)], 4u);
  const auto by_type = reg.latch_count_by_type();
  EXPECT_EQ(by_type[static_cast<std::size_t>(LatchType::Mode)], 9u);
  EXPECT_EQ(by_type[static_cast<std::size_t>(LatchType::Gptr)], 4u);
  EXPECT_EQ(by_type[static_cast<std::size_t>(LatchType::RegFile)], 64u);
}

TEST(Registry, CollectOrdinals) {
  const LatchRegistry reg = make_reg();
  const auto scan_only = reg.collect_ordinals(
      [](const LatchMeta& m) { return is_scan_only(m.type); });
  EXPECT_EQ(scan_only.size(), 13u);
}

TEST(Registry, HashableFlagIsAuthoritative) {
  const LatchRegistry reg = make_reg();
  StateVector sv(reg.total_bits());
  const u64 h0 = sv.masked_hash(reg.hash_masks());
  // Flip a benign (hashable=false) MODE bit: hash unchanged.
  const auto benign = reg.collect_ordinals(
      [](const LatchMeta& m) { return m.name == "b.mode"; });
  sv.flip_bit(reg.bit_of_ordinal(benign.front()));
  EXPECT_EQ(sv.masked_hash(reg.hash_masks()), h0);
  // Flip the hashable MODE wedge bit: hash changes (no false convergence).
  const auto wedge = reg.collect_ordinals(
      [](const LatchMeta& m) { return m.name == "b.mode_wedge"; });
  sv.flip_bit(reg.bit_of_ordinal(wedge.front()));
  EXPECT_NE(sv.masked_hash(reg.hash_masks()), h0);
  // Flip a FUNC bit: hash changes again.
  const u64 h1 = sv.masked_hash(reg.hash_masks());
  sv.flip_bit(reg.bit_of_ordinal(0));
  EXPECT_NE(sv.masked_hash(reg.hash_masks()), h1);
}

TEST(Registry, AddAfterFinalizeRejected) {
  LatchRegistry reg = make_reg();
  EXPECT_THROW(reg.add("late", Unit::IFU, LatchType::Func, 0, 1), UsageError);
}

TEST(Registry, BadWidthRejected) {
  LatchRegistry reg;
  EXPECT_THROW(reg.add("w0", Unit::IFU, LatchType::Func, 0, 0), UsageError);
  EXPECT_THROW(reg.add("w65", Unit::IFU, LatchType::Func, 0, 65), UsageError);
}

TEST(StateVector, BitOps) {
  StateVector sv(130);
  EXPECT_FALSE(sv.get_bit(129));
  sv.set_bit(129, true);
  EXPECT_TRUE(sv.get_bit(129));
  sv.flip_bit(129);
  EXPECT_FALSE(sv.get_bit(129));
  EXPECT_THROW(sv.set_bit(130, true), UsageError);
}

TEST(StateVector, FieldReadWrite) {
  StateVector sv(128);
  sv.write(3, 16, 0xABCD);
  EXPECT_EQ(sv.read(3, 16), 0xABCDu);
  sv.write(64, 64, ~u64{0});
  EXPECT_EQ(sv.read(64, 64), ~u64{0});
  // Neighbouring fields unaffected.
  EXPECT_EQ(sv.read(19, 16), 0u);
}

// The message a throwing call reports, or "" when it does not throw `E`.
template <typename E, typename Fn>
std::string thrown_message(Fn&& fn) {
  try {
    fn();
  } catch (const E& e) {
    return e.what();
  }
  return "";
}

TEST(StateVector, AccessorChecksKeepTheirExceptionsAndMessages) {
  StateVector sv(128);
  EXPECT_EQ(thrown_message<InternalError>([&] { (void)sv.read(120, 16); }),
            "sfi internal error: StateVector::read out of range");
  EXPECT_EQ(thrown_message<InternalError>([&] { (void)sv.read(60, 8); }),
            "sfi internal error: StateVector::read straddles a word");
  EXPECT_EQ(thrown_message<InternalError>([&] { sv.write(120, 16, 1); }),
            "sfi internal error: StateVector::write out of range");
  EXPECT_EQ(thrown_message<InternalError>([&] { sv.write(60, 8, 1); }),
            "sfi internal error: StateVector::write straddles a word");
  EXPECT_EQ(thrown_message<UsageError>([&] { (void)sv.get_bit(128); }),
            "sfi usage error: StateVector::get_bit out of range");
  EXPECT_EQ(thrown_message<UsageError>([&] { sv.flip_bit(200); }),
            "sfi usage error: StateVector::flip_bit out of range");
  // A failed write leaves the vector untouched.
  EXPECT_EQ(sv, StateVector(128));
}

// The convergence poll's contract: whatever the hint, the answer is the one
// a plain scan of every word gives, and a false answer leaves the hint on a
// word that really differs.
TEST(StateVector, HintedMaskedEqualsMatchesFullScan) {
  constexpr u32 kBits = 64 * 11 + 20;
  std::mt19937_64 rng(17);
  StateVector sv(kBits);
  const std::size_t n = sv.words().size();
  std::vector<u64> masks(n);
  for (u64& m : masks) m = rng();
  masks[3] = 0;  // a word with nothing hashable
  masks[n - 1] &= mask_low(kBits % 64);
  std::vector<u64> ref(n);

  const auto full_scan = [&] {
    for (std::size_t i = 0; i < n; ++i) {
      if ((sv.words()[i] & masks[i]) != ref[i]) return false;
    }
    return true;
  };
  const auto differs = [&](u32 w) {
    return w < n && (sv.words()[w] & masks[w]) != ref[w];
  };
  const std::vector<u32> fixed_hints = {
      0, static_cast<u32>(n - 1), static_cast<u32>(n), static_cast<u32>(n + 7),
      std::numeric_limits<u32>::max()};

  for (int trial = 0; trial < 400; ++trial) {
    for (std::size_t i = 0; i < n; ++i) sv.words_mut()[i] = rng() & masks[i];
    ref.assign(sv.words().begin(), sv.words().end());
    // 0 (converged) to 4 differing words; bits outside the masks differ too
    // and must be ignored.
    std::vector<u32> words;
    for (u32 w = 0; w < n; ++w) {
      if (masks[w] != 0) words.push_back(w);
    }
    std::shuffle(words.begin(), words.end(), rng);
    const int num_diffs = trial % 5;
    for (int d = 0; d < num_diffs; ++d) {
      const u32 w = words[d];
      u64 bits = rng() & masks[w];
      if (bits == 0) bits = masks[w] & (~masks[w] + 1);  // lowest masked bit
      sv.words_mut()[w] ^= bits;
    }
    for (std::size_t i = 0; i + 1 < n; ++i) sv.words_mut()[i] |= ~masks[i];
    sv.words_mut()[n - 1] |= ~masks[n - 1] & mask_low(kBits % 64);

    std::vector<u32> hints = fixed_hints;
    hints.push_back(static_cast<u32>(rng() % n));  // stale or current
    for (const u32 start : hints) {
      u32 hint = start;
      const bool expect = full_scan();
      ASSERT_EQ(sv.masked_equals(masks, ref.data(), hint), expect)
          << "trial " << trial << " hint " << start;
      if (expect) {
        EXPECT_EQ(hint, start) << "a converged poll leaves the hint alone";
      } else {
        EXPECT_TRUE(differs(hint)) << "trial " << trial << " hint " << start;
      }
    }
  }

  // A poll sequence sharing one hint, as the runner keeps it across cycles:
  // differing words are repaired one by one until the state converges.
  for (std::size_t i = 0; i < n; ++i) sv.words_mut()[i] = rng() & masks[i];
  ref.assign(sv.words().begin(), sv.words().end());
  const std::vector<u32> diverged = {9, 2, 6, 10};
  for (const u32 w : diverged) sv.words_mut()[w] ^= masks[w];
  u32 hint = 0;
  for (const u32 w : diverged) {
    EXPECT_FALSE(sv.masked_equals(masks, ref.data(), hint));
    EXPECT_TRUE(differs(hint));
    sv.words_mut()[w] ^= masks[w];
  }
  EXPECT_TRUE(sv.masked_equals(masks, ref.data(), hint));
}

TEST(WordMove, FieldCopiesMergeByWordsAndShift) {
  std::vector<WordMove> moves;
  add_field_copy(moves, 0, 64 + 8, 4);   // word 0 -> 1, shift +8
  add_field_copy(moves, 64, 128, 64);    // word 1 -> 2, shift 0
  add_field_copy(moves, 10, 64 + 18, 6);  // merges into the first move
  add_field_copy(moves, 20, 64 + 30, 4);  // same words, another shift
  ASSERT_EQ(moves.size(), 3u);
  EXPECT_EQ(moves[0].src_mask, u64{0xF} | (u64{0x3F} << 10));
  EXPECT_EQ(moves[0].dst_mask, moves[0].src_mask << 8);
  EXPECT_EQ(moves[1].src_mask, ~u64{0});
  EXPECT_EQ(moves[2].shift, 10);
  EXPECT_THROW(add_field_copy(moves, 60, 64, 8), InternalError);

  StateVector src(192);
  StateVector dst(192);
  src.write(0, 4, 0x9);
  src.write(10, 6, 0x2A);
  src.write(64, 64, 0x0123456789ABCDEFULL);
  src.write(20, 4, 0x5);
  dst.write(64, 8, 0xFF);  // outside every destination field: kept
  for (const WordMove& m : moves) dst.apply_move(src, m);
  EXPECT_EQ(dst.read(64 + 8, 4), 0x9u);
  EXPECT_EQ(dst.read(64 + 18, 6), 0x2Au);
  EXPECT_EQ(dst.read(128, 64), 0x0123456789ABCDEFULL);
  EXPECT_EQ(dst.read(64 + 30, 4), 0x5u);
  EXPECT_EQ(dst.read(64, 8), 0xFFu);
}

TEST(StateVector, EqualityAndDistance) {
  const LatchRegistry reg = make_reg();
  StateVector a(reg.total_bits());
  StateVector b(reg.total_bits());
  EXPECT_EQ(a, b);
  b.flip_bit(reg.bit_of_ordinal(3));
  b.flip_bit(reg.bit_of_ordinal(20));
  EXPECT_NE(a, b);
  EXPECT_EQ(a.masked_distance(b, reg.hash_masks()), 2u);
}

TEST(Field, LatchSemantics) {
  LatchRegistry reg;
  const Field x(reg.add("x", Unit::IFU, LatchType::Func, 0, 8));
  const Field y(reg.add("y", Unit::IFU, LatchType::Func, 0, 8));
  reg.finalize();
  StateVector cur(reg.total_bits());
  StateVector nxt(reg.total_bits());
  x.poke(cur, 5);
  nxt = cur;
  const CycleFrame f{cur, nxt};
  EXPECT_EQ(x.get(f), 5u);
  x.set(f, 9);
  EXPECT_EQ(x.get(f), 5u);     // current value unchanged
  EXPECT_EQ(x.staged(f), 9u);  // staged for next cycle
  EXPECT_EQ(y.staged(f), 0u);  // unwritten fields hold
}

TEST(Field, FlagWidthEnforced) {
  LatchRegistry reg;
  const auto wide = reg.add("wide", Unit::IFU, LatchType::Func, 0, 2);
  EXPECT_THROW(netlist::Flag{wide}, UsageError);
}

}  // namespace
}  // namespace sfi::netlist
