// Typed latch-field accessors and the per-cycle read/write frame.
//
// Latch semantics: during evaluation of cycle N the model reads the state
// the latches held at the start of the cycle (`cur`) and writes the values
// they will capture at the next clock edge (`nxt`). The emulator seeds `nxt`
// as a copy of `cur`, so unwritten fields hold their value — exactly a latch.
#pragma once

#include "common/check.hpp"
#include "netlist/registry.hpp"
#include "netlist/state_vector.hpp"

namespace sfi::netlist {

/// One cycle's evaluation context.
struct CycleFrame {
  const StateVector& cur;  ///< latch outputs (start-of-cycle state)
  StateVector& nxt;        ///< latch inputs (state captured at cycle end)
};

/// Handle to a latch field of up to 64 bits.
class Field {
 public:
  Field() = default;
  explicit Field(FieldRef ref) : ref_(ref) {}

  [[nodiscard]] u32 width() const { return ref_.width; }
  [[nodiscard]] u32 bit_offset() const { return ref_.bit_offset; }

  /// Start-of-cycle value.
  [[nodiscard]] u64 get(const CycleFrame& f) const {
    return f.cur.read(ref_.bit_offset, ref_.width);
  }
  /// Value already staged for the next cycle (use sparingly: only for
  /// priority-ordered writes within one unit's evaluation).
  [[nodiscard]] u64 staged(const CycleFrame& f) const {
    return f.nxt.read(ref_.bit_offset, ref_.width);
  }
  /// Stage a new value for the next cycle.
  void set(const CycleFrame& f, u64 v) const {
    f.nxt.write(ref_.bit_offset, ref_.width, v);
  }

  /// Direct access outside the cycle loop (reset / scan load / inspection).
  [[nodiscard]] u64 peek(const StateVector& sv) const {
    return sv.read(ref_.bit_offset, ref_.width);
  }
  void poke(StateVector& sv, u64 v) const {
    sv.write(ref_.bit_offset, ref_.width, v);
  }

 private:
  FieldRef ref_{};
};

/// Convenience wrapper for 1-bit latches.
class Flag {
 public:
  Flag() = default;
  explicit Flag(FieldRef ref) : field_(ref) {
    require(ref.width == 1, "Flag must be 1 bit wide");
  }

  [[nodiscard]] bool get(const CycleFrame& f) const {
    return field_.get(f) != 0;
  }
  [[nodiscard]] bool staged(const CycleFrame& f) const {
    return field_.staged(f) != 0;
  }
  void set(const CycleFrame& f, bool v) const { field_.set(f, v ? 1 : 0); }
  [[nodiscard]] bool peek(const StateVector& sv) const {
    return field_.peek(sv) != 0;
  }
  void poke(StateVector& sv, bool v) const { field_.poke(sv, v ? 1 : 0); }
  [[nodiscard]] u32 width() const { return 1; }
  [[nodiscard]] u32 bit_offset() const { return field_.bit_offset(); }

 private:
  Field field_;
};

}  // namespace sfi::netlist
