// FPU — floating point unit.
//
// Owns the parity-protected FPR file and a 4-stage arithmetic pipeline.
// Operands are carried through the stages with parity and consumed at the
// final stage (a flip in any staged operand latch is caught there); the
// result leaves with fresh parity verified again at completion.
#pragma once

#include <array>
#include <optional>
#include <vector>

#include "core/config.hpp"
#include "core/mode_ring.hpp"
#include "core/pipeline_types.hpp"
#include "core/regfile.hpp"
#include "core/signals.hpp"
#include "core/spare_chain.hpp"
#include "isa/arch_state.hpp"
#include "netlist/field.hpp"
#include "netlist/registry.hpp"

namespace sfi::core {

class Fpu {
 public:
  explicit Fpu(netlist::LatchRegistry& reg);

  struct Plan {
    bool held = false;
    WbData wb;
  };

  [[nodiscard]] Plan detect(const netlist::CycleFrame& f, Signals& sig);
  void update(const netlist::CycleFrame& f, const Plan& plan,
              const Controls& ctl, const std::optional<IssueBundle>& issue);

  [[nodiscard]] bool any_valid(const netlist::CycleFrame& f) const;

  [[nodiscard]] ParityRegFile& fpr() { return fpr_; }
  [[nodiscard]] const ParityRegFile& fpr() const { return fpr_; }
  [[nodiscard]] ModeRing& mode() { return mode_; }

  void reset(netlist::StateVector& sv, const isa::ArchState& init,
             const CoreConfig& cfg);

 private:
  static constexpr u32 kStages = CoreConfig::kFpuStages;

  struct Stage {
    netlist::Flag v;
    netlist::Field mn;    // 6
    netlist::Field dest;  // 4
    netlist::Field a;     // 64
    netlist::Flag apar;
    netlist::Field b;     // 64
    netlist::Flag bpar;
    netlist::Field pc;    // 16
    netlist::Field pcn;   // 16
    netlist::Flag ctlpar;
  };

  ModeRing mode_;
  SpareChain spares_;
  ParityRegFile fpr_;
  std::array<Stage, kStages> st_;
  // The pipe advance (every stage i-1 field copied onto stage i, back to
  // front) as word moves, fields sharing a word and a shift merged.
  std::vector<netlist::WordMove> advance_;
};

}  // namespace sfi::core
