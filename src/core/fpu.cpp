#include "core/fpu.hpp"

#include "common/bits.hpp"
#include "isa/exec.hpp"

namespace sfi::core {

namespace {
using isa::Mnemonic;
using netlist::LatchType;
using netlist::Unit;
constexpr u8 kRing = 3;
}  // namespace

Fpu::Fpu(netlist::LatchRegistry& reg)
    : mode_(reg, "fpu", Unit::FPU, kRing, CheckerId::FpuFprParity, 3),
      spares_(reg, "fpu", Unit::FPU, kRing, 400),
      fpr_(reg, "fpu.fpr", Unit::FPU, kRing, isa::kNumFprs) {
  for (u32 i = 0; i < kStages; ++i) {
    const std::string n = "fpu.s" + std::to_string(i + 1);
    st_[i].v = netlist::Flag(reg.add(n + ".v", Unit::FPU, LatchType::Func, kRing, 1));
    st_[i].mn = netlist::Field(reg.add(n + ".mn", Unit::FPU, LatchType::Func, kRing, 6));
    st_[i].dest = netlist::Field(reg.add(n + ".dest", Unit::FPU, LatchType::Func, kRing, 4));
    st_[i].a = netlist::Field(reg.add(n + ".a", Unit::FPU, LatchType::Func, kRing, 64));
    st_[i].apar = netlist::Flag(reg.add(n + ".a.p", Unit::FPU, LatchType::Func, kRing, 1));
    st_[i].b = netlist::Field(reg.add(n + ".b", Unit::FPU, LatchType::Func, kRing, 64));
    st_[i].bpar = netlist::Flag(reg.add(n + ".b.p", Unit::FPU, LatchType::Func, kRing, 1));
    st_[i].pc = netlist::Field(reg.add(n + ".pc", Unit::FPU, LatchType::Func, kRing, 16));
    st_[i].pcn = netlist::Field(reg.add(n + ".pcn", Unit::FPU, LatchType::Func, kRing, 16));
    st_[i].ctlpar = netlist::Flag(reg.add(n + ".ctl.p", Unit::FPU, LatchType::Func, kRing, 1));
  }
  const auto copy = [&](const auto& from, const auto& to) {
    netlist::add_field_copy(advance_, from.bit_offset(), to.bit_offset(),
                            from.width());
  };
  for (u32 i = kStages - 1; i >= 1; --i) {
    const Stage& to = st_[i];
    const Stage& from = st_[i - 1];
    copy(from.v, to.v);
    copy(from.mn, to.mn);
    copy(from.dest, to.dest);
    copy(from.a, to.a);
    copy(from.apar, to.apar);
    copy(from.b, to.b);
    copy(from.bpar, to.bpar);
    copy(from.pc, to.pc);
    copy(from.pcn, to.pcn);
    copy(from.ctlpar, to.ctlpar);
  }
}

bool Fpu::any_valid(const netlist::CycleFrame& f) const {
  for (const Stage& s : st_) {
    if (s.v.get(f)) return true;
  }
  return false;
}

Fpu::Plan Fpu::detect(const netlist::CycleFrame& f, Signals& sig) {
  Plan plan;
  if (mode_.clocks_stopped(f)) {
    plan.held = true;
    return plan;
  }
  if (mode_.force_error(f) && mode_.checker_on(f, CheckerId::FpuFprParity)) {
    sig.raise(CheckerId::FpuFprParity, Unit::FPU, false,
              "fpu mode force_error");
  }

  const Stage& s4 = st_[kStages - 1];
  if (!s4.v.get(f)) return plan;

  const u64 a = s4.a.get(f);
  const u64 b = s4.b.get(f);
  const bool a_ok = parity(a) == static_cast<u32>(s4.apar.get(f) ? 1 : 0);
  const bool b_ok = parity(b) == static_cast<u32>(s4.bpar.get(f) ? 1 : 0);
  if ((!a_ok || !b_ok) && mode_.checker_on(f, CheckerId::FpuStageParity)) {
    sig.raise(CheckerId::FpuStageParity, Unit::FPU, false,
              "fpu staged operand parity");
  }

  WbData wb;
  wb.valid = true;
  wb.mn = static_cast<Mnemonic>(s4.mn.get(f));
  wb.dest_kind = DestKind::Fpr;
  wb.dest = static_cast<u8>(s4.dest.get(f));
  wb.value = isa::fpu_exec(wb.mn, a, b);
  wb.vpar = parity(wb.value) != 0;
  wb.res2 = static_cast<u8>(residue3(wb.value));
  wb.pc = static_cast<u32>(s4.pc.get(f));
  wb.pc_next = static_cast<u32>(s4.pcn.get(f));
  wb.ctl_par = s4.ctlpar.get(f);
  plan.wb = wb;
  return plan;
}

void Fpu::update(const netlist::CycleFrame& f, const Plan& plan,
                 const Controls& ctl, const std::optional<IssueBundle>& issue) {
  if (plan.held) return;
  if (ctl.flush) {
    for (Stage& s : st_) s.v.set(f, false);
    return;
  }
  // Advance the pipe back-to-front.
  for (const netlist::WordMove& m : advance_) f.nxt.apply_move(f.cur, m);
  Stage& s1 = st_[0];
  if (issue) {
    const IssueBundle& is = *issue;
    s1.v.set(f, true);
    s1.mn.set(f, static_cast<u64>(is.mn));
    s1.dest.set(f, is.dest % isa::kNumFprs);
    s1.a.set(f, is.a);
    s1.apar.set(f, parity(is.a) != 0);
    s1.b.set(f, is.b);
    s1.bpar.set(f, parity(is.b) != 0);
    s1.pc.set(f, is.pc & 0xFFFF);
    s1.pcn.set(f, is.pc_next & 0xFFFF);
    s1.ctlpar.set(f, control_parity(is.mn, DestKind::Fpr,
                                    is.dest % isa::kNumFprs, is.pc & 0xFFFF,
                                    is.pc_next & 0xFFFF, false, false, false,
                                    false));
  } else {
    s1.v.set(f, false);
  }
}

void Fpu::reset(netlist::StateVector& sv, const isa::ArchState& init,
                const CoreConfig& cfg) {
  mode_.reset(sv, cfg);
  spares_.reset(sv);
  for (u32 i = 0; i < isa::kNumFprs; ++i) fpr_.poke(sv, i, init.fpr[i]);
  for (Stage& s : st_) {
    s.v.poke(sv, false);
    s.mn.poke(sv, 0);
    s.dest.poke(sv, 0);
    s.a.poke(sv, 0);
    s.apar.poke(sv, false);
    s.b.poke(sv, 0);
    s.bpar.poke(sv, false);
    s.pc.poke(sv, 0);
    s.pcn.poke(sv, 0);
    s.ctlpar.poke(sv, false);
  }
}

}  // namespace sfi::core
