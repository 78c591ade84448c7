#include "core/idu.hpp"

#include "common/bits.hpp"
#include "common/check.hpp"
#include "isa/exec.hpp"

namespace sfi::core {

namespace {
using isa::Instr;
using isa::InstrClass;
using isa::Mnemonic;
using netlist::LatchType;
using netlist::Unit;
constexpr u8 kRing = 1;
}  // namespace

Idu::Idu(netlist::LatchRegistry& reg)
    : mode_(reg, "idu", Unit::IDU, kRing, CheckerId::IduDecodeParity, 2),
      spares_(reg, "idu", Unit::IDU, kRing, 400) {
  dec_v_ = netlist::Flag(reg.add("idu.dec.v", Unit::IDU, LatchType::Func, kRing, 1));
  dec_instr_ = netlist::Field(reg.add("idu.dec.instr", Unit::IDU, LatchType::Func, kRing, 32));
  dec_pc_ = netlist::Field(reg.add("idu.dec.pc", Unit::IDU, LatchType::Func, kRing, 16));
  dec_par_ = netlist::Flag(reg.add("idu.dec.p", Unit::IDU, LatchType::Func, kRing, 1));

  for (u32 i = 0; i < 16; ++i) {
    const std::string n = "idu.spr" + std::to_string(i);
    spr_.emplace_back(reg.add(n, Unit::IDU, LatchType::RegFile, kRing, 64));
    spr_par_.emplace_back(
        reg.add(n + ".p", Unit::IDU, LatchType::RegFile, kRing, 1));
  }
  cr_ = netlist::Field(reg.add("idu.cr", Unit::IDU, LatchType::RegFile, kRing, 32));
  cr_par_ = netlist::Flag(reg.add("idu.cr.p", Unit::IDU, LatchType::RegFile, kRing, 1));
  lr_ = netlist::Field(reg.add("idu.lr", Unit::IDU, LatchType::RegFile, kRing, 64));
  lr_par_ = netlist::Flag(reg.add("idu.lr.p", Unit::IDU, LatchType::RegFile, kRing, 1));
  ctr_ = netlist::Field(reg.add("idu.ctr", Unit::IDU, LatchType::RegFile, kRing, 64));
  ctr_par_ = netlist::Flag(reg.add("idu.ctr.p", Unit::IDU, LatchType::RegFile, kRing, 1));

  sb_gpr_lo_ = netlist::Field(reg.add("idu.sb.gpr", Unit::IDU, LatchType::Func, kRing, 32));
  sb_fpr_ = netlist::Field(reg.add("idu.sb.fpr", Unit::IDU, LatchType::Func, kRing, 16));
  sb_cr_ = netlist::Flag(reg.add("idu.sb.cr", Unit::IDU, LatchType::Func, kRing, 1));
  sb_lr_ = netlist::Flag(reg.add("idu.sb.lr", Unit::IDU, LatchType::Func, kRing, 1));
  sb_ctr_ = netlist::Flag(reg.add("idu.sb.ctr", Unit::IDU, LatchType::Func, kRing, 1));
  stop_seen_ = netlist::Flag(reg.add("idu.stop_seen", Unit::IDU, LatchType::Func, kRing, 1));

  wb_v_ = netlist::Flag(reg.add("idu.wb.v", Unit::IDU, LatchType::Func, kRing, 1));
  wb_mn_ = netlist::Field(reg.add("idu.wb.mn", Unit::IDU, LatchType::Func, kRing, 6));
  wb_dk_ = netlist::Field(reg.add("idu.wb.dk", Unit::IDU, LatchType::Func, kRing, 2));
  wb_dest_ = netlist::Field(reg.add("idu.wb.dest", Unit::IDU, LatchType::Func, kRing, 5));
  wb_val_ = netlist::Field(reg.add("idu.wb.val", Unit::IDU, LatchType::Func, kRing, 64));
  wb_vpar_ = netlist::Flag(reg.add("idu.wb.val.p", Unit::IDU, LatchType::Func, kRing, 1));
  wb_res2_ = netlist::Field(reg.add("idu.wb.res2", Unit::IDU, LatchType::Func, kRing, 2));
  wb_pc_ = netlist::Field(reg.add("idu.wb.pc", Unit::IDU, LatchType::Func, kRing, 16));
  wb_pcn_ = netlist::Field(reg.add("idu.wb.pcn", Unit::IDU, LatchType::Func, kRing, 16));
  wb_st_ = netlist::Flag(reg.add("idu.wb.st", Unit::IDU, LatchType::Func, kRing, 1));
  wb_stop_ = netlist::Flag(reg.add("idu.wb.stop", Unit::IDU, LatchType::Func, kRing, 1));
  wb_wlr_ = netlist::Flag(reg.add("idu.wb.wlr", Unit::IDU, LatchType::Func, kRing, 1));
  wb_lrval_ = netlist::Field(reg.add("idu.wb.lrval", Unit::IDU, LatchType::Func, kRing, 64));
  wb_wctr_ = netlist::Flag(reg.add("idu.wb.wctr", Unit::IDU, LatchType::Func, kRing, 1));
  wb_ctrval_ = netlist::Field(reg.add("idu.wb.ctrval", Unit::IDU, LatchType::Func, kRing, 64));
  wb_ctlpar_ = netlist::Flag(reg.add("idu.wb.ctl.p", Unit::IDU, LatchType::Func, kRing, 1));
}

WbData Idu::wb_view(const netlist::CycleFrame& f) const {
  WbData wb;
  wb.valid = wb_v_.get(f);
  if (!wb.valid) return wb;
  wb.mn = static_cast<Mnemonic>(wb_mn_.get(f));
  wb.dest_kind = static_cast<DestKind>(wb_dk_.get(f));
  wb.dest = static_cast<u8>(wb_dest_.get(f));
  wb.value = wb_val_.get(f);
  wb.vpar = wb_vpar_.get(f);
  wb.res2 = static_cast<u8>(wb_res2_.get(f));
  wb.pc = static_cast<u32>(wb_pc_.get(f));
  wb.pc_next = static_cast<u32>(wb_pcn_.get(f));
  wb.is_store = wb_st_.get(f);
  wb.is_stop = wb_stop_.get(f);
  wb.write_lr = wb_wlr_.get(f);
  wb.lr_val = wb_lrval_.get(f);
  wb.write_ctr = wb_wctr_.get(f);
  wb.ctr_val = wb_ctrval_.get(f);
  wb.ctl_par = wb_ctlpar_.get(f);
  return wb;
}

bool Idu::verify_completion(const netlist::CycleFrame& f, const WbData& wb,
                            Signals& sig, u32 checkpoint_pc,
                            const ModeRing& fxu_mode,
                            const ModeRing& fpu_mode,
                            const ModeRing& lsu_mode) const {
  bool ok = true;
  const bool ctl_ok =
      control_parity(wb.mn, wb.dest_kind, wb.dest, wb.pc, wb.pc_next,
                     wb.is_store, wb.is_stop, wb.write_lr, wb.write_ctr) ==
      wb.ctl_par;
  if (!ctl_ok && mode_.checker_on(f, CheckerId::IduControlParity)) {
    sig.raise(CheckerId::IduControlParity, Unit::IDU, false,
              "completion control parity");
    ok = false;
  }
  // Completion sequence check: in-order completion means the completing
  // instruction's PC must equal the architected next-PC held by the RUT.
  // This is what catches dropped/conjured instructions (flipped valid bits
  // and queue pointers) before they silently skip part of the program.
  if (wb.pc != checkpoint_pc &&
      mode_.checker_on(f, CheckerId::IduControlParity)) {
    sig.raise(CheckerId::IduControlParity, Unit::IDU, false,
              "completion sequence (pc != checkpoint pc)");
    ok = false;
  }
  if (wb.dest_kind != DestKind::None || wb.write_lr || wb.write_ctr) {
    const bool is_fx_result = residue_checked(wb.mn, wb.dest_kind);
    const bool vpar_ok = (parity(wb.value) != 0) == wb.vpar;
    if (!vpar_ok) {
      if (wb.dest_kind == DestKind::Fpr) {
        if (fpu_mode.checker_on(f, CheckerId::FpuResultParity)) {
          sig.raise(CheckerId::FpuResultParity, Unit::FPU, false,
                    "completion result parity");
          ok = false;
        }
      } else if (is_fx_result) {
        if (fxu_mode.checker_on(f, CheckerId::FxuOperandParity)) {
          sig.raise(CheckerId::FxuOperandParity, Unit::FXU, false,
                    "completion result parity");
          ok = false;
        }
      } else if (lsu_mode.checker_on(f, CheckerId::LsuDcacheDataParity)) {
        sig.raise(CheckerId::LsuDcacheDataParity, Unit::LSU, false,
                  "completion result parity");
        ok = false;
      }
    }
    if (is_fx_result && residue3(wb.value) != wb.res2 &&
        fxu_mode.checker_on(f, CheckerId::FxuResidue)) {
      sig.raise(CheckerId::FxuResidue, Unit::FXU, false,
                "completion residue code");
      ok = false;
    }
  }
  return ok;
}

Idu::SourceRead Idu::read_gpr(const netlist::CycleFrame& f, Fxu& fxu, u32 idx,
                              const WbData& wb, Signals& sig,
                              bool& parity_bad) const {
  SourceRead r;
  const bool busy = ((sb_gpr_lo_.get(f) >> idx) & 1) != 0;
  if (busy) {
    if (wb.valid && wb.dest_kind == DestKind::Gpr && wb.dest == idx) {
      r.value = wb.value;  // WB forwarding
      return r;
    }
    r.ok = false;
    return r;
  }
  const auto rr = fxu.gpr().read(f, idx);
  r.value = rr.value;
  if (!rr.parity_ok) {
    parity_bad = true;
    if (fxu.mode().checker_on(f, CheckerId::FxuGprParity)) {
      sig.raise(CheckerId::FxuGprParity, Unit::FXU, false, "gpr read parity");
    }
  }
  return r;
}

Idu::SourceRead Idu::read_fpr(const netlist::CycleFrame& f, Fpu& fpu, u32 idx,
                              const WbData& wb, Signals& sig,
                              bool& parity_bad) const {
  SourceRead r;
  idx %= isa::kNumFprs;
  const bool busy = ((sb_fpr_.get(f) >> idx) & 1) != 0;
  if (busy) {
    if (wb.valid && wb.dest_kind == DestKind::Fpr && wb.dest % isa::kNumFprs == idx) {
      r.value = wb.value;
      return r;
    }
    r.ok = false;
    return r;
  }
  const auto rr = fpu.fpr().read(f, idx);
  r.value = rr.value;
  if (!rr.parity_ok) {
    parity_bad = true;
    if (fpu.mode().checker_on(f, CheckerId::FpuFprParity)) {
      sig.raise(CheckerId::FpuFprParity, Unit::FPU, false, "fpr read parity");
    }
  }
  return r;
}

Idu::IssuePlan Idu::plan_issue(const netlist::CycleFrame& f, Signals& sig,
                               Ifu& ifu, Fxu& fxu, Fpu& fpu, Lsu& lsu) {
  IssuePlan plan;
  if (mode_.clocks_stopped(f)) {
    plan.held = true;
    return plan;
  }
  if (mode_.force_error(f) && mode_.checker_on(f, CheckerId::IduDecodeParity)) {
    sig.raise(CheckerId::IduDecodeParity, Unit::IDU, false,
              "idu mode force_error");
  }

  const WbData wb = wb_view(f);

  // DEC refill request (also fires alongside an issue, below).
  if (!dec_v_.get(f)) {
    const Ifu::Head head = ifu.head(f);
    if (head.valid && ifu.head_ok(f, sig)) plan.take_fetch = true;
    return plan;
  }

  // --- decode ---
  const auto instr = static_cast<u32>(dec_instr_.get(f));
  const auto pc = static_cast<u32>(dec_pc_.get(f));
  const bool dec_ok =
      (parity(static_cast<u64>(instr) ^ (static_cast<u64>(pc) << 32)) != 0) ==
      dec_par_.get(f);
  if (!dec_ok) {
    if (mode_.checker_on(f, CheckerId::IduDecodeParity)) {
      sig.raise(CheckerId::IduDecodeParity, Unit::IDU, false,
                "decode latch parity");
    }
    // With the checker masked the corrupted instruction decodes as-is.
  }
  const Instr in = isa::decode(instr);

  if (stop_seen_.get(f)) return plan;

  // One multi-cycle instruction in flight blocks all issue (in-order
  // completion with a single WB port).
  if (fxu.multi_busy(f) || fpu.any_valid(f) || lsu.any_valid(f)) return plan;

  // --- hazards & operand reads ---
  bool parity_bad = false;
  IssueBundle b;
  b.mn = in.mn;
  b.pc = pc & 0xFFFF;
  b.pc_next = (pc + 4) & 0xFFFF;

  const u64 sb_gpr = sb_gpr_lo_.get(f);
  const u64 sb_fpr = sb_fpr_.get(f);
  const auto gpr_busy_nofwd = [&](u32 idx) {
    return ((sb_gpr >> idx) & 1) != 0 &&
           !(wb.valid && wb.dest_kind == DestKind::Gpr && wb.dest == idx);
  };

  const auto cr_value = [&](bool& ok) -> u32 {
    if (sb_cr_.get(f)) {
      if (wb.valid && wb.dest_kind == DestKind::Cr) {
        // Same field selection as the completion write (dest & 7), so a
        // corrupted destination forwards what the CR will hold.
        return isa::cr_insert(static_cast<u32>(cr_.get(f)), wb.dest & 7,
                              static_cast<u32>(wb.value));
      }
      ok = false;
      return 0;
    }
    const auto cr = static_cast<u32>(cr_.get(f));
    if ((parity(cr, 32) != 0) != cr_par_.get(f)) {
      parity_bad = true;
      if (mode_.checker_on(f, CheckerId::IduControlParity)) {
        sig.raise(CheckerId::IduControlParity, Unit::IDU, false,
                  "cr parity");
      }
    }
    return cr;
  };
  const auto lr_value = [&](bool& ok) -> u64 {
    if (sb_lr_.get(f)) {
      if (wb.valid && wb.write_lr) return wb.lr_val;
      ok = false;
      return 0;
    }
    const u64 lr = lr_.get(f);
    if ((parity(lr) != 0) != lr_par_.get(f)) {
      parity_bad = true;
      if (mode_.checker_on(f, CheckerId::IduControlParity)) {
        sig.raise(CheckerId::IduControlParity, Unit::IDU, false,
                  "lr parity");
      }
    }
    return lr;
  };
  const auto ctr_value = [&](bool& ok) -> u64 {
    if (sb_ctr_.get(f)) {
      if (wb.valid && wb.write_ctr) return wb.ctr_val;
      ok = false;
      return 0;
    }
    const u64 ctr = ctr_.get(f);
    if ((parity(ctr) != 0) != ctr_par_.get(f)) {
      parity_bad = true;
      if (mode_.checker_on(f, CheckerId::IduControlParity)) {
        sig.raise(CheckerId::IduControlParity, Unit::IDU, false,
                  "ctr parity");
      }
    }
    return ctr;
  };

  bool ready = true;
  plan.target = IssueTarget::Fxu;

  switch (in.mn) {
    // ---------- fixed point immediate ----------
    case Mnemonic::ADDI:
    case Mnemonic::ADDIS: {
      if (in.ra != 0) {
        if (gpr_busy_nofwd(in.ra)) { ready = false; break; }
        b.a = read_gpr(f, fxu, in.ra, wb, sig, parity_bad).value;
      }
      b.b = static_cast<u64>(in.imm);
      // Dest must be idle (no forwarding for WAW).
      if (((sb_gpr >> in.rt) & 1) != 0) { ready = false; break; }
      b.dest_kind = DestKind::Gpr;
      b.dest = in.rt;
      plan.busy_gpr = true;
      plan.busy_gpr_idx = in.rt;
      break;
    }
    case Mnemonic::ORI:
    case Mnemonic::XORI:
    case Mnemonic::ANDI: {
      if (gpr_busy_nofwd(in.ra)) { ready = false; break; }
      if (((sb_gpr >> in.rt) & 1) != 0) { ready = false; break; }
      b.a = read_gpr(f, fxu, in.ra, wb, sig, parity_bad).value;
      b.b = static_cast<u64>(in.imm);
      b.dest_kind = DestKind::Gpr;
      b.dest = in.rt;
      plan.busy_gpr = true;
      plan.busy_gpr_idx = in.rt;
      break;
    }
    // ---------- fixed point register ----------
    case Mnemonic::ADD: case Mnemonic::SUBF: case Mnemonic::AND:
    case Mnemonic::OR: case Mnemonic::XOR: case Mnemonic::NOR:
    case Mnemonic::SLD: case Mnemonic::SRD: case Mnemonic::SRAD:
    case Mnemonic::MULLD: case Mnemonic::DIVD: {
      if (gpr_busy_nofwd(in.ra) || gpr_busy_nofwd(in.rb)) { ready = false; break; }
      if (((sb_gpr >> in.rt) & 1) != 0) { ready = false; break; }
      b.a = read_gpr(f, fxu, in.ra, wb, sig, parity_bad).value;
      b.b = read_gpr(f, fxu, in.rb, wb, sig, parity_bad).value;
      b.dest_kind = DestKind::Gpr;
      b.dest = in.rt;
      plan.busy_gpr = true;
      plan.busy_gpr_idx = in.rt;
      break;
    }
    case Mnemonic::NEG:
    case Mnemonic::EXTSW: {
      if (gpr_busy_nofwd(in.ra)) { ready = false; break; }
      if (((sb_gpr >> in.rt) & 1) != 0) { ready = false; break; }
      b.a = read_gpr(f, fxu, in.ra, wb, sig, parity_bad).value;
      b.dest_kind = DestKind::Gpr;
      b.dest = in.rt;
      plan.busy_gpr = true;
      plan.busy_gpr_idx = in.rt;
      break;
    }
    // ---------- compares ----------
    case Mnemonic::CMP:
    case Mnemonic::CMPL: {
      if (gpr_busy_nofwd(in.ra) || gpr_busy_nofwd(in.rb)) { ready = false; break; }
      if (sb_cr_.get(f)) { ready = false; break; }
      b.a = read_gpr(f, fxu, in.ra, wb, sig, parity_bad).value;
      b.b = read_gpr(f, fxu, in.rb, wb, sig, parity_bad).value;
      b.dest_kind = DestKind::Cr;
      b.dest = in.crf;
      plan.busy_cr = true;
      break;
    }
    case Mnemonic::CMPI:
    case Mnemonic::CMPLI: {
      if (gpr_busy_nofwd(in.ra)) { ready = false; break; }
      if (sb_cr_.get(f)) { ready = false; break; }
      b.a = read_gpr(f, fxu, in.ra, wb, sig, parity_bad).value;
      b.b = static_cast<u64>(in.imm);
      b.dest_kind = DestKind::Cr;
      b.dest = in.crf;
      plan.busy_cr = true;
      break;
    }
    // ---------- SPR moves ----------
    case Mnemonic::MFSPR: {
      if (((sb_gpr >> in.rt) & 1) != 0) { ready = false; break; }
      bool ok = true;
      if (in.imm == isa::kSprLr) {
        b.a = lr_value(ok);
      } else if (in.imm == isa::kSprCtr) {
        b.a = ctr_value(ok);
      } else {
        b.a = 0;
      }
      if (!ok) { ready = false; break; }
      b.dest_kind = DestKind::Gpr;
      b.dest = in.rt;
      plan.busy_gpr = true;
      plan.busy_gpr_idx = in.rt;
      break;
    }
    case Mnemonic::MTSPR: {
      if (gpr_busy_nofwd(in.rt)) { ready = false; break; }
      const u64 v = read_gpr(f, fxu, in.rt, wb, sig, parity_bad).value;
      if (in.imm == isa::kSprLr) {
        if (sb_lr_.get(f)) { ready = false; break; }
        b.write_lr = true;
        b.lr_val = v;
        plan.busy_lr = true;
      } else if (in.imm == isa::kSprCtr) {
        if (sb_ctr_.get(f)) { ready = false; break; }
        b.write_ctr = true;
        b.ctr_val = v;
        plan.busy_ctr = true;
      }
      break;
    }
    // ---------- memory ----------
    case Mnemonic::LWZ: case Mnemonic::LBZ: case Mnemonic::LD: {
      if (!lsu.stq_empty(f)) { ready = false; break; }
      if (in.ra != 0 && gpr_busy_nofwd(in.ra)) { ready = false; break; }
      if (((sb_gpr >> in.rt) & 1) != 0) { ready = false; break; }
      const u64 base =
          in.ra == 0 ? 0 : read_gpr(f, fxu, in.ra, wb, sig, parity_bad).value;
      b.a = isa::agen(base, false, in.imm);
      b.dest_kind = DestKind::Gpr;
      b.dest = in.rt;
      plan.busy_gpr = true;
      plan.busy_gpr_idx = in.rt;
      plan.target = IssueTarget::Lsu;
      break;
    }
    case Mnemonic::LFD: {
      if (!lsu.stq_empty(f)) { ready = false; break; }
      if (in.ra != 0 && gpr_busy_nofwd(in.ra)) { ready = false; break; }
      const u32 frt = in.rt % isa::kNumFprs;
      if (((sb_fpr >> frt) & 1) != 0) { ready = false; break; }
      const u64 base =
          in.ra == 0 ? 0 : read_gpr(f, fxu, in.ra, wb, sig, parity_bad).value;
      b.a = isa::agen(base, false, in.imm);
      b.dest_kind = DestKind::Fpr;
      b.dest = static_cast<u8>(frt);
      plan.busy_fpr = true;
      plan.busy_fpr_idx = static_cast<u8>(frt);
      plan.target = IssueTarget::Lsu;
      break;
    }
    case Mnemonic::STW: case Mnemonic::STB: case Mnemonic::STD: {
      if (lsu.stq_full(f)) { ready = false; break; }
      if (in.ra != 0 && gpr_busy_nofwd(in.ra)) { ready = false; break; }
      if (gpr_busy_nofwd(in.rt)) { ready = false; break; }
      const u64 base =
          in.ra == 0 ? 0 : read_gpr(f, fxu, in.ra, wb, sig, parity_bad).value;
      b.a = isa::agen(base, false, in.imm);
      b.b = read_gpr(f, fxu, in.rt, wb, sig, parity_bad).value;
      b.is_store = true;
      plan.target = IssueTarget::Lsu;
      break;
    }
    case Mnemonic::STFD: {
      if (lsu.stq_full(f)) { ready = false; break; }
      if (in.ra != 0 && gpr_busy_nofwd(in.ra)) { ready = false; break; }
      const u32 frt = in.rt % isa::kNumFprs;
      if (((sb_fpr >> frt) & 1) != 0 &&
          !(wb.valid && wb.dest_kind == DestKind::Fpr &&
            wb.dest % isa::kNumFprs == frt)) {
        ready = false;
        break;
      }
      const u64 base =
          in.ra == 0 ? 0 : read_gpr(f, fxu, in.ra, wb, sig, parity_bad).value;
      b.a = isa::agen(base, false, in.imm);
      b.b = read_fpr(f, fpu, frt, wb, sig, parity_bad).value;
      b.is_store = true;
      plan.target = IssueTarget::Lsu;
      break;
    }
    // ---------- floating point ----------
    case Mnemonic::FADD: case Mnemonic::FSUB: case Mnemonic::FMUL:
    case Mnemonic::FDIV: {
      const u32 fra = in.ra % isa::kNumFprs;
      const u32 frb = in.rb % isa::kNumFprs;
      const u32 frt = in.rt % isa::kNumFprs;
      const auto fpr_busy = [&](u32 idx) {
        return ((sb_fpr >> idx) & 1) != 0 &&
               !(wb.valid && wb.dest_kind == DestKind::Fpr &&
                 wb.dest % isa::kNumFprs == idx);
      };
      if (fpr_busy(fra) || fpr_busy(frb)) { ready = false; break; }
      if (((sb_fpr >> frt) & 1) != 0) { ready = false; break; }
      b.a = read_fpr(f, fpu, fra, wb, sig, parity_bad).value;
      b.b = read_fpr(f, fpu, frb, wb, sig, parity_bad).value;
      b.dest_kind = DestKind::Fpr;
      b.dest = static_cast<u8>(frt);
      plan.busy_fpr = true;
      plan.busy_fpr_idx = static_cast<u8>(frt);
      plan.target = IssueTarget::Fpu;
      break;
    }
    // ---------- branches ----------
    case Mnemonic::B: {
      const u32 target = (pc + static_cast<u32>(in.imm)) & 0xFFFF;
      if (in.lk) {
        if (sb_lr_.get(f)) { ready = false; break; }
        b.write_lr = true;
        b.lr_val = (pc + 4) & 0xFFFF;
        plan.busy_lr = true;
      }
      b.pc_next = target;
      sig.redirect = true;
      sig.redirect_pc = target;
      break;
    }
    case Mnemonic::BC:
    case Mnemonic::BCLR:
    case Mnemonic::BCCTR: {
      bool ok = true;
      u32 cr = 0;
      u64 ctr = 0;
      const bool needs_cr = in.bo == isa::kBoTrue || in.bo == isa::kBoFalse;
      const bool needs_ctr = in.bo == isa::kBoDnz || in.mn == Mnemonic::BCCTR;
      if (needs_cr) cr = cr_value(ok);
      if (ok && needs_ctr) ctr = ctr_value(ok);
      u64 lr = 0;
      if (ok && in.mn == Mnemonic::BCLR) lr = lr_value(ok);
      if (!ok) { ready = false; break; }
      if (in.bo == isa::kBoDnz && sb_ctr_.get(f)) { ready = false; break; }
      if (in.lk && sb_lr_.get(f)) { ready = false; break; }

      const isa::BranchEval ev = isa::eval_branch(in.bo, in.bi, cr, ctr);
      // BCCTR with decrement is architecturally invalid: CTR unchanged
      // (matches the golden model).
      if (in.bo == isa::kBoDnz && in.mn != Mnemonic::BCCTR) {
        b.write_ctr = true;
        b.ctr_val = ev.ctr_after;
        plan.busy_ctr = true;
      }
      u32 target = 0;
      if (in.mn == Mnemonic::BC) {
        target = (pc + static_cast<u32>(in.imm)) & 0xFFFF;
      } else if (in.mn == Mnemonic::BCLR) {
        target = static_cast<u32>(lr & ~u64{3}) & 0xFFFF;
      } else {
        target = static_cast<u32>(ctr & ~u64{3}) & 0xFFFF;
      }
      if (in.lk) {
        b.write_lr = true;
        b.lr_val = (pc + 4) & 0xFFFF;
        plan.busy_lr = true;
      }
      if (ev.taken) {
        b.pc_next = target;
        sig.redirect = true;
        sig.redirect_pc = target;
      }
      break;
    }
    case Mnemonic::STOP:
      b.is_stop = true;
      // The machine architecturally stops *at* the STOP (matches the golden
      // model, whose PC freezes on the STOP word).
      b.pc_next = pc & 0xFFFF;
      plan.set_stop_seen = true;
      break;
    case Mnemonic::ILLEGAL:
      // Architected no-op (see DESIGN.md): completes with no destination.
      break;
  }

  if (!ready) {
    // Hazard stall: undo any speculative redirect decision.
    sig.redirect = false;
    plan.busy_gpr = plan.busy_fpr = plan.busy_cr = plan.busy_lr =
        plan.busy_ctr = false;
    plan.set_stop_seen = false;
    return plan;
  }

  plan.issue = true;
  plan.bundle = b;
  // Refill DEC behind the issuing instruction — except after a taken
  // branch, where everything buffered is wrong-path and gets flushed.
  if (!sig.redirect) {
    const Ifu::Head head = ifu.head(f);
    if (head.valid && ifu.head_ok(f, sig)) plan.take_fetch = true;
  }
  return plan;
}

void Idu::update(const netlist::CycleFrame& f, const IssuePlan& plan,
                 const Controls& ctl, const WbData& wb_next) {
  if (plan.held) return;

  // --- WB staging ---
  if (ctl.flush || !wb_next.valid) {
    wb_v_.set(f, false);
  } else {
    wb_v_.set(f, true);
    wb_mn_.set(f, static_cast<u64>(wb_next.mn));
    wb_dk_.set(f, static_cast<u64>(wb_next.dest_kind));
    wb_dest_.set(f, wb_next.dest);
    wb_val_.set(f, wb_next.value);
    wb_vpar_.set(f, wb_next.vpar);
    wb_res2_.set(f, wb_next.res2);
    wb_pc_.set(f, wb_next.pc & 0xFFFF);
    wb_pcn_.set(f, wb_next.pc_next & 0xFFFF);
    wb_st_.set(f, wb_next.is_store);
    wb_stop_.set(f, wb_next.is_stop);
    wb_wlr_.set(f, wb_next.write_lr);
    wb_lrval_.set(f, wb_next.lr_val);
    wb_wctr_.set(f, wb_next.write_ctr);
    wb_ctrval_.set(f, wb_next.ctr_val);
    wb_ctlpar_.set(f, wb_next.ctl_par);
  }

  if (ctl.flush) {
    dec_v_.set(f, false);
    sb_gpr_lo_.set(f, 0);
    sb_fpr_.set(f, 0);
    sb_cr_.set(f, false);
    sb_lr_.set(f, false);
    sb_ctr_.set(f, false);
    stop_seen_.set(f, false);
    return;
  }
  if (ctl.block_issue) return;

  // --- DEC movement & scoreboard ---
  // (The model stages a new DEC entry via stage_dec when plan.take_fetch.)
  if (plan.issue && !plan.take_fetch) dec_v_.set(f, false);
  if (plan.issue) {
    // Read the *staged* scoreboard: the completion path may have released
    // bits this cycle, and those releases must not be lost.
    if (plan.busy_gpr) {
      sb_gpr_lo_.set(f, sb_gpr_lo_.staged(f) | (u64{1} << plan.busy_gpr_idx));
    }
    if (plan.busy_fpr) {
      sb_fpr_.set(f, sb_fpr_.staged(f) | (u64{1} << plan.busy_fpr_idx));
    }
    if (plan.busy_cr) sb_cr_.set(f, true);
    if (plan.busy_lr) sb_lr_.set(f, true);
    if (plan.busy_ctr) sb_ctr_.set(f, true);
    if (plan.set_stop_seen) stop_seen_.set(f, true);
  }
}

void Idu::stage_dec(const netlist::CycleFrame& f, u32 instr, u32 pc) const {
  dec_v_.set(f, true);
  dec_instr_.set(f, instr);
  dec_pc_.set(f, pc & 0xFFFF);
  dec_par_.set(f, parity(static_cast<u64>(instr) ^
                         (static_cast<u64>(pc & 0xFFFF) << 32)) != 0);
}

u32 Idu::write_cr_field(const netlist::CycleFrame& f, u32 crf,
                        u32 field) const {
  const u32 cr = isa::cr_insert(static_cast<u32>(cr_.get(f)), crf, field);
  cr_.set(f, cr);
  cr_par_.set(f, parity(cr, 32) != 0);
  return cr;
}

void Idu::write_cr_whole(const netlist::CycleFrame& f, u32 value) const {
  cr_.set(f, value);
  cr_par_.set(f, parity(value, 32) != 0);
}

void Idu::write_lr(const netlist::CycleFrame& f, u64 value) const {
  lr_.set(f, value);
  lr_par_.set(f, parity(value) != 0);
}

void Idu::write_ctr(const netlist::CycleFrame& f, u64 value) const {
  ctr_.set(f, value);
  ctr_par_.set(f, parity(value) != 0);
}

void Idu::release_scoreboard(const netlist::CycleFrame& f,
                             const WbData& wb) const {
  if (wb.dest_kind == DestKind::Gpr) {
    sb_gpr_lo_.set(f, sb_gpr_lo_.staged(f) & ~(u64{1} << wb.dest));
  } else if (wb.dest_kind == DestKind::Fpr) {
    sb_fpr_.set(f,
                sb_fpr_.staged(f) & ~(u64{1} << (wb.dest % isa::kNumFprs)));
  } else if (wb.dest_kind == DestKind::Cr) {
    sb_cr_.set(f, false);
  }
  if (wb.write_lr) sb_lr_.set(f, false);
  if (wb.write_ctr) sb_ctr_.set(f, false);
}

u32 Idu::peek_cr(const netlist::StateVector& sv) const {
  return static_cast<u32>(cr_.peek(sv));
}
u64 Idu::peek_lr(const netlist::StateVector& sv) const { return lr_.peek(sv); }
u64 Idu::peek_ctr(const netlist::StateVector& sv) const {
  return ctr_.peek(sv);
}

void Idu::reset(netlist::StateVector& sv, const isa::ArchState& init,
                const CoreConfig& cfg) {
  mode_.reset(sv, cfg);
  spares_.reset(sv);
  for (u32 i = 0; i < 16; ++i) {
    spr_[i].poke(sv, 0);
    spr_par_[i].poke(sv, false);
  }
  dec_v_.poke(sv, false);
  dec_instr_.poke(sv, 0);
  dec_pc_.poke(sv, 0);
  dec_par_.poke(sv, false);
  cr_.poke(sv, init.cr);
  cr_par_.poke(sv, parity(init.cr, 32) != 0);
  lr_.poke(sv, init.lr);
  lr_par_.poke(sv, parity(init.lr) != 0);
  ctr_.poke(sv, init.ctr);
  ctr_par_.poke(sv, parity(init.ctr) != 0);
  sb_gpr_lo_.poke(sv, 0);
  sb_fpr_.poke(sv, 0);
  sb_cr_.poke(sv, false);
  sb_lr_.poke(sv, false);
  sb_ctr_.poke(sv, false);
  stop_seen_.poke(sv, false);
  wb_v_.poke(sv, false);
  wb_mn_.poke(sv, 0);
  wb_dk_.poke(sv, 0);
  wb_dest_.poke(sv, 0);
  wb_val_.poke(sv, 0);
  wb_vpar_.poke(sv, false);
  wb_res2_.poke(sv, 0);
  wb_pc_.poke(sv, 0);
  wb_pcn_.poke(sv, 0);
  wb_st_.poke(sv, false);
  wb_stop_.poke(sv, false);
  wb_wlr_.poke(sv, false);
  wb_lrval_.poke(sv, 0);
  wb_wctr_.poke(sv, false);
  wb_ctrval_.poke(sv, 0);
  wb_ctlpar_.poke(sv, false);
}

}  // namespace sfi::core
