#include "sfi/tracer.hpp"

#include <sstream>

namespace sfi::inject {

std::string_view to_string(TraceEvent::Kind k) {
  switch (k) {
    case TraceEvent::Kind::CheckerFired: return "checker";
    case TraceEvent::Kind::RecoveryStarted: return "recovery-start";
    case TraceEvent::Kind::RecoveryCompleted: return "recovery-complete";
    case TraceEvent::Kind::EccCorrected: return "ecc-corrected";
    case TraceEvent::Kind::Checkstop: return "CHECKSTOP";
    case TraceEvent::Kind::Hang: return "HANG";
  }
  return "?";
}

const TraceEvent* first_checker(const std::vector<TraceEvent>& events) {
  for (const TraceEvent& e : events) {
    if (e.kind == TraceEvent::Kind::CheckerFired) return &e;
  }
  return nullptr;
}

RasEventRecorder::RasEventRecorder(core::Pearl6Model& model,
                                   const emu::Emulator& emu,
                                   std::vector<TraceEvent>& events)
    : model(model) {
  model.set_cycle_observer([&emu, &events](const core::Signals& sig,
                                            const core::Controls& ctl) {
    const Cycle cyc = emu.cycle();  // pre-increment cycle index
    for (const core::CheckerEvent& e : sig.events) {
      events.push_back({TraceEvent::Kind::CheckerFired, cyc, e.unit, e.id,
                        e.fatal, e.what});
    }
    const auto push = [&](TraceEvent::Kind kind, const char* what) {
      events.push_back({.kind = kind, .cycle = cyc, .what = what});
    };
    if (sig.corrected > 0) push(TraceEvent::Kind::EccCorrected, "array scrub");
    if (ctl.start_recovery) {
      push(TraceEvent::Kind::RecoveryStarted, "flush + checkpoint restore");
    }
    if (sig.recovery_refetch) {
      push(TraceEvent::Kind::RecoveryCompleted, "refetch from checkpoint pc");
    }
    if (ctl.checkstop) push(TraceEvent::Kind::Checkstop, "machine stopped");
    if (ctl.hang) push(TraceEvent::Kind::Hang, "completion watchdog");
  });
}

FaultOrigin fault_origin(core::Pearl6Model& model, const FaultSpec& fault,
                         std::string* name) {
  if (fault.target == FaultTarget::Latch) {
    const netlist::LatchMeta& meta =
        model.registry().meta_of_ordinal(fault.index);
    if (name != nullptr) *name = model.registry().name_of_ordinal(fault.index);
    return {meta.unit, meta.type};
  }
  const auto target = model.arrays().locate(fault.array_bit);
  if (name != nullptr) {
    *name = target.array->name() + "[bit " + std::to_string(target.local_bit) +
            "]";
  }
  return {target.array->unit(), netlist::LatchType::Func};
}

InjectionTrace trace_injection(core::Pearl6Model& model, emu::Emulator& emu,
                               const emu::Checkpoint& reset_checkpoint,
                               const emu::GoldenTrace& trace,
                               const avp::GoldenResult& golden,
                               const FaultSpec& fault, RunConfig cfg) {
  InjectionTrace out;
  out.fault = fault;
  const FaultOrigin origin = fault_origin(model, fault, &out.latch_name);
  out.unit = origin.unit;
  out.type = origin.type;

  const RasEventRecorder ras_events(model, emu, out.events);
  // Tracing must observe the whole propagation; disable the early exit.
  cfg.early_exit = false;
  InjectionRunner runner(model, emu, reset_checkpoint, trace, golden, cfg);
  out.result = runner.run(fault);
  return out;
}

std::string format_trace(const InjectionTrace& trace) {
  std::ostringstream os;
  os << "injection: " << trace.latch_name << " ("
     << netlist::to_string(trace.unit) << ", "
     << netlist::to_string(trace.type) << ") at cycle " << trace.fault.cycle
     << (trace.fault.mode == FaultMode::Sticky ? " [sticky]" : " [toggle]")
     << "\n";
  if (trace.events.empty()) {
    os << "  (no RAS events: fault masked silently)\n";
  }
  for (const TraceEvent& e : trace.events) {
    os << "  cycle " << e.cycle << ": " << to_string(e.kind);
    if (e.kind == TraceEvent::Kind::CheckerFired) {
      os << " [" << netlist::to_string(e.unit) << "] "
         << (e.fatal ? "(fatal) " : "") << e.what;
    } else if (!e.what.empty()) {
      os << " — " << e.what;
    }
    os << "\n";
  }
  os << "  outcome: " << to_string(trace.result.outcome) << " at cycle "
     << trace.result.end_cycle;
  if (const auto latency = trace.detection_latency()) {
    os << " (detection latency " << *latency << " cycles)";
  }
  if (!trace.result.first_diff.empty()) {
    os << "\n  first architected difference: " << trace.result.first_diff;
  }
  os << "\n";
  return os.str();
}

}  // namespace sfi::inject
