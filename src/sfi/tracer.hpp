// Cause→effect tracing (the paper's third headline capability: "tracing of
// system errors (effect) to the originating bit flip (cause) in a
// full-system environment").
//
// A traced injection re-runs one fault with a cycle observer attached and
// records every checker fire, recovery start/completion, checkstop and hang
// with its cycle — yielding the full causal chain from the flipped latch to
// the machine-level outcome.
//
// The two observed re-runs of a fault — trace_injection here and the
// footprint re-run in sfi/propagation.hpp — share the pieces that are the
// same: the origin lookup (fault_origin) and the RAS-event observer
// (RasEventRecorder). Their step loops stay separate: the footprint stops
// at rollback or at its window, a trace runs on to the classified outcome.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "sfi/runner.hpp"

namespace sfi::inject {

struct TraceEvent {
  enum class Kind : u8 {
    CheckerFired,
    RecoveryStarted,
    RecoveryCompleted,
    EccCorrected,
    Checkstop,
    Hang,
  };
  Kind kind = Kind::CheckerFired;
  Cycle cycle = 0;
  netlist::Unit unit = netlist::Unit::Core;
  core::CheckerId checker{};
  bool fatal = false;
  std::string what;
};

[[nodiscard]] std::string_view to_string(TraceEvent::Kind k);

/// The first checker fire in `events` (null: no checker fired).
[[nodiscard]] const TraceEvent* first_checker(
    const std::vector<TraceEvent>& events);

/// Attaches the one RAS-event observer of an observed re-run: while alive,
/// every checker fire, ECC correction, recovery start/completion, checkstop
/// and hang `model` signals is appended to `events`, stamped with `emu`'s
/// (pre-increment) cycle. Detaches on destruction.
struct RasEventRecorder {
  RasEventRecorder(core::Pearl6Model& model, const emu::Emulator& emu,
                   std::vector<TraceEvent>& events);
  ~RasEventRecorder() { model.clear_cycle_observer(); }
  RasEventRecorder(const RasEventRecorder&) = delete;
  RasEventRecorder& operator=(const RasEventRecorder&) = delete;
  core::Pearl6Model& model;
};

/// Where a fault lands, as records key it. A protected-array cell is not a
/// latch: it counts as a FUNC bit of its array's unit.
struct FaultOrigin {
  netlist::Unit unit = netlist::Unit::Core;
  netlist::LatchType type = netlist::LatchType::Func;
};

/// The one origin lookup behind injection records, traces and footprints.
/// `name`, when given, receives the flipped target's name ("fxu.gpr2[5]",
/// "<array>[bit N]").
[[nodiscard]] FaultOrigin fault_origin(core::Pearl6Model& model,
                                       const FaultSpec& fault,
                                       std::string* name = nullptr);

struct InjectionTrace {
  FaultSpec fault;
  std::string latch_name;
  netlist::Unit unit = netlist::Unit::Core;
  netlist::LatchType type = netlist::LatchType::Func;
  std::vector<TraceEvent> events;
  RunResult result;

  [[nodiscard]] bool detected() const { return !events.empty(); }
  /// Cycles from injection to the first RAS event (the paper's detection
  /// latency). nullopt when the fault produced no RAS event at all — that is
  /// distinct from a latency of 0 (detected in the injection cycle itself),
  /// which the old `0 means undetected` encoding conflated.
  [[nodiscard]] std::optional<Cycle> detection_latency() const {
    if (events.empty()) return std::nullopt;
    return events.front().cycle - fault.cycle;
  }
};

/// Run one injection with tracing. Same harness objects as InjectionRunner;
/// the observer is attached for the duration of the run only.
[[nodiscard]] InjectionTrace trace_injection(
    core::Pearl6Model& model, emu::Emulator& emu,
    const emu::Checkpoint& reset_checkpoint, const emu::GoldenTrace& trace,
    const avp::GoldenResult& golden, const FaultSpec& fault,
    RunConfig cfg = {});

/// Human-readable rendering of a trace (used by the quickstart example).
[[nodiscard]] std::string format_trace(const InjectionTrace& trace);

}  // namespace sfi::inject
