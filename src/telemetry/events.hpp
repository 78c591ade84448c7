// Structured JSONL event log: one self-describing JSON object per line,
// append-only, safe to write from any thread.
//
// The log is the campaign's flight recorder (CHAOS-style, arXiv:2602.02119):
// campaign start/finish, shard dispatch/complete, sampled per-injection
// records, checkpoint save/restore, farm supervision. Each line carries an
// "ev" kind and a monotonic "t_us" timestamp so offline tools can
// reconstruct the timeline without parsing anything but line-delimited
// JSON. Its consumers are `--events-out` users (the file) and the crash
// flight recorder (emit() tees every line into its ring).
//
// Writers format their line locally (JsonWriter, no lock held), then emit()
// takes one mutex for the append — the log is never on the per-cycle hot
// path, only on per-injection / per-shard boundaries, and is sampled on top
// of that.
#pragma once

#include <fstream>
#include <mutex>
#include <string>
#include <string_view>

#include "common/types.hpp"

namespace sfi::telemetry {

class EventLog {
 public:
  EventLog() = default;
  EventLog(const EventLog&) = delete;
  EventLog& operator=(const EventLog&) = delete;

  /// Open (truncate) `path`. Throws std::runtime_error when unwritable.
  void open(const std::string& path);
  [[nodiscard]] bool is_open() const { return out_.is_open(); }

  /// Append one pre-rendered JSON object as a line. Thread-safe.
  void emit(std::string_view json_object);

  [[nodiscard]] u64 emitted() const;

  void flush();

 private:
  mutable std::mutex mu_;
  std::ofstream out_;
  u64 emitted_ = 0;
};

}  // namespace sfi::telemetry
