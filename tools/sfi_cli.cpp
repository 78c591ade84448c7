// sfi — the command-line front end of the Statistical Fault Injection
// framework.
//
//   sfi inventory | campaign | worker | report | explain | merge | beam |
//       trace | mix | derate | serve | submit | status | watch | shutdown |
//       top
//
// Every option is declared once below (name, kind, default, help, and
// whether exec-mode farm workers receive it); verbs() at the end of the
// file composes those declarations into one table per verb. An option
// that is not in its verb's table is a usage error (exit 2) that prints
// the verb's option list, so `sfi campaign --help` shows campaign's.
#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "avp/testgen.hpp"
#include "beam/beam.hpp"
#include "core/config.hpp"
#include "farm/farm.hpp"
#include "farm/process.hpp"
#include "report/table.hpp"
#include "sfi/propagation.hpp"
#include "telemetry/json.hpp"
#include "sched/scheduler.hpp"
#include "serve/daemon.hpp"
#include "stats/intervals.hpp"
#include "sfi/campaign.hpp"
#include "sfi/derating.hpp"
#include "sfi/engine.hpp"
#include "sfi/tracer.hpp"
#include "store/merge.hpp"
#include "store/reader.hpp"
#include "store/trace_stitch.hpp"
#include "telemetry/flight_recorder.hpp"

namespace {

using namespace sfi;

/// A bad command line (unknown option, malformed value, missing argument).
/// Exits with 2 rather than 1 (runtime failure).
struct CliError : std::runtime_error {
  explicit CliError(const std::string& what) : std::runtime_error(what) {}
};

/// Strict unsigned parse (base prefix honoured): the whole token must be a
/// non-negative integer that fits u64. std::stoull alone would accept
/// "12abc", wrap "-3" around, and throw bare std::invalid_argument at the
/// user on "abc".
u64 parse_u64(const std::string& key, const std::string& value) {
  const auto fail = [&](const char* why) -> u64 {
    throw CliError("invalid value for --" + key + ": '" + value + "' (" +
                     why + ")");
  };
  if (value.empty()) return fail("expected an unsigned integer");
  if (!std::isdigit(static_cast<unsigned char>(value.front()))) {
    return fail("expected an unsigned integer");
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(value.c_str(), &end, 0);
  if (errno == ERANGE) return fail("out of range for a 64-bit value");
  if (end != value.c_str() + value.size()) {
    return fail("trailing characters after the number");
  }
  return v;
}

/// Strict floating-point parse: the whole token must be a finite number.
double parse_f64(const std::string& key, const std::string& value) {
  const auto fail = [&](const char* why) -> double {
    throw CliError("invalid value for --" + key + ": '" + value + "' (" +
                   why + ")");
  };
  if (value.empty()) return fail("expected a number");
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(value.c_str(), &end);
  if (errno == ERANGE) return fail("out of range");
  if (end != value.c_str() + value.size()) {
    return fail("trailing characters after the number");
  }
  if (!std::isfinite(v)) return fail("expected a finite number");
  return v;
}

// --- option tables ----------------------------------------------------------

enum class Kind : u8 { Flag, U64, U32, F64, Str };
using enum Kind;

/// kFwd: campaign-defining, an exec-mode farm passes it on to its `sfi
/// worker` processes when given. kReq: the verb cannot run without it.
enum Role : u8 { kPlain, kFwd, kReq };

/// One command-line option, declared once. `dflt` is what an absent option
/// reads as, written as on the command line ("" = absent unless given).
/// `hint` ends the error for the option given in a mode it does not apply
/// to; bit m of `modes` is set when it applies in mode m of its verb (see
/// only() and Verb::modes).
struct Opt {
  std::string_view name;
  Kind kind;
  std::string_view dflt;
  std::string_view help;
  Role role = kPlain;
  std::string_view hint = {};
  u8 modes = 0xff;
};
using Opts = std::vector<Opt>;

constexpr Opt kSeed{"seed", U64, "42", "experiment seed", kFwd};
constexpr Opt kN{"n", U32, "1000", "injections (beam: strike events)", kFwd};
constexpr Opt kRaw{"raw", Flag, "", "mask all core checkers (Table 3)", kFwd};
constexpr Opt kSticky{"sticky", U64, "0",
                      "sticky faults of N cycles (0: toggle faults)", kFwd};
constexpr Opt kCkptInterval{"ckpt-interval", U64, "",
                            "checkpoint every N cycles (0: off)", kFwd};
constexpr Opt kCkptMem{"ckpt-mem", U64, "64", "checkpoint budget, MiB", kFwd};
constexpr Opt kEngine{"engine", Str, "scalar", "scalar or lanes", kFwd};
constexpr Opt kLanes{"lanes", U32, "64", "lane-engine sweep width", kFwd};
constexpr Opt kThreads{"threads", U32, "0", "worker threads (0: one per core)"};
constexpr Opt kConfidence{"confidence", F64, "0.95", "interval confidence"};
constexpr Opt kMetricsEvery{"metrics-every", U32, "32",
                            "farm worker 'M' frame every N injections"};
constexpr Opt kConnect{"connect", Str, "", "daemon unix:PATH or tcp:HOST:PORT",
                       kReq};

const Opts kTestcase = {
    {"testcase-seed", U64, "2026", "AVP workload seed", kFwd},
    {"instructions", U32, "160", "AVP testcase length", kFwd}};
/// The campaign-defining options besides the testcase, seed and n.
const Opts kDefining = {
    {"unit", Str, "", "one unit only: IFU..RUT or Core", kFwd},
    {"type", Str, "", "one latch type only: FUNC/REGFILE/MODE/GPTR", kFwd},
    kRaw, kSticky, kCkptInterval, kCkptMem, kEngine, kLanes,
    {"footprint", Flag, "", "store propagation footprints", kFwd},
    {"footprint-sample", U32, "32", "also trace every Nth Vanished", kFwd},
    {"footprint-window", U64, "512", "cycles traced after benign flips", kFwd},
    {"footprint-every-cycle", Flag, "",
     "footprints diffed every cycle (implies --footprint)", kFwd}};
const Opts kTelemetry = {
    {"metrics-out", Str, "", "write the metrics registry as JSON"},
    {"events-out", Str, "", "stream a JSONL event log"},
    {"chrome-trace", Str, "", "write the span plane as Chrome-trace JSON"},
    {"telemetry-sample", U32, "1", "log every Nth injection event"},
    {"progress", Flag, "", "live progress line on stderr"}};
const Opts kStoreOpts = {
    {"out", Str, "", "durable campaign store FILE.sfr"},
    {"resume", Flag, "", "continue an interrupted --out campaign"},
    {"shard-size", U32, "64", "injections per shard"}};
const Opts kFlushOpts = {
    {"flush", U32, "32", "records buffered between store flushes"},
    {"max-new", U64, "0", "stop after N new injections (0: no limit)"}};
const Opts kFarmOpts = {
    {"workers", U32, "2", "supervised local worker processes"},
    {"farm", Str, "", "hosts file of `sfi worker`s: `host [slots]`"},
    {"watchdog", U64, "30", "kill a worker silent for N seconds"},
    {"strikes", U32, "3", "tries before an injection is HarnessFatal"},
    {"keep-shards", Flag, "", "keep worker shard files"}};
/// What the farm itself passes to every worker.
const Opts kWorkerHooks = {
    kMetricsEvery,
    {"trace-spans", Flag, "", "record spans for `sfi trace`", kPlain,
     "for a single-process timeline use --chrome-trace FILE.json"},
    {"sabotage-crash", U32, "", "test hook: a worker dies at index N"},
    {"sabotage-wedge", U32, "", "test hook: a worker hangs at index N"},
    {"sabotage-wedge-once", Flag, "", "test hook: hang on attempt 0 only"}};

Opts operator+(Opts a, const Opts& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

/// `opts`, applying only in the verb modes set in `modes`.
Opts only(u8 modes, Opts opts) {
  for (Opt& o : opts) o.modes = modes;
  return opts;
}

const Opt* find_opt(const Opts& opts, std::string_view name) {
  const auto it = std::ranges::find(opts, name, &Opt::name);
  return it == opts.end() ? nullptr : &*it;
}

// --- verbs and parsing ------------------------------------------------------

struct Args;

struct Verb {
  std::string_view name, summary;
  int (*run)(const Args&);
  Opts opts;
  bool positionals = false;  ///< otherwise a stray argument is an error
  /// Phrases for the modes options can be limited to ("farm campaigns
  /// (...)"); mode_of picks the current one.
  std::vector<std::string_view> modes = {};
  std::size_t (*mode_of)(const Args&) = nullptr;
};

/// A verb's parsed command line: the given options (numbers checked while
/// parsing) and positional arguments. Reading an option the verb does not
/// declare is a programming error (std::logic_error).
struct Args {
  const Verb& verb;
  std::map<std::string_view, std::string, std::less<>> values;  ///< given
  std::vector<std::string> positional;

  [[nodiscard]] const Opt& decl(std::string_view key) const {
    if (const Opt* o = find_opt(verb.opts, key)) return *o;
    throw std::logic_error("sfi " + std::string(verb.name) +
                           " reads undeclared option --" + std::string(key));
  }
  [[nodiscard]] bool given(std::string_view key) const {
    (void)decl(key);
    return values.contains(key);
  }
  /// The given value, else the default; nullopt when there is neither.
  [[nodiscard]] std::optional<std::string> str(std::string_view key) const {
    const Opt& o = decl(key);
    if (const auto it = values.find(key); it != values.end()) return it->second;
    if (o.dflt.empty()) return std::nullopt;
    return std::string(o.dflt);
  }
  /// U64 or U32 (range-checked while parsing) value.
  [[nodiscard]] u64 num(std::string_view key) const {
    const auto v = str(key);
    if (!v) throw std::logic_error("--" + std::string(key) + " has no value");
    return parse_u64(std::string(key), *v);
  }
  [[nodiscard]] double real(std::string_view key) const {
    return parse_f64(std::string(key), str(key).value());
  }
};

/// "--X is for <the modes of `v` it applies in>[; hint]".
std::string mode_error(const Verb& v, const Opt& o) {
  std::string s = "--" + std::string(o.name) + " is for ";
  for (std::size_t m = 0; m < v.modes.size(); ++m) {
    if ((o.modes >> m & 1u) != 0) s += std::string(v.modes[m]) + " and ";
  }
  s.resize(s.size() - 5);
  return o.hint.empty() ? s : s + "; " + std::string(o.hint);
}

std::string option_list(const Verb& v) {
  std::string s = "usage: sfi " + std::string(v.name) + " [options]";
  for (const Opt& o : v.opts) {
    std::string line = "\n  --" + std::string(o.name) +
                       (o.kind == Flag ? "" : o.kind == Str ? " ARG" : " N");
    line.resize(std::max<std::size_t>(line.size() + 1, 30), ' ');
    line += o.help;
    if (!o.dflt.empty()) line += " (default " + std::string(o.dflt) + ")";
    if (o.role == kReq) line += " (required)";
    s += line;
  }
  return s;
}

const std::vector<Verb>& verbs();

/// Parses argv[2..] against `verb`'s table. Unknown options, stray
/// arguments, malformed numbers, missing required options and options
/// outside the current mode are usage errors.
Args parse(const Verb& verb, int argc, char** argv) {
  Args a{verb, {}, {}};
  const auto usage_error = [&](const std::string& what) {
    return CliError(std::string(verb.name) + ": " + what + "\n" +
                    option_list(verb));
  };
  for (int i = 2; i < argc; ++i) {
    const std::string tok = argv[i];
    if (!tok.starts_with("--")) {
      if (!verb.positionals) {
        throw usage_error("unexpected argument '" + tok + "'");
      }
      a.positional.push_back(tok);
      continue;
    }
    const std::string key = tok.substr(2);
    const Opt* o = find_opt(verb.opts, key);
    if (o == nullptr) {
      // An option another verb limits to some of its modes, with a hint,
      // says where it belongs.
      for (const Verb& w : verbs()) {
        const Opt* there = find_opt(w.opts, key);
        if (there && !there->hint.empty() && !w.modes.empty()) {
          throw usage_error("unknown option " + tok + "; " +
                            mode_error(w, *there));
        }
      }
      throw usage_error("unknown option " + tok);
    }
    if (o->kind != Flag && i + 1 == argc) {
      throw CliError("option " + tok + " expects a value");
    }
    const std::string value = o->kind == Flag ? "" : argv[++i];
    if (o->kind == U32 && parse_u64(key, value) > ~u32{0}) {
      throw CliError("invalid value for " + tok + ": '" + value +
                     "' (exceeds the 32-bit range)");
    }
    if (o->kind == U64) (void)parse_u64(key, value);
    if (o->kind == F64) (void)parse_f64(key, value);
    a.values[o->name] = value;
  }
  const std::size_t mode = verb.mode_of ? verb.mode_of(a) : 0;
  for (const Opt& o : verb.opts) {
    if (o.role == kReq && !a.given(o.name)) {
      throw usage_error("--" + std::string(o.name) + " is required");
    }
    if (a.given(o.name) && (o.modes >> mode & 1u) == 0) {
      throw CliError(std::string(verb.name) + ": " + mode_error(verb, o));
    }
  }
  return a;
}

avp::Testcase make_testcase(const Args& a) {
  avp::TestcaseConfig cfg;
  cfg.seed = a.num("testcase-seed");
  cfg.num_instructions = a.num("instructions");
  return avp::generate_testcase(cfg);
}

/// The member of `all` (netlist::kAllUnits, kAllLatchTypes) named `s`.
template <class List>
std::optional<typename List::value_type> parse_name(const List& all,
                                                    const std::string& s) {
  for (const auto v : all) {
    if (s == to_string(v)) return v;
  }
  return std::nullopt;
}

/// Confidence level for every interval a command prints (default 95%).
double confidence_from(const Args& a) {
  const double c = a.real("confidence");
  if (!(c > 0.0 && c < 1.0)) {
    throw CliError("--confidence must be in (0,1)");
  }
  return c;
}

void print_outcomes(const inject::OutcomeCounts& counts, double confidence) {
  const double z = stats::z_for_confidence(confidence);
  char ci_label[32];
  std::snprintf(ci_label, sizeof ci_label, "%g%% CI", confidence * 100.0);
  report::Table t({"outcome", "count", "fraction", ci_label});
  for (const auto o : inject::kAllOutcomes) {
    const auto iv = counts.interval(o, z);
    t.add_row({std::string(to_string(o)), report::Table::count(counts.of(o)),
               report::Table::pct(counts.fraction(o)),
               "[" + report::Table::pct(iv.low) + ", " +
                   report::Table::pct(iv.high) + "]"});
  }
  std::cout << t.to_string();
}

/// The tables every campaign view shares — live run, scheduled run, and
/// store replay print through this one path, which is what makes
/// `sfi report --from` reproduce the live tables exactly.
void print_campaign_tables(const inject::CampaignAggregate& agg,
                           double confidence) {
  print_outcomes(agg.counts, confidence);
  std::cout << report::section("by unit");
  report::Table t({"unit", "flips", "vanished", "corrected", "severe"});
  for (const auto u : netlist::kAllUnits) {
    const auto& c = agg.by_unit[static_cast<std::size_t>(u)];
    if (c.total() == 0) continue;
    t.add_row({std::string(to_string(u)), report::Table::count(c.total()),
               report::Table::pct(c.fraction(inject::Outcome::Vanished)),
               report::Table::pct(c.fraction(inject::Outcome::Corrected)),
               report::Table::pct(c.fraction(inject::Outcome::Hang) +
                                  c.fraction(inject::Outcome::Checkstop) +
                                  c.fraction(inject::Outcome::BadArchState))});
  }
  std::cout << t.to_string();
}

/// Campaign throughput summary: wall time, simulation rate, and what the
/// interval-checkpoint store bought (cycles never replayed).
template <class Result>
void print_throughput(const Result& r) {
  const double rate =
      r.wall_seconds > 0.0
          ? static_cast<double>(r.cycles_evaluated) / r.wall_seconds
          : 0.0;
  std::cout << "throughput: " << report::Table::num(r.wall_seconds, 2)
            << " s wall; " << r.cycles_evaluated << " cycles evaluated ("
            << report::Table::num(rate, 0) << " cycles/s); "
            << r.cycles_fast_forwarded << " cycles fast-forwarded; "
            << r.checkpoints << " checkpoints ("
            << report::Table::num(static_cast<double>(r.checkpoint_bytes) /
                                      (1024.0 * 1024.0),
                                  2)
            << " MiB resident; " << r.checkpoint_ops << " checkpoint ops)\n";
}

int cmd_inventory(const Args&) {
  core::Pearl6Model model;
  const auto& reg = model.registry();

  std::cout << report::section("latch inventory");
  const auto share_table = [&](const char* label, const auto& all,
                               const auto& counts) {
    report::Table t({label, "latch bits", "share"});
    for (const auto v : all) {
      const u64 n = counts[static_cast<std::size_t>(v)];
      t.add_row({std::string(to_string(v)), report::Table::count(n),
                 report::Table::pct(static_cast<double>(n) /
                                    reg.num_latches())});
    }
    std::cout << t.to_string() << "\n";
  };
  share_table("unit", netlist::kAllUnits, reg.latch_count_by_unit());
  share_table("latch type", netlist::kAllLatchTypes,
              reg.latch_count_by_type());

  std::cout << "total injectable latch bits: " << reg.num_latches() << " in "
            << reg.num_fields() << " named fields\n";
  std::cout << "protected array bits (beam targets): "
            << model.arrays().total_storage_bits() << " across "
            << model.arrays().num_arrays() << " arrays\n";
  std::cout << "main-store storage bits (periphery targets): "
            << model.memory().storage_bits() << "\n";
  return 0;
}

using Telemetry = std::unique_ptr<inject::CampaignTelemetry>;

/// The telemetry facade the command line asks for (null when none).
/// `process` labels this process's row in the --chrome-trace timeline.
/// `needed` forces the facade without a sink of its own: the flight
/// recorder (--postmortem) only holds lines the telemetry layer emits, and
/// the farm's span plane (--trace-spans) hangs off it.
Telemetry make_telemetry(const Args& a, std::string process,
                         bool needed = false) {
  if (!needed && !a.given("metrics-out") && !a.given("chrome-trace") &&
      !a.given("events-out") && !a.given("progress")) {
    return nullptr;
  }
  auto tel = std::make_unique<inject::CampaignTelemetry>(
      inject::TelemetryConfig{
          .event_sample = static_cast<u32>(a.num("telemetry-sample"))});
  if (const auto events = a.str("events-out")) tel->open_event_log(*events);
  if (a.given("chrome-trace")) tel->enable_span_plane(std::move(process), 0);
  return tel;
}

/// The --progress line once an in-memory run of `n` records is done.
void print_final_progress(const Args& a, const Telemetry& tel,
                          const char* tag, u64 n, double wall_seconds) {
  if (a.given("progress")) {
    std::cerr << tag << tel->progress_line(n, n, n, wall_seconds) << "\n";
  }
}

/// Writes the --metrics-out and --chrome-trace files at the end of a run.
void write_telemetry(const Args& a, const Telemetry& tel) {
  if (!tel) return;
  if (const auto path = a.str("metrics-out")) {
    tel->write_metrics(*path);
    std::cout << "metrics: " << *path << "\n";
  }
  if (const auto path = a.str("chrome-trace")) {
    tel->write_chrome_trace(*path);
    std::cout << "chrome trace: " << *path
              << " (load in chrome://tracing or Perfetto)\n";
  }
}

inject::EngineKind engine_from(const Args& a) {
  const std::string e = *a.str("engine");
  const auto kind = inject::parse_engine(e);
  if (!kind) {
    throw CliError("unknown engine '" + e + "' (expected scalar or lanes)");
  }
  return *kind;
}

/// --ckpt-mem, given in MiB, as bytes (campaign and beam).
u64 ckpt_mem_bytes(const Args& a) {
  const u64 mib = a.num("ckpt-mem");
  if (mib > (~u64{0} >> 20)) {
    throw CliError("invalid value for --ckpt-mem: '" + std::to_string(mib) +
                   "' (out of range: at most 2^44-1 MiB)");
  }
  return mib << 20;
}

/// The campaign-defining options (the ones exec-mode workers receive).
inject::CampaignConfig campaign_config(const Args& a) {
  inject::CampaignConfig cfg;
  cfg.seed = a.num("seed");
  cfg.num_injections = a.num("n");
  cfg.core.checkers_enabled = !a.given("raw");
  if (a.given("ckpt-interval")) cfg.ckpt_interval = a.num("ckpt-interval");
  cfg.ckpt_memory_budget = ckpt_mem_bytes(a);
  if (const auto d = a.num("sticky"); d != 0) {
    cfg.mode = inject::FaultMode::Sticky;
    cfg.sticky_duration = d;
  }
  cfg.footprint.enabled =
      a.given("footprint") || a.given("footprint-every-cycle");
  cfg.footprint.vanished_sample = a.num("footprint-sample");
  cfg.footprint.max_trace_cycles = a.num("footprint-window");
  if (a.given("footprint-every-cycle")) {
    cfg.footprint.sampling = inject::FootprintSampling::EveryCycle;
  }
  cfg.engine = engine_from(a);
  cfg.lanes = a.num("lanes");
  if (cfg.lanes == 0) throw CliError("--lanes must be >= 1");
  const auto u = a.str("unit");
  const auto t = a.str("type");
  if (u && t) throw CliError("--unit and --type are exclusive");
  if (u) {
    const auto unit = parse_name(netlist::kAllUnits, *u);
    if (!unit) throw CliError("unknown unit " + *u);
    cfg.filter = [unit](const netlist::LatchMeta& m) {
      return m.unit == *unit;
    };
  } else if (t) {
    const auto type = parse_name(netlist::kAllLatchTypes, *t);
    if (!type) throw CliError("unknown latch type " + *t);
    cfg.filter = [type](const netlist::LatchMeta& m) {
      return m.type == *type;
    };
  }
  return cfg;
}

/// Cooperative-stop latch for durable campaigns. The first SIGINT/SIGTERM
/// flips the flag and lets the scheduler/farm wind down cleanly (flush, close
/// store, print the --resume hint); a second one restores the default
/// disposition and re-raises, for when winding down is itself stuck.
volatile std::sig_atomic_t g_stop_requested = 0;

extern "C" void on_stop_signal(int sig) {
  if (g_stop_requested != 0) {
    std::signal(sig, SIG_DFL);
    std::raise(sig);
    return;
  }
  g_stop_requested = 1;
}

/// Installs the handler; returns the stop predicate it feeds.
std::function<bool()> install_stop_handler() {
  std::signal(SIGINT, on_stop_signal);
  std::signal(SIGTERM, on_stop_signal);
  return [] { return g_stop_requested != 0; };
}

/// " (N inj/s, ETA Ns)" for live progress lines, from the clamped
/// sched::Progress accessors: em-dash placeholders until the rate window is
/// real (the first report of a run fires before any injection completes).
std::string progress_rate_suffix(const sched::Progress& p) {
  const auto rate = p.rate_per_s();
  if (!rate) return " (— inj/s, ETA —)";
  char buf[64];
  if (const auto eta = p.eta_seconds()) {
    std::snprintf(buf, sizeof buf, " (%.0f inj/s, ETA %.0fs)", *rate, *eta);
  } else {
    std::snprintf(buf, sizeof buf, " (%.0f inj/s, ETA —)", *rate);
  }
  return buf;
}

/// Live progress of a durable campaign on stderr: the telemetry line with
/// --progress, else done/total `counted` injections with rate and ETA.
std::function<void(const sched::Progress&)> progress_printer(
    const Args& a, const Telemetry& telemetry, std::string tag,
    std::string counted) {
  inject::CampaignTelemetry* tel =
      a.given("progress") ? telemetry.get() : nullptr;
  return [=](const sched::Progress& p) {
    std::cerr << "\r" << tag;
    if (tel != nullptr) {
      std::cerr << tel->progress_line(p.done, p.total, p.executed,
                                      p.wall_seconds);
    } else {
      std::cerr << p.done << "/" << p.total << " injections " << counted
                << progress_rate_suffix(p);
    }
    std::cerr << std::flush;
  };
}

void print_store_line(const std::string& out, bool complete, u64 executed,
                      u64 resumed) {
  std::cout << "store: " << out << " ("
            << (complete ? "complete" : "INCOMPLETE — finish with --resume")
            << "); " << executed << " executed this run, " << resumed
            << " resumed";
}

void print_workload(u64 instructions, u64 cycles, u64 population,
                    double injections_per_second) {
  std::cout << "workload: " << instructions << " instructions / " << cycles
            << " cycles; population " << population << " latches; "
            << report::Table::num(injections_per_second, 0)
            << " injections/s\n";
}

/// What every campaign mode ends with: the sink outputs, the shared tables
/// and, for an interrupted durable run, the --resume hint (exit 130).
int finish_campaign(const Args& a, const Telemetry& tel,
                    const inject::CampaignAggregate& agg, bool stopped) {
  write_telemetry(a, tel);
  std::cout << "\n";
  print_campaign_tables(agg, confidence_from(a));
  if (!stopped) return 0;
  std::cout << "interrupted — committed records are durable; finish with:\n"
            << "  sfi campaign --out " << *a.str("out")
            << " --resume [same campaign options]\n";
  return 130;
}

farm::SabotageConfig sabotage_from_args(const Args& a) {
  farm::SabotageConfig s;
  if (a.given("sabotage-crash")) s.crash_index = a.num("sabotage-crash");
  if (a.given("sabotage-wedge")) s.wedge_index = a.num("sabotage-wedge");
  s.wedge_once = a.given("sabotage-wedge-once");
  return s;
}

/// Farm campaign: supervised multi-process execution into per-worker shard
/// stores, merged byte-identically into `out`.
int cmd_campaign_farm(const Args& a, const avp::Testcase& tc,
                      const inject::CampaignConfig& cfg,
                      const std::string& out, const Telemetry& tel) {
  farm::FarmConfig fc;
  fc.workers = a.num("workers");
  // Fleet metrics on by default, matching `sfi serve`: the coordinator's
  // progress line and any scraper get the same fleet view a daemon campaign
  // would. 'M' frames are merge-dropped, so the canonical store is
  // byte-identical either way.
  fc.metrics_every = a.num("metrics-every");
  if (const auto hosts = a.str("farm")) {
    if (a.given("workers")) {
      throw CliError("--workers and --farm are exclusive (the hosts file "
                     "sets the worker count)");
    }
    fc.hosts = farm::parse_hosts_file(*hosts);
    fc.worker_command = {farm::self_exe(), "worker"};
    for (const Opt& o : a.verb.opts) {
      if (o.role != kFwd || !a.given(o.name)) continue;
      fc.worker_command.push_back("--" + std::string(o.name));
      if (o.kind != Flag) fc.worker_command.push_back(a.values.at(o.name));
    }
  }
  fc.shard_size = a.num("shard-size");
  fc.max_strikes = a.num("strikes");
  fc.watchdog_seconds = static_cast<double>(a.num("watchdog"));
  fc.sabotage = sabotage_from_args(a);
  fc.keep_shards = a.given("keep-shards");
  // The coordinator renders --chrome-trace from its own book plus the worker
  // spans it retains from delivered 'S' frames, so workers must record them.
  fc.trace_spans = a.given("trace-spans") || a.given("chrome-trace");
  fc.postmortem_path = a.str("postmortem").value_or("");
  fc.should_stop = install_stop_handler();
  fc.on_progress = progress_printer(a, tel, "[farm] ", "committed");

  const farm::FarmResult r =
      farm::run_farm_campaign(tc, cfg, out, fc, a.given("resume"));
  std::cerr << "\n";

  std::cout << report::section("farm campaign result");
  print_store_line(out, r.complete, r.executed, r.resumed);
  std::cout << "\nfarm: " << r.workers_spawned << " worker(s) spawned, "
            << r.assignments << " assignment(s), " << r.worker_crashes
            << " crash(es), " << r.watchdog_kills << " watchdog kill(s), "
            << r.shard_retries << " shard retr" << (r.shard_retries == 1 ? "y" : "ies")
            << ", " << r.heartbeat_gaps << " heartbeat gap(s)\n";
  if (!r.harness_fatal.empty()) {
    std::cout << "harness-fatal injections (struck out after "
              << fc.max_strikes << " strikes):";
    for (const u32 i : r.harness_fatal) std::cout << " " << i;
    std::cout << "\n";
  }
  if (fc.trace_spans) {
    std::string base = out;
    if (base.size() > 4 && base.ends_with(".sfr")) base.resize(base.size() - 4);
    std::cout << "trace sidecar: " << base
              << ".trace.sfr (stitch with `sfi trace " << out << "`)\n";
  }
  print_workload(r.meta.workload_instructions, r.meta.workload_cycles,
                 r.meta.population_size, r.injections_per_second());
  return finish_campaign(a, tel, r.agg, r.stopped);
}

/// Farm worker process: `sfi worker --shard-store FILE [--worker-id N]`.
/// Its table is the coordinator's forwarded options plus the ones the farm
/// appends, so both build the same plan.
int cmd_worker(const Args& a) {
  const avp::Testcase tc = make_testcase(a);
  const inject::CampaignConfig cfg = campaign_config(a);
  farm::WorkerOptions wo;
  wo.worker_id = a.num("worker-id");
  wo.shard_path = *a.str("shard-store");
  wo.sabotage = sabotage_from_args(a);
  wo.metrics_every = a.num("metrics-every");
  wo.trace_spans = a.given("trace-spans");
  return farm::run_worker(tc, cfg, wo);
}

/// Scheduled (durable) campaign: stream records into a store file.
int cmd_campaign_to_store(const Args& a, const avp::Testcase& tc,
                          const inject::CampaignConfig& cfg,
                          const std::string& out,
                          const Telemetry& tel) {
  sched::SchedulerConfig sc;
  sc.shard_size = a.num("shard-size");
  sc.flush_records = a.num("flush");
  sc.max_new_injections = a.num("max-new");
  sc.should_stop = install_stop_handler();
  sc.on_progress = progress_printer(a, tel, "[campaign] ", "persisted");

  const sched::ScheduledResult r =
      sched::run_campaign_to_store(tc, cfg, out, sc, a.given("resume"));
  std::cerr << "\n";

  std::cout << report::section("campaign result");
  print_store_line(out, r.complete, r.executed, r.resumed);
  std::cout << ", " << r.shards << " shards\n";
  if (cfg.footprint.enabled) {
    std::cout << "footprints: " << r.footprints
              << " propagation traces persisted (inspect with `sfi explain "
                 "--from "
              << out << "`)\n";
  }
  print_workload(r.meta.workload_instructions, r.meta.workload_cycles,
                 r.meta.population_size, r.injections_per_second());
  print_throughput(r);
  return finish_campaign(a, tel, r.agg, r.stopped);
}

enum CampaignMode : std::size_t { kInMemory, kStoreMode, kFarmMode };

/// --out selects a store campaign, --workers/--farm with it a farm one.
std::size_t campaign_mode(const Args& a) {
  if (!a.given("out")) return kInMemory;
  return a.given("workers") || a.given("farm") ? kFarmMode : kStoreMode;
}

int cmd_campaign(const Args& a) {
  const std::size_t mode = campaign_mode(a);
  const avp::Testcase tc = make_testcase(a);
  inject::CampaignConfig cfg = campaign_config(a);
  cfg.threads = a.num("threads");
  const Telemetry tel = make_telemetry(
      a, mode == kFarmMode ? "sfi farm" : "sfi campaign",
      a.given("postmortem") || a.given("trace-spans"));
  cfg.telemetry = tel.get();
  if (const auto path = a.str("postmortem")) {
    // The crash flight recorder: telemetry lines tee into a fixed in-memory
    // ring, dumped to FILE on a fatal signal. Observability-only.
    telemetry::FlightRecorder::global().enable(2048);
    telemetry::FlightRecorder::arm_signals(*path);
  }
  (void)confidence_from(a);  // a bad level fails before the run, not after

  if (mode == kFarmMode) {
    return cmd_campaign_farm(a, tc, cfg, *a.str("out"), tel);
  }
  if (mode == kStoreMode) {
    return cmd_campaign_to_store(a, tc, cfg, *a.str("out"), tel);
  }
  const inject::CampaignResult r = inject::run_campaign(tc, cfg);
  print_final_progress(a, tel, "[campaign] ", r.records.size(),
                       r.wall_seconds);
  std::cout << report::section("campaign result");
  print_workload(r.workload_instructions, r.workload_cycles,
                 r.population_size, r.injections_per_second());
  print_throughput(r);
  return finish_campaign(a, tel, r.agg, false);
}

int cmd_report(const Args& a) {
  const auto from = a.str("from");

  const auto [meta, agg] = store::aggregate_store(*from);
  std::cout << report::section("campaign report (from store, no simulation)");
  std::cout << "store: " << *from << "; seed " << meta.seed << "; "
            << agg.total() << "/" << meta.num_injections << " records";
  if (agg.total() != meta.num_injections) {
    std::cout << " (INCOMPLETE — finish with `sfi campaign --out "
              << *from << " --resume`)";
  }
  std::cout << "\nworkload: " << meta.workload_instructions
            << " instructions / " << meta.workload_cycles
            << " cycles; population " << meta.population_size
            << " latches\n\n";
  print_campaign_tables(agg, confidence_from(a));
  return 0;
}

/// Median of an unsorted sample (0 when empty). Forensics latencies are
/// heavy-tailed, so medians, not means, go in the tables.
double median_of(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const auto mid = v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2);
  std::nth_element(v.begin(), mid, v.end());
  if (v.size() % 2 == 1) return *mid;
  const double hi = *mid;
  const double lo = *std::max_element(v.begin(), mid);
  return (lo + hi) / 2.0;
}

/// Per-bucket forensic aggregate for `sfi explain` (buckets: origin unit, or
/// outcome class).
struct ExplainBucket {
  u64 traced = 0;
  u64 masked = 0;
  u64 detected = 0;
  u64 crossed = 0;       ///< infections that left their origin unit
  u64 reached_arch = 0;
  u64 reached_memory = 0;
  u64 truncated = 0;
  u64 checker_fired = 0;
  std::vector<double> mask_latency;
  std::vector<double> detection_latency;
  std::vector<double> peak_bits;

  void add(const inject::PropagationRecord& p) {
    ++traced;
    if (p.masked) {
      ++masked;
      mask_latency.push_back(static_cast<double>(p.masked_at));
    }
    if (p.detected) {
      ++detected;
      detection_latency.push_back(static_cast<double>(p.detected_at));
    }
    if (p.units_crossed() > 0) ++crossed;
    if (p.reached_arch) ++reached_arch;
    if (p.reached_memory) ++reached_memory;
    if (p.truncated) ++truncated;
    if (p.checker_fired) ++checker_fired;
    peak_bits.push_back(static_cast<double>(p.peak_bits));
  }
};

void explain_bucket_json(telemetry::JsonWriter& w, const std::string& label,
                         const char* label_key, const ExplainBucket& b) {
  w.begin_object()
      .field(label_key, label)
      .field("traced", b.traced)
      .field("masked", b.masked)
      .field("detected", b.detected)
      .field("crossed_units", b.crossed)
      .field("reached_arch", b.reached_arch)
      .field("reached_memory", b.reached_memory)
      .field("truncated", b.truncated)
      .field("checker_fired", b.checker_fired)
      .field("median_mask_latency", median_of(b.mask_latency))
      .field("median_detection_latency", median_of(b.detection_latency))
      .field("median_peak_bits", median_of(b.peak_bits))
      .end_object();
}

int cmd_explain(const Args& a) {
  const auto from = a.str("from");

  // One pass over the store collects meta, the record count and every
  // propagation frame.
  store::StoreReader reader(*from, {});
  std::vector<inject::PropagationRecord> fps;
  u64 records = 0;
  {
    u8 kind = 0;
    std::vector<u8> payload;
    while (reader.next_frame(kind, payload)) {
      if (kind == store::kRecordFrame) {
        ++records;
      } else if (kind == store::kPropagationFrame) {
        fps.push_back(store::decode_propagation(payload));
      }
    }
  }
  std::ranges::sort(fps, {}, &inject::PropagationRecord::index);

  std::cout << report::section("fault-propagation forensics");
  std::cout << "store: " << *from << "; " << records << "/"
            << reader.meta().num_injections << " records, " << fps.size()
            << " propagation footprints\n";
  if (fps.empty()) {
    std::cout << "no footprints in this store — rerun the campaign with "
                 "`sfi campaign --footprint --out "
              << *from << "`\n";
    return 0;
  }

  std::array<ExplainBucket, netlist::kNumUnits> by_unit{};
  std::map<inject::Outcome, ExplainBucket> by_outcome;
  std::array<u64, core::kNumCheckers> checker_fires{};
  std::array<u64, core::kNumCheckers> checker_fatal{};
  u64 rerun_cycles = 0;
  for (const auto& p : fps) {
    by_unit[static_cast<std::size_t>(p.unit)].add(p);
    by_outcome[p.outcome].add(p);
    rerun_cycles += p.rerun_cycles;
    if (p.checker_fired) {
      const auto c = static_cast<std::size_t>(p.checker);
      ++checker_fires[c];
      if (p.checker_fatal) ++checker_fatal[c];
    }
  }

  std::cout << report::section("by origin unit");
  report::Table ut({"unit", "traced", "masked", "med mask lat", "crossed",
                    "reached arch", "reached mem", "med peak bits"});
  for (const auto u : netlist::kAllUnits) {
    const ExplainBucket& b = by_unit[static_cast<std::size_t>(u)];
    if (b.traced == 0) continue;
    ut.add_row({std::string(to_string(u)), report::Table::count(b.traced),
                report::Table::count(b.masked),
                report::Table::num(median_of(b.mask_latency), 0),
                report::Table::count(b.crossed),
                report::Table::count(b.reached_arch),
                report::Table::count(b.reached_memory),
                report::Table::num(median_of(b.peak_bits), 0)});
  }
  std::cout << ut.to_string();

  std::cout << report::section("by outcome class");
  report::Table ot({"outcome", "traced", "detected", "med detect lat",
                    "med peak bits", "truncated"});
  for (const auto o : inject::kAllOutcomes) {
    const auto it = by_outcome.find(o);
    if (it == by_outcome.end()) continue;
    const ExplainBucket& b = it->second;
    ot.add_row({std::string(to_string(o)), report::Table::count(b.traced),
                report::Table::count(b.detected),
                report::Table::num(median_of(b.detection_latency), 0),
                report::Table::num(median_of(b.peak_bits), 0),
                report::Table::count(b.truncated)});
  }
  std::cout << ot.to_string();

  report::Table ct({"checker", "fired", "fatal"});
  bool any_checker = false;
  for (std::size_t c = 0; c < core::kNumCheckers; ++c) {
    if (checker_fires[c] == 0) continue;
    any_checker = true;
    ct.add_row({std::string(core::checker_name(
                    static_cast<core::CheckerId>(c))),
                report::Table::count(checker_fires[c]),
                report::Table::count(checker_fatal[c])});
  }
  if (any_checker) {
    std::cout << report::section("first checker to fire (re-run)");
    std::cout << ct.to_string();
  }
  std::cout << "\nre-run cost: " << rerun_cycles
            << " cycles simulated for forensics\n";

  if (const auto json_out = a.str("json")) {
    telemetry::JsonWriter w;
    w.begin_object()
        .field("store", *from)
        .field("records", records)
        .field("footprints", static_cast<u64>(fps.size()))
        .field("rerun_cycles", rerun_cycles);
    w.key("by_unit").begin_array();
    for (const auto u : netlist::kAllUnits) {
      const ExplainBucket& b = by_unit[static_cast<std::size_t>(u)];
      if (b.traced == 0) continue;
      explain_bucket_json(w, std::string(to_string(u)), "unit", b);
    }
    w.end_array();
    w.key("by_outcome").begin_array();
    for (const auto& [o, b] : by_outcome) {
      explain_bucket_json(w, std::string(to_string(o)), "outcome", b);
    }
    w.end_array();
    w.key("checkers").begin_array();
    for (std::size_t c = 0; c < core::kNumCheckers; ++c) {
      if (checker_fires[c] == 0) continue;
      w.begin_object()
          .field("checker", std::string(core::checker_name(
                                static_cast<core::CheckerId>(c))))
          .field("fired", checker_fires[c])
          .field("fatal", checker_fatal[c])
          .end_object();
    }
    w.end_array();
    w.key("injections").begin_array();
    for (const auto& p : fps) {
      w.begin_object()
          .field("index", p.index)
          .field("unit", std::string(to_string(p.unit)))
          .field("type", std::string(to_string(p.type)))
          .field("outcome", std::string(to_string(p.outcome)))
          .field("fault_cycle", p.fault_cycle)
          .field("masked", p.masked)
          .field("detected", p.detected)
          .field("reached_arch", p.reached_arch)
          .field("reached_memory", p.reached_memory)
          .field("truncated", p.truncated)
          .field("peak_bits", p.peak_bits)
          .field("units_crossed", p.units_crossed())
          .field("rerun_cycles", p.rerun_cycles);
      if (p.masked) w.field("masked_at", p.masked_at);
      if (p.detected) w.field("detected_at", p.detected_at);
      if (p.checker_fired) {
        w.field("checker", std::string(core::checker_name(p.checker)))
            .field("checker_fatal", p.checker_fatal);
      }
      w.key("samples").begin_array();
      for (const auto& s : p.samples) {
        w.begin_array().value(s.offset).value(s.total_bits).end_array();
      }
      w.end_array();
      w.end_object();
    }
    w.end_array().end_object();
    std::ofstream out(*json_out, std::ios::trunc);
    if (!out) throw CliError("cannot open --json file " + *json_out);
    out << w.str() << "\n";
    std::cout << "json: " << *json_out << "\n";
  }

  if (const auto csv_out = a.str("csv")) {
    report::Table t({"index", "unit", "type", "outcome", "fault_cycle",
                     "masked", "masked_at", "detected", "detected_at",
                     "reached_arch", "reached_memory", "truncated", "checker",
                     "peak_bits", "units_crossed", "rerun_cycles", "samples"});
    for (const auto& p : fps) {
      std::string samples;
      for (const auto& s : p.samples) {
        if (!samples.empty()) samples += ' ';
        samples += std::to_string(s.offset) + ':' +
                   std::to_string(s.total_bits);
      }
      t.add_row({report::Table::count(p.index), std::string(to_string(p.unit)),
                 std::string(to_string(p.type)),
                 std::string(to_string(p.outcome)),
                 report::Table::count(p.fault_cycle),
                 p.masked ? "1" : "0",
                 p.masked ? report::Table::count(p.masked_at) : "",
                 p.detected ? "1" : "0",
                 p.detected ? report::Table::count(p.detected_at) : "",
                 p.reached_arch ? "1" : "0", p.reached_memory ? "1" : "0",
                 p.truncated ? "1" : "0",
                 p.checker_fired
                     ? std::string(core::checker_name(p.checker))
                     : "",
                 report::Table::count(p.peak_bits),
                 report::Table::count(p.units_crossed()),
                 report::Table::count(p.rerun_cycles), samples});
    }
    std::ofstream out(*csv_out, std::ios::trunc);
    if (!out) throw CliError("cannot open --csv file " + *csv_out);
    out << t.to_csv();
    std::cout << "csv: " << *csv_out << "\n";
  }
  return 0;
}

int cmd_merge(const Args& a) {
  const auto out = a.str("out");
  if (a.positional.empty()) throw CliError("merge needs >=1 input stores");
  const store::MergeSummary s = store::merge_stores(a.positional, *out);
  std::cout << report::section("store merge");
  std::cout << s.inputs << " shard(s), " << s.records_read
            << " records read, " << s.duplicates << " duplicate(s) collapsed"
            << "\n-> " << *out << ": " << s.records_written << "/"
            << s.meta.num_injections << " records";
  if (s.missing != 0) {
    std::cout << " (" << s.missing
              << " missing — resume the campaign to fill them)";
  }
  std::cout << "\n";
  return 0;
}

int cmd_beam(const Args& a) {
  const avp::Testcase tc = make_testcase(a);
  beam::BeamConfig cfg;
  cfg.seed = a.num("seed");
  cfg.num_events = a.num("n");
  cfg.threads = a.num("threads");
  cfg.core.checkers_enabled = !a.given("raw");
  if (a.given("ckpt-interval")) cfg.ckpt_interval = a.num("ckpt-interval");
  cfg.ckpt_memory_budget = ckpt_mem_bytes(a);
  const double confidence = confidence_from(a);
  const Telemetry tel = make_telemetry(a, "sfi beam");
  cfg.telemetry = tel.get();
  const beam::BeamResult r = beam::run_beam_experiment(tc, cfg);
  print_final_progress(a, tel, "[beam] ", r.records.size(), r.wall_seconds);
  std::cout << report::section("beam exposure result");
  std::cout << r.latch_events << " latch strikes, " << r.array_events
            << " protected-array strikes\n\n";
  print_outcomes(r.counts(), confidence);
  write_telemetry(a, tel);
  return 0;
}

/// `sfi trace --latch NAME[:BIT]` traces one injected fault from cause to
/// effect. `sfi trace STORE.sfr [--out trace.json]` stitches the distributed
/// span plane of a campaign — the store itself, its `.trace.sfr` sidecar,
/// any surviving worker shards, and postmortem JSONL dumps — into one Trace
/// Event JSON file (load it in Perfetto / chrome://tracing). One process row
/// per OS process; clocks line up because every span is wall-anchored at
/// its source.
int cmd_trace(const Args& a) {
  if (a.positional.size() > 1) {
    throw CliError("trace stitches one store: sfi trace STORE.sfr");
  }
  if (a.positional.size() == 1) {
    const store::StitchResult r = store::stitch_trace(a.positional.front());
    const std::string out = *a.str("out");
    {
      std::ofstream f(out, std::ios::trunc | std::ios::binary);
      if (!f) throw std::runtime_error("trace: cannot write " + out);
      f << r.json << "\n";
    }
    std::cout << "stitched " << r.spans << " span(s) from " << r.files
              << " file(s), " << r.processes << " process row(s) -> " << out
              << " (load in Perfetto / chrome://tracing)\n";
    if (r.spans == 0) {
      std::cout << "hint: record spans with `sfi campaign --workers N "
                   "--trace-spans` or a daemon farm campaign\n";
    }
    return 0;
  }
  const auto latch = a.str("latch");
  if (!latch) {
    throw CliError(
        "trace requires --latch NAME[:BIT] (single-fault trace) or a "
        "positional STORE.sfr (stitch the campaign's span plane)");
  }
  std::string name = *latch;
  u32 bit = 0;
  if (const auto colon = name.find(':'); colon != std::string::npos) {
    bit = static_cast<u32>(parse_u64("latch", name.substr(colon + 1)));
    name = name.substr(0, colon);
  }

  const avp::Testcase tc = make_testcase(a);
  const avp::GoldenResult golden = avp::run_golden(tc);
  core::Pearl6Model model;
  emu::Emulator emu(model);
  const emu::GoldenTrace trace = avp::run_reference(model, emu, tc);
  emu.reset();
  const emu::Checkpoint cp = emu.save_checkpoint();

  const auto ords = model.registry().collect_ordinals(
      [&](const netlist::LatchMeta& m) { return m.name == name; });
  if (ords.empty()) {
    std::cerr << "no latch named '" << name
              << "' (try `sfi inventory` and the DESIGN.md naming scheme)\n";
    return 2;
  }
  if (bit >= ords.size()) {
    std::cerr << "latch " << name << " has " << ords.size() << " bits\n";
    return 2;
  }

  inject::FaultSpec f;
  f.index = ords[bit];
  f.cycle = a.num("cycle");
  if (const auto d = a.num("sticky"); d != 0) {
    f.mode = inject::FaultMode::Sticky;
    f.sticky_duration = d;
    f.sticky_value = true;
  }
  const auto t = inject::trace_injection(model, emu, cp, trace, golden, f);
  std::cout << inject::format_trace(t);
  return 0;
}

int cmd_derate(const Args& a) {
  const avp::Testcase tc = make_testcase(a);
  inject::CampaignConfig cfg = campaign_config(a);
  cfg.threads = a.num("threads");
  const inject::CampaignResult r = inject::run_campaign(tc, cfg);

  core::Pearl6Model model;
  const inject::DeratingReport rep =
      inject::compute_derating(r, model.registry(), {});

  std::cout << report::section("derating & FIT budget");
  std::cout << rep.summary() << "\n";
  report::Table t({"unit", "latches", "derating", "severe rate",
                   "severe FIT"});
  for (const auto& u : rep.by_unit) {
    t.add_row({std::string(to_string(u.unit)),
               report::Table::count(u.latch_bits),
               report::Table::pct(u.derating),
               report::Table::pct(u.severe_rate),
               report::Table::num(u.severe_fit, 6)});
  }
  std::cout << t.to_string();
  return 0;
}

int cmd_mix(const Args& a) {
  const avp::Testcase tc = make_testcase(a);
  const avp::MixReport rep = avp::measure_mix(tc);
  std::cout << report::section("AVP instruction mix & CPI");
  report::Table t({"class", "fraction"});
  for (std::size_t c = 0; c < isa::kNumInstrClasses; ++c) {
    t.add_row({std::string(to_string(static_cast<isa::InstrClass>(c))),
               report::Table::pct(rep.fractions[c], 1)});
  }
  std::cout << t.to_string();
  std::cout << "\n" << rep.instructions << " instructions in " << rep.cycles
            << " cycles: CPI " << report::Table::num(rep.cpi) << "\n";
  return 0;
}

// --- serve: campaign daemon + clients --------------------------------------

int cmd_serve(const Args& a) {
  serve::ServeConfig sc;
  sc.state_dir = *a.str("state-dir");
  if (const auto l = a.str("listen")) sc.listen = *l;
  sc.max_active = a.num("max-active");
  sc.default_threads = a.num("campaign-threads");
  if (const auto h = a.str("http")) sc.http = *h;
  sc.metrics_every = a.num("metrics-every");
  sc.should_stop = install_stop_handler();
  serve::Daemon d(sc);
  std::cout << "sfi serve: listening on " << d.address().describe()
            << "; state dir " << sc.state_dir << "; max active "
            << sc.max_active;
  if (d.http_enabled()) {
    std::cout << "; http " << d.http_address().describe()
              << " (/metrics /healthz /campaigns /trace)";
  }
  std::cout << "\n" << std::flush;
  return d.run();
}

/// A connected channel to the --connect daemon.
int connect_client(const Args& a) {
  farm::ignore_sigpipe();
  return serve::connect_to(serve::parse_address(*a.str("connect")));
}

/// Sends a watch request for campaign `id` on `ch` and prints its events
/// until the daemon ends the stream; 1 if the daemon answered an error.
int follow_events(serve::LineChannel& ch, u64 id) {
  telemetry::JsonWriter w;
  w.begin_object().field("op", "watch").field("id", id).end_object();
  if (!ch.send_line(w.str())) {
    throw std::runtime_error("watch: daemon closed the connection");
  }
  std::string line;
  int rc = 0;
  while (ch.recv_line(line)) {
    std::cout << line << "\n" << std::flush;
    if (line.rfind("{\"ok\":false", 0) == 0) rc = 1;
  }
  return rc;
}

int cmd_submit(const Args& a) {
  // The engine name is checked client-side so a typo is a usage error here,
  // not a silently-defaulted daemon campaign. ("engine" in status replies
  // names the dispatch mode, farm/sched — hence "inj_engine" on the wire.)
  telemetry::JsonWriter w;
  w.begin_object()
      .field("op", "submit")
      .field("tenant", *a.str("tenant"))
      .field("seed", a.num("seed"))
      .field("testcase_seed", a.num("testcase-seed"))
      .field("instructions", a.num("instructions"))
      .field("n", a.num("n"))
      .field("confidence", confidence_from(a))
      .field("half_width", a.real("half-width"))
      .field("by_unit", a.given("stratify-unit"))
      .field("threads", a.num("threads"))
      .field("workers", a.num("workers"))
      .field("shard_size", a.num("shard-size"))
      .field("flush_records", a.num("flush"))
      .field("inj_engine", inject::engine_name(engine_from(a)))
      .field("lanes", a.num("lanes"))
      .end_object();
  serve::LineChannel ch(connect_client(a));
  std::string reply;
  if (!ch.send_line(w.str()) || !ch.recv_line(reply)) {
    throw std::runtime_error("submit: no reply from daemon");
  }
  std::cout << reply << "\n" << std::flush;
  const serve::Json r = serve::Json::parse(reply);
  if (!r.get_bool("ok", false)) return 1;
  if (!a.given("wait")) return 0;

  // --wait: follow the campaign's event stream on the same connection until
  // the daemon finishes it (the final line is the "finish" report event).
  return follow_events(ch, r.get_u64("id", 0));
}

int cmd_status(const Args& a) {
  serve::LineChannel ch(connect_client(a));
  std::string reply;
  if (!ch.send_line(R"({"op":"status"})") || !ch.recv_line(reply)) {
    throw std::runtime_error("status: no reply from daemon");
  }
  if (a.given("json")) {
    std::cout << reply << "\n";
    return 0;
  }
  const serve::Json r = serve::Json::parse(reply);
  if (!r.get_bool("ok", false)) {
    std::cout << reply << "\n";
    return 1;
  }
  std::cout << report::section("serve status");
  report::Table t({"id", "tenant", "state", "records", "widest hw", "target",
                   "early stop"});
  if (const serve::Json* cs = r.find("campaigns")) {
    for (const serve::Json& c : cs->items()) {
      const double widest = c.get_num("widest_half_width", -1.0);
      t.add_row({std::to_string(c.get_u64("id", 0)),
                 c.get_str("tenant", "?"), c.get_str("state", "?"),
                 std::to_string(c.get_u64("done", 0)) + "/" +
                     std::to_string(c.get_u64("n", 0)),
                 widest < 0.0 ? "-" : report::Table::num(widest, 4),
                 report::Table::num(c.get_num("target_half_width", 0.0), 4),
                 c.get_bool("early_stop", false)
                     ? "@" + std::to_string(c.get_u64("stop_point", 0))
                     : "-"});
    }
  }
  std::cout << t.to_string();
  return 0;
}

int cmd_watch(const Args& a) {
  serve::LineChannel ch(connect_client(a));
  return follow_events(ch, a.num("id"));
}

/// GET /campaigns from the daemon's HTTP plane (Connection: close): the
/// one-line JSON body.
std::string get_campaigns(const serve::Address& addr) {
  serve::LineChannel ch(serve::connect_to(addr));
  std::string line;
  if (!ch.send_line("GET /campaigns HTTP/1.1\r\nHost: sfi\r\n"
                    "Connection: close\r\n\r") ||
      !ch.recv_line(line)) {
    throw std::runtime_error("http: no response from " + addr.describe());
  }
  if (!line.starts_with("HTTP/1.1 200")) {
    throw std::runtime_error("http: " + line.substr(0, line.find('\r')));
  }
  while (line != "\r" && ch.recv_line(line)) {
  }
  if (!ch.recv_line(line)) {
    throw std::runtime_error("http: malformed response from " +
                             addr.describe());
  }
  return line;
}

/// `sfi top`: a terminal dashboard over GET /campaigns — one row per
/// campaign with live rate (from successive polls), ETA, half-width
/// progress and the outcome mix. Read-only by construction: it talks to
/// the same endpoint Prometheus scrapes.
int cmd_top(const Args& a) {
  farm::ignore_sigpipe();
  const serve::Address addr = serve::parse_address(*a.str("http"));
  const double interval = a.real("interval");
  const bool once = a.given("once");
  const bool json = a.given("json");
  (void)install_stop_handler();

  struct Seen {
    u64 done = 0;
    std::chrono::steady_clock::time_point at;
  };
  struct Row {
    const serve::Json* c;
    u64 id, done, n;
    double rate;  ///< injections/s since the previous poll (0 on the first)
    double eta;   ///< seconds to n at `rate`, -1 when unknown
  };
  std::map<u64, Seen> last;
  while (g_stop_requested == 0) {
    const serve::Json r = serve::Json::parse(get_campaigns(addr));
    const auto now = std::chrono::steady_clock::now();
    std::vector<Row> rows;
    if (const serve::Json* cs = r.find("campaigns")) {
      for (const serve::Json& c : cs->items()) {
        Row row{&c, c.get_u64("id", 0), c.get_u64("done", 0),
                c.get_u64("n", 0), 0.0, -1.0};
        if (const auto it = last.find(row.id); it != last.end()) {
          const double dt =
              std::chrono::duration<double>(now - it->second.at).count();
          if (dt > 0.0 && row.done >= it->second.done) {
            row.rate = static_cast<double>(row.done - it->second.done) / dt;
          }
        }
        if (row.rate > 0.0 && row.n > row.done) {
          row.eta = static_cast<double>(row.n - row.done) / row.rate;
        }
        last[row.id] = {row.done, now};
        rows.push_back(row);
      }
    }
    if (json) {
      // Machine-readable refresh: one JSON object per line — the daemon's
      // /campaigns document plus the rates/ETAs this dashboard computes
      // from successive polls. No screen control, ever.
      telemetry::JsonWriter w;
      w.begin_object()
          .field("endpoint", addr.describe())
          .field("stopping", r.get_bool("stopping", false));
      w.key("campaigns").begin_array();
      for (const Row& row : rows) {
        const serve::Json& c = *row.c;
        w.begin_object()
            .field("id", row.id)
            .field("tenant", c.get_str("tenant", "?"))
            .field("state", c.get_str("state", "?"))
            .field("engine", c.get_str("engine", "?"))
            .field("done", row.done)
            .field("n", row.n)
            .field("committed", c.get_u64("committed", 0))
            .field("rate_per_s", row.rate)
            .field("eta_s", row.eta)
            .field("widest_half_width", c.get_num("widest_half_width", -1.0))
            .field("target_half_width", c.get_num("target_half_width", 0.0))
            .field("early_stop", c.get_bool("early_stop", false))
            .field("workers", c.get_u64("workers", 0))
            .end_object();
      }
      w.end_array().end_object();
      std::cout << w.str() << "\n" << std::flush;
    } else {
      if (!once) std::cout << "\x1b[H\x1b[2J";  // cursor home + clear screen
      std::cout << "sfi top — " << addr.describe()
                << (r.get_bool("stopping", false) ? " (stopping)" : "")
                << "\n";
      report::Table t({"id", "tenant", "state", "eng", "done", "rate/s",
                       "eta", "hw/target", "wrk", "outcome mix"});
      for (const Row& row : rows) {
        const serve::Json& c = *row.c;
        const std::string state = c.get_str("state", "?");
        const std::string eta = state == "running" && row.eta >= 0.0
                                    ? report::Table::num(row.eta, 0) + "s"
                                    : "-";
        const double widest = c.get_num("widest_half_width", -1.0);
        std::string hw =
            (widest < 0.0 ? std::string("-")
                          : report::Table::num(widest, 4)) +
            "/" +
            report::Table::num(c.get_num("target_half_width", 0.0), 4);
        if (c.get_bool("early_stop", false)) hw += " met";
        std::string mix;
        if (const serve::Json* counts = c.find("counts")) {
          u64 total = 0;
          for (const auto o : inject::kAllOutcomes) {
            total += counts->get_u64(std::string(to_string(o)), 0);
          }
          for (const auto o : inject::kAllOutcomes) {
            const u64 v = counts->get_u64(std::string(to_string(o)), 0);
            if (v == 0) continue;
            std::string lbl(to_string(o).substr(0, 3));
            for (char& ch : lbl) {
              ch = static_cast<char>(
                  std::tolower(static_cast<unsigned char>(ch)));
            }
            if (!mix.empty()) mix += ' ';
            mix += lbl + ' ' +
                   report::Table::pct(static_cast<double>(v) /
                                      static_cast<double>(total));
          }
        }
        t.add_row({std::to_string(row.id), c.get_str("tenant", "?"), state,
                   c.get_str("engine", "?"),
                   std::to_string(row.done) + "/" + std::to_string(row.n),
                   report::Table::num(row.rate, 1), eta, hw,
                   std::to_string(c.get_u64("workers", 0)), mix});
      }
      std::cout << t.to_string() << std::flush;
    }
    if (once) return 0;
    // Sleep in slices so Ctrl-C lands promptly, not a poll later.
    const auto deadline =
        now + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                  std::chrono::duration<double>(interval));
    while (g_stop_requested == 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
  return 0;
}

int cmd_shutdown(const Args& a) {
  serve::LineChannel ch(connect_client(a));
  if (!ch.send_line(R"({"op":"shutdown"})")) {
    throw std::runtime_error("shutdown: daemon closed the connection");
  }
  std::string reply;
  if (ch.recv_line(reply)) std::cout << reply << "\n";
  return 0;
}

std::size_t trace_mode(const Args& a) { return a.positional.empty() ? 0 : 1; }

/// Every verb's option table, composed from the declarations at the top.
const std::vector<Verb>& verbs() {
  constexpr u8 kMem = 1u << kInMemory, kStore = 1u << kStoreMode;
  constexpr u8 kFarmed = 1u << kFarmMode;
  static const std::vector<Verb> table = {
      {"inventory", "latch/array population report", cmd_inventory, {}},
      {"campaign", "run a statistical fault-injection campaign", cmd_campaign,
       kTestcase + Opts{kSeed, kN} + kDefining +
           only(kMem | kStore, {kThreads}) + kTelemetry +
           Opts{kConfidence, {"postmortem", Str, "", "crash dump of recent "
                              "telemetry lines (flight recorder)"}} +
           only(kStore | kFarmed, kStoreOpts) + only(kStore, kFlushOpts) +
           only(kFarmed, kFarmOpts + kWorkerHooks),
       false,
       {"in-memory campaigns (no --out)", "store campaigns (--out FILE.sfr)",
        "farm campaigns (--out FILE.sfr with --workers N or --farm "
        "HOSTS.txt)"},
       campaign_mode},
      {"worker", "farm worker process (spawned by campaign --farm)",
       cmd_worker,
       kTestcase + Opts{kSeed, kN} + kDefining + kWorkerHooks +
           Opts{{"shard-store", Str, "", "shard store to append to", kReq},
                {"worker-id", U32, "0", "id stamped into heartbeats"}}},
      {"report", "campaign tables from a store, no simulation", cmd_report,
       {{"from", Str, "", "campaign store", kReq}, kConfidence}},
      {"explain", "fault-propagation forensics of a --footprint store",
       cmd_explain,
       {{"from", Str, "", "campaign store", kReq},
        {"json", Str, "", "also write the report as JSON"},
        {"csv", Str, "", "also write one CSV row per footprint"}}},
      {"merge", "merge store shards: sfi merge --out MERGED.sfr SHARD.sfr...",
       cmd_merge, {{"out", Str, "", "merged store", kReq}}, true},
      {"beam", "run a simulated proton-beam exposure", cmd_beam,
       kTestcase +
           Opts{kSeed, kN, kRaw, kCkptInterval, kCkptMem, kThreads,
                kConfidence} +
           kTelemetry},
      {"trace", "trace one fault (--latch) or stitch STORE.sfr's spans",
       cmd_trace,
       only(1, kTestcase + Opts{kSticky,
                                {"latch", Str, "", "latch to flip, NAME[:BIT]"},
                                {"cycle", U64, "30", "injection cycle"}}) +
           only(2, {{"out", Str, "trace.json", "Trace Event JSON file"}}),
       true,
       {"single-fault traces (--latch NAME[:BIT])",
        "stitching a store (sfi trace STORE.sfr)"},
       trace_mode},
      {"mix", "AVP instruction mix and CPI report", cmd_mix, kTestcase},
      {"derate", "derating factors and chip FIT budget", cmd_derate,
       kTestcase + Opts{kSeed, {"n", U32, "2000", "injections", kFwd}} +
           kDefining + Opts{kThreads}},
      {"serve", "multi-tenant campaign daemon with adaptive early stop",
       cmd_serve,
       {kMetricsEvery,
        {"state-dir", Str, "", "home of stores and manifests", kReq},
        {"listen", Str, "", "unix:PATH, tcp:HOST:PORT or tcp:PORT"},
        {"max-active", U32, "2", "campaigns running at once"},
        {"campaign-threads", U32, "1", "threads of --threads 0 campaigns"},
        {"http", Str, "", "HTTP plane tcp:HOST:PORT"}}},
      {"submit", "submit a campaign to a daemon", cmd_submit,
       kTestcase +
           Opts{kSeed, kN, kEngine, kLanes, kConnect, kConfidence, kThreads,
                {"tenant", Str, "default", "fair-share accounting bucket"},
                {"half-width", F64, "0.02", "early-stop interval target"},
                {"stratify-unit", Flag, "", "per-unit strata too"},
                {"workers", U32, "0", "farm workers (0: in-process)"},
                {"shard-size", U32, "16", "injections per shard"},
                {"flush", U32, "8", "records buffered between flushes"},
                {"wait", Flag, "", "stream events until the end"}}},
      {"status", "daemon and campaign status", cmd_status,
       {kConnect, {"json", Flag, "", "print the raw JSON reply"}}},
      {"watch", "stream a campaign's events", cmd_watch,
       {kConnect, {"id", U64, "", "campaign id", kReq}}},
      {"shutdown", "stop a daemon (campaigns stay resumable)", cmd_shutdown,
       {kConnect}},
      {"top", "live per-campaign table over a daemon's HTTP plane", cmd_top,
       {{"http", Str, "", "the daemon's --http address", kReq},
        {"interval", F64, "2", "refresh period in seconds"},
        {"once", Flag, "", "print one refresh and exit"},
        {"json", Flag, "", "one JSON object per refresh"}}},
  };
  return table;
}

int usage() {
  std::cout << "usage: sfi <command> [options]\ncommands:\n";
  for (const Verb& v : verbs()) {
    std::cout << "  " << v.name << std::string(11 - v.name.size(), ' ')
              << v.summary << "\n";
  }
  std::cout << "sfi <command> --help (any unknown option) lists its options\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    for (const Verb& v : verbs()) {
      if (argc > 1 && v.name == argv[1]) return v.run(parse(v, argc, argv));
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return dynamic_cast<const CliError*>(&e) != nullptr ? 2 : 1;
  }
  return usage();
}
