#include "spans.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "telemetry/json.hpp"

namespace perfbench {

double SpanLog::now() const {
  return std::chrono::duration<double>(Clock::now() - origin_).count();
}

int SpanLog::open(std::string name) {
  const int id = static_cast<int>(spans_.size());
  spans_.push_back(Span{std::move(name), now(), 0.0,
                        open_.empty() ? -1 : open_.back()});
  open_.push_back(id);
  return id;
}

void SpanLog::close(int id) {
  if (open_.empty() || open_.back() != id) {
    throw std::logic_error("span closed out of order: " + spans_[id].name);
  }
  spans_[id].end_s = now();
  open_.pop_back();
}

std::map<std::string, double> SpanLog::self_seconds_by_layer() const {
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) children[s.parent].emplace_back(s.start_s, s.end_s);
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double reach = spans_[i].start_s;
    for (const auto& [b, e] : kids) {
      const double lo = std::max(b, reach);
      if (e > lo) covered += e - lo;
      reach = std::max(reach, e);
    }
    const Span& s = spans_[i];
    const std::string layer = s.name.substr(0, s.name.find('.'));
    out[layer] += (s.end_s - s.start_s) - covered;
  }
  return out;
}

void SpanLog::write_trace_json(const std::string& path) const {
  sfi::telemetry::JsonWriter w;
  w.begin_object().key("traceEvents").begin_array();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    w.begin_object()
        .field("name", std::string_view(s.name))
        .field("ph", "X")
        .field("pid", sfi::u64{1})
        .field("tid", sfi::u64{1})
        .field("ts", s.start_s * 1e6)
        .field("dur", (s.end_s - s.start_s) * 1e6);
    w.key("args")
        .begin_object()
        .field("id", static_cast<sfi::i64>(i))
        .field("parent", static_cast<sfi::i64>(s.parent))
        .end_object();
    w.end_object();
  }
  w.end_array().end_object();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << w.str() << "\n";
  if (!out) throw std::runtime_error("cannot write span trace " + path);
}

}  // namespace perfbench
