#include "spans.hpp"

#include <fstream>

#include "util/timer.hpp"

namespace perfbench {

std::size_t Tracer::open(std::string name, std::uint32_t repeat) {
  Span s;
  s.name = std::move(name);
  s.repeat = repeat;
  s.parent = open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
  s.start_ns = pls::util::steady_now_ns();
  spans_.push_back(std::move(s));
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void Tracer::close(std::size_t index) {
  spans_[index].end_ns = pls::util::steady_now_ns();
  // Spans nest strictly (RAII), so the closing span is the innermost one.
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

std::map<std::string, std::vector<double>> Tracer::per_repeat_seconds(
    bool self) const {
  std::vector<std::uint64_t> child_ns(spans_.size(), 0);
  if (self) {
    for (const Span& s : spans_) {
      if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, std::map<std::uint32_t, double>> acc;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const std::uint64_t dur = spans_[i].end_ns - spans_[i].start_ns;
    const std::uint64_t ns = dur > child_ns[i] ? dur - child_ns[i] : 0;
    acc[spans_[i].name][spans_[i].repeat] += static_cast<double>(ns) * 1e-9;
  }
  std::map<std::string, std::vector<double>> out;
  for (const auto& [name, by_repeat] : acc) {
    for (const auto& [repeat, sec] : by_repeat) out[name].push_back(sec);
  }
  return out;
}

bool Tracer::write_json(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  const std::uint64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  os << "[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << "  {\"id\": " << i << ", \"name\": \"" << s.name
       << "\", \"repeat\": " << s.repeat << ", \"parent\": " << s.parent
       << ", \"start_ns\": " << (s.start_ns - t0)
       << ", \"end_ns\": " << (s.end_ns - t0) << "}"
       << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  os << "]\n";
  return static_cast<bool>(os);
}

}  // namespace perfbench
