#pragma once
// In-memory span recorder for the benchmark's traced run.
//
// A span is one call into a layer, timed from the benchmark's side of the
// layer boundary: name, steady-clock start/end, the span that caused it
// (parent) and the repeat it belongs to.  Spans stay in memory while the
// benchmark runs and are written out once at exit, so recording costs two
// clock reads and a vector push per layer call.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int64_t parent = -1;  ///< index into Tracer::spans(), -1 = root
  std::uint32_t repeat = 0;  ///< shared by every span of one repeat
};

class Tracer {
 public:
  /// Open a span under the innermost open one; returns its index.
  std::size_t open(std::string name, std::uint32_t repeat);
  void close(std::size_t index);

  const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Per span name, its seconds in each repeat that recorded it (summed
  /// over the repeat's spans of that name, in repeat order).  With `self`,
  /// a span's time minus the part of it its direct children cover.
  std::map<std::string, std::vector<double>> per_repeat_seconds(
      bool self) const;

  /// Write every span as a JSON array (times relative to the first span).
  bool write_json(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

/// RAII span; a null tracer records nothing (the untraced run).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* t, const char* name, std::uint32_t repeat)
      : t_(t), index_(t != nullptr ? t->open(name, repeat) : 0) {}
  ~ScopedSpan() {
    if (t_ != nullptr) t_->close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* t_;
  std::size_t index_;
};

}  // namespace perfbench
