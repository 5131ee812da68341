#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// In-memory span recorder of the traced run. Spans are appended while the
// run executes and written out once, when it ends.

#include <cstdint>
#include <string>
#include <vector>

#include "stats.h"

namespace perfbench {

class Tracer {
 public:
  /// Nanoseconds on the steady clock all spans share.
  static std::int64_t NowNs();

  /// Opens a span starting now; returns its index (the parent handle of
  /// its children). Close it with End.
  std::int64_t Begin(const char* name, std::uint64_t op,
                     std::int64_t parent = -1);
  void End(std::int64_t index);

  /// Records a span whose bounds were taken elsewhere (for example
  /// around a callback) and returns its index.
  std::int64_t Add(const char* name, std::int64_t start_ns,
                   std::int64_t end_ns, std::int64_t parent,
                   std::uint64_t op);

  const std::vector<Span>& spans() const { return spans_; }

  /// Durations, in milliseconds, of every span named `name`.
  std::vector<double> DurationsMs(const std::string& name) const;

  /// Writes {"spans": [...]} to `path`; false when the file cannot be
  /// written.
  bool WriteJson(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// Begin on construction, End on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, std::uint64_t op,
             std::int64_t parent = -1)
      : tracer_(tracer), index_(tracer.Begin(name, op, parent)) {}
  ~ScopedSpan() { tracer_.End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::int64_t index() const { return index_; }

 private:
  Tracer& tracer_;
  std::int64_t index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
