#include "trace.h"

#include <chrono>
#include <cstdio>

namespace perfbench {

std::int64_t Tracer::NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t Tracer::Begin(const char* name, std::uint64_t op,
                           std::int64_t parent) {
  spans_.push_back(Span{name, NowNs(), 0, parent, op});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void Tracer::End(std::int64_t index) {
  spans_[static_cast<std::size_t>(index)].end_ns = NowNs();
}

std::int64_t Tracer::Add(const char* name, std::int64_t start_ns,
                         std::int64_t end_ns, std::int64_t parent,
                         std::uint64_t op) {
  spans_.push_back(Span{name, start_ns, end_ns, parent, op});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

std::vector<double> Tracer::DurationsMs(const std::string& name) const {
  std::vector<double> durations;
  for (const Span& span : spans_) {
    if (span.name == name) {
      durations.push_back(static_cast<double>(span.end_ns - span.start_ns) /
                          1e6);
    }
  }
  return durations;
}

bool Tracer::WriteJson(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::fprintf(file, "{\"spans\": [");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::fprintf(file,
                 "%s\n{\"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": "
                 "%lld, \"parent\": %lld, \"op\": %llu}",
                 i == 0 ? "" : ",", span.name.c_str(),
                 static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns),
                 static_cast<long long>(span.parent),
                 static_cast<unsigned long long>(span.op));
  }
  std::fprintf(file, "\n]}\n");
  return std::fclose(file) == 0;
}

}  // namespace perfbench
