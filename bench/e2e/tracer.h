// In-memory span recorder for the traced replay, plus the process-wide heap
// allocation counter it reads.
//
// Every span is opened and closed by the benchmark around a call into one of
// the program's public functions: nothing under src/ is instrumented. Spans
// are kept in memory (one vector, reserved ahead of trial loops so recording
// a trial allocates nothing) and written out once, as Chrome trace-event
// JSON, when the replay ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace refine::e2e {

class Tracer {
 public:
  struct Span {
    const char* name = nullptr;  // a string literal; compared by content
    std::int64_t cell = -1;      // matrix cell index; -1 outside any cell
    std::int32_t parent = -1;    // index into spans(); -1 for a root span
    double start = 0.0;          // seconds since the tracer was created
    double end = 0.0;
  };

  /// Opens a span nested in the innermost open one and returns its id.
  std::int32_t open(const char* name, std::int64_t cell = -1);
  void close(std::int32_t id);

  /// Makes room for `extra` more spans, so the next `extra` opens do not
  /// allocate.
  void reserve(std::size_t extra) { spans_.reserve(spans_.size() + extra); }

  const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Self time summed per span name: each span's duration minus the part of
  /// it that its child spans cover.
  std::map<std::string, double> selfSeconds() const;

  /// Writes every span as a complete ("X") trace event. `cellLabels[i]`
  /// names matrix cell i in the event args.
  void writeChromeTrace(const std::string& path,
                        const std::vector<std::string>& cellLabels) const;

 private:
  double now() const noexcept {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         origin_)
        .count();
  }

  std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

/// Opens a span for the lifetime of the scope.
class SpanScope {
 public:
  SpanScope(Tracer& tracer, const char* name, std::int64_t cell = -1)
      : tracer_(tracer), id_(tracer.open(name, cell)) {}
  ~SpanScope() { tracer_.close(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer& tracer_;
  std::int32_t id_;
};

/// Calls of the global operator new family since counting was first turned
/// on. refine-bench replaces the allocation functions; counting is off until
/// the traced replay enables it, so the untraced run pays one relaxed load
/// per allocation.
void setAllocCounting(bool on) noexcept;
std::uint64_t allocCount() noexcept;

}  // namespace refine::e2e
