#include "tracer.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "support/check.h"

namespace {

std::atomic<bool> gCounting{false};
std::atomic<std::uint64_t> gAllocs{0};

/// Over-aligned requests go to aligned_alloc, which wants a size that is a
/// multiple of the alignment; std::free releases either kind.
void* countedAlloc(std::size_t size,
                   std::size_t align = __STDCPP_DEFAULT_NEW_ALIGNMENT__) {
  if (gCounting.load(std::memory_order_relaxed)) {
    gAllocs.fetch_add(1, std::memory_order_relaxed);
  }
  size = std::max<std::size_t>(size, 1);
  void* p = align <= __STDCPP_DEFAULT_NEW_ALIGNMENT__
                ? std::malloc(size)
                : std::aligned_alloc(align, (size + align - 1) / align * align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

// The aligned forms matter too: libstdc++ routes over-aligned types through
// them.
void* operator new(std::size_t size) { return countedAlloc(size); }
void* operator new[](std::size_t size) { return countedAlloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return countedAlloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return countedAlloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace refine::e2e {

void setAllocCounting(bool on) noexcept {
  gCounting.store(on, std::memory_order_relaxed);
}

std::uint64_t allocCount() noexcept {
  return gAllocs.load(std::memory_order_relaxed);
}

std::int32_t Tracer::open(const char* name, std::int64_t cell) {
  const auto id = static_cast<std::int32_t>(spans_.size());
  spans_.push_back({name, cell, open_.empty() ? -1 : open_.back(), now(), 0.0});
  open_.push_back(id);
  return id;
}

void Tracer::close(std::int32_t id) {
  RF_CHECK(!open_.empty() && open_.back() == id,
           "trace spans must close innermost first");
  open_.pop_back();
  spans_[static_cast<std::size_t>(id)].end = now();
}

std::map<std::string, double> Tracer::selfSeconds() const {
  std::vector<double> childSeconds(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      childSeconds[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    out[spans_[i].name] += spans_[i].end - spans_[i].start - childSeconds[i];
  }
  return out;
}

void Tracer::writeChromeTrace(const std::string& path,
                              const std::vector<std::string>& cellLabels) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  RF_CHECK(out != nullptr, "cannot write trace file " + path);
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", out);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                 "\"parent\":%d",
                 i == 0 ? "" : ",\n", s.name, s.start * 1e6,
                 (s.end - s.start) * 1e6, i, s.parent);
    if (s.cell >= 0 && static_cast<std::size_t>(s.cell) < cellLabels.size()) {
      std::fprintf(out, ",\"cell\":%lld,\"cell_label\":\"%s\"",
                   static_cast<long long>(s.cell),
                   cellLabels[static_cast<std::size_t>(s.cell)].c_str());
    }
    std::fputs("}}", out);
  }
  std::fputs("\n]}\n", out);
  const bool ok = std::ferror(out) == 0;
  RF_CHECK(std::fclose(out) == 0 && ok, "failed writing trace file " + path);
}

}  // namespace refine::e2e
