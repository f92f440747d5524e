// In-memory spans for the traced benchmark run, plus the timing adder
// decorator the image legs use to split kernel time into add_batch and
// everything around it.
//
// Spans are recorded from the benchmark's own files, around each call
// into a library module; nothing inside the library is instrumented.
// They stay in memory until the run ends and are then written out with
// the rest of the result (perfbench/run.py derives self times from them).
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "adders/adder.h"

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One span. An aggregate span has no interval of its own: it stands for
/// many short calls made inside its parent (e.g. every add_batch of one
/// kernel call), with `end_ns - start_ns` holding their summed duration.
struct SpanRecord {
  int id = 0;
  int parent = -1;
  std::string layer;  ///< library module called ("core", "apps", ...) or "bench"
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  bool aggregate = false;
  std::uint64_t calls = 0;  ///< aggregate spans: calls summed
  std::uint64_t lanes = 0;  ///< aggregate spans: add_batch lanes summed
};

/// Single-threaded span recorder: spans nest by the order they open.
class Tracer {
 public:
  int open(std::string layer, std::string name);
  void close(int id);
  /// Adds an aggregate child of the innermost open span.
  void aggregate(std::string layer, std::string name, std::int64_t total_ns,
                 std::uint64_t calls, std::uint64_t lanes);
  const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  std::int64_t origin_ns_ = now_ns();
  std::vector<SpanRecord> spans_;
  std::vector<int> open_;
};

/// Scoped span; a no-op when the tracer is null (the untraced run).
class Span {
 public:
  Span(Tracer* tracer, const char* layer, std::string name)
      : tracer_(tracer),
        id_(tracer ? tracer->open(layer, std::move(name)) : -1) {}
  ~Span() {
    if (tracer_) tracer_->close(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

/// ApproxAdder decorator that times every add_batch call and counts calls
/// and lanes. Not thread-safe: the image legs run their kernels on one
/// thread.
class TimedAdder final : public gear::adders::ApproxAdder {
 public:
  explicit TimedAdder(const gear::adders::ApproxAdder& inner) : inner_(inner) {}

  std::string name() const override { return inner_.name(); }
  int width() const override { return inner_.width(); }
  std::uint64_t add(std::uint64_t a, std::uint64_t b) const override {
    return inner_.add(a, b);
  }
  void add_batch(const std::uint64_t* a, const std::uint64_t* b,
                 std::uint64_t* out, std::size_t count) const override {
    const std::int64_t t0 = now_ns();
    inner_.add_batch(a, b, out, count);
    ns_ += now_ns() - t0;
    ++calls_;
    lanes_ += count;
  }
  bool is_exact() const override { return inner_.is_exact(); }
  int error_free_width() const override { return inner_.error_free_width(); }
  std::string family() const override { return inner_.family(); }
  std::string spec() const override { return inner_.spec(); }
  int max_carry_chain() const override { return inner_.max_carry_chain(); }
  std::optional<gear::core::GeArConfig> gear_equivalent() const override {
    return inner_.gear_equivalent();
  }

  /// Records the totals since the last flush as an aggregate child of the
  /// tracer's innermost open span, then resets them.
  void flush(Tracer& tracer, const std::string& name) {
    tracer.aggregate("adders", name, ns_, calls_, lanes_);
    ns_ = 0;
    calls_ = 0;
    lanes_ = 0;
  }

 private:
  const gear::adders::ApproxAdder& inner_;
  mutable std::int64_t ns_ = 0;
  mutable std::uint64_t calls_ = 0;
  mutable std::uint64_t lanes_ = 0;
};

}  // namespace perfbench
