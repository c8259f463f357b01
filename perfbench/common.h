// Shared pieces of the end-to-end archive benchmark: wall-clock helpers,
// order statistics, the gauge that scales timings to reference speed, the
// in-memory span recorder behind the traced mode, and the metric list the
// final JSON line is printed from.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace pb {

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Median with the usual midpoint for an even count. Empty input -> 0.
double median(std::vector<double> v);

/// Nearest-rank percentile: the value at 1-based rank ceil(p/100 * n), so
/// exactly n - rank samples lie beyond it. Empty input -> 0.
double percentile(std::vector<double> v, double p);

/// One named metric of the final JSON line.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// How fast the machine runs, read off a fixed reference kernel that is
/// benchmark code, not program code. On a shared machine other tenants
/// slow every piece of code on a core by up to ~2x, in spells lasting
/// from under a second to tens of minutes; the kernel (bignum multiply,
/// SHA-256-style rounds, table lookups, like the program's hot code)
/// slows with it. A timing multiplied by factor() is the timing at
/// reference speed: the speed at which one kernel run takes kReferenceMs.
class Gauge {
 public:
  static constexpr double kReferenceMs = 1.0;
  static constexpr double kIntervalS = 0.05;

  /// Runs the kernel once and records its time in ms.
  void sample();
  /// Samples if kIntervalS or more passed since the last sample.
  void maybe_sample();
  /// Index of the next sample: factor(mark()) covers what follows.
  std::size_t mark() const { return ms_.size(); }
  /// kReferenceMs over the median of the samples from `from` on.
  double factor(std::size_t from) const;
  const std::vector<double>& samples() const { return ms_; }

 private:
  std::vector<double> ms_;
  double last_s_ = 0;
};

/// Spans recorded around the benchmark's calls into each layer of the
/// program. Kept in memory and written as Chrome-trace JSON when the run
/// ends. A span opened while another is open records it as its parent.
/// Every span carries the id of the operation it belongs to: one phase of
/// one round (the phase span and each archive call in it) or one layer
/// probe (the probe span and each timed batch). A disabled recorder
/// records nothing and costs one branch per span.
class Spans {
 public:
  explicit Spans(bool enabled) : enabled_(enabled) {}
  Spans(const Spans&) = delete;
  Spans& operator=(const Spans&) = delete;

  /// A fresh operation id (ids start at 1).
  std::uint64_t new_op() { return ++last_op_; }

  class Scope {
   public:
    Scope(Spans* owner, std::size_t index) : owner_(owner), index_(index) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope();

   private:
    Spans* owner_;
    std::size_t index_;
  };

  /// Opens a span named `name` in layer `layer` (the program module the
  /// call enters: "archive", "crypto", ...); it closes when the returned
  /// scope ends. `op` names the operation the span belongs to; 0 inherits
  /// the operation of the enclosing span. `name` and `layer` must be
  /// string literals.
  Scope span(const char* name, const char* layer, std::uint64_t op = 0);

  std::size_t size() const { return records_.size(); }

  /// Writes every span as a Chrome-trace "X" (complete) event. Returns
  /// false when the file cannot be written.
  bool write_chrome_trace(const std::string& path) const;

 private:
  struct Record {
    const char* name;
    const char* layer;
    std::uint64_t op;
    std::uint64_t id;
    std::uint64_t parent;  // 0 = root
    double t0_us;
    double dur_us;
  };

  bool enabled_;
  std::uint64_t last_op_ = 0;
  double origin_s_ = now_s();
  std::vector<Record> records_;
  std::vector<std::size_t> open_;  // indexes into records_
};

}  // namespace pb
