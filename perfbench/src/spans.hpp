// The benchmark's own trace: one span per call the benchmark makes into a
// layer's public interface (a decorated Platform or Network call, a
// run_suite, a run_search, an http_fetch). Spans are kept in memory until
// the run ends and only the benchmark's analysis reads them. They are
// stamped with servet::monotonic_ns, the time base of the program's obs
// trace, so the two can be joined: the phase spans of the obs trace are
// the parents of the sim and msg spans recorded here.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

struct Span {
    const char* name = "";   ///< static string, e.g. "sim.traverse"
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  ///< 0 = root
    std::uint64_t op = 0;      ///< the operation (suite run, search, request)
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;

    [[nodiscard]] double seconds() const {
        return static_cast<double>(end_ns - start_ns) * 1e-9;
    }
};

class SpanLog {
  public:
    /// Records [construction, destruction) as a child of the operation
    /// open at construction (any thread: pool workers inherit the parent
    /// the main thread opened).
    class Scope {
      public:
        Scope(SpanLog& log, const char* name);
        ~Scope();
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

      private:
        SpanLog* log_;
        Span span_;
    };

    /// A root span that becomes the parent of every Scope opened until it
    /// closes. Operations nest (a search inside a tune) but are opened by
    /// one thread at a time.
    class Operation {
      public:
        Operation(SpanLog& log, const char* name);
        ~Operation();
        Operation(const Operation&) = delete;
        Operation& operator=(const Operation&) = delete;

      private:
        SpanLog* log_;
        Span span_;
        std::uint64_t saved_parent_;
        std::uint64_t saved_op_;
    };

    /// Records a finished root span with its own operation id (one HTTP
    /// request timed by a generator thread).
    void record_root(const char* name, std::uint64_t start_ns, std::uint64_t end_ns);

    /// Every span recorded so far.
    [[nodiscard]] std::vector<Span> spans() const;

  private:
    void record(const Span& span);
    std::uint64_t next_id() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

    std::atomic<std::uint64_t> next_id_{1};
    std::atomic<std::uint64_t> parent_{0};
    std::atomic<std::uint64_t> op_{0};
    mutable std::mutex mutex_;
    std::vector<Span> spans_;  ///< guarded by mutex_
};

/// Half-open [start_ns, end_ns) intervals.
using Intervals = std::vector<std::pair<std::uint64_t, std::uint64_t>>;

/// Sum of span durations named `name`, in seconds.
[[nodiscard]] double busy_seconds(const std::vector<Span>& spans, std::string_view name);

/// Sorted, non-overlapping union of `intervals`.
[[nodiscard]] Intervals merge(Intervals intervals);

/// Total length, in seconds, of a merged interval set.
[[nodiscard]] double length_seconds(const Intervals& merged);

/// Length, in seconds, of the intersection of two merged interval sets.
[[nodiscard]] double overlap_seconds(const Intervals& a, const Intervals& b);

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
[[nodiscard]] double quantile(std::vector<double> values, double q);

}  // namespace perfbench
