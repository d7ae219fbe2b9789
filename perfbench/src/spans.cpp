#include "spans.hpp"

#include <algorithm>
#include <cmath>

#include "base/clock.hpp"

namespace perfbench {

SpanLog::Scope::Scope(SpanLog& log, const char* name) : log_(&log) {
    span_.name = name;
    span_.id = log.next_id();
    span_.parent = log.parent_.load(std::memory_order_relaxed);
    span_.op = log.op_.load(std::memory_order_relaxed);
    span_.start_ns = servet::monotonic_ns();
}

SpanLog::Scope::~Scope() {
    span_.end_ns = servet::monotonic_ns();
    log_->record(span_);
}

SpanLog::Operation::Operation(SpanLog& log, const char* name)
    : log_(&log),
      saved_parent_(log.parent_.load(std::memory_order_relaxed)),
      saved_op_(log.op_.load(std::memory_order_relaxed)) {
    span_.name = name;
    span_.id = log.next_id();
    span_.parent = saved_parent_;
    span_.op = span_.id;
    span_.start_ns = servet::monotonic_ns();
    log.parent_.store(span_.id, std::memory_order_relaxed);
    log.op_.store(span_.op, std::memory_order_relaxed);
}

SpanLog::Operation::~Operation() {
    span_.end_ns = servet::monotonic_ns();
    log_->parent_.store(saved_parent_, std::memory_order_relaxed);
    log_->op_.store(saved_op_, std::memory_order_relaxed);
    log_->record(span_);
}

void SpanLog::record_root(const char* name, std::uint64_t start_ns, std::uint64_t end_ns) {
    Span span;
    span.name = name;
    span.id = next_id();
    span.op = span.id;
    span.start_ns = start_ns;
    span.end_ns = end_ns;
    record(span);
}

std::vector<Span> SpanLog::spans() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

void SpanLog::record(const Span& span) {
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(span);
}

double busy_seconds(const std::vector<Span>& spans, std::string_view name) {
    double total = 0;
    for (const Span& span : spans)
        if (name == span.name) total += span.seconds();
    return total;
}

Intervals merge(Intervals intervals) {
    std::sort(intervals.begin(), intervals.end());
    Intervals out;
    for (const auto& interval : intervals) {
        if (!out.empty() && interval.first <= out.back().second)
            out.back().second = std::max(out.back().second, interval.second);
        else
            out.push_back(interval);
    }
    return out;
}

double length_seconds(const Intervals& merged) {
    std::uint64_t total = 0;
    for (const auto& [start, end] : merged) total += end - start;
    return static_cast<double>(total) * 1e-9;
}

double overlap_seconds(const Intervals& a, const Intervals& b) {
    std::uint64_t total = 0;
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < a.size() && j < b.size()) {
        const std::uint64_t start = std::max(a[i].first, b[j].first);
        const std::uint64_t end = std::min(a[i].second, b[j].second);
        if (start < end) total += end - start;
        if (a[i].second < b[j].second)
            ++i;
        else
            ++j;
    }
    return static_cast<double>(total) * 1e-9;
}

double quantile(std::vector<double> values, double q) {
    if (values.empty()) return 0;
    std::sort(values.begin(), values.end());
    const double position = q * static_cast<double>(values.size() - 1);
    const auto below = static_cast<std::size_t>(std::floor(position));
    const std::size_t above = std::min(below + 1, values.size() - 1);
    const double frac = position - static_cast<double>(below);
    return values[below] + (values[above] - values[below]) * frac;
}

}  // namespace perfbench
