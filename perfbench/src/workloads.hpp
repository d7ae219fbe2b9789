// The benchmark's workloads and what they report. A workload runs the
// program through its public interfaces, checks every output it produces
// and returns its metrics; main.cpp prints them.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunConfig {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string ref_dir;   ///< reference outputs captured at the parent commit
    std::string work_dir;  ///< scratch space inside the checkout
};

struct Metric {
    enum class Kind {
        EndToEnd,  ///< untraced run, gated by BENCHMARK.json bounds
        PerLayer,  ///< traced run
        Info,      ///< printed for people, not part of the JSON result
    };
    Kind kind;
    std::string name;
    double value;
    std::string unit;
    std::string source;  ///< untraced | traced | stable counter | computed | SuiteResult
};

struct Outcome {
    std::vector<std::string> failures;  ///< correctness-check failures
    std::uint64_t attempted = 0;        ///< suite phases, searches, HTTP requests
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;

    void add(Metric::Kind kind, std::string name, double value, std::string unit,
             std::string source) {
        metrics.push_back({kind, std::move(name), value, std::move(unit), std::move(source)});
    }
    void fail(std::string what) { failures.push_back(std::move(what)); }
};

/// dunnington-suite and ft1024-comm.
[[nodiscard]] Outcome run_suite_workload(const RunConfig& config);
/// fleet-serve.
[[nodiscard]] Outcome run_fleet_workload(const RunConfig& config);
/// Decorated and undecorated run_suite on dempsey at jobs 1 and 4 must give
/// byte-identical profiles and identical Stable counter maps.
[[nodiscard]] Outcome run_transparency_check();

/// Peak resident set of this process, in MiB.
[[nodiscard]] double peak_rss_mb();

}  // namespace perfbench
