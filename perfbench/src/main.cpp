// perfbench: the repository benchmark. One invocation runs one workload,
// checks every output against the references and the machine model, and
// prints each metric by name with its unit; the last line of stdout is the
// JSON result. See perfbench/README.md.
//
//   perfbench --workload W --seed N --seconds S --trace 0|1 --ref-dir D --work-dir D
//   perfbench --check-transparency
#include <cstdio>
#include <string>
#include <vector>

#include "base/cli.hpp"
#include "base/log.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

/// Every per-layer metric, in print order. A traced run reports all of
/// them; a layer the workload does not reach reports 0.
const std::vector<std::pair<const char*, const char*>>& per_layer_metrics() {
    static const std::vector<std::pair<const char*, const char*>> metrics = {
        {"sim.traverse.calls", "count"},     {"sim.traverse.busy_s", "s"},
        {"sim.bandwidth.busy_s", "s"},       {"sim.fork.busy_s", "s"},
        {"sim.accesses", "count"},
        {"sim.ns_per_access", "ns"},         {"sim.path_lines", "count"},
        {"exec.tasks.run", "count"},         {"exec.memo.hit_ratio", "ratio"},
        {"exec.memo.lookups", "count"},      {"exec.idle_frac", "ratio"},
        {"msg.pingpong.calls", "count"},     {"msg.pingpong.busy_s", "s"},
        {"msg.concurrent.calls", "count"},   {"msg.concurrent.busy_s", "s"},
        {"msg.fork.busy_s", "s"},            {"msg.messages", "count"},
        {"core.cache_size_s", "s"},
        {"core.shared_caches_s", "s"},       {"core.mem_overhead_s", "s"},
        {"core.comm_costs_s", "s"},          {"core.self_s", "s"},
        {"autotune.evals", "count"},         {"autotune.evals_to_best", "count"},
        {"autotune.eval_ms", "ms"},          {"serve.revalidate.p50_us", "us"},
        {"serve.revalidate.p99_us", "us"},   {"serve.get.p50_us", "us"},
        {"serve.get.p99_us", "us"},          {"serve.put.p50_us", "us"},
        {"serve.put.p99_us", "us"},          {"serve.requests", "count"},
        {"serve.not_modified_ratio", "ratio"}, {"serve.lru_hit_ratio", "ratio"},
        {"serve.lru_lookups", "count"},      {"serve.shed_503", "count"},
        {"serve.gen_late_p99_us", "us"},     {"obs.trace_overhead_frac", "ratio"},
    };
    return metrics;
}

const char* kind_label(Metric::Kind kind) {
    switch (kind) {
        case Metric::Kind::EndToEnd: return "end-to-end";
        case Metric::Kind::PerLayer: return "per-layer";
        case Metric::Kind::Info: return "info";
    }
    return "";
}

void print_result(const Outcome& outcome, bool trace) {
    for (const Metric& m : outcome.metrics)
        std::printf("%-11s %-26s %16.6f %-6s (%s)\n", kind_label(m.kind), m.name.c_str(),
                    m.value, m.unit.c_str(), m.source.c_str());
    std::printf("operations: %llu attempted, %llu failed (op_fail_frac %.6f)\n",
                static_cast<unsigned long long>(outcome.attempted),
                static_cast<unsigned long long>(outcome.failed),
                outcome.attempted > 0 ? static_cast<double>(outcome.failed) /
                                            static_cast<double>(outcome.attempted)
                                      : 0.0);
    for (const std::string& failure : outcome.failures)
        std::printf("CHECK FAILED: %s\n", failure.c_str());

    const bool correct = outcome.failures.empty();
    std::string json = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(outcome.attempted) +
                       ", \"failed\": " + std::to_string(outcome.failed) + ", \"metrics\": {";
    auto emit = [&json, first = true](const std::string& name, double value,
                                            const std::string& unit) mutable {
        char buffer[64];
        std::snprintf(buffer, sizeof buffer, "%.17g", value);
        json += std::string(first ? "" : ", ") + "\"" + name + "\": {\"value\": " + buffer +
                ", \"unit\": \"" + unit + "\"}";
        first = false;
    };
    if (correct) {
        if (trace) {
            for (const auto& [name, unit] : per_layer_metrics()) {
                double value = 0;
                for (const Metric& m : outcome.metrics)
                    if (m.kind == Metric::Kind::PerLayer && m.name == name) value = m.value;
                emit(name, value, unit);
            }
        } else {
            for (const Metric& m : outcome.metrics)
                if (m.kind == Metric::Kind::EndToEnd) emit(m.name, m.value, m.unit);
        }
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
}

}  // namespace

int main(int argc, char** argv) {
    servet::CliParser cli("perfbench: the servet repository benchmark.");
    cli.add_option("workload", "dunnington-suite | ft1024-comm | fleet-serve", "");
    cli.add_option("seed", "workload seed (fleet-serve traffic; suite inputs are fixed)", "1");
    cli.add_option("seconds", "measured wall time of one run", "15");
    cli.add_option("trace", "0 = end-to-end metrics, 1 = traced per-layer metrics", "0");
    cli.add_option("ref-dir", "reference outputs", "perfbench/ref");
    cli.add_option("work-dir", "scratch directory for the profile store", ".bench_build/work");
    cli.add_flag("check-transparency", "only run the decorator transparency check");
    if (!cli.parse(argc, argv)) return 2;
    servet::set_log_level(servet::LogLevel::Warn);

    if (cli.flag("check-transparency")) {
        const Outcome outcome = run_transparency_check();
        for (const std::string& failure : outcome.failures)
            std::printf("CHECK FAILED: %s\n", failure.c_str());
        std::printf("transparency: %s\n", outcome.failures.empty() ? "ok" : "FAILED");
        return outcome.failures.empty() ? 0 : 1;
    }

    RunConfig config;
    config.workload = cli.option("workload");
    const auto seed = cli.option_int("seed");
    const auto seconds = cli.option_double("seconds");
    const auto trace = cli.option_int("trace");
    if (!seed || *seed < 0 || !seconds || *seconds <= 0 || !trace || *trace < 0 ||
        *trace > 1) {
        std::fprintf(stderr, "perfbench: --seed >= 0, --seconds > 0 and --trace 0|1\n");
        return 2;
    }
    config.seed = static_cast<std::uint64_t>(*seed);
    config.seconds = *seconds;
    config.trace = *trace == 1;
    config.ref_dir = cli.option("ref-dir");
    config.work_dir = cli.option("work-dir");

    Outcome outcome;
    if (config.workload == "fleet-serve") {
        outcome = run_fleet_workload(config);
    } else {
        outcome = run_suite_workload(config);
    }
    if (!config.trace && outcome.failures.empty())
        outcome.add(Metric::Kind::EndToEnd, "peak_rss_mb", peak_rss_mb(), "MB", "untraced");
    print_result(outcome, config.trace);
    return outcome.failures.empty() ? 0 : 1;
}
