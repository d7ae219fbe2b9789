// Suite workloads: run_suite on a modelled machine to a checked profile,
// then (where the profile supports it) the guided four-kernel tune primed
// with that profile.
//
//   dunnington-suite  the paper's 24-core flagship at --jobs 4: every
//                     cache-side layer at full pool width; the simulator
//                     state does not fit host caches.
//   ft1024-comm       the comm-only cluster path of the 1024-rank
//                     fat-tree at --jobs 1: no cache traversals, no pool
//                     parallelism; msg, interconnect and core/stats work.
//
// Both are seeded model runs: the machine seed is fixed by the zoo, so
// --seed does not change their inputs, and their profiles are compared
// byte for byte with references captured at the parent commit.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>

#include "autotune/kernels/kernels.hpp"
#include "autotune/search/strategy.hpp"
#include "base/fs.hpp"
#include "core/cluster.hpp"
#include "core/measure.hpp"
#include "core/suite.hpp"
#include "exec/pool.hpp"
#include "msg/sim_network.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "platform/sim_platform.hpp"
#include "sim/zoo.hpp"
#include "timed.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace servet;
using Clock = std::chrono::steady_clock;
using Kind = Metric::Kind;

namespace {

struct SuiteWorkload {
    const char* name;
    std::function<sim::MachineSpec()> machine;
    int jobs;
    bool tune;            ///< run the four-kernel tune after the profile
    const char* profile;  ///< reference profile under the ref dir
};

const std::vector<SuiteWorkload>& suite_workloads() {
    static const std::vector<SuiteWorkload> workloads = {
        {"dunnington-suite", [] { return sim::zoo::dunnington(); }, 4, true,
         "dunnington.profile"},
        {"ft1024-comm", [] { return sim::zoo::fat_tree_cluster(3); }, 1, false,
         "ft1024.profile"},
    };
    return workloads;
}

double since(Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Everything a suite run needs, built the way `servet profile` builds it.
struct Stack {
    sim::MachineSpec spec;
    std::unique_ptr<SimPlatform> platform;
    std::unique_ptr<msg::SimNetwork> network;
    std::unique_ptr<TimedPlatform> timed_platform;
    std::unique_ptr<TimedNetwork> timed_network;
    core::SuiteOptions options;

    [[nodiscard]] Platform& top() {
        return timed_platform ? static_cast<Platform&>(*timed_platform) : *platform;
    }
    [[nodiscard]] msg::Network* top_network() {
        if (timed_network) return timed_network.get();
        return network.get();
    }
    [[nodiscard]] bool cluster() const { return spec.topology.enabled(); }
};

/// `log` non-null wraps the substrates in the timing decorators.
Stack make_stack(const sim::MachineSpec& spec, int jobs, SpanLog* log) {
    Stack stack;
    stack.spec = spec;
    stack.platform = std::make_unique<SimPlatform>(spec);
    if (spec.n_cores > 1) stack.network = std::make_unique<msg::SimNetwork>(spec);
    if (log != nullptr) {
        stack.timed_platform = std::make_unique<TimedPlatform>(*stack.platform, *log);
        if (stack.network)
            stack.timed_network = std::make_unique<TimedNetwork>(*stack.network, *log);
    }
    stack.options.jobs = jobs;
    if (stack.cluster()) {
        stack.options.run_cache_size = false;
        stack.options.comm.probe_pairs =
            core::cluster_probe_pairs(stack.spec, stack.options.comm);
    }
    return stack;
}

/// The profile as `servet profile --no-timing` writes it.
core::Profile profile_of(const core::SuiteResult& result, Stack& stack) {
    core::Profile profile = result.to_profile(stack.top().name(), stack.top().core_count(),
                                              stack.top().page_size());
    if (stack.cluster()) core::annotate_cluster_profile(&profile, stack.spec);
    profile.phase_seconds.clear();
    return profile;
}

std::string read_reference(const RunConfig& config, const std::string& file,
                           Outcome& outcome) {
    std::string text;
    if (read_file(config.ref_dir + "/" + file, &text) != FileRead::Ok)
        outcome.fail("cannot read reference " + config.ref_dir + "/" + file);
    return text;
}

std::vector<std::vector<CoreId>> sorted_groups(std::vector<std::vector<CoreId>> groups) {
    for (auto& group : groups) std::sort(group.begin(), group.end());
    std::sort(groups.begin(), groups.end());
    return groups;
}

/// Detected cache sizes, sharing groups and comm-layer count against the
/// machine's ground truth.
void check_against_spec(const core::Profile& profile, const sim::MachineSpec& spec,
                        Outcome& outcome) {
    if (!spec.topology.enabled()) {
        if (profile.caches.size() != spec.levels.size()) {
            outcome.fail("detected " + std::to_string(profile.caches.size()) +
                         " cache levels, the machine has " +
                         std::to_string(spec.levels.size()));
        } else {
            for (std::size_t i = 0; i < spec.levels.size(); ++i) {
                const sim::CacheLevelSpec& level = spec.levels[i];
                if (profile.caches[i].size != level.geometry.size)
                    outcome.fail(level.name + " size " +
                                 std::to_string(profile.caches[i].size) + " != " +
                                 std::to_string(level.geometry.size));
                const bool shared =
                    std::any_of(level.instances.begin(), level.instances.end(),
                                [](const auto& instance) { return instance.size() > 1; });
                const auto expected = shared ? sorted_groups(level.instances)
                                             : std::vector<std::vector<CoreId>>{};
                if (sorted_groups(profile.caches[i].groups) != expected)
                    outcome.fail(level.name + " sharing groups differ from the machine's");
            }
        }
    }
    std::size_t layers = spec.comm_layers.size();
    if (spec.topology.enabled()) {
        layers = static_cast<std::size_t>(std::count_if(
                     spec.comm_layers.begin(), spec.comm_layers.end(),
                     [](const sim::CommLayerSpec& layer) {
                         return layer.scope.kind != sim::CommScope::Kind::InterNode;
                     })) +
                 spec.topology.tiers.size();
    }
    if (profile.comm.size() != layers)
        outcome.fail("detected " + std::to_string(profile.comm.size()) +
                     " comm layers, the machine has " + std::to_string(layers));
}

/// One run_suite to a checked profile.
struct ProfileRun {
    double seconds = 0;
    core::Profile profile;
    std::map<std::string, Seconds> phase_seconds;
};

ProfileRun run_profile(Stack& stack, const std::string& reference, SpanLog* log,
                       Outcome& outcome) {
    ProfileRun run;
    core::SuiteResult result;
    const auto start = Clock::now();
    {
        std::optional<SpanLog::Operation> op;
        if (log != nullptr) op.emplace(*log, "core.run_suite");
        result = core::run_suite(stack.top(), stack.top_network(), stack.options);
    }
    run.seconds = since(start);
    std::set<std::string> phases;
    for (const auto& [phase, seconds] : result.phase_seconds) phases.insert(phase);
    for (const core::PhaseError& error : result.errors) {
        phases.insert(error.phase);
        outcome.fail("phase " + error.phase + " failed: " + error.message);
    }
    outcome.attempted += phases.size();
    outcome.failed += result.errors.size();

    run.profile = profile_of(result, stack);
    if (run.profile.serialize() != reference)
        outcome.fail("profile of " + stack.spec.name + " differs from the reference");
    check_against_spec(run.profile, stack.spec, outcome);
    run.phase_seconds = result.phase_seconds;
    return run;
}

/// The guided search over the whole space of each of the four kernels,
/// primed with `profile` and measured on the stack's machine.
struct TuneRun {
    double seconds = 0;
    std::string winners;  ///< one line per kernel, compared with the reference
    std::size_t evals = 0;
    std::size_t evals_to_best = 0;
    std::vector<double> eval_ms;  ///< per search: wall time / evaluations
};

TuneRun run_tune(Stack& stack, const core::Profile& profile, int jobs, SpanLog* log,
                 Outcome& outcome) {
    TuneRun run;
    std::unique_ptr<exec::ThreadPool> pool;
    if (jobs > 1) pool = std::make_unique<exec::ThreadPool>(jobs - 1);
    core::MeasureEngine engine(&stack.top(), stack.top_network(), pool.get(), nullptr);
    const auto start = Clock::now();
    for (const std::string& name : autotune::kernels::kernel_names()) {
        ++outcome.attempted;
        const auto kernel =
            autotune::kernels::make_kernel(name, profile, stack.top().core_count());
        if (!kernel) {
            ++outcome.failed;
            outcome.fail("kernel " + name + " cannot be built from the profile");
            continue;
        }
        autotune::search::SearchOptions options;
        options.strategy = autotune::search::Strategy::Guided;
        options.engine = &engine;
        const auto search_start = Clock::now();
        std::optional<autotune::search::SearchResult> result;
        {
            std::optional<SpanLog::Operation> op;
            if (log != nullptr) op.emplace(*log, "autotune.run_search");
            result = autotune::search::run_search(*kernel, options);
        }
        const double search_seconds = since(search_start);
        if (!result) {
            ++outcome.failed;
            outcome.fail("kernel " + name + " admits no configuration");
            continue;
        }
        char line[256];
        std::snprintf(line, sizeof line, "%s best %s cost %.17g evals %zu evals_to_best %zu\n",
                      name.c_str(), result->best.key().c_str(), result->best_cost,
                      result->evals, result->evals_to_best);
        run.winners += line;
        run.evals += result->evals;
        run.evals_to_best += result->evals_to_best;
        run.eval_ms.push_back(1e3 * search_seconds / static_cast<double>(result->evals));
    }
    run.seconds = since(start);
    return run;
}

std::uint64_t delta(const std::map<std::string, std::uint64_t>& before,
                    const std::map<std::string, std::uint64_t>& after,
                    const std::string& name) {
    const auto a = after.find(name);
    if (a == after.end()) return 0;
    const auto b = before.find(name);
    return a->second - (b == before.end() ? 0 : b->second);
}

double median(const std::vector<double>& values) { return quantile(values, 0.5); }

/// Modelled cache lines on one core's path: every level's capacity in lines.
double path_lines(const sim::MachineSpec& spec) {
    double lines = 0;
    for (const sim::CacheLevelSpec& level : spec.levels)
        lines += static_cast<double>(level.geometry.size / level.geometry.line_size);
    return lines;
}

/// Untraced: repeat set-up, profile and tune until --seconds have passed
/// (at least once), reporting medians.
void measure_untraced(const SuiteWorkload& workload, const RunConfig& config,
                      const std::string& reference, const std::string& tune_reference,
                      Outcome& outcome) {
    const sim::MachineSpec spec = workload.machine();
    // Set-up is cheap next to a profile: time it several times so its
    // median is steady, then keep one stack per profile run.
    constexpr int kSetups = 25;
    std::vector<double> setup_s;
    for (int i = 0; i < kSetups; ++i) {
        const auto start = Clock::now();
        const Stack stack = make_stack(spec, workload.jobs, nullptr);
        setup_s.push_back(since(start));
    }
    std::vector<double> profile_s;
    std::vector<double> tune_s;
    std::vector<double> result_s;
    const auto deadline = Clock::now() + std::chrono::duration<double>(config.seconds);
    do {
        const auto start = Clock::now();
        Stack stack = make_stack(spec, workload.jobs, nullptr);
        setup_s.push_back(since(start));
        const ProfileRun profile = run_profile(stack, reference, nullptr, outcome);
        profile_s.push_back(profile.seconds);
        double total = profile.seconds;
        if (workload.tune) {
            const TuneRun tune =
                run_tune(stack, profile.profile, workload.jobs, nullptr, outcome);
            if (tune.winners != tune_reference)
                outcome.fail("tune winners differ from the reference:\n" + tune.winners);
            tune_s.push_back(tune.seconds);
            total += tune.seconds;
        }
        result_s.push_back(total);
    } while (Clock::now() < deadline && outcome.failures.empty());

    outcome.add(Kind::EndToEnd, "setup_s", median(setup_s), "s", "untraced");
    outcome.add(Kind::EndToEnd, "result_s", median(result_s), "s", "untraced");
    outcome.add(Kind::Info, "profile_s", median(profile_s), "s", "untraced");
    if (workload.tune) outcome.add(Kind::Info, "tune_s", median(tune_s), "s", "untraced");
    outcome.add(Kind::Info, "profile_runs", static_cast<double>(profile_s.size()), "count",
                "untraced");
}

/// Traced: one untraced profile for the overhead baseline, then one
/// decorated, traced set-up + profile (+ tune) for the per-layer numbers.
void measure_traced(const SuiteWorkload& workload, const std::string& reference,
                    const std::string& tune_reference, Outcome& outcome) {
    const sim::MachineSpec spec = workload.machine();
    double untraced_profile_s = 0;
    {
        Stack stack = make_stack(spec, workload.jobs, nullptr);
        untraced_profile_s = run_profile(stack, reference, nullptr, outcome).seconds;
    }

    SpanLog log;
    obs::tracer().reset();
    obs::tracer().set_enabled(true);
    const auto counters_before = obs::registry().stable_counters();
    Stack stack = make_stack(spec, workload.jobs, &log);
    const ProfileRun profile = run_profile(stack, reference, &log, outcome);
    TuneRun tune;
    if (workload.tune) {
        tune = run_tune(stack, profile.profile, workload.jobs, &log, outcome);
        if (tune.winners != tune_reference)
            outcome.fail("tune winners differ from the reference:\n" + tune.winners);
    }
    obs::tracer().set_enabled(false);
    const auto counters_after = obs::registry().stable_counters();
    const std::vector<Span> spans = log.spans();
    const auto count = [&](const std::string& name) {
        return static_cast<double>(delta(counters_before, counters_after, name));
    };

    // sim: the whole traced pass (profile and tune both drive the engine).
    const double traverse_busy = busy_seconds(spans, "sim.traverse");
    const double accesses = count("sim.cache.L1.hits") + count("sim.cache.L1.misses");
    outcome.add(Kind::PerLayer, "sim.traverse.calls", count("sim.traverse.calls"), "count",
                "stable counter");
    outcome.add(Kind::PerLayer, "sim.traverse.busy_s", traverse_busy, "s", "traced");
    outcome.add(Kind::PerLayer, "sim.bandwidth.busy_s", busy_seconds(spans, "sim.bandwidth"),
                "s", "traced");
    outcome.add(Kind::PerLayer, "sim.fork.busy_s", busy_seconds(spans, "sim.fork"), "s",
                "traced");
    outcome.add(Kind::PerLayer, "sim.accesses", accesses, "count", "stable counter");
    outcome.add(Kind::PerLayer, "sim.ns_per_access",
                accesses > 0 ? 1e9 * traverse_busy / accesses : 0, "ns", "computed");
    outcome.add(Kind::PerLayer, "sim.path_lines", path_lines(spec), "count", "computed");

    // exec: idle share of the pool's slots during the profile.
    double profile_busy = 0;
    std::uint64_t suite_op = 0;
    for (const Span& span : spans)
        if (std::string_view(span.name) == "core.run_suite") suite_op = span.op;
    for (const Span& span : spans) {
        const std::string_view name(span.name);
        if (span.op == suite_op && (name.starts_with("sim.") || name.starts_with("msg.")))
            profile_busy += span.seconds();
    }
    const double memo_hits = count("exec.memo.hits");
    const double memo_lookups = memo_hits + count("exec.memo.misses");
    outcome.add(Kind::PerLayer, "exec.tasks.run", count("exec.tasks.run"), "count",
                "stable counter");
    outcome.add(Kind::PerLayer, "exec.memo.hit_ratio",
                memo_lookups > 0 ? memo_hits / memo_lookups : 0, "ratio", "stable counter");
    outcome.add(Kind::PerLayer, "exec.memo.lookups", memo_lookups, "count", "stable counter");
    outcome.add(Kind::PerLayer, "exec.idle_frac",
                1.0 - profile_busy / (workload.jobs * profile.seconds), "ratio", "computed");

    // msg.
    outcome.add(Kind::PerLayer, "msg.pingpong.calls", count("msg.pingpong.calls"), "count",
                "stable counter");
    outcome.add(Kind::PerLayer, "msg.pingpong.busy_s", busy_seconds(spans, "msg.pingpong"),
                "s", "traced");
    outcome.add(Kind::PerLayer, "msg.concurrent.calls", count("msg.concurrent.calls"),
                "count", "stable counter");
    outcome.add(Kind::PerLayer, "msg.concurrent.busy_s", busy_seconds(spans, "msg.concurrent"),
                "s", "traced");
    outcome.add(Kind::PerLayer, "msg.fork.busy_s", busy_seconds(spans, "msg.fork"), "s",
                "traced");
    outcome.add(Kind::PerLayer, "msg.messages", count("msg.messages"), "count",
                "stable counter");

    // core: phase wall time, and the part of it no sim or msg call covers
    // (detection, probe-pair sampling, stats clustering).
    const auto phase = [&](const char* name) {
        const auto it = profile.phase_seconds.find(name);
        return it == profile.phase_seconds.end() ? 0.0 : it->second;
    };
    outcome.add(Kind::PerLayer, "core.cache_size_s", phase("cache_size"), "s", "SuiteResult");
    outcome.add(Kind::PerLayer, "core.shared_caches_s", phase("shared_caches"), "s",
                "SuiteResult");
    outcome.add(Kind::PerLayer, "core.mem_overhead_s", phase("mem_overhead"), "s",
                "SuiteResult");
    outcome.add(Kind::PerLayer, "core.comm_costs_s", phase("comm_costs"), "s", "SuiteResult");
    Intervals phases;
    for (const obs::SpanEvent& event : obs::tracer().snapshot())
        if (std::string_view(event.name).starts_with("phase/"))
            phases.emplace_back(event.start_ns, event.end_ns);
    Intervals children;
    for (const Span& span : spans) {
        const std::string_view name(span.name);
        if (name.starts_with("sim.") || name.starts_with("msg."))
            children.emplace_back(span.start_ns, span.end_ns);
    }
    const Intervals phase_union = merge(std::move(phases));
    outcome.add(Kind::PerLayer, "core.self_s",
                length_seconds(phase_union) - overlap_seconds(phase_union, merge(children)),
                "s", "traced");

    // autotune.
    outcome.add(Kind::PerLayer, "autotune.evals", static_cast<double>(tune.evals), "count",
                "SearchResult");
    outcome.add(Kind::PerLayer, "autotune.evals_to_best",
                static_cast<double>(tune.evals_to_best), "count", "SearchResult");
    outcome.add(Kind::PerLayer, "autotune.eval_ms", median(tune.eval_ms), "ms", "traced");

    outcome.add(Kind::PerLayer, "obs.trace_overhead_frac",
                profile.seconds / untraced_profile_s - 1.0, "ratio", "computed");
    outcome.add(Kind::Info, "profile_s (traced)", profile.seconds, "s", "traced");
    outcome.add(Kind::Info, "profile_s (untraced)", untraced_profile_s, "s", "untraced");
    if (obs::tracer().dropped() > 0) outcome.fail("the obs trace dropped events");
}

}  // namespace

Outcome run_suite_workload(const RunConfig& config) {
    Outcome outcome;
    const auto it =
        std::find_if(suite_workloads().begin(), suite_workloads().end(),
                     [&](const SuiteWorkload& w) { return config.workload == w.name; });
    if (it == suite_workloads().end()) {
        outcome.fail("unknown workload " + config.workload);
        return outcome;
    }
    const std::string reference = read_reference(config, it->profile, outcome);
    const std::string tune_reference =
        it->tune ? read_reference(config, std::string(it->name) + ".tune", outcome) : "";
    if (!outcome.failures.empty()) return outcome;
    if (config.trace)
        measure_traced(*it, reference, tune_reference, outcome);
    else
        measure_untraced(*it, config, reference, tune_reference, outcome);
    return outcome;
}

Outcome run_transparency_check() {
    Outcome outcome;
    const sim::MachineSpec spec = sim::zoo::dempsey();
    for (const int jobs : {1, 4}) {
        SpanLog log;
        Stack plain = make_stack(spec, jobs, nullptr);
        Stack timed = make_stack(spec, jobs, &log);
        const core::SuiteResult a =
            core::run_suite(plain.top(), plain.top_network(), plain.options);
        const core::SuiteResult b =
            core::run_suite(timed.top(), timed.top_network(), timed.options);
        outcome.attempted += 2;
        const std::string where = "dempsey at jobs " + std::to_string(jobs);
        if (a.partial() || b.partial()) {
            ++outcome.failed;
            outcome.fail(where + ": a phase failed");
        }
        if (profile_of(a, plain).serialize() != profile_of(b, timed).serialize())
            outcome.fail(where + ": the decorated profile differs");
        if (a.counters != b.counters)
            outcome.fail(where + ": the decorated Stable counters differ");
        // Measurements run on replicas, so these spans exist only when fork()
        // re-applied the decorators.
        const std::vector<Span> spans = log.spans();
        for (const char* name : {"sim.traverse", "msg.pingpong"})
            if (busy_seconds(spans, name) <= 0)
                outcome.fail(where + ": no " + name + " span recorded");
    }
    return outcome;
}

double peak_rss_mb() {
    rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

}  // namespace perfbench
