// fleet-serve: open-loop profile-service traffic against an in-process
// ServeServer (one io thread plus one worker) holding 1024 real serialized
// zoo-machine profiles behind an LRU of 256, so both the memory-hit and
// the disk path run. Two generator threads send with http_fetch on a
// Poisson schedule drawn from --seed (the process stays within four
// threads): 70% revalidations with If-None-Match (nine in ten carry the
// current ETag), 20% full GETs, 10% series PUTs to fresh ticks, with keys
// drawn from a Zipf law whose hot set the seed permutes. Every request is
// timed from the moment it was due, so a stall also charges the requests
// queued behind it, and the generator's own lateness is reported.
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "base/clock.hpp"
#include "base/fs.hpp"
#include "base/hash.hpp"
#include "base/rng.hpp"
#include "core/profile.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "spans.hpp"
#include "watch/watch.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace servet;
using Clock = std::chrono::steady_clock;
using Kind = Metric::Kind;

namespace {

constexpr std::size_t kProfiles = 1024;
constexpr std::size_t kLruEntries = 256;
constexpr int kGenerators = 2;
constexpr int kSetups = 41;
/// Slices of the read step whose medians result_s takes the median of.
constexpr int kReadWindows = 6;
constexpr double kZipfExponent = 1.0;
/// p99 limit of the capacity ladder, in seconds. Series PUTs fsync twice
/// per write, which alone took about 2 ms (serve.put.p50_us) on the 4-vCPU
/// VM the benchmark was set up on, so a 2 ms limit fails every step; 10 ms
/// leaves room for the PUT path and still fails once requests queue.
constexpr double kLatencyLimit = 10e-3;
/// The fixed offered rate of the latency metrics, requests per second.
constexpr double kFixedRate = 500;
const std::vector<double> kLadder = {250, 500, 750, 1000, 1500, 2000, 3000, 4000};
/// Zoo profiles the store's 1024 entries are made from (under the ref dir).
const std::vector<const char*> kZooProfiles = {
    "dunnington.profile", "ft1024.profile", "zoo/athlon3200.profile",
    "zoo/dempsey.profile", "zoo/nehalem2s.profile", "zoo/ft-small.profile",
    "zoo/torus4x4.profile"};

std::string hex16(std::uint64_t value) {
    char buffer[17];
    std::snprintf(buffer, sizeof buffer, "%016llx", static_cast<unsigned long long>(value));
    return buffer;
}

struct Entry {
    std::string fingerprint;
    std::string options;  ///< the current ETag
    std::string body;
};

enum class Op { Revalidate, RevalidateStale, Get, Put };

struct Request {
    double due = 0;  ///< seconds after the step starts
    Op op = Op::Get;
    std::size_t key = 0;
    std::string tick;  ///< Put only
    std::string body;  ///< Put only
};

struct Sample {
    Op op = Op::Get;
    double due = 0;      ///< seconds after the step starts
    double latency = 0;  ///< completion - due, seconds
    double late = 0;     ///< send - due, seconds
    int status = 0;
    bool ok = false;  ///< answered as the store's state requires
};

/// The store's contents: zoo profiles renamed per fleet node, so every
/// body is distinct and parses as a profile.
std::vector<Entry> make_entries(const RunConfig& config, Outcome& outcome) {
    std::vector<core::Profile> zoo;
    for (const char* file : kZooProfiles) {
        std::string text;
        const std::string path = config.ref_dir + "/" + file;
        std::optional<core::Profile> profile;
        if (read_file(path, &text) == FileRead::Ok) profile = core::Profile::parse(text);
        if (!profile) {
            outcome.fail("cannot load zoo profile " + path);
            return {};
        }
        zoo.push_back(std::move(*profile));
    }
    std::vector<Entry> entries(kProfiles);
    for (std::size_t i = 0; i < kProfiles; ++i) {
        core::Profile profile = zoo[i % zoo.size()];
        profile.machine += "/node" + std::to_string(i);
        entries[i].fingerprint = hex16(mix64(0xf1ee7000 + i));
        entries[i].options = hex16(mix64(0x0b7105000 + i));
        entries[i].body = profile.serialize();
    }
    return entries;
}

serve::FetchOptions fetch_options(std::uint16_t port) {
    serve::FetchOptions options;
    options.port = port;
    options.timeout_seconds = 5;
    return options;
}

/// Zipf CDF over ranks, and a seed-drawn rank -> key permutation.
struct KeyDraw {
    std::vector<double> cdf;
    std::vector<std::size_t> key_of_rank;

    explicit KeyDraw(std::uint64_t seed) : cdf(kProfiles), key_of_rank(kProfiles) {
        double total = 0;
        for (std::size_t r = 0; r < kProfiles; ++r) {
            total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent);
            cdf[r] = total;
        }
        for (double& c : cdf) c /= total;
        for (std::size_t k = 0; k < kProfiles; ++k) key_of_rank[k] = k;
        Rng rng(mix64(seed ^ 0x21bf));
        for (std::size_t k = kProfiles - 1; k > 0; --k)
            std::swap(key_of_rank[k], key_of_rank[rng.next_below(k + 1)]);
    }

    [[nodiscard]] std::size_t draw(Rng& rng) const {
        const double u = rng.next_double();
        const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
        return key_of_rank[std::min<std::size_t>(static_cast<std::size_t>(it - cdf.begin()),
                                                 kProfiles - 1)];
    }
};

/// One generator's open-loop schedule for a step: Poisson arrivals at
/// `rate` for `seconds`. Without `writes` the PUT share is left out and
/// the reads keep their 70:20 proportion. `tick_base` keeps every PUT on
/// a fresh tick.
std::vector<Request> make_schedule(std::uint64_t seed, double rate, double seconds,
                                   bool writes, const KeyDraw& keys,
                                   std::uint64_t* tick_base) {
    Rng rng(seed);
    std::vector<Request> schedule;
    double t = 0;
    while (true) {
        t += -std::log(1.0 - rng.next_double()) / rate;
        if (t >= seconds) break;
        Request request;
        request.due = t;
        request.key = keys.draw(rng);
        const double mix = rng.next_double() * (writes ? 1.0 : 0.9);
        if (mix < 0.70) {
            request.op = rng.next_double() < 0.9 ? Op::Revalidate : Op::RevalidateStale;
        } else if (mix < 0.90) {
            request.op = Op::Get;
        } else {
            request.op = Op::Put;
            request.tick = std::to_string(++*tick_base);
            request.body = watch::encode_sample(
                {{"cache.l1.size", 32768.0 * (1.0 + rng.next_double())},
                 {"memory.reference_bandwidth", 1e9 * (1.0 + rng.next_double())}});
        }
        schedule.push_back(std::move(request));
    }
    return schedule;
}

const char* span_name(Op op) {
    switch (op) {
        case Op::Revalidate:
        case Op::RevalidateStale: return "serve.revalidate";
        case Op::Get: return "serve.get";
        case Op::Put: return "serve.put";
    }
    return "";
}

/// Sends one request and checks the answer against the store's state.
Sample send(const Request& request, const std::vector<Entry>& entries, std::uint16_t port) {
    const Entry& entry = entries[request.key];
    serve::FetchOptions options = fetch_options(port);
    switch (request.op) {
        case Op::Revalidate:
            options.path = "/v1/profile/" + entry.fingerprint;
            options.etag = entry.options;
            break;
        case Op::RevalidateStale:
            options.path = "/v1/profile/" + entry.fingerprint;
            options.etag = hex16(mix64(std::stoull(entry.options, nullptr, 16)));
            break;
        case Op::Get:
            options.path = "/v1/profile/" + entry.fingerprint + "/" + entry.options;
            break;
        case Op::Put:
            options.method = "PUT";
            options.path =
                "/v1/series/" + entry.fingerprint + "/" + entry.options + "/" + request.tick;
            options.body = request.body;
            options.content_type = "text/plain";
            break;
    }
    Sample sample;
    sample.op = request.op;
    const serve::FetchResult result = serve::http_fetch(options);
    if (!result.ok) return sample;
    const serve::HttpResponse& response = result.response;
    sample.status = response.status;
    switch (request.op) {
        case Op::Revalidate:
            sample.ok = response.status == 304 && response.etag_token() == entry.options;
            break;
        case Op::RevalidateStale:
        case Op::Get:
            sample.ok = response.status == 200 && response.etag_token() == entry.options &&
                        response.body == entry.body &&
                        core::Profile::parse(response.body).has_value();
            break;
        case Op::Put:
            sample.ok = response.status == 201;
            break;
    }
    return sample;
}

/// Runs one open-loop step at `rate` for `seconds` and returns the samples
/// of both generators, in no particular order. `log` non-null records
/// every http_fetch as a root span.
std::vector<Sample> run_step(double rate, double seconds, bool writes, std::uint64_t seed,
                             const KeyDraw& keys, const std::vector<Entry>& entries,
                             std::uint16_t port, std::uint64_t* tick_base,
                             SpanLog* log = nullptr) {
    std::vector<std::vector<Request>> schedules;
    for (int g = 0; g < kGenerators; ++g)
        schedules.push_back(make_schedule(mix64(seed + static_cast<std::uint64_t>(g)),
                                          rate / kGenerators, seconds, writes, keys,
                                          tick_base));
    std::vector<std::vector<Sample>> samples(kGenerators);
    const auto start = Clock::now() + std::chrono::milliseconds(5);
    {
        std::vector<std::jthread> generators;
        for (int g = 0; g < kGenerators; ++g) {
            generators.emplace_back([&, g] {
                for (const Request& request : schedules[g]) {
                    const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                                 std::chrono::duration<double>(request.due));
                    std::this_thread::sleep_until(due);
                    const auto sent = Clock::now();
                    const std::uint64_t start_ns = monotonic_ns();
                    Sample sample = send(request, entries, port);
                    if (log != nullptr)
                        log->record_root(span_name(request.op), start_ns, monotonic_ns());
                    const auto done = Clock::now();
                    sample.due = request.due;
                    sample.latency = std::chrono::duration<double>(done - due).count();
                    sample.late = std::chrono::duration<double>(sent - due).count();
                    samples[static_cast<std::size_t>(g)].push_back(sample);
                }
            });
        }
    }
    std::vector<Sample> all;
    for (auto& s : samples) all.insert(all.end(), s.begin(), s.end());
    return all;
}

std::vector<double> latencies(const std::vector<Sample>& samples) {
    std::vector<double> out;
    for (const Sample& s : samples) out.push_back(s.latency);
    return out;
}

/// The median over `windows` equal slices of the step (by due time) of
/// each slice's median latency: a burst of host contention spoils a slice,
/// not the result.
double windowed_median(const std::vector<Sample>& samples, double seconds, int windows) {
    std::vector<std::vector<double>> slices(static_cast<std::size_t>(windows));
    for (const Sample& s : samples) {
        const auto slice = static_cast<std::size_t>(s.due / seconds * windows);
        slices[std::min(slice, slices.size() - 1)].push_back(s.latency);
    }
    std::vector<double> medians;
    for (const auto& slice : slices)
        if (!slice.empty()) medians.push_back(quantile(slice, 0.5));
    return quantile(medians, 0.5);
}

/// The profile server over one store directory, which is deleted with it.
struct Fleet {
    std::string store_dir;
    std::unique_ptr<serve::ServeServer> server;

    explicit Fleet(std::string dir) : store_dir(std::move(dir)) {
        std::error_code ignored;
        std::filesystem::remove_all(store_dir, ignored);
    }
    Fleet(const Fleet&) = delete;
    Fleet& operator=(const Fleet&) = delete;
    ~Fleet() {
        stop();
        std::error_code ignored;
        std::filesystem::remove_all(store_dir, ignored);
    }

    /// Starts a server over the store and waits until it answers.
    void start(Outcome& outcome) {
        serve::ServeOptions options;
        options.store_dir = store_dir;
        options.threads = 1;
        options.cache_entries = kLruEntries;
        server = std::make_unique<serve::ServeServer>(options);
        std::string error;
        if (!server->start(&error)) {
            outcome.fail("cannot start the profile server: " + error);
            server.reset();
            return;
        }
        serve::FetchOptions health = fetch_options(server->port());
        health.path = "/v1/healthz";
        const serve::FetchResult result = serve::http_fetch(health);
        if (!result.ok || result.response.status != 200)
            outcome.fail("the profile server does not answer /v1/healthz");
    }

    void stop() {
        if (!server) return;
        server->request_stop();
        server->join();
        server.reset();
    }
};

/// Fills the store through PUT requests, as the fleet's nodes upload.
void fill(const Fleet& fleet, const std::vector<Entry>& entries, Outcome& outcome) {
    for (const Entry& entry : entries) {
        serve::FetchOptions put = fetch_options(fleet.server->port());
        put.method = "PUT";
        put.path = "/v1/profile/" + entry.fingerprint + "/" + entry.options;
        put.body = entry.body;
        put.content_type = "text/plain";
        const serve::FetchResult result = serve::http_fetch(put);
        if (!result.ok || result.response.status != 201) {
            outcome.fail("filling the store failed for " + entry.fingerprint);
            return;
        }
    }
}

/// cache_hits and cache_misses from the public /v1/stats.
std::pair<double, double> lru_counts(std::uint16_t port, Outcome& outcome) {
    serve::FetchOptions options = fetch_options(port);
    options.path = "/v1/stats";
    const serve::FetchResult result = serve::http_fetch(options);
    const auto field = [&](const std::string& name) -> double {
        const std::string key = "\"" + name + "\": ";
        const std::size_t at = result.response.body.find(key);
        if (at == std::string::npos) {
            outcome.fail("/v1/stats has no " + name);
            return 0;
        }
        return std::strtod(result.response.body.c_str() + at + key.size(), nullptr);
    };
    if (!result.ok || result.response.status != 200) {
        outcome.fail("GET /v1/stats failed");
        return {0, 0};
    }
    return {field("cache_hits"), field("cache_misses")};
}

/// Counts the step's operations and turns wrong answers into failures.
void account(const std::vector<Sample>& samples, const char* step, Outcome& outcome) {
    std::size_t wrong = 0;
    for (const Sample& s : samples) {
        ++outcome.attempted;
        if (s.status == 0 || s.status == 503) {
            ++outcome.failed;  // refused or never answered
        } else if (!s.ok) {
            ++outcome.failed;
            ++wrong;
        }
    }
    if (wrong > 0)
        outcome.fail(std::to_string(wrong) + " wrong answers in the " + step + " step");
}

}  // namespace

Outcome run_fleet_workload(const RunConfig& config) {
    Outcome outcome;
    // Every thread of the workload (generators, io thread, worker) shares
    // one CPU, so no request waits for an idle CPU to be woken: on a
    // virtual machine that wake-up is the host's scheduling delay, which
    // made the read median swing by 40% between runs when the threads were
    // free to spread over four CPUs.
    cpu_set_t all;
    CPU_ZERO(&all);
    if (sched_getaffinity(0, sizeof all, &all) == 0) {
        cpu_set_t one;
        CPU_ZERO(&one);
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
            if (CPU_ISSET(cpu, &all)) {
                CPU_SET(cpu, &one);
                break;
            }
        }
        (void)sched_setaffinity(0, sizeof one, &one);
    }
    std::filesystem::create_directories(config.work_dir);
    const std::vector<Entry> entries = make_entries(config, outcome);
    if (!outcome.failures.empty()) return outcome;

    // The store is filled once per run through the public PUT path. Each
    // PUT fsyncs twice, so the fill follows the host disk (it varied from
    // 2 to 7.5 s between consecutive runs) and is reported, not gated.
    // Set-up is a restart of the server over the filled store until it
    // answers, timed several times for a steady median.
    Fleet fleet(config.work_dir + "/fleet-" + std::to_string(::getpid()));
    const auto fill_start = Clock::now();
    fleet.start(outcome);
    if (outcome.failures.empty()) fill(fleet, entries, outcome);
    const double fill_s = std::chrono::duration<double>(Clock::now() - fill_start).count();
    std::vector<double> setup_s;
    for (int i = 0; i < kSetups && outcome.failures.empty(); ++i) {
        fleet.stop();
        const auto start = Clock::now();
        fleet.start(outcome);
        setup_s.push_back(std::chrono::duration<double>(Clock::now() - start).count());
    }
    if (!outcome.failures.empty()) return outcome;
    const std::uint16_t port = fleet.server->port();
    const KeyDraw keys(config.seed);
    std::uint64_t tick = 0;

    if (!config.trace) {
        // The gated latency: reads alone at the fixed rate, so it measures
        // the service rather than the host disk behind the PUTs' fsyncs.
        const double read_seconds = 0.4 * config.seconds;
        const std::vector<Sample> reads = run_step(kFixedRate, read_seconds, false,
                                                   config.seed, keys, entries, port, &tick);
        account(reads, "read", outcome);
        // The full mix at the same rate, writes beside reads.
        const std::vector<Sample> mixed =
            run_step(kFixedRate, 0.3 * config.seconds, true, mix64(config.seed ^ 0x313),
                     keys, entries, port, &tick);
        account(mixed, "mixed", outcome);

        // Capacity: climb the ladder with the full mix until a step misses
        // the p99 limit, fails a request or ends behind schedule.
        double max_rps = 0;
        const double step_seconds = 0.3 * config.seconds / static_cast<double>(kLadder.size());
        for (std::size_t i = 0; i < kLadder.size(); ++i) {
            const std::vector<Sample> step =
                run_step(kLadder[i], step_seconds, true, mix64(config.seed + 1 + i), keys,
                         entries, port, &tick);
            account(step, "ladder", outcome);
            double last_late = 0;
            bool refused = false;
            for (const Sample& s : step) {
                last_late = std::max(last_late, s.late);
                refused = refused || !s.ok;
            }
            if (refused || quantile(latencies(step), 0.99) > kLatencyLimit ||
                last_late > kLatencyLimit)
                break;
            max_rps = kLadder[i];
        }

        outcome.add(Kind::EndToEnd, "setup_s", quantile(setup_s, 0.5), "s", "untraced");
        outcome.add(Kind::EndToEnd, "result_s",
                    windowed_median(reads, read_seconds, kReadWindows), "s", "untraced");
        outcome.add(Kind::Info, "read_p99_ms", 1e3 * quantile(latencies(reads), 0.99), "ms",
                    "untraced");
        outcome.add(Kind::Info, "serve_p50_ms", 1e3 * quantile(latencies(mixed), 0.5), "ms",
                    "untraced");
        outcome.add(Kind::Info, "serve_p99_ms", 1e3 * quantile(latencies(mixed), 0.99), "ms",
                    "untraced");
        outcome.add(Kind::Info, "serve_max_rps", max_rps, "1/s", "untraced");
        outcome.add(Kind::Info, "fill_s", fill_s, "s", "untraced");
        outcome.add(Kind::Info, "read_requests", static_cast<double>(reads.size()), "count",
                    "untraced");
        outcome.add(Kind::Info, "mixed_requests", static_cast<double>(mixed.size()), "count",
                    "untraced");
        return outcome;
    }

    // Traced: an untraced step of the full mix for the overhead baseline,
    // then the same rate with every http_fetch recorded as a span.
    const std::vector<Sample> baseline = run_step(kFixedRate, config.seconds / 2, true,
                                                  config.seed, keys, entries, port, &tick);
    account(baseline, "baseline", outcome);
    const auto [hits_before, misses_before] = lru_counts(port, outcome);
    SpanLog log;
    const std::vector<Sample> traced =
        run_step(kFixedRate, config.seconds / 2, true, mix64(config.seed ^ 0x7ace), keys,
                 entries, port, &tick, &log);
    account(traced, "traced", outcome);
    const auto [hits_after, misses_after] = lru_counts(port, outcome);

    const std::vector<Span> spans = log.spans();
    const auto span_us = [&](const char* name, double q) {
        std::vector<double> us;
        for (const Span& span : spans)
            if (std::string_view(span.name) == name) us.push_back(1e6 * span.seconds());
        return quantile(us, q);
    };
    for (const char* name : {"serve.revalidate", "serve.get", "serve.put"}) {
        outcome.add(Kind::PerLayer, std::string(name) + ".p50_us", span_us(name, 0.50), "us",
                    "traced");
        outcome.add(Kind::PerLayer, std::string(name) + ".p99_us", span_us(name, 0.99), "us",
                    "traced");
    }
    double revalidations = 0;
    double not_modified = 0;
    double shed = 0;
    std::vector<double> late_us;
    for (const Sample& s : traced) {
        if (s.op == Op::Revalidate || s.op == Op::RevalidateStale) {
            ++revalidations;
            if (s.status == 304) ++not_modified;
        }
        if (s.status == 503) ++shed;
        late_us.push_back(1e6 * s.late);
    }
    const double lru_hits = hits_after - hits_before;
    const double lru_lookups = lru_hits + (misses_after - misses_before);
    outcome.add(Kind::PerLayer, "serve.requests", static_cast<double>(traced.size()), "count",
                "traced");
    outcome.add(Kind::PerLayer, "serve.not_modified_ratio",
                revalidations > 0 ? not_modified / revalidations : 0, "ratio", "traced");
    outcome.add(Kind::PerLayer, "serve.lru_hit_ratio",
                lru_lookups > 0 ? lru_hits / lru_lookups : 0, "ratio", "/v1/stats");
    outcome.add(Kind::PerLayer, "serve.lru_lookups", lru_lookups, "count", "/v1/stats");
    outcome.add(Kind::PerLayer, "serve.shed_503", shed, "count", "traced");
    outcome.add(Kind::PerLayer, "serve.gen_late_p99_us", quantile(late_us, 0.99), "us",
                "traced");
    outcome.add(Kind::PerLayer, "obs.trace_overhead_frac",
                quantile(latencies(traced), 0.5) / quantile(latencies(baseline), 0.5) - 1.0,
                "ratio", "computed");
    return outcome;
}

}  // namespace perfbench
