// Forwarding decorators that time each call into the simulator (through
// Platform) and the message layer (through msg::Network) at the public
// interface, recording one span per call. They forward name, fingerprint,
// forkable and fork, and re-apply themselves around every replica, so the
// measurement memo, the per-task forks and the inner platform's engine
// selection behave exactly as without them.
#pragma once

#include <memory>

#include "msg/network.hpp"
#include "platform/platform.hpp"
#include "spans.hpp"

namespace perfbench {

class TimedPlatform final : public servet::Platform {
  public:
    /// `inner` and `log` must outlive this decorator.
    TimedPlatform(servet::Platform& inner, SpanLog& log) : inner_(&inner), log_(&log) {}

    [[nodiscard]] std::string name() const override { return inner_->name(); }
    [[nodiscard]] int core_count() const override { return inner_->core_count(); }
    [[nodiscard]] servet::Bytes page_size() const override { return inner_->page_size(); }
    [[nodiscard]] std::uint64_t fingerprint() const override { return inner_->fingerprint(); }
    [[nodiscard]] bool forkable() const override { return inner_->forkable(); }
    [[nodiscard]] std::unique_ptr<servet::Platform> fork(
        std::uint64_t noise_salt, std::uint64_t placement_salt) const override;

    [[nodiscard]] servet::Cycles traverse_cycles(servet::CoreId core,
                                                 servet::Bytes array_bytes,
                                                 servet::Bytes stride, int passes,
                                                 bool fresh_placement) override;
    [[nodiscard]] std::vector<servet::Cycles> traverse_cycles_concurrent(
        const std::vector<servet::CoreId>& cores, servet::Bytes array_bytes,
        servet::Bytes stride, int passes, bool fresh_placement) override;
    [[nodiscard]] servet::BytesPerSecond copy_bandwidth(servet::CoreId core,
                                                        servet::Bytes array_bytes) override;
    [[nodiscard]] std::vector<servet::BytesPerSecond> copy_bandwidth_concurrent(
        const std::vector<servet::CoreId>& cores, servet::Bytes array_bytes) override;

  private:
    TimedPlatform(std::unique_ptr<servet::Platform> owned, SpanLog& log)
        : inner_(owned.get()), owned_(std::move(owned)), log_(&log) {}

    servet::Platform* inner_;
    std::unique_ptr<servet::Platform> owned_;  ///< set on forked replicas only
    SpanLog* log_;
};

class TimedNetwork final : public servet::msg::Network {
  public:
    /// `inner` and `log` must outlive this decorator.
    TimedNetwork(servet::msg::Network& inner, SpanLog& log) : inner_(&inner), log_(&log) {}

    [[nodiscard]] std::string name() const override { return inner_->name(); }
    [[nodiscard]] std::uint64_t fingerprint() const override { return inner_->fingerprint(); }
    [[nodiscard]] bool forkable() const override { return inner_->forkable(); }
    [[nodiscard]] std::unique_ptr<servet::msg::Network> fork(
        std::uint64_t noise_salt) const override;
    [[nodiscard]] int endpoint_count() const override { return inner_->endpoint_count(); }

    [[nodiscard]] servet::Seconds pingpong_latency(servet::CorePair pair, servet::Bytes size,
                                                   int reps) override;
    [[nodiscard]] std::vector<servet::Seconds> concurrent_latency(
        const std::vector<servet::CorePair>& pairs, servet::Bytes size, int reps) override;

  private:
    TimedNetwork(std::unique_ptr<servet::msg::Network> owned, SpanLog& log)
        : inner_(owned.get()), owned_(std::move(owned)), log_(&log) {}

    servet::msg::Network* inner_;
    std::unique_ptr<servet::msg::Network> owned_;  ///< set on forked replicas only
    SpanLog* log_;
};

}  // namespace perfbench
