#include "timed.hpp"

namespace perfbench {

std::unique_ptr<servet::Platform> TimedPlatform::fork(std::uint64_t noise_salt,
                                                      std::uint64_t placement_salt) const {
    const SpanLog::Scope span(*log_, "sim.fork");
    std::unique_ptr<servet::Platform> replica = inner_->fork(noise_salt, placement_salt);
    if (!replica) return nullptr;
    return std::unique_ptr<servet::Platform>(new TimedPlatform(std::move(replica), *log_));
}

servet::Cycles TimedPlatform::traverse_cycles(servet::CoreId core, servet::Bytes array_bytes,
                                              servet::Bytes stride, int passes,
                                              bool fresh_placement) {
    const SpanLog::Scope span(*log_, "sim.traverse");
    return inner_->traverse_cycles(core, array_bytes, stride, passes, fresh_placement);
}

std::vector<servet::Cycles> TimedPlatform::traverse_cycles_concurrent(
    const std::vector<servet::CoreId>& cores, servet::Bytes array_bytes, servet::Bytes stride,
    int passes, bool fresh_placement) {
    const SpanLog::Scope span(*log_, "sim.traverse");
    return inner_->traverse_cycles_concurrent(cores, array_bytes, stride, passes,
                                              fresh_placement);
}

servet::BytesPerSecond TimedPlatform::copy_bandwidth(servet::CoreId core,
                                                     servet::Bytes array_bytes) {
    const SpanLog::Scope span(*log_, "sim.bandwidth");
    return inner_->copy_bandwidth(core, array_bytes);
}

std::vector<servet::BytesPerSecond> TimedPlatform::copy_bandwidth_concurrent(
    const std::vector<servet::CoreId>& cores, servet::Bytes array_bytes) {
    const SpanLog::Scope span(*log_, "sim.bandwidth");
    return inner_->copy_bandwidth_concurrent(cores, array_bytes);
}

std::unique_ptr<servet::msg::Network> TimedNetwork::fork(std::uint64_t noise_salt) const {
    const SpanLog::Scope span(*log_, "msg.fork");
    std::unique_ptr<servet::msg::Network> replica = inner_->fork(noise_salt);
    if (!replica) return nullptr;
    return std::unique_ptr<servet::msg::Network>(new TimedNetwork(std::move(replica), *log_));
}

servet::Seconds TimedNetwork::pingpong_latency(servet::CorePair pair, servet::Bytes size,
                                               int reps) {
    const SpanLog::Scope span(*log_, "msg.pingpong");
    return inner_->pingpong_latency(pair, size, reps);
}

std::vector<servet::Seconds> TimedNetwork::concurrent_latency(
    const std::vector<servet::CorePair>& pairs, servet::Bytes size, int reps) {
    const SpanLog::Scope span(*log_, "msg.concurrent");
    return inner_->concurrent_latency(pairs, size, reps);
}

}  // namespace perfbench
