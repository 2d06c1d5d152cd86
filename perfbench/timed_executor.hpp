// TimedExecutor — the traced runs' AgentExecutor decorator. It forwards every
// call to the wrapped executor (LocalAgentExecutor in-process,
// RemoteAgentExecutor over the control plane) and times each one from the
// runtime's side, keyed by control-message type, so agent work and remote
// round trips are separated from the runtime's own event loop without
// touching the runtime.
#pragma once

#include <array>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.hpp"
#include "hypervisor/agent.hpp"
#include "hypervisor/communicator.hpp"

namespace perfbench {

class TimedExecutor final : public score::hypervisor::AgentExecutor {
 public:
  /// Delivery kinds: the five CtrlMsg types, then probe-timer firings.
  static constexpr std::size_t kKinds = 6;
  static constexpr std::array<const char*, kKinds> kKindNames = {
      "token",           "location_request",  "location_response",
      "capacity_request", "capacity_response", "probe_timer"};

  /// `keep_latencies` also keeps every call's latency (for percentiles);
  /// off where the call count runs into millions.
  TimedExecutor(score::hypervisor::AgentExecutor& inner, bool keep_latencies)
      : inner_(&inner), keep_latencies_(keep_latencies) {}

  void start(score::hypervisor::RuntimeCore& core) override {
    const auto t = Clock::now();
    inner_->start(core);
    start_s_ += seconds_since(t);
  }
  void deliver(const score::sim::Message& msg) override {
    const auto t = Clock::now();
    inner_->deliver(msg);
    record(kind_of(msg.type), seconds_since(t));
  }
  void fire_probe_timer(score::topo::HostId host, std::uint32_t nonce,
                        int stage) override {
    const auto t = Clock::now();
    inner_->fire_probe_timer(host, nonce, stage);
    record(kKinds - 1, seconds_since(t));
  }
  void host_left(score::topo::HostId host) override { inner_->host_left(host); }
  void host_joined(score::topo::HostId host) override {
    inner_->host_joined(host);
  }
  void finish() override {
    const auto t = Clock::now();
    inner_->finish();
    finish_s_ += seconds_since(t);
  }

  double start_s() const { return start_s_; }
  double finish_s() const { return finish_s_; }
  double busy_s() const {
    double s = 0.0;
    for (const double v : busy_s_) s += v;
    return s;
  }
  /// Per-call latencies of every delivery and timer firing, in µs (empty
  /// unless kept).
  const std::vector<double>& latencies_us() const { return latencies_us_; }

  /// hypervisor.agent_s[.<kind>], hypervisor.deliveries[.<kind>] and the
  /// executor start/finish spans.
  void report(RawResult& out) const {
    std::uint64_t calls = 0;
    for (std::size_t k = 0; k < kKinds; ++k) {
      out.layer(std::string("hypervisor.agent_s.") + kKindNames[k], busy_s_[k], "s");
      out.layer(std::string("hypervisor.deliveries.") + kKindNames[k],
                static_cast<double>(calls_[k]), "count");
      calls += calls_[k];
    }
    out.layer("hypervisor.agent_s", busy_s(), "s");
    out.layer("hypervisor.deliveries", static_cast<double>(calls), "count");
    out.layer("hypervisor.executor_start_s", start_s_, "s");
    out.layer("hypervisor.executor_finish_s", finish_s_, "s");
  }

 private:
  static std::size_t kind_of(int type) {
    // CtrlMsg values are 1..5; anything else is a protocol change the
    // benchmark must notice rather than miscount.
    if (type < 1 || type > 5) {
      throw std::logic_error("unknown CtrlMsg type " + std::to_string(type));
    }
    return static_cast<std::size_t>(type - 1);
  }
  void record(std::size_t kind, double s) {
    busy_s_[kind] += s;
    ++calls_[kind];
    if (keep_latencies_) latencies_us_.push_back(1e6 * s);
  }

  score::hypervisor::AgentExecutor* inner_;
  bool keep_latencies_;
  double start_s_ = 0.0;
  double finish_s_ = 0.0;
  std::array<double, kKinds> busy_s_{};
  std::array<std::uint64_t, kKinds> calls_{};
  std::vector<double> latencies_us_;
};

}  // namespace perfbench
