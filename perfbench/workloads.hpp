// The four benchmark workloads. Each runs repetitions for Options::seconds,
// checks every repetition's output outside the timed span, and fills the raw
// result (end-to-end samples always; per-layer metrics when Options::trace).
#pragma once

#include "common.hpp"

namespace perfbench {

void run_converge(const Options& opt, RawResult& out);
void run_distributed(const Options& opt, RawResult& out);
void run_stream(const Options& opt, RawResult& out);
void run_control_plane(const Options& opt, RawResult& out);

/// Offset of the second seed every untraced invocation also runs once.
constexpr std::uint64_t kSecondSeedOffset = 1000003;

}  // namespace perfbench
