#pragma once
/// \file host_speed.hpp
/// Measures how fast a shared host is running the benchmark right now, so a
/// run that lands in a slow phase can be put on the same scale as one that
/// did not. The probe times a fixed loop of the benchmark's own on the
/// benchmark's thread, between timed blocks, never inside one. It must run
/// there: a probe on an otherwise idle core reads that core's speed, not the
/// busy core's (see perfbench/README.md). The loop shares no code with the
/// library, so a change to the program cannot move it; only the host's speed
/// does.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

class HostSpeed {
 public:
  /// One loop's time at the reference host's usual speed (a shared 4-vCPU
  /// Xeon VM at 2.1 GHz; see perfbench/README.md). slowdown = time / this,
  /// so reference-host seconds are what a block would take at that speed.
  static constexpr double kReferenceS = 0.0006;
  /// Loops per probe; a probe reports their median.
  static constexpr int kLoops = 5;

  /// Builds the loop's 1 MB random cycle, once.
  HostSpeed() : next_(kEntries) {
    std::vector<std::uint32_t> order(kEntries);
    std::iota(order.begin(), order.end(), 0u);
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (std::uint32_t i = kEntries - 1; i > 0; --i) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      std::swap(order[i], order[static_cast<std::uint32_t>(x >> 33) % (i + 1)]);
    }
    for (std::uint32_t i = 0; i < kEntries; ++i) {
      next_[order[i]] = order[(i + 1) % kEntries];
    }
  }

  /// The host's slowdown against the reference host, now, on this thread.
  double probe() {
    double t[kLoops];
    for (double& v : t) v = loop();
    std::nth_element(t, t + kLoops / 2, t + kLoops);
    return t[kLoops / 2] / kReferenceS;
  }

 private:
  /// A dependent walk over the cycle (cache and TLB latency, like the route
  /// maps and event queues), then integer mixing (core speed). It allocates
  /// nothing and touches 1 MB, so it leaves most of the program's caches as
  /// they were.
  double loop() {
    const auto t0 = Clock::now();
    std::uint32_t at = 0;
    for (int i = 0; i < 40000; ++i) at = next_[at];
    std::uint64_t h = at;
    for (int i = 0; i < 150000; ++i) h = (h ^ (h >> 29)) * 0xbf58476d1ce4e5b9ULL + i;
    sink_ = h;
    return seconds_since(t0);
  }

  static constexpr std::uint32_t kEntries = 1u << 18;  // 1 MB of uint32
  std::vector<std::uint32_t> next_;
  volatile std::uint64_t sink_ = 0;
};

}  // namespace perfbench
