#include "hfast/netsim/replay.hpp"

#include <queue>

#include "replay_detail.hpp"

namespace hfast::netsim {

namespace {

struct QueueEntry {
  double clock;
  int rank;
  /// (clock, rank) lexicographic. Breaking equal-clock ties by rank pins
  /// the schedule — and therefore every float accumulation order — to a
  /// total order no stdlib heap layout can perturb, which is also the
  /// order the parallel replay's sequencer reproduces.
  bool operator>(const QueueEntry& o) const {
    if (clock != o.clock) return clock > o.clock;
    return rank > o.rank;
  }
};

}  // namespace

ReplayResult replay(const trace::Trace& trace, Network& net,
                    const ReplayParams& params) {
  return replay(trace, net, std::span<const ChannelSeed>{}, params);
}

ReplayResult replay(const trace::Trace& trace, Network& net,
                    std::span<const ChannelSeed> seeds,
                    const ReplayParams& params) {
  detail::ReplayState state = detail::prepare(trace, net, seeds);
  const int n = trace.nranks();

  // One event per pop, ranks ordered by (clock, rank). A cross-rank send
  // is transferred at once and may wake its receiver.
  std::priority_queue<QueueEntry, std::vector<QueueEntry>, std::greater<>> pq;
  std::size_t finished = 0;
  for (int r = 0; r < n; ++r) {
    if (state.ranks[static_cast<std::size_t>(r)].ops.empty()) {
      ++finished;
    } else {
      pq.push({0.0, r});
    }
  }

  detail::MessageStats stats;
  auto sink = [&](int src, int dst, std::uint64_t bytes, double /*issue*/,
                  double start, std::size_t op) {
    const double arrival = stats.transfer(net, src, dst, bytes, start);
    if (state.deliver(dst, state.channels.slot(src, op), arrival)) {
      pq.push({state.ranks[static_cast<std::size_t>(dst)].clock, dst});
    }
  };

  while (!pq.empty()) {
    const auto [clock, r] = pq.top();
    pq.pop();
    detail::RankState& rs = state.ranks[static_cast<std::size_t>(r)];
    if (rs.blocked || rs.pos >= rs.ops.size() || clock != rs.clock) {
      continue;  // stale queue entry
    }
    detail::step_rank(rs, r, state.channels, params, n, sink);
    if (rs.pos >= rs.ops.size()) {
      ++finished;
    } else if (!rs.blocked) {
      pq.push({rs.clock, r});
    }
  }

  if (finished != static_cast<std::size_t>(n)) {
    throw Error("replay: trace stalled — receive without a matching send");
  }
  return stats.finalize(state.ranks);
}

}  // namespace hfast::netsim
