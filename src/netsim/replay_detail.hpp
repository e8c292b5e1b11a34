#pragma once
/// \file replay_detail.hpp
/// The one replay core of the serial and the partitioned-clock parallel
/// replay: prepare step, channel store, rank-step kernel, message stats.
/// The two are contractually bit-identical and differ only in the kernel's
/// sink for a cross-rank send and in how ranks are scheduled.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "hfast/netsim/network.hpp"
#include "hfast/netsim/replay.hpp"
#include "hfast/trace/trace.hpp"
#include "hfast/util/assert.hpp"

namespace hfast::netsim::detail {

/// Per-rank execution state. `ops` is a zero-copy span into the trace's
/// sorted columns. `recv_wait` accumulates rank-locally in event order and
/// is reduced in rank order, so the float sum never depends on how ranks
/// interleave. A blocked rank is parked on its current event, a receive.
struct RankState {
  trace::EventSpan ops;
  std::size_t pos = 0;
  double clock = 0.0;
  double recv_wait = 0.0;
  bool blocked = false;
};

/// Arrival-time FIFO backed by a flat vector with a consumed-prefix index:
/// no per-node allocation (unlike std::deque), and an empty channel costs
/// nothing but the struct itself. The consumed prefix is reclaimed whenever
/// it outgrows the live tail, keeping memory proportional to in-flight
/// messages.
struct ChannelFifo {
  std::vector<double> arrivals;
  std::size_t head = 0;

  bool empty() const noexcept { return head == arrivals.size(); }
  void push(double t) { arrivals.push_back(t); }
  double pop() {
    const double t = arrivals[head++];
    if (head > 64 && head * 2 > arrivals.size()) {
      arrivals.erase(arrivals.begin(),
                     arrivals.begin() + static_cast<std::ptrdiff_t>(head));
      head = 0;
    }
    return t;
  }
};

/// The receive channels of every rank: receiver r owns the slots
/// [offsets[r], offsets[r+1]), one per distinct sender its receives name,
/// sorted by sender. Memory is O(pairs + events), never O(P^2) (TDC << P).
/// A pair no receive reads has no slot, so arrivals on it are not stored.
/// Each event's slot (the channel a receive reads or a send writes, else
/// kNoSlot) is resolved once at build time. A slot is written only by its
/// receiver's shard; the index arrays are read-only once built.
class Channels {
 public:
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  explicit Channels(const trace::Trace& trace) {
    const int n = trace.nranks();
    offsets_.assign(static_cast<std::size_t>(n) + 1, 0);
    std::vector<int> seen_by(static_cast<std::size_t>(n), -1);
    for (int r = 0; r < n; ++r) {
      const trace::EventSpan ops = trace.rank_events(r);
      const std::size_t first = senders_.size();
      for (std::size_t i = 0; i < ops.size(); ++i) {
        if (ops.kind(i) == trace::EventKind::kRecv &&
            std::exchange(seen_by[static_cast<std::size_t>(ops.peer(i))],
                          r) != r) {
          senders_.push_back(ops.peer(i));
        }
      }
      std::sort(senders_.begin() + static_cast<std::ptrdiff_t>(first),
                senders_.end());
      offsets_[static_cast<std::size_t>(r) + 1] = senders_.size();
    }
    fifos_.resize(senders_.size());

    // The validated trace's rank spans tile its columns in order. A
    // receive reads a dense per-rank table; a send's slot is searched once
    // per (r, p) pair, `send_tag[p] == r` marking it resolved.
    const trace::EventColumns& c = trace.columns();
    event_slots_.resize(c.size());
    rank_base_.assign(static_cast<std::size_t>(n) + 1, 0);
    std::vector<std::uint32_t> recv_slot(static_cast<std::size_t>(n)),
        send_slot(static_cast<std::size_t>(n));
    std::vector<int> send_tag(static_cast<std::size_t>(n), -1);
    std::size_t e = 0;
    for (int r = 0; r < n; ++r) {
      const auto ur = static_cast<std::size_t>(r);
      for (std::size_t k = offsets_[ur]; k < offsets_[ur + 1]; ++k) {
        recv_slot[static_cast<std::size_t>(senders_[k])] =
            static_cast<std::uint32_t>(k);
      }
      const std::size_t last = e + trace.rank_events(r).size();
      for (; e < last; ++e) {
        const auto p = static_cast<std::size_t>(c.peer[e]);
        std::uint32_t slot = kNoSlot;
        if (c.kind[e] == trace::EventKind::kRecv) {
          slot = recv_slot[p];
        } else if (c.kind[e] == trace::EventKind::kSend) {
          if (std::exchange(send_tag[p], r) != r) {
            send_slot[p] = find(c.peer[e], r);
          }
          slot = send_slot[p];
        }
        event_slots_[e] = slot;
      }
      rank_base_[ur + 1] = e;
    }
    HFAST_ASSERT(e == c.size());
  }

  /// The slot rank `rank`'s event at `pos` reads or writes, or kNoSlot.
  std::uint32_t slot(int rank, std::size_t pos) const {
    return event_slots_[rank_base_[static_cast<std::size_t>(rank)] + pos];
  }

  ChannelFifo& fifo(std::uint32_t slot) { return fifos_[slot]; }

  /// The (receiver <- sender) slot, or kNoSlot if no receive reads it.
  std::uint32_t find(int receiver, int sender) const {
    const auto r = static_cast<std::size_t>(receiver);
    const auto first =
        senders_.begin() + static_cast<std::ptrdiff_t>(offsets_[r]);
    const auto last =
        senders_.begin() + static_cast<std::ptrdiff_t>(offsets_[r + 1]);
    const auto it = std::lower_bound(first, last, sender);
    if (it == last || *it != sender) return kNoSlot;
    return static_cast<std::uint32_t>(it - senders_.begin());
  }

 private:
  std::vector<std::size_t> offsets_;
  std::vector<int> senders_;
  std::vector<ChannelFifo> fifos_;
  std::vector<std::size_t> rank_base_;
  std::vector<std::uint32_t> event_slots_;
};

/// Everything a replay mutates besides the network, indexed by global rank.
struct ReplayState {
  std::vector<RankState> ranks;
  Channels channels;

  /// Store an arrival in `receiver`'s `slot` (dropped on kNoSlot). Returns
  /// true if that woke the receiver, blocked on exactly this channel.
  bool deliver(int receiver, std::uint32_t slot, double arrival) {
    if (slot == Channels::kNoSlot) return false;
    channels.fifo(slot).push(arrival);
    RankState& rs = ranks[static_cast<std::size_t>(receiver)];
    if (rs.blocked && channels.slot(receiver, rs.pos) == slot) {
      rs.blocked = false;
      return true;
    }
    return false;
  }
};

/// Collective cost on the dedicated tree network (paper §2.4): up the
/// log2(P)-depth combine tree and back down, plus payload serialization at
/// tree bandwidth.
inline double collective_cost(std::uint64_t bytes, int nranks,
                              const ReplayParams& params) {
  const int levels =
      nranks <= 1 ? 0 : static_cast<int>(std::ceil(std::log2(nranks)));
  return 2.0 * levels * params.tree_hop_latency_s +
         static_cast<double>(bytes) / params.tree_bandwidth_bps;
}

/// Reject events that index outside the trace's rank space. Traces are
/// runtime data — possibly a hand-edited load_text file — so a malformed
/// event is an Error, not a caller contract violation. Scans the full
/// column range (including events a malformed rank pushed outside every
/// rank's span), reading only the three columns it checks.
inline void validate_events(const trace::Trace& trace) {
  const int n = trace.nranks();
  const trace::EventColumns& c = trace.columns();
  for (std::size_t i = 0; i < c.size(); ++i) {
    if (c.rank[i] < 0 || c.rank[i] >= n) {
      throw Error("replay: event rank " + std::to_string(c.rank[i]) +
                  " outside [0, " + std::to_string(n) + ")");
    }
    if (c.kind[i] == trace::EventKind::kCollective) {
      // Collectives are peerless by contract; a stray peer means the event
      // stream was corrupted or hand-edited inconsistently.
      if (c.peer[i] != mpisim::kNoPeer) {
        throw Error("replay: collective event with peer " +
                    std::to_string(c.peer[i]) + " (expected " +
                    std::to_string(mpisim::kNoPeer) + ") on rank " +
                    std::to_string(c.rank[i]));
      }
    } else if (c.peer[i] < 0 || c.peer[i] >= n) {
      throw Error("replay: point-to-point peer " + std::to_string(c.peer[i]) +
                  " outside [0, " + std::to_string(n) + ") on rank " +
                  std::to_string(c.rank[i]));
    }
  }
}

/// Reject channel seeds that index outside the trace's rank space. Both
/// replays apply the same rule so a malformed seed fails identically on
/// either path.
inline void validate_seeds(std::span<const ChannelSeed> seeds, int nranks) {
  for (const ChannelSeed& s : seeds) {
    if (s.receiver < 0 || s.receiver >= nranks || s.sender < 0 ||
        s.sender >= nranks) {
      throw Error("replay: channel seed (" + std::to_string(s.sender) +
                  " -> " + std::to_string(s.receiver) + ") outside [0, " +
                  std::to_string(nranks) + ")");
    }
  }
}

/// Populate the network's route caches for every ordered pair the trace
/// sends on, so replay-time transfer()/switch_hops() queries are pure
/// lookups. The parallel replay requires this (shards share one network
/// for read-only hop queries); the serial replay does it too so both paths
/// exercise the same network state. Columns are rank-sorted, so
/// `warmed_by[dst] == src` makes it one route query per pair, not per send.
inline void prewarm_routes(const trace::Trace& trace, Network& net) {
  const trace::EventColumns& c = trace.columns();
  std::vector<int> warmed_by(static_cast<std::size_t>(trace.nranks()), -1);
  for (std::size_t i = 0; i < c.size(); ++i) {
    if (c.kind[i] == trace::EventKind::kSend && c.peer[i] != c.rank[i] &&
        std::exchange(warmed_by[static_cast<std::size_t>(c.peer[i])],
                      c.rank[i]) != c.rank[i]) {
      net.prewarm_route(c.rank[i], c.peer[i]);
    }
  }
}

/// Both replays start here: validate, reset, prewarm, then the rank spans
/// and the channel store with the seeds' t = 0 arrivals queued first.
inline ReplayState prepare(const trace::Trace& trace, Network& net,
                           std::span<const ChannelSeed> seeds) {
  HFAST_EXPECTS_MSG(trace.nranks() <= net.num_endpoints(),
                    "network too small for the trace");
  validate_events(trace);
  validate_seeds(seeds, trace.nranks());
  net.reset();
  prewarm_routes(trace, net);

  ReplayState state{std::vector<RankState>(
                        static_cast<std::size_t>(trace.nranks())),
                    Channels(trace)};
  for (int r = 0; r < trace.nranks(); ++r) {
    state.ranks[static_cast<std::size_t>(r)].ops = trace.rank_events(r);
  }
  for (const ChannelSeed& seed : seeds) {
    const std::uint32_t slot = state.channels.find(seed.receiver, seed.sender);
    if (slot == Channels::kNoSlot) continue;  // no receive reads the pair
    std::vector<double>& q = state.channels.fifo(slot).arrivals;
    q.insert(q.end(), seed.count, 0.0);
  }
  return state;
}

/// Message statistics over the cross-rank transfers, applied by both
/// replays in the same global order. Self-sends never reach it.
class MessageStats {
 public:
  /// Inject one transfer into the network, count it, return its arrival.
  double transfer(Network& net, int src, int dst, std::uint64_t bytes,
                  double start) {
    const double arrival = net.transfer(src, dst, bytes, start);
    const double latency = arrival - start;
    sum_latency_ += latency;
    result_.max_message_latency_s =
        std::max(result_.max_message_latency_s, latency);
    const int hops = net.switch_hops(src, dst);
    sum_hops_ += hops;
    result_.max_switch_hops = std::max(result_.max_switch_hops, hops);
    ++result_.messages;
    result_.bytes += bytes;
    return arrival;
  }

  /// The result; a rank's final clock is its completion time.
  ReplayResult finalize(const std::vector<RankState>& ranks) const {
    ReplayResult result = result_;
    for (const RankState& rs : ranks) {
      result.makespan_s = std::max(result.makespan_s, rs.clock);
      result.total_recv_wait_s += rs.recv_wait;
    }
    if (result.messages > 0) {
      result.avg_message_latency_s =
          sum_latency_ / static_cast<double>(result.messages);
      result.avg_switch_hops =
          sum_hops_ / static_cast<double>(result.messages);
    }
    return result;
  }

 private:
  ReplayResult result_;
  double sum_latency_ = 0.0;
  double sum_hops_ = 0.0;
};

/// Run rank `self`'s current event (the rank is neither blocked nor
/// finished). A cross-rank send advances the sender by its overhead and
/// calls `sink(src, dst, bytes, issue, start, op)`: `issue`/`start` are the
/// clock before/after the overhead, `op` the send's position. The sender
/// never waits on its transfer, so the sharded replay can defer it. A
/// receive on an empty channel blocks the rank without consuming the event.
template <typename Sink>
inline void step_rank(RankState& rs, int self, Channels& channels,
                      const ReplayParams& params, int nranks, Sink& sink) {
  switch (rs.ops.kind(rs.pos)) {
    case trace::EventKind::kSend: {
      const trace::Rank peer = rs.ops.peer(rs.pos);
      const double issue = rs.clock;
      rs.clock += params.send_overhead_s;
      if (peer != self) {
        sink(self, peer, rs.ops.bytes(rs.pos), issue, rs.clock, rs.pos);
      } else if (const std::uint32_t slot = channels.slot(self, rs.pos);
                 slot != Channels::kNoSlot) {
        // Self-send: arrival is the injection time, no network traversal.
        channels.fifo(slot).push(rs.clock);
      }
      ++rs.pos;
      return;
    }
    case trace::EventKind::kRecv: {
      // A receive always has a slot: the store is built from receives.
      ChannelFifo& q = channels.fifo(channels.slot(self, rs.pos));
      if (q.empty()) {
        rs.blocked = true;
        return;
      }
      const double arrival = q.pop();
      if (arrival > rs.clock) {
        rs.recv_wait += arrival - rs.clock;
        rs.clock = arrival;
      }
      rs.clock += params.recv_overhead_s;
      ++rs.pos;
      return;
    }
    case trace::EventKind::kCollective: {
      rs.clock += params.send_overhead_s +
                  collective_cost(rs.ops.bytes(rs.pos), nranks, params);
      ++rs.pos;
      return;
    }
  }
}

}  // namespace hfast::netsim::detail
