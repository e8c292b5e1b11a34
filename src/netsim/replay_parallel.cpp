#include "hfast/netsim/replay_parallel.hpp"

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "hfast/util/assert.hpp"
#include "replay_detail.hpp"

namespace hfast::netsim {

namespace {

/// One cross-rank message awaiting sequencing: the sender already advanced
/// past it (its only local effect is the send overhead); the sequencer
/// owes the network a transfer() at `start` and the receiver an arrival.
struct PendingTransfer {
  double issue = 0.0;  ///< sender clock when the send op was dequeued
  double start = 0.0;  ///< injection time (issue + send overhead)
  int src = -1;
  int dst = -1;
  std::uint64_t bytes = 0;
  std::uint64_t seq = 0;  ///< sender-local op position, for stable ties

  /// The serial replay's transfer order: (dequeue clock, rank, op). The
  /// key must be `issue`, not `start`: the serial priority queue orders
  /// sends by pre-overhead clock, and clock -> clock + overhead is
  /// monotone but not injective in floating point (adding the overhead
  /// can cross a binade and collapse two clocks one ulp apart into the
  /// same start). Sorting such a collapsed group by src would diverge
  /// from the serial order against a stateful network. Ordering by
  /// `issue` refines the start order, so the window logic below — whose
  /// safety argument is about start times — is unaffected.
  bool operator<(const PendingTransfer& o) const {
    if (issue != o.issue) return issue < o.issue;
    if (src != o.src) return src < o.src;
    return seq < o.seq;
  }
};

/// A sequenced arrival headed back to the receiver's shard.
struct Delivery {
  int receiver = -1;
  std::uint32_t slot = detail::Channels::kNoSlot;
  double arrival = 0.0;
};

/// Bounded SPSC submission queue, one per worker shard (the sequencer is
/// the single consumer of all of them). push() blocks on capacity —
/// backpressure, not loss — which is deadlock-free because the sequencer
/// drains concurrently with worker execution and never blocks on a full
/// queue itself.
class TransferQueue {
 public:
  explicit TransferQueue(std::size_t capacity) : capacity_(capacity) {}

  void push(const PendingTransfer& t) {
    std::unique_lock lk(m_);
    not_full_.wait(lk, [&] { return buf_.size() < capacity_; });
    buf_.push_back(t);
    lk.unlock();
    not_empty_.notify_one();
  }

  /// Producer: this round's submissions are complete.
  void producer_done() {
    {
      std::lock_guard lk(m_);
      done_ = true;
    }
    not_empty_.notify_one();
  }

  /// Consumer: re-arm for the next round (call between rounds only —
  /// i.e. while the producer is parked at the round gate).
  void reset_round() {
    std::lock_guard lk(m_);
    done_ = false;
  }

  /// Consumer: block until submissions are available or the round is
  /// complete; append whatever is there. Returns false once the producer
  /// finished the round and the queue is empty.
  bool drain(std::vector<PendingTransfer>& out) {
    std::unique_lock lk(m_);
    not_empty_.wait(lk, [&] { return !buf_.empty() || done_; });
    if (buf_.empty()) return false;
    out.insert(out.end(), buf_.begin(), buf_.end());
    buf_.clear();
    lk.unlock();
    not_full_.notify_all();
    return true;
  }

 private:
  std::mutex m_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::vector<PendingTransfer> buf_;
  std::size_t capacity_;
  bool done_ = false;
};

/// Round barrier: workers park here after quiescing; the sequencer
/// releases the next round (or tells everyone to exit). The gate's mutex
/// is also the happens-before edge that publishes the inboxes the
/// sequencer filled to the workers that read them.
class RoundGate {
 public:
  /// Worker side: wait for a generation newer than `seen`, adopt it.
  /// Returns false when the sequencer ordered shutdown.
  bool await(std::uint64_t& seen) {
    std::unique_lock lk(m_);
    cv_.wait(lk, [&] { return generation_ > seen || exit_; });
    seen = generation_;
    return !exit_;
  }

  /// Sequencer side: start the next round, or shut the workers down.
  void release(bool exit) {
    {
      std::lock_guard lk(m_);
      if (exit) {
        exit_ = true;
      } else {
        ++generation_;
      }
    }
    cv_.notify_all();
  }

 private:
  std::mutex m_;
  std::condition_variable cv_;
  std::uint64_t generation_ = 0;
  bool exit_ = false;
};

/// One shard: a rank range [first, last) of the global replay state and
/// its deliveries. Only the shard's thread touches its ranks' channels.
struct Shard {
  int first = 0;
  int last = 0;
  std::vector<Delivery> inbox;
  int finished = 0;
};

/// One round of `shard`: fold in its deliveries, then step every runnable
/// rank until it blocks or finishes; cross-rank sends become submissions.
template <typename Submit>
void run_round(Shard& shard, detail::ReplayState& state, int nranks,
               const ReplayParams& params, const Submit& submit) {
  for (const Delivery& d : shard.inbox) {
    (void)state.deliver(d.receiver, d.slot, d.arrival);
  }
  shard.inbox.clear();

  auto sink = [&submit](int src, int dst, std::uint64_t bytes, double issue,
                        double start, std::size_t op) {
    submit(PendingTransfer{issue, start, src, dst, bytes,
                           static_cast<std::uint64_t>(op)});
  };
  shard.finished = 0;
  for (int r = shard.first; r < shard.last; ++r) {
    detail::RankState& rs = state.ranks[static_cast<std::size_t>(r)];
    while (!rs.blocked && rs.pos < rs.ops.size()) {
      detail::step_rank(rs, r, state.channels, params, nranks, sink);
    }
    if (rs.pos >= rs.ops.size()) ++shard.finished;
  }
}

}  // namespace

ReplayResult parallel_replay(const trace::Trace& trace, Network& net,
                             const ReplayParams& params,
                             const ParallelReplayOptions& options) {
  return parallel_replay(trace, net, std::span<const ChannelSeed>{}, params,
                         options);
}

ReplayResult parallel_replay(const trace::Trace& trace, Network& net,
                             std::span<const ChannelSeed> seeds,
                             const ReplayParams& params,
                             const ParallelReplayOptions& options) {
  HFAST_EXPECTS_MSG(options.shards >= 0,
                    "parallel_replay: negative shard count");
  HFAST_EXPECTS_MSG(options.channel_capacity > 0,
                    "parallel_replay: channel capacity must be positive");

  // Conservative lookahead: a transfer injected at t cannot deliver before
  // t + min link latency, and the woken receiver cannot inject a new
  // transfer before paying the send overhead on top. With zero lookahead
  // the window never admits more than the front event and ordering ties at
  // equal times cannot be ruled out, so conservative partitioning cannot
  // run ahead of the sequencer — use the serial algorithm directly.
  const double lookahead =
      net.min_transfer_latency_s() + params.send_overhead_s;
  if (lookahead <= 0.0) return replay(trace, net, seeds, params);

  detail::ReplayState state = detail::prepare(trace, net, seeds);
  const int n = trace.nranks();
  int nshards = options.shards;
  if (nshards == 0) {
    nshards = static_cast<int>(std::thread::hardware_concurrency());
  }
  nshards = std::clamp(nshards, 1, std::max(1, n));

  std::vector<Shard> shards(static_cast<std::size_t>(nshards));
  std::vector<int> shard_of(static_cast<std::size_t>(n));
  for (int s = 0; s < nshards; ++s) {
    Shard& shard = shards[static_cast<std::size_t>(s)];
    shard.first = static_cast<int>(static_cast<long long>(s) * n / nshards);
    shard.last =
        static_cast<int>(static_cast<long long>(s + 1) * n / nshards);
    for (int r = shard.first; r < shard.last; ++r) {
      shard_of[static_cast<std::size_t>(r)] = s;
    }
  }

  // Shard 0 runs on this thread, interleaved with sequencing; its
  // submissions land in a plain vector. Shards 1..K-1 get a thread and a
  // bounded queue each.
  std::vector<std::unique_ptr<TransferQueue>> queues;
  for (int s = 1; s < nshards; ++s) {
    queues.push_back(std::make_unique<TransferQueue>(options.channel_capacity));
  }
  RoundGate gate;
  std::vector<std::exception_ptr> worker_errors(
      static_cast<std::size_t>(nshards > 0 ? nshards - 1 : 0));
  std::vector<std::thread> workers;
  workers.reserve(queues.size());
  for (int s = 1; s < nshards; ++s) {
    Shard& shard = shards[static_cast<std::size_t>(s)];
    TransferQueue& queue = *queues[static_cast<std::size_t>(s - 1)];
    std::exception_ptr& error = worker_errors[static_cast<std::size_t>(s - 1)];
    workers.emplace_back([&shard, &state, &queue, &gate, &error, n, &params] {
      std::uint64_t seen = 0;
      try {
        for (;;) {
          run_round(shard, state, n, params,
                    [&queue](const PendingTransfer& t) { queue.push(t); });
          queue.producer_done();
          if (!gate.await(seen)) return;
        }
      } catch (...) {
        // Keep the round protocol alive so the sequencer never hangs on a
        // dead producer; it will notice the stored error and shut down.
        error = std::current_exception();
        queue.producer_done();
        while (gate.await(seen)) queue.producer_done();
      }
    });
  }

  detail::MessageStats stats;
  std::vector<PendingTransfer> withheld;  // sorted, beyond past windows
  std::vector<PendingTransfer> pending;
  std::vector<PendingTransfer> merged;
  bool stalled = false;
  std::exception_ptr failure;

  for (;;) {
    // Run our own shard to quiescence, then collect every other shard's
    // submissions. Draining while workers still run is what makes the
    // bounded queues deadlock-free.
    pending.clear();
    run_round(shards[0], state, n, params,
              [&pending](const PendingTransfer& t) { pending.push_back(t); });
    for (auto& q : queues) {
      while (q->drain(pending)) {
      }
    }
    for (std::exception_ptr& e : worker_errors) {
      if (e) failure = e;
    }
    if (failure) break;

    std::sort(pending.begin(), pending.end());
    merged.clear();
    merged.reserve(withheld.size() + pending.size());
    std::merge(withheld.begin(), withheld.end(), pending.begin(),
               pending.end(), std::back_inserter(merged));
    withheld.swap(merged);

    int finished = 0;
    for (const Shard& s : shards) finished += s.finished;
    if (finished == n) break;  // remaining withheld transfers flush below
    if (withheld.empty()) {
      stalled = true;
      break;
    }

    // Conservative window: every transfer not yet submitted is downstream
    // of some withheld delivery, so it starts no earlier than the current
    // minimum start plus the lookahead. Everything strictly inside the
    // window is final and can be sequenced.
    const double window_end = withheld.front().start + lookahead;
    std::size_t applied = 0;
    while (applied < withheld.size() && withheld[applied].start < window_end) {
      const PendingTransfer& t = withheld[applied];
      const double arrival =
          stats.transfer(net, t.src, t.dst, t.bytes, t.start);
      shards[static_cast<std::size_t>(
                 shard_of[static_cast<std::size_t>(t.dst)])]
          .inbox.push_back(
              {t.dst, state.channels.slot(t.src, t.seq), arrival});
      ++applied;
    }
    withheld.erase(withheld.begin(),
                   withheld.begin() + static_cast<std::ptrdiff_t>(applied));

    for (auto& q : queues) q->reset_round();
    gate.release(/*exit=*/false);
  }

  gate.release(/*exit=*/true);
  for (std::thread& w : workers) w.join();
  if (failure) std::rethrow_exception(failure);
  if (stalled) {
    throw Error("replay: trace stalled — receive without a matching send");
  }

  // Unmatched sends: every rank finished but their transfers still owe the
  // network (and the stats) their traversal, just as in the serial replay.
  // No rank is left to wake, so deliveries are dropped.
  for (const PendingTransfer& t : withheld) {
    (void)stats.transfer(net, t.src, t.dst, t.bytes, t.start);
  }
  return stats.finalize(state.ranks);
}

}  // namespace hfast::netsim
