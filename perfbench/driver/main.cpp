/// \file main.cpp
/// HFAST pipeline benchmark driver. Runs one workload of the paper's
/// pipeline (kernel -> trace -> graph -> provisioning -> network build and
/// route prewarm -> collective lowering -> replay -> store) at a given seed,
/// checks every replay result, and writes a JSON record of the run.
///
/// Usage: hfast_perfbench --workload NAME [--seed N] [--seconds S]
///                        [--trace 0|1] [--scale full|tiny]
///                        --work-dir DIR --out FILE [--chrome-trace FILE]
///                        [--golden FILE] [--write-golden]
///                        [--commit SHA] [--run-index N]
///
/// The workloads, their metrics and why each was chosen are described in
/// perfbench/README.md. Load is closed-loop batch work: one cell at a time
/// from this one process; only the sharded replays use more than one thread.
/// A run makes one pass over its workload, so every commit measures the same
/// work; --seconds is the nominal run time and is only recorded.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <unistd.h>

#include "hfast/analysis/experiment.hpp"
#include "hfast/collective/lower.hpp"
#include "hfast/core/provision.hpp"
#include "hfast/graph/comm_graph.hpp"
#include "hfast/netsim/fat_tree_net.hpp"
#include "hfast/netsim/network.hpp"
#include "hfast/netsim/replay.hpp"
#include "hfast/netsim/replay_parallel.hpp"
#include "hfast/netsim/replay_reconfig.hpp"
#include "hfast/store/schedule_cache.hpp"
#include "hfast/store/store.hpp"
#include "hfast/topo/fat_tree.hpp"
#include "hfast/topo/fcn.hpp"
#include "hfast/topo/mesh.hpp"
#include "hfast/trace/io.hpp"
#include "hfast/util/json.hpp"
#include "host_speed.hpp"
#include "recorder.hpp"

using namespace hfast;
using perfbench::Clock;
using perfbench::HostSpeed;
using perfbench::Recorder;
using perfbench::seconds_since;

namespace {

namespace fs = std::filesystem;

/// The default seed: the one whose results are pinned in the golden file.
constexpr std::uint64_t kGoldenSeed = 1;
/// Set-up runs this many times per untraced run (once in the pass, then
/// alone), and setup_s is their median. Two keep a wide_p4096 run, whose
/// set-up is a third of its pass, inside the benchmark's time budget.
constexpr std::size_t kSetupSamples = 2;
/// Shard counts of the sharded replays (at most nproc = 4 threads).
constexpr int kShardCounts[] = {2, 4};
/// Ranks of every workload at --scale tiny (the smoke test).
constexpr int kTinyNranks = 64;
/// Longest stretch of route prewarm timed as one block.
constexpr double kPrewarmSliceS = 0.25;

struct WorkloadSpec {
  std::string name;
  int nranks = 256;
  std::vector<std::string> apps;
  std::vector<std::string> nets;  ///< serial replay networks, in order
  /// Apps whose torus cell also runs the sharded replay at K=2 and K=4, as
  /// part of the workload (timed as replay).
  std::set<std::string> sharded_apps;
  /// The app whose torus cell is sharded only to check serial-vs-sharded
  /// parity (timed as verification, so replay_s stays serial-only).
  std::string parity_app;
  std::string reconfig_app;  ///< runs reconfigurable replay on hfast
  bool lowered = false;      ///< auto / synth-cold / synth-warm lowering
};

/// The four workloads. Why each exists is in perfbench/README.md; in short:
/// fabric_p256 is dominated by hfast route prewarm, sharded_p256 by the
/// parallel-replay sequencer, wide_p4096 by the P^2 replay channel array
/// and the kernel, lowered_p256 by collective synthesis and the schedule
/// cache. Every other workload shards one torus cell as a check, so the
/// serial-vs-sharded parity wall (and the sharded-replay layer) is measured
/// everywhere.
const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> specs = {
      {.name = "fabric_p256",
       .nranks = 256,
       .apps = {"cactus", "gtc", "lbmhd", "superlu", "pmemd", "paratec"},
       .nets = {"fcn", "torus", "fattree", "hfast"},
       .sharded_apps = {},
       .parity_app = "cactus",
       .reconfig_app = "superlu",
       .lowered = false},
      {.name = "sharded_p256",
       .nranks = 256,
       .apps = {"superlu", "pmemd", "paratec"},
       .nets = {"torus"},
       .sharded_apps = {"superlu", "pmemd", "paratec"},
       .parity_app = "",
       .reconfig_app = "",
       .lowered = false},
      {.name = "wide_p4096",
       .nranks = 4096,
       .apps = {"cactus", "gtc", "lbmhd"},
       .nets = {"torus", "fattree", "hfast"},
       .sharded_apps = {},
       .parity_app = "cactus",
       .reconfig_app = "",
       .lowered = false},
      {.name = "lowered_p256",
       .nranks = 256,
       .apps = {"gtc", "superlu", "pmemd", "paratec"},
       .nets = {"torus"},
       .sharded_apps = {},
       .parity_app = "gtc",
       .reconfig_app = "",
       .lowered = true},
  };
  return specs;
}

struct Options {
  std::string workload;
  std::uint64_t seed = kGoldenSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string scale = "full";
  fs::path work_dir;
  std::string out;
  std::string chrome_trace;
  std::string golden;
  bool write_golden = false;
  std::string commit = "unknown";
  int run_index = 0;
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// ReplayResult at max_digits10: textual equality is bit equality.
std::string format_result(const netsim::ReplayResult& r) {
  std::ostringstream os;
  os.precision(std::numeric_limits<double>::max_digits10);
  os << r.makespan_s << ' ' << r.total_recv_wait_s << ' ' << r.messages << ' '
     << r.bytes << ' ' << r.avg_message_latency_s << ' '
     << r.max_message_latency_s << ' ' << r.avg_switch_hops << ' '
     << r.max_switch_hops;
  return os.str();
}

/// Point-to-point sends a replay must deliver: its messages/bytes oracle.
struct SendTotals {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
};

SendTotals send_totals(const trace::Trace& t) {
  const trace::EventColumns& c = t.columns();
  SendTotals s;
  for (std::size_t i = 0; i < c.size(); ++i) {
    if (c.kind[i] == trace::EventKind::kSend && c.peer[i] != c.rank[i] &&
        c.peer[i] >= 0) {
      ++s.messages;
      s.bytes += c.bytes[i];
    }
  }
  return s;
}

/// The trace's distinct (src,dst) pairs, in ascending order.
std::vector<std::pair<int, int>> distinct_pairs(const trace::Trace& t) {
  const trace::EventColumns& c = t.columns();
  std::vector<std::uint64_t> keys;
  keys.reserve(c.size() / 2);
  for (std::size_t i = 0; i < c.size(); ++i) {
    if (c.kind[i] == trace::EventKind::kSend && c.peer[i] != c.rank[i] &&
        c.peer[i] >= 0) {
      keys.push_back((static_cast<std::uint64_t>(c.rank[i]) << 32) |
                     static_cast<std::uint32_t>(c.peer[i]));
    }
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  std::vector<std::pair<int, int>> pairs;
  pairs.reserve(keys.size());
  for (std::uint64_t k : keys) {
    pairs.emplace_back(static_cast<int>(k >> 32),
                       static_cast<int>(k & 0xffffffffu));
  }
  return pairs;
}

/// Owns the topology a network model borrows. Built the way
/// examples/replay_traces builds it, so the numbers describe what users run.
struct NetworkBundle {
  std::unique_ptr<topo::FullyConnected> fcn;
  std::unique_ptr<topo::MeshTorus> torus;
  std::unique_ptr<topo::FatTree> tree;
  std::unique_ptr<netsim::Network> net;
};

NetworkBundle build_network(const std::string& kind, int n,
                            const core::Provisioned& prov) {
  const netsim::LinkParams link;
  NetworkBundle b;
  if (kind == "fcn") {
    b.fcn = std::make_unique<topo::FullyConnected>(n);
    b.net = std::make_unique<netsim::DirectNetwork>(*b.fcn, link);
  } else if (kind == "torus") {
    b.torus = std::make_unique<topo::MeshTorus>(
        topo::MeshTorus::balanced_dims(n, 3), true);
    b.net = std::make_unique<netsim::DirectNetwork>(*b.torus, link);
  } else if (kind == "fattree") {
    b.tree = std::make_unique<topo::FatTree>(n, 16);
    b.net = std::make_unique<netsim::FatTreeNetwork>(*b.tree, link);
  } else if (kind == "hfast") {
    b.net = std::make_unique<netsim::FabricNetwork>(prov.fabric, link, 50e-9);
  } else {
    throw Error("unknown network " + kind);
  }
  return b;
}

/// Replay inputs for one app: everything set-up produces.
struct AppInputs {
  analysis::ExperimentResult experiment;  ///< holds the in-memory trace
  trace::Trace loaded;                    ///< the HTRC round-tripped trace
  /// Heap-held so the hfast network's reference survives moving the inputs.
  std::unique_ptr<core::Provisioned> prov;
  std::vector<std::pair<std::string, NetworkBundle>> nets;

  netsim::Network& net(const std::string& kind) {
    for (auto& [name, b] : nets) {
      if (name == kind) return *b.net;
    }
    throw Error("network not built: " + kind);
  }
};

/// One phase timer: raw seconds, and the same time in reference-host
/// seconds (each block's raw seconds over the mean of the host slowdowns
/// probed at its two ends; see perfbench::HostSpeed).
struct Phase {
  double raw_s = 0.0;
  double ref_s = 0.0;
};

/// Phase timers of one pass over the workload (always on). wall covers
/// every timed block: set-up, replay, verification and store.
struct PassSample {
  Phase wall;
  Phase setup;
  Phase replay;
  double events = 0.0;  ///< events replayed, counted after lowering
  std::vector<double> slowdowns;  ///< host slowdown at each block boundary
};

class Bench {
 public:
  Bench(const Options& opt, const WorkloadSpec& spec, Recorder& rec,
        HostSpeed& host)
      : opt_(opt),
        spec_(spec),
        rec_(rec),
        host_(host),
        nranks_(opt.scale == "tiny" ? kTinyNranks : spec.nranks),
        dir_(opt.work_dir / rec.run_id()) {
    if (opt_.seed == kGoldenSeed && !opt_.write_golden) load_golden();
  }

  int nranks() const { return nranks_; }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const std::vector<std::string>& failures() const { return failures_; }

  PassSample run_pass();
  /// Set-up alone, for more setup_s samples.
  PassSample run_setup_only();

  /// Every pinned cell of this workload must have been produced.
  void check_golden_complete();
  void write_golden() const;
  void cleanup() const { fs::remove_all(dir_); }

 private:
  /// Runs one timed block and charges it to `phase` (nullptr: wall only),
  /// then probes the host's speed for the next block. Returns raw seconds.
  template <typename F>
  double timed(Phase PassSample::*phase, F&& fn);

  AppInputs setup(const std::string& app);
  void replay_app(const std::string& app, AppInputs& in);
  void replay_lowered(const std::string& app, AppInputs& in);
  void check_htrc(const std::string& app, const AppInputs& in);
  void store_app(const std::string& app, const AppInputs& in);

  netsim::ReplayResult serial_cell(const std::string& id,
                                   const trace::Trace& t, netsim::Network& net,
                                   const std::string& net_kind,
                                   double* replay_raw_s);
  /// K=2 and K=4 sharded replays of one cell, checked against its serial
  /// result and charged to `phase` (nullptr: verification).
  void sharded_cells(const std::string& id_prefix, const trace::Trace& t,
                     netsim::Network& net, const netsim::ReplayResult& serial,
                     double serial_s, Phase PassSample::*phase);
  bool shards(const std::string& app) const {
    return spec_.sharded_apps.count(app) || app == spec_.parity_app;
  }
  Phase PassSample::*shard_phase(const std::string& app) const {
    return spec_.sharded_apps.count(app) ? &PassSample::replay : nullptr;
  }
  void prewarm(const trace::Trace& t, netsim::Network& net,
               const std::string& net_kind);

  /// Records a verified cell; `problem` empty means it passed.
  void verdict(const std::string& id, const netsim::ReplayResult* r,
               std::string problem);
  void fail(const std::string& what) {
    ++attempted_;
    ++failed_;
    failures_.push_back(what);
  }
  std::string invariant_problem(const netsim::ReplayResult& r,
                                const trace::Trace& t) const;
  void load_golden();
  std::string golden_key(const std::string& cell) const {
    return opt_.scale + ' ' + spec_.name + ' ' + cell;
  }

  const Options& opt_;
  const WorkloadSpec& spec_;
  Recorder& rec_;
  HostSpeed& host_;
  int nranks_;
  fs::path dir_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;
  std::map<std::string, std::string> golden_;    ///< key -> pinned fields
  std::map<std::string, std::string> produced_;  ///< key -> this run's fields
  PassSample* sample_ = nullptr;  ///< the pass being timed
  double slowdown_ = 1.0;         ///< host slowdown at the last boundary
};

template <typename F>
double Bench::timed(Phase PassSample::*phase, F&& fn) {
  const double before = slowdown_;
  const auto t0 = Clock::now();
  fn();
  const double raw = seconds_since(t0);
  slowdown_ = host_.probe();
  sample_->slowdowns.push_back(slowdown_);
  const double ref = raw / (0.5 * (before + slowdown_));
  sample_->wall.raw_s += raw;
  sample_->wall.ref_s += ref;
  if (phase != nullptr) {
    (sample_->*phase).raw_s += raw;
    (sample_->*phase).ref_s += ref;
  }
  return raw;
}

AppInputs Bench::setup(const std::string& app) {
  Recorder::Scope scope(rec_, "setup:" + app);
  AppInputs in;
  analysis::ExperimentConfig cfg;
  cfg.app = app;
  cfg.nranks = nranks_;
  cfg.seed = opt_.seed;
  cfg.engine = mpisim::fibers_supported() ? mpisim::EngineKind::kFibers
                                          : mpisim::EngineKind::kThreads;
  in.experiment = rec_.call(
      "mpisim.run", [&] { return analysis::run_experiment(cfg); },
      /*track_rss=*/true);
  rec_.add("mpisim.events",
           static_cast<double>(in.experiment.trace.events().size()));

  const fs::path htrc = dir_ / (app + std::string(trace::kBinaryExtension));
  rec_.call("trace.save",
            [&] { trace::save_trace_file(in.experiment.trace, htrc.string()); });
  rec_.add("trace.bytes", static_cast<double>(fs::file_size(htrc)));
  in.loaded = rec_.call("trace.load",
                        [&] { return trace::load_trace_file(htrc.string()); });
  fs::remove(htrc);

  // The paper's pipeline: provision a fabric from the trace's own
  // communication topology, as examples/replay_traces does for hfast.
  graph::CommGraph g = rec_.call("graph.build", [&] {
    graph::CommGraph graph(in.loaded.nranks());
    const trace::EventColumns& c = in.loaded.columns();
    for (std::size_t i = 0; i < c.size(); ++i) {
      if (c.kind[i] == trace::EventKind::kSend && c.peer[i] != c.rank[i] &&
          c.peer[i] >= 0) {
        graph.add_message(c.rank[i], c.peer[i], c.bytes[i]);
      }
    }
    return graph;
  });
  rec_.add("graph.edges", static_cast<double>(g.num_edges()));
  in.prov = std::make_unique<core::Provisioned>(rec_.call(
      "core.provision", [&] { return core::provision_greedy(g, {.cutoff = 0}); }));
  rec_.add("core.blocks", in.prov->stats.num_blocks);
  rec_.add("core.trunks", in.prov->stats.num_trunks);

  for (const std::string& kind : spec_.nets) {
    in.nets.emplace_back(kind, rec_.call("netsim.build." + kind, [&] {
      return build_network(kind, in.loaded.nranks(), *in.prov);
    }));
  }
  return in;
}

void Bench::prewarm(const trace::Trace& t, netsim::Network& net,
                    const std::string& net_kind) {
  const auto pairs = rec_.call("bench.pairs", [&] { return distinct_pairs(t); });
  rec_.add("netsim.pairs", static_cast<double>(pairs.size()));
  // An hfast prewarm runs for seconds while the host's speed moves, so it is
  // timed in slices, with the host's speed probed between them.
  std::size_t next = 0;
  while (next < pairs.size()) {
    timed(&PassSample::replay, [&] {
      rec_.call("netsim.prewarm." + net_kind, [&] {
        const auto t0 = Clock::now();
        do {
          net.prewarm_route(pairs[next].first, pairs[next].second);
        } while (++next < pairs.size() && seconds_since(t0) < kPrewarmSliceS);
      });
    });
  }
}

netsim::ReplayResult Bench::serial_cell(const std::string& id,
                                        const trace::Trace& t,
                                        netsim::Network& net,
                                        const std::string& net_kind,
                                        double* replay_raw_s) {
  Recorder::Scope scope(rec_, "cell:" + id);
  prewarm(t, net, net_kind);
  netsim::ReplayResult r;
  const double raw = timed(&PassSample::replay, [&] {
    r = rec_.call(
        "netsim.replay." + net_kind, [&] { return netsim::replay(t, net); },
        /*track_rss=*/true);
  });
  if (replay_raw_s != nullptr) *replay_raw_s = raw;
  sample_->events += static_cast<double>(t.events().size());
  verdict(id, &r, invariant_problem(r, t));
  return r;
}

void Bench::sharded_cells(const std::string& id_prefix, const trace::Trace& t,
                          netsim::Network& net,
                          const netsim::ReplayResult& serial,
                          double serial_s, Phase PassSample::*phase) {
  for (int k : kShardCounts) {
    const std::string ks = "k" + std::to_string(k);
    const std::string id = id_prefix + "/" + ks;
    Recorder::Scope scope(rec_, "cell:" + id);
    netsim::ReplayResult r;
    const double raw = timed(phase, [&] {
      r = rec_.call("netsim.parallel_replay." + ks, [&] {
        return netsim::parallel_replay(t, net, {}, {.shards = k});
      });
    });
    rec_.add("bench.sharded_s." + ks, raw);
    rec_.add("bench.sharded_serial_s." + ks, serial_s);
    if (phase != nullptr) sample_->events += static_cast<double>(t.events().size());
    verdict(id, &r, r == serial ? "" : "sharded result differs from serial");
  }
}

void Bench::replay_app(const std::string& app, AppInputs& in) {
  for (const std::string& kind : spec_.nets) {
    netsim::Network& net = in.net(kind);
    const std::string id = app + "/" + kind;
    double serial_s = 0.0;
    const netsim::ReplayResult serial =
        serial_cell(id + "/serial", in.loaded, net, kind, &serial_s);
    if (kind == "torus" && shards(app)) {
      sharded_cells(id, in.loaded, net, serial, serial_s, shard_phase(app));
    }
  }
  if (app == spec_.reconfig_app) {
    timed(&PassSample::replay, [&] {
      const std::string id = app + "/hfast/reconfig8";
      Recorder::Scope scope(rec_, "cell:" + id);
      netsim::ReconfigReplayOptions ropts;
      ropts.config.num_windows = 8;
      ropts.config.hysteresis_windows = 1;
      ropts.shards = 1;
      const netsim::ReconfigReplayResult rr = rec_.call(
          "netsim.reconfig_replay",
          [&] { return netsim::reconfigurable_replay(in.loaded, ropts); });
      sample_->events += static_cast<double>(in.loaded.events().size());
      rec_.add("netsim.reconfigurations", rr.reconfigurations);
      std::string problem = invariant_problem(rr.total, in.loaded);
      if (problem.empty() && rr.windows.size() != 8) {
        problem = "expected 8 windows, got " + std::to_string(rr.windows.size());
      }
      verdict(id, &rr.total, problem);
    });
  }
}

void Bench::replay_lowered(const std::string& app, AppInputs& in) {
  netsim::Network& net = in.net("torus");
  const auto lower = [&](collective::ScheduleKind kind,
                         store::ScheduleCache* cache, const std::string& layer) {
    collective::LowerOptions opts;
    opts.config.schedule = kind;
    opts.hops = [&net](int a, int b) {
      net.prewarm_route(a, b);
      return net.switch_hops(a, b);
    };
    opts.synth_memo = cache;
    collective::LowerResult lowered =
        rec_.call(layer, [&] { return collective::lower_trace(in.loaded, opts); });
    rec_.add("collective.p2p_events",
             static_cast<double>(lowered.stats.p2p_events));
    rec_.add("collective.schedules",
             static_cast<double>(lowered.stats.schedules));
    return lowered;
  };

  collective::LowerResult lowered_auto;
  timed(&PassSample::replay, [&] {
    lowered_auto =
        lower(collective::ScheduleKind::kAuto, nullptr, "collective.lower.auto");
  });
  const std::string auto_id = app + "/torus/auto";
  double auto_s = 0.0;
  const netsim::ReplayResult r_auto =
      serial_cell(auto_id, lowered_auto.trace, net, "torus", &auto_s);
  if (shards(app)) {
    sharded_cells(auto_id, lowered_auto.trace, net, r_auto, auto_s,
                  shard_phase(app));
  }
  lowered_auto = {};

  // Cold then warm synthesis against one fresh on-disk schedule cache.
  const fs::path cache_dir = dir_ / ("schedules-" + app);
  fs::remove_all(cache_dir);
  store::ScheduleCache cache(cache_dir);
  const auto synth = [&](const std::string& pass_name,
                         store::CacheCounters& counters) {
    collective::LowerResult lowered;
    timed(&PassSample::replay, [&] {
      lowered = lower(collective::ScheduleKind::kSynth, &cache,
                      "collective.lower." + pass_name);
    });
    counters = cache.counters();
    return serial_cell(app + "/torus/" + pass_name, lowered.trace, net,
                       "torus", nullptr);
  };
  store::CacheCounters after_cold, after_warm;
  const netsim::ReplayResult r_cold = synth("synth_cold", after_cold);
  const netsim::ReplayResult r_warm = synth("synth_warm", after_warm);

  const std::uint64_t warm_hits = after_warm.hits - after_cold.hits;
  const std::uint64_t warm_misses = after_warm.misses - after_cold.misses;
  rec_.add("store.schedule_cache_hits",
           static_cast<double>(after_warm.hits));
  rec_.add("store.schedule_cache_misses",
           static_cast<double>(after_warm.misses));
  std::string problem;
  if (!(r_warm == r_cold)) problem = "warm synth result differs from cold";
  if (warm_misses != 0) {
    problem = "warm synth pass missed the cache " +
              std::to_string(warm_misses) + " times";
  }
  if (after_cold.misses == 0 || warm_hits < after_cold.misses) {
    problem = "warm synth pass did not hit every schedule the cold pass stored";
  }
  verdict(app + "/synth-cache", nullptr, problem);
  fs::remove_all(cache_dir);
}

void Bench::check_htrc(const std::string& app, const AppInputs& in) {
  // Every replay reads the HTRC-loaded trace. Replay is a function of the
  // trace's rank count, regions and event columns, so a loaded trace equal
  // to the in-memory one in all three replays bit-equal to it.
  Recorder::Scope scope(rec_, "bench.verify");
  const trace::Trace& mem = in.experiment.trace;
  const bool same = mem.nranks() == in.loaded.nranks() &&
                    mem.region_names() == in.loaded.region_names() &&
                    mem.columns() == in.loaded.columns();
  verdict(app + "/htrc-parity", nullptr,
          same ? "" : "HTRC round trip changed the trace");
}

void Bench::store_app(const std::string& app, const AppInputs& in) {
  const fs::path store_dir = dir_ / ("results-" + app);
  fs::remove_all(store_dir);
  store::ResultStore results(store_dir);
  const bool saved = rec_.call("store.result_save",
                               [&] { return results.save(in.experiment); });
  const std::optional<analysis::ExperimentResult> back = rec_.call(
      "store.result_load", [&] { return results.load(in.experiment.config); });
  std::string problem;
  if (!saved) {
    problem = "result store did not persist the experiment";
  } else if (!back || !(back->trace.columns() == in.experiment.trace.columns())) {
    problem = "result store round trip lost the trace";
  }
  verdict(app + "/store", nullptr, problem);
  fs::remove_all(store_dir);
}

std::string Bench::invariant_problem(const netsim::ReplayResult& r,
                                     const trace::Trace& t) const {
  const SendTotals s = send_totals(t);
  if (r.messages != s.messages || r.bytes != s.bytes) {
    return "replay delivered " + std::to_string(r.messages) + " messages / " +
           std::to_string(r.bytes) + " bytes, trace sends " +
           std::to_string(s.messages) + " / " + std::to_string(s.bytes);
  }
  if (!std::isfinite(r.makespan_s) || r.makespan_s <= 0.0) {
    return "non-positive makespan";
  }
  if (r.avg_switch_hops > r.max_switch_hops) return "avg hops above max hops";
  return "";
}

void Bench::verdict(const std::string& id, const netsim::ReplayResult* r,
                    std::string problem) {
  ++attempted_;
  if (r != nullptr) {
    const std::string fields = format_result(*r);
    const std::string key = golden_key(id);
    produced_[key] = fields;
    if (problem.empty() && !golden_.empty()) {
      const auto it = golden_.find(key);
      if (it == golden_.end()) {
        problem = "no golden result pinned for this cell";
      } else if (it->second != fields) {
        problem = "result " + fields + " differs from golden " + it->second;
      }
    }
  }
  if (!problem.empty()) {
    ++failed_;
    failures_.push_back(id + ": " + problem);
  }
}

void Bench::load_golden() {
  std::ifstream in(opt_.golden);
  if (!in) throw Error("cannot read golden file " + opt_.golden);
  std::string line;
  const std::string prefix = opt_.scale + ' ' + spec_.name + ' ';
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) != 0) continue;
    const std::size_t cell_end = line.find(' ', prefix.size());
    if (cell_end == std::string::npos) continue;
    golden_[line.substr(0, cell_end)] = line.substr(cell_end + 1);
  }
  if (golden_.empty()) {
    throw Error("golden file has no results for " + prefix);
  }
}

void Bench::check_golden_complete() {
  for (const auto& [key, fields] : golden_) {
    if (!produced_.count(key)) fail(key + ": pinned cell was not produced");
  }
}

void Bench::write_golden() const {
  // Keep every other workload's and scale's lines; replace this one's.
  std::vector<std::string> lines;
  const std::string prefix = opt_.scale + ' ' + spec_.name + ' ';
  {
    std::ifstream in(opt_.golden);
    std::string line;
    while (std::getline(in, line)) {
      if (!line.empty() && line.rfind(prefix, 0) != 0) lines.push_back(line);
    }
  }
  for (const auto& [key, fields] : produced_) lines.push_back(key + ' ' + fields);
  std::sort(lines.begin(), lines.end());
  std::ofstream out(opt_.golden);
  for (const std::string& l : lines) out << l << '\n';
}

PassSample Bench::run_pass() {
  Recorder::Scope scope(rec_, "pass");
  PassSample sample;
  sample_ = &sample;
  slowdown_ = host_.probe();
  for (const std::string& app : spec_.apps) {
    try {
      AppInputs in;
      timed(&PassSample::setup, [&] { in = setup(app); });
      timed(nullptr, [&] { check_htrc(app, in); });
      if (spec_.lowered) {
        replay_lowered(app, in);
      } else {
        replay_app(app, in);
      }
      timed(nullptr, [&] { store_app(app, in); });
    } catch (const std::exception& e) {
      fail(app + ": " + e.what());
    }
  }
  sample_ = nullptr;
  return sample;
}

PassSample Bench::run_setup_only() {
  PassSample sample;
  sample_ = &sample;
  slowdown_ = host_.probe();
  for (const std::string& app : spec_.apps) {
    try {
      AppInputs in;
      timed(&PassSample::setup, [&] { in = setup(app); });
    } catch (const std::exception& e) {
      fail(app + " (set-up): " + e.what());
    }
  }
  sample_ = nullptr;
  return sample;
}

/// Unit of a per-layer metric; every one not listed is a time in seconds.
std::string layer_unit(const std::string& name) {
  static const std::map<std::string, std::string> kUnits = {
      {"mpisim.events", "count"},  {"mpisim.events_per_s", "1/s"},
      {"mpisim.peak_rss_mb", "MB"}, {"trace.bytes", "B"},
      {"graph.edges", "count"},     {"core.blocks", "count"},
      {"core.trunks", "count"},     {"netsim.pairs", "count"},
      {"netsim.replay_peak_rss_mb", "MB"},
      {"netsim.shard_overhead.k2", "ratio"},
      {"netsim.shard_overhead.k4", "ratio"},
      {"netsim.reconfigurations", "count"},
      {"collective.p2p_events", "count"},
      {"collective.schedules", "count"},
      {"store.schedule_cache_hits", "count"},
      {"store.schedule_cache_misses", "count"}};
  const auto it = kUnits.find(name);
  return it == kUnits.end() ? "s" : it->second;
}

/// Per-layer metrics of the traced pass, from its spans and counters. Times
/// are divided by the pass's median host slowdown.
std::map<std::string, double> layer_metrics(const Recorder& rec,
                                            double slowdown) {
  std::map<std::string, double> self = rec.self_times();
  for (auto& [name, v] : self) v /= slowdown;
  const std::map<std::string, double>& c = rec.counters();
  const auto get = [](const std::map<std::string, double>& m,
                      const std::string& k) {
    const auto it = m.find(k);
    return it == m.end() ? 0.0 : it->second;
  };
  const auto sum_prefix = [&](const std::string& prefix) {
    double s = 0.0;
    for (const auto& [name, v] : self) {
      if (name.rfind(prefix, 0) == 0) s += v;
    }
    return s;
  };
  double replay_rss = 0.0;
  for (const auto& [name, v] : c) {
    if (name.rfind("netsim.replay.", 0) == 0) replay_rss = std::max(replay_rss, v);
  }
  std::map<std::string, double> m;
  m["mpisim.run_s"] = get(self, "mpisim.run");
  m["mpisim.events"] = get(c, "mpisim.events");
  m["mpisim.events_per_s"] = m["mpisim.events"] / m["mpisim.run_s"];
  m["mpisim.peak_rss_mb"] = get(c, "mpisim.run.peak_rss_mb");
  m["trace.save_s"] = get(self, "trace.save");
  m["trace.load_s"] = get(self, "trace.load");
  m["trace.bytes"] = get(c, "trace.bytes");
  m["graph.build_s"] = get(self, "graph.build");
  m["graph.edges"] = get(c, "graph.edges");
  m["core.provision_s"] = get(self, "core.provision");
  m["core.blocks"] = get(c, "core.blocks");
  m["core.trunks"] = get(c, "core.trunks");
  m["netsim.build_s"] = sum_prefix("netsim.build.");
  m["netsim.prewarm_s"] = sum_prefix("netsim.prewarm.");
  m["netsim.pairs"] = get(c, "netsim.pairs");
  m["netsim.replay_s"] = sum_prefix("netsim.replay.");
  m["netsim.replay_peak_rss_mb"] = replay_rss;
  for (int k : kShardCounts) {
    const std::string ks = "k" + std::to_string(k);
    m["netsim.parallel_replay_s." + ks] =
        get(self, "netsim.parallel_replay." + ks);
    m["netsim.shard_overhead." + ks] =
        get(c, "bench.sharded_s." + ks) / get(c, "bench.sharded_serial_s." + ks);
  }
  m["netsim.reconfigurations"] = get(c, "netsim.reconfigurations");
  m["collective.p2p_events"] = get(c, "collective.p2p_events");
  m["collective.schedules"] = get(c, "collective.schedules");
  m["store.schedule_cache_hits"] = get(c, "store.schedule_cache_hits");
  m["store.schedule_cache_misses"] = get(c, "store.schedule_cache_misses");
  m["store.result_save_s"] = get(self, "store.result_save");
  m["store.result_load_s"] = get(self, "store.result_load");
  return m;
}

std::string compiler_name() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

int usage(const char* why) {
  std::cerr << "hfast_perfbench: " << why << "\n";
  return 2;
}

}  // namespace

static int run(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--write-golden") {
      opt.write_golden = true;
    } else if (!has_value) {
      return usage(("missing value for " + a).c_str());
    } else if (a == "--workload") {
      opt.workload = argv[++i];
    } else if (a == "--seed") {
      opt.seed = std::stoull(argv[++i]);
    } else if (a == "--seconds") {
      opt.seconds = std::stod(argv[++i]);
    } else if (a == "--trace") {
      opt.trace = std::string(argv[++i]) == "1";
    } else if (a == "--scale") {
      opt.scale = argv[++i];
    } else if (a == "--work-dir") {
      opt.work_dir = argv[++i];
    } else if (a == "--out") {
      opt.out = argv[++i];
    } else if (a == "--chrome-trace") {
      opt.chrome_trace = argv[++i];
    } else if (a == "--golden") {
      opt.golden = argv[++i];
    } else if (a == "--commit") {
      opt.commit = argv[++i];
    } else if (a == "--run-index") {
      opt.run_index = std::stoi(argv[++i]);
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : workloads()) {
    if (w.name == opt.workload) spec = &w;
  }
  if (spec == nullptr) return usage("unknown --workload");
  if (opt.scale != "full" && opt.scale != "tiny") return usage("bad --scale");
  if (opt.work_dir.empty() || opt.out.empty()) {
    return usage("--work-dir and --out are required");
  }
  if (opt.golden.empty() && (opt.seed == kGoldenSeed || opt.write_golden)) {
    return usage("--golden is required at the default seed");
  }

  const std::string run_id = opt.workload + "-" + opt.scale + "-s" +
                             std::to_string(opt.seed) + "-r" +
                             std::to_string(opt.run_index) + "-t" +
                             (opt.trace ? "1" : "0") + "-" +
                             std::to_string(::getpid());
  HostSpeed host;
  Recorder rec(opt.trace, run_id);
  Bench bench(opt, *spec, rec, host);
  // A traced run first makes an untraced pass, as the reference for
  // bench.trace_overhead_s.
  Recorder plain(false, run_id);
  Bench reference(opt, *spec, plain, host);
  fs::create_directories(opt.work_dir / run_id);

  const auto run_start = Clock::now();
  const PassSample reference_sample =
      opt.trace ? reference.run_pass() : PassSample{};
  const PassSample sample = bench.run_pass();
  std::vector<double> setups = {sample.setup.ref_s};
  while (!opt.trace && setups.size() < kSetupSamples) {
    setups.push_back(bench.run_setup_only().setup.ref_s);
  }
  if (opt.seed == kGoldenSeed && !opt.write_golden) {
    bench.check_golden_complete();
    if (opt.trace) reference.check_golden_complete();
  }
  if (opt.write_golden) bench.write_golden();
  bench.cleanup();
  const double slowdown = median(sample.slowdowns);
  const double run_s = seconds_since(run_start);
  const double peak_mb = perfbench::peak_rss_mb();
  const std::uint64_t attempted = bench.attempted() + reference.attempted();
  const std::uint64_t failed = bench.failed() + reference.failed();
  std::vector<std::string> failures = bench.failures();
  for (const std::string& f : reference.failures()) {
    failures.push_back("untraced reference pass: " + f);
  }

  // --- metrics -------------------------------------------------------------
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  // Every span's self time in the traced pass, and its counts.
  std::map<std::string, double> detail;
  if (!opt.trace) {
    metrics.push_back({"wall_s", {sample.wall.ref_s, "s"}});
    metrics.push_back({"setup_s", {median(setups), "s"}});
    metrics.push_back({"replay_s", {sample.replay.ref_s, "s"}});
    metrics.push_back({"events_per_s", {sample.events / sample.replay.ref_s, "1/s"}});
    metrics.push_back({"peak_rss_mb", {peak_mb, "MB"}});
  } else {
    for (const auto& [k, v] : layer_metrics(rec, slowdown)) {
      metrics.push_back({k, {v, layer_unit(k)}});
    }
    metrics.push_back({"bench.trace_overhead_s",
                       {sample.wall.ref_s - reference_sample.wall.ref_s, "s"}});
    for (const auto& [k, v] : rec.self_times()) detail[k] = v / slowdown;
    for (const auto& [k, v] : rec.counters()) detail["count:" + k] = v;
  }

  const std::vector<std::pair<std::string, std::string>> stamp = {
      {"nproc", std::to_string(::sysconf(_SC_NPROCESSORS_ONLN))},
      {"hardware_concurrency", std::to_string(std::thread::hardware_concurrency())},
      {"build_type", PERFBENCH_BUILD_TYPE},
      {"compiler", compiler_name()},
      {"commit", opt.commit},
      {"seed", std::to_string(opt.seed)},
      {"run_index", std::to_string(opt.run_index)},
      {"peak_rss_mb", std::to_string(peak_mb)},
  };
  if (opt.trace && !opt.chrome_trace.empty()) {
    rec.write_chrome_trace(opt.chrome_trace, stamp);
  }

  std::ofstream os(opt.out);
  util::JsonWriter w(os);
  w.begin_object();
  w.field("workload", opt.workload);
  w.field("scale", opt.scale);
  w.field("nranks", bench.nranks());
  w.field("trace", opt.trace);
  w.key("stamp");
  w.begin_object();
  for (const auto& [k, v] : stamp) w.field(k, v);
  w.end_object();
  w.field("correct", failed == 0);
  w.field("attempted", attempted);
  w.field("failed", failed);
  w.key("failures");
  w.begin_array();
  for (const std::string& f : failures) w.value(f);
  w.end_array();
  w.field("seconds", opt.seconds);
  w.field("run_s", run_s);
  w.key("metrics");
  w.begin_object();
  for (const auto& [name, vu] : metrics) {
    w.key(name);
    w.begin_object();
    w.field("value", vu.first);
    w.field("unit", vu.second);
    w.end_object();
  }
  w.end_object();
  // The pass's phase timers, raw and in reference-host seconds, the set-up
  // samples setup_s is the median of, and the pass's median host slowdown.
  w.key("samples");
  w.begin_object();
  for (const auto& [name, field] :
       std::vector<std::pair<std::string, Phase PassSample::*>>{
           {"wall", &PassSample::wall},
           {"setup", &PassSample::setup},
           {"replay", &PassSample::replay}}) {
    w.field(name + "_raw_s", (sample.*field).raw_s);
    w.field(name + "_ref_s", (sample.*field).ref_s);
  }
  w.field("host_slowdown", slowdown);
  w.key("setup_samples_ref_s");
  w.begin_array();
  for (const double v : setups) w.value(v);
  w.end_array();
  if (opt.trace) w.field("reference_wall_ref_s", reference_sample.wall.ref_s);
  w.end_object();
  w.key("layers");
  w.begin_object();
  for (const auto& [k, v] : detail) w.field(k, v);
  w.end_object();
  w.end_object();
  w.finish();
  return os ? 0 : 1;
}

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "hfast_perfbench: " << e.what() << "\n";
    return 1;
  }
}
