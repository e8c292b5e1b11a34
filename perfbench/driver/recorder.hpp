#pragma once
/// \file recorder.hpp
/// The benchmark's own measuring tools: /proc memory readings, and (when
/// tracing) one span per public-layer call with counts and per-call peak
/// RSS. Spans are taken from outside the library, around each call, so
/// nothing inside src/ is instrumented.

#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "hfast/util/json.hpp"
#include "host_speed.hpp"

namespace perfbench {

/// A /proc/self/status memory field ("VmHWM", "VmRSS") in MB, or 0 if
/// unreadable.
inline double status_mb(const std::string& field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(field + ":", 0) == 0) {
      return std::stod(line.substr(field.size() + 1)) * 1024.0 / 1e6;  // kB
    }
  }
  return 0.0;
}

/// Peak resident set of this process (VmHWM) in MB.
inline double peak_rss_mb() { return status_mb("VmHWM"); }

/// Resets the VmHWM high-water mark to the current RSS and returns that RSS,
/// so VmHWM read later, minus the return value, is what ran in between
/// added at its peak. (Memory an earlier layer freed but the allocator kept
/// stays resident, so VmHWM alone would only repeat that earlier peak.)
inline double reset_peak_rss() {
  {
    std::ofstream out("/proc/self/clear_refs");
    out << "5";
  }
  return status_mb("VmRSS");
}

struct Span {
  std::string name;
  double start_s = 0.0;  ///< seconds since the recorder's epoch
  double end_s = 0.0;
  int parent = -1;       ///< index of the enclosing span, -1 at top level
};

/// In-memory span and counter store for one benchmark run. When tracing is
/// off, spans and memory probes are no-ops and only counters are kept, so
/// an untraced run pays for little beyond its phase timers.
class Recorder {
 public:
  Recorder(bool tracing, std::string run_id)
      : tracing_(tracing), run_id_(std::move(run_id)), epoch_(Clock::now()) {}

  const std::string& run_id() const noexcept { return run_id_; }

  /// RAII span; the enclosing open span becomes its parent.
  class Scope {
   public:
    Scope(Recorder& rec, std::string name) : rec_(rec) {
      if (!rec_.tracing_) return;
      id_ = static_cast<int>(rec_.spans_.size());
      rec_.spans_.push_back({std::move(name), rec_.now_s(), 0.0,
                             rec_.stack_.empty() ? -1 : rec_.stack_.back()});
      rec_.stack_.push_back(id_);
    }
    ~Scope() {
      if (id_ < 0) return;
      rec_.spans_[static_cast<std::size_t>(id_)].end_s = rec_.now_s();
      rec_.stack_.pop_back();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Recorder& rec_;
    int id_ = -1;
  };

  /// Runs `fn` inside a span named `name`. With `track_rss`, the traced run
  /// also records the most memory the call added at its peak over the RSS
  /// it started from, as `name`.peak_rss_mb (the largest over calls).
  template <typename F>
  decltype(auto) call(const std::string& name, F&& fn, bool track_rss = false) {
    struct RssProbe {
      Recorder& rec;
      const std::string& name;
      bool on;
      double start_mb = on ? reset_peak_rss() : 0.0;
      ~RssProbe() {
        if (on) rec.max_value(name + ".peak_rss_mb", peak_rss_mb() - start_mb);
      }
    } probe{*this, name, tracing_ && track_rss};
    Scope scope(*this, name);
    return fn();
  }

  /// Counters (always kept; they cost one map update per call).
  void add(const std::string& name, double v) { counters_[name] += v; }
  void max_value(const std::string& name, double v) {
    double& cur = counters_[name];
    if (v > cur) cur = v;
  }
  const std::map<std::string, double>& counters() const { return counters_; }

  /// Self time of every span name: duration minus the part covered by
  /// direct children (calls are sequential, so children never overlap each
  /// other).
  std::map<std::string, double> self_times() const;

  /// Chrome trace-event JSON (Perfetto / chrome://tracing): one complete
  /// ("X") event per span, all sharing this run's id, plus the host stamp.
  void write_chrome_trace(
      const std::string& path,
      const std::vector<std::pair<std::string, std::string>>& stamp) const;

 private:
  double now_s() const { return seconds_since(epoch_); }

  bool tracing_;
  std::string run_id_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
  std::map<std::string, double> counters_;
};

inline std::map<std::string, double> Recorder::self_times() const {
  std::vector<double> child_time(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_time[static_cast<std::size_t>(s.parent)] += s.end_s - s.start_s;
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out[s.name] += (s.end_s - s.start_s) - child_time[i];
  }
  return out;
}

inline void Recorder::write_chrome_trace(
    const std::string& path,
    const std::vector<std::pair<std::string, std::string>>& stamp) const {
  std::ofstream os(path);
  hfast::util::JsonWriter w(os);
  w.begin_object();
  w.key("traceEvents");
  w.begin_array();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    w.begin_object();
    w.field("name", s.name);
    w.field("cat", s.name.substr(0, s.name.find('.')));
    w.field("ph", "X");
    w.field("ts", s.start_s * 1e6);
    w.field("dur", (s.end_s - s.start_s) * 1e6);
    w.field("pid", 1);
    w.field("tid", 1);
    w.key("args");
    w.begin_object();
    w.field("run_id", run_id_);
    w.field("span_id", static_cast<std::int64_t>(i));
    w.field("parent", static_cast<std::int64_t>(s.parent));
    w.field("parent_name",
            s.parent >= 0 ? spans_[static_cast<std::size_t>(s.parent)].name
                          : std::string());
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.key("otherData");
  w.begin_object();
  for (const auto& [k, v] : stamp) w.field(k, v);
  w.end_object();
  w.end_object();
  w.finish();
}

}  // namespace perfbench
