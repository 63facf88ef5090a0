// Shared pieces of the benchmark driver: command line, statistics, spans,
// the result and leakage oracles, the per-row pairing probes, the host and
// build fingerprint, and the result line.
#ifndef SJBENCH_HARNESS_H_
#define SJBENCH_HARNESS_H_

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/leakage.h"
#include "core/scheme.h"
#include "crypto/sha256.h"
#include "db/query.h"
#include "db/table.h"

namespace sjbench {

using sjoin::Bytes;
using sjoin::JoinQuerySpec;
using sjoin::Table;
using sjoin::Value;

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

inline int NumThreads() {
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

/// Runs `fn` on a new thread pinned to the `k`-th CPU (mod the CPUs this
/// process may use) and waits for it. A single-threaded step timed this
/// way with k = 0, 1, 2, ... samples every CPU alike, as the
/// multi-threaded series do, instead of whichever CPU the calling thread
/// happens to stay on; a CPU slowed by other load then cannot decide a
/// run's median.
void RunPinned(size_t k, const std::function<void()>& fn);

// --- Command line --------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// > 0: run exactly this many timed series instead of --seconds (the
  /// self-test, whose counts must repeat exactly).
  size_t fixed_series = 0;
  /// Source fingerprint (git commit or tree digest) supplied by run.py.
  std::string source = "none";
  std::string trace_out;
};

/// Parses `--name value` pairs; false on an unknown flag or a bad value.
bool ParseArgs(int argc, char** argv, Args* out);

// --- Statistics ----------------------------------------------------------------

/// Linear interpolation between order statistics (numpy's default); 0 for
/// an empty sample.
double Percentile(std::vector<double> v, double p);
inline double Median(std::vector<double> v) {
  return Percentile(std::move(v), 50);
}
inline double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Peak resident set of this process, MiB.
inline double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// --- Spans -------------------------------------------------------------------

/// In-memory span recorder. Disabled recorders cost one branch per call.
/// Thread-safe: the dashboard's readers and writer record concurrently.
class Trace {
 public:
  explicit Trace(bool enabled) : enabled_(enabled), t0_(Clock::now()) {}

  bool enabled() const { return enabled_; }

  /// Opens a span; returns its id (0 when disabled). `parent` 0 = root.
  uint64_t Begin(const std::string& name, uint64_t parent, int64_t series);
  void End(uint64_t id);
  /// Records a finished span from a duration the program reported,
  /// starting `offset_ms` after its parent began.
  void AddReported(const std::string& name, uint64_t parent, int64_t series,
                   double offset_ms, double duration_ms);

  /// Per span name: total self time (duration minus the union of its
  /// children's intervals), ms.
  std::map<std::string, double> SelfTimesMs() const;
  /// Writes every span plus `header_json` (an object) as one JSON file.
  bool Write(const std::string& path, const std::string& header_json) const;

 private:
  struct Span {
    std::string name;
    uint64_t parent = 0;
    int64_t series = -1;
    double start_ms = 0;
    double end_ms = -1;
  };
  double Now() const {
    return std::chrono::duration<double, std::milli>(Clock::now() - t0_)
        .count();
  }

  const bool enabled_;
  const Clock::time_point t0_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // id = index + 1
};

/// RAII span; a null or disabled trace records nothing.
class SpanScope {
 public:
  SpanScope(Trace* trace, const std::string& name, uint64_t parent,
            int64_t series)
      : trace_(trace && trace->enabled() ? trace : nullptr),
        id_(trace_ ? trace_->Begin(name, parent, series) : 0) {}
  ~SpanScope() { End(); }
  /// Ends the span early; later calls do nothing.
  void End() {
    if (trace_) trace_->End(id_);
    trace_ = nullptr;
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  uint64_t id() const { return id_; }

 private:
  Trace* trace_;
  uint64_t id_;
};

// --- Oracles -----------------------------------------------------------------

/// The canonical multiset of a join result: each row's values serialized,
/// sorted. Row order in a result carries no meaning.
std::vector<std::string> CanonicalRows(const Table& result);

/// The canonical rows DecryptJoinResult must produce for `q` over the
/// plaintext tables: (theta, A's non-join columns, B's non-join columns)
/// for every pair PlaintextHashJoin returns.
std::vector<std::string> ExpectedRows(const Table& a, const Table& b,
                                      const JoinQuerySpec& q);

/// Feeds the plaintext equality groups of one query's selected rows to
/// `tracker` -- exactly what SJ.Dec + SJ.Match reveal for a query with a
/// fresh key. Rows are named by position, which is their stable id as long
/// as the tables were never mutated.
void ObserveQueryLeakage(sjoin::LeakageTracker* tracker, const Table& a,
                         int table_a, const Table& b, int table_b,
                         const JoinQuerySpec& q);

/// Folds one query spec into a running digest of the query sequence.
void HashSpec(sjoin::Sha256* h, const JoinQuerySpec& q);

// --- Pairing probes ----------------------------------------------------------

/// Single-threaded per-row costs of the SJ.Dec building blocks, measured
/// on the workload's own rows and token.
struct ProbeCosts {
  double miller_cold_ms = 0;
  double prepare_row_ms = 0;
  double miller_prepared_ms = 0;
  double final_exp_ms = 0;
};
ProbeCosts ProbeDecrypt(const sjoin::SjToken& token,
                        const std::vector<const sjoin::SjRowCiphertext*>& rows);

// --- Fingerprint and output ----------------------------------------------------

/// Host and build fingerprint as a JSON object.
std::string FingerprintJson(const Args& args);
/// True for a Release build of the engine.
bool IsReleaseBuild();

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

/// The result line: {"correct", "attempted", "failed", "metrics"}.
std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics);

/// JSON string literal (quotes and escapes included).
std::string JsonString(const std::string& s);
/// A finite number with every digit; non-finite values print as 0.
std::string JsonNumber(double v);

}  // namespace sjbench

#endif  // SJBENCH_HARNESS_H_
