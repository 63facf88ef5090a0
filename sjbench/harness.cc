#include "sjbench/harness.h"

#include <pthread.h>
#include <sched.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <span>
#include <sstream>

#include "db/plaintext_exec.h"
#include "field/mont_accel.h"
#include "util/hex.h"

namespace sjbench {

void RunPinned(size_t k, const std::function<void()>& fn) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
    }
  }
  std::thread t([&] {
    if (!cpus.empty()) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpus[k % cpus.size()], &one);
      pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
    }
    fn();
  });
  t.join();
}

bool ParseArgs(int argc, char** argv, Args* out) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string val = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      out->workload = val;
    } else if (flag == "--seed") {
      out->seed = std::strtoull(val.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      out->seconds = std::strtod(val.c_str(), &end);
      if (*end != '\0' || !(out->seconds > 0)) return false;
    } else if (flag == "--trace") {
      if (val != "0" && val != "1") return false;
      out->trace = val == "1";
    } else if (flag == "--series") {
      out->fixed_series = std::strtoull(val.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--source") {
      out->source = val;
    } else if (flag == "--trace-out") {
      out->trace_out = val;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !out->workload.empty();
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

// --- Trace -------------------------------------------------------------------

uint64_t Trace::Begin(const std::string& name, uint64_t parent,
                      int64_t series) {
  if (!enabled_) return 0;
  const double now = Now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, parent, series, now, -1});
  return spans_.size();
}

void Trace::End(uint64_t id) {
  if (!enabled_ || id == 0) return;
  const double now = Now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[id - 1].end_ms = now;
}

void Trace::AddReported(const std::string& name, uint64_t parent,
                        int64_t series, double offset_ms,
                        double duration_ms) {
  if (!enabled_ || parent == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  const double start = spans_[parent - 1].start_ms + offset_ms;
  spans_.push_back(Span{name, parent, series, start, start + duration_ms});
}

std::map<std::string, double> Trace::SelfTimesMs() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent != 0 && s.end_ms >= 0) {
      children[s.parent - 1].push_back({s.start_ms, s.end_ms});
    }
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ms < 0) continue;
    // Union of the children's intervals, clipped to the span.
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0, cur_lo = 0, cur_hi = -1;
    for (auto [lo, hi] : iv) {
      lo = std::max(lo, s.start_ms);
      hi = std::min(hi, s.end_ms);
      if (hi <= lo) continue;
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    self[s.name] += (s.end_ms - s.start_ms) - covered;
  }
  return self;
}

bool Trace::Write(const std::string& path,
                  const std::string& header_json) const {
  std::ofstream f(path);
  if (!f) return false;
  f << "{\"header\": " << header_json << ", \"self_ms\": {";
  bool first = true;
  for (const auto& [name, ms] : SelfTimesMs()) {
    f << (first ? "" : ", ") << JsonString(name) << ": " << JsonNumber(ms);
    first = false;
  }
  f << "}, \"spans\": [\n";
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    f << (i ? ",\n" : "") << "{\"id\": " << i + 1
      << ", \"name\": " << JsonString(s.name) << ", \"parent\": " << s.parent
      << ", \"series\": " << s.series
      << ", \"start_ms\": " << JsonNumber(s.start_ms)
      << ", \"end_ms\": " << JsonNumber(s.end_ms) << "}";
  }
  f << "\n]}\n";
  return static_cast<bool>(f);
}

// --- Oracles -----------------------------------------------------------------

namespace {

std::string RowKey(const std::vector<Value>& row) {
  Bytes b;
  for (const Value& v : row) v.SerializeTo(&b);
  return std::string(b.begin(), b.end());
}

size_t ColumnOf(const Table& t, const std::string& name) {
  auto idx = t.schema().ColumnIndex(name);
  SJOIN_CHECK(idx.ok());
  return *idx;
}

}  // namespace

std::vector<std::string> CanonicalRows(const Table& result) {
  std::vector<std::string> rows;
  rows.reserve(result.NumRows());
  for (size_t r = 0; r < result.NumRows(); ++r) {
    rows.push_back(RowKey(result.row(r)));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

std::vector<std::string> ExpectedRows(const Table& a, const Table& b,
                                      const JoinQuerySpec& q) {
  auto pairs = sjoin::PlaintextHashJoin(a, b, q);
  SJOIN_CHECK(pairs.ok());
  const size_t ja = ColumnOf(a, q.join_column_a);
  const size_t jb = ColumnOf(b, q.join_column_b);
  std::vector<std::string> rows;
  rows.reserve(pairs->size());
  for (const sjoin::JoinedRowPair& p : *pairs) {
    std::vector<Value> row = {a.At(p.row_a, ja)};
    for (size_t c = 0; c < a.schema().NumColumns(); ++c) {
      if (c != ja) row.push_back(a.At(p.row_a, c));
    }
    for (size_t c = 0; c < b.schema().NumColumns(); ++c) {
      if (c != jb) row.push_back(b.At(p.row_b, c));
    }
    rows.push_back(RowKey(row));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

void ObserveQueryLeakage(sjoin::LeakageTracker* tracker, const Table& a,
                         int table_a, const Table& b, int table_b,
                         const JoinQuerySpec& q) {
  std::map<Value, std::vector<sjoin::RowId>> groups;
  auto collect = [&](const Table& t, int table,
                     const std::string& join_column,
                     const sjoin::TableSelection& sel) {
    const size_t j = ColumnOf(t, join_column);
    for (size_t r = 0; r < t.NumRows(); ++r) {
      auto m = sjoin::RowMatchesSelection(t, r, sel);
      SJOIN_CHECK(m.ok());
      if (*m) groups[t.At(r, j)].push_back({table, r});
    }
  };
  collect(a, table_a, q.join_column_a, q.selection_a);
  collect(b, table_b, q.join_column_b, q.selection_b);
  for (const auto& [value, members] : groups) {
    if (members.size() >= 2) tracker->ObserveEqualityGroup(members);
  }
}

void HashSpec(sjoin::Sha256* h, const JoinQuerySpec& q) {
  auto put = [&](const std::string& s) {
    h->Update(s);
    h->Update(std::string(1, '\0'));
  };
  put(q.table_a);
  put(q.table_b);
  put(q.join_column_a);
  put(q.join_column_b);
  for (const sjoin::TableSelection* sel : {&q.selection_a, &q.selection_b}) {
    put("sel");
    for (const sjoin::InPredicate& p : sel->predicates) {
      put(p.column);
      for (const Value& v : p.values) put(v.ToDisplayString());
    }
  }
}

// --- Probes ------------------------------------------------------------------

ProbeCosts ProbeDecrypt(const sjoin::SjToken& token,
                        const std::vector<const sjoin::SjRowCiphertext*>& rows) {
  using sjoin::SecureJoin;
  ProbeCosts c;
  const double n = static_cast<double>(rows.size());
  if (rows.empty()) return c;
  std::vector<sjoin::Fp12> millers;
  millers.reserve(rows.size());
  auto t0 = Clock::now();
  for (const auto* ct : rows) {
    millers.push_back(SecureJoin::DecryptRowMiller(token, *ct));
  }
  c.miller_cold_ms = MsSince(t0) / n;

  std::vector<sjoin::SjPreparedRow> prepared;
  prepared.reserve(rows.size());
  t0 = Clock::now();
  for (const auto* ct : rows) prepared.push_back(SecureJoin::PrepareRow(*ct));
  c.prepare_row_ms = MsSince(t0) / n;

  t0 = Clock::now();
  for (size_t i = 0; i < rows.size(); ++i) {
    millers[i] = SecureJoin::DecryptRowMillerPrepared(token, prepared[i]);
  }
  c.miller_prepared_ms = MsSince(t0) / n;

  const size_t chunk = SecureJoin::kDefaultDecryptBatchRows;
  t0 = Clock::now();
  for (size_t i = 0; i < millers.size(); i += chunk) {
    const size_t len = std::min(chunk, millers.size() - i);
    auto digests = SecureJoin::DigestMillerBatch(
        std::span<const sjoin::Fp12>(millers).subspan(i, len));
    SJOIN_CHECK(digests.size() == len);
  }
  c.final_exp_ms = MsSince(t0) / n;
  return c;
}

// --- Fingerprint and output ----------------------------------------------------

namespace {

std::string CpuModel() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      auto colon = line.find(':');
      if (colon != std::string::npos) {
        size_t s = line.find_first_not_of(' ', colon + 1);
        return s == std::string::npos ? "" : line.substr(s);
      }
    }
  }
  return "unknown";
}

}  // namespace

bool IsReleaseBuild() { return std::string(SJBENCH_BUILD_TYPE) == "Release"; }

std::string FingerprintJson(const Args& args) {
  const char* force = std::getenv("SJOIN_FORCE_SCALAR");
  std::ostringstream o;
  o << "{\"cpu\": " << JsonString(CpuModel()) << ", \"nproc\": "
    << NumThreads() << ", \"pairing_dispatch\": "
    << JsonString(sjoin::mont_accel::kEnabled ? "bmi2_adx" : "portable")
    << ", \"SJOIN_FORCE_SCALAR\": " << JsonString(force ? force : "")
    << ", \"compiler\": " << JsonString(SJBENCH_COMPILER)
    << ", \"build_type\": " << JsonString(SJBENCH_BUILD_TYPE)
    << ", \"release_build\": " << (IsReleaseBuild() ? "true" : "false")
    << ", \"source\": " << JsonString(args.source)
    << ", \"workload\": " << JsonString(args.workload)
    << ", \"seed\": " << args.seed << ", \"trace\": " << (args.trace ? 1 : 0)
    << "}";
  return o.str();
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
      out += buf;
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::ostringstream o;
  o << "{\"correct\": " << (correct ? "true" : "false")
    << ", \"attempted\": " << attempted << ", \"failed\": " << failed
    << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    o << (i ? ", " : "") << JsonString(metrics[i].name)
      << ": {\"value\": " << JsonNumber(metrics[i].value)
      << ", \"unit\": " << JsonString(metrics[i].unit) << "}";
  }
  o << "}}";
  return o.str();
}

}  // namespace sjbench
