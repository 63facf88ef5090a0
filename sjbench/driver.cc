// The seeded benchmark driver of the encrypted-join engine.
//
//   sjbench_driver --workload <tpch_scan|dashboard_tcp|dist_fanout>
//                  --seed <n> --seconds <s> --trace <0|1>
//                  [--series <n>] [--source <id>] [--trace-out <file>]
//
// Every workload goes through the public APIs only (EncryptedClient,
// EncryptedServer, TcpServer/TcpClient, Coordinator + ShardWorker), checks
// every query result against PlaintextHashJoin on the generating plaintext,
// and prints one JSON result line last. --trace 0 reports the end-to-end
// metrics; --trace 1 is a separate run that reports the per-layer metrics
// (a seeded half of the series is traced, so the traced-minus-untraced p50
// is the tracing overhead). --series runs a fixed number of series instead of a
// fixed time: the self-test uses it to check that counts repeat exactly.
//
// Workloads (why each exists is in BENCHMARK.json; details in README.md):
//   tpch_scan      TPC-H Customers x Orders, SF 0.001, m=9, t=1 (dim 21),
//                  in process. The rotation reaches every row, ~2.2x the
//                  prepared-row cache: cold Miller loops, row builds and
//                  evictions.
//   dashboard_tcp  three ~500-row tables, dim 12, served over loopback TCP
//                  to three reader connections looping shared-key chains
//                  while a writer connection churns 1% of every table
//                  after every 4 completed reader series; every other
//                  churn step holds the readers between series (the
//                  timed, quiescent mutations).
//   dist_fanout    the tpch_scan tables, selecting labelled rows only (fits
//                  every cache), through a Coordinator (K=8, R=2) fanning
//                  SJ.Dec out to two ShardWorkers over TCP.
#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <sstream>

#include "db/client.h"
#include "db/server.h"
#include "db/wire.h"
#include "dist/coordinator.h"
#include "dist/worker.h"
#include "net/tcp_client.h"
#include "net/tcp_server.h"
#include "sjbench/harness.h"
#include "tpch/tpch.h"

using namespace sjoin;  // NOLINT: benchmark harness
using namespace sjbench;  // NOLINT

namespace {

/// Set-ups per run: setup_s is their median. Only the last one's
/// deployment runs the timed loop.
constexpr int kSetupReps = 3;
/// Churn batches after the timed loop of a traced run of the two
/// workloads that have no writer: the prepared-cache retention samples.
constexpr int kRetentionBatches = 5;
/// Interval of the churn probe that runs between the loop's series on
/// those workloads (see OrdersChurn): ~30 samples in a 16 s loop.
constexpr double kChurnProbeIntervalMs = 500;

/// ServerExecOptions::num_threads of every engine and the coordinator: the
/// host's CPU count.
const int kThreads = NumThreads();

// --- Measurements shared by all workloads -------------------------------------

/// Everything one run measures; the workload fills it, main() reports it.
struct Outcome {
  std::vector<double> setup_s;
  std::vector<double> series_ms;        // untraced series latencies
  std::vector<double> traced_series_ms; // traced series (--trace 1)
  uint64_t timed_queries = 0;
  double loop_s = 0;
  /// Peak RSS when the timed loop ends, before the oracles allocate.
  double peak_rss_mb = 0;
  std::vector<double> mutation_ms;
  std::vector<double> mutation_prepare_ms, mutation_apply_ms;
  /// Dashboard batches applied beside in-flight series (per layer only).
  std::vector<double> concurrent_mutation_ms;
  std::vector<double> retention;  // prepared hit ratio after a churn batch
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;
  double ws_ratio = 0;
  bool guard_ok = true;
  std::string query_digest;
  /// Counts that must repeat exactly for a fixed seed and series count.
  std::map<std::string, uint64_t> counts;
  /// Per-layer values (--trace 1), keyed by metric name.
  std::map<std::string, double> layer;

  /// Counts `n` failed operations; keeps the first few messages.
  void Fail(const std::string& what, uint64_t n = 1) {
    failed += n;
    if (errors.size() < 5) errors.push_back(what);
  }
};

/// Per-layer accumulators over the traced series.
struct LayerAcc {
  std::vector<double> token_gen_ms, result_decrypt_ms, execute_ms,
      prefilter_ms, decrypt_ms, match_ms, other_ms, codec_us, transport_ms,
      request_bytes, response_bytes, dist_execute_ms;
  uint64_t series = 0, queries = 0, requested = 0, performed = 0,
           digest_hits = 0, cold = 0, prepared = 0, built = 0,
           prepared_hits = 0;
  double decrypt_ms_total = 0;
  std::mutex mu;

  /// Folds one traced series' server-reported stats; `execute_ms` is the
  /// driver-timed call that produced them.
  void AddExec(const SeriesExecStats& s, double exec_ms) {
    std::lock_guard<std::mutex> lock(mu);
    const double pre = s.prefilter_seconds * 1e3;
    const double dec = s.decrypt_seconds * 1e3;
    const double mat = s.match_seconds * 1e3;
    execute_ms.push_back(exec_ms);
    prefilter_ms.push_back(pre);
    decrypt_ms.push_back(dec);
    match_ms.push_back(mat);
    other_ms.push_back(std::max(0.0, exec_ms - pre - dec - mat));
    ++series;
    queries += s.queries;
    requested += s.decrypts_requested;
    performed += s.decrypts_performed;
    digest_hits += s.digest_cache_hits;
    cold += s.pairings_computed;
    prepared += s.prepared_pairings;
    built += s.prepared_rows_built;
    prepared_hits += s.prepared_cache_hits;
    decrypt_ms_total += dec;
  }
};

/// Records the server-reported phases as children of the execute span.
void AddPhaseSpans(Trace* trace, uint64_t parent, int64_t series,
                   const SeriesExecStats& s) {
  const double pre = s.prefilter_seconds * 1e3;
  const double dec = s.decrypt_seconds * 1e3;
  trace->AddReported("server.prefilter", parent, series, 0, pre);
  trace->AddReported("server.decrypt", parent, series, pre, dec);
  trace->AddReported("server.match", parent, series, pre + dec,
                     s.match_seconds * 1e3);
}

/// Times the wire codec on the series' own request and response.
double CodecMicros(const QuerySeriesTokens& tokens,
                   const EncryptedSeriesResult& result, size_t* req_bytes,
                   size_t* resp_bytes) {
  auto t0 = Clock::now();
  Bytes req = SerializeQuerySeries(tokens);
  auto req_back = DeserializeQuerySeries(req);
  Bytes resp = SerializeSeriesResult(result);
  auto resp_back = DeserializeSeriesResult(resp);
  const double us = MsSince(t0) * 1e3;
  SJOIN_CHECK(req_back.ok() && resp_back.ok());
  *req_bytes = req.size();
  *resp_bytes = resp.size();
  return us;
}

/// Fills the layer metrics every workload derives the same way.
void FinishLayer(LayerAcc& acc, const ProbeCosts& probe, Outcome* out) {
  auto& L = out->layer;
  L["client.token_gen_ms"] = Median(acc.token_gen_ms);
  L["client.result_decrypt_ms"] = Median(acc.result_decrypt_ms);
  L["server.execute_ms"] = Median(acc.execute_ms);
  L["sse.prefilter_ms"] = Median(acc.prefilter_ms);
  L["server.decrypt_ms"] = Median(acc.decrypt_ms);
  L["server.match_ms"] = Median(acc.match_ms);
  L["server.other_ms"] = Median(acc.other_ms);
  L["series.digest_hit_ratio"] = Ratio(acc.digest_hits, acc.requested);
  L["core.decrypts_per_query"] = Ratio(acc.performed, acc.queries);
  L["prepared_cache.hit_ratio"] = Ratio(acc.prepared_hits, acc.prepared);
  L["wire.codec_us"] = Median(acc.codec_us);
  L["wire.request_bytes"] = Median(acc.request_bytes);
  L["wire.response_bytes"] = Median(acc.response_bytes);
  L["net.transport_ms"] = Median(acc.transport_ms);
  L["dist.execute_ms"] = Median(acc.dist_execute_ms);
  L["pairing.miller_cold_ms"] = probe.miller_cold_ms;
  L["core.prepare_row_ms"] = probe.prepare_row_ms;
  L["pairing.miller_prepared_ms"] = probe.miller_prepared_ms;
  L["pairing.final_exp_ms"] = probe.final_exp_ms;
  // Probe costs times the pairing counters, against the decrypt phase's
  // thread-time: near 1 when the breakdown accounts for the phase.
  const double predicted =
      acc.cold * probe.miller_cold_ms +
      acc.built * (probe.prepare_row_ms + probe.miller_prepared_ms) +
      acc.prepared_hits * probe.miller_prepared_ms +
      acc.performed * probe.final_exp_ms;
  L["core.decrypt_accounted_frac"] =
      Ratio(predicted, acc.decrypt_ms_total * kThreads);
  L["trace.overhead_ms"] = Median(out->traced_series_ms) - Median(out->series_ms);
}

/// Per-series counts that the self-test requires to repeat exactly.
void CountSeries(const SeriesExecStats& s, Outcome* out) {
  out->counts["decrypts_requested"] += s.decrypts_requested;
  out->counts["decrypts_performed"] += s.decrypts_performed;
  out->counts["digest_cache_hits"] += s.digest_cache_hits;
}

/// Decides whether the next series of a loop is traced: --trace 1 traces
/// a seeded half of the series (a coin, not alternation, so the choice
/// never lines up with a rotation's period); the rest give the untraced
/// reference latency.
bool TracedSeries(const Args& args, Rng* coin) {
  return args.trace && (coin->NextUint64() & 1) == 0;
}

bool KeepGoing(const Args& args, size_t done, Clock::time_point start) {
  if (args.fixed_series > 0) return done < args.fixed_series;
  return MsSince(start) < args.seconds * 1e3;
}

double CacheMb(const PreparedRowCache::Stats& s) {
  return static_cast<double>(s.bytes) / (1024.0 * 1024.0);
}

template <typename T>
void Shuffle(std::vector<T>* v, Rng* rng) {
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[rng->NextUint64Below(i)]);
  }
}

std::vector<Value> DistinctValues(const Table& t, const std::string& column) {
  std::set<Value> seen;
  for (size_t r = 0; r < t.NumRows(); ++r) {
    seen.insert(*t.ValueByName(r, column));
  }
  return {seen.begin(), seen.end()};
}

JoinQuerySpec MakeSpec(const std::string& a, const std::string& b,
                       const std::string& join_column,
                       std::vector<InPredicate> sel_a,
                       std::vector<InPredicate> sel_b) {
  JoinQuerySpec q;
  q.table_a = a;
  q.table_b = b;
  q.join_column_a = q.join_column_b = join_column;
  q.selection_a.predicates = std::move(sel_a);
  q.selection_b.predicates = std::move(sel_b);
  return q;
}

/// One executed query awaiting the oracles: its spec and the canonical
/// rows of its decrypted result.
struct CheckedQuery {
  JoinQuerySpec spec;
  std::vector<std::string> rows;
};

/// Compares decrypted results with PlaintextHashJoin over static tables.
void CheckStaticResults(const Table& a, const Table& b,
                        const std::vector<CheckedQuery>& done, Outcome* out) {
  for (const CheckedQuery& q : done) {
    if (q.rows != ExpectedRows(a, b, q.spec)) {
      out->Fail("result mismatch against PlaintextHashJoin");
    }
  }
}

// --- TPC-H data and query rotations ---------------------------------------------

constexpr double kTpchScale = 0.001;
constexpr size_t kTpchAttrs = 9;  // m: Orders' nine non-join columns
constexpr size_t kTpchInClause = 1;
const char* const kCustomers = "Customers";
const char* const kOrders = "Orders";
/// Queries per tpch_scan series. Each selects Orders by clerk; the first
/// selects Customers by a selectivity label, the others by a
/// (nationkey, mktsegment) cell.
constexpr size_t kScanQueriesPerSeries = 4;

/// Rotations over the TPC-H tables, all seeded:
///  - tpch_scan: Orders.clerk (a wide attribute: ~1.5 rows per value)
///    cycles every clerk and the Customers side cycles every
///    (nationkey, mktsegment) cell, so the rotation reaches every row of
///    both tables; one query per series combines a clerk with a Fig. 3
///    selectivity label on Customers (exactly s*n rows, so series sizes
///    do not depend on the seed);
///  - dist_fanout: Customers (label, mktsegment) cells x Orders cells of
///    one label each: only labelled rows, in slices small enough that a
///    run holds 100+ series.
class TpchRotation {
 public:
  TpchRotation(const Table& cust, const Table& ord, uint64_t seed)
      : rng_(seed ^ 0x7c9a3e11ULL) {
    for (double s : TpchSelectivities()) labels_.push_back(SelectivityLabel(s));
    // dist_fanout's cells. Orders: each label split into cells of 8-15
    // rows (1/12.5 by priority and status, 1/25 by priority, 1/50 by
    // status, 1/100 whole), so most series are the same size and the
    // latency median sits inside one size class, not between two.
    // Customers: label x segment.
    // Per label, largest first (TpchSelectivities' order): split Orders by
    // {priority, status}.
    constexpr bool kSplit[4][2] = {
        {true, true}, {true, false}, {false, true}, {false, false}};
    const std::vector<Value> prios = DistinctValues(ord, "orderpriority");
    const std::vector<Value> statuses = DistinctValues(ord, "orderstatus");
    for (size_t l = 0; l < labels_.size(); ++l) {
      const InPredicate label{"selectivity", {labels_[l]}};
      for (const Value& g : DistinctValues(cust, "mktsegment")) {
        cust_cells_.push_back({label, {"mktsegment", {g}}});
      }
      const bool by_prio = kSplit[l][0], by_status = kSplit[l][1];
      for (size_t p = 0; p < (by_prio ? prios.size() : 1); ++p) {
        for (size_t st = 0; st < (by_status ? statuses.size() : 1); ++st) {
          std::vector<InPredicate> cell = {label};
          if (by_prio) cell.push_back({"orderpriority", {prios[p]}});
          if (by_status) cell.push_back({"orderstatus", {statuses[st]}});
          order_cells_.push_back(std::move(cell));
        }
      }
    }
    clerks_ = DistinctValues(ord, "clerk");
    std::set<std::pair<Value, Value>> cells;
    for (size_t r = 0; r < cust.NumRows(); ++r) {
      cells.insert({*cust.ValueByName(r, "nationkey"),
                    *cust.ValueByName(r, "mktsegment")});
    }
    cells_.assign(cells.begin(), cells.end());
    Shuffle(&labels_, &rng_);
    Shuffle(&cust_cells_, &rng_);
    Shuffle(&order_cells_, &rng_);
    Shuffle(&clerks_, &rng_);
    Shuffle(&cells_, &rng_);
  }

  std::vector<JoinQuerySpec> ScanSeries() {
    std::vector<JoinQuerySpec> out;
    for (size_t i = 0; i < kScanQueriesPerSeries; ++i) {
      std::vector<InPredicate> cust;
      if (i == 0) {
        cust = {{"selectivity", {labels_[next_label_++ % labels_.size()]}}};
      } else {
        const auto& [nation, segment] = cells_[next_cell_++ % cells_.size()];
        cust = {{"nationkey", {nation}}, {"mktsegment", {segment}}};
      }
      out.push_back(
          Spec(std::move(cust), {{"clerk", {clerks_[next_clerk_++ %
                                                     clerks_.size()]}}}));
    }
    return out;
  }

  /// One query per label (Customers L x Orders L): touches every
  /// labelled row, i.e. dist_fanout's whole working set.
  std::vector<JoinQuerySpec> AllLabelsSeries() const {
    std::vector<JoinQuerySpec> out;
    for (const std::string& l : labels_) {
      out.push_back(Spec({{"selectivity", {l}}}, {{"selectivity", {l}}}));
    }
    return out;
  }

  /// Series i joins Customers cell i mod 20 with Orders cell i mod 24:
  /// short cycles that touch every labelled row, so every run holds
  /// several whole cycles and its latency mix does not depend on where it
  /// starts.
  std::vector<JoinQuerySpec> LabelSeries() {
    const size_t i = next_label_series_++;
    return {Spec(cust_cells_[i % cust_cells_.size()],
                 order_cells_[i % order_cells_.size()])};
  }

 private:
  static JoinQuerySpec Spec(std::vector<InPredicate> c,
                            std::vector<InPredicate> o) {
    return MakeSpec(kCustomers, kOrders, "custkey", std::move(c),
                    std::move(o));
  }

  Rng rng_;
  std::vector<std::string> labels_;
  std::vector<std::vector<InPredicate>> cust_cells_, order_cells_;
  std::vector<Value> clerks_;
  std::vector<std::pair<Value, Value>> cells_;
  size_t next_label_ = 0, next_cell_ = 0, next_clerk_ = 0;
  size_t next_label_series_ = 0;
};

/// Rows of `t` whose selectivity column carries one of the paper's labels.
size_t LabelledRows(const Table& t) {
  size_t n = 0;
  for (size_t r = 0; r < t.NumRows(); ++r) {
    if (t.ValueByName(r, "selectivity")->AsString().rfind("s=", 0) == 0) ++n;
  }
  return n;
}

double CacheRatio(size_t rows, size_t dim) {
  return static_cast<double>(rows * SjPreparedRow::BytesForDim(dim)) /
         static_cast<double>(PreparedRowCache::kDefaultMaxBytes);
}

ClientOptions TpchClientOptions(uint64_t seed) {
  return {.num_attrs = kTpchAttrs, .max_in_clause = kTpchInClause,
          .rng_seed = seed};
}

/// Encrypts both TPC-H tables; returns encrypt ms per row.
double EncryptTpch(EncryptedClient* client, const Table& cust,
                   const Table& ord, Trace* trace, uint64_t parent,
                   std::optional<EncryptedTable>* enc_c,
                   std::optional<EncryptedTable>* enc_o) {
  SpanScope span(trace, "setup.encrypt", parent, -1);
  auto t0 = Clock::now();
  auto c = client->EncryptTable(cust, "custkey");
  auto o = client->EncryptTable(ord, "custkey");
  SJOIN_CHECK(c.ok() && o.ok());
  const double ms = MsSince(t0);
  *enc_c = std::move(*c);
  *enc_o = std::move(*o);
  return ms / static_cast<double>(cust.NumRows() + ord.NumRows());
}

/// The single-client series loop shared by tpch_scan and dist_fanout.
/// `execute` runs the tokens and returns the result (timed by the loop).
struct TpchLoopContext {
  const Args* args;
  EncryptedClient* client;
  const EncryptedTable* enc_c;
  const EncryptedTable* enc_o;
  Trace* trace;
  LayerAcc* acc;
  Outcome* out;
  std::vector<CheckedQuery>* checked;
  sjoin::Sha256* digest;
  std::function<std::vector<JoinQuerySpec>()> next;
  std::function<Result<EncryptedSeriesResult>(const QuerySeriesTokens&)>
      execute;
  const char* execute_span;
  /// Stats of the last series that succeeded.
  SeriesExecStats last;
  /// Optional traced-only extra work after a series (replays, probes).
  std::function<void(const QuerySeriesTokens&, const EncryptedSeriesResult&,
                     double execute_ms)>
      traced_extra;
};

/// Runs one series; returns false when it failed. `timed` series feed the
/// outcome's latency and count lists.
bool RunTpchSeries(TpchLoopContext& c, int64_t idx, bool traced, bool timed) {
  Trace* trace = traced ? c.trace : nullptr;
  std::vector<JoinQuerySpec> specs = c.next();
  if (timed) {
    for (const JoinQuerySpec& q : specs) HashSpec(c.digest, q);
  }
  std::vector<const EncryptedTable*> tables = {c.enc_c, c.enc_o};
  c.out->attempted += specs.size();

  auto t0 = Clock::now();
  SpanScope series_span(trace, "series", 0, idx);
  auto t_tok = Clock::now();
  Result<QuerySeriesTokens> tokens = [&] {
    SpanScope s(trace, "client.token_gen", series_span.id(), idx);
    return c.client->PrepareSeries(specs, tables);
  }();
  const double tok_ms = MsSince(t_tok);
  if (!tokens.ok()) {
    c.out->Fail("PrepareSeries: " + tokens.status().ToString(), specs.size());
    return false;
  }
  auto t_exec = Clock::now();
  uint64_t exec_id = 0;
  Result<EncryptedSeriesResult> result = [&] {
    SpanScope s(trace, c.execute_span, series_span.id(), idx);
    exec_id = s.id();
    return c.execute(*tokens);
  }();
  const double exec_ms = MsSince(t_exec);
  if (!result.ok() || result->results.size() != specs.size()) {
    c.out->Fail(std::string("execute: ") + (result.ok()
                                                 ? "wrong result count"
                                                 : result.status().ToString()),
                specs.size());
    return false;
  }
  auto t_dec = Clock::now();
  std::vector<Table> plain;
  {
    SpanScope s(trace, "client.result_decrypt", series_span.id(), idx);
    for (const EncryptedJoinResult& r : result->results) {
      auto t = c.client->DecryptJoinResult(r, *c.enc_c, *c.enc_o);
      if (!t.ok()) {
        c.out->Fail("DecryptJoinResult: " + t.status().ToString(),
                    specs.size());
        return false;
      }
      plain.push_back(std::move(*t));
    }
  }
  const double dec_ms = MsSince(t_dec);
  const double latency = MsSince(t0);
  series_span.End();

  c.last = result->stats;
  for (size_t q = 0; q < specs.size(); ++q) {
    c.checked->push_back({specs[q], CanonicalRows(plain[q])});
  }
  if (timed) {
    (traced ? c.out->traced_series_ms : c.out->series_ms).push_back(latency);
    c.out->timed_queries += specs.size();
    CountSeries(result->stats, c.out);
  }
  if (traced) {
    AddPhaseSpans(c.trace, exec_id, idx, result->stats);
    c.acc->token_gen_ms.push_back(tok_ms);
    c.acc->result_decrypt_ms.push_back(dec_ms);
    c.acc->AddExec(result->stats, exec_ms);
    size_t req = 0, resp = 0;
    c.acc->codec_us.push_back(CodecMicros(*tokens, *result, &req, &resp));
    if (c.traced_extra) {
      c.traced_extra(*tokens, *result, exec_ms);
    } else {
      c.acc->request_bytes.push_back(static_cast<double>(req));
      c.acc->response_bytes.push_back(static_cast<double>(resp));
    }
  }
  return true;
}

/// The timed loop; returns the number of timed series run. `between`
/// runs between two series about every kChurnProbeIntervalMs, each time
/// pinned to the next CPU (RunPinned); its time is excluded from the
/// loop's wall time (queries_per_s).
size_t RunTpchLoop(TpchLoopContext& c, const std::function<void()>& between) {
  Rng coin(c.args->seed ^ 0xc0177ULL);
  const auto start = Clock::now();
  auto last_probe = start;
  double excluded_ms = 0;
  size_t i = 0, probes = 0;
  while (KeepGoing(*c.args, i, start)) {
    RunTpchSeries(c, static_cast<int64_t>(i), TracedSeries(*c.args, &coin),
                  true);
    ++i;
    if (MsSince(last_probe) >= kChurnProbeIntervalMs) {
      last_probe = Clock::now();
      RunPinned(probes++, between);
      excluded_ms += MsSince(last_probe);
    }
  }
  c.out->loop_s = (MsSince(start) - excluded_ms) / 1e3;
  c.out->peak_rss_mb = PeakRssMb();
  return i;
}

/// The leakage oracle: a driver-side tracker fed the plaintext equality
/// groups of every executed query must end at the server's pair count.
void CheckLeakage(const Table& cust, const Table& ord,
                  const std::vector<CheckedQuery>& executed,
                  size_t server_pairs, Outcome* out) {
  LeakageTracker expected;
  for (const CheckedQuery& q : executed) {
    ObserveQueryLeakage(&expected, cust, 0, ord, 1, q.spec);
  }
  out->counts["revealed_pairs"] = server_pairs;
  out->layer["leakage.revealed_pairs"] = static_cast<double>(server_pairs);
  if (expected.RevealedPairCount() != server_pairs) {
    out->Fail("leakage oracle: server revealed " +
              std::to_string(server_pairs) + " pairs, expected " +
              std::to_string(expected.RevealedPairCount()));
  }
}

/// Churn on Orders for the two workloads that have no writer, so
/// mutation latency and cache retention after churn are measured on every
/// workload. Each batch deletes 1% of the live rows and re-inserts the
/// same plaintext rows (fresh stable ids, so the multiset every query sees
/// is unchanged and results stay checkable). Timed like the dashboard
/// writer's batches: PrepareDelete + PrepareInsert + ApplyMutation.
class OrdersChurn {
 public:
  using Apply = std::function<Result<MutationResult>(const TableMutation&)>;

  OrdersChurn(const Table& ord, uint64_t seed, Apply apply)
      : ord_(ord), rng_(seed ^ 0x5eed0c4aULL), apply_(std::move(apply)),
        live_(ord.NumRows()) {
    for (size_t i = 0; i < live_.size(); ++i) live_[i] = i;
  }

  /// One batch, prepared by `client` for `enc_o` (the Orders table's
  /// client-side metadata). Samples go to `out`.
  void Batch(EncryptedClient* client, const EncryptedTable& enc_o,
             Trace* trace, Outcome* out) {
    std::vector<size_t> pos(live_.size());
    for (size_t i = 0; i < pos.size(); ++i) pos[i] = i;
    Shuffle(&pos, &rng_);
    pos.resize(std::max<size_t>(1, ord_.NumRows() / 100));
    std::vector<StableRowId> del;
    Table rows(kOrders, ord_.schema());
    for (size_t p : pos) {
      del.push_back(live_[p]);
      SJOIN_CHECK(rows.AppendRow(ord_.row(p)).ok());
    }
    out->attempted += 1;
    auto t0 = Clock::now();
    Result<TableMutation> d = Status::Internal("unset");
    Result<TableMutation> ins = Status::Internal("unset");
    {
      SpanScope span(trace, "mutation.prepare", 0, -1);
      d = client->PrepareDelete(kOrders, del);
      ins = client->PrepareInsert(enc_o, rows);
    }
    const double prep = MsSince(t0);
    if (!d.ok() || !ins.ok()) {
      out->Fail("churn prepare failed");
      return;
    }
    TableMutation m = std::move(*ins);
    m.deletes = d->deletes;
    auto t1 = Clock::now();
    Result<MutationResult> ack = [&] {
      SpanScope span(trace, "mutation.apply", 0, -1);
      return apply_(m);
    }();
    const double rtt = MsSince(t1);
    if (!ack.ok() || ack->inserted_ids.size() != pos.size()) {
      out->Fail("churn apply failed");
      return;
    }
    for (size_t i = 0; i < pos.size(); ++i) live_[pos[i]] = ack->inserted_ids[i];
    out->mutation_prepare_ms.push_back(prep);
    out->mutation_apply_ms.push_back(rtt);
    out->mutation_ms.push_back(MsSince(t0));
  }

 private:
  const Table& ord_;
  Rng rng_;
  Apply apply_;
  std::vector<StableRowId> live_;  // by original row position
};

/// Traced runs: kRetentionBatches churn batches on the loop's own
/// deployment, each followed by one series whose prepared hit ratio is a
/// retention sample.
void RetentionProbe(TpchLoopContext& c, OrdersChurn* churn) {
  for (int b = 0; b < kRetentionBatches; ++b) {
    churn->Batch(c.client, *c.enc_o, c.trace, c.out);
    if (RunTpchSeries(c, -1, false, false)) {
      c.out->retention.push_back(
          Ratio(c.last.prepared_cache_hits, c.last.prepared_pairings));
    }
  }
}

/// A client with the deployment's keys (they derive from the seed alone)
/// but its own randomness stream, for work beside the measured client.
std::unique_ptr<EncryptedClient> CloneClient(const ClientOptions& opts,
                                             uint64_t stream) {
  auto c = std::make_unique<EncryptedClient>(opts);
  if (stream != 0) {
    *c->rng() = Rng(opts.rng_seed ^ (stream * 0x9e3779b97f4a7c15ULL));
  }
  return c;
}

/// Probe rows: the first rows of the deployment's Orders table.
ProbeCosts ProbeTpch(const EncryptedTable& orders, const SjToken& token) {
  std::vector<const SjRowCiphertext*> rows;
  for (size_t i = 0; i < 2 * SecureJoin::kDefaultDecryptBatchRows &&
                     i < orders.rows.size();
       ++i) {
    rows.push_back(&orders.rows[i].sj);
  }
  return ProbeDecrypt(token, rows);
}

// --- tpch_scan ---------------------------------------------------------------------

std::unique_ptr<EncryptedServer> MakeServer(const EncryptedTable& enc_c,
                                            const EncryptedTable& enc_o) {
  auto server = std::make_unique<EncryptedServer>();
  SJOIN_CHECK(server->StoreTable(enc_c).ok());
  SJOIN_CHECK(server->StoreTable(enc_o).ok());
  return server;
}

void RunTpchScan(const Args& args, Trace* trace, Outcome* out) {
  const Table cust = GenerateCustomers({kTpchScale, args.seed});
  const Table ord = GenerateOrders({kTpchScale, args.seed});
  // The rotation reaches every row of both tables.
  out->ws_ratio = CacheRatio(cust.NumRows() + ord.NumRows(),
                             SecureJoinParams{kTpchAttrs, kTpchInClause}
                                 .Dimension());
  out->guard_ok = out->ws_ratio >= 1.5;
  if (!out->guard_ok) return;

  const ServerExecOptions exec{.num_threads = kThreads};
  std::unique_ptr<EncryptedClient> client;
  std::unique_ptr<EncryptedServer> server;
  std::optional<EncryptedTable> enc_c, enc_o;
  std::unique_ptr<TpchRotation> rot;
  std::vector<CheckedQuery> checked;
  LayerAcc acc;
  sjoin::Sha256 digest;
  double encrypt_ms_per_row = 0;

  TpchLoopContext c;
  c.args = &args;
  c.trace = trace;
  c.acc = &acc;
  c.out = out;
  c.checked = &checked;
  c.digest = &digest;
  c.execute_span = "server.execute";
  c.execute = [&](const QuerySeriesTokens& t) {
    return server->ExecuteJoinSeries(t, exec);
  };
  c.next = [&] { return rot->ScanSeries(); };

  for (int rep = 0; rep < kSetupReps; ++rep) {
    server.reset();  // tear down first: only one deployment holds memory
    checked.clear();
    auto t0 = Clock::now();
    Trace* st = rep == kSetupReps - 1 ? trace : nullptr;  // trace the last
    SpanScope setup(st, "setup", 0, -1);
    client = std::make_unique<EncryptedClient>(TpchClientOptions(args.seed));
    encrypt_ms_per_row = EncryptTpch(client.get(), cust, ord, st, setup.id(),
                                     &enc_c, &enc_o);
    {
      SpanScope s(st, "setup.upload", setup.id(), -1);
      server = MakeServer(*enc_c, *enc_o);
    }
    rot = std::make_unique<TpchRotation>(cust, ord, args.seed);
    c.client = client.get();
    c.enc_c = &*enc_c;
    c.enc_o = &*enc_o;
    {
      SpanScope s(st, "setup.warmup", setup.id(), -1);
      RunTpchSeries(c, -1, false, false);
    }
    out->setup_s.push_back(MsSince(t0) / 1e3);
  }

  // The churn probe's own deployment (same tables, not warmed): the
  // measured one never sees a mutation.
  std::unique_ptr<EncryptedServer> probe_server = MakeServer(*enc_c, *enc_o);
  auto probe_client = CloneClient(TpchClientOptions(args.seed), 1);
  OrdersChurn probe(ord, args.seed, [&](const TableMutation& m) {
    return probe_server->ApplyMutation(m);
  });
  const PreparedRowCache::Stats before = server->prepared_cache().stats();
  const size_t n = RunTpchLoop(
      c, [&] { probe.Batch(probe_client.get(), *enc_o, trace, out); });
  const PreparedRowCache::Stats after = server->prepared_cache().stats();
  probe_server.reset();

  CheckStaticResults(cust, ord, checked, out);
  CheckLeakage(cust, ord, checked, server->leakage().RevealedPairCount(), out);
  out->query_digest = ToHex(digest.Finish().data(), 32);

  if (args.trace) {
    auto tokens = client->PrepareSeries(rot->ScanSeries(), {&*enc_c, &*enc_o});
    SJOIN_CHECK(tokens.ok());
    FinishLayer(acc, ProbeTpch(*enc_o, tokens->queries.back().token_b), out);
    auto& L = out->layer;
    L["client.encrypt_ms_per_row"] = encrypt_ms_per_row;
    L["prepared_cache.built_per_series"] = Ratio(after.built - before.built, n);
    L["prepared_cache.evicted_per_series"] =
        Ratio(after.evicted - before.evicted, n);
    L["prepared_cache.mb"] = CacheMb(after);
  }
  if (args.trace) {
    checked.clear();
    OrdersChurn churn(ord, args.seed + 1, [&](const TableMutation& m) {
      return server->ApplyMutation(m);
    });
    RetentionProbe(c, &churn);
    CheckStaticResults(cust, ord, checked, out);
  }
}

// --- dist_fanout -------------------------------------------------------------------

/// One in-process worker "host": a ShardWorker (default options: a
/// 2-thread private pool, so two workers fill an nproc=4 host without
/// oversubscribing it) behind its own TcpServer. The engine only satisfies
/// TcpServer's constructor; shard frames never reach it.
struct WorkerHost {
  EncryptedServer engine;
  ShardWorker handler;
  TcpServer server;
  WorkerHost() : server(&engine, Options(&handler)) {
    SJOIN_CHECK(server.Start().ok());
  }
  static TcpServerOptions Options(ShardWorker* h) {
    TcpServerOptions o;
    o.shard_handler = h;
    return o;
  }
};

constexpr size_t kDistWorkers = 2;
constexpr size_t kDistShards = 8;
constexpr size_t kDistReplication = 2;

std::string WorkerId(size_t i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "w%zu", i);
  return buf;
}

struct Cluster {
  std::vector<std::unique_ptr<WorkerHost>> workers;
  std::unique_ptr<Coordinator> coord;
  ~Cluster() {
    coord.reset();  // stops the reconnect loop and closes worker links
    for (auto& w : workers) w->server.Stop();
  }
  std::vector<uint64_t> DigestsComputed() {
    std::vector<uint64_t> v;
    for (size_t i = 0; i < workers.size(); ++i) {
      auto h = coord->WorkerHealth(WorkerId(i));
      v.push_back(h.ok() ? h->digests_computed : 0);
    }
    return v;
  }
  std::pair<uint64_t, uint64_t> WireBytes() const {
    uint64_t in = 0, outb = 0;
    for (const auto& w : workers) {
      TcpServer::Stats s = w->server.stats();
      in += s.bytes_in;
      outb += s.bytes_out;
    }
    return {in, outb};
  }
  uint64_t RequestsError() const {
    uint64_t e = 0;
    for (const auto& w : workers) e += w->server.stats().requests_error;
    return e;
  }
};

/// A coordinator (K=8, R=2) with two workers, holding both tables.
std::unique_ptr<Cluster> MakeCluster(const EncryptedTable& enc_c,
                                     const EncryptedTable& enc_o) {
  auto cluster = std::make_unique<Cluster>();
  CoordinatorOptions copts;
  copts.num_shards = kDistShards;
  copts.replication = kDistReplication;
  copts.exec.num_threads = kThreads;
  cluster->coord = std::make_unique<Coordinator>(copts);
  for (size_t w = 0; w < kDistWorkers; ++w) {
    cluster->workers.push_back(std::make_unique<WorkerHost>());
    SJOIN_CHECK(cluster->coord
                    ->AddWorker(WorkerId(w), "127.0.0.1",
                                cluster->workers.back()->server.port())
                    .ok());
  }
  SJOIN_CHECK(cluster->coord->StoreTable(enc_c).ok());
  SJOIN_CHECK(cluster->coord->StoreTable(enc_o).ok());
  return cluster;
}

void RunDistFanout(const Args& args, Trace* trace, Outcome* out) {
  const Table cust = GenerateCustomers({kTpchScale, args.seed});
  const Table ord = GenerateOrders({kTpchScale, args.seed});
  // Only the labelled rows are ever selected.
  out->ws_ratio = CacheRatio(LabelledRows(cust) + LabelledRows(ord),
                             SecureJoinParams{kTpchAttrs, kTpchInClause}
                                 .Dimension());
  out->guard_ok = out->ws_ratio <= 0.5;
  if (!out->guard_ok) return;

  std::unique_ptr<EncryptedClient> client;
  std::unique_ptr<Cluster> cluster;
  std::optional<EncryptedTable> enc_c, enc_o;
  std::unique_ptr<TpchRotation> rot;
  std::vector<CheckedQuery> checked;
  LayerAcc acc;
  sjoin::Sha256 digest;
  double encrypt_ms_per_row = 0;

  TpchLoopContext c;
  c.args = &args;
  c.trace = trace;
  c.acc = &acc;
  c.out = out;
  c.checked = &checked;
  c.digest = &digest;
  c.execute_span = "dist.execute";
  std::pair<uint64_t, uint64_t> wire_before{};
  c.execute = [&](const QuerySeriesTokens& t) {
    // Byte deltas are per traced series: baseline before each one.
    if (args.trace) wire_before = cluster->WireBytes();
    return cluster->coord->ExecuteSeries(t);
  };
  c.next = [&] { return rot->LabelSeries(); };
  // Traced series: the coordinator's RPC bytes, and an in-process replay
  // on the coordinator's own engine (single-node sharded execution of the
  // same tokens) to split the fan-out cost from the execution cost.
  c.traced_extra = [&](const QuerySeriesTokens& t,
                       const EncryptedSeriesResult&, double exec_ms) {
    auto wire = cluster->WireBytes();
    acc.request_bytes.push_back(
        static_cast<double>(wire.first - wire_before.first));
    acc.response_bytes.push_back(
        static_cast<double>(wire.second - wire_before.second));
    acc.dist_execute_ms.push_back(exec_ms);
    auto t0 = Clock::now();
    auto local = cluster->coord->engine().ExecuteJoinSeriesSharded(
        t, {.num_threads = kThreads, .num_shards = static_cast<int>(kDistShards)});
    const double local_ms = MsSince(t0);
    SJOIN_CHECK(local.ok());
    acc.transport_ms.push_back(exec_ms - local_ms);
  };

  for (int rep = 0; rep < kSetupReps; ++rep) {
    cluster.reset();  // tear down first: only one deployment holds memory
    checked.clear();
    auto t0 = Clock::now();
    Trace* st = rep == kSetupReps - 1 ? trace : nullptr;  // trace the last
    SpanScope setup(st, "setup", 0, -1);
    client = std::make_unique<EncryptedClient>(TpchClientOptions(args.seed));
    encrypt_ms_per_row = EncryptTpch(client.get(), cust, ord, st, setup.id(),
                                     &enc_c, &enc_o);
    {
      SpanScope s(st, "setup.upload", setup.id(), -1);
      cluster = MakeCluster(*enc_c, *enc_o);
    }
    rot = std::make_unique<TpchRotation>(cust, ord, args.seed);
    c.client = client.get();
    c.enc_c = &*enc_c;
    c.enc_o = &*enc_o;
    {
      // Warm the workers' prepared-row caches with the whole working set.
      SpanScope s(st, "setup.warmup", setup.id(), -1);
      c.next = [&] { return rot->AllLabelsSeries(); };
      RunTpchSeries(c, -1, false, false);
      c.next = [&] { return rot->LabelSeries(); };
    }
    out->setup_s.push_back(MsSince(t0) / 1e3);
  }

  Coordinator& coord = *cluster->coord;
  const Coordinator::Stats before = coord.stats();
  const std::vector<uint64_t> digests_before = cluster->DigestsComputed();
  // The churn probe's own cluster (same tables, not warmed): the measured
  // one never sees a mutation.
  std::unique_ptr<Cluster> probe_cluster = MakeCluster(*enc_c, *enc_o);
  auto probe_client = CloneClient(TpchClientOptions(args.seed), 1);
  OrdersChurn probe(ord, args.seed, [&](const TableMutation& m) {
    return probe_cluster->coord->ApplyMutation(m);
  });
  const size_t n = RunTpchLoop(
      c, [&] { probe.Batch(probe_client.get(), *enc_o, trace, out); });
  const Coordinator::Stats after = coord.stats();
  const std::vector<uint64_t> digests_after = cluster->DigestsComputed();
  probe_cluster.reset();

  CheckStaticResults(cust, ord, checked, out);
  CheckLeakage(cust, ord, checked,
               coord.engine().leakage().RevealedPairCount(), out);
  out->query_digest = ToHex(digest.Finish().data(), 32);
  out->counts["decrypt_rpcs"] = after.decrypt_rpcs - before.decrypt_rpcs;
  if (after.decrypt_rpc_failures != before.decrypt_rpc_failures ||
      after.local_fallback_rows != before.local_fallback_rows) {
    out->Fail("coordinator reported RPC failures or local fallback");
  }

  if (args.trace) {
    auto tokens = client->PrepareSeries(rot->LabelSeries(), {&*enc_c, &*enc_o});
    SJOIN_CHECK(tokens.ok());
    FinishLayer(acc, ProbeTpch(*enc_o, tokens->queries.back().token_b), out);
    auto& L = out->layer;
    L["client.encrypt_ms_per_row"] = encrypt_ms_per_row;
    L["prepared_cache.built_per_series"] = Ratio(acc.built, acc.series);
    L["dist.decrypt_rpcs_per_series"] =
        Ratio(after.decrypt_rpcs - before.decrypt_rpcs, n);
    double max_d = 0, sum_d = 0;
    for (size_t i = 0; i < digests_after.size(); ++i) {
      const double d =
          static_cast<double>(digests_after[i] - digests_before[i]);
      max_d = std::max(max_d, d);
      sum_d += d;
    }
    L["dist.worker_digest_skew"] =
        Ratio(max_d, sum_d / static_cast<double>(digests_after.size()));
    L["dist.rpc_failures"] =
        static_cast<double>(after.decrypt_rpc_failures - before.decrypt_rpc_failures);
    L["dist.local_fallback_rows"] =
        static_cast<double>(after.local_fallback_rows - before.local_fallback_rows);
    L["dist.rows_uploaded"] = static_cast<double>(after.rows_uploaded);
    L["net.requests_error"] = static_cast<double>(cluster->RequestsError());
  }
  if (args.trace) {
    c.traced_extra = nullptr;
    checked.clear();
    OrdersChurn churn(ord, args.seed + 1, [&](const TableMutation& m) {
      return coord.ApplyMutation(m);
    });
    RetentionProbe(c, &churn);
    CheckStaticResults(cust, ord, checked, out);
  }
}

// --- dashboard_tcp -----------------------------------------------------------------

constexpr size_t kDashRows = 500;
constexpr size_t kDashAttrs = 3;     // region, status, tag
constexpr size_t kDashInClause = 2;  // dim = 3 * 3 + 3 = 12
constexpr int kDashJoinKeys = 250;
constexpr int kDashRegions = 40;
/// Regions the dashboard ever selects: its working set is these rows.
constexpr int kDashHotRegions = 10;
constexpr int kDashStatuses = 4;
constexpr int kDashReaders = 3;
/// Completed reader series per churn step (one batch per table).
constexpr uint64_t kSeriesPerChurn = 4;
/// Every kChurnsPerQuiescent-th churn step, from the first on, is
/// quiescent: the readers are held between series while it runs, and
/// mutation_p50_ms comes from these steps only. A batch applied beside
/// the readers waits behind whatever decrypt work is queued, so its
/// latency spreads from ~15 ms to a whole series time with a median that
/// moves by a quarter between runs; those batches are reported per layer
/// (mutation.concurrent_p50_ms).
constexpr uint64_t kChurnsPerQuiescent = 2;
const char* const kDashTables[3] = {"Events", "Devices", "Sites"};

std::string RegionName(int r) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "r%02d", r);
  return buf;
}

/// Appends one dashboard row; `tag` is unique across every generation so
/// a result row identifies the exact stored row.
void AppendDashRow(Table* t, int64_t k, int region, int64_t status,
                   uint64_t tag) {
  SJOIN_CHECK(t->AppendRow({k, RegionName(region), status,
                            t->name() + "#" + std::to_string(tag)})
                  .ok());
}

Schema DashSchema() {
  return Schema({{"k", ValueKind::kInt64},
                 {"region", ValueKind::kString},
                 {"status", ValueKind::kInt64},
                 {"tag", ValueKind::kString}});
}

/// The writer's shadow of every generation of every table, plus the
/// committed/started generation markers the readers' oracle windows read.
/// A generation is its list of live stable ids; row contents are stored
/// once per id, so the shadow's memory does not grow with each batch by a
/// table copy (peak_rss_mb would otherwise track the churn count).
struct Shadow {
  using Ids = std::vector<StableRowId>;
  std::mutex mu;
  // gens[t][g]: the live ids of generation g of table t (index 0 unused).
  std::vector<std::vector<std::shared_ptr<const Ids>>> gens;
  std::vector<std::map<StableRowId, std::vector<Value>>> rows;  // per table
  uint64_t committed[3] = {1, 1, 1};
  uint64_t started[3] = {1, 1, 1};

  /// Generation `g` of table `t` as a plaintext table. Caller holds mu or
  /// runs after the writer has stopped.
  Table Materialize(int t, uint64_t g) const {
    Table out(kDashTables[t], DashSchema());
    for (StableRowId id : *gens[t][g]) {
      SJOIN_CHECK(out.AppendRow(rows[t].at(id)).ok());
    }
    return out;
  }
};

/// Digest of a result's canonical rows (the oracle compares digests, so a
/// run keeps 32 bytes per query instead of every decrypted row).
Digest32 RowsDigest(const std::vector<std::string>& rows) {
  sjoin::Sha256 h;
  for (const std::string& r : rows) {
    h.Update(std::to_string(r.size()) + ":");
    h.Update(r);
  }
  return h.Finish();
}

/// What one dashboard series returns to its reader.
struct DashSeries {
  bool ok = false;
  double latency_ms = 0, token_gen_ms = 0, round_trip_ms = 0, decrypt_ms = 0;
  SeriesExecStats stats;
  QuerySeriesTokens tokens;  // kept for the traced in-process replay
};

/// A reader series awaiting the end-of-run oracle check.
struct DashSeriesRecord {
  std::vector<JoinQuerySpec> specs;
  std::vector<Digest32> rows;  // RowsDigest of each query's result
  uint64_t lo[3], hi[3];
};

int DashTableIndex(const std::string& name) {
  for (int i = 0; i < 3; ++i) {
    if (name == kDashTables[i]) return i;
  }
  return -1;
}

/// One reader's seeded rotation of dashboard chains: Events x Devices x
/// Sites, each table selected by region IN (one hot region) AND status
/// IN (two statuses).
class DashRotation {
 public:
  explicit DashRotation(uint64_t seed) : rng_(seed) {}
  std::vector<JoinQuerySpec> NextChain() {
    std::vector<InPredicate> sel[3];
    for (auto& s : sel) {
      const int region = static_cast<int>(rng_.NextUint64Below(kDashHotRegions));
      const int64_t s1 = static_cast<int64_t>(rng_.NextUint64Below(kDashStatuses));
      const int64_t s2 =
          (s1 + 1 + static_cast<int64_t>(rng_.NextUint64Below(kDashStatuses - 1))) %
          kDashStatuses;
      s = {{"region", {RegionName(region)}}, {"status", {s1, s2}}};
    }
    return {MakeSpec(kDashTables[0], kDashTables[1], "k", sel[0], sel[1]),
            MakeSpec(kDashTables[1], kDashTables[2], "k", sel[1], sel[2])};
  }

  /// Chains selecting every hot row (region IN two hot regions, no
  /// status predicate): the set-up's warm-up of the whole working set.
  static std::vector<std::vector<JoinQuerySpec>> WarmupChains() {
    std::vector<std::vector<JoinQuerySpec>> out;
    for (int r = 0; r + 1 < kDashHotRegions; r += 2) {
      std::vector<InPredicate> sel = {
          {"region", {RegionName(r), RegionName(r + 1)}}};
      out.push_back({MakeSpec(kDashTables[0], kDashTables[1], "k", sel, sel),
                     MakeSpec(kDashTables[1], kDashTables[2], "k", sel, sel)});
    }
    return out;
  }

 private:
  Rng rng_;
};


struct DashDeployment {
  std::unique_ptr<EncryptedServer> engine;
  std::unique_ptr<TcpServer> server;
  std::vector<TcpClient> readers;
  std::optional<TcpClient> writer;
  ~DashDeployment() {
    readers.clear();
    writer.reset();
    if (server) server->Stop();
    if (engine) engine->Shutdown();
  }
};

void RunDashboard(const Args& args, Trace* trace, Outcome* out) {
  // Rows are stratified over (region, status) cells -- cell c = perm[i]
  // gives region c % 40 and status (c / 40) % 4 -- so every selection's
  // size is the same for every seed; which rows land in a cell, and the
  // join keys, come from the seed.
  Rng data_rng(args.seed ^ 0xda5b0a2dULL);
  std::vector<Table> tables;
  uint64_t next_tag = 0;
  size_t hot_rows = 0;
  for (const char* name : kDashTables) {
    std::vector<size_t> perm(kDashRows);
    for (size_t i = 0; i < perm.size(); ++i) perm[i] = i;
    Shuffle(&perm, &data_rng);
    Table t(name, DashSchema());
    for (size_t c : perm) {
      const int region = static_cast<int>(c % kDashRegions);
      if (region < kDashHotRegions) ++hot_rows;
      AppendDashRow(
          &t, static_cast<int64_t>(data_rng.NextUint64Below(kDashJoinKeys)),
          region, static_cast<int64_t>((c / kDashRegions) % kDashStatuses),
          next_tag++);
    }
    tables.push_back(std::move(t));
  }
  out->ws_ratio = CacheRatio(
      hot_rows, SecureJoinParams{kDashAttrs, kDashInClause}.Dimension());
  out->guard_ok = out->ws_ratio <= 0.5;
  if (!out->guard_ok) return;

  const ServerExecOptions exec{.num_threads = kThreads};
  std::unique_ptr<DashDeployment> dep;
  std::vector<std::unique_ptr<EncryptedClient>> clients;  // readers..., writer
  std::vector<EncryptedTable> enc;
  double encrypt_ms_per_row = 0;

  // Runs one series of `chains` (each replayed `replays` times) for reader
  // `r` and fills `rec` for the oracle.
  auto run_series = [&](int r,
                        const std::vector<std::vector<JoinQuerySpec>>& chains,
                        int replays, DashSeriesRecord* rec, Trace* tr,
                        int64_t idx) {
    DashSeries out;
    EncryptedClient& client = *clients[r];
    std::vector<const EncryptedTable*> tptrs = {&enc[0], &enc[1], &enc[2]};
    auto t0 = Clock::now();
    SpanScope series_span(tr, "series", 0, idx);
    QuerySeriesTokens series;
    {
      SpanScope s(tr, "client.token_gen", series_span.id(), idx);
      for (size_t chain = 0; chain < chains.size(); ++chain) {
        const std::vector<JoinQuerySpec>& specs = chains[chain];
        auto toks = client.PrepareChain(specs, tptrs);
        if (!toks.ok()) return out;
        std::vector<JoinQueryTokens> qs = std::move(toks->queries);
        if (chain == 0) series = std::move(*toks);  // the batch's metadata
        for (int replay = 0; replay < replays; ++replay) {
          for (size_t q = 0; q < qs.size(); ++q) {
            series.queries.push_back(qs[q]);
            rec->specs.push_back(specs[q]);
          }
        }
      }
    }
    out.token_gen_ms = MsSince(t0);
    auto t_rtt = Clock::now();
    Result<EncryptedSeriesResult> res = [&] {
      SpanScope s(tr, "net.round_trip", series_span.id(), idx);
      return dep->readers[r].ExecuteSeries(series);
    }();
    out.round_trip_ms = MsSince(t_rtt);
    if (!res.ok() || res->results.size() != series.queries.size()) {
      return out;
    }
    auto t_dec = Clock::now();
    std::vector<Table> plain;
    {
      SpanScope s(tr, "client.result_decrypt", series_span.id(), idx);
      for (size_t q = 0; q < res->results.size(); ++q) {
        const int a = DashTableIndex(rec->specs[q].table_a);
        const int b = DashTableIndex(rec->specs[q].table_b);
        auto t = client.DecryptJoinResult(res->results[q], enc[a], enc[b]);
        if (!t.ok()) return out;
        plain.push_back(std::move(*t));
      }
    }
    out.decrypt_ms = MsSince(t_dec);
    out.latency_ms = MsSince(t0);
    series_span.End();
    for (const Table& t : plain) {
      rec->rows.push_back(RowsDigest(CanonicalRows(t)));
    }
    out.ok = true;
    out.stats = res->stats;
    out.tokens = std::move(series);
    return out;
  };

  Shadow shadow;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    dep.reset();
    auto t0 = Clock::now();
    Trace* st = rep == kSetupReps - 1 ? trace : nullptr;  // trace the last
    SpanScope setup(st, "setup", 0, -1);
    clients.clear();
    // One client per reader plus the writer: the same keys, so they
    // encrypt and decrypt interchangeably, but distinct query keys.
    for (int r = 0; r <= kDashReaders; ++r) {
      clients.push_back(CloneClient({.num_attrs = kDashAttrs,
                                     .max_in_clause = kDashInClause,
                                     .rng_seed = args.seed},
                                    static_cast<uint64_t>(r)));
    }
    enc.clear();
    {
      SpanScope s(st, "setup.encrypt", setup.id(), -1);
      auto te = Clock::now();
      for (const Table& t : tables) {
        auto e = clients[0]->EncryptTable(t, "k");
        SJOIN_CHECK(e.ok());
        enc.push_back(std::move(*e));
      }
      encrypt_ms_per_row = MsSince(te) / (3.0 * kDashRows);
    }
    {
      SpanScope s(st, "setup.upload", setup.id(), -1);
      dep = std::make_unique<DashDeployment>();
      dep->engine = std::make_unique<EncryptedServer>();
      for (const EncryptedTable& e : enc) {
        SJOIN_CHECK(dep->engine->StoreTable(e).ok());
      }
      TcpServerOptions sopts;
      sopts.exec = exec;
      dep->server = std::make_unique<TcpServer>(dep->engine.get(), sopts);
      SJOIN_CHECK(dep->server->Start().ok());
      for (int r = 0; r < kDashReaders; ++r) {
        auto c = TcpClient::Connect("127.0.0.1", dep->server->port());
        SJOIN_CHECK(c.ok());
        dep->readers.push_back(std::move(*c));
      }
      auto w = TcpClient::Connect("127.0.0.1", dep->server->port());
      SJOIN_CHECK(w.ok());
      dep->writer.emplace(std::move(*w));
    }
    {
      SpanScope s(st, "setup.warmup", setup.id(), -1);
      DashSeriesRecord rec;
      SJOIN_CHECK(
          run_series(0, DashRotation::WarmupChains(), 1, &rec, nullptr, -1).ok);
    }
    out->setup_s.push_back(MsSince(t0) / 1e3);
  }

  // Shadow generation 1 of every table: stable ids 0..n-1.
  for (const Table& t : tables) {
    auto ids = std::make_shared<Shadow::Ids>();
    std::map<StableRowId, std::vector<Value>> rows;
    for (size_t i = 0; i < t.NumRows(); ++i) {
      ids->push_back(i);
      rows[i] = t.row(i);
    }
    shadow.gens.push_back({nullptr, ids});
    shadow.rows.push_back(std::move(rows));
  }

  LayerAcc acc;
  std::mutex out_mu;  // guards out->series_ms etc. and records
  std::vector<std::vector<DashSeriesRecord>> records(kDashReaders);
  std::vector<sjoin::Sha256> digests(kDashReaders);
  std::atomic<uint64_t> completed{0};
  std::atomic<uint64_t> churn_epoch{0};
  std::atomic<uint64_t> retention_epoch{0};
  std::atomic<bool> readers_done{false};
  std::mutex wmu;
  std::condition_variable wcv;
  std::atomic<uint64_t> attempted{0};
  // The readers' gate: a quiescent churn step closes it, waits until no
  // series is in flight, applies its batches and reopens it.
  struct Gate {
    std::mutex mu;
    std::condition_variable cv;
    bool closed = false;
    int in_flight = 0;
  } gate;
  struct InFlight {
    Gate* g;
    ~InFlight() {
      {
        std::lock_guard<std::mutex> lock(g->mu);
        --g->in_flight;
      }
      g->cv.notify_all();
    }
  };
  double quiescent_ms = 0;  // writer only; read after it is joined

  const EncryptedServer& engine = *dep->engine;
  const PreparedRowCache::Stats cache_before = engine.prepared_cache().stats();
  const RequestScheduler::Stats sched_before = engine.scheduler_stats();
  const TcpServer::Stats net_before = dep->server->stats();
  const auto start = Clock::now();

  auto reader = [&](int r) {
    DashRotation rot(args.seed * 31 + static_cast<uint64_t>(r));
    Rng coin(args.seed ^ (0xc0177ULL + static_cast<uint64_t>(r)));
    const SessionId session = dep->readers[r].session_id();
    auto conn_bytes = [&]() -> std::pair<uint64_t, uint64_t> {
      for (const auto& cs : dep->server->connection_stats()) {
        if (cs.session == session) return {cs.bytes_in, cs.bytes_out};
      }
      return {0, 0};
    };
    const size_t quota = args.fixed_series > 0
                             ? (args.fixed_series + kDashReaders - 1 - r) /
                                   kDashReaders
                             : 0;
    for (size_t i = 0;; ++i) {
      {
        std::unique_lock<std::mutex> g(gate.mu);
        gate.cv.wait(g, [&] { return !gate.closed; });
        if (args.fixed_series > 0 ? i >= quota
                                  : MsSince(start) >= args.seconds * 1e3) {
          break;
        }
        ++gate.in_flight;
      }
      InFlight held{&gate};  // until this iteration ends
      const bool traced = TracedSeries(args, &coin);
      const int64_t idx = static_cast<int64_t>(i) * kDashReaders + r;
      DashSeriesRecord rec;
      const uint64_t epoch = churn_epoch.load();
      uint64_t seen = retention_epoch.load();
      const bool first_after_churn =
          epoch > seen && retention_epoch.compare_exchange_strong(seen, epoch);
      {
        std::lock_guard<std::mutex> lock(shadow.mu);
        for (int t = 0; t < 3; ++t) rec.lo[t] = shadow.committed[t];
      }
      const auto bytes0 = conn_bytes();
      // Two chains, each replayed twice: the series cache serves the
      // repeats and each chain's shared middle token.
      DashSeries ds = run_series(r, {rot.NextChain(), rot.NextChain()}, 2,
                                 &rec, traced ? trace : nullptr, idx);
      const auto bytes1 = conn_bytes();
      {
        std::lock_guard<std::mutex> lock(shadow.mu);
        for (int t = 0; t < 3; ++t) rec.hi[t] = shadow.started[t];
      }
      attempted += 8;
      std::unique_lock<std::mutex> lock(out_mu);
      if (!ds.ok) {
        out->Fail("dashboard series failed", 8);
        continue;
      }
      for (const JoinQuerySpec& q : rec.specs) HashSpec(&digests[r], q);
      (traced ? out->traced_series_ms : out->series_ms).push_back(ds.latency_ms);
      out->timed_queries += rec.specs.size();
      CountSeries(ds.stats, out);
      if (first_after_churn) {
        out->retention.push_back(
            Ratio(ds.stats.prepared_cache_hits, ds.stats.prepared_pairings));
      }
      if (traced) {
        acc.token_gen_ms.push_back(ds.token_gen_ms);
        acc.result_decrypt_ms.push_back(ds.decrypt_ms);
        acc.request_bytes.push_back(static_cast<double>(bytes1.first - bytes0.first));
        acc.response_bytes.push_back(
            static_cast<double>(bytes1.second - bytes0.second));
      }
      records[r].push_back(std::move(rec));
      if (traced) {
        // In-process replay of the same tokens: the server phases (their
        // timings do not cross the wire) and the transport share.
        lock.unlock();
        auto t0 = Clock::now();
        auto replay = dep->engine->ExecuteJoinSeries(ds.tokens, exec);
        const double replay_ms = MsSince(t0);
        size_t req = 0, resp = 0;
        const double codec =
            replay.ok() ? CodecMicros(ds.tokens, *replay, &req, &resp) : 0;
        lock.lock();
        if (replay.ok()) {
          acc.AddExec(replay->stats, replay_ms);
          acc.transport_ms.push_back(ds.round_trip_ms - replay_ms);
          acc.codec_us.push_back(codec);
        }
      }
      lock.unlock();
      completed.fetch_add(1);
      { std::lock_guard<std::mutex> wake(wmu); }  // no lost wake-up
      wcv.notify_all();
    }
  };

  // The writer: after every kSeriesPerChurn completed reader series, one
  // churn step: a batch per table (delete 1% of the live rows, insert as
  // many replacements carrying the deleted rows' region and status, so
  // every selection keeps its size), each acknowledged before the next.
  // Every kChurnsPerQuiescent-th step is quiescent (see the constant).
  auto writer = [&] {
    EncryptedClient& client = *clients[kDashReaders];
    Rng rng(args.seed ^ 0x3417e1ULL);
    const size_t batch = kDashRows / 100;
    auto step = [&](bool quiescent) {
      for (int t = 0; t < 3; ++t) {
        // Only this thread writes the shadow; readers touch the markers.
        std::shared_ptr<const Shadow::Ids> cur = shadow.gens[t].back();
        std::vector<size_t> pos(cur->size());
        for (size_t i = 0; i < pos.size(); ++i) pos[i] = i;
        Shuffle(&pos, &rng);
        pos.resize(batch);
        std::sort(pos.begin(), pos.end());
        std::vector<StableRowId> del;
        Table ins_rows(kDashTables[t], DashSchema());
        for (size_t p : pos) {
          del.push_back((*cur)[p]);
          const std::vector<Value>& old = shadow.rows[t].at((*cur)[p]);
          AppendDashRow(&ins_rows,
                        static_cast<int64_t>(rng.NextUint64Below(kDashJoinKeys)),
                        std::stoi(old[1].AsString().substr(1)), old[2].AsInt(),
                        next_tag++);
        }
        attempted += 1;
        auto t0 = Clock::now();
        Result<TableMutation> d = Status::Internal("unset");
        Result<TableMutation> ins = Status::Internal("unset");
        {
          SpanScope span(trace, "mutation.prepare", 0, -1);
          d = client.PrepareDelete(kDashTables[t], del);
          ins = client.PrepareInsert(enc[t], ins_rows);
        }
        const double prep = MsSince(t0);
        if (!d.ok() || !ins.ok()) {
          std::lock_guard<std::mutex> lock(out_mu);
          out->Fail("dashboard churn prepare failed");
          continue;
        }
        TableMutation m = std::move(*ins);
        m.deletes = d->deletes;
        {
          std::lock_guard<std::mutex> lock(shadow.mu);
          shadow.started[t] = shadow.committed[t] + 1;
        }
        auto t1 = Clock::now();
        Result<MutationResult> ack = [&] {
          SpanScope span(trace, "mutation.apply", 0, -1);
          return dep->writer->ApplyMutation(m);
        }();
        const double rtt = MsSince(t1);
        const double total = MsSince(t0);
        std::lock_guard<std::mutex> lock(out_mu);
        if (!ack.ok() || ack->inserted_ids.size() != batch) {
          out->Fail("dashboard churn apply failed");
          continue;
        }
        auto next = std::make_shared<Shadow::Ids>();
        std::set<size_t> gone(pos.begin(), pos.end());
        for (size_t p = 0; p < cur->size(); ++p) {
          if (!gone.count(p)) next->push_back((*cur)[p]);
        }
        {
          std::lock_guard<std::mutex> slock(shadow.mu);
          for (size_t i = 0; i < batch; ++i) {
            next->push_back(ack->inserted_ids[i]);
            shadow.rows[t][ack->inserted_ids[i]] = ins_rows.row(i);
          }
          shadow.gens[t].push_back(next);
          if (ack->generation != shadow.gens[t].size() - 1) {
            out->Fail("dashboard churn: unexpected generation");
          }
          shadow.committed[t] = ack->generation;
          shadow.started[t] = ack->generation;
        }
        if (quiescent) {
          out->mutation_prepare_ms.push_back(prep);
          out->mutation_apply_ms.push_back(rtt);
          out->mutation_ms.push_back(total);
        } else {
          out->concurrent_mutation_ms.push_back(total);
        }
      }
    };
    uint64_t churned = 0;
    while (true) {
      {
        std::unique_lock<std::mutex> lock(wmu);
        wcv.wait(lock, [&] {
          return readers_done.load() ||
                 completed.load() >= (churned + 1) * kSeriesPerChurn;
        });
      }
      // Nothing due and the readers are done; or a timed run is over.
      if (completed.load() < (churned + 1) * kSeriesPerChurn) break;
      if (readers_done.load() && args.fixed_series == 0) break;
      if (churned % kChurnsPerQuiescent != 0) {
        step(false);
      } else {
        {
          std::unique_lock<std::mutex> g(gate.mu);
          gate.closed = true;
          gate.cv.wait(g, [&] { return gate.in_flight == 0; });
        }
        const auto q0 = Clock::now();
        RunPinned(churned / kChurnsPerQuiescent, [&] { step(true); });
        quiescent_ms += MsSince(q0);
        {
          std::lock_guard<std::mutex> g(gate.mu);
          gate.closed = false;
        }
        gate.cv.notify_all();
      }
      ++churned;
      churn_epoch.fetch_add(1);
    }
  };

  std::thread wthread(writer);
  std::vector<std::thread> rthreads;
  for (int r = 0; r < kDashReaders; ++r) rthreads.emplace_back(reader, r);
  for (auto& t : rthreads) t.join();
  {
    std::lock_guard<std::mutex> lock(wmu);
    readers_done = true;
  }
  wcv.notify_all();
  wthread.join();
  // The quiescent steps' own time (readers held, nothing else running) is
  // not read time, as with the churn probes of the other workloads.
  out->loop_s = (MsSince(start) - quiescent_ms) / 1e3;
  out->peak_rss_mb = PeakRssMb();
  out->attempted += attempted.load();

  // Result oracle: every series must match PlaintextHashJoin over one
  // combination of generations inside its window (snapshot isolation pins
  // one generation per table for the whole series).
  std::map<std::pair<int, uint64_t>, Table> gen_tables;
  auto gen_table = [&](int t, uint64_t g) -> const Table& {
    auto it = gen_tables.find({t, g});
    if (it == gen_tables.end()) {
      it = gen_tables.emplace(std::make_pair(t, g), shadow.Materialize(t, g))
               .first;
    }
    return it->second;
  };
  std::map<std::string, Digest32> expected_cache;
  auto expected = [&](const JoinQuerySpec& q, uint64_t ga, uint64_t gb) {
    sjoin::Sha256 h;
    HashSpec(&h, q);
    std::string key = ToHex(h.Finish().data(), 32) + "/" + std::to_string(ga) +
                      "/" + std::to_string(gb);
    auto it = expected_cache.find(key);
    if (it != expected_cache.end()) return it->second;
    const int a = DashTableIndex(q.table_a), b = DashTableIndex(q.table_b);
    const Digest32 d =
        RowsDigest(ExpectedRows(gen_table(a, ga), gen_table(b, gb), q));
    expected_cache.emplace(key, d);
    return d;
  };
  for (const auto& recs : records) {
    for (const DashSeriesRecord& rec : recs) {
      bool ok = false;
      for (uint64_t g0 = rec.lo[0]; g0 <= rec.hi[0] && !ok; ++g0) {
        for (uint64_t g1 = rec.lo[1]; g1 <= rec.hi[1] && !ok; ++g1) {
          for (uint64_t g2 = rec.lo[2]; g2 <= rec.hi[2] && !ok; ++g2) {
            const uint64_t g[3] = {g0, g1, g2};
            ok = true;
            for (size_t q = 0; q < rec.specs.size() && ok; ++q) {
              const JoinQuerySpec& s = rec.specs[q];
              ok = rec.rows[q] == expected(s, g[DashTableIndex(s.table_a)],
                                           g[DashTableIndex(s.table_b)]);
            }
          }
        }
      }
      if (!ok) out->Fail("dashboard result matches no committed generation");
    }
  }
  sjoin::Sha256 all;
  for (auto& d : digests) {
    Digest32 x = d.Finish();
    all.Update(x.data(), x.size());
  }
  out->query_digest = ToHex(all.Finish().data(), 32);
  out->counts["revealed_pairs_unchecked"] =
      engine.leakage().RevealedPairCount();

  if (args.trace) {
    const PreparedRowCache::Stats cache_after = engine.prepared_cache().stats();
    const double n = static_cast<double>(out->series_ms.size() +
                                         out->traced_series_ms.size());
    // Probe: Devices rows under a fresh Devices token.
    auto toks = clients[0]->PrepareChain(DashRotation(args.seed).NextChain(),
                                         {&enc[0], &enc[1], &enc[2]});
    SJOIN_CHECK(toks.ok());
    auto devices = engine.GetTable(kDashTables[1]);
    SJOIN_CHECK(devices.ok());
    std::vector<const SjRowCiphertext*> rows;
    for (size_t i = 0; i < 2 * SecureJoin::kDefaultDecryptBatchRows; ++i) {
      rows.push_back(&(*devices)->rows[i].sj);
    }
    FinishLayer(acc, ProbeDecrypt(toks->queries[0].token_b, rows), out);
    auto& L = out->layer;
    L["client.encrypt_ms_per_row"] = encrypt_ms_per_row;
    L["prepared_cache.built_per_series"] =
        Ratio(cache_after.built - cache_before.built, n);
    L["prepared_cache.evicted_per_series"] =
        Ratio(cache_after.evicted - cache_before.evicted, n);
    L["prepared_cache.mb"] = CacheMb(cache_after);
    L["scheduler.rejected"] = static_cast<double>(
        engine.scheduler_stats().rejected - sched_before.rejected);
    L["net.requests_error"] = static_cast<double>(
        dep->server->stats().requests_error - net_before.requests_error);
    L["leakage.revealed_pairs"] =
        static_cast<double>(engine.leakage().RevealedPairCount());
  }
  if (out->mutation_ms.empty()) out->Fail("dashboard applied no churn batch");
}

// --- Output ------------------------------------------------------------------------

/// The per-layer metric names and units, in BENCHMARK.json order.
const std::vector<std::pair<const char*, const char*>>& LayerMetricNames() {
  static const std::vector<std::pair<const char*, const char*>> kNames = {
      {"client.encrypt_ms_per_row", "ms"},
      {"client.token_gen_ms", "ms"},
      {"client.result_decrypt_ms", "ms"},
      {"server.execute_ms", "ms"},
      {"sse.prefilter_ms", "ms"},
      {"server.decrypt_ms", "ms"},
      {"server.match_ms", "ms"},
      {"server.other_ms", "ms"},
      {"series.digest_hit_ratio", "ratio"},
      {"core.decrypts_per_query", "count"},
      {"prepared_cache.hit_ratio", "ratio"},
      {"prepared_cache.built_per_series", "count"},
      {"prepared_cache.evicted_per_series", "count"},
      {"prepared_cache.mb", "MiB"},
      {"prepared_cache.retention_after_churn", "ratio"},
      {"pairing.miller_cold_ms", "ms"},
      {"core.prepare_row_ms", "ms"},
      {"pairing.miller_prepared_ms", "ms"},
      {"pairing.final_exp_ms", "ms"},
      {"core.decrypt_accounted_frac", "ratio"},
      {"leakage.revealed_pairs", "count"},
      {"wire.request_bytes", "B"},
      {"wire.response_bytes", "B"},
      {"wire.codec_us", "us"},
      {"net.transport_ms", "ms"},
      {"scheduler.rejected", "count"},
      {"net.requests_error", "count"},
      {"client.mutation_prepare_ms", "ms"},
      {"table_store.apply_rtt_ms", "ms"},
      {"mutation.concurrent_p50_ms", "ms"},
      {"dist.execute_ms", "ms"},
      {"dist.decrypt_rpcs_per_series", "count"},
      {"dist.worker_digest_skew", "ratio"},
      {"dist.rpc_failures", "count"},
      {"dist.local_fallback_rows", "count"},
      {"dist.rows_uploaded", "count"},
      {"trace.overhead_ms", "ms"},
      {"error_rate", "ratio"},
      {"workset.cache_ratio", "ratio"},
      {"series.samples", "count"},
  };
  return kNames;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <tpch_scan|dashboard_tcp|dist_fanout> "
                 "--seed <n> --seconds <s> --trace <0|1> [--series <n>] "
                 "[--source <id>] [--trace-out <file>]\n",
                 argv[0]);
    return 2;
  }
  const std::string fingerprint = FingerprintJson(args);
  std::printf("fingerprint: %s\n", fingerprint.c_str());
  if (!IsReleaseBuild()) {
    std::printf("WARNING: engine built as '%s', not Release: timings are "
                "not comparable\n",
                SJBENCH_BUILD_TYPE);
  }

  Trace trace(args.trace);
  Outcome out;
  if (args.workload == "tpch_scan") {
    RunTpchScan(args, &trace, &out);
  } else if (args.workload == "dashboard_tcp") {
    RunDashboard(args, &trace, &out);
  } else if (args.workload == "dist_fanout") {
    RunDistFanout(args, &trace, &out);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  std::printf("working set / prepared-row cache: %.3f\n", out.ws_ratio);
  if (!out.guard_ok) {
    std::fprintf(stderr,
                 "workload-role guard failed: working-set-to-cache ratio "
                 "%.3f is outside this workload's band (tpch_scan >= 1.5, "
                 "others <= 0.5)\n",
                 out.ws_ratio);
    return 3;
  }

  const size_t samples = out.series_ms.size();
  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"setup_s", "s", Median(out.setup_s)},
        {"series_p50_ms", "ms", Percentile(out.series_ms, 50)},
        {"series_p90_ms", "ms", Percentile(out.series_ms, 90)},
        {"queries_per_s", "1/s", Ratio(out.timed_queries, out.loop_s)},
        {"mutation_p50_ms", "ms", Median(out.mutation_ms)},
        {"peak_rss_mb", "MiB", out.peak_rss_mb},
    };
  } else {
    out.layer["client.mutation_prepare_ms"] = Median(out.mutation_prepare_ms);
    out.layer["table_store.apply_rtt_ms"] = Median(out.mutation_apply_ms);
    out.layer["mutation.concurrent_p50_ms"] =
        Median(out.concurrent_mutation_ms);
    out.layer["prepared_cache.retention_after_churn"] = Median(out.retention);
    out.layer["error_rate"] = Ratio(out.failed, out.attempted);
    out.layer["workset.cache_ratio"] = out.ws_ratio;
    out.layer["series.samples"] =
        static_cast<double>(samples + out.traced_series_ms.size());
    for (const auto& [name, unit] : LayerMetricNames()) {
      auto it = out.layer.find(name);
      metrics.push_back({name, unit, it == out.layer.end() ? 0 : it->second});
    }
  }

  std::printf("series: %zu untraced samples (%zu beyond p90), %zu traced; "
              "loop %.2f s; setups:",
              samples, samples - static_cast<size_t>(0.9 * samples),
              out.traced_series_ms.size(), out.loop_s);
  for (double s : out.setup_s) std::printf(" %.3f", s);
  std::printf(" s\n");
  std::printf("mutations: %zu timed batches, p25/p50/p75 %.1f/%.1f/%.1f ms "
              "(prepare p50 %.1f, apply p50 %.1f); %zu beside series\n",
              out.mutation_ms.size(), Percentile(out.mutation_ms, 25),
              Percentile(out.mutation_ms, 50), Percentile(out.mutation_ms, 75),
              Median(out.mutation_prepare_ms), Median(out.mutation_apply_ms),
              out.concurrent_mutation_ms.size());
  if (args.trace) {
    std::printf("self time by span (ms):");
    for (const auto& [name, ms] : trace.SelfTimesMs()) {
      std::printf(" %s=%.1f", name.c_str(), ms);
    }
    std::printf("\n");
    if (!args.trace_out.empty() &&
        !trace.Write(args.trace_out, fingerprint)) {
      std::fprintf(stderr, "cannot write %s\n", args.trace_out.c_str());
    }
  }
  std::ostringstream detail;
  detail << "{\"query_digest\": " << JsonString(out.query_digest)
         << ", \"series\": " << samples + out.traced_series_ms.size()
         << ", \"counts\": {";
  bool first = true;
  for (const auto& [k, v] : out.counts) {
    detail << (first ? "" : ", ") << JsonString(k) << ": " << v;
    first = false;
  }
  detail << "}}";
  std::printf("detail: %s\n", detail.str().c_str());
  for (const std::string& e : out.errors) {
    std::printf("error: %s\n", e.c_str());
  }

  const bool correct = out.failed == 0 && out.attempted > 0;
  std::printf("%s\n",
              ResultJson(correct, out.attempted, out.failed, metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
