#include "db/server.h"

#include <algorithm>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <utility>

#include "db/wire.h"
#include "util/stopwatch.h"

namespace sjoin {
namespace {

/// Rows passing a query side's SSE pre-filter (all rows if disabled).
std::vector<size_t> SelectRows(const EncryptedTable& t,
                               const std::vector<SseTokenGroup>& groups,
                               bool use_sse_prefilter) {
  if (!use_sse_prefilter || groups.empty()) {
    std::vector<size_t> all(t.rows.size());
    std::iota(all.begin(), all.end(), 0);
    return all;
  }
  std::vector<size_t> selected;
  for (size_t r = 0; r < t.rows.size(); ++r) {
    if (SseRowMatches(t.rows[r].sse, groups)) selected.push_back(r);
  }
  return selected;
}

/// Content-addressed token identity: two JoinQueryTokens sides hold "the
/// same token" iff their serialized G1 points agree. This is what keys the
/// series digest cache -- a client that reuses a token (multi-way chain
/// with a shared query key, repeated query) gets each row decrypted once.
Digest32 TokenFingerprint(const SjToken& token) {
  WireWriter w;
  w.U32(static_cast<uint32_t>(token.tk.size()));
  for (const G1Affine& p : token.tk) WriteG1Point(&w, p);
  return Sha256::Hash(w.bytes());
}

/// Adds one shard's (or a whole pass's) SJ.Dec counters to the series
/// totals. decrypts_performed is not added: BuildSeriesPlan already set it.
void AddDecryptCounts(const ShardExecStats& s, SeriesExecStats* out) {
  out->pairings_computed += s.pairings_computed;
  out->prepared_pairings += s.prepared_pairings;
  out->prepared_rows_built += s.prepared_rows_built;
  out->prepared_cache_hits += s.prepared_cache_hits;
}

}  // namespace

/// One (table, token) decryption unit of a series: the lazily filled
/// digest vector, indexed by row position within the snapshot.
struct EncryptedServer::DecryptUnit {
  const EncryptedTable* table = nullptr;
  const std::vector<StableRowId>* row_ids = nullptr;
  const SjToken* token = nullptr;
  std::vector<std::optional<Digest32>> digests;
};

/// Execution state shared by the unsharded and sharded series paths:
/// resolved per-query plans and the deduplicated (table, token) decrypt
/// units with their pending rows. Only the SJ.Dec pass (step 3) differs
/// between the paths; everything before and after is common.
///
/// Snapshot consistency: step 0 resolves at most ONE TableStore snapshot
/// per referenced table name, and every plan/unit points into it -- the
/// whole batch observes one generation per table, and the held shared_ptrs
/// keep that generation alive even across a concurrent mutation (the
/// store never mutates a published snapshot). Positions are therefore
/// stable for the duration of the call; stable ids translate them into
/// mutation-proof cache keys and leakage identities. The state is local
/// to one Execute* call -- concurrent series share nothing through it.
struct EncryptedServer::SeriesPlanState {
  struct QueryPlan {
    const EncryptedTable* a = nullptr;
    const EncryptedTable* b = nullptr;
    const std::vector<StableRowId>* ids_a = nullptr;
    const std::vector<StableRowId>* ids_b = nullptr;
    std::vector<size_t> sel_a, sel_b;
    DecryptUnit* unit_a = nullptr;
    DecryptUnit* unit_b = nullptr;
    /// Which backend answers this query (adaptive dispatch). On a fast
    /// backend the digests below are filled at plan time and the query
    /// registers no decrypt units -- it costs no pairings at all.
    BackendKind backend = BackendKind::kSjoin;
    std::vector<Digest32> fast_da, fast_db;
  };

  /// One generation per table name for the whole batch.
  std::map<std::string, TableStore::Snapshot> snapshots;
  std::vector<QueryPlan> plans;
  std::map<std::pair<std::string, Digest32>, std::unique_ptr<DecryptUnit>> units;
  /// Every (unit, row position) the batch must decrypt, dedup applied.
  std::vector<std::pair<DecryptUnit*, size_t>> pending;
};

/// One (decrypt-unit x shard) slice of the delegated SJ.Dec pass: the
/// pending rows of one unit that hash to one placement shard, shipped as
/// one worker RPC.
struct EncryptedServer::ShardWorkUnit {
  DecryptUnit* unit = nullptr;
  size_t shard = 0;
  std::vector<size_t> rows;  ///< positions within the unit's snapshot
};

std::vector<EncryptedServer::ShardWorkUnit> EncryptedServer::BuildShardUnits(
    const SeriesPlanState& state,
    const std::function<size_t(const EncryptedTable*, size_t)>& shard_of) {
  std::vector<ShardWorkUnit> groups;
  std::map<std::pair<const DecryptUnit*, size_t>, size_t> index;
  for (const auto& [unit, row] : state.pending) {
    size_t shard = shard_of(unit->table, row);
    auto key =
        std::make_pair(static_cast<const DecryptUnit*>(unit), shard);
    auto it = index.find(key);
    if (it == index.end()) {
      it = index.emplace(key, groups.size()).first;
      groups.push_back(ShardWorkUnit{unit, shard, {}});
    }
    groups[it->second].rows.push_back(row);
  }
  return groups;
}

void EncryptedServer::DecryptPass(
    const std::vector<std::pair<DecryptUnit*, size_t>>& rows, int num_threads,
    const std::function<PreparedRowCache*(size_t)>& cache_of,
    const std::function<ShardExecStats*(size_t)>& stats_of) {
  std::vector<MillerPath> paths(rows.size());
  std::vector<Digest32> digests = SecureJoin::DecryptBatched(
      rows.size(), num_threads, [&](size_t i) {
        const auto [unit, row] = rows[i];
        return CachedRowMiller(cache_of(i), unit->table->name,
                               (*unit->row_ids)[row],
                               unit->table->rows[row].sj, *unit->token,
                               &paths[i]);
      });
  for (size_t i = 0; i < rows.size(); ++i) {
    rows[i].first->digests[rows[i].second] = digests[i];
    CountMillerPath(paths[i], stats_of(i));
  }
}

Status EncryptedServer::StoreTable(EncryptedTable table) {
  TableIdFor(table.name);
  return store_.Store(std::move(table));
}

Result<const EncryptedTable*> EncryptedServer::GetTable(
    const std::string& name) const {
  auto snap = store_.Get(name);
  SJOIN_RETURN_IF_ERROR(snap.status());
  return snap->table.get();
}

Result<MutationResult> EncryptedServer::ApplyMutation(
    const TableMutation& mutation) {
  auto applied = store_.Apply(mutation);
  SJOIN_RETURN_IF_ERROR(applied.status());

  // Row-granular cache invalidation: exactly the deleted rows' prepared
  // entries drop -- surviving rows stay warm (inserts have fresh ids and
  // were never cached). Every partition is asked; EraseRow is a cheap
  // no-op where the row was never cached or routed. The caches are
  // internally synchronized, so only the partition-set snapshot needs
  // shard_mu_, not the sweep itself. A series running concurrently
  // against an older generation may re-insert a deleted row's entry
  // afterwards; that entry is merely unreachable garbage (ids are never
  // reused, so nothing will query it) bounded by LRU, never wrong.
  std::shared_ptr<ShardCacheSet> caches;
  {
    std::lock_guard<std::mutex> lock(shard_mu_);
    caches = shard_caches_;
  }
  for (StableRowId id : applied->removed_ids) {
    prepared_cache_.EraseRow(mutation.table, id);
    if (caches) {
      for (auto& cache : *caches) cache->EraseRow(mutation.table, id);
    }
  }

  // Bring an existing shard view forward incrementally: surviving rows
  // keep their digest-hash shard, so only position bookkeeping and the
  // inserted tail's hashes are computed. The update only applies when the
  // cached view is exactly one generation behind (racing direct
  // ApplyMutation callers may interleave these post-Apply steps out of
  // order; the scheduler serializes mutations per table, but the
  // synchronous API cannot rely on that) and the mutation keeps the
  // view's shard count valid -- otherwise drop the view and let the next
  // sharded call rebuild. The updated view is a fresh object published
  // over the old one, so a concurrent series keeps using the view (and
  // generation) it already resolved. The O(rows) bookkeeping stays under
  // shard_mu_: it is memcpy-scale (never pairing-scale), and the
  // generation-continuity check must be atomic with the publish.
  {
    std::lock_guard<std::mutex> lock(shard_mu_);
    auto view = shard_views_.find(mutation.table);
    if (view != shard_views_.end()) {
      ShardViewEntry& entry = view->second;
      const EncryptedTable* next = applied->snapshot.table.get();
      size_t k = entry.view ? entry.view->num_shards() : 0;
      if (entry.generation + 1 != applied->snapshot.generation || k == 0 ||
          ShardedTable::ClampShardCount(next->rows.size(), k) != k) {
        shard_views_.erase(view);
      } else {
        auto updated = std::make_shared<ShardedTable>(*entry.view);
        updated->RemoveRows(next, applied->removed_positions);
        updated->AddRows(next, applied->first_inserted_position);
        entry.generation = applied->snapshot.generation;
        entry.table = applied->snapshot.table;
        entry.view = std::move(updated);
      }
    }
  }

  // Leakage: nothing to do, by design. The tracker's RowIds are stable
  // ids, so the deleted rows' equality groups remain in the transitive
  // closure -- observations already made cannot be unlearned, and no
  // future row can collide with them (ids are never reused).
  return std::move(applied->result);
}

int EncryptedServer::TableIdFor(const std::string& name) {
  std::lock_guard<std::mutex> lock(ids_mu_);
  auto it = table_ids_.find(name);
  if (it != table_ids_.end()) return it->second;
  int id = static_cast<int>(table_ids_.size());
  table_ids_[name] = id;
  return id;
}

EncryptedJoinResult EncryptedServer::MatchAndAccount(
    const EncryptedTable& a, const EncryptedTable& b,
    const std::vector<StableRowId>& ids_a, const std::vector<StableRowId>& ids_b,
    const std::vector<size_t>& sel_a, const std::vector<size_t>& sel_b,
    const std::vector<Digest32>& da, const std::vector<Digest32>& db,
    const ServerExecOptions& opts) {
  EncryptedJoinResult out;
  out.stats.rows_total_a = a.rows.size();
  out.stats.rows_total_b = b.rows.size();
  out.stats.rows_selected_a = sel_a.size();
  out.stats.rows_selected_b = sel_b.size();

  // SJ.Match: join on digests.
  Stopwatch match_watch;
  std::vector<JoinedRowPair> pairs = opts.use_hash_join
                                         ? HashJoinDigests(da, db)
                                         : NestedLoopJoinDigests(da, db);
  out.stats.match_seconds = match_watch.Seconds();
  out.stats.result_pairs = pairs.size();

  // Leakage accounting: the adversary sees equality groups of D digests
  // across all decrypted rows of this query (both tables). Rows enter the
  // tracker under their STABLE ids, so the observation survives any later
  // delete without aliasing onto a row that reuses the position. The
  // tracker itself is thread-safe; group observations from concurrent
  // sessions commute inside the transitive closure.
  {
    std::map<Digest32, std::vector<RowId>> groups;
    int id_a = TableIdFor(a.name);
    int id_b = TableIdFor(b.name);
    for (size_t i = 0; i < sel_a.size(); ++i) {
      groups[da[i]].push_back(
          RowId{id_a, static_cast<size_t>(ids_a[sel_a[i]])});
    }
    for (size_t j = 0; j < sel_b.size(); ++j) {
      groups[db[j]].push_back(
          RowId{id_b, static_cast<size_t>(ids_b[sel_b[j]])});
    }
    for (const auto& [digest, members] : groups) {
      if (members.size() >= 2) leakage_.ObserveEqualityGroup(members);
    }
  }

  // Result payloads.
  out.row_pairs.reserve(pairs.size());
  out.matched_row_indices.reserve(pairs.size());
  for (const JoinedRowPair& p : pairs) {
    out.row_pairs.emplace_back(a.rows[sel_a[p.row_a]].payload,
                               b.rows[sel_b[p.row_b]].payload);
    out.matched_row_indices.push_back(
        JoinedRowPair{sel_a[p.row_a], sel_b[p.row_b]});
  }
  return out;
}

Result<EncryptedJoinResult> EncryptedServer::ExecuteJoin(
    const JoinQueryTokens& query, const ServerExecOptions& opts) {
  auto sa = store_.Get(query.table_a);
  SJOIN_RETURN_IF_ERROR(sa.status());
  auto sb = store_.Get(query.table_b);
  SJOIN_RETURN_IF_ERROR(sb.status());
  const EncryptedTable& a = *sa->table;
  const EncryptedTable& b = *sb->table;

  // 1. SSE pre-filter (or all rows if disabled).
  Stopwatch prefilter_watch;
  std::vector<size_t> sel_a = SelectRows(a, query.sse_a, query.use_sse_prefilter);
  std::vector<size_t> sel_b = SelectRows(b, query.sse_b, query.use_sse_prefilter);
  double prefilter_seconds = prefilter_watch.Seconds();

  // 2. SJ.Dec on the selected rows of each table (shared thread pool).
  Stopwatch decrypt_watch;
  auto decrypt_selected = [&](const EncryptedTable& t,
                              const std::vector<size_t>& sel,
                              const SjToken& token) {
    std::vector<SjRowCiphertext> cts;
    cts.reserve(sel.size());
    for (size_t r : sel) cts.push_back(t.rows[r].sj);
    return SecureJoin::DecryptRows(token, cts, opts.num_threads);
  };
  std::vector<Digest32> da = decrypt_selected(a, sel_a, query.token_a);
  std::vector<Digest32> db = decrypt_selected(b, sel_b, query.token_b);
  double decrypt_seconds = decrypt_watch.Seconds();

  // 3-5. SJ.Match, leakage accounting, payload assembly.
  EncryptedJoinResult out = MatchAndAccount(a, b, *sa->row_ids, *sb->row_ids,
                                            sel_a, sel_b, da, db, opts);
  out.stats.prefilter_seconds = prefilter_seconds;
  out.stats.decrypt_seconds = decrypt_seconds;
  return out;
}

Status EncryptedServer::BuildSeriesPlan(const QuerySeriesTokens& series,
                                        const ServerExecOptions& opts,
                                        SeriesExecStats* stats,
                                        SeriesPlanState* state) {
  // 0. Resolve every table up front -- a series fails before any crypto
  // work rather than after a partial batch -- and pin ONE snapshot per
  // table name: every query of the batch reads the same generation.
  auto resolve = [&](const std::string& name)
      -> Result<const TableStore::Snapshot*> {
    auto it = state->snapshots.find(name);
    if (it == state->snapshots.end()) {
      auto snap = store_.Get(name);
      SJOIN_RETURN_IF_ERROR(snap.status());
      it = state->snapshots.emplace(name, std::move(*snap)).first;
    }
    return &it->second;
  };
  state->plans.resize(series.queries.size());
  for (size_t q = 0; q < series.queries.size(); ++q) {
    auto sa = resolve(series.queries[q].table_a);
    SJOIN_RETURN_IF_ERROR(sa.status());
    auto sb = resolve(series.queries[q].table_b);
    SJOIN_RETURN_IF_ERROR(sb.status());
    state->plans[q].a = (*sa)->table.get();
    state->plans[q].b = (*sb)->table.get();
    state->plans[q].ids_a = (*sa)->row_ids.get();
    state->plans[q].ids_b = (*sb)->row_ids.get();
  }

  // 1. SSE pre-filters for the whole batch.
  Stopwatch prefilter_watch;
  for (size_t q = 0; q < series.queries.size(); ++q) {
    const JoinQueryTokens& query = series.queries[q];
    state->plans[q].sel_a =
        SelectRows(*state->plans[q].a, query.sse_a, query.use_sse_prefilter);
    state->plans[q].sel_b =
        SelectRows(*state->plans[q].b, query.sse_b, query.use_sse_prefilter);
  }
  stats->prefilter_seconds = prefilter_watch.Seconds();

  // 1.5. Adaptive backend dispatch (db/backend.h): per query, the
  // executor may route to a fast tag-join backend when the client's
  // series policy and the server's policy both allow it AND the
  // projected reveal fits every involved table's leakage budget (charged
  // atomically at decision time -- concurrent sessions race on one
  // ledger, so the spend is recorded before any work happens and can
  // never overshoot). A fast query's digests are computed here, over the
  // same SSE selections the pairing path would use, and the query never
  // enters the SJ.Dec plan below. With the default sjoin-only client
  // mask this loop dispatches nothing and the plan is byte-for-byte the
  // pre-adaptive one.
  const uint32_t allowed = series.allowed_backends & opts.allowed_backends;
  for (SeriesPlanState::QueryPlan& plan : state->plans) {
    if ((allowed & ~kBackendMaskSjoinOnly) != 0) {
      BackendQueryView view;
      view.a = plan.a;
      view.b = plan.b;
      view.ids_a = plan.ids_a;
      view.ids_b = plan.ids_b;
      view.sel_a = &plan.sel_a;
      view.sel_b = &plan.sel_b;
      view.table_id_a = TableIdFor(plan.a->name);
      view.table_id_b = TableIdFor(plan.b->name);
      view.onion_key = series.has_onion_key ? &series.onion_key : nullptr;
      BackendDecision decision =
          executor_.Dispatch(view, allowed, opts.cost_model);
      plan.backend = decision.kind;
      if (decision.backend != nullptr) {
        decision.backend->ComputeDigests(view, &plan.fast_da, &plan.fast_db);
        stats->leakage_charged += decision.charged;
      }
    }
    switch (plan.backend) {
      case BackendKind::kSjoin:
        ++stats->backend_sjoin_queries;
        break;
      case BackendKind::kDetJoin:
        ++stats->backend_det_queries;
        break;
      case BackendKind::kCryptDbOnion:
        ++stats->backend_onion_queries;
        break;
    }
  }

  // 2. Deduplicate SJ.Dec work through the per-(table, token) digest cache
  // and collect the batch's pending decryptions. The cache lives for this
  // call only and its units point into the step-0 snapshots, so its row
  // positions can never mix generations.
  auto unit_for = [&](const SeriesPlanState::QueryPlan& plan, bool side_a,
                      const SjToken& token) -> DecryptUnit* {
    const EncryptedTable& t = side_a ? *plan.a : *plan.b;
    auto key = std::make_pair(t.name, TokenFingerprint(token));
    auto it = state->units.find(key);
    if (it == state->units.end()) {
      auto unit = std::make_unique<DecryptUnit>();
      unit->table = &t;
      unit->row_ids = side_a ? plan.ids_a : plan.ids_b;
      unit->token = &token;
      unit->digests.resize(t.rows.size());
      it = state->units.emplace(std::move(key), std::move(unit)).first;
    }
    return it->second.get();
  };
  // Marks `sel` rows of a unit for decryption; already-marked rows are
  // cache hits (the digest is computed once for the whole series).
  std::map<const DecryptUnit*, std::vector<char>> scheduled;
  auto request_rows = [&](DecryptUnit* unit,
                          const std::vector<size_t>& sel) {
    std::vector<char>& marks = scheduled[unit];
    marks.resize(unit->digests.size());
    for (size_t r : sel) {
      ++stats->decrypts_requested;
      if (marks[r]) {
        ++stats->digest_cache_hits;
        continue;
      }
      marks[r] = 1;
      state->pending.emplace_back(unit, r);
    }
  };
  for (size_t q = 0; q < series.queries.size(); ++q) {
    // Fast-backend queries are already answered; they request no decrypts
    // (and deliberately stay out of the cross-query digest pass, whose
    // information their full-pattern reveal strictly subsumes).
    if (state->plans[q].backend != BackendKind::kSjoin) continue;
    state->plans[q].unit_a =
        unit_for(state->plans[q], true, series.queries[q].token_a);
    state->plans[q].unit_b =
        unit_for(state->plans[q], false, series.queries[q].token_b);
    request_rows(state->plans[q].unit_a, state->plans[q].sel_a);
    request_rows(state->plans[q].unit_b, state->plans[q].sel_b);
  }
  stats->decrypts_performed = state->pending.size();
  return Status::OK();
}

void EncryptedServer::FinishSeries(SeriesPlanState& state,
                                   const ServerExecOptions& opts,
                                   EncryptedSeriesResult* out) {
  // 4. Per-query SJ.Match, leakage accounting and payload assembly, in
  // series order (leakage order matters for reproducibility, not for the
  // transitive closure itself).
  Stopwatch match_watch;
  // Digests of `sel` rows out of a fully computed unit, in selection order.
  auto gather = [](const DecryptUnit& unit,
                   const std::vector<size_t>& sel) {
    std::vector<Digest32> digests;
    digests.reserve(sel.size());
    for (size_t r : sel) digests.push_back(*unit.digests[r]);
    return digests;
  };
  out->results.reserve(state.plans.size());
  for (SeriesPlanState::QueryPlan& plan : state.plans) {
    // A fast-backend query joins on its tag digests; equal join values
    // produce equal digests either way, so SJ.Match, leakage grouping and
    // payload assembly below are one shared path and the results are
    // byte-identical to the pairing pipeline's (asserted by
    // tests/backend_test.cc).
    const bool fast = plan.backend != BackendKind::kSjoin;
    std::vector<Digest32> da =
        fast ? std::move(plan.fast_da) : gather(*plan.unit_a, plan.sel_a);
    std::vector<Digest32> db =
        fast ? std::move(plan.fast_db) : gather(*plan.unit_b, plan.sel_b);
    out->results.push_back(MatchAndAccount(*plan.a, *plan.b, *plan.ids_a,
                                           *plan.ids_b, plan.sel_a,
                                           plan.sel_b, da, db, opts));
  }
  out->stats.match_seconds = match_watch.Seconds();

  // 5. Cross-query leakage: the adversary compares digests across the
  // WHOLE series, not just within one query. With fresh per-query keys
  // digests never collide across queries (this adds nothing beyond step
  // 4); when a client opted into a shared-key chain, rows with equal join
  // values collide across the chain's queries even without a connecting
  // middle row, and that observation belongs in the tracker too. Note the
  // pass cannot be skipped just because no unit is shared between
  // queries: shared-key collisions also happen across DISTINCT units
  // (e.g. a chain's end tables), and the server cannot see query keys.
  // Its cost mirrors the per-query digest maps of step 4 and is dwarfed
  // by the pairings of step 3.
  if (state.plans.size() > 1) {
    std::map<Digest32, std::vector<RowId>> groups;
    for (const auto& [key, unit] : state.units) {
      int table_id = TableIdFor(unit->table->name);
      for (size_t r = 0; r < unit->digests.size(); ++r) {
        if (!unit->digests[r].has_value()) continue;
        std::vector<RowId>& members = groups[*unit->digests[r]];
        RowId id{table_id, static_cast<size_t>((*unit->row_ids)[r])};
        // Two same-key tokens over one table yield duplicate members.
        if (std::find(members.begin(), members.end(), id) == members.end()) {
          members.push_back(id);
        }
      }
    }
    for (const auto& [digest, members] : groups) {
      if (members.size() >= 2) leakage_.ObserveEqualityGroup(members);
    }
  }

  // The snapshot-isolation receipt: which generation every referenced
  // table was pinned at (what a serial replay must load to reproduce the
  // results bit for bit).
  out->pinned_generations.reserve(state.snapshots.size());
  for (const auto& [name, snap] : state.snapshots) {
    out->pinned_generations.emplace_back(name, snap.generation);
  }

  // The budget-ledger receipt (wire v6): where every referenced table's
  // leakage budget stands after this batch. A concurrent session may
  // spend between our charges and this read, so the snapshot is
  // best-effort monotone -- spent can only be >= what this batch saw.
  out->stats.budgets.reserve(state.snapshots.size());
  for (const auto& [name, snap] : state.snapshots) {
    int table_id = TableIdFor(name);
    SeriesExecStats::TableBudget b;
    b.table = name;
    b.limit = leakage_.BudgetLimit(table_id);
    b.spent = leakage_.BudgetSpent(table_id);
    b.remaining = leakage_.BudgetRemaining(table_id);
    out->stats.budgets.push_back(std::move(b));
  }
}

Result<EncryptedSeriesResult> EncryptedServer::ExecuteJoinSeries(
    const QuerySeriesTokens& series, const ServerExecOptions& opts) {
  EncryptedSeriesResult out;
  out.stats.queries = series.queries.size();
  SeriesPlanState state;
  SJOIN_RETURN_IF_ERROR(BuildSeriesPlan(series, opts, &out.stats, &state));

  // 3. One batched SJ.Dec pass over every pending (unit, row) of the
  // series on the shared pool -- the expensive pairings of all queries are
  // scheduled together instead of query by query, one pool task per row's
  // Miller loop (SecureJoin::DecryptBatched). Each decryption first
  // consults the server's prepared-row cache: a row touched before (by an
  // earlier query of this series under a different token, or by a previous
  // series) decrypts via line evaluation alone, and a first-touch row is
  // prepared so every later token gets the warm path. The cache bounds its
  // memory (opts.prepared_cache_bytes); rows it cannot admit fall back to
  // the cold full-pairing path. Cache keys are STABLE row ids, so entries
  // written by one generation stay valid for every later generation the
  // row survives into.
  Stopwatch decrypt_watch;
  PreparedRowCache* cache = nullptr;
  if (opts.prepared_cache_bytes > 0) {
    prepared_cache_.set_max_bytes(opts.prepared_cache_bytes);
    cache = &prepared_cache_;
  }
  ShardExecStats counts;
  DecryptPass(
      state.pending, opts.num_threads, [&](size_t) { return cache; },
      [&](size_t) { return &counts; });
  AddDecryptCounts(counts, &out.stats);
  out.stats.decrypt_seconds = decrypt_watch.Seconds();

  FinishSeries(state, opts, &out);
  return out;
}

std::shared_ptr<const ShardedTable> EncryptedServer::ShardViewFor(
    const TableStore::Snapshot& snap, size_t k) {
  const EncryptedTable& table = *snap.table;
  size_t effective = ShardedTable::ClampShardCount(table.rows.size(), k);
  {
    std::lock_guard<std::mutex> lock(shard_mu_);
    auto it = shard_views_.find(table.name);
    if (it != shard_views_.end() &&
        it->second.table.get() == snap.table.get() &&
        it->second.view->num_shards() == effective) {
      return it->second.view;
    }
  }
  // Miss: hash every row OUTSIDE the lock -- a big table's O(rows) digest
  // pass must not stall every other session's view resolution. Racing
  // builders may both construct; partitioning is deterministic, so the
  // views are identical and last-publish-wins costs only the duplicate
  // build. (A concurrent mutation may also overwrite this entry with a
  // newer generation's view; ours stays valid for this series via the
  // returned shared_ptr, and the next resolver rebuilds on the pointer
  // mismatch.)
  ShardViewEntry entry;
  entry.generation = snap.generation;
  entry.table = snap.table;
  entry.view = std::make_shared<ShardedTable>(snap.table.get(), k);
  auto view = entry.view;
  std::lock_guard<std::mutex> lock(shard_mu_);
  shard_views_.insert_or_assign(table.name, std::move(entry));
  return view;
}

Result<EncryptedSeriesResult> EncryptedServer::ExecuteJoinSeriesSharded(
    const QuerySeriesTokens& series, const ServerExecOptions& opts) {
  EncryptedSeriesResult out;
  out.stats.queries = series.queries.size();
  SeriesPlanState state;
  SJOIN_RETURN_IF_ERROR(BuildSeriesPlan(series, opts, &out.stats, &state));

  // Effective shard count: the client's routing request (wire v3) wins
  // over the server-side option; both are clamped to the largest
  // referenced table so an empty shard never allocates a cache partition
  // or schedules a pool task (see ShardedTable::ClampShardCount).
  size_t requested =
      series.requested_shards > 0
          ? series.requested_shards
          : static_cast<size_t>(std::max(opts.num_shards, 1));
  size_t max_rows = 0;
  for (const auto& [key, unit] : state.units) {
    max_rows = std::max(max_rows, unit->table->rows.size());
  }
  // An empty series has no shards at all; otherwise at least one, even if
  // every referenced table is empty (there is still a merge to report).
  size_t k = series.queries.empty()
                 ? 0
                 : ShardedTable::ClampShardCount(std::max<size_t>(max_rows, 1),
                                                 requested);
  out.stats.shards = k;
  out.stats.shard_stats.assign(k, ShardExecStats{});

  // Partition views for every referenced table, resolved once against the
  // pinned snapshots (the views are immutable and generation-pinned, so a
  // concurrent mutation republishing a newer view cannot skew routing
  // mid-pass).
  std::map<const EncryptedTable*, std::shared_ptr<const ShardedTable>> views;
  if (k > 0) {
    for (const auto& [name, snap] : state.snapshots) {
      views.emplace(snap.table.get(), ShardViewFor(snap, k));
    }
  }

  // 3 (sharded). One batched SJ.Dec pass over every pending row, each
  // row routed to the shard its table's partition view puts it in. Tables
  // smaller than K are partitioned ClampShardCount(rows, K) ways, so their
  // rows land on the low shard ids only. Each row decrypts through its
  // shard's own prepared-row cache partition -- two hot shards never
  // contend on one LRU lock, and a scan evicting one partition cannot
  // cool the others -- while the pass itself schedules rows, not shards,
  // so a K=1 series over one big table still uses every thread.
  Stopwatch decrypt_watch;
  std::vector<size_t> shard_of_row(state.pending.size());
  for (size_t i = 0; i < state.pending.size(); ++i) {
    const auto [unit, row] = state.pending[i];
    shard_of_row[i] = views.at(unit->table)->shard_of(row);
  }

  // Per-shard cache partitions, each with an even split of the byte
  // budget. A different K than last time republishes a fresh partition
  // set (row -> shard placement changed, so the old entries would be
  // misfiled); a concurrent series still decrypting through the old set
  // keeps it alive via its own shared_ptr -- superseded partitions are
  // cold for it, never wrong. The unsharded prepared_cache_ is untouched
  // either way.
  const bool use_prepared =
      opts.prepared_cache_bytes > 0 && !state.pending.empty();
  std::shared_ptr<ShardCacheSet> caches;
  if (use_prepared) {
    size_t per_shard = opts.prepared_cache_bytes / k;
    std::lock_guard<std::mutex> lock(shard_mu_);
    if (!shard_caches_ || shard_caches_->size() != k) {
      auto fresh = std::make_shared<ShardCacheSet>();
      for (size_t s = 0; s < k; ++s) {
        fresh->push_back(std::make_unique<PreparedRowCache>(per_shard));
      }
      shard_caches_ = std::move(fresh);
    } else {
      for (auto& cache : *shard_caches_) cache->set_max_bytes(per_shard);
    }
    caches = shard_caches_;
  }

  DecryptPass(
      state.pending, opts.num_threads,
      [&](size_t i) {
        return use_prepared ? (*caches)[shard_of_row[i]].get() : nullptr;
      },
      [&](size_t i) { return &out.stats.shard_stats[shard_of_row[i]]; });
  // The series totals the existing wire fields carry are the per-shard
  // sums (asserted by tests/shard_test.cc).
  for (const ShardExecStats& s : out.stats.shard_stats) {
    AddDecryptCounts(s, &out.stats);
  }
  out.stats.decrypt_seconds = decrypt_watch.Seconds();

  FinishSeries(state, opts, &out);
  return out;
}

Result<EncryptedSeriesResult> EncryptedServer::ExecuteJoinSeriesDelegated(
    const QuerySeriesTokens& series, const ServerExecOptions& opts,
    size_t placement_shards, const ShardDecryptFn& decrypt) {
  EncryptedSeriesResult out;
  out.stats.queries = series.queries.size();
  SeriesPlanState state;
  SJOIN_RETURN_IF_ERROR(BuildSeriesPlan(series, opts, &out.stats, &state));

  // Placement width is FIXED cluster-wide: the coordinator partitioned
  // every table K ways by row digest when it uploaded the shards, so K is
  // NOT re-clamped per table the way the local sharded path clamps it --
  // a 3-row table under K = 8 simply leaves five shards empty. Routing
  // must agree with upload-time placement exactly or requests would land
  // on workers that do not hold the rows.
  size_t k = std::min<size_t>(std::max<size_t>(placement_shards, 1),
                              ShardedTable::kMaxShards);
  out.stats.shards = series.queries.empty() ? 0 : k;
  out.stats.shard_stats.assign(out.stats.shards, ShardExecStats{});

  // One slice per (unit x shard): worker round-trip latency dominates
  // task granularity here, and fewer, bigger requests amortize the
  // framing.
  Stopwatch decrypt_watch;
  std::vector<ShardWorkUnit> work =
      BuildShardUnits(state, [&](const EncryptedTable* t, size_t row) {
        return ShardedTable::ShardOfDigest(
            ShardedTable::RowDigest(t->rows[row]), k);
      });

  // The whole pass goes to the delegate at once, so it can put every
  // slice in flight before it waits for the first answer.
  std::vector<ShardDecryptRequest> reqs(work.size());
  for (size_t wi = 0; wi < work.size(); ++wi) {
    const ShardWorkUnit& wu = work[wi];
    ShardDecryptRequest& req = reqs[wi];
    req.table = wu.unit->table->name;
    req.generation = state.snapshots.at(req.table).generation;
    req.shard = static_cast<uint32_t>(wu.shard);
    req.token = *wu.unit->token;
    req.rows.reserve(wu.rows.size());
    for (size_t row : wu.rows) req.rows.push_back((*wu.unit->row_ids)[row]);
  }
  std::vector<Result<ShardDecryptResponse>> resps = decrypt(reqs);
  if (resps.size() != work.size()) {
    return Status::Internal("shard decrypt delegate answered " +
                            std::to_string(resps.size()) + " of " +
                            std::to_string(work.size()) + " slices");
  }
  for (const auto& resp : resps) SJOIN_RETURN_IF_ERROR(resp.status());

  // Merge the answers by original row position, collecting the rows a
  // slice lacks (a mutation slice its worker missed while down, or every
  // replica of the shard unreachable -- the coordinator then answers an
  // all-zero bitmap) with the shard they count against.
  std::vector<std::pair<DecryptUnit*, size_t>> missing;
  std::vector<size_t> missing_shard;
  for (size_t wi = 0; wi < work.size(); ++wi) {
    const ShardWorkUnit& wu = work[wi];
    const ShardDecryptResponse& resp = *resps[wi];
    const std::string& table = reqs[wi].table;
    if (resp.have.size() != wu.rows.size()) {
      return Status::Internal(
          "shard decrypt response for table '" + table + "' answers " +
          std::to_string(resp.have.size()) + " rows, requested " +
          std::to_string(wu.rows.size()));
    }
    size_t next = 0;
    for (size_t i = 0; i < wu.rows.size(); ++i) {
      if (!resp.have[i]) {
        missing.emplace_back(wu.unit, wu.rows[i]);
        missing_shard.push_back(wu.shard);
      } else if (next < resp.digests.size()) {
        wu.unit->digests[wu.rows[i]] = resp.digests[next++];
      } else {
        return Status::Internal(
            "shard decrypt response for table '" + table +
            "' has fewer digests than its presence bitmap claims");
      }
    }
    if (next != resp.digests.size()) {
      return Status::Internal(
          "shard decrypt response for table '" + table +
          "' has more digests than its presence bitmap claims");
    }
    out.stats.shard_stats[wu.shard] += resp.stats;
  }

  // The pinned snapshot still holds every missing row, so one local pass
  // decrypts them all, prepared-line cache included -- SJ.Dec sees only
  // (ciphertext, token), so the digests are identical to what a worker
  // would have answered.
  PreparedRowCache* cache =
      opts.prepared_cache_bytes > 0 ? &prepared_cache_ : nullptr;
  DecryptPass(
      missing, opts.num_threads, [&](size_t) { return cache; },
      [&](size_t i) { return &out.stats.shard_stats[missing_shard[i]]; });
  for (const ShardExecStats& s : out.stats.shard_stats) {
    AddDecryptCounts(s, &out.stats);
  }
  out.stats.decrypt_seconds = decrypt_watch.Seconds();

  FinishSeries(state, opts, &out);
  return out;
}

size_t EncryptedServer::shard_partition_count() const {
  std::lock_guard<std::mutex> lock(shard_mu_);
  return shard_caches_ ? shard_caches_->size() : 0;
}

const PreparedRowCache* EncryptedServer::shard_cache(size_t shard) const {
  std::lock_guard<std::mutex> lock(shard_mu_);
  if (!shard_caches_ || shard >= shard_caches_->size()) return nullptr;
  return (*shard_caches_)[shard].get();
}

void EncryptedServer::SubmitJoinSeriesAsync(
    QuerySeriesTokens series, ServerExecOptions opts,
    std::function<void(Result<EncryptedSeriesResult>)> done) {
  SessionId session = series.session_id;
  auto request = std::make_shared<QuerySeriesTokens>(std::move(series));
  auto cb = std::make_shared<decltype(done)>(std::move(done));
  Status admitted = scheduler_.Enqueue(
      session, RequestScheduler::Kind::kRead, "",
      [this, request, opts, cb] { (*cb)(ExecuteJoinSeries(*request, opts)); });
  if (!admitted.ok()) (*cb)(admitted);
}

void EncryptedServer::SubmitJoinSeriesShardedAsync(
    QuerySeriesTokens series, ServerExecOptions opts,
    std::function<void(Result<EncryptedSeriesResult>)> done) {
  SessionId session = series.session_id;
  auto request = std::make_shared<QuerySeriesTokens>(std::move(series));
  auto cb = std::make_shared<decltype(done)>(std::move(done));
  Status admitted = scheduler_.Enqueue(
      session, RequestScheduler::Kind::kRead, "", [this, request, opts, cb] {
        (*cb)(ExecuteJoinSeriesSharded(*request, opts));
      });
  if (!admitted.ok()) (*cb)(admitted);
}

void EncryptedServer::SubmitMutationAsync(
    TableMutation mutation, std::function<void(Result<MutationResult>)> done) {
  SessionId session = mutation.session_id;
  std::string table = mutation.table;
  auto request = std::make_shared<TableMutation>(std::move(mutation));
  auto cb = std::make_shared<decltype(done)>(std::move(done));
  Status admitted = scheduler_.Enqueue(
      session, RequestScheduler::Kind::kMutation, std::move(table),
      [this, request, cb] { (*cb)(ApplyMutation(*request)); });
  if (!admitted.ok()) (*cb)(admitted);
}

std::future<Result<EncryptedSeriesResult>> EncryptedServer::SubmitJoinSeries(
    QuerySeriesTokens series, ServerExecOptions opts) {
  auto prom = std::make_shared<std::promise<Result<EncryptedSeriesResult>>>();
  auto fut = prom->get_future();
  SubmitJoinSeriesAsync(
      std::move(series), opts,
      [prom](Result<EncryptedSeriesResult> r) { prom->set_value(std::move(r)); });
  return fut;
}

std::future<Result<EncryptedSeriesResult>>
EncryptedServer::SubmitJoinSeriesSharded(QuerySeriesTokens series,
                                         ServerExecOptions opts) {
  auto prom = std::make_shared<std::promise<Result<EncryptedSeriesResult>>>();
  auto fut = prom->get_future();
  SubmitJoinSeriesShardedAsync(
      std::move(series), opts,
      [prom](Result<EncryptedSeriesResult> r) { prom->set_value(std::move(r)); });
  return fut;
}

std::future<Result<MutationResult>> EncryptedServer::SubmitMutation(
    TableMutation mutation) {
  auto prom = std::make_shared<std::promise<Result<MutationResult>>>();
  auto fut = prom->get_future();
  SubmitMutationAsync(std::move(mutation), [prom](Result<MutationResult> r) {
    prom->set_value(std::move(r));
  });
  return fut;
}

}  // namespace sjoin
