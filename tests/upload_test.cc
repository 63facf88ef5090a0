// Client upload bytes: golden SHA-256 digests of SerializeEncryptedTable
// and SerializeTableMutation pin every byte EncryptTable and PrepareInsert
// produce (SJ.Enc, SSE tags, AEAD payloads, det/onion encodings), whatever
// the pool width the client's SJ.Enc runs at. The digests were computed
// before SJ.Enc moved onto the shared pool; a change to any RNG draw order,
// to the G2 fixed-base path or to the wire encoding shows up here.
#include <gtest/gtest.h>

#include <latch>
#include <string>
#include <thread>
#include <vector>

#include "crypto/sha256.h"
#include "db/client.h"
#include "db/server.h"
#include "db/wire.h"
#include "tpch/tpch.h"
#include "util/hex.h"

namespace sjoin {
namespace {

std::string HexDigest(const Bytes& bytes) {
  Digest32 d = Sha256::Hash(bytes);
  return ToHex(d.data(), d.size());
}

/// Orders at SF 0.0002 (300 rows, 9 filterable columns, default TPC-H
/// seed), m = 9, t = 1, client seed 77: the table upload, then PrepareInsert
/// of the same rows by the same client.
struct UploadDigests {
  std::string table;
  std::string insert;
};

UploadDigests UploadDigestsOf(EncryptedClient& client, const Table& table,
                              const std::string& join_column) {
  auto enc = client.EncryptTable(table, join_column);
  EXPECT_TRUE(enc.ok()) << enc.status().ToString();
  if (!enc.ok()) return {};
  auto ins = client.PrepareInsert(*enc, table);
  EXPECT_TRUE(ins.ok()) << ins.status().ToString();
  if (!ins.ok()) return {};
  return {HexDigest(SerializeEncryptedTable(*enc)),
          HexDigest(SerializeTableMutation(*ins))};
}

UploadDigests TpchOrdersUploadDigests(bool encodings) {
  Table orders = GenerateOrders({.scale_factor = 0.0002});
  EXPECT_EQ(orders.NumRows(), 300u);
  ClientOptions opts;
  opts.num_attrs = 9;
  opts.max_in_clause = 1;
  opts.rng_seed = 77;
  opts.upload_det_encoding = encodings;
  opts.upload_onion_encoding = encodings;
  EncryptedClient client(opts);
  return UploadDigestsOf(client, orders, "custkey");
}

TEST(UploadGoldenTest, TpchOrdersWithoutEncodings) {
  UploadDigests d = TpchOrdersUploadDigests(false);
  EXPECT_EQ(d.table,
            "454bdd33d3fdf7580f90e359b5f7a61c8400844be4ec628f18b96ddda84b8d7e");
  EXPECT_EQ(d.insert,
            "905c80c9d10e3106eb0fad3a687ab64f7dd8cfd78670e5a0018a770814b6ad70");
}

TEST(UploadGoldenTest, TpchOrdersWithDetAndOnionEncodings) {
  UploadDigests d = TpchOrdersUploadDigests(true);
  EXPECT_EQ(d.table,
            "ccd57a09c2d662b8a7ad58d23126b0150462b4c5af8996fb20c25ee72dc82751");
  EXPECT_EQ(d.insert,
            "ad28e76fd4560831e3740d1bae12e04049aa2f270110cd7a2ee0b593373ea64a");
}

// --- Clients and a series sharing the pool -----------------------------------

Table MakeTable(const std::string& name, const std::string& attr,
                size_t rows) {
  Table t(name, Schema({{"k", ValueKind::kInt64},
                        {attr, ValueKind::kString},
                        {"n", ValueKind::kInt64}}));
  for (size_t i = 0; i < rows; ++i) {
    SJOIN_CHECK(t.AppendRow({static_cast<int64_t>(i % 5),
                             attr + "#" + std::to_string(i % 3),
                             static_cast<int64_t>(i)})
                    .ok());
  }
  return t;
}

ClientOptions SmallClientOptions(uint64_t seed, bool encodings) {
  ClientOptions opts;
  opts.num_attrs = 2;
  opts.max_in_clause = 2;
  opts.rng_seed = seed;
  opts.upload_det_encoding = encodings;
  opts.upload_onion_encoding = encodings;
  return opts;
}

struct SeriesFixture {
  EncryptedServer server;
  QuerySeriesTokens series;
};

/// A fresh server holding Customers and Orders from one client, and a
/// two-query series over them (one unrestricted, one IN-filtered).
void BuildSeries(SeriesFixture* f) {
  EncryptedClient client(SmallClientOptions(5, false));
  auto a = client.EncryptTable(MakeTable("Customers", "name", 10), "k");
  auto b = client.EncryptTable(MakeTable("Orders", "item", 12), "k");
  ASSERT_TRUE(a.ok() && b.ok());
  JoinQuerySpec q;
  q.table_a = "Customers";
  q.table_b = "Orders";
  q.join_column_a = q.join_column_b = "k";
  JoinQuerySpec filtered = q;
  filtered.selection_b.predicates.push_back(
      {"item", {Value(std::string("item#1")), Value(std::string("item#2"))}});
  auto series = client.PrepareSeries({q, filtered}, {&*a, &*b});
  ASSERT_TRUE(series.ok()) << series.status().ToString();
  f->series = std::move(*series);
  ASSERT_TRUE(f->server.StoreTable(std::move(*a)).ok());
  ASSERT_TRUE(f->server.StoreTable(std::move(*b)).ok());
}

std::vector<std::vector<JoinedRowPair>> MatchedRows(
    const EncryptedSeriesResult& r) {
  std::vector<std::vector<JoinedRowPair>> out;
  for (const EncryptedJoinResult& q : r.results) {
    out.push_back(q.matched_row_indices);
  }
  return out;
}

// Two clients encrypt and prepare inserts at once while a third thread runs
// a series on a server in the same process: all three fan out on
// ThreadPool::Shared(). Each output must equal its serial run.
TEST(UploadConcurrencyTest, ClientsAndSeriesShareThePool) {
  const Table rows_a = MakeTable("Orders", "item", 24);
  const Table rows_b = MakeTable("Lineitem", "part", 17);
  auto upload_a = [&] {
    EncryptedClient c(SmallClientOptions(77, false));
    return UploadDigestsOf(c, rows_a, "k");
  };
  auto upload_b = [&] {
    EncryptedClient c(SmallClientOptions(78, true));
    return UploadDigestsOf(c, rows_b, "k");
  };
  const ServerExecOptions pooled{.num_threads = 0};

  const UploadDigests serial_a = upload_a();
  const UploadDigests serial_b = upload_b();
  SeriesFixture serial_fixture;
  ASSERT_NO_FATAL_FAILURE(BuildSeries(&serial_fixture));
  auto serial_series =
      serial_fixture.server.ExecuteJoinSeries(serial_fixture.series, pooled);
  ASSERT_TRUE(serial_series.ok()) << serial_series.status().ToString();

  SeriesFixture fixture;
  ASSERT_NO_FATAL_FAILURE(BuildSeries(&fixture));
  std::latch start(3);
  UploadDigests got_a, got_b;
  Result<EncryptedSeriesResult> got_series = Status::Internal("not run");
  std::thread ta([&] {
    start.arrive_and_wait();
    got_a = upload_a();
  });
  std::thread tb([&] {
    start.arrive_and_wait();
    got_b = upload_b();
  });
  std::thread ts([&] {
    start.arrive_and_wait();
    got_series = fixture.server.ExecuteJoinSeries(fixture.series, pooled);
  });
  ta.join();
  tb.join();
  ts.join();

  EXPECT_EQ(got_a.table, serial_a.table);
  EXPECT_EQ(got_a.insert, serial_a.insert);
  EXPECT_EQ(got_b.table, serial_b.table);
  EXPECT_EQ(got_b.insert, serial_b.insert);
  ASSERT_TRUE(got_series.ok()) << got_series.status().ToString();
  EXPECT_EQ(MatchedRows(*got_series), MatchedRows(*serial_series));
  EXPECT_FALSE(MatchedRows(*serial_series)[0].empty());
}

}  // namespace
}  // namespace sjoin
