// Property-based tests: randomized inputs checked against invariants or a
// trivially-correct reference implementation.

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/records.h"
#include "crawler/checkpoint.h"
#include "dataflow/dataset.h"
#include "dfs/commit.h"
#include "dfs/dfs.h"
#include "dfs/jsonl.h"
#include "json/json.h"
#include "stats/stats.h"
#include "util/rng.h"

namespace cfnet {
namespace {

// --- JSON: random documents round-trip exactly -------------------------------

json::Json RandomJson(Rng& rng, int depth) {
  double u = rng.NextDouble();
  if (depth >= 4 || u < 0.45) {
    // Scalar.
    switch (rng.NextUint64(5)) {
      case 0:
        return json::Json();
      case 1:
        return json::Json(rng.Bernoulli(0.5));
      case 2:
        return json::Json(rng.UniformInt(-1000000000000ll, 1000000000000ll));
      case 3:
        return json::Json(rng.Normal(0, 1e6));
      default: {
        std::string s;
        size_t len = rng.NextUint64(20);
        for (size_t i = 0; i < len; ++i) {
          // Mix printable ASCII with characters needing escapes.
          const char* alphabet =
              "abc XYZ123\"\\\n\t/\x01\x1f~";
          s.push_back(alphabet[rng.NextUint64(17)]);
        }
        return json::Json(std::move(s));
      }
    }
  }
  if (u < 0.72) {
    json::Json arr = json::Json::MakeArray();
    size_t n = rng.NextUint64(5);
    for (size_t i = 0; i < n; ++i) arr.Append(RandomJson(rng, depth + 1));
    return arr;
  }
  json::Json obj = json::Json::MakeObject();
  size_t n = rng.NextUint64(5);
  for (size_t i = 0; i < n; ++i) {
    obj.Set("k" + std::to_string(rng.NextUint64(8)), RandomJson(rng, depth + 1));
  }
  return obj;
}

class JsonRoundTripProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(JsonRoundTripProperty, DumpParseIsIdentity) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 200; ++trial) {
    json::Json doc = RandomJson(rng, 0);
    std::string text = doc.Dump();
    auto reparsed = json::Parse(text);
    ASSERT_TRUE(reparsed.ok()) << text << " -> " << reparsed.status();
    // NaN/Inf doubles dump as null, so compare the *re-dump* instead of the
    // original when doubles are involved; re-dump must be a fixed point.
    EXPECT_EQ(reparsed->Dump(), text);
  }
}

/// A record-shaped line: a random subset of the fields the five record
/// decoders read, each holding its usual value or a random one, so the
/// decoders get past the first member and into their nested paths.
std::string RandomRecordLine(Rng& rng) {
  static const std::pair<const char*, const char*> kFields[] = {
      {"id", "42"},
      {"name", R"("Startup \"7\"\n")"},
      {"twitter_url", R"("https://twitter.com/s7")"},
      {"fundraising", "true"},
      {"follower_count", "1200"},
      {"roles", R"(["investor","founder"])"},
      {"investment_company_ids", "[3,1,4]"},
      {"following_user_count", "12"},
      {"angellist_id", "7"},
      {"total_funding_usd", "2500000.5"},
      {"funding_rounds", R"([{"round_index":0,"investor_ids":[100,101]}])"},
      {"fan_count", "652"},
      {"statuses_count", "343"},
      {"followers_count", "null"},
  };
  json::Json line = json::Json::MakeObject();
  for (const auto& [field, usual] : kFields) {
    if (rng.Bernoulli(0.4)) continue;
    line.Set(field,
             rng.Bernoulli(0.3) ? RandomJson(rng, 2) : *json::Parse(usual));
  }
  return line.Dump();
}

/// One mutation of `text`: a truncation, a handful of bit flips, or a
/// splice of a random slice of `other` over a random slice of `text`.
std::string Mutate(Rng& rng, const std::string& text,
                   const std::string& other) {
  std::string out = text;
  switch (rng.NextUint64(3)) {
    case 0:
      out.resize(rng.NextUint64(out.size()));
      break;
    case 1:
      for (uint64_t flips = 1 + rng.NextUint64(4); flips > 0; --flips) {
        out[rng.NextUint64(out.size())] ^=
            static_cast<char>(1u << rng.NextUint64(8));
      }
      break;
    default: {
      const size_t at = rng.NextUint64(out.size() + 1);
      const size_t cut = rng.NextUint64(out.size() - at + 1);
      const size_t from = rng.NextUint64(other.size() + 1);
      const size_t take = rng.NextUint64(other.size() - from + 1);
      out.replace(at, cut, other, from, take);
    }
  }
  return out;
}

bool OkOrCorruption(const Status& status) {
  return status.ok() || status.code() == StatusCode::kCorruption;
}

/// Dump of the document in `text`, which must parse.
std::string Redump(const std::string& text) {
  auto parsed = json::Parse(text);
  EXPECT_TRUE(parsed.ok()) << text << " -> " << parsed.status();
  return parsed.ok() ? parsed->Dump() : std::string();
}

/// Every parse and decode entry point over hostile `bytes`: each returns OK
/// or Corruption, and a document Parse accepts re-dumps to a fixed point.
/// Dump∘Parse may change a document once (a -0.0 dumps as "-0", which reads
/// back as the integer 0); after that it is the identity.
void ExpectOkOrCorruption(const std::string& bytes) {
  SCOPED_TRACE(bytes);
  auto parsed = json::Parse(bytes);
  EXPECT_TRUE(OkOrCorruption(parsed.status())) << parsed.status();
  if (parsed.ok()) {
    const std::string settled = Redump(parsed->Dump());
    EXPECT_EQ(Redump(settled), settled);
  }
  EXPECT_TRUE(OkOrCorruption(
      core::DecodeLine<core::StartupRecord>(bytes).status()));
  EXPECT_TRUE(
      OkOrCorruption(core::DecodeLine<core::UserRecord>(bytes).status()));
  EXPECT_TRUE(OkOrCorruption(
      core::DecodeLine<core::CrunchBaseRecord>(bytes).status()));
  EXPECT_TRUE(OkOrCorruption(
      core::DecodeLine<core::FacebookRecord>(bytes).status()));
  EXPECT_TRUE(
      OkOrCorruption(core::DecodeLine<core::TwitterRecord>(bytes).status()));
}

TEST_P(JsonRoundTripProperty, HostileBytesYieldOkOrCorruption) {
  Rng rng(GetParam() ^ 0x1234);
  for (int trial = 0; trial < 300; ++trial) {
    const std::string text = rng.Bernoulli(0.5) ? RandomRecordLine(rng)
                                                : RandomJson(rng, 0).Dump();
    const std::string other = RandomRecordLine(rng);
    if (text.size() < 2) continue;
    ExpectOkOrCorruption(Mutate(rng, text, other));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JsonRoundTripProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// --- file contract: hostile bytes in committed files -------------------------

class CommittedFileProperty : public ::testing::TestWithParam<uint64_t> {};

// A committed segment overwritten with a truncated, bit-flipped or spliced
// copy of itself: ReadCommitted returns the exact committed payload (only
// when the bytes are unaltered) or Corruption, and a salvage scan of the
// damaged segment still completes.
TEST_P(CommittedFileProperty, HostileSegmentBytesYieldPayloadOrCorruption) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 100; ++trial) {
    dfs::MiniDfs fs;
    std::string payload;
    {
      dfs::JsonLinesWriter writer(&fs, "/snap/part-0-");
      for (uint64_t n = 1 + rng.NextUint64(6); n > 0; --n) {
        const std::string line = RandomRecordLine(rng);
        ASSERT_TRUE(writer.Write(*json::Parse(line)).ok());
        payload += line + "\n";
      }
    }
    const std::string path = dfs::SegmentPath("/snap/part-0-", 1);
    const std::string committed = *fs.ReadFile(path);
    const std::string hostile =
        Mutate(rng, committed, RandomRecordLine(rng));
    ASSERT_TRUE(fs.WriteFile(path, hostile).ok());

    auto read = dfs::ReadCommitted(fs, path);
    if (hostile == committed) {
      ASSERT_TRUE(read.ok()) << read.status();
      EXPECT_EQ(*read, payload);
    } else {
      EXPECT_EQ(read.status().code(), StatusCode::kCorruption);
    }
    dfs::ScanOptions salvage;
    salvage.salvage = true;
    EXPECT_TRUE(
        dfs::ScanJsonLines<json::Json>(fs, {path}, json::Parse, salvage).ok());
  }
}

/// A small checkpoint whose contents vary with `rng`.
crawler::CheckpointState RandomCheckpoint(Rng& rng, int64_t round) {
  crawler::CheckpointState st;
  st.phase = "bfs";
  st.bfs_round = round;
  for (uint64_t n = rng.NextUint64(20); n > 0; --n) {
    st.company_frontier.push_back(rng.NextUint64(1000000));
    st.seen_users.push_back(rng.NextUint64(1000000));
  }
  crawler::CrawledCompany company;
  company.id = rng.NextUint64(1000);
  company.name = RandomRecordLine(rng);  // quotes and escapes in a string
  st.companies.push_back(company);
  st.snapshot_segments.push_back(dfs::SegmentPath("/crawl/users/part-0-", 1));
  st.worker_clocks = {static_cast<int64_t>(rng.NextUint64(1 << 30))};
  return st;
}

// Three committed checkpoints, each overwritten with hostile bytes half the
// time: LoadLatestValid returns the newest unaltered one or NotFound, and
// so does a fresh store, whose startup sweep quarantines the damaged files.
TEST_P(CommittedFileProperty, HostileCheckpointBytesFallBackToNewestIntact) {
  Rng rng(GetParam() ^ 0xC4EC);
  for (int trial = 0; trial < 40; ++trial) {
    dfs::MiniDfs fs;
    crawler::CheckpointStore store(&fs, "/ckpt", /*keep=*/3);
    std::vector<crawler::CheckpointState> saved;
    for (int64_t round = 1; round <= 3; ++round) {
      saved.push_back(RandomCheckpoint(rng, round));
      ASSERT_TRUE(store.Save(&saved.back()).ok());
    }
    const std::vector<std::string> files = store.ListFiles();  // oldest first
    ASSERT_EQ(files.size(), saved.size());
    const crawler::CheckpointState* newest_intact = nullptr;
    for (size_t i = 0; i < files.size(); ++i) {
      const std::string committed = *fs.ReadFile(files[i]);
      const std::string bytes =
          rng.Bernoulli(0.5) ? Mutate(rng, committed, RandomRecordLine(rng))
                             : committed;
      ASSERT_TRUE(fs.WriteFile(files[i], bytes).ok());
      if (bytes == committed) newest_intact = &saved[i];
    }
    auto expect_newest_intact = [&](const crawler::CheckpointStore& from) {
      auto loaded = from.LoadLatestValid();
      if (newest_intact == nullptr) {
        EXPECT_TRUE(loaded.status().IsNotFound()) << loaded.status();
        return;
      }
      ASSERT_TRUE(loaded.ok()) << loaded.status();
      EXPECT_EQ(crawler::CheckpointStore::Serialize(*loaded),
                crawler::CheckpointStore::Serialize(*newest_intact));
    };
    expect_newest_intact(store);
    crawler::CheckpointStore restarted(&fs, "/ckpt", /*keep=*/3);
    expect_newest_intact(restarted);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CommittedFileProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

// --- MiniDFS: random op sequences against a map reference ---------------------

class DfsModelProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DfsModelProperty, MatchesReferenceModel) {
  Rng rng(GetParam());
  dfs::DfsConfig config;
  config.num_datanodes = 5;
  config.block_size = 1 + rng.NextUint64(64);
  config.replication = 3;
  dfs::MiniDfs fs(config);
  std::map<std::string, std::string> reference;

  auto random_path = [&]() {
    return "/p/f" + std::to_string(rng.NextUint64(8));
  };
  auto random_data = [&]() {
    return std::string(rng.NextUint64(200),
                       static_cast<char>('a' + rng.NextUint64(26)));
  };

  int dead_nodes = 0;
  for (int step = 0; step < 400; ++step) {
    switch (rng.NextUint64(9)) {
      case 0: {  // write
        std::string p = random_path();
        std::string d = random_data();
        ASSERT_TRUE(fs.WriteFile(p, d).ok());
        reference[p] = d;
        break;
      }
      case 1: {  // append
        std::string p = random_path();
        std::string d = random_data();
        ASSERT_TRUE(fs.Append(p, d).ok());
        reference[p] += d;
        break;
      }
      case 2: {  // delete
        std::string p = random_path();
        Status s = fs.Delete(p);
        EXPECT_EQ(s.ok(), reference.erase(p) > 0);
        break;
      }
      case 3: {  // kill a node (keep a quorum alive for replication=3)
        if (dead_nodes < 2) {
          int node = static_cast<int>(rng.NextUint64(5));
          if (fs.IsDataNodeAlive(node)) {
            ASSERT_TRUE(fs.KillDataNode(node).ok());
            ++dead_nodes;
          }
        }
        break;
      }
      case 4: {  // revive all
        for (int node = 0; node < 5; ++node) fs.ReviveDataNode(node).ok();
        dead_nodes = 0;
        break;
      }
      case 5:
        fs.RunReplicationMonitor();
        break;
      case 6:
        EXPECT_EQ(fs.ScrubBlocks(), 0u);  // nothing corrupts itself
        break;
      case 7: {  // rename, the commit protocol's atomic step
        const std::string from = random_path();
        const std::string to = random_path();
        Status s = fs.Rename(from, to);
        auto it = reference.find(from);
        EXPECT_EQ(s.ok(), it != reference.end()) << s;
        if (it != reference.end()) {
          std::string d = std::move(it->second);
          reference.erase(it);
          reference[to] = std::move(d);
        }
        break;
      }
      default: {  // read
        std::string p = random_path();
        auto content = fs.ReadFile(p);
        auto it = reference.find(p);
        if (it == reference.end()) {
          EXPECT_FALSE(content.ok());
        } else {
          ASSERT_TRUE(content.ok()) << p;
          EXPECT_EQ(*content, it->second);
        }
      }
    }
  }
  // Final full verification.
  for (const auto& [p, d] : reference) {
    auto content = fs.ReadFile(p);
    ASSERT_TRUE(content.ok()) << p;
    EXPECT_EQ(*content, d);
  }
  auto listed = fs.List("/p/");
  EXPECT_EQ(listed.size(), reference.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, DfsModelProperty,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

// --- dataflow: randomized pipelines match serial evaluation -------------------

class DataflowPipelineProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DataflowPipelineProperty, MatchesSerialReference) {
  Rng rng(GetParam());
  auto ctx = std::make_shared<dataflow::ExecutionContext>(4);

  std::vector<int64_t> data;
  size_t n = 500 + rng.NextUint64(3000);
  for (size_t i = 0; i < n; ++i) data.push_back(rng.UniformInt(-1000, 1000));

  auto ds = dataflow::Dataset<int64_t>::FromVector(
      ctx, data, 1 + rng.NextUint64(12));
  std::vector<int64_t> ref = data;

  int num_ops = 2 + static_cast<int>(rng.NextUint64(4));
  for (int op = 0; op < num_ops; ++op) {
    switch (rng.NextUint64(4)) {
      case 0: {
        int64_t mul = rng.UniformInt(2, 5);
        ds = ds.Map([mul](const int64_t& x) { return x * mul; });
        for (auto& x : ref) x *= mul;
        break;
      }
      case 1: {
        int64_t mod = rng.UniformInt(2, 7);
        ds = ds.Filter([mod](const int64_t& x) { return x % mod == 0; });
        std::vector<int64_t> kept;
        for (auto x : ref) {
          if (x % mod == 0) kept.push_back(x);
        }
        ref = kept;
        break;
      }
      case 2: {
        ds = ds.FlatMap([](const int64_t& x) {
          return std::vector<int64_t>{x, -x};
        });
        std::vector<int64_t> expanded;
        for (auto x : ref) {
          expanded.push_back(x);
          expanded.push_back(-x);
        }
        ref = expanded;
        break;
      }
      default: {
        ds = ds.Repartition(1 + rng.NextUint64(8));
        break;  // reference unchanged (element-preserving)
      }
    }
  }
  auto result = ds.Collect();
  std::sort(result.begin(), result.end());
  std::sort(ref.begin(), ref.end());
  EXPECT_EQ(result, ref);

  // Aggregations agree with the reference too.
  int64_t ds_sum = ds.Reduce([](int64_t a, int64_t b) { return a + b; },
                             static_cast<int64_t>(0));
  int64_t ref_sum = 0;
  for (auto x : ref) ref_sum += x;
  EXPECT_EQ(ds_sum, ref_sum);
  EXPECT_EQ(ds.Count(), ref.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, DataflowPipelineProperty,
                         ::testing::Values(101, 202, 303, 404, 505, 606, 707,
                                           808));

// --- stats: ECDF is a valid distribution function ------------------------------

class EcdfProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EcdfProperty, MonotoneRightContinuousWithValidRange) {
  Rng rng(GetParam());
  std::vector<double> samples;
  size_t n = 1 + rng.NextUint64(2000);
  for (size_t i = 0; i < n; ++i) {
    samples.push_back(rng.LogNormal(0, 2) * (rng.Bernoulli(0.5) ? 1 : -1));
  }
  stats::Ecdf f(samples);
  double prev = -1;
  for (double x = -100; x <= 100; x += 2.5) {
    double p = f(x);
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
    EXPECT_GE(p, prev);  // monotone non-decreasing
    prev = p;
  }
  // Quantile/CDF near-inverse: F(Q(q)) >= q.
  for (double q : {0.1, 0.25, 0.5, 0.75, 0.9, 1.0}) {
    EXPECT_GE(f(f.Quantile(q)) + 1e-12, q);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EcdfProperty, ::testing::Values(9, 19, 29, 39));

}  // namespace
}  // namespace cfnet
