// Property-based tests: randomized inputs checked against invariants or a
// trivially-correct reference implementation.

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/columnar_records.h"
#include "core/records.h"
#include "crawler/checkpoint.h"
#include "dataflow/dataset.h"
#include "dfs/columnar.h"
#include "dfs/commit.h"
#include "dfs/dfs.h"
#include "dfs/jsonl.h"
#include "json/json.h"
#include "stats/stats.h"
#include "util/crc32.h"
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

/// `bytes` with the varint at `at` replaced by one no decoder may accept:
/// ten bytes whose last one overflows 64 bits, or an 11-byte run of 0xFF.
std::string OverflowVarintAt(Rng& rng, const std::string& bytes, size_t at) {
  size_t end = at;
  while (end < bytes.size() && (static_cast<uint8_t>(bytes[end]) & 0x80)) {
    ++end;
  }
  end = std::min(end + 1, bytes.size());
  std::string overflow;
  if (rng.Bernoulli(0.5)) {
    for (int i = 0; i < 9; ++i) {
      overflow.push_back(static_cast<char>(0x80 | rng.NextUint64(0x80)));
    }
    overflow.push_back(static_cast<char>(2 + rng.NextUint64(0x7e)));
  } else {
    overflow.assign(11, '\xff');
  }
  std::string out = bytes;
  out.replace(at, end - at, overflow);
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

/// A checkpoint step whose contents vary with `rng`: one BFS round's worth
/// of new ids, one company and one segment, sometimes retiring an earlier
/// segment (`live` tracks the segments added and not yet retired, sorted).
crawler::CheckpointStep RandomStep(Rng& rng, int64_t round,
                                   std::vector<std::string>* live) {
  crawler::CheckpointStep st;
  st.phase = rng.Bernoulli(0.5) ? "bfs" : "crunchbase";
  st.phase_cursor = static_cast<int64_t>(rng.NextUint64(5000));
  st.bfs_round = round;
  uint64_t id = rng.NextUint64(1000000);
  for (uint64_t n = rng.NextUint64(60); n > 0; --n) {
    id += 1 + rng.NextUint64(50);
    st.seen_users.push_back(id);
  }
  st.user_frontier = st.seen_users;
  st.company_frontier = {rng.NextUint64(1000000)};
  st.seen_companies = st.company_frontier;
  crawler::CrawledCompany company;
  company.id = st.company_frontier[0];
  company.name = RandomRecordLine(rng);  // quotes and escapes in a string
  st.companies.push_back(company);
  st.twitter_tokens = {"tok-" + std::to_string(rng.NextUint64(9))};
  st.facebook_token = "fb-" + std::to_string(round);
  st.worker_clocks = {static_cast<int64_t>(rng.NextUint64(1 << 30))};
  st.report.companies_crawled = round;
  st.report.fetch.requests = static_cast<int64_t>(rng.NextUint64(1 << 20));
  st.report.checkpoint_writes = round;
  if (!live->empty() && rng.Bernoulli(0.3)) {
    const size_t k = rng.NextUint64(live->size());
    st.retired_segments = {(*live)[k]};
    live->erase(live->begin() + static_cast<std::ptrdiff_t>(k));
  }
  st.snapshot_segments = {dfs::SegmentPath(
      "/crawl/users/part-" + std::to_string(rng.NextUint64(4)) + "-",
      static_cast<uint64_t>(round))};
  live->insert(std::upper_bound(live->begin(), live->end(),
                                st.snapshot_segments[0]),
               st.snapshot_segments[0]);
  return st;
}

/// The state after `steps[0..last]`, folded the obvious way: the small
/// fields from the last step, everything added concatenated, segments as a
/// set. How the store laid the steps out as bases and deltas must not
/// matter.
crawler::CheckpointStep ReferenceFold(
    const std::vector<crawler::CheckpointStep>& steps, size_t last) {
  crawler::CheckpointStep state;
  std::set<std::string> segments;
  for (size_t i = 0; i <= last; ++i) {
    const crawler::CheckpointStep& s = steps[i];
    state.seq = s.seq;
    state.phase = s.phase;
    state.phase_cursor = s.phase_cursor;
    state.bfs_round = s.bfs_round;
    state.company_frontier = s.company_frontier;
    state.user_frontier = s.user_frontier;
    state.twitter_tokens = s.twitter_tokens;
    state.facebook_token = s.facebook_token;
    state.worker_clocks = s.worker_clocks;
    state.report = s.report;
    for (uint64_t v : s.seen_companies) state.seen_companies.push_back(v);
    for (uint64_t v : s.seen_users) state.seen_users.push_back(v);
    for (const auto& c : s.companies) state.companies.push_back(c);
    segments.insert(s.snapshot_segments.begin(), s.snapshot_segments.end());
    for (const std::string& r : s.retired_segments) segments.erase(r);
  }
  state.snapshot_segments.assign(segments.begin(), segments.end());
  return state;
}

/// Saves a run of random steps (some written as bases, some as deltas, old
/// chains pruned) and returns them as stamped by Save, which must have
/// diffed each step's segments out of the whole list it was handed.
std::vector<crawler::CheckpointStep> SaveRandomSteps(
    Rng& rng, crawler::CheckpointStore& store) {
  std::vector<crawler::CheckpointStep> saved;
  std::vector<std::string> live;
  for (int64_t round = 1; round <= 7; ++round) {
    crawler::CheckpointStep step = RandomStep(rng, round, &live);
    const std::vector<std::string> added = step.snapshot_segments;
    const std::vector<std::string> retired = step.retired_segments;
    // The crawler hands each step the bytes committed so far.
    if (!saved.empty()) {
      step.report.checkpoint_bytes = saved.back().report.checkpoint_bytes;
    }
    EXPECT_TRUE(store.Save(&step, live).ok());
    EXPECT_EQ(step.snapshot_segments, added);
    EXPECT_EQ(step.retired_segments, retired);
    saved.push_back(std::move(step));
  }
  return saved;
}

// Committed checkpoint files, each overwritten with hostile bytes half the
// time: LoadLatestValid returns the newest checkpoint whose whole chain
// (the step, its parent, ... its base) is unaltered, folded to exactly the
// reference state, or NotFound; so does a fresh store, whose startup sweep
// quarantines the damaged files.
TEST_P(CommittedFileProperty, HostileCheckpointBytesFallBackToNewestIntact) {
  Rng rng(GetParam() ^ 0xC4EC);
  for (int trial = 0; trial < 40; ++trial) {
    dfs::MiniDfs fs;
    crawler::CheckpointStore store(&fs, "/ckpt", /*keep=*/2);
    const std::vector<crawler::CheckpointStep> saved =
        SaveRandomSteps(rng, store);
    std::map<int64_t, size_t> index;  // seq -> position in `saved`
    for (size_t i = 0; i < saved.size(); ++i) index[saved[i].seq] = i;
    std::map<int64_t, std::string> path_of;
    for (const std::string& path : store.ListFiles()) {
      auto step = crawler::DecodeStep(*dfs::ReadCommitted(fs, path));
      ASSERT_TRUE(step.ok()) << step.status();
      path_of[step->seq] = path;
    }
    std::set<int64_t> intact;
    for (const auto& [seq, path] : path_of) {
      const std::string committed = *fs.ReadFile(path);
      const std::string bytes =
          rng.Bernoulli(0.5) ? Mutate(rng, committed, RandomRecordLine(rng))
                             : committed;
      ASSERT_TRUE(fs.WriteFile(path, bytes).ok());
      if (bytes == committed) intact.insert(seq);
    }
    auto chain_intact = [&](int64_t seq) {
      for (; seq != 0; seq = saved[index.at(seq)].parent_seq) {
        if (intact.count(seq) == 0) return false;
      }
      return true;
    };
    const crawler::CheckpointStep* want = nullptr;
    crawler::CheckpointStep reference;
    for (auto it = path_of.rbegin(); it != path_of.rend(); ++it) {
      if (chain_intact(it->first)) {
        reference = ReferenceFold(saved, index.at(it->first));
        want = &reference;
        break;
      }
    }
    auto expect_newest_intact = [&](crawler::CheckpointStore& from) {
      auto loaded = from.LoadLatestValid();
      if (want == nullptr) {
        EXPECT_TRUE(loaded.status().IsNotFound()) << loaded.status();
        return;
      }
      ASSERT_TRUE(loaded.ok()) << loaded.status();
      EXPECT_EQ(*loaded, *want);
    };
    expect_newest_intact(store);
    crawler::CheckpointStore restarted(&fs, "/ckpt", /*keep=*/2);
    expect_newest_intact(restarted);
  }
}

/// `payload` with `committed`'s footer: a mutated payload framed raw, so
/// only the footer can object.
std::string WithOldFooter(const std::string& payload,
                          const std::string& committed) {
  return payload + committed.substr(committed.size() - dfs::kCommitFooterSize);
}

/// Offsets of the first length varints of a checkpoint step (EncodeStep's
/// layout): the phase name's length, then the counts of the company
/// frontier, the user frontier and the Twitter tokens.
std::vector<size_t> StepLengthOffsets(const std::string& payload) {
  std::vector<size_t> at;
  dfs::ByteReader r(payload);
  auto here = [&] { return payload.size() - r.remaining(); };
  std::string_view raw;
  uint64_t v = 0;
  // The 8-byte magic, then the version, seq and parent varints.
  if (!r.ReadRaw(8, &raw) || !r.ReadUVarint(&v) || !r.ReadUVarint(&v) ||
      !r.ReadUVarint(&v)) {
    return at;
  }
  at.push_back(here());
  // The phase name, then the phase cursor and BFS round.
  if (!r.ReadUVarint(&v) || !r.ReadRaw(v, &raw) || !r.ReadUVarint(&v) ||
      !r.ReadUVarint(&v)) {
    return at;
  }
  for (int frontier = 0; frontier < 2; ++frontier) {
    at.push_back(here());
    uint64_t n = 0;
    if (!r.ReadUVarint(&n)) return at;
    for (; n > 0; --n) {
      if (!r.ReadUVarint(&v)) return at;
    }
  }
  at.push_back(here());
  return at;
}

// Each mutation of a checkpoint step's payload applied two ways. Raw, under
// the step's old footer, ReadCommitted fails Corruption. Re-framed, under a
// recomputed footer, the step decoder sees the hostile bytes itself:
// DecodeStep and LoadLatestValid (of this store and of a restarted one)
// each return a Status, and none crashes. One mutation in four overwrites
// a length varint with an overflowing one, which DecodeStep must reject.
TEST_P(CommittedFileProperty, ReframedCheckpointBytesYieldAStatus) {
  Rng rng(GetParam() ^ 0x5EF7);
  for (int trial = 0; trial < 40; ++trial) {
    dfs::MiniDfs fs;
    crawler::CheckpointStore store(&fs, "/ckpt", /*keep=*/2);
    SaveRandomSteps(rng, store);
    const std::vector<std::string> files = store.ListFiles();
    const std::string other = *dfs::ReadCommitted(fs, files.front());
    for (const std::string& path : files) {
      if (rng.Bernoulli(0.5)) continue;
      const std::string committed = *fs.ReadFile(path);
      const std::string payload = *dfs::ReadCommitted(fs, path);
      const std::vector<size_t> lengths = StepLengthOffsets(payload);
      const bool overflow = rng.NextUint64(4) == 0;
      const std::string hostile =
          overflow ? OverflowVarintAt(
                         rng, payload, lengths[rng.NextUint64(lengths.size())])
                   : Mutate(rng, payload, other);
      if (hostile != payload) {
        ASSERT_TRUE(fs.WriteFile(path, WithOldFooter(hostile, committed)).ok());
        EXPECT_EQ(dfs::ReadCommitted(fs, path).status().code(),
                  StatusCode::kCorruption);
      }
      const Status decoded = crawler::DecodeStep(hostile).status();
      EXPECT_TRUE(overflow ? decoded.code() == StatusCode::kCorruption
                           : OkOrCorruption(decoded))
          << decoded;
      ASSERT_TRUE(dfs::CommitFile(&fs, path, hostile).ok());
    }
    auto loaded = store.LoadLatestValid();
    EXPECT_TRUE(loaded.ok() || loaded.status().IsNotFound())
        << loaded.status();
    crawler::CheckpointStore restarted(&fs, "/ckpt", /*keep=*/2);
    loaded = restarted.LoadLatestValid();
    EXPECT_TRUE(loaded.ok() || loaded.status().IsNotFound())
        << loaded.status();
  }
}

/// A committed columnar file of random user records, in blocks of 1-8
/// rows; returns its payload (the file minus the commit footer).
std::string WriteRandomColumnar(Rng& rng, dfs::MiniDfs* fs,
                                const std::string& path) {
  dfs::ColumnarWriteOptions options;
  options.block_rows = 1 + rng.NextUint64(8);
  options.source_fingerprint = static_cast<uint32_t>(rng.NextUint64(1u << 31));
  dfs::ColumnarWriter<core::UserRecord> writer(fs, path, options);
  uint64_t id = rng.NextUint64(1000);
  for (uint64_t n = 1 + rng.NextUint64(30); n > 0; --n) {
    core::UserRecord r;
    id += 1 + rng.NextUint64(100);
    r.id = id;
    r.is_investor = rng.Bernoulli(0.3);
    r.is_founder = rng.Bernoulli(0.2);
    for (uint64_t k = rng.NextUint64(4); k > 0; --k) {
      r.investment_company_ids.push_back(rng.NextUint64(100000));
    }
    r.following_startup_count = static_cast<int64_t>(rng.NextUint64(50));
    r.following_user_count = static_cast<int64_t>(rng.NextUint64(50)) - 10;
    writer.Add(std::move(r));
  }
  EXPECT_TRUE(writer.Finish().ok());
  return *dfs::ReadCommitted(*fs, path);
}

/// Recomputes the CRC of every block frame that still walks in `payload`,
/// so only the column decoders can object to the bytes inside them.
void ReframeBlocks(std::string* payload) {
  dfs::ByteReader r(*payload);
  dfs::ColumnarHeader header;
  if (!dfs::ParseColumnarHeader(r, "reframe", &header).ok()) return;
  std::vector<dfs::RawBlock> blocks;
  dfs::WalkBlocks(r, "reframe", &blocks).ok();  // keeps what walked
  for (const dfs::RawBlock& b : blocks) {
    const size_t at = static_cast<size_t>(b.crc_region.data() -
                                          payload->data()) +
                      b.crc_region.size();
    std::string crc;
    dfs::AppendU32LE(crc, Crc32(b.crc_region));
    payload->replace(at, 4, crc);
  }
}

/// Offsets of a columnar payload's frame length varints: the header's type
/// name length, and each block's row count and payload length.
std::vector<size_t> ColumnarLengthOffsets(const std::string& payload) {
  std::vector<size_t> at = {dfs::kColumnarMagic.size()};
  dfs::ByteReader r(payload);
  dfs::ColumnarHeader header;
  std::vector<dfs::RawBlock> blocks;
  if (!dfs::ParseColumnarHeader(r, "lengths", &header).ok() ||
      !dfs::WalkBlocks(r, "lengths", &blocks).ok()) {
    return at;
  }
  for (const dfs::RawBlock& b : blocks) {
    const size_t rows_at =
        static_cast<size_t>(b.crc_region.data() - payload.data());
    dfs::ByteReader frame(b.crc_region);
    uint64_t rows = 0;
    frame.ReadUVarint(&rows);
    at.push_back(rows_at);
    at.push_back(rows_at + b.crc_region.size() - frame.remaining());
  }
  return at;
}

// Each mutation of a committed columnar file's payload applied two ways.
// Raw, under the file's old footer, every reader fails Corruption (a
// salvage scan may still recover blocks). Re-framed, with every block CRC
// that still walks and the footer recomputed, the frame walk and column
// decoders see the hostile bytes: strict and salvage scans,
// InspectColumnarFile and ReadColumnarFingerprint each return a Status, and
// a strict scan that succeeds agrees with InspectColumnarFile on the row
// count. One mutation in four overwrites a frame length varint with an
// overflowing one, which the strict scan must reject.
TEST_P(CommittedFileProperty, HostileColumnarBytesYieldAStatus) {
  Rng rng(GetParam() ^ 0xCFC0);
  const std::string path = "/snap/users/part-all.cfc";
  dfs::ScanOptions salvage;
  salvage.salvage = true;
  for (int trial = 0; trial < 150; ++trial) {
    dfs::MiniDfs fs;
    const std::string other = WriteRandomColumnar(rng, &fs, "/other.cfc");
    const std::string payload = WriteRandomColumnar(rng, &fs, path);
    const std::string committed = *fs.ReadFile(path);
    const std::vector<size_t> lengths = ColumnarLengthOffsets(payload);
    const bool overflow = rng.NextUint64(4) == 0;
    std::string hostile =
        overflow ? OverflowVarintAt(rng, payload,
                                    lengths[rng.NextUint64(lengths.size())])
                 : Mutate(rng, payload, other);

    if (hostile != payload) {
      ASSERT_TRUE(fs.WriteFile(path, WithOldFooter(hostile, committed)).ok());
      EXPECT_EQ(dfs::ScanColumnBlocks<core::UserRecord>(fs, {path})
                    .status()
                    .code(),
                StatusCode::kCorruption);
      EXPECT_EQ(dfs::InspectColumnarFile(&fs, path).status().code(),
                StatusCode::kCorruption);
      EXPECT_EQ(dfs::ReadColumnarFingerprint(fs, path).status().code(),
                StatusCode::kCorruption);
      EXPECT_TRUE(OkOrCorruption(
          dfs::ScanColumnBlocks<core::UserRecord>(fs, {path}, salvage)
              .status()));
    }

    ReframeBlocks(&hostile);
    ASSERT_TRUE(dfs::CommitFile(&fs, path, hostile).ok());
    auto strict = dfs::ScanColumnBlocks<core::UserRecord>(fs, {path});
    EXPECT_TRUE(overflow ? strict.status().code() == StatusCode::kCorruption
                         : OkOrCorruption(strict.status()))
        << strict.status();
    auto info = dfs::InspectColumnarFile(&fs, path);
    EXPECT_TRUE(OkOrCorruption(info.status())) << info.status();
    if (strict.ok() && info.ok()) {
      size_t rows = 0;
      for (const auto& part : *strict) rows += part.size();
      EXPECT_EQ(rows, info->rows);
    }
    EXPECT_TRUE(OkOrCorruption(
        dfs::ScanColumnBlocks<core::UserRecord>(fs, {path}, salvage)
            .status()));
    EXPECT_TRUE(
        OkOrCorruption(dfs::ReadColumnarFingerprint(fs, path).status()));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CommittedFileProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

// --- MiniDFS: random op sequences against a map reference ---------------------

class DfsModelProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DfsModelProperty, MatchesReferenceModel) {
  Rng rng(GetParam());
  dfs::MiniDfs fs;
  std::map<std::string, std::string> reference;

  auto random_path = [&]() {
    return "/p/f" + std::to_string(rng.NextUint64(8));
  };
  auto random_data = [&]() {
    return std::string(rng.NextUint64(200),
                       static_cast<char>('a' + rng.NextUint64(26)));
  };

  for (int step = 0; step < 400; ++step) {
    switch (rng.NextUint64(4)) {
      case 0: {  // write
        std::string p = random_path();
        std::string d = random_data();
        ASSERT_TRUE(fs.WriteFile(p, d).ok());
        reference[p] = d;
        break;
      }
      case 1: {  // delete
        std::string p = random_path();
        Status s = fs.Delete(p);
        EXPECT_EQ(s.ok(), reference.erase(p) > 0);
        break;
      }
      case 2: {  // rename, the commit protocol's atomic step
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
  // Final full verification: the same files, listed in sorted order.
  std::vector<std::string> paths;
  for (const auto& [p, d] : reference) {
    auto content = fs.ReadFile(p);
    ASSERT_TRUE(content.ok()) << p;
    EXPECT_EQ(*content, d);
    paths.push_back(p);
  }
  EXPECT_EQ(fs.List("/p/"), paths);
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
        ds = ds.Union(dataflow::Dataset<int64_t>::FromVector(
            ctx, {}, 1 + rng.NextUint64(8)));
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
