// Chaos-hardened durable storage tests: the scripted storage-fault injector
// (torn writes, silent fsync loss, ENOSPC, bit flips, short reads), the
// atomic write-temp/verify/rename commit protocol with its recovery sweeps,
// and the acceptance scenario — a randomized kill-anywhere sweep where the
// storage layer dies at a seeded mutation op mid-crawl and a fresh
// incarnation must recover to byte-identical snapshots with exactly-once
// records, across many seeds (CFNET_CHAOS_SEEDS overrides the count) — plus
// second-kill sweeps that kill the resumed incarnation too, and kill sweeps
// over every mutation op of a dead-letter replay and of a columnar
// recompaction.

#include <algorithm>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/columnar_records.h"
#include "crawler/crawler.h"
#include "dfs/columnar.h"
#include "dfs/commit.h"
#include "dfs/dfs.h"
#include "dfs/fault_fs.h"
#include "dfs/jsonl.h"
#include "net/fault_plan.h"
#include "net/social_web.h"
#include "synth/world.h"
#include "util/crc32.h"
#include "util/rng.h"

namespace cfnet::dfs {
namespace {

IoFaultWindow Always() { return IoFaultWindow{1, 0, 1.0}; }
IoFaultWindow OpOnly(uint64_t op) { return IoFaultWindow{op, op + 1, 1.0}; }

TEST(IoFaultInjectorTest, DecisionsAreDeterministicPerSeed) {
  IoFaultPlan plan;
  plan.torn_writes = {{1, 0, 0.3}};
  plan.enospc = {{1, 0, 0.1}};
  plan.short_reads = {{1, 0, 0.25}};
  plan.seed = 77;

  IoFaultInjector a(plan);
  IoFaultInjector b(plan);
  int faults_seen = 0;
  for (uint64_t op = 1; op <= 300; ++op) {
    WriteFaultDecision wa = a.EvaluateWrite(op);
    WriteFaultDecision wb = b.EvaluateWrite(op);
    EXPECT_EQ(wa.enospc, wb.enospc) << "op " << op;
    EXPECT_EQ(wa.torn, wb.torn) << "op " << op;
    EXPECT_EQ(wa.fraction, wb.fraction) << "op " << op;
    ReadFaultDecision ra = a.EvaluateRead(op);
    ReadFaultDecision rb = b.EvaluateRead(op);
    EXPECT_EQ(ra.short_read, rb.short_read) << "op " << op;
    EXPECT_EQ(ra.fraction, rb.fraction) << "op " << op;
    faults_seen += (wa.enospc || wa.torn) ? 1 : 0;
  }
  // Fractional rates actually fire (roughly 40% of 300 write ops).
  EXPECT_GT(faults_seen, 50);
  EXPECT_LT(faults_seen, 250);
}

TEST(IoFaultInjectorTest, WindowsBoundWhenFaultsFire) {
  IoFaultPlan plan;
  plan.enospc = {{10, 20, 1.0}};  // ops 10..19 only
  IoFaultInjector inj(plan);
  for (uint64_t op = 1; op < 30; ++op) {
    EXPECT_EQ(inj.EvaluateWrite(op).enospc, op >= 10 && op < 20) << op;
  }
}

TEST(MiniDfsFaultTest, EnospcFailsWithoutPersisting) {
  MiniDfs dfs;
  IoFaultPlan plan;
  plan.enospc = {OpOnly(1)};
  dfs.InstallFaultPlan(plan);
  Status s = dfs.WriteFile("/f", "hello");
  EXPECT_TRUE(s.IsResourceExhausted()) << s;
  EXPECT_FALSE(dfs.Exists("/f"));
  // Next op is outside the window.
  ASSERT_TRUE(dfs.WriteFile("/f", "hello").ok());
  EXPECT_EQ(*dfs.ReadFile("/f"), "hello");
  EXPECT_EQ(dfs.GetStats().storage_faults_injected, 1u);
}

TEST(MiniDfsFaultTest, TornWritePersistsStrictPrefix) {
  MiniDfs dfs;
  IoFaultPlan plan;
  plan.torn_writes = {OpOnly(1)};
  dfs.InstallFaultPlan(plan);
  const std::string data(1000, 'x');
  Status s = dfs.WriteFile("/f", data);
  EXPECT_EQ(s.code(), StatusCode::kIOError) << s;
  ASSERT_TRUE(dfs.Exists("/f"));
  EXPECT_LT(*dfs.FileSize("/f"), data.size());  // at least one byte lost
}

TEST(MiniDfsFaultTest, SilentLossReportsOkButDropsBytes) {
  MiniDfs dfs;
  IoFaultPlan plan;
  plan.silent_loss = {OpOnly(1)};
  dfs.InstallFaultPlan(plan);
  const std::string data(1000, 'x');
  // The write lies: OK, yet the file is short. Only read-back verification
  // (the commit protocol's job) can catch this.
  ASSERT_TRUE(dfs.WriteFile("/f", data).ok());
  EXPECT_LT(*dfs.FileSize("/f"), data.size());
}

// The write reports success and stores the flipped byte, which a read
// returns: only a commit footer can tell these bytes from the payload.
TEST(MiniDfsFaultTest, WriteBitFlipStoresFlippedBytesSilently) {
  MiniDfs dfs;
  IoFaultPlan plan;
  plan.write_bit_flips = {OpOnly(1)};
  dfs.InstallFaultPlan(plan);
  const std::string data(256, 'a');
  ASSERT_TRUE(dfs.WriteFile("/f", data).ok());
  auto back = dfs.ReadFile("/f");
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->size(), data.size());
  EXPECT_NE(*back, data);  // one byte flipped
}

TEST(MiniDfsFaultTest, ReadFaultsAreTransient) {
  MiniDfs dfs;
  ASSERT_TRUE(dfs.WriteFile("/f", std::string(500, 'z')).ok());
  IoFaultPlan plan;
  plan.short_reads = {OpOnly(1)};
  plan.read_bit_flips = {OpOnly(2)};
  dfs.InstallFaultPlan(plan);
  auto first = dfs.ReadFile("/f");   // read op 1: short
  ASSERT_TRUE(first.ok());
  EXPECT_LT(first->size(), 500u);
  auto second = dfs.ReadFile("/f");  // read op 2: flipped in flight
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->size(), 500u);
  EXPECT_NE(*second, std::string(500, 'z'));
  auto third = dfs.ReadFile("/f");   // read op 3: clean again
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(*third, std::string(500, 'z'));
}

TEST(MiniDfsKillTest, KillMidWriteHaltsEverythingUntilDisarm) {
  MiniDfs dfs;
  ASSERT_TRUE(dfs.WriteFile("/stable", "committed long ago").ok());  // op 1
  dfs.ArmKill(/*kill_at_op=*/2, /*seed=*/123);
  const std::string doomed(4096, 'd');
  Status died = dfs.WriteFile("/doomed", doomed);  // op 2: the kill
  EXPECT_TRUE(died.IsUnavailable()) << died;
  EXPECT_TRUE(dfs.killed());
  // Everything after the kill fails, like talking to a dead process.
  EXPECT_TRUE(dfs.ReadFile("/stable").status().IsUnavailable());
  EXPECT_TRUE(dfs.WriteFile("/other", "x").IsUnavailable());
  EXPECT_TRUE(dfs.Delete("/stable").IsUnavailable());
  EXPECT_TRUE(dfs.Rename("/stable", "/moved").IsUnavailable());

  // Restart: the disk survives as the dying writer left it — /stable whole,
  // /doomed an arbitrary strict prefix.
  dfs.DisarmKill();
  EXPECT_FALSE(dfs.killed());
  EXPECT_EQ(*dfs.ReadFile("/stable"), "committed long ago");
  if (dfs.Exists("/doomed")) {
    EXPECT_LT(*dfs.FileSize("/doomed"), doomed.size());
  }
}

TEST(MiniDfsRenameTest, RenameIsAnAtomicNamespaceMove) {
  MiniDfs dfs;
  ASSERT_TRUE(dfs.WriteFile("/a", "alpha").ok());
  ASSERT_TRUE(dfs.WriteFile("/b", "beta-old-content-to-replace").ok());

  ASSERT_TRUE(dfs.Rename("/a", "/c").ok());
  EXPECT_FALSE(dfs.Exists("/a"));
  EXPECT_EQ(*dfs.ReadFile("/c"), "alpha");

  // Replacing an existing target drops the old file.
  const uint64_t files_before = dfs.GetStats().num_files;
  ASSERT_TRUE(dfs.Rename("/c", "/b").ok());
  EXPECT_EQ(*dfs.ReadFile("/b"), "alpha");
  EXPECT_EQ(dfs.GetStats().num_files, files_before - 1);

  EXPECT_TRUE(dfs.Rename("/nope", "/x").IsNotFound());
  ASSERT_TRUE(dfs.Rename("/b", "/b").ok());  // self-rename is a no-op
  EXPECT_EQ(*dfs.ReadFile("/b"), "alpha");
}

TEST(CommitProtocolTest, CommitWritesVerifiedFooterAndLeavesNoTemp) {
  MiniDfs dfs;
  const std::string payload = "{\"id\":1}\n{\"id\":2}\n";
  ASSERT_TRUE(CommitFile(&dfs, "/snap/part-0.jsonl", payload).ok());

  auto raw = dfs.ReadFile("/snap/part-0.jsonl");
  ASSERT_TRUE(raw.ok());
  EXPECT_EQ(raw->size(), payload.size() + kCommitFooterSize);
  uint64_t len = 0;
  EXPECT_EQ(InspectFooter(*raw, &len), FooterState::kValid);
  EXPECT_EQ(len, payload.size());

  auto committed = ReadCommitted(dfs, "/snap/part-0.jsonl");
  ASSERT_TRUE(committed.ok());
  EXPECT_EQ(*committed, payload);
  EXPECT_EQ(dfs.List("/snap/").size(), 1u);  // no .tmp residue
}

TEST(CommitProtocolTest, CommitRetriesThroughScriptedFaults) {
  MiniDfs dfs;
  IoFaultPlan plan;
  plan.enospc = {OpOnly(1)};
  plan.torn_writes = {OpOnly(2)};
  plan.silent_loss = {OpOnly(3)};  // only read-back verify can catch this one
  dfs.InstallFaultPlan(plan);
  ASSERT_TRUE(CommitFile(&dfs, "/f", "precious payload").ok());
  EXPECT_EQ(*ReadCommitted(dfs, "/f"), "precious payload");
  EXPECT_EQ(dfs.GetStats().storage_faults_injected, 3u);
}

TEST(CommitProtocolTest, FailedCommitPreservesOldContent) {
  MiniDfs dfs;
  ASSERT_TRUE(CommitFile(&dfs, "/f", "version 1").ok());
  IoFaultPlan plan;
  plan.torn_writes = {Always()};
  dfs.InstallFaultPlan(plan);
  EXPECT_FALSE(CommitFile(&dfs, "/f", "version 2").ok());
  dfs.InstallFaultPlan(IoFaultPlan{});
  // The old committed content is untouched and still verifies.
  EXPECT_EQ(*ReadCommitted(dfs, "/f"), "version 1");
}

TEST(CommitProtocolTest, MissingFooterIsDamageAfterRetries) {
  MiniDfs dfs;
  ASSERT_TRUE(dfs.WriteFile("/log", "old line\n").ok());  // no footer
  const uint64_t reads_before = dfs.GetStats().read_ops;
  std::string damaged;
  auto read = ReadCommitted(dfs, "/log", &damaged);
  EXPECT_EQ(read.status().code(), StatusCode::kCorruption);
  EXPECT_EQ(dfs.GetStats().read_ops - reads_before,
            static_cast<uint64_t>(kCommitAttempts));
  EXPECT_EQ(damaged, "old line\n");  // handed over for salvage decoding
}

TEST(SweepDirTest, RemovesOrphanedTempsAndQuarantinesBadFooters) {
  MiniDfs dfs;
  ASSERT_TRUE(CommitFile(&dfs, "/data/good.jsonl", "{\"id\":1}\n").ok());
  ASSERT_TRUE(dfs.WriteFile("/data/orphan.jsonl.tmp", "half a commi").ok());
  // A file whose footer never landed.
  ASSERT_TRUE(dfs.WriteFile("/data/footerless.jsonl", "{\"id\":2}\n").ok());
  // A committed file whose payload rotted after the fact: flip one byte.
  ASSERT_TRUE(CommitFile(&dfs, "/data/rotten.jsonl", "{\"id\":3}\n").ok());
  std::string rotten = *dfs.ReadFile("/data/rotten.jsonl");
  rotten[2] ^= 0x10;
  ASSERT_TRUE(dfs.WriteFile("/data/rotten.jsonl", rotten).ok());

  RecoveryReport report = SweepDir(&dfs, "/data/");
  EXPECT_EQ(report.temp_files_removed, 1u);
  EXPECT_EQ(report.files_quarantined, 2u);
  EXPECT_EQ(report.quarantined_paths,
            (std::vector<std::string>{"/.quarantine/data/footerless.jsonl",
                                      "/.quarantine/data/rotten.jsonl"}));

  // The good file survives in place; the damaged bytes are preserved under
  // quarantine for inspection, not destroyed.
  std::vector<std::string> left = dfs.List("/data/");
  EXPECT_EQ(left, (std::vector<std::string>{"/data/good.jsonl"}));
  EXPECT_TRUE(dfs.Exists("/.quarantine/data/footerless.jsonl"));
  EXPECT_TRUE(dfs.Exists("/.quarantine/data/rotten.jsonl"));
  // Idempotent: a second sweep finds nothing.
  EXPECT_TRUE(SweepDir(&dfs, "/data/").clean());
}

TEST(DurableWriterTest, FlushCommitsWithFooterAndSurvivesFaultBursts) {
  MiniDfs dfs;
  IoFaultPlan plan;  // every third write op hiccups
  plan.torn_writes = {{2, 3, 1.0}, {5, 6, 1.0}};
  plan.silent_loss = {{8, 9, 1.0}};
  dfs.InstallFaultPlan(plan);
  {
    JsonLinesWriter writer(&dfs, "/snap/part-0-", /*flush_bytes=*/16);
    for (int i = 0; i < 10; ++i) {
      json::Json r = json::Json::MakeObject();
      r.Set("id", i);
      ASSERT_TRUE(writer.Write(r).ok());
    }
    ASSERT_TRUE(writer.Flush().ok());
  }
  // One segment per flush, none lost or doubled by the retried commits.
  const std::vector<std::string> segments = dfs.List("/snap/");
  ASSERT_EQ(segments.size(), 5u);
  for (const std::string& path : segments) {
    EXPECT_EQ(InspectFooter(*dfs.ReadFile(path), nullptr), FooterState::kValid)
        << path;
  }
  auto parts = ScanJsonLines<json::Json>(dfs, segments, json::Parse);
  ASSERT_TRUE(parts.ok()) << parts.status();
  std::vector<int64_t> ids;
  for (const auto& part : *parts) {
    for (const json::Json& r : part) ids.push_back(r.Get("id").AsInt());
  }
  EXPECT_EQ(ids, (std::vector<int64_t>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
}

// Transient read faults must never pass for data: a short or flipped read of
// a committed file is re-read, not accepted or quarantined.

/// `count` JSON lines {"id":0} .. {"id":count-1}.
std::string IdLines(int count) {
  std::string lines;
  for (int i = 0; i < count; ++i) {
    lines += "{\"id\":" + std::to_string(i) + "}\n";
  }
  return lines;
}

/// Scripts exactly the next ReadFile of `dfs` to come back short.
void ArmNextShortRead(MiniDfs* dfs, uint64_t seed) {
  IoFaultPlan plan;
  plan.seed = seed;
  plan.short_reads = {OpOnly(dfs->GetStats().read_ops + 1)};
  dfs->InstallFaultPlan(plan);
}

TEST(ReadFaultRegressionTest, SweepDirKeepsShardAfterTransientBitFlip) {
  MiniDfs dfs;
  ASSERT_TRUE(CommitFile(&dfs, "/snap/part-0.jsonl", IdLines(50)).ok());
  IoFaultPlan plan;
  plan.read_bit_flips = {OpOnly(dfs.GetStats().read_ops + 1)};
  dfs.InstallFaultPlan(plan);
  RecoveryReport report = SweepDir(&dfs, "/snap/");
  EXPECT_EQ(dfs.GetStats().storage_faults_injected, 1u);
  EXPECT_EQ(report.files_quarantined, 0u);
  EXPECT_TRUE(report.quarantined_paths.empty());
  EXPECT_EQ(dfs.List("/snap/"),
            (std::vector<std::string>{"/snap/part-0.jsonl"}));
}

TEST(ReadFaultRegressionTest, StrictScanRereadsEveryShortRead) {
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    SCOPED_TRACE("short-read seed " + std::to_string(seed));
    MiniDfs dfs;
    ASSERT_TRUE(CommitFile(&dfs, "/snap/part-0.jsonl", IdLines(50)).ok());
    ArmNextShortRead(&dfs, seed);
    auto parts =
        ScanJsonLines<json::Json>(dfs, {"/snap/part-0.jsonl"}, json::Parse);
    ASSERT_TRUE(parts.ok()) << parts.status();
    EXPECT_EQ(dfs.GetStats().storage_faults_injected, 1u);
    size_t records = 0;
    for (const auto& part : *parts) records += part.size();
    EXPECT_EQ(records, 50u);
  }
}

}  // namespace
}  // namespace cfnet::dfs

namespace cfnet::crawler {
namespace {

struct TestBed {
  std::unique_ptr<synth::World> world;
  std::unique_ptr<net::SocialWeb> web;
  std::unique_ptr<dfs::MiniDfs> dfs;
  std::unique_ptr<Crawler> crawler;
};

net::SocialWebConfig NoRandomErrors() {
  net::ServiceConfig plain;
  plain.transient_error_rate = 0;
  net::ServiceConfig with_token = plain;
  with_token.requires_token = true;
  net::SocialWebConfig wc;
  wc.angellist = plain;
  wc.crunchbase = plain;
  wc.facebook = with_token;
  wc.twitter = with_token;
  return wc;
}

TestBed MakeTestBed(CrawlConfig config) {
  TestBed bed;
  synth::WorldConfig wc;
  wc.scale = 0.002;
  wc.seed = 99;
  bed.world = std::make_unique<synth::World>(synth::World::Generate(wc));
  bed.web = std::make_unique<net::SocialWeb>(bed.world.get(), NoRandomErrors());
  bed.dfs = std::make_unique<dfs::MiniDfs>();
  config.num_workers = 4;
  bed.crawler =
      std::make_unique<Crawler>(bed.web.get(), bed.dfs.get(), config);
  return bed;
}

/// Order-independent content digest of one snapshot directory: CRC-32 over
/// the sorted set of record lines (footers stripped). Byte-identical record
/// sets — regardless of which worker shard a record landed in — digest
/// equal; any lost, duplicated or damaged record changes the digest.
uint32_t DirDigest(const dfs::MiniDfs& d, const std::string& dir) {
  std::vector<std::string> lines;
  for (const std::string& path : d.List(dir)) {
    auto payload = dfs::ReadCommitted(d, path);
    EXPECT_TRUE(payload.ok()) << path << ": " << payload.status();
    if (!payload.ok()) continue;
    dfs::ForEachJsonLine(*payload, [&](std::string_view line, int64_t) {
      lines.emplace_back(line);
      return true;
    });
  }
  std::sort(lines.begin(), lines.end());
  uint32_t crc = 0;
  for (const std::string& line : lines) {
    crc = Crc32Update(crc, line);
    crc = Crc32Update(crc, std::string_view("\n"));
  }
  return crc;
}

std::map<std::string, uint32_t> AllDigests(const dfs::MiniDfs& d,
                                           const Crawler& c) {
  return {{"startups", DirDigest(d, c.StartupSnapshotDir())},
          {"users", DirDigest(d, c.UserSnapshotDir())},
          {"crunchbase", DirDigest(d, c.CrunchBaseSnapshotDir())},
          {"facebook", DirDigest(d, c.FacebookSnapshotDir())},
          {"twitter", DirDigest(d, c.TwitterSnapshotDir())}};
}

/// Asserts no record id appears twice across a directory's shards.
std::set<int64_t> UniqueSnapshotIds(const dfs::MiniDfs& d,
                                    const std::string& dir) {
  std::set<int64_t> ids;
  for (const std::string& path : d.List(dir)) {
    auto records = dfs::ReadJsonLines(d, path);
    EXPECT_TRUE(records.ok()) << path;
    if (!records.ok()) continue;
    for (const json::Json& r : *records) {
      int64_t id = r.Get("id").AsInt();
      EXPECT_TRUE(ids.insert(id).second)
          << "duplicate snapshot record id " << id << " in " << dir;
    }
  }
  return ids;
}

int ChaosSeedCount() {
  if (const char* env = std::getenv("CFNET_CHAOS_SEEDS")) {
    int n = std::atoi(env);
    if (n > 0) return n;
  }
  return 100;
}

// The acceptance sweep: for each seed, arm the kill switch at a random
// mutation op (spanning the whole crawl: first snapshot flush to final
// checkpoint) with background storage faults scripted on top, let the
// crawl die, then restart storage and resume with a fresh crawler. Every
// seed must recover to exactly the uninterrupted run: same record sets
// (exactly-once), byte-identical snapshot content, same analytics counters.
TEST(CrashRecoverySweepTest, KillAnywhereRecoversExactlyOnce) {
  CrawlConfig config;
  config.checkpoint_every_rounds = 2;
  config.checkpoint_chunk = 64;

  // Uninterrupted baseline.
  TestBed clean = MakeTestBed(config);
  ASSERT_TRUE(clean.crawler->Run().ok());
  const CrawlReport& want = clean.crawler->report();
  const uint64_t total_ops = clean.dfs->GetStats().mutation_ops;
  ASSERT_GT(total_ops, 10u);
  const std::map<std::string, uint32_t> want_digests =
      AllDigests(*clean.dfs, *clean.crawler);
  const std::set<int64_t> want_startups =
      UniqueSnapshotIds(*clean.dfs, clean.crawler->StartupSnapshotDir());
  const std::set<int64_t> want_users =
      UniqueSnapshotIds(*clean.dfs, clean.crawler->UserSnapshotDir());

  const int seeds = ChaosSeedCount();
  int64_t total_temps_removed = 0;
  int64_t resumed_from_checkpoint = 0;
  int64_t restarted_from_scratch = 0;
  for (int seed = 0; seed < seeds; ++seed) {
    SCOPED_TRACE("chaos seed " + std::to_string(seed));
    TestBed bed = MakeTestBed(config);

    // Background faults the commit protocol must ride out, plus the kill.
    dfs::IoFaultPlan plan;
    plan.seed = 1000 + static_cast<uint64_t>(seed);
    plan.torn_writes = {{1, 0, 0.02}};
    plan.silent_loss = {{1, 0, 0.02}};
    plan.enospc = {{1, 0, 0.02}};
    plan.write_bit_flips = {{1, 0, 0.01}};
    bed.dfs->InstallFaultPlan(plan);
    const uint64_t kill_at =
        1 + Mix64(0xC0FFEEull ^ static_cast<uint64_t>(seed)) % total_ops;
    bed.dfs->ArmKill(kill_at, /*seed=*/static_cast<uint64_t>(seed) * 7919 + 1);

    Status died = bed.crawler->Run();
    ASSERT_FALSE(died.ok()) << "kill at op " << kill_at << " never surfaced";
    // Usually the kill switch is what felled the run; occasionally the
    // background fault rates exhaust a commit's retries first. Both are
    // crashes the next incarnation must recover from identically.
    bed.crawler.reset();

    // "Restart": storage comes back with the disk exactly as the dying
    // process left it; no scripted faults in the recovery run.
    bed.dfs->DisarmKill();
    bed.dfs->InstallFaultPlan(dfs::IoFaultPlan{});
    bed.crawler =
        std::make_unique<Crawler>(bed.web.get(), bed.dfs.get(), config);
    Status recovered = bed.crawler->Resume();
    ASSERT_TRUE(recovered.ok()) << recovered;

    const CrawlReport& got = bed.crawler->report();
    EXPECT_EQ(got.companies_crawled, want.companies_crawled);
    EXPECT_EQ(got.users_crawled, want.users_crawled);
    EXPECT_EQ(got.crunchbase_profiles, want.crunchbase_profiles);
    EXPECT_EQ(got.facebook_profiles, want.facebook_profiles);
    EXPECT_EQ(got.twitter_profiles, want.twitter_profiles);
    total_temps_removed += got.storage_temps_removed;
    resumed_from_checkpoint += got.checkpoint_restores > 0 ? 1 : 0;
    restarted_from_scratch += got.checkpoint_restores > 0 ? 0 : 1;

    // Exactly-once: same id sets, and byte-identical snapshot content.
    EXPECT_EQ(UniqueSnapshotIds(*bed.dfs, bed.crawler->StartupSnapshotDir()),
              want_startups);
    EXPECT_EQ(UniqueSnapshotIds(*bed.dfs, bed.crawler->UserSnapshotDir()),
              want_users);
    EXPECT_EQ(AllDigests(*bed.dfs, *bed.crawler), want_digests);
  }
  // The sweep must actually exercise both recovery paths: kills landing
  // before the first checkpoint restart from scratch, later ones resume.
  if (seeds >= 20) {
    EXPECT_GT(resumed_from_checkpoint, 0);
    EXPECT_GT(restarted_from_scratch, 0);
    // And kills tear commits often enough that the sweep GC is exercised.
    EXPECT_GT(total_temps_removed, 0);
  }
}

/// What the kill that felled an incarnation was writing when it landed in
/// a checkpoint commit: the orphaned `ckpt-<seq>.tmp` keeps at least the
/// step header (magic, version, seq, parent) unless the kill tore it
/// shorter.
enum class KilledWrite { kOther, kBase, kDelta };

KilledWrite ClassifyKilledWrite(const dfs::MiniDfs& d) {
  for (const std::string& path : d.List("/checkpoints/")) {
    if (!dfs::IsTempPath(path)) continue;
    auto bytes = d.ReadFile(path);
    if (!bytes.ok()) continue;
    dfs::ByteReader r(*bytes);
    std::string_view magic;
    uint64_t version, seq, parent;
    if (r.ReadRaw(8, &magic) && r.ReadUVarint(&version) &&
        r.ReadUVarint(&seq) && r.ReadUVarint(&parent)) {
      return parent == 0 ? KilledWrite::kBase : KilledWrite::kDelta;
    }
  }
  return KilledWrite::kOther;
}

// The second-kill sweep: for each seed a crawl dies at a seeded mutation op,
// and the resumed incarnation dies too, at a seeded op of its own run, so
// the kill lands in a commit of the chain it continues from the restored
// checkpoint or in the work between (KillAtEveryOpOfAResumedBfs below
// covers base commits). A third incarnation must still reach the
// uninterrupted run's snapshots, ids and counts.
TEST(CrashRecoverySweepTest, KillAnywhereInAResumedIncarnation) {
  CrawlConfig config;
  config.checkpoint_every_rounds = 2;
  config.checkpoint_chunk = 64;
  TestBed clean = MakeTestBed(config);
  ASSERT_TRUE(clean.crawler->Run().ok());
  const CrawlReport& want = clean.crawler->report();
  const uint64_t total_ops = clean.dfs->GetStats().mutation_ops;
  const std::map<std::string, uint32_t> want_digests =
      AllDigests(*clean.dfs, *clean.crawler);
  const std::set<int64_t> want_startups =
      UniqueSnapshotIds(*clean.dfs, clean.crawler->StartupSnapshotDir());
  const std::set<int64_t> want_users =
      UniqueSnapshotIds(*clean.dfs, clean.crawler->UserSnapshotDir());

  const int seeds = ChaosSeedCount();
  int second_kills = 0;
  int base_kills = 0;
  int delta_kills = 0;
  int continued_chains_restored = 0;
  for (int seed = 0; seed < seeds; ++seed) {
    SCOPED_TRACE("second-kill seed " + std::to_string(seed));
    TestBed bed = MakeTestBed(config);
    const uint64_t first_kill =
        1 + Mix64(0xD1E5EEDull ^ static_cast<uint64_t>(seed)) % total_ops;
    bed.dfs->ArmKill(first_kill, static_cast<uint64_t>(seed) * 7919 + 1);
    ASSERT_FALSE(bed.crawler->Run().ok());
    bed.crawler.reset();
    bed.dfs->DisarmKill();

    // The resumed run redoes at least what the crawl had left past the
    // first kill, so a kill drawn from that span lands inside it.
    const uint64_t restart_ops = bed.dfs->GetStats().mutation_ops;
    const uint64_t second_kill =
        restart_ops + 1 +
        Mix64(0x5EC0DDull ^ static_cast<uint64_t>(seed)) %
            (total_ops - first_kill + 1);
    bed.dfs->ArmKill(second_kill, static_cast<uint64_t>(seed) * 104729 + 5);
    bed.crawler =
        std::make_unique<Crawler>(bed.web.get(), bed.dfs.get(), config);
    const bool second_died = !bed.crawler->Resume().ok();
    bed.crawler.reset();
    bed.dfs->DisarmKill();
    if (second_died) {
      ++second_kills;
      const KilledWrite killed = ClassifyKilledWrite(*bed.dfs);
      base_kills += killed == KilledWrite::kBase ? 1 : 0;
      delta_kills += killed == KilledWrite::kDelta ? 1 : 0;
    }

    bed.crawler =
        std::make_unique<Crawler>(bed.web.get(), bed.dfs.get(), config);
    Status recovered = bed.crawler->Resume();
    ASSERT_TRUE(recovered.ok()) << recovered;
    const CrawlReport& got = bed.crawler->report();
    // Two restores: the third incarnation restored a checkpoint the second
    // one chained onto the checkpoint it had restored.
    continued_chains_restored += got.checkpoint_restores == 2 ? 1 : 0;
    EXPECT_EQ(got.companies_crawled, want.companies_crawled);
    EXPECT_EQ(got.users_crawled, want.users_crawled);
    EXPECT_EQ(got.bfs_rounds, want.bfs_rounds);
    EXPECT_EQ(got.crunchbase_profiles, want.crunchbase_profiles);
    EXPECT_EQ(got.facebook_profiles, want.facebook_profiles);
    EXPECT_EQ(got.twitter_profiles, want.twitter_profiles);
    EXPECT_EQ(UniqueSnapshotIds(*bed.dfs, bed.crawler->StartupSnapshotDir()),
              want_startups);
    EXPECT_EQ(UniqueSnapshotIds(*bed.dfs, bed.crawler->UserSnapshotDir()),
              want_users);
    EXPECT_EQ(AllDigests(*bed.dfs, *bed.crawler), want_digests);
  }
  if (seeds >= 20) {
    // Nearly every second kill lands inside the resumed run, some of them
    // in its checkpoint commits, and some third incarnations restore the
    // chain the second one continued.
    EXPECT_GT(second_kills, seeds / 2);
    EXPECT_GT(delta_kills, 0);
    EXPECT_GT(continued_chains_restored, 0);
  }
}

// Every mutation op of a resumed BFS: the first incarnation stops right
// after its first checkpoint, and the second dies at each op it issues
// until its BFS has checkpointed. That span holds the continued chain's
// BFS steps, where the deltas outgrow their base and a base is written, so
// kills inside a base commit are covered whatever the seed count.
TEST(CrashRecoverySweepTest, KillAtEveryOpOfAResumedBfs) {
  CrawlConfig config;
  config.checkpoint_every_rounds = 2;
  config.checkpoint_chunk = 64;
  TestBed clean = MakeTestBed(config);
  ASSERT_TRUE(clean.crawler->Run().ok());
  const CrawlReport& want = clean.crawler->report();
  const std::map<std::string, uint32_t> want_digests =
      AllDigests(*clean.dfs, *clean.crawler);

  CrawlConfig first = config;
  first.crash_after_bfs_rounds = 2;
  uint64_t restart_ops = 0;
  uint64_t bfs_end_ops = 0;
  {
    TestBed bed = MakeTestBed(first);
    ASSERT_FALSE(bed.crawler->Run().ok());
    restart_ops = bed.dfs->GetStats().mutation_ops;
    CrawlConfig through_bfs = config;
    through_bfs.crash_after_phase = std::string(kPhaseBfs);
    bed.crawler =
        std::make_unique<Crawler>(bed.web.get(), bed.dfs.get(), through_bfs);
    ASSERT_FALSE(bed.crawler->Resume().ok());
    bfs_end_ops = bed.dfs->GetStats().mutation_ops;
  }
  ASSERT_GT(bfs_end_ops, restart_ops);

  int base_kills = 0;
  int delta_kills = 0;
  for (uint64_t kill_at = restart_ops + 1; kill_at <= bfs_end_ops;
       ++kill_at) {
    SCOPED_TRACE("resumed BFS killed at mutation op " +
                 std::to_string(kill_at));
    TestBed bed = MakeTestBed(first);
    ASSERT_FALSE(bed.crawler->Run().ok());
    ASSERT_EQ(bed.dfs->GetStats().mutation_ops, restart_ops);
    bed.dfs->ArmKill(kill_at, /*seed=*/kill_at);
    bed.crawler =
        std::make_unique<Crawler>(bed.web.get(), bed.dfs.get(), config);
    ASSERT_FALSE(bed.crawler->Resume().ok());
    bed.crawler.reset();
    bed.dfs->DisarmKill();
    const KilledWrite killed = ClassifyKilledWrite(*bed.dfs);
    base_kills += killed == KilledWrite::kBase ? 1 : 0;
    delta_kills += killed == KilledWrite::kDelta ? 1 : 0;

    bed.crawler =
        std::make_unique<Crawler>(bed.web.get(), bed.dfs.get(), config);
    Status recovered = bed.crawler->Resume();
    ASSERT_TRUE(recovered.ok()) << recovered;
    const CrawlReport& got = bed.crawler->report();
    EXPECT_EQ(got.companies_crawled, want.companies_crawled);
    EXPECT_EQ(got.users_crawled, want.users_crawled);
    EXPECT_EQ(got.crunchbase_profiles, want.crunchbase_profiles);
    EXPECT_EQ(got.facebook_profiles, want.facebook_profiles);
    EXPECT_EQ(got.twitter_profiles, want.twitter_profiles);
    EXPECT_EQ(AllDigests(*bed.dfs, *bed.crawler), want_digests);
  }
  EXPECT_GT(base_kills, 0);
  EXPECT_GT(delta_kills, 0);
}

/// Dead-letter log segments left across the three augmentation phases.
size_t DeadLetterSegments(const dfs::MiniDfs& d, const Crawler& c) {
  return d.List(c.DeadLetterDir(kPhaseCrunchBase)).size() +
         d.List(c.DeadLetterDir(kPhaseFacebook)).size() +
         d.List(c.DeadLetterDir(kPhaseTwitter)).size();
}

// The dead-letter replay sweep: a crawl rides out a CrunchBase outage that
// dead-letters every CrunchBase fetch, then ReplayDeadLetters() runs against
// the recovered service. Storage dies at each of the replay's mutation ops
// in turn (op-enumerated, not sampled); a fresh incarnation must Resume()
// and replay again, ending byte-identical to the uninterrupted crawl +
// replay with the same profile counts and a drained log. A replay that
// deleted the log before checkpointing its output would lose it at most of
// these ops.
TEST(CrashRecoverySweepTest, KillAnywhereDuringDeadLetterReplay) {
  CrawlConfig config;
  config.checkpoint_every_rounds = 2;
  config.checkpoint_chunk = 64;
  net::FaultPlan outage;
  outage.error_bursts = {{0, 365ll * 24 * 3600 * 1000000ll, 1.0}};
  auto crawl_through_outage = [&](TestBed& bed) {
    bed.web->crunchbase().set_fault_plan(outage);
    Status crawled = bed.crawler->Run();
    bed.web->crunchbase().set_fault_plan({});
    return crawled;
  };

  // Uninterrupted crawl + replay.
  TestBed clean = MakeTestBed(config);
  ASSERT_TRUE(crawl_through_outage(clean).ok());
  ASSERT_GT(clean.crawler->report().dead_lettered_ids, 0);
  ASSERT_EQ(clean.crawler->report().crunchbase_profiles, 0);
  const uint64_t ops_before = clean.dfs->GetStats().mutation_ops;
  ASSERT_TRUE(clean.crawler->ReplayDeadLetters().ok());
  const uint64_t ops_after = clean.dfs->GetStats().mutation_ops;
  const CrawlReport& want = clean.crawler->report();
  ASSERT_GT(want.crunchbase_profiles, 0);
  ASSERT_EQ(DeadLetterSegments(*clean.dfs, *clean.crawler), 0u);
  const std::map<std::string, uint32_t> want_digests =
      AllDigests(*clean.dfs, *clean.crawler);

  // Every op by default; a reduced CFNET_CHAOS_SEEDS (sanitizer runs)
  // spreads about that many kill points evenly over the replay instead.
  const uint64_t stride = std::max<uint64_t>(
      1, (ops_after - ops_before) / static_cast<uint64_t>(ChaosSeedCount()));
  for (uint64_t kill_at = ops_before + 1; kill_at <= ops_after;
       kill_at += stride) {
    SCOPED_TRACE("replay killed at mutation op " + std::to_string(kill_at));
    TestBed bed = MakeTestBed(config);
    ASSERT_TRUE(crawl_through_outage(bed).ok());
    ASSERT_EQ(bed.dfs->GetStats().mutation_ops, ops_before);
    bed.dfs->ArmKill(kill_at, /*seed=*/kill_at);
    ASSERT_FALSE(bed.crawler->ReplayDeadLetters().ok());
    bed.crawler.reset();

    bed.dfs->DisarmKill();
    bed.crawler =
        std::make_unique<Crawler>(bed.web.get(), bed.dfs.get(), config);
    Status resumed = bed.crawler->Resume();
    ASSERT_TRUE(resumed.ok()) << resumed;
    Status replayed = bed.crawler->ReplayDeadLetters();
    ASSERT_TRUE(replayed.ok()) << replayed;

    const CrawlReport& got = bed.crawler->report();
    EXPECT_EQ(got.crunchbase_profiles, want.crunchbase_profiles);
    EXPECT_EQ(got.facebook_profiles, want.facebook_profiles);
    EXPECT_EQ(got.twitter_profiles, want.twitter_profiles);
    EXPECT_EQ(DeadLetterSegments(*bed.dfs, *bed.crawler), 0u);
    EXPECT_EQ(AllDigests(*bed.dfs, *bed.crawler), want_digests);
  }
}

// The columnar-commit sweep: snapshot compaction rewrites a multi-kilobyte
// .cfc file through the same write-temp/verify/rename protocol as every
// other commit, so a crash at ANY mutation op inside the recompaction must
// leave either the previous columnar file or the complete new one — never a
// torn block stream. Each seed kills the storage layer at a different op
// inside a recompaction (with background write faults scripted on top),
// sweeps the directory like a restarting process would, proves whatever
// survived still scans strictly, and re-runs the compaction to converge on
// the byte-identical uninterrupted result.
TEST(CrashRecoverySweepTest, KillAnywhereDuringColumnarCommit) {
  const std::string dir = "/snap/facebook/";
  const std::string col_path = core::ColumnarPathFor(dir);
  std::string shard0, shard1;
  for (int i = 0; i < 48; ++i) {
    shard0 += "{\"angellist_id\":" + std::to_string(100 + i) +
              ",\"fan_count\":" + std::to_string(i * 13) + "}\n";
  }
  for (int i = 0; i < 19; ++i) {
    shard1 += "{\"angellist_id\":" + std::to_string(700 + i) +
              ",\"fan_count\":" + std::to_string(5000 - i) + "}\n";
  }

  // Uninterrupted baseline: compact version A (one shard), land a second
  // shard (the dead-letter-replay shape) and recompact to version B.
  std::string bytes_a, bytes_b;
  uint64_t ops_before = 0, ops_after = 0;
  {
    dfs::MiniDfs d;
    ASSERT_TRUE(dfs::CommitFile(&d, dir + "part-0.jsonl", shard0).ok());
    ASSERT_TRUE(
        core::CompactSnapshotDir<core::FacebookRecord>(&d, dir, nullptr, 16)
            .ok());
    auto a = d.ReadFile(col_path);
    ASSERT_TRUE(a.ok());
    bytes_a = *a;
    ASSERT_TRUE(dfs::CommitFile(&d, dir + "part-1.jsonl", shard1).ok());
    ops_before = d.GetStats().mutation_ops;
    ASSERT_TRUE(
        core::CompactSnapshotDir<core::FacebookRecord>(&d, dir, nullptr, 16)
            .ok());
    ops_after = d.GetStats().mutation_ops;
    auto b = d.ReadFile(col_path);
    ASSERT_TRUE(b.ok());
    bytes_b = *b;
  }
  ASSERT_GT(ops_after, ops_before);
  ASSERT_NE(bytes_a, bytes_b);

  const int seeds = ChaosSeedCount();
  int64_t total_temps_removed = 0;
  int64_t kept_old = 0;
  int64_t kept_new = 0;
  for (int seed = 0; seed < seeds; ++seed) {
    SCOPED_TRACE("columnar chaos seed " + std::to_string(seed));
    dfs::MiniDfs d;
    ASSERT_TRUE(dfs::CommitFile(&d, dir + "part-0.jsonl", shard0).ok());
    ASSERT_TRUE(
        core::CompactSnapshotDir<core::FacebookRecord>(&d, dir, nullptr, 16)
            .ok());
    ASSERT_TRUE(dfs::CommitFile(&d, dir + "part-1.jsonl", shard1).ok());
    ASSERT_EQ(d.GetStats().mutation_ops, ops_before);

    // Background faults the recompaction must ride out, plus a kill pinned
    // to one of its mutation ops. Faults only ever add retry ops, so the
    // kill op is always reached before the final rename can land.
    dfs::IoFaultPlan plan;
    plan.seed = 4000 + static_cast<uint64_t>(seed);
    plan.torn_writes = {{1, 0, 0.05}};
    plan.enospc = {{1, 0, 0.05}};
    plan.write_bit_flips = {{1, 0, 0.02}};
    d.InstallFaultPlan(plan);
    const uint64_t kill_at =
        ops_before + 1 +
        Mix64(0x5EEDC0DEull ^ static_cast<uint64_t>(seed)) %
            (ops_after - ops_before);
    d.ArmKill(kill_at, /*seed=*/static_cast<uint64_t>(seed) * 6151 + 3);

    Status died =
        core::CompactSnapshotDir<core::FacebookRecord>(&d, dir, nullptr, 16);
    ASSERT_FALSE(died.ok()) << "kill at op " << kill_at << " never surfaced";

    // Restart: disarm, sweep orphaned temps, and check the all-or-nothing
    // promise for the columnar file itself.
    d.DisarmKill();
    d.InstallFaultPlan(dfs::IoFaultPlan{});
    total_temps_removed +=
        static_cast<int64_t>(dfs::SweepDir(&d, dir).temp_files_removed);

    auto raw = d.ReadFile(col_path);
    ASSERT_TRUE(raw.ok());
    const bool old_version = (*raw == bytes_a);
    const bool new_version = (*raw == bytes_b);
    ASSERT_TRUE(old_version || new_version)
        << "torn columnar file survived the crash";
    kept_old += old_version ? 1 : 0;
    kept_new += new_version ? 1 : 0;

    // Whatever survived must still scan strictly: every block CRC-clean.
    dfs::ScanReport rep;
    dfs::ScanOptions scan;
    scan.report = &rep;
    auto parts =
        dfs::ScanColumnBlocks<core::FacebookRecord>(d, {col_path}, scan);
    ASSERT_TRUE(parts.ok());
    EXPECT_EQ(rep.columnar_blocks_failed, 0u);

    // Recovery converges: one clean recompaction lands exactly version B.
    ASSERT_TRUE(
        core::CompactSnapshotDir<core::FacebookRecord>(&d, dir, nullptr, 16)
            .ok());
    auto healed = d.ReadFile(col_path);
    ASSERT_TRUE(healed.ok());
    EXPECT_EQ(*healed, bytes_b);
  }
  EXPECT_EQ(kept_old + kept_new, seeds);
  if (seeds >= 20) {
    // Kills mid-temp-write must actually leave orphans for the sweep GC,
    // and at least some seeds must die before the new file lands.
    EXPECT_GT(total_temps_removed, 0);
    EXPECT_GT(kept_old, 0);
  }
}

}  // namespace
}  // namespace cfnet::crawler
