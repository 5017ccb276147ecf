#ifndef CFNET_CORE_COLUMNAR_RECORDS_H_
#define CFNET_CORE_COLUMNAR_RECORDS_H_

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/records.h"
#include "dfs/columnar.h"
#include "dfs/jsonl.h"
#include "util/result.h"
#include "util/thread_pool.h"

/// Columnar codecs for the five snapshot record types, plus the
/// compaction/loading glue that lets the platform prefer columnar files
/// while JSON lines remain the crawl/ingest/dead-letter boundary.

namespace cfnet::dfs {

template <>
struct ColumnarTraits<core::StartupRecord> {
  static constexpr std::string_view kTypeName = "startup";
  static void EncodeBlock(const core::StartupRecord* rows, size_t n,
                          std::string& out);
  static bool DecodeBlock(ByteReader& r, size_t n, core::StartupRecord* rows,
                          uint64_t* dictionary_bytes);
  static uint64_t RowBytes(const core::StartupRecord& row);
};

template <>
struct ColumnarTraits<core::UserRecord> {
  static constexpr std::string_view kTypeName = "user";
  static void EncodeBlock(const core::UserRecord* rows, size_t n,
                          std::string& out);
  static bool DecodeBlock(ByteReader& r, size_t n, core::UserRecord* rows,
                          uint64_t* dictionary_bytes);
  static uint64_t RowBytes(const core::UserRecord& row);
};

template <>
struct ColumnarTraits<core::CrunchBaseRecord> {
  static constexpr std::string_view kTypeName = "crunchbase";
  static void EncodeBlock(const core::CrunchBaseRecord* rows, size_t n,
                          std::string& out);
  static bool DecodeBlock(ByteReader& r, size_t n,
                          core::CrunchBaseRecord* rows,
                          uint64_t* dictionary_bytes);
  static uint64_t RowBytes(const core::CrunchBaseRecord& row);
};

template <>
struct ColumnarTraits<core::FacebookRecord> {
  static constexpr std::string_view kTypeName = "facebook";
  static void EncodeBlock(const core::FacebookRecord* rows, size_t n,
                          std::string& out);
  static bool DecodeBlock(ByteReader& r, size_t n, core::FacebookRecord* rows,
                          uint64_t* dictionary_bytes);
  static uint64_t RowBytes(const core::FacebookRecord& row);
};

template <>
struct ColumnarTraits<core::TwitterRecord> {
  static constexpr std::string_view kTypeName = "twitter";
  static void EncodeBlock(const core::TwitterRecord* rows, size_t n,
                          std::string& out);
  static bool DecodeBlock(ByteReader& r, size_t n, core::TwitterRecord* rows,
                          uint64_t* dictionary_bytes);
  static uint64_t RowBytes(const core::TwitterRecord& row);
};

}  // namespace cfnet::dfs

namespace cfnet::core {

/// Canonical columnar file of a snapshot directory (`<dir>part-all.cfc`).
std::string ColumnarPathFor(const std::string& dir);

/// A snapshot directory's listing split by format.
struct SnapshotFiles {
  std::vector<std::string> json;      // part-*.jsonl shards
  std::vector<std::string> columnar;  // *.cfc files
};
SnapshotFiles SplitSnapshotFiles(std::vector<std::string> paths);

/// CRC32 over the sorted `<path>:<size>` lines of the directory's JSON
/// segments (columnar files excluded). Stored in the columnar header at
/// compaction time; a mismatch against the live segments means the columnar
/// file predates a segment being added or dropped (dead-letter replay,
/// resume rollback, quarantine) and must not be trusted.
uint32_t SnapshotFingerprint(const dfs::MiniDfs& dfs, const std::string& dir);

/// Decodes one JSON-lines shard set line by line with `DecodeLine<T>` —
/// the reference record stream the columnar path is differential-tested
/// against. One partition per scan range (LoadSnapshotRecords flattens
/// them in order); parallel when `pool` is set.
template <typename T>
Result<std::vector<std::vector<T>>> ScanSnapshotJson(
    const dfs::MiniDfs& dfs, const std::vector<std::string>& files,
    ThreadPool* pool, bool salvage, dfs::ScanReport* report) {
  dfs::ScanOptions scan;
  scan.pool = pool;
  scan.salvage = salvage;
  scan.report = report;
  return dfs::ScanJsonLines<T>(dfs, files, DecodeLine<T>, scan);
}

/// Rewrites `dir`'s JSON shards as one committed columnar file stamped with
/// the shards' current fingerprint. Idempotent: an up-to-date columnar file
/// is left alone. Directories with no JSON shards are skipped (nothing to
/// compact). The JSON shards stay in place — they remain the write/replay
/// boundary and the fallback when the columnar file goes stale or rots.
template <typename T>
Status CompactSnapshotDir(dfs::MiniDfs* dfs, const std::string& dir,
                          ThreadPool* pool = nullptr,
                          size_t block_rows = 64 * 1024) {
  SnapshotFiles files = SplitSnapshotFiles(dfs->List(dir));
  if (files.json.empty()) return Status::OK();
  const uint32_t fingerprint = SnapshotFingerprint(*dfs, dir);
  const std::string target = ColumnarPathFor(dir);
  for (const std::string& existing : files.columnar) {
    if (existing != target) continue;
    Result<uint32_t> stored = dfs::ReadColumnarFingerprint(*dfs, existing);
    if (stored.ok() && stored.value() == fingerprint) return Status::OK();
  }
  CFNET_ASSIGN_OR_RETURN(
      auto parts, ScanSnapshotJson<T>(*dfs, files.json, pool,
                                      /*salvage=*/false, /*report=*/nullptr));
  dfs::ColumnarWriteOptions options;
  options.block_rows = block_rows;
  options.source_fingerprint = fingerprint;
  dfs::ColumnarWriter<T> writer(dfs, target, options);
  for (auto& part : parts) {
    for (T& record : part) writer.Add(std::move(record));
  }
  return writer.Finish();
}

/// Loads one typed snapshot directory, preferring a fresh columnar file and
/// falling back to the JSON shards when none exists, the fingerprint is
/// stale, or (in salvage mode) the columnar read fails. Partition order of
/// both formats flattens to the same record stream.
template <typename T>
Result<std::vector<std::vector<T>>> ScanSnapshotRecords(
    const dfs::MiniDfs& dfs, const std::string& dir, ThreadPool* pool,
    bool salvage, dfs::ScanReport* report) {
  SnapshotFiles files = SplitSnapshotFiles(dfs.List(dir));
  if (!files.columnar.empty()) {
    const uint32_t live = SnapshotFingerprint(dfs, dir);
    std::vector<std::string> fresh;
    for (const std::string& path : files.columnar) {
      Result<uint32_t> stored = dfs::ReadColumnarFingerprint(dfs, path);
      if (stored.ok()) {
        // A stale-but-intact file is quietly superseded by the JSON shards;
        // only fingerprint-matching files are worth decoding.
        if (stored.value() == live) fresh.push_back(path);
        continue;
      }
      // The file's commit footer or header is rotted. That is storage
      // damage, not staleness: strict mode surfaces it; salvage mode
      // abandons columnar wholesale (the JSON shards are the complete
      // stream) rather than guessing at a partial decode.
      if (!salvage) return stored.status();
    }
    if (!fresh.empty()) {
      dfs::ScanReport attempt;
      dfs::ScanOptions scan;
      scan.pool = pool;
      scan.salvage = salvage;
      scan.report = &attempt;
      auto parts = dfs::ScanColumnBlocks<T>(dfs, fresh, scan);
      const bool damaged = !parts.ok() || attempt.columnar_blocks_failed > 0 ||
                           attempt.records_dropped > 0 ||
                           !attempt.quarantined_paths.empty();
      if (!damaged) {
        if (report != nullptr) report->Merge(attempt);
        return parts;
      }
      if (!salvage) return parts;  // strict mode surfaces the damage
      // Salvage mode: the JSON shards are still the complete stream, so any
      // columnar damage abandons the file wholesale instead of returning a
      // partial decode. Keep the failure counters visible, drop the rest of
      // the abandoned attempt's accounting.
      if (report != nullptr) {
        report->columnar_blocks_failed += attempt.columnar_blocks_failed;
      }
    }
  }
  return ScanSnapshotJson<T>(dfs, files.json, pool, salvage, report);
}

/// ScanSnapshotRecords flattened into one record vector.
template <typename T>
Result<std::vector<T>> LoadSnapshotRecords(const dfs::MiniDfs& dfs,
                                           const std::string& dir,
                                           ThreadPool* pool, bool salvage,
                                           dfs::ScanReport* report) {
  CFNET_ASSIGN_OR_RETURN(
      auto parts, ScanSnapshotRecords<T>(dfs, dir, pool, salvage, report));
  size_t total = 0;
  for (const auto& p : parts) total += p.size();
  std::vector<T> out;
  out.reserve(total);
  for (auto& p : parts) {
    out.insert(out.end(), std::make_move_iterator(p.begin()),
               std::make_move_iterator(p.end()));
  }
  return out;
}

}  // namespace cfnet::core

#endif  // CFNET_CORE_COLUMNAR_RECORDS_H_
