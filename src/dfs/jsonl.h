#ifndef CFNET_DFS_JSONL_H_
#define CFNET_DFS_JSONL_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "dfs/commit.h"
#include "dfs/dfs.h"
#include "json/json.h"
#include "util/result.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace cfnet::dfs {

/// What a (set of) JSON-lines scans saw and salvaged. Accumulates across
/// calls when the same report is passed to several scans, so the platform
/// can surface one aggregate per load.
struct ScanReport {
  uint64_t files_scanned = 0;
  /// Files whose commit footer verified — end-to-end integrity guaranteed.
  uint64_t footer_verified_files = 0;
  uint64_t bytes_scanned = 0;
  /// Salvage-mode lines dropped because they failed to decode (torn tails,
  /// embedded garbage). Zero in strict mode by construction.
  uint64_t records_dropped = 0;
  /// Damaged files — footer absent or corrupt after retries. Salvage mode
  /// decodes them leniently and records them here; recovery sweeps move
  /// them under /.quarantine.
  std::vector<std::string> quarantined_paths;

  /// --- columnar counters (ScanColumnBlocks) --------------------------------
  /// Columnar (.cfc) files scanned.
  uint64_t columnar_files = 0;
  /// Blocks whose frame was walked (including blocks that failed CRC).
  uint64_t columnar_blocks_scanned = 0;
  /// Blocks dropped in salvage mode because their CRC or column decode
  /// disagreed with the frame (their rows count into records_dropped).
  uint64_t columnar_blocks_failed = 0;
  /// On-disk block payload bytes successfully decoded.
  uint64_t columnar_encoded_bytes = 0;

  void Merge(const ScanReport& other);
};

/// Suffix of every JSON-lines segment file.
inline constexpr std::string_view kJsonLinesSuffix = ".jsonl";

/// `<prefix><8-digit zero-padded seq>.jsonl` — the name of one segment, so
/// List() order under a prefix is write order.
std::string SegmentPath(std::string_view prefix, uint64_t seq);

/// The committed segments under `prefix` in List() order (sequence order
/// for one writer's prefix): every name ending in kJsonLinesSuffix, so
/// commit temps and columnar files are skipped.
std::vector<std::string> ListSegments(const MiniDfs& dfs,
                                      const std::string& prefix);

/// Buffered writer of JSON-lines snapshot segments into MiniDFS — the format
/// the crawler stores records in (one JSON document per line, as the paper's
/// platform stores crawled documents in HDFS). A committed file is never
/// rewritten: every flush commits the buffered lines through CommitFile as a
/// new immutable segment, so a crash mid-flush leaves every earlier segment
/// intact.
class JsonLinesWriter {
 public:
  /// Buffers up to `flush_bytes` before committing a segment under
  /// `prefix`. Numbering continues after the highest segment already under
  /// `prefix`, so a resumed writer never reuses a live segment's name.
  JsonLinesWriter(MiniDfs* dfs, std::string prefix,
                  size_t flush_bytes = 1 << 20);
  ~JsonLinesWriter();

  JsonLinesWriter(const JsonLinesWriter&) = delete;
  JsonLinesWriter& operator=(const JsonLinesWriter&) = delete;

  /// Serializes one record as a compact JSON line, appending directly into
  /// the writer's reusable buffer (no per-record string allocation).
  Status Write(const json::Json& record);

  /// Commits the buffered lines as the next segment (no-op when empty).
  Status Flush();

 private:
  MiniDfs* dfs_;
  std::string prefix_;
  size_t flush_bytes_;
  std::string buffer_;
  uint64_t next_seq_ = 1;
};

/// The one line walker for JSON-lines payloads: calls
/// `fn(std::string_view line, int64_t line_no) -> bool` for every line of
/// `text` that is not blank after StrTrim, in order, until `fn` returns
/// false. Lines end at '\n' (the last may lack it); `line_no` starts at
/// `first_line` and counts blank lines too, so verdicts name the file line.
template <typename Fn>
void ForEachJsonLine(std::string_view text, Fn&& fn, int64_t first_line = 1) {
  size_t start = 0;
  int64_t line_no = first_line;
  while (start < text.size()) {
    const size_t nl = text.find('\n', start);
    const size_t stop = nl == std::string_view::npos ? text.size() : nl;
    const std::string_view line = text.substr(start, stop - start);
    start = std::min(stop + 1, text.size());
    if (!StrTrim(line).empty() && !fn(line, line_no)) return;
    ++line_no;
  }
}

/// Reads every record of a committed JSON-lines file (the flattened
/// single-file `ScanJsonLines` with `json::Parse`). Damage and malformed
/// lines fail Corruption (the crawler only writes well-formed lines;
/// corruption means DFS trouble).
Result<std::vector<json::Json>> ReadJsonLines(const MiniDfs& dfs,
                                              const std::string& path);

/// --- parallel sharded scans ------------------------------------------------

/// Options for `ScanJsonLines`.
struct ScanOptions {
  /// Decode ranges in parallel on this pool (`ThreadPool::RunBulk`, caller
  /// participates); nullptr decodes sequentially on the caller. The scan
  /// targets 4 line-aligned ranges per pool thread (1 when sequential), so
  /// the morsel scheduler can balance skewed shards.
  ThreadPool* pool = nullptr;
  /// Ranges are not split below this many bytes.
  size_t min_range_bytes = 64 * 1024;
  /// Salvage mode: instead of failing the scan, a damaged file (see
  /// ReadCommitted) has its undecodable lines dropped and counted in the
  /// report. Footer-*verified* files always decode strictly — their bytes
  /// are proven intact, so a decode failure there is a real bug, not
  /// storage damage. Strict mode (the default) fails fast on any damage.
  bool salvage = false;
  /// When set, scan accounting accumulates here (see ScanReport).
  ScanReport* report = nullptr;
};

namespace internal_scan {

/// One line-aligned byte range of a loaded shard's contents: `begin` starts
/// a line, `end` is one past the terminating '\n' of the last line (or the
/// shard's last byte).
struct LineRange {
  size_t file = 0;
  size_t begin = 0;
  size_t end = 0;
  int64_t first_line = 1;  // 1-based line number at `begin`
};

/// Loaded shard payloads plus per-file decode policy.
struct ShardLoad {
  std::vector<std::string> contents;  // footer-stripped payloads
  /// Per-file: true when decode failures drop the line (salvaged damaged
  /// files) instead of failing the scan.
  std::vector<char> lenient;
};

/// Reads every shard through ReadCommitted (whole files; MiniDFS is an
/// in-memory block store, so this is the only read granularity it offers)
/// for both the JSON-lines and the columnar scans. Strict mode fails on
/// damage; salvage mode keeps the damaged bytes, marks the file lenient and
/// records it in `report`.
Result<ShardLoad> LoadShardContents(const MiniDfs& dfs,
                                    const std::vector<std::string>& paths,
                                    bool salvage, ScanReport* report);

/// Splits shard contents into roughly `target_ranges` line-aligned ranges,
/// none smaller than `min_range_bytes`, ordered by (file, begin).
std::vector<LineRange> SplitLineRanges(const std::vector<std::string>& contents,
                                       size_t target_ranges,
                                       size_t min_range_bytes);

}  // namespace internal_scan

/// Streaming scan over a set of JSON-lines shard files: splits the shards
/// into line-aligned byte ranges, decodes each range with
/// `decode(std::string_view line) -> Result<T>` (in parallel when
/// `options.pool` is set), and returns one output vector per range.
///
/// Record order across the flattened partitions equals sequential
/// `ReadJsonLines` order over `paths`; blank lines are skipped and a
/// malformed line yields the same "path:line:" Corruption verdict (the
/// earliest failing line wins when several ranges fail).
template <typename T, typename DecodeFn>
Result<std::vector<std::vector<T>>> ScanJsonLines(
    const MiniDfs& dfs, const std::vector<std::string>& paths,
    DecodeFn&& decode, const ScanOptions& options = ScanOptions()) {
  ScanReport scratch_report;
  ScanReport* report =
      options.report != nullptr ? options.report : &scratch_report;
  CFNET_ASSIGN_OR_RETURN(
      internal_scan::ShardLoad load,
      internal_scan::LoadShardContents(dfs, paths, options.salvage, report));
  const std::vector<std::string>& contents = load.contents;
  const size_t target =
      options.pool != nullptr ? options.pool->num_threads() * 4 : 1;
  std::vector<internal_scan::LineRange> ranges = internal_scan::SplitLineRanges(
      contents, std::max<size_t>(1, target), options.min_range_bytes);
  std::vector<std::vector<T>> parts(ranges.size());
  std::vector<Status> errors(ranges.size(), Status::OK());
  std::vector<uint64_t> dropped(ranges.size(), 0);
  auto run_range = [&](size_t i) {
    const internal_scan::LineRange& range = ranges[i];
    if (range.begin >= range.end) return;  // degenerate empty-input range
    const std::string_view text(contents[range.file].data() + range.begin,
                                range.end - range.begin);
    const bool lenient = load.lenient[range.file] != 0;
    std::vector<T>& out = parts[i];
    auto visit = [&](std::string_view line, int64_t line_no) {
      auto decoded = decode(line);
      if (decoded.ok()) {
        out.push_back(std::move(decoded).value());
      } else if (lenient) {
        // Salvaged file: the damage is expected — drop the line, keep
        // everything that still decodes.
        ++dropped[i];
      } else {
        errors[i] = Status::Corruption(paths[range.file] + ":" +
                                       std::to_string(line_no) + ": " +
                                       decoded.status().message());
        return false;
      }
      return true;
    };
    ForEachJsonLine(text, visit, range.first_line);
  };
  if (options.pool != nullptr && ranges.size() > 1) {
    options.pool->RunBulk(ranges.size(), run_range);
  } else {
    for (size_t i = 0; i < ranges.size(); ++i) run_range(i);
  }
  // Ranges are ordered by (file, line), so the first failing range holds the
  // globally earliest malformed line — the one ReadJsonLines would report.
  for (size_t i = 0; i < ranges.size(); ++i) {
    if (!errors[i].ok()) return errors[i];
  }
  for (uint64_t d : dropped) report->records_dropped += d;
  return parts;
}

}  // namespace cfnet::dfs

#endif  // CFNET_DFS_JSONL_H_
