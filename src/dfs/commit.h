#ifndef CFNET_DFS_COMMIT_H_
#define CFNET_DFS_COMMIT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "dfs/dfs.h"
#include "util/result.h"
#include "util/status.h"

namespace cfnet::dfs {

/// Durable-file contract for every artifact the pipeline reads back
/// (JSON-lines shards, columnar files, checkpoints).
///
/// Every committed file carries a fixed-width 40-byte trailer:
///
///     CFNETFTR1 <8-hex crc32> <20-digit payload length>\n
///
/// and is produced by write-to-temp -> footer -> read-back verify ->
/// atomic rename. The footer is MiniDFS's one integrity check: MiniDFS
/// stores and returns bytes as they are, so silent fsync loss, rotten write
/// buffers, short reads and the prefix a killed writer leaves behind all
/// reach the footer. Every read goes through ReadCommitted, the one place
/// a footer verdict becomes a decision: a valid footer yields the payload,
/// and a footer that is absent or corrupt after retries means damage.

/// Fixed footer width in bytes.
inline constexpr size_t kCommitFooterSize = 40;

/// Footer magic (followed by one space in the serialized form).
inline constexpr std::string_view kCommitFooterMagic = "CFNETFTR1";

/// Suffix marking an uncommitted temp file. A crash between write and
/// rename orphans the temp; recovery sweeps delete it.
inline constexpr std::string_view kTempSuffix = ".tmp";

/// Namespace root that damaged files are renamed under by SweepDir.
/// Lives outside every data-dir prefix, so List()-driven consumers never
/// see quarantined files, but operators can inspect them.
inline constexpr std::string_view kQuarantineRoot = "/.quarantine";

/// Serializes the 40-byte footer for a payload with the given CRC/length.
std::string MakeCommitFooter(uint32_t payload_crc, uint64_t payload_len);

/// What the tail of a file looks like to the commit protocol.
enum class FooterState {
  kValid,    // well-formed footer, CRC and length match the payload
  kAbsent,   // no footer magic at the expected offset (torn or short bytes)
  kCorrupt,  // footer magic present but CRC/length disagree with the bytes
};

/// Classifies `file` and, when the footer is valid, stores the payload
/// length (file size minus footer) in `*payload_len`. Readers do not act on
/// this verdict themselves; they read through ReadCommitted.
FooterState InspectFooter(std::string_view file, uint64_t* payload_len);

/// `path` + ".tmp" — the uncommitted staging name.
std::string TempPath(const std::string& path);
bool IsTempPath(std::string_view path);

/// "/.quarantine" + `path` — where a damaged file is moved instead of
/// aborting the scan that found it.
std::string QuarantinePath(const std::string& path);

/// Tries per CommitFile/ReadCommitted (first attempt included). Retries run
/// back to back; each consumes fresh storage op serials, which is what lets
/// a commit escape an op-indexed fault window deterministically.
inline constexpr int kCommitAttempts = 4;

/// Atomically replaces `path` with `payload` + footer:
/// write `<path>.tmp` -> verify read-back -> rename over `path`.
/// On failure the target is never half-written: either the old content
/// survives intact or the new content is fully committed. Best-effort
/// deletes the temp on a failed commit.
Status CommitFile(MiniDfs* dfs, const std::string& path,
                  std::string_view payload);

/// Reads `path` and verifies its footer. A valid footer yields the payload.
/// An absent or corrupt footer is re-read up to `kCommitAttempts` times
/// (short reads and in-flight bit flips are transient) and then fails
/// Corruption; `*damaged`, when given, then holds the last bytes read, minus
/// the footer when its magic survived, for salvage-mode decoding. NotFound
/// returns at once; other read errors are retried.
Result<std::string> ReadCommitted(const MiniDfs& dfs, const std::string& path,
                                  std::string* damaged = nullptr);

/// What a recovery sweep found and did.
struct RecoveryReport {
  uint64_t temp_files_removed = 0;
  uint64_t files_quarantined = 0;
  std::vector<std::string> quarantined_paths;

  bool clean() const {
    return temp_files_removed == 0 && files_quarantined == 0;
  }
};

/// Startup/restart sweep over every file under `dir_prefix`:
///  - orphaned `.tmp` files (a writer died between write and rename) are
///    deleted — their rename never happened, so they are invisible to the
///    commit history by definition;
///  - files that ReadCommitted judges damaged (footer absent or corrupt
///    after retries) are renamed under /.quarantine for inspection instead
///    of aborting startup; files that cannot be read at all (the storage
///    layer is down) are left where they are.
/// Logs a one-line summary when anything was repaired.
RecoveryReport SweepDir(MiniDfs* dfs, const std::string& dir_prefix);

}  // namespace cfnet::dfs

#endif  // CFNET_DFS_COMMIT_H_
