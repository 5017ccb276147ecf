#ifndef CFNET_DFS_DFS_H_
#define CFNET_DFS_DFS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "dfs/fault_fs.h"
#include "util/result.h"
#include "util/status.h"

namespace cfnet::dfs {

/// Aggregate namespace statistics.
struct DfsStats {
  uint64_t num_files = 0;
  uint64_t logical_bytes = 0;  // sum of file lengths
  /// Mutation ops (WriteFile/Rename/Delete) and whole-file reads
  /// issued so far — the op serials IoFaultWindows and the kill switch are
  /// scripted against.
  uint64_t mutation_ops = 0;
  uint64_t read_ops = 0;
  uint64_t storage_faults_injected = 0;
};

/// Single-process reproduction of the HDFS namespace the paper's platform
/// writes crawl snapshots into: a sorted map from absolute path to the
/// file's bytes, one copy of each. It keeps HDFS's namespace semantics
/// (immutable files, atomic rename, sorted listing); block placement and
/// replication, which no analysis observes, are not modelled. Integrity is
/// the commit protocol's (dfs/commit.h): every committed file ends in a
/// footer that every read verifies.
///
/// Faults come from the scripted injector and the kill switch below.
/// All operations are thread-safe (crawler workers commit concurrently).
class MiniDfs {
 public:
  MiniDfs() = default;

  MiniDfs(const MiniDfs&) = delete;
  MiniDfs& operator=(const MiniDfs&) = delete;

  /// Creates or truncates `path` with `data`. Parent directories are
  /// implicit (the namespace is a flat map of absolute paths, like HDFS
  /// semantics for our purposes). Paths must start with '/'.
  Status WriteFile(const std::string& path, std::string_view data);

  /// Reads a whole file.
  Result<std::string> ReadFile(const std::string& path) const;

  /// Removes a file.
  Status Delete(const std::string& path);

  /// Atomically moves `from` to `to`, replacing any existing `to` — the
  /// namespace-level commit point of the durable-write protocol (HDFS
  /// rename semantics: it either fully happens or not at all; no fault can
  /// leave a half-renamed file).
  Status Rename(const std::string& from, const std::string& to);

  bool Exists(const std::string& path) const;

  /// Length of a file in bytes.
  Result<uint64_t> FileSize(const std::string& path) const;

  /// All file paths under `dir_prefix` (e.g. "/crawl/"), sorted.
  std::vector<std::string> List(const std::string& dir_prefix) const;

  /// --- failure injection -------------------------------------------------

  /// Installs a scripted storage-fault plan (see dfs/fault_fs.h): torn
  /// writes, silent fsync loss, ENOSPC, short reads and bit flips keyed on
  /// deterministic op serials. An empty plan clears the injector.
  void InstallFaultPlan(IoFaultPlan plan);

  /// Arms the kill switch: the mutation op with serial `kill_at_op`
  /// persists only a seeded prefix of its bytes (renames/deletes fail
  /// without applying), and every subsequent read or mutation fails
  /// Unavailable — the storage-side equivalent of `kill -9` mid-write.
  /// `DisarmKill` models the restart: the "disk" contents survive as the
  /// dying process left them, and a fresh crawler incarnation recovers.
  void ArmKill(uint64_t kill_at_op, uint64_t seed);
  void DisarmKill();
  bool killed() const;

  DfsStats GetStats() const;

 private:
  // All private helpers assume mu_ is held.
  /// Fault-aware write entry point: consumes a mutation-op serial, applies
  /// the kill switch and any scripted write fault, then stores whatever
  /// bytes "reached the disk".
  Status WriteWithFaultsLocked(const std::string& path, std::string_view data);
  /// Consumes a mutation-op serial for a metadata op (rename/delete);
  /// returns non-OK when the kill switch fires or has fired.
  Status AdmitMutationLocked(const char* what);
  Status ValidatePath(const std::string& path) const;

  mutable std::mutex mu_;
  std::map<std::string, std::string> files_;  // sorted for List()

  // Storage fault injection (fault_fs.h). The injector is mutable because
  // reads draw fault decisions; its internals are thread-safe.
  mutable std::unique_ptr<IoFaultInjector> injector_;
  mutable uint64_t mutation_ops_ = 0;
  mutable uint64_t read_ops_ = 0;
  mutable uint64_t faults_injected_ = 0;
  uint64_t kill_at_op_ = 0;  // 0 = disarmed
  uint64_t kill_seed_ = 0;
  bool killed_ = false;
};

}  // namespace cfnet::dfs

#endif  // CFNET_DFS_DFS_H_
