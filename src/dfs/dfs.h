#ifndef CFNET_DFS_DFS_H_
#define CFNET_DFS_DFS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "dfs/fault_fs.h"
#include "util/result.h"
#include "util/rng.h"
#include "util/status.h"

namespace cfnet::dfs {

using BlockId = uint64_t;

/// Placement + health info for one block of a file.
struct BlockInfo {
  BlockId id = 0;
  uint64_t length = 0;
  uint32_t checksum = 0;      // CRC-32 of the block contents
  std::vector<int> replicas;  // datanode ids holding a copy
};

/// MiniDFS configuration.
struct DfsConfig {
  int num_datanodes = 4;
  uint64_t block_size = 4 * 1024 * 1024;  // 4 MiB
  int replication = 3;                    // clamped to num_datanodes
  uint64_t seed = 42;                     // placement randomization
};

/// Aggregate cluster statistics.
struct DfsStats {
  uint64_t num_files = 0;
  uint64_t num_blocks = 0;
  uint64_t logical_bytes = 0;   // sum of file lengths
  uint64_t physical_bytes = 0;  // including replicas
  uint64_t under_replicated_blocks = 0;
  uint64_t corruption_events_detected = 0;
  int live_datanodes = 0;
  /// Mutation ops (WriteFile/Rename/Delete) and whole-file reads
  /// issued so far — the op serials IoFaultWindows and the kill switch are
  /// scripted against.
  uint64_t mutation_ops = 0;
  uint64_t read_ops = 0;
  uint64_t storage_faults_injected = 0;
};

/// Single-process reproduction of the HDFS storage substrate the paper's
/// platform writes crawl snapshots into: a namenode namespace over
/// fixed-size blocks replicated across simulated datanodes.
///
/// Supports the failure modes that matter for replication invariants:
/// datanodes can be killed/revived, reads fail over to surviving replicas,
/// and `RunReplicationMonitor` restores the target replication factor.
/// All operations are thread-safe (crawler workers commit concurrently).
class MiniDfs {
 public:
  explicit MiniDfs(const DfsConfig& config = DfsConfig());

  MiniDfs(const MiniDfs&) = delete;
  MiniDfs& operator=(const MiniDfs&) = delete;

  /// Creates or truncates `path` with `data`. Parent directories are
  /// implicit (the namespace is a flat map of absolute paths, like HDFS
  /// semantics for our purposes). Paths must start with '/'.
  Status WriteFile(const std::string& path, std::string_view data);

  /// Reads a whole file. Fails with IOError if any block lost all replicas.
  Result<std::string> ReadFile(const std::string& path) const;

  /// Removes a file and frees its blocks.
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

  /// Block layout of a file (for tests and the replication monitor).
  Result<std::vector<BlockInfo>> GetBlockLocations(const std::string& path) const;

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

  Status KillDataNode(int node);
  Status ReviveDataNode(int node);
  bool IsDataNodeAlive(int node) const;

  /// Re-replicates every under-replicated block onto live datanodes.
  /// Returns the number of new replicas created.
  size_t RunReplicationMonitor();

  /// --- data integrity ------------------------------------------------------
  /// Every block carries a CRC-32; reads verify it per replica and fail
  /// over to an intact copy when a replica is corrupt.

  /// Test/chaos hook: flips a byte in one replica of one block.
  Status CorruptReplica(const std::string& path, size_t block_index, int node);

  /// Verifies every replica against its block checksum and drops corrupt
  /// copies (a follow-up RunReplicationMonitor restores replication).
  /// Returns the number of corrupt replicas removed.
  size_t ScrubBlocks();

  DfsStats GetStats() const;
  const DfsConfig& config() const { return config_; }

 private:
  struct DataNode {
    bool alive = true;
    std::unordered_map<BlockId, std::string> blocks;
    uint64_t used_bytes = 0;
  };

  struct FileEntry {
    std::vector<BlockInfo> blocks;
    uint64_t length = 0;
  };

  // All private helpers assume mu_ is held.
  Status WriteLocked(const std::string& path, std::string_view data);
  /// Fault-aware write entry point: consumes a mutation-op serial, applies
  /// the kill switch and any scripted write fault, then delegates to
  /// WriteLocked with whatever bytes "reached the disk".
  Status WriteWithFaultsLocked(const std::string& path, std::string_view data);
  /// Consumes a mutation-op serial for a metadata op (rename/delete);
  /// returns non-OK when the kill switch fires or has fired.
  Status AdmitMutationLocked(const char* what);
  Status ValidatePath(const std::string& path) const;
  std::vector<int> PickReplicaNodes(int count);
  void FreeBlocksLocked(const FileEntry& entry);
  Result<std::string> ReadBlockLocked(const BlockInfo& info) const;

  DfsConfig config_;
  mutable std::mutex mu_;
  std::map<std::string, FileEntry> namespace_;  // sorted for List()
  std::vector<DataNode> datanodes_;
  BlockId next_block_id_ = 1;
  mutable uint64_t corruption_events_ = 0;
  Rng rng_;

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
