#include "dfs/dfs.h"

#include <algorithm>

#include "util/crc32.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace cfnet::dfs {
namespace {

/// Prefix length a torn/silently-lost write leaves behind: always strictly
/// shorter than the payload (the fault must lose at least one byte).
size_t TornPrefix(double fraction, size_t size) {
  if (size == 0) return 0;
  size_t keep = static_cast<size_t>(fraction * static_cast<double>(size));
  return keep >= size ? size - 1 : keep;
}

}  // namespace

MiniDfs::MiniDfs(const DfsConfig& config) : config_(config), rng_(config.seed) {
  config_.num_datanodes = std::max(1, config_.num_datanodes);
  config_.replication =
      std::clamp(config_.replication, 1, config_.num_datanodes);
  if (config_.block_size == 0) config_.block_size = 4 * 1024 * 1024;
  datanodes_.resize(static_cast<size_t>(config_.num_datanodes));
}

Status MiniDfs::ValidatePath(const std::string& path) const {
  if (path.empty() || path[0] != '/') {
    return Status::InvalidArgument("DFS path must be absolute: '" + path + "'");
  }
  if (path.back() == '/') {
    return Status::InvalidArgument("DFS file path must not end in '/': '" +
                                   path + "'");
  }
  return Status::OK();
}

std::vector<int> MiniDfs::PickReplicaNodes(int count) {
  // Prefer live nodes with the least used bytes (balances placement);
  // shuffle among ties via a random draw.
  std::vector<int> live;
  for (int i = 0; i < config_.num_datanodes; ++i) {
    if (datanodes_[static_cast<size_t>(i)].alive) live.push_back(i);
  }
  std::sort(live.begin(), live.end(), [this](int a, int b) {
    return datanodes_[static_cast<size_t>(a)].used_bytes <
           datanodes_[static_cast<size_t>(b)].used_bytes;
  });
  if (static_cast<int>(live.size()) > count) live.resize(static_cast<size_t>(count));
  return live;
}

void MiniDfs::FreeBlocksLocked(const FileEntry& entry) {
  for (const BlockInfo& b : entry.blocks) {
    for (int node : b.replicas) {
      auto& dn = datanodes_[static_cast<size_t>(node)];
      auto it = dn.blocks.find(b.id);
      if (it != dn.blocks.end()) {
        dn.used_bytes -= it->second.size();
        dn.blocks.erase(it);
      }
    }
  }
}

Status MiniDfs::WriteLocked(const std::string& path, std::string_view data) {
  auto existing = namespace_.find(path);
  if (existing != namespace_.end()) {
    FreeBlocksLocked(existing->second);
    namespace_.erase(existing);
  }
  FileEntry entry;
  entry.length = data.size();
  size_t offset = 0;
  while (offset < data.size() || (data.empty() && entry.blocks.empty())) {
    size_t len = std::min<size_t>(config_.block_size, data.size() - offset);
    BlockInfo info;
    info.id = next_block_id_++;
    info.length = len;
    info.checksum = Crc32(data.substr(offset, len));
    info.replicas = PickReplicaNodes(config_.replication);
    if (info.replicas.empty()) {
      return Status::Unavailable("no live datanodes for block placement");
    }
    std::string block(data.substr(offset, len));
    for (int node : info.replicas) {
      auto& dn = datanodes_[static_cast<size_t>(node)];
      dn.blocks[info.id] = block;
      dn.used_bytes += block.size();
    }
    entry.blocks.push_back(std::move(info));
    offset += len;
    if (data.empty()) break;  // zero-length file: single empty block
  }
  namespace_[path] = std::move(entry);
  return Status::OK();
}

Status MiniDfs::WriteWithFaultsLocked(const std::string& path,
                                      std::string_view data) {
  if (killed_) return Status::Unavailable("storage layer killed");
  const uint64_t op = ++mutation_ops_;
  if (kill_at_op_ != 0 && op >= kill_at_op_) {
    killed_ = true;
    // The dying writer leaves an arbitrary prefix on disk — the worst case
    // a real crash mid-write produces. The caller never learns how much.
    size_t keep = TornPrefix(UnitFromHash(Mix64(kill_seed_ ^ op)), data.size());
    WriteLocked(path, data.substr(0, keep)).ok();
    return Status::Unavailable("storage layer killed mid-write: " + path);
  }
  if (injector_ != nullptr) {
    WriteFaultDecision d = injector_->EvaluateWrite(op);
    if (d.enospc) {
      ++faults_injected_;
      return Status::ResourceExhausted("injected ENOSPC writing " + path);
    }
    if (d.torn) {
      ++faults_injected_;
      size_t keep = TornPrefix(d.fraction, data.size());
      Status persisted = WriteLocked(path, data.substr(0, keep));
      if (!persisted.ok()) return persisted;
      return Status::IOError("injected torn write on " + path);
    }
    if (d.silent_loss) {
      // The lie at the heart of lost fsyncs: a prefix persists, OK returns.
      ++faults_injected_;
      size_t keep = TornPrefix(d.fraction, data.size());
      return WriteLocked(path, data.substr(0, keep)).ok()
                 ? Status::OK()
                 : Status::Unavailable("no live datanodes");
    }
    if (d.bit_flip && !data.empty()) {
      // Corruption above the replication layer: the flipped byte is what
      // gets checksummed and replicated, so block CRCs read back "clean".
      ++faults_injected_;
      std::string flipped(data);
      size_t at = TornPrefix(d.fraction, flipped.size());
      flipped[at] = static_cast<char>(flipped[at] ^ 0x20);
      return WriteLocked(path, flipped);
    }
  }
  return WriteLocked(path, data);
}

Status MiniDfs::AdmitMutationLocked(const char* what) {
  if (killed_) return Status::Unavailable("storage layer killed");
  const uint64_t op = ++mutation_ops_;
  if (kill_at_op_ != 0 && op >= kill_at_op_) {
    killed_ = true;
    // Metadata ops are atomic: the kill prevents them entirely rather than
    // leaving a half-applied state.
    return Status::Unavailable(std::string("storage layer killed before ") +
                               what);
  }
  return Status::OK();
}

Status MiniDfs::WriteFile(const std::string& path, std::string_view data) {
  CFNET_RETURN_IF_ERROR(ValidatePath(path));
  std::lock_guard<std::mutex> lock(mu_);
  return WriteWithFaultsLocked(path, data);
}

Result<std::string> MiniDfs::ReadBlockLocked(const BlockInfo& info) const {
  bool saw_corrupt = false;
  for (int node : info.replicas) {
    const auto& dn = datanodes_[static_cast<size_t>(node)];
    if (!dn.alive) continue;
    auto it = dn.blocks.find(info.id);
    if (it == dn.blocks.end()) continue;
    // Checksum verification with failover to an intact replica.
    if (Crc32(it->second) != info.checksum) {
      ++corruption_events_;
      saw_corrupt = true;
      continue;
    }
    return it->second;
  }
  return Status::IOError("block " + std::to_string(info.id) +
                         (saw_corrupt ? " has only corrupt live replicas"
                                      : " has no live replica"));
}

Result<std::string> MiniDfs::ReadFile(const std::string& path) const {
  CFNET_RETURN_IF_ERROR(ValidatePath(path));
  std::lock_guard<std::mutex> lock(mu_);
  if (killed_) return Status::Unavailable("storage layer killed");
  const uint64_t op = ++read_ops_;
  auto it = namespace_.find(path);
  if (it == namespace_.end()) {
    return Status::NotFound("no such file: " + path);
  }
  std::string out;
  out.reserve(it->second.length);
  for (const BlockInfo& b : it->second.blocks) {
    auto block = ReadBlockLocked(b);
    if (!block.ok()) return block.status();
    out += *block;
  }
  if (injector_ != nullptr && !out.empty()) {
    ReadFaultDecision d = injector_->EvaluateRead(op);
    if (d.short_read) {
      ++faults_injected_;
      out.resize(TornPrefix(d.fraction, out.size()));
    } else if (d.bit_flip) {
      // Transient in-flight flip: the stored replicas stay intact, only
      // this returned copy is damaged.
      ++faults_injected_;
      size_t at = TornPrefix(d.fraction, out.size());
      out[at] = static_cast<char>(out[at] ^ 0x40);
    }
  }
  return out;
}

Status MiniDfs::Delete(const std::string& path) {
  CFNET_RETURN_IF_ERROR(ValidatePath(path));
  std::lock_guard<std::mutex> lock(mu_);
  CFNET_RETURN_IF_ERROR(AdmitMutationLocked("delete"));
  auto it = namespace_.find(path);
  if (it == namespace_.end()) {
    return Status::NotFound("no such file: " + path);
  }
  FreeBlocksLocked(it->second);
  namespace_.erase(it);
  return Status::OK();
}

Status MiniDfs::Rename(const std::string& from, const std::string& to) {
  CFNET_RETURN_IF_ERROR(ValidatePath(from));
  CFNET_RETURN_IF_ERROR(ValidatePath(to));
  std::lock_guard<std::mutex> lock(mu_);
  CFNET_RETURN_IF_ERROR(AdmitMutationLocked("rename"));
  auto src = namespace_.find(from);
  if (src == namespace_.end()) {
    return Status::NotFound("no such file: " + from);
  }
  if (from == to) return Status::OK();
  auto dst = namespace_.find(to);
  if (dst != namespace_.end()) {
    FreeBlocksLocked(dst->second);
    namespace_.erase(dst);
  }
  // Blocks move with the entry; only the namespace key changes, which is
  // what makes rename the atomic commit point — no byte is ever rewritten.
  namespace_[to] = std::move(src->second);
  namespace_.erase(from);
  return Status::OK();
}

bool MiniDfs::Exists(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  return namespace_.count(path) > 0;
}

Result<uint64_t> MiniDfs::FileSize(const std::string& path) const {
  CFNET_RETURN_IF_ERROR(ValidatePath(path));
  std::lock_guard<std::mutex> lock(mu_);
  auto it = namespace_.find(path);
  if (it == namespace_.end()) {
    return Status::NotFound("no such file: " + path);
  }
  return it->second.length;
}

std::vector<std::string> MiniDfs::List(const std::string& dir_prefix) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  for (auto it = namespace_.lower_bound(dir_prefix); it != namespace_.end();
       ++it) {
    if (!StartsWith(it->first, dir_prefix)) break;
    out.push_back(it->first);
  }
  return out;
}

Result<std::vector<BlockInfo>> MiniDfs::GetBlockLocations(
    const std::string& path) const {
  CFNET_RETURN_IF_ERROR(ValidatePath(path));
  std::lock_guard<std::mutex> lock(mu_);
  auto it = namespace_.find(path);
  if (it == namespace_.end()) {
    return Status::NotFound("no such file: " + path);
  }
  return it->second.blocks;
}

void MiniDfs::InstallFaultPlan(IoFaultPlan plan) {
  std::lock_guard<std::mutex> lock(mu_);
  if (plan.empty()) {
    injector_.reset();
  } else {
    injector_ = std::make_unique<IoFaultInjector>(std::move(plan));
  }
}

void MiniDfs::ArmKill(uint64_t kill_at_op, uint64_t seed) {
  std::lock_guard<std::mutex> lock(mu_);
  kill_at_op_ = kill_at_op;
  kill_seed_ = seed;
  killed_ = false;
}

void MiniDfs::DisarmKill() {
  std::lock_guard<std::mutex> lock(mu_);
  kill_at_op_ = 0;
  killed_ = false;
}

bool MiniDfs::killed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return killed_;
}

Status MiniDfs::KillDataNode(int node) {
  std::lock_guard<std::mutex> lock(mu_);
  if (node < 0 || node >= config_.num_datanodes) {
    return Status::InvalidArgument("bad datanode id");
  }
  datanodes_[static_cast<size_t>(node)].alive = false;
  return Status::OK();
}

Status MiniDfs::ReviveDataNode(int node) {
  std::lock_guard<std::mutex> lock(mu_);
  if (node < 0 || node >= config_.num_datanodes) {
    return Status::InvalidArgument("bad datanode id");
  }
  datanodes_[static_cast<size_t>(node)].alive = true;
  return Status::OK();
}

bool MiniDfs::IsDataNodeAlive(int node) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (node < 0 || node >= config_.num_datanodes) return false;
  return datanodes_[static_cast<size_t>(node)].alive;
}

size_t MiniDfs::RunReplicationMonitor() {
  std::lock_guard<std::mutex> lock(mu_);
  size_t created = 0;
  for (auto& [path, entry] : namespace_) {
    for (BlockInfo& b : entry.blocks) {
      // Scan every live node: intact copies (listed or stale leftovers from
      // earlier incarnations of the replica set) are adopted as holders;
      // copy-less live nodes are re-replication candidates. Corrupt copies
      // are neither (ScrubBlocks reclaims them).
      std::vector<int> holders;
      std::vector<int> candidates;
      const std::string* content = nullptr;
      for (int node = 0; node < config_.num_datanodes; ++node) {
        auto& dn = datanodes_[static_cast<size_t>(node)];
        if (!dn.alive) continue;
        auto it = dn.blocks.find(b.id);
        if (it == dn.blocks.end()) {
          candidates.push_back(node);
          continue;
        }
        if (Crc32(it->second) != b.checksum) continue;
        holders.push_back(node);
        if (content == nullptr) content = &it->second;
      }
      if (content == nullptr) {
        // No live intact copy to replicate from; keep the old replica list
        // so a node revival can still restore the block.
        continue;
      }
      int deficit = config_.replication - static_cast<int>(holders.size());
      std::sort(candidates.begin(), candidates.end(), [this](int a, int c) {
        return datanodes_[static_cast<size_t>(a)].used_bytes <
               datanodes_[static_cast<size_t>(c)].used_bytes;
      });
      for (int i = 0; i < deficit && i < static_cast<int>(candidates.size());
           ++i) {
        int node = candidates[static_cast<size_t>(i)];
        auto& dn = datanodes_[static_cast<size_t>(node)];
        dn.blocks[b.id] = *content;
        dn.used_bytes += content->size();
        holders.push_back(node);
        ++created;
      }
      // New authoritative replica set: live intact copies (dead nodes are
      // forgotten, as HDFS does once the namenode declares them dead).
      b.replicas = holders;
    }
  }
  return created;
}

Status MiniDfs::CorruptReplica(const std::string& path, size_t block_index,
                               int node) {
  CFNET_RETURN_IF_ERROR(ValidatePath(path));
  std::lock_guard<std::mutex> lock(mu_);
  auto it = namespace_.find(path);
  if (it == namespace_.end()) {
    return Status::NotFound("no such file: " + path);
  }
  if (block_index >= it->second.blocks.size()) {
    return Status::OutOfRange("bad block index");
  }
  if (node < 0 || node >= config_.num_datanodes) {
    return Status::InvalidArgument("bad datanode id");
  }
  const BlockInfo& info = it->second.blocks[block_index];
  auto& dn = datanodes_[static_cast<size_t>(node)];
  auto block_it = dn.blocks.find(info.id);
  if (block_it == dn.blocks.end()) {
    return Status::NotFound("node holds no replica of that block");
  }
  if (block_it->second.empty()) {
    return Status::FailedPrecondition("cannot corrupt an empty block");
  }
  block_it->second[0] = static_cast<char>(block_it->second[0] ^ 0x5a);
  return Status::OK();
}

size_t MiniDfs::ScrubBlocks() {
  std::lock_guard<std::mutex> lock(mu_);
  size_t removed = 0;
  for (auto& [path, entry] : namespace_) {
    for (BlockInfo& info : entry.blocks) {
      std::vector<int> intact;
      for (int node : info.replicas) {
        auto& dn = datanodes_[static_cast<size_t>(node)];
        auto it = dn.blocks.find(info.id);
        if (it == dn.blocks.end()) {
          intact.push_back(node);  // absence handled by the monitor
          continue;
        }
        if (Crc32(it->second) != info.checksum) {
          dn.used_bytes -= it->second.size();
          dn.blocks.erase(it);
          ++corruption_events_;
          ++removed;
        } else {
          intact.push_back(node);
        }
      }
      info.replicas = intact;
    }
  }
  return removed;
}

DfsStats MiniDfs::GetStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  DfsStats stats;
  stats.num_files = namespace_.size();
  for (const auto& [path, entry] : namespace_) {
    stats.num_blocks += entry.blocks.size();
    stats.logical_bytes += entry.length;
    for (const BlockInfo& b : entry.blocks) {
      size_t live = 0;
      for (int node : b.replicas) {
        const auto& dn = datanodes_[static_cast<size_t>(node)];
        if (dn.alive && dn.blocks.count(b.id)) ++live;
      }
      if (static_cast<int>(live) < config_.replication) {
        ++stats.under_replicated_blocks;
      }
    }
  }
  for (const auto& dn : datanodes_) {
    if (dn.alive) ++stats.live_datanodes;
    stats.physical_bytes += dn.used_bytes;
  }
  stats.corruption_events_detected = corruption_events_;
  stats.mutation_ops = mutation_ops_;
  stats.read_ops = read_ops_;
  stats.storage_faults_injected = faults_injected_;
  return stats;
}

}  // namespace cfnet::dfs
