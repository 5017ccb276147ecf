#include "dfs/dfs.h"

#include <utility>

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

Status MiniDfs::WriteWithFaultsLocked(const std::string& path,
                                      std::string_view data) {
  if (killed_) return Status::Unavailable("storage layer killed");
  const uint64_t op = ++mutation_ops_;
  if (kill_at_op_ != 0 && op >= kill_at_op_) {
    killed_ = true;
    // The dying writer leaves an arbitrary prefix on disk — the worst case
    // a real crash mid-write produces. The caller never learns how much.
    size_t keep = TornPrefix(UnitFromHash(Mix64(kill_seed_ ^ op)), data.size());
    files_.insert_or_assign(path, std::string(data.substr(0, keep)));
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
      files_.insert_or_assign(path, std::string(data.substr(0, keep)));
      return Status::IOError("injected torn write on " + path);
    }
    if (d.silent_loss) {
      // The lie at the heart of lost fsyncs: a prefix persists, OK returns.
      ++faults_injected_;
      size_t keep = TornPrefix(d.fraction, data.size());
      files_.insert_or_assign(path, std::string(data.substr(0, keep)));
      return Status::OK();
    }
    if (d.bit_flip && !data.empty()) {
      // A rotten write buffer: the flipped byte is what gets stored, and
      // the write reports success. Only the commit footer can catch it.
      ++faults_injected_;
      std::string flipped(data);
      size_t at = TornPrefix(d.fraction, flipped.size());
      flipped[at] = static_cast<char>(flipped[at] ^ 0x20);
      files_.insert_or_assign(path, std::move(flipped));
      return Status::OK();
    }
  }
  files_.insert_or_assign(path, std::string(data));
  return Status::OK();
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

Result<std::string> MiniDfs::ReadFile(const std::string& path) const {
  CFNET_RETURN_IF_ERROR(ValidatePath(path));
  std::lock_guard<std::mutex> lock(mu_);
  if (killed_) return Status::Unavailable("storage layer killed");
  const uint64_t op = ++read_ops_;
  auto it = files_.find(path);
  if (it == files_.end()) {
    return Status::NotFound("no such file: " + path);
  }
  std::string out = it->second;
  if (injector_ != nullptr && !out.empty()) {
    ReadFaultDecision d = injector_->EvaluateRead(op);
    if (d.short_read) {
      ++faults_injected_;
      out.resize(TornPrefix(d.fraction, out.size()));
    } else if (d.bit_flip) {
      // Transient in-flight flip: the stored bytes stay intact, only this
      // returned copy is damaged.
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
  if (files_.erase(path) == 0) {
    return Status::NotFound("no such file: " + path);
  }
  return Status::OK();
}

Status MiniDfs::Rename(const std::string& from, const std::string& to) {
  CFNET_RETURN_IF_ERROR(ValidatePath(from));
  CFNET_RETURN_IF_ERROR(ValidatePath(to));
  std::lock_guard<std::mutex> lock(mu_);
  CFNET_RETURN_IF_ERROR(AdmitMutationLocked("rename"));
  auto src = files_.find(from);
  if (src == files_.end()) {
    return Status::NotFound("no such file: " + from);
  }
  if (from == to) return Status::OK();
  // The bytes move with the entry; only the namespace key changes, which is
  // what makes rename the atomic commit point — no byte is ever rewritten.
  files_.erase(to);
  auto entry = files_.extract(src);
  entry.key() = to;
  files_.insert(std::move(entry));
  return Status::OK();
}

bool MiniDfs::Exists(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  return files_.count(path) > 0;
}

Result<uint64_t> MiniDfs::FileSize(const std::string& path) const {
  CFNET_RETURN_IF_ERROR(ValidatePath(path));
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(path);
  if (it == files_.end()) {
    return Status::NotFound("no such file: " + path);
  }
  return it->second.size();
}

std::vector<std::string> MiniDfs::List(const std::string& dir_prefix) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  for (auto it = files_.lower_bound(dir_prefix); it != files_.end(); ++it) {
    if (!StartsWith(it->first, dir_prefix)) break;
    out.push_back(it->first);
  }
  return out;
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

DfsStats MiniDfs::GetStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  DfsStats stats;
  stats.num_files = files_.size();
  for (const auto& [path, bytes] : files_) stats.logical_bytes += bytes.size();
  stats.mutation_ops = mutation_ops_;
  stats.read_ops = read_ops_;
  stats.storage_faults_injected = faults_injected_;
  return stats;
}

}  // namespace cfnet::dfs
