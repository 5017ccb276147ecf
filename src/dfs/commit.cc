#include "dfs/commit.h"

#include <cinttypes>
#include <cstdio>

#include "util/crc32.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace cfnet::dfs {
namespace {

/// Parses exactly `len` hex/decimal digits; returns false on any non-digit.
bool ParseHex32(std::string_view s, uint32_t* out) {
  uint32_t v = 0;
  if (s.size() != 8) return false;
  for (char c : s) {
    v <<= 4;
    if (c >= '0' && c <= '9') {
      v |= static_cast<uint32_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      v |= static_cast<uint32_t>(c - 'a' + 10);
    } else {
      return false;
    }
  }
  *out = v;
  return true;
}

bool ParseDec64(std::string_view s, uint64_t* out) {
  uint64_t v = 0;
  if (s.empty()) return false;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<uint64_t>(c - '0');
  }
  *out = v;
  return true;
}

}  // namespace

std::string MakeCommitFooter(uint32_t payload_crc, uint64_t payload_len) {
  char buf[kCommitFooterSize + 1];
  int n = std::snprintf(buf, sizeof(buf), "%s %08x %020" PRIu64 "\n",
                        std::string(kCommitFooterMagic).c_str(), payload_crc,
                        payload_len);
  (void)n;
  return std::string(buf, kCommitFooterSize);
}

FooterState InspectFooter(std::string_view file, uint64_t* payload_len) {
  if (file.size() < kCommitFooterSize) return FooterState::kAbsent;
  std::string_view footer = file.substr(file.size() - kCommitFooterSize);
  if (footer.substr(0, kCommitFooterMagic.size()) != kCommitFooterMagic ||
      footer[kCommitFooterMagic.size()] != ' ') {
    return FooterState::kAbsent;
  }
  // Layout: "CFNETFTR1 " + 8 hex + " " + 20 dec + "\n".
  std::string_view crc_field = footer.substr(kCommitFooterMagic.size() + 1, 8);
  std::string_view len_field = footer.substr(kCommitFooterMagic.size() + 10, 20);
  uint32_t crc = 0;
  uint64_t len = 0;
  if (footer[kCommitFooterMagic.size() + 9] != ' ' || footer.back() != '\n' ||
      !ParseHex32(crc_field, &crc) || !ParseDec64(len_field, &len)) {
    return FooterState::kCorrupt;
  }
  std::string_view payload = file.substr(0, file.size() - kCommitFooterSize);
  if (len != payload.size() || Crc32(payload) != crc) {
    return FooterState::kCorrupt;
  }
  if (payload_len != nullptr) *payload_len = payload.size();
  return FooterState::kValid;
}

std::string TempPath(const std::string& path) {
  return path + std::string(kTempSuffix);
}

bool IsTempPath(std::string_view path) {
  return path.size() >= kTempSuffix.size() &&
         path.substr(path.size() - kTempSuffix.size()) == kTempSuffix;
}

std::string QuarantinePath(const std::string& path) {
  return std::string(kQuarantineRoot) + path;
}

Status CommitFile(MiniDfs* dfs, const std::string& path,
                  std::string_view payload) {
  const std::string tmp = TempPath(path);
  std::string framed;
  framed.reserve(payload.size() + kCommitFooterSize);
  framed.append(payload.data(), payload.size());
  framed += MakeCommitFooter(Crc32(payload), payload.size());

  Status last = Status::Internal("commit never attempted");
  for (int attempt = 0; attempt < kCommitAttempts; ++attempt) {
    last = dfs->WriteFile(tmp, framed);
    if (!last.ok()) continue;
    // The read-back is the only step that catches silent fsync loss and
    // write-buffer bit flips: the write reported OK, but did the bytes
    // actually land?
    auto back = dfs->ReadFile(tmp);
    if (!back.ok()) {
      last = back.status();
      continue;
    }
    if (InspectFooter(*back, nullptr) != FooterState::kValid) {
      last = Status::Corruption("commit verification failed for " + tmp);
      continue;
    }
    last = dfs->Rename(tmp, path);
    if (last.ok()) return Status::OK();
  }
  dfs->Delete(tmp).ok();  // best-effort GC; the startup sweep also catches it
  return last;
}

Result<std::string> ReadCommitted(const MiniDfs& dfs, const std::string& path,
                                  std::string* damaged) {
  Status last = Status::Internal("read never attempted");
  for (int attempt = 0; attempt < kCommitAttempts; ++attempt) {
    auto content = dfs.ReadFile(path);
    if (!content.ok()) {
      last = content.status();
      if (last.code() == StatusCode::kNotFound) return last;
      continue;
    }
    uint64_t payload_len = 0;
    const FooterState footer = InspectFooter(*content, &payload_len);
    if (footer == FooterState::kValid) {
      content->resize(payload_len);
      return std::move(*content);
    }
    // A short read or an in-flight flip looks exactly like damage at rest;
    // only a retry, which reads the stored bytes again, tells them apart.
    last = Status::Corruption(
        (footer == FooterState::kAbsent ? "missing commit footer on "
                                        : "corrupt commit footer on ") +
        path);
    if (damaged != nullptr) {
      // An intact magic proves the last 40 bytes are footer, not payload.
      if (footer == FooterState::kCorrupt) {
        content->resize(content->size() - kCommitFooterSize);
      }
      *damaged = std::move(*content);
    }
  }
  return last;
}

RecoveryReport SweepDir(MiniDfs* dfs, const std::string& dir_prefix) {
  RecoveryReport report;
  for (const std::string& path : dfs->List(dir_prefix)) {
    if (IsTempPath(path)) {
      // The rename never happened, so this file is not part of any commit
      // history — deleting it cannot lose acknowledged data.
      if (dfs->Delete(path).ok()) ++report.temp_files_removed;
      continue;
    }
    // Only the final verdict counts: a transient read fault must not
    // quarantine a healthy file, and a file that cannot be read at all is
    // not known to be damaged.
    auto content = ReadCommitted(*dfs, path);
    if (content.ok() || content.status().code() != StatusCode::kCorruption) {
      continue;
    }
    if (dfs->Rename(path, QuarantinePath(path)).ok()) {
      ++report.files_quarantined;
      report.quarantined_paths.push_back(QuarantinePath(path));
    }
  }
  if (!report.clean()) {
    CFNET_LOG(Info) << "storage recovery sweep of " << dir_prefix
                    << ": removed " << report.temp_files_removed
                    << " orphaned temp file(s), quarantined "
                    << report.files_quarantined << " corrupt file(s)";
  }
  return report;
}

}  // namespace cfnet::dfs
