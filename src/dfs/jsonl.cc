#include "dfs/jsonl.h"

#include <cstdlib>

namespace cfnet::dfs {

void ScanReport::Merge(const ScanReport& other) {
  files_scanned += other.files_scanned;
  footer_verified_files += other.footer_verified_files;
  bytes_scanned += other.bytes_scanned;
  records_dropped += other.records_dropped;
  quarantined_paths.insert(quarantined_paths.end(),
                           other.quarantined_paths.begin(),
                           other.quarantined_paths.end());
  columnar_files += other.columnar_files;
  columnar_blocks_scanned += other.columnar_blocks_scanned;
  columnar_blocks_failed += other.columnar_blocks_failed;
  columnar_dictionary_bytes += other.columnar_dictionary_bytes;
  columnar_encoded_bytes += other.columnar_encoded_bytes;
  columnar_decoded_bytes += other.columnar_decoded_bytes;
}

std::string SegmentPath(std::string_view prefix, uint64_t seq) {
  std::string path(prefix);
  path += StrFormat("%08llu", static_cast<unsigned long long>(seq));
  path += kJsonLinesSuffix;
  return path;
}

std::vector<std::string> ListSegments(const MiniDfs& dfs,
                                      const std::string& prefix) {
  std::vector<std::string> segments = dfs.List(prefix);
  std::erase_if(segments, [](const std::string& path) {
    return !EndsWith(path, kJsonLinesSuffix);
  });
  return segments;
}

JsonLinesWriter::JsonLinesWriter(MiniDfs* dfs, std::string prefix,
                                 size_t flush_bytes)
    : dfs_(dfs), prefix_(std::move(prefix)), flush_bytes_(flush_bytes) {
  for (const std::string& path : ListSegments(*dfs_, prefix_)) {
    const uint64_t seq =
        std::strtoull(path.c_str() + prefix_.size(), nullptr, 10);
    next_seq_ = std::max(next_seq_, seq + 1);
  }
}

JsonLinesWriter::~JsonLinesWriter() { Flush().ok(); }

Status JsonLinesWriter::Write(const json::Json& record) {
  record.AppendTo(buffer_);
  buffer_ += '\n';
  if (buffer_.size() >= flush_bytes_) return Flush();
  return Status::OK();
}

Status JsonLinesWriter::Flush() {
  if (buffer_.empty()) return Status::OK();
  CFNET_RETURN_IF_ERROR(
      CommitFile(dfs_, SegmentPath(prefix_, next_seq_), buffer_));
  ++next_seq_;
  buffer_.clear();
  return Status::OK();
}

Result<std::vector<json::Json>> ReadJsonLines(const MiniDfs& dfs,
                                              const std::string& path) {
  CFNET_ASSIGN_OR_RETURN(auto parts,
                         ScanJsonLines<json::Json>(dfs, {path}, json::Parse));
  std::vector<json::Json> out;
  for (auto& part : parts) {
    for (json::Json& record : part) out.push_back(std::move(record));
  }
  return out;
}

namespace internal_scan {

Result<ShardLoad> LoadShardContents(const MiniDfs& dfs,
                                    const std::vector<std::string>& paths,
                                    bool salvage, ScanReport* report) {
  ShardLoad load;
  load.contents.reserve(paths.size());
  load.lenient.reserve(paths.size());
  for (const std::string& path : paths) {
    std::string damaged;
    Result<std::string> payload =
        ReadCommitted(dfs, path, salvage ? &damaged : nullptr);
    const bool lenient =
        !payload.ok() && salvage &&
        payload.status().code() == StatusCode::kCorruption;
    if (!payload.ok() && !lenient) return payload.status();
    ++report->files_scanned;
    if (lenient) {
      report->quarantined_paths.push_back(path);
    } else {
      ++report->footer_verified_files;
    }
    load.contents.push_back(lenient ? std::move(damaged)
                                    : std::move(payload).value());
    report->bytes_scanned += load.contents.back().size();
    load.lenient.push_back(lenient ? 1 : 0);
  }
  return load;
}

std::vector<LineRange> SplitLineRanges(const std::vector<std::string>& contents,
                                       size_t target_ranges,
                                       size_t min_range_bytes) {
  uint64_t total_bytes = 0;
  for (const std::string& c : contents) total_bytes += c.size();
  std::vector<LineRange> ranges;
  if (total_bytes == 0) {
    // Degenerate but non-empty result so ScanJsonLines always yields at
    // least one (possibly empty) partition.
    ranges.push_back(LineRange{});
    return ranges;
  }
  // Each file gets a proportional share of the target, then chunk boundaries
  // advance to the next line start so every range is line-aligned.
  const uint64_t chunk_bytes = std::max<uint64_t>(
      min_range_bytes, (total_bytes + target_ranges - 1) / target_ranges);
  for (size_t f = 0; f < contents.size(); ++f) {
    const std::string& content = contents[f];
    if (content.empty()) continue;
    size_t begin = 0;
    int64_t first_line = 1;
    while (begin < content.size()) {
      size_t end = begin + chunk_bytes;
      if (end >= content.size()) {
        end = content.size();
      } else {
        size_t nl = content.find('\n', end - 1);
        end = (nl == std::string::npos) ? content.size() : nl + 1;
      }
      ranges.push_back(LineRange{f, begin, end, first_line});
      // Line numbers count every line (blank included), matching
      // ReadJsonLines error reporting.
      first_line +=
          std::count(content.begin() + static_cast<long>(begin),
                     content.begin() + static_cast<long>(end), '\n');
      begin = end;
    }
  }
  if (ranges.empty()) ranges.push_back(LineRange{});
  return ranges;
}

}  // namespace internal_scan

}  // namespace cfnet::dfs
