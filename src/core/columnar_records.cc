#include "core/columnar_records.h"

#include <algorithm>

#include "util/crc32.h"

namespace cfnet::dfs {

using core::CrunchBaseRecord;
using core::FacebookRecord;
using core::StartupRecord;
using core::TwitterRecord;
using core::UserRecord;

/// Column order within each block payload is the struct field order; the
/// round-trip differential test in columnar_test pins every field.

void ColumnarTraits<StartupRecord>::EncodeBlock(const StartupRecord* rows,
                                                size_t n, std::string& out) {
  AppendDeltaU64Column(n, [&](size_t i) { return rows[i].id; }, out);
  AppendStringDictColumn(
      n, [&](size_t i) -> const std::string& { return rows[i].name; }, out);
  AppendBoolColumn(n, [&](size_t i) { return rows[i].has_twitter_url; }, out);
  AppendBoolColumn(n, [&](size_t i) { return rows[i].has_facebook_url; }, out);
  AppendBoolColumn(n, [&](size_t i) { return rows[i].has_crunchbase_url; },
                   out);
  AppendBoolColumn(n, [&](size_t i) { return rows[i].has_video; }, out);
  AppendBoolColumn(n, [&](size_t i) { return rows[i].fundraising; }, out);
  AppendZigZagI64Column(n, [&](size_t i) { return rows[i].follower_count; },
                        out);
}

bool ColumnarTraits<StartupRecord>::DecodeBlock(ByteReader& r, size_t n,
                                                StartupRecord* rows) {
  return DecodeDeltaU64Column(r, n,
                              [&](size_t i, uint64_t v) { rows[i].id = v; }) &&
         DecodeStringDictColumn(r, n,
                                [&](size_t i, std::string_view s) {
                                  rows[i].name.assign(s.data(), s.size());
                                }) &&
         DecodeBoolColumn(
             r, n, [&](size_t i, bool v) { rows[i].has_twitter_url = v; }) &&
         DecodeBoolColumn(
             r, n, [&](size_t i, bool v) { rows[i].has_facebook_url = v; }) &&
         DecodeBoolColumn(
             r, n,
             [&](size_t i, bool v) { rows[i].has_crunchbase_url = v; }) &&
         DecodeBoolColumn(r, n,
                          [&](size_t i, bool v) { rows[i].has_video = v; }) &&
         DecodeBoolColumn(r, n,
                          [&](size_t i, bool v) { rows[i].fundraising = v; }) &&
         DecodeZigZagI64Column(
             r, n, [&](size_t i, int64_t v) { rows[i].follower_count = v; });
}

void ColumnarTraits<UserRecord>::EncodeBlock(const UserRecord* rows, size_t n,
                                             std::string& out) {
  AppendDeltaU64Column(n, [&](size_t i) { return rows[i].id; }, out);
  AppendBoolColumn(n, [&](size_t i) { return rows[i].is_investor; }, out);
  AppendBoolColumn(n, [&](size_t i) { return rows[i].is_founder; }, out);
  AppendBoolColumn(n, [&](size_t i) { return rows[i].is_employee; }, out);
  AppendU64ListColumn(
      n,
      [&](size_t i) -> const std::vector<uint64_t>& {
        return rows[i].investment_company_ids;
      },
      out);
  AppendZigZagI64Column(
      n, [&](size_t i) { return rows[i].following_startup_count; }, out);
  AppendZigZagI64Column(
      n, [&](size_t i) { return rows[i].following_user_count; }, out);
}

bool ColumnarTraits<UserRecord>::DecodeBlock(ByteReader& r, size_t n,
                                             UserRecord* rows) {
  return DecodeDeltaU64Column(r, n,
                              [&](size_t i, uint64_t v) { rows[i].id = v; }) &&
         DecodeBoolColumn(r, n,
                          [&](size_t i, bool v) { rows[i].is_investor = v; }) &&
         DecodeBoolColumn(r, n,
                          [&](size_t i, bool v) { rows[i].is_founder = v; }) &&
         DecodeBoolColumn(r, n,
                          [&](size_t i, bool v) { rows[i].is_employee = v; }) &&
         DecodeU64ListColumn(r, n,
                             [&](size_t i) -> std::vector<uint64_t>& {
                               return rows[i].investment_company_ids;
                             }) &&
         DecodeZigZagI64Column(
             r, n,
             [&](size_t i, int64_t v) { rows[i].following_startup_count = v; }) &&
         DecodeZigZagI64Column(r, n, [&](size_t i, int64_t v) {
           rows[i].following_user_count = v;
         });
}

void ColumnarTraits<CrunchBaseRecord>::EncodeBlock(
    const CrunchBaseRecord* rows, size_t n, std::string& out) {
  AppendDeltaU64Column(n, [&](size_t i) { return rows[i].angellist_id; }, out);
  AppendF64Column(n, [&](size_t i) { return rows[i].total_funding_usd; }, out);
  AppendZigZagI64Column(n, [&](size_t i) { return rows[i].num_rounds; }, out);
  AppendU64ListColumn(
      n,
      [&](size_t i) -> const std::vector<uint64_t>& {
        return rows[i].round_investor_ids;
      },
      out);
}

bool ColumnarTraits<CrunchBaseRecord>::DecodeBlock(ByteReader& r, size_t n,
                                                   CrunchBaseRecord* rows) {
  return DecodeDeltaU64Column(
             r, n, [&](size_t i, uint64_t v) { rows[i].angellist_id = v; }) &&
         DecodeF64Column(
             r, n,
             [&](size_t i, double v) { rows[i].total_funding_usd = v; }) &&
         DecodeZigZagI64Column(
             r, n, [&](size_t i, int64_t v) { rows[i].num_rounds = v; }) &&
         DecodeU64ListColumn(r, n, [&](size_t i) -> std::vector<uint64_t>& {
           return rows[i].round_investor_ids;
         });
}

void ColumnarTraits<FacebookRecord>::EncodeBlock(const FacebookRecord* rows,
                                                 size_t n, std::string& out) {
  AppendDeltaU64Column(n, [&](size_t i) { return rows[i].angellist_id; }, out);
  AppendZigZagI64Column(n, [&](size_t i) { return rows[i].fan_count; }, out);
}

bool ColumnarTraits<FacebookRecord>::DecodeBlock(ByteReader& r, size_t n,
                                                 FacebookRecord* rows) {
  return DecodeDeltaU64Column(
             r, n, [&](size_t i, uint64_t v) { rows[i].angellist_id = v; }) &&
         DecodeZigZagI64Column(
             r, n, [&](size_t i, int64_t v) { rows[i].fan_count = v; });
}

void ColumnarTraits<TwitterRecord>::EncodeBlock(const TwitterRecord* rows,
                                                size_t n, std::string& out) {
  AppendDeltaU64Column(n, [&](size_t i) { return rows[i].angellist_id; }, out);
  AppendZigZagI64Column(n, [&](size_t i) { return rows[i].statuses_count; },
                        out);
  AppendZigZagI64Column(n, [&](size_t i) { return rows[i].followers_count; },
                        out);
  AppendBoolColumn(n, [&](size_t i) { return rows[i].followers_count_null; },
                   out);
}

bool ColumnarTraits<TwitterRecord>::DecodeBlock(ByteReader& r, size_t n,
                                                TwitterRecord* rows) {
  return DecodeDeltaU64Column(
             r, n, [&](size_t i, uint64_t v) { rows[i].angellist_id = v; }) &&
         DecodeZigZagI64Column(
             r, n, [&](size_t i, int64_t v) { rows[i].statuses_count = v; }) &&
         DecodeZigZagI64Column(
             r, n, [&](size_t i, int64_t v) { rows[i].followers_count = v; }) &&
         DecodeBoolColumn(r, n, [&](size_t i, bool v) {
           rows[i].followers_count_null = v;
         });
}

}  // namespace cfnet::dfs

namespace cfnet::core {

std::string ColumnarPathFor(const std::string& dir) {
  return dir + "part-all" + std::string(dfs::kColumnarSuffix);
}

SnapshotFiles SplitSnapshotFiles(std::vector<std::string> paths) {
  SnapshotFiles out;
  for (std::string& path : paths) {
    if (dfs::IsColumnarPath(path)) {
      out.columnar.push_back(std::move(path));
    } else {
      out.json.push_back(std::move(path));
    }
  }
  return out;
}

uint32_t SnapshotFingerprint(const dfs::MiniDfs& dfs, const std::string& dir) {
  SnapshotFiles files = SplitSnapshotFiles(dfs.List(dir));
  std::sort(files.json.begin(), files.json.end());
  uint32_t crc = 0;
  std::string line;
  for (const std::string& path : files.json) {
    Result<uint64_t> size = dfs.FileSize(path);
    line = path;
    line.push_back(':');
    line += std::to_string(size.ok() ? size.value() : 0);
    line.push_back('\n');
    crc = Crc32Update(crc, line);
  }
  return crc;
}

}  // namespace cfnet::core
