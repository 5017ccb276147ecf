#ifndef CFNET_DFS_COLUMNAR_H_
#define CFNET_DFS_COLUMNAR_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "dfs/commit.h"
#include "dfs/dfs.h"
#include "dfs/jsonl.h"
#include "util/crc32.h"
#include "util/result.h"
#include "util/thread_pool.h"

namespace cfnet::dfs {

/// Blocked columnar snapshot format — the scan-optimised twin of the
/// JSON-lines shard files (which remain the crawl/ingest/dead-letter
/// boundary). One file holds one record type:
///
///     CFNETCOL1 <varint name_len> <type name> <u32 LE source fingerprint>
///     repeat:
///       "CBLK" <varint row_count> <varint payload_len> <payload> <u32 LE crc>
///
/// The per-block CRC32 covers the bytes from the row_count varint through
/// the end of the payload, so a rotted block is skippable without losing its
/// neighbours. Payloads are column-major: each field of the record struct is
/// one densely-encoded column (varint/zig-zag deltas for ids, bit-packed
/// bools, per-block dictionaries for strings — see ColumnarTraits). The whole
/// file is written through the dfs/commit rename protocol, so it also carries
/// the 40-byte CFNETFTR1 footer and participates in SweepDir recovery like
/// every other durable artifact.

inline constexpr std::string_view kColumnarMagic = "CFNETCOL1";
inline constexpr std::string_view kBlockMagic = "CBLK";
/// File suffix columnar snapshots are stored under; JSON loaders skip it.
inline constexpr std::string_view kColumnarSuffix = ".cfc";
/// Frame-walk sanity bound: a declared row count above this is treated as
/// frame damage rather than honoured with a giant allocation.
inline constexpr uint64_t kMaxBlockRows = uint64_t{1} << 26;

inline bool IsColumnarPath(std::string_view path) {
  return path.size() >= kColumnarSuffix.size() &&
         path.substr(path.size() - kColumnarSuffix.size()) == kColumnarSuffix;
}

/// --- primitive codecs -------------------------------------------------------

inline void AppendUVarint(std::string& out, uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<char>(v | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

inline uint64_t ZigZagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}

inline int64_t ZigZagDecode(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

inline void AppendU32LE(std::string& out, uint32_t v) {
  char b[4];
  b[0] = static_cast<char>(v);
  b[1] = static_cast<char>(v >> 8);
  b[2] = static_cast<char>(v >> 16);
  b[3] = static_cast<char>(v >> 24);
  out.append(b, 4);
}

inline void AppendF64LE(std::string& out, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, 8);
  char b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<char>(bits >> (8 * i));
  out.append(b, 8);
}

/// Bounds-checked cursor over an encoded region. Every Read* returns false
/// instead of walking past the end, so a decoder can never be driven out of
/// its block by damaged bytes.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data)
      : p_(data.data()), end_(data.data() + data.size()) {}

  bool ReadUVarint(uint64_t* out) {
    uint64_t v = 0;
    for (int shift = 0;; shift += 7) {
      if (p_ == end_) return false;
      uint8_t byte = static_cast<uint8_t>(*p_++);
      // The 10th byte carries bit 63 alone: anything above 1 would overflow
      // 64 bits or make the varint longer than 10 bytes.
      if (shift == 63 && byte > 1) return false;
      v |= static_cast<uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) {
        *out = v;
        return true;
      }
    }
  }

  bool ReadRaw(size_t n, std::string_view* out) {
    if (remaining() < n) return false;
    *out = std::string_view(p_, n);
    p_ += n;
    return true;
  }

  bool ReadU32LE(uint32_t* out) {
    std::string_view raw;
    if (!ReadRaw(4, &raw)) return false;
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(static_cast<uint8_t>(raw[i])) << (8 * i);
    }
    *out = v;
    return true;
  }

  bool ReadF64LE(double* out) {
    std::string_view raw;
    if (!ReadRaw(8, &raw)) return false;
    uint64_t bits = 0;
    for (int i = 0; i < 8; ++i) {
      bits |= static_cast<uint64_t>(static_cast<uint8_t>(raw[i])) << (8 * i);
    }
    std::memcpy(out, &bits, 8);
    return true;
  }

  bool done() const { return p_ == end_; }
  size_t remaining() const { return static_cast<size_t>(end_ - p_); }

 private:
  const char* p_;
  const char* end_;
};

/// --- column codecs ----------------------------------------------------------
///
/// Encoders take `get(i)` accessors and append to a payload string; decoders
/// take `set(i, value)` sinks and pull from a ByteReader, returning false on
/// malformed bytes. Writing through accessors lets ColumnarTraits encode
/// struct fields column-by-column without transposing rows into scratch
/// arrays.

/// Unsigned ids / timestamps: zig-zag varint of the delta to the previous
/// row. Crawl snapshots append in roughly ascending id order, so deltas are
/// small and most rows take one byte.
template <typename GetFn>
void AppendDeltaU64Column(size_t n, GetFn get, std::string& out) {
  uint64_t prev = 0;
  for (size_t i = 0; i < n; ++i) {
    uint64_t v = get(i);
    AppendUVarint(out, ZigZagEncode(static_cast<int64_t>(v - prev)));
    prev = v;
  }
}

template <typename SetFn>
bool DecodeDeltaU64Column(ByteReader& r, size_t n, SetFn set) {
  uint64_t prev = 0;
  for (size_t i = 0; i < n; ++i) {
    uint64_t d;
    if (!r.ReadUVarint(&d)) return false;
    prev += static_cast<uint64_t>(ZigZagDecode(d));
    set(i, prev);
  }
  return true;
}

/// Signed counters: plain zig-zag varints (values cluster near zero but are
/// not monotone, so deltas would not help).
template <typename GetFn>
void AppendZigZagI64Column(size_t n, GetFn get, std::string& out) {
  for (size_t i = 0; i < n; ++i) {
    AppendUVarint(out, ZigZagEncode(get(i)));
  }
}

template <typename SetFn>
bool DecodeZigZagI64Column(ByteReader& r, size_t n, SetFn set) {
  for (size_t i = 0; i < n; ++i) {
    uint64_t v;
    if (!r.ReadUVarint(&v)) return false;
    set(i, ZigZagDecode(v));
  }
  return true;
}

/// Bools: bit-packed, eight rows per byte, LSB first.
template <typename GetFn>
void AppendBoolColumn(size_t n, GetFn get, std::string& out) {
  for (size_t i = 0; i < n; i += 8) {
    uint8_t byte = 0;
    for (size_t j = 0; j < 8 && i + j < n; ++j) {
      if (get(i + j)) byte |= uint8_t{1} << j;
    }
    out.push_back(static_cast<char>(byte));
  }
}

template <typename SetFn>
bool DecodeBoolColumn(ByteReader& r, size_t n, SetFn set) {
  std::string_view bits;
  if (!r.ReadRaw((n + 7) / 8, &bits)) return false;
  for (size_t i = 0; i < n; ++i) {
    set(i, (static_cast<uint8_t>(bits[i >> 3]) >> (i & 7)) & 1);
  }
  return true;
}

/// Doubles: raw 8-byte little-endian (funding amounts do not compress well
/// and must round-trip bit-exactly).
template <typename GetFn>
void AppendF64Column(size_t n, GetFn get, std::string& out) {
  for (size_t i = 0; i < n; ++i) AppendF64LE(out, get(i));
}

template <typename SetFn>
bool DecodeF64Column(ByteReader& r, size_t n, SetFn set) {
  for (size_t i = 0; i < n; ++i) {
    double v;
    if (!r.ReadF64LE(&v)) return false;
    set(i, v);
  }
  return true;
}

/// Strings: per-block dictionary in first-seen order, then one varint code
/// per row. Returns the dictionary byte count (for the scan report).
template <typename GetFn>  // get(i) -> const std::string& (or string_view)
uint64_t AppendStringDictColumn(size_t n, GetFn get, std::string& out) {
  std::unordered_map<std::string_view, uint64_t> index;
  std::vector<std::string_view> entries;
  std::vector<uint64_t> codes(n);
  for (size_t i = 0; i < n; ++i) {
    std::string_view s = get(i);
    auto [it, added] = index.emplace(s, entries.size());
    if (added) entries.push_back(s);
    codes[i] = it->second;
  }
  AppendUVarint(out, entries.size());
  uint64_t dict_bytes = 0;
  for (std::string_view e : entries) {
    AppendUVarint(out, e.size());
    out.append(e);
    dict_bytes += e.size();
  }
  for (uint64_t c : codes) AppendUVarint(out, c);
  return dict_bytes;
}

template <typename SetFn>  // set(i, std::string_view)
bool DecodeStringDictColumn(ByteReader& r, size_t n, SetFn set,
                            uint64_t* dictionary_bytes) {
  uint64_t count;
  if (!r.ReadUVarint(&count)) return false;
  if (count > r.remaining()) return false;  // every entry needs >= 1 byte
  std::vector<std::string_view> entries(count);
  for (uint64_t k = 0; k < count; ++k) {
    uint64_t len;
    if (!r.ReadUVarint(&len) || !r.ReadRaw(len, &entries[k])) return false;
    *dictionary_bytes += len;
  }
  for (size_t i = 0; i < n; ++i) {
    uint64_t code;
    if (!r.ReadUVarint(&code) || code >= count) return false;
    set(i, entries[code]);
  }
  return true;
}

/// u64 lists (investment edges): varint lengths for all rows, then each
/// row's values as intra-list zig-zag deltas.
template <typename GetFn>  // get(i) -> const std::vector<uint64_t>&
void AppendU64ListColumn(size_t n, GetFn get, std::string& out) {
  for (size_t i = 0; i < n; ++i) AppendUVarint(out, get(i).size());
  for (size_t i = 0; i < n; ++i) {
    uint64_t prev = 0;
    for (uint64_t v : get(i)) {
      AppendUVarint(out, ZigZagEncode(static_cast<int64_t>(v - prev)));
      prev = v;
    }
  }
}

template <typename AtFn>  // at(i) -> std::vector<uint64_t>& (to fill)
bool DecodeU64ListColumn(ByteReader& r, size_t n, AtFn at) {
  std::vector<uint64_t> lens(n);
  for (size_t i = 0; i < n; ++i) {
    if (!r.ReadUVarint(&lens[i])) return false;
    if (lens[i] > r.remaining()) return false;  // every value needs >= 1 byte
  }
  for (size_t i = 0; i < n; ++i) {
    std::vector<uint64_t>& vals = at(i);
    vals.resize(lens[i]);
    uint64_t prev = 0;
    for (uint64_t& v : vals) {
      uint64_t d;
      if (!r.ReadUVarint(&d)) return false;
      prev += static_cast<uint64_t>(ZigZagDecode(d));
      v = prev;
    }
  }
  return true;
}

/// --- record-type plumbing ---------------------------------------------------

/// Per-record-type columnar codec. Specialized for the five record structs in
/// core/columnar_records.h (the traits live with the types, not here, so the
/// dfs layer stays record-agnostic). Each specialization provides:
///
///   static constexpr std::string_view kTypeName;   // pinned in the header
///   static void EncodeBlock(const T* rows, size_t n, std::string& out);
///   static bool DecodeBlock(ByteReader& r, size_t n, T* rows,
///                           uint64_t* dictionary_bytes);
///   static uint64_t RowBytes(const T& row);  // decoded in-memory footprint
///
/// Every record type's first column is a delta-varint id, so every row
/// takes at least one payload byte: WalkBlocks rejects a frame whose row
/// count exceeds its payload length before any decoder sizes its output.
template <typename T>
struct ColumnarTraits;

/// File-header fields (views into the loaded file bytes).
struct ColumnarHeader {
  std::string_view type_name;
  /// CRC32 fingerprint of the JSON shards this file was compacted from;
  /// loaders fall back to JSON when the live shards no longer match (e.g.
  /// dead-letter replay appended records after compaction).
  uint32_t source_fingerprint = 0;
};

void AppendColumnarHeader(std::string& out, std::string_view type_name,
                          uint32_t source_fingerprint);

/// Parses the header, leaving `r` at the first block frame.
Status ParseColumnarHeader(ByteReader& r, std::string_view path,
                           ColumnarHeader* out);

/// One walked block frame (views into the loaded file bytes).
struct RawBlock {
  uint64_t row_count = 0;
  std::string_view payload;
  /// Bytes the stored CRC covers: row_count varint through payload end.
  std::string_view crc_region;
  uint32_t stored_crc = 0;
};

/// Walks block frames from `r` until end-of-file or damage. Frames walked
/// before any damage are always appended to `out`; damage (bad magic,
/// truncated frame, more rows than payload bytes) returns Corruption —
/// there are no sync markers, so nothing after a broken frame is
/// recoverable and the caller decides whether that is fatal (strict) or
/// just truncates the file at the damage point (salvage).
Status WalkBlocks(ByteReader& r, std::string_view path,
                  std::vector<RawBlock>* out);

/// Summary of a committed columnar file (no payload decode).
struct ColumnarFileInfo {
  std::string type_name;
  uint32_t source_fingerprint = 0;
  uint64_t blocks = 0;
  uint64_t rows = 0;
};

Result<ColumnarFileInfo> InspectColumnarFile(MiniDfs* dfs,
                                             const std::string& path);

/// Header-only read of the stored source fingerprint — the staleness check
/// loaders run before trusting a columnar file over the live JSON shards.
/// Damage (see ReadCommitted) or a smashed header fails Corruption (callers
/// fall back to JSON).
Result<uint32_t> ReadColumnarFingerprint(const MiniDfs& dfs,
                                         const std::string& path);

/// --- writer -----------------------------------------------------------------

struct ColumnarWriteOptions {
  /// Rows buffered per block. Bigger blocks amortise frame overhead and give
  /// dictionaries more hits; smaller blocks parallelise and salvage at finer
  /// grain (bench_ingest sweeps 64k/256k/1M).
  size_t block_rows = 64 * 1024;
  /// Stored in the header; see ColumnarHeader::source_fingerprint.
  uint32_t source_fingerprint = 0;
};

/// Buffers rows, encodes full blocks eagerly, and commits the whole file
/// atomically on Finish() — a crash at any point leaves either the previous
/// committed content or nothing, never a torn file.
template <typename T>
class ColumnarWriter {
 public:
  ColumnarWriter(MiniDfs* dfs, std::string path,
                 ColumnarWriteOptions options = {})
      : dfs_(dfs), path_(std::move(path)), options_(options) {
    if (options_.block_rows == 0) options_.block_rows = 64 * 1024;
    AppendColumnarHeader(encoded_, ColumnarTraits<T>::kTypeName,
                         options_.source_fingerprint);
  }

  void Add(const T& row) {
    buffer_.push_back(row);
    if (buffer_.size() >= options_.block_rows) EncodeBufferedBlock();
  }
  void Add(T&& row) {
    buffer_.push_back(std::move(row));
    if (buffer_.size() >= options_.block_rows) EncodeBufferedBlock();
  }

  /// Encodes any buffered tail block and commits the file.
  Status Finish() {
    if (!buffer_.empty()) EncodeBufferedBlock();
    return CommitFile(dfs_, path_, encoded_);
  }

  uint64_t rows_added() const { return rows_added_; }
  const std::string& path() const { return path_; }

 private:
  void EncodeBufferedBlock() {
    encoded_.append(kBlockMagic);
    const size_t crc_begin = encoded_.size();
    AppendUVarint(encoded_, buffer_.size());
    payload_.clear();
    ColumnarTraits<T>::EncodeBlock(buffer_.data(), buffer_.size(), payload_);
    AppendUVarint(encoded_, payload_.size());
    encoded_.append(payload_);
    const uint32_t crc =
        Crc32(std::string_view(encoded_).substr(crc_begin));
    AppendU32LE(encoded_, crc);
    rows_added_ += buffer_.size();
    buffer_.clear();
  }

  MiniDfs* dfs_;
  std::string path_;
  ColumnarWriteOptions options_;
  std::vector<T> buffer_;
  std::string payload_;  // reused per-block scratch
  std::string encoded_;
  uint64_t rows_added_ = 0;
};

/// --- scan -------------------------------------------------------------------

/// Block-parallel scan over committed columnar files: loads each file once
/// (footer verified/stripped by the shared shard loader), walks the block
/// frames, then CRC-checks and column-decodes every block as its own
/// partition on `options.pool` — blocks decode straight into pre-sized
/// record vectors, and block payloads are string_views into the loaded file
/// bytes (no re-buffering).
///
/// Flattened partition order equals write order. Strict mode fails on any
/// damage; salvage mode mirrors the JSON scan contract — footer-verified
/// files still decode strictly (their bytes are proven intact), while
/// damaged files drop CRC-failed blocks (and anything after a broken frame)
/// into the report instead of failing the scan.
template <typename T>
Result<std::vector<std::vector<T>>> ScanColumnBlocks(
    const MiniDfs& dfs, const std::vector<std::string>& paths,
    const ScanOptions& options = ScanOptions()) {
  ScanReport scratch_report;
  ScanReport* report =
      options.report != nullptr ? options.report : &scratch_report;
  CFNET_ASSIGN_OR_RETURN(
      internal_scan::ShardLoad load,
      internal_scan::LoadShardContents(dfs, paths, options.salvage, report));
  report->columnar_files += paths.size();

  struct BlockRef {
    size_t file;
    bool lenient;
    RawBlock raw;
  };
  std::vector<BlockRef> blocks;
  for (size_t f = 0; f < load.contents.size(); ++f) {
    const bool lenient = load.lenient[f] != 0;
    ByteReader r(load.contents[f]);
    ColumnarHeader header;
    Status hs = ParseColumnarHeader(r, paths[f], &header);
    if (hs.ok() && header.type_name != ColumnarTraits<T>::kTypeName) {
      hs = Status::Corruption(paths[f] + ": columnar type mismatch: file has '" +
                              std::string(header.type_name) + "', expected '" +
                              std::string(ColumnarTraits<T>::kTypeName) + "'");
    }
    if (!hs.ok()) {
      if (lenient) continue;  // salvaged file with a smashed header: skip it
      return hs;
    }
    std::vector<RawBlock> raws;
    Status ws = WalkBlocks(r, paths[f], &raws);
    if (!ws.ok() && !lenient) return ws;
    for (RawBlock& raw : raws) blocks.push_back({f, lenient, raw});
  }

  std::vector<std::vector<T>> parts(blocks.size());
  std::vector<Status> errors(blocks.size(), Status::OK());
  std::vector<uint64_t> dropped(blocks.size(), 0);
  std::vector<uint64_t> failed(blocks.size(), 0);
  std::vector<uint64_t> dict_bytes(blocks.size(), 0);
  std::vector<uint64_t> encoded_bytes(blocks.size(), 0);
  std::vector<uint64_t> decoded_bytes(blocks.size(), 0);
  auto run_block = [&](size_t i) {
    const BlockRef& b = blocks[i];
    if (Crc32(b.raw.crc_region) != b.raw.stored_crc) {
      if (b.lenient) {
        failed[i] = 1;
        dropped[i] = b.raw.row_count;
        return;
      }
      errors[i] = Status::Corruption(paths[b.file] + ": block " +
                                     std::to_string(i) + " CRC mismatch");
      return;
    }
    std::vector<T>& out = parts[i];
    out.resize(b.raw.row_count);
    ByteReader pr(b.raw.payload);
    uint64_t dict = 0;
    if (!ColumnarTraits<T>::DecodeBlock(pr, out.size(), out.data(), &dict) ||
        !pr.done()) {
      out.clear();
      if (b.lenient) {
        failed[i] = 1;
        dropped[i] = b.raw.row_count;
        return;
      }
      errors[i] = Status::Corruption(paths[b.file] + ": block " +
                                     std::to_string(i) +
                                     " column decode failed");
      return;
    }
    dict_bytes[i] = dict;
    encoded_bytes[i] = b.raw.payload.size();
    uint64_t decoded = 0;
    for (const T& row : out) decoded += ColumnarTraits<T>::RowBytes(row);
    decoded_bytes[i] = decoded;
  };
  if (options.pool != nullptr && blocks.size() > 1) {
    options.pool->RunBulk(blocks.size(), run_block);
  } else {
    for (size_t i = 0; i < blocks.size(); ++i) run_block(i);
  }
  for (size_t i = 0; i < blocks.size(); ++i) {
    if (!errors[i].ok()) return errors[i];
  }
  report->columnar_blocks_scanned += blocks.size();
  for (size_t i = 0; i < blocks.size(); ++i) {
    report->columnar_blocks_failed += failed[i];
    report->records_dropped += dropped[i];
    report->columnar_dictionary_bytes += dict_bytes[i];
    report->columnar_encoded_bytes += encoded_bytes[i];
    report->columnar_decoded_bytes += decoded_bytes[i];
  }
  return parts;
}

}  // namespace cfnet::dfs

#endif  // CFNET_DFS_COLUMNAR_H_
