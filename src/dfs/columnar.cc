#include "dfs/columnar.h"

namespace cfnet::dfs {

void AppendColumnarHeader(std::string& out, std::string_view type_name,
                          uint32_t source_fingerprint) {
  out.append(kColumnarMagic);
  AppendUVarint(out, type_name.size());
  out.append(type_name);
  AppendU32LE(out, source_fingerprint);
}

Status ParseColumnarHeader(ByteReader& r, std::string_view path,
                           ColumnarHeader* out) {
  std::string_view magic;
  if (!r.ReadRaw(kColumnarMagic.size(), &magic) || magic != kColumnarMagic) {
    return Status::Corruption(std::string(path) +
                              ": not a columnar file (bad magic)");
  }
  uint64_t name_len;
  if (!r.ReadUVarint(&name_len) || name_len > 256 ||
      !r.ReadRaw(name_len, &out->type_name)) {
    return Status::Corruption(std::string(path) +
                              ": columnar header type name damaged");
  }
  if (!r.ReadU32LE(&out->source_fingerprint)) {
    return Status::Corruption(std::string(path) +
                              ": columnar header fingerprint truncated");
  }
  return Status::OK();
}

Status WalkBlocks(ByteReader& r, std::string_view path,
                  std::vector<RawBlock>* out) {
  while (!r.done()) {
    std::string_view magic;
    if (!r.ReadRaw(kBlockMagic.size(), &magic) || magic != kBlockMagic) {
      return Status::Corruption(std::string(path) + ": block " +
                                std::to_string(out->size()) +
                                ": bad frame magic");
    }
    // The CRC region starts at the row_count varint; capture the remainder
    // now and trim it to the region width once the payload length is known.
    std::string_view frame_rest;
    const size_t rest_len = r.remaining();
    ByteReader peek = r;
    peek.ReadRaw(rest_len, &frame_rest);
    RawBlock block;
    uint64_t payload_len;
    // Every row encodes to at least one payload byte (ColumnarTraits), so a
    // row count above the payload length is damage, not a huge allocation.
    if (!r.ReadUVarint(&block.row_count) || block.row_count > kMaxBlockRows ||
        !r.ReadUVarint(&payload_len) || block.row_count > payload_len ||
        !r.ReadRaw(payload_len, &block.payload)) {
      return Status::Corruption(std::string(path) + ": block " +
                                std::to_string(out->size()) +
                                ": frame truncated or damaged");
    }
    block.crc_region = frame_rest.substr(0, rest_len - r.remaining());
    if (!r.ReadU32LE(&block.stored_crc)) {
      return Status::Corruption(std::string(path) + ": block " +
                                std::to_string(out->size()) +
                                ": frame CRC truncated");
    }
    out->push_back(block);
  }
  return Status::OK();
}

Result<uint32_t> ReadColumnarFingerprint(const MiniDfs& dfs,
                                         const std::string& path) {
  CFNET_ASSIGN_OR_RETURN(std::string content, ReadCommitted(dfs, path));
  ByteReader r(content);
  ColumnarHeader header;
  CFNET_RETURN_IF_ERROR(ParseColumnarHeader(r, path, &header));
  return header.source_fingerprint;
}

Result<ColumnarFileInfo> InspectColumnarFile(MiniDfs* dfs,
                                             const std::string& path) {
  CFNET_ASSIGN_OR_RETURN(std::string content, ReadCommitted(*dfs, path));
  ByteReader r(content);
  ColumnarHeader header;
  CFNET_RETURN_IF_ERROR(ParseColumnarHeader(r, path, &header));
  std::vector<RawBlock> blocks;
  CFNET_RETURN_IF_ERROR(WalkBlocks(r, path, &blocks));
  ColumnarFileInfo info;
  info.type_name = std::string(header.type_name);
  info.source_fingerprint = header.source_fingerprint;
  info.blocks = blocks.size();
  for (const RawBlock& b : blocks) info.rows += b.row_count;
  return info;
}

}  // namespace cfnet::dfs
