// Wire encoding primitives.
//
// All Pileus RPC messages are encoded with this hand-rolled format:
// little-endian fixed integers, LEB128 varints, and length-prefixed byte
// strings. Decoding never trusts the input: every read is bounds-checked and
// failures surface as kCorruption, so a malformed or truncated frame cannot
// crash a storage node.

#ifndef PILEUS_SRC_UTIL_CODEC_H_
#define PILEUS_SRC_UTIL_CODEC_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/common/timestamp.h"

namespace pileus {

// Appends binary fields to a growable buffer.
class Encoder {
 public:
  Encoder() = default;
  // Appends after the bytes already in `buf` (build a frame header and its
  // message in one buffer; take it back with Release()).
  explicit Encoder(std::string buf) : buf_(std::move(buf)) {}

  void PutUint8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }

  void PutFixed32(uint32_t v);
  void PutFixed64(uint64_t v);

  // Unsigned LEB128.
  void PutVarint64(uint64_t v);
  // Zig-zag + LEB128 for signed values.
  void PutVarintSigned64(int64_t v);

  // Varint length prefix followed by the raw bytes.
  void PutLengthPrefixed(std::string_view bytes);

  void PutTimestamp(const Timestamp& ts);

  void PutBool(bool v) { PutUint8(v ? 1 : 0); }
  void PutDouble(double v);

  const std::string& buffer() const { return buf_; }
  std::string Release() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }

 private:
  std::string buf_;
};

// Consumes binary fields from a non-owned byte span.
class Decoder {
 public:
  explicit Decoder(std::string_view data) : data_(data) {}

  Status GetUint8(uint8_t* out);
  Status GetFixed32(uint32_t* out);
  Status GetFixed64(uint64_t* out);
  Status GetVarint64(uint64_t* out);
  Status GetVarintSigned64(int64_t* out);
  // The returned view aliases the decoder's underlying buffer.
  Status GetLengthPrefixed(std::string_view* out);
  Status GetLengthPrefixedString(std::string* out);
  Status GetTimestamp(Timestamp* out);
  Status GetBool(bool* out);
  Status GetDouble(double* out);

  bool AtEnd() const { return data_.empty(); }
  size_t remaining() const { return data_.size(); }

 private:
  Status Truncated(const char* what);

  std::string_view data_;
};

}  // namespace pileus

#endif  // PILEUS_SRC_UTIL_CODEC_H_
