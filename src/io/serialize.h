#ifndef AUTOEM_IO_SERIALIZE_H_
#define AUTOEM_IO_SERIALIZE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace autoem {
namespace io {

/// CRC-32 (IEEE 802.3 polynomial, the zlib/PNG variant). Used as the
/// per-section integrity check of the one container that models and
/// checkpoints share (see container.h).
uint32_t Crc32(const void* data, size_t len);
inline uint32_t Crc32(std::string_view s) { return Crc32(s.data(), s.size()); }

/// Append-only binary encoder. Fixed-width little-endian integers, IEEE-754
/// doubles by bit pattern (so NaN payloads and signed zeros survive a
/// round-trip — the substrate of the bit-identical load guarantee), and
/// length-prefixed strings/vectors. Writes cannot fail; the buffer grows.
class Writer {
 public:
  void U8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void U32(uint32_t v) { AppendLe(&v, sizeof(v)); }
  void U64(uint64_t v) { AppendLe(&v, sizeof(v)); }
  void I32(int32_t v) { U32(static_cast<uint32_t>(v)); }
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void F64(double v);
  void Str(std::string_view s);
  /// Appends pre-encoded bytes verbatim (no length prefix).
  void Raw(std::string_view bytes) { buf_.append(bytes.data(), bytes.size()); }
  void VecF64(const std::vector<double>& v);
  void VecIdx(const std::vector<size_t>& v);

  const std::string& data() const { return buf_; }
  size_t size() const { return buf_.size(); }

 private:
  void AppendLe(const void* p, size_t n);

  std::string buf_;
};

/// Bounds-checked binary decoder over a borrowed buffer. Every read verifies
/// the remaining byte count first and returns InvalidArgument("truncated...")
/// instead of reading past the end, so a truncated or corrupted model file
/// degrades to a clean Status — never UB. Length prefixes are additionally
/// capped by the bytes actually remaining, which rejects absurd lengths from
/// corrupt data before any allocation.
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  Status U8(uint8_t* v);
  Status U32(uint32_t* v);
  Status U64(uint64_t* v);
  Status I32(int32_t* v);
  Status I64(int64_t* v);
  Status F64(double* v);
  Status Str(std::string* s);
  Status VecF64(std::vector<double>* v);
  Status VecIdx(std::vector<size_t>* v);

  /// Reads a u64 element count and rejects it unless `count * min_elem_size`
  /// bytes actually remain. The guard for every container read.
  Status Len(uint64_t* count, size_t min_elem_size);

  /// Advances past `n` bytes (bounds-checked).
  Status Skip(size_t n);

  size_t remaining() const { return data_.size() - pos_; }
  size_t pos() const { return pos_; }

 private:
  Status Need(size_t n);
  Status ReadLe(void* p, size_t n);

  std::string_view data_;
  size_t pos_ = 0;
};

}  // namespace io
}  // namespace autoem

#endif  // AUTOEM_IO_SERIALIZE_H_
