#ifndef HPRL_COMMON_DURABLE_FILE_H_
#define HPRL_COMMON_DURABLE_FILE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace hprl {

/// Appends little-endian fixed-width fields and length-prefixed blobs.
class ByteWriter {
 public:
  void U32(uint32_t v) { Fixed(v, 4); }
  void U64(uint64_t v) { Fixed(v, 8); }
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void Raw(const void* data, size_t n) {
    const auto* p = static_cast<const uint8_t*>(data);
    buf_.insert(buf_.end(), p, p + n);
  }
  /// u32 length, then the bytes.
  void Blob(const void* data, size_t n) {
    U32(static_cast<uint32_t>(n));
    Raw(data, n);
  }

  size_t size() const { return buf_.size(); }
  const std::vector<uint8_t>& bytes() const { return buf_; }
  std::vector<uint8_t> Take() && { return std::move(buf_); }

 private:
  void Fixed(uint64_t v, int width) {
    for (int i = 0; i < width; ++i) {
      buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  }

  std::vector<uint8_t> buf_;
};

/// Reads what ByteWriter writes. Every read is bounds-checked and returns
/// false, consuming nothing, rather than run past the end; `max` caps a
/// length or count field so a damaged one cannot drive a huge allocation.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size) : p_(data), end_(data + size) {}
  explicit ByteReader(const std::vector<uint8_t>& bytes)
      : ByteReader(bytes.data(), bytes.size()) {}

  bool U32(uint32_t* v) { return Fixed(v, 4); }
  bool U64(uint64_t* v) { return Fixed(v, 8); }
  bool I64(int64_t* v) {
    uint64_t u = 0;
    if (!U64(&u)) return false;
    *v = static_cast<int64_t>(u);
    return true;
  }
  /// A u32 element count no larger than `max`.
  bool Count(uint32_t max, uint32_t* n) {
    const uint8_t* start = p_;
    if (U32(n) && *n <= max) return true;
    p_ = start;
    return false;
  }
  /// A length-prefixed blob of at most `max` bytes.
  bool Blob(uint32_t max, std::vector<uint8_t>* out);
  bool String(uint32_t max, std::string* out);

  bool done() const { return p_ == end_; }

 private:
  template <typename T>
  bool Fixed(T* v, int width) {
    if (end_ - p_ < width) return false;
    T x = 0;
    for (int i = 0; i < width; ++i) x |= static_cast<T>(p_[i]) << (8 * i);
    *v = x;
    p_ += width;
    return true;
  }
  /// Consumes a length prefix and its bytes; nullptr when either is short.
  const uint8_t* Span(uint32_t max, uint32_t* n);

  const uint8_t* p_;
  const uint8_t* end_;
};

/// One durable file format. Every file is an envelope, all little-endian:
///
///   magic[8] | u32 version | body | u64 FNV-1a-64 of every preceding byte
///
/// `artifact` names the format in error messages ("session journal").
struct DurableFormat {
  std::string_view artifact;
  std::string_view magic;  ///< exactly 8 bytes
  uint32_t version;        ///< the only version this build reads or writes
};

/// Writes `body` inside `format`'s envelope to `path` atomically: tmp file,
/// write, flush, check, rename. On any failure the tmp file is removed and
/// the file already at `path` is left as it was. Returns the bytes written.
Result<size_t> WriteDurableFile(const std::string& path,
                                const DurableFormat& format,
                                const std::function<void(ByteWriter&)>& body);

/// Reads `path`, verifies its envelope and hands the body to `parse`, which
/// returns nullptr when the body is sound or a short reason it is not; a
/// body `parse` leaves unread is damage too. NotFound when the file is
/// absent; FailedPrecondition naming the artifact on any damage. Returns
/// the file's size.
Result<size_t> ReadDurableFile(
    const std::string& path, const DurableFormat& format,
    const std::function<const char*(ByteReader&)>& parse);

}  // namespace hprl

#endif  // HPRL_COMMON_DURABLE_FILE_H_
