#include "common/durable_file.h"

#include <cstdio>
#include <fstream>

#include "common/hash.h"

namespace hprl {

namespace {

constexpr size_t kHeaderBytes = 8 + 4;  // magic + version
constexpr size_t kTrailerBytes = 8;     // FNV-1a-64

Status Damaged(const std::string& path, const DurableFormat& format,
               const std::string& why) {
  return Status::FailedPrecondition(std::string(format.artifact) + " " +
                                    path + " rejected: " + why);
}

}  // namespace

const uint8_t* ByteReader::Span(uint32_t max, uint32_t* n) {
  const uint8_t* start = p_;
  if (!Count(max, n)) return nullptr;
  if (static_cast<size_t>(end_ - p_) < *n) {
    p_ = start;
    return nullptr;
  }
  p_ += *n;
  return p_ - *n;
}

bool ByteReader::Blob(uint32_t max, std::vector<uint8_t>* out) {
  uint32_t n = 0;
  const uint8_t* p = Span(max, &n);
  if (p == nullptr) return false;
  out->assign(p, p + n);
  return true;
}

bool ByteReader::String(uint32_t max, std::string* out) {
  uint32_t n = 0;
  const uint8_t* p = Span(max, &n);
  if (p == nullptr) return false;
  out->assign(reinterpret_cast<const char*>(p), n);
  return true;
}

Result<size_t> WriteDurableFile(const std::string& path,
                                const DurableFormat& format,
                                const std::function<void(ByteWriter&)>& body) {
  ByteWriter w;
  w.Raw(format.magic.data(), format.magic.size());
  w.U32(format.version);
  body(w);
  // The trailer goes out as its own write, so the payload is checksummed
  // in place and never copied to make room for it.
  ByteWriter trailer;
  trailer.U64(Fnv1a64(w.bytes().data(), w.size()));

  // A kill mid-write leaves the previous file intact instead of a torn one.
  // The flush is what surfaces a full disk: `write` alone only buffers.
  const std::string tmp = path + ".tmp";
  std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::IOError("cannot create " + tmp);
  }
  out.write(reinterpret_cast<const char*>(w.bytes().data()),
            static_cast<std::streamsize>(w.size()));
  out.write(reinterpret_cast<const char*>(trailer.bytes().data()),
            static_cast<std::streamsize>(trailer.size()));
  out.flush();
  out.close();
  if (!out) {
    std::remove(tmp.c_str());
    return Status::IOError("short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IOError("cannot rename " + tmp + " into place");
  }
  return w.size() + trailer.size();
}

Result<size_t> ReadDurableFile(
    const std::string& path, const DurableFormat& format,
    const std::function<const char*(ByteReader&)>& parse) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) {
    return Status::NotFound("no " + std::string(format.artifact) + " at " +
                            path);
  }
  const std::streamoff size = in.tellg();
  if (size < 0) return Damaged(path, format, "unreadable");
  std::vector<uint8_t> buf(static_cast<size_t>(size));
  in.seekg(0);
  in.read(reinterpret_cast<char*>(buf.data()), size);
  if (in.gcount() != size) return Damaged(path, format, "unreadable");

  // The trailer covers every preceding byte, so any truncation or bit flip
  // fails here before a single field is believed.
  if (buf.size() < kHeaderBytes + kTrailerBytes) {
    return Damaged(path, format, "truncated");
  }
  const size_t body_end = buf.size() - kTrailerBytes;
  ByteReader trailer(buf.data() + body_end, kTrailerBytes);
  uint64_t sum = 0;
  trailer.U64(&sum);
  if (sum != Fnv1a64(buf.data(), body_end)) {
    return Damaged(path, format, "checksum mismatch");
  }
  if (format.magic != std::string_view(reinterpret_cast<char*>(buf.data()),
                                       format.magic.size())) {
    return Damaged(path, format, "bad magic");
  }
  ByteReader header(buf.data() + format.magic.size(), 4);
  uint32_t version = 0;
  header.U32(&version);
  if (version != format.version) {
    return Damaged(path, format,
                   "unsupported version " + std::to_string(version));
  }
  ByteReader body(buf.data() + kHeaderBytes, body_end - kHeaderBytes);
  if (const char* why = parse(body)) return Damaged(path, format, why);
  if (!body.done()) return Damaged(path, format, "trailing bytes");
  return buf.size();
}

}  // namespace hprl
