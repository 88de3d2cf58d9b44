#include "crypto/material.h"

#include <filesystem>

#include "common/durable_file.h"
#include "common/hash.h"
#include "common/string_util.h"
#include "crypto/paillier.h"

namespace hprl::crypto {

namespace {

// The body is the randomizer bank alone: no slot layout (dropped in
// version 2) and no fixed-base table (dropped in version 3; every pool
// builds its own). A file of any other version is stale: a counted miss,
// then regenerated.
constexpr DurableFormat kMaterial{"material", "HPRLMAT1", 3};
// Structural cap: far above anything the engine generates, low enough that
// a corrupted count cannot drive allocation into gigabytes.
constexpr uint32_t kMaxRandomizers = 1u << 22;

}  // namespace

uint64_t KeyFingerprint(const BigInt& n) {
  std::vector<uint8_t> bytes = n.ToBytes();
  return Fnv1a64(bytes.data(), bytes.size());
}

std::string MaterialStore::PathFor(uint64_t fingerprint,
                                   uint32_t modulus_bits) const {
  return StrFormat("%s/material-%016llx-%u.bin", dir_.c_str(),
                   static_cast<unsigned long long>(fingerprint),
                   unsigned{modulus_bits});
}

Result<CryptoMaterial> MaterialStore::Load(uint64_t fingerprint,
                                           uint32_t modulus_bits) {
  const std::string path = PathFor(fingerprint, modulus_bits);
  CryptoMaterial m;
  // One randomizer lives in Z_{n^2}: at most 2 * modulus_bits bits.
  const uint32_t entry_cap = modulus_bits / 4 + 16;
  auto read = ReadDurableFile(path, kMaterial, [&](ByteReader& in)
                                                   -> const char* {
    uint64_t fp = 0;
    if (!in.U64(&fp) || fp != fingerprint) {
      return "keypair fingerprint mismatch";
    }
    if (!in.U32(&m.modulus_bits) || m.modulus_bits != modulus_bits) {
      return "modulus bits mismatch";
    }
    uint32_t count = 0;
    if (!in.Count(kMaxRandomizers, &count)) return "bad randomizer count";
    m.randomizers.reserve(count);
    std::vector<uint8_t> bytes;
    for (uint32_t i = 0; i < count; ++i) {
      if (!in.Blob(entry_cap, &bytes)) return "truncated randomizer";
      BigInt r = BigInt::FromBytes(bytes);
      if (r.Sign() <= 0) return "non-positive randomizer";
      m.randomizers.push_back(std::move(r));
    }
    return nullptr;
  });
  // Every failure but an absent file is a REJECTION: the file exists but
  // cannot be trusted. The caller regenerates; nothing downstream ever sees
  // a partially validated randomizer.
  if (!read.ok()) {
    ++stats_.misses;
    if (read.status().code() != StatusCode::kNotFound) {
      ++stats_.rejected;
      return Status::NotFound(read.status().message());
    }
    return read.status();
  }
  m.fingerprint = fingerprint;
  ++stats_.hits;
  stats_.bytes += static_cast<int64_t>(*read);
  return m;
}

Status MaterialStore::Save(const CryptoMaterial& m) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) {
    return Status::IOError("cannot create material dir " + dir_ + ": " +
                           ec.message());
  }
  const std::string path = PathFor(m.fingerprint, m.modulus_bits);
  auto written = WriteDurableFile(path, kMaterial, [&](ByteWriter& w) {
    w.U64(m.fingerprint);
    w.U32(m.modulus_bits);
    w.U32(static_cast<uint32_t>(m.randomizers.size()));
    for (const BigInt& r : m.randomizers) {
      std::vector<uint8_t> bytes = r.ToBytes();
      w.Blob(bytes.data(), bytes.size());
    }
  });
  if (!written.ok()) return written.status();
  stats_.bytes += static_cast<int64_t>(*written);
  return Status::OK();
}

Result<OfflinePhase> RunOfflinePhase(RandomizerPool& pool, MaterialStore* store,
                                     int64_t randomizers, int threads) {
  OfflinePhase phase;
  if (store != nullptr) {
    // Keyed by the ACTUAL modulus bit length, as ExportMaterial files it:
    // n = p·q can come up one bit short of the configured key size.
    auto loaded = store->Load(KeyFingerprint(pool.n()),
                              static_cast<uint32_t>(pool.n().BitLength()));
    phase.warm = loaded.ok() && pool.AdoptMaterial(*loaded).ok();
  }
  HPRL_ASSIGN_OR_RETURN(phase.generated,
                        pool.Prewarm(static_cast<int>(randomizers), threads));
  if (store != nullptr && phase.generated > 0) {
    // Best-effort: a read-only store degrades to always-cold, never to a
    // failed run.
    (void)store->Save(pool.ExportMaterial());
  }
  pool.Start();
  return phase;
}

}  // namespace hprl::crypto
