#include "core/journal.h"

#include "common/durable_file.h"

namespace hprl {

namespace {

constexpr DurableFormat kSessionJournal{"session journal", "HPRLJNL1", 2};
constexpr DurableFormat kServeJournal{"serve journal", "HPRLSRV1", 2};

// Counts larger than this are a corrupted length field, not a real journal
// (the largest legitimate journal is the matched-pair list of one run).
constexpr uint32_t kMaxEntries = 1u << 26;

void PutPairs(const std::vector<std::pair<int64_t, int64_t>>& pairs,
              ByteWriter& w) {
  w.U32(static_cast<uint32_t>(pairs.size()));
  for (const auto& [a, b] : pairs) {
    w.I64(a);
    w.I64(b);
  }
}

bool GetPairs(ByteReader& in, std::vector<std::pair<int64_t, int64_t>>* pairs) {
  uint32_t n = 0;
  if (!in.Count(kMaxEntries, &n)) return false;
  for (uint32_t i = 0; i < n; ++i) {
    int64_t a = 0;
    int64_t b = 0;
    if (!in.I64(&a) || !in.I64(&b)) return false;
    pairs->emplace_back(a, b);
  }
  return true;
}

}  // namespace

Status SaveSessionJournal(const std::string& path, const SessionJournal& j) {
  return WriteDurableFile(path, kSessionJournal, [&](ByteWriter& w) {
           w.U64(j.fingerprint);
           w.U64(j.epoch);
           w.I64(j.pairs_done);
           w.I64(j.smc_matched);
           w.I64(j.quarantined);
           w.U32(static_cast<uint32_t>(j.shards.size()));
           for (const ShardDisposition& d : j.shards) {
             w.U32(static_cast<uint32_t>(d.shard));
             w.I64(d.batches_done);
             w.I64(d.pairs_done);
           }
           PutPairs(j.matched_row_pairs, w);
         })
      .status();
}

Result<SessionJournal> LoadSessionJournal(const std::string& path) {
  SessionJournal j;
  auto read = ReadDurableFile(
      path, kSessionJournal, [&](ByteReader& in) -> const char* {
        uint32_t n_shards = 0;
        if (!in.U64(&j.fingerprint) || !in.U64(&j.epoch) ||
            !in.I64(&j.pairs_done) || !in.I64(&j.smc_matched) ||
            !in.I64(&j.quarantined) || !in.Count(kMaxEntries, &n_shards)) {
          return "truncated";
        }
        if (j.pairs_done < 0 || j.smc_matched < 0 || j.quarantined < 0 ||
            j.smc_matched + j.quarantined > j.pairs_done) {
          return "inconsistent (counts more outcomes than pairs)";
        }
        for (uint32_t i = 0; i < n_shards; ++i) {
          ShardDisposition d;
          uint32_t shard = 0;
          if (!in.U32(&shard) || !in.I64(&d.batches_done) ||
              !in.I64(&d.pairs_done)) {
            return "truncated";
          }
          d.shard = static_cast<int>(shard);
          j.shards.push_back(d);
        }
        if (!GetPairs(in, &j.matched_row_pairs)) return "truncated";
        return nullptr;
      });
  if (!read.ok()) return read.status();
  return j;
}

Status SaveServeJournal(const std::string& path, const ServeJournal& j) {
  return WriteDurableFile(path, kServeJournal, [&](ByteWriter& w) {
           w.U64(j.fingerprint);
           w.U64(j.epoch);
           w.I64(j.settled_deltas);
           w.I64(j.quarantined);
           w.U32(static_cast<uint32_t>(j.tenants.size()));
           for (const ServeTenantState& t : j.tenants) {
             w.Blob(t.name.data(), t.name.size());
             w.I64(t.allowance_remaining);
             w.I64(t.smc_pairs_spent);
             PutPairs(t.links, w);
           }
         })
      .status();
}

Result<ServeJournal> LoadServeJournal(const std::string& path) {
  ServeJournal j;
  auto read = ReadDurableFile(
      path, kServeJournal, [&](ByteReader& in) -> const char* {
        uint32_t n_tenants = 0;
        if (!in.U64(&j.fingerprint) || !in.U64(&j.epoch) ||
            !in.I64(&j.settled_deltas) || !in.I64(&j.quarantined) ||
            !in.Count(kMaxEntries, &n_tenants)) {
          return "truncated";
        }
        if (j.settled_deltas < 0 || j.quarantined < 0) {
          return "inconsistent (negative counts)";
        }
        for (uint32_t i = 0; i < n_tenants; ++i) {
          ServeTenantState& t = j.tenants.emplace_back();
          if (!in.String(kMaxEntries, &t.name) ||
              !in.I64(&t.allowance_remaining) ||
              !in.I64(&t.smc_pairs_spent)) {
            return "truncated";
          }
          if (t.smc_pairs_spent < 0) return "inconsistent (negative spend)";
          if (!GetPairs(in, &t.links)) return "truncated";
        }
        return nullptr;
      });
  if (!read.ok()) return read.status();
  return j;
}

}  // namespace hprl
