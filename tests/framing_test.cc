// Tests for the zero-copy framing layer (src/net/frame.h FrameView,
// src/net/buffer_pool.h BufferPool): the non-owning decoder must agree with
// the owning DecodeFrame on every randomized message and on truncation at
// every prefix length, the scatter-gather header must reproduce EncodeFrame's
// bytes exactly, and pooled read buffers must recycle instead of reallocate.
// Also the "pairb", "cfg" and "recvkey" body codecs: round trips,
// truncation at every length, trailing bytes, hostile counts refused before
// allocation, a repeated row id, a unit size its layout cannot hold, and a
// seeded mutation sweep: every body a parser accepts re-encodes to its own
// bytes.

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "crypto/bigint.h"
#include "net/buffer_pool.h"
#include "net/frame.h"
#include "obs/metrics.h"
#include "smc/channel.h"

namespace hprl {
namespace {

using net::BufferPool;
using net::DecodeFrame;
using net::DecodeFrameView;
using net::EncodeFrame;
using net::EncodeFrameHeader;
using net::FrameSize;
using net::ConfigBody;
using net::PairBatchBody;
using smc::Message;

// ------------------------------------------------------------- FrameView

Message RandomMessage(std::mt19937& rng) {
  auto name = [&](size_t max_len) {
    std::uniform_int_distribution<size_t> len(1, max_len);
    std::uniform_int_distribution<int> ch('a', 'z');
    std::string s(len(rng), '\0');
    for (char& c : s) c = static_cast<char>(ch(rng));
    return s;
  };
  Message msg;
  msg.from = name(12);
  msg.to = name(12);
  msg.tag = name(20);
  std::uniform_int_distribution<size_t> plen(0, 600);
  std::uniform_int_distribution<int> byte(0, 255);
  msg.payload.resize(plen(rng));
  for (uint8_t& b : msg.payload) b = static_cast<uint8_t>(byte(rng));
  msg.seq = std::uniform_int_distribution<uint64_t>(1, 1u << 30)(rng);
  msg.checksum = smc::PayloadChecksum(msg.payload);
  return msg;
}

// Property: on any well-formed frame, the zero-copy view and the owning
// decoder agree field-for-field, the view's fields alias the input buffer,
// and ToMessage() materializes the identical Message.
TEST(FrameViewTest, AgreesWithOwningDecodeOnRandomMessages) {
  std::mt19937 rng(20260808);
  for (int iter = 0; iter < 200; ++iter) {
    Message msg = RandomMessage(rng);
    std::vector<uint8_t> wire = EncodeFrame(msg);
    const uint8_t* body = wire.data() + 4;
    const size_t body_len = wire.size() - 4;

    auto view = DecodeFrameView(body, body_len);
    ASSERT_TRUE(view.ok()) << view.status().ToString();
    auto owned = DecodeFrame(body, body_len);
    ASSERT_TRUE(owned.ok()) << owned.status().ToString();

    EXPECT_EQ(view->from, owned->from);
    EXPECT_EQ(view->to, owned->to);
    EXPECT_EQ(view->tag, owned->tag);
    EXPECT_EQ(view->seq, owned->seq);
    EXPECT_EQ(view->checksum, owned->checksum);
    ASSERT_EQ(view->payload_size, owned->payload.size());
    EXPECT_EQ(std::vector<uint8_t>(view->payload,
                                   view->payload + view->payload_size),
              owned->payload);

    // Zero-copy means zero copies: every view field points into the body.
    auto aliases = [&](const void* p) {
      return p >= body && p < body + body_len;
    };
    EXPECT_TRUE(aliases(view->from.data()));
    EXPECT_TRUE(aliases(view->to.data()));
    EXPECT_TRUE(aliases(view->tag.data()));
    if (view->payload_size > 0) {
      EXPECT_TRUE(aliases(view->payload));
    }

    Message materialized = view->ToMessage();
    EXPECT_EQ(materialized.from, msg.from);
    EXPECT_EQ(materialized.to, msg.to);
    EXPECT_EQ(materialized.tag, msg.tag);
    EXPECT_EQ(materialized.payload, msg.payload);
    EXPECT_EQ(materialized.seq, msg.seq);
    EXPECT_EQ(materialized.checksum, msg.checksum);
  }
}

// Property: at every truncated prefix length both decoders reject, and they
// reject together — one codec, two ownership disciplines.
TEST(FrameViewTest, RejectsTruncationAtEveryLengthExactlyLikeDecodeFrame) {
  std::mt19937 rng(777);
  Message msg = RandomMessage(rng);
  std::vector<uint8_t> wire = EncodeFrame(msg);
  const uint8_t* body = wire.data() + 4;
  const size_t body_len = wire.size() - 4;
  for (size_t n = 0; n < body_len; ++n) {
    auto view = DecodeFrameView(body, n);
    auto owned = DecodeFrame(body, n);
    EXPECT_FALSE(view.ok()) << "n=" << n;
    EXPECT_FALSE(owned.ok()) << "n=" << n;
  }
  EXPECT_TRUE(DecodeFrameView(body, body_len).ok());
}

TEST(FrameViewTest, RejectsStampedChecksumMismatch) {
  std::mt19937 rng(99);
  Message msg = RandomMessage(rng);
  std::vector<uint8_t> wire = EncodeFrame(msg);
  wire.back() ^= 0x01;  // flip one payload bit
  auto view = DecodeFrameView(wire.data() + 4, wire.size() - 4);
  EXPECT_FALSE(view.ok());
  EXPECT_EQ(view.status().code(), StatusCode::kIOError);
}

// The scatter-gather sender path: EncodeFrameHeader(msg) ++ msg.payload must
// be byte-identical to EncodeFrame(msg), so writev'ing {header, payload}
// puts exactly the same frame on the wire.
TEST(FrameViewTest, HeaderPlusPayloadEqualsEncodeFrame) {
  std::mt19937 rng(4242);
  for (int iter = 0; iter < 50; ++iter) {
    Message msg = RandomMessage(rng);
    std::vector<uint8_t> whole = EncodeFrame(msg);
    std::vector<uint8_t> gathered = EncodeFrameHeader(msg);
    gathered.insert(gathered.end(), msg.payload.begin(), msg.payload.end());
    EXPECT_EQ(gathered, whole);
    EXPECT_EQ(whole.size(), FrameSize(msg));
  }
}

// ------------------------------------------------------- pairb body codec

crypto::BigInt Big(int64_t v) { return crypto::BigInt(v); }

/// Rows with negative, zero and multi-limb encodings (and one empty row),
/// and pairs naming them.
PairBatchBody SampleBody() {
  PairBatchBody body;
  body.batch_id = 0x0102030405060708ull;
  body.rows.push_back({17, {Big(-42000), Big(0)}});
  body.rows.push_back({int64_t{1} << 40,
                       {Big(-7), Big(int64_t{1} << 62) * Big(99)}});
  body.rows.push_back({-1, {Big(255), Big(256)}});
  body.rows.push_back({5, {}});
  body.pairs.push_back({0, 17, int64_t{1} << 40});
  body.pairs.push_back({~uint64_t{0}, -1, 0});
  return body;
}

void ExpectSameBody(const PairBatchBody& got, const PairBatchBody& sent) {
  EXPECT_EQ(got.batch_id, sent.batch_id);
  ASSERT_EQ(got.rows.size(), sent.rows.size());
  for (size_t i = 0; i < sent.rows.size(); ++i) {
    EXPECT_EQ(got.rows[i].row_id, sent.rows[i].row_id) << "row " << i;
    EXPECT_EQ(got.rows[i].values, sent.rows[i].values) << "row " << i;
  }
  ASSERT_EQ(got.pairs.size(), sent.pairs.size());
  for (size_t i = 0; i < sent.pairs.size(); ++i) {
    EXPECT_EQ(got.pairs[i].pair_index, sent.pairs[i].pair_index);
    EXPECT_EQ(got.pairs[i].a_id, sent.pairs[i].a_id);
    EXPECT_EQ(got.pairs[i].b_id, sent.pairs[i].b_id);
  }
}

TEST(PairBatchBodyTest, RoundTrips) {
  PairBatchBody empty;  // zero rows: qp's frame
  empty.batch_id = 9;
  empty.pairs.push_back({3, 4, 5});
  for (const PairBatchBody& sent : {SampleBody(), empty}) {
    std::vector<uint8_t> wire;
    net::AppendPairBatchBody(sent, &wire);
    auto got = net::ParsePairBatchBody(wire);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ExpectSameBody(*got, sent);
  }
}

TEST(PairBatchBodyTest, RejectsTruncationAtEveryLength) {
  std::vector<uint8_t> wire;
  net::AppendPairBatchBody(SampleBody(), &wire);
  for (size_t n = 0; n < wire.size(); ++n) {
    std::vector<uint8_t> cut(wire.begin(), wire.begin() + n);
    EXPECT_FALSE(net::ParsePairBatchBody(cut).ok()) << "n=" << n;
  }
  std::vector<uint8_t> longer = wire;
  longer.push_back(0);
  EXPECT_FALSE(net::ParsePairBatchBody(longer).ok())
      << "trailing byte accepted";
}

// A hostile count must be refused by arithmetic on the bytes left, not by a
// failed allocation: 2^32 - 1 rows, values or pairs in a few bytes.
TEST(PairBatchBodyTest, RejectsCountsLargerThanTheBodyBeforeAllocating) {
  auto expect_refused = [](const std::vector<uint8_t>& wire) {
    auto got = net::ParsePairBatchBody(wire);
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.status().code(), StatusCode::kIOError);
    EXPECT_NE(got.status().message().find("declares"), std::string::npos)
        << got.status().ToString();
  };
  std::vector<uint8_t> rows;
  net::AppendU64(1, &rows);
  net::AppendU32(0xFFFFFFFFu, &rows);  // row count
  rows.resize(rows.size() + 64, 0);
  expect_refused(rows);

  std::vector<uint8_t> values;
  net::AppendU64(1, &values);
  net::AppendU32(1, &values);
  net::AppendI64(3, &values);
  net::AppendU32(0xFFFFFFFFu, &values);  // value count
  values.resize(values.size() + 64, 0);
  expect_refused(values);

  std::vector<uint8_t> pairs;
  net::AppendU64(1, &pairs);
  net::AppendU32(0, &pairs);           // no rows
  net::AppendU32(0xFFFFFFFFu, &pairs);  // pair count
  pairs.resize(pairs.size() + 64, 0);
  expect_refused(pairs);
}

// Row ids are keys: a frame naming one row twice is refused, not resolved
// by whichever copy comes last.
TEST(PairBatchBodyTest, RejectsARepeatedRowId) {
  PairBatchBody body = SampleBody();
  body.rows.push_back({17, {Big(1), Big(2)}});
  std::vector<uint8_t> wire;
  net::AppendPairBatchBody(body, &wire);
  auto got = net::ParsePairBatchBody(wire);
  ASSERT_FALSE(got.ok());
  EXPECT_NE(got.status().message().find("repeats row 17"), std::string::npos)
      << got.status().ToString();
}

// A value has exactly one encoding: a sign byte other than 0 or 1, a
// magnitude with a leading zero byte, and a negative zero are refused.
TEST(PairBatchBodyTest, RejectsNonCanonicalValues) {
  auto one_value = [](uint8_t sign, std::vector<uint8_t> magnitude) {
    std::vector<uint8_t> wire;
    net::AppendU64(1, &wire);
    net::AppendU32(1, &wire);  // one row
    net::AppendI64(3, &wire);
    net::AppendU32(1, &wire);  // one value
    net::AppendU8(sign, &wire);
    net::AppendU32(static_cast<uint32_t>(magnitude.size()), &wire);
    wire.insert(wire.end(), magnitude.begin(), magnitude.end());
    net::AppendU32(0, &wire);  // no pairs
    return net::ParsePairBatchBody(wire).ok();
  };
  EXPECT_TRUE(one_value(0, {}));
  EXPECT_TRUE(one_value(1, {7}));
  EXPECT_FALSE(one_value(2, {7}));
  EXPECT_FALSE(one_value(0, {0, 7}));
  EXPECT_FALSE(one_value(1, {}));
  EXPECT_FALSE(one_value(0, {0}));
}

// --------------------------------------------------------- cfg body codec

/// A packed session: 2 attributes in slots of 40 and 44 bits, 3 pairs
/// (252 bits) per unit of a 256-bit key; negative and multi-limb
/// thresholds.
ConfigBody SampleConfig() {
  ConfigBody body;
  body.key_bits = 256;
  body.test_seed = 0x0A0B0C0D0E0F1011ull;
  body.emulated_latency_micros = 7;
  body.material_dir = "cache/material";
  body.pack_pairs = 3;
  body.slot_widths = {40, 44};
  body.thresholds = {Big(0), Big(int64_t{1} << 62) * Big(-5)};
  return body;
}

void ExpectSameConfig(const ConfigBody& got, const ConfigBody& sent) {
  EXPECT_EQ(got.key_bits, sent.key_bits);
  EXPECT_EQ(got.test_seed, sent.test_seed);
  EXPECT_EQ(got.emulated_latency_micros, sent.emulated_latency_micros);
  EXPECT_EQ(got.material_dir, sent.material_dir);
  EXPECT_EQ(got.pack_pairs, sent.pack_pairs);
  EXPECT_EQ(got.slot_widths, sent.slot_widths);
  EXPECT_EQ(got.thresholds, sent.thresholds);
}

TEST(ConfigBodyTest, RoundTrips) {
  ConfigBody one_pair = SampleConfig();  // one-pair units of three slots
  one_pair.pack_pairs = 1;
  one_pair.slot_widths.push_back(100);
  one_pair.thresholds.push_back(Big(3));
  for (const ConfigBody& sent : {SampleConfig(), one_pair}) {
    std::vector<uint8_t> wire;
    net::AppendConfigBody(sent, &wire);
    auto got = net::ParseConfigBody(wire);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ExpectSameConfig(*got, sent);
  }
}

TEST(ConfigBodyTest, RejectsTruncationAtEveryLengthAndTrailingBytes) {
  std::vector<uint8_t> wire;
  net::AppendConfigBody(SampleConfig(), &wire);
  for (size_t n = 0; n < wire.size(); ++n) {
    std::vector<uint8_t> cut(wire.begin(), wire.begin() + n);
    EXPECT_FALSE(net::ParseConfigBody(cut).ok()) << "n=" << n;
  }
  std::vector<uint8_t> longer = wire;
  longer.push_back(0);
  EXPECT_FALSE(net::ParseConfigBody(longer).ok()) << "trailing byte accepted";
}

// Every daemon splits a frame into units of the cfg's size and lays each
// out by its slot widths, so a plan the key cannot hold — pairs·Σwidths
// past key_bits − 2, a zero or missing width, or a unit of no pair — is
// refused.
TEST(ConfigBodyTest, RejectsAUnitLargerThanTheLayoutHolds) {
  auto refused = [](const ConfigBody& body) {
    std::vector<uint8_t> wire;
    net::AppendConfigBody(body, &wire);
    auto got = net::ParseConfigBody(wire);
    return !got.ok() && got.status().code() == StatusCode::kInvalidArgument;
  };
  ConfigBody body = SampleConfig();
  EXPECT_FALSE(refused(body));
  body.pack_pairs = 4;  // 336 bits wanted, 254 usable
  EXPECT_TRUE(refused(body));
  body = SampleConfig();
  body.slot_widths = {40, 87};  // 3 pairs of 127 bits: 381
  EXPECT_TRUE(refused(body));
  body.pack_pairs = 2;  // 254 bits: fills the key exactly
  EXPECT_FALSE(refused(body));
  body = SampleConfig();
  body.slot_widths = {40, 0};  // a zero width
  EXPECT_TRUE(refused(body));
  body.slot_widths = {40, 257};  // a width past the key
  EXPECT_TRUE(refused(body));
  body.slot_widths = {40};  // a width missing
  EXPECT_TRUE(refused(body));
  body.slot_widths.clear();  // the body carries no widths at all
  EXPECT_TRUE(refused(body));
  body = SampleConfig();
  body.pack_pairs = 0;  // a unit of no pair
  EXPECT_TRUE(refused(body));
  body = SampleConfig();
  body.thresholds.clear();
  EXPECT_TRUE(refused(body));
}

// The v15 layout field by field: key_bits, test_seed, latency,
// material_dir, pack_pairs, the widths, then the thresholds — no pool
// depth, blinding width, flags byte or fixed-point scale. A body missing its
// widths (a v12-style scalar plan, width count 0) is refused.
TEST(ConfigBodyTest, V15LayoutIsExactAndNeedsItsWidths) {
  std::vector<uint8_t> want;
  net::AppendU32(256, &want);
  net::AppendU64(0x0A0B0C0D0E0F1011ull, &want);
  net::AppendU32(7, &want);
  net::AppendString("cache/material", &want);
  net::AppendU32(3, &want);
  net::AppendU32(2, &want);
  net::AppendU32(40, &want);
  net::AppendU32(44, &want);
  const ConfigBody sample = SampleConfig();
  net::AppendU32(2, &want);
  for (const crypto::BigInt& t : sample.thresholds) {
    net::AppendSignedBigInt(t, &want);
  }
  std::vector<uint8_t> wire;
  net::AppendConfigBody(sample, &wire);
  EXPECT_EQ(wire, want);

  std::vector<uint8_t> no_widths;
  net::AppendU32(256, &no_widths);
  net::AppendU64(1, &no_widths);
  net::AppendU32(0, &no_widths);
  net::AppendString("", &no_widths);
  net::AppendU32(3, &no_widths);
  net::AppendU32(0, &no_widths);  // no widths
  net::AppendU32(1, &no_widths);
  net::AppendSignedBigInt(Big(9), &no_widths);
  auto got = net::ParseConfigBody(no_widths);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
}

// ----------------------------------------------------- recvkey body codec

// The holder's randomizer count, a big-endian u32 and nothing else: a short
// body and a trailing byte are refused.
TEST(RecvKeyBodyTest, CarriesExactlyTheRandomizerCount) {
  for (uint32_t count : {0u, 27u, 0xFFFFFFFFu}) {
    std::vector<uint8_t> wire;
    net::AppendRecvKeyBody(count, &wire);
    std::vector<uint8_t> want;
    net::AppendU32(count, &want);
    EXPECT_EQ(wire, want);
    auto got = net::ParseRecvKeyBody(wire);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(*got, count);
    for (size_t n = 0; n < wire.size(); ++n) {
      std::vector<uint8_t> cut(wire.begin(), wire.begin() + n);
      EXPECT_FALSE(net::ParseRecvKeyBody(cut).ok()) << "n=" << n;
    }
    wire.push_back(0);
    EXPECT_FALSE(net::ParseRecvKeyBody(wire).ok()) << "trailing byte accepted";
  }
}

// ------------------------------------------------------- mutation sweep

/// Feeds `parse` every single-byte substitution of `valid` (all 255 other
/// values at every offset) and `random_mutants` seeded mutants that set two
/// to eight random bytes. A mutant must be refused or re-encode, through
/// `encode`, to exactly its own bytes: a body the parser accepts has one
/// meaning, so no two byte strings carry the same batch or configuration.
/// Returns how many mutants were accepted.
template <typename Body>
int SweepMutants(const std::vector<uint8_t>& valid,
                 Result<Body> (*parse)(const std::vector<uint8_t>&),
                 void (*encode)(const Body&, std::vector<uint8_t>*),
                 int random_mutants, uint32_t seed) {
  int accepted = 0;
  auto check = [&](const std::vector<uint8_t>& mutant, const char* kind,
                   size_t at) {
    auto got = parse(mutant);
    if (!got.ok()) return;
    ++accepted;
    std::vector<uint8_t> again;
    encode(*got, &again);
    EXPECT_EQ(again, mutant) << kind << " mutant at " << at
                             << " was accepted but re-encodes differently";
  };
  for (size_t at = 0; at < valid.size(); ++at) {
    std::vector<uint8_t> mutant = valid;
    for (int delta = 1; delta < 256; ++delta) {
      mutant[at] = static_cast<uint8_t>(valid[at] + delta);
      check(mutant, "single-byte", at);
    }
  }
  std::mt19937 rng(seed);
  std::uniform_int_distribution<size_t> pos(0, valid.size() - 1);
  std::uniform_int_distribution<int> count(2, 8);
  std::uniform_int_distribution<int> byte(0, 255);
  for (int i = 0; i < random_mutants; ++i) {
    std::vector<uint8_t> mutant = valid;
    for (int k = count(rng); k > 0; --k) {
      mutant[pos(rng)] = static_cast<uint8_t>(byte(rng));
    }
    check(mutant, "multi-byte", static_cast<size_t>(i));
  }
  return accepted;
}

TEST(MutationSweepTest, PairBatchBodyIsRefusedOrReencodesExactly) {
  std::vector<uint8_t> wire;
  net::AppendPairBatchBody(SampleBody(), &wire);
  const int accepted =
      SweepMutants<PairBatchBody>(wire, &net::ParsePairBatchBody,
                                  &net::AppendPairBatchBody, 10000, 20261019);
  // Ids, indices and magnitudes are free bytes: plenty of mutants are
  // well-formed batches, and each of them was checked above.
  EXPECT_GT(accepted, 1000);
}

TEST(MutationSweepTest, ConfigBodyIsRefusedOrReencodesExactly) {
  std::vector<uint8_t> wire;
  net::AppendConfigBody(SampleConfig(), &wire);
  const int accepted =
      SweepMutants<ConfigBody>(wire, &net::ParseConfigBody,
                               &net::AppendConfigBody, 10000, 20261020);
  EXPECT_GT(accepted, 1000);
}

// ------------------------------------------------------------ BufferPool

TEST(BufferPoolTest, RecyclesReleasedBlocks) {
  BufferPool pool(1024);
  auto first = pool.Acquire();
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(pool.outstanding(), 1);
  EXPECT_EQ(pool.expanded(), 1);
  EXPECT_EQ(pool.reused(), 0);

  std::vector<uint8_t>* storage = first.get();
  first->assign(512, 0xCD);
  first.reset();  // release: back to the free list, not the heap
  EXPECT_EQ(pool.outstanding(), 0);

  auto second = pool.Acquire();
  EXPECT_EQ(second.get(), storage);  // same storage, recycled
  EXPECT_EQ(second->size(), 0u);     // handed back empty
  EXPECT_EQ(pool.reused(), 1);
  EXPECT_EQ(pool.expanded(), 1);  // no new allocation
}

TEST(BufferPoolTest, ConcurrentLeasesGetDistinctBlocks) {
  BufferPool pool(256);
  auto a = pool.Acquire();
  auto b = pool.Acquire();
  EXPECT_NE(a.get(), b.get());
  EXPECT_EQ(pool.outstanding(), 2);
  EXPECT_EQ(pool.expanded(), 2);
}

// The ref count is the lease: a copy of the Block (e.g. a FrameView holder)
// keeps the storage out of the free list until the last copy drops.
TEST(BufferPoolTest, SharedReferenceDefersRecycling) {
  BufferPool pool(256);
  auto block = pool.Acquire();
  BufferPool::Block holder = block;  // second leaseholder
  block.reset();
  EXPECT_EQ(pool.outstanding(), 1);  // still leased via holder

  auto other = pool.Acquire();
  EXPECT_NE(other.get(), holder.get());  // must not hand out the held block

  holder.reset();
  EXPECT_EQ(pool.outstanding(), 1);  // only `other` remains
}

// Blocks may outlive the pool (a Message materialized late, a bus torn down
// with a frame still referenced): the deleter must degrade to a normal free.
TEST(BufferPoolTest, BlockOutlivesPool) {
  BufferPool::Block survivor;
  {
    BufferPool pool(128);
    survivor = pool.Acquire();
    survivor->assign(64, 0xEE);
  }
  ASSERT_NE(survivor, nullptr);
  EXPECT_EQ(survivor->size(), 64u);
  survivor.reset();  // frees normally; ASan would flag a dangling pool
}

TEST(BufferPoolTest, PublishesGauges) {
  obs::MetricsRegistry registry;
  BufferPool pool(512);
  pool.AttachMetrics(&registry);

  auto a = pool.Acquire();
  auto b = pool.Acquire();
  b.reset();
  auto c = pool.Acquire();  // reuses b's block

  EXPECT_EQ(registry.gauge("net.buffer_pool.outstanding")->value(), 2);
  EXPECT_EQ(registry.gauge("net.buffer_pool.reused")->value(), 1);
  EXPECT_EQ(registry.gauge("net.buffer_pool.expanded")->value(), 2);
}

}  // namespace
}  // namespace hprl
