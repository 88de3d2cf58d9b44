// Tests for the zero-copy framing layer (src/net/frame.h FrameView,
// src/net/buffer_pool.h BufferPool): the non-owning decoder must agree with
// the owning DecodeFrame on every randomized message and on truncation at
// every prefix length, the scatter-gather header must reproduce EncodeFrame's
// bytes exactly, and pooled read buffers must recycle instead of reallocate.
// Also the "pairb" body codec: round trips per role, truncation at every
// length, and hostile counts refused before allocation.

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
using net::OperandAttr;
using net::OperandRole;
using net::PairBatchBody;
using net::RowEntry;
using net::RowOp;
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

constexpr OperandRole kRoles[] = {OperandRole::kAlice, OperandRole::kBob,
                                  OperandRole::kQp};

OperandAttr Attr(int64_t x, int64_t y, int64_t threshold) {
  OperandAttr a;
  a.x = crypto::BigInt(x);
  a.y = crypto::BigInt(y);
  a.threshold = crypto::BigInt(threshold);
  return a;
}

/// What `role` receives of `attr`: the fields it does not get stay zero.
OperandAttr Projected(const OperandAttr& attr, OperandRole role) {
  OperandAttr out;
  if (role == OperandRole::kAlice) out.x = attr.x;
  if (role == OperandRole::kBob) out.y = attr.y;
  if (role != OperandRole::kAlice) out.threshold = attr.threshold;
  return out;
}

/// Upserts (negative, zero and multi-limb operands), forgets and pairs.
PairBatchBody SampleBody() {
  PairBatchBody body;
  body.batch_id = 0x0102030405060708ull;
  body.rows.push_back({0, 17, RowOp::kUpsert,
                       {Attr(-42000, 0, 0), Attr(0, 0, 0)}});
  body.rows.push_back({1, -1, RowOp::kForget, {}});
  body.rows.push_back(
      {1, int64_t{1} << 40, RowOp::kUpsert,
       {Attr(0, -7, 99), Attr(0, int64_t{1} << 62, (int64_t{1} << 40) + 3)}});
  body.rows.push_back({0, 5, RowOp::kUpsert, {}});
  body.pairs.push_back({0, 17, int64_t{1} << 40});
  body.pairs.push_back({~uint64_t{0}, -1, 0});
  return body;
}

void ExpectBodyFor(const PairBatchBody& got, const PairBatchBody& sent,
                   OperandRole role) {
  EXPECT_EQ(got.batch_id, sent.batch_id);
  ASSERT_EQ(got.rows.size(), sent.rows.size());
  for (size_t i = 0; i < sent.rows.size(); ++i) {
    EXPECT_EQ(got.rows[i].side, sent.rows[i].side) << "row " << i;
    EXPECT_EQ(got.rows[i].row_id, sent.rows[i].row_id) << "row " << i;
    EXPECT_EQ(got.rows[i].op, sent.rows[i].op) << "row " << i;
    ASSERT_EQ(got.rows[i].attrs.size(), sent.rows[i].attrs.size());
    for (size_t a = 0; a < sent.rows[i].attrs.size(); ++a) {
      EXPECT_TRUE(got.rows[i].attrs[a] ==
                  Projected(sent.rows[i].attrs[a], role))
          << "row " << i << " attr " << a;
    }
  }
  ASSERT_EQ(got.pairs.size(), sent.pairs.size());
  for (size_t i = 0; i < sent.pairs.size(); ++i) {
    EXPECT_EQ(got.pairs[i].pair_index, sent.pairs[i].pair_index);
    EXPECT_EQ(got.pairs[i].a_id, sent.pairs[i].a_id);
    EXPECT_EQ(got.pairs[i].b_id, sent.pairs[i].b_id);
  }
}

TEST(PairBatchBodyTest, RoundTripsForEveryRole) {
  PairBatchBody empty;  // zero rows: every row already held
  empty.batch_id = 9;
  empty.pairs.push_back({3, 4, 5});
  for (OperandRole role : kRoles) {
    for (const PairBatchBody& sent : {SampleBody(), empty}) {
      std::vector<uint8_t> wire;
      net::AppendPairBatchBody(sent, role, &wire);
      auto got = net::ParsePairBatchBody(wire, role);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ExpectBodyFor(*got, sent, role);
    }
  }
}

TEST(PairBatchBodyTest, RejectsTruncationAtEveryLength) {
  for (OperandRole role : kRoles) {
    std::vector<uint8_t> wire;
    net::AppendPairBatchBody(SampleBody(), role, &wire);
    for (size_t n = 0; n < wire.size(); ++n) {
      std::vector<uint8_t> cut(wire.begin(), wire.begin() + n);
      EXPECT_FALSE(net::ParsePairBatchBody(cut, role).ok()) << "n=" << n;
    }
    std::vector<uint8_t> longer = wire;
    longer.push_back(0);
    EXPECT_FALSE(net::ParsePairBatchBody(longer, role).ok())
        << "trailing byte accepted";
  }
}

// A hostile count must be refused by arithmetic on the bytes left, not by a
// failed allocation: 2^32 - 1 rows, attributes or pairs in a few bytes.
TEST(PairBatchBodyTest, RejectsCountsLargerThanTheBodyBeforeAllocating) {
  auto expect_refused = [](const std::vector<uint8_t>& wire,
                           OperandRole role) {
    auto got = net::ParsePairBatchBody(wire, role);
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.status().code(), StatusCode::kIOError);
    EXPECT_NE(got.status().message().find("declares"), std::string::npos)
        << got.status().ToString();
  };
  for (OperandRole role : kRoles) {
    std::vector<uint8_t> rows;
    net::AppendU64(1, &rows);
    net::AppendU32(0xFFFFFFFFu, &rows);  // row count
    rows.resize(rows.size() + 64, 0);
    expect_refused(rows, role);

    std::vector<uint8_t> attrs;
    net::AppendU64(1, &attrs);
    net::AppendU32(1, &attrs);
    net::AppendU8(1, &attrs);  // side
    net::AppendI64(3, &attrs);
    net::AppendU8(static_cast<uint8_t>(RowOp::kUpsert), &attrs);
    net::AppendU32(0xFFFFFFFFu, &attrs);  // attribute count
    attrs.resize(attrs.size() + 64, 0);
    expect_refused(attrs, role);

    std::vector<uint8_t> pairs;
    net::AppendU64(1, &pairs);
    net::AppendU32(0, &pairs);           // no rows
    net::AppendU32(0xFFFFFFFFu, &pairs);  // pair count
    pairs.resize(pairs.size() + 64, 0);
    expect_refused(pairs, role);
  }
}

TEST(PairBatchBodyTest, RejectsUnknownSideAndOp) {
  for (const auto& [side, op] : {std::pair<uint8_t, uint8_t>{2, 1},
                                 std::pair<uint8_t, uint8_t>{0, 0},
                                 std::pair<uint8_t, uint8_t>{0, 3}}) {
    std::vector<uint8_t> wire;
    net::AppendU64(1, &wire);
    net::AppendU32(1, &wire);
    net::AppendU8(side, &wire);
    net::AppendI64(3, &wire);
    net::AppendU8(op, &wire);
    net::AppendU32(0, &wire);  // would be the attribute or pair count
    net::AppendU32(0, &wire);
    EXPECT_FALSE(net::ParsePairBatchBody(wire, OperandRole::kBob).ok())
        << "side " << int{side} << " op " << int{op};
  }
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
