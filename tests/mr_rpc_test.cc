// RPC wire-format tests (mr/rpc.h, mr/worker.h): byte-exact golden frames,
// request/response round-trips, and a malformed-frame corpus — truncated,
// oversized, garbage, bad-magic, bad-hash — that must surface as structured
// kRpcError, never a crash, hang, or runaway allocation. The row
// serialization golden test pins the compact shuffle encoding, which spill
// checkpoints also store (mr_cluster_test.cc pins that file format): a byte
// change there is a format break.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/hash.h"
#include "mr/rpc.h"
#include "mr/segment.h"
#include "mr/worker.h"

namespace timr::mr {
namespace {

using rpc::DecodeFrame;
using rpc::DecodeResult;
using rpc::EncodeFrame;
using rpc::Frame;
using rpc::kFrameHeaderBytes;
using rpc::kFrameMagic;
using rpc::kMaxFramePayload;
using rpc::MsgType;

Schema TestSchema() {
  return Schema::Of({{"Time", ValueType::kInt64},
                     {"Key", ValueType::kString},
                     {"Score", ValueType::kDouble}});
}

std::vector<Row> TestRows() {
  return {
      {Value(int64_t{1}), Value("alpha"), Value(0.5)},
      {Value(int64_t{2}), Value::Interned("beta"), Value(-1.25)},
      {Value(int64_t{-7}), Value(std::string()), Value(1e300)},
  };
}

// ------------------------------------------------------------- framing ----

TEST(RpcFrame, GoldenHeaderLayout) {
  std::string out;
  EncodeFrame(MsgType::kMapRequest, "abc", &out);
  ASSERT_EQ(out.size(), kFrameHeaderBytes + 3);

  uint32_t magic;
  std::memcpy(&magic, out.data(), 4);
  EXPECT_EQ(magic, kFrameMagic);
  EXPECT_EQ(static_cast<uint8_t>(out[4]), static_cast<uint8_t>(MsgType::kMapRequest));
  EXPECT_EQ(out[5], 0);  // padding
  EXPECT_EQ(out[6], 0);
  EXPECT_EQ(out[7], 0);
  uint64_t len, hash;
  std::memcpy(&len, out.data() + 8, 8);
  std::memcpy(&hash, out.data() + 16, 8);
  EXPECT_EQ(len, 3u);
  EXPECT_EQ(hash, HashBytes("abc", 3));
  EXPECT_EQ(out.substr(kFrameHeaderBytes), "abc");
}

TEST(RpcFrame, RoundTrip) {
  std::string payload(1000, '\0');
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<char>(i * 31 + 7);
  }
  std::string out;
  EncodeFrame(MsgType::kReduceResponse, payload, &out);
  DecodeResult r = DecodeFrame(out);
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_FALSE(r.needs_more);
  EXPECT_EQ(r.frame.type, MsgType::kReduceResponse);
  EXPECT_EQ(r.frame.payload, payload);
  EXPECT_EQ(r.consumed, out.size());
}

TEST(RpcFrame, EmptyPayloadRoundTrip) {
  std::string out;
  EncodeFrame(MsgType::kHeartbeat, "", &out);
  ASSERT_EQ(out.size(), kFrameHeaderBytes);
  DecodeResult r = DecodeFrame(out);
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(r.frame.type, MsgType::kHeartbeat);
  EXPECT_TRUE(r.frame.payload.empty());
}

TEST(RpcFrame, EveryTruncationNeedsMoreNeverErrors) {
  // A truncated-but-valid prefix must ask for more bytes, not error: the
  // stream reader accumulates partial reads.
  std::string out;
  EncodeFrame(MsgType::kMapResponse, "payload-bytes", &out);
  for (size_t n = 0; n < out.size(); ++n) {
    DecodeResult r = DecodeFrame(std::string_view(out).substr(0, n));
    EXPECT_TRUE(r.status.ok()) << "prefix " << n << ": " << r.status.ToString();
    EXPECT_TRUE(r.needs_more) << "prefix " << n;
    EXPECT_EQ(r.consumed, 0u);
  }
}

TEST(RpcFrame, BadMagicIsRpcError) {
  std::string out;
  EncodeFrame(MsgType::kHello, "x", &out);
  out[0] = 'X';
  DecodeResult r = DecodeFrame(out);
  EXPECT_EQ(r.status.code(), StatusCode::kRpcError);
}

TEST(RpcFrame, UnknownTypeIsRpcError) {
  std::string out;
  EncodeFrame(MsgType::kHello, "x", &out);
  out[4] = static_cast<char>(0xEE);
  DecodeResult r = DecodeFrame(out);
  EXPECT_EQ(r.status.code(), StatusCode::kRpcError);
}

TEST(RpcFrame, OversizedLengthIsRpcErrorNotAllocation) {
  // A corrupt length field must be rejected from the header alone — the
  // receiver must not trust it enough to allocate.
  std::string out;
  EncodeFrame(MsgType::kHello, "x", &out);
  const uint64_t huge = kMaxFramePayload + 1;
  std::memcpy(&out[8], &huge, 8);
  DecodeResult r = DecodeFrame(out);
  EXPECT_EQ(r.status.code(), StatusCode::kRpcError);
}

TEST(RpcFrame, PayloadHashMismatchIsRpcError) {
  std::string out;
  EncodeFrame(MsgType::kMapRequest, "sensitive-payload", &out);
  out[kFrameHeaderBytes + 3] ^= 0x40;  // flip one payload bit
  DecodeResult r = DecodeFrame(out);
  EXPECT_EQ(r.status.code(), StatusCode::kRpcError);
}

TEST(RpcFrame, GarbageBytesNeverCrash) {
  // Deterministic garbage corpus: every outcome must be a structured state
  // (error / needs_more / frame), never a fault. Seeds chosen arbitrarily.
  uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (int trial = 0; trial < 200; ++trial) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    std::string garbage((x >> 33) % 96, '\0');
    uint64_t y = x;
    for (char& c : garbage) {
      y = y * 6364136223846793005ULL + 1442695040888963407ULL;
      c = static_cast<char>(y >> 56);
    }
    DecodeResult r = DecodeFrame(garbage);
    if (r.status.ok() && !r.needs_more) {
      // Only a byte-perfect frame may parse; with random magic this is
      // effectively unreachable, but it would still be a valid outcome.
      EXPECT_LE(r.consumed, garbage.size());
    }
  }
}

TEST(RpcFrame, SocketSendRecvRoundTrip) {
  int sv[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  ASSERT_TRUE(rpc::SendFrame(sv[0], MsgType::kShutdown, "bye").ok());
  Frame f;
  ASSERT_TRUE(rpc::RecvFrame(sv[1], &f).ok());
  EXPECT_EQ(f.type, MsgType::kShutdown);
  EXPECT_EQ(f.payload, "bye");
  close(sv[0]);
  close(sv[1]);
}

TEST(RpcFrame, PeerClosingMidFrameIsRpcError) {
  int sv[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  std::string out;
  EncodeFrame(MsgType::kMapResponse, "this frame will be cut short", &out);
  // Send only half, then close: the reader must get a structured error.
  ASSERT_EQ(send(sv[0], out.data(), out.size() / 2, 0),
            static_cast<ssize_t>(out.size() / 2));
  close(sv[0]);
  Frame f;
  Status st = rpc::RecvFrame(sv[1], &f);
  EXPECT_EQ(st.code(), StatusCode::kRpcError);
  close(sv[1]);
}

TEST(RpcFrame, EofBeforeHeaderIsPeerClosed) {
  int sv[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  close(sv[0]);
  Frame f;
  Status st = rpc::RecvFrame(sv[1], &f);
  EXPECT_EQ(st.code(), StatusCode::kRpcError);
  close(sv[1]);
}

TEST(RpcFrame, SendToClosedPeerIsRpcErrorNotSignal) {
  int sv[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  close(sv[1]);
  // Large enough to defeat the socket buffer on the first or second send;
  // MSG_NOSIGNAL must turn SIGPIPE into an error status.
  std::string big(1 << 20, 'z');
  Status st = rpc::SendFrame(sv[0], MsgType::kMapRequest, big);
  if (st.ok()) st = rpc::SendFrame(sv[0], MsgType::kMapRequest, big);
  EXPECT_EQ(st.code(), StatusCode::kRpcError);
  close(sv[0]);
}

TEST(RpcFrame, StoredBlockTypesAreRejectedOnASocket) {
  // Stored-block frames live in checkpoint files: DecodeFrame (the file
  // path) accepts them, but RecvFrame, which the driver and workers read
  // with, rejects them.
  for (MsgType type :
       {MsgType::kDatasetHeader, MsgType::kRowBlock, MsgType::kManifest}) {
    std::string out;
    EncodeFrame(type, "block", &out);
    EXPECT_TRUE(DecodeFrame(out).status.ok());
    int sv[2];
    ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    ASSERT_EQ(write(sv[0], out.data(), out.size()),
              static_cast<ssize_t>(out.size()));
    Frame f;
    EXPECT_EQ(rpc::RecvFrame(sv[1], &f).code(), StatusCode::kRpcError);
    close(sv[0]);
    close(sv[1]);
  }
}

// -------------------------------------------- compact row serialization ----

TEST(RpcRows, SerializationGolden) {
  // Byte-exact pin of the shuffle row encoding (tagged cells, u64 counts).
  // If this test fails, the wire/on-disk format changed — that must be a
  // deliberate, versioned decision, not a refactoring accident.
  rpc::WireWriter w;
  w.Rows({{Value(int64_t{5}), Value("ab"), Value(1.5)}});
  const std::string& b = w.buf();

  std::string expect;
  auto u64 = [&expect](uint64_t v) {
    expect.append(reinterpret_cast<const char*>(&v), 8);
  };
  u64(1);                    // row count
  u64(3);                    // cell count
  expect.push_back('\x00');  // kInt64 tag
  u64(5);
  expect.push_back('\x02');  // kString tag
  u64(2);
  expect += "ab";
  expect.push_back('\x01');  // kDouble tag
  const double d = 1.5;
  expect.append(reinterpret_cast<const char*>(&d), 8);
  EXPECT_EQ(b, expect);
}

TEST(RpcRows, RowsRoundTripExactly) {
  rpc::WireWriter w;
  w.Rows(TestRows());
  w.WriteSchema(TestSchema());
  rpc::WireReader r(w.buf());
  std::vector<Row> rows;
  Schema schema;
  ASSERT_TRUE(r.Rows(&rows));
  ASSERT_TRUE(r.ReadSchema(&schema));
  ASSERT_TRUE(r.AtEnd());
  EXPECT_EQ(rows, TestRows());  // interned/owned strings compare by content
  EXPECT_EQ(schema.ToString(), TestSchema().ToString());
}

TEST(RpcRows, TruncatedPayloadNeverCrashes) {
  rpc::WireWriter w;
  w.Rows(TestRows());
  const std::string full = w.buf();
  for (size_t n = 0; n < full.size(); ++n) {
    rpc::WireReader r(std::string_view(full).substr(0, n));
    std::vector<Row> rows;
    // Every strict prefix must fail cleanly (poisoned reader, no fault).
    EXPECT_FALSE(r.Rows(&rows) && r.AtEnd()) << "prefix " << n;
  }
}

TEST(RpcRows, CorruptCountFieldIsBounded) {
  // A row count of 2^60 must not allocate 2^60 rows: the reader bounds
  // counts against the remaining payload bytes.
  rpc::WireWriter w;
  const uint64_t absurd = uint64_t{1} << 60;
  w.U64(absurd);
  rpc::WireReader r(w.buf());
  std::vector<Row> rows;
  EXPECT_FALSE(r.Rows(&rows));
  EXPECT_FALSE(r.ok());
}

TEST(RpcRows, FinishFlagsTrailingBytes) {
  rpc::WireWriter w;
  w.U32(7);
  w.U8(9);  // trailing garbage after the number the reader consumes
  rpc::WireReader r(w.buf());
  uint32_t v;
  ASSERT_TRUE(r.U32(&v));
  Status st = r.Finish("test");
  EXPECT_EQ(st.code(), StatusCode::kRpcError);
}

// --------------------------------------------- request/response payloads ----

TEST(RpcMessages, MapRequestRoundTrip) {
  MapTaskSpec spec;
  spec.task_id = 42;
  spec.dispatch = 3;
  spec.input_index = 1;
  spec.src_partition = 5;
  spec.begin = 100;
  spec.end = 200;
  spec.parts = 8;
  spec.quarantine = true;
  spec.skew_enabled = true;
  spec.sample_mask = 0xFF;
  std::string payload;
  wire::EncodeMapRequest(spec, &payload);

  MapTaskSpec got;
  ASSERT_TRUE(wire::DecodeMapRequest(payload, &got).ok());
  EXPECT_EQ(got.task_id, spec.task_id);
  EXPECT_EQ(got.dispatch, spec.dispatch);
  EXPECT_EQ(got.input_index, spec.input_index);
  EXPECT_EQ(got.src_partition, spec.src_partition);
  EXPECT_EQ(got.begin, spec.begin);
  EXPECT_EQ(got.end, spec.end);
  EXPECT_EQ(got.parts, spec.parts);
  EXPECT_EQ(got.quarantine, spec.quarantine);
  EXPECT_EQ(got.skew_enabled, spec.skew_enabled);
  EXPECT_EQ(got.sample_mask, spec.sample_mask);

  uint32_t tid, disp;
  ASSERT_TRUE(wire::PeekIds(payload, &tid, &disp));
  EXPECT_EQ(tid, 42u);
  EXPECT_EQ(disp, 3u);
}

TEST(RpcMessages, MapResponseRoundTripWithResult) {
  wire::MapResponse resp;
  resp.task_id = 9;
  resp.dispatch = 1;
  resp.status = Status::OK();
  resp.result.refs = {{{5, 0}}, {}, {{-3, 1}, {INT64_MAX, 2}}};
  resp.result.quarantined = {{Value(int64_t{0}), Value("bad")}};
  resp.result.first_bad = "row 3: arity mismatch";
  resp.result.rows_in = 17;
  resp.result.rows_shuffled = 15;
  resp.result.sketch = {{0xabcdef, 4}, {0x123456, 2}};
  std::string payload;
  wire::EncodeMapResponse(resp, &payload);

  wire::MapResponse got;
  ASSERT_TRUE(wire::DecodeMapResponse(payload, &got).ok());
  EXPECT_EQ(got.task_id, 9u);
  EXPECT_TRUE(got.status.ok());
  EXPECT_EQ(got.result.refs, resp.result.refs);
  EXPECT_EQ(got.result.quarantined, resp.result.quarantined);
  EXPECT_EQ(got.result.first_bad, resp.result.first_bad);
  EXPECT_EQ(got.result.rows_in, 17u);
  EXPECT_EQ(got.result.rows_shuffled, 15u);
  EXPECT_EQ(got.result.sketch, resp.result.sketch);
}

TEST(RpcMessages, MapResultRefsMustStayInsideTheirTask) {
  // A decodable map response still comes from outside the driver: its refs
  // index into the driver's datasets, so the bucket count and every row index
  // are checked against the task before the driver reads a referenced row.
  MapTaskSpec spec;
  spec.begin = 100;
  spec.end = 200;
  spec.parts = 2;
  const auto decoded = [](const MapTaskResult& result) {
    wire::MapResponse resp;
    resp.result = result;
    std::string payload;
    wire::EncodeMapResponse(resp, &payload);
    wire::MapResponse got;
    EXPECT_TRUE(wire::DecodeMapResponse(payload, &got).ok());
    return got.result;
  };
  MapTaskResult good;
  good.refs = {{{7, 100}}, {{7, 199}}};
  EXPECT_TRUE(CheckMapResult(spec, decoded(good)).ok());

  MapTaskResult past_end = good;
  past_end.refs[1].push_back({8, 200});
  MapTaskResult before_begin = good;
  before_begin.refs[0].push_back({8, 99});
  MapTaskResult huge = good;
  huge.refs[0].push_back({8, UINT64_MAX});
  MapTaskResult too_few;
  too_few.refs = {{{7, 100}}};
  MapTaskResult too_many = good;
  too_many.refs.emplace_back();
  for (const MapTaskResult* bad :
       {&past_end, &before_begin, &huge, &too_few, &too_many}) {
    const Status st = CheckMapResult(spec, decoded(*bad));
    EXPECT_EQ(st.code(), StatusCode::kRpcError) << st.ToString();
  }
}

TEST(RpcMessages, MapResponseCarriesErrorStatus) {
  wire::MapResponse resp;
  resp.task_id = 2;
  resp.dispatch = 7;
  resp.status = Status::ExecutionError("partitioner produced target 9 out of range");
  std::string payload;
  wire::EncodeMapResponse(resp, &payload);
  wire::MapResponse got;
  ASSERT_TRUE(wire::DecodeMapResponse(payload, &got).ok());
  EXPECT_EQ(got.status.code(), StatusCode::kExecutionError);
  EXPECT_EQ(got.status.message(), resp.status.message());
}

TEST(RpcMessages, ReduceRequestRoundTripAndZeroCopyOverloadAgree) {
  // A reduce request names each input bucket by its slice of the stage's
  // shuffle segment instead of carrying rows. The request round-trips, and
  // each bucket read in place through its slice equals the rows written.
  auto segment = ShuffleSegment::Create();
  ASSERT_NE(segment, nullptr);
  rpc::WireWriter w;
  w.Rows({});  // input 0: an empty bucket
  const uint64_t first = w.buf().size();
  w.Rows(TestRows());  // input 1
  ASSERT_TRUE(segment->Allocate(w.buf().size()).ok());
  std::memcpy(segment->data(), w.buf().data(), w.buf().size());

  wire::ReduceRequest req;
  req.task_id = 4;
  req.dispatch = 2;
  req.attempt = 1;
  req.base_partition = 3;
  req.sort_output = true;
  req.fault_kind = FaultKind::kStraggler;
  req.straggler_seconds = 0.125;
  req.inputs = {{0, first}, {first, w.buf().size() - first}};
  std::string payload;
  wire::EncodeReduceRequest(req, &payload);
  // Fixed fields (26 bytes), the input count, then 16 bytes per slice: the
  // request no longer grows with the bucket.
  EXPECT_EQ(payload.size(), 26u + 4u + 2u * 16u);

  wire::ReduceRequest got;
  ASSERT_TRUE(wire::DecodeReduceRequest(payload, &got).ok());
  EXPECT_EQ(got.task_id, 4u);
  EXPECT_EQ(got.dispatch, 2u);
  EXPECT_EQ(got.attempt, 1u);
  EXPECT_EQ(got.base_partition, 3u);
  EXPECT_TRUE(got.sort_output);
  EXPECT_EQ(got.fault_kind, FaultKind::kStraggler);
  EXPECT_EQ(got.straggler_seconds, 0.125);
  EXPECT_EQ(got.inputs, req.inputs);

  std::vector<Row> rows = TestRows();
  ASSERT_TRUE(DecodeBucket(segment->bytes(), got.inputs[0], &rows).ok());
  EXPECT_TRUE(rows.empty());
  ASSERT_TRUE(DecodeBucket(segment->bytes(), got.inputs[1], &rows).ok());
  EXPECT_EQ(rows, TestRows());
}

TEST(ShuffleSegment, SliceOutsideTheSegmentIsRejectedBeforeAnyRead) {
  // A slice comes from a request, so a worker checks it against the
  // segment's size before it reads a byte. The segment is one page and the
  // bucket ends exactly at its end, so a read past the end would fault.
  auto segment = ShuffleSegment::Create();
  ASSERT_NE(segment, nullptr);
  rpc::WireWriter w;
  w.Rows(TestRows());
  const uint64_t size = 4096;
  const uint64_t len = w.buf().size();
  const uint64_t at = size - len;
  ASSERT_TRUE(segment->Allocate(size).ok());
  std::memcpy(segment->data() + at, w.buf().data(), len);

  std::vector<Row> rows;
  ASSERT_TRUE(DecodeBucket(segment->bytes(), {at, len}, &rows).ok());
  EXPECT_EQ(rows, TestRows());

  const uint64_t kMax = std::numeric_limits<uint64_t>::max();
  const SegmentSlice outside[] = {
      {at, len + 1},          // one byte past the end
      {at + 1, len},          // shifted past the end
      {size, 1},              // starts at the end
      {size + 1, 0},          // starts past the end
      {kMax, 1},              // far past the end
      {at, kMax - at + 1},    // offset + length wraps to 0
      {8, kMax - 7},          // wraps to 0 from a small offset
      {at, kMax},             // wraps to just below the offset
  };
  for (const SegmentSlice& slice : outside) {
    const Status st = DecodeBucket(segment->bytes(), slice, &rows);
    EXPECT_EQ(st.code(), StatusCode::kRpcError)
        << slice.offset << " +" << slice.length << ": " << st.ToString();
    EXPECT_NE(st.message().find("outside"), std::string::npos) << st.message();
  }

  // The reduce body on a segment: a rejected slice, or a slice count other
  // than the stage's input count, fails the attempt without running the
  // reducer.
  MRStage stage;
  stage.name = "s";
  bool ran = false;
  stage.reducer = [&ran](int, const std::vector<std::vector<Row>>&,
                         std::vector<Row>*) {
    ran = true;
    return Status::OK();
  };
  const std::vector<Schema> schemas = {TestSchema()};
  const std::vector<std::vector<SegmentSlice>> bad = {
      {{at, kMax - at + 1}}, {{at, len}, {at, len}}, {}};
  for (const std::vector<SegmentSlice>& slices : bad) {
    ReduceAttemptContext ctx;
    ctx.stage = &stage;
    ctx.slices = &slices;
    ctx.input_schemas = &schemas;
    const AttemptReport report =
        RunReduceAttemptOnSegment(segment->bytes(), ctx);
    EXPECT_EQ(report.status.code(), StatusCode::kRpcError)
        << report.status.ToString();
    EXPECT_FALSE(ran);
  }
  const std::vector<SegmentSlice> good = {{at, len}};
  ReduceAttemptContext ctx;
  ctx.stage = &stage;
  ctx.slices = &good;
  ctx.input_schemas = &schemas;
  EXPECT_TRUE(RunReduceAttemptOnSegment(segment->bytes(), ctx).status.ok());
  EXPECT_TRUE(ran);
}

TEST(RpcMessages, ReduceResponseRoundTrip) {
  wire::ReduceResponse resp;
  resp.task_id = 11;
  resp.dispatch = 0;
  resp.cpu_seconds = 0.25;
  resp.status = Status::OK();
  resp.rows = TestRows();
  std::string payload;
  wire::EncodeReduceResponse(resp, &payload);
  wire::ReduceResponse got;
  ASSERT_TRUE(wire::DecodeReduceResponse(payload, &got).ok());
  EXPECT_EQ(got.task_id, 11u);
  EXPECT_EQ(got.cpu_seconds, 0.25);
  EXPECT_EQ(got.rows, TestRows());
}

TEST(RpcMessages, EveryDecoderRejectsTruncationCleanly) {
  // Shared property over the four payload codecs and the shuffle bucket
  // codec a worker reads its segment slices with: every strict prefix of a
  // valid payload decodes to an error, never a crash or an accepted value.
  std::string payloads[5];
  MapTaskSpec spec;
  spec.task_id = 1;
  wire::EncodeMapRequest(spec, &payloads[0]);
  wire::MapResponse mresp;
  mresp.result.refs = {{{1, 0}, {2, 1}}};
  wire::EncodeMapResponse(mresp, &payloads[1]);
  wire::ReduceRequest rreq;
  rreq.inputs = {{0, 123}, {123, 45}};
  wire::EncodeReduceRequest(rreq, &payloads[2]);
  wire::ReduceResponse rresp;
  rresp.rows = TestRows();
  wire::EncodeReduceResponse(rresp, &payloads[3]);
  rpc::WireWriter bucket;
  bucket.Rows(TestRows());
  payloads[4] = bucket.Take();

  for (int which = 0; which < 5; ++which) {
    const std::string& full = payloads[which];
    for (size_t n = 0; n < full.size(); ++n) {
      const std::string_view prefix(full.data(), n);
      Status st;
      switch (which) {
        case 0: {
          MapTaskSpec s;
          st = wire::DecodeMapRequest(prefix, &s);
          break;
        }
        case 1: {
          wire::MapResponse r;
          st = wire::DecodeMapResponse(prefix, &r);
          break;
        }
        case 2: {
          wire::ReduceRequest r;
          st = wire::DecodeReduceRequest(prefix, &r);
          break;
        }
        case 3: {
          wire::ReduceResponse r;
          st = wire::DecodeReduceResponse(prefix, &r);
          break;
        }
        case 4: {
          // The slice is the prefix; the segment holds the whole bucket.
          std::vector<Row> rows;
          st = DecodeBucket(full, {0, n}, &rows);
          break;
        }
      }
      EXPECT_FALSE(st.ok()) << "codec " << which << " prefix " << n;
    }
  }
}

}  // namespace
}  // namespace timr::mr
