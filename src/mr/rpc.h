// Length-prefixed, hash-checked framing and compact row serialization: the
// one codec for the driver/worker wire (DESIGN.md §5g) and for spill
// checkpoints on disk (mr/checkpoint.h).
//
// The format has two layers:
//
//  - Frame: a fixed 24-byte header [magic u32 | type u8 | pad u8 | pad u16 |
//    payload_len u64 | payload_hash u64] followed by `payload_len` bytes of
//    payload. The hash (common/hash.h HashBytes over the payload) makes a
//    truncated or corrupted payload detectable without trusting its contents;
//    the length field is capped (kMaxFramePayload) so a corrupt header cannot
//    make the receiver allocate the address space. Every malformed condition —
//    bad magic, unknown type, oversized length, short read, hash mismatch —
//    surfaces as a structured StatusCode::kRpcError, never a crash or a hang
//    on garbage bytes.
//
//  - Payload: WireWriter/WireReader append/parse scalars, strings, schemas,
//    and rows. A cell is [type u8][int64 | double | len u64 + bytes]. The
//    same cells lay out the shuffle buckets in a stage's shared segment
//    (mr/segment.h) and the reduce outputs workers send back, and frames of
//    them hold checkpointed datasets on disk (stored-block types below). All
//    integers are host-endian: the driver and its forked workers are by
//    construction the same architecture, and checkpoints are read back by
//    the machine that wrote them.
//
// Framed I/O runs over blocking Unix-socket fds (socketpair); SendFrame uses
// MSG_NOSIGNAL so a peer death yields EPIPE instead of killing the process.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/row.h"
#include "common/status.h"

namespace timr::mr::rpc {

// ---------------------------------------------------------------- framing --

inline constexpr uint32_t kFrameMagic = 0x43505254;  // "TRPC" little-endian
inline constexpr uint64_t kMaxFramePayload = uint64_t{1} << 30;
inline constexpr size_t kFrameHeaderBytes = 24;

enum class MsgType : uint8_t {
  kHello = 1,           // worker -> driver, once after spawn
  kHeartbeat = 2,       // worker -> driver, periodic liveness
  kMapRequest = 3,      // driver -> worker
  kMapResponse = 4,     // worker -> driver
  kReduceRequest = 5,   // driver -> worker
  kReduceResponse = 6,  // worker -> driver
  kShutdown = 7,        // driver -> worker: exit cleanly
  // Stored blocks: frames that live in files, never on a socket.
  kDatasetHeader = 8,  // a dataset's schema + partition count
  kRowBlock = 9,       // one partition's rows
  kManifest = 10,      // a checkpoint directory's stage records
};

/// True when `t` is one of the MsgType values above (a frame with any other
/// type byte is malformed).
bool IsKnownMsgType(uint8_t t);

struct Frame {
  MsgType type = MsgType::kHeartbeat;
  std::string payload;
};

/// Serialize a frame header+payload into `out` (overwrites it). Split out
/// from SendFrame so tests can build byte-exact (and deliberately corrupt)
/// frames without a socket.
void EncodeFrame(MsgType type, std::string_view payload, std::string* out);

/// Parse one frame from the start of `bytes`. A valid-but-incomplete prefix
/// sets needs_more (status stays OK, no frame); a malformed prefix yields a
/// kRpcError status; a complete valid frame fills `frame` and `consumed`.
struct DecodeResult {
  Status status;        // OK: a full valid frame was parsed
  bool needs_more = false;  // the prefix is valid so far but incomplete
  Frame frame;
  size_t consumed = 0;
};
DecodeResult DecodeFrame(std::string_view bytes);

/// Write one frame to a blocking fd: the header and the payload go out in one
/// sendmsg of two iovecs, never copied into one buffer, and partial writes
/// are continued. EPIPE / EBADF / any write error is a kRpcError (the caller
/// treats the peer as lost).
Status SendFrame(int fd, MsgType type, std::string_view payload);

/// Read exactly one frame from a blocking fd. EOF before a full header is
/// kRpcError "peer closed"; EOF or any error mid-frame, bad magic, an unknown
/// or stored-block type, oversized length, or payload-hash mismatch are
/// kRpcError with a message naming the condition. Never blocks past the
/// peer's data: the fd is read exactly as far as the declared frame length.
Status RecvFrame(int fd, Frame* out);

// ------------------------------------------------------ payload encoding --

/// The bytes WireWriter::AppendRow writes for `row`, and writing them at `out`
/// (which must hold that many); returns the end of what was written. The
/// shuffle encodes each bucket with these straight into its slice of a
/// stage's shared segment (mr/segment.h).
size_t WireRowBytes(const Row& row);
char* PutWireRow(const Row& row, char* out);

/// Append-only payload builder. All writers are infallible.
class WireWriter {
 public:
  void U8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void U32(uint32_t v) { AppendRaw(&v, sizeof(v)); }
  void U64(uint64_t v) { AppendRaw(&v, sizeof(v)); }
  void F64(double v) { AppendRaw(&v, sizeof(v)); }
  void Str(std::string_view s) {
    U64(s.size());
    buf_.append(s.data(), s.size());
  }
  void AppendRow(const Row& row);
  void Rows(const std::vector<Row>& rows);
  void WriteSchema(const Schema& schema);

  const std::string& buf() const { return buf_; }
  std::string Take() { return std::move(buf_); }

 private:
  void AppendRaw(const void* p, size_t n) {
    buf_.append(static_cast<const char*>(p), n);
  }
  std::string buf_;
};

/// Bounds-checked payload parser: every read returns false (and poisons the
/// reader) instead of reading past the end, so a malformed payload can never
/// fault. Cell/row/schema readers also bound counts so corrupt length fields
/// cannot cause runaway allocation.
class WireReader {
 public:
  explicit WireReader(std::string_view data) : data_(data) {}

  bool U8(uint8_t* v);
  bool U32(uint32_t* v);
  bool U64(uint64_t* v);
  bool F64(double* v);
  bool Str(std::string* s);
  bool Cell(Value* v);
  bool ReadRow(Row* row);
  bool Rows(std::vector<Row>* rows);
  bool ReadSchema(Schema* schema);

  bool ok() const { return ok_; }
  bool AtEnd() const { return ok_ && pos_ == data_.size(); }
  size_t remaining() const { return data_.size() - pos_; }

  /// Structured error for a payload that failed to parse or has trailing
  /// garbage; OK only when fully consumed without a parse failure.
  Status Finish(const std::string& what) const {
    if (!ok_) return Status::RpcError("malformed " + what + " payload");
    if (pos_ != data_.size()) {
      return Status::RpcError(what + " payload has trailing bytes");
    }
    return Status::OK();
  }

 private:
  bool ReadRaw(void* p, size_t n);
  std::string_view data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace timr::mr::rpc
