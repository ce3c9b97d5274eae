#include "mr/rpc.h"

#include <errno.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>

#include "common/hash.h"

namespace timr::mr::rpc {

namespace {

// Counts in payloads are bounded so a corrupt field cannot cause runaway
// allocation before the data backing it is even present.
constexpr uint64_t kMaxCells = uint64_t{1} << 20;
constexpr uint64_t kMaxFields = uint64_t{1} << 20;
constexpr uint64_t kMaxRows = uint64_t{1} << 40;  // reserve() is clamped below

uint32_t GetU32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

uint64_t GetU64(const char* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

/// read() exactly n bytes; false on EOF/error before n bytes arrived.
/// `*got_any` reports whether at least one byte arrived (distinguishes a
/// clean peer close from a mid-frame truncation).
bool ReadExact(int fd, void* buf, size_t n, bool* got_any) {
  char* p = static_cast<char*>(buf);
  size_t off = 0;
  while (off < n) {
    const ssize_t r = ::read(fd, p + off, n - off);
    if (r < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (r == 0) return false;  // EOF
    if (got_any != nullptr) *got_any = true;
    off += static_cast<size_t>(r);
  }
  return true;
}

/// The frame header for `payload`: [magic u32 | type u8 | pad u8 | pad u16 |
/// payload_len u64 | payload_hash u64].
void PutHeader(MsgType type, std::string_view payload, char* out) {
  const uint32_t magic = kFrameMagic;
  const uint64_t len = payload.size();
  const uint64_t hash = HashBytes(payload.data(), payload.size());
  std::memcpy(out, &magic, sizeof(magic));
  out[4] = static_cast<char>(type);
  std::memset(out + 5, 0, 3);  // padding: one u8 + one u16, reserved
  std::memcpy(out + 8, &len, sizeof(len));
  std::memcpy(out + 16, &hash, sizeof(hash));
}

/// Stored-block frames live in files; RecvFrame rejects them.
bool IsStoredBlockType(uint8_t t) {
  return t >= static_cast<uint8_t>(MsgType::kDatasetHeader) &&
         t <= static_cast<uint8_t>(MsgType::kManifest);
}

}  // namespace

bool IsKnownMsgType(uint8_t t) {
  return t >= static_cast<uint8_t>(MsgType::kHello) &&
         t <= static_cast<uint8_t>(MsgType::kManifest);
}

void EncodeFrame(MsgType type, std::string_view payload, std::string* out) {
  out->resize(kFrameHeaderBytes);
  PutHeader(type, payload, out->data());
  out->append(payload.data(), payload.size());
}

DecodeResult DecodeFrame(std::string_view bytes) {
  DecodeResult res;
  if (bytes.size() < kFrameHeaderBytes) {
    // Only a prefix of the header: malformed if what is there already
    // contradicts the format, otherwise just incomplete.
    if (bytes.size() >= sizeof(uint32_t) && GetU32(bytes.data()) != kFrameMagic) {
      res.status = Status::RpcError("rpc frame: bad magic");
      return res;
    }
    res.needs_more = true;
    return res;
  }
  if (GetU32(bytes.data()) != kFrameMagic) {
    res.status = Status::RpcError("rpc frame: bad magic");
    return res;
  }
  const uint8_t type = static_cast<uint8_t>(bytes[4]);
  if (!IsKnownMsgType(type)) {
    res.status = Status::RpcError("rpc frame: unknown message type " +
                                  std::to_string(static_cast<int>(type)));
    return res;
  }
  const uint64_t len = GetU64(bytes.data() + 8);
  if (len > kMaxFramePayload) {
    res.status = Status::RpcError("rpc frame: payload length " +
                                  std::to_string(len) + " exceeds cap");
    return res;
  }
  if (bytes.size() < kFrameHeaderBytes + len) {
    res.needs_more = true;
    return res;
  }
  const uint64_t declared_hash = GetU64(bytes.data() + 16);
  const std::string_view payload = bytes.substr(kFrameHeaderBytes, len);
  if (HashBytes(payload.data(), payload.size()) != declared_hash) {
    res.status = Status::RpcError("rpc frame: payload hash mismatch");
    return res;
  }
  res.frame.type = static_cast<MsgType>(type);
  res.frame.payload.assign(payload.data(), payload.size());
  res.consumed = kFrameHeaderBytes + len;
  return res;
}

Status SendFrame(int fd, MsgType type, std::string_view payload) {
  char header[kFrameHeaderBytes];
  PutHeader(type, payload, header);
  iovec iov[2] = {{header, sizeof(header)},
                  {const_cast<char*>(payload.data()), payload.size()}};
  msghdr msg{};
  msg.msg_iov = iov;
  msg.msg_iovlen = 2;
  while (msg.msg_iovlen > 0) {
    const ssize_t w = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return Status::RpcError(std::string("rpc send failed: ") +
                              ::strerror(errno));
    }
    // Continue a partial write: drop the iovecs sent in full, then advance
    // into the first one sent in part.
    auto sent = static_cast<size_t>(w);
    while (msg.msg_iovlen > 0 && sent >= msg.msg_iov->iov_len) {
      sent -= msg.msg_iov->iov_len;
      ++msg.msg_iov;
      --msg.msg_iovlen;
    }
    if (msg.msg_iovlen > 0) {
      msg.msg_iov->iov_base = static_cast<char*>(msg.msg_iov->iov_base) + sent;
      msg.msg_iov->iov_len -= sent;
    }
  }
  return Status::OK();
}

Status RecvFrame(int fd, Frame* out) {
  char header[kFrameHeaderBytes];
  bool got_any = false;
  if (!ReadExact(fd, header, sizeof(header), &got_any)) {
    return got_any
               ? Status::RpcError("rpc frame: truncated header")
               : Status::RpcError("rpc frame: peer closed the connection");
  }
  const std::string_view hv(header, sizeof(header));
  if (GetU32(hv.data()) != kFrameMagic) {
    return Status::RpcError("rpc frame: bad magic");
  }
  const uint8_t type = static_cast<uint8_t>(hv[4]);
  if (!IsKnownMsgType(type) || IsStoredBlockType(type)) {
    return Status::RpcError("rpc frame: message type " +
                            std::to_string(static_cast<int>(type)) +
                            " is not a wire message");
  }
  const uint64_t len = GetU64(hv.data() + 8);
  if (len > kMaxFramePayload) {
    return Status::RpcError("rpc frame: payload length " + std::to_string(len) +
                            " exceeds cap");
  }
  const uint64_t declared_hash = GetU64(hv.data() + 16);
  std::string payload(len, '\0');
  if (len > 0 && !ReadExact(fd, payload.data(), len, nullptr)) {
    return Status::RpcError("rpc frame: truncated payload (got fewer than " +
                            std::to_string(len) + " bytes)");
  }
  if (HashBytes(payload.data(), payload.size()) != declared_hash) {
    return Status::RpcError("rpc frame: payload hash mismatch");
  }
  out->type = static_cast<MsgType>(type);
  out->payload = std::move(payload);
  return Status::OK();
}

// ------------------------------------------------------ payload encoding --

size_t WireRowBytes(const Row& row) {
  size_t n = sizeof(uint64_t);
  for (const Value& v : row) {
    n += 1 + sizeof(uint64_t);
    if (v.type() == ValueType::kString) n += v.AsString().size();
  }
  return n;
}

char* PutWireRow(const Row& row, char* out) {
  const auto put = [&out](const void* p, size_t n) {
    std::memcpy(out, p, n);
    out += n;
  };
  const uint64_t cells = row.size();
  put(&cells, sizeof(cells));
  for (const Value& v : row) {
    *out++ = static_cast<char>(v.type());
    switch (v.type()) {
      case ValueType::kInt64: {
        const int64_t x = v.AsInt64();
        put(&x, sizeof(x));
        break;
      }
      case ValueType::kDouble: {
        const double x = v.AsDouble();
        put(&x, sizeof(x));
        break;
      }
      case ValueType::kString: {
        const std::string& str = v.AsString();
        const uint64_t len = str.size();
        put(&len, sizeof(len));
        put(str.data(), str.size());
        break;
      }
    }
  }
  return out;
}

void WireWriter::AppendRow(const Row& row) {
  const size_t at = buf_.size();
  buf_.resize(at + WireRowBytes(row));
  PutWireRow(row, buf_.data() + at);
}

void WireWriter::Rows(const std::vector<Row>& rows) {
  U64(rows.size());
  for (const Row& r : rows) AppendRow(r);
}

void WireWriter::WriteSchema(const Schema& schema) {
  U64(schema.num_fields());
  for (const auto& f : schema.fields()) {
    Str(f.name);
    U8(static_cast<uint8_t>(f.type));
  }
}

bool WireReader::ReadRaw(void* p, size_t n) {
  if (!ok_ || data_.size() - pos_ < n) {
    ok_ = false;
    return false;
  }
  std::memcpy(p, data_.data() + pos_, n);
  pos_ += n;
  return true;
}

bool WireReader::U8(uint8_t* v) { return ReadRaw(v, sizeof(*v)); }
bool WireReader::U32(uint32_t* v) { return ReadRaw(v, sizeof(*v)); }
bool WireReader::U64(uint64_t* v) { return ReadRaw(v, sizeof(*v)); }
bool WireReader::F64(double* v) { return ReadRaw(v, sizeof(*v)); }

bool WireReader::Str(std::string* s) {
  uint64_t n = 0;
  if (!U64(&n)) return false;
  if (n > data_.size() - pos_) {
    ok_ = false;
    return false;
  }
  s->assign(data_.data() + pos_, n);
  pos_ += n;
  return true;
}

bool WireReader::Cell(Value* v) {
  uint8_t tag = 0;
  if (!U8(&tag)) return false;
  switch (tag) {
    case static_cast<uint8_t>(ValueType::kInt64): {
      int64_t x = 0;
      if (!ReadRaw(&x, sizeof(x))) return false;
      *v = Value(x);
      return true;
    }
    case static_cast<uint8_t>(ValueType::kDouble): {
      double x = 0;
      if (!F64(&x)) return false;
      *v = Value(x);
      return true;
    }
    case static_cast<uint8_t>(ValueType::kString): {
      std::string s;
      if (!Str(&s)) return false;
      *v = Value(std::move(s));
      return true;
    }
    default:
      ok_ = false;
      return false;
  }
}

bool WireReader::ReadRow(Row* row) {
  uint64_t n = 0;
  if (!U64(&n) || n > kMaxCells) {
    ok_ = false;
    return false;
  }
  row->clear();
  row->reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    Value v;
    if (!Cell(&v)) return false;
    row->push_back(std::move(v));
  }
  return true;
}

bool WireReader::Rows(std::vector<Row>* rows) {
  uint64_t n = 0;
  if (!U64(&n) || n > kMaxRows) {
    ok_ = false;
    return false;
  }
  rows->clear();
  // Each serialized row is at least 8 bytes (its cell count), so `remaining`
  // bounds how many rows a well-formed payload can still hold — a corrupt
  // count fails on the first missing row instead of pre-allocating for it.
  rows->reserve(std::min<uint64_t>(n, remaining() / 8));
  for (uint64_t i = 0; i < n; ++i) {
    Row r;
    if (!ReadRow(&r)) return false;
    rows->push_back(std::move(r));
  }
  return true;
}

bool WireReader::ReadSchema(Schema* schema) {
  uint64_t n = 0;
  if (!U64(&n) || n > kMaxFields) {
    ok_ = false;
    return false;
  }
  std::vector<Schema::Field> fields;
  fields.reserve(std::min<uint64_t>(n, remaining() / 9));
  for (uint64_t i = 0; i < n; ++i) {
    Schema::Field f;
    uint8_t type = 0;
    if (!Str(&f.name) || !U8(&type) || type > 2) {
      ok_ = false;
      return false;
    }
    f.type = static_cast<ValueType>(type);
    fields.push_back(std::move(f));
  }
  *schema = Schema(std::move(fields));
  return true;
}

}  // namespace timr::mr::rpc
