// A stage's shuffle segment: the shared memory through which a worker gang's
// reducers read their input buckets (DESIGN.md §5g).
//
// In process mode the stage pipeline creates one segment per stage, an
// anonymous memfd, before it forks the gang, so every worker (and every
// respawned one) inherits its fd. Once the map phase has routed every row,
// the driver sizes the segment, maps it read-write, and writes each
// (partition, input) bucket into its own slice, in canonical order and in
// WireWriter::Rows' layout. A reduce request then names its buckets by slice
// (offset, length) instead of carrying their rows. A worker maps the segment
// read-only and decodes its slices in place; the worker-gang backend's
// in-process fallback decodes the same slices from the driver's mapping.
//
// Trust: the driver writes the segment and never reads back what a worker
// could have changed (workers map it read-only). A worker trusts neither the
// slices a request names nor their bytes: DecodeBucket checks a slice against
// the segment's size before it reads a byte of it, and decodes with the
// bounds-checked WireReader.

#pragma once

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "common/row.h"
#include "common/status.h"

namespace timr::mr {

/// One bucket's bytes in a stage's segment.
struct SegmentSlice {
  uint64_t offset = 0;
  uint64_t length = 0;
  bool operator==(const SegmentSlice&) const = default;
};

/// The driver's handle on a segment: owns the memfd and its read-write
/// mapping.
class ShuffleSegment {
 public:
  /// A new, empty segment; nullptr when the kernel cannot make one.
  static std::unique_ptr<ShuffleSegment> Create();
  ~ShuffleSegment();
  ShuffleSegment(const ShuffleSegment&) = delete;
  ShuffleSegment& operator=(const ShuffleSegment&) = delete;

  /// The fd workers inherit across fork().
  int fd() const { return fd_; }

  /// Size the segment to `bytes` and map it read-write. Called once, before
  /// any worker maps the segment.
  Status Allocate(uint64_t bytes);

  char* data() const { return data_; }
  /// The whole segment (empty until Allocate).
  std::string_view bytes() const { return {data_, size_}; }

 private:
  explicit ShuffleSegment(int fd) : fd_(fd) {}
  int fd_ = -1;
  char* data_ = nullptr;
  uint64_t size_ = 0;
};

/// Map an inherited segment fd read-only at its current size, for the life of
/// the process (a worker maps its stage's segment once and exits with it).
Status MapSegmentReadOnly(int fd, std::string_view* segment);

/// Decode the rows of the bucket at `slice` of `segment`. A slice that does
/// not lie inside the segment — offset + length overflowing included — is a
/// kRpcError before any of its bytes is read; so is a slice whose bytes are
/// not exactly one WireWriter::Rows payload.
Status DecodeBucket(std::string_view segment, SegmentSlice slice,
                    std::vector<Row>* rows);

}  // namespace timr::mr
