#include "mr/segment.h"

#include <errno.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <string>

#include "mr/rpc.h"

namespace timr::mr {

namespace {

Status SysError(const char* what) {
  return Status::ExecutionError(std::string("shuffle segment: ") + what +
                                ": " + ::strerror(errno));
}

}  // namespace

std::unique_ptr<ShuffleSegment> ShuffleSegment::Create() {
  const int fd = ::memfd_create("timr-shuffle", MFD_CLOEXEC);
  if (fd < 0) return nullptr;
  return std::unique_ptr<ShuffleSegment>(new ShuffleSegment(fd));
}

ShuffleSegment::~ShuffleSegment() {
  if (data_ != nullptr) ::munmap(data_, size_);
  ::close(fd_);
}

Status ShuffleSegment::Allocate(uint64_t bytes) {
  if (bytes == 0) return Status::OK();
  if (::ftruncate(fd_, static_cast<off_t>(bytes)) != 0) {
    return SysError("ftruncate");
  }
  void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_SHARED, fd_, 0);
  if (p == MAP_FAILED) return SysError("mmap");
  data_ = static_cast<char*>(p);
  size_ = bytes;
  return Status::OK();
}

Status MapSegmentReadOnly(int fd, std::string_view* segment) {
  struct stat st;
  if (::fstat(fd, &st) != 0) return SysError("fstat");
  const auto size = static_cast<uint64_t>(st.st_size);
  if (size == 0) {
    *segment = {};
    return Status::OK();
  }
  void* p = ::mmap(nullptr, size, PROT_READ, MAP_SHARED, fd, 0);
  if (p == MAP_FAILED) return SysError("mmap");
  *segment = {static_cast<const char*>(p), size};
  return Status::OK();
}

Status DecodeBucket(std::string_view segment, SegmentSlice slice,
                    std::vector<Row>* rows) {
  // Written so that no sum can wrap: offset <= size, then length <= the rest.
  if (slice.offset > segment.size() ||
      slice.length > segment.size() - slice.offset) {
    return Status::RpcError(
        "bucket slice [" + std::to_string(slice.offset) + ", +" +
        std::to_string(slice.length) + ") lies outside the " +
        std::to_string(segment.size()) + "-byte shuffle segment");
  }
  rpc::WireReader r(segment.substr(slice.offset, slice.length));
  r.Rows(rows);
  return r.Finish("shuffle bucket");
}

}  // namespace timr::mr
