#include "mr/checkpoint.h"

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string_view>

#include "common/hash.h"
#include "mr/rpc.h"

namespace timr::mr {

namespace {

namespace fs = std::filesystem;
using rpc::MsgType;

constexpr char kManifestName[] = "manifest";

void AppendFrame(MsgType type, const std::string& payload, std::string* out) {
  std::string frame;
  rpc::EncodeFrame(type, payload, &frame);
  out->append(frame);
}

/// Decode the `type` frame at the start of `*bytes` and step past it. A
/// truncated, corrupt, or mistyped frame is an error.
Result<std::string> NextFrame(std::string_view* bytes, MsgType type) {
  rpc::DecodeResult r = rpc::DecodeFrame(*bytes);
  TIMR_RETURN_NOT_OK(r.status);
  if (r.needs_more) return Status::IOError("checkpoint: truncated frame");
  if (r.frame.type != type) {
    return Status::IOError("checkpoint: unexpected frame type");
  }
  bytes->remove_prefix(r.consumed);
  return std::move(r.frame.payload);
}

std::string EncodeDataset(const Dataset& dataset) {
  rpc::WireWriter header;
  header.WriteSchema(dataset.schema());
  header.U64(dataset.num_partitions());
  std::string out;
  AppendFrame(MsgType::kDatasetHeader, header.buf(), &out);
  for (size_t p = 0; p < dataset.num_partitions(); ++p) {
    rpc::WireWriter block;
    block.Rows(dataset.partition(p));
    AppendFrame(MsgType::kRowBlock, block.buf(), &out);
  }
  return out;
}

Result<Dataset> DecodeDataset(std::string_view bytes) {
  TIMR_ASSIGN_OR_RETURN(const std::string header,
                        NextFrame(&bytes, MsgType::kDatasetHeader));
  rpc::WireReader hr(header);
  Schema schema;
  uint64_t nparts = 0;
  hr.ReadSchema(&schema);
  hr.U64(&nparts);
  TIMR_RETURN_NOT_OK(hr.Finish("dataset header"));
  // Each partition is at least one frame header, so the bytes present bound
  // the count before anything is allocated for it.
  if (nparts > bytes.size() / rpc::kFrameHeaderBytes) {
    return Status::IOError("checkpoint: partition count exceeds file");
  }
  Dataset dataset(std::move(schema), nparts);
  for (uint64_t p = 0; p < nparts; ++p) {
    TIMR_ASSIGN_OR_RETURN(const std::string block,
                          NextFrame(&bytes, MsgType::kRowBlock));
    rpc::WireReader rr(block);
    rr.Rows(&dataset.partition(p));
    TIMR_RETURN_NOT_OK(rr.Finish("row block"));
  }
  if (!bytes.empty()) return Status::IOError("checkpoint: trailing bytes");
  return dataset;
}

Result<std::string> ReadFileBytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return Status::IOError("checkpoint: cannot open " + path);
  return std::string(std::istreambuf_iterator<char>(is), {});
}

Status WriteFileBytes(const std::string& path, std::string_view bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  os.flush();
  if (!os) return Status::IOError("checkpoint: write failed for " + path);
  return Status::OK();
}

}  // namespace

CheckpointStore::CheckpointStore(std::string spill_dir)
    : dir_(std::move(spill_dir)) {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) {
    load_status_ =
        Status::IOError("checkpoint: cannot create " + dir_ + ": " + ec.message());
    return;
  }
  if (fs::exists(fs::path(dir_) / kManifestName)) {
    manifest_corrupt_ = !LoadManifest();
  }
}

Status CheckpointStore::SaveStage(
    size_t index, const std::string& stage_name,
    const std::vector<std::pair<std::string, const Dataset*>>& outputs,
    std::vector<std::string> released) {
  TIMR_RETURN_NOT_OK(load_status_);
  if (index != records_.size()) {
    return Status::Invalid("checkpoint: stage " + std::to_string(index) +
                           " saved out of order (have " +
                           std::to_string(records_.size()) + " records)");
  }
  Record rec;
  rec.stage_name = stage_name;
  rec.primary_rows = outputs.empty() ? 0 : outputs[0].second->TotalRows();
  rec.released = std::move(released);
  for (size_t j = 0; j < outputs.size(); ++j) {
    const auto& [name, dataset] = outputs[j];
    Output out;
    out.name = name;
    if (dir_.empty()) {
      out.data = *dataset;  // deep snapshot
    } else {
      out.file =
          "stage" + std::to_string(index) + "_out" + std::to_string(j) + ".ds";
      out.rows = dataset->TotalRows();
      const std::string bytes = EncodeDataset(*dataset);
      out.hash = HashBytes(bytes.data(), bytes.size());
      TIMR_RETURN_NOT_OK(
          WriteFileBytes((fs::path(dir_) / out.file).string(), bytes));
    }
    rec.outputs.push_back(std::move(out));
  }
  records_.push_back(std::move(rec));
  if (!dir_.empty()) return WriteManifest();
  return Status::OK();
}

Status CheckpointStore::LoadOutputs(
    const Record& rec,
    std::vector<std::pair<std::string, Dataset>>* out) const {
  for (const Output& o : rec.outputs) {
    if (dir_.empty()) {
      out->emplace_back(o.name, o.data);  // copy; the record stays reusable
      continue;
    }
    const std::string path = (fs::path(dir_) / o.file).string();
    TIMR_ASSIGN_OR_RETURN(const std::string bytes, ReadFileBytes(path));
    if (HashBytes(bytes.data(), bytes.size()) != o.hash) {
      return Status::IOError("checkpoint: hash mismatch in " + path);
    }
    TIMR_ASSIGN_OR_RETURN(Dataset dataset, DecodeDataset(bytes));
    if (dataset.TotalRows() != o.rows) {
      return Status::IOError("checkpoint: row count of " + path +
                             " disagrees with the manifest");
    }
    out->emplace_back(o.name, std::move(dataset));
  }
  return Status::OK();
}

Result<size_t> CheckpointStore::Restore(
    const std::vector<std::string>& stage_names,
    std::map<std::string, Dataset>* store) {
  TIMR_RETURN_NOT_OK(load_status_);
  if (manifest_corrupt_) {  // it was loaded as zero stages
    manifest_corrupt_ = false;
    ++corruptions_;
  }
  if (records_.size() > stage_names.size()) {
    return Status::Invalid("checkpoint: holds " +
                           std::to_string(records_.size()) +
                           " stages but the job has only " +
                           std::to_string(stage_names.size()));
  }
  for (size_t i = 0; i < records_.size(); ++i) {
    if (records_[i].stage_name != stage_names[i]) {
      return Status::Invalid("checkpoint: stage " + std::to_string(i) +
                             " is '" + records_[i].stage_name +
                             "' but the job expects '" + stage_names[i] +
                             "' — checkpoint belongs to a different job");
    }
  }
  // Replay in order: outputs inserted, consumed inputs re-released. This
  // reproduces the exact store state after the last checkpointed stage.
  for (size_t i = 0; i < records_.size(); ++i) {
    std::vector<std::pair<std::string, Dataset>> loaded;
    if (!LoadOutputs(records_[i], &loaded).ok()) {
      // Demote this stage and every later one to "not checkpointed": the job
      // re-runs them, and their next SaveStage rewrites files and manifest.
      records_.resize(i);
      ++corruptions_;
      return i;
    }
    for (auto& [name, dataset] : loaded) (*store)[name] = std::move(dataset);
    for (const std::string& name : records_[i].released) {
      auto it = store->find(name);
      if (it == store->end()) {
        return Status::KeyError(
            "checkpoint resume: released dataset '" + name +
            "' not in store — external inputs must be re-provided");
      }
      for (size_t p = 0; p < it->second.num_partitions(); ++p) {
        std::vector<Row>().swap(it->second.partition(p));
      }
    }
  }
  return records_.size();
}

Status CheckpointStore::WriteManifest() const {
  rpc::WireWriter w;
  w.U64(records_.size());
  for (const Record& rec : records_) {
    w.Str(rec.stage_name);
    w.U64(rec.primary_rows);
    w.U64(rec.released.size());
    for (const std::string& name : rec.released) w.Str(name);
    w.U64(rec.outputs.size());
    for (const Output& o : rec.outputs) {
      w.Str(o.name);
      w.Str(o.file);
      w.U64(o.rows);
      w.U64(o.hash);
    }
  }
  std::string bytes;
  rpc::EncodeFrame(MsgType::kManifest, w.buf(), &bytes);
  const fs::path tmp = fs::path(dir_) / (std::string(kManifestName) + ".tmp");
  TIMR_RETURN_NOT_OK(WriteFileBytes(tmp.string(), bytes));
  // Atomic publish: a crash mid-checkpoint leaves the previous manifest.
  std::error_code ec;
  fs::rename(tmp, fs::path(dir_) / kManifestName, ec);
  if (ec) return Status::IOError("checkpoint: manifest rename: " + ec.message());
  return Status::OK();
}

bool CheckpointStore::LoadManifest() {
  auto bytes = ReadFileBytes((fs::path(dir_) / kManifestName).string());
  if (!bytes.ok()) return false;
  std::string_view rest = bytes.ValueOrDie();
  auto payload = NextFrame(&rest, MsgType::kManifest);
  if (!payload.ok() || !rest.empty()) return false;
  // Every count below is bounded by the payload: each item reads at least
  // one u64, and a reader that runs dry stays failed.
  rpc::WireReader r(payload.ValueOrDie());
  std::vector<Record> records;
  uint64_t nstages = 0;
  r.U64(&nstages);
  for (uint64_t i = 0; i < nstages && r.ok(); ++i) {
    Record& rec = records.emplace_back();
    uint64_t primary_rows = 0;
    uint64_t n = 0;
    r.Str(&rec.stage_name);
    r.U64(&primary_rows);
    rec.primary_rows = primary_rows;
    r.U64(&n);
    for (uint64_t j = 0; j < n && r.ok(); ++j) {
      r.Str(&rec.released.emplace_back());
    }
    r.U64(&n);
    for (uint64_t j = 0; j < n && r.ok(); ++j) {
      Output& o = rec.outputs.emplace_back();
      r.Str(&o.name);
      r.Str(&o.file);
      r.U64(&o.rows);
      r.U64(&o.hash);
    }
  }
  if (!r.Finish("manifest").ok()) return false;
  records_ = std::move(records);
  return true;
}

}  // namespace timr::mr
