// Stage checkpoint/resume for LocalCluster jobs (paper §III-C.1).
//
// In the paper, every stage's output lives in the distributed store, so a job
// that dies between stages restarts from the last completed stage for free.
// Our in-process store dies with the driver; CheckpointStore stands in for the
// durable layer: as each completed stage commits (in stage order), the job
// loop (LocalCluster::RunJobStages) snapshots the datasets that stage wrote
// plus the names of the input datasets it *released* (consumed, see
// MRStage::consumable_inputs); ResumeJob replays those records in order —
// re-inserting outputs and re-releasing consumed inputs — which reproduces
// the exact store state the job had after its last checkpoint, so the resumed
// job provably produces bit-identical final output (mr_cluster_test.cc chaos
// suite).
//
// Two storage modes:
//  - in-memory (default): snapshots are deep copies held by this object;
//    resume requires handing the same CheckpointStore to the next run.
//  - spill directory: datasets are written to files under `spill_dir` with
//    a manifest, and a *fresh* CheckpointStore constructed on that directory
//    reloads the manifest — surviving actual driver death, not just a
//    simulated one.
//
// Spill files are RPC frames (mr/rpc.h), one hash-checked codec for wire and
// disk: a dataset file is a kDatasetHeader frame (schema, partition count)
// plus one kRowBlock frame per partition; the manifest is one kManifest
// frame holding each stage's name, primary row count and released inputs,
// and each output's dataset name, file name, row count and whole-file hash.
// A stage whose files fail verification is re-run, never restored (Restore).

#pragma once

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "mr/dataset.h"

namespace timr::mr {

class CheckpointStore {
 public:
  /// In-memory checkpoints.
  CheckpointStore() = default;

  /// Spill checkpoints to files under `spill_dir` (created if missing). If the
  /// directory already holds a manifest from a previous run, its records are
  /// loaded — construction *is* crash recovery. Load errors are deferred to
  /// Restore so construction stays infallible.
  explicit CheckpointStore(std::string spill_dir);

  /// Number of leading stages checkpointed so far.
  size_t num_stages() const { return records_.size(); }

  const std::string& stage_name(size_t i) const {
    return records_[i].stage_name;
  }

  /// Rows in stage i's primary output (for the stats of resumed stages).
  size_t rows_out(size_t i) const { return records_[i].primary_rows; }

  /// Input datasets stage i released (consumed for the last time). The
  /// checkpoint-cut validity check (analysis/fragment_checks.h) audits these
  /// against the resuming plan's fragment dependencies.
  const std::vector<std::string>& released(size_t i) const {
    return records_[i].released;
  }

  /// Record stage `index` (must be num_stages(): stages checkpoint in order).
  /// `outputs` lists the datasets the stage wrote (primary output first,
  /// quarantine if any); `released` names the input datasets it consumed.
  Status SaveStage(size_t index, const std::string& stage_name,
                   const std::vector<std::pair<std::string, const Dataset*>>& outputs,
                   std::vector<std::string> released);

  /// Replay every record into `store` (which must already hold the job's
  /// external inputs): outputs are inserted, released datasets have their
  /// partitions cleared. `stage_names` is the resuming job's stage list; the
  /// records must be a prefix of it or the checkpoint is rejected as
  /// belonging to a different job. Each stage's files are verified before
  /// the store is touched. The first stage whose file is missing, truncated,
  /// mis-hashed, or disagrees with the manifest (an undecodable manifest
  /// holds zero stages) is dropped with every later one and counted in
  /// corruptions(): corruption costs re-execution, never wrong output.
  /// Returns the number of leading stages restored (the index the job should
  /// resume from).
  Result<size_t> Restore(const std::vector<std::string>& stage_names,
                         std::map<std::string, Dataset>* store);

  /// Checkpoints found corrupt (and dropped) by Restore.
  size_t corruptions() const { return corruptions_; }

 private:
  struct Output {
    std::string name;
    Dataset data;       // in-memory mode: the snapshot itself
    std::string file;   // spill mode: file name under dir_
    uint64_t rows = 0;  // spill mode: row count and whole-file hash
    uint64_t hash = 0;
  };
  struct Record {
    std::string stage_name;
    size_t primary_rows = 0;
    std::vector<Output> outputs;
    std::vector<std::string> released;
  };

  Status WriteManifest() const;
  bool LoadManifest();
  Status LoadOutputs(const Record& rec,
                     std::vector<std::pair<std::string, Dataset>>* out) const;

  std::string dir_;           // empty = in-memory mode
  Status load_status_;        // deferred spill-directory creation error
  bool manifest_corrupt_ = false;  // found at load, counted by Restore
  size_t corruptions_ = 0;
  std::vector<Record> records_;
};

}  // namespace timr::mr
