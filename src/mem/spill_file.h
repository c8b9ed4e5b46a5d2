#ifndef DESIS_MEM_SPILL_FILE_H_
#define DESIS_MEM_SPILL_FILE_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"

namespace desis::mem {

/// Append-only run file for spilled sort-buffer state: each run is a
/// sorted array of doubles written sequentially; reads are checksummed so
/// a truncated or corrupted file surfaces as a Status error, never UB.
/// Run metadata (offset, count, checksum) lives in memory — the file is a
/// single-process scratch area, created under the spill directory and
/// unlinked on destruction (spill hygiene: crashed runs leave files only
/// inside the .gitignore'd spill dir, never in the tree).
///
/// Single-threaded: one SpillFile belongs to one StreamSlicer; the governor
/// hands out one file per client.
class SpillFile {
 public:
  /// Creates a uniquely named run file under `dir` (created if missing).
  static Result<std::unique_ptr<SpillFile>> Create(const std::string& dir);
  ~SpillFile();

  SpillFile(const SpillFile&) = delete;
  SpillFile& operator=(const SpillFile&) = delete;

  /// Appends `n` ascending-sorted values as one run; returns the run index.
  Result<uint32_t> AppendRun(const double* values, size_t n);

  size_t num_runs() const { return runs_.size(); }
  uint64_t run_length(uint32_t run) const { return runs_[run].count; }
  uint64_t bytes_written() const { return bytes_written_; }
  const std::string& path() const { return path_; }

  /// Reads run `run` back into `out` (replacing its contents).
  Status ReadRun(uint32_t run, std::vector<double>* out) const;

  /// K-way merges the given sorted runs together with the (already sorted)
  /// in-memory `resident` values into `out`, ascending. Ties break by
  /// source order (resident last), so the merge is deterministic.
  Status MergeRuns(const std::vector<uint32_t>& runs,
                   const std::vector<double>& resident,
                   std::vector<double>* out) const;

  /// Drops every run and truncates the file to zero bytes — space reuse
  /// once no live slice references any run.
  Status Reset();

 private:
  struct RunMeta {
    uint64_t offset;
    uint64_t count;
    uint64_t checksum;  // FNV-1a over the run's raw bytes
  };

  SpillFile(std::FILE* file, std::string path) : file_(file), path_(std::move(path)) {}

  std::FILE* file_;
  std::string path_;
  std::vector<RunMeta> runs_;
  uint64_t bytes_written_ = 0;
};

/// Resolves the spill directory: `configured` when non-empty, else
/// ".desis_spill" under the current working directory — the build tree for
/// tests and benches, and .gitignore'd in case a binary runs from the
/// repository root.
std::string ResolveSpillDir(const std::string& configured);

}  // namespace desis::mem

#endif  // DESIS_MEM_SPILL_FILE_H_
