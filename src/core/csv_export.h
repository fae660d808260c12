// Exact CSV export of feature vectors: the format superfe_run writes.
//
// One header row ("group,timestamp_ns,<slot names>"), then one row per
// vector: the group key as "<granularity>:<hex bytes>", the emission time,
// and every value as the shortest decimal that strtod() reads back to the
// same bits (std::to_chars). Row order is unspecified when the NIC cluster
// runs in parallel; compare exports as sorted rows.
//
// CsvSink writes that format to a stream. Besides the serial
// OnFeatureVector path it offers one writer per cluster member
// (FeatureSink::MemberSink), each formatting into a private chunk that is
// appended to the stream under the sink's lock once it reaches
// kCsvChunkBytes. Rows still sitting in member chunks reach the stream only
// at Drain(), which the caller runs at a quiescent point: after Run()
// returns, or at a daemon epoch boundary before the next file opens.
#ifndef SUPERFE_CORE_CSV_EXPORT_H_
#define SUPERFE_CORE_CSV_EXPORT_H_

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "core/feature_vector.h"
#include "policy/compile.h"

namespace superfe {

// Appends the header row (with its newline) to `out`.
void AppendCsvHeader(std::string* out, const NicProgram& program);

// Appends one vector's row (with its newline) to `out`, growing it as
// needed: a row can hold thousands of values.
void AppendCsvRow(std::string* out, const FeatureVector& vector);

// A member writer appends its chunk to the stream once it holds this many
// bytes (one row may push a chunk past it).
inline constexpr size_t kCsvChunkBytes = 64 * 1024;

class CsvSink : public FeatureSink {
 public:
  // Writes the header row to `out` at once.
  CsvSink(std::ostream* out, const NicProgram& program);
  ~CsvSink() override;

  void OnFeatureVector(FeatureVector&& vector) override;
  FeatureSink* MemberSink(size_t member) override;

  // Appends every pending chunk to the stream and flushes it; returns
  // false if any write to the stream failed. Quiescent points only: no
  // vector may be in flight into this sink.
  bool Drain();

  // Rows formatted so far (quiescent reads only).
  uint64_t count() const;

 protected:
  // Writes no header: the subclass writes one per file it opens.
  CsvSink(const NicProgram& program, std::ostream* out);
  const NicProgram& program() const { return program_; }

 private:
  class Writer;

  // Appends `chunk` to the stream under the lock and empties it.
  void Append(std::string* chunk);

  const NicProgram& program_;
  std::mutex mu_;  // Guards writes to out_ and member creation.
  std::ostream* out_;
  std::unique_ptr<Writer> serial_;                // OnFeatureVector's writer.
  std::vector<std::unique_ptr<Writer>> members_;  // Indexed by member.
};

// Daemon --epoch-dir sink: one CSV file per rolling epoch. The caller
// swaps files at the quiescent epoch boundary; vectors that arrive between
// boundaries all land in the currently open file.
class RotatingCsvSink : public CsvSink {
 public:
  explicit RotatingCsvSink(const NicProgram& program);

  // Drains pending rows into the current file, closes it, and opens `path`
  // with a header row. Returns false if the new file cannot be written.
  bool OpenEpochFile(const std::string& path);

 private:
  std::ofstream file_;
};

}  // namespace superfe

#endif  // SUPERFE_CORE_CSV_EXPORT_H_
