#include "core/csv_export.h"

#include <charconv>

namespace superfe {

void AppendCsvHeader(std::string* out, const NicProgram& program) {
  out->append("group,timestamp_ns");
  for (const auto& slot : program.layout) {
    const std::string name = slot.Name();
    if (slot.Width() == 1) {
      out->push_back(',');
      out->append(name);
      continue;
    }
    for (uint32_t i = 0; i < slot.Width(); ++i) {
      out->push_back(',');
      out->append(name);
      out->push_back('[');
      out->append(std::to_string(i));
      out->push_back(']');
    }
  }
  out->push_back('\n');
}

void AppendCsvRow(std::string* out, const FeatureVector& vector) {
  vector.group.AppendText(out);
  // Comma + the widest field: a uint64 has at most 20 digits, a shortest
  // round-trip double at most 24 chars ("-2.2250738585072014e-308").
  constexpr size_t kMaxField = 1 + 24;
  const size_t start = out->size();
  out->resize(start + kMaxField * (vector.values.size() + 1) + 1);
  char* p = out->data() + start;
  char* const end = out->data() + out->size();
  *p++ = ',';
  p = std::to_chars(p, end, vector.timestamp_ns).ptr;
  for (double v : vector.values) {
    *p++ = ',';
    p = std::to_chars(p, end, v).ptr;
  }
  *p++ = '\n';
  out->resize(static_cast<size_t>(p - out->data()));
}

// One member's (or the serial path's) private chunk.
class CsvSink::Writer : public FeatureSink {
 public:
  explicit Writer(CsvSink* owner) : owner_(owner) {}

  void OnFeatureVector(FeatureVector&& vector) override {
    AppendCsvRow(&chunk, vector);
    ++rows;
    if (chunk.size() >= kCsvChunkBytes) {
      owner_->Append(&chunk);
    }
  }

  std::string chunk;
  uint64_t rows = 0;

 private:
  CsvSink* owner_;
};

CsvSink::CsvSink(const NicProgram& program, std::ostream* out)
    : program_(program), out_(out), serial_(std::make_unique<Writer>(this)) {}

CsvSink::CsvSink(std::ostream* out, const NicProgram& program) : CsvSink(program, out) {
  std::string header;
  AppendCsvHeader(&header, program_);
  out_->write(header.data(), static_cast<std::streamsize>(header.size()));
}

CsvSink::~CsvSink() = default;

void CsvSink::OnFeatureVector(FeatureVector&& vector) {
  serial_->OnFeatureVector(std::move(vector));
}

FeatureSink* CsvSink::MemberSink(size_t member) {
  std::lock_guard<std::mutex> lock(mu_);
  while (members_.size() <= member) {
    members_.push_back(std::make_unique<Writer>(this));
  }
  return members_[member].get();
}

void CsvSink::Append(std::string* chunk) {
  std::lock_guard<std::mutex> lock(mu_);
  if (chunk->empty()) {
    return;
  }
  out_->write(chunk->data(), static_cast<std::streamsize>(chunk->size()));
  chunk->clear();  // Keeps the capacity for the next rows.
}

bool CsvSink::Drain() {
  Append(&serial_->chunk);
  for (const auto& member : members_) {
    Append(&member->chunk);
  }
  std::lock_guard<std::mutex> lock(mu_);
  out_->flush();
  return out_->good();
}

uint64_t CsvSink::count() const {
  uint64_t rows = serial_->rows;
  for (const auto& member : members_) {
    rows += member->rows;
  }
  return rows;
}

RotatingCsvSink::RotatingCsvSink(const NicProgram& program) : CsvSink(program, &file_) {}

bool RotatingCsvSink::OpenEpochFile(const std::string& path) {
  Drain();
  file_.close();
  file_.clear();
  file_.open(path);
  if (!file_) {
    return false;
  }
  std::string header;
  AppendCsvHeader(&header, program());
  file_.write(header.data(), static_cast<std::streamsize>(header.size()));
  return true;
}

}  // namespace superfe
