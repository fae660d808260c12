// The output of SuperFE: feature vectors ready for a behavior detector.
#ifndef SUPERFE_CORE_FEATURE_VECTOR_H_
#define SUPERFE_CORE_FEATURE_VECTOR_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "switchsim/group_key.h"

namespace superfe {

struct FeatureVector {
  // The group this vector describes (the collect unit's key), or the
  // packet's FG key for per-packet collection.
  GroupKey group;
  uint64_t timestamp_ns = 0;  // Emission time.
  std::vector<double> values;
};

// Consumer of feature vectors (the behavior detector side).
class FeatureSink {
 public:
  virtual ~FeatureSink() = default;
  virtual void OnFeatureVector(FeatureVector&& vector) = 0;

  // Optional per-member entry point for the parallel NIC cluster. A sink
  // that returns non-null here receives member `member`'s vectors on the
  // returned sink instead: calls on one member sink never overlap, but
  // different members' sinks (and OnFeatureVector) may run concurrently,
  // so each needs state of its own. The returned sink must outlive the
  // runs it is bound to. The default (null) keeps the serialized path:
  // the cluster funnels every member through one lock, and this sink sees
  // one call at a time.
  virtual FeatureSink* MemberSink(size_t /*member*/) { return nullptr; }
};

// Convenience sink that stores everything (tests, examples, detectors).
class CollectingFeatureSink : public FeatureSink {
 public:
  void OnFeatureVector(FeatureVector&& vector) override {
    vectors_.push_back(std::move(vector));
  }

  const std::vector<FeatureVector>& vectors() const { return vectors_; }
  std::vector<FeatureVector>& mutable_vectors() { return vectors_; }

 private:
  std::vector<FeatureVector> vectors_;
};

}  // namespace superfe

#endif  // SUPERFE_CORE_FEATURE_VECTOR_H_
