// One-pass central moments up to order 4 (Pébay's update formulas),
// providing the f_skew and f_kur reducing functions of Table 5.
#ifndef SUPERFE_STREAMING_MOMENTS_H_
#define SUPERFE_STREAMING_MOMENTS_H_

#include <cstddef>
#include <cstdint>

namespace superfe {

class StreamingMoments {
 public:
  void Add(double x);
  // Bulk insert: two-pass chunk central powers merged with Pébay's order-4
  // formulas; ULP-level divergence from n scalar Adds (usually *more*
  // accurate).
  void AddBatch(const double* v, size_t n);

  uint64_t count() const { return n_; }
  double mean() const { return mean_; }
  double variance() const { return n_ > 0 ? m2_ / static_cast<double>(n_) : 0.0; }
  double stddev() const;
  // Fisher skewness m3 / m2^1.5 (population).
  double skewness() const;
  // Kurtosis m4 / m2^2 (population, not excess).
  double kurtosis() const;

  static constexpr uint32_t kNicStateBytes = 20;  // n + 4 moments as 32-bit.

 private:
  uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double m3_ = 0.0;
  double m4_ = 0.0;
};

// One-pass co-moment over paired samples: exact streaming covariance and
// Pearson correlation (f_cov / f_pcc for bidirectional sequences aligned by
// sample index).
class StreamingCovariance {
 public:
  void Add(double x, double y);

  uint64_t count() const { return n_; }
  double mean_x() const { return mean_x_; }
  double mean_y() const { return mean_y_; }
  double covariance() const { return n_ > 0 ? c2_ / static_cast<double>(n_) : 0.0; }
  double variance_x() const { return n_ > 0 ? m2x_ / static_cast<double>(n_) : 0.0; }
  double variance_y() const { return n_ > 0 ? m2y_ / static_cast<double>(n_) : 0.0; }
  double correlation() const;

  static constexpr uint32_t kNicStateBytes = 28;

 private:
  uint64_t n_ = 0;
  double mean_x_ = 0.0;
  double mean_y_ = 0.0;
  double m2x_ = 0.0;
  double m2y_ = 0.0;
  double c2_ = 0.0;
};

}  // namespace superfe

#endif  // SUPERFE_STREAMING_MOMENTS_H_
