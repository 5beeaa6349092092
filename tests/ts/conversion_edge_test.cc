// Regression tests for edge cases in the signed/unsigned-conversion sites
// hardened while bringing the tree clean under -Wconversion -Wsign-conversion
// (see docs/STATIC_ANALYSIS.md). Each test pins an input where an
// index/count conversion could silently wrap or truncate: single-sample
// spectra, leading/trailing gaps walked with size_t sentinels, pre-epoch
// (negative) timestamps, and out-of-range histogram bin clamping. The whole
// suite also runs under ASan/UBSan via scripts/check.sh.

#include <cmath>
#include <complex>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "ts/adf.h"
#include "ts/calendar.h"
#include "ts/fft.h"
#include "ts/interpolation.h"
#include "ts/kl_divergence.h"
#include "ts/periodogram.h"

namespace fedfc::ts {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

TEST(ConversionEdgeTest, FftLengthOneIsIdentity) {
  // N = 1 exercises the bit-reversal loop bounds at their degenerate minimum
  // (zero butterfly stages; the size-derived shift counts must not wrap).
  std::vector<std::complex<double>> data{{3.5, -1.25}};
  Fft(&data);
  ASSERT_EQ(data.size(), 1u);
  EXPECT_DOUBLE_EQ(data[0].real(), 3.5);
  EXPECT_DOUBLE_EQ(data[0].imag(), -1.25);
  Fft(&data, /*inverse=*/true);
  EXPECT_DOUBLE_EQ(data[0].real(), 3.5);
  EXPECT_DOUBLE_EQ(data[0].imag(), -1.25);
}

TEST(ConversionEdgeTest, RealFftOfEmptyAndSingleSample) {
  // An empty signal zero-pads to NextPowerOfTwo(0) == 1: one zero DC bin.
  const auto empty_spectrum = RealFft({});
  ASSERT_EQ(empty_spectrum.size(), 1u);
  EXPECT_DOUBLE_EQ(empty_spectrum[0].real(), 0.0);
  const auto spectrum = RealFft({2.0});
  ASSERT_EQ(spectrum.size(), 1u);
  EXPECT_NEAR(spectrum[0].real(), 2.0, 1e-12);
}

TEST(ConversionEdgeTest, FftRoundTripOnNonPaddedLength) {
  // 16 samples: forward + unnormalized inverse must reproduce the signal,
  // proving the twiddle-index arithmetic survives the cast hardening.
  const size_t n = 16;
  std::vector<std::complex<double>> data(n);
  for (size_t i = 0; i < n; ++i) {
    data[i] = {std::sin(0.37 * static_cast<double>(i)) + 0.1, 0.0};
  }
  auto original = data;
  Fft(&data);
  Fft(&data, /*inverse=*/true);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(data[i].real() / static_cast<double>(n), original[i].real(),
                1e-10);
  }
}

TEST(ConversionEdgeTest, AdfRejectsTooShortSeriesWithoutWrapping) {
  // Effective sample size n - p - 1 is computed from size_t quantities; a
  // short series must surface InvalidArgument, not wrap to a huge lag count.
  for (size_t n = 0; n < 8; ++n) {
    std::vector<double> tiny(n, 1.0);
    for (size_t i = 0; i < n; ++i) tiny[i] += static_cast<double>(i);
    EXPECT_FALSE(AdfTest(tiny).ok()) << "n=" << n;
  }
}

TEST(ConversionEdgeTest, AdfExplicitZeroLagOnMinimalSeries) {
  // max_lag = 0 pins the augmentation-order loop's lower bound.
  std::vector<double> values;
  for (int i = 0; i < 24; ++i) {
    values.push_back((i % 2 == 0) ? 1.0 : -1.0);  // strongly stationary
  }
  const auto result = AdfTest(values, /*max_lag=*/0);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().lags_used, 0u);
  EXPECT_TRUE(result.value().stationary());
}

TEST(ConversionEdgeTest, DetectSeasonalitiesPeriodBoundsRespectShortInput) {
  // Periods are bounded by n/2; with n = 6 nothing above 3 may be reported
  // (the bound is computed via a size-to-double conversion).
  std::vector<double> values;
  for (int i = 0; i < 6; ++i) values.push_back(i % 2 == 0 ? 1.0 : 0.0);
  for (const auto& s : DetectSeasonalities(values)) {
    EXPECT_GE(s.period, 2.0);
    EXPECT_LE(s.period, 3.0);
  }
}

TEST(ConversionEdgeTest, CalendarHandlesPreEpochTimestamps) {
  // Negative epoch seconds drive the unsigned-safe day/second-of-day split:
  // -1 s is 1969-12-31 23:59, not a wrapped huge day count.
  const CivilTime t = CivilFromEpoch(-1);
  EXPECT_EQ(t.year, 1969);
  EXPECT_EQ(t.month, 12);
  EXPECT_EQ(t.day, 31);
  EXPECT_EQ(t.hour, 23);
  EXPECT_EQ(t.minute, 59);
  EXPECT_EQ(t.weekday, 2);  // Wednesday
  EXPECT_EQ(t.day_of_year, 365);
  EXPECT_EQ(EpochFromCivil(1969, 12, 31, 23, 59, 59), -1);
}

TEST(ConversionEdgeTest, CalendarDayOfYearAcrossLeapBoundary) {
  const int64_t feb29 = EpochFromCivil(2020, 2, 29);
  const CivilTime t = CivilFromEpoch(feb29);
  EXPECT_EQ(t.day_of_year, 60);
  EXPECT_TRUE(IsLeapYear(2020));
  const CivilTime eoy = CivilFromEpoch(EpochFromCivil(2020, 12, 31));
  EXPECT_EQ(eoy.day_of_year, 366);
}

TEST(ConversionEdgeTest, InterpolationLeadingAndTrailingGaps) {
  // Leading/trailing scans use size_t cursors with an n sentinel (not -1);
  // gaps at both ends must fill from the nearest observation.
  const std::vector<double> filled =
      LinearInterpolate({kNan, kNan, 4.0, kNan, 8.0, kNan});
  ASSERT_EQ(filled.size(), 6u);
  EXPECT_DOUBLE_EQ(filled[0], 4.0);
  EXPECT_DOUBLE_EQ(filled[1], 4.0);
  EXPECT_DOUBLE_EQ(filled[2], 4.0);
  EXPECT_DOUBLE_EQ(filled[3], 6.0);
  EXPECT_DOUBLE_EQ(filled[4], 8.0);
  EXPECT_DOUBLE_EQ(filled[5], 8.0);
}

TEST(ConversionEdgeTest, InterpolationAllMissingFillsZeros) {
  const std::vector<double> filled = LinearInterpolate({kNan, kNan, kNan});
  ASSERT_EQ(filled.size(), 3u);
  for (double v : filled) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(ConversionEdgeTest, HistogramClampsOutOfRangeSamples) {
  // Values at and beyond the range edges must clamp into the first/last bin
  // rather than index out of bounds after the float->index conversion.
  const auto hist = SmoothedHistogram({-10.0, 0.0, 1.0, 10.0}, 0.0, 1.0, 4);
  ASSERT_EQ(hist.size(), 4u);
  double total = 0.0;
  for (double p : hist) {
    EXPECT_GT(p, 0.0);
    total += p;
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
  EXPECT_GT(hist[0], hist[1]);  // the two low outliers land in bin 0
  EXPECT_GT(hist[3], hist[1]);  // the two high outliers land in bin 3
}

}  // namespace
}  // namespace fedfc::ts
