// Sanity bench for §3's sampling-security analysis: with s = 73 samples the
// false-positive probability of declaring withheld data available is below
// 1e-9 analytically; we also verify empirically that simulated withholding
// attacks are detected.
//
// Accepts the shared observability flags for drop-in use in scripted sweeps;
// this bench runs no network experiment, so the exports are trivially valid
// empty files.

#include <cstdio>

#include "harness/flags.h"
#include "harness/obs_cli.h"
#include "harness/report.h"
#include "util/prng.h"

namespace {

/// Upper bound on the false-positive probability of §3:
///   prod_{i=0}^{s-1} (1 - 257*257 / (512*512 - i)).
double analytic_bound(std::uint32_t s) {
  double p = 1.0;
  const double withheld = 257.0 * 257.0;
  const double total = 512.0 * 512.0;
  for (std::uint32_t i = 0; i < s; ++i) {
    p *= 1.0 - withheld / (total - static_cast<double>(i));
  }
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pandas;
  harness::Flags flags;
  std::uint32_t samples = 73;
  std::uint64_t trials = 200000;
  flags.add("--samples", samples, "cells sampled per node", 1u, 512u * 512u);
  flags.add("--trials", trials, "withholding attacks simulated");
  harness::ObsCli obs(flags);
  flags.parse(argc, argv);

  harness::print_header("Sampling security (paper §3)");
  std::printf("  s (samples per node)              : %u\n", samples);
  std::printf("  analytic false-positive bound     : %.3e  (paper: < 1e-9 at s=73)\n",
              analytic_bound(samples));
  std::printf("  sample payload                    : %u x 560 B = %.1f KB\n",
              samples, samples * 560.0 / 1000.0);

  // Empirical check: an adversary withholds the maximal non-reconstructable
  // region (a 257x257 submatrix, Fig 3-right). Count how often `samples`
  // uniform cells all miss it.
  util::Xoshiro256 rng(7);
  std::uint64_t false_positives = 0;
  for (std::uint64_t t = 0; t < trials; ++t) {
    bool hit_withheld = false;
    for (std::uint32_t i = 0; i < samples && !hit_withheld; ++i) {
      const auto r = rng.uniform(512);
      const auto c = rng.uniform(512);
      // Withheld square occupies rows/cols [255, 512).
      if (r >= 255 && c >= 255) hit_withheld = true;
    }
    if (!hit_withheld) ++false_positives;
  }
  std::printf("  empirical FP over %llu trials     : %llu (expect 0)\n",
              static_cast<unsigned long long>(trials),
              static_cast<unsigned long long>(false_positives));

  // How many samples are needed for weaker targets (series for the s sweep).
  std::printf("\n  bound as a function of s:\n");
  for (const std::uint32_t s : {8u, 16u, 32u, 48u, 64u, 73u, 96u}) {
    std::printf("    s=%-4u bound=%.3e\n", s, analytic_bound(s));
  }
  return false_positives == 0 ? 0 : 1;
}
