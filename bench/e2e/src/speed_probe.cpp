#include "speed_probe.hpp"

#include <algorithm>
#include <barrier>
#include <cmath>
#include <thread>

#include "measure.hpp"

namespace e2e {

namespace {

constexpr std::size_t kRows = 8192;
constexpr std::size_t kDim = 64;
constexpr std::size_t kReach = 32;        ///< local window: kReach columns each side
constexpr std::size_t kRandomCols = 64;   ///< random columns per row
constexpr std::size_t kUnits = 16;        ///< timed units per probe, kRows / kUnits rows each
constexpr std::uint64_t kInputSeed = 0x5eed;

std::uint64_t splitmix64(std::uint64_t& s) {
  std::uint64_t z = (s += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// One attention row over `n` columns (K doubles as V); returns out[0].
template <typename Cols>
double attention_row(const float* q, const float* k, const Cols& cols, std::size_t n,
                     std::vector<float>& score, std::vector<float>& out) {
  float top = -INFINITY;
  for (std::size_t e = 0; e < n; ++e) {
    const float* kr = k + cols(e) * kDim;
    float dot = 0.0f;
    for (std::size_t x = 0; x < kDim; ++x) dot += q[x] * kr[x];
    score[e] = 0.125f * dot;
    top = std::max(top, score[e]);
  }
  std::fill(out.begin(), out.end(), 0.0f);
  float norm = 0.0f;
  for (std::size_t e = 0; e < n; ++e) {
    const float w = std::exp(score[e] - top);
    norm += w;
    const float* vr = k + cols(e) * kDim;
    for (std::size_t x = 0; x < kDim; ++x) out[x] += w * vr[x];
  }
  return out[0] / norm;
}

}  // namespace

SpeedProbe::SpeedProbe() : q_(kRows * kDim), k_(kRows * kDim), random_(kRows * kRandomCols) {
  std::uint64_t s = kInputSeed;
  const auto uniform = [&] { return static_cast<float>(splitmix64(s) >> 40) / 16777216.0f; };
  for (float& x : q_) x = uniform();
  for (float& x : k_) x = uniform();
  for (std::size_t i = 0; i < kRows; ++i) {
    auto* row = &random_[i * kRandomCols];
    for (std::size_t e = 0; e < kRandomCols; ++e) {
      row[e] = static_cast<std::uint32_t>(splitmix64(s) % kRows);
    }
    std::sort(row, row + kRandomCols);
  }
}

double SpeedProbe::run_ms() {
  const std::size_t threads = std::max(1u, std::thread::hardware_concurrency());
  std::vector<Clock::time_point> marks;  ///< one per barrier phase: start, then each unit's end
  marks.reserve(kUnits + 1);
  std::barrier sync(static_cast<std::ptrdiff_t>(threads),
                    [&]() noexcept { marks.push_back(Clock::now()); });
  // Everything the team uses is allocated here, so no team thread can throw.
  std::vector<double> sums(threads, 0.0);
  std::vector<std::vector<float>> scores(threads,
                                         std::vector<float>(std::max(2 * kReach + 1, kRandomCols)));
  std::vector<std::vector<float>> outs(threads, std::vector<float>(kDim));
  const auto work = [&](std::size_t t) {
    std::vector<float>& score = scores[t];
    std::vector<float>& out = outs[t];
    double sum = 0.0;
    sync.arrive_and_wait();
    for (std::size_t u = 0; u < kUnits; ++u) {
      // Unit u is rows [u, u+1) * kRows / kUnits, split statically.
      const std::size_t lo = u * kRows / kUnits;
      const std::size_t span = kRows / kUnits;
      for (std::size_t i = lo + t * span / threads; i < lo + (t + 1) * span / threads; ++i) {
        const float* q = &q_[i * kDim];
        const std::size_t first = i > kReach ? i - kReach : 0;
        const std::size_t last = std::min(kRows - 1, i + kReach);
        sum += attention_row(q, k_.data(), [&](std::size_t e) { return first + e; },
                             last - first + 1, score, out);
        const std::uint32_t* cols = &random_[i * kRandomCols];
        sum += attention_row(q, k_.data(), [&](std::size_t e) { return cols[e]; }, kRandomCols,
                             score, out);
      }
      sync.arrive_and_wait();
    }
    sums[t] = sum;
  };
  std::vector<std::thread> team;
  for (std::size_t t = 1; t < threads; ++t) team.emplace_back(work, t);
  work(0);
  for (std::thread& th : team) th.join();
  for (const double s : sums) checksum_ += s;

  std::vector<double> unit_ms;
  for (std::size_t u = 0; u < kUnits; ++u) unit_ms.push_back(ms_between(marks[u], marks[u + 1]));
  return median(unit_ms) * static_cast<double>(kUnits);
}

}  // namespace e2e
