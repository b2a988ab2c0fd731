// Tests for the parallel runtime substrate: parallel_for semantics under
// both schedules, exception propagation, nesting degradation, and the
// device presets.

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "parallel/device_spec.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/parallel_region.hpp"

namespace gpa {
namespace {

TEST(ParallelBackendTest, ReportsTheCompiledSubstrate) {
#if defined(GPA_HAVE_OPENMP)
  EXPECT_EQ(parallel_backend(), "openmp");
#else
  EXPECT_EQ(parallel_backend(), "threads");
#endif
}

class ParallelForSchedules : public ::testing::TestWithParam<Schedule> {};

TEST_P(ParallelForSchedules, VisitsEveryIndexExactlyOnce) {
  for (const int threads : {1, 2, 4}) {
    ExecPolicy policy{threads, 16, GetParam()};
    std::vector<std::atomic<int>> visits(257);
    parallel_for(0, 257, policy, [&](Index i) { visits[static_cast<std::size_t>(i)]++; });
    for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
  }
}

TEST_P(ParallelForSchedules, ChunksPartitionTheRange) {
  ExecPolicy policy{3, 10, GetParam()};
  std::mutex mu;
  std::vector<std::pair<Index, Index>> chunks;
  parallel_for_chunks(5, 105, policy, [&](Index lo, Index hi) {
    std::lock_guard<std::mutex> lock(mu);
    chunks.emplace_back(lo, hi);
  });
  Index covered = 0;
  for (const auto& [lo, hi] : chunks) {
    EXPECT_LT(lo, hi);
    EXPECT_GE(lo, 5);
    EXPECT_LE(hi, 105);
    covered += hi - lo;
  }
  EXPECT_EQ(covered, 100);
}

TEST_P(ParallelForSchedules, EmptyRangeIsNoOp) {
  ExecPolicy policy{4, 8, GetParam()};
  bool called = false;
  parallel_for(10, 10, policy, [&](Index) { called = true; });
  parallel_for(10, 5, policy, [&](Index) { called = true; });
  EXPECT_FALSE(called);
}

TEST_P(ParallelForSchedules, ExceptionsPropagateToCaller) {
  ExecPolicy policy{4, 4, GetParam()};
  EXPECT_THROW(
      parallel_for(0, 100, policy,
                   [&](Index i) {
                     if (i == 37) throw std::runtime_error("kernel row failure");
                   }),
      std::runtime_error);
}

INSTANTIATE_TEST_SUITE_P(AllSchedules, ParallelForSchedules,
                         ::testing::Values(Schedule::Static, Schedule::Dynamic));

TEST(ParallelForTest, SerialPolicyRunsInline) {
  std::vector<int> order;
  parallel_for(0, 10, ExecPolicy::serial(), [&](Index i) {
    order.push_back(static_cast<int>(i));  // no mutex needed: single thread
  });
  std::vector<int> expect(10);
  std::iota(expect.begin(), expect.end(), 0);
  EXPECT_EQ(order, expect);
}

TEST(ParallelForTest, ResolvedThreadsHonorsExplicitCount) {
  EXPECT_EQ(resolved_threads(ExecPolicy{3, 1, Schedule::Static}), 3);
  EXPECT_GE(resolved_threads(ExecPolicy{0, 1, Schedule::Static}), 1);
}

TEST(ParallelRegionTest, FlagIsSetInsideAndClearedOutside) {
  EXPECT_FALSE(in_parallel_region());
  std::atomic<int> inside{0};
  parallel_for(0, 8, ExecPolicy{2, 1, Schedule::Static}, [&](Index) {
    if (in_parallel_region()) inside++;
  });
  EXPECT_EQ(inside.load(), 8);
  EXPECT_FALSE(in_parallel_region());  // guard restored on exit
}

TEST(ParallelRegionTest, NestedCallsDegradeToSerial) {
  // The oversubscription regression: an outer parallel_for over batch
  // items with an inner parallel_for per item must use the OUTER level's
  // threads only, never the product. Census every thread id the inner
  // loops run on.
  std::mutex mu;
  std::set<std::thread::id> ids;
  parallel_for(0, 4, ExecPolicy{4, 1, Schedule::Static}, [&](Index) {
    EXPECT_TRUE(in_parallel_region());
    EXPECT_EQ(resolved_threads(ExecPolicy{4, 1, Schedule::Static}), 1);
    parallel_for(0, 16, ExecPolicy{4, 1, Schedule::Dynamic}, [&](Index) {
      std::lock_guard<std::mutex> lock(mu);
      ids.insert(std::this_thread::get_id());
    });
  });
  EXPECT_LE(ids.size(), 4u);  // outer width; 16 would mean threads multiplied
}

TEST(ParallelRegionTest, SingleItemRangeRunsInlineKeepingInnerParallelism) {
  // A batch of one must not open a region: the item runs on the caller's
  // thread and an inner kernel keeps its own parallelism.
  const std::thread::id caller = std::this_thread::get_id();
  bool checked = false;
  parallel_for(0, 1, ExecPolicy{4, 1, Schedule::Dynamic}, [&](Index) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    EXPECT_FALSE(in_parallel_region());
    EXPECT_GE(resolved_threads(ExecPolicy{4, 1, Schedule::Static}), 4);
    checked = true;
  });
  EXPECT_TRUE(checked);
}

TEST(DeviceSpecTest, PresetsMatchTable1Capacities) {
  EXPECT_EQ(DeviceSpec::a100_80gb().memory_bytes, 80ull << 30);
  EXPECT_EQ(DeviceSpec::l40_48gb().memory_bytes, 48ull << 30);
  EXPECT_EQ(DeviceSpec::v100_32gb().memory_bytes, 32ull << 30);
}

}  // namespace
}  // namespace gpa
