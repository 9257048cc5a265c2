/**
 * @file
 * Unit tests for fastgl::util — RNG determinism/uniformity, statistics
 * accumulators, table rendering, the thread pool and the in-order
 * reassembly ring.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <vector>

#include "util/in_order_ring.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace fastgl {
namespace {

TEST(Rng, DeterministicForSameSeed)
{
    util::Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge)
{
    util::Rng a(1), b(2);
    int equal = 0;
    for (int i = 0; i < 64; ++i) {
        if (a() == b())
            ++equal;
    }
    EXPECT_LT(equal, 2);
}

TEST(Rng, NextBelowStaysInRange)
{
    util::Rng rng(7);
    for (uint64_t bound : {1ull, 2ull, 3ull, 17ull, 1000ull, 1ull << 40}) {
        for (int i = 0; i < 200; ++i)
            EXPECT_LT(rng.next_below(bound), bound);
    }
}

TEST(Rng, NextBelowZeroBoundIsZero)
{
    util::Rng rng(7);
    EXPECT_EQ(rng.next_below(0), 0u);
}

TEST(Rng, NextBelowIsRoughlyUniform)
{
    util::Rng rng(99);
    constexpr int buckets = 10;
    constexpr int draws = 100000;
    int counts[buckets] = {};
    for (int i = 0; i < draws; ++i)
        ++counts[rng.next_below(buckets)];
    for (int c : counts) {
        EXPECT_GT(c, draws / buckets * 0.9);
        EXPECT_LT(c, draws / buckets * 1.1);
    }
}

TEST(Rng, NextDoubleInUnitInterval)
{
    util::Rng rng(5);
    for (int i = 0; i < 1000; ++i) {
        const double x = rng.next_double();
        EXPECT_GE(x, 0.0);
        EXPECT_LT(x, 1.0);
    }
}

TEST(Rng, GaussianHasRoughlyUnitMoments)
{
    util::Rng rng(11);
    util::RunningStat stat;
    for (int i = 0; i < 20000; ++i)
        stat.add(rng.next_gaussian());
    EXPECT_NEAR(stat.mean(), 0.0, 0.05);
    EXPECT_NEAR(stat.stddev(), 1.0, 0.05);
}

TEST(Rng, SplitProducesIndependentStream)
{
    util::Rng a(42);
    util::Rng b = a.split();
    int equal = 0;
    for (int i = 0; i < 64; ++i) {
        if (a() == b())
            ++equal;
    }
    EXPECT_LT(equal, 2);
}

TEST(RunningStat, BasicMoments)
{
    util::RunningStat stat;
    for (double x : {1.0, 2.0, 3.0, 4.0, 5.0})
        stat.add(x);
    EXPECT_EQ(stat.count(), 5u);
    EXPECT_DOUBLE_EQ(stat.mean(), 3.0);
    EXPECT_DOUBLE_EQ(stat.min(), 1.0);
    EXPECT_DOUBLE_EQ(stat.max(), 5.0);
    EXPECT_DOUBLE_EQ(stat.variance(), 2.5);
    EXPECT_DOUBLE_EQ(stat.sum(), 15.0);
}

TEST(RunningStat, EmptyIsZero)
{
    util::RunningStat stat;
    EXPECT_EQ(stat.count(), 0u);
    EXPECT_DOUBLE_EQ(stat.mean(), 0.0);
    EXPECT_DOUBLE_EQ(stat.variance(), 0.0);
}

TEST(SampleStat, ExactPercentiles)
{
    util::SampleStat stat;
    for (int i = 1; i <= 100; ++i)
        stat.add(i);
    EXPECT_DOUBLE_EQ(stat.percentile(50), 50.0);
    EXPECT_DOUBLE_EQ(stat.percentile(99), 99.0);
    EXPECT_DOUBLE_EQ(stat.percentile(100), 100.0);
    EXPECT_DOUBLE_EQ(stat.percentile(0), 1.0);
}

TEST(SampleStat, BulkPercentilesMatchScalarAccessor)
{
    util::SampleStat stat;
    util::Rng rng(99);
    for (int i = 0; i < 1000; ++i)
        stat.add(rng.next_double() * 1e3);

    const double ps[] = {0.0, 25.0, 50.0, 95.0, 99.0, 100.0};
    const std::vector<double> bulk = stat.percentiles(ps);
    ASSERT_EQ(bulk.size(), 6u);
    for (size_t i = 0; i < bulk.size(); ++i)
        EXPECT_DOUBLE_EQ(bulk[i], stat.percentile(ps[i]));
}

TEST(SampleStat, BulkPercentilesOnEmptyAreZero)
{
    util::SampleStat stat;
    const double ps[] = {50.0, 99.0};
    const std::vector<double> bulk = stat.percentiles(ps);
    ASSERT_EQ(bulk.size(), 2u);
    EXPECT_DOUBLE_EQ(bulk[0], 0.0);
    EXPECT_DOUBLE_EQ(bulk[1], 0.0);
}

TEST(SampleStat, MergeEqualsSingleAccumulator)
{
    // Per-thread accumulators merged afterwards must agree with one
    // accumulator that saw every sample (the ServingStats reduction).
    util::SampleStat whole, part_a, part_b, merged;
    for (int i = 1; i <= 100; ++i) {
        whole.add(i);
        (i % 2 ? part_a : part_b).add(i);
    }
    merged.merge(part_a);
    merged.merge(part_b);
    EXPECT_EQ(merged.count(), whole.count());
    EXPECT_DOUBLE_EQ(merged.mean(), whole.mean());
    const double ps[] = {50.0, 95.0, 99.0};
    EXPECT_EQ(merged.percentiles(ps), whole.percentiles(ps));

    // Merging into a non-empty accumulator appends.
    part_a.merge(part_b);
    EXPECT_EQ(part_a.count(), whole.count());
    EXPECT_DOUBLE_EQ(part_a.percentile(50), whole.percentile(50));

    // Merging an empty accumulator is a no-op (stays sorted).
    util::SampleStat empty;
    const double before = merged.percentile(99);
    merged.merge(empty);
    EXPECT_DOUBLE_EQ(merged.percentile(99), before);
}

TEST(HumanFormat, Bytes)
{
    EXPECT_EQ(util::human_bytes(512), "512.00 B");
    EXPECT_EQ(util::human_bytes(2048), "2.00 KB");
    EXPECT_EQ(util::human_bytes(3.5 * 1024 * 1024), "3.50 MB");
}

TEST(HumanFormat, Seconds)
{
    EXPECT_EQ(util::human_seconds(2.5), "2.500 s");
    EXPECT_EQ(util::human_seconds(0.0025), "2.50 ms");
    EXPECT_EQ(util::human_seconds(2.5e-6), "2.50 us");
}

TEST(TextTable, RendersAlignedRows)
{
    util::TextTable table("demo");
    table.set_header({"a", "long-column"});
    table.add_row({"1", "2"});
    table.add_row({"333", "4"});
    const std::string out = table.to_string();
    EXPECT_NE(out.find("demo"), std::string::npos);
    EXPECT_NE(out.find("long-column"), std::string::npos);
    EXPECT_NE(out.find("333"), std::string::npos);
    EXPECT_EQ(table.row_count(), 2u);
}

TEST(TextTable, CsvRoundTrip)
{
    util::TextTable table;
    table.set_header({"x", "y"});
    table.add_row({"1", "hello, world"});
    const std::string path = "/tmp/fastgl_table_test.csv";
    ASSERT_TRUE(table.write_csv(path));
    FILE *f = fopen(path.c_str(), "r");
    ASSERT_NE(f, nullptr);
    char buf[256];
    ASSERT_NE(fgets(buf, sizeof(buf), f), nullptr);
    EXPECT_STREQ(buf, "x,y\n");
    ASSERT_NE(fgets(buf, sizeof(buf), f), nullptr);
    EXPECT_STREQ(buf, "1,\"hello, world\"\n");
    fclose(f);
}

TEST(TextTable, NumFormatsPrecision)
{
    EXPECT_EQ(util::TextTable::num(3.14159, 2), "3.14");
    EXPECT_EQ(util::TextTable::num(2.0, 0), "2");
}

TEST(ThreadPool, RunsAllSubmittedTasks)
{
    util::ThreadPool pool(4);
    std::atomic<int> counter{0};
    std::vector<std::future<void>> futures;
    for (int i = 0; i < 100; ++i)
        futures.push_back(pool.submit([&counter] { ++counter; }));
    for (auto &f : futures)
        f.get();
    EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce)
{
    util::ThreadPool pool(4);
    std::vector<std::atomic<int>> touched(1000);
    pool.parallel_for(1000, [&touched](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i)
            ++touched[i];
    });
    for (const auto &t : touched)
        EXPECT_EQ(t.load(), 1);
}

TEST(ThreadPool, ParallelForEmptyRangeIsNoop)
{
    util::ThreadPool pool(2);
    bool called = false;
    pool.parallel_for(0, [&called](size_t, size_t) { called = true; });
    EXPECT_FALSE(called);
}

TEST(Timers, IntervalTimerAccumulates)
{
    util::IntervalTimer timer;
    timer.start();
    timer.stop();
    timer.start();
    timer.stop();
    EXPECT_EQ(timer.intervals(), 2u);
    EXPECT_GE(timer.total_seconds(), 0.0);
    timer.clear();
    EXPECT_EQ(timer.intervals(), 0u);
}

/** Drain every ready item of @p ring into @p out. */
void
drain_ready(util::InOrderRing<std::unique_ptr<int>> &ring,
            std::vector<int> &out)
{
    while (ring.ready())
        out.push_back(*ring.pop());
}

TEST(InOrderRing, OutOfOrderPutsComeBackInOrder)
{
    util::InOrderRing<std::unique_ptr<int>> ring(4);
    std::vector<int> out;
    for (size_t seq : {2, 1, 3, 0, 5, 4, 7, 6}) {
        ring.put(seq, std::make_unique<int>(static_cast<int>(seq)));
        drain_ready(ring, out);
    }
    EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
    EXPECT_EQ(ring.next(), 8u);
    EXPECT_FALSE(ring.ready());
    // Every item fitted the initial window: no growth.
    EXPECT_EQ(ring.capacity(), 4u);
}

TEST(InOrderRing, PutBeyondCapacityGrowsAndKeepsParkedItems)
{
    util::InOrderRing<std::unique_ptr<int>> ring(4);
    std::vector<int> out;
    // Release a prefix so the window no longer starts at slot 0 —
    // re-homing must follow the window offset, not the raw slot.
    for (size_t seq : {0, 1, 2})
        ring.put(seq, std::make_unique<int>(static_cast<int>(seq)));
    drain_ready(ring, out);
    ASSERT_EQ(ring.next(), 3u);
    // Park 4..6 behind the missing 3, then land one a full capacity
    // and more ahead of next().
    for (size_t seq : {5, 4, 6})
        ring.put(seq, std::make_unique<int>(static_cast<int>(seq)));
    ring.put(13, std::make_unique<int>(13));
    EXPECT_GE(ring.capacity(), 11u);
    EXPECT_FALSE(ring.ready());
    for (size_t seq : {3, 12, 8, 7, 11, 9, 10}) {
        ring.put(seq, std::make_unique<int>(static_cast<int>(seq)));
        drain_ready(ring, out);
    }
    std::vector<int> expected(14);
    for (int i = 0; i < 14; ++i)
        expected[static_cast<size_t>(i)] = i;
    EXPECT_EQ(out, expected);
}

TEST(InOrderRingDeathTest, RegressedSequenceNumberDies)
{
    util::InOrderRing<int> ring(4);
    ring.put(0, 0);
    ring.put(1, 1);
    EXPECT_EQ(ring.pop(), 0);
    EXPECT_DEATH(ring.put(0, 0), "sequence number regressed");
}

} // namespace
} // namespace fastgl
