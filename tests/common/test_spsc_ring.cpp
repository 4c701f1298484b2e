// Tests for the lock-free building blocks under the ingest pipeline: the
// SPSC ring, the seqlock, and the relaxed stats counter.
#include "common/spsc_ring.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <thread>
#include <vector>

#include "common/atomic_counter.hpp"
#include "common/seqlock.hpp"

namespace dart {
namespace {

TEST(SpscRing, FifoOrderSingleThread) {
  SpscRing<int> ring(8);
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(ring.try_push(int(i)));
  EXPECT_FALSE(ring.try_push(99));  // full
  int out = -1;
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(ring.try_pop(out));
    EXPECT_EQ(out, i);
  }
  EXPECT_FALSE(ring.try_pop(out));  // empty
}

TEST(SpscRing, CapacityRoundsUpToPowerOfTwo) {
  SpscRing<int> ring(5);  // rounds to 8
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(ring.try_push(int(i)));
  EXPECT_FALSE(ring.try_push(8));
}

TEST(SpscRing, WrapsAroundManyTimes) {
  SpscRing<std::uint64_t> ring(4);
  std::uint64_t out = 0;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    ASSERT_TRUE(ring.try_push(std::uint64_t(i)));
    ASSERT_TRUE(ring.try_pop(out));
    ASSERT_EQ(out, i);
  }
}

TEST(SpscRing, ProducerConsumerTransfersEverythingInOrder) {
  SpscRing<std::uint64_t> ring(64);
  constexpr std::uint64_t kItems = 200000;
  std::thread producer([&] {
    for (std::uint64_t i = 0; i < kItems; ++i) {
      while (!ring.try_push(std::uint64_t(i))) std::this_thread::yield();
    }
  });
  std::uint64_t expected = 0;
  std::uint64_t item = 0;
  while (expected < kItems) {
    if (ring.try_pop(item)) {
      ASSERT_EQ(item, expected);  // FIFO, no loss, no duplication
      ++expected;
    } else {
      std::this_thread::yield();
    }
  }
  producer.join();
  EXPECT_TRUE(ring.empty_approx());
}

TEST(SpscRing, PushNPartialWhenNearlyFull) {
  SpscRing<int> ring(8);
  std::vector<int> first{0, 1, 2, 3, 4, 5};
  EXPECT_EQ(ring.try_push_n(std::span{first}), 6u);
  std::vector<int> second{6, 7, 8, 9};  // only 2 slots left
  EXPECT_EQ(ring.try_push_n(std::span{second}), 2u);
  std::vector<int> third{99};
  EXPECT_EQ(ring.try_push_n(std::span{third}), 0u);  // full
  int out = -1;
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(ring.try_pop(out));
    EXPECT_EQ(out, i);
  }
}

TEST(SpscRing, PopNPartialWhenNearlyEmpty) {
  SpscRing<int> ring(8);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(ring.try_push(int(i)));
  std::vector<int> out(8, -1);
  EXPECT_EQ(ring.try_pop_n(std::span{out}), 3u);
  EXPECT_EQ(out[0], 0);
  EXPECT_EQ(out[1], 1);
  EXPECT_EQ(out[2], 2);
  EXPECT_EQ(ring.try_pop_n(std::span{out}), 0u);  // empty
}

TEST(SpscRing, BatchOpsInterleaveWithSingleOpsFifo) {
  SpscRing<int> ring(16);
  int next_in = 0;
  int next_out = 0;
  std::vector<int> batch(5);
  std::vector<int> popped(5);
  // Mix batch and single push/pop across several wrap-arounds; order and
  // completeness must be indistinguishable from all-singles.
  for (int round = 0; round < 50; ++round) {
    for (auto& v : batch) v = next_in++;
    ASSERT_EQ(ring.try_push_n(std::span{batch}), batch.size());
    ASSERT_TRUE(ring.try_push(int(next_in)));
    ++next_in;
    int single = -1;
    ASSERT_TRUE(ring.try_pop(single));
    ASSERT_EQ(single, next_out++);
    ASSERT_EQ(ring.try_pop_n(std::span{popped}), popped.size());
    for (const int v : popped) ASSERT_EQ(v, next_out++);
  }
  // Drain the remainder.
  int out = -1;
  while (ring.try_pop(out)) ASSERT_EQ(out, next_out++);
  EXPECT_EQ(next_out, next_in);
}

TEST(SpscRing, BatchedProducerConsumerTransfersEverythingInOrder) {
  // The TSan gate runs this: one producer pushing mixed batch/single, one
  // consumer draining with try_pop_n — the exact access pattern the batched
  // ingest pipeline uses.
  SpscRing<std::uint64_t> ring(64);
  constexpr std::uint64_t kItems = 200000;
  std::thread producer([&] {
    std::uint64_t next = 0;
    std::vector<std::uint64_t> batch;
    while (next < kItems) {
      if (next % 3 == 0 && kItems - next >= 7) {
        batch.clear();
        for (int i = 0; i < 7; ++i) batch.push_back(next + i);
        std::span<std::uint64_t> pending{batch};
        while (!pending.empty()) {
          const std::size_t pushed = ring.try_push_n(pending);
          pending = pending.subspan(pushed);
          if (pushed == 0) std::this_thread::yield();
        }
        next += 7;
      } else {
        while (!ring.try_push(std::uint64_t(next))) std::this_thread::yield();
        ++next;
      }
    }
  });
  std::uint64_t expected = 0;
  std::vector<std::uint64_t> out(13);
  while (expected < kItems) {
    const std::size_t k = ring.try_pop_n(std::span{out});
    if (k == 0) {
      std::this_thread::yield();
      continue;
    }
    for (std::size_t i = 0; i < k; ++i) {
      ASSERT_EQ(out[i], expected);  // FIFO, no loss, no duplication
      ++expected;
    }
  }
  producer.join();
  EXPECT_TRUE(ring.empty_approx());
}

TEST(SeqCount, ReadersRetryAcrossWrites) {
  SeqCount seq;
  // Two fields with the invariant a == b, updated under the seqlock with
  // its contract: release stores in the write, acquire loads in the read.
  std::atomic<std::uint64_t> a{0}, b{0};
  constexpr std::uint64_t kWrites = 100000;
  std::thread writer([&] {
    for (std::uint64_t i = 1; i <= kWrites; ++i) {
      seq.write_begin();
      a.store(i, std::memory_order_release);
      b.store(i, std::memory_order_release);
      seq.write_end();
    }
  });
  std::uint64_t last = 0;
  while (last < kWrites) {
    const auto pair = seq_read(seq, [&] {
      return std::pair{a.load(std::memory_order_acquire),
                       b.load(std::memory_order_acquire)};
    });
    ASSERT_EQ(pair.first, pair.second) << "torn read";
    ASSERT_GE(pair.first, last);
    last = pair.first;
  }
  writer.join();
  EXPECT_EQ(seq.generation(), 2 * kWrites);  // even: no write in flight
}

TEST(RelaxedCounter, ConcurrentIncrementsAllLand) {
  RelaxedCounter counter;
  constexpr int kThreads = 4;
  constexpr std::uint64_t kEach = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (std::uint64_t i = 0; i < kEach; ++i) ++counter;
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter.load(), kThreads * kEach);
}

TEST(RelaxedCounter, CopySnapshotsValue) {
  RelaxedCounter counter;
  counter += 41;
  ++counter;
  const RelaxedCounter snapshot = counter;
  EXPECT_EQ(snapshot, 42u);
  EXPECT_EQ(static_cast<std::uint64_t>(snapshot), 42u);
}

}  // namespace
}  // namespace dart
