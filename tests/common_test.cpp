// Unit tests for the common substrate: status/result, strings, symbols,
// config, RNG, statistics, queues, thread pool, sim-time helpers.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/config.hpp"
#include "common/mpsc_queue.hpp"
#include "common/rng.hpp"
#include "common/sim_time.hpp"
#include "common/stats.hpp"
#include "common/status.hpp"
#include "common/strings.hpp"
#include "common/symbols.hpp"
#include "common/thread_pool.hpp"

namespace actyp {
namespace {

// --- Status / Result ---

TEST(Status, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(Status, CarriesCodeAndMessage) {
  Status s = NotFound("machine m1");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.ToString(), "NOT_FOUND: machine m1");
}

TEST(Result, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(Result, HoldsError) {
  Result<int> r = InvalidArgument("bad");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(Result, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(7));
  ASSERT_TRUE(r.ok());
  auto owned = std::move(r).value();
  EXPECT_EQ(*owned, 7);
}

// --- strings ---

TEST(Strings, SplitBasic) {
  EXPECT_EQ(Split("a:b:c", ':'), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("", ':'), (std::vector<std::string>{""}));
  EXPECT_EQ(Split("a::c", ':'), (std::vector<std::string>{"a", "", "c"}));
}

TEST(Strings, SplitSkipEmptyDropsBlanks) {
  EXPECT_EQ(SplitSkipEmpty(":a::b:", ':'),
            (std::vector<std::string>{"a", "b"}));
}

TEST(Strings, JoinInvertsSplit) {
  const std::vector<std::string> parts{"x", "y", "z"};
  EXPECT_EQ(Split(Join(parts, ","), ','), parts);
}

TEST(Strings, TrimRemovesOuterWhitespace) {
  EXPECT_EQ(Trim("  hi \t\n"), "hi");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("a b"), "a b");
}

TEST(Strings, ToLowerAscii) { EXPECT_EQ(ToLower("SPARC-Ultra"), "sparc-ultra"); }

TEST(Strings, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("punch.rsrc.arch", "punch."));
  EXPECT_FALSE(StartsWith("punch", "punch."));
  EXPECT_TRUE(EndsWith("pool.alpha.3", ".3"));
  EXPECT_FALSE(EndsWith("x", "xx"));
}

TEST(Strings, ParseIntAccepts) {
  EXPECT_EQ(ParseInt("42"), 42);
  EXPECT_EQ(ParseInt(" -7 "), -7);
  EXPECT_FALSE(ParseInt("4x").has_value());
  EXPECT_FALSE(ParseInt("").has_value());
  EXPECT_FALSE(ParseInt("3.5").has_value());
}

TEST(Strings, ParseDoubleAccepts) {
  EXPECT_DOUBLE_EQ(*ParseDouble("2.5"), 2.5);
  EXPECT_DOUBLE_EQ(*ParseDouble("1e3"), 1000.0);
  EXPECT_FALSE(ParseDouble("sun").has_value());
  EXPECT_FALSE(ParseDouble("1.2.3").has_value());
}

struct GlobCase {
  const char* pattern;
  const char* text;
  bool match;
};

class GlobTest : public ::testing::TestWithParam<GlobCase> {};

TEST_P(GlobTest, Matches) {
  const auto& c = GetParam();
  EXPECT_EQ(GlobMatch(c.pattern, c.text), c.match)
      << c.pattern << " vs " << c.text;
}

INSTANTIATE_TEST_SUITE_P(
    Patterns, GlobTest,
    ::testing::Values(
        GlobCase{"*", "", true}, GlobCase{"*", "anything", true},
        GlobCase{"sun", "SUN", true},  // case-insensitive
        GlobCase{"sun", "sunx", false}, GlobCase{"sun*", "sun-ultra", true},
        GlobCase{"*ultra*", "sparc-ultra-5", true},
        GlobCase{"u?tra", "ultra", true}, GlobCase{"u?tra", "utra", false},
        GlobCase{"a*b*c", "axxbyyc", true}, GlobCase{"a*b*c", "acb", false},
        GlobCase{"", "", true}, GlobCase{"", "x", false}));

// --- config ---

TEST(Strings, EqualsIgnoreCase) {
  EXPECT_TRUE(EqualsIgnoreCase("ECE", "ece"));
  EXPECT_TRUE(EqualsIgnoreCase("", ""));
  EXPECT_FALSE(EqualsIgnoreCase("ece", "ec"));
  EXPECT_FALSE(EqualsIgnoreCase("ece", "eca"));
}

// --- Symbols ---

TEST(Symbols, SameTextSameSymbol) {
  const Symbol a = Intern("symbols-test-alpha");
  EXPECT_EQ(a, Intern(std::string("symbols-test-") + "alpha"));
  EXPECT_NE(a, Intern("symbols-test-beta"));
  EXPECT_EQ(a.text(), "symbols-test-alpha");
  EXPECT_FALSE(a.empty());
}

TEST(Symbols, EmptyStringIsTheDefaultSymbol) {
  EXPECT_EQ(Intern(""), Symbol());
  EXPECT_TRUE(Intern("").empty());
  EXPECT_EQ(Symbol().text(), "");
  EXPECT_EQ(Intern(std::string_view()).text().size(), 0u);
}

TEST(Symbols, ViewsStayValidWhileTheTableGrows) {
  const Symbol first = Intern("symbols-test-first");
  const std::string_view view = first.text();
  // Enough symbols to grow the hash index, the view chunks and the text
  // blocks several times over.
  constexpr int kCount = 100000;
  std::vector<Symbol> grown;
  grown.reserve(kCount);
  for (int i = 0; i < kCount; ++i) {
    grown.push_back(Intern("symbols-test-grow-" + std::to_string(i)));
  }
  EXPECT_EQ(first.text().data(), view.data());
  EXPECT_EQ(view, "symbols-test-first");
  for (int i = 0; i < kCount; ++i) {
    ASSERT_EQ(grown[i].text(), "symbols-test-grow-" + std::to_string(i));
    ASSERT_EQ(Intern(grown[i].text()), grown[i]);
  }
}

TEST(Symbols, SameTextSameSymbolAcrossThreads) {
  constexpr int kThreads = 4;
  constexpr int kTexts = 2000;
  std::vector<std::vector<Symbol>> seen(kThreads,
                                        std::vector<Symbol>(kTexts));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &seen] {
      // Each thread interns every text, in its own order, and reads
      // back what it got.
      for (int k = 0; k < kTexts; ++k) {
        const int i = (7 * k + 500 * t) % kTexts;
        const std::string text = "symbols-test-mt-" + std::to_string(i);
        seen[t][i] = Intern(text);
        if (seen[t][i].text() != text) seen[t][i] = Symbol();
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (int i = 0; i < kTexts; ++i) {
    ASSERT_EQ(seen[0][i].text(), "symbols-test-mt-" + std::to_string(i));
    for (int t = 1; t < kThreads; ++t) ASSERT_EQ(seen[t][i], seen[0][i]);
  }
}

TEST(Config, ParsesSectionsAndComments) {
  auto config = Config::Parse(
      "# comment\n"
      "top = 1\n"
      "[pool]\n"
      "size = 3200   # trailing\n"
      "policy = least-load\n");
  ASSERT_TRUE(config.ok());
  EXPECT_EQ(config->GetInt("top", 0), 1);
  EXPECT_EQ(config->GetInt("pool.size", 0), 3200);
  EXPECT_EQ(config->GetOr("pool.policy", ""), "least-load");
  EXPECT_FALSE(config->Has("missing"));
}

TEST(Config, TypedAccessorsFallBack) {
  Config config;
  config.Set("flag", "true");
  config.Set("bad", "zzz");
  EXPECT_TRUE(config.GetBool("flag", false));
  EXPECT_FALSE(config.GetBool("missing", false));
  EXPECT_EQ(config.GetInt("bad", 9), 9);
  EXPECT_DOUBLE_EQ(config.GetDouble("bad", 1.5), 1.5);
}

TEST(Config, RejectsMalformedLines) {
  EXPECT_FALSE(Config::Parse("novalue\n").ok());
  EXPECT_FALSE(Config::Parse("[unterminated\n").ok());
  EXPECT_FALSE(Config::Parse("= x\n").ok());
}

TEST(Config, SerializeRoundTrips) {
  Config config;
  config.Set("a.b", "1");
  config.Set("c", "hello world");
  auto reparsed = Config::Parse(config.Serialize());
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed->entries(), config.entries());
}

// --- rng ---

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.Next() == b.Next());
  EXPECT_LT(same, 2);
}

TEST(Rng, ForkIndependentOfParentUse) {
  Rng parent(7);
  Rng child = parent.Fork();
  const std::uint64_t child_first = child.Next();
  // Re-derive: same parent state sequence gives the same child.
  Rng parent2(7);
  Rng child2 = parent2.Fork();
  EXPECT_EQ(child2.Next(), child_first);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(42);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, NextBoundedCoversRange) {
  Rng rng(42);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.NextBounded(10));
  EXPECT_EQ(seen.size(), 10u);
  EXPECT_EQ(*seen.rbegin(), 9u);
}

TEST(Rng, GaussianMoments) {
  Rng rng(11);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.Add(rng.Gaussian(5.0, 2.0));
  EXPECT_NEAR(stats.mean(), 5.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.05);
}

TEST(Rng, ExponentialMean) {
  Rng rng(12);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.Add(rng.Exponential(3.0));
  EXPECT_NEAR(stats.mean(), 3.0, 0.1);
}

TEST(Rng, ParetoRespectsScale) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) EXPECT_GE(rng.Pareto(10.0, 1.5), 10.0);
}

TEST(Rng, WeightedIndexFollowsWeights) {
  Rng rng(14);
  std::vector<double> weights{1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 40000; ++i) ++counts[rng.WeightedIndex(weights)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.2);
}

TEST(Rng, ShufflePermutes) {
  Rng rng(15);
  std::vector<int> items{1, 2, 3, 4, 5, 6, 7, 8};
  auto copy = items;
  rng.Shuffle(copy);
  std::multiset<int> a(items.begin(), items.end());
  std::multiset<int> b(copy.begin(), copy.end());
  EXPECT_EQ(a, b);
}

// --- stats ---

TEST(RunningStats, BasicMoments) {
  RunningStats stats;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stats.Add(x);
  EXPECT_EQ(stats.count(), 8u);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_NEAR(stats.stddev(), 2.138, 0.001);
  EXPECT_DOUBLE_EQ(stats.min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.max(), 9.0);
}

TEST(RunningStats, MergeMatchesCombined) {
  Rng rng(16);
  RunningStats all, left, right;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.Gaussian();
    all.Add(x);
    (i % 2 ? left : right).Add(x);
  }
  left.Merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-9);
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats stats;
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_EQ(stats.mean(), 0.0);
  EXPECT_EQ(stats.stddev(), 0.0);
}

TEST(Histogram, BucketsAndEdges) {
  Histogram h(0.0, 10.0, 10);
  h.Add(0.0);
  h.Add(0.5);
  h.Add(9.99);
  h.Add(10.0);   // overflow -> last bucket
  h.Add(-1.0);   // underflow -> first bucket
  EXPECT_EQ(h.bucket(0), 3u);
  EXPECT_EQ(h.bucket(9), 2u);
  EXPECT_EQ(h.total(), 5u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_DOUBLE_EQ(h.bucket_lo(3), 3.0);
  EXPECT_DOUBLE_EQ(h.bucket_hi(3), 4.0);
}

TEST(Histogram, RenderShowsBars) {
  Histogram h(0, 2, 2);
  h.Add(0.5);
  h.Add(0.6);
  h.Add(1.5);
  const std::string out = h.Render(10);
  EXPECT_NE(out.find("##########"), std::string::npos);
}

TEST(QuantileSampler, ExactSmall) {
  QuantileSampler q;
  for (int i = 1; i <= 100; ++i) q.Add(i);
  EXPECT_NEAR(q.Quantile(0.0), 1.0, 1e-9);
  EXPECT_NEAR(q.Quantile(1.0), 100.0, 1e-9);
  EXPECT_NEAR(q.Quantile(0.5), 50.5, 1e-9);
}

TEST(QuantileSampler, ReservoirApproximatesLarge) {
  QuantileSampler q(1024);
  for (int i = 0; i < 100000; ++i) q.Add(i % 1000);
  EXPECT_NEAR(q.Quantile(0.5), 500, 60);
}

// --- queue & thread pool ---

TEST(BlockingQueue, FifoOrder) {
  BlockingQueue<int> q;
  q.Push(1);
  q.Push(2);
  q.Push(3);
  EXPECT_EQ(q.Pop(), 1);
  EXPECT_EQ(q.Pop(), 2);
  EXPECT_EQ(q.Pop(), 3);
}

TEST(BlockingQueue, CloseDrainsThenEnds) {
  BlockingQueue<int> q;
  q.Push(1);
  q.Close();
  EXPECT_FALSE(q.Push(2));
  EXPECT_EQ(q.Pop(), 1);
  EXPECT_FALSE(q.Pop().has_value());
}

TEST(BlockingQueue, TryPopEmpty) {
  BlockingQueue<int> q;
  EXPECT_FALSE(q.TryPop().has_value());
}

TEST(BlockingQueue, BoundedTryPushRejectsWhenFull) {
  BlockingQueue<int> q(2);
  EXPECT_TRUE(q.TryPush(1));
  EXPECT_TRUE(q.TryPush(2));
  EXPECT_FALSE(q.TryPush(3));
  q.Pop();
  EXPECT_TRUE(q.TryPush(3));
}

TEST(BlockingQueue, CrossThreadDelivery) {
  BlockingQueue<int> q;
  std::thread producer([&q] {
    for (int i = 0; i < 100; ++i) q.Push(i);
    q.Close();
  });
  int count = 0;
  while (q.Pop()) ++count;
  producer.join();
  EXPECT_EQ(count, 100);
}

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 200; ++i) pool.Submit([&counter] { ++counter; });
  pool.Drain();
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPool, DrainWaitsForInFlight) {
  ThreadPool pool(2);
  std::atomic<bool> done{false};
  pool.Submit([&done] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    done = true;
  });
  pool.Drain();
  EXPECT_TRUE(done.load());
}

// Multi-producer stress: the scenario driver leans on Submit from the
// sweep fan-out while Drain waits; every counted task must run exactly
// once and Drain must never hang on a lost wakeup.
TEST(ThreadPool, MultiProducerSubmitStress) {
  constexpr int kProducers = 8;
  constexpr int kTasksPerProducer = 2000;
  ThreadPool pool(4);
  std::atomic<int> executed{0};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&pool, &executed] {
      for (int i = 0; i < kTasksPerProducer; ++i) {
        pool.Submit([&executed] {
          executed.fetch_add(1, std::memory_order_relaxed);
        });
      }
    });
  }
  for (auto& producer : producers) producer.join();
  pool.Drain();
  EXPECT_EQ(executed.load(), kProducers * kTasksPerProducer);
}

// Drain called repeatedly and concurrently while producers are active:
// each call must return (momentary idle) without deadlocking.
TEST(ThreadPool, ConcurrentDrainsReturn) {
  ThreadPool pool(3);
  std::atomic<int> executed{0};
  std::thread producer([&pool, &executed] {
    for (int i = 0; i < 500; ++i) {
      pool.Submit([&executed] {
        executed.fetch_add(1, std::memory_order_relaxed);
      });
    }
  });
  std::vector<std::thread> drainers;
  for (int d = 0; d < 3; ++d) {
    drainers.emplace_back([&pool] {
      for (int i = 0; i < 10; ++i) pool.Drain();
    });
  }
  producer.join();
  for (auto& drainer : drainers) drainer.join();
  pool.Drain();
  EXPECT_EQ(executed.load(), 500);
}

// Tasks submitting more tasks: Drain must cover the transitively
// spawned work, not just the directly submitted tasks.
TEST(ThreadPool, DrainCoversTasksSpawnedByTasks) {
  ThreadPool pool(4);
  std::atomic<int> executed{0};
  for (int i = 0; i < 50; ++i) {
    pool.Submit([&pool, &executed] {
      executed.fetch_add(1, std::memory_order_relaxed);
      pool.Submit([&executed] {
        executed.fetch_add(1, std::memory_order_relaxed);
      });
    });
  }
  pool.Drain();
  EXPECT_EQ(executed.load(), 100);
}

// Shutdown race: destruction with queued work runs everything already
// accepted before joining (the queue drains before workers exit).
TEST(ThreadPool, DestructorRunsAcceptedTasks) {
  std::atomic<int> executed{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 64; ++i) {
      pool.Submit([&executed] {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        executed.fetch_add(1, std::memory_order_relaxed);
      });
    }
  }
  EXPECT_EQ(executed.load(), 64);
}

// --- sim time ---

TEST(SimTimeHelpers, Conversions) {
  EXPECT_EQ(Millis(3), 3000);
  EXPECT_EQ(Seconds(1.5), 1500000);
  EXPECT_DOUBLE_EQ(ToSeconds(Seconds(2.5)), 2.5);
  EXPECT_DOUBLE_EQ(ToMillis(Millis(7)), 7.0);
}

}  // namespace
}  // namespace actyp
