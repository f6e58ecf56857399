// Overload-resilient admission scheduler (run under TSan in CI):
//  - smooth weighted round-robin grants slots across priority classes in
//    the deterministic nginx order (4 high : 2 normal : 1 low per cycle at
//    the default weights), FIFO within a class, and exact FIFO when every
//    query is in one class (the defaults);
//  - the shedder drops the newest waiter of the lowest class once the
//    depth watermark is crossed, with kResourceExhausted;
//  - degradation shrinks the granted reservation (and stamps the context)
//    when the queue is over the degrade watermark;
//  - queue-timeout accounting uses one absolute deadline (never fires
//    early, regardless of condition-variable wakeups);
//  - a concurrent submit/cancel/timeout/shed stress across classes leaks
//    no slots, reservations, or queue entries;
//  - BackoffPolicy jitter is off by default (bit-identical delays) and
//    deterministic per (seed, site, attempt) when on;
//  - the engine-wide RetryBudget grants/denies/refills as configured.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/backoff.h"
#include "common/query_context.h"
#include "common/random.h"
#include "common/retry_budget.h"
#include "exec/engine.h"

namespace dynopt {
namespace {

class SchedulerTest : public ::testing::Test {
 protected:
  void SetUp() override { engine_ = std::make_unique<Engine>(); }

  /// Holds one slot so everything submitted afterwards queues.
  Result<AdmissionController::Ticket> Block(QueryContext* ctx) {
    return engine_->admission().Admit(ctx);
  }

  /// Spins until `n` waiters are queued (grants are what's under test, so
  /// tests serialize arrivals against the queue gauge).
  void WaitForQueued(int n) {
    while (engine_->admission().queued() < n) std::this_thread::yield();
  }

  std::unique_ptr<Engine> engine_;
};

TEST_F(SchedulerTest, WeightedFairShareFollowsSmoothWrrOrder) {
  engine_->mutable_cluster().admission.max_concurrent_queries = 1;
  engine_->mutable_cluster().admission.max_queue_depth = 32;
  engine_->mutable_cluster().admission.queue_timeout_seconds = 60.0;
  engine_->RearmAdmission();

  QueryContext blocker("blocker");
  auto hold = Block(&blocker);
  ASSERT_TRUE(hold.ok());

  // Seven waiters per class, enqueued one at a time so within-class FIFO
  // order is known. With one slot, each Release pumps exactly the next
  // grant, so append order below IS grant order.
  constexpr int kPerClass = 7;
  std::mutex order_mu;
  std::vector<QueryPriority> grant_order;
  std::vector<std::unique_ptr<QueryContext>> contexts;
  std::vector<std::thread> waiters;
  int enqueued = 0;
  for (int i = 0; i < kPerClass; ++i) {
    for (QueryPriority p : {QueryPriority::kLow, QueryPriority::kNormal,
                            QueryPriority::kHigh}) {
      auto ctx = std::make_unique<QueryContext>("w");
      ctx->priority = p;
      QueryContext* raw = ctx.get();
      contexts.push_back(std::move(ctx));
      waiters.emplace_back([this, raw, &order_mu, &grant_order]() {
        auto ticket = engine_->admission().Admit(raw);
        ASSERT_TRUE(ticket.ok());
        {
          std::lock_guard<std::mutex> lock(order_mu);
          grant_order.push_back(raw->priority);
        }
        ticket->Release();
      });
      WaitForQueued(++enqueued);
    }
  }

  hold->Release();
  for (auto& t : waiters) t.join();

  ASSERT_EQ(grant_order.size(), static_cast<size_t>(3 * kPerClass));
  // Smooth WRR at weights {1, 2, 4} with all classes backlogged serves one
  // deterministic 7-grant cycle: h,n,h,l,h,n,h — 4 high, 2 normal, 1 low,
  // interleaved (proportional share with no starvation, and no class ever
  // granted twice in a row while another is owed a turn).
  const QueryPriority kExpectedCycle[7] = {
      QueryPriority::kHigh, QueryPriority::kNormal, QueryPriority::kHigh,
      QueryPriority::kLow,  QueryPriority::kHigh,   QueryPriority::kNormal,
      QueryPriority::kHigh};
  for (int i = 0; i < 7; ++i) {
    EXPECT_EQ(grant_order[static_cast<size_t>(i)], kExpectedCycle[i])
        << "grant " << i;
  }
  // Once a class drains the remaining weight is redistributed, so later
  // windows shift composition — but everyone is eventually served.
  int totals[kNumQueryPriorities] = {0, 0, 0};
  for (QueryPriority p : grant_order) ++totals[static_cast<int>(p)];
  for (int c = 0; c < kNumQueryPriorities; ++c) {
    EXPECT_EQ(totals[c], kPerClass) << "class " << c;
  }
  EXPECT_EQ(engine_->admission().running(), 0);
  EXPECT_EQ(engine_->admission().queued(), 0);
}

TEST_F(SchedulerTest, SingleClassDegeneratesToFifo) {
  engine_->mutable_cluster().admission.max_concurrent_queries = 1;
  engine_->mutable_cluster().admission.max_queue_depth = 16;
  engine_->mutable_cluster().admission.queue_timeout_seconds = 60.0;
  engine_->RearmAdmission();

  QueryContext blocker("blocker");
  auto hold = Block(&blocker);
  ASSERT_TRUE(hold.ok());

  constexpr int kWaiters = 8;
  std::mutex order_mu;
  std::vector<int> grant_order;
  std::vector<std::unique_ptr<QueryContext>> contexts;
  std::vector<std::thread> waiters;
  for (int i = 0; i < kWaiters; ++i) {
    // All default kNormal: one non-empty class, so the scheduler must be
    // exact FIFO (the pre-priority behavior).
    contexts.push_back(std::make_unique<QueryContext>("w"));
    QueryContext* raw = contexts.back().get();
    waiters.emplace_back([this, raw, i, &order_mu, &grant_order]() {
      auto ticket = engine_->admission().Admit(raw);
      ASSERT_TRUE(ticket.ok());
      {
        std::lock_guard<std::mutex> lock(order_mu);
        grant_order.push_back(i);
      }
      ticket->Release();
    });
    WaitForQueued(i + 1);
  }

  hold->Release();
  for (auto& t : waiters) t.join();

  ASSERT_EQ(grant_order.size(), static_cast<size_t>(kWaiters));
  for (int i = 0; i < kWaiters; ++i) {
    EXPECT_EQ(grant_order[static_cast<size_t>(i)], i)
        << "FIFO order violated at grant " << i;
  }
}

TEST_F(SchedulerTest, ShedderDropsNewestOfLowestClass) {
  engine_->mutable_cluster().admission.max_concurrent_queries = 1;
  engine_->mutable_cluster().admission.max_queue_depth = 16;
  engine_->mutable_cluster().admission.queue_timeout_seconds = 60.0;
  engine_->mutable_cluster().admission.shed_enabled = true;
  engine_->mutable_cluster().admission.shed_queue_depth = 3;
  engine_->RearmAdmission();

  QueryContext blocker("blocker");
  auto hold = Block(&blocker);
  ASSERT_TRUE(hold.ok());

  // Three low waiters sit exactly at the watermark.
  std::vector<std::unique_ptr<QueryContext>> lows;
  std::vector<std::thread> low_threads;
  std::atomic<int> shed_count{0};
  std::atomic<int> low_granted{0};
  for (int i = 0; i < 3; ++i) {
    lows.push_back(std::make_unique<QueryContext>("low"));
    lows.back()->priority = QueryPriority::kLow;
    QueryContext* raw = lows.back().get();
    low_threads.emplace_back([this, raw, &shed_count, &low_granted]() {
      auto ticket = engine_->admission().Admit(raw);
      if (!ticket.ok()) {
        EXPECT_EQ(ticket.status().code(), StatusCode::kResourceExhausted);
        EXPECT_NE(ticket.status().message().find("shed"), std::string::npos);
        ++shed_count;
        return;
      }
      ++low_granted;
      ticket->Release();
    });
    WaitForQueued(i + 1);
  }

  // A high arrival pushes depth to 4 > 3: the shedder must drop the newest
  // low waiter, never the high one.
  QueryContext high("high");
  high.priority = QueryPriority::kHigh;
  std::thread high_thread([this, &high]() {
    auto ticket = engine_->admission().Admit(&high);
    ASSERT_TRUE(ticket.ok()) << "high-priority waiter must not be shed";
    ticket->Release();
  });
  while (shed_count.load() < 1) std::this_thread::yield();
  EXPECT_EQ(engine_->admission().queued(), 3);

  hold->Release();
  high_thread.join();
  for (auto& t : low_threads) t.join();

  EXPECT_EQ(shed_count.load(), 1);
  EXPECT_EQ(low_granted.load(), 2);
  EXPECT_EQ(engine_->admission().running(), 0);
  EXPECT_EQ(engine_->admission().queued(), 0);
}

TEST_F(SchedulerTest, DegradationShrinksReservationAndStampsContext) {
  engine_->mutable_cluster().admission.max_concurrent_queries = 1;
  engine_->mutable_cluster().admission.max_queue_depth = 8;
  engine_->mutable_cluster().admission.queue_timeout_seconds = 60.0;
  engine_->mutable_cluster().admission.degrade_queue_depth = 2;
  engine_->mutable_cluster().admission.degrade_strategy = true;
  engine_->mutable_cluster().memory.engine_budget_bytes = 64 << 20;
  engine_->mutable_cluster().memory.query_reservation_bytes = 2 << 20;
  engine_->RearmAdmission();

  // The blocker is granted from an empty queue: no degradation.
  QueryContext blocker("blocker");
  auto hold = Block(&blocker);
  ASSERT_TRUE(hold.ok());
  EXPECT_FALSE(blocker.memory_degraded);
  EXPECT_EQ(blocker.memory().budget(), uint64_t{2} << 20);

  // Two queued waiters put the depth at the watermark, so the next grant
  // is degraded: half the reservation, both context stamps set.
  QueryContext w1("w1"), w2("w2");
  std::thread t1([this, &w1]() {
    auto ticket = engine_->admission().Admit(&w1);
    ASSERT_TRUE(ticket.ok());
    EXPECT_TRUE(w1.memory_degraded);
    EXPECT_TRUE(w1.strategy_downgraded);
    EXPECT_EQ(w1.memory().budget(), uint64_t{1} << 20);
    ticket->Release();
  });
  WaitForQueued(1);
  std::thread t2([this, &w2]() {
    auto ticket = engine_->admission().Admit(&w2);
    ASSERT_TRUE(ticket.ok());
    ticket->Release();
  });
  WaitForQueued(2);

  hold->Release();
  t1.join();
  t2.join();
  EXPECT_EQ(engine_->memory().used(), 0u);
}

TEST_F(SchedulerTest, EstimatedReservationOverridesFixedDefault) {
  engine_->mutable_cluster().admission.max_concurrent_queries = 2;
  engine_->mutable_cluster().memory.engine_budget_bytes = 64 << 20;
  engine_->mutable_cluster().memory.query_reservation_bytes = 1 << 20;
  engine_->RearmAdmission();

  // A context carrying an optimizer estimate reserves that much...
  QueryContext estimated("estimated");
  estimated.estimated_memory_bytes = 3 << 20;
  auto t1 = engine_->admission().Admit(&estimated);
  ASSERT_TRUE(t1.ok());
  EXPECT_EQ(estimated.memory().budget(), uint64_t{3} << 20);
  EXPECT_EQ(engine_->memory().used(), uint64_t{3} << 20);

  // ...and one without falls back to query_reservation_bytes.
  QueryContext plain("plain");
  auto t2 = engine_->admission().Admit(&plain);
  ASSERT_TRUE(t2.ok());
  EXPECT_EQ(plain.memory().budget(), uint64_t{1} << 20);

  t1->Release();
  t2->Release();
  EXPECT_EQ(engine_->memory().used(), 0u);
}

TEST_F(SchedulerTest, WildEstimateIsClampedToEngineBudget) {
  engine_->mutable_cluster().admission.max_concurrent_queries = 2;
  engine_->mutable_cluster().admission.queue_timeout_seconds = 0.5;
  engine_->mutable_cluster().memory.engine_budget_bytes = 4 << 20;
  engine_->mutable_cluster().memory.query_reservation_bytes = 1 << 20;
  engine_->RearmAdmission();

  // An over-estimate beyond the whole engine budget must still be
  // grantable (clamped), not block forever.
  QueryContext wild("wild");
  wild.estimated_memory_bytes = 1ull << 40;
  auto ticket = engine_->admission().Admit(&wild);
  ASSERT_TRUE(ticket.ok());
  EXPECT_EQ(wild.memory().budget(), uint64_t{4} << 20);
  ticket->Release();
}

TEST_F(SchedulerTest, QueueTimeoutNeverFiresEarly) {
  constexpr double kTimeout = 0.2;
  engine_->mutable_cluster().admission.max_concurrent_queries = 1;
  engine_->mutable_cluster().admission.max_queue_depth = 4;
  engine_->mutable_cluster().admission.queue_timeout_seconds = kTimeout;
  engine_->RearmAdmission();

  QueryContext blocker("blocker");
  auto hold = Block(&blocker);
  ASSERT_TRUE(hold.ok());

  QueryContext starved("starved");
  const auto start = std::chrono::steady_clock::now();
  auto result = engine_->admission().Admit(&starved);
  const double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  // The timeout is one absolute deadline computed at entry; however the
  // condition variable wakes, the waiter cannot give up before it.
  EXPECT_GE(waited, kTimeout);
  EXPECT_LT(waited, kTimeout + 0.5);
  EXPECT_EQ(engine_->admission().queued(), 0);
}

TEST_F(SchedulerTest, StressSubmitCancelTimeoutShedAcrossClasses) {
  engine_->mutable_cluster().admission.max_concurrent_queries = 3;
  engine_->mutable_cluster().admission.max_queue_depth = 12;
  engine_->mutable_cluster().admission.queue_timeout_seconds = 0.05;
  engine_->mutable_cluster().admission.shed_enabled = true;
  engine_->mutable_cluster().admission.shed_queue_depth = 6;
  engine_->mutable_cluster().admission.shed_queue_wait_seconds = 0.02;
  engine_->mutable_cluster().admission.degrade_queue_depth = 4;
  engine_->mutable_cluster().memory.engine_budget_bytes = 64 << 20;
  engine_->mutable_cluster().memory.query_reservation_bytes = 1 << 20;
  engine_->RearmAdmission();

  constexpr int kThreads = 8;
  constexpr int kItersPerThread = 40;
  std::atomic<int> granted{0};
  std::atomic<int> refused{0};
  std::atomic<int> cancelled{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([this, t, &granted, &refused, &cancelled]() {
      Rng rng(static_cast<uint64_t>(1000 + t));
      for (int i = 0; i < kItersPerThread; ++i) {
        QueryContext ctx("stress");
        ctx.priority = static_cast<QueryPriority>(rng.NextInt64(0, 2));
        const int64_t fate = rng.NextInt64(0, 9);
        if (fate == 0) {
          // Cancel racing the queue wait.
          ctx.Cancel("stress cancel");
        } else if (fate == 1) {
          ctx.set_timeout(0.001);
        }
        auto ticket = engine_->admission().Admit(&ctx);
        if (ticket.ok()) {
          ++granted;
          if (rng.NextInt64(0, 1) == 0) {
            std::this_thread::sleep_for(std::chrono::microseconds(200));
          }
          ticket->Release();
        } else if (ticket.status().code() == StatusCode::kCancelled) {
          ++cancelled;
        } else {
          ASSERT_EQ(ticket.status().code(), StatusCode::kResourceExhausted);
          ++refused;
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  // Every path terminated and nothing leaked: no running queries, no
  // stranded waiters, no reservation bytes held.
  EXPECT_EQ(granted + refused + cancelled, kThreads * kItersPerThread);
  EXPECT_GT(granted.load(), 0);
  EXPECT_EQ(engine_->admission().running(), 0);
  EXPECT_EQ(engine_->admission().queued(), 0);
  EXPECT_EQ(engine_->memory().used(), 0u);
}

// ---- BackoffPolicy jitter --------------------------------------------------

TEST(BackoffJitterTest, JitterOffReturnsDelayBitForBit) {
  BackoffPolicy policy;  // jitter_fraction defaults to 0.
  for (uint64_t site : {0ull, 1ull, 42ull, 0xdeadbeefull}) {
    for (int attempt = 0; attempt < 8; ++attempt) {
      EXPECT_EQ(policy.JitteredDelay(site, attempt), policy.Delay(attempt))
          << "site " << site << " attempt " << attempt;
    }
  }
}

TEST(BackoffJitterTest, JitterIsDeterministicAndBounded) {
  BackoffPolicy policy;
  policy.jitter_fraction = 0.5;
  policy.jitter_seed = 7;
  bool saw_distinct = false;
  for (uint64_t site = 0; site < 16; ++site) {
    for (int attempt = 0; attempt < 4; ++attempt) {
      const double base = policy.Delay(attempt);
      const double jittered = policy.JitteredDelay(site, attempt);
      // Pure function of (seed, site, attempt): same inputs, same delay.
      EXPECT_EQ(jittered, policy.JitteredDelay(site, attempt));
      EXPECT_GE(jittered, base * 0.5);
      EXPECT_LE(jittered, base * 1.5);
      if (jittered != policy.JitteredDelay(site + 1, attempt)) {
        saw_distinct = true;
      }
    }
  }
  // Distinct sites decorrelate (the whole point of per-site jitter).
  EXPECT_TRUE(saw_distinct);

  BackoffPolicy other = policy;
  other.jitter_seed = 8;
  EXPECT_NE(policy.JitteredDelay(3, 1), other.JitteredDelay(3, 1));
}

// ---- RetryBudget -----------------------------------------------------------

TEST(RetryBudgetTest, DisabledBudgetAlwaysGrants) {
  RetryBudget budget(RetryBudgetConfig{});  // max_tokens 0 == unlimited.
  EXPECT_FALSE(budget.enabled());
  for (int i = 0; i < 1000; ++i) EXPECT_TRUE(budget.TryAcquire());
}

TEST(RetryBudgetTest, ExhaustsThenDeniesThenRefills) {
  RetryBudgetConfig config;
  config.max_tokens = 2;
  config.refill_per_second = 0;  // Fixed allowance.
  RetryBudget fixed(config);
  EXPECT_TRUE(fixed.TryAcquire());
  EXPECT_TRUE(fixed.TryAcquire());
  EXPECT_FALSE(fixed.TryAcquire());
  EXPECT_EQ(fixed.granted(), 2u);
  EXPECT_EQ(fixed.denied(), 1u);

  config.refill_per_second = 1000;
  RetryBudget refilling(config);
  EXPECT_TRUE(refilling.TryAcquire());
  EXPECT_TRUE(refilling.TryAcquire());
  // Burn whatever trickled in, then wait for a real refill.
  while (refilling.TryAcquire()) {
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_TRUE(refilling.TryAcquire());
}

TEST(RetryBudgetTest, ConcurrentAcquiresNeverOverGrant) {
  RetryBudgetConfig config;
  config.max_tokens = 100;
  config.refill_per_second = 0;
  RetryBudget budget(config);
  std::atomic<int> granted{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&budget, &granted]() {
      for (int i = 0; i < 50; ++i) {
        if (budget.TryAcquire()) ++granted;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(granted.load(), 100);
  EXPECT_EQ(budget.denied(), 300u);
}

}  // namespace
}  // namespace dynopt
