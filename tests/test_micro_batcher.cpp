// Direct unit coverage of the MicroBatcher flush policy.
//
// The batcher was previously covered only indirectly through whole-server
// tests, where flush decisions race real dispatcher timing. Here every
// decision is driven with synthetic clocks: requests are stamped with
// chosen enqueued_at values and should_flush / flush_deadline are asked
// about chosen "now" instants, so each policy rule — flush on max_batch,
// oldest-age vs max_wait, and the max_wait = 0 adaptive mode — is pinned
// deterministically, with no sleeping and no real time.
#include <gtest/gtest.h>

#include <chrono>
#include <vector>

#include "serve/micro_batcher.hpp"
#include "serve/request.hpp"

namespace nacu::serve {
namespace {

using std::chrono::microseconds;
using TimePoint = std::chrono::steady_clock::time_point;

/// An arbitrary but fixed epoch for the synthetic clock.
TimePoint t0() { return TimePoint{} + std::chrono::hours{7}; }

/// A request stamped at @p at whose activation input has @p tag elements —
/// the tag identifies it through take_group.
Request tagged(TimePoint at, std::size_t tag) {
  Request request;
  ActivationRequest payload;
  payload.input.assign(tag, fp::Fixed::from_raw(0, fp::Format{8, 7}));
  request.payload = std::move(payload);
  request.enqueued_at = at;
  return request;
}

std::size_t tag_of(const Request& request) {
  return std::get<ActivationRequest>(request.payload).input.size();
}

TEST(MicroBatcher, FlushesOnMaxBatchRegardlessOfAge) {
  BatcherOptions options;
  options.max_batch = 4;
  options.max_wait = std::chrono::seconds{30};  // age never fires here
  MicroBatcher batcher{options};

  for (std::size_t i = 0; i < 3; ++i) {
    batcher.push(tagged(t0(), i));
    EXPECT_FALSE(batcher.should_flush(t0())) << "below max_batch, fresh";
  }
  batcher.push(tagged(t0(), 3));
  // Zero time has passed — the size trigger alone fires.
  EXPECT_TRUE(batcher.should_flush(t0()));
}

TEST(MicroBatcher, AgeFlushTracksTheOldestPendingRequest) {
  BatcherOptions options;
  options.max_batch = 100;
  options.max_wait = microseconds{200};
  MicroBatcher batcher{options};

  batcher.push(tagged(t0(), 1));
  batcher.push(tagged(t0() + microseconds{150}, 2));

  // The *oldest* request's age decides, not the newest's.
  EXPECT_FALSE(batcher.should_flush(t0() + microseconds{199}));
  EXPECT_TRUE(batcher.should_flush(t0() + microseconds{200}));
  ASSERT_TRUE(batcher.flush_deadline().has_value());
  EXPECT_EQ(*batcher.flush_deadline(), t0() + microseconds{200});

  // Once the oldest is taken, the deadline re-anchors on the next oldest.
  (void)batcher.take_group();
  EXPECT_TRUE(batcher.empty());
}

TEST(MicroBatcher, FlushDeadlineReanchorsAfterPartialTake) {
  BatcherOptions options;
  options.max_batch = 1;  // take one request per group
  options.max_wait = microseconds{100};
  MicroBatcher batcher{options};

  batcher.push(tagged(t0(), 1));
  batcher.push(tagged(t0() + microseconds{40}, 2));
  ASSERT_EQ(batcher.take_group().size(), 1u);
  ASSERT_TRUE(batcher.flush_deadline().has_value());
  EXPECT_EQ(*batcher.flush_deadline(), t0() + microseconds{140});
}

TEST(MicroBatcher, MaxWaitZeroIsAdaptiveTakeWhatsPending) {
  BatcherOptions options;
  options.max_batch = 1024;
  options.max_wait = microseconds{0};
  MicroBatcher batcher{options};

  EXPECT_FALSE(batcher.should_flush(t0()));  // nothing pending
  batcher.push(tagged(t0(), 1));
  // A single pending request flushes at its own enqueue instant: the
  // dispatcher takes exactly what is pending whenever it wakes.
  EXPECT_TRUE(batcher.should_flush(t0()));
  EXPECT_EQ(*batcher.flush_deadline(), t0());
}

TEST(MicroBatcher, TakeGroupIsFifoAndBoundedByMaxBatch) {
  BatcherOptions options;
  options.max_batch = 3;
  MicroBatcher batcher{options};
  for (std::size_t tag = 0; tag < 5; ++tag) {
    batcher.push(tagged(t0(), tag));
  }

  std::vector<Request> first = batcher.take_group();
  ASSERT_EQ(first.size(), 3u);
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(tag_of(first[i]), i) << "oldest-first order";
  }
  EXPECT_EQ(batcher.size(), 2u);

  std::vector<Request> second = batcher.take_group();
  ASSERT_EQ(second.size(), 2u);
  EXPECT_EQ(tag_of(second[0]), 3u);
  EXPECT_EQ(tag_of(second[1]), 4u);
  EXPECT_TRUE(batcher.empty());
  EXPECT_TRUE(batcher.take_group().empty());
}

TEST(MicroBatcher, ClampsDegenerateOptions) {
  BatcherOptions options;
  options.max_batch = 0;
  options.max_wait = microseconds{-50};
  const MicroBatcher batcher{options};
  EXPECT_EQ(batcher.options().max_batch, 1u);
  EXPECT_EQ(batcher.options().max_wait.count(), 0);
}

TEST(MicroBatcher, EmptyBatcherNeverFlushes) {
  const MicroBatcher batcher{BatcherOptions{}};
  EXPECT_FALSE(batcher.should_flush(t0() + std::chrono::hours{1}));
  EXPECT_FALSE(batcher.flush_deadline().has_value());
}

}  // namespace
}  // namespace nacu::serve
