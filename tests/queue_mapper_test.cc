#include "src/core/queue_mapper.h"

#include <gtest/gtest.h>

#include <set>

namespace saba {
namespace {

SensitivityModel Linear(double slope) {
  return SensitivityModel{Polynomial({1.0 + slope, -slope})};
}

std::vector<SensitivityModel> EightPls() {
  std::vector<SensitivityModel> models;
  for (int i = 0; i < 8; ++i) {
    models.push_back(Linear(0.5 * i));
  }
  return models;
}

TEST(QueueMapperTest, EnoughQueuesKeepsPlsDistinct) {
  QueueMapper mapper(EightPls());
  const auto mapping = mapper.MapPort({0, 3, 5}, 8);
  EXPECT_EQ(mapping.level, 0u);
  std::set<int> queues;
  for (int pl : {0, 3, 5}) {
    const int q = mapping.pl_to_queue[static_cast<size_t>(pl)];
    EXPECT_GE(q, 0);
    queues.insert(q);
  }
  EXPECT_EQ(queues.size(), 3u);
  EXPECT_EQ(mapping.queue_models.size(), 3u);
}

TEST(QueueMapperTest, AbsentPlsAreUnmapped) {
  QueueMapper mapper(EightPls());
  const auto mapping = mapper.MapPort({1, 2}, 4);
  for (int pl = 0; pl < 8; ++pl) {
    if (pl == 1 || pl == 2) {
      EXPECT_GE(mapping.pl_to_queue[static_cast<size_t>(pl)], 0);
    } else {
      EXPECT_EQ(mapping.pl_to_queue[static_cast<size_t>(pl)], -1);
    }
  }
}

TEST(QueueMapperTest, FewQueuesGroupNeighbouringSensitivities) {
  QueueMapper mapper(EightPls());
  const auto mapping = mapper.MapPort({0, 1, 6, 7}, 2);
  ASSERT_LE(mapping.queue_models.size(), 2u);
  // Similar PLs end up together: 0 with 1, 6 with 7, and the pairs apart.
  EXPECT_EQ(mapping.pl_to_queue[0], mapping.pl_to_queue[1]);
  EXPECT_EQ(mapping.pl_to_queue[6], mapping.pl_to_queue[7]);
  EXPECT_NE(mapping.pl_to_queue[0], mapping.pl_to_queue[6]);
}

TEST(QueueMapperTest, SingleQueueMergesAll) {
  QueueMapper mapper(EightPls());
  const auto mapping = mapper.MapPort({0, 2, 4, 6}, 1);
  EXPECT_EQ(mapping.queue_models.size(), 1u);
  for (int pl : {0, 2, 4, 6}) {
    EXPECT_EQ(mapping.pl_to_queue[static_cast<size_t>(pl)], 0);
  }
}

TEST(QueueMapperTest, DifferentPortsDifferentMappings) {
  // §5.3.2: the same hierarchy serves ports with different PL subsets and
  // queue counts.
  QueueMapper mapper(EightPls());
  const auto narrow = mapper.MapPort({0, 1, 2, 3, 4, 5, 6, 7}, 2);
  const auto wide = mapper.MapPort({0, 7}, 8);
  EXPECT_LE(narrow.queue_models.size(), 2u);
  EXPECT_EQ(wide.queue_models.size(), 2u);
  EXPECT_GT(narrow.level, wide.level);
}

TEST(QueueMapperTest, QueueModelIsDendrogramCentroid) {
  QueueMapper mapper({Linear(2.0), Linear(2.2), Linear(8.0)});
  const auto mapping = mapper.MapPort({0, 1, 2}, 2);
  ASSERT_EQ(mapping.queue_models.size(), 2u);
  // The {2.0, 2.2} pair merges with midpoint slope 2.1.
  const int merged_queue = mapping.pl_to_queue[0];
  ASSERT_EQ(merged_queue, mapping.pl_to_queue[1]);
  EXPECT_NEAR(mapping.queue_models[static_cast<size_t>(merged_queue)].SlowdownAt(0.5),
              1.0 + 2.1 * 0.5, 1e-9);
}

TEST(QueueMapperTest, QueueIndicesAreDense) {
  QueueMapper mapper(EightPls());
  const auto mapping = mapper.MapPort({1, 3, 5, 7}, 3);
  std::set<int> queues;
  for (int pl : {1, 3, 5, 7}) {
    queues.insert(mapping.pl_to_queue[static_cast<size_t>(pl)]);
  }
  EXPECT_EQ(queues.size(), mapping.queue_models.size());
  for (int q : queues) {
    EXPECT_GE(q, 0);
    EXPECT_LT(q, static_cast<int>(mapping.queue_models.size()));
  }
}

// The memo's off-mode lives inside the mapper (DESIGN.md §7.2): with
// memoize=false every MapPortMemo call recomputes — no call ever counts a
// hit — yet it returns the same mapping the memoizing mapper replays.
TEST(QueueMapperTest, UnmemoizedMapperRecomputesEveryCall) {
  QueueMapper memoized(EightPls(), /*memoize=*/true);
  QueueMapper unmemoized(EightPls(), /*memoize=*/false);
  const std::vector<int> present = {1, 3, 5, 7};
  constexpr int kRounds = 3;
  for (int round = 0; round < kRounds; ++round) {
    for (int queues : {1, 2, 4}) {
      const QueueMapper::PortMapping fresh = unmemoized.MapPort(present, queues);
      const QueueMapper::PortMapping& off = unmemoized.MapPortMemo(present, queues);
      const QueueMapper::PortMapping& on = memoized.MapPortMemo(present, queues);
      EXPECT_EQ(off.pl_to_queue, fresh.pl_to_queue);
      EXPECT_EQ(off.level, fresh.level);
      EXPECT_EQ(on.pl_to_queue, fresh.pl_to_queue);
      EXPECT_EQ(on.level, fresh.level);
      ASSERT_EQ(off.queue_models.size(), fresh.queue_models.size());
      for (size_t q = 0; q < fresh.queue_models.size(); ++q) {
        EXPECT_EQ(off.queue_models[q].polynomial().coefficients(),
                  fresh.queue_models[q].polynomial().coefficients());
      }
    }
  }
  EXPECT_EQ(unmemoized.memo_hits(), 0u);
  EXPECT_EQ(memoized.memo_hits(), (kRounds - 1) * 3u);
}

}  // namespace
}  // namespace saba
