// Tests for the population concentration metrics: closed-form cases,
// definitional ranges, degenerate inputs, and the carried wealth order
// (PopulationOrders) against the from-scratch sort.

#include "core/population.hpp"

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace fairchain::core {
namespace {

PopulationSnapshot Measure(const std::vector<double>& wealth) {
  std::vector<double> scratch;
  return MeasurePopulation(wealth, &scratch);
}

TEST(PopulationTest, UniformPopulationIsPerfectlyEqual) {
  const PopulationSnapshot snapshot = Measure({1.0, 1.0, 1.0, 1.0});
  EXPECT_NEAR(snapshot.gini, 0.0, 1e-12);
  EXPECT_NEAR(snapshot.hhi, 0.25, 1e-12);  // 1/m
  // Two of four equal miners are needed for a strict majority.
  EXPECT_DOUBLE_EQ(snapshot.nakamoto, 3.0);
  // Top decile of 4 miners = 1 miner = 1/4 of the wealth.
  EXPECT_NEAR(snapshot.top_decile_share, 0.25, 1e-12);
}

TEST(PopulationTest, NearMonopolyApproachesExtremes) {
  const PopulationSnapshot snapshot = Measure({0.001, 0.001, 0.001, 0.997});
  EXPECT_GT(snapshot.gini, 0.7);
  EXPECT_GT(snapshot.hhi, 0.99);
  EXPECT_DOUBLE_EQ(snapshot.nakamoto, 1.0);
  EXPECT_NEAR(snapshot.top_decile_share, 0.997, 1e-12);
}

TEST(PopulationTest, TwoMinerGiniClosedForm) {
  // For wealths {a, 1-a} with a < 1/2 the Gini coefficient is 1/2 - a.
  const PopulationSnapshot snapshot = Measure({0.2, 0.8});
  EXPECT_NEAR(snapshot.gini, 0.3, 1e-12);
  EXPECT_NEAR(snapshot.hhi, 0.04 + 0.64, 1e-12);
  EXPECT_DOUBLE_EQ(snapshot.nakamoto, 1.0);
}

TEST(PopulationTest, UnsortedInputIsHandled) {
  // The input need not be ordered; the metrics sort internally.
  const PopulationSnapshot ascending = Measure({1.0, 2.0, 3.0, 4.0});
  const PopulationSnapshot shuffled = Measure({3.0, 1.0, 4.0, 2.0});
  EXPECT_DOUBLE_EQ(ascending.gini, shuffled.gini);
  EXPECT_DOUBLE_EQ(ascending.nakamoto, shuffled.nakamoto);
  EXPECT_DOUBLE_EQ(ascending.top_decile_share, shuffled.top_decile_share);
}

TEST(PopulationTest, NakamotoCountsSmallestMajorityCoalition) {
  // 40 + 15 > 50: two miners suffice; one (40) does not.
  const PopulationSnapshot snapshot = Measure({40.0, 15.0, 15.0, 15.0, 15.0});
  EXPECT_DOUBLE_EQ(snapshot.nakamoto, 2.0);
}

TEST(PopulationTest, TopDecileCountCeils) {
  EXPECT_EQ(TopDecileCount(1), 1u);
  EXPECT_EQ(TopDecileCount(9), 1u);
  EXPECT_EQ(TopDecileCount(10), 1u);
  EXPECT_EQ(TopDecileCount(11), 2u);
  EXPECT_EQ(TopDecileCount(100), 10u);
  EXPECT_EQ(TopDecileCount(101), 11u);
}

TEST(PopulationTest, SingleMinerIsDegenerateMonopoly) {
  const PopulationSnapshot snapshot = Measure({7.0});
  EXPECT_NEAR(snapshot.gini, 0.0, 1e-12);
  EXPECT_DOUBLE_EQ(snapshot.hhi, 1.0);
  EXPECT_DOUBLE_EQ(snapshot.nakamoto, 1.0);
  EXPECT_DOUBLE_EQ(snapshot.top_decile_share, 1.0);
}

TEST(PopulationTest, RejectsInvalidInput) {
  std::vector<double> scratch;
  EXPECT_THROW(MeasurePopulation({}, &scratch), std::invalid_argument);
  EXPECT_THROW(MeasurePopulation({1.0, -0.5}, &scratch),
               std::invalid_argument);
  EXPECT_THROW(MeasurePopulation({0.0, 0.0}, &scratch),
               std::invalid_argument);
}

// The message of the std::invalid_argument `measure` throws, or "" when
// it throws none.
template <typename Measure>
std::string RejectionMessage(Measure&& measure) {
  try {
    measure();
  } catch (const std::invalid_argument& error) {
    return error.what();
  }
  return "";
}

TEST(PopulationTest, RejectsNonFiniteAndNegativeWealthNamingTheMiner) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> scratch;
  const struct {
    std::vector<double> wealth;
    const char* miner;
  } cases[] = {
      {{1.0, nan, 2.0}, "miner 1 "},  {{nan, -1.0, 2.0}, "miner 0 "},
      {{2.0, -1.0, nan}, "miner 1 "}, {{1.0, inf}, "miner 1 "},
      {{-inf, 1.0}, "miner 0 "},      {{3.0, 1.0, -0.5}, "miner 2 "},
  };
  for (const auto& c : cases) {
    const std::string fresh = RejectionMessage(
        [&] { (void)MeasurePopulation(c.wealth, &scratch); });
    EXPECT_NE(fresh.find(c.miner), std::string::npos) << fresh;

    // The carried path reads the same values in its split pass.
    PopulationOrders orders;
    std::vector<double> start(c.wealth.size(), 1.0);
    orders.Bind(start, 1);
    orders.Restart(0);
    const std::string carried =
        RejectionMessage([&] { (void)orders.Measure(0, c.wealth); });
    EXPECT_NE(carried.find(c.miner), std::string::npos) << carried;
    // So does Bind, for a cell whose initial stakes are bad.
    const std::string bound =
        RejectionMessage([&] { orders.Bind(c.wealth, 1); });
    EXPECT_NE(bound.find(c.miner), std::string::npos) << bound;
  }
}

TEST(PopulationTest, CarriedOrderRejectsZeroTotalAndSizeMismatch) {
  PopulationOrders orders;
  orders.Bind({0.0, 0.0}, 1);
  orders.Restart(0);
  EXPECT_THROW((void)orders.Measure(0, {0.0, 0.0}), std::invalid_argument);
  EXPECT_THROW((void)orders.Measure(0, {1.0, 1.0, 1.0}),
               std::invalid_argument);
  EXPECT_THROW(orders.Bind({}, 1), std::invalid_argument);
}

void ExpectBitIdentical(const PopulationSnapshot& carried,
                        const PopulationSnapshot& fresh,
                        const std::string& where) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(carried.gini),
            std::bit_cast<std::uint64_t>(fresh.gini))
      << where;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(carried.hhi),
            std::bit_cast<std::uint64_t>(fresh.hhi))
      << where;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(carried.nakamoto),
            std::bit_cast<std::uint64_t>(fresh.nakamoto))
      << where;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(carried.top_decile_share),
            std::bit_cast<std::uint64_t>(fresh.top_decile_share))
      << where;
}

// Property: over random credit sequences the carried order measures every
// checkpoint bit-identically to a fresh std::sort.  The stakes carry ties
// and zero-wealth miners, credits repeat amounts (new ties) and include
// zero increments and whole segments without any credit, and one
// PopulationOrders serves every cell (different m and stakes) and several
// interleaved slots, as a worker's workspace does across cells and lanes.
TEST(PopulationTest, CarriedOrderMatchesFreshSortBitForBit) {
  std::mt19937_64 rng(20210620);
  PopulationOrders orders;
  std::vector<double> scratch;
  constexpr std::size_t kSlots = 3;
  for (int round = 0; round < 3; ++round) {
    for (const std::size_t m : {1u, 2u, 3u, 1000u, 3u}) {
      std::vector<double> stakes(m);
      for (std::size_t i = 0; i < m; ++i) {
        // Small integers: plenty of ties and some zeros; miner 0 keeps the
        // total positive.
        stakes[i] = static_cast<double>(rng() % 4);
      }
      stakes[0] += 1.0;
      orders.Bind(stakes, kSlots);
      std::vector<std::vector<double>> wealth(kSlots, stakes);
      for (std::size_t slot = 0; slot < kSlots; ++slot) orders.Restart(slot);
      for (int segment = 0; segment < 40; ++segment) {
        for (std::size_t slot = 0; slot < kSlots; ++slot) {
          std::vector<double>& w = wealth[slot];
          // Segment kinds: no credit at all, zero-amount credits, a few
          // credits of repeated amounts, and many credits (k close to m).
          const std::size_t kind = rng() % 4;
          const std::size_t credits =
              kind == 0 ? 0 : kind == 3 ? m : 1 + rng() % 5;
          for (std::size_t c = 0; c < credits; ++c) {
            const double amount =
                kind == 1 ? 0.0 : 0.25 * static_cast<double>(rng() % 3);
            w[rng() % m] += amount;
          }
          const PopulationSnapshot carried = orders.Measure(slot, w);
          const PopulationSnapshot fresh = MeasurePopulation(w, &scratch);
          ExpectBitIdentical(carried, fresh,
                             "m=" + std::to_string(m) + " slot=" +
                                 std::to_string(slot) + " segment=" +
                                 std::to_string(segment));
          if (HasFailure()) return;
        }
      }
    }
  }
}

TEST(PopulationTest, RestartReturnsToTheInitialOrder) {
  // After a replication moves wealth around, Restart must measure the
  // next replication from the cell's initial stakes again.
  PopulationOrders orders;
  const std::vector<double> stakes = {3.0, 1.0, 2.0, 0.0};
  orders.Bind(stakes, 1);
  orders.Restart(0);
  (void)orders.Measure(0, {3.0, 9.0, 2.0, 5.0});
  orders.Restart(0);
  std::vector<double> scratch;
  ExpectBitIdentical(orders.Measure(0, {4.0, 1.0, 2.0, 0.0}),
                     MeasurePopulation({4.0, 1.0, 2.0, 0.0}, &scratch),
                     "after Restart");
}

TEST(PopulationTest, ScratchReuseDoesNotPerturbResults) {
  std::vector<double> scratch;
  const PopulationSnapshot first = MeasurePopulation({5.0, 1.0}, &scratch);
  (void)MeasurePopulation({1.0, 1.0, 1.0, 1.0, 1.0, 1.0}, &scratch);
  const PopulationSnapshot again = MeasurePopulation({5.0, 1.0}, &scratch);
  EXPECT_DOUBLE_EQ(first.gini, again.gini);
  EXPECT_DOUBLE_EQ(first.hhi, again.hhi);
}

TEST(PopulationTest, ZipfPopulationConcentratesWithTail) {
  // A Zipf(1) population of 1000 miners: the top decile holds a strict
  // majority of the wealth and the Gini sits well inside (0, 1).
  std::vector<double> wealth(1000);
  for (std::size_t i = 0; i < wealth.size(); ++i) {
    wealth[i] = 1.0 / static_cast<double>(i + 1);
  }
  const PopulationSnapshot snapshot = Measure(wealth);
  EXPECT_GT(snapshot.gini, 0.5);
  EXPECT_LT(snapshot.gini, 1.0);
  EXPECT_GT(snapshot.top_decile_share, 0.5);
  EXPECT_GE(snapshot.nakamoto, 1.0);
  EXPECT_LE(snapshot.nakamoto, 1000.0);
}

}  // namespace
}  // namespace fairchain::core
