// Hand-worked cases for the independent checkers. Every expected number
// below was derived on paper from the equations in checkers.h.
#include <gtest/gtest.h>

#include "checkers.h"

using namespace perfbench;

namespace {

// pi_0 = (.5, .5), P = [[.9, .1], [.2, .8]], mu = (1, 4), sigma = (1, 1).
// Stationary distribution (2/3, 1/3); P's second eigenvalue is 0.7.
CheckModel two_state() {
  CheckModel m;
  m.initial = {0.5, 0.5};
  m.transition = {{0.9, 0.1}, {0.2, 0.8}};
  m.mean = {1.0, 4.0};
  m.sigma = {1.0, 1.0};
  return m;
}

}  // namespace

TEST(ForwardFilter, FirstObservationConditionsThePrior) {
  const CheckModel m = two_state();
  ForwardFilter f(m);
  f.observe(1.0);
  // e(1) = (phi(0), phi(3)); the ratio is exp(-4.5) = 0.0111090.
  EXPECT_NEAR(f.belief()[0], 1.0 / (1.0 + 0.0111090), 1e-6);
  // pi P = (0.892309, 0.107691): state 0 forecasts mu = 1.
  const auto p = f.projected(1);
  EXPECT_NEAR(p[0], 0.892309, 1e-6);
  EXPECT_TRUE(f.accepts(1, 1.0));
  EXPECT_FALSE(f.accepts(1, 4.0));
}

TEST(ForwardFilter, ForecastDecaysTowardTheStationaryState) {
  const CheckModel m = two_state();
  ForwardFilter f(m);
  f.observe(1.0);
  f.observe(4.0);
  // pi_{2|2} = normalize(0.892309 * 0.011109, 0.107691) = (0.08429, 0.91571).
  EXPECT_NEAR(f.belief()[1], 0.91571, 1e-5);
  // (pi P^h)_1 = 1/3 + 0.58238 * 0.7^h: above 1/2 up to h = 3, below from 4.
  EXPECT_NEAR(f.projected(1)[1], 0.740997, 1e-5);
  EXPECT_TRUE(f.accepts(1, 4.0));
  EXPECT_TRUE(f.accepts(3, 4.0));
  EXPECT_TRUE(f.accepts(4, 1.0));
  EXPECT_FALSE(f.accepts(4, 4.0));
}

TEST(ForwardFilter, TiedStatesAcceptEitherMean) {
  CheckModel m = two_state();
  m.transition = {{1.0, 0.0}, {0.0, 1.0}};
  ForwardFilter f(m);
  EXPECT_TRUE(f.accepts(2, 1.0));
  EXPECT_TRUE(f.accepts(2, 4.0));
  EXPECT_FALSE(f.accepts(2, 2.5));
}

TEST(ForwardFilter, UnderflowResetsToUniform) {
  CheckModel m = two_state();
  m.sigma = {0.01, 0.01};
  ForwardFilter f(m);
  f.observe(1000.0);  // ~1e5 sigmas from both states: e(w) = 0
  EXPECT_DOUBLE_EQ(f.belief()[0], 0.5);
  EXPECT_DOUBLE_EQ(f.belief()[1], 0.5);
}

TEST(ParseModelText, ReadsTheShippedFormat) {
  const auto m = parse_model_text(
      "cs2p-hmm-v1 2\ninitial 0.25 0.75\nrow 0.9 0.1\nrow 0.2 0.8\n"
      "state 1.5 0.5\nstate 3 0.25\n");
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->states(), 2u);
  EXPECT_DOUBLE_EQ(m->initial[1], 0.75);
  EXPECT_DOUBLE_EQ(m->transition[1][0], 0.2);
  EXPECT_DOUBLE_EQ(m->mean[1], 3.0);
  EXPECT_DOUBLE_EQ(m->sigma[0], 0.5);
  EXPECT_FALSE(parse_model_text("cs2p-hmm-v1 2\ninitial 0.25\n").has_value());
}

// Three chunks of 6 s at 1000, 2000, 1000 kbps over 2, 1, 4 Mbps:
//   d = 3, 12, 1.5 s; startup 3 s, buffer 6 -> rebuffer 12 - 6 = 6 s,
//   buffer 6 -> no stall, buffer 10.5.
// QoE = 4000 - (1000 + 1000) - 3000 * 6 - 300 * 3 = -16900.
TEST(LinearQoe, ThreeChunkPlayback) {
  const std::vector<ChunkView> played = {
      {1000, 2.0, 0, 0}, {2000, 1.0, 0, 0}, {1000, 4.0, 0, 0}};
  const Replayed r = replay_buffer(played, 6.0, 30.0);
  EXPECT_DOUBLE_EQ(r.startup_seconds, 3.0);
  EXPECT_DOUBLE_EQ(r.chunks[1].download_seconds, 12.0);
  EXPECT_DOUBLE_EQ(r.chunks[1].rebuffer_seconds, 6.0);
  EXPECT_DOUBLE_EQ(r.chunks[2].download_seconds, 1.5);
  EXPECT_DOUBLE_EQ(r.chunks[2].rebuffer_seconds, 0.0);
  EXPECT_DOUBLE_EQ(linear_qoe(r.chunks, r.startup_seconds, QoeWeights{}), -16900.0);
}

// Fast downloads fill the buffer to its capacity: 350 kbps at 10 Mbps takes
// 0.21 s, so after chunk 1 the buffer would be 11.79 s but is capped at 8;
// a chunk that downloads within the buffer never stalls.
TEST(ReplayBuffer, CapacityCapsTheBuffer) {
  const std::vector<ChunkView> played = {
      {350, 10.0, 0, 0}, {350, 10.0, 0, 0}, {3000, 2.0, 0, 0}};
  const Replayed r = replay_buffer(played, 6.0, 8.0);
  // Chunk 2 downloads 9 s against a capped 8 s buffer: 1 s stall.
  EXPECT_DOUBLE_EQ(r.chunks[2].download_seconds, 9.0);
  EXPECT_NEAR(r.chunks[2].rebuffer_seconds, 1.0, 1e-12);
  EXPECT_NEAR(linear_qoe(r.chunks, r.startup_seconds, QoeWeights{}),
              3700.0 - 2650.0 - 3000.0 - 300.0 * 0.21, 1e-9);
}
