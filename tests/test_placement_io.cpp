#include "core/placement_io.hpp"

#include <gtest/gtest.h>

#include "core/validate.hpp"
#include "heuristics/heuristic.hpp"
#include "test_util.hpp"
#include "tree/generator.hpp"

namespace treeplace {
namespace {

TEST(PlacementIo, RoundTripSimple) {
  Placement p(5);
  p.addReplica(0);
  p.addReplica(2);
  p.assign(3, 2, 4);
  p.assign(3, 0, 1);
  p.assign(4, 0, 2);
  const Placement parsed = placementFromString(placementToString(p));
  EXPECT_EQ(parsed, p);
}

TEST(PlacementIo, RoundTripEmpty) {
  const Placement p(3);
  const Placement parsed = placementFromString(placementToString(p));
  EXPECT_EQ(parsed, p);
}

TEST(PlacementIo, RoundTripHeuristicResults) {
  GeneratorConfig config;
  config.minSize = 15;
  config.maxSize = 40;
  config.lambda = 0.5;
  config.maxChildren = 2;
  for (std::uint64_t i = 0; i < 6; ++i) {
    const ProblemInstance inst = generateInstance(config, 555, i);
    const auto mb = runMixedBest(inst);
    if (!mb) continue;
    const Placement parsed = placementFromString(placementToString(mb->placement));
    EXPECT_EQ(parsed, mb->placement);
    EXPECT_TRUE(testutil::placementValid(inst, parsed, Policy::Multiple));
  }
}

TEST(PlacementIo, AcceptsComments) {
  const Placement parsed = placementFromString(
      "treeplace-placement v1\n# header comment\nvertices 4\n"
      "replica 1\nassign 2 1 3  # share\n");
  EXPECT_TRUE(parsed.hasReplica(1));
  EXPECT_EQ(parsed.serverLoad(1), 3);
}

TEST(PlacementIo, RejectsMalformed) {
  EXPECT_THROW(placementFromString("nope\n"), PlacementParseError);
  EXPECT_THROW(placementFromString("treeplace-placement v1\nvertices 0\n"),
               PlacementParseError);
  EXPECT_THROW(placementFromString("treeplace-placement v1\nvertices 2\nreplica 5\n"),
               PlacementParseError);
  EXPECT_THROW(placementFromString("treeplace-placement v1\nvertices 2\nassign 0 1\n"),
               PlacementParseError);
  EXPECT_THROW(
      placementFromString("treeplace-placement v1\nvertices 2\nassign 0 1 -3\n"),
      PlacementParseError);
  EXPECT_THROW(placementFromString("treeplace-placement v1\nvertices 2\nwidget 1\n"),
               PlacementParseError);
}

TEST(PlacementIo, RejectsNegativeOversizedAndTrailingGarbage) {
  EXPECT_THROW(placementFromString("treeplace-placement v1\nvertices -1\n"),
               PlacementParseError);
  EXPECT_THROW(placementFromString("treeplace-placement v1\nvertices 2147483648\n"),
               PlacementParseError);
  const std::string header = "treeplace-placement v1\nvertices 3\n";
  EXPECT_THROW(placementFromString(header + "replica 1x\n"), PlacementParseError);
  EXPECT_THROW(placementFromString(header + "replica -1\n"), PlacementParseError);
  EXPECT_THROW(placementFromString(header + "assign 2 1 3x\n"), PlacementParseError);
  EXPECT_THROW(placementFromString(header + "assign 2y 1 3\n"), PlacementParseError);
  EXPECT_THROW(placementFromString(header + "assign 2 1 99999999999999999999\n"),
               PlacementParseError);
  // Amounts that each fit but overflow a server's summed load.
  EXPECT_THROW(placementFromString(header + "assign 2 1 9223372036854775807\nassign 0 1 1\n"),
               PlacementParseError);
  // A bad line after good ones still fails the whole parse.
  EXPECT_THROW(placementFromString(header + "replica 1\nassign 2 1 3\nassign 2 1 z\n"),
               PlacementParseError);
  const Placement ok = placementFromString(header + "replica 1\nassign 2 1 3\n");
  EXPECT_TRUE(ok.hasReplica(1));
  EXPECT_EQ(ok.serverLoad(1), 3);
}

}  // namespace
}  // namespace treeplace
