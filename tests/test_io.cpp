#include "tree/io.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "test_util.hpp"
#include "tree/builder.hpp"
#include "tree/generator.hpp"

namespace treeplace {
namespace {

TEST(Io, RoundTripSimple) {
  const ProblemInstance inst = testutil::chainInstance(10, 6, {4, 2});
  const std::string text = instanceToString(inst);
  const ProblemInstance parsed = instanceFromString(text);
  EXPECT_EQ(instanceToString(parsed), text);
  EXPECT_EQ(parsed.totalRequests(), inst.totalRequests());
  EXPECT_EQ(parsed.totalCapacity(), inst.totalCapacity());
}

TEST(Io, RoundTripWithAllFields) {
  TreeBuilder b;
  const VertexId root = b.addRoot(10);
  const VertexId mid = b.addInternal(root, 7);
  const VertexId c1 = b.addClient(mid, 3, 2.0);
  b.addClient(root, 2);
  b.setCommTime(mid, 1.5).setCommTime(c1, 0.5).setBandwidth(mid, 40).setStorageCost(mid, 3.25);
  const ProblemInstance inst = b.build();
  const ProblemInstance parsed = instanceFromString(instanceToString(inst));
  EXPECT_DOUBLE_EQ(parsed.commTime[1], 1.5);
  EXPECT_DOUBLE_EQ(parsed.storageCost[1], 3.25);
  EXPECT_EQ(parsed.bandwidth[1], 40);
  EXPECT_DOUBLE_EQ(parsed.qos[2], 2.0);
  EXPECT_EQ(instanceToString(parsed), instanceToString(inst));
}

TEST(Io, RoundTripRandomInstances) {
  GeneratorConfig config;
  config.minSize = 15;
  config.maxSize = 60;
  config.heterogeneous = true;
  config.qosFraction = 0.5;
  for (std::uint64_t i = 0; i < 10; ++i) {
    const ProblemInstance inst = generateInstance(config, 23, i);
    const ProblemInstance parsed = instanceFromString(instanceToString(inst));
    EXPECT_EQ(instanceToString(parsed), instanceToString(inst));
  }
}

TEST(Io, CompTimeRoundTrips) {
  TreeBuilder b;
  const VertexId root = b.addRoot(10);
  const VertexId mid = b.addInternal(root, 5);
  b.addClient(mid, 3, 4.0);
  b.setCompTime(mid, 1.5);
  const ProblemInstance inst = b.build();
  const std::string text = instanceToString(inst);
  EXPECT_NE(text.find("compt=1.5"), std::string::npos);
  const ProblemInstance parsed = instanceFromString(text);
  EXPECT_DOUBLE_EQ(parsed.compTime[1], 1.5);
  EXPECT_DOUBLE_EQ(parsed.compTime[0], 0.0);
}

TEST(Io, AcceptsCommentsAndBlankLines) {
  const std::string text =
      "treeplace-instance v1\n"
      "# a comment\n"
      "vertices 2\n"
      "\n"
      "0 internal -1 cap=5 cost=5\n"
      "1 client 0 req=3   # trailing comment\n";
  const ProblemInstance inst = instanceFromString(text);
  EXPECT_EQ(inst.totalRequests(), 3);
}

TEST(Io, RejectsMissingHeader) {
  EXPECT_THROW(instanceFromString("vertices 2\n"), ParseError);
}

TEST(Io, RejectsBadVertexCount) {
  EXPECT_THROW(instanceFromString("treeplace-instance v1\nvertices nope\n"), ParseError);
  EXPECT_THROW(instanceFromString("treeplace-instance v1\nvertices 0\n"), ParseError);
}

TEST(Io, RejectsNegativeAndOversizedVertexCounts) {
  // "-1" once wrapped through an unsigned parse into a huge count whose
  // array sizing escaped as std::length_error instead of a ParseError.
  EXPECT_THROW(instanceFromString("treeplace-instance v1\nvertices -1\n"
                                  "0 internal -1 cap=5\n"),
               ParseError);
  // One past VertexId's range, and past int64 altogether.
  EXPECT_THROW(instanceFromString("treeplace-instance v1\nvertices 2147483648\n"),
               ParseError);
  EXPECT_THROW(instanceFromString("treeplace-instance v1\nvertices 99999999999999999999\n"),
               ParseError);
  EXPECT_THROW(instanceFromString("treeplace-instance v1\nvertices 2x\n"), ParseError);
}

TEST(Io, RejectsTrailingGarbageInNumbers) {
  const std::string header = "treeplace-instance v1\nvertices 2\n";
  // cap=3x was once read as 3.
  EXPECT_THROW(instanceFromString(header + "0 internal -1 cap=3x\n1 client 0 req=1\n"),
               ParseError);
  EXPECT_THROW(instanceFromString(header + "0 internal -1 cap=5\n1 client 0 req=1.5\n"),
               ParseError);
  EXPECT_THROW(instanceFromString(header + "0 internal -1 cap=5 cost=2y\n1 client 0 req=1\n"),
               ParseError);
  EXPECT_THROW(instanceFromString(header + "0 internal -1 cap=5\n1 client 0 req=1 comm=nan\n"),
               ParseError);
  EXPECT_THROW(instanceFromString(header + "0 internal -1 cap=5\n1x client 0 req=1\n"),
               ParseError);
  EXPECT_THROW(instanceFromString(header + "0 internal -1 cap=5\n1 client 0z req=1\n"),
               ParseError);
  EXPECT_THROW(instanceFromString(header + "0 internal -1 cap=5\n1 client -2 req=1\n"),
               ParseError);
  // The same lines with clean numbers parse.
  const ProblemInstance ok =
      instanceFromString(header + "0 internal -1 cap=3 cost=2.5\n1 client 0 req=1 comm=0.5\n");
  EXPECT_EQ(ok.capacity[0], 3);
  EXPECT_DOUBLE_EQ(ok.storageCost[0], 2.5);
  EXPECT_DOUBLE_EQ(ok.commTime[1], 0.5);
}

TEST(Io, RejectsTruncatedBody) {
  EXPECT_THROW(instanceFromString("treeplace-instance v1\nvertices 2\n"
                                  "0 internal -1 cap=5\n"),
               ParseError);
}

TEST(Io, RejectsDuplicateId) {
  EXPECT_THROW(instanceFromString("treeplace-instance v1\nvertices 2\n"
                                  "0 internal -1 cap=5\n"
                                  "0 client 0 req=1\n"),
               ParseError);
}

TEST(Io, RejectsUnknownKind) {
  EXPECT_THROW(instanceFromString("treeplace-instance v1\nvertices 2\n"
                                  "0 internal -1 cap=5\n"
                                  "1 widget 0 req=1\n"),
               ParseError);
}

TEST(Io, RejectsBareToken) {
  EXPECT_THROW(instanceFromString("treeplace-instance v1\nvertices 2\n"
                                  "0 internal -1 cap=5\n"
                                  "1 client 0 oops\n"),
               ParseError);
}

TEST(Io, RejectsStructurallyBroken) {
  // Two roots.
  EXPECT_THROW(instanceFromString("treeplace-instance v1\nvertices 2\n"
                                  "0 internal -1 cap=5\n"
                                  "1 internal -1 cap=5\n"),
               ParseError);
  // Client as parent.
  EXPECT_THROW(instanceFromString("treeplace-instance v1\nvertices 3\n"
                                  "0 internal -1 cap=5\n"
                                  "1 client 0 req=1\n"
                                  "2 client 1 req=1\n"),
               ParseError);
}

TEST(Io, StreamsWork) {
  const ProblemInstance inst = testutil::chainInstance(4, 4, {1});
  std::stringstream stream;
  writeInstance(stream, inst);
  const ProblemInstance parsed = readInstance(stream);
  EXPECT_EQ(parsed.tree.vertexCount(), inst.tree.vertexCount());
}

}  // namespace
}  // namespace treeplace
