#include "core/placement_io.hpp"

#include <cstdint>
#include <limits>
#include <ostream>
#include <sstream>
#include <vector>

#include "support/parse.hpp"
#include "support/require.hpp"

namespace treeplace {
namespace {

[[noreturn]] void fail(std::size_t line, const std::string& message) {
  throw PlacementParseError("placement parse error at line " + std::to_string(line) +
                            ": " + message);
}

/// Whole-token integer in [lo, hi]; anything else is a parse error naming
/// `what`.
std::int64_t intToken(const std::string& token, std::int64_t lo, std::int64_t hi,
                      std::size_t line, const std::string& what) {
  return parseIntInRange(token, lo, hi, what,
                         [line](const std::string& message) { fail(line, message); });
}

}  // namespace

void writePlacement(std::ostream& out, const Placement& placement) {
  out << "treeplace-placement v1\n";
  out << "vertices " << placement.vertexCount() << "\n";
  for (const VertexId r : placement.replicaList()) out << "replica " << r << "\n";
  for (std::size_t c = 0; c < placement.vertexCount(); ++c) {
    const auto client = static_cast<VertexId>(c);
    for (const ServedShare& share : placement.shares(client))
      out << "assign " << client << ' ' << share.server << ' ' << share.amount
          << "\n";
  }
}

std::string placementToString(const Placement& placement) {
  std::ostringstream os;
  writePlacement(os, placement);
  return os.str();
}

Placement readPlacement(std::istream& in) {
  std::string line;
  std::size_t lineNo = 0;
  auto nextTokens = [&](std::vector<std::string>& tokens) -> bool {
    while (std::getline(in, line)) {
      ++lineNo;
      tokens.clear();
      std::istringstream ls(line);
      std::string token;
      while (ls >> token) {
        if (token.front() == '#') break;
        tokens.push_back(token);
      }
      if (!tokens.empty()) return true;
    }
    return false;
  };

  std::vector<std::string> tokens;
  if (!nextTokens(tokens) || tokens.size() != 2 ||
      tokens[0] != "treeplace-placement" || tokens[1] != "v1")
    fail(lineNo, "missing 'treeplace-placement v1' header");
  if (!nextTokens(tokens) || tokens.size() != 2 || tokens[0] != "vertices")
    fail(lineNo, "missing 'vertices <count>' line");
  const auto count = static_cast<std::size_t>(intToken(
      tokens[1], 1, std::numeric_limits<VertexId>::max(), lineNo, "vertex count"));
  const auto maxId = static_cast<std::int64_t>(count) - 1;
  const auto id = [&](const std::string& token) {
    return static_cast<VertexId>(intToken(token, 0, maxId, lineNo, "vertex id"));
  };

  // The whole body is parsed before the count-sized Placement is built, so
  // malformed input fails without allocating for its header.
  struct Assignment {
    std::size_t line;
    VertexId client;
    VertexId server;
    Requests amount;
  };
  std::vector<VertexId> replicas;
  std::vector<Assignment> assignments;
  while (nextTokens(tokens)) {
    if (tokens[0] == "replica" && tokens.size() == 2) {
      replicas.push_back(id(tokens[1]));
    } else if (tokens[0] == "assign" && tokens.size() == 4) {
      const VertexId client = id(tokens[1]);
      const VertexId server = id(tokens[2]);
      const Requests amount = intToken(tokens[3], 1, std::numeric_limits<Requests>::max(),
                                       lineNo, "amount");
      assignments.push_back({lineNo, client, server, amount});
    } else {
      fail(lineNo, "expected 'replica <node>' or 'assign <c> <s> <amount>'");
    }
  }
  Placement placement(count);
  for (const VertexId r : replicas) placement.addReplica(r);
  for (const Assignment& a : assignments) {
    // A server's load sums every amount assigned to it (and bounds each
    // client's merged share): it must stay inside Requests.
    if (a.amount > std::numeric_limits<Requests>::max() - placement.serverLoad(a.server))
      fail(a.line, "load on server " + std::to_string(a.server) + " overflows");
    placement.assign(a.client, a.server, a.amount);
  }
  return placement;
}

Placement placementFromString(const std::string& text) {
  std::istringstream in(text);
  return readPlacement(in);
}

}  // namespace treeplace
