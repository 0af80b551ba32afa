#include "tree/io.hpp"

#include <cstdint>
#include <limits>
#include <map>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "support/parse.hpp"
#include "support/require.hpp"

namespace treeplace {
namespace {

[[noreturn]] void fail(std::size_t line, const std::string& message) {
  throw ParseError("instance parse error at line " + std::to_string(line) + ": " +
                   message);
}

std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream in(line);
  std::string token;
  while (in >> token) {
    if (token.front() == '#') break;  // comment to end of line
    tokens.push_back(token);
  }
  return tokens;
}

/// Whole-token integer in [lo, hi]; anything else is a parse error naming
/// `what`.
std::int64_t intToken(const std::string& token, std::int64_t lo, std::int64_t hi,
                      std::size_t line, const std::string& what) {
  return parseIntInRange(token, lo, hi, what,
                         [line](const std::string& message) { fail(line, message); });
}

/// Splits "key=value" tokens into a map; bare tokens are rejected.
std::map<std::string, std::string> keyValues(const std::vector<std::string>& tokens,
                                             std::size_t from, std::size_t line) {
  std::map<std::string, std::string> out;
  for (std::size_t i = from; i < tokens.size(); ++i) {
    const auto eq = tokens[i].find('=');
    if (eq == std::string::npos) fail(line, "expected key=value, got '" + tokens[i] + "'");
    out[tokens[i].substr(0, eq)] = tokens[i].substr(eq + 1);
  }
  return out;
}

}  // namespace

void writeInstance(std::ostream& out, const ProblemInstance& instance) {
  instance.validate();
  const auto n = instance.tree.vertexCount();
  out << "treeplace-instance v1\n";
  out << "vertices " << n << "\n";
  for (std::size_t i = 0; i < n; ++i) {
    const auto v = static_cast<VertexId>(i);
    out << v << ' ';
    if (instance.tree.isInternal(v)) {
      out << "internal " << instance.tree.parent(v) << " cap=" << instance.capacity[i]
          << " cost=" << instance.storageCost[i];
      if (instance.compTime[i] != 0.0) out << " compt=" << instance.compTime[i];
    } else {
      out << "client " << instance.tree.parent(v) << " req=" << instance.requests[i];
    }
    if (instance.tree.parent(v) != kNoVertex && instance.commTime[i] != 1.0)
      out << " comm=" << instance.commTime[i];
    if (instance.bandwidth[i] != kUnlimitedBandwidth)
      out << " bw=" << instance.bandwidth[i];
    if (instance.tree.isClient(v) && instance.qos[i] != kNoQos)
      out << " qos=" << instance.qos[i];
    out << '\n';
  }
}

std::string instanceToString(const ProblemInstance& instance) {
  std::ostringstream os;
  writeInstance(os, instance);
  return os.str();
}

ProblemInstance readInstance(std::istream& in) {
  std::string line;
  std::size_t lineNo = 0;

  auto nextTokens = [&](std::vector<std::string>& tokens) -> bool {
    while (std::getline(in, line)) {
      ++lineNo;
      tokens = tokenize(line);
      if (!tokens.empty()) return true;
    }
    return false;
  };

  std::vector<std::string> tokens;
  if (!nextTokens(tokens) || tokens.size() != 2 || tokens[0] != "treeplace-instance" ||
      tokens[1] != "v1")
    fail(lineNo, "missing 'treeplace-instance v1' header");
  if (!nextTokens(tokens) || tokens.size() != 2 || tokens[0] != "vertices")
    fail(lineNo, "missing 'vertices <count>' line");
  const auto count = static_cast<std::size_t>(intToken(
      tokens[1], 1, std::numeric_limits<VertexId>::max(), lineNo, "vertex count"));
  const auto maxId = static_cast<std::int64_t>(count) - 1;

  // Rows are parsed before any per-vertex array exists: the header's count
  // is trusted only once that many rows have actually been read.
  struct Row {
    std::size_t line = 0;
    VertexId id = 0;
    VertexId parent = kNoVertex;
    VertexKind kind = VertexKind::Internal;
    Requests requests = 0;
    Requests capacity = 0;
    Requests bandwidth = kUnlimitedBandwidth;
    double storageCost = 0.0;
    double commTime = 1.0;
    double qos = kNoQos;
    double compTime = 0.0;
  };
  std::vector<Row> rows;
  while (rows.size() < count) {
    if (!nextTokens(tokens)) fail(lineNo, "unexpected end of input");
    if (tokens.size() < 3) fail(lineNo, "expected '<id> <kind> <parent> ...'");
    Row row;
    row.line = lineNo;
    row.id = static_cast<VertexId>(intToken(tokens[0], 0, maxId, lineNo, "vertex id"));
    row.parent = static_cast<VertexId>(intToken(tokens[2], -1, maxId, lineNo, "parent"));

    const auto kv = keyValues(tokens, 3, lineNo);
    auto getDouble = [&](const char* key, double fallback) {
      const auto it = kv.find(key);
      if (it == kv.end()) return fallback;
      double value = 0.0;
      if (parseWholeDouble(it->second, value) != NumberError::None)
        fail(lineNo, std::string("bad value for ") + key + " '" + it->second + "'");
      return value;
    };
    auto getInt = [&](const char* key, Requests fallback) {
      const auto it = kv.find(key);
      if (it == kv.end()) return fallback;
      return static_cast<Requests>(intToken(it->second, std::numeric_limits<Requests>::min(),
                                            std::numeric_limits<Requests>::max(), lineNo,
                                            std::string("value for ") + key));
    };

    if (tokens[1] == "internal") {
      row.kind = VertexKind::Internal;
      row.capacity = getInt("cap", 0);
      row.storageCost = getDouble("cost", static_cast<double>(row.capacity));
      row.compTime = getDouble("compt", 0.0);
    } else if (tokens[1] == "client") {
      row.kind = VertexKind::Client;
      row.requests = getInt("req", 0);
      row.qos = getDouble("qos", kNoQos);
    } else {
      fail(lineNo, "unknown vertex kind '" + tokens[1] + "'");
    }
    row.commTime = getDouble("comm", 1.0);
    row.bandwidth = getInt("bw", kUnlimitedBandwidth);
    if (row.parent == kNoVertex) row.commTime = 0.0;
    rows.push_back(row);
  }

  // count rows with distinct ids in [0, count): every slot is written once.
  ProblemInstance instance;
  std::vector<VertexId> parents(count);
  std::vector<VertexKind> kinds(count);
  instance.requests.resize(count);
  instance.capacity.resize(count);
  instance.storageCost.resize(count);
  instance.commTime.resize(count);
  instance.bandwidth.resize(count);
  instance.qos.resize(count);
  instance.compTime.resize(count);
  std::vector<bool> seen(count, false);
  for (const Row& row : rows) {
    const auto id = static_cast<std::size_t>(row.id);
    if (seen[id]) fail(row.line, "duplicate vertex id " + std::to_string(id));
    seen[id] = true;
    parents[id] = row.parent;
    kinds[id] = row.kind;
    instance.requests[id] = row.requests;
    instance.capacity[id] = row.capacity;
    instance.storageCost[id] = row.storageCost;
    instance.commTime[id] = row.commTime;
    instance.bandwidth[id] = row.bandwidth;
    instance.qos[id] = row.qos;
    instance.compTime[id] = row.compTime;
  }

  try {
    instance.tree = Tree::fromParents(std::move(parents), std::move(kinds));
    instance.validate();
  } catch (const PreconditionError& e) {
    throw ParseError(std::string("inconsistent instance: ") + e.what());
  }
  return instance;
}

ProblemInstance instanceFromString(const std::string& text) {
  std::istringstream in(text);
  return readInstance(in);
}

}  // namespace treeplace
