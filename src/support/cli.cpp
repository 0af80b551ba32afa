#include "support/cli.hpp"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <iostream>
#include <stdexcept>

#include "support/parse.hpp"
#include "support/require.hpp"

namespace treeplace {

Options::Options(int argc, const char* const* argv, std::string envPrefix)
    : envPrefix_(std::move(envPrefix)) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positionals_.push_back(arg);
      continue;
    }
    const std::string body = arg.substr(2);
    const auto eq = body.find('=');
    // Move-assign named locals into the map slots: assigning a char* or a
    // substr temporary into a slot indexed by a related string trips gcc
    // 12's -Wrestrict false positive under -O2.
    if (eq == std::string::npos) {
      std::string value = "1";
      values_[body] = std::move(value);
    } else {
      std::string key = body.substr(0, eq);
      std::string value = body.substr(eq + 1);
      values_[std::move(key)] = std::move(value);
    }
  }
}

bool Options::hasFlag(const std::string& name) const {
  const auto v = get(name);
  return v.has_value() && *v != "0" && *v != "false";
}

std::optional<std::string> Options::get(const std::string& name) const {
  if (const auto it = values_.find(name); it != values_.end()) return it->second;
  return fromEnv(name);
}

std::string Options::getOr(const std::string& name, const std::string& fallback) const {
  return get(name).value_or(fallback);
}

std::int64_t Options::getIntOr(const std::string& name, std::int64_t fallback) const {
  const auto v = get(name);
  if (!v) return fallback;
  return parseInt(name, *v);
}

double Options::getDoubleOr(const std::string& name, double fallback) const {
  const auto v = get(name);
  if (!v) return fallback;
  return parseDouble(name, *v);
}

std::vector<std::int64_t> Options::getIntListOr(
    const std::string& name, std::vector<std::int64_t> fallback) const {
  const auto v = get(name);
  if (!v) return fallback;
  std::vector<std::int64_t> values;
  for (std::size_t begin = 0;;) {
    const std::size_t end = std::min(v->find(',', begin), v->size());
    if (end == begin)
      throw OptionError("option --" + name + "=" + *v + ": empty list entry");
    values.push_back(parseInt(name, v->substr(begin, end - begin)));
    if (end == v->size()) return values;
    begin = end + 1;
  }
}

std::int64_t Options::parseInt(const std::string& name, const std::string& text) {
  std::int64_t value = 0;
  const NumberError error = parseWholeInt(text, value);
  if (error == NumberError::OutOfRange)
    throw OptionError("option --" + name + "=" + text + ": integer out of range");
  if (error != NumberError::None)
    throw OptionError("option --" + name + "=" + text + ": not a valid integer");
  return value;
}

double Options::parseDouble(const std::string& name, const std::string& text) {
  double value = 0.0;
  const NumberError error = parseWholeDouble(text, value);
  if (error == NumberError::Invalid)
    throw OptionError("option --" + name + "=" + text + ": not a valid number");
  if (error != NumberError::None)
    throw OptionError("option --" + name + "=" + text + ": number out of range");
  return value;
}

std::optional<std::string> Options::fromEnv(const std::string& name) const {
  std::string key = envPrefix_;
  for (char c : name) {
    key += (c == '-') ? '_' : static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  }
  if (const char* value = std::getenv(key.c_str())) return std::string(value);
  return std::nullopt;
}

int runCli(int argc, char** argv, int (*body)(int, char**)) {
  try {
    return body(argc, argv);
  } catch (const OptionError& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }
}

}  // namespace treeplace
