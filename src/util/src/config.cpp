#include "ff/util/config.h"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <stdexcept>
#include <vector>

namespace ff {
namespace {

[[nodiscard]] std::string trim(const std::string& s) {
  const auto begin = s.find_first_not_of(" \t\r\n");
  if (begin == std::string::npos) return "";
  const auto end = s.find_last_not_of(" \t\r\n");
  return s.substr(begin, end - begin + 1);
}

[[noreturn]] void throw_unparsed(const std::string& key,
                                 const std::string& value, const char* type) {
  throw std::invalid_argument("Config: " + key + "=" + value +
                              " is not a valid " + type);
}

/// Parses all of `value` with a std::sto* function; a value that does not
/// parse, is out of range, or has trailing characters ("3x") throws.
template <class Parse>
[[nodiscard]] auto parse_whole(const std::string& key,
                               const std::string& value, const char* type,
                               Parse parse) {
  std::size_t used = 0;
  try {
    const auto out = parse(value, &used);
    if (used == value.size()) return out;
  } catch (const std::logic_error&) {
    // std::invalid_argument / std::out_of_range: reported below.
  }
  throw_unparsed(key, value, type);
}

/// Levenshtein distance: single-character inserts, deletes, substitutions.
[[nodiscard]] std::size_t edit_distance(const std::string& a,
                                        const std::string& b) {
  std::vector<std::size_t> row(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t diagonal = row[0];
    row[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t above = row[j];
      row[j] = std::min({above + 1, row[j - 1] + 1,
                         diagonal + (a[i - 1] == b[j - 1] ? 0 : 1)});
      diagonal = above;
    }
  }
  return row[b.size()];
}

}  // namespace

Config Config::from_args(int argc, const char* const* argv,
                         std::vector<std::string>* leftover) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    if (eq == std::string::npos || eq == 0) {
      if (leftover) leftover->push_back(arg);
      continue;
    }
    // GNU-style `--key=value` and plain `key=value` are equivalent.
    std::string key = arg.substr(0, eq);
    const auto first = key.find_first_not_of('-');
    if (first == std::string::npos) {
      if (leftover) leftover->push_back(arg);
      continue;
    }
    key.erase(0, first);
    cfg.set(key, arg.substr(eq + 1));
  }
  return cfg;
}

Config Config::from_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("Config: cannot open " + path);
  Config cfg;
  std::string line;
  while (std::getline(in, line)) {
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    line = trim(line);
    if (line.empty()) continue;
    const auto eq = line.find('=');
    if (eq == std::string::npos) continue;
    cfg.set(trim(line.substr(0, eq)), trim(line.substr(eq + 1)));
  }
  return cfg;
}

void Config::set(const std::string& key, std::string value) {
  values_[key] = std::move(value);
}

bool Config::has(const std::string& key) const {
  return values_.count(key) > 0;
}

std::optional<std::string> Config::get(const std::string& key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

std::string Config::get_string(const std::string& key,
                               const std::string& fallback) const {
  return get(key).value_or(fallback);
}

double Config::get_double(const std::string& key, double fallback) const {
  const auto v = get(key);
  if (!v) return fallback;
  return parse_whole(key, *v, "number",
                     [](const std::string& s, std::size_t* used) {
                       return std::stod(s, used);
                     });
}

std::int64_t Config::get_int(const std::string& key,
                             std::int64_t fallback) const {
  const auto v = get(key);
  if (!v) return fallback;
  return parse_whole(key, *v, "integer",
                     [](const std::string& s, std::size_t* used) {
                       return std::stoll(s, used);
                     });
}

bool Config::get_bool(const std::string& key, bool fallback) const {
  const auto v = get(key);
  if (!v) return fallback;
  std::string s = *v;
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) {
                   return static_cast<char>(std::tolower(c));
                 });
  if (s == "1" || s == "true" || s == "yes" || s == "on") return true;
  if (s == "0" || s == "false" || s == "no" || s == "off") return false;
  throw_unparsed(key, *v, "boolean");
}

void Config::reject_unknown_keys(const std::vector<std::string>& known) const {
  for (const auto& entry : values_) {
    const std::string& key = entry.first;
    if (std::find(known.begin(), known.end(), key) != known.end()) continue;
    std::string message = "Config: unknown key '" + key + "'";
    const auto nearest = std::min_element(
        known.begin(), known.end(),
        [&key](const std::string& a, const std::string& b) {
          return edit_distance(key, a) < edit_distance(key, b);
        });
    if (nearest != known.end()) {
      message += "; did you mean '" + *nearest + "'?";
    }
    throw std::invalid_argument(message);
  }
}

}  // namespace ff
