#pragma once
// Tiny --key=value command-line parser shared by examples and benches.

#include <cstdio>
#include <cstdlib>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace mlmd {

/// Parses `--key=value` and bare `--flag` arguments; non-option arguments
/// (subcommand names) are ignored. Typed getters fall back to a default
/// when the key is absent. Front-ends call check_known() after parsing so
/// a typo (--step= for --steps=) fails loudly instead of silently running
/// with defaults.
class Cli {
public:
  Cli(int argc, const char* const* argv) {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) continue;
      const std::string body = arg.substr(2);
      const auto eq = body.find('=');
      // insert_or_assign with named temporaries sidesteps GCC 12's
      // -Wrestrict false positive on map[string] = substr(...) (PR105651).
      if (eq == std::string::npos) {
        kv_.insert_or_assign(body, std::string("1"));
      } else {
        std::string key = body.substr(0, eq);
        std::string value = body.substr(eq + 1);
        kv_.insert_or_assign(std::move(key), std::move(value));
      }
    }
  }

  bool has(const std::string& key) const { return kv_.count(key) != 0; }
  std::string str(const std::string& key, const std::string& dflt = "") const {
    auto it = kv_.find(key);
    return it == kv_.end() ? dflt : it->second;
  }
  /// Strict numeric getters: the whole value must parse, so --threads=8x
  /// or --checkpoint-every=1e3garbage fails loudly (std::invalid_argument
  /// with a usage hint) instead of silently truncating to a valid-looking
  /// number — the numeric counterpart of check_known's typo rejection.
  long integer(const std::string& key, long dflt) const {
    auto it = kv_.find(key);
    if (it == kv_.end()) return dflt;
    char* end = nullptr;
    const long v = std::strtol(it->second.c_str(), &end, 10);
    if (end == it->second.c_str() || *end != '\0')
      throw std::invalid_argument("invalid integer for --" + key + "=" +
                                  it->second +
                                  " (usage: --" + key + "=<integer>)");
    return v;
  }
  double real(const std::string& key, double dflt) const {
    auto it = kv_.find(key);
    if (it == kv_.end()) return dflt;
    char* end = nullptr;
    const double v = std::strtod(it->second.c_str(), &end);
    if (end == it->second.c_str() || *end != '\0')
      throw std::invalid_argument("invalid number for --" + key + "=" +
                                  it->second +
                                  " (usage: --" + key + "=<number>)");
    return v;
  }
  bool flag(const std::string& key, bool dflt = false) const {
    auto it = kv_.find(key);
    if (it == kv_.end()) return dflt;
    return it->second != "0" && it->second != "false";
  }

  /// Enum-valued option against a (name, value) table — the one shared
  /// implementation of `--simd=`-style choices (each app
  /// used to hand-roll its own). An unknown value throws
  /// std::invalid_argument listing every accepted spelling, so the error
  /// is exhaustive no matter which front-end surfaces it. Aliases are
  /// extra table rows mapping to the same value.
  template <class E, std::size_t N>
  E choice(const std::string& key, const std::pair<const char*, E> (&valid)[N],
           E dflt) const {
    auto it = kv_.find(key);
    if (it == kv_.end()) return dflt;
    for (const auto& [name, value] : valid)
      if (it->second == name) return value;
    std::string expected;
    for (std::size_t i = 0; i < N; ++i) {
      if (i) expected += "|";
      expected += valid[i].first;
    }
    throw std::invalid_argument("invalid value for --" + key + "=" +
                                it->second + " (usage: --" + key + "=" +
                                expected + ")");
  }

  /// Keys given on the command line that are not in `known` (sorted,
  /// since the backing store is an ordered map).
  std::vector<std::string> unknown_keys(
      const std::vector<std::string>& known) const {
    std::vector<std::string> bad;
    for (const auto& [key, value] : kv_) {
      bool ok = false;
      for (const auto& k : known)
        if (key == k) {
          ok = true;
          break;
        }
      if (!ok) bad.push_back(key);
    }
    return bad;
  }

  /// Returns false (and reports each offender on stderr with a usage
  /// hint) when any command-line key is not in `known`. Callers exit
  /// non-zero on false.
  bool check_known(const std::vector<std::string>& known,
                   const std::string& usage_hint) const {
    const auto bad = unknown_keys(known);
    for (const auto& key : bad)
      std::fprintf(stderr, "error: unknown option --%s\n", key.c_str());
    if (!bad.empty() && !usage_hint.empty())
      std::fprintf(stderr, "%s\n", usage_hint.c_str());
    return bad.empty();
  }

private:
  std::map<std::string, std::string> kv_;
};

} // namespace mlmd
