#pragma once

// Shared argument handling for the deproto CLIs: one flag table per tool
// with strict typed setters (a malformed or out-of-range value is an
// error naming the flag), a per-mode composition check, and whole-file
// read/write helpers.

#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace deproto::cli {

/// A flag error found after parsing (a bad combination of values); the
/// tool reports it with its usage line and exits 2, like a parse error.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// One row of a flag table. `modes` is a bit set of the tool's modes that
/// read the flag; the row named "<...>" takes the bare (positional)
/// arguments. A switch's setter ignores its argument; a valued flag's
/// setter returns false for a malformed or out-of-range value.
struct Flag {
  std::string name;
  unsigned modes;
  bool takes_value;
  std::function<bool(const std::string&)> set;
};

inline constexpr unsigned kAnyMode = ~0u;

inline Flag switch_flag(std::string name, unsigned modes, bool* out) {
  return {std::move(name), modes, false,
          [out](const std::string&) { return *out = true; }};
}

inline Flag text_flag(std::string name, unsigned modes, std::string* out) {
  auto set = [out](const std::string& value) {
    *out = value;
    return true;
  };
  return {std::move(name), modes, true, std::move(set)};
}

/// A repeatable flag (or the positional row): every value is appended.
inline Flag list_flag(std::string name, unsigned modes,
                      std::vector<std::string>* out) {
  auto set = [out](const std::string& value) {
    out->push_back(value);
    return true;
  };
  return {std::move(name), modes, true, std::move(set)};
}

/// A numeric flag whose value must be a whole-string T in [lo, hi]:
/// from_chars takes no space, '+', hex, or '-' for unsigned T, and flags
/// overflow; "inf" and "nan" are rejected too. `Out` is T or optional<T>.
template <class T, class Out>
Flag number_flag(std::string name, unsigned modes, Out* out,
                 T lo = std::numeric_limits<T>::lowest(),
                 T hi = std::numeric_limits<T>::max()) {
  auto set = [=](const std::string& text) {
    T v{};
    const char* end = text.data() + text.size();
    const auto [stop, ec] = std::from_chars(text.data(), end, v);
    if (ec != std::errc() || stop != end || v < lo || v > hi) return false;
    if constexpr (std::is_floating_point_v<T>) {
      if (!std::isfinite(v)) return false;
    }
    *out = v;
    return true;
  };
  return {std::move(name), modes, true, std::move(set)};
}

class FlagTable {
 public:
  explicit FlagTable(std::vector<Flag> flags) : flags_(std::move(flags)) {}

  /// Run every argument through its row's setter. Reports the first
  /// unknown flag, missing value or bad value on stderr and returns false.
  bool parse(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const bool positional = arg.empty() || arg[0] != '-';
      const Flag* flag = nullptr;
      for (const Flag& row : flags_) {
        if (positional ? row.name[0] == '<' : row.name == arg) flag = &row;
      }
      if (flag == nullptr) {
        std::fprintf(stderr, "error: unknown %s: %s\n",
                     positional ? "argument" : "flag", arg.c_str());
        return false;
      }
      std::string value = arg;
      if (flag->takes_value && !positional) {
        if (i + 1 >= argc) {
          std::fprintf(stderr, "error: missing value for %s\n", arg.c_str());
          return false;
        }
        value = argv[++i];
      }
      if (!flag->set(value)) {
        std::fprintf(stderr, "error: invalid value for %s: '%s'\n",
                     flag->name.c_str(), value.c_str());
        return false;
      }
      given_.push_back(flag);
    }
    return true;
  }

  /// The composition check: reject every given flag whose row does not
  /// list any of the bits of `mode` (the flag would be silently ignored).
  bool check_mode(unsigned mode, const char* mode_name) const {
    for (const Flag* flag : given_) {
      if ((flag->modes & mode) == 0) {
        std::fprintf(stderr, "error: %s is not accepted in %s mode\n",
                     flag->name.c_str(), mode_name);
        return false;
      }
    }
    return true;
  }

 private:
  std::vector<Flag> flags_;
  std::vector<const Flag*> given_;
};

/// Whether any argument asks for the usage line: `--help` or `-h`.
inline bool wants_help(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") return true;
  }
  return false;
}

/// The whole of `path` ("-" = stdin). Throws std::runtime_error when it
/// cannot be read.
inline std::string read_file(const std::string& path) {
  if (path == "-") {
    return {std::istreambuf_iterator<char>(std::cin), {}};
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  return {std::istreambuf_iterator<char>(in), {}};
}

/// Write `content` plus a newline to `path`. The stream is closed before
/// it is checked, so a failing final flush (a full disk) is reported too.
inline bool write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  out << content << '\n';
  out.close();
  if (!out) std::fprintf(stderr, "error: writing %s failed\n", path.c_str());
  return static_cast<bool>(out);
}

}  // namespace deproto::cli
