// Command-line helpers shared by the tools and the bench binaries: flag
// values, strict numbers and the device-shape overrides. A bad value
// throws std::invalid_argument naming the flag; each binary prints the
// message and exits 2. The observer flags parse through
// ObserveSpec::parse_flag (core/experiment.h), which builds on these.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>

#include "nand/geometry.h"

namespace esp::core {

/// The value of the flag at argv[i]; advances `i` past it. Throws
/// std::invalid_argument when the flag is the last argument.
const char* flag_value(int argc, char** argv, int& i);

/// `token`, the value of `flag`, as a T. The whole token must be a number
/// of T's type: digits only for an unsigned T (no sign, no trailing text,
/// in range), a finite decimal for a floating-point T.
template <class T>
T parse_number(std::string_view flag, std::string_view token) {
  static_assert(std::is_unsigned_v<T> || std::is_floating_point_v<T>);
  T value{};
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  bool ok = ec == std::errc{} && ptr == end;
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(value);
  if (!ok)
    throw std::invalid_argument(
        std::string(flag) + ": '" + std::string(token) + "' is not " +
        (std::is_unsigned_v<T> ? "an unsigned integer" : "a finite number"));
  return value;
}

/// The value of the flag at argv[i] as a T (flag_value + parse_number).
template <class T>
T number_flag(int argc, char** argv, int& i) {
  const std::string_view flag = argv[i];
  return parse_number<T>(flag, flag_value(argc, argv, i));
}

/// Optional device-shape overrides shared by the bench binaries and espsim:
/// a named profile (--geometry paper|prod, see nand::geometry_profile) plus
/// explicit per-dimension flags that win over whatever the profile or the
/// binary's default set. Zero / empty = "leave alone".
struct GeometryOverrides {
  std::string profile;  // "", "paper" or "prod"
  std::uint32_t channels = 0;
  std::uint32_t chips_per_channel = 0;
  std::uint32_t blocks_per_chip = 0;
  std::uint32_t pages_per_block = 0;

  static constexpr const char* kUsage =
      "[--geometry paper|prod] [--channels N] [--chips-per-channel N] "
      "[--blocks-per-chip N] [--pages-per-block N]";

  bool any() const {
    return !profile.empty() || channels || chips_per_channel ||
           blocks_per_chip || pages_per_block;
  }

  /// Profile (when named) replaces `base` wholesale, then explicit
  /// dimensions are applied on top. Throws std::invalid_argument on an
  /// unknown profile or an inconsistent result.
  nand::Geometry apply(const nand::Geometry& base) const;

  /// Consumes the geometry flag at argv[i] and its value, advancing `i`.
  /// Returns false, `i` unchanged, when argv[i] is no geometry flag.
  /// Throws std::invalid_argument naming the flag on a missing or
  /// malformed value.
  bool parse_flag(int argc, char** argv, int& i);
};

}  // namespace esp::core
