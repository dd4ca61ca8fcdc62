#include "core/cli.h"

namespace esp::core {

const char* flag_value(int argc, char** argv, int& i) {
  if (i + 1 >= argc)
    throw std::invalid_argument(std::string(argv[i]) + " needs a value");
  return argv[++i];
}

nand::Geometry GeometryOverrides::apply(const nand::Geometry& base) const {
  nand::Geometry g = profile.empty() ? base : nand::geometry_profile(profile);
  if (channels) g.channels = channels;
  if (chips_per_channel) g.chips_per_channel = chips_per_channel;
  if (blocks_per_chip) g.blocks_per_chip = blocks_per_chip;
  if (pages_per_block) g.pages_per_block = pages_per_block;
  g.validate();
  return g;
}

bool GeometryOverrides::parse_flag(int argc, char** argv, int& i) {
  const std::string_view arg = argv[i];
  if (arg == "--geometry") {
    profile = flag_value(argc, argv, i);
    if (profile != "paper" && profile != "prod")
      throw std::invalid_argument("--geometry must be paper|prod");
  } else if (arg == "--channels") {
    channels = number_flag<std::uint32_t>(argc, argv, i);
  } else if (arg == "--chips-per-channel") {
    chips_per_channel = number_flag<std::uint32_t>(argc, argv, i);
  } else if (arg == "--blocks-per-chip") {
    blocks_per_chip = number_flag<std::uint32_t>(argc, argv, i);
  } else if (arg == "--pages-per-block") {
    pages_per_block = number_flag<std::uint32_t>(argc, argv, i);
  } else {
    return false;
  }
  return true;
}

}  // namespace esp::core
