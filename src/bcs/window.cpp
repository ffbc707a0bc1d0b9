#include "bcs/window.hpp"

#include <string>

#include "sim/engine.hpp"

namespace bcs::core {

int WindowRegistry::registerWindow(std::uint64_t owner, void* base,
                                   std::size_t bytes) {
  if (base == nullptr || bytes == 0) {
    throw sim::SimError("WindowRegistry: empty region");
  }
  auto& regions = windows_[owner];
  regions.push_back(
      WindowRegion{static_cast<unsigned char*>(base), bytes});
  return static_cast<int>(regions.size()) - 1;
}

const WindowRegion& WindowRegistry::resolve(std::uint64_t owner, int window,
                                            std::size_t offset,
                                            std::size_t bytes) const {
  auto it = windows_.find(owner);
  if (it == windows_.end() || window < 0 ||
      window >= static_cast<int>(it->second.size())) {
    throw sim::SimError("WindowRegistry: unknown window " +
                        std::to_string(window));
  }
  const WindowRegion& region = it->second[static_cast<std::size_t>(window)];
  if (offset > region.bytes || bytes > region.bytes - offset) {
    throw sim::SimError("WindowRegistry: access [" + std::to_string(offset) +
                        ", " + std::to_string(offset + bytes) +
                        ") outside window of " +
                        std::to_string(region.bytes) + " bytes");
  }
  return region;
}

void WindowRegistry::dropOwner(std::uint64_t owner) { windows_.erase(owner); }

std::size_t WindowRegistry::totalWindows() const {
  std::size_t n = 0;
  for (const auto& [owner, regions] : windows_) n += regions.size();
  return n;
}

}  // namespace bcs::core
