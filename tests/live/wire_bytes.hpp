#pragma once

// Byte builders for tests, over the one wire codec path: a message's
// payload through its encodeXInto, a whole frame through a FrameArena.

#include <cstdint>
#include <span>
#include <vector>

#include "live/wire.hpp"
#include "report/codec.hpp"

namespace mci::live::wire::wiretest {

/// The payload bytes `encodeInto(m, w)` writes, e.g.
/// encoded(encodeHelloInto, hello).
template <class Msg, class Encode>
std::vector<std::uint8_t> encoded(Encode encodeInto, const Msg& m) {
  report::BitWriter w;
  encodeInto(m, w);
  return w.finish();
}

/// A whole frame around arbitrary payload bytes (corrupt or foreign
/// payloads included), built by FrameArena like every real frame.
inline std::vector<std::uint8_t> framed(
    FrameType type, std::uint8_t scheme, net::TrafficClass trafficClass,
    std::span<const std::uint8_t> payload) {
  FrameArena arena;
  report::BitWriter w = arena.begin(type, scheme, trafficClass);
  for (const std::uint8_t b : payload) w.write(b, 8);
  arena.finish(w);
  return {arena.frame().begin(), arena.frame().end()};
}

}  // namespace mci::live::wire::wiretest
