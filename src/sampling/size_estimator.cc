#include "sampling/size_estimator.h"

#include <algorithm>

#include "common/string_util.h"

namespace oscar {

double OracleSizeEstimator::Estimate(NetworkView net, PeerId origin,
                                     Rng* rng) const {
  (void)origin;
  (void)rng;
  return std::max<double>(1.0, static_cast<double>(net.alive_count()));
}

double GapSizeEstimator::Estimate(NetworkView net, PeerId origin,
                                  Rng* rng) const {
  (void)rng;
  const size_t alive = net.alive_count();
  if (alive < 2) return 1.0;
  const uint32_t window =
      static_cast<uint32_t>(std::min<size_t>(window_, alive - 1));
  // Sum the `window` successor gaps clockwise from the origin; a dead
  // origin contributes no span and falls back to the ring size below.
  uint64_t span = 0;
  const uint32_t origin_pos = net.RingPos(origin);
  if (origin_pos != NetworkView::kNotOnRing) {
    const Ring& ring = net.ring();
    size_t pos = origin_pos;
    for (uint32_t i = 0; i < window; ++i) {
      const size_t next = (pos + 1) % alive;
      span += ClockwiseDistance(KeyId::FromRaw(ring.at(pos).key_raw),
                                KeyId::FromRaw(ring.at(next).key_raw));
      pos = next;
    }
  }
  if (span == 0) return static_cast<double>(alive);
  const double span_fraction =
      static_cast<double>(span) / 18446744073709551616.0;
  return std::max(1.0, static_cast<double>(window) / span_fraction);
}

std::string GapSizeEstimator::name() const {
  return StrCat("gap(w=", window_, ")");
}

}  // namespace oscar
