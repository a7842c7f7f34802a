// NetworkView: one read interface over the two topology backends — a
// live, mutable Network and a frozen TopologySnapshot. It is a cheap
// value type (two pointers) constructed implicitly from either backend,
// so every read-side consumer (routers, steppers, samplers, size
// estimators, structural metrics) is written once and runs unchanged
// against a growing network or a shared snapshot.
//
// Both backends store keys, caps and liveness as flat PeerId-indexed
// arrays of the same types, so hot loops fetch the base pointers once
// (keys_data/caps_data/alive_data) and index them without any further
// dispatch. The only reads that genuinely differ are a peer's ring
// position (a precomputed table on a snapshot, one Ring::IndexOf on a
// live network) and its link spans; RingPos and Row resolve those once
// per call, and everything else — ring neighbors, neighbor order — is
// composed here from them, so the two backends cannot drift apart.
//
// A view does not own its backend: it is valid only while the Network
// or TopologySnapshot it was built from is alive, and reads through a
// view of a Network observe mutations immediately (exactly like the
// const Network& parameters it replaces).

#ifndef OSCAR_CORE_NETWORK_VIEW_H_
#define OSCAR_CORE_NETWORK_VIEW_H_

#include <optional>
#include <vector>

#include "core/key_id.h"
#include "core/network.h"
#include "core/ring.h"
#include "core/topology_snapshot.h"

namespace oscar {

/// The neighborhood of one peer, resolved once: its ring successor and
/// predecessor plus its two link spans. ForEach visits the routing
/// neighbors — successor, predecessor when distinct, then long
/// out-links in stored order (possibly dead) — and ForEachWalk appends
/// the in-links, the undirected gossip neighborhood random walks use
/// (walking only out-links concentrates the stationary distribution on
/// already-popular peers). Routers are order-sensitive, so this order
/// is part of the contract. The spans are valid while the backend is
/// unmodified.
struct NeighborRow {
  PeerId succ = 0;
  PeerId pred = 0;
  uint32_t ring_neighbors = 0;  // 0 (off ring / lone peer), 1 or 2.
  PeerSpan out;
  PeerSpan in;

  template <typename Fn>
  void ForEach(Fn&& fn) const {
    if (ring_neighbors > 0) fn(succ);
    if (ring_neighbors > 1) fn(pred);
    for (PeerId target : out) fn(target);
  }
  template <typename Fn>
  void ForEachWalk(Fn&& fn) const {
    ForEach(fn);
    for (PeerId source : in) fn(source);
  }
};

class NetworkView {
 public:
  /// RingPos of a peer with no ring neighbors.
  static constexpr uint32_t kNotOnRing = TopologySnapshot::kNotOnRing;

  // Implicit by design: every `const Network&` read signature upgraded
  // to NetworkView keeps its call sites source-compatible.
  NetworkView(const Network& net) : net_(&net) {}           // NOLINT
  NetworkView(const TopologySnapshot& snap) : snap_(&snap) {}  // NOLINT

  /// The frozen backend, or nullptr when this view reads a live
  /// Network. No read path branches on it; it lets an observer label
  /// which backend a call ran against.
  const TopologySnapshot* snapshot() const { return snap_; }

  size_t size() const { return net_ ? net_->size() : snap_->size(); }
  size_t alive_count() const { return ring().size(); }
  const Ring& ring() const { return net_ ? net_->ring() : snap_->ring(); }

  /// PeerId-indexed attribute arrays: fetch once, index in the loop.
  const KeyId* keys_data() const {
    return net_ ? net_->keys_data() : snap_->keys_data();
  }
  const DegreeCaps* caps_data() const {
    return net_ ? net_->caps_data() : snap_->caps_data();
  }
  const uint8_t* alive_data() const {
    return net_ ? net_->alive_data() : snap_->alive_data();
  }

  KeyId key(PeerId id) const { return keys_data()[id]; }
  bool alive(PeerId id) const { return alive_data()[id] != 0; }
  DegreeCaps caps(PeerId id) const { return caps_data()[id]; }

  /// Long out-links of `id` in stored order (may dangle to dead peers).
  PeerSpan OutLinks(PeerId id) const {
    return net_ ? net_->OutLinks(id) : snap_->OutLinks(id);
  }
  /// Alive peers holding a long link to `id`.
  PeerSpan InLinks(PeerId id) const {
    return net_ ? net_->InLinks(id) : snap_->InLinks(id);
  }

  /// Position of `id` in ring order, or kNotOnRing when `id` is dead or
  /// the ring holds fewer than 2 peers (a lone peer has no neighbors).
  uint32_t RingPos(PeerId id) const {
    if (snap_ != nullptr) {
      return snap_->ring().size() < 2 ? kNotOnRing : snap_->ring_pos(id);
    }
    const Ring& ring = net_->ring();
    if (!net_->alive(id) || ring.size() < 2) return kNotOnRing;
    const auto index = ring.IndexOf(net_->key(id), id);
    return index.has_value() ? static_cast<uint32_t>(*index) : kNotOnRing;
  }

  /// The neighborhood of `id` (see NeighborRow), resolved with one
  /// RingPos.
  NeighborRow Row(PeerId id) const {
    NeighborRow row;
    const uint32_t pos = RingPos(id);
    if (pos != kNotOnRing) {
      const Ring& r = ring();
      row.succ = RingNeighborAt(r, pos, /*clockwise=*/true);
      row.pred = RingNeighborAt(r, pos, /*clockwise=*/false);
      row.ring_neighbors = row.pred != row.succ ? 2 : 1;
    }
    row.out = OutLinks(id);
    row.in = InLinks(id);
    return row;
  }

  std::optional<PeerId> OwnerOf(KeyId target) const {
    return ring().OwnerOf(target);
  }
  /// Next/previous alive peer on the ring; nullopt when `id` is dead or
  /// the only alive peer.
  std::optional<PeerId> SuccessorOf(PeerId id) const {
    const uint32_t pos = RingPos(id);
    if (pos == kNotOnRing) return std::nullopt;
    return RingNeighborAt(ring(), pos, /*clockwise=*/true);
  }
  std::optional<PeerId> PredecessorOf(PeerId id) const {
    const uint32_t pos = RingPos(id);
    if (pos == kNotOnRing) return std::nullopt;
    return RingNeighborAt(ring(), pos, /*clockwise=*/false);
  }

  /// Alive peers in ring (clockwise key) order — composed from the
  /// shared ring index rather than dispatched per backend.
  std::vector<PeerId> AlivePeers() const {
    std::vector<PeerId> out;
    out.reserve(ring().size());
    for (const Ring::Entry& entry : ring().entries()) out.push_back(entry.id);
    return out;
  }

 private:
  /// The peer one step clockwise (or counter-clockwise) of ring
  /// position `pos`; `pos` must be a RingPos other than kNotOnRing.
  static PeerId RingNeighborAt(const Ring& r, uint32_t pos, bool clockwise) {
    const size_t n = r.size();
    return r.at(clockwise ? (pos + 1) % n : (pos + n - 1) % n).id;
  }

  const Network* net_ = nullptr;
  const TopologySnapshot* snap_ = nullptr;
};

}  // namespace oscar

#endif  // OSCAR_CORE_NETWORK_VIEW_H_
