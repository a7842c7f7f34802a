#include "store/replicated_store.h"

#include <algorithm>

#include "core/network_view.h"

namespace oscar {

ReplicatedStore::ReplicatedStore(uint32_t replicas)
    : replicas_(std::max(1u, replicas)) {}

std::vector<PeerId> ReplicatedStore::PlacementFor(const Network& net,
                                                  KeyId key) const {
  std::vector<PeerId> holders;
  const NetworkView view(net);
  const auto owner = view.OwnerOf(key);
  if (!owner.has_value()) return holders;
  PeerId current = *owner;
  holders.push_back(current);
  while (holders.size() < replicas_) {
    const auto next = view.SuccessorOf(current);
    if (!next.has_value() || *next == holders.front()) break;  // Wrapped.
    holders.push_back(*next);
    current = *next;
  }
  return holders;
}

Status ReplicatedStore::Put(const Network& net, KeyId key,
                            std::string value) {
  std::vector<PeerId> holders = PlacementFor(net, key);
  if (holders.empty()) {
    return Status::Error("replicated store: no alive owner for key");
  }
  items_.push_back(Item{key, std::move(value), std::move(holders)});
  return Status::Ok();
}

AvailabilityReport ReplicatedStore::CheckAvailability(
    const Network& net) const {
  AvailabilityReport report;
  report.total_items = items_.size();
  for (const Item& item : items_) {
    bool any_alive = false;
    for (PeerId holder : item.holders) {
      if (net.alive(holder)) {
        any_alive = true;
        break;
      }
    }
    if (!any_alive) continue;
    ++report.items_with_replica;
    const auto owner = net.OwnerOf(item.key);
    if (owner.has_value() &&
        std::find(item.holders.begin(), item.holders.end(), *owner) !=
            item.holders.end()) {
      ++report.items_at_owner;
    }
  }
  return report;
}

size_t ReplicatedStore::ReReplicate(const Network& net) {
  size_t lost = 0;
  for (Item& item : items_) {
    bool any_alive = false;
    for (PeerId holder : item.holders) {
      if (net.alive(holder)) {
        any_alive = true;
        break;
      }
    }
    if (!any_alive) {
      ++lost;
      continue;  // Unrecoverable; placement left as a tombstone.
    }
    item.holders = PlacementFor(net, item.key);
  }
  return lost;
}

}  // namespace oscar
