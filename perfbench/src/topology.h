// Topology helpers shared by the workloads and their tests: growing a
// scenario topology with a caller-chosen overlay, structural equality
// of two snapshots, and a brute-force ring owner oracle.

#ifndef PERFBENCH_TOPOLOGY_H_
#define PERFBENCH_TOPOLOGY_H_

#include <cstdint>

#include "common/status.h"
#include "core/ring.h"
#include "core/simulation.h"
#include "core/topology_snapshot.h"
#include "sim/scenario.h"

namespace perfbench {

/// The growth oscar::GrowScenarioTopology runs (one checkpoint at
/// base.network_size, no queries), but through Simulation with
/// `overlay` in place of MakeNamedOverlay(base.overlay) and `threads`
/// rewiring workers. With a decorated overlay this lets churn handlers
/// and the Maintainer call through the decorator later. `growth`, when
/// non-null, receives Simulation::Run's result.
oscar::Result<oscar::GrownTopology> GrowTopologyWith(
    const oscar::ScenarioOptions& base, oscar::OverlayPtr overlay,
    uint32_t threads, oscar::GrowthResult* growth = nullptr);

/// OK when `a` and `b` hold the same peers, caps, liveness, link rows
/// (in order) and ring.
oscar::Status SameTopology(const oscar::TopologySnapshot& a,
                           const oscar::TopologySnapshot& b);

/// The owner of `key` found by scanning every ring entry: the closest
/// peer by ring distance, the clockwise successor winning ties (the
/// contract Ring::OwnerOf implements with a binary search).
oscar::PeerId OracleOwner(const oscar::Ring& ring, oscar::KeyId key);

}  // namespace perfbench

#endif  // PERFBENCH_TOPOLOGY_H_
