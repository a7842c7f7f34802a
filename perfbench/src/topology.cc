#include "topology.h"

#include <utility>

#include "span_trace.h"

namespace perfbench {

oscar::Result<oscar::GrownTopology> GrowTopologyWith(
    const oscar::ScenarioOptions& base, oscar::OverlayPtr overlay,
    uint32_t threads, oscar::GrowthResult* growth) {
  auto keys = oscar::MakeKeyDistribution(base.keys);
  if (!keys.ok()) return keys.status();
  auto degrees = oscar::MakePaperDegreeDistribution(base.degrees);
  if (!degrees.ok()) return degrees.status();

  oscar::GrowthConfig config;
  config.target_size = base.network_size;
  config.queries_per_checkpoint = 0;
  config.seed = base.seed;
  config.checkpoints = {base.network_size};
  config.key_distribution = keys.value();
  config.degree_distribution = degrees.value();
  config.overlay = std::move(overlay);
  config.rewire_threads = threads;
  oscar::Simulation simulation(std::move(config));
  oscar::Result<oscar::GrowthResult> grown = [&] {
    ScopedSpan span("growth.run", /*anchor=*/true);
    return simulation.Run();
  }();
  if (!grown.ok()) return grown.status();
  if (growth != nullptr) *growth = grown.value();

  oscar::GrownTopology topology;
  {
    ScopedSpan span("snapshot.freeze", /*anchor=*/true);
    topology.snapshot = oscar::TopologySnapshot(simulation.network());
  }
  topology.overlay = simulation.config().overlay;
  topology.keys = simulation.config().key_distribution;
  topology.degrees = simulation.config().degree_distribution;
  return topology;
}

oscar::Status SameTopology(const oscar::TopologySnapshot& a,
                           const oscar::TopologySnapshot& b) {
  return a.CheckRestoreIdentity(b.Restore());
}

oscar::PeerId OracleOwner(const oscar::Ring& ring, oscar::KeyId key) {
  // Clockwise candidate: least clockwise distance from the key, first
  // in ring order on ties. Counter-clockwise candidate: least distance
  // back to the key, last in ring order on ties.
  const auto& entries = ring.entries();
  size_t cw = 0;
  size_t ccw = 0;
  for (size_t i = 1; i < entries.size(); ++i) {
    const oscar::KeyId at = oscar::KeyId::FromRaw(entries[i].key_raw);
    const oscar::KeyId best_cw = oscar::KeyId::FromRaw(entries[cw].key_raw);
    const oscar::KeyId best_ccw = oscar::KeyId::FromRaw(entries[ccw].key_raw);
    if (oscar::ClockwiseDistance(key, at) <
        oscar::ClockwiseDistance(key, best_cw)) {
      cw = i;
    }
    if (oscar::ClockwiseDistance(at, key) <=
        oscar::ClockwiseDistance(best_ccw, key)) {
      ccw = i;
    }
  }
  const oscar::KeyId cw_key = oscar::KeyId::FromRaw(entries[cw].key_raw);
  const oscar::KeyId ccw_key = oscar::KeyId::FromRaw(entries[ccw].key_raw);
  return oscar::RingDistance(key, cw_key) <= oscar::RingDistance(key, ccw_key)
             ? entries[cw].id
             : entries[ccw].id;
}

}  // namespace perfbench
