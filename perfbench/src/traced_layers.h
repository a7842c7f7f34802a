// Tracing decorators for the two strategy interfaces the library lets a
// caller inject: Overlay (handed to Simulation and, through a
// GrownTopology, to churn handlers and the Maintainer) and
// SegmentSampler (handed to OscarOverlay). Each forwards every call to
// the wrapped object unchanged and records a span around it, so a
// decorated run grows exactly the topology an undecorated one does.

#ifndef PERFBENCH_TRACED_LAYERS_H_
#define PERFBENCH_TRACED_LAYERS_H_

#include <string>

#include "overlay/overlay.h"
#include "sampling/segment_sampler.h"

namespace perfbench {

/// Records "sampling.csr" when the view reads a frozen snapshot and
/// "sampling.live" when it reads the mutable Network, with the walk
/// steps the sample cost as the span's work.
class TracedSampler : public oscar::SegmentSampler {
 public:
  explicit TracedSampler(oscar::SegmentSamplerPtr inner)
      : inner_(std::move(inner)) {}

  oscar::Result<oscar::SegmentSample> SampleInSegment(
      oscar::NetworkView net, oscar::PeerId origin, oscar::KeyId from,
      oscar::KeyId to, oscar::Rng* rng) const override;
  std::string name() const override { return inner_->name(); }

 private:
  oscar::SegmentSamplerPtr inner_;
};

/// Records "overlay.build_links", "overlay.plan_links" and
/// "overlay.plan_join_links" spans; everything else is forwarded.
class TracedOverlay : public oscar::Overlay {
 public:
  explicit TracedOverlay(oscar::OverlayPtr inner) : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }
  oscar::Status BuildLinks(oscar::Network* net, oscar::PeerId id,
                           oscar::Rng* rng) override;
  bool SupportsPlanning() const override { return inner_->SupportsPlanning(); }
  oscar::PeerLinkPlan PlanLinks(oscar::NetworkView net, oscar::PeerId id,
                                oscar::Rng* rng) const override;
  bool SupportsJoinPlanning() const override {
    return inner_->SupportsJoinPlanning();
  }
  oscar::PeerLinkPlan PlanJoinLinks(oscar::NetworkView net, oscar::KeyId key,
                                    oscar::DegreeCaps caps,
                                    oscar::Rng* rng) const override;
  void AddSamplingSteps(uint64_t steps) override {
    inner_->AddSamplingSteps(steps);
  }
  uint64_t sampling_steps() const override { return inner_->sampling_steps(); }

 private:
  oscar::OverlayPtr inner_;
};

/// The library's default Oscar overlay (what MakeNamedOverlay("oscar")
/// builds), with both the overlay and its random-walk sampler wrapped.
oscar::OverlayPtr MakeTracedOscar();

}  // namespace perfbench

#endif  // PERFBENCH_TRACED_LAYERS_H_
