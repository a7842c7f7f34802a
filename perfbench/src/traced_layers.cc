#include "traced_layers.h"

#include <memory>

#include "overlay/oscar/oscar_overlay.h"
#include "sampling/random_walk_sampler.h"
#include "span_trace.h"

namespace perfbench {

oscar::Result<oscar::SegmentSample> TracedSampler::SampleInSegment(
    oscar::NetworkView net, oscar::PeerId origin, oscar::KeyId from,
    oscar::KeyId to, oscar::Rng* rng) const {
  ScopedSpan span(net.snapshot() != nullptr ? "sampling.csr"
                                            : "sampling.live");
  auto sample = inner_->SampleInSegment(net, origin, from, to, rng);
  if (sample.ok()) {
    span.set_work(sample.value().steps);
  } else {
    span.set_failed();
  }
  return sample;
}

oscar::Status TracedOverlay::BuildLinks(oscar::Network* net, oscar::PeerId id,
                                        oscar::Rng* rng) {
  ScopedSpan span("overlay.build_links");
  oscar::Status status = inner_->BuildLinks(net, id, rng);
  if (!status.ok()) span.set_failed();
  return status;
}

oscar::PeerLinkPlan TracedOverlay::PlanLinks(oscar::NetworkView net,
                                             oscar::PeerId id,
                                             oscar::Rng* rng) const {
  ScopedSpan span("overlay.plan_links");
  oscar::PeerLinkPlan plan = inner_->PlanLinks(net, id, rng);
  span.set_work(plan.sampling_steps);
  return plan;
}

oscar::PeerLinkPlan TracedOverlay::PlanJoinLinks(oscar::NetworkView net,
                                                 oscar::KeyId key,
                                                 oscar::DegreeCaps caps,
                                                 oscar::Rng* rng) const {
  ScopedSpan span("overlay.plan_join_links");
  oscar::PeerLinkPlan plan = inner_->PlanJoinLinks(net, key, caps, rng);
  span.set_work(plan.sampling_steps);
  return plan;
}

oscar::OverlayPtr MakeTracedOscar() {
  oscar::OscarOptions options;
  options.sampler = std::make_shared<TracedSampler>(
      std::make_shared<oscar::RandomWalkSegmentSampler>());
  return std::make_shared<TracedOverlay>(
      std::make_shared<oscar::OscarOverlay>(std::move(options)));
}

}  // namespace perfbench
