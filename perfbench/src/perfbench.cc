// The repository benchmark: runs one named workload against the public
// oscar_core API at a given seed and prints its metrics as one JSON
// line (see perfbench/README.md for the catalog).
//
//   perfbench --workload serve|churn_repair --seed N --seconds S
//             --trace 0|1 [--spans-out FILE]
//
// --trace 0 prints the end-to-end metrics; --trace 1 prints the
// per-layer metrics of a separate traced pass. Every run checks the
// program's outputs; a failed check makes the run exit 1.

#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "core/experiments.h"
#include "core/simulation.h"
#include "core/topology_snapshot.h"
#include "routing/greedy_router.h"
#include "serve/load_generator.h"
#include "sim/scenario.h"
#include "span_trace.h"
#include "topology.h"
#include "traced_layers.h"

#ifndef OSCAR_SANITIZE_FLAVOR
#define OSCAR_SANITIZE_FLAVOR "unknown"
#endif
#ifndef OSCAR_BUILD_TYPE
#define OSCAR_BUILD_TYPE "unknown"
#endif
#ifndef OSCAR_COMPILER_ID
#define OSCAR_COMPILER_ID "unknown"
#endif

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

// ---- Workload constants ------------------------------------------------
// N = 3000 is the scale of oscar_serve and the growth probe; at 1000
// peers one churn_repair scenario takes a few seconds. Two workers: on
// the 4-core host the record in README.md was taken on, other tenants
// keep the load near 1, and 2 workers spread several times less than 4.

constexpr size_t kServePeers = 3000;
constexpr uint32_t kServeWorkers = 2;

constexpr size_t kChurnPeers = 1000;
constexpr size_t kChurnLookups = 50000;
constexpr uint32_t kChurnWorkers = 1;
constexpr const char* kChurnScenario = "rolling-churn";

// Every serving pass (LoadGenerator::Run) routes this many lookups,
// about half a second on 2 workers. The host's speed drifts by 10-20%
// within a run, so serve times many short passes spread over the whole
// run rather than a few long ones.
constexpr size_t kServeLookups = 100000;
constexpr size_t kLadderLookups = 50000;
constexpr double kCapacityP99LimitMs = 200.0;
// sim_p50_ms / sim_p99_ms come from this ladder rate: at 4000/s some
// seeds' N = 3000 topologies sit within a few percent of capacity, where
// queueing makes the tail swing by 10x from seed to seed.
constexpr double kLatencyCellRate = 2000.0;
constexpr size_t kOracleLookups = 2000;
constexpr size_t kSimProbeLookups = 10000;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

// ---- Operation ledger --------------------------------------------------

/// Counts the benchmark's operations (library calls that return a
/// Status, and output checks) and the ones that failed.
class Ledger {
 public:
  bool Check(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      std::cerr << "perfbench: FAILED: " << what << "\n";
    }
    return ok;
  }
  bool Check(const oscar::Status& status, const std::string& what) {
    return Check(status.ok(),
                 status.ok() ? what : what + ": " + status.message());
  }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// Deterministic outputs of one pass: every sim metric and per-layer
/// count. Two passes at one seed must produce equal maps.
using SimValues = std::map<std::string, double>;

void CheckSameSim(const SimValues& want, const SimValues& got,
                  const std::string& what, Ledger* ledger) {
  for (const auto& [name, value] : want) {
    const auto it = got.find(name);
    ledger->Check(it != got.end() && it->second == value,
                  what + ": " + name + " differs");
  }
  ledger->Check(want.size() == got.size(), what + ": metric sets differ");
}

// ---- Serving pass, capacity ladder and route oracle --------------------

oscar::ServeOptions ServeOpts(size_t lookups, uint64_t seed,
                              uint32_t workers) {
  oscar::ServeOptions options;
  options.lookups = lookups;
  options.seed = seed;
  options.threads = workers;
  return options;
}

struct ServePass {
  double run_s = 0.0;  // Wall of LoadGenerator::Run.
  oscar::ServeReport report;
};

ServePass RunServe(const oscar::TopologySnapshot& snapshot,
                   oscar::ServeOptions options, Ledger* ledger) {
  ServePass pass;
  oscar::LoadGenerator generator(snapshot, std::move(options));
  const Clock::time_point start = Clock::now();
  oscar::Result<oscar::ServeReport> report = [&] {
    ScopedSpan span("serve.run", /*anchor=*/true);
    return generator.Run();
  }();
  pass.run_s = SecondsSince(start);
  if (!ledger->Check(report.status(), "LoadGenerator::Run")) return pass;
  pass.report = std::move(report).value();
  for (const oscar::ServeCellReport& cell : pass.report.cells) {
    ledger->Check(cell.submitted == cell.admitted + cell.dropped &&
                      cell.admitted == cell.completed + cell.shed,
                  "serve cell accounting (" + cell.policy + ")");
  }
  return pass;
}

struct Ladder {
  double capacity_per_s = 0.0;
  oscar::LatencyReport latency;  // At kLatencyCellRate.
};

/// The `none` policy over a fixed ladder of offered rates: 2% steps
/// from 1000/s to 12000/s, plus kLatencyCellRate. Capacity is the
/// highest rate at which virtual p99 stays under kCapacityP99LimitMs
/// with no growing backlog. Over the ladder's horizon a growing backlog
/// breaks the p99 limit long before completions fall behind arrivals;
/// the 97% completion floor only guards against the Poisson draw's own
/// shortfall being mistaken for one.
Ladder RunLadder(const oscar::TopologySnapshot& snapshot, uint64_t seed,
                 uint32_t workers, Ledger* ledger) {
  oscar::ServeOptions options = ServeOpts(kLadderLookups, seed, workers);
  options.policies = {"none"};
  options.offered_rates_per_s = {kLatencyCellRate};
  for (double rate = 1000.0; rate <= 12000.0; rate *= 1.02) {
    options.offered_rates_per_s.push_back(std::round(rate));
  }
  const ServePass pass = RunServe(snapshot, options, ledger);
  Ladder ladder;
  for (const oscar::ServeCellReport& cell : pass.report.cells) {
    if (cell.latency.p99_ms < kCapacityP99LimitMs &&
        cell.achieved_per_s >= 0.97 * cell.offered_per_s) {
      ladder.capacity_per_s = std::max(ladder.capacity_per_s,
                                       cell.offered_per_s);
    }
  }
  if (pass.report.cells.size() > 1 && ladder.capacity_per_s == 0.0) {
    const oscar::ServeCellReport& low = pass.report.cells[1];  // 1000/s.
    std::cerr << "perfbench: ladder at " << low.offered_per_s
              << "/s: p99 " << low.latency.p99_ms << " ms, achieved "
              << low.achieved_per_s << "/s, mean msgs "
              << pass.report.mean_messages << "\n";
  }
  ledger->Check(ladder.capacity_per_s > 0.0,
                "capacity ladder: no rate met the limit");
  if (ledger->Check(!pass.report.cells.empty(), "capacity ladder: no cells")) {
    ladder.latency = pass.report.cells.front().latency;
  }
  return ladder;
}

struct RouteSample {
  double mean_hops = 0.0;
  double mean_wasted = 0.0;
  double success = 0.0;
  std::vector<double> lookup_ns;  // Per GreedyRouter::Route call.
  double ns_per_hop = 0.0;
};

/// Routes a fixed sample with GreedyRouter over `snapshot`, timing each
/// call, and checks every delivered route against the brute-force owner.
RouteSample OracleRoutes(const oscar::TopologySnapshot& snapshot,
                         uint64_t seed, bool require_delivery,
                         Ledger* ledger) {
  RouteSample sample;
  const oscar::Ring& ring = snapshot.ring();
  if (!ledger->Check(!ring.empty(), "route oracle: empty ring")) return sample;
  const oscar::GreedyRouter router;
  oscar::Rng rng(seed ^ 0x5deece66dULL);
  uint64_t hops = 0;
  uint64_t wasted = 0;
  size_t delivered = 0;
  size_t misrouted = 0;
  double total_ns = 0.0;
  for (size_t i = 0; i < kOracleLookups; ++i) {
    const oscar::PeerId source =
        ring.at(static_cast<size_t>(rng.UniformInt(ring.size()))).id;
    const oscar::KeyId key = oscar::KeyId::FromRaw(rng.Next());
    const Clock::time_point start = Clock::now();
    const oscar::RouteResult route = router.Route(snapshot, source, key);
    const double ns =
        std::chrono::duration<double, std::nano>(Clock::now() - start).count();
    sample.lookup_ns.push_back(ns);
    total_ns += ns;
    hops += route.hops;
    wasted += route.wasted;
    if (route.success) {
      ++delivered;
      const oscar::PeerId owner = OracleOwner(ring, key);
      if (route.terminal != owner || ring.OwnerOf(key) != owner) ++misrouted;
    }
  }
  const double n = static_cast<double>(kOracleLookups);
  sample.mean_hops = static_cast<double>(hops) / n;
  sample.mean_wasted = static_cast<double>(wasted) / n;
  sample.success = static_cast<double>(delivered) / n;
  sample.ns_per_hop = hops == 0 ? 0.0 : total_ns / static_cast<double>(hops);
  ledger->Check(misrouted == 0, "route oracle: " + std::to_string(misrouted) +
                                    " delivered routes ended off the owner");
  if (require_delivery) {
    ledger->Check(delivered == kOracleLookups,
                  "route oracle: undelivered lookup on an intact snapshot");
  }
  return sample;
}

void CheckTopology(const oscar::Network& net, const std::string& what,
                   Ledger* ledger) {
  ledger->Check(net.CheckInvariants(), what + ": Network::CheckInvariants");
}

void CheckSnapshot(const oscar::TopologySnapshot& snapshot,
                   const std::string& what, Ledger* ledger) {
  ledger->Check(snapshot.Validate(), what + ": TopologySnapshot::Validate");
}

// ---- Workloads ---------------------------------------------------------

/// Everything one pass of a workload produced.
struct PassResult {
  double run_s = 0.0;          // The timed phase.
  size_t lookups = 0;          // Lookups the timed phase completed.
  double rewire_s = 0.0;       // GrowthResult::rewire_wall_ms, if grown.
  SimValues sim;               // Set by the timed phase.
  std::optional<oscar::TopologySnapshot> final_topology;
  std::optional<oscar::ScenarioResult> scenario;
  std::optional<ServePass> serve;  // Set when the timed phase serves.
};

/// What ClosePass measured over a pass's final topology.
struct Closing {
  SimValues sim;
  double route_wall_s = 0.0;
  double serve_run_s = 0.0;
  size_t serve_submitted = 0;
};

/// The serving pass over the topology a pass ended with (unless the
/// timed phase already was one), the capacity ladder and the route
/// oracle. A churned topology takes its route cost and latency from the
/// scenario's own lookups and may fail lookups to crashed peers.
Closing ClosePass(const PassResult& pass, uint64_t seed, uint32_t workers,
                  bool churned, Ledger* ledger) {
  Closing closing;
  if (!ledger->Check(pass.final_topology.has_value(),
                     "pass left no topology to serve")) {
    return closing;
  }
  const oscar::TopologySnapshot& snapshot = *pass.final_topology;
  const ServePass last =
      pass.serve.has_value()
          ? *pass.serve
          : RunServe(snapshot, ServeOpts(kServeLookups, seed, workers),
                     ledger);
  closing.route_wall_s = last.report.route_wall_s;
  closing.serve_run_s = last.run_s;
  closing.serve_submitted = last.report.total_submitted;
  size_t dropped = 0;
  size_t shed = 0;
  for (const oscar::ServeCellReport& cell : last.report.cells) {
    dropped += cell.dropped;
    shed += cell.shed;
  }
  closing.sim["serve.dropped"] = static_cast<double>(dropped);
  closing.sim["serve.shed"] = static_cast<double>(shed);
  if (!churned) {
    closing.sim["route_cost_msgs"] = last.report.mean_messages;
    closing.sim["lookup_success"] = last.report.route_success_rate;
    ledger->Check(last.report.route_success_rate == 1.0,
                  "lookup_success below 1 on an intact snapshot");
  }
  const Ladder ladder = RunLadder(snapshot, seed, workers, ledger);
  closing.sim["sim_capacity_per_s"] = ladder.capacity_per_s;
  if (!churned) {
    closing.sim["sim_p50_ms"] = ladder.latency.p50_ms;
    closing.sim["sim_p99_ms"] = ladder.latency.p99_ms;
  }
  const RouteSample routes = OracleRoutes(snapshot, seed, !churned, ledger);
  closing.sim["route.hops"] = routes.mean_hops;
  closing.sim["route.wasted"] = routes.mean_wasted;
  closing.sim["route.success"] = routes.success;
  uint64_t links = 0;
  uint64_t budget = 0;
  for (const oscar::Ring::Entry& entry : snapshot.ring().entries()) {
    links += snapshot.OutLinks(entry.id).size();
    budget += snapshot.caps(entry.id).max_out;
  }
  closing.sim["overlay.link_fill_ratio"] =
      budget == 0 ? 0.0
                  : static_cast<double>(links) / static_cast<double>(budget);
  return closing;
}

/// A workload runs on kInstances topologies, each grown from its own
/// seed derived from --seed by GrowScenarioTopology, as oscar_serve and
/// oscar_sim grow theirs. Sim metrics are their mean, which keeps a
/// run's sim figures from hanging on one topology: at N = 3000 the
/// route cost of single topologies spreads 13-15% between seeds.
class Workload {
 public:
  static constexpr size_t kInstances = 3;

  Workload(uint64_t seed, uint32_t workers, size_t peers)
      : workers_(workers),
        grown_(kInstances),
        traced_(kInstances),
        build_steps_(kInstances, 0) {
    for (size_t i = 0; i < kInstances; ++i) {
      seeds_.push_back(oscar::Rng::Fork(seed, 0x7065726662656e63ULL, i).Next());
    }
    base_.network_size = peers;
  }
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  uint64_t seed(size_t instance) const { return seeds_[instance]; }
  uint32_t workers() const { return workers_; }
  /// True when the timed phase crashes peers (its latency comes from
  /// the scenario, and its final topology is not intact).
  virtual bool churned() const { return false; }

  /// One untraced set-up of `instance`.
  void SetUp(size_t instance, Ledger* ledger) {
    oscar::Result<oscar::GrownTopology> grown =
        oscar::GrowScenarioTopology(Base(instance));
    if (!ledger->Check(grown.status(), "GrowScenarioTopology")) return;
    CheckSnapshot(grown.value().snapshot, "set-up snapshot", ledger);
    CheckTopology(grown.value().snapshot.Restore(), "set-up network", ledger);
    build_steps_[instance] = grown.value().overlay->sampling_steps();
    grown_[instance] = std::move(grown).value();
  }

  /// Re-does the set-up of `instance` through Simulation with the traced
  /// overlay and checks it against the untraced one.
  void SetUpTraced(size_t instance, Ledger* ledger) {
    oscar::GrowthResult growth;
    oscar::Result<oscar::GrownTopology> grown =
        GrowTopologyWith(Base(instance), MakeTracedOscar(), workers_, &growth);
    if (!ledger->Check(grown.status(), "traced set-up growth")) return;
    traced_rewire_s_ = growth.rewire_wall_ms / 1000.0;
    ledger->Check(
        grown_[instance].has_value() &&
            SameTopology(grown_[instance]->snapshot, grown.value().snapshot)
                .ok(),
        "traced set-up differs from GrowScenarioTopology's topology");
    ledger->Check(
        grown.value().overlay->sampling_steps() == build_steps_[instance],
        "traced set-up spent different sampling steps");
    traced_[instance] = std::move(grown).value();
  }

  /// One repetition of the timed phase on `instance` at `workers`, with
  /// the traced layers when `traced`.
  virtual PassResult Pass(size_t instance, uint32_t workers, bool traced,
                          Ledger* ledger) = 0;
  /// A topology to run the event-engine probe on, for workloads whose
  /// own passes do not run it (nullopt when they do).
  virtual std::optional<oscar::GrownTopology> SimProbeTopology(
      size_t instance) const = 0;

 protected:
  oscar::ScenarioOptions Base(size_t instance) const {
    oscar::ScenarioOptions base = base_;
    base.seed = seed(instance);
    return base;
  }

  /// A result carrying the set-up's build cost and, when traced, its
  /// rewiring time: the set-up growth is the only growth a workload
  /// runs.
  PassResult NewResult(size_t instance, bool traced) const {
    PassResult result;
    if (traced) result.rewire_s = traced_rewire_s_;
    result.sim["build_msgs_per_peer"] =
        static_cast<double>(build_steps_[instance]) /
        static_cast<double>(base_.network_size);
    return result;
  }

  const oscar::GrownTopology* Topology(size_t instance, bool traced) const {
    const auto& slot = traced ? traced_[instance] : grown_[instance];
    return slot.has_value() ? &*slot : nullptr;
  }

  const uint32_t workers_;
  std::vector<uint64_t> seeds_;
  oscar::ScenarioOptions base_;
  std::vector<std::optional<oscar::GrownTopology>> grown_;
  std::vector<std::optional<oscar::GrownTopology>> traced_;
  std::vector<uint64_t> build_steps_;
  double traced_rewire_s_ = 0.0;
};

class ServeWorkload : public Workload {
 public:
  ServeWorkload(uint64_t seed, uint32_t workers)
      : Workload(seed, workers, kServePeers) {}

  PassResult Pass(size_t instance, uint32_t workers, bool traced,
                  Ledger* ledger) override {
    PassResult result = NewResult(instance, traced);
    const oscar::GrownTopology* grown = Topology(instance, traced);
    if (!ledger->Check(grown != nullptr, "serve pass without set-up")) {
      return result;
    }
    result.serve =
        RunServe(grown->snapshot,
                 ServeOpts(kServeLookups, seed(instance), workers), ledger);
    result.run_s = result.serve->run_s;
    result.lookups = result.serve->report.routed;
    result.sim["route_cost_msgs"] = result.serve->report.mean_messages;
    result.final_topology = grown->snapshot;
    return result;
  }

  std::optional<oscar::GrownTopology> SimProbeTopology(
      size_t instance) const override {
    return *Topology(instance, true);
  }
};

class ChurnRepairWorkload : public Workload {
 public:
  ChurnRepairWorkload(uint64_t seed, uint32_t workers)
      : Workload(seed, workers, kChurnPeers) {
    base_.lookups = kChurnLookups;
    // Maintenance every 1/16 of the arrival span, as repair-vs-churn
    // runs it.
    base_.maintenance_cadence_ms = static_cast<double>(kChurnLookups) *
                                   base_.arrival_interval_ms / 16.0;
  }

  bool churned() const override { return true; }

  // The message-level scenario is single-threaded at any worker count.
  PassResult Pass(size_t instance, uint32_t /*workers*/, bool traced,
                  Ledger* ledger) override {
    PassResult result = NewResult(instance, traced);
    const oscar::GrownTopology* grown = Topology(instance, traced);
    if (!ledger->Check(grown != nullptr, "churn pass without set-up")) {
      return result;
    }
    // Restore outside the timed window; RunScenarioOn's own delta
    // restore then has nothing to repair.
    oscar::Network scratch;
    {
      ScopedSpan span("snapshot.restore", /*anchor=*/true);
      grown->snapshot.RestoreInto(&scratch);
    }
    const oscar::ScenarioOptions base = Base(instance);
    const Clock::time_point start = Clock::now();
    oscar::Result<oscar::ScenarioResult> run = [&] {
      ScopedSpan span("sim.scenario", /*anchor=*/true);
      return oscar::RunScenarioOn(kChurnScenario, base, *grown, &scratch);
    }();
    result.run_s = SecondsSince(start);
    if (!ledger->Check(run.status(), "RunScenarioOn")) return result;
    const oscar::ScenarioResult& scenario = run.value();
    const oscar::MessageSimReport& report = scenario.report;
    ledger->Check(report.submitted == kChurnLookups &&
                      report.completed == report.submitted,
                  "scenario: not every submitted lookup completed");
    ledger->Check(!scenario.maintenance.empty() && scenario.crashed > 0 &&
                      scenario.joined > 0,
                  "scenario: churn or maintenance did not run");
    CheckTopology(scratch, "post-scenario network", ledger);
    result.lookups = report.completed;
    result.sim["route_cost_msgs"] = report.mean_hops + report.mean_wasted;
    result.sim["lookup_success"] = static_cast<double>(report.succeeded) /
                                   static_cast<double>(report.submitted);
    result.sim["sim_p50_ms"] = report.latency.p50_ms;
    result.sim["sim_p99_ms"] = report.latency.p99_ms;
    result.sim["maint.steps_per_peer"] =
        static_cast<double>(scenario.maintenance_sampling_steps) /
        static_cast<double>(kChurnPeers);
    {
      ScopedSpan span("snapshot.freeze", /*anchor=*/true);
      result.final_topology.emplace(scratch);
    }
    CheckSnapshot(*result.final_topology, "post-scenario snapshot", ledger);
    result.scenario = scenario;
    return result;
  }

  std::optional<oscar::GrownTopology> SimProbeTopology(
      size_t) const override {
    return std::nullopt;
  }
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed) {
  if (name == "serve") {
    return std::make_unique<ServeWorkload>(seed, kServeWorkers);
  }
  if (name == "churn_repair") {
    return std::make_unique<ChurnRepairWorkload>(seed, kChurnWorkers);
  }
  return nullptr;
}

// ---- Output ------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  const char* unit = "";
};

std::string FormatNumber(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

void PrintResult(const std::vector<Metric>& metrics, const Ledger& ledger) {
  std::string out = "{\"correct\": ";
  out += ledger.failed() == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(ledger.attempted());
  out += ", \"failed\": " + std::to_string(ledger.failed());
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
           FormatNumber(metrics[i].value) + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  out += "}}";
  std::cout << out << std::endl;
}

void PrintMeta(const std::string& workload, uint64_t seed, double seconds,
               bool trace, uint32_t workers) {
  std::cout << "# meta {\"workload\": \"" << workload << "\", \"seed\": "
            << seed << ", \"seconds\": " << FormatNumber(seconds)
            << ", \"trace\": " << (trace ? 1 : 0)
            << ", \"nproc\": " << std::thread::hardware_concurrency()
            << ", \"workers\": " << workers
            << ", \"sanitizer\": \"" << OSCAR_SANITIZE_FLAVOR
            << "\", \"build_type\": \"" << OSCAR_BUILD_TYPE
            << "\", \"compiler\": \"" << OSCAR_COMPILER_ID << "\"}"
            << std::endl;
}

// ---- Untraced run: end-to-end metrics ----------------------------------

/// A host figure: the median of each instance's repetitions, averaged
/// over the instances. The instances' topologies differ in how much work
/// they take (serving repetitions by about 8% between seeds), and a mean
/// over them moves less from seed to seed than a median of the pooled
/// repetitions, which follows whichever instance lands in the middle.
double InstanceMean(const std::vector<std::vector<double>>& per_instance) {
  double sum = 0.0;
  for (const std::vector<double>& values : per_instance) sum += Median(values);
  return sum / static_cast<double>(per_instance.size());
}

std::vector<Metric> EndToEnd(Workload* workload, double seconds,
                             Ledger* ledger) {
  constexpr size_t kInstances = Workload::kInstances;
  std::vector<double> setups;
  for (size_t i = 0; i < kInstances; ++i) {
    const Clock::time_point start = Clock::now();
    workload->SetUp(i, ledger);
    setups.push_back(SecondsSince(start));
  }
  // Cycle the timed phase over the instances until every instance ran
  // once and the budget is spent. Each instance's first pass is closed
  // (serving pass, ladder, oracle); its later passes must repeat it.
  std::vector<std::vector<double>> runs(kInstances);
  std::vector<std::vector<double>> lookups_per_s(kInstances);
  std::vector<SimValues> pass_sim(kInstances);
  std::vector<SimValues> sim(kInstances);
  const Clock::time_point begin = Clock::now();
  for (size_t rep = 0; rep < kInstances || SecondsSince(begin) < seconds;
       ++rep) {
    const size_t instance = rep % kInstances;
    const PassResult pass =
        workload->Pass(instance, workload->workers(), /*traced=*/false, ledger);
    runs[instance].push_back(pass.run_s);
    lookups_per_s[instance].push_back(static_cast<double>(pass.lookups) /
                                      pass.run_s);
    if (rep >= kInstances) {
      CheckSameSim(pass_sim[instance], pass.sim, "repeated timed phase",
                   ledger);
      continue;
    }
    pass_sim[instance] = pass.sim;
    const Closing closing =
        ClosePass(pass, workload->seed(instance), workload->workers(),
                  workload->churned(), ledger);
    sim[instance] = pass.sim;
    sim[instance].insert(closing.sim.begin(), closing.sim.end());
  }
  for (size_t i = 0; i < kInstances; ++i) {
    std::cerr << "perfbench: instance " << i << " run_s";
    for (double run_s : runs[i]) std::cerr << " " << run_s;
    std::cerr << "\n";
  }

  const auto mean_sim = [&](const char* name) {
    double sum = 0.0;
    for (const SimValues& values : sim) {
      const auto it = values.find(name);
      if (!ledger->Check(it != values.end(), std::string("missing ") + name)) {
        return 0.0;
      }
      sum += it->second;
    }
    return sum / static_cast<double>(sim.size());
  };
  std::vector<Metric> metrics = {
      {"setup_s", Median(setups), "s"},
      {"run_s", InstanceMean(runs), "s"},
      {"lookups_per_s", InstanceMean(lookups_per_s), "1/s"},
      {"peak_rss_mb", PeakRssMb(), "MiB"},
      {"route_cost_msgs", mean_sim("route_cost_msgs"), "msgs"},
      {"lookup_success", mean_sim("lookup_success"), "ratio"},
      {"sim_p50_ms", mean_sim("sim_p50_ms"), "ms"},
      {"sim_p99_ms", mean_sim("sim_p99_ms"), "ms"},
      {"sim_capacity_per_s", mean_sim("sim_capacity_per_s"), "1/s"},
      {"build_msgs_per_peer", mean_sim("build_msgs_per_peer"), "msgs"},
  };
  for (const Metric& metric : metrics) {
    ledger->Check(std::isfinite(metric.value) && metric.value > 0.0,
                  metric.name + " is not a positive number");
  }
  return metrics;
}

// ---- Traced run: per-layer metrics -------------------------------------

struct Probes {
  double owner_of_ns = 0.0;
  double index_of_ns = 0.0;
  double freeze_ms = 0.0;
  double restore_ms = 0.0;
  double dispatch_ns = 0.0;
  RouteSample routes;
};

/// Timed calls into Ring, TopologySnapshot and ParallelForWorkers over
/// the topology the traced pass ended with.
Probes RunProbes(const oscar::TopologySnapshot& snapshot, uint64_t seed,
                 uint32_t workers, Ledger* ledger) {
  Probes probes;
  const oscar::Ring& ring = snapshot.ring();
  if (!ledger->Check(!ring.empty(), "probes: empty ring")) return probes;
  oscar::Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
  constexpr size_t kRingCalls = 1000000;
  std::vector<oscar::KeyId> keys(kRingCalls);
  for (oscar::KeyId& key : keys) key = oscar::KeyId::FromRaw(rng.Next());
  uint64_t checksum = 0;
  Clock::time_point start = Clock::now();
  for (const oscar::KeyId& key : keys) checksum += *ring.OwnerOf(key);
  probes.owner_of_ns =
      std::chrono::duration<double, std::nano>(Clock::now() - start).count() /
      kRingCalls;
  std::vector<size_t> positions(kRingCalls);
  for (size_t& at : positions) {
    at = static_cast<size_t>(rng.UniformInt(ring.size()));
  }
  size_t wrong = 0;
  start = Clock::now();
  for (size_t at : positions) {
    const oscar::Ring::Entry& entry = ring.at(at);
    const std::optional<size_t> found =
        ring.IndexOf(oscar::KeyId::FromRaw(entry.key_raw), entry.id);
    wrong += (found != at) ? 1 : 0;
  }
  probes.index_of_ns =
      std::chrono::duration<double, std::nano>(Clock::now() - start).count() /
      kRingCalls;
  ledger->Check(wrong == 0, "Ring::IndexOf returned a wrong position");
  // Keeps the timed OwnerOf loop from being optimized away.
  ledger->Check(checksum != 0 || ring.size() == 1, "Ring::OwnerOf probe");

  constexpr int kCopies = 5;
  const oscar::Network restored = snapshot.Restore();
  std::vector<double> freeze_ms;
  std::vector<double> restore_ms;
  for (int i = 0; i < kCopies; ++i) {
    start = Clock::now();
    const oscar::TopologySnapshot frozen(restored);
    freeze_ms.push_back(SecondsSince(start) * 1e3);
    oscar::Network fresh;
    start = Clock::now();
    frozen.RestoreInto(&fresh);
    restore_ms.push_back(SecondsSince(start) * 1e3);
  }
  probes.freeze_ms = Median(freeze_ms);
  probes.restore_ms = Median(restore_ms);

  // A near-empty body: one count per worker, each on its own cache line.
  constexpr size_t kDispatch = 1000000;
  constexpr size_t kLine = 8;
  std::vector<uint64_t> ran(workers * kLine, 0);
  start = Clock::now();
  oscar::ParallelForWorkers(workers, kDispatch, [&](uint32_t worker, size_t) {
    ++ran[worker * kLine];
  });
  probes.dispatch_ns =
      std::chrono::duration<double, std::nano>(Clock::now() - start).count() /
      kDispatch;
  uint64_t dispatched = 0;
  for (uint64_t count : ran) dispatched += count;
  ledger->Check(dispatched == kDispatch, "ParallelForWorkers lost an index");

  probes.routes = OracleRoutes(snapshot, seed, /*require_delivery=*/false,
                               ledger);
  return probes;
}

/// A pass of instance 0 plus its ClosePass, with both sims merged.
struct ClosedPass {
  PassResult pass;
  Closing closing;
  SimValues sim;
};

ClosedPass RunClosedPass(Workload* workload, uint32_t workers, bool traced,
                         Ledger* ledger) {
  ClosedPass out;
  out.pass = workload->Pass(0, workers, traced, ledger);
  out.closing = ClosePass(out.pass, workload->seed(0), workers,
                          workload->churned(), ledger);
  out.sim = out.pass.sim;
  out.sim.insert(out.closing.sim.begin(), out.closing.sim.end());
  return out;
}

/// The traced run works on instance 0 only: an untraced reference
/// pass, the traced pass, then the pass again at 1 worker. All three
/// must agree on every sim value.
std::vector<Metric> PerLayer(Workload* workload, const std::string& spans_out,
                             Ledger* ledger) {
  const uint32_t workers = workload->workers();
  workload->SetUp(0, ledger);
  const ClosedPass plain = RunClosedPass(workload, workers, false, ledger);

  Tracer::Start();
  workload->SetUpTraced(0, ledger);
  const ClosedPass traced_run = RunClosedPass(workload, workers, true, ledger);
  const PassResult& traced = traced_run.pass;
  std::optional<oscar::ScenarioResult> probe_scenario;
  if (auto topology = traced.final_topology.has_value()
                          ? workload->SimProbeTopology(0)
                          : std::nullopt) {
    oscar::ScenarioOptions probe;
    probe.network_size = topology->snapshot.alive_count();
    probe.lookups = kSimProbeLookups;
    probe.seed = workload->seed(0);
    oscar::Result<oscar::ScenarioResult> run = [&] {
      ScopedSpan span("sim.scenario", /*anchor=*/true);
      return oscar::RunScenarioOn("baseline", probe, *topology);
    }();
    if (ledger->Check(run.status(), "event-engine probe")) {
      probe_scenario = std::move(run).value();
    }
  } else {
    probe_scenario = traced.scenario;
  }
  const std::vector<Span> spans = Tracer::Collect();
  if (!spans_out.empty()) {
    ledger->Check(WriteSpans(spans, spans_out), "write spans to " + spans_out);
  }
  CheckSameSim(plain.sim, traced_run.sim, "traced vs untraced pass", ledger);

  const ClosedPass single = RunClosedPass(workload, 1, false, ledger);
  CheckSameSim(plain.sim, single.sim, "1 worker vs workload workers", ledger);
  if (plain.pass.final_topology.has_value() &&
      single.pass.final_topology.has_value()) {
    ledger->Check(SameTopology(*plain.pass.final_topology,
                               *single.pass.final_topology),
                  "1-worker pass ended on a different topology");
  }

  Probes probes;
  if (ledger->Check(traced.final_topology.has_value(), "traced topology")) {
    probes = RunProbes(*traced.final_topology, workload->seed(0), workers,
                       ledger);
  }

  const std::map<std::string, SpanTotals> totals = TotalsByName(spans);
  const auto total = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? SpanTotals{} : it->second;
  };
  const auto per = [](double a, double b) { return b == 0.0 ? 0.0 : a / b; };
  const SpanTotals live = total("sampling.live");
  const SpanTotals csr = total("sampling.csr");
  const SpanTotals build = total("overlay.build_links");
  const SpanTotals plan = total("overlay.plan_links");
  const SpanTotals plan_join = total("overlay.plan_join_links");
  const SpanTotals growth = total("growth.run");
  const SpanTotals scenario_span = total("sim.scenario");
  const Closing& served = traced_run.closing;
  const double sweep_s = served.serve_run_s - served.route_wall_s;

  const auto sim_count = [&](const char* name) {
    const auto it = traced_run.sim.find(name);
    return it == traced_run.sim.end() ? 0.0 : it->second;
  };
  size_t rounds = 0;
  size_t rebuilt = 0;
  size_t pruned = 0;
  if (traced.scenario.has_value()) {
    for (const oscar::MaintenanceRoundRecord& round :
         traced.scenario->maintenance) {
      ++rounds;
      rebuilt += round.report.rebuilt_peers;
      pruned += round.report.pruned_links;
    }
  }
  oscar::ScenarioResult sim_result;
  if (probe_scenario.has_value()) sim_result = *probe_scenario;

  std::vector<Metric> metrics = {
      {"pool.dispatch_ns", probes.dispatch_ns, "ns"},
      {"pool.route_speedup",
       per(single.closing.route_wall_s, plain.closing.route_wall_s), "x"},
      {"ring.owner_of_ns", probes.owner_of_ns, "ns"},
      {"ring.index_of_ns", probes.index_of_ns, "ns"},
      {"snapshot.freeze_ms", probes.freeze_ms, "ms"},
      {"snapshot.restore_ms", probes.restore_ms, "ms"},
      {"growth.rewire_s", traced.rewire_s, "s"},
      {"growth.self_s", static_cast<double>(growth.self_ns) / 1e9, "s"},
      {"sampling.live.calls", static_cast<double>(live.calls), "count"},
      {"sampling.live.steps", static_cast<double>(live.work), "count"},
      {"sampling.live.busy_s", static_cast<double>(live.busy_ns) / 1e9, "s"},
      {"sampling.live.ns_per_step",
       per(static_cast<double>(live.busy_ns), static_cast<double>(live.work)),
       "ns"},
      {"sampling.csr.calls", static_cast<double>(csr.calls), "count"},
      {"sampling.csr.steps", static_cast<double>(csr.work), "count"},
      {"sampling.csr.busy_s", static_cast<double>(csr.busy_ns) / 1e9, "s"},
      {"sampling.csr.ns_per_step",
       per(static_cast<double>(csr.busy_ns), static_cast<double>(csr.work)),
       "ns"},
      {"sampling.error_ratio",
       per(static_cast<double>(live.failed + csr.failed),
           static_cast<double>(live.calls + csr.calls)),
       "ratio"},
      {"overlay.build_links.calls", static_cast<double>(build.calls), "count"},
      {"overlay.build_links.busy_s", static_cast<double>(build.busy_ns) / 1e9,
       "s"},
      {"overlay.build_links.self_s", static_cast<double>(build.self_ns) / 1e9,
       "s"},
      {"overlay.plan_links.calls", static_cast<double>(plan.calls), "count"},
      {"overlay.plan_links.busy_s", static_cast<double>(plan.busy_ns) / 1e9,
       "s"},
      {"overlay.plan_links.self_s", static_cast<double>(plan.self_ns) / 1e9,
       "s"},
      {"overlay.plan_join_links.calls", static_cast<double>(plan_join.calls),
       "count"},
      {"overlay.link_fill_ratio", sim_count("overlay.link_fill_ratio"),
       "ratio"},
      {"maint.rounds", static_cast<double>(rounds), "count"},
      {"maint.rebuilt_peers", static_cast<double>(rebuilt), "count"},
      {"maint.pruned_links", static_cast<double>(pruned), "count"},
      {"maint.steps_per_peer", sim_count("maint.steps_per_peer"), "msgs"},
      {"route.hops", probes.routes.mean_hops, "msgs"},
      {"route.wasted", probes.routes.mean_wasted, "msgs"},
      {"route.lookup_ns_p50", Percentile(probes.routes.lookup_ns, 0.50), "ns"},
      {"route.lookup_ns_p99", Percentile(probes.routes.lookup_ns, 0.99), "ns"},
      {"route.ns_per_hop", probes.routes.ns_per_hop, "ns"},
      {"sim.events", static_cast<double>(sim_result.events_dispatched),
       "count"},
      {"sim.messages", static_cast<double>(sim_result.report.messages_sent),
       "count"},
      {"sim.timeouts", static_cast<double>(sim_result.report.timeouts),
       "count"},
      {"sim.self_s", static_cast<double>(scenario_span.self_ns) / 1e9, "s"},
      {"sim.ns_per_event",
       per(static_cast<double>(scenario_span.self_ns),
           static_cast<double>(sim_result.events_dispatched)),
       "ns"},
      {"churn.crashed", static_cast<double>(sim_result.crashed), "count"},
      {"churn.joined", static_cast<double>(sim_result.joined), "count"},
      {"serve.route_s", served.route_wall_s, "s"},
      {"serve.sweep_s", sweep_s, "s"},
      {"serve.sweep_ns_per_arrival",
       per(sweep_s * 1e9, static_cast<double>(served.serve_submitted)), "ns"},
      {"serve.dropped", sim_count("serve.dropped"), "count"},
      {"serve.shed", sim_count("serve.shed"), "count"},
      {"trace.overhead_frac",
       per(traced.run_s - plain.pass.run_s, plain.pass.run_s), "ratio"},
  };
  for (const Metric& metric : metrics) {
    ledger->Check(std::isfinite(metric.value), metric.name + " is not finite");
  }
  return metrics;
}

// ---- Command line ------------------------------------------------------

int Usage(const std::string& problem) {
  std::cerr << "perfbench: " << problem << "\n"
            << "usage: perfbench --workload serve|churn_repair "
               "--seed N --seconds S --trace 0|1 [--spans-out FILE]\n";
  return 2;
}

bool ParseUint(const std::string& text, uint64_t* out) {
  if (text.empty() || text[0] < '0' || text[0] > '9') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (errno != 0 || end == nullptr || *end != '\0') return false;
  *out = value;
  return true;
}

int Main(int argc, char** argv) {
  std::string workload_name;
  std::string spans_out;
  uint64_t seed = 0;
  uint64_t seconds = 0;
  uint64_t trace = 2;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--seed") {
      if (!ParseUint(value, &seed)) return Usage("bad --seed " + value);
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!ParseUint(value, &seconds) || seconds == 0 || seconds > 3600) {
        return Usage("bad --seconds " + value);
      }
    } else if (flag == "--trace") {
      if (!ParseUint(value, &trace) || trace > 1) {
        return Usage("bad --trace " + value);
      }
    } else if (flag == "--spans-out") {
      spans_out = value;
    } else {
      return Usage("unknown flag " + flag);
    }
  }
  if (!have_seed || seconds == 0 || trace > 1) {
    return Usage("--seed, --seconds and --trace are required");
  }
  std::unique_ptr<Workload> workload = MakeWorkload(workload_name, seed);
  if (workload == nullptr) return Usage("unknown workload '" + workload_name + "'");

  PrintMeta(workload_name, seed, static_cast<double>(seconds), trace == 1,
            workload->workers());
  // Host times from an instrumented or unoptimized build say nothing
  // about the library's speed: refuse to report them.
  if (std::string(OSCAR_SANITIZE_FLAVOR) != "none" ||
      std::string(OSCAR_BUILD_TYPE) != "Release") {
    std::cerr << "perfbench: refusing to measure a '" << OSCAR_BUILD_TYPE
              << "' build with sanitizer '" << OSCAR_SANITIZE_FLAVOR
              << "'; configure with CMAKE_BUILD_TYPE=Release and no "
                 "OSCAR_SANITIZE\n";
    return 2;
  }
  // Growth reads its rewiring width from OSCAR_THREADS when a caller
  // (GrowScenarioTopology) leaves it unset: pin it to the workload's
  // count before any thread starts. Audits are a debugging aid that
  // would distort every host time.
  setenv("OSCAR_THREADS", std::to_string(workload->workers()).c_str(), 1);
  unsetenv("OSCAR_AUDIT");

  Ledger ledger;
  const std::vector<Metric> metrics =
      trace == 1 ? PerLayer(workload.get(), spans_out, &ledger)
                 : EndToEnd(workload.get(), static_cast<double>(seconds),
                            &ledger);
  PrintResult(metrics, ledger);
  return ledger.failed() == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
