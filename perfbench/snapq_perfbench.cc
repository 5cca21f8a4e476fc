// snapq_perfbench: the workload driver behind perfbench/run.py.
//
// It drives the library only through its public API (SensorNetwork,
// LinkModel, ParseQuery, RoutingTree::Build, obs::AnalyzeTopology and the
// Simulator's metrics() counters), times every call from here with
// std::chrono::steady_clock, checks the simulated outputs, and writes one
// raw JSON record per run: per-pass timings and exact simulated statistics,
// latency samples, invariant-check failures and — in traced passes — the
// spans recorded around each public call. run.py turns the record into the
// benchmark's metrics.
//
//   snapq_perfbench --workload lifecycle --seed 1 --seconds 20
//       --trace 0 --out record.json
//
// A run repeats "passes" (one deployment set up and driven end to end)
// until --seconds have elapsed. With --trace 1 the passes alternate
// untraced / traced, so the run measures its own tracing overhead.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "api/network.h"
#include "net/link_model.h"
#include "obs/profiler.h"
#include "obs/topo.h"
#include "query/parser.h"
#include "query/routing_tree.h"

namespace {

using snapq::ElectionStats;
using snapq::MaintenanceRoundStats;
using snapq::MetricsSnapshot;
using snapq::NetworkConfig;
using snapq::NodeId;
using snapq::Point;
using snapq::QueryResult;
using snapq::SensorNetwork;
using snapq::Time;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Workloads. All three share the bench/scale_sweep deployment recipe:
// uniform placement in the unit square, range 0.2*sqrt(100/n) (expected
// degree ~12.6), 5% snooping, T = 0.1 under sse, and the closed-form
// two-driver field.

struct Workload {
  const char* name;
  size_t nodes;
  double loss;
  bool finite_battery;
  bool monitors;
  bool query_mix;  // trained and elected during set-up, no lifecycle rounds
  int steps;       // closed-loop steps per pass
  int write_every; // every write_every-th step is a write (0: none)
};

// query_mix: 1,500 steps, every 100th a write. The lifecycle workloads
// query after the lifecycle: enough queries for a p99 with 10 samples
// beyond it in three passes at 20k nodes, and more at 5k where queries
// are cheap and a steadier p99 costs little.
constexpr Workload kWorkloads[] = {
    {"lifecycle", 20000, 0.0, false, false, false, 340, 0},
    {"query_mix", 5000, 0.0, false, false, true, 1500, 100},
    {"observed_lifecycle", 5000, 0.1, true, true, false, 1000, 0},
};

constexpr Time kTrainingTicks = 10;
constexpr Time kRoundInterval = 20;
/// Upper bound on the election's refinement window; data updates are
/// scheduled through it before the election runs.
constexpr Time kElectionSlack = 80;
constexpr int kLifecycleRounds = 5;
/// Routing trees each traced pass builds.
constexpr int kProbeRepeats = 3;

// ---------------------------------------------------------------------------
// Inputs. Generated here from the workload seed with std::mt19937_64, so
// they do not depend on the library's own RNG.

class InputRng {
 public:
  explicit InputRng(uint64_t seed) : engine_(seed) {}
  double Uniform() {
    return static_cast<double>(engine_() >> 11) * 0x1.0p-53;
  }
  uint64_t Below(uint64_t n) { return engine_() % n; }

 private:
  std::mt19937_64 engine_;
};

struct QueryStep {
  bool write = false;
  bool snapshot = false;
  std::string sql;
};

/// A seeded aggregate query over a random rectangle; 3 in 4 use the
/// snapshot.
QueryStep MakeQuery(InputRng& rng, int index) {
  static const char* const kAggregates[] = {"avg", "sum", "min", "max"};
  QueryStep step;
  step.snapshot = index % 4 != 3;
  // Corners on a 1/1000 grid so the SQL text round-trips exactly.
  const auto coord = [&rng] {
    return static_cast<double>(rng.Below(1001)) / 1000.0;
  };
  const double side = 0.1 + static_cast<double>(rng.Below(301)) / 1000.0;
  const double x0 = coord() * (1.0 - side);
  const double y0 = coord() * (1.0 - side);
  char sql[256];
  std::snprintf(sql, sizeof(sql),
                "SELECT %s(value) FROM sensors WHERE loc IN "
                "RECT(%.6f, %.6f, %.6f, %.6f)%s",
                kAggregates[rng.Below(4)], x0, y0, x0 + side, y0 + side,
                step.snapshot ? " USE SNAPSHOT" : "");
  step.sql = sql;
  return step;
}

/// `count` closed-loop steps; with `write_every` > 0 every
/// `write_every`-th step is a write.
std::vector<QueryStep> MakeSteps(uint64_t seed, int count, int write_every) {
  InputRng rng(seed ^ 0x51e9a7c3d2b4f601ULL);
  std::vector<QueryStep> steps;
  int queries = 0;
  for (int s = 0; s < count; ++s) {
    if (write_every > 0 && s % write_every == write_every - 1) {
      steps.push_back(QueryStep{true, false, {}});
    } else {
      steps.push_back(MakeQuery(rng, queries++));
    }
  }
  return steps;
}

/// Square regions of side `side` whose corners lie on a `step` grid of the
/// unit square — the same for every seed, so only the deployment varies.
std::vector<std::string> GridRegions(int per_axis, double step, double side) {
  std::vector<std::string> regions;
  for (int i = 0; i < per_axis; ++i) {
    for (int j = 0; j < per_axis; ++j) {
      char rect[128];
      std::snprintf(rect, sizeof(rect), "RECT(%.2f, %.2f, %.2f, %.2f)",
                    step * i, step * j, step * i + side, step * j + side);
      regions.push_back(rect);
    }
  }
  return regions;
}

// ---------------------------------------------------------------------------
// Spans: kept in memory, written out at exit. A span has a name, a start,
// an end and a parent (-1 for a top-level span), plus the pass it belongs
// to; every span of one run shares the run id written in the record.

struct Span {
  int parent;
  int pass;
  const char* name;
  double start_us;
  double end_us;
};

class SpanLog {
 public:
  SpanLog() : origin_(Clock::now()) {}

  void StartPass(int pass, bool traced) {
    pass_ = pass;
    enabled_ = traced;
  }
  bool enabled() const { return enabled_; }
  /// Pauses or resumes recording within the current pass.
  void set_enabled(bool on) { enabled_ = on; }

  int Begin(const char* name, Clock::time_point at) {
    if (!enabled_) return -1;
    const int id = static_cast<int>(spans_.size());
    spans_.push_back(Span{open_.empty() ? -1 : open_.back(), pass_, name,
                          Us(at), -1.0});
    open_.push_back(id);
    return id;
  }
  void End(int id, Clock::time_point at) {
    if (id < 0) return;
    spans_[static_cast<size_t>(id)].end_us = Us(at);
    open_.pop_back();
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  double Us(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }

  Clock::time_point origin_;
  bool enabled_ = false;
  int pass_ = 0;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

SpanLog g_spans;

/// Times one scope; records it as a span when the pass is traced.
class Timed {
 public:
  explicit Timed(const char* name)
      : start_(Clock::now()), id_(g_spans.Begin(name, start_)) {}
  ~Timed() { Stop(); }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

  /// Ends the scope (idempotent) and returns its duration in seconds.
  double Stop() {
    if (!stopped_) {
      const Clock::time_point end = Clock::now();
      g_spans.End(id_, end);
      seconds_ = std::chrono::duration<double>(end - start_).count();
      stopped_ = true;
    }
    return seconds_;
  }

 private:
  Clock::time_point start_;
  int id_;
  bool stopped_ = false;
  double seconds_ = 0.0;
};

// ---------------------------------------------------------------------------
// Memory, read from /proc/self/statm and getrusage.

double RssKb() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  unsigned long size = 0, resident = 0;
  const int got = std::fscanf(f, "%lu %lu", &size, &resident);
  std::fclose(f);
  if (got != 2) return 0.0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / 1024.0;
}

double PeakRssKb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss);
}

// ---------------------------------------------------------------------------
// Checks. Every failed output check is an error; run.py counts them.

struct Checks {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;  // the first 100 messages

  void Expect(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (failures.size() < 100) failures.push_back(what);
  }
};

Checks g_checks;

// ---------------------------------------------------------------------------
// One pass's record: named measurements (host time, memory), exact
// simulated statistics, latency samples and the answer digest.

struct PassRecord {
  bool traced = false;
  std::map<std::string, double> values;
  std::map<std::string, double> stats;
  std::map<std::string, double> modelled;  // first pass only
  std::map<std::string, std::vector<double>> samples;
  uint64_t digest = 1469598103934665603ULL;  // FNV-1a offset basis

  void Mix(uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      digest ^= (word >> (8 * i)) & 0xff;
      digest *= 1099511628211ULL;
    }
  }
  void MixDouble(double v) { Mix(std::bit_cast<uint64_t>(v)); }
};

uint64_t TotalSnooped(const MetricsSnapshot& m) {
  uint64_t total = 0;
  for (uint64_t s : m.snooped) total += s;
  return total;
}

/// Records one phase's traffic as exact statistics "<phase>.sent" etc.
void RecordTraffic(PassRecord& rec, const std::string& phase,
                   const MetricsSnapshot& delta) {
  rec.stats[phase + ".sent"] = static_cast<double>(delta.total_sent);
  rec.stats[phase + ".delivered"] =
      static_cast<double>(delta.total_delivered);
  rec.stats[phase + ".snooped"] = static_cast<double>(TotalSnooped(delta));
  rec.stats[phase + ".lost"] = static_cast<double>(delta.total_lost);
  rec.stats[phase + ".cache_ops"] = static_cast<double>(delta.cache_ops);
}

// ---------------------------------------------------------------------------
// Deployment: one seeded network plus its closed-form data feed.

class Deployment {
 public:
  Deployment(const Workload& w, uint64_t seed, bool monitors) {
    InputRng rng(seed);
    NetworkConfig config;
    config.num_nodes = w.nodes;
    config.transmission_range =
        0.2 * std::sqrt(100.0 / static_cast<double>(w.nodes));
    config.loss_probability = w.loss;
    config.snoop_probability = 0.05;
    config.snapshot.threshold = 0.1;
    if (w.finite_battery) {
      config.energy = snapq::EnergyModel{};  // tx 1, cache op 0.1, 500
    }
    config.seed = seed;
    config.positions.reserve(w.nodes);
    for (size_t i = 0; i < w.nodes; ++i) {
      const double x = rng.Uniform();
      config.positions.push_back(Point{x, rng.Uniform()});
    }
    {
      Timed ctor("api.build");
      net_ = std::make_unique<SensorNetwork>(config);
      build_s_ = ctor.Stop();
    }

    // Two latent drivers with Gaussian distance weights plus a smooth
    // offset: neighbours are near-affine transforms of each other.
    const size_t n = w.nodes;
    w1_.resize(n);
    w2_.resize(n);
    offset_.resize(n);
    values_.resize(n);
    for (NodeId i = 0; i < n; ++i) {
      const Point& p = net_->position(i);
      const double l2 = 2.0 * 0.3 * 0.3;
      const double d1 =
          (p.x - 0.25) * (p.x - 0.25) + (p.y - 0.3) * (p.y - 0.3);
      const double d2 =
          (p.x - 0.75) * (p.x - 0.75) + (p.y - 0.7) * (p.y - 0.7);
      w1_[i] = std::exp(-d1 / l2);
      w2_[i] = std::exp(-d2 / l2);
      offset_[i] = 40.0 + 20.0 * p.x + 10.0 * p.y;
    }

    if (monitors) EnableMonitors();
  }

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  SensorNetwork& net() { return *net_; }
  double build_s() const { return build_s_; }
  double feed_s() const { return feed_s_; }
  int64_t feed_ticks() const { return feed_ticks_; }

  /// Schedules the data update of every tick in [from, to) not yet fed.
  /// Call before scheduling protocol events of the same ticks, so readings
  /// are refreshed first (FIFO tie-break at equal times).
  void ScheduleFeed(Time from, Time to) {
    for (Time t = std::max(from, fed_until_); t < to; ++t) {
      net_->sim().ScheduleAt(t, [this, t] { Feed(t); });
    }
    fed_until_ = std::max(fed_until_, to);
  }

  /// Every monitor on: sampled tracing, energy ledger, topology monitor,
  /// accuracy audit and telemetry with SLO rules (no blackbox file).
  void EnableMonitors() {
    snapq::obs::TracerConfig tracer;
    tracer.sampling = 0.05;
    net_->EnableTracing(tracer);
    net_->EnableEnergyLedger();
    net_->EnableTopologyMonitor();
    net_->EnableAccuracyAudit();
    net_->EnableTelemetry();
    for (const char* rule :
         {"health.coverage value >= 0.5 for 40", "topo.partitions value <= 1",
          "energy.burn_rate slope <= 1000"}) {
      g_checks.Expect(net_->AddSloRule(rule),
                      std::string("SLO rule rejected: ") + rule);
    }
  }

 private:
  void Feed(Time t) {
    const double d1 = 10.0 * std::sin(0.13 * static_cast<double>(t));
    const double d2 = 10.0 * std::cos(0.07 * static_cast<double>(t) + 1.0);
    for (size_t i = 0; i < values_.size(); ++i) {
      values_[i] = offset_[i] + w1_[i] * d1 + w2_[i] * d2;
    }
    Timed feed("data.feed");
    net_->SetMeasurements(values_);
    feed_s_ += feed.Stop();
    ++feed_ticks_;
  }

  std::unique_ptr<SensorNetwork> net_;
  double build_s_ = 0.0;
  std::vector<double> w1_, w2_, offset_, values_;
  Time fed_until_ = 0;
  double feed_s_ = 0.0;
  int64_t feed_ticks_ = 0;
};

// ---------------------------------------------------------------------------
// Phases shared by the workloads.

/// Rebuilds the LinkModel on the deployment's positions (net layer cost).
void MeasureLinkBuild(SensorNetwork& net, PassRecord& rec) {
  const size_t n = net.num_nodes();
  std::vector<Point> positions;
  std::vector<double> ranges;
  positions.reserve(n);
  ranges.reserve(n);
  for (NodeId i = 0; i < n; ++i) {
    positions.push_back(net.position(i));
    ranges.push_back(net.sim().links().range(i));
  }
  Timed build("net.build");
  snapq::LinkModel links(std::move(positions), std::move(ranges),
                         net.config().loss_probability);
  rec.values["net.build_s"] = build.Stop();
  size_t edges = 0;
  bool same = true;
  for (NodeId i = 0; i < n; ++i) {
    const auto a = links.Reachable(i);
    const auto b = net.sim().links().Reachable(i);
    same = same && std::equal(a.begin(), a.end(), b.begin(), b.end());
    edges += a.size();
  }
  g_checks.Expect(same, "rebuilt LinkModel differs from the network's");
  rec.values["net.mean_degree"] =
      static_cast<double>(edges) / static_cast<double>(n);
}

void RecordElection(PassRecord& rec, const ElectionStats& e, size_t n,
                    bool lossless) {
  rec.stats["elect.active"] = static_cast<double>(e.num_active);
  rec.stats["elect.passive"] = static_cast<double>(e.num_passive);
  rec.stats["elect.undefined"] = static_cast<double>(e.num_undefined);
  rec.stats["elect.spurious"] = static_cast<double>(e.num_spurious);
  rec.stats["elect.msgs_per_node"] = e.avg_messages_per_node;
  rec.stats["elect.msgs_per_node_max"] = e.max_messages_per_node;
  if (lossless) {
    g_checks.Expect(e.max_messages_per_node <= 6.0,
                    "lossless election exceeded 6 messages per node");
    g_checks.Expect(e.num_undefined == 0,
                    "lossless election left undefined nodes");
  }
  g_checks.Expect(e.num_active + e.num_passive + e.num_undefined <= n,
                  "election classified more nodes than exist");
}

void CheckEnergyConservation(SensorNetwork& net) {
  const snapq::obs::EnergyLedger* ledger = net.energy_ledger();
  if (ledger == nullptr) return;
  size_t mismatches = 0;
  for (NodeId i = 0; i < net.num_nodes(); ++i) {
    if (std::bit_cast<uint64_t>(ledger->remaining(i)) !=
        std::bit_cast<uint64_t>(net.sim().battery(i).remaining())) {
      ++mismatches;
    }
  }
  g_checks.Expect(mismatches == 0,
                  "energy ledger remaining differs from battery on " +
                      std::to_string(mismatches) + " nodes");
}

void SampleTelemetry(SensorNetwork& net, PassRecord& rec) {
  Timed sample("obs.sample");
  net.SampleTelemetry();
  rec.samples["obs.telemetry_sample_ms"].push_back(sample.Stop() * 1e3);
}

/// Repeats the pure AnalyzeTopology on the view the last telemetry sample
/// refreshed, checked against the monitor's own result.
void ProbeTopology(SensorNetwork& net, PassRecord& rec) {
  snapq::obs::TopologyMonitor& topo = *net.topology_monitor();
  Timed analyze("obs.topo_analyze");
  const snapq::obs::TopologySnapshot snap = snapq::obs::AnalyzeTopology(
      net.sim().links(), topo.mutable_view(), net.now());
  rec.samples["obs.topo_analyze_ms"].push_back(analyze.Stop() * 1e3);
  g_checks.Expect(snap.partitions == topo.last().partitions &&
                      snap.isolated == topo.last().isolated &&
                      snap.bridges == topo.last().bridges,
                  "AnalyzeTopology disagrees with the topology monitor");
}

/// Builds the query routing tree on the live set, as the executor does.
void ProbeRouting(SensorNetwork& net, PassRecord& rec) {
  std::vector<bool> alive(net.num_nodes());
  for (NodeId i = 0; i < net.num_nodes(); ++i) alive[i] = net.sim().alive(i);
  for (int i = 0; i < kProbeRepeats; ++i) {
    Timed route("query.route");
    const snapq::RoutingTree tree =
        snapq::RoutingTree::Build(net.sim().links(), alive, 0);
    rec.samples["query.route_us"].push_back(route.Stop() * 1e6);
    g_checks.Expect(tree.IsReachable(0), "routing tree misses its sink");
  }
}

/// Runs one query, split into ParseQuery and the executor call when the
/// pass is traced; `*seconds` receives the host time of the whole query.
snapq::Result<QueryResult> RunQuery(SensorNetwork& net, const std::string& sql,
                                    PassRecord& rec, bool snapshot,
                                    double* seconds) {
  Timed query("query");
  if (!g_spans.enabled()) {
    snapq::Result<QueryResult> result = net.Query(sql);
    *seconds = query.Stop();
    return result;
  }
  Timed parse("query.parse");
  const snapq::Result<snapq::QuerySpec> spec = snapq::ParseQuery(sql);
  rec.samples["query.parse_us"].push_back(parse.Stop() * 1e6);
  if (!spec.ok()) {
    *seconds = query.Stop();
    return spec.status();
  }
  snapq::ExecutionOptions options;
  options.audit = net.accuracy_auditor();  // as SensorNetwork::Query does
  Timed exec("query.exec");
  snapq::Result<QueryResult> result = net.executor().Execute(*spec, options);
  rec.samples[snapshot ? "query.exec_snapshot_us" : "query.exec_regular_us"]
      .push_back(exec.Stop() * 1e6);
  *seconds = query.Stop();
  return result;
}

/// Checks one answer and folds it into the pass digest and layer stats.
void CheckAnswer(const snapq::Result<QueryResult>& result, bool snapshot,
                 PassRecord& rec, bool lossless) {
  g_checks.Expect(result.ok(), "query failed");
  if (!result.ok()) return;
  const QueryResult& r = *result;
  rec.Mix(r.participants);
  rec.Mix(r.covered_nodes);
  rec.MixDouble(r.aggregate.value_or(-1.0));
  rec.samples[snapshot ? "query.participants_snapshot"
                       : "query.participants_regular"]
      .push_back(static_cast<double>(r.participants));
  rec.samples["query.coverage"].push_back(r.coverage);
  g_checks.Expect(r.participants >= r.responders &&
                      r.covered_nodes <= r.matching_nodes,
                  "query accounting inconsistent");
  // A regular query that covered every matching node must return the
  // aggregate over their true readings.
  if (lossless && !snapshot && r.coverage == 1.0 && r.aggregate &&
      r.true_aggregate) {
    const double tol = 1e-9 * std::max(1.0, std::fabs(*r.true_aggregate));
    g_checks.Expect(std::fabs(*r.aggregate - *r.true_aggregate) <= tol,
                    "full-coverage regular aggregate differs from truth");
  }
}

/// Advances one maintenance interval: per-tick data updates plus a
/// maintenance round that may re-elect.
MaintenanceRoundStats Advance(Deployment& d) {
  SensorNetwork& net = d.net();
  const Time t0 = net.now() + 1;
  d.ScheduleFeed(t0, t0 + kRoundInterval);
  MaintenanceRoundStats stats;
  bool settled = false;
  net.ScheduleMaintenance(t0, t0 + 1, kRoundInterval,
                          [&](const MaintenanceRoundStats& s) {
                            stats = s;
                            settled = true;
                          });
  net.RunUntil(t0 + kRoundInterval - 1);
  g_checks.Expect(settled, "maintenance round did not settle");
  return stats;
}

void RecordRound(PassRecord& rec, const MaintenanceRoundStats& s,
                 int index) {
  const std::string key = "round" + std::to_string(index);
  rec.stats[key + ".snapshot_size"] = static_cast<double>(s.snapshot_size);
  rec.stats[key + ".spurious"] = static_cast<double>(s.num_spurious);
  rec.values["snapshot.spurious"] += static_cast<double>(s.num_spurious);
}

/// The lifecycle: 10 training ticks, a global election, then `rounds`
/// maintenance rounds one interval apart. With `sample`, telemetry is
/// sampled after training, after the election and after every round.
/// Returns the host time spent inside RunUntil/RunElection.
double DriveLifecycle(Deployment& d, PassRecord& rec, int rounds,
                      bool sample, double base_kb) {
  SensorNetwork& net = d.net();
  const size_t n = net.num_nodes();
  const bool lossless = net.config().loss_probability == 0.0;
  double run_s = 0.0;

  Timed lifecycle("lifecycle");
  MetricsSnapshot mark = net.sim().metrics().Snapshot();
  {
    Timed train("train");
    net.RunUntil(kTrainingTicks);
    run_s += train.Stop();
  }
  const MetricsSnapshot train_delta = net.sim().metrics().Delta(mark);
  RecordTraffic(rec, "train", train_delta);
  rec.values["sim.train_s"] = run_s;
  rec.values["sim.train_deliveries"] = static_cast<double>(
      train_delta.total_delivered + TotalSnooped(train_delta));
  rec.values["mem.kb_per_node.train"] =
      (RssKb() - base_kb) / static_cast<double>(n);
  if (sample) SampleTelemetry(net, rec);

  mark = net.sim().metrics().Snapshot();
  ElectionStats election;
  {
    Timed elect("elect");
    election = net.RunElection(kTrainingTicks);
    const double s = elect.Stop();
    run_s += s;
    rec.values["snapshot.elect_s"] = s;
  }
  RecordTraffic(rec, "elect", net.sim().metrics().Delta(mark));
  RecordElection(rec, election, n, lossless);
  rec.values["snapshot.active_fraction"] =
      static_cast<double>(election.num_active) / static_cast<double>(n);
  rec.values["snapshot.elect_msgs_per_node"] = election.avg_messages_per_node;
  rec.values["snapshot.elect_msgs_per_node_max"] =
      election.max_messages_per_node;
  rec.values["mem.kb_per_node.elect"] =
      (RssKb() - base_kb) / static_cast<double>(n);
  if (sample) SampleTelemetry(net, rec);

  mark = net.sim().metrics().Snapshot();
  for (int r = 0; r < rounds; ++r) {
    Timed round("maintain.round");
    const MaintenanceRoundStats s = Advance(d);
    const double seconds = round.Stop();
    run_s += seconds;
    rec.samples["advance_ms"].push_back(seconds * 1e3);
    RecordRound(rec, s, r);
    if (sample) SampleTelemetry(net, rec);
  }
  rec.values["lifecycle_s"] = lifecycle.Stop();
  if (rounds > 0) RecordTraffic(rec, "maintain", net.sim().metrics().Delta(mark));
  return run_s;
}

/// The closed loop of one client: each step waits for its answer. Write
/// steps advance one maintenance interval instead of querying.
void RunSteps(Deployment& d, const std::vector<QueryStep>& steps,
              PassRecord& rec, int first_round) {
  SensorNetwork& net = d.net();
  const bool lossless = net.config().loss_probability == 0.0;
  const MetricsSnapshot mark = net.sim().metrics().Snapshot();
  const Clock::time_point start = Clock::now();
  int round = first_round;
  for (const QueryStep& step : steps) {
    if (step.write) {
      Timed advance("advance");
      const MaintenanceRoundStats s = Advance(d);
      rec.samples["advance_ms"].push_back(advance.Stop() * 1e3);
      RecordRound(rec, s, round++);
      continue;
    }
    double seconds = 0.0;
    const auto result = RunQuery(net, step.sql, rec, step.snapshot, &seconds);
    rec.samples["query_us"].push_back(seconds * 1e6);
    CheckAnswer(result, step.snapshot, rec, lossless);
  }
  const double phase_s =
      std::chrono::duration<double>(Clock::now() - start).count();
  RecordTraffic(rec, "steps", net.sim().metrics().Delta(mark));
  rec.values["queries_per_s"] =
      static_cast<double>(rec.samples["query_us"].size()) / phase_s;
}

struct Inputs {
  std::vector<QueryStep> steps;
  std::vector<std::string> paired_regions;
  std::vector<std::string> error_tiles;
};

/// The modelled metrics, taken outside any timed window. They are exact for
/// a seed, so only the first pass of a run takes them.
///  * snapshot_participation: USE SNAPSHOT participants over regular ones,
///    summed over the 81 0.2-wide regions on a 0.1 grid, each answered
///    both ways;
///  * snapshot_error: median relative error of the USE SNAPSHOT average
///    against the true one over the 400 disjoint 0.05-wide tiles (many
///    independent regions keep the median steady across deployments).
void ModelledMetrics(SensorNetwork& net, const Inputs& in, PassRecord& rec) {
  const auto run = [&net](const std::string& rect, bool snapshot) {
    const auto result = net.Query(
        "SELECT avg(value) FROM sensors WHERE loc IN " + rect +
        (snapshot ? " USE SNAPSHOT" : ""));
    g_checks.Expect(result.ok(), "modelled-metric query failed");
    return result;
  };
  double snap_participants = 0.0, regular_participants = 0.0;
  for (const std::string& rect : in.paired_regions) {
    const auto regular = run(rect, false);
    const auto snap = run(rect, true);
    if (!regular.ok() || !snap.ok()) continue;
    regular_participants += static_cast<double>(regular->participants);
    snap_participants += static_cast<double>(snap->participants);
  }
  rec.modelled["snapshot_participation"] =
      snap_participants / regular_participants;
  std::vector<double> errors;
  for (const std::string& rect : in.error_tiles) {
    const auto snap = run(rect, true);
    if (snap.ok() && snap->aggregate && snap->true_aggregate) {
      errors.push_back(std::fabs(*snap->aggregate - *snap->true_aggregate) /
                       std::fabs(*snap->true_aggregate));
    }
  }
  g_checks.Expect(!errors.empty(), "no snapshot answers for the error tiles");
  std::sort(errors.begin(), errors.end());
  rec.modelled["snapshot_error"] =
      errors.empty() ? 0.0
                     : (errors[(errors.size() - 1) / 2] +
                        errors[errors.size() / 2]) /
                           2.0;
}

/// Schedules the data feed through the election window (Advance feeds the
/// later ticks) and the training broadcasts.
void ScheduleInputs(Deployment& d) {
  d.ScheduleFeed(0, kTrainingTicks + kElectionSlack);
  d.net().ScheduleTrainingBroadcasts(0, kTrainingTicks);
}

/// One pass: set-up, the lifecycle, the query steps and the paired
/// queries; traced passes then probe the layers the pass did not time.
void RunPass(const Workload& w, uint64_t seed, const Inputs& in,
             bool first_pass, PassRecord& rec) {
  const size_t n = w.nodes;
  const int rounds = w.query_mix ? 0 : kLifecycleRounds;
  snapq::obs::Profiler* prof = snapq::obs::Profiler::Active();
  const uint64_t fits0 =
      prof ? prof->count(snapq::obs::HotOp::kModelFits) : 0;
  const double base_kb = RssKb();
  std::unique_ptr<Deployment> d;
  double lifecycle_run_s = 0.0;
  MetricsSnapshot pass_start;
  {
    Timed setup("setup");
    d = std::make_unique<Deployment>(w, seed, w.monitors);
    pass_start = d->net().sim().metrics().Snapshot();
    ScheduleInputs(*d);
    rec.values["mem.kb_per_node.build"] =
        (RssKb() - base_kb) / static_cast<double>(n);
    // query_mix is trained and elected during set-up.
    if (w.query_mix) {
      lifecycle_run_s = DriveLifecycle(*d, rec, 0, false, base_kb);
    }
    rec.values["setup_s"] = setup.Stop();
  }
  if (!w.query_mix) {
    lifecycle_run_s = DriveLifecycle(*d, rec, rounds, w.monitors, base_kb);
  }
  rec.values["api.build_s"] = d->build_s();
  SensorNetwork& net = d->net();
  RunSteps(*d, in.steps, rec, rounds);
  if (first_pass) ModelledMetrics(net, in, rec);
  CheckEnergyConservation(net);
  RecordTraffic(rec, "pass", net.sim().metrics().Delta(pass_start));
  rec.values["data.feed_s"] = d->feed_s();
  rec.values["data.feed_ticks"] = static_cast<double>(d->feed_ticks());
  rec.values["model.cache_ops"] =
      static_cast<double>(net.sim().metrics().cache_ops());
  if (prof != nullptr) {
    rec.values["model.fits"] = static_cast<double>(
        prof->count(snapq::obs::HotOp::kModelFits) - fits0);
  }
  if (!rec.traced) return;

  MeasureLinkBuild(net, rec);
  ProbeRouting(net, rec);
  if (w.monitors) {
    ProbeTopology(net, rec);
    rec.values["obs.dropped_spans"] =
        static_cast<double>(net.tracer()->dropped_spans());
    // Hook overhead: the same deployment with no monitors, driven through
    // the same calls without sampling. The simulation must not notice the
    // monitors, so its statistics are compared too. The twin is timed but
    // not traced, so the pass's spans describe the observed deployment.
    d.reset();
    g_spans.set_enabled(false);
    PassRecord bare;
    Deployment twin(w, seed, false);
    ScheduleInputs(twin);
    const double bare_run_s = DriveLifecycle(twin, bare, rounds, false, RssKb());
    g_spans.set_enabled(true);
    rec.values["obs.hook_overhead"] = lifecycle_run_s / bare_run_s;
    for (const auto& [key, value] : bare.stats) {
      const auto it = rec.stats.find(key);
      g_checks.Expect(it != rec.stats.end() && it->second == value,
                      "monitors changed simulated statistic " + key);
    }
    return;
  }
  // Monitors are off in this workload: measure what turning them on costs
  // here — one interval bare, then one with every monitor on — and the
  // telemetry samples that ride it.
  double bare_s = 0.0, observed_s = 0.0;
  {
    Timed advance("bare.advance");
    Advance(*d);
    bare_s = advance.Stop();
  }
  d->EnableMonitors();
  {
    Timed advance("observed.advance");
    Advance(*d);
    observed_s = advance.Stop();
  }
  rec.values["obs.hook_overhead"] = observed_s / bare_s;
  SampleTelemetry(net, rec);
  ProbeTopology(net, rec);
  rec.values["obs.dropped_spans"] =
      static_cast<double>(net.tracer()->dropped_spans());
}

// ---------------------------------------------------------------------------
// Raw record output.

class JsonOut {
 public:
  explicit JsonOut(std::FILE* f) : f_(f) {}
  void Raw(const char* s) { std::fputs(s, f_); }
  void Num(double v) {
    if (std::isfinite(v)) {
      std::fprintf(f_, "%.17g", v);
    } else {
      std::fputs("null", f_);
    }
  }
  void Str(const std::string& s) {
    std::fputc('"', f_);
    for (char c : s) {
      if (c == '"' || c == '\\') std::fputc('\\', f_);
      if (static_cast<unsigned char>(c) < 0x20) {
        std::fprintf(f_, "\\u%04x", c);
        continue;
      }
      std::fputc(c, f_);
    }
    std::fputc('"', f_);
  }
  void Map(const std::map<std::string, double>& m) {
    Raw("{");
    bool first = true;
    for (const auto& [k, v] : m) {
      if (!first) Raw(",");
      first = false;
      Str(k);
      Raw(":");
      Num(v);
    }
    Raw("}");
  }

 private:
  std::FILE* f_;
};

bool WriteRecord(const std::string& path, const Workload& w, uint64_t seed,
                 bool trace, const std::vector<PassRecord>& passes) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  JsonOut out(f);
  out.Raw("{\"workload\":");
  out.Str(w.name);
  out.Raw(",\"seed\":");
  out.Num(static_cast<double>(seed));
  out.Raw(",\"nodes\":");
  out.Num(static_cast<double>(w.nodes));
  out.Raw(trace ? ",\"trace\":true" : ",\"trace\":false");
  char run_id[64];
  std::snprintf(run_id, sizeof(run_id), "%s-%llu-%ld", w.name,
                static_cast<unsigned long long>(seed),
                static_cast<long>(getpid()));
  out.Raw(",\"run_id\":");
  out.Str(run_id);
  out.Raw(",\"checks\":{\"attempted\":");
  out.Num(static_cast<double>(g_checks.attempted));
  out.Raw(",\"failed\":");
  out.Num(static_cast<double>(g_checks.failed));
  out.Raw(",\"failures\":[");
  for (size_t i = 0; i < g_checks.failures.size(); ++i) {
    if (i > 0) out.Raw(",");
    out.Str(g_checks.failures[i]);
  }
  out.Raw("]},\"passes\":[");
  for (size_t p = 0; p < passes.size(); ++p) {
    const PassRecord& rec = passes[p];
    if (p > 0) out.Raw(",");
    out.Raw(rec.traced ? "{\"traced\":true" : "{\"traced\":false");
    char digest[32];
    std::snprintf(digest, sizeof(digest), "%016llx",
                  static_cast<unsigned long long>(rec.digest));
    out.Raw(",\"digest\":");
    out.Str(digest);
    out.Raw(",\"values\":");
    out.Map(rec.values);
    out.Raw(",\"stats\":");
    out.Map(rec.stats);
    out.Raw(",\"modelled\":");
    out.Map(rec.modelled);
    out.Raw(",\"samples\":{");
    bool first = true;
    for (const auto& [name, values] : rec.samples) {
      if (!first) out.Raw(",");
      first = false;
      out.Str(name);
      out.Raw(":[");
      for (size_t i = 0; i < values.size(); ++i) {
        if (i > 0) out.Raw(",");
        out.Num(values[i]);
      }
      out.Raw("]");
    }
    out.Raw("}}");
  }
  out.Raw("],\"spans\":[");
  const std::vector<Span>& spans = g_spans.spans();
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (i > 0) out.Raw(",");
    std::fprintf(f, "[%zu,%d,%d,\"%s\",%.3f,%.3f]", i, s.parent, s.pass,
                 s.name, s.start_us, s.end_us);
  }
  out.Raw("]}\n");
  return std::fclose(f) == 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: snapq_perfbench --workload lifecycle|query_mix|"
               "observed_lifecycle --seed N --seconds S --trace 0|1 "
               "--out PATH\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, out;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      workload = value;
    } else if (key == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      trace = std::strcmp(value, "1") == 0;
    } else if (key == "--out") {
      out = value;
    } else {
      return Usage();
    }
  }
  const Workload* w = nullptr;
  for (const Workload& candidate : kWorkloads) {
    if (workload == candidate.name) w = &candidate;
  }
  if (w == nullptr || out.empty() || !(seconds > 0.0)) return Usage();

  Inputs inputs;
  inputs.steps = MakeSteps(seed, w->steps, w->write_every);
  inputs.paired_regions = GridRegions(9, 0.1, 0.2);
  inputs.error_tiles = GridRegions(20, 0.05, 0.05);

  // Untraced runs: at least two passes. Traced runs alternate untraced and
  // traced passes and end on a traced one.
  const Clock::time_point start = Clock::now();
  std::vector<PassRecord> passes;
  for (int pass = 0;; ++pass) {
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - start).count();
    // p99 needs at least 10 samples beyond it.
    size_t queries = 0;
    for (const PassRecord& p : passes) {
      if (!p.traced) queries += p.samples.at("query_us").size();
    }
    const bool enough =
        passes.size() >= 2 && elapsed >= seconds && (trace || queries >= 1000);
    if (enough && (!trace || passes.back().traced)) break;
    PassRecord rec;
    rec.traced = trace && pass % 2 == 1;
    g_spans.StartPass(pass, rec.traced);
    // The model-fit counter lives in the process-wide profiler, switched
    // on for traced passes only.
    if (rec.traced) snapq::obs::Profiler::Enable();
    RunPass(*w, seed, inputs, passes.empty(), rec);
    snapq::obs::Profiler::Disable();
    // The process peak so far; run.py reads the first pass's, which does
    // not depend on how many passes fit in the run.
    rec.values["peak_rss_kb"] = PeakRssKb();
    for (const auto& [key, value] : rec.stats) rec.MixDouble(value);
    std::fprintf(stderr, "pass %d%s: setup %.3f s, lifecycle %.3f s\n", pass,
                 rec.traced ? " (traced)" : "", rec.values["setup_s"],
                 rec.values["lifecycle_s"]);
    passes.push_back(std::move(rec));
  }
  if (!WriteRecord(out, *w, seed, trace, passes)) {
    std::fprintf(stderr, "cannot write %s\n", out.c_str());
    return 1;
  }
  return 0;
}
