// Unit tests for the topology & churn observatory (src/obs/topo.h):
// LinkObserver bookkeeping and overflow, AnalyzeTopology on hand-built
// placements (partitions, bridges, articulation, cluster radius/depth)
// and against a whole-graph reference on seeded random views,
// ChurnTracker sweep differencing, and TopologyMonitor gauge publishing.
#include "obs/topo.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/geometry.h"
#include "common/rng.h"
#include "net/link_model.h"
#include "obs/journal.h"
#include "obs/metric_registry.h"

namespace snapq {
namespace {

// ---------------------------------------------------------------------------
// LinkObserver

TEST(LinkObserverTest, RecordsOutcomesAndEwma) {
  obs::LinkObserver observer(4);
  EXPECT_EQ(observer.capacity(), 12u);  // 4*3 ordered pairs
  observer.RecordDelivery(0, 1, 10);
  const obs::LinkStats* link = observer.Find(0, 1);
  ASSERT_NE(link, nullptr);
  EXPECT_EQ(link->deliveries, 1u);
  EXPECT_EQ(link->attempts(), 1u);
  EXPECT_DOUBLE_EQ(link->ewma_delivery, 1.0);  // first outcome seeds
  EXPECT_EQ(link->last_activity, 10);

  observer.RecordLoss(0, 1, 11);
  EXPECT_EQ(link->losses, 1u);
  EXPECT_EQ(link->attempts(), 2u);
  EXPECT_DOUBLE_EQ(link->ewma_delivery, 1.0 - obs::kLinkEwmaAlpha);
  EXPECT_EQ(link->last_activity, 11);

  // Snoops count separately and do not move the delivery EWMA.
  observer.RecordSnoop(0, 1, 12);
  EXPECT_EQ(link->snoops, 1u);
  EXPECT_EQ(link->attempts(), 2u);
  EXPECT_DOUBLE_EQ(link->ewma_delivery, 1.0 - obs::kLinkEwmaAlpha);

  // A link whose first outcome is a loss seeds the EWMA at 0.
  observer.RecordLoss(1, 0, 13);
  ASSERT_NE(observer.Find(1, 0), nullptr);
  EXPECT_DOUBLE_EQ(observer.Find(1, 0)->ewma_delivery, 0.0);

  EXPECT_EQ(observer.num_links(), 2u);
  EXPECT_EQ(observer.Find(2, 3), nullptr);
  EXPECT_EQ(observer.dropped_records(), 0u);
}

TEST(LinkObserverTest, SortedLinksOrderedByFromThenTo) {
  obs::LinkObserver observer(5);
  observer.RecordDelivery(3, 1, 1);
  observer.RecordDelivery(0, 4, 2);
  observer.RecordDelivery(0, 2, 3);
  observer.RecordDelivery(3, 0, 4);
  const std::vector<obs::LinkStats> links = observer.SortedLinks();
  ASSERT_EQ(links.size(), 4u);
  EXPECT_EQ(links[0].from, 0u);
  EXPECT_EQ(links[0].to, 2u);
  EXPECT_EQ(links[1].from, 0u);
  EXPECT_EQ(links[1].to, 4u);
  EXPECT_EQ(links[2].from, 3u);
  EXPECT_EQ(links[2].to, 0u);
  EXPECT_EQ(links[3].from, 3u);
  EXPECT_EQ(links[3].to, 1u);
}

TEST(LinkObserverTest, CapacityOverflowCountsDroppedRecords) {
  obs::LinkObserver observer(100, /*max_links=*/2);
  observer.RecordDelivery(0, 1, 1);
  observer.RecordDelivery(0, 2, 1);
  observer.RecordDelivery(0, 3, 1);  // table full: dropped
  observer.RecordLoss(0, 4, 2);      // dropped too
  observer.RecordDelivery(0, 1, 3);  // existing link still updates
  EXPECT_EQ(observer.num_links(), 2u);
  EXPECT_EQ(observer.dropped_records(), 2u);
  EXPECT_EQ(observer.Find(0, 3), nullptr);
  EXPECT_EQ(observer.Find(0, 1)->deliveries, 2u);
}

TEST(LinkObserverTest, CountWeakLinksHonorsThresholdAndMinAttempts) {
  obs::LinkObserver observer(4);
  // Link (0,1): 10 losses -> ewma 0, attempts 10: weak.
  for (int i = 0; i < 10; ++i) observer.RecordLoss(0, 1, i);
  // Link (0,2): 10 deliveries -> ewma 1: strong.
  for (int i = 0; i < 10; ++i) observer.RecordDelivery(0, 2, i);
  // Link (0,3): 2 losses -> too few attempts to call.
  observer.RecordLoss(0, 3, 0);
  observer.RecordLoss(0, 3, 1);
  EXPECT_EQ(observer.CountWeakLinks(0.5, 8), 1u);
  EXPECT_EQ(observer.CountWeakLinks(0.5, 2), 2u);
}

// ---------------------------------------------------------------------------
// AnalyzeTopology

/// A LinkModel with uniform `range` over `positions` and no loss.
LinkModel MakeLinks(std::vector<Point> positions, double range) {
  const size_t n = positions.size();
  return LinkModel(std::move(positions), std::vector<double>(n, range), 0.0);
}

/// A fully-live, unclustered view sized for `n` nodes.
obs::ClusterView LiveView(size_t n) {
  obs::ClusterView view;
  view.Resize(n);
  return view;
}

TEST(AnalyzeTopologyTest, DetectsPartitionsAndComponentIds) {
  // Two pairs far apart: {0,1} and {2,3}.
  const LinkModel links =
      MakeLinks({{0.0, 0.0}, {0.1, 0.0}, {5.0, 0.0}, {5.1, 0.0}}, 0.2);
  const obs::TopologySnapshot snap =
      obs::AnalyzeTopology(links, LiveView(4), 7);
  EXPECT_EQ(snap.t, 7);
  EXPECT_EQ(snap.num_live, 4u);
  EXPECT_EQ(snap.partitions, 2u);
  // Component ids ascend with their lowest member id.
  EXPECT_EQ(snap.component[0], 0);
  EXPECT_EQ(snap.component[1], 0);
  EXPECT_EQ(snap.component[2], 1);
  EXPECT_EQ(snap.component[3], 1);
  EXPECT_EQ(snap.isolated, 0u);
  EXPECT_DOUBLE_EQ(snap.avg_degree, 1.0);
}

TEST(AnalyzeTopologyTest, FindsBridgesAndArticulationOnAPath) {
  // Path 0 - 1 - 2: both edges are bridges, node 1 is the articulation.
  const LinkModel links =
      MakeLinks({{0.0, 0.0}, {1.0, 0.0}, {2.0, 0.0}}, 1.1);
  const obs::TopologySnapshot snap =
      obs::AnalyzeTopology(links, LiveView(3), 0);
  EXPECT_EQ(snap.partitions, 1u);
  ASSERT_EQ(snap.bridges.size(), 2u);
  EXPECT_EQ(snap.bridges[0], (std::pair<NodeId, NodeId>{0, 1}));
  EXPECT_EQ(snap.bridges[1], (std::pair<NodeId, NodeId>{1, 2}));
  ASSERT_EQ(snap.articulation.size(), 1u);
  EXPECT_EQ(snap.articulation[0], 1u);
  EXPECT_EQ(snap.degree[1], 2u);
  EXPECT_EQ(snap.max_degree, 2u);
}

TEST(AnalyzeTopologyTest, TriangleHasNoCutStructure) {
  const LinkModel links =
      MakeLinks({{0.0, 0.0}, {1.0, 0.0}, {0.5, 0.8}}, 1.1);
  const obs::TopologySnapshot snap =
      obs::AnalyzeTopology(links, LiveView(3), 0);
  EXPECT_EQ(snap.partitions, 1u);
  EXPECT_TRUE(snap.bridges.empty());
  EXPECT_TRUE(snap.articulation.empty());
}

TEST(AnalyzeTopologyTest, AsymmetricRangeStillConnectsEitherDirection) {
  // Node 0 can reach node 1 but not vice versa; the undirected closure
  // (LinkModel::IsConnected's relation) still links them.
  LinkModel links({{0.0, 0.0}, {1.0, 0.0}}, {1.5, 0.1}, 0.0);
  const obs::TopologySnapshot snap =
      obs::AnalyzeTopology(links, LiveView(2), 0);
  EXPECT_EQ(snap.partitions, 1u);
  EXPECT_EQ(snap.degree[0], 1u);
  EXPECT_EQ(snap.degree[1], 1u);
}

TEST(AnalyzeTopologyTest, DeadNodeSplitsThePathAndIsExcluded) {
  obs::ClusterView view = LiveView(3);
  view.alive[1] = 0;  // the articulation node dies
  const LinkModel links =
      MakeLinks({{0.0, 0.0}, {1.0, 0.0}, {2.0, 0.0}}, 1.1);
  const obs::TopologySnapshot snap = obs::AnalyzeTopology(links, view, 0);
  EXPECT_EQ(snap.num_live, 2u);
  EXPECT_EQ(snap.partitions, 2u);
  EXPECT_EQ(snap.component[1], -1);
  EXPECT_EQ(snap.degree[1], 0u);
  EXPECT_EQ(snap.isolated, 2u);  // 0 and 2 lost their only neighbor
}

TEST(AnalyzeTopologyTest, ClusterRadiusAndDepth) {
  // Chain 0 - 1 - 2 - 3, rep 0 represents everyone.
  obs::ClusterView view = LiveView(4);
  view.is_rep[0] = 1;
  for (NodeId i = 0; i < 4; ++i) view.representative[i] = 0;
  const LinkModel links = MakeLinks(
      {{0.0, 0.0}, {1.0, 0.0}, {2.0, 0.0}, {3.0, 0.0}}, 1.1);
  const obs::TopologySnapshot snap = obs::AnalyzeTopology(links, view, 0);
  ASSERT_EQ(snap.clusters.size(), 1u);
  EXPECT_EQ(snap.clusters[0].rep, 0u);
  EXPECT_EQ(snap.clusters[0].size, 4u);
  EXPECT_DOUBLE_EQ(snap.clusters[0].radius, 3.0);
  EXPECT_EQ(snap.clusters[0].depth, 3);
}

TEST(AnalyzeTopologyTest, UnreachableMemberMarksClusterBroken) {
  // Rep 0 claims node 2, but node 2 sits in another component.
  obs::ClusterView view = LiveView(3);
  view.is_rep[0] = 1;
  view.representative[1] = 0;
  view.representative[2] = 0;
  const LinkModel links =
      MakeLinks({{0.0, 0.0}, {0.5, 0.0}, {9.0, 0.0}}, 1.0);
  const obs::TopologySnapshot snap = obs::AnalyzeTopology(links, view, 0);
  ASSERT_EQ(snap.clusters.size(), 1u);
  EXPECT_EQ(snap.clusters[0].size, 3u);
  EXPECT_EQ(snap.clusters[0].depth, -1);
  EXPECT_DOUBLE_EQ(snap.clusters[0].radius, 9.0);
}

TEST(AnalyzeTopologyTest, EmptyViewDefaultsToAllAliveUnclustered) {
  const LinkModel links = MakeLinks({{0.0, 0.0}, {0.5, 0.0}}, 1.0);
  const obs::TopologySnapshot snap =
      obs::AnalyzeTopology(links, obs::ClusterView{}, 3);
  EXPECT_EQ(snap.num_live, 2u);
  EXPECT_EQ(snap.partitions, 1u);
  EXPECT_TRUE(snap.clusters.empty());
  EXPECT_EQ(snap.representative[1], 1u);
}

// ---------------------------------------------------------------------------
// AnalyzeTopology equivalence with a straightforward reference

/// The whole-graph reference the analyzer must match field for field: a
/// per-node adjacency vector, bridges and articulation nodes by brute
/// force, and per representative a BFS over its whole component followed
/// by a scan of all n nodes for its members.
obs::TopologySnapshot ReferenceAnalyzeTopology(const LinkModel& links,
                                               const obs::ClusterView& view,
                                               Time now) {
  const size_t n = links.num_nodes();
  obs::TopologySnapshot snap;
  snap.t = now;
  snap.num_nodes = n;
  snap.alive = view.alive.size() == n ? view.alive
                                      : std::vector<uint8_t>(n, 1);
  snap.representative.resize(n);
  for (NodeId i = 0; i < n; ++i) {
    snap.representative[i] =
        view.representative.size() == n ? view.representative[i] : i;
  }
  std::vector<uint8_t> is_rep(n, 0);
  if (view.is_rep.size() == n) is_rep = view.is_rep;

  std::vector<std::vector<NodeId>> adj(n);
  for (NodeId u = 0; u < n; ++u) {
    if (!snap.alive[u]) continue;
    for (NodeId v : links.Reachable(u)) {
      if (!snap.alive[v]) continue;
      adj[u].push_back(v);
      adj[v].push_back(u);
    }
  }
  for (auto& list : adj) {
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
  }

  snap.degree.assign(n, 0);
  uint64_t degree_sum = 0;
  for (NodeId i = 0; i < n; ++i) {
    if (!snap.alive[i]) continue;
    ++snap.num_live;
    snap.degree[i] = static_cast<uint32_t>(adj[i].size());
    degree_sum += snap.degree[i];
    snap.max_degree = std::max<size_t>(snap.max_degree, snap.degree[i]);
    if (snap.degree[i] == 0) ++snap.isolated;
  }
  snap.avg_degree = snap.num_live == 0
                        ? 0.0
                        : static_cast<double>(degree_sum) /
                              static_cast<double>(snap.num_live);

  snap.component.assign(n, -1);
  std::vector<NodeId> queue;
  for (NodeId i = 0; i < n; ++i) {
    if (!snap.alive[i] || snap.component[i] >= 0) continue;
    const int32_t id = static_cast<int32_t>(snap.partitions++);
    snap.component[i] = id;
    queue.assign(1, i);
    for (size_t head = 0; head < queue.size(); ++head) {
      for (NodeId next : adj[queue[head]]) {
        if (snap.component[next] >= 0) continue;
        snap.component[next] = id;
        queue.push_back(next);
      }
    }
  }

  // Cut structure by brute force: an edge is a bridge (a node an
  // articulation point) iff removing it raises the component count.
  const auto count_components = [&](NodeId skip_node, NodeId a, NodeId b) {
    std::vector<uint8_t> seen(n, 0);
    size_t count = 0;
    for (NodeId i = 0; i < n; ++i) {
      if (!snap.alive[i] || seen[i] || i == skip_node) continue;
      ++count;
      seen[i] = 1;
      queue.assign(1, i);
      for (size_t head = 0; head < queue.size(); ++head) {
        const NodeId u = queue[head];
        for (NodeId v : adj[u]) {
          if (seen[v] || v == skip_node) continue;
          if ((u == a && v == b) || (u == b && v == a)) continue;
          seen[v] = 1;
          queue.push_back(v);
        }
      }
    }
    return count;
  };
  for (NodeId u = 0; u < n; ++u) {
    if (!snap.alive[u]) continue;
    if (count_components(u, kInvalidNode, kInvalidNode) >
        snap.partitions - (adj[u].empty() ? 1 : 0)) {
      snap.articulation.push_back(u);
    }
    for (NodeId v : adj[u]) {
      if (u < v && count_components(kInvalidNode, u, v) > snap.partitions) {
        snap.bridges.emplace_back(u, v);
      }
    }
  }

  std::vector<int64_t> dist(n);
  for (NodeId rep = 0; rep < n; ++rep) {
    if (!snap.alive[rep] || !is_rep[rep]) continue;
    obs::ClusterTopoStats stats;
    stats.rep = rep;
    dist.assign(n, -1);
    dist[rep] = 0;
    queue.assign(1, rep);
    for (size_t head = 0; head < queue.size(); ++head) {
      const NodeId u = queue[head];
      for (NodeId next : adj[u]) {
        if (dist[next] >= 0) continue;
        dist[next] = dist[u] + 1;
        queue.push_back(next);
      }
    }
    for (NodeId j = 0; j < n; ++j) {
      if (!snap.alive[j]) continue;
      if (j != rep && snap.representative[j] != rep) continue;
      ++stats.size;
      stats.radius = std::max(
          stats.radius, Distance(links.position(rep), links.position(j)));
      if (stats.depth >= 0) {
        stats.depth = dist[j] < 0 ? -1 : std::max(stats.depth, dist[j]);
      }
    }
    snap.clusters.push_back(stats);
  }
  return snap;
}

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

void ExpectSameSnapshot(const obs::TopologySnapshot& got,
                        const obs::TopologySnapshot& want) {
  EXPECT_EQ(got.t, want.t);
  EXPECT_EQ(got.num_nodes, want.num_nodes);
  EXPECT_EQ(got.num_live, want.num_live);
  EXPECT_EQ(got.partitions, want.partitions);
  EXPECT_EQ(got.isolated, want.isolated);
  EXPECT_EQ(Bits(got.avg_degree), Bits(want.avg_degree));
  EXPECT_EQ(got.max_degree, want.max_degree);
  EXPECT_EQ(got.weak_links, want.weak_links);
  EXPECT_EQ(got.degree, want.degree);
  EXPECT_EQ(got.component, want.component);
  EXPECT_EQ(got.representative, want.representative);
  EXPECT_EQ(got.alive, want.alive);
  EXPECT_EQ(got.bridges, want.bridges);
  EXPECT_EQ(got.articulation, want.articulation);
  ASSERT_EQ(got.clusters.size(), want.clusters.size());
  for (size_t c = 0; c < got.clusters.size(); ++c) {
    SCOPED_TRACE("cluster " + std::to_string(c));
    EXPECT_EQ(got.clusters[c].rep, want.clusters[c].rep);
    EXPECT_EQ(got.clusters[c].size, want.clusters[c].size);
    EXPECT_EQ(Bits(got.clusters[c].radius), Bits(want.clusters[c].radius));
    EXPECT_EQ(got.clusters[c].depth, want.clusters[c].depth);
  }
}

/// Picks uniformly among `ids`, or returns `fallback` when it is empty.
NodeId PickOne(const std::vector<NodeId>& ids, NodeId fallback, Rng& rng) {
  if (ids.empty()) return fallback;
  return ids[static_cast<size_t>(
      rng.UniformInt(0, static_cast<int64_t>(ids.size()) - 1))];
}

TEST(AnalyzeTopologyTest, MatchesWholeGraphReferenceOnRandomViews) {
  constexpr int kCases = 320;
  size_t broken = 0, deep = 0, split = 0, with_bridges = 0;
  size_t dead_refs = 0, non_rep_refs = 0, invalid_refs = 0;
  for (int seed = 0; seed < kCases; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(static_cast<uint64_t>(seed));
    const size_t n = static_cast<size_t>(rng.UniformInt(1, 120));
    std::vector<Point> positions(n);
    std::vector<double> ranges(n);
    for (size_t i = 0; i < n; ++i) {
      positions[i] = {rng.NextDouble(), rng.NextDouble()};
      ranges[i] = rng.UniformDouble(0.05, 0.35);  // asymmetric links
    }
    LinkModel links(positions, ranges, 0.0);
    if (seed % 4 == 0) {  // a mobility move: some rows live in the overlay
      links.SetPosition(static_cast<NodeId>(rng.UniformInt(
                            0, static_cast<int64_t>(n) - 1)),
                        {rng.NextDouble(), rng.NextDouble()});
    }

    obs::ClusterView view;
    view.Resize(n);
    std::vector<NodeId> reps, dead, non_reps;
    for (NodeId i = 0; i < n; ++i) {
      view.alive[i] = rng.Bernoulli(0.9);
      view.is_rep[i] = rng.Bernoulli(0.26);
      (view.is_rep[i] ? reps : non_reps).push_back(i);
      if (!view.alive[i]) dead.push_back(i);
    }
    for (NodeId j = 0; j < n; ++j) {
      if (view.is_rep[j] && rng.Bernoulli(0.9)) continue;  // names itself
      std::vector<NodeId> near_reps;
      for (NodeId v : links.Reachable(j)) {
        if (view.is_rep[v]) near_reps.push_back(v);
      }
      const double kind = rng.NextDouble();
      NodeId r = j;
      if (kind < 0.35) {
        r = PickOne(near_reps, j, rng);  // a rep in range
      } else if (kind < 0.65) {
        r = PickOne(reps, j, rng);  // hops away, maybe another component
      } else if (kind < 0.75) {
        r = PickOne(non_reps, j, rng);
        if (r != j) ++non_rep_refs;
      } else if (kind < 0.85) {
        r = PickOne(dead, j, rng);
        if (r != j) ++dead_refs;
      } else if (kind < 0.92) {
        r = kInvalidNode;
        ++invalid_refs;
      }
      view.representative[j] = r;
    }
    // A partially filled view falls back to its defaults.
    if (seed % 25 == 1) view.alive.clear();
    if (seed % 25 == 2) view.is_rep.clear();
    if (seed % 25 == 3) view.representative.clear();

    const obs::TopologySnapshot got = obs::AnalyzeTopology(links, view, seed);
    const obs::TopologySnapshot want =
        ReferenceAnalyzeTopology(links, view, seed);
    ExpectSameSnapshot(got, want);
    for (const obs::ClusterTopoStats& c : want.clusters) {
      if (c.depth < 0) ++broken;
      if (c.depth >= 2) ++deep;
    }
    if (want.partitions > 1) ++split;
    if (!want.bridges.empty()) ++with_bridges;
  }
  // The seeds must have exercised every shape the generator aims for.
  EXPECT_GT(broken, 0u);
  EXPECT_GT(deep, 0u);
  EXPECT_GT(split, 0u);
  EXPECT_GT(with_bridges, 0u);
  EXPECT_GT(dead_refs, 0u);
  EXPECT_GT(non_rep_refs, 0u);
  EXPECT_GT(invalid_refs, 0u);
}

// ---------------------------------------------------------------------------
// ChurnTracker

TEST(ChurnTrackerTest, FirstSweepCountsElectionsButNotFlaps) {
  obs::MetricRegistry registry;
  obs::ChurnTracker churn(3, /*grid=*/1, &registry);
  const LinkModel links =
      MakeLinks({{0.0, 0.0}, {1.0, 0.0}, {2.0, 0.0}}, 5.0);
  obs::ClusterView view = LiveView(3);
  view.is_rep[0] = 1;
  view.representative[1] = 0;
  view.representative[2] = 0;
  churn.Observe(view, links, 10);
  EXPECT_EQ(churn.elections_total(), 1u);
  EXPECT_EQ(churn.flaps_total(), 0u);  // no previous sweep to differ from
  EXPECT_DOUBLE_EQ(churn.election_rate(), 1.0);
  EXPECT_EQ(registry.GetCounter("churn.elections")->value(), 1u);

  // Steady state: same view again, nothing moves.
  churn.Observe(view, links, 20);
  EXPECT_EQ(churn.elections_total(), 1u);
  EXPECT_EQ(churn.flaps_total(), 0u);
  EXPECT_DOUBLE_EQ(churn.election_rate(), 0.0);
}

TEST(ChurnTrackerTest, FlapAndTenureOnRepresentativeChange) {
  obs::MetricRegistry registry;
  obs::ChurnTracker churn(3, 1, &registry);
  const LinkModel links =
      MakeLinks({{0.0, 0.0}, {1.0, 0.0}, {2.0, 0.0}}, 5.0);
  obs::ClusterView view = LiveView(3);
  view.is_rep[0] = 1;
  view.representative[1] = 0;
  view.representative[2] = 0;
  churn.Observe(view, links, 0);
  // Ongoing tenure stands in for the p50 while nothing completed.
  churn.Observe(view, links, 40);
  EXPECT_DOUBLE_EQ(churn.tenure_p50(), 40.0);

  // Node 2 takes over: node 0 resigns, members repoint.
  view.is_rep[0] = 0;
  view.is_rep[2] = 1;
  view.representative[0] = 2;
  view.representative[1] = 2;
  view.representative[2] = 2;
  churn.Observe(view, links, 100);
  // All three nodes changed representative (0 -> 2).
  EXPECT_EQ(churn.flaps_total(), 3u);
  EXPECT_DOUBLE_EQ(churn.flap_rate(), 3.0);
  EXPECT_EQ(churn.elections_total(), 2u);
  EXPECT_EQ(churn.completed_tenures(), 1u);
  // Node 0 held the role for the full 100 ticks; the p50 now comes from
  // the completed-tenure histogram (log-bucketed, so approximate).
  EXPECT_GT(churn.tenure_p50(), 50.0);
  EXPECT_EQ(registry.GetCounter("churn.tenures_completed")->value(), 1u);
}

TEST(ChurnTrackerTest, DeadNodesNeitherFlapNorComplete) {
  obs::MetricRegistry registry;
  obs::ChurnTracker churn(2, 1, &registry);
  const LinkModel links = MakeLinks({{0.0, 0.0}, {1.0, 0.0}}, 5.0);
  obs::ClusterView view = LiveView(2);
  view.is_rep[0] = 1;
  view.representative[1] = 0;
  churn.Observe(view, links, 0);
  view.alive[1] = 0;
  view.representative[1] = 1;  // stale self-pointer on a dead node
  churn.Observe(view, links, 10);
  EXPECT_EQ(churn.flaps_total(), 0u);

  // The rep dying completes its tenure.
  view.alive[0] = 0;
  view.is_rep[0] = 0;
  churn.Observe(view, links, 20);
  EXPECT_EQ(churn.completed_tenures(), 1u);
}

TEST(ChurnTrackerTest, RegionElectionsBucketByPosition) {
  obs::MetricRegistry registry;
  obs::ChurnTracker churn(4, /*grid=*/2, &registry);
  // One node per quadrant of the unit square.
  const LinkModel links = MakeLinks(
      {{0.1, 0.1}, {0.9, 0.1}, {0.1, 0.9}, {0.9, 0.9}}, 5.0);
  obs::ClusterView view = LiveView(4);
  view.is_rep[0] = 1;  // bottom-left cell 0
  view.is_rep[3] = 1;  // top-right cell 3
  churn.Observe(view, links, 0);
  EXPECT_EQ(churn.RegionElections(0), 1u);
  EXPECT_EQ(churn.RegionElections(1), 0u);
  EXPECT_EQ(churn.RegionElections(2), 0u);
  EXPECT_EQ(churn.RegionElections(3), 1u);
  EXPECT_EQ(
      registry.GetCounter("churn.region_elections", /*node=*/0)->value(), 1u);
}

// ---------------------------------------------------------------------------
// TopologyMonitor

TEST(TopologyMonitorTest, SamplePublishesGaugesAndJournalEvent) {
  obs::MetricRegistry registry;
  obs::EventJournal journal;
  auto* sink = static_cast<obs::MemoryJournalSink*>(
      journal.SetSink(std::make_unique<obs::MemoryJournalSink>()));
  obs::TopologyMonitor monitor(obs::TopologyConfig{}, 3, &registry,
                               &journal);
  const LinkModel links =
      MakeLinks({{0.0, 0.0}, {1.0, 0.0}, {2.0, 0.0}}, 1.1);
  obs::ClusterView& view = monitor.mutable_view();
  view.is_rep[1] = 1;
  view.representative[0] = 1;
  view.representative[2] = 1;

  // Feed the observer one weak link (>= 8 addressed outcomes, all lost).
  for (int i = 0; i < 10; ++i) {
    monitor.link_observer().RecordLoss(0, 1, i);
  }
  const obs::TopologySnapshot& snap = monitor.Sample(links, 50);
  EXPECT_EQ(snap.partitions, 1u);
  EXPECT_EQ(snap.weak_links, 1u);
  EXPECT_EQ(monitor.num_samples(), 1u);

  EXPECT_DOUBLE_EQ(registry.GetGauge("topo.partitions")->value(), 1.0);
  EXPECT_DOUBLE_EQ(registry.GetGauge("topo.bridges")->value(), 2.0);
  EXPECT_DOUBLE_EQ(registry.GetGauge("topo.articulation_nodes")->value(),
                   1.0);
  EXPECT_DOUBLE_EQ(registry.GetGauge("topo.isolated_nodes")->value(), 0.0);
  EXPECT_DOUBLE_EQ(registry.GetGauge("topo.weak_links")->value(), 1.0);
  EXPECT_DOUBLE_EQ(registry.GetGauge("topo.live_nodes")->value(), 3.0);
  EXPECT_DOUBLE_EQ(registry.GetGauge("topo.links_observed")->value(), 1.0);
  EXPECT_DOUBLE_EQ(registry.GetGauge("churn.election_rate")->value(), 1.0);
  EXPECT_EQ(registry.GetCounter("topo.samples")->value(), 1u);

  ASSERT_EQ(sink->lines().size(), 1u);
  EXPECT_NE(sink->lines()[0].find("\"event\":\"topo.sample\""),
            std::string::npos);
  EXPECT_NE(sink->lines()[0].find("\"partitions\":1"), std::string::npos);

  const std::string text = monitor.ToString();
  EXPECT_NE(text.find("partitions    1"), std::string::npos);
  EXPECT_NE(text.find("weakest links"), std::string::npos);
}

TEST(TopologyMonitorTest, ToStringBeforeFirstSample) {
  obs::MetricRegistry registry;
  obs::TopologyMonitor monitor(obs::TopologyConfig{}, 2, &registry);
  EXPECT_NE(monitor.ToString().find("no samples"), std::string::npos);
}

}  // namespace
}  // namespace snapq
