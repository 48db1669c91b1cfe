/**
 * @file
 * Tests for the distributed serving subsystem: shard maps (parsing,
 * partitioning, slicing), partial top-k merging, and a real loopback
 * cluster behind RouterEngine (merge correctness against client-side
 * merging, overload relay, replica failover + rejoin, hedging against
 * an injected straggler).
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <thread>
#include <vector>

#include "common/error.hh"
#include "dist/router.hh"
#include "dist/topology.hh"
#include "distance/recall.hh"
#include "engine/milvus_like.hh"
#include "serve/client.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "test_util.hh"
#include "workload/generator.hh"

namespace ann {
namespace {

using dist::Endpoint;
using dist::RouterConfig;
using dist::RouterEngine;
using dist::ShardSpec;
using dist::Topology;
using engine::MilvusIndexKind;
using engine::MilvusLikeEngine;
using engine::SearchSettings;
using workload::Dataset;
using workload::GeneratorSpec;

// ------------------------------------------------------- topology

TEST(TopologyTest, EndpointParsing)
{
    Endpoint e;
    ASSERT_TRUE(dist::parseEndpoint("10.0.0.1:7654", &e));
    EXPECT_EQ(e.host, "10.0.0.1");
    EXPECT_EQ(e.port, 7654);
    ASSERT_TRUE(dist::parseEndpoint(":7000", &e));
    EXPECT_EQ(e.host, "127.0.0.1");
    EXPECT_EQ(e.port, 7000);
    EXPECT_FALSE(dist::parseEndpoint("no-port", &e));
    EXPECT_FALSE(dist::parseEndpoint("h:99999", &e));
    EXPECT_FALSE(dist::parseEndpoint("h:", &e));
}

TEST(TopologyTest, SpecParsingAndFileRoundTrip)
{
    const Topology topology = dist::parseTopologySpec(
        "router@127.0.0.1:7600;:7601,:7611;:7602,:7612");
    EXPECT_EQ(topology.router.port, 7600);
    ASSERT_EQ(topology.numShards(), 2u);
    ASSERT_EQ(topology.numReplicas(0), 2u);
    EXPECT_EQ(topology.numBackends(), 4u);
    EXPECT_EQ(topology.shards[1][1].port, 7612);

    const std::string path = "./dist_test_topology.topo";
    dist::saveTopologyFile(topology, path);
    const Topology loaded = dist::loadTopologyFile(path);
    std::filesystem::remove(path);
    ASSERT_EQ(loaded.numShards(), topology.numShards());
    EXPECT_EQ(loaded.router, topology.router);
    for (std::size_t s = 0; s < topology.numShards(); ++s)
        EXPECT_EQ(loaded.shards[s], topology.shards[s]);
}

TEST(TopologyTest, MalformedSpecsThrow)
{
    EXPECT_THROW(dist::parseTopologySpec(""), FatalError);
    EXPECT_THROW(dist::parseTopologySpec("router@:1"), FatalError);
    EXPECT_THROW(dist::parseTopologySpec(":1;,"), FatalError);
    EXPECT_THROW(dist::parseTopologySpec("bad"), FatalError);
    // Duplicate concrete endpoints serve two shards — misconfigured.
    EXPECT_THROW(dist::parseTopologySpec(":7601;:7601"), FatalError);
}

TEST(TopologyTest, ShardRangePartitionsExactly)
{
    for (const std::size_t rows : {1u, 7u, 100u, 101u, 4096u}) {
        for (const std::size_t shards : {1u, 2u, 3u, 7u}) {
            if (shards > rows)
                continue;
            std::size_t covered = 0;
            std::size_t prev_end = 0;
            for (std::size_t s = 0; s < shards; ++s) {
                const auto range = dist::shardRange(rows, s, shards);
                EXPECT_EQ(range.begin, prev_end);
                EXPECT_GT(range.size(), 0u);
                // Slices differ in size by at most one row.
                EXPECT_LE(range.size(), rows / shards + 1);
                EXPECT_GE(range.size(), rows / shards);
                covered += range.size();
                prev_end = range.end;
            }
            EXPECT_EQ(covered, rows);
            EXPECT_EQ(prev_end, rows);
        }
    }
}

TEST(TopologyTest, ShardSpecParsing)
{
    ShardSpec spec;
    ASSERT_TRUE(dist::parseShardSpec("2/4", &spec));
    EXPECT_EQ(spec.index, 2u);
    EXPECT_EQ(spec.count, 4u);
    EXPECT_FALSE(dist::parseShardSpec("4/4", &spec));
    EXPECT_FALSE(dist::parseShardSpec("1", &spec));
    EXPECT_FALSE(dist::parseShardSpec("a/b", &spec));
    EXPECT_FALSE(dist::parseShardSpec("1/0", &spec));
}

TEST(TopologyTest, ShardSliceTakesContiguousRows)
{
    GeneratorSpec gen;
    gen.name = "slice-test";
    gen.rows = 103;
    gen.dim = 4;
    gen.num_queries = 5;
    gen.gt_k = 3;
    const Dataset dataset = generateDataset(gen);

    const ShardSpec spec{1, 3};
    const Dataset slice = dist::shardSlice(dataset, spec);
    const auto range = dist::shardRange(dataset.rows, 1, 3);
    EXPECT_EQ(slice.rows, range.size());
    EXPECT_EQ(slice.dim, dataset.dim);
    EXPECT_EQ(slice.name, "slice-test-s1of3");
    EXPECT_EQ(slice.num_queries, dataset.num_queries);
    EXPECT_EQ(slice.gt_k, 0u); // global gt is meaningless on a slice
    for (std::size_t r = 0; r < slice.rows; ++r)
        for (std::size_t d = 0; d < slice.dim; ++d)
            EXPECT_EQ(slice.base[r * slice.dim + d],
                      dataset.base[(range.begin + r) * dataset.dim + d]);
}

// -------------------------------------------------- partial merging

TEST(MergePartialsTest, MergesAscendingAcrossShards)
{
    const std::vector<SearchResult> partials = {
        {{10, 0.1f}, {11, 0.4f}, {12, 0.9f}},
        {{20, 0.2f}, {21, 0.3f}},
        {},
    };
    const SearchResult merged = dist::mergePartials(partials, 4);
    ASSERT_EQ(merged.size(), 4u);
    EXPECT_EQ(merged[0].id, 10u);
    EXPECT_EQ(merged[1].id, 20u);
    EXPECT_EQ(merged[2].id, 21u);
    EXPECT_EQ(merged[3].id, 11u);
    for (std::size_t i = 1; i < merged.size(); ++i)
        EXPECT_LE(merged[i - 1].distance, merged[i].distance);
}

TEST(MergePartialsTest, DuplicateIdsKeepFirstOccurrence)
{
    // Replayed/overlapping partials must not let one vector occupy
    // two of the k result slots.
    const std::vector<SearchResult> partials = {
        {{5, 0.10f}, {6, 0.20f}},
        {{5, 0.10f}, {7, 0.15f}, {6, 0.20f}},
    };
    const SearchResult merged = dist::mergePartials(partials, 10);
    ASSERT_EQ(merged.size(), 3u);
    EXPECT_EQ(merged[0].id, 5u);
    EXPECT_EQ(merged[1].id, 7u);
    EXPECT_EQ(merged[2].id, 6u);
}

TEST(MergePartialsTest, BoundsResultToK)
{
    std::vector<SearchResult> partials(3);
    for (std::size_t s = 0; s < partials.size(); ++s)
        for (std::size_t i = 0; i < 8; ++i)
            partials[s].push_back(
                {static_cast<VectorId>(s * 100 + i),
                 static_cast<float>(s) + 0.1f * static_cast<float>(i)});
    const SearchResult merged = dist::mergePartials(partials, 5);
    ASSERT_EQ(merged.size(), 5u);
    // All five come from the first (closest) shard's list.
    for (const Neighbor &n : merged)
        EXPECT_LT(n.id, 100u);
}

// ------------------------------------------------- loopback cluster

/**
 * Dataset + per-shard engines shared by every cluster test; servers
 * are cheap and started per test (their configs differ). Replicas of
 * one shard serve the same prepared engine instance — real replica
 * processes build identical indexes from the same slice.
 */
class ClusterFixture : public ::testing::Test
{
  protected:
    static constexpr std::size_t kShards = 2;

    static void
    SetUpTestSuite()
    {
        cacheDir_ = new testutil::TempDir("dist_test_cache");
        GeneratorSpec spec;
        spec.name = "dist-test";
        spec.rows = 3000;
        spec.dim = 16;
        spec.num_queries = 40;
        spec.clusters = 10;
        spec.gt_k = 10;
        spec.seed = 23;
        data_ = new Dataset(generateDataset(spec));
        full_ = new MilvusLikeEngine(MilvusIndexKind::Hnsw);
        full_->prepare(*data_, cacheDir_->path());
        shardEngines_ = new std::vector<std::unique_ptr<
            MilvusLikeEngine>>();
        for (std::size_t s = 0; s < kShards; ++s) {
            const Dataset slice =
                dist::shardSlice(*data_, ShardSpec{s, kShards});
            auto engine = std::make_unique<MilvusLikeEngine>(
                MilvusIndexKind::Hnsw);
            engine->prepare(slice, cacheDir_->path());
            shardEngines_->push_back(std::move(engine));
        }
    }

    static void
    TearDownTestSuite()
    {
        delete shardEngines_;
        delete full_;
        delete data_;
        delete cacheDir_;
        shardEngines_ = nullptr;
        full_ = nullptr;
        data_ = nullptr;
        cacheDir_ = nullptr;
    }

    /** Fail, rather than crash on null state, when the suite setup
     *  threw before it finished. */
    void
    SetUp() override
    {
        ASSERT_TRUE(shardEngines_ != nullptr &&
                    shardEngines_->size() == kShards)
            << "cluster suite setup did not finish";
    }

    struct Cluster
    {
        /** servers[s][r] fronts shard s (replicas share the engine). */
        std::vector<std::vector<std::unique_ptr<serve::AnnServer>>>
            servers;
        Topology topology;
    };

    /**
     * Start @p replicas servers per shard on ephemeral ports and
     * patch the real ports into the returned topology.
     * @p slow_replica if >= 0, replica at that index of every shard
     * gets every request delayed by @p slow_us (straggler injection).
     */
    static Cluster
    startCluster(std::size_t replicas, int slow_replica = -1,
                 std::uint64_t slow_us = 0)
    {
        Cluster cluster;
        cluster.topology = dist::loopbackTopology(kShards, replicas);
        cluster.servers.resize(kShards);
        for (std::size_t s = 0; s < kShards; ++s) {
            const auto range =
                dist::shardRange(data_->rows, s, kShards);
            for (std::size_t r = 0; r < replicas; ++r) {
                serve::ServerConfig config;
                config.port = 0;
                config.expected_dim = data_->dim;
                config.exec_threads = 2;
                config.id_offset = range.begin;
                if (slow_replica >= 0 &&
                    r == static_cast<std::size_t>(slow_replica)) {
                    config.slow_every = 1;
                    config.slow_us =
                        std::chrono::microseconds(slow_us);
                }
                auto server = std::make_unique<serve::AnnServer>(
                    *(*shardEngines_)[s], config);
                server->start();
                cluster.topology.shards[s][r].port = server->port();
                cluster.servers[s].push_back(std::move(server));
            }
        }
        return cluster;
    }

    static void
    stopCluster(Cluster &cluster)
    {
        for (auto &shard : cluster.servers)
            for (auto &server : shard)
                if (server->running()) {
                    server->requestStop();
                    server->waitStopped();
                }
    }

    static RouterConfig
    routerConfig(const Cluster &cluster)
    {
        RouterConfig config;
        config.topology = cluster.topology;
        config.dim = data_->dim;
        config.connect_wait_ms = 2000;
        config.request_timeout = std::chrono::milliseconds(2000);
        config.hedge = false; // tests opt in explicitly
        config.probe_interval = std::chrono::milliseconds(50);
        return config;
    }

    static SearchSettings
    settings()
    {
        SearchSettings s;
        s.k = 10;
        s.ef_search = 80;
        return s;
    }

    static Dataset *data_;
    static MilvusLikeEngine *full_;
    static std::vector<std::unique_ptr<MilvusLikeEngine>> *shardEngines_;
    static testutil::TempDir *cacheDir_;
};

Dataset *ClusterFixture::data_ = nullptr;
MilvusLikeEngine *ClusterFixture::full_ = nullptr;
std::vector<std::unique_ptr<MilvusLikeEngine>>
    *ClusterFixture::shardEngines_ = nullptr;
testutil::TempDir *ClusterFixture::cacheDir_ = nullptr;

TEST_F(ClusterFixture, RouterMergeMatchesClientSideMerge)
{
    Cluster cluster = startCluster(2);
    RouterEngine router(routerConfig(cluster));
    ASSERT_TRUE(router.waitReady(std::chrono::seconds(5)));

    // Shard-direct clients reproduce what the router must compute:
    // per-shard partials (already in global ids) merged client-side.
    std::vector<serve::AnnClient> direct(kShards);
    for (std::size_t s = 0; s < kShards; ++s)
        direct[s].connect("127.0.0.1",
                          cluster.topology.shards[s][0].port);

    for (std::size_t q = 0; q < data_->num_queries; ++q) {
        const SearchResult routed =
            router.searchLive(data_->query(q), settings());
        std::vector<SearchResult> partials(kShards);
        for (std::size_t s = 0; s < kShards; ++s) {
            const auto response = direct[s].search(
                data_->query(q), data_->dim, settings(), q);
            ASSERT_EQ(response.status, serve::Status::Ok);
            partials[s] = response.results;
        }
        const SearchResult expected =
            dist::mergePartials(partials, settings().k);
        ASSERT_EQ(routed.size(), expected.size()) << "query " << q;
        for (std::size_t i = 0; i < routed.size(); ++i) {
            EXPECT_EQ(routed[i].id, expected[i].id)
                << "query " << q << " rank " << i;
            EXPECT_FLOAT_EQ(routed[i].distance, expected[i].distance);
        }
    }
    stopCluster(cluster);
}

TEST_F(ClusterFixture, ClusterRecallTracksSingleProcess)
{
    Cluster cluster = startCluster(1);
    RouterEngine router(routerConfig(cluster));
    ASSERT_TRUE(router.waitReady(std::chrono::seconds(5)));

    double cluster_recall = 0.0;
    double single_recall = 0.0;
    for (std::size_t q = 0; q < data_->num_queries; ++q) {
        const SearchResult routed =
            router.searchLive(data_->query(q), settings());
        const SearchResult single =
            full_->searchLive(data_->query(q), settings());
        cluster_recall += recallAtK(data_->ground_truth[q], routed,
                                    settings().k);
        single_recall += recallAtK(data_->ground_truth[q], single,
                                   settings().k);
    }
    cluster_recall /= static_cast<double>(data_->num_queries);
    single_recall /= static_cast<double>(data_->num_queries);
    // Each shard searches a graph 1/N the size with the same beam
    // budget, so the sharded run must not lose recall.
    EXPECT_GE(cluster_recall, single_recall - 1e-6);
    EXPECT_GT(cluster_recall, 0.85);
    stopCluster(cluster);
}

TEST_F(ClusterFixture, DeadShardRelaysOverloaded)
{
    Cluster cluster = startCluster(1);
    RouterConfig config = routerConfig(cluster);
    RouterEngine router(config);
    ASSERT_TRUE(router.waitReady(std::chrono::seconds(5)));

    // Front the router with a stock AnnServer so the relay is
    // observable on the wire, not just as an exception.
    serve::ServerConfig front_config;
    front_config.port = 0;
    front_config.expected_dim = data_->dim;
    front_config.exec_threads = 2;
    serve::AnnServer front(router, front_config);
    front.start();
    serve::AnnClient client;
    client.connect("127.0.0.1", front.port());

    ASSERT_EQ(client.search(data_->query(0), data_->dim, settings(), 1)
                  .status,
              serve::Status::Ok);

    // Kill shard 1's only replica: the whole shard is gone, and the
    // router must shed with OVERLOADED instead of stalling or lying
    // with partial results.
    cluster.servers[1][0]->requestStop();
    cluster.servers[1][0]->waitStopped();

    serve::Status status = serve::Status::Ok;
    for (int attempt = 0; attempt < 10; ++attempt) {
        status = client
                     .search(data_->query(1), data_->dim, settings(),
                             100 + attempt)
                     .status;
        if (status == serve::Status::Overloaded)
            break;
    }
    EXPECT_EQ(status, serve::Status::Overloaded);
    EXPECT_GE(router.stats().ejections, 1u);

    front.requestStop();
    front.waitStopped();
    stopCluster(cluster);
}

TEST_F(ClusterFixture, ReplicaKillFailsOverAndRejoins)
{
    Cluster cluster = startCluster(2);
    RouterEngine router(routerConfig(cluster));
    ASSERT_TRUE(router.waitReady(std::chrono::seconds(5)));

    // Kill replica 1 of shard 0; queries keep completing through the
    // surviving replica (round-robin hits the corpse within a few
    // queries and fails over in-band).
    cluster.servers[0][1]->requestStop();
    cluster.servers[0][1]->waitStopped();
    const std::uint16_t dead_port = cluster.topology.shards[0][1].port;

    for (std::size_t q = 0; q < 10; ++q) {
        const SearchResult result =
            router.searchLive(data_->query(q), settings());
        EXPECT_EQ(result.size(), settings().k);
    }
    EXPECT_FALSE(router.healthMatrix()[0][1]);
    EXPECT_GE(router.stats().ejections, 1u);

    // Restart a server on the same endpoint: the probe thread must
    // re-admit it without any routing downtime.
    const auto range = dist::shardRange(data_->rows, 0, kShards);
    serve::ServerConfig config;
    config.port = dead_port;
    config.expected_dim = data_->dim;
    config.exec_threads = 2;
    config.id_offset = range.begin;
    serve::AnnServer reborn(*(*shardEngines_)[0], config);
    reborn.start();

    bool rejoined = false;
    for (int i = 0; i < 100 && !rejoined; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        rejoined = router.healthMatrix()[0][1];
    }
    EXPECT_TRUE(rejoined);
    EXPECT_GE(router.stats().rejoins, 1u);
    for (std::size_t q = 0; q < 10; ++q)
        EXPECT_EQ(router.searchLive(data_->query(q), settings()).size(),
                  settings().k);

    reborn.requestStop();
    reborn.waitStopped();
    stopCluster(cluster);
}

TEST_F(ClusterFixture, HedgingBeatsInjectedStraggler)
{
    // Replica 1 of each shard delays EVERY request by 40 ms; with a
    // warmed hedge delay clamped to <= 5 ms, any query routed to the
    // straggler re-sends to the fast replica and the hedge wins.
    Cluster cluster = startCluster(2, /*slow_replica=*/1,
                                   /*slow_us=*/40'000);
    RouterConfig config = routerConfig(cluster);
    config.hedge = true;
    config.hedge_quantile = 50.0;
    config.hedge_epoch_samples = 16;
    config.hedge_min_delay_us = 500;
    config.hedge_max_delay_us = 5'000;
    RouterEngine router(config);
    ASSERT_TRUE(router.waitReady(std::chrono::seconds(5)));

    for (std::size_t i = 0; i < 120; ++i) {
        const SearchResult result = router.searchLive(
            data_->query(i % data_->num_queries), settings());
        EXPECT_EQ(result.size(), settings().k);
    }
    const dist::RouterStats stats = router.stats();
    EXPECT_GT(stats.hedges_fired, 0u);
    EXPECT_GT(stats.hedge_wins, 0u);
    // Losers' replies were parked and later skipped, never mismatched.
    EXPECT_EQ(stats.routed, 120u);
    stopCluster(cluster);
}

} // namespace
} // namespace ann
