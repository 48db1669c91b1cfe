/**
 * @file
 * Tests for the vector-database engine layer: segmentation, trace
 * shapes, I/O patterns, quantization effects, and the cost model.
 */

#include <gtest/gtest.h>


#include "distance/recall.hh"
#include "engine/cost_model.hh"
#include "engine/lance_like.hh"
#include "engine/milvus_like.hh"
#include "engine/qdrant_like.hh"
#include "engine/weaviate_like.hh"
#include "test_util.hh"
#include "workload/generator.hh"

namespace ann {
namespace {

using engine::MilvusIndexKind;
using engine::MilvusLikeEngine;
using engine::SearchSettings;
using workload::Dataset;
using workload::GeneratorSpec;

/** Shared small dataset + scratch cache dir for all engine tests. */
class EngineFixture : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        cacheDir_ = new testutil::TempDir("engine_test_cache");
        GeneratorSpec spec;
        spec.name = "engine-test";
        spec.rows = 13000; // > 2 Milvus segments at scale 1
        spec.dim = 16;
        spec.num_queries = 40;
        spec.clusters = 12;
        spec.gt_k = 10;
        spec.seed = 7;
        data_ = new Dataset(generateDataset(spec));
    }
    static void
    TearDownTestSuite()
    {
        delete data_;
        delete cacheDir_;
        data_ = nullptr;
        cacheDir_ = nullptr;
    }

    double
    meanRecall(engine::VectorDbEngine &eng,
               const SearchSettings &settings) const
    {
        double acc = 0.0;
        for (std::size_t q = 0; q < data_->num_queries; ++q) {
            const auto out = eng.search(data_->query(q), settings);
            acc += recallAtK(data_->ground_truth[q], out.results,
                             settings.k);
        }
        return acc / static_cast<double>(data_->num_queries);
    }

    static Dataset *data_;
    static testutil::TempDir *cacheDir_;
};

Dataset *EngineFixture::data_ = nullptr;
testutil::TempDir *EngineFixture::cacheDir_ = nullptr;

TEST_F(EngineFixture, MilvusSegmentsDataset)
{
    MilvusLikeEngine eng(MilvusIndexKind::Ivf);
    eng.prepare(*data_, cacheDir_->path());
    // 13000 rows / 6000-row segments -> 3 segments.
    EXPECT_EQ(eng.numSegments(), 3u);
}

TEST_F(EngineFixture, MilvusIvfSearchesAcrossSegments)
{
    MilvusLikeEngine eng(MilvusIndexKind::Ivf);
    eng.prepare(*data_, cacheDir_->path());
    SearchSettings settings;
    settings.nprobe = 20;
    const auto out = eng.search(data_->query(0), settings);
    ASSERT_EQ(out.results.size(), 10u);
    // Ids must be global (any segment), unique, within range.
    for (const Neighbor &n : out.results)
        EXPECT_LT(n.id, data_->rows);
    EXPECT_EQ(out.trace.parallel_chains.size(), 3u);
    EXPECT_GT(meanRecall(eng, settings), 0.85);
}

TEST_F(EngineFixture, MilvusHnswTraceIsMemoryOnly)
{
    MilvusLikeEngine eng(MilvusIndexKind::Hnsw);
    eng.prepare(*data_, cacheDir_->path());
    SearchSettings settings;
    settings.ef_search = 50;
    const auto out = eng.search(data_->query(1), settings);
    EXPECT_EQ(out.trace.totalReadSectors(), 0u);
    EXPECT_GT(out.trace.totalCpuNs(), 0u);
    EXPECT_GT(meanRecall(eng, settings), 0.9);
}

TEST_F(EngineFixture, MilvusDiskAnnIssues4KiBReads)
{
    MilvusLikeEngine eng(MilvusIndexKind::DiskAnn);
    eng.prepare(*data_, cacheDir_->path());
    SearchSettings settings;
    settings.search_list = 20;
    settings.beam_width = 4;
    const auto out = eng.search(data_->query(2), settings);
    EXPECT_GT(out.trace.totalReadSectors(), 0u);
    // Direct-I/O path: every request is a single sector (O-15).
    for (const auto &chain : out.trace.parallel_chains)
        for (const auto &step : chain)
            for (const SectorRead &read : step.reads)
                EXPECT_EQ(read.count, 1u);
    EXPECT_GT(meanRecall(eng, settings), 0.85);
}

TEST_F(EngineFixture, MilvusDiskAnnSegmentsUseDisjointSectors)
{
    MilvusLikeEngine eng(MilvusIndexKind::DiskAnn);
    eng.prepare(*data_, cacheDir_->path());
    SearchSettings settings;
    settings.search_list = 20;
    const auto out = eng.search(data_->query(3), settings);
    ASSERT_EQ(out.trace.parallel_chains.size(), 3u);

    // Chains must touch non-overlapping sector ranges.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> ranges;
    for (const auto &chain : out.trace.parallel_chains) {
        std::uint64_t lo = ~0ULL, hi = 0;
        for (const auto &step : chain) {
            for (const SectorRead &read : step.reads) {
                lo = std::min(lo, read.sector);
                hi = std::max(hi, read.sector);
            }
        }
        ranges.push_back({lo, hi});
    }
    std::sort(ranges.begin(), ranges.end());
    for (std::size_t i = 1; i < ranges.size(); ++i)
        EXPECT_GT(ranges[i].first, ranges[i - 1].second);
    EXPECT_LT(ranges.back().second, eng.diskSectors());
}

TEST_F(EngineFixture, MilvusDiskAnnMemoryIsCompressed)
{
    MilvusLikeEngine eng(MilvusIndexKind::DiskAnn);
    eng.prepare(*data_, cacheDir_->path());
    // PQ in memory must be far smaller than the raw vectors.
    EXPECT_LT(eng.memoryBytes(), data_->baseBytes() / 2);
    EXPECT_GT(eng.diskSectors(), 0u);
}

TEST_F(EngineFixture, MilvusIoGrowsWithSegments)
{
    // More data (more segments) -> proportionally more I/O per query
    // (the paper's O-14 mechanism).
    MilvusLikeEngine eng(MilvusIndexKind::DiskAnn);
    eng.prepare(*data_, cacheDir_->path());
    SearchSettings settings;
    settings.search_list = 10;

    GeneratorSpec spec;
    spec.name = "engine-test-small";
    spec.rows = 4000; // 1 segment
    spec.dim = 16;
    spec.num_queries = 10;
    spec.clusters = 12;
    spec.gt_k = 10;
    spec.seed = 8;
    Dataset small = generateDataset(spec);
    MilvusLikeEngine small_eng(MilvusIndexKind::DiskAnn);
    small_eng.prepare(small, cacheDir_->path());

    const auto big_out = eng.search(data_->query(0), settings);
    const auto small_out = small_eng.search(small.query(0), settings);
    EXPECT_GT(big_out.trace.totalReadSectors(),
              2 * small_out.trace.totalReadSectors());
}

TEST_F(EngineFixture, QdrantAndWeaviateShareTheSameGraph)
{
    engine::QdrantLikeEngine qdrant;
    engine::WeaviateLikeEngine weaviate;
    qdrant.prepare(*data_, cacheDir_->path());
    weaviate.prepare(*data_, cacheDir_->path()); // loads the cached build
    SearchSettings settings;
    settings.ef_search = 40;
    for (std::size_t q = 0; q < 10; ++q) {
        const auto a = qdrant.search(data_->query(q), settings);
        const auto b = weaviate.search(data_->query(q), settings);
        EXPECT_EQ(a.results, b.results);
    }
    // Same algorithmic work, different modelled cost.
    const auto qa = qdrant.search(data_->query(0), settings);
    const auto wa = weaviate.search(data_->query(0), settings);
    EXPECT_GT(wa.trace.totalCpuNs(), qa.trace.totalCpuNs());
}

TEST_F(EngineFixture, WeaviateHasHighestFixedOverhead)
{
    engine::WeaviateLikeEngine weaviate;
    engine::QdrantLikeEngine qdrant;
    MilvusLikeEngine milvus(MilvusIndexKind::Hnsw);
    EXPECT_GT(weaviate.profile().proxy_cpu_ns,
              qdrant.profile().proxy_cpu_ns);
    EXPECT_GT(qdrant.profile().proxy_cpu_ns,
              milvus.profile().proxy_cpu_ns);
}

TEST_F(EngineFixture, LanceHnswSqUsesQuantizationAndHasOomLimit)
{
    engine::LanceHnswSqEngine lance;
    lance.prepare(*data_, cacheDir_->path());
    EXPECT_EQ(lance.profile().max_client_threads, 128u);
    EXPECT_FALSE(lance.profile().storage_based);
    // SQ stores one byte per dimension instead of a 4-byte float, so
    // the SQ engine is smaller than the plain-HNSW engines (the graph
    // links are identical).
    engine::QdrantLikeEngine plain;
    plain.prepare(*data_, cacheDir_->path());
    EXPECT_LT(lance.memoryBytes(),
              plain.memoryBytes() -
                  data_->baseBytes() * 3 / 4 + 4096);

    SearchSettings settings;
    settings.ef_search = 60;
    EXPECT_GT(meanRecall(lance, settings), 0.8);
}

TEST_F(EngineFixture, LanceIvfPqReadsProbedLists)
{
    engine::LanceIvfPqEngine lance;
    lance.prepare(*data_, cacheDir_->path());
    EXPECT_TRUE(lance.profile().storage_based);
    EXPECT_FALSE(lance.profile().direct_io); // buffered (page cache)

    SearchSettings settings;
    settings.nprobe = 7;
    const auto out = lance.search(data_->query(0), settings);
    // One batch of reads covering the 7 probed lists.
    std::size_t read_runs = 0;
    for (const auto &chain : out.trace.parallel_chains)
        for (const auto &step : chain)
            read_runs += step.reads.size();
    EXPECT_EQ(read_runs, 7u);
    EXPECT_GT(lance.diskSectors(), 0u);
}

TEST_F(EngineFixture, PreparedEnginesReloadFromCache)
{
    MilvusLikeEngine first(MilvusIndexKind::Ivf);
    first.prepare(*data_, cacheDir_->path());
    MilvusLikeEngine second(MilvusIndexKind::Ivf);
    second.prepare(*data_, cacheDir_->path()); // must hit the cache
    SearchSettings settings;
    settings.nprobe = 10;
    for (std::size_t q = 0; q < 5; ++q)
        EXPECT_EQ(first.search(data_->query(q), settings).results,
                  second.search(data_->query(q), settings).results);
}

TEST(CostModelTest, MonotoneInOps)
{
    engine::CostModel model;
    OpCounts few, many;
    few.full_distances = 10;
    many.full_distances = 1000;
    EXPECT_LT(model.cpuNs(few), model.cpuNs(many));
}

TEST(CostModelTest, DimMultiplierScalesKernelWork)
{
    engine::CostModel base, scaled;
    scaled.dim_multiplier = 6.0;
    OpCounts ops;
    ops.full_distances = 100;
    EXPECT_NEAR(static_cast<double>(scaled.cpuNs(ops)),
                6.0 * static_cast<double>(base.cpuNs(ops)),
                static_cast<double>(base.cpuNs(ops)) * 0.01 + 2);
}

TEST(CostModelTest, EngineScaleAppliesToEverything)
{
    engine::CostModel base, slow;
    slow.engine_scale = 2.0;
    OpCounts ops;
    ops.full_distances = 50;
    ops.heap_ops = 100;
    ops.hops = 10;
    EXPECT_NEAR(static_cast<double>(slow.cpuNs(ops)),
                2.0 * static_cast<double>(base.cpuNs(ops)), 2.0);
}

TEST(CostModelTest, PaperDimsResolve)
{
    EXPECT_EQ(engine::paperDimForDataset("cohere-1m"), 768u);
    EXPECT_EQ(engine::paperDimForDataset("openai-5m"), 1536u);
    EXPECT_EQ(engine::paperDimForDataset("custom"), 0u);
}

TEST(QueryTraceTest, Accounting)
{
    engine::QueryTrace trace;
    trace.serial_cpu_ns = 100;
    trace.prologue.push_back({50, {}});
    trace.parallel_chains.push_back(
        {{200, {{1, 1}, {5, 2}}}, {100, {}}});
    trace.parallel_chains.push_back({{300, {{9, 1}}}});
    trace.epilogue.push_back({25, {}});
    EXPECT_EQ(trace.totalCpuNs(), 775u);
    EXPECT_EQ(trace.totalReadSectors(), 4u);
    EXPECT_EQ(trace.totalReadBytes(), 4u * 4096u);
    EXPECT_EQ(trace.ioBatches(), 2u);
}

} // namespace
} // namespace ann
