/**
 * @file
 * Tests for the paper-extension features: the SPANN-like cluster
 * storage index (SS II baseline), Milvus ingest traces and the mixed
 * read/write replay (SS VIII future work), and the Qdrant mmap
 * storage mode (SS III-C).
 */

#include <gtest/gtest.h>


#include "common/error.hh"
#include "common/serialize.hh"
#include "core/bench_runner.hh"
#include "core/replay.hh"
#include "distance/recall.hh"
#include "engine/milvus_like.hh"
#include "engine/qdrant_like.hh"
#include "index/spann_index.hh"
#include "storage/trace_analysis.hh"
#include "test_util.hh"
#include "workload/generator.hh"

namespace ann {
namespace {

using testutil::groundTruth;
using testutil::makeClusteredData;
using testutil::TestData;

class SpannFixture : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        data_ = new TestData(makeClusteredData(2000, 40, 24, 2024));
        truth_ = new std::vector<std::vector<VectorId>>(
            groundTruth(*data_, 10));
        index_ = new SpannIndex();
        SpannBuildParams params;
        params.nlist = 40;
        params.closure_epsilon = 0.15f;
        params.max_replicas = 8;
        index_->build(data_->baseView(), params);
    }
    static void
    TearDownTestSuite()
    {
        delete index_;
        delete truth_;
        delete data_;
        index_ = nullptr;
        truth_ = nullptr;
        data_ = nullptr;
    }

    static TestData *data_;
    static std::vector<std::vector<VectorId>> *truth_;
    static SpannIndex *index_;
};

TestData *SpannFixture::data_ = nullptr;
std::vector<std::vector<VectorId>> *SpannFixture::truth_ = nullptr;
SpannIndex *SpannFixture::index_ = nullptr;

TEST_F(SpannFixture, ReplicationIsBoundedAndAboveOne)
{
    const double factor = index_->replicationFactor();
    EXPECT_GT(factor, 1.0); // border vectors are replicated...
    EXPECT_LE(factor, 8.0); // ...but capped (SPANN uses 8)
}

TEST_F(SpannFixture, ListsOccupyDisjointContiguousSectors)
{
    std::uint64_t cursor = 0;
    for (std::size_t list = 0; list < index_->nlist(); ++list) {
        EXPECT_EQ(index_->listSector(list), cursor);
        EXPECT_GE(index_->listSectorCount(list), 1u);
        cursor += index_->listSectorCount(list);
    }
    EXPECT_EQ(cursor, index_->numSectors());
}

TEST_F(SpannFixture, RecallGrowsWithNprobeAndReachesTarget)
{
    auto recall_at = [&](std::size_t nprobe) {
        SpannSearchParams params;
        params.nprobe = nprobe;
        params.k = 10;
        double acc = 0.0;
        for (std::size_t q = 0; q < data_->num_queries; ++q)
            acc += recallAtK((*truth_)[q],
                             index_->search(data_->queryView().row(q),
                                            params),
                             10);
        return acc / static_cast<double>(data_->num_queries);
    };
    const double r2 = recall_at(2);
    const double r8 = recall_at(8);
    EXPECT_GE(r8 + 1e-9, r2);
    EXPECT_GT(r8, 0.9);
}

TEST_F(SpannFixture, SearchIsOneParallelIoRound)
{
    SpannSearchParams params;
    params.nprobe = 5;
    params.k = 10;
    SearchTraceRecorder recorder;
    index_->search(data_->queryView().row(0), params, &recorder);
    // Exactly one step carries reads: no I/O dependencies (the
    // contrast with DiskANN's multi-hop beams).
    std::size_t io_steps = 0, read_runs = 0;
    for (const SearchStep &step : recorder.steps()) {
        if (step.reads.empty())
            continue;
        ++io_steps;
        read_runs += step.reads.size();
    }
    EXPECT_EQ(io_steps, 1u);
    EXPECT_EQ(read_runs, 5u); // one sequential run per probed list
}

TEST_F(SpannFixture, MemoryHoldsOnlyCentroids)
{
    EXPECT_EQ(index_->memoryBytes(),
              index_->nlist() * data_->dim * sizeof(float));
    EXPECT_GT(index_->numSectors(), 0u);
}

TEST_F(SpannFixture, SaveLoadPreservesResults)
{
    const std::string path = "spann_test.bin";
    {
        BinaryWriter writer(path, "SPT", 1);
        index_->save(writer);
        writer.close();
    }
    SpannIndex loaded;
    {
        BinaryReader reader(path, "SPT", 1);
        loaded.load(reader);
    }
    SpannSearchParams params;
    params.nprobe = 4;
    for (std::size_t q = 0; q < 10; ++q) {
        const float *query = data_->queryView().row(q);
        EXPECT_EQ(index_->search(query, params),
                  loaded.search(query, params));
    }
    EXPECT_DOUBLE_EQ(loaded.replicationFactor(),
                     index_->replicationFactor());
    std::remove(path.c_str());
}

TEST_F(SpannFixture, HigherEpsilonMeansMoreReplication)
{
    SpannIndex tight, loose;
    SpannBuildParams params;
    params.nlist = 40;
    params.closure_epsilon = 0.02f;
    tight.build(data_->baseView(), params);
    params.closure_epsilon = 0.4f;
    loose.build(data_->baseView(), params);
    EXPECT_GT(loose.replicationFactor(), tight.replicationFactor());
}

class ReadWriteFixture : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        cacheDir_ = new testutil::TempDir("ext_test_cache");
        workload::GeneratorSpec spec;
        spec.name = "ext-test";
        spec.rows = 4000;
        spec.dim = 16;
        spec.num_queries = 30;
        spec.clusters = 12;
        spec.gt_k = 10;
        spec.seed = 3;
        data_ = new workload::Dataset(generateDataset(spec));
        engine_ = new engine::MilvusLikeEngine(
            engine::MilvusIndexKind::DiskAnn);
        engine_->prepare(*data_, cacheDir_->path());
        ready_ = true;
    }
    static void
    TearDownTestSuite()
    {
        delete engine_;
        delete data_;
        delete cacheDir_;
        engine_ = nullptr;
        data_ = nullptr;
        cacheDir_ = nullptr;
        ready_ = false;
    }

    /** Fail, rather than crash on null state, when the suite setup
     *  threw before it finished. */
    void
    SetUp() override
    {
        ASSERT_TRUE(ready_) << "read/write suite setup did not finish";
    }

    static workload::Dataset *data_;
    static engine::MilvusLikeEngine *engine_;
    static testutil::TempDir *cacheDir_;
    static bool ready_;
};

workload::Dataset *ReadWriteFixture::data_ = nullptr;
engine::MilvusLikeEngine *ReadWriteFixture::engine_ = nullptr;
testutil::TempDir *ReadWriteFixture::cacheDir_ = nullptr;
bool ReadWriteFixture::ready_ = false;

TEST_F(ReadWriteFixture, IngestTraceHasWritesAndCpu)
{
    const auto trace = engine_->buildIngestTrace(500);
    EXPECT_GT(trace.totalWriteSectors(), 0u);
    EXPECT_EQ(trace.totalReadSectors(), 0u);
    EXPECT_GT(trace.totalCpuNs(), 0u);
    // 2x write amplification over the raw node count.
    const std::size_t nps =
        4096 / (16 * 4 + 4 + 64 * 4); // dim 16, R 64
    EXPECT_EQ(trace.totalWriteSectors(),
              2 * ((500 + nps - 1) / nps));
}

TEST_F(ReadWriteFixture, IngestTracesAdvanceTheLog)
{
    const auto a = engine_->buildIngestTrace(100);
    const auto b = engine_->buildIngestTrace(100);
    const auto &wa = a.parallel_chains[0][0].writes[0];
    const auto &wb = b.parallel_chains[0][0].writes[0];
    EXPECT_NE(wa.sector, wb.sector);
}

TEST_F(ReadWriteFixture, IngestRejectedOnNonDiskAnnKinds)
{
    engine::MilvusLikeEngine hnsw(engine::MilvusIndexKind::Hnsw);
    hnsw.prepare(*data_, cacheDir_->path());
    EXPECT_THROW(hnsw.buildIngestTrace(10), FatalError);
}

TEST_F(ReadWriteFixture, MixedReplayShowsReadWriteInterference)
{
    engine::SearchSettings settings;
    settings.search_list = 15;
    const auto workload =
        core::buildWorkloadTraces(*engine_, *data_, settings);

    std::vector<engine::QueryTrace> ingest;
    for (int i = 0; i < 8; ++i)
        ingest.push_back(engine_->buildIngestTrace(2000));

    core::ReplayConfig config;
    config.client_threads = 8;
    config.duration_ns = 500'000'000;
    config.num_cores = 8;
    config.cpu_jitter = 0.0;

    const auto quiet = core::replayMixedWorkload(
        workload.traces, ingest, 0, engine_->profile(), config);
    const auto busy = core::replayMixedWorkload(
        workload.traces, ingest, 8, engine_->profile(), config);

    EXPECT_EQ(quiet.write_bytes, 0u);
    EXPECT_GT(busy.write_bytes, 0u);
    EXPECT_GT(busy.ingest_completed, 0u);
    // NAND read-write interference: search latency degrades and
    // throughput drops when writes share the device.
    EXPECT_GT(busy.p99_latency_us, quiet.p99_latency_us);
    EXPECT_LT(busy.qps, quiet.qps);
}

TEST(MmapModeTest, ResidentCacheMatchesMemoryResults)
{
    const testutil::TempDir cache_dir("ext_mmap_cache");
    workload::GeneratorSpec spec;
    spec.name = "mmap-test";
    spec.rows = 3000;
    spec.dim = 16;
    spec.num_queries = 20;
    spec.clusters = 10;
    spec.gt_k = 10;
    spec.seed = 4;
    const auto data = generateDataset(spec);

    engine::QdrantLikeEngine memory_mode(false);
    engine::QdrantLikeEngine mmap_mode(true, 1 << 16);
    memory_mode.prepare(data, cache_dir.path());
    mmap_mode.prepare(data, cache_dir.path());

    engine::SearchSettings settings;
    settings.ef_search = 40;
    // Identical result sets (same graph), different I/O behaviour.
    for (std::size_t q = 0; q < 10; ++q) {
        const auto a = memory_mode.search(data.query(q), settings);
        const auto b = mmap_mode.search(data.query(q), settings);
        EXPECT_EQ(a.results, b.results);
        EXPECT_EQ(a.trace.totalReadSectors(), 0u);
        EXPECT_GT(b.trace.totalReadSectors(), 0u);
    }
    EXPECT_TRUE(mmap_mode.profile().storage_based);
    EXPECT_FALSE(mmap_mode.profile().direct_io);
    EXPECT_GT(mmap_mode.diskSectors(), 0u);
}

TEST(MmapModeTest, DependentFaultsAreSequentialSteps)
{
    workload::GeneratorSpec spec;
    spec.name = "mmap-test2";
    spec.rows = 2000;
    spec.dim = 16;
    spec.num_queries = 5;
    spec.clusters = 8;
    spec.gt_k = 10;
    spec.seed = 5;
    const auto data = generateDataset(spec);
    const testutil::TempDir cache_dir("ext_mmap_cache2");
    engine::QdrantLikeEngine mmap_mode(true);
    mmap_mode.prepare(data, cache_dir.path());

    engine::SearchSettings settings;
    settings.ef_search = 30;
    const auto out = mmap_mode.search(data.query(0), settings);
    // Page faults are dependent: one sector per step, never beams.
    const auto &chain = out.trace.parallel_chains.at(0);
    EXPECT_GT(chain.size(), 10u);
    for (const auto &step : chain) {
        EXPECT_LE(step.reads.size(), 1u);
        if (!step.reads.empty())
            EXPECT_EQ(step.reads[0].count, 1u);
    }
}

} // namespace
} // namespace ann
