/**
 * @file
 * Tests for the Vamana graph builder and the DiskANN index: graph
 * invariants, disk layout, beam-search behaviour, recall, the I/O
 * trace instrumentation, and serialization.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <set>

#include "common/error.hh"
#include "common/serialize.hh"
#include "distance/recall.hh"
#include "index/diskann_index.hh"
#include "index/layout.hh"
#include "index/vamana.hh"
#include "storage/io_backend.hh"
#include "test_util.hh"

namespace ann {
namespace {

using testutil::groundTruth;
using testutil::makeClusteredData;
using testutil::TestData;

class VamanaFixture : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        data_ = new TestData(makeClusteredData(1500, 30, 24, 999));
        VamanaBuildParams params;
        params.max_degree = 24;
        params.build_list = 48;
        graph_ = new VamanaGraph(buildVamana(data_->baseView(), params));
    }
    static void
    TearDownTestSuite()
    {
        delete data_;
        delete graph_;
        data_ = nullptr;
        graph_ = nullptr;
    }

    static TestData *data_;
    static VamanaGraph *graph_;
};

TestData *VamanaFixture::data_ = nullptr;
VamanaGraph *VamanaFixture::graph_ = nullptr;

TEST_F(VamanaFixture, DegreeBoundHolds)
{
    for (const auto &adj : graph_->adjacency)
        EXPECT_LE(adj.size(), graph_->max_degree);
}

TEST_F(VamanaFixture, NoSelfLoopsOrDuplicateEdges)
{
    for (std::size_t v = 0; v < graph_->adjacency.size(); ++v) {
        std::set<VectorId> uniq;
        for (VectorId nb : graph_->adjacency[v]) {
            EXPECT_NE(nb, v);
            EXPECT_LT(nb, graph_->adjacency.size());
            uniq.insert(nb);
        }
        EXPECT_EQ(uniq.size(), graph_->adjacency[v].size());
    }
}

TEST_F(VamanaFixture, MedoidIsValid)
{
    EXPECT_LT(graph_->medoid, graph_->adjacency.size());
    EXPECT_FALSE(graph_->adjacency[graph_->medoid].empty());
}

TEST_F(VamanaFixture, GreedySearchFindsNearNeighbors)
{
    const auto truth = groundTruth(*data_, 10);
    double recall = 0.0;
    for (std::size_t q = 0; q < data_->num_queries; ++q) {
        const auto visited = vamanaGreedySearch(
            data_->baseView(), *graph_, data_->queryView().row(q), 48);
        std::vector<VectorId> found;
        for (std::size_t i = 0; i < std::min<std::size_t>(10,
                                                          visited.size());
             ++i)
            found.push_back(visited[i].id);
        recall += recallAtK(truth[q], found, 10);
    }
    recall /= static_cast<double>(data_->num_queries);
    EXPECT_GT(recall, 0.85);
}

class DiskAnnFixture : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        data_ = new TestData(makeClusteredData(1500, 30, 32, 321));
        truth_ = new std::vector<std::vector<VectorId>>(
            groundTruth(*data_, 10));
        index_ = new DiskAnnIndex();
        DiskAnnBuildParams params;
        params.graph.max_degree = 24;
        params.graph.build_list = 48;
        // One sub-quantizer per two dims, as Milvus-DiskANN defaults
        // to a byte per dimension-or-two of PQ budget.
        params.pq.m = 16;
        params.pq.ksub = 256;
        index_->build(data_->baseView(), params);
    }
    static void
    TearDownTestSuite()
    {
        delete data_;
        delete truth_;
        delete index_;
        data_ = nullptr;
        truth_ = nullptr;
        index_ = nullptr;
    }

    double
    meanRecall(const DiskAnnSearchParams &params) const
    {
        double acc = 0.0;
        for (std::size_t q = 0; q < data_->num_queries; ++q) {
            const auto result =
                index_->search(data_->queryView().row(q), params);
            acc += recallAtK((*truth_)[q], result, 10);
        }
        return acc / static_cast<double>(data_->num_queries);
    }

    static TestData *data_;
    static std::vector<std::vector<VectorId>> *truth_;
    static DiskAnnIndex *index_;
};

TestData *DiskAnnFixture::data_ = nullptr;
std::vector<std::vector<VectorId>> *DiskAnnFixture::truth_ = nullptr;
DiskAnnIndex *DiskAnnFixture::index_ = nullptr;

TEST_F(DiskAnnFixture, LayoutPacksNodesIntoSectors)
{
    // dim=32: node = 128 + 4 + 24*4 = 228 bytes -> 17 nodes/sector.
    EXPECT_EQ(index_->nodeBytes(), 32 * 4 + 4 + 24 * 4);
    EXPECT_EQ(index_->nodesPerSector(), 4096 / index_->nodeBytes());
    EXPECT_EQ(index_->sectorsPerNode(), 1u);
    EXPECT_EQ(index_->sectorOfNode(0), 1u); // sector 0 is the header
    const auto nps = index_->nodesPerSector();
    EXPECT_EQ(index_->sectorOfNode(static_cast<VectorId>(nps)), 2u);
    EXPECT_EQ(index_->diskBytes(), index_->numSectors() * kSectorBytes);
}

TEST_F(DiskAnnFixture, MemoryFootprintIsCompressed)
{
    // The in-memory part (PQ) must be much smaller than raw vectors.
    const std::size_t raw = 1500 * 32 * sizeof(float);
    EXPECT_LT(index_->memoryBytes(), raw / 2);
    EXPECT_GT(index_->diskBytes(), raw); // disk holds vectors + graph
}

TEST_F(DiskAnnFixture, ReachesTargetRecall)
{
    DiskAnnSearchParams params;
    params.search_list = 20;
    params.beam_width = 4;
    params.k = 10;
    EXPECT_GT(meanRecall(params), 0.9);
}

TEST_F(DiskAnnFixture, RecallGrowsWithSearchList)
{
    DiskAnnSearchParams params;
    params.beam_width = 4;
    params.k = 10;
    params.search_list = 10;
    const double low = meanRecall(params);
    params.search_list = 100;
    const double high = meanRecall(params);
    EXPECT_GE(high + 1e-9, low);
    EXPECT_GT(high, 0.93);
}

TEST_F(DiskAnnFixture, IoGrowsWithSearchList)
{
    auto sectors_for = [&](std::size_t search_list) {
        DiskAnnSearchParams params;
        params.search_list = search_list;
        params.beam_width = 4;
        params.k = 10;
        std::uint64_t total = 0;
        for (std::size_t q = 0; q < 10; ++q) {
            SearchTraceRecorder recorder;
            index_->search(data_->queryView().row(q), params, &recorder);
            total += recorder.totalSectors();
        }
        return total;
    };
    // The paper's O-20/O-21: larger search_list -> more I/O.
    EXPECT_GT(sectors_for(100), 2 * sectors_for(10));
}

TEST_F(DiskAnnFixture, BeamBatchRespectsBeamWidth)
{
    DiskAnnSearchParams params;
    params.search_list = 50;
    params.beam_width = 2;
    params.k = 10;
    SearchTraceRecorder recorder;
    index_->search(data_->queryView().row(0), params, &recorder);
    for (const SearchStep &step : recorder.steps()) {
        std::uint64_t batch_sectors = 0;
        for (const SectorRead &read : step.reads)
            batch_sectors += read.count;
        // A beam of W nodes touches at most W sectors here
        // (sectors_per_node == 1).
        EXPECT_LE(batch_sectors, 2u);
    }
}

TEST_F(DiskAnnFixture, TraceStepsAlternateCpuAndIo)
{
    DiskAnnSearchParams params;
    params.search_list = 20;
    params.beam_width = 4;
    SearchTraceRecorder recorder;
    index_->search(data_->queryView().row(1), params, &recorder);
    const auto &steps = recorder.steps();
    ASSERT_GT(steps.size(), 1u);
    // Every step except possibly the last carries reads; hop count in
    // the trace matches the number of I/O batches.
    std::size_t io_steps = 0;
    for (const SearchStep &step : steps)
        io_steps += step.reads.empty() ? 0 : 1;
    EXPECT_EQ(io_steps, recorder.totals().hops);
}

TEST_F(DiskAnnFixture, SectorReadsAreWithinFile)
{
    DiskAnnSearchParams params;
    params.search_list = 30;
    params.beam_width = 4;
    SearchTraceRecorder recorder;
    index_->search(data_->queryView().row(2), params, &recorder);
    for (const SearchStep &step : recorder.steps()) {
        for (const SectorRead &read : step.reads) {
            EXPECT_GE(read.sector, 1u); // never the header
            EXPECT_LT(read.sector + read.count, index_->numSectors() + 1);
        }
    }
}

TEST_F(DiskAnnFixture, SaveLoadPreservesResults)
{
    const std::string path = "diskann_test.bin";
    {
        BinaryWriter writer(path, "DAT", 1);
        index_->save(writer);
        writer.close();
    }
    DiskAnnIndex loaded;
    {
        BinaryReader reader(path, "DAT", 1);
        loaded.load(reader);
    }
    DiskAnnSearchParams params;
    params.search_list = 20;
    for (std::size_t q = 0; q < 10; ++q) {
        const float *query = data_->queryView().row(q);
        EXPECT_EQ(index_->search(query, params),
                  loaded.search(query, params));
    }
    std::remove(path.c_str());
}

TEST_F(DiskAnnFixture, RejectsBadSearchParams)
{
    DiskAnnSearchParams params;
    params.search_list = 5;
    params.k = 10; // search_list < k
    EXPECT_THROW(index_->search(data_->queryView().row(0), params),
                 FatalError);
    params.search_list = 20;
    params.beam_width = 0;
    EXPECT_THROW(index_->search(data_->queryView().row(0), params),
                 FatalError);
}

/** Nodes larger than a sector must span multiple sectors. */
TEST(DiskAnnLayoutTest, WideVectorsSpanSectors)
{
    // dim=1536 mimics OpenAI embeddings: node > 4 KiB.
    TestData data = makeClusteredData(60, 4, 1536, 31);
    DiskAnnIndex index;
    DiskAnnBuildParams params;
    params.graph.max_degree = 16;
    params.graph.build_list = 24;
    params.pq.m = 96;
    params.pq.ksub = 16;
    index.build(data.baseView(), params);

    EXPECT_GT(index.nodeBytes(), kSectorBytes);
    EXPECT_EQ(index.nodesPerSector(), 0u);
    EXPECT_EQ(index.sectorsPerNode(), 2u);
    EXPECT_EQ(index.sectorOfNode(3), 1u + 3u * 2u);

    // Searches must read both sectors of each expanded node.
    DiskAnnSearchParams search;
    search.search_list = 10;
    search.beam_width = 1;
    search.k = 5;
    SearchTraceRecorder recorder;
    index.search(data.queryView().row(0), search, &recorder);
    for (const SearchStep &step : recorder.steps()) {
        if (step.reads.empty())
            continue;
        std::uint64_t batch = 0;
        for (const SectorRead &read : step.reads)
            batch += read.count;
        EXPECT_EQ(batch, 2u);
    }
}

TEST(DiskAnnSmallTest, TinyDatasetStillWorks)
{
    TestData data = makeClusteredData(40, 5, 16, 7);
    DiskAnnIndex index;
    DiskAnnBuildParams params;
    params.graph.max_degree = 8;
    params.graph.build_list = 16;
    params.pq.m = 4;
    params.pq.ksub = 16;
    index.build(data.baseView(), params);

    DiskAnnSearchParams search;
    search.search_list = 20;
    search.k = 5;
    const auto truth = groundTruth(data, 5);
    double recall = 0.0;
    for (std::size_t q = 0; q < data.num_queries; ++q)
        recall += recallAtK(truth[q],
                            index.search(data.queryView().row(q), search),
                            5);
    EXPECT_GT(recall / 5.0, 0.9);
}


// ------------------------------------------------- corrupt archives

/** Archive bytes of @p index as written by save(). */
std::vector<std::uint8_t>
archiveBytes(const DiskAnnIndex &index, const std::string &path)
{
    {
        BinaryWriter writer(path, "DAT", 1);
        index.save(writer);
        writer.close();
    }
    std::ifstream in(path, std::ios::binary);
    return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                     {});
}

/**
 * Load @p bytes as an archive. @return false on the typed error; a
 * successful load must also search cleanly (the corruption hit bytes
 * no invariant covers, e.g. a vector component that stays finite).
 */
bool
loadsAndSearches(const std::vector<std::uint8_t> &bytes,
                 const std::string &path, const float *query)
{
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(reinterpret_cast<const char *>(bytes.data()),
                  static_cast<std::streamsize>(bytes.size()));
    }
    DiskAnnIndex index;
    // Pin the memory backend: the sweep is about parsing, not I/O.
    index.setIoMode(storage::IoOptions{});
    try {
        BinaryReader reader(path, "DAT", 1);
        index.load(reader);
    } catch (const FatalError &) {
        return false;
    }
    DiskAnnSearchParams params;
    params.k = 5;
    params.search_list = 16;
    params.beam_width = 2;
    index.search(query, params);
    return true;
}

/**
 * Truncations and single-bit flips of v3 (id order), v4 (packed) and
 * v5 (embedded codes) archives either fail as FatalError or load an
 * index that searches cleanly — never a crash, hang or out-of-bounds
 * access (the sanitizer jobs run this sweep too).
 */
TEST(DiskAnnCorruptArchiveTest, TruncationsAndBitFlipsFailTyped)
{
    const TestData data = makeClusteredData(300, 2, 8, 4242);
    const testutil::TempDir dir("diskann_corrupt_test");
    const std::string path = dir.sub("archive.bin");
    const std::string probe = dir.sub("probe.bin");

    struct Variant
    {
        const char *name;
        LayoutPolicy layout;
        bool embed;
    };
    for (const Variant &variant :
         {Variant{"v3", LayoutPolicy::IdOrder, false},
          Variant{"v4", LayoutPolicy::PackedBfs, false},
          Variant{"v5", LayoutPolicy::PackedBfs, true}}) {
        SCOPED_TRACE(variant.name);
        DiskAnnBuildParams params;
        params.graph.max_degree = 8;
        params.graph.build_list = 16;
        params.pq.m = 4;
        params.pq.ksub = 16;
        params.layout = variant.layout;
        params.embed_codes = variant.embed;
        DiskAnnIndex index;
        index.build(data.baseView(), params);
        const std::vector<std::uint8_t> good = archiveBytes(index, path);
        const float *query = data.queryView().row(0);
        ASSERT_TRUE(loadsAndSearches(good, probe, query));

        // Every truncation fails: the archive has no optional tail.
        std::size_t truncations = 0;
        for (std::size_t len = 0; len < good.size();
             len += len < 256 ? 1 : 97) {
            const std::vector<std::uint8_t> cut(good.begin(),
                                                good.begin() + len);
            EXPECT_FALSE(loadsAndSearches(cut, probe, query))
                << "truncated to " << len << " of " << good.size();
            ++truncations;
        }

        // Bit flips: every byte of the metadata prefix, then a
        // stride through the codes and the node file.
        std::size_t rejected = 0;
        std::size_t flips = 0;
        for (std::size_t at = 0; at < good.size();
             at += at < 512 ? 1 : 29) {
            std::vector<std::uint8_t> bad = good;
            bad[at] ^= static_cast<std::uint8_t>(1u << (at % 8));
            rejected += loadsAndSearches(bad, probe, query) ? 0 : 1;
            ++flips;
        }
        EXPECT_GT(truncations, 256u);
        EXPECT_GT(rejected, 0u) << "of " << flips << " flips";
    }
}

} // namespace
} // namespace ann
