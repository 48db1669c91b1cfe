/**
 * @file
 * Tests for the async submit/poll I/O pipeline: the IoQueue contract
 * on the emulated backends, the SectorCache single-flight layer, the
 * SectorReader's error unwind, and the headline invariant of the
 * pipelined beam search — completion order must never change a
 * result bit or a recorded trace, even when an adversarial queue
 * delivers completions backwards and in dribbles.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <future>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <unistd.h>

#include "common/error.hh"
#include "common/rng.hh"
#include "index/diskann_index.hh"
#include "index/search_trace.hh"
#include "index/spann_index.hh"
#include "storage/io_backend.hh"
#include "storage/node_cache.hh"
#include "storage/sector_reader.hh"
#include "test_util.hh"

namespace ann {
namespace {

using testutil::TestData;
using testutil::groundTruth;
using testutil::makeClusteredData;

/** Shared spill directory, outside the checkout, removed at exit. */
const std::string &
testSpillDir()
{
    static const testutil::TempDir dir("async_io_test_spill");
    return dir.path();
}

/** Restores every async/IO toggle a test flips. */
struct ToggleGuard
{
    ~ToggleGuard()
    {
        storage::setAsyncShuffleDelivery(false);
        storage::setIoPooledEnabled(false);
        storage::setSingleFlightEnabled(true);
    }
};

/** Sharer-side wait without a deadline: retries the bounded wait. */
storage::FetchStatus
awaitFlight(storage::SectorCache &cache, std::uint64_t sector,
            std::uint8_t *dest)
{
    for (;;) {
        const storage::FetchStatus status =
            cache.waitFetchFor(sector, dest, 1000);
        if (status != storage::FetchStatus::Timeout)
            return status;
    }
}

std::vector<std::uint8_t>
testImage(std::size_t sectors, std::uint64_t seed)
{
    std::vector<std::uint8_t> image(sectors * storage::kIoSectorBytes);
    Rng rng(seed);
    for (auto &byte : image)
        byte = static_cast<std::uint8_t>(rng.next() & 0xff);
    return image;
}

std::unique_ptr<storage::IoBackend>
buildBackend(storage::IoBackendKind kind,
             const std::vector<std::uint8_t> &image)
{
    storage::IoOptions options;
    options.kind = kind;
    options.queue_depth = 8;
    options.spill_dir = testSpillDir();
    auto sink = makeIoSink(options, image.size());
    sink->append(image.data(), image.size());
    return sink->finish();
}

// ------------------------------------------------------ queue contract

TEST(IoQueueTest, FileQueueServesExactBytes)
{
    ToggleGuard guard;
    const auto image = testImage(64, 7);
    auto backend = buildBackend(storage::IoBackendKind::File, image);
    auto queue = backend->openQueue();
    ASSERT_NE(queue, nullptr);

    storage::AlignedBuffer buf;
    std::uint8_t *out = buf.ensure(image.size());
    std::memset(out, 0, image.size());
    std::vector<storage::IoRequest> requests;
    std::vector<std::uint64_t> tags;
    for (std::uint64_t s = 0; s < 64; ++s) {
        requests.push_back(
            {s, 1, out + s * storage::kIoSectorBytes});
        tags.push_back(1000 + s);
    }
    queue->submitBatch(requests.data(), requests.size(), tags.data());

    std::vector<std::uint64_t> seen;
    std::uint64_t got[16];
    while (seen.size() < tags.size()) {
        const std::size_t n = queue->pollCompletions(got, 16, 1);
        ASSERT_GT(n, 0u);
        seen.insert(seen.end(), got, got + n);
    }
    std::sort(seen.begin(), seen.end());
    EXPECT_EQ(seen, tags);
    EXPECT_EQ(std::memcmp(out, image.data(), image.size()), 0);
}

TEST(IoQueueTest, MemoryBackendFallsBackToSyncQueue)
{
    ToggleGuard guard;
    const auto image = testImage(8, 3);
    auto backend =
        buildBackend(storage::IoBackendKind::Memory, image);
    auto queue = backend->openQueue();
    ASSERT_NE(queue, nullptr);

    storage::AlignedBuffer buf;
    std::uint8_t *out = buf.ensure(image.size());
    const storage::IoRequest req{0, 8, out};
    const std::uint64_t tag = 42;
    queue->submitBatch(&req, 1, &tag);
    std::uint64_t got = 0;
    ASSERT_EQ(queue->pollCompletions(&got, 1, 1), 1u);
    EXPECT_EQ(got, 42u);
    EXPECT_EQ(std::memcmp(out, image.data(), image.size()), 0);
}

TEST(IoQueueTest, ShuffledDeliveryStillCompletesEverything)
{
    ToggleGuard guard;
    storage::setAsyncShuffleDelivery(true);
    const auto image = testImage(32, 11);
    auto backend = buildBackend(storage::IoBackendKind::File, image);
    auto queue = backend->openQueue();

    storage::AlignedBuffer buf;
    std::uint8_t *out = buf.ensure(image.size());
    std::memset(out, 0, image.size());
    std::vector<storage::IoRequest> requests;
    std::vector<std::uint64_t> tags;
    for (std::uint64_t s = 0; s < 32; ++s) {
        requests.push_back(
            {s, 1, out + s * storage::kIoSectorBytes});
        tags.push_back(s);
    }
    queue->submitBatch(requests.data(), requests.size(), tags.data());
    std::vector<std::uint64_t> seen;
    std::uint64_t got[8];
    while (seen.size() < tags.size()) {
        const std::size_t n = queue->pollCompletions(got, 8, 1);
        ASSERT_GT(n, 0u);
        seen.insert(seen.end(), got, got + n);
    }
    std::sort(seen.begin(), seen.end());
    EXPECT_EQ(seen, tags);
    // The adversarial order never changes the bytes.
    EXPECT_EQ(std::memcmp(out, image.data(), image.size()), 0);
}

// ------------------------------------------------------- single flight

TEST(SingleFlightTest, SharerAttachesAndDedupes)
{
    ToggleGuard guard;
    storage::NodeCacheConfig config;
    config.capacity_bytes = 64 * storage::kIoSectorBytes;
    storage::SectorCache cache(config);

    std::vector<std::uint8_t> bytes(storage::kIoSectorBytes, 0xAB);
    std::vector<std::uint8_t> owner_buf(storage::kIoSectorBytes);
    std::vector<std::uint8_t> sharer_buf(storage::kIoSectorBytes, 0);

    ASSERT_EQ(cache.beginFetch(5, owner_buf.data()),
              storage::FetchClaim::Owner);
    ASSERT_EQ(cache.beginFetch(5, sharer_buf.data()),
              storage::FetchClaim::Shared);
    cache.publishFetch(5, bytes.data());
    ASSERT_EQ(awaitFlight(cache, 5, sharer_buf.data()),
              storage::FetchStatus::Ready);
    EXPECT_EQ(std::memcmp(sharer_buf.data(), bytes.data(),
                          storage::kIoSectorBytes),
              0);
    EXPECT_EQ(cache.stats().ios_deduped, 1u);
    EXPECT_EQ(cache.stats().dedupBytesSaved(),
              storage::kIoSectorBytes);
    // The publish also admitted the sector.
    std::vector<std::uint8_t> hit(storage::kIoSectorBytes);
    EXPECT_TRUE(cache.lookup(5, hit.data()));
}

TEST(SingleFlightTest, LateSharerGetsCachedClaim)
{
    ToggleGuard guard;
    storage::NodeCacheConfig config;
    config.capacity_bytes = 64 * storage::kIoSectorBytes;
    storage::SectorCache cache(config);

    std::vector<std::uint8_t> bytes(storage::kIoSectorBytes, 0x5C);
    std::vector<std::uint8_t> owner_buf(storage::kIoSectorBytes);
    std::vector<std::uint8_t> sharer_buf(storage::kIoSectorBytes);
    std::vector<std::uint8_t> late_buf(storage::kIoSectorBytes, 0);

    ASSERT_EQ(cache.beginFetch(9, owner_buf.data()),
              storage::FetchClaim::Owner);
    // A waiter keeps the published flight entry alive...
    ASSERT_EQ(cache.beginFetch(9, sharer_buf.data()),
              storage::FetchClaim::Shared);
    cache.publishFetch(9, bytes.data());
    // ...so a claim between publish and the waiter's pickup sees the
    // completed read and gets the bytes immediately.
    EXPECT_EQ(cache.beginFetch(9, late_buf.data()),
              storage::FetchClaim::Cached);
    EXPECT_EQ(std::memcmp(late_buf.data(), bytes.data(),
                          storage::kIoSectorBytes),
              0);
    EXPECT_EQ(awaitFlight(cache, 9, sharer_buf.data()),
              storage::FetchStatus::Ready);
    EXPECT_EQ(cache.stats().ios_deduped, 2u);
}

TEST(SingleFlightTest, CancelWakesSharers)
{
    ToggleGuard guard;
    storage::NodeCacheConfig config;
    config.capacity_bytes = 64 * storage::kIoSectorBytes;
    storage::SectorCache cache(config);

    std::vector<std::uint8_t> owner_buf(storage::kIoSectorBytes);
    std::vector<std::uint8_t> sharer_buf(storage::kIoSectorBytes);
    ASSERT_EQ(cache.beginFetch(3, owner_buf.data()),
              storage::FetchClaim::Owner);
    ASSERT_EQ(cache.beginFetch(3, sharer_buf.data()),
              storage::FetchClaim::Shared);
    cache.cancelFetch(3);
    EXPECT_EQ(awaitFlight(cache, 3, sharer_buf.data()),
              storage::FetchStatus::Cancelled);
    EXPECT_EQ(cache.stats().ios_deduped, 0u);
    // The sector is claimable again after the cancellation drains.
    EXPECT_EQ(cache.beginFetch(3, owner_buf.data()),
              storage::FetchClaim::Owner);
    cache.cancelFetch(3);
}

TEST(SingleFlightTest, DisabledLayerAlwaysGrantsOwnership)
{
    ToggleGuard guard;
    storage::setSingleFlightEnabled(false);
    storage::NodeCacheConfig config;
    config.capacity_bytes = 64 * storage::kIoSectorBytes;
    storage::SectorCache cache(config);

    std::vector<std::uint8_t> bytes(storage::kIoSectorBytes, 0x11);
    std::vector<std::uint8_t> buf(storage::kIoSectorBytes);
    EXPECT_EQ(cache.beginFetch(7, buf.data()),
              storage::FetchClaim::Owner);
    EXPECT_EQ(cache.beginFetch(7, buf.data()),
              storage::FetchClaim::Owner);
    // publishFetch degenerates to admit().
    cache.publishFetch(7, bytes.data());
    EXPECT_TRUE(cache.lookup(7, buf.data()));
    EXPECT_EQ(cache.stats().ios_deduped, 0u);
}

/**
 * TSan target: hammer the flight map from many threads with live
 * mutations — owners publishing or cancelling while sharers attach,
 * wait, and retry — over a small sector range so every path collides.
 */
TEST(SingleFlightTest, ConcurrentFlightsUnderMutation)
{
    ToggleGuard guard;
    storage::NodeCacheConfig config;
    config.capacity_bytes = 64 * storage::kIoSectorBytes;
    storage::SectorCache cache(config);

    constexpr std::size_t kThreads = 8;
    constexpr std::size_t kRounds = 400;
    constexpr std::uint64_t kSectors = 4;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&cache, t] {
            Rng rng(900 + t);
            std::vector<std::uint8_t> bytes(storage::kIoSectorBytes);
            std::vector<std::uint8_t> buf(storage::kIoSectorBytes);
            for (std::size_t r = 0; r < kRounds; ++r) {
                const std::uint64_t sector = rng.next() % kSectors;
                // The sector's canonical bytes: a pure function of
                // the sector, as with a real immutable node file.
                std::memset(bytes.data(),
                            static_cast<int>(sector * 31 + 1),
                            bytes.size());
                if (cache.lookup(sector, buf.data())) {
                    ASSERT_EQ(buf[0], bytes[0]);
                    continue;
                }
                switch (cache.beginFetch(sector, buf.data())) {
                case storage::FetchClaim::Owner:
                    if (rng.next() % 8 == 0) {
                        cache.cancelFetch(sector);
                    } else {
                        cache.publishFetch(sector, bytes.data());
                    }
                    break;
                case storage::FetchClaim::Shared:
                    switch (awaitFlight(cache, sector, buf.data())) {
                    case storage::FetchStatus::Ready:
                        ASSERT_EQ(buf[0], bytes[0]);
                        break;
                    case storage::FetchStatus::Cancelled:
                        break; // a real caller would read it itself
                    case storage::FetchStatus::Timeout:
                        FAIL() << "awaitFlight returned Timeout";
                    }
                    break;
                case storage::FetchClaim::Cached:
                    ASSERT_EQ(buf[0], bytes[0]);
                    break;
                }
            }
        });
    }
    for (auto &thread : threads)
        thread.join();
    const auto stats = cache.stats();
    EXPECT_EQ(stats.lookups, kThreads * kRounds);
}

// ------------------------------------------------ reader error unwind

/**
 * Node-file stand-in whose async queue fails the first @p failures
 * reads covering @p fail_sector when they are reaped — a device error
 * landing mid-hop — and serves every other read exactly. The blocking
 * readBatch() (a sharer's own-read fallback) consults the same
 * failure budget.
 */
class FailingBackend final : public storage::IoBackend
{
  public:
    FailingBackend(std::vector<std::uint8_t> image,
                   std::uint64_t fail_sector, int failures)
        : image_(std::move(image)), failSector_(fail_sector),
          failuresLeft_(failures)
    {
    }

    storage::IoBackendKind
    kind() const override
    {
        return storage::IoBackendKind::File;
    }
    std::uint64_t sizeBytes() const override { return image_.size(); }

    void
    readBatch(const storage::IoRequest *requests, std::size_t n) override
    {
        for (std::size_t i = 0; i < n; ++i)
            serve(requests[i]);
    }

    std::unique_ptr<storage::IoQueue> openQueue() override;

    /** Copy @p req 's bytes, or throw the injected failure. */
    void
    serve(const storage::IoRequest &req)
    {
        if (req.sector <= failSector_ &&
            failSector_ < req.sector + req.count &&
            failuresLeft_.fetch_sub(1) > 0)
            throw FatalError("injected read failure at sector " +
                             std::to_string(failSector_));
        std::memcpy(req.dest,
                    image_.data() + req.sector * storage::kIoSectorBytes,
                    req.count * storage::kIoSectorBytes);
    }

  private:
    std::vector<std::uint8_t> image_;
    std::uint64_t failSector_;
    std::atomic<int> failuresLeft_;
};

/** Serves submitted reads when they are reaped, in submit order. */
class FailingQueue final : public storage::IoQueue
{
  public:
    explicit FailingQueue(FailingBackend &backend) : backend_(backend) {}

    void
    submitBatch(const storage::IoRequest *requests, std::size_t n,
                const std::uint64_t *tags) override
    {
        for (std::size_t i = 0; i < n; ++i)
            pending_.push_back({requests[i], tags[i]});
    }

    std::size_t
    pollCompletions(std::uint64_t *out, std::size_t max,
                    std::size_t) override
    {
        std::size_t got = 0;
        while (got < max && !pending_.empty()) {
            const auto [req, tag] = pending_.front();
            pending_.erase(pending_.begin());
            backend_.serve(req);
            out[got++] = tag;
        }
        return got;
    }

  private:
    FailingBackend &backend_;
    std::vector<std::pair<storage::IoRequest, std::uint64_t>> pending_;
};

std::unique_ptr<storage::IoQueue>
FailingBackend::openQueue()
{
    return std::make_unique<FailingQueue>(*this);
}

storage::NodeCacheConfig
readerCacheConfig()
{
    storage::NodeCacheConfig config;
    config.capacity_bytes = 64 * storage::kIoSectorBytes;
    return config;
}

/**
 * The owner of a hop's reads fails mid-hop and unwinds; a reader
 * attached to those sectors must not be stranded: the unwind cancels
 * the claims and the sharer reads the bytes itself, bit-identical.
 */
TEST(SectorReaderTest, FailedOwnerReleasesAttachedReader)
{
    ToggleGuard guard;
    const auto image = testImage(16, 21);
    FailingBackend io(image, 5, 1);
    storage::SectorCache cache(readerCacheConfig());
    const std::vector<std::uint64_t> sectors{4, 5, 6};
    constexpr std::size_t kBytes = 3 * storage::kIoSectorBytes;

    storage::AlignedBuffer sharer_buf;
    storage::SectorReader sharer(io, &cache);
    {
        storage::AlignedBuffer owner_buf;
        storage::SectorReader owner(io, &cache);
        owner.start(sectors.data(), sectors.size(),
                    owner_buf.ensure(kBytes));
        EXPECT_EQ(owner.submitted().size(), 1u);
        sharer.start(sectors.data(), sectors.size(),
                     sharer_buf.ensure(kBytes));
        EXPECT_TRUE(sharer.submitted().empty()) << "all attached";
        EXPECT_FALSE(sharer.ready(0, sectors.size()));
        EXPECT_THROW(owner.drain(), FatalError);
    }
    sharer.drain();
    EXPECT_EQ(std::memcmp(sharer_buf.data(),
                          image.data() + 4 * storage::kIoSectorBytes,
                          kBytes),
              0);
    // The sharer's own reads were admitted: a later reader hits.
    const auto before = cache.stats();
    storage::AlignedBuffer again_buf;
    storage::SectorReader again(io, &cache);
    again.start(sectors.data(), sectors.size(), again_buf.ensure(kBytes));
    EXPECT_TRUE(again.ready(0, sectors.size()));
    EXPECT_EQ((cache.stats() - before).hits, sectors.size());
}

/** When the sharer's own read fails too, it gets the typed error. */
TEST(SectorReaderTest, FailedFallbackReadThrowsTypedError)
{
    ToggleGuard guard;
    const auto image = testImage(16, 22);
    FailingBackend io(image, 5, 2);
    storage::SectorCache cache(readerCacheConfig());
    const std::vector<std::uint64_t> sectors{5};

    storage::AlignedBuffer sharer_buf;
    storage::SectorReader sharer(io, &cache);
    {
        storage::AlignedBuffer owner_buf;
        storage::SectorReader owner(io, &cache);
        owner.start(sectors.data(), 1,
                    owner_buf.ensure(storage::kIoSectorBytes));
        sharer.start(sectors.data(), 1,
                     sharer_buf.ensure(storage::kIoSectorBytes));
        EXPECT_THROW(owner.drain(), FatalError);
    }
    EXPECT_THROW(sharer.drain(), FatalError);
}

/**
 * TSan target: the sharer is already blocked in its bounded waits on
 * another thread — owning some sectors of its own — when the owner
 * fails. It must finish with the exact bytes, never hang or trip the
 * stall assert.
 */
TEST(SectorReaderTest, ConcurrentSharerSurvivesOwnerFailure)
{
    ToggleGuard guard;
    const auto image = testImage(16, 23);
    FailingBackend io(image, 5, 1);
    storage::SectorCache cache(readerCacheConfig());
    const std::vector<std::uint64_t> owner_sectors{4, 5, 6};
    const std::vector<std::uint64_t> sharer_sectors{5, 6, 7, 8};
    constexpr std::size_t kBytes = 4 * storage::kIoSectorBytes;

    storage::AlignedBuffer owner_buf;
    storage::AlignedBuffer sharer_buf;
    auto owner = std::make_unique<storage::SectorReader>(io, &cache);
    owner->start(owner_sectors.data(), owner_sectors.size(),
                 owner_buf.ensure(kBytes));
    storage::SectorReader sharer(io, &cache);
    sharer.start(sharer_sectors.data(), sharer_sectors.size(),
                 sharer_buf.ensure(kBytes));
    ASSERT_EQ(sharer.submitted().size(), 1u) << "owns 7..8 itself";

    std::atomic<bool> finished{false};
    std::thread waiter([&] {
        sharer.drain();
        finished.store(true);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    EXPECT_THROW(owner->drain(), FatalError);
    owner.reset(); // unwind: cancels the failed claims
    waiter.join();
    EXPECT_TRUE(finished.load());
    EXPECT_EQ(std::memcmp(sharer_buf.data(),
                          image.data() + 5 * storage::kIoSectorBytes,
                          kBytes),
              0);
}

// --------------------------------------- completion-order independence

class AsyncBeamFixture : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        data_ = new TestData(makeClusteredData(1200, 20, 32, 777));
        index_ = new DiskAnnIndex();
        DiskAnnBuildParams params;
        params.graph.max_degree = 24;
        params.graph.build_list = 48;
        params.pq.m = 16;
        params.pq.ksub = 256;
        index_->build(data_->baseView(), params);
    }
    static void
    TearDownTestSuite()
    {
        delete data_;
        delete index_;
        data_ = nullptr;
        index_ = nullptr;
    }

    static TestData *data_;
    static DiskAnnIndex *index_;
};

TestData *AsyncBeamFixture::data_ = nullptr;
DiskAnnIndex *AsyncBeamFixture::index_ = nullptr;

/**
 * The headline contract: async pipelined beam search under an
 * adversarial completion order (descending tags, dribbled delivery)
 * yields bit-identical results AND identical recorded hop traces to
 * the memory-resident reference.
 */
TEST_F(AsyncBeamFixture, ShuffledCompletionsAreBitIdentical)
{
    ToggleGuard guard;
    DiskAnnSearchParams params;
    params.search_list = 32;
    params.beam_width = 4;
    params.k = 10;

    // Reference: memory image, synchronous.
    std::vector<SearchResult> expected;
    std::vector<std::vector<SearchStep>> expected_steps;
    for (std::size_t q = 0; q < data_->num_queries; ++q) {
        SearchTraceRecorder recorder;
        expected.push_back(index_->search(data_->queryView().row(q),
                                          params, &recorder));
        expected_steps.push_back(recorder.takeSteps());
    }

    storage::IoOptions file_mode;
    file_mode.kind = storage::IoBackendKind::File;
    file_mode.spill_dir = testSpillDir();
    file_mode.node_cache.capacity_bytes =
        64 * storage::kIoSectorBytes;
    index_->setIoMode(file_mode);
    storage::setAsyncShuffleDelivery(true);

    for (std::size_t q = 0; q < data_->num_queries; ++q) {
        SearchTraceRecorder recorder;
        const auto got = index_->search(data_->queryView().row(q),
                                        params, &recorder);
        ASSERT_EQ(got.size(), expected[q].size()) << "query " << q;
        for (std::size_t i = 0; i < got.size(); ++i) {
            EXPECT_EQ(got[i].id, expected[q][i].id) << "query " << q;
            EXPECT_EQ(got[i].distance, expected[q][i].distance)
                << "query " << q;
        }
        // Hop traces: same step count, same CPU ops per step. (Read
        // shapes differ only by what the cache absorbed; the FIRST
        // query of a cold cache must match the reference exactly.)
        const auto steps = recorder.takeSteps();
        ASSERT_EQ(steps.size(), expected_steps[q].size())
            << "query " << q;
        for (std::size_t s = 0; s < steps.size(); ++s) {
            EXPECT_EQ(steps[s].cpu.hops,
                      expected_steps[q][s].cpu.hops);
            EXPECT_EQ(steps[s].cpu.quant_distances,
                      expected_steps[q][s].cpu.quant_distances)
                << "query " << q << " step " << s;
            EXPECT_EQ(steps[s].cpu.full_distances,
                      expected_steps[q][s].cpu.full_distances)
                << "query " << q << " step " << s;
        }
    }

    storage::IoOptions memory_mode;
    memory_mode.kind = storage::IoBackendKind::Memory;
    index_->setIoMode(memory_mode);
}

/** Same contract with the sector cache disabled (no single-flight,
 *  no hit path): pure queue pipelining. */
TEST_F(AsyncBeamFixture, AsyncWithoutCacheMatchesReference)
{
    ToggleGuard guard;
    DiskAnnSearchParams params;
    params.search_list = 24;
    params.beam_width = 2;
    params.k = 10;

    std::vector<SearchResult> expected;
    for (std::size_t q = 0; q < data_->num_queries; ++q)
        expected.push_back(
            index_->search(data_->queryView().row(q), params));

    std::vector<storage::IoOptions> modes;
    {
        storage::IoOptions file_mode;
        file_mode.kind = storage::IoBackendKind::File;
        file_mode.spill_dir = testSpillDir();
        modes.push_back(file_mode);
        if (storage::uringSupported()) {
            storage::IoOptions uring_mode = file_mode;
            uring_mode.kind = storage::IoBackendKind::Uring;
            modes.push_back(uring_mode);
        }
    }
    // Shuffle only perturbs the emulated queues; the native uring
    // queue delivers in device order, itself nondeterministic.
    storage::setAsyncShuffleDelivery(true);

    for (const storage::IoOptions &mode : modes) {
        index_->setIoMode(mode);
        for (std::size_t q = 0; q < data_->num_queries; ++q) {
            const auto got =
                index_->search(data_->queryView().row(q), params);
            ASSERT_EQ(got.size(), expected[q].size()) << "query " << q;
            for (std::size_t i = 0; i < got.size(); ++i) {
                EXPECT_EQ(got[i].id, expected[q][i].id)
                    << "query " << q;
                EXPECT_EQ(got[i].distance, expected[q][i].distance)
                    << "query " << q;
            }
        }
    }

    storage::IoOptions memory_mode;
    memory_mode.kind = storage::IoBackendKind::Memory;
    index_->setIoMode(memory_mode);
}

/**
 * TSan target: concurrent pipelined searches over a shared cache —
 * the single-flight map sees live cross-thread attach/publish while
 * the per-query queues run. Every thread must get the
 * memory-reference answer.
 */
TEST_F(AsyncBeamFixture, ConcurrentAsyncSearchesShareFlights)
{
    ToggleGuard guard;
    DiskAnnSearchParams params;
    params.search_list = 32;
    params.beam_width = 4;
    params.k = 10;

    std::vector<SearchResult> expected;
    for (std::size_t q = 0; q < data_->num_queries; ++q)
        expected.push_back(
            index_->search(data_->queryView().row(q), params));

    storage::IoOptions file_mode;
    file_mode.kind = storage::IoBackendKind::File;
    file_mode.spill_dir = testSpillDir();
    file_mode.node_cache.capacity_bytes =
        128 * storage::kIoSectorBytes;
    index_->setIoMode(file_mode);

    constexpr std::size_t kThreads = 8;
    std::vector<std::thread> threads;
    std::atomic<std::size_t> mismatches{0};
    threads.reserve(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            // Lockstep over the same queries maximizes same-sector
            // collisions in the flight map.
            (void)t;
            for (std::size_t q = 0; q < data_->num_queries; ++q) {
                const auto got = index_->search(
                    data_->queryView().row(q), params);
                if (got.size() != expected[q].size()) {
                    mismatches.fetch_add(1);
                    continue;
                }
                for (std::size_t i = 0; i < got.size(); ++i)
                    if (got[i].id != expected[q][i].id ||
                        got[i].distance != expected[q][i].distance)
                        mismatches.fetch_add(1);
            }
        });
    }
    for (auto &thread : threads)
        thread.join();
    EXPECT_EQ(mismatches.load(), 0u);

    storage::IoOptions memory_mode;
    memory_mode.kind = storage::IoBackendKind::Memory;
    index_->setIoMode(memory_mode);
}

/**
 * Pooled submissions ($ANN_IO_POOLED): every per-query queue of the
 * micro-batch funnels into one shared uring ring, so concurrent async
 * searches stress the ring mutex, the per-queue mailboxes, and the
 * any-thread-reaps protocol. Results must still match the reference.
 */
TEST_F(AsyncBeamFixture, PooledRingConcurrentSearches)
{
    if (!storage::uringSupported())
        GTEST_SKIP() << "io_uring unavailable in this environment";
    ToggleGuard guard;
    DiskAnnSearchParams params;
    params.search_list = 32;
    params.beam_width = 4;
    params.k = 10;

    std::vector<SearchResult> expected;
    for (std::size_t q = 0; q < data_->num_queries; ++q)
        expected.push_back(
            index_->search(data_->queryView().row(q), params));

    storage::setIoPooledEnabled(true);
    storage::IoOptions uring_mode;
    uring_mode.kind = storage::IoBackendKind::Uring;
    uring_mode.spill_dir = testSpillDir();
    uring_mode.node_cache.capacity_bytes =
        128 * storage::kIoSectorBytes;
    // The pooled ring is created by the first openQueue() after the
    // toggle, so setIoMode must come after setIoPooledEnabled.
    index_->setIoMode(uring_mode);

    constexpr std::size_t kThreads = 8;
    std::vector<std::thread> threads;
    std::atomic<std::size_t> mismatches{0};
    threads.reserve(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&] {
            for (std::size_t q = 0; q < data_->num_queries; ++q) {
                const auto got = index_->search(
                    data_->queryView().row(q), params);
                if (got.size() != expected[q].size()) {
                    mismatches.fetch_add(1);
                    continue;
                }
                for (std::size_t i = 0; i < got.size(); ++i)
                    if (got[i].id != expected[q][i].id ||
                        got[i].distance != expected[q][i].distance)
                        mismatches.fetch_add(1);
            }
        });
    }
    for (auto &thread : threads)
        thread.join();
    EXPECT_EQ(mismatches.load(), 0u);

    storage::IoOptions memory_mode;
    memory_mode.kind = storage::IoBackendKind::Memory;
    index_->setIoMode(memory_mode);
}

/**
 * Reopen read-write the one spilled node file under @p dir that this
 * process still holds open (the sink unlinks its name right after
 * opening it). @return the fd, or -1.
 */
int
reopenSpilledNodeFile(const std::string &dir)
{
    int found = -1;
    for (const auto &entry :
         std::filesystem::directory_iterator("/proc/self/fd")) {
        std::error_code ec;
        const std::string target =
            std::filesystem::read_symlink(entry.path(), ec).string();
        if (ec || target.rfind(dir + "/io-spill-", 0) != 0)
            continue;
        if (found >= 0) {
            ::close(found);
            return -1; // ambiguous
        }
        found = ::open(entry.path().c_str(), O_RDWR | O_CLOEXEC);
    }
    return found;
}

/**
 * A node file that shrinks under a live index: every read past the
 * new end comes back short and its pread completion hits EOF. Each
 * search must fail with FatalError, promptly — on the file queue, on
 * a per-query uring ring, and on the pooled ring where one query's
 * failed read may be reaped by another query's thread. The file is
 * restored afterwards, so the index can re-home its image.
 */
TEST_F(AsyncBeamFixture, FailedReadsThrowAndNeverHang)
{
    struct Mode
    {
        storage::IoBackendKind kind;
        bool pooled;
    };
    std::vector<Mode> modes{{storage::IoBackendKind::File, false}};
    if (storage::uringSupported()) {
        modes.push_back({storage::IoBackendKind::Uring, false});
        modes.push_back({storage::IoBackendKind::Uring, true});
    }
    DiskAnnSearchParams params;
    params.search_list = 32;
    params.beam_width = 4;
    params.k = 10;

    for (const Mode &mode : modes) {
        ToggleGuard guard;
        storage::setIoPooledEnabled(mode.pooled);
        const testutil::TempDir dir("async_io_test_truncated");
        storage::IoOptions options;
        options.kind = mode.kind;
        options.spill_dir = dir.path();
        options.node_cache.capacity_bytes =
            128 * storage::kIoSectorBytes;
        index_->setIoMode(options);
        const int fd = reopenSpilledNodeFile(dir.path());
        ASSERT_GE(fd, 0) << "spilled node file not found";
        std::vector<std::uint8_t> saved(
            static_cast<std::size_t>(::lseek(fd, 0, SEEK_END)));
        ASSERT_EQ(::pread(fd, saved.data(), saved.size(), 0),
                  static_cast<ssize_t>(saved.size()));
        ASSERT_EQ(::ftruncate(fd, 0), 0);

        constexpr std::size_t kThreads = 4;
        std::atomic<std::size_t> failures{0};
        auto run = std::async(std::launch::async, [&] {
            std::vector<std::thread> threads;
            for (std::size_t t = 0; t < kThreads; ++t) {
                threads.emplace_back([&, t] {
                    for (std::size_t q = t; q < data_->num_queries;
                         q += kThreads) {
                        try {
                            index_->search(data_->queryView().row(q),
                                           params);
                        } catch (const FatalError &) {
                            failures.fetch_add(1);
                        }
                    }
                });
            }
            for (auto &thread : threads)
                thread.join();
        });
        if (run.wait_for(std::chrono::seconds(60)) !=
            std::future_status::ready) {
            ADD_FAILURE() << "searches on a truncated node file hung ("
                          << storage::ioBackendKindName(mode.kind)
                          << (mode.pooled ? ", pooled" : "") << ")";
            std::fflush(stdout);
            std::_Exit(1); // a hung search cannot be unwound
        }
        EXPECT_EQ(failures.load(), data_->num_queries)
            << storage::ioBackendKindName(mode.kind)
            << (mode.pooled ? ", pooled" : "");
        ASSERT_EQ(::pwrite(fd, saved.data(), saved.size(), 0),
                  static_cast<ssize_t>(saved.size()));
        ::close(fd);
    }

    storage::IoOptions memory_mode;
    memory_mode.kind = storage::IoBackendKind::Memory;
    index_->setIoMode(memory_mode);
}

TEST(SpannAsyncTest, AsyncStoragePhaseIsBitIdentical)
{
    ToggleGuard guard;
    const TestData data = makeClusteredData(1200, 20, 24, 555);
    SpannIndex index;
    SpannBuildParams build;
    build.nlist = 16;
    index.build(data.baseView(), build);

    SpannSearchParams params;
    params.k = 10;
    params.nprobe = 4;
    std::vector<SearchResult> expected;
    for (std::size_t q = 0; q < data.num_queries; ++q)
        expected.push_back(index.search(data.queryView().row(q),
                                        params));

    storage::IoOptions file_mode;
    file_mode.kind = storage::IoBackendKind::File;
    file_mode.spill_dir = testSpillDir();
    file_mode.node_cache.capacity_bytes =
        32 * storage::kIoSectorBytes;
    index.setIoMode(file_mode);
    storage::setAsyncShuffleDelivery(true);

    for (std::size_t q = 0; q < data.num_queries; ++q) {
        const auto got =
            index.search(data.queryView().row(q), params);
        ASSERT_EQ(got.size(), expected[q].size()) << "query " << q;
        for (std::size_t i = 0; i < got.size(); ++i) {
            EXPECT_EQ(got[i].id, expected[q][i].id) << "query " << q;
            EXPECT_EQ(got[i].distance, expected[q][i].distance)
                << "query " << q;
        }
    }
}

/**
 * On a cold cache every probed list reaches the backend, so the
 * recorded trace — one run per probed list, in probe order — must
 * equal the memory backend's, even where the reader merged the runs
 * of sector-adjacent lists into one read.
 */
TEST(SpannAsyncTest, ColdCacheTraceMatchesMemoryBackend)
{
    ToggleGuard guard;
    const TestData data = makeClusteredData(1200, 20, 24, 556);
    SpannIndex index;
    SpannBuildParams build;
    build.nlist = 16;
    index.build(data.baseView(), build);

    SpannSearchParams params;
    params.k = 10;
    params.nprobe = 6;
    std::vector<std::vector<SearchStep>> expected;
    std::size_t adjacent = 0;
    for (std::size_t q = 0; q < data.num_queries; ++q) {
        SearchTraceRecorder recorder;
        index.search(data.queryView().row(q), params, &recorder);
        expected.push_back(recorder.takeSteps());
        std::vector<SectorRead> sorted;
        for (const SearchStep &step : expected.back())
            sorted.insert(sorted.end(), step.reads.begin(),
                          step.reads.end());
        std::sort(sorted.begin(), sorted.end(),
                  [](const SectorRead &a, const SectorRead &b) {
                      return a.sector < b.sector;
                  });
        for (std::size_t i = 1; i < sorted.size(); ++i)
            adjacent += sorted[i - 1].sector + sorted[i - 1].count ==
                        sorted[i].sector;
    }
    ASSERT_GT(adjacent, 0u) << "no query probes sector-adjacent lists";

    std::vector<storage::IoBackendKind> kinds{
        storage::IoBackendKind::File};
    if (storage::uringSupported())
        kinds.push_back(storage::IoBackendKind::Uring);
    for (const storage::IoBackendKind kind : kinds) {
        for (std::size_t q = 0; q < data.num_queries; ++q) {
            storage::IoOptions mode;
            mode.kind = kind;
            mode.spill_dir = testSpillDir();
            mode.node_cache.capacity_bytes =
                64 * storage::kIoSectorBytes;
            index.setIoMode(mode); // a fresh, cold cache
            SearchTraceRecorder recorder;
            index.search(data.queryView().row(q), params, &recorder);
            const auto steps = recorder.takeSteps();
            ASSERT_EQ(steps.size(), expected[q].size())
                << storage::ioBackendKindName(kind) << " query " << q;
            for (std::size_t s = 0; s < steps.size(); ++s)
                EXPECT_EQ(steps[s].reads, expected[q][s].reads)
                    << storage::ioBackendKindName(kind) << " query " << q
                    << " step " << s;
        }
    }
}

} // namespace
} // namespace ann
