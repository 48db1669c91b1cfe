#include "index/spann_index.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <optional>

#include "common/error.hh"
#include "common/hotpath.hh"
#include "common/serialize.hh"
#include "distance/distance.hh"
#include "distance/topk.hh"
#include "index/diskann_index.hh" // kSectorBytes
#include "index/search_scratch.hh"
#include "index/visit_table.hh"
#include "storage/sector_reader.hh"

namespace ann {

namespace {

constexpr const char *kMagic = "SPAN";
constexpr std::uint32_t kVersion = 1;

/** Per-thread fetch scratch for non-memory backends. */
thread_local storage::AlignedBuffer tls_fetch;

/**
 * Per-query scratch arena (see search_scratch.hh): centroid ranking,
 * result heap, per-probe fetch layout, and the replica-dedup visit
 * table (epoch-reset, replacing the seed's per-query vector<bool>).
 * Fully re-initialized per query.
 */
struct SpannScratch
{
    TopK centroid_top{1};
    TopK top{1};
    SearchResult probes;
    /** Sorted sectors of every probed list (real-I/O path). */
    std::vector<std::uint64_t> sectors;
    VisitTable seen;
};

thread_local SpannScratch tls_scratch;

} // namespace

void
SpannIndex::build(const MatrixView &data, const SpannBuildParams &params)
{
    ANN_CHECK(data.rows > 0, "spann build needs data");
    ANN_CHECK(params.nlist > 0 && params.nlist <= data.rows,
              "spann nlist invalid");
    ANN_CHECK(params.closure_epsilon >= 0.0f,
              "closure epsilon must be non-negative");
    ANN_CHECK(params.max_replicas >= 1, "max_replicas must be >= 1");

    rows_ = data.rows;
    dim_ = data.dim;

    KMeansParams km;
    km.k = params.nlist;
    km.max_iters = params.train_iters;
    km.seed = params.seed;
    centroids_ = kmeansFit(data, km);

    std::vector<std::vector<VectorId>> ids(params.nlist);
    std::vector<std::vector<float>> vecs(params.nlist);

    // Closure assignment: every cluster whose centroid is within
    // (1 + eps) of the nearest centroid's distance gets a replica.
    std::vector<std::pair<float, std::uint32_t>> ranked(params.nlist);
    for (std::size_t r = 0; r < rows_; ++r) {
        const float *vec = data.row(r);
        for (std::size_t c = 0; c < params.nlist; ++c)
            ranked[c] = {l2DistanceSq(vec, centroids_.centroid(c),
                                      dim_),
                         static_cast<std::uint32_t>(c)};
        std::sort(ranked.begin(), ranked.end());
        // Closure threshold in squared-distance space.
        const float threshold = ranked[0].first *
                                (1.0f + params.closure_epsilon) *
                                (1.0f + params.closure_epsilon);
        std::size_t replicas = 0;
        for (const auto &[dist, list] : ranked) {
            if (replicas >= params.max_replicas ||
                (replicas > 0 && dist > threshold))
                break;
            ids[list].push_back(static_cast<VectorId>(r));
            vecs[list].insert(vecs[list].end(), vec, vec + dim_);
            ++replicas;
        }
    }

    // Sequential on-disk layout: one contiguous run per list.
    listCounts_.assign(params.nlist, 0);
    listSectorStart_.assign(params.nlist, 0);
    listSectorCount_.assign(params.nlist, 0);
    std::uint64_t cursor = 0;
    for (std::size_t c = 0; c < params.nlist; ++c) {
        const std::size_t bytes = ids[c].size() * entryBytes();
        const auto sectors = static_cast<std::uint32_t>(
            std::max<std::size_t>(
                1, (bytes + kSectorBytes - 1) / kSectorBytes));
        listCounts_[c] = ids[c].size();
        listSectorStart_[c] = cursor;
        listSectorCount_[c] = sectors;
        cursor += sectors;
    }
    totalSectors_ = cursor;

    // Pack lists into the on-disk image ([id | vector] entries, zero
    // padding to the sector boundary) and hand it to the backend.
    std::vector<std::uint8_t> image(totalSectors_ * kSectorBytes, 0);
    for (std::size_t c = 0; c < params.nlist; ++c) {
        std::uint8_t *out =
            image.data() + listSectorStart_[c] * kSectorBytes;
        for (std::size_t i = 0; i < ids[c].size(); ++i) {
            std::memcpy(out, &ids[c][i], sizeof(VectorId));
            std::memcpy(out + sizeof(VectorId),
                        vecs[c].data() + i * dim_,
                        dim_ * sizeof(float));
            out += entryBytes();
        }
    }
    adoptImage(std::move(image));
}

storage::IoOptions
SpannIndex::effectiveIoOptions() const
{
    return ioPinned_ ? ioOptions_ : storage::defaultIoOptions();
}

void
SpannIndex::adoptImage(std::vector<std::uint8_t> image)
{
    const storage::IoOptions options = effectiveIoOptions();
    if (options.kind == storage::IoBackendKind::Memory) {
        io_ = storage::makeMemoryBackend(std::move(image));
        attachCache();
        return;
    }
    auto sink = storage::makeIoSink(options, image.size());
    sink->append(image.data(), image.size());
    io_ = sink->finish();
    attachCache();
}

void
SpannIndex::attachCache()
{
    cache_.reset();
    if (!io_ || io_->data() != nullptr)
        return;
    storage::NodeCacheConfig config = effectiveIoOptions().node_cache;
    config.warm_nodes = 0; // graph-only notion, see nodeCache() docs
    if (!config.enabled())
        return;
    cache_ = std::make_unique<storage::SectorCache>(config);
}

storage::NodeCacheStats
SpannIndex::nodeCacheStats() const
{
    return cache_ ? cache_->stats() : storage::NodeCacheStats{};
}

void
SpannIndex::dropNodeCache()
{
    if (cache_)
        cache_->dropCaches();
}

void
SpannIndex::setIoMode(const storage::IoOptions &options)
{
    ioOptions_ = options;
    ioPinned_ = true;
    if (!io_)
        return;
    const std::uint64_t size = io_->sizeBytes();
    auto sink = storage::makeIoSink(options, size);
    if (const std::uint8_t *image = io_->data()) {
        sink->append(image, static_cast<std::size_t>(size));
    } else {
        constexpr std::size_t kStreamSectors = 1024;
        storage::AlignedBuffer chunk;
        std::uint8_t *buf = chunk.ensure(kStreamSectors * kSectorBytes);
        const std::uint64_t sectors = size / kSectorBytes;
        for (std::uint64_t s = 0; s < sectors; s += kStreamSectors) {
            const auto count = static_cast<std::uint32_t>(
                std::min<std::uint64_t>(kStreamSectors, sectors - s));
            const storage::IoRequest req{s, count, buf};
            io_->readBatch(&req, 1);
            sink->append(buf, count * kSectorBytes);
        }
    }
    io_ = sink->finish();
    attachCache();
}

double
SpannIndex::replicationFactor() const
{
    ANN_CHECK(rows_ > 0, "replication factor of empty index");
    std::size_t postings = 0;
    for (const std::uint64_t count : listCounts_)
        postings += count;
    return static_cast<double>(postings) / static_cast<double>(rows_);
}

std::uint64_t
SpannIndex::listSector(std::size_t list) const
{
    ANN_CHECK(list < listSectorStart_.size(), "list out of range");
    return listSectorStart_[list];
}

std::uint32_t
SpannIndex::listSectorCount(std::size_t list) const
{
    ANN_CHECK(list < listSectorCount_.size(), "list out of range");
    return listSectorCount_[list];
}

std::size_t
SpannIndex::memoryBytes() const
{
    return centroids_.centroids.size() * sizeof(float);
}

SearchResult
SpannIndex::search(const float *query, const SpannSearchParams &params,
                   SearchTraceRecorder *recorder) const
{
    SearchResult out;
    searchInto(query, params, out, recorder);
    return out;
}

void
SpannIndex::searchInto(const float *query,
                       const SpannSearchParams &params,
                       SearchResult &out,
                       SearchTraceRecorder *recorder) const
{
    ANN_CHECK(rows_ > 0, "search on empty spann index");
    const std::size_t nprobe = std::min(params.nprobe, nlist());

    ScratchGuard<SpannScratch> scratch(tls_scratch);
    const bool prefetch = prefetchEnabled();

    // Memory phase: rank centroids.
    TopK &centroid_top = scratch->centroid_top;
    centroid_top.reset(nprobe);
    for (std::size_t c = 0; c < nlist(); ++c) {
        if (prefetch && c + 1 < nlist())
            prefetchRead(centroids_.centroid(c + 1));
        centroid_top.push(static_cast<VectorId>(c),
                          l2DistanceSq(query, centroids_.centroid(c),
                                       dim_));
    }
    SearchResult &probes = scratch->probes;
    centroid_top.drainInto(probes);

    // Storage phase: all probed lists fetched as one batched
    // submission; the memory backend serves the image zero-copy
    // instead. Lists occupy disjoint sector ranges, so their sorted
    // union is the fetch list and each list lands as one contiguous
    // slot range. Only sectors that reach the backend are recorded,
    // so the simulator charges exactly the I/O that was issued — per
    // probed list, in probe order, whatever runs the reader merged.
    ANN_ASSERT(io_ != nullptr, "posting-list file not attached");
    const std::uint8_t *image = io_->data();
    std::vector<std::uint64_t> &sectors = scratch->sectors;
    std::uint8_t *fetched = nullptr;
    std::optional<storage::SectorReader> reader;
    std::vector<SectorRead> reads; // trace-mode only (moved away)
    if (!image) {
        sectors.clear();
        for (const Neighbor &probe : probes)
            for (std::uint32_t s = 0; s < listSectorCount_[probe.id]; ++s)
                sectors.push_back(listSectorStart_[probe.id] + s);
        std::sort(sectors.begin(), sectors.end());
        fetched = tls_fetch.ensure(sectors.size() * kSectorBytes);
        reader.emplace(*io_, cache_.get());
        reader->start(sectors.data(), sectors.size(), fetched);
        if (recorder) {
            const std::vector<storage::IoRun> &runs =
                reader->submitted();
            for (const Neighbor &probe : probes) {
                const std::uint64_t lo = listSectorStart_[probe.id];
                const std::uint64_t hi = lo + listSectorCount_[probe.id];
                auto run = std::upper_bound(
                    runs.begin(), runs.end(), lo,
                    [](std::uint64_t s, const storage::IoRun &r) {
                        return s < r.sector + r.count;
                    });
                for (; run != runs.end() && run->sector < hi; ++run) {
                    const std::uint64_t a = std::max(lo, run->sector);
                    const std::uint64_t b =
                        std::min(hi, run->sector + run->count);
                    reads.push_back(
                        {a, static_cast<std::uint32_t>(b - a)});
                }
            }
        }
    } else if (recorder) {
        reads.reserve(nprobe);
        for (const Neighbor &probe : probes)
            reads.push_back({listSectorStart_[probe.id],
                             listSectorCount_[probe.id]});
    }

    if (recorder) {
        recorder->cpu().full_distances += nlist();
        recorder->cpu().heap_ops += nprobe;
        recorder->issueReads(std::move(reads));
    }

    // Scan phase: full-precision over the fetched lists, each as soon
    // as ITS sectors land (probe order either way, so results are
    // bit-identical); replicas deduplicate through the epoch-reset
    // visit table (same outcome as the seed's per-query vector<bool>,
    // no allocation).
    TopK &top = scratch->top;
    top.reset(params.k);
    VisitTable &seen = scratch->seen;
    seen.reset(rows_);
    for (std::size_t p = 0; p < probes.size(); ++p) {
        const std::size_t list = probes[p].id;
        const std::uint8_t *entries;
        if (image) {
            entries = image + listSectorStart_[list] * kSectorBytes;
        } else {
            const auto slot = static_cast<std::size_t>(
                std::lower_bound(sectors.begin(), sectors.end(),
                                 listSectorStart_[list]) -
                sectors.begin());
            while (!reader->ready(slot, listSectorCount_[list]))
                reader->wait();
            entries = fetched + slot * kSectorBytes;
        }
        const std::uint64_t count = listCounts_[list];
        for (std::uint64_t i = 0; i < count; ++i) {
            const std::uint8_t *entry = entries + i * entryBytes();
            if (prefetch && i + 1 < count)
                prefetchRead(entry + entryBytes());
            VectorId id;
            std::memcpy(&id, entry, sizeof(VectorId));
            if (!seen.tryVisit(id))
                continue;
            top.push(id,
                     l2DistanceSq(query,
                                  reinterpret_cast<const float *>(
                                      entry + sizeof(VectorId)),
                                  dim_));
        }
        if (recorder) {
            recorder->cpu().hops += 1;
            recorder->cpu().rows_scanned += count;
            recorder->cpu().full_distances += count;
        }
    }
    if (recorder)
        recorder->finish();
    top.drainInto(out);
}

void
SpannIndex::save(BinaryWriter &writer) const
{
    writer.writeString(kMagic);
    writer.writePod<std::uint32_t>(kVersion);
    writer.writePod<std::uint64_t>(rows_);
    writer.writePod<std::uint64_t>(dim_);
    writer.writePod<std::uint64_t>(centroids_.k);
    writer.writeVector(centroids_.centroids);
    // Version-1 archive layout (per-list id and vector arrays) is
    // kept; lists are rematerialized one at a time from the backend.
    writer.writePod<std::uint64_t>(listCounts_.size());
    storage::AlignedBuffer scratch;
    std::vector<VectorId> ids;
    std::vector<float> vecs;
    const std::uint8_t *image = io_ ? io_->data() : nullptr;
    for (std::size_t c = 0; c < listCounts_.size(); ++c) {
        const std::uint8_t *entries;
        if (image) {
            entries = image + listSectorStart_[c] * kSectorBytes;
        } else {
            std::uint8_t *buf = scratch.ensure(
                std::size_t{listSectorCount_[c]} * kSectorBytes);
            const storage::IoRequest req{listSectorStart_[c],
                                         listSectorCount_[c], buf};
            io_->readBatch(&req, 1);
            entries = buf;
        }
        ids.resize(listCounts_[c]);
        vecs.resize(listCounts_[c] * dim_);
        for (std::uint64_t i = 0; i < listCounts_[c]; ++i) {
            const std::uint8_t *entry = entries + i * entryBytes();
            std::memcpy(&ids[i], entry, sizeof(VectorId));
            std::memcpy(vecs.data() + i * dim_,
                        entry + sizeof(VectorId),
                        dim_ * sizeof(float));
        }
        writer.writeVector(ids);
        writer.writeVector(vecs);
    }
    writer.writeVector(listSectorStart_);
    writer.writeVector(listSectorCount_);
    writer.writePod<std::uint64_t>(totalSectors_);
}

void
SpannIndex::load(BinaryReader &reader)
{
    ANN_CHECK(reader.readString() == kMagic, "not a spann archive");
    ANN_CHECK(reader.readPod<std::uint32_t>() == kVersion,
              "spann archive version mismatch");
    rows_ = reader.readPod<std::uint64_t>();
    dim_ = reader.readPod<std::uint64_t>();
    centroids_.k = reader.readPod<std::uint64_t>();
    centroids_.dim = dim_;
    centroids_.centroids = reader.readVector<float>();
    const auto lists = reader.readPod<std::uint64_t>();
    std::vector<std::vector<VectorId>> ids(lists);
    std::vector<std::vector<float>> vecs(lists);
    listCounts_.assign(lists, 0);
    for (std::size_t c = 0; c < lists; ++c) {
        ids[c] = reader.readVector<VectorId>();
        vecs[c] = reader.readVector<float>();
        ANN_CHECK(vecs[c].size() == ids[c].size() * dim_,
                  "corrupt spann archive");
        listCounts_[c] = ids[c].size();
    }
    listSectorStart_ = reader.readVector<std::uint64_t>();
    listSectorCount_ = reader.readVector<std::uint32_t>();
    totalSectors_ = reader.readPod<std::uint64_t>();
    ANN_CHECK(listSectorStart_.size() == lists &&
                  listSectorCount_.size() == lists,
              "corrupt spann archive");

    // Repack the on-disk image and hand it to the backend.
    std::vector<std::uint8_t> image(totalSectors_ * kSectorBytes, 0);
    for (std::size_t c = 0; c < lists; ++c) {
        std::uint8_t *out =
            image.data() + listSectorStart_[c] * kSectorBytes;
        for (std::size_t i = 0; i < ids[c].size(); ++i) {
            std::memcpy(out, &ids[c][i], sizeof(VectorId));
            std::memcpy(out + sizeof(VectorId),
                        vecs[c].data() + i * dim_,
                        dim_ * sizeof(float));
            out += entryBytes();
        }
    }
    adoptImage(std::move(image));
}

} // namespace ann
