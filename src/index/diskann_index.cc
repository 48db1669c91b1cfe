#include "index/diskann_index.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <optional>

#include "common/error.hh"
#include "common/hotpath.hh"
#include "common/serialize.hh"
#include "distance/distance.hh"
#include "distance/topk.hh"
#include "index/layout.hh"
#include "index/search_scratch.hh"
#include "index/vamana.hh"
#include "index/visit_table.hh"
#include "learn/policy.hh"
#include "storage/sector_reader.hh"

namespace ann {

namespace {

/**
 * Per-thread visited-set scratch; keeps search() const and safe to run
 * concurrently from the execution thread pool. Sized lazily per call.
 */
thread_local VisitTable tls_visit;

/**
 * Per-thread beam fetch buffer (4 KiB-aligned for O_DIRECT); reused
 * across hops and searches so the file/uring path allocates nothing
 * steady-state.
 */
thread_local storage::AlignedBuffer tls_fetch;

/** Sectors per chunk when streaming the image to/from archives. */
constexpr std::size_t kStreamSectors = 1024;

constexpr const char *kMagic = "DANN";
/** Id-order archives (the seed format, byte-identical). */
constexpr std::uint32_t kVersionIdOrder = 3;
/** Packed-layout archives: adds the layout tag + permutation. */
constexpr std::uint32_t kVersionPacked = 4;
/** Embedded-code archives: adds the per-neighbour code bytes. */
constexpr std::uint32_t kVersionEmbedded = 5;

/**
 * Floor of the spilled code tier's page cache: even a pathological
 * budget keeps a few code pages resident so the beam's batched code
 * fetches have somewhere to land and dedupe.
 */
constexpr std::size_t kMinCodeCacheBytes = 4 * kSectorBytes;

/**
 * On-disk header written into sector 0. The layout/perm_sectors pair
 * was appended for the packed layout and code_bytes for embedded PQ
 * codes; images predating a field hold zeros there (previously zero
 * padding), so their bytes are unchanged and the magic distinguishes
 * the placement generations: "DISKANN1" = id order, "DISKANN2" =
 * permuted records with the permutation table in sectors
 * [1, 1 + perm_sectors).
 */
struct DiskHeader
{
    char magic[8];
    std::uint64_t rows;
    std::uint64_t dim;
    std::uint64_t max_degree;
    std::uint64_t node_bytes;
    std::uint64_t nodes_per_sector;
    std::uint64_t sectors_per_node;
    std::uint64_t medoid;
    std::uint64_t layout;
    std::uint64_t perm_sectors;
    /** Per-neighbour PQ code bytes embedded in each record's code
     *  slots behind the adjacency list (0 = none). */
    std::uint64_t code_bytes;
};

/** Candidate-list entry of the beam search (PQ-ranked). */
struct BeamEntry
{
    float distance;
    VectorId id;
    bool expanded;
    friend bool
    operator<(const BeamEntry &a, const BeamEntry &b)
    {
        if (a.distance != b.distance)
            return a.distance < b.distance;
        return a.id < b.id;
    }
};

/**
 * Per-query scratch arena of the beam search (see search_scratch.hh).
 * Every container is fully re-initialized per query, so a reused and
 * a fresh arena produce identical results; only allocator traffic
 * differs. The sector fetch buffer itself stays in tls_fetch.
 */
struct DiskAnnScratch
{
    AdcTable adc;
    std::vector<BeamEntry> cands;
    std::vector<VectorId> beam;
    std::vector<std::uint64_t> sectors;
    std::vector<storage::IoRun> runs;
    std::vector<std::uint8_t> node_done;
    /** Unvisited neighbours awaiting (batched) ADC scoring. */
    std::vector<VectorId> pending;
    /** Spilled code tier: per-pending resolved code pointers (from
     *  the record's embedded copies, or a code-store fetch keyed by
     *  the slot list). Unused while codes are resident. */
    std::vector<const std::uint8_t *> pending_codes;
    std::vector<std::uint64_t> code_slots;
    std::vector<const std::uint8_t *> code_ptrs;
    TopK reranked{1};
    /** ADC distance of each beam node this hop (aligned with beam). */
    std::vector<float> beam_dists;
    /** Learned-entry candidate pool + their ADC distances. */
    std::vector<VectorId> entry_pool;
    std::vector<float> entry_dists;
    std::vector<float> entry_sorted;
    /** Per-expansion records when hop capture is on. */
    std::vector<learn::HopRecord> hops;
};

thread_local DiskAnnScratch tls_scratch;

} // namespace

void
DiskAnnIndex::build(const MatrixView &data,
                    const DiskAnnBuildParams &params)
{
    ANN_CHECK(data.rows > 0, "diskann build needs data");

    rows_ = data.rows;
    dim_ = data.dim;
    buildParams_ = params;
    deltaVectors_.clear();
    deltaCount_ = 0;
    deleted_.assign(rows_, false);
    deletedCount_ = 0;

    // In-memory part: PQ codes for traversal distances.
    PqParams pq_params = params.pq;
    pq_.train(data, pq_params);
    pqCodes_ = pq_.encodeAll(data);

    // Graph part.
    VamanaGraph graph = buildVamana(data, params.graph);
    medoid_ = graph.medoid;
    maxDegree_ = graph.max_degree;

    // PQ-code embedding (AiSAQ-style co-location): each record
    // carries its neighbours' codes behind the adjacency list, so
    // one graph fetch delivers everything the hop ADC-scores. The
    // resident code tier never reads the embedded copies; they exist
    // so a spilled tier can re-score the beam's candidates at zero
    // extra I/O.
    const std::size_t code_size = pq_.codeSize();
    embeddedCodeBytes_ = params.embed_codes ? code_size : 0;

    // Disk layout: pack whole node records into sectors.
    nodeBytes_ = dim_ * sizeof(float) + sizeof(std::uint32_t) +
                 maxDegree_ * sizeof(std::uint32_t) +
                 maxDegree_ * embeddedCodeBytes_;
    if (nodeBytes_ <= kSectorBytes) {
        nodesPerSector_ = kSectorBytes / nodeBytes_;
        sectorsPerNode_ = 1;
    } else {
        nodesPerSector_ = 0;
        sectorsPerNode_ = (nodeBytes_ + kSectorBytes - 1) / kSectorBytes;
    }

    // Record placement: resolve the requested policy now so the
    // choice is fixed for the life of the index (consolidate()
    // rebuilds with buildParams_ and must keep the same placement).
    layout_ = resolveLayoutPolicy(params.layout);
    buildParams_.layout = layout_;
    nodePos_.clear();
    permSectors_ = 0;
    if (layout_ == LayoutPolicy::PackedBfs) {
        nodePos_ = packedBfsOrder(graph, nodesPerSector_);
        permSectors_ = (rows_ * sizeof(std::uint32_t) +
                        kSectorBytes - 1) /
                       kSectorBytes;
    }

    std::vector<std::uint8_t> image(numSectors() * kSectorBytes, 0);

    DiskHeader header{};
    std::memcpy(header.magic,
                layout_ == LayoutPolicy::PackedBfs ? "DISKANN2"
                                                   : "DISKANN1",
                8);
    header.rows = rows_;
    header.dim = dim_;
    header.max_degree = maxDegree_;
    header.node_bytes = nodeBytes_;
    header.nodes_per_sector = nodesPerSector_;
    header.sectors_per_node = sectorsPerNode_;
    header.medoid = medoid_;
    header.layout = static_cast<std::uint64_t>(layout_);
    header.perm_sectors = permSectors_;
    header.code_bytes = embeddedCodeBytes_;
    std::memcpy(image.data(), &header, sizeof(header));
    if (permSectors_ > 0)
        std::memcpy(image.data() + kSectorBytes, nodePos_.data(),
                    rows_ * sizeof(std::uint32_t));

    for (std::size_t v = 0; v < rows_; ++v) {
        const auto node = static_cast<VectorId>(v);
        std::uint8_t *record = image.data() +
                               sectorOfNode(node) * kSectorBytes +
                               recordOffsetInSector(node);
        std::memcpy(record, data.row(v), dim_ * sizeof(float));
        const auto &adj = graph.adjacency[v];
        const auto degree = static_cast<std::uint32_t>(adj.size());
        std::memcpy(record + dim_ * sizeof(float), &degree,
                    sizeof(degree));
        std::memcpy(record + dim_ * sizeof(float) + sizeof(degree),
                    adj.data(), adj.size() * sizeof(std::uint32_t));
        if (embeddedCodeBytes_ > 0) {
            // Neighbour codes fill the record's code slots in
            // adjacency order; unused slots (degree < max) stay zero.
            std::uint8_t *code_base = record + dim_ * sizeof(float) +
                                      sizeof(degree) +
                                      maxDegree_ *
                                          sizeof(std::uint32_t);
            for (std::size_t i = 0; i < adj.size(); ++i)
                std::memcpy(code_base + i * code_size,
                            pqCodes_.data() + adj[i] * code_size,
                            code_size);
        }
    }
    adoptImage(std::move(image));
    applyCodeResidency();
}

storage::IoOptions
DiskAnnIndex::effectiveIoOptions() const
{
    return ioPinned_ ? ioOptions_ : storage::defaultIoOptions();
}

void
DiskAnnIndex::adoptImage(std::vector<std::uint8_t> image)
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
DiskAnnIndex::attachCache()
{
    cache_.reset();
    warmNodes_.clear();
    // The memory backend already serves every sector zero-copy; a
    // cache in front of it would only add copies.
    if (!io_ || io_->data() != nullptr)
        return;
    const storage::NodeCacheConfig config =
        effectiveIoOptions().node_cache;
    if (!config.enabled())
        return;
    cache_ = std::make_unique<storage::SectorCache>(config);
    if (config.warm_nodes == 0)
        return;

    // Static warm set: BFS from the medoid, the region every query's
    // first hops traverse (DiskANN's num_nodes_to_cache). Reads go
    // straight to the backend — the cache is not yet shared.
    std::vector<std::uint8_t> seen(rows_, 0);
    std::vector<VectorId> queue;
    queue.reserve(std::min(config.warm_nodes * 2, rows_));
    queue.push_back(medoid_);
    seen[medoid_] = 1;
    storage::AlignedBuffer scratch;
    std::uint8_t *buf = scratch.ensure(sectorsPerNode_ * kSectorBytes);
    std::size_t head = 0;
    std::size_t warmed = 0;
    while (head < queue.size() && warmed < config.warm_nodes) {
        const VectorId node = queue[head++];
        const std::uint64_t first = sectorOfNode(node);
        readSectors(first, static_cast<std::uint32_t>(sectorsPerNode_),
                    buf, /*use_cache=*/false);
        for (std::size_t s = 0; s < sectorsPerNode_; ++s)
            cache_->warmInsert(first + s, buf + s * kSectorBytes);
        ++warmed;

        const std::uint8_t *record = buf + recordOffsetInSector(node);
        std::uint32_t degree = 0;
        std::memcpy(&degree, record + dim_ * sizeof(float),
                    sizeof(degree));
        const auto *neighbors = reinterpret_cast<const std::uint32_t *>(
            record + dim_ * sizeof(float) + sizeof(degree));
        for (std::uint32_t i = 0; i < degree; ++i) {
            const VectorId nb = neighbors[i];
            if (nb < rows_ && !seen[nb]) {
                seen[nb] = 1;
                queue.push_back(nb);
            }
        }
    }
    // The nodes actually warmed (queue[0, head)) stay cache-resident;
    // remember them as the zero-I/O entry-candidate pool.
    queue.resize(head);
    warmNodes_ = std::move(queue);
}

storage::NodeCacheStats
DiskAnnIndex::nodeCacheStats() const
{
    return cache_ ? cache_->stats() : storage::NodeCacheStats{};
}

void
DiskAnnIndex::dropNodeCache()
{
    if (cache_)
        cache_->dropCaches();
    if (codeStore_)
        codeStore_->dropCache();
}

void
DiskAnnIndex::setIoMode(const storage::IoOptions &options)
{
    ioOptions_ = options;
    ioPinned_ = true;
    if (!io_)
        return; // applies at the next build()/load()

    // Restore the code tier first: the new options carry their own
    // budget, applied below once the node file has moved.
    unspillCodes();

    // Migrate the node file: stream it from the current backend into
    // a sink opened under the new options.
    const std::uint64_t size = io_->sizeBytes();
    auto sink = storage::makeIoSink(options, size);
    if (const std::uint8_t *image = io_->data()) {
        sink->append(image, static_cast<std::size_t>(size));
    } else {
        storage::AlignedBuffer chunk;
        std::uint8_t *buf =
            chunk.ensure(kStreamSectors * kSectorBytes);
        const std::uint64_t sectors = size / kSectorBytes;
        for (std::uint64_t s = 0; s < sectors; s += kStreamSectors) {
            const auto count = static_cast<std::uint32_t>(
                std::min<std::uint64_t>(kStreamSectors, sectors - s));
            readSectors(s, count, buf, /*use_cache=*/false);
            sink->append(buf, count * kSectorBytes);
        }
    }
    io_ = sink->finish();
    attachCache();
    applyCodeResidency();
}

VectorId
DiskAnnIndex::addDelta(const float *vec)
{
    ANN_CHECK(rows_ > 0, "addDelta() requires a built index");
    deltaVectors_.insert(deltaVectors_.end(), vec, vec + dim_);
    deleted_.push_back(false);
    const auto id = static_cast<VectorId>(rows_ + deltaCount_);
    ++deltaCount_;
    return id;
}

void
DiskAnnIndex::markDeleted(VectorId id)
{
    ANN_CHECK(id < totalSize(), "markDeleted out of range");
    if (!deleted_[id]) {
        deleted_[id] = true;
        ++deletedCount_;
    }
}

bool
DiskAnnIndex::isDeleted(VectorId id) const
{
    ANN_CHECK(id < totalSize(), "isDeleted out of range");
    return deleted_[id];
}

void
DiskAnnIndex::consolidate(std::vector<VectorId> *old_to_new)
{
    ANN_CHECK(rows_ > 0, "consolidate() requires a built index");

    // Gather survivors: base vectors come back off the node file.
    std::vector<float> merged;
    merged.reserve((totalSize() - deletedCount_) * dim_);
    std::vector<VectorId> remap(totalSize(), kInvalidVector);
    storage::AlignedBuffer scratch;
    VectorId next = 0;
    for (std::size_t v = 0; v < rows_; ++v) {
        if (deleted_[v])
            continue;
        const auto *vec = reinterpret_cast<const float *>(
            fetchRecord(static_cast<VectorId>(v), scratch));
        merged.insert(merged.end(), vec, vec + dim_);
        remap[v] = next++;
    }
    for (std::size_t d = 0; d < deltaCount_; ++d) {
        if (deleted_[rows_ + d])
            continue;
        const float *vec = deltaVectors_.data() + d * dim_;
        merged.insert(merged.end(), vec, vec + dim_);
        remap[rows_ + d] = next++;
    }
    ANN_CHECK(next > 0, "consolidate would empty the index");
    if (old_to_new)
        *old_to_new = remap;

    const MatrixView view{merged.data(),
                          static_cast<std::size_t>(next), dim_};
    build(view, buildParams_);
}

std::uint64_t
DiskAnnIndex::sectorOfNode(VectorId node) const
{
    ANN_ASSERT(node < rows_, "node out of range");
    const std::uint64_t pos = nodePosition(node);
    if (nodesPerSector_ > 0)
        return dataStartSector() + pos / nodesPerSector_;
    return dataStartSector() + pos * sectorsPerNode_;
}

std::uint64_t
DiskAnnIndex::numSectors() const
{
    if (rows_ == 0)
        return 0;
    if (nodesPerSector_ > 0)
        return dataStartSector() +
               (rows_ + nodesPerSector_ - 1) / nodesPerSector_;
    return dataStartSector() + rows_ * sectorsPerNode_;
}

std::size_t
DiskAnnIndex::codebookBytes() const
{
    return pq_.numSubspaces() * pq_.codebookSize() *
           (pq_.numSubspaces() ? dim_ / pq_.numSubspaces() : 0) *
           sizeof(float);
}

std::size_t
DiskAnnIndex::memoryBytes() const
{
    return codebookBytes() +
           (codeStore_ ? codeStore_->memoryBytes() : pqCodes_.size());
}

storage::NodeCacheStats
DiskAnnIndex::codeCacheStats() const
{
    return codeStore_ ? codeStore_->cacheStats()
                      : storage::NodeCacheStats{};
}

std::vector<std::uint8_t>
DiskAnnIndex::codesInSlotOrder() const
{
    const std::size_t cs = pq_.codeSize();
    std::vector<std::uint8_t> slot_codes(pqCodes_.size());
    for (std::size_t v = 0; v < rows_; ++v)
        std::memcpy(slot_codes.data() + nodePosition(v) * cs,
                    pqCodes_.data() + v * cs, cs);
    return slot_codes;
}

void
DiskAnnIndex::applyCodeResidency()
{
    codeStore_.reset(); // callers guarantee pqCodes_ is populated
    const storage::IoOptions options = effectiveIoOptions();
    if (options.mem_budget_bytes == 0 || rows_ == 0)
        return;
    if (codebookBytes() + pqCodes_.size() <= options.mem_budget_bytes)
        return;
    // Over budget: the PQ code array is the first tier to go — the
    // full-precision vectors already live in the node file, and the
    // codebooks must stay (every query builds its ADC table from
    // them). Whatever the codebooks leave of the budget becomes the
    // code-page cache, floored so tiny budgets still search.
    std::size_t cache_bytes =
        options.mem_budget_bytes > codebookBytes()
            ? options.mem_budget_bytes - codebookBytes()
            : 0;
    cache_bytes = std::max(cache_bytes, kMinCodeCacheBytes);
    const std::vector<std::uint8_t> slot_codes = codesInSlotOrder();
    codeStore_ = std::make_unique<PqCodeStore>(
        slot_codes.data(), rows_, pq_.codeSize(), options,
        cache_bytes);
    pqCodes_.clear();
    pqCodes_.shrink_to_fit();
}

void
DiskAnnIndex::unspillCodes()
{
    if (!codeStore_)
        return;
    const std::size_t cs = pq_.codeSize();
    const std::vector<std::uint8_t> slot_codes =
        codeStore_->exportSlotOrder();
    pqCodes_.resize(rows_ * cs);
    for (std::size_t v = 0; v < rows_; ++v)
        std::memcpy(pqCodes_.data() + v * cs,
                    slot_codes.data() + nodePosition(v) * cs, cs);
    codeStore_.reset();
}

std::size_t
DiskAnnIndex::recordOffsetInSector(VectorId node) const
{
    if (nodesPerSector_ > 0)
        return (nodePosition(node) % nodesPerSector_) * nodeBytes_;
    return 0;
}

const std::uint8_t *
DiskAnnIndex::fetchRecord(VectorId node,
                          storage::AlignedBuffer &scratch) const
{
    ANN_ASSERT(io_ != nullptr, "node file not attached");
    if (const std::uint8_t *image = io_->data())
        return image + sectorOfNode(node) * kSectorBytes +
               recordOffsetInSector(node);
    std::uint8_t *buf = scratch.ensure(sectorsPerNode_ * kSectorBytes);
    readSectors(sectorOfNode(node),
                static_cast<std::uint32_t>(sectorsPerNode_), buf,
                /*use_cache=*/true);
    return buf + recordOffsetInSector(node);
}

void
DiskAnnIndex::readSectors(std::uint64_t first, std::uint32_t count,
                          std::uint8_t *dest, bool use_cache) const
{
    ANN_ASSERT(io_ != nullptr, "node file not attached");
    if (!use_cache || !cache_) {
        const storage::IoRequest req{first, count, dest};
        io_->readBatch(&req, 1);
        return;
    }
    // The same cached fetch the beam hops run, so load-path reads
    // share their I/O accounting and single-flight dedupe.
    std::vector<std::uint64_t> sectors(count);
    std::iota(sectors.begin(), sectors.end(), first);
    storage::SectorReader reader(*io_, cache_.get());
    reader.fetch(sectors.data(), sectors.size(), dest);
}

SearchResult
DiskAnnIndex::search(const float *query, const DiskAnnSearchParams &params,
                     SearchTraceRecorder *recorder) const
{
    SearchResult out;
    searchInto(query, params, out, recorder);
    return out;
}

void
DiskAnnIndex::searchInto(const float *query,
                         const DiskAnnSearchParams &params,
                         SearchResult &out,
                         SearchTraceRecorder *recorder) const
{
    ANN_CHECK(rows_ > 0, "search on empty diskann index");
    ANN_CHECK(params.search_list >= params.k,
              "search_list must be >= k");
    ANN_CHECK(params.beam_width >= 1, "beam_width must be >= 1");

    VisitTable &visited = tls_visit;
    visited.reset(rows_);

    ScratchGuard<DiskAnnScratch> scratch(tls_scratch);
    const bool prefetch = prefetchEnabled();
    const bool batch_adc = adcBatchEnabled();
    // Short neighbour runs (most hops after the first few — the
    // visited filter leaves single-digit pending counts) lose more to
    // the 4-wide kernel's setup than they gain from gather overlap;
    // only batch runs long enough to amortize it.
    const std::size_t batch_min =
        std::max<std::size_t>(4, adcBatchMinPending());
    const std::size_t code_size = pq_.codeSize();

    // Learned-policy snapshot: taken once per query so a concurrent
    // toggle flip cannot split one search across configurations. Both
    // behaviors require an active model; with the toggles off (the
    // default) none of the code below runs and results stay
    // bit-identical to the unlearned baseline.
    std::shared_ptr<const learn::Model> model;
    if (learn::learnedEntryEnabled() || learn::earlyStopEnabled())
        model = learn::activeModel();
    const bool entry_on = model && learn::learnedEntryEnabled();
    const bool stop_on = model && learn::earlyStopEnabled();
    const bool want_hops =
        (recorder && recorder->hopCaptureEnabled()) ||
        learn::HopSink::instance().enabled();
    std::vector<learn::HopRecord> &hop_records = scratch->hops;
    hop_records.clear();

    OpCounts local_ops;
    AdcTable &adc = scratch->adc;
    pq_.computeAdcTable(query, adc);
    local_ops.adc_tables += 1;

    // Sized once to its worst case (search_list survivors plus one
    // hop's fan-out) and clear()ed per query — the seed reallocated
    // this pool on every search.
    std::vector<BeamEntry> &cands = scratch->cands;
    cands.clear();
    const std::size_t cand_cap =
        params.search_list + maxDegree_ * params.beam_width;
    if (cands.capacity() < cand_cap)
        cands.reserve(cand_cap);

    // Code-tier access: resident codes index straight into pqCodes_;
    // under a memory budget the spilled tier resolves through the
    // code store instead. The store hands back exactly the bytes the
    // resident array held, so every ADC distance below — and hence
    // the search result — is bit-identical across the two tiers.
    const PqCodeStore *code_store = codeStore_.get();
    const float medoid_adc = pq_.adcDistance(
        adc, code_store
                 ? code_store->fetchSlot(nodePosition(medoid_))
                 : pqCodes_.data() + medoid_ * code_size);
    local_ops.quant_distances += 1;
    VectorId entry_id = medoid_;
    float entry_adc = medoid_adc;
    if (entry_on) {
        // Per-query predicted entry point: score a capped pool of
        // candidates by P(reaches top-k) and start from the argmax.
        // The pool is the cache-resident BFS warm set when one exists
        // (prediction then costs zero I/O on the file/uring backends);
        // without a cache — e.g. the memory backend, where every
        // sector is free anyway — a fixed stride over all ids serves.
        std::vector<VectorId> &pool = scratch->entry_pool;
        std::vector<float> &dists = scratch->entry_dists;
        pool.clear();
        dists.clear();
        const std::size_t cap = learn::entryCandidateCap();
        if (!warmNodes_.empty()) {
            const std::size_t stride =
                std::max<std::size_t>(1, warmNodes_.size() / cap);
            for (std::size_t i = 0;
                 i < warmNodes_.size() && pool.size() < cap;
                 i += stride)
                pool.push_back(warmNodes_[i]);
        } else {
            const std::size_t stride =
                std::max<std::size_t>(1, rows_ / cap);
            for (std::size_t v = 0; v < rows_ && pool.size() < cap;
                 v += stride)
                pool.push_back(static_cast<VectorId>(v));
        }
        float best_adc = medoid_adc;
        if (code_store) {
            // One batched fetch scores the whole pool; under a packed
            // layout the warm set's codes sit on the store's warmed
            // leading pages, so this costs zero I/O steady-state.
            std::vector<std::uint64_t> &slots = scratch->code_slots;
            slots.clear();
            for (const VectorId node : pool)
                slots.push_back(nodePosition(node));
            scratch->code_ptrs.resize(slots.size());
            code_store->fetchSlots(slots.data(), slots.size(),
                                   scratch->code_ptrs.data());
            for (const std::uint8_t *code : scratch->code_ptrs) {
                const float d = pq_.adcDistance(adc, code);
                dists.push_back(d);
                best_adc = std::min(best_adc, d);
            }
        } else {
            for (const VectorId node : pool) {
                const float d = pq_.adcDistance(
                    adc, pqCodes_.data() + node * code_size);
                dists.push_back(d);
                best_adc = std::min(best_adc, d);
            }
        }
        local_ops.quant_distances += pool.size();
        std::vector<float> &sorted = scratch->entry_sorted;
        sorted = dists;
        const std::size_t kth_idx =
            std::min<std::size_t>(params.k, sorted.size()) - 1;
        std::nth_element(sorted.begin(), sorted.begin() + kth_idx,
                         sorted.end());
        const float kth_adc = sorted[kth_idx];
        // Strict > keeps the argmax deterministic: ties resolve to
        // the earliest pool entry (warm BFS order / ascending id).
        float best_p = -1.0f;
        for (std::size_t i = 0; i < pool.size(); ++i) {
            const float p = model->predict(learn::featurize(
                {dists[i], best_adc, kth_adc, medoid_adc, 0}));
            if (p > best_p) {
                best_p = p;
                entry_id = pool[i];
                entry_adc = dists[i];
            }
        }
    }
    cands.push_back({entry_adc, entry_id, false});
    visited.tryVisit(entry_id);

    TopK &reranked = scratch->reranked;
    reranked.reset(params.k);
    std::vector<VectorId> &beam = scratch->beam;
    std::vector<std::uint64_t> &sectors = scratch->sectors;
    std::vector<storage::IoRun> &runs = scratch->runs;
    std::vector<VectorId> &pending = scratch->pending;
    std::vector<float> &beam_dists = scratch->beam_dists;

    float stop_threshold = 0.0f;
    std::size_t stop_min_hops = 0;
    std::size_t stop_patience = 1;
    std::size_t stop_below = 0;
    if (stop_on) {
        const float override_t = learn::earlyStopThresholdOverride();
        stop_threshold =
            override_t >= 0.0f ? override_t : model->threshold();
        stop_min_hops = learn::earlyStopMinHops();
        stop_patience = learn::earlyStopPatience();
    }
    std::uint32_t hop = 0;
    std::size_t expanded_total = 0;
    // Frontier-stall tracker for the learned features: hops since the
    // k-th candidate distance last improved. samplesFromTraces()
    // derives the same counter from the recorded kth_adc sequence, so
    // training and inference see identical inputs.
    float best_kth_seen = std::numeric_limits<float>::infinity();
    std::uint32_t last_improve_hop = 0;

    // Zero-copy image when memory-resident; otherwise every hop
    // fetches its beam through one per-query SectorReader, whose
    // queue (opened on the first miss) pipelines the hop's reads.
    const std::uint8_t *image = io_->data();
    std::optional<storage::SectorReader> reader;
    if (!image)
        reader.emplace(*io_, cache_.get());

    for (;;) {
        // Decision-time frontier stats (cands is sorted on entry to
        // every iteration): shared by the early-stop gate and the hop
        // records, both measured BEFORE this hop spends any I/O.
        const float frontier_best = cands[0].distance;
        const float frontier_kth =
            cands[std::min<std::size_t>(params.k, cands.size()) - 1]
                .distance;
        if (frontier_kth < best_kth_seen) {
            best_kth_seen = frontier_kth;
            last_improve_hop = hop;
        }
        const std::uint32_t stall = hop - last_improve_hop;

        // Gather up to beam_width closest unexpanded candidates.
        beam.clear();
        beam_dists.clear();
        for (auto &entry : cands) {
            if (entry.expanded)
                continue;
            entry.expanded = true;
            beam.push_back(entry.id);
            beam_dists.push_back(entry.distance);
            if (beam.size() >= params.beam_width)
                break;
        }
        if (beam.empty())
            break;

        // Confidence-gated early termination: once the mandatory
        // first hops have run and k nodes are reranked, halt before
        // issuing this hop's reads when no beam candidate is
        // predicted to reach the final top-k.
        if (stop_on && hop >= stop_min_hops &&
            expanded_total >= params.k) {
            float best_p = 0.0f;
            for (const float d : beam_dists)
                best_p = std::max(
                    best_p,
                    model->predict(learn::featurize(
                        {d, frontier_best, frontier_kth, entry_adc,
                         hop, stall})));
            if (best_p < stop_threshold) {
                // Patience: one low-confidence hop can be a
                // misprediction; a run of them is convergence.
                if (++stop_below >= stop_patience)
                    break;
            } else {
                stop_below = 0;
            }
        }
        if (want_hops) {
            for (std::size_t i = 0; i < beam.size(); ++i)
                hop_records.push_back({beam[i], hop, beam_dists[i],
                                       frontier_best, frontier_kth,
                                       entry_adc, 0});
        }
        local_ops.hops += 1;

        // The whole beam becomes one batch of coalesced sector runs —
        // the shape recorded for the simulator AND issued for real.
        if (recorder || !image) {
            sectors.clear();
            for (VectorId node : beam) {
                const std::uint64_t first = sectorOfNode(node);
                for (std::size_t s = 0; s < sectorsPerNode_; ++s)
                    sectors.push_back(first + s);
            }
            std::sort(sectors.begin(), sectors.end());
            sectors.erase(std::unique(sectors.begin(), sectors.end()),
                          sectors.end());
        }
        // One fetch-buffer slot per beam sector, in sorted order: cache
        // hits land at start(), the rest as their reads complete.
        std::uint8_t *buf = nullptr;
        if (!image) {
            buf = tls_fetch.ensure(sectors.size() * kSectorBytes);
            reader->start(sectors.data(), sectors.size(), buf);
        }
        if (recorder) {
            // Only sectors that reach the backend are charged to the
            // simulator; hop sectors served by the cache cost no I/O.
            if (image)
                storage::coalesceSectors(sectors, runs);
            const std::vector<storage::IoRun> &issued =
                image ? runs : reader->submitted();
            std::vector<SectorRead> reads;
            reads.reserve(issued.size());
            for (const storage::IoRun &run : issued)
                reads.push_back({run.sector, run.count});
            recorder->cpu() += local_ops;
            local_ops = OpCounts{};
            recorder->issueReads(std::move(reads));
        }

        // Consume one node record. Processing ORDER within a hop
        // cannot change results: the visited filter makes the
        // newly-scored neighbour SET order-independent, each ADC
        // distance is a pure function of the neighbour id, and the
        // (distance, id) sort below is a total order over the unique
        // ids in cands — so the real-I/O path scores nodes in
        // completion order and stays bit-identical to the image.
        const auto process_node = [&](VectorId node,
                                      const std::uint8_t *record) {
            const float *vec = reinterpret_cast<const float *>(record);
            if (!deleted_[node])
                reranked.push(node, l2DistanceSq(query, vec, dim_));
            local_ops.full_distances += 1;

            std::uint32_t degree = 0;
            std::memcpy(&degree, record + dim_ * sizeof(float),
                        sizeof(degree));
            const auto *neighbors =
                reinterpret_cast<const std::uint32_t *>(
                    record + dim_ * sizeof(float) + sizeof(degree));
            // Collect unvisited neighbours (prefetching the next
            // candidate's PQ codes one step ahead), then score them —
            // four per batched ADC pass when enabled. The push order
            // into cands matches the per-neighbour loop exactly and
            // the batched kernels keep the per-code reduction order,
            // so results stay bit-identical across both toggles.
            // Spilled tier: the embedded copies behind the adjacency
            // list carry every pending neighbour's code inside this
            // already-fetched record — zero extra I/O. Indexes built
            // without embedding batch the codes through the code
            // store as one fetch instead. Either way the pointers
            // feed the exact same scoring loops in the exact same
            // order, so results match the resident tier bit for bit.
            const bool inline_codes =
                code_store != nullptr && embeddedCodeBytes_ > 0;
            const std::uint8_t *embedded_base =
                record + dim_ * sizeof(float) + sizeof(degree) +
                maxDegree_ * sizeof(std::uint32_t);
            std::vector<const std::uint8_t *> &pcodes =
                scratch->pending_codes;
            pending.clear();
            pcodes.clear();
            for (std::uint32_t i = 0; i < degree; ++i) {
                if (prefetch && !code_store && i + 1 < degree)
                    prefetchRead(pqCodes_.data() +
                                 neighbors[i + 1] * code_size);
                const VectorId nb = neighbors[i];
                if (!visited.tryVisit(nb))
                    continue;
                pending.push_back(nb);
                if (inline_codes)
                    pcodes.push_back(embedded_base + i * code_size);
            }
            const std::uint8_t *const *codes_of = nullptr;
            if (code_store) {
                if (!inline_codes) {
                    std::vector<std::uint64_t> &slots =
                        scratch->code_slots;
                    slots.clear();
                    for (const VectorId nb : pending)
                        slots.push_back(nodePosition(nb));
                    pcodes.resize(pending.size());
                    if (!slots.empty())
                        code_store->fetchSlots(slots.data(),
                                               slots.size(),
                                               pcodes.data());
                }
                codes_of = pcodes.data();
            }
            const auto code_at = [&](std::size_t pi) {
                return codes_of ? codes_of[pi]
                                : pqCodes_.data() +
                                      pending[pi] * code_size;
            };
            std::size_t p = 0;
            if (batch_adc && pending.size() >= batch_min) {
                for (; p + 4 <= pending.size(); p += 4) {
                    const std::uint8_t *codes4[4];
                    float d4[4];
                    for (int j = 0; j < 4; ++j)
                        codes4[j] = code_at(p + j);
                    pq_.adcDistanceBatch4(adc, codes4, d4);
                    for (int j = 0; j < 4; ++j)
                        cands.push_back({d4[j], pending[p + j], false});
                }
            }
            for (; p < pending.size(); ++p)
                cands.push_back({pq_.adcDistance(adc, code_at(p)),
                                 pending[p], false});
            local_ops.quant_distances += pending.size();
            local_ops.heap_ops += pending.size();
        };

        if (image) {
            for (VectorId node : beam)
                process_node(node, image +
                                       sectorOfNode(node) * kSectorBytes +
                                       recordOffsetInSector(node));
        } else {
            // Pipelined drain: score each node the moment its sectors
            // are in instead of waiting for the whole hop.
            std::vector<std::uint8_t> &node_done = scratch->node_done;
            node_done.assign(beam.size(), 0);
            std::size_t done_nodes = 0;
            for (;;) {
                for (std::size_t bi = 0; bi < beam.size(); ++bi) {
                    if (node_done[bi])
                        continue;
                    const VectorId node = beam[bi];
                    const auto slot = static_cast<std::size_t>(
                        std::lower_bound(sectors.begin(), sectors.end(),
                                         sectorOfNode(node)) -
                        sectors.begin());
                    if (!reader->ready(slot, sectorsPerNode_))
                        continue;
                    process_node(node, buf + slot * kSectorBytes +
                                           recordOffsetInSector(node));
                    node_done[bi] = 1;
                    ++done_nodes;
                }
                if (done_nodes == beam.size())
                    break;
                reader->wait();
            }
        }
        expanded_total += beam.size();
        ++hop;
        std::sort(cands.begin(), cands.end());
        if (cands.size() > params.search_list)
            cands.resize(params.search_list);
    }

    // Memory-resident delta store: exact scan, no I/O.
    for (std::size_t d = 0; d < deltaCount_; ++d) {
        if (deleted_[rows_ + d])
            continue;
        reranked.push(static_cast<VectorId>(rows_ + d),
                      l2DistanceSq(query,
                                   deltaVectors_.data() + d * dim_,
                                   dim_));
        local_ops.full_distances += 1;
        local_ops.rows_scanned += 1;
    }

    if (recorder) {
        recorder->cpu() += local_ops;
        recorder->finish();
    }
    reranked.drainInto(out);

    if (want_hops && !hop_records.empty()) {
        // Label each expansion by whether its node made the final
        // top-k, then deliver: per-query to the recorder, process-wide
        // to the HopSink (annbench --learn-dump).
        for (learn::HopRecord &h : hop_records) {
            h.reached_topk = 0;
            for (const Neighbor &n : out) {
                if (n.id == h.node) {
                    h.reached_topk = 1;
                    break;
                }
            }
        }
        std::vector<std::uint8_t> code(code_size);
        pq_.encode(query, code.data());
        learn::HopSink &sink = learn::HopSink::instance();
        if (sink.enabled()) {
            learn::QueryHopTrace trace;
            trace.query_seq = sink.nextSeq();
            trace.query_code = code;
            trace.hops = hop_records;
            sink.append(std::move(trace));
        }
        if (recorder && recorder->hopCaptureEnabled())
            recorder->setHopRecords(hop_records, std::move(code));
    }
}

void
DiskAnnIndex::save(BinaryWriter &writer) const
{
    // Id-order indexes without embedded codes keep writing the seed's
    // version-3 byte stream (older readers still load them); the
    // packed layout needs the permutation persisted and bumps to
    // version 4, embedded PQ codes bump to version 5. An index loaded
    // from a v3/v4 archive has no embedded codes, so it re-saves in
    // its original version byte for byte.
    const bool packed = layout_ != LayoutPolicy::IdOrder;
    const bool embedded = embeddedCodeBytes_ > 0;
    writer.writeString(kMagic);
    writer.writePod<std::uint32_t>(embedded  ? kVersionEmbedded
                                   : packed ? kVersionPacked
                                            : kVersionIdOrder);
    writer.writePod<std::uint64_t>(rows_);
    writer.writePod<std::uint64_t>(dim_);
    writer.writePod<std::uint64_t>(maxDegree_);
    writer.writePod<std::uint64_t>(nodeBytes_);
    writer.writePod<std::uint64_t>(nodesPerSector_);
    writer.writePod<std::uint64_t>(sectorsPerNode_);
    writer.writePod<VectorId>(medoid_);
    if (packed || embedded) {
        // v5 writes the pair even under id order (nodePos_ is then
        // empty) so the stream shape is a superset of v4's.
        writer.writePod<std::uint32_t>(
            static_cast<std::uint32_t>(layout_));
        writer.writeVector(nodePos_);
    }
    if (embedded)
        writer.writePod<std::uint64_t>(embeddedCodeBytes_);
    writer.writePod<std::uint64_t>(buildParams_.graph.max_degree);
    writer.writePod<std::uint64_t>(buildParams_.graph.build_list);
    writer.writePod<float>(buildParams_.graph.alpha);
    writer.writePod<std::uint64_t>(buildParams_.graph.seed);
    writer.writePod<std::uint64_t>(buildParams_.pq.m);
    writer.writePod<std::uint64_t>(buildParams_.pq.ksub);
    writer.writeVector(deltaVectors_);
    writer.writePod<std::uint64_t>(deltaCount_);
    {
        std::vector<std::uint8_t> tombstones(totalSize(), 0);
        for (std::size_t i = 0; i < totalSize(); ++i)
            tombstones[i] = deleted_[i] ? 1 : 0;
        writer.writeVector(tombstones);
    }
    pq_.save(writer);
    if (codeStore_) {
        // Spilled tier: read the codes back off the residency file
        // and de-permute to id order, so the archive is byte-equal to
        // one saved from the resident configuration.
        const std::size_t cs = pq_.codeSize();
        const std::vector<std::uint8_t> slot_codes =
            codeStore_->exportSlotOrder();
        std::vector<std::uint8_t> codes(rows_ * cs);
        for (std::size_t v = 0; v < rows_; ++v)
            std::memcpy(codes.data() + v * cs,
                        slot_codes.data() + nodePosition(v) * cs, cs);
        writer.writeVector(codes);
    } else {
        writer.writeVector(pqCodes_);
    }
    // Node file, in writeVector() layout (u64 byte count + raw bytes)
    // so version-3 archives stay interchangeable, but streamed
    // chunk-wise: non-memory backends never materialize the image.
    const std::uint64_t image_bytes = io_ ? io_->sizeBytes() : 0;
    writer.writePod<std::uint64_t>(image_bytes);
    if (image_bytes == 0)
        return;
    if (const std::uint8_t *image = io_->data()) {
        writer.writeRaw(image, static_cast<std::size_t>(image_bytes));
        return;
    }
    storage::AlignedBuffer chunk;
    std::uint8_t *buf = chunk.ensure(kStreamSectors * kSectorBytes);
    const std::uint64_t sectors = image_bytes / kSectorBytes;
    for (std::uint64_t s = 0; s < sectors; s += kStreamSectors) {
        const auto count = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(kStreamSectors, sectors - s));
        readSectors(s, count, buf, /*use_cache=*/false);
        writer.writeRaw(buf, count * kSectorBytes);
    }
}

void
DiskAnnIndex::load(BinaryReader &reader)
{
    // Every field below bounds a later table lookup or read (record
    // offsets, the visited table, the ADC table), so each is checked
    // here and a corrupt archive fails as a typed error instead of
    // reading or writing out of bounds at search time.
    const auto check = [](bool ok, const char *what) {
        ANN_CHECK(ok, "corrupt diskann archive (", what, ")");
    };
    ANN_CHECK(reader.readString() == kMagic, "not a diskann archive");
    const auto version = reader.readPod<std::uint32_t>();
    ANN_CHECK(version == kVersionIdOrder ||
                  version == kVersionPacked ||
                  version == kVersionEmbedded,
              "diskann archive version mismatch");
    rows_ = reader.readPod<std::uint64_t>();
    dim_ = reader.readPod<std::uint64_t>();
    maxDegree_ = reader.readPod<std::uint64_t>();
    nodeBytes_ = reader.readPod<std::uint64_t>();
    nodesPerSector_ = reader.readPod<std::uint64_t>();
    sectorsPerNode_ = reader.readPod<std::uint64_t>();
    medoid_ = reader.readPod<VectorId>();
    check(rows_ > 0 && rows_ < kInvalidVector, "rows");
    check(dim_ > 0 && dim_ <= (1u << 16), "dim");
    check(maxDegree_ <= (1u << 16), "max degree");
    check(medoid_ < rows_, "medoid");
    layout_ = LayoutPolicy::IdOrder;
    nodePos_.clear();
    permSectors_ = 0;
    embeddedCodeBytes_ = 0;
    codeStore_.reset();
    if (version >= kVersionPacked) {
        layout_ = static_cast<LayoutPolicy>(
            reader.readPod<std::uint32_t>());
        nodePos_ = reader.readVector<std::uint32_t>();
        if (layout_ == LayoutPolicy::PackedBfs) {
            check(nodePos_.size() == rows_, "permutation size");
            // A permutation of [0, rows): every record position is
            // in range and owned by exactly one node.
            std::vector<std::uint8_t> taken(rows_, 0);
            for (const std::uint32_t pos : nodePos_) {
                check(pos < rows_ && !taken[pos], "permutation");
                taken[pos] = 1;
            }
            permSectors_ = (rows_ * sizeof(std::uint32_t) +
                            kSectorBytes - 1) /
                           kSectorBytes;
        } else {
            // Only v5 writes the pair for id order (empty perm).
            ANN_CHECK(version == kVersionEmbedded &&
                          layout_ == LayoutPolicy::IdOrder &&
                          nodePos_.empty(),
                      "corrupt diskann archive (unknown layout)");
        }
        if (version == kVersionEmbedded)
            embeddedCodeBytes_ =
                reader.readPod<std::uint64_t>();
    }
    check(embeddedCodeBytes_ <= 256, "embedded code bytes");
    check(nodeBytes_ == dim_ * sizeof(float) + sizeof(std::uint32_t) +
                            maxDegree_ * sizeof(std::uint32_t) +
                            maxDegree_ * embeddedCodeBytes_,
          "node bytes");
    check(nodeBytes_ <= kSectorBytes
              ? nodesPerSector_ == kSectorBytes / nodeBytes_ &&
                    sectorsPerNode_ == 1
              : nodesPerSector_ == 0 &&
                    sectorsPerNode_ == (nodeBytes_ + kSectorBytes - 1) /
                                           kSectorBytes,
          "record packing");
    buildParams_.layout = layout_;
    // Keep consolidate() archive-stable: a rebuild embeds codes only
    // if this archive had them.
    buildParams_.embed_codes = embeddedCodeBytes_ > 0;
    buildParams_.graph.max_degree = reader.readPod<std::uint64_t>();
    buildParams_.graph.build_list = reader.readPod<std::uint64_t>();
    buildParams_.graph.alpha = reader.readPod<float>();
    buildParams_.graph.seed = reader.readPod<std::uint64_t>();
    buildParams_.pq.m = reader.readPod<std::uint64_t>();
    buildParams_.pq.ksub = reader.readPod<std::uint64_t>();
    deltaVectors_ = reader.readVector<float>();
    deltaCount_ = reader.readPod<std::uint64_t>();
    check(deltaCount_ <= deltaVectors_.size() &&
              deltaVectors_.size() == deltaCount_ * dim_,
          "delta store");
    {
        const auto tombstones = reader.readVector<std::uint8_t>();
        check(tombstones.size() == rows_ + deltaCount_, "tombstones");
        deleted_.assign(tombstones.size(), false);
        deletedCount_ = 0;
        for (std::size_t i = 0; i < tombstones.size(); ++i) {
            if (tombstones[i]) {
                deleted_[i] = true;
                ++deletedCount_;
            }
        }
    }
    pq_.load(reader);
    const std::size_t code_size = pq_.codeSize();
    check(pq_.dim() == dim_, "pq dim");
    check(embeddedCodeBytes_ == 0 || embeddedCodeBytes_ == code_size,
          "embedded code size");
    pqCodes_ = reader.readVector<std::uint8_t>();
    check(pqCodes_.size() == rows_ * code_size, "pq codes");
    const std::size_t ksub = pq_.codebookSize();
    for (const std::uint8_t code : pqCodes_)
        check(code < ksub, "pq code");

    // Stream the node file straight into the configured backend
    // instead of materializing it (readVector layout, see save()),
    // validating every record on the way: the header region goes
    // first, so each data chunk holds whole records.
    const auto image_bytes = reader.readPod<std::uint64_t>();
    check(image_bytes == numSectors() * kSectorBytes, "image size");
    const auto check_record = [&](const std::uint8_t *record) {
        for (std::size_t d = 0; d < dim_; ++d) {
            float value;
            std::memcpy(&value, record + d * sizeof(float),
                        sizeof(value));
            check(std::isfinite(value), "vector");
        }
        std::uint32_t degree = 0;
        std::memcpy(&degree, record + dim_ * sizeof(float),
                    sizeof(degree));
        check(degree <= maxDegree_, "degree");
        const std::uint8_t *ids =
            record + dim_ * sizeof(float) + sizeof(degree);
        const std::uint8_t *codes =
            ids + maxDegree_ * sizeof(std::uint32_t);
        for (std::uint32_t i = 0; i < degree; ++i) {
            std::uint32_t nb = 0;
            std::memcpy(&nb, ids + i * sizeof(nb), sizeof(nb));
            check(nb < rows_, "neighbour id");
            for (std::size_t c = 0; c < embeddedCodeBytes_; ++c)
                check(codes[i * embeddedCodeBytes_ + c] < ksub,
                      "embedded code");
        }
    };
    auto sink = storage::makeIoSink(effectiveIoOptions(), image_bytes);
    const std::size_t group = nodesPerSector_ > 0 ? 1 : sectorsPerNode_;
    const std::size_t chunk_sectors =
        std::max(group, kStreamSectors / group * group);
    std::vector<std::uint8_t> chunk(chunk_sectors * kSectorBytes);
    const std::uint64_t total_sectors = numSectors();
    const std::uint64_t data_start = dataStartSector();
    std::uint64_t sector = 0;
    std::uint64_t pos = 0; // next record position to validate
    while (sector < total_sectors) {
        const std::uint64_t end =
            sector < data_start
                ? std::min(data_start, sector + chunk_sectors)
                : std::min(total_sectors, sector + chunk_sectors);
        const auto count = static_cast<std::size_t>(end - sector);
        reader.readRaw(chunk.data(), count * kSectorBytes);
        for (std::size_t j = 0; sector >= data_start && j < count;
             j += group) {
            const std::uint8_t *base = chunk.data() + j * kSectorBytes;
            const std::size_t records =
                nodesPerSector_ > 0 ? nodesPerSector_ : 1;
            for (std::size_t r = 0; r < records && pos < rows_;
                 ++r, ++pos)
                check_record(base + r * nodeBytes_);
        }
        sink->append(chunk.data(), count * kSectorBytes);
        sector = end;
    }
    io_ = sink->finish();
    attachCache();
    applyCodeResidency();
}

} // namespace ann
