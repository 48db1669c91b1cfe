/**
 * @file
 * DiskANN: the storage-based graph index (Subramanya et al.,
 * NeurIPS'19) that the paper characterizes through Milvus.
 *
 * Memory holds product-quantized codes of every vector (small); the
 * Vamana graph plus the full-precision vectors live in a 4 KiB-sector
 * disk file. Each graph node record is [fp32 vector | degree |
 * neighbour ids]; records are packed whole into sectors (or span
 * several sectors when larger than one), so every graph hop costs
 * whole-sector reads — this layout is why the paper observes > 99.99 %
 * of I/O requests at exactly 4 KiB (O-15).
 *
 * *Which* record lands in which sector is a pluggable LayoutPolicy
 * (index/layout.hh): id order (the seed layout) or PAGE-style packed
 * BFS-from-medoid order, where topologically close nodes share pages
 * so a beam fetch serves several candidates per read. The id->position
 * permutation lives in the header region of the disk image and in
 * version-4 archives; the read path translates through it, so results
 * are bit-identical across policies.
 *
 * Search is beam search: each iteration expands the beam_width (W)
 * closest unexpanded candidates of the search_list (L) sized candidate
 * list, issuing their sector reads as one parallel batch. Distances
 * that steer the traversal use the in-memory PQ codes; the
 * full-precision vectors read from disk re-rank the final result.
 */

#ifndef ANN_INDEX_DISKANN_INDEX_HH
#define ANN_INDEX_DISKANN_INDEX_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.hh"
#include "index/params.hh"
#include "index/search_trace.hh"
#include "quant/code_store.hh"
#include "quant/product_quantizer.hh"
#include "storage/io_backend.hh"

namespace ann {

class BinaryReader;
class BinaryWriter;

/** Sector size of the disk layout (matches NVMe LBA+fs). */
inline constexpr std::size_t kSectorBytes = storage::kIoSectorBytes;

/** Storage-based graph index with PQ-guided beam search. */
class DiskAnnIndex
{
  public:
    DiskAnnIndex() = default;

    /** Build graph + PQ codes + disk image from @p data. */
    void build(const MatrixView &data, const DiskAnnBuildParams &params);

    /**
     * FreshDiskANN-style streaming insert (paper SS VIII): the vector
     * joins a memory-resident delta store that searches scan exactly;
     * consolidate() later merges it into the on-disk graph.
     * @return the new vector's id (continues after the base rows).
     */
    VectorId addDelta(const float *vec);

    /** Tombstone @p id (base or delta); filtered from results. */
    void markDeleted(VectorId id);
    bool isDeleted(VectorId id) const;
    std::size_t deletedCount() const { return deletedCount_; }
    std::size_t deltaSize() const { return deltaCount_; }
    /** Base + delta vectors (including tombstoned ones). */
    std::size_t totalSize() const { return rows_ + deltaCount_; }

    /**
     * Streaming merge: rebuilds the on-disk index from the surviving
     * base vectors (read back from the disk image) plus the delta,
     * clearing tombstones. Surviving vectors get new dense ids;
     * @param old_to_new when non-null receives the id remapping
     *        (kInvalidVector for deleted entries).
     */
    void consolidate(std::vector<VectorId> *old_to_new = nullptr);

    std::size_t size() const { return rows_; }
    std::size_t dim() const { return dim_; }
    std::size_t maxDegree() const { return maxDegree_; }
    VectorId medoid() const { return medoid_; }

    /** Bytes of one on-disk node record. */
    std::size_t nodeBytes() const { return nodeBytes_; }
    /** Node records packed per sector (0 when nodes span sectors). */
    std::size_t nodesPerSector() const { return nodesPerSector_; }
    /** Sectors one node spans (1 when nodes pack into sectors). */
    std::size_t sectorsPerNode() const { return sectorsPerNode_; }
    /** Record-placement policy this index was built with. */
    LayoutPolicy layout() const { return layout_; }
    /**
     * Record position of @p node : its id under IdOrder, its
     * BFS-from-medoid rank under PackedBfs. Positions, not ids, are
     * what pack consecutively into sectors.
     */
    std::uint64_t nodePosition(VectorId node) const
    {
        return nodePos_.empty() ? node : nodePos_[node];
    }
    /**
     * First data sector: 1 under IdOrder; 1 + the permutation-table
     * sectors under PackedBfs (the permutation is part of the header
     * region so the image stays self-describing).
     */
    std::uint64_t dataStartSector() const { return 1 + permSectors_; }
    /** First sector holding @p node 's record. */
    std::uint64_t sectorOfNode(VectorId node) const;
    /** Total sectors of the disk file (including the header region). */
    std::uint64_t numSectors() const;

    /**
     * In-memory footprint: PQ codebooks plus the code tier — the full
     * code array when resident, or the code store's cache when the
     * tier is spilled under a memory budget.
     */
    std::size_t memoryBytes() const;
    /**
     * False when the PQ code tier was spilled to the on-storage code
     * file under $ANN_MEM_BUDGET_MB (see storage::IoOptions
     * ::mem_budget_bytes). Results are bit-identical either way.
     */
    bool codesResident() const { return codeStore_ == nullptr; }
    /**
     * Bytes of PQ code embedded per neighbour slot of each record (0
     * when embedding was disabled at build). Embedded copies let the
     * spilled tier re-score every neighbour a beam fetch delivers at
     * zero extra I/O.
     */
    std::size_t embeddedCodeBytes() const { return embeddedCodeBytes_; }
    /** Code-page cache counters (all zero while codes are resident). */
    storage::NodeCacheStats codeCacheStats() const;
    /** On-disk footprint: the full sector file. */
    std::size_t diskBytes() const
    {
        return io_ ? static_cast<std::size_t>(io_->sizeBytes()) : 0;
    }

    /**
     * Re-home the node file onto a different I/O backend: the image
     * bytes are preserved, so search results stay bit-identical
     * across backends. Also pins the choice for future build()/load()
     * calls on this index (otherwise both follow
     * storage::defaultIoOptions()). Not safe concurrently with
     * search().
     */
    void setIoMode(const storage::IoOptions &options);

    /** Backend serving the node file (null before build/load). */
    const storage::IoBackend *ioBackend() const { return io_.get(); }

    /**
     * Application-level sector cache fronting the file/uring backends
     * (null on the memory backend or when sized zero): a static warm
     * set BFS'd from the medoid at attach time plus a sharded CLOCK
     * dynamic part fed by the beam-search fetch path.
     */
    const storage::SectorCache *nodeCache() const { return cache_.get(); }
    /** Zeroes when no cache is attached. */
    storage::NodeCacheStats nodeCacheStats() const;
    /** Evict the dynamic cache frames (cold-run protocol). No-op
     *  without a cache; the warm set stays. */
    void dropNodeCache();

    /**
     * Nodes of the static BFS warm set, in BFS order from the medoid
     * (empty without a cache). These sectors stay resident for the
     * life of the cache, which is what lets the learned entry-point
     * policy ($ANN_LEARNED_ENTRY) score them per query at zero I/O.
     */
    const std::vector<VectorId> &warmNodes() const { return warmNodes_; }

    /**
     * Beam search.
     *
     * The algorithm runs on the real node file: served zero-copy from
     * the memory backend, or fetched per hop as ONE batched async
     * submission of the whole beam on the file/uring backends.
     * @p recorder captures which sectors each hop read so the
     * simulator can charge I/O time later; real and simulated request
     * streams share the same coalesced run shapes.
     *
     * Safe to call concurrently with other search() calls (visited-set
     * and fetch scratch are per-thread), but not with mutations
     * (addDelta, markDeleted, consolidate, build, load, setIoMode).
     */
    SearchResult search(const float *query,
                        const DiskAnnSearchParams &params,
                        SearchTraceRecorder *recorder = nullptr) const;

    /**
     * search() into a caller-owned result vector: with reused scratch
     * and a reused @p out, the steady-state memory-backend query path
     * performs no heap allocation (the file/uring paths additionally
     * reuse their per-thread fetch buffers).
     */
    void searchInto(const float *query,
                    const DiskAnnSearchParams &params, SearchResult &out,
                    SearchTraceRecorder *recorder = nullptr) const;

    void save(BinaryWriter &writer) const;
    /**
     * Restore an archive written by save() (v3, v4 or v5).
     * @throws FatalError on a truncated or corrupt archive: header
     *         fields, the permutation, the medoid, the PQ codes and
     *         every node record are validated before any search.
     */
    void load(BinaryReader &reader);

  private:
    storage::IoOptions effectiveIoOptions() const;
    /** Hand a fully built image to the configured backend. */
    void adoptImage(std::vector<std::uint8_t> image);
    /**
     * (Re)create the sector cache for the current backend and warm it
     * by BFS from the medoid. Called whenever io_ changes.
     */
    void attachCache();
    /** Byte offset of @p node 's record inside its first sector. */
    std::size_t recordOffsetInSector(VectorId node) const;
    /**
     * Read one node record (zero-copy when memory-resident, else one
     * sector read into @p scratch).
     */
    const std::uint8_t *fetchRecord(VectorId node,
                                    storage::AlignedBuffer &scratch) const;
    /**
     * The single entry point for every non-beam read of the node
     * file: @p count sectors from @p first into @p dest. With
     * @p use_cache the span goes through a SectorReader like a beam
     * hop, so load-path reads share its cache, single-flight and I/O
     * accounting; bulk streams (save/setIoMode/warm BFS) pass false
     * and bypass it — admitting a full-file stream would wash the
     * cache out.
     */
    void readSectors(std::uint64_t first, std::uint32_t count,
                     std::uint8_t *dest, bool use_cache) const;
    /** Bytes of the PQ codebooks (always DRAM-resident). */
    std::size_t codebookBytes() const;
    /** pqCodes_ permuted into record-position (slot) order. */
    std::vector<std::uint8_t> codesInSlotOrder() const;
    /**
     * Apply the memory budget (effectiveIoOptions().mem_budget_bytes)
     * to the code tier: spill pqCodes_ into a PqCodeStore when
     * codebooks + codes exceed it, else keep them resident. Called
     * whenever io_ changes (build / load / setIoMode). Tier priority
     * under the budget: the full-precision vectors already live in the
     * node file, so the PQ code array is the first DRAM tier to go;
     * codebooks and graph metadata stay resident (every query needs
     * them to build its ADC table).
     */
    void applyCodeResidency();
    /** Restore pqCodes_ from the store (save / re-home paths). */
    void unspillCodes();

    std::size_t rows_ = 0;
    std::size_t dim_ = 0;
    std::size_t maxDegree_ = 0;
    std::size_t nodeBytes_ = 0;
    std::size_t nodesPerSector_ = 0;
    std::size_t sectorsPerNode_ = 1;
    VectorId medoid_ = kInvalidVector;
    /** Resolved at build time; never LayoutPolicy::Default. */
    LayoutPolicy layout_ = LayoutPolicy::IdOrder;
    /** id -> record position; empty = identity (IdOrder). */
    std::vector<std::uint32_t> nodePos_;
    /** Header-region sectors holding the permutation (0 = IdOrder). */
    std::uint64_t permSectors_ = 0;

    ProductQuantizer pq_;
    std::vector<std::uint8_t> pqCodes_;
    /** Per-neighbour code bytes embedded in records (0 = none). */
    std::size_t embeddedCodeBytes_ = 0;
    /** Non-null iff the code tier is spilled under a memory budget. */
    std::unique_ptr<PqCodeStore> codeStore_;
    /** Serves the node file (memory image or spilled file). */
    std::unique_ptr<storage::IoBackend> io_;
    /** Hot-sector cache over io_ (null when disabled / memory). */
    std::unique_ptr<storage::SectorCache> cache_;
    /** Warm-set nodes in BFS order (see warmNodes()). */
    std::vector<VectorId> warmNodes_;
    storage::IoOptions ioOptions_{};
    /** setIoMode() called: ignore the process-wide default. */
    bool ioPinned_ = false;

    /** Streaming state. */
    DiskAnnBuildParams buildParams_;
    std::vector<float> deltaVectors_;
    std::size_t deltaCount_ = 0;
    std::vector<bool> deleted_;
    std::size_t deletedCount_ = 0;
};

} // namespace ann

#endif // ANN_INDEX_DISKANN_INDEX_HH
