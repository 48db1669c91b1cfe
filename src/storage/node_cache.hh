/**
 * @file
 * Application-level sector cache for the real-I/O node files.
 *
 * The paper attributes much of the engine-to-engine spread (O-2) to
 * how much of the index each engine keeps resident: buffered engines
 * ride the OS page cache while DiskANN's direct-I/O path re-reads the
 * same entry-region sectors on every query. This cache sits between
 * the indexes and storage::IoBackend and reproduces production
 * DiskANN's answer:
 *
 *  - a **static warm set**, populated once at load time (the indexes
 *    BFS from the medoid, à la DiskANN's `num_nodes_to_cache`) and
 *    immutable afterwards, so lookups into it are lock-free;
 *  - a **sharded CLOCK (second-chance) dynamic cache**: sectors hash
 *    to shards, each shard holds its own frames, map, ref bits, and
 *    mutex, so concurrent searches never contend on a global LRU
 *    lock (the simulator's `PageCache` keeps its single-threaded
 *    std::list LRU — it models the OS page cache, not this one).
 *
 * Contents are exact sector bytes of an immutable node file, so
 * search results are bit-identical with the cache on or off; only
 * the number of reads reaching the backend changes. dropCaches()
 * empties the dynamic shards (the paper's `drop_caches` protocol for
 * cold sweep points); the warm set is part of index load and stays.
 */

#ifndef ANN_STORAGE_NODE_CACHE_HH
#define ANN_STORAGE_NODE_CACHE_HH

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace ann::storage {

/** Counters of one SectorCache (or an aggregate over several). */
struct NodeCacheStats
{
    std::uint64_t lookups = 0;
    std::uint64_t hits = 0;      ///< warm + dynamic hits
    std::uint64_t warm_hits = 0; ///< subset served by the warm set
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
    /**
     * Per-page accounting: dynamic pages (admitted whole after a
     * fetch) that went on to serve >= 1 hit — i.e. a co-resident or
     * revisited node was read from them before retirement. The
     * page-level payoff of admitting entire fetched pages:
     * pages_reused / insertions is the fraction of admissions that
     * ever earned their frame.
     */
    std::uint64_t pages_reused = 0;
    /**
     * Backend reads avoided by the single-flight layer: misses that
     * attached to another query's in-flight read of the same sector
     * instead of duplicating it (each saved one sector of I/O).
     */
    std::uint64_t ios_deduped = 0;

    /** Bytes that never reached the backend (hits x sector size). */
    std::uint64_t bytesSaved() const;
    /** Bytes saved by single-flight attach (deduped x sector size). */
    std::uint64_t dedupBytesSaved() const;
    /** hits / lookups, 0 when idle. */
    double hitRate() const;
    /** pages_reused / insertions, 0 when nothing was admitted. */
    double pageReuseRate() const;

    NodeCacheStats &operator+=(const NodeCacheStats &other);
    /** Counter delta (this - @p before): stats of one interval. */
    NodeCacheStats operator-(const NodeCacheStats &before) const;
};

/** Sizing knobs ($ANN_NODE_CACHE_MB / $ANN_WARM_NODES / CLI flags). */
struct NodeCacheConfig
{
    /** Dynamic-cache capacity in bytes (0 disables the CLOCK part). */
    std::size_t capacity_bytes = 0;
    /**
     * Nodes to warm by BFS from the medoid at load time (0 disables;
     * consumed by the indexes, which own the traversal).
     */
    std::size_t warm_nodes = 0;
    /** CLOCK shards (clamped so every shard owns >= 1 frame). */
    std::size_t shards = 16;

    /** True when either part of the cache would hold anything. */
    bool enabled() const
    {
        return capacity_bytes > 0 || warm_nodes > 0;
    }

    /** $ANN_NODE_CACHE_MB / $ANN_WARM_NODES (defaults 0 / 0). */
    static NodeCacheConfig fromEnv();
};

/**
 * Single-flight toggle ($ANN_SINGLE_FLIGHT, default ON). When off,
 * beginFetch() always claims ownership and concurrent queries
 * duplicate reads of the same sector, as before this layer existed.
 * Result bytes are identical either way; only I/O counts change.
 */
bool singleFlightEnabled();
void setSingleFlightEnabled(bool enabled);

/** What beginFetch() decided for a missed sector. */
enum class FetchClaim
{
    /** Caller owns the read: fetch it, then publishFetch() (or
     *  cancelFetch() on any failure path). */
    Owner,
    /** Another query is already reading it: waitFetchFor() the
     *  shared completion. */
    Shared,
    /** An in-flight read completed between lookup() and claim: the
     *  bytes were copied into dest, nothing to do. */
    Cached,
};

/** Outcome of one waitFetchFor() round. */
enum class FetchStatus
{
    Ready,     ///< bytes copied into dest; wait is over
    Cancelled, ///< owner gave up; caller must fetch it itself
    Timeout,   ///< still in flight; caller may do other work and retry
};

/**
 * Whole-sector cache: static warm set + sharded CLOCK dynamic part.
 *
 * Thread contract: warmInsert() runs during single-threaded index
 * load, before the cache is shared. lookup()/admit()/dropCaches()/
 * stats() are safe from any number of threads.
 */
class SectorCache
{
  public:
    explicit SectorCache(const NodeCacheConfig &config);

    SectorCache(const SectorCache &) = delete;
    SectorCache &operator=(const SectorCache &) = delete;

    /**
     * Copy @p sector 's bytes into @p dest on a hit (warm set first,
     * then the sector's CLOCK shard, whose ref bit it refreshes).
     * @return false on a miss; @p dest is untouched.
     */
    bool lookup(std::uint64_t sector, std::uint8_t *dest);

    /**
     * Single-flight claim on a sector that just missed lookup().
     * FetchClaim::Owner makes the caller responsible for reading the
     * sector and then calling publishFetch() — on *every* path,
     * including exceptions (use cancelFetch() when the read will
     * never happen). Shared/Cached callers issue no backend I/O.
     * With the layer disabled this always returns Owner and
     * publishFetch() degenerates to admit().
     */
    FetchClaim beginFetch(std::uint64_t sector, std::uint8_t *dest);

    /**
     * Owner side of a completed fetch: hands @p data to every query
     * attached to the flight, admits it to the dynamic cache, and
     * releases the flight entry.
     */
    void publishFetch(std::uint64_t sector, const std::uint8_t *data);

    /**
     * Owner gave up (error unwind): wake attached queries with
     * FetchStatus::Cancelled so they fetch the sector themselves.
     */
    void cancelFetch(std::uint64_t sector);

    /**
     * Sharer side: wait up to @p micros for the owner to publish
     * @p sector. Ready copies the bytes into @p dest and detaches;
     * Cancelled detaches without bytes; Timeout stays attached so the
     * caller can drain its own completions and retry (this is what
     * keeps cross-query waits deadlock-free: a query never blocks
     * indefinitely on another query's I/O while holding its own
     * unpolled completions).
     */
    FetchStatus waitFetchFor(std::uint64_t sector, std::uint8_t *dest,
                             std::uint32_t micros);

    /**
     * Admit a completed read. No-op when the sector already sits in
     * the warm set or the dynamic part is disabled; otherwise claims
     * a frame in the sector's shard, evicting by second chance.
     */
    void admit(std::uint64_t sector, const std::uint8_t *data);

    /** Load-time population of the static warm set (not locked). */
    void warmInsert(std::uint64_t sector, const std::uint8_t *data);

    /**
     * Evict every dynamic frame (the warm set stays — it is part of
     * index load, not runtime state). Counters are kept, matching
     * PageCache::dropCaches().
     */
    void dropCaches();

    NodeCacheStats stats() const;
    void resetStats();

    std::size_t capacityBytes() const { return capacityBytes_; }
    std::size_t warmSectors() const { return warmIndex_.size(); }
    /** Dynamic frames currently holding a sector. */
    std::size_t residentSectors() const;

  private:
    struct Shard
    {
        mutable std::mutex mutex;
        /** frame i lives at bytes [i*kIoSectorBytes, ...). */
        std::vector<std::uint8_t> frames;
        /** Sector held by each frame (kFreeFrame when empty). */
        std::vector<std::uint64_t> sector_of;
        /** CLOCK reference bits. */
        std::vector<std::uint8_t> ref;
        /** Hits served by the current occupant (per-page account). */
        std::vector<std::uint32_t> hit_count;
        std::unordered_map<std::uint64_t, std::uint32_t> map;
        /** CLOCK hand. */
        std::size_t hand = 0;
    };

    /** One in-flight read other queries can attach to. */
    struct Flight
    {
        /** Sector bytes, filled at publish (kept here, not only in
         *  the cache: the CLOCK part may be disabled or evict before
         *  the last waiter copies). */
        std::vector<std::uint8_t> data;
        std::uint32_t waiters = 0;
        bool done = false;
        bool cancelled = false;
    };

    Shard &shardOf(std::uint64_t sector);

    std::size_t capacityBytes_ = 0;
    std::vector<std::unique_ptr<Shard>> shards_;

    std::mutex flightMutex_;
    std::condition_variable flightCv_;
    std::unordered_map<std::uint64_t, Flight> flights_;

    /** Immutable once shared: sector -> offset into warmBytes_. */
    std::unordered_map<std::uint64_t, std::size_t> warmIndex_;
    std::vector<std::uint8_t> warmBytes_;

    mutable std::atomic<std::uint64_t> lookups_{0};
    mutable std::atomic<std::uint64_t> hits_{0};
    mutable std::atomic<std::uint64_t> warmHits_{0};
    mutable std::atomic<std::uint64_t> misses_{0};
    mutable std::atomic<std::uint64_t> insertions_{0};
    mutable std::atomic<std::uint64_t> evictions_{0};
    /** Retired (evicted/dropped) pages that had served >= 1 hit;
     *  stats() adds the still-resident reused pages on top. */
    mutable std::atomic<std::uint64_t> retiredReused_{0};
    mutable std::atomic<std::uint64_t> iosDeduped_{0};
};

} // namespace ann::storage

#endif // ANN_STORAGE_NODE_CACHE_HH
