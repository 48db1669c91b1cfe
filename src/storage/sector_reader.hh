/**
 * @file
 * The one fetch pipeline for cached sector reads.
 *
 * Every real-I/O read the indexes issue through a SectorCache runs
 * the same chain: cache lookup, single-flight claim, coalesced miss
 * runs submitted on the backend's IoQueue, and publish as each run
 * completes. The graph hop loop, DiskANN's record reads, SPANN's
 * storage phase and the spilled PQ code tier all fetch through one
 * SectorReader, so the chain (and its error unwind) exists once.
 *
 * A reader lives for one call (one query, one record read, one code
 * fetch). start() hands it a sorted, unique sector list and a slot
 * buffer with one 4 KiB slot per sector; ready() tells whether a slot
 * range has landed, so a consumer can score each node or posting
 * list the moment its own sectors are in, and wait() blocks until at
 * least one more slot lands (or, for a sector another query owns, at
 * most 200 us, so the reader returns to drain its own completions —
 * that bound is what keeps cross-query waits deadlock-free).
 *
 * Unwind contract: the destructor cancels every single-flight claim
 * whose read never published, so queries attached to those sectors
 * wake with FetchStatus::Cancelled and read the sector themselves;
 * the queue's destructor then drains reads still in flight before the
 * slot buffer can be reused.
 */

#ifndef ANN_STORAGE_SECTOR_READER_HH
#define ANN_STORAGE_SECTOR_READER_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "storage/io_backend.hh"
#include "storage/node_cache.hh"

namespace ann::storage {

/** Per-call cached fetch of whole sectors into a slot buffer. */
class SectorReader
{
  public:
    /** @p cache may be null: every sector then reads from @p io. */
    SectorReader(IoBackend &io, SectorCache *cache);
    ~SectorReader();

    SectorReader(const SectorReader &) = delete;
    SectorReader &operator=(const SectorReader &) = delete;

    /**
     * Fetch sectors[0..n) (sorted, unique) into @p slots, slot i at
     * slots + i * kIoSectorBytes (4 KiB-aligned for O_DIRECT). Cache
     * hits land before this returns; owned misses go out as one
     * batched submission of coalesced runs. @p sectors and @p slots
     * must stay valid until every slot is ready, and the previous
     * start() must be fully ready.
     */
    void start(const std::uint64_t *sectors, std::size_t n,
               std::uint8_t *slots);

    /**
     * Blocking start() + drain() for callers that consume nothing
     * before every slot is in: owned misses are read on the calling
     * thread through the backend's readBatch() (inline for a single
     * run on the file backend) instead of a queue.
     */
    void fetch(const std::uint64_t *sectors, std::size_t n,
               std::uint8_t *slots);

    /** Runs the last start() submitted to the backend — the read
     *  shape the simulator charges (cache and flight hits excluded). */
    const std::vector<IoRun> &submitted() const { return runs_; }

    /** True once slots [first, first + count) hold their bytes. */
    bool ready(std::size_t first, std::size_t count) const;

    /**
     * Make progress on the unready slots: reap landed completions;
     * else wait up to 200 us on one sector another query owns (a
     * cancelled owner means reading it here); else block on the
     * queue for one completion. No-op once everything is ready.
     */
    void wait();

    /** wait() until every slot of the last start() is ready. */
    void drain();

  private:
    /** Cache/claim partition of start(): builds requests_ for the
     *  owned misses, coalesced into runs. */
    void claim(const std::uint64_t *sectors, std::size_t n,
               std::uint8_t *slots);
    void complete(std::uint64_t tag);

    IoBackend &io_;
    SectorCache *cache_;
    /** Opened on the first miss; reused by later start() calls. */
    std::unique_ptr<IoQueue> queue_;
    std::size_t outstanding_ = 0;

    const std::uint64_t *sectors_ = nullptr;
    std::uint8_t *slots_ = nullptr;
    /** Per slot: 0 ready, else waiting on an owned or shared read. */
    std::vector<std::uint8_t> waiting_;
    std::size_t unready_ = 0;
    /** Slots still attached to another query's flight. */
    std::vector<std::size_t> shared_;
    std::vector<std::uint64_t> owned_;
    std::vector<IoRun> runs_;
    std::vector<IoRequest> requests_;
    /** requests_[r] completed and published. */
    std::vector<std::uint8_t> published_;
    std::vector<std::uint64_t> tags_;
};

} // namespace ann::storage

#endif // ANN_STORAGE_SECTOR_READER_HH
