/**
 * @file
 * Pluggable real-I/O layer serving the 4 KiB-sector node files of the
 * storage-based indexes.
 *
 * The simulator charges virtual time for sector batches; this layer
 * is its real-hardware twin: the same (sector, count) request shapes
 * an index hands to the simulated `storage::StorageBackend` are issued
 * here against an actual file descriptor, so the real execution path
 * exhibits the paper's block-layer behaviour (queue-depth scaling,
 * 4 KiB request dominance) instead of serving every read from a
 * memory-resident image.
 *
 * Three implementations, selected at runtime ($ANN_IO_BACKEND or
 * `--io-backend`):
 *
 *   memory  the seed behaviour: the node file stays a resident byte
 *           vector and readers get a zero-copy pointer (data()).
 *   file    the node file is spilled to disk (O_DIRECT when the
 *           filesystem supports it) and every read is served by
 *           pread(2), overlapped on a queue-depth-sized worker pool
 *           when a batch holds more than one request.
 *   uring   batched async submission through io_uring: one SQE per
 *           sector run, a queue-depth-sized submission window, and
 *           completion reaping without per-read syscalls. Built on
 *           liburing when CMake finds it, on raw io_uring syscalls
 *           when only kernel headers exist, and compiled out (falling
 *           back to `file`) otherwise.
 *
 * Lives below ann_index in the dependency order (library `ann_io`)
 * because the indexes own their backends; the simulated storage stack
 * keeps living above the indexes.
 */

#ifndef ANN_STORAGE_IO_BACKEND_HH
#define ANN_STORAGE_IO_BACKEND_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "storage/node_cache.hh"

namespace ann::storage {

/** Sector size of every node-file layout (NVMe LBA + fs block). */
inline constexpr std::size_t kIoSectorBytes = 4096;

/** Which implementation serves node-file reads. */
enum class IoBackendKind
{
    Memory,
    File,
    Uring,
};

/** Lower-case name used by env vars, CLI flags, and reports. */
const char *ioBackendKindName(IoBackendKind kind);

/** Parse "memory" / "file" / "uring". @return false when unknown. */
bool ioBackendKindFromName(const std::string &name, IoBackendKind *out);

/** Selection and tuning knobs of the real-I/O layer. */
struct IoOptions
{
    IoBackendKind kind = IoBackendKind::Memory;
    /**
     * Submission window: SQEs in flight per io_uring batch, or the
     * pread overlap width of the file backend (1 = strictly serial
     * single-request reads).
     */
    unsigned queue_depth = 32;
    /** Directory for spilled node files; empty = $ANN_CACHE_DIR. */
    std::string spill_dir;
    /**
     * Open spilled files with O_DIRECT so reads hit the device
     * instead of the OS page cache ($ANN_IO_DIRECT, default on).
     * Falls back to buffered automatically where the filesystem
     * rejects it (e.g. tmpfs).
     */
    bool direct_io = true;
    /**
     * Application-level sector cache fronting the file/uring backends
     * (ignored by the memory backend, which is already resident):
     * CLOCK capacity plus the BFS warm-set size. See node_cache.hh.
     */
    NodeCacheConfig node_cache;
    /**
     * Artificial per-read device latency in microseconds, applied by
     * the file backend before each pread ($ANN_IO_SIM_LATENCY_US,
     * default 0 = off). Turns fast CI storage (tmpfs, NVMe with a hot
     * page cache) into a deterministic stand-in for a device with
     * real access latency, so benchmarks measure the pipelined
     * beam against device round trips instead of runner noise.
     * Never changes the bytes read.
     */
    unsigned sim_latency_us = 0;
    /**
     * DRAM budget for index state in bytes ($ANN_MEM_BUDGET_MB /
     * --mem-budget-mb, 0 = unlimited). When an index's resident tiers
     * (PQ codebooks + PQ codes + posting payloads) exceed the budget,
     * the lowest-priority tiers spill to a sector-aligned residency
     * file served through this layer (full vectors first, then PQ
     * codes; centroids/graph metadata stay resident). Spilling never
     * changes search results — only which reads reach a backend.
     */
    std::size_t mem_budget_bytes = 0;

    /**
     * $ANN_IO_BACKEND / $ANN_IO_QUEUE_DEPTH / $ANN_IO_DIRECT /
     * $ANN_NODE_CACHE_MB / $ANN_WARM_NODES / $ANN_IO_SIM_LATENCY_US /
     * $ANN_MEM_BUDGET_MB.
     */
    static IoOptions fromEnv();
};

/**
 * Process-wide default consulted by index build()/load() when no
 * explicit mode was pinned; seeded from the environment once.
 */
IoOptions defaultIoOptions();
void setDefaultIoOptions(const IoOptions &options);

/**
 * True when the uring backend can actually run here: compiled in
 * (liburing or raw syscalls) and io_uring_setup(2) succeeds at
 * runtime (containers often filter it). Cached after the first call.
 */
bool uringSupported();

/**
 * One read of @ref count whole sectors into a caller buffer.
 * @ref dest must be 4 KiB-aligned when the serving backend runs
 * O_DIRECT (directIo() == true) — AlignedBuffer provides this; the
 * memory backend and buffered files accept any pointer.
 */
struct IoRequest
{
    std::uint64_t sector = 0;
    std::uint32_t count = 1;
    std::uint8_t *dest = nullptr;
};

/** A contiguous sector run — the request shape shared with the
 *  simulator's SectorRead batches. */
struct IoRun
{
    std::uint64_t sector = 0;
    std::uint32_t count = 1;
};

/**
 * Merge a sorted, de-duplicated sector list into contiguous runs
 * (what the kernel would do under request plugging). Shared by the
 * beam-search fetch path and the trace recorder so the real and
 * simulated request streams have identical shapes.
 */
std::vector<IoRun>
coalesceSectors(const std::vector<std::uint64_t> &sorted_unique);

/** In-place overload for reused scratch: @p runs is overwritten. */
void coalesceSectors(const std::vector<std::uint64_t> &sorted_unique,
                     std::vector<IoRun> &runs);

/**
 * $ANN_IO_POOLED (default off): IoQueues opened on the uring backend
 * share one process-wide submission ring per backend instead of one
 * ring per queue, so the per-query beam submissions of a micro-batch
 * merge into pooled submissions and the device sees the sum of every
 * query's in-flight reads as one queue depth.
 */
bool ioPooledEnabled();
void setIoPooledEnabled(bool enabled);

/**
 * $ANN_ASYNC_SHUFFLE (default off, testing only): emulated IoQueues
 * deliver completions in an adversarial order — descending tag, and
 * never more than half of what is ready per poll — instead of
 * arrival order. Exercises the completion-order-independence
 * contract of the pipelined beam search; never changes the bytes
 * read.
 */
bool asyncShuffleDelivery();
void setAsyncShuffleDelivery(bool enabled);

/**
 * Process-wide effective-queue-depth gauge over every file/uring
 * backend: each read op contributes to a time-weighted in-flight
 * integral from submission to completion. Two snapshots bracketing a
 * measure phase yield the mean in-flight reads the workload kept on
 * the backends — the paper's *effective* QD, as opposed to the
 * configured submission-window size.
 */
struct IoGaugeSnapshot
{
    /** Read ops (IoRequests) submitted so far. */
    std::uint64_t ops = 0;
    /** Whole sectors those ops covered. */
    std::uint64_t sectors = 0;
    /** Integral of in-flight ops over time (op-nanoseconds). */
    double depth_integral_ns = 0.0;
    /** Monotonic stamp of this snapshot. */
    std::uint64_t now_ns = 0;
    /** Instantaneously in-flight ops. */
    std::uint64_t in_flight = 0;

    /** Mean in-flight reads over [@p begin, this snapshot]. */
    double meanDepthSince(const IoGaugeSnapshot &begin) const;
};

IoGaugeSnapshot ioGaugeSnapshot();

/// @cond internal — called by the backends around each read op
void ioGaugeSubmit(std::size_t ops, std::size_t sectors);
void ioGaugeComplete(std::size_t ops);
/// @endcond

/**
 * Async read handle of one IoBackend: reads are submitted without
 * blocking and reaped by tag, so a consumer can score completed
 * sectors while the rest of a batch is still in flight — the API the
 * pipelined beam search runs on.
 *
 * Implemented natively on io_uring (SQE submission without waiting,
 * CQ reaping on poll); emulated on the file backend (a shared worker
 * pool runs the preads and posts per-queue completions) and on the
 * memory backend (ops complete at submit). One queue serves one
 * consumer thread: submitBatch()/pollCompletions() are not thread-
 * safe against each other, but any number of queues may be open
 * concurrently on one backend. The destructor drains outstanding
 * completions, so destination buffers may be released right after.
 */
class IoQueue
{
  public:
    virtual ~IoQueue() = default;

    /**
     * Submit @p n reads tagged tags[i] (tags are caller-chosen and
     * opaque; duplicates are the caller's problem). Returns once the
     * reads are on their way — it may briefly block to reap when the
     * submission window is full, never for the new reads themselves.
     * Destination buffers must stay valid until the tag is reaped.
     */
    virtual void submitBatch(const IoRequest *requests, std::size_t n,
                             const std::uint64_t *tags) = 0;

    /**
     * Reap up to @p max completed tags into @p out. Blocks until at
     * least @p min_complete of them land (0 = pure poll); asking for
     * more completions than are outstanding is a contract violation.
     * @return the number of tags written.
     */
    virtual std::size_t pollCompletions(std::uint64_t *out,
                                        std::size_t max,
                                        std::size_t min_complete) = 0;
};

/** Serves batched whole-sector reads of one node file. */
class IoBackend
{
  public:
    virtual ~IoBackend() = default;

    virtual IoBackendKind kind() const = 0;
    const char *name() const { return ioBackendKindName(kind()); }

    /** Node-file length in bytes (a multiple of kIoSectorBytes). */
    virtual std::uint64_t sizeBytes() const = 0;

    /**
     * Zero-copy pointer to the whole image when memory-resident,
     * nullptr when reads must go through readBatch().
     */
    virtual const std::uint8_t *data() const { return nullptr; }

    /**
     * Issue @p n sector reads as one batched submission and block
     * until every buffer is filled. Safe to call concurrently from
     * multiple threads.
     */
    virtual void readBatch(const IoRequest *requests, std::size_t n) = 0;

    /**
     * Open an async read handle (see IoQueue). The base implementation
     * emulates one over readBatch() — submitted reads complete before
     * submitBatch() returns — so every backend supports the API; the
     * file and uring backends override it with genuinely overlapped
     * implementations.
     */
    virtual std::unique_ptr<IoQueue> openQueue();

    /** True when reads bypass the OS page cache (O_DIRECT). */
    virtual bool directIo() const { return false; }
};

/**
 * Streaming builder of a node file: lets load() spill an archive's
 * image straight to the backing file without ever materializing it.
 */
class IoSink
{
  public:
    virtual ~IoSink() = default;
    virtual void append(const void *data, std::size_t bytes) = 0;
    /** Seal the file and return the backend serving it. */
    virtual std::unique_ptr<IoBackend> finish() = 0;
};

/**
 * Open a sink for @p total_bytes of node file under @p options.
 * Short appends are zero-padded to a sector boundary at finish().
 * A uring request silently degrades to `file` when unsupported.
 */
std::unique_ptr<IoSink> makeIoSink(const IoOptions &options,
                                   std::uint64_t total_bytes);

/** Wrap an already-materialized image in the memory backend. */
std::unique_ptr<IoBackend>
makeMemoryBackend(std::vector<std::uint8_t> image);

/** Growable 4 KiB-aligned scratch buffer (O_DIRECT-compatible). */
class AlignedBuffer
{
  public:
    AlignedBuffer() = default;
    ~AlignedBuffer();
    AlignedBuffer(const AlignedBuffer &) = delete;
    AlignedBuffer &operator=(const AlignedBuffer &) = delete;

    /** Grow to at least @p bytes and return the aligned base. */
    std::uint8_t *ensure(std::size_t bytes);
    std::uint8_t *data() { return data_; }

  private:
    std::uint8_t *data_ = nullptr;
    std::size_t capacity_ = 0;
};

/// @cond internal — shared between io_backend.cc and uring_backend.cc
/** pread(2) until @p len bytes land; @return false on error/EOF. */
bool ioPreadFull(int fd, std::uint8_t *dst, std::size_t len,
                 std::uint64_t offset);
/**
 * Submit @p n reads on @p queue and reap all of them: the blocking
 * readBatch() of the file and uring backends, served by their own
 * async engines. Throws what the queue throws (read failures).
 */
void drainBatch(IoQueue &queue, const IoRequest *requests, std::size_t n);
/** nullptr when io_uring is compiled out or fails at runtime. */
std::unique_ptr<IoBackend> makeUringBackend(int fd, std::uint64_t size,
                                            unsigned queue_depth,
                                            bool direct);
/// @endcond

} // namespace ann::storage

#endif // ANN_STORAGE_IO_BACKEND_HH
