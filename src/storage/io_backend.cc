#include "storage/io_backend.hh"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>

#include "common/env.hh"
#include "common/error.hh"
#include "common/logging.hh"
#include "common/serialize.hh"

namespace ann::storage {

const char *
ioBackendKindName(IoBackendKind kind)
{
    switch (kind) {
      case IoBackendKind::Memory:
        return "memory";
      case IoBackendKind::File:
        return "file";
      case IoBackendKind::Uring:
        return "uring";
    }
    return "?";
}

bool
ioBackendKindFromName(const std::string &name, IoBackendKind *out)
{
    if (name == "memory")
        *out = IoBackendKind::Memory;
    else if (name == "file")
        *out = IoBackendKind::File;
    else if (name == "uring")
        *out = IoBackendKind::Uring;
    else
        return false;
    return true;
}

IoOptions
IoOptions::fromEnv()
{
    IoOptions options;
    const std::string name = ioBackendName();
    if (!ioBackendKindFromName(name, &options.kind)) {
        logWarn("unknown $ANN_IO_BACKEND '", name,
                "', using the memory backend");
        options.kind = IoBackendKind::Memory;
    }
    options.queue_depth =
        static_cast<unsigned>(std::max<std::int64_t>(1, ioQueueDepth()));
    options.direct_io = envInt("ANN_IO_DIRECT", 1) != 0;
    options.node_cache = NodeCacheConfig::fromEnv();
    options.sim_latency_us = static_cast<unsigned>(
        std::max<std::int64_t>(0, envInt("ANN_IO_SIM_LATENCY_US", 0)));
    options.mem_budget_bytes =
        static_cast<std::size_t>(
            std::max<std::int64_t>(0, envInt("ANN_MEM_BUDGET_MB", 0))) *
        1024 * 1024;
    return options;
}

namespace {

std::mutex g_default_mutex;

IoOptions &
mutableDefaultOptions()
{
    static IoOptions options = IoOptions::fromEnv();
    return options;
}

} // namespace

IoOptions
defaultIoOptions()
{
    std::lock_guard<std::mutex> lock(g_default_mutex);
    return mutableDefaultOptions();
}

void
setDefaultIoOptions(const IoOptions &options)
{
    std::lock_guard<std::mutex> lock(g_default_mutex);
    mutableDefaultOptions() = options;
}

std::vector<IoRun>
coalesceSectors(const std::vector<std::uint64_t> &sorted_unique)
{
    std::vector<IoRun> runs;
    coalesceSectors(sorted_unique, runs);
    return runs;
}

void
coalesceSectors(const std::vector<std::uint64_t> &sorted_unique,
                std::vector<IoRun> &runs)
{
    runs.clear();
    for (std::size_t i = 0; i < sorted_unique.size();) {
        std::size_t j = i + 1;
        while (j < sorted_unique.size() &&
               sorted_unique[j] == sorted_unique[j - 1] + 1)
            ++j;
        runs.push_back(
            {sorted_unique[i], static_cast<std::uint32_t>(j - i)});
        i = j;
    }
}

namespace {

std::atomic<bool> &
ioPooledFlag()
{
    static std::atomic<bool> flag{envFlag("ANN_IO_POOLED", false)};
    return flag;
}

} // namespace

bool
ioPooledEnabled()
{
    return ioPooledFlag().load(std::memory_order_relaxed);
}

void
setIoPooledEnabled(bool enabled)
{
    ioPooledFlag().store(enabled, std::memory_order_relaxed);
}

namespace {
std::atomic<bool> &
asyncShuffleFlag()
{
    static std::atomic<bool> flag{envFlag("ANN_ASYNC_SHUFFLE", false)};
    return flag;
}
} // namespace

bool
asyncShuffleDelivery()
{
    return asyncShuffleFlag().load(std::memory_order_relaxed);
}

void
setAsyncShuffleDelivery(bool enabled)
{
    asyncShuffleFlag().store(enabled, std::memory_order_relaxed);
}

// ------------------------------------------------- effective-QD gauge

namespace {

std::uint64_t
monotonicNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/**
 * Read ops in flight across every file/uring backend, folded into a
 * time-weighted integral on each transition. One mutex for the whole
 * process is fine: ops live for microseconds (device latency), so the
 * nanoseconds under this lock never show up.
 */
struct IoGauge
{
    std::mutex mutex;
    std::uint64_t in_flight = 0;
    double integral_ns = 0.0;
    std::uint64_t last_ns = 0;
    std::atomic<std::uint64_t> ops{0};
    std::atomic<std::uint64_t> sectors{0};
};

IoGauge &
ioGauge()
{
    static IoGauge gauge;
    return gauge;
}

} // namespace

void
ioGaugeSubmit(std::size_t ops, std::size_t sectors)
{
    IoGauge &gauge = ioGauge();
    gauge.ops.fetch_add(ops, std::memory_order_relaxed);
    gauge.sectors.fetch_add(sectors, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(gauge.mutex);
    const std::uint64_t now = monotonicNs();
    if (gauge.last_ns != 0)
        gauge.integral_ns += static_cast<double>(gauge.in_flight) *
                             static_cast<double>(now - gauge.last_ns);
    gauge.last_ns = now;
    gauge.in_flight += ops;
}

void
ioGaugeComplete(std::size_t ops)
{
    IoGauge &gauge = ioGauge();
    std::lock_guard<std::mutex> lock(gauge.mutex);
    const std::uint64_t now = monotonicNs();
    if (gauge.last_ns != 0)
        gauge.integral_ns += static_cast<double>(gauge.in_flight) *
                             static_cast<double>(now - gauge.last_ns);
    gauge.last_ns = now;
    gauge.in_flight -= std::min<std::uint64_t>(gauge.in_flight, ops);
}

IoGaugeSnapshot
ioGaugeSnapshot()
{
    IoGauge &gauge = ioGauge();
    IoGaugeSnapshot snapshot;
    snapshot.ops = gauge.ops.load(std::memory_order_relaxed);
    snapshot.sectors = gauge.sectors.load(std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(gauge.mutex);
    const std::uint64_t now = monotonicNs();
    if (gauge.last_ns != 0)
        gauge.integral_ns += static_cast<double>(gauge.in_flight) *
                             static_cast<double>(now - gauge.last_ns);
    gauge.last_ns = now;
    snapshot.depth_integral_ns = gauge.integral_ns;
    snapshot.now_ns = now;
    snapshot.in_flight = gauge.in_flight;
    return snapshot;
}

double
IoGaugeSnapshot::meanDepthSince(const IoGaugeSnapshot &begin) const
{
    const double dt =
        static_cast<double>(now_ns) - static_cast<double>(begin.now_ns);
    if (dt <= 0.0)
        return 0.0;
    return (depth_integral_ns - begin.depth_integral_ns) / dt;
}

AlignedBuffer::~AlignedBuffer()
{
    std::free(data_);
}

std::uint8_t *
AlignedBuffer::ensure(std::size_t bytes)
{
    if (bytes > capacity_) {
        std::free(data_);
        // Round the allocation up: aligned_alloc requires the size to
        // be a multiple of the alignment.
        const std::size_t rounded =
            (bytes + kIoSectorBytes - 1) / kIoSectorBytes *
            kIoSectorBytes;
        data_ = static_cast<std::uint8_t *>(
            std::aligned_alloc(kIoSectorBytes, rounded));
        ANN_CHECK(data_ != nullptr, "aligned_alloc of ", rounded,
                  " bytes failed");
        capacity_ = rounded;
    }
    return data_;
}

bool
ioPreadFull(int fd, std::uint8_t *dst, std::size_t len,
            std::uint64_t offset)
{
    while (len > 0) {
        const ssize_t got =
            ::pread(fd, dst, len, static_cast<off_t>(offset));
        if (got < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        if (got == 0)
            return false; // unexpected EOF inside the node file
        dst += got;
        len -= static_cast<std::size_t>(got);
        offset += static_cast<std::uint64_t>(got);
    }
    return true;
}

namespace {

// ------------------------------------------------- emulated IoQueues

/**
 * Pop completed tags out of @p ready. Arrival order normally; under
 * $ANN_ASYNC_SHUFFLE an adversarial order instead — descending tag,
 * and never more than half of what is ready (but always >= 1 and
 * >= @p min_complete), forcing consumers through repeated partial
 * polls. Callers hold their own lock.
 */
std::size_t
deliverReady(std::vector<std::uint64_t> &ready, std::uint64_t *out,
             std::size_t max, std::size_t min_complete)
{
    if (ready.empty())
        return 0;
    std::size_t take = std::min(max, ready.size());
    if (asyncShuffleDelivery()) {
        std::sort(ready.begin(), ready.end());
        // Descending delivery: take from the back of the ascending
        // sort. Withhold half of what is available when allowed.
        const std::size_t half = (ready.size() + 1) / 2;
        take = std::min(take, std::max(min_complete,
                                       std::max<std::size_t>(1, half)));
        for (std::size_t i = 0; i < take; ++i) {
            out[i] = ready.back();
            ready.pop_back();
        }
        return take;
    }
    for (std::size_t i = 0; i < take; ++i)
        out[i] = ready[i];
    ready.erase(ready.begin(),
                ready.begin() + static_cast<std::ptrdiff_t>(take));
    return take;
}

/**
 * The base emulation: reads complete inside submitBatch() (one
 * blocking readBatch) and pollCompletions() hands the tags back.
 * Memory-backend queues use this — the "device" is a memcpy, so
 * there is nothing to overlap — and so does any future backend that
 * does not override openQueue().
 */
class SyncIoQueue final : public IoQueue
{
  public:
    explicit SyncIoQueue(IoBackend &backend) : backend_(backend) {}

    void
    submitBatch(const IoRequest *requests, std::size_t n,
                const std::uint64_t *tags) override
    {
        backend_.readBatch(requests, n);
        ready_.insert(ready_.end(), tags, tags + n);
    }

    std::size_t
    pollCompletions(std::uint64_t *out, std::size_t max,
                    std::size_t min_complete) override
    {
        (void)min_complete; // everything submitted is already done
        return deliverReady(ready_, out, max, min_complete);
    }

  private:
    IoBackend &backend_;
    std::vector<std::uint64_t> ready_;
};

// ------------------------------------------------------------- memory

/** The seed behaviour: a resident byte vector, zero-copy reads. */
class MemoryIoBackend final : public IoBackend
{
  public:
    explicit MemoryIoBackend(std::vector<std::uint8_t> image)
        : image_(std::move(image))
    {
    }

    IoBackendKind kind() const override { return IoBackendKind::Memory; }
    std::uint64_t sizeBytes() const override { return image_.size(); }
    const std::uint8_t *data() const override { return image_.data(); }

    void
    readBatch(const IoRequest *requests, std::size_t n) override
    {
        for (std::size_t i = 0; i < n; ++i) {
            const IoRequest &req = requests[i];
            const std::uint64_t offset = req.sector * kIoSectorBytes;
            const std::size_t bytes = req.count * kIoSectorBytes;
            ANN_CHECK(offset + bytes <= image_.size(),
                      "read past end of node image");
            std::memcpy(req.dest, image_.data() + offset, bytes);
        }
    }

  private:
    std::vector<std::uint8_t> image_;
};

// --------------------------------------------------------------- file

/**
 * One pread-served read, shared by the sync batch path and the async
 * worker pool. @p sim_latency_us sleeps first, emulating device
 * access latency on storage that is too fast to show queue-depth
 * effects (see IoOptions::sim_latency_us).
 */
void
fileReadOne(int fd, std::uint64_t size, unsigned sim_latency_us,
            const IoRequest &req)
{
    const std::uint64_t offset = req.sector * kIoSectorBytes;
    const std::size_t bytes = req.count * kIoSectorBytes;
    ANN_CHECK(offset + bytes <= size, "read past end of node file");
    if (sim_latency_us > 0)
        std::this_thread::sleep_for(
            std::chrono::microseconds(sim_latency_us));
    ANN_CHECK(ioPreadFull(fd, req.dest, bytes, offset),
              "pread failed on node file: ", std::strerror(errno));
}

/** Per-IoQueue completion box the shared worker pool posts into. */
struct FileAsyncState
{
    std::mutex mutex;
    std::condition_variable cv;
    std::vector<std::uint64_t> ready;
    std::size_t outstanding = 0;
    bool failed = false;
};

/**
 * The emulated async engine of the file backend: a worker pool
 * (shared by every queue the backend opens) runs the preads and posts
 * completions into each queue's box. Workers block in pread, not on
 * CPU, so overlap works even single-core.
 */
class FileAsyncEngine
{
  public:
    FileAsyncEngine(int fd, std::uint64_t size, unsigned sim_latency_us,
                    std::size_t workers)
        : fd_(fd), size_(size), simLatencyUs_(sim_latency_us)
    {
        workers_.reserve(workers);
        for (std::size_t w = 0; w < workers; ++w)
            workers_.emplace_back([this] { workerLoop(); });
    }

    ~FileAsyncEngine()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            stop_ = true;
        }
        cv_.notify_all();
        for (std::thread &worker : workers_)
            worker.join();
    }

    void
    submit(FileAsyncState *owner, const IoRequest &req,
           std::uint64_t tag)
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            work_.push_back({owner, req, tag});
        }
        cv_.notify_one();
    }

  private:
    struct Op
    {
        FileAsyncState *owner;
        IoRequest req;
        std::uint64_t tag;
    };

    void
    workerLoop()
    {
        for (;;) {
            Op op;
            {
                std::unique_lock<std::mutex> lock(mutex_);
                cv_.wait(lock,
                         [&] { return stop_ || !work_.empty(); });
                if (stop_ && work_.empty())
                    return;
                op = work_.front();
                work_.pop_front();
            }
            bool ok = true;
            try {
                fileReadOne(fd_, size_, simLatencyUs_, op.req);
            } catch (const std::exception &) {
                ok = false; // surfaced to the consumer on delivery
            }
            ioGaugeComplete(1);
            // Notify under the lock: once outstanding reaches zero the
            // queue may be destroyed, state included, the moment the
            // lock is released.
            std::lock_guard<std::mutex> lock(op.owner->mutex);
            op.owner->ready.push_back(op.tag);
            op.owner->outstanding--;
            op.owner->failed = op.owner->failed || !ok;
            op.owner->cv.notify_all();
        }
    }

    int fd_;
    std::uint64_t size_;
    unsigned simLatencyUs_;
    std::mutex mutex_;
    std::condition_variable cv_;
    std::deque<Op> work_;
    bool stop_ = false;
    std::vector<std::thread> workers_;
};

/** File-backend IoQueue: a completion box over the shared engine. */
class FileAsyncQueue final : public IoQueue
{
  public:
    explicit FileAsyncQueue(FileAsyncEngine &engine) : engine_(engine)
    {
    }

    ~FileAsyncQueue() override
    {
        // Drain: destinations may be released right after destruction.
        std::unique_lock<std::mutex> lock(state_.mutex);
        state_.cv.wait(lock, [&] { return state_.outstanding == 0; });
    }

    void
    submitBatch(const IoRequest *requests, std::size_t n,
                const std::uint64_t *tags) override
    {
        std::size_t sectors = 0;
        for (std::size_t i = 0; i < n; ++i)
            sectors += requests[i].count;
        ioGaugeSubmit(n, sectors);
        {
            std::lock_guard<std::mutex> lock(state_.mutex);
            state_.outstanding += n;
        }
        for (std::size_t i = 0; i < n; ++i)
            engine_.submit(&state_, requests[i], tags[i]);
    }

    std::size_t
    pollCompletions(std::uint64_t *out, std::size_t max,
                    std::size_t min_complete) override
    {
        std::unique_lock<std::mutex> lock(state_.mutex);
        state_.cv.wait(lock, [&] {
            return state_.ready.size() >= min_complete;
        });
        ANN_CHECK(!state_.failed, "async pread failed on node file");
        return deliverReady(state_.ready, out, max, min_complete);
    }

  private:
    FileAsyncEngine &engine_;
    FileAsyncState state_;
};

/**
 * pread(2)-served node file. Single reads (and every read at queue
 * depth 1) run inline on the caller; multi-request batches and
 * IoQueues share one FileAsyncEngine whose worker count is the queue
 * depth, not the core count: a thread blocked in pread consumes no
 * CPU, so overlap pays off even on one core.
 */
class FileIoBackend final : public IoBackend
{
  public:
    FileIoBackend(int fd, std::uint64_t size, unsigned queue_depth,
                  bool direct, unsigned sim_latency_us = 0)
        : fd_(fd), size_(size),
          queueDepth_(std::max(1u, queue_depth)), direct_(direct),
          simLatencyUs_(sim_latency_us)
    {
    }

    ~FileIoBackend() override
    {
        asyncEngine_.reset(); // workers stop before the fd closes
        ::close(fd_);
    }

    IoBackendKind kind() const override { return IoBackendKind::File; }
    std::uint64_t sizeBytes() const override { return size_; }
    bool directIo() const override { return direct_; }

    void
    readBatch(const IoRequest *requests, std::size_t n) override
    {
        if (n == 0)
            return;
        if (queueDepth_ > 1 && n > 1) {
            drainBatch(*openQueue(), requests, n);
            return;
        }
        std::size_t sectors = 0;
        for (std::size_t i = 0; i < n; ++i)
            sectors += requests[i].count;
        ioGaugeSubmit(n, sectors);
        for (std::size_t i = 0; i < n; ++i)
            fileReadOne(fd_, size_, simLatencyUs_, requests[i]);
        ioGaugeComplete(n);
    }

    std::unique_ptr<IoQueue>
    openQueue() override
    {
        std::call_once(engineOnce_, [this] {
            asyncEngine_ = std::make_unique<FileAsyncEngine>(
                fd_, size_, simLatencyUs_,
                std::min<std::size_t>(queueDepth_, 16));
        });
        return std::make_unique<FileAsyncQueue>(*asyncEngine_);
    }

  private:
    int fd_;
    std::uint64_t size_;
    unsigned queueDepth_;
    bool direct_;
    unsigned simLatencyUs_;
    std::unique_ptr<FileAsyncEngine> asyncEngine_;
    std::once_flag engineOnce_;
};

// --------------------------------------------------------------- sinks

class MemoryIoSink final : public IoSink
{
  public:
    explicit MemoryIoSink(std::uint64_t total) { image_.reserve(total); }

    void
    append(const void *data, std::size_t bytes) override
    {
        const auto *bytes_ptr = static_cast<const std::uint8_t *>(data);
        image_.insert(image_.end(), bytes_ptr, bytes_ptr + bytes);
    }

    std::unique_ptr<IoBackend>
    finish() override
    {
        return makeMemoryBackend(std::move(image_));
    }

  private:
    std::vector<std::uint8_t> image_;
};

/**
 * Writes the node file under spill_dir, then reopens it for reading
 * (O_DIRECT first, buffered fallback) and unlinks the name so the
 * file lives exactly as long as its backend.
 */
class FileIoSink final : public IoSink
{
  public:
    FileIoSink(const IoOptions &options, std::uint64_t total)
        : options_(options)
    {
        std::string dir = options.spill_dir;
        if (dir.empty())
            dir = cacheDir();
        else
            ensureDirectory(dir);
        static std::atomic<std::uint64_t> counter{0};
        path_ = dir + "/io-spill-" + std::to_string(::getpid()) + "-" +
                std::to_string(counter.fetch_add(1)) + ".nodes";
        fd_ = ::open(path_.c_str(), O_WRONLY | O_CREAT | O_TRUNC |
                                        O_CLOEXEC,
                     0644);
        ANN_CHECK(fd_ >= 0, "cannot create node spill file ", path_,
                  ": ", std::strerror(errno));
        (void)total;
    }

    ~FileIoSink() override
    {
        // finish() not reached (exception path): drop the temp file.
        if (fd_ >= 0) {
            ::close(fd_);
            ::unlink(path_.c_str());
        }
    }

    void
    append(const void *data, std::size_t bytes) override
    {
        const auto *src = static_cast<const std::uint8_t *>(data);
        written_ += bytes;
        while (bytes > 0) {
            const ssize_t put = ::write(fd_, src, bytes);
            if (put < 0) {
                if (errno == EINTR)
                    continue;
                ANN_CHECK(false, "write failed on ", path_, ": ",
                          std::strerror(errno));
            }
            src += put;
            bytes -= static_cast<std::size_t>(put);
        }
    }

    std::unique_ptr<IoBackend>
    finish() override
    {
        // O_DIRECT needs whole-sector file lengths.
        const std::uint64_t padded = (written_ + kIoSectorBytes - 1) /
                                     kIoSectorBytes * kIoSectorBytes;
        if (padded > written_) {
            const std::vector<std::uint8_t> zeros(
                static_cast<std::size_t>(padded - written_), 0);
            append(zeros.data(), zeros.size());
        }
        ::close(fd_);
        fd_ = -1;

        bool direct = options_.direct_io;
        int read_fd = -1;
        if (direct) {
            read_fd =
                ::open(path_.c_str(), O_RDONLY | O_CLOEXEC | O_DIRECT);
            if (read_fd < 0)
                direct = false; // e.g. tmpfs: fall back to buffered
        }
        if (read_fd < 0)
            read_fd = ::open(path_.c_str(), O_RDONLY | O_CLOEXEC);
        ANN_CHECK(read_fd >= 0, "cannot reopen node spill file ",
                  path_, ": ", std::strerror(errno));
        // Unlink now: the fd keeps the data alive, nothing leaks on
        // crash, and concurrent indexes can never collide on names.
        ::unlink(path_.c_str());

        if (options_.kind == IoBackendKind::Uring) {
            auto uring = makeUringBackend(read_fd, padded,
                                          options_.queue_depth, direct);
            if (uring)
                return uring;
            static std::once_flag warned;
            std::call_once(warned, [] {
                logWarn("io_uring unavailable (not compiled in or "
                        "blocked at runtime); uring backend falls "
                        "back to file/pread");
            });
        }
        return std::make_unique<FileIoBackend>(
            read_fd, padded, options_.queue_depth, direct,
            options_.sim_latency_us);
    }

  private:
    IoOptions options_;
    std::string path_;
    int fd_ = -1;
    std::uint64_t written_ = 0;
};

} // namespace

void
drainBatch(IoQueue &queue, const IoRequest *requests, std::size_t n)
{
    // Tags are copied at submission, so the buffer doubles as the
    // completion sink.
    std::vector<std::uint64_t> tags(n);
    for (std::size_t i = 0; i < n; ++i)
        tags[i] = i;
    queue.submitBatch(requests, n, tags.data());
    for (std::size_t got = 0; got < n;)
        got += queue.pollCompletions(tags.data(), n - got, 1);
}

std::unique_ptr<IoQueue>
IoBackend::openQueue()
{
    return std::make_unique<SyncIoQueue>(*this);
}

std::unique_ptr<IoBackend>
makeMemoryBackend(std::vector<std::uint8_t> image)
{
    return std::make_unique<MemoryIoBackend>(std::move(image));
}

std::unique_ptr<IoSink>
makeIoSink(const IoOptions &options, std::uint64_t total_bytes)
{
    if (options.kind == IoBackendKind::Memory)
        return std::make_unique<MemoryIoSink>(total_bytes);
    return std::make_unique<FileIoSink>(options, total_bytes);
}

} // namespace ann::storage
