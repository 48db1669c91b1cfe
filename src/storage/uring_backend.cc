/**
 * @file
 * io_uring-served node file: the whole beam goes down as one batched
 * submission (one SQE per contiguous sector run), the submission
 * window is queue-depth controlled, and completions are reaped from
 * the shared CQ ring without per-read syscalls — at most one
 * io_uring_enter(2) per queue-depth window versus one pread(2) per
 * sector run for the file backend.
 *
 * Three build flavours, picked by CMake:
 *   ANN_HAVE_LIBURING        liburing found: use its ring helpers.
 *   ANN_HAVE_IO_URING_SYSCALL kernel headers only: a minimal raw
 *                            io_uring_setup/io_uring_enter shim with
 *                            hand-mmapped SQ/CQ rings.
 *   (neither)                makeUringBackend() returns nullptr and
 *                            the factory falls back to the file
 *                            backend — the build stays green on
 *                            machines without any io_uring support.
 */

#include "storage/io_backend.hh"

#include <chrono>
#include <condition_variable>
#include <cstring>
#include <memory>
#include <mutex>
#include <vector>

#include "common/error.hh"

#if defined(ANN_HAVE_LIBURING)
#include <liburing.h>
#include <unistd.h>
#elif defined(ANN_HAVE_IO_URING_SYSCALL)
#include <linux/io_uring.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cerrno>
#endif

namespace ann::storage {

#if defined(ANN_HAVE_LIBURING) || defined(ANN_HAVE_IO_URING_SYSCALL)

namespace {

#if defined(ANN_HAVE_LIBURING)

/** One submission/completion ring (liburing flavour). */
class UringQueue
{
  public:
    UringQueue() = default;
    ~UringQueue()
    {
        if (inited_)
            io_uring_queue_exit(&ring_);
    }
    UringQueue(const UringQueue &) = delete;
    UringQueue &operator=(const UringQueue &) = delete;

    bool
    init(unsigned entries)
    {
        inited_ = io_uring_queue_init(entries, &ring_, 0) == 0;
        return inited_;
    }

    /**
     * Stage @p count plain READ SQEs (user_data = slots[i]) and
     * submit them WITHOUT waiting — the async half of the submit/poll
     * API. @return false on a ring failure (caller serves the reads
     * with pread instead).
     */
    bool
    submitAsync(int fd, const IoRequest *reqs,
                const std::uint32_t *slots, std::size_t count)
    {
        for (std::size_t i = 0; i < count; ++i) {
            io_uring_sqe *sqe = io_uring_get_sqe(&ring_);
            if (!sqe) {
                if (io_uring_submit(&ring_) < 0)
                    return false;
                sqe = io_uring_get_sqe(&ring_);
                if (!sqe)
                    return false;
            }
            const IoRequest &req = reqs[i];
            io_uring_prep_read(
                sqe, fd, req.dest,
                req.count * static_cast<unsigned>(kIoSectorBytes),
                req.sector * kIoSectorBytes);
            sqe->user_data = slots[i];
        }
        return io_uring_submit(&ring_) >= 0;
    }

    /**
     * Reap up to @p max completions into @p slots / @p res, blocking
     * until at least @p min_complete land. @return the count, or
     * SIZE_MAX on a ring failure.
     */
    std::size_t
    reapAsync(std::uint32_t *slots, int *res, std::size_t max,
              std::size_t min_complete)
    {
        std::size_t got = 0;
        while (got < max) {
            io_uring_cqe *cqe = nullptr;
            if (io_uring_peek_cqe(&ring_, &cqe) != 0 || !cqe) {
                if (got >= min_complete)
                    break;
                if (io_uring_wait_cqe(&ring_, &cqe) < 0)
                    return static_cast<std::size_t>(-1);
            }
            slots[got] = static_cast<std::uint32_t>(cqe->user_data);
            res[got] = cqe->res;
            io_uring_cqe_seen(&ring_, cqe);
            ++got;
        }
        return got;
    }

  private:
    io_uring ring_{};
    bool inited_ = false;
};

#else // ANN_HAVE_IO_URING_SYSCALL

int
sysIoUringSetup(unsigned entries, io_uring_params *params)
{
    return static_cast<int>(
        ::syscall(__NR_io_uring_setup, entries, params));
}

int
sysIoUringEnter(int ring_fd, unsigned to_submit, unsigned min_complete,
                unsigned flags)
{
    return static_cast<int>(::syscall(__NR_io_uring_enter, ring_fd,
                                      to_submit, min_complete, flags,
                                      nullptr, 0));
}

/**
 * One submission/completion ring (raw-syscall flavour): the standard
 * mmap dance over io_uring_setup(2), SQE filling by hand, and
 * release/acquire fences on the shared head/tail indices.
 */
class UringQueue
{
  public:
    UringQueue() = default;
    ~UringQueue() { destroy(); }
    UringQueue(const UringQueue &) = delete;
    UringQueue &operator=(const UringQueue &) = delete;

    bool
    init(unsigned entries)
    {
        io_uring_params params;
        std::memset(&params, 0, sizeof(params));
        ringFd_ = sysIoUringSetup(entries, &params);
        if (ringFd_ < 0)
            return false;

        sqLen_ = params.sq_off.array +
                 params.sq_entries * sizeof(unsigned);
        cqLen_ = params.cq_off.cqes +
                 params.cq_entries * sizeof(io_uring_cqe);
        singleMmap_ = (params.features & IORING_FEAT_SINGLE_MMAP) != 0;
        if (singleMmap_)
            sqLen_ = cqLen_ = std::max(sqLen_, cqLen_);

        sqMem_ = ::mmap(nullptr, sqLen_, PROT_READ | PROT_WRITE,
                        MAP_SHARED | MAP_POPULATE, ringFd_,
                        IORING_OFF_SQ_RING);
        if (sqMem_ == MAP_FAILED) {
            sqMem_ = nullptr;
            destroy();
            return false;
        }
        cqMem_ = singleMmap_
                     ? sqMem_
                     : ::mmap(nullptr, cqLen_, PROT_READ | PROT_WRITE,
                              MAP_SHARED | MAP_POPULATE, ringFd_,
                              IORING_OFF_CQ_RING);
        if (cqMem_ == MAP_FAILED) {
            cqMem_ = nullptr;
            destroy();
            return false;
        }
        sqeLen_ = params.sq_entries * sizeof(io_uring_sqe);
        sqeMem_ = ::mmap(nullptr, sqeLen_, PROT_READ | PROT_WRITE,
                         MAP_SHARED | MAP_POPULATE, ringFd_,
                         IORING_OFF_SQES);
        if (sqeMem_ == MAP_FAILED) {
            sqeMem_ = nullptr;
            destroy();
            return false;
        }

        auto *sq = static_cast<std::uint8_t *>(sqMem_);
        sqHead_ = reinterpret_cast<unsigned *>(sq + params.sq_off.head);
        sqTail_ = reinterpret_cast<unsigned *>(sq + params.sq_off.tail);
        sqMask_ = reinterpret_cast<unsigned *>(
            sq + params.sq_off.ring_mask);
        sqArray_ =
            reinterpret_cast<unsigned *>(sq + params.sq_off.array);
        sqes_ = static_cast<io_uring_sqe *>(sqeMem_);

        auto *cq = static_cast<std::uint8_t *>(cqMem_);
        cqHead_ = reinterpret_cast<unsigned *>(cq + params.cq_off.head);
        cqTail_ = reinterpret_cast<unsigned *>(cq + params.cq_off.tail);
        cqMask_ = reinterpret_cast<unsigned *>(
            cq + params.cq_off.ring_mask);
        cqes_ = reinterpret_cast<io_uring_cqe *>(
            cq + params.cq_off.cqes);
        return true;
    }

    /**
     * Stage @p count plain READ SQEs (user_data = slots[i]) and
     * submit them WITHOUT waiting — the async half of the submit/poll
     * API. @return false on a ring failure (caller serves the reads
     * with pread instead).
     */
    bool
    submitAsync(int fd, const IoRequest *reqs,
                const std::uint32_t *slots, std::size_t count)
    {
        const unsigned mask = *sqMask_;
        const unsigned tail = *sqTail_; // only this side writes it
        for (std::size_t i = 0; i < count; ++i) {
            const unsigned idx =
                (tail + static_cast<unsigned>(i)) & mask;
            io_uring_sqe *sqe = &sqes_[idx];
            std::memset(sqe, 0, sizeof(*sqe));
            const IoRequest &req = reqs[i];
            sqe->opcode = static_cast<std::uint8_t>(IORING_OP_READ);
            sqe->fd = fd;
            sqe->addr = reinterpret_cast<std::uint64_t>(req.dest);
            sqe->len =
                req.count * static_cast<unsigned>(kIoSectorBytes);
            sqe->off = req.sector * kIoSectorBytes;
            sqe->user_data = slots[i];
            sqArray_[idx] = idx;
        }
        __atomic_store_n(sqTail_, tail + static_cast<unsigned>(count),
                         __ATOMIC_RELEASE);
        int ret;
        do {
            ret = sysIoUringEnter(
                ringFd_, static_cast<unsigned>(count), 0, 0);
        } while (ret < 0 && errno == EINTR);
        return ret >= 0;
    }

    /**
     * Reap up to @p max completions into @p slots / @p res, blocking
     * until at least @p min_complete land. @return the count, or
     * SIZE_MAX on a ring failure.
     */
    std::size_t
    reapAsync(std::uint32_t *slots, int *res, std::size_t max,
              std::size_t min_complete)
    {
        std::size_t got = 0;
        unsigned head = *cqHead_;
        for (;;) {
            const unsigned ctail =
                __atomic_load_n(cqTail_, __ATOMIC_ACQUIRE);
            while (head != ctail && got < max) {
                const io_uring_cqe *cqe = &cqes_[head & *cqMask_];
                slots[got] =
                    static_cast<std::uint32_t>(cqe->user_data);
                res[got] = cqe->res;
                ++head;
                ++got;
            }
            __atomic_store_n(cqHead_, head, __ATOMIC_RELEASE);
            if (got >= min_complete || got >= max)
                break;
            int ret;
            do {
                ret = sysIoUringEnter(
                    ringFd_, 0,
                    static_cast<unsigned>(min_complete - got),
                    IORING_ENTER_GETEVENTS);
            } while (ret < 0 && errno == EINTR);
            if (ret < 0)
                return static_cast<std::size_t>(-1);
        }
        return got;
    }

  private:
    void
    destroy()
    {
        if (sqeMem_)
            ::munmap(sqeMem_, sqeLen_);
        if (cqMem_ && cqMem_ != sqMem_)
            ::munmap(cqMem_, cqLen_);
        if (sqMem_)
            ::munmap(sqMem_, sqLen_);
        if (ringFd_ >= 0)
            ::close(ringFd_);
        sqeMem_ = cqMem_ = sqMem_ = nullptr;
        ringFd_ = -1;
    }

    int ringFd_ = -1;
    void *sqMem_ = nullptr;
    void *cqMem_ = nullptr;
    void *sqeMem_ = nullptr;
    std::size_t sqLen_ = 0;
    std::size_t cqLen_ = 0;
    std::size_t sqeLen_ = 0;
    bool singleMmap_ = false;

    unsigned *sqHead_ = nullptr;
    unsigned *sqTail_ = nullptr;
    unsigned *sqMask_ = nullptr;
    unsigned *sqArray_ = nullptr;
    io_uring_sqe *sqes_ = nullptr;
    unsigned *cqHead_ = nullptr;
    unsigned *cqTail_ = nullptr;
    unsigned *cqMask_ = nullptr;
    io_uring_cqe *cqes_ = nullptr;
};

#endif // flavour

class SharedUringRing;

/**
 * The uring node-file backend. Rings are not thread-safe, so a small
 * pool hands one ring per in-flight readBatch(); rings are created
 * lazily and reused, so steady-state batches pay zero setup syscalls.
 */
class UringIoBackend final : public IoBackend
{
  public:
    UringIoBackend(int fd, std::uint64_t size, unsigned queue_depth,
                   bool direct)
        : fd_(fd), size_(size),
          queueDepth_(std::min(1024u, std::max(1u, queue_depth))),
          direct_(direct)
    {
    }

    ~UringIoBackend() override;

    std::unique_ptr<IoQueue> openQueue() override;

    IoBackendKind kind() const override { return IoBackendKind::Uring; }
    std::uint64_t sizeBytes() const override { return size_; }
    bool directIo() const override { return direct_; }

    void readBatch(const IoRequest *requests, std::size_t n) override;

  private:
    /** Hand out an idle ring, or create one (nullptr on failure). */
    std::unique_ptr<UringQueue>
    acquire()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (!idle_.empty()) {
                auto queue = std::move(idle_.back());
                idle_.pop_back();
                return queue;
            }
        }
        auto queue = std::make_unique<UringQueue>();
        if (!queue->init(queueDepth_))
            return nullptr;
        return queue;
    }

    void
    release(std::unique_ptr<UringQueue> queue)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        idle_.push_back(std::move(queue));
    }

    friend class UringAsyncQueue;
    friend class SharedUringRing;

    int fd_;
    std::uint64_t size_;
    unsigned queueDepth_;
    bool direct_;
    std::mutex mutex_;
    std::vector<std::unique_ptr<UringQueue>> idle_;
    std::once_flag sharedOnce_;
    std::unique_ptr<SharedUringRing> shared_;
};

/** Range-check a batch against the node file and count it into the
 *  I/O gauge as submitted. */
void
gaugeSubmitChecked(std::uint64_t size, const IoRequest *requests,
                   std::size_t n)
{
    std::size_t sectors = 0;
    for (std::size_t i = 0; i < n; ++i) {
        ANN_CHECK(requests[i].sector * kIoSectorBytes +
                          requests[i].count * kIoSectorBytes <=
                      size,
                  "read past end of node file");
        sectors += requests[i].count;
    }
    ioGaugeSubmit(n, sectors);
}

/** Serve one read with pread, the fallback when no ring takes it.
 *  @return false on error/EOF. */
bool
preadFallback(int fd, const IoRequest &req)
{
    return ioPreadFull(fd, req.dest, req.count * kIoSectorBytes,
                       req.sector * kIoSectorBytes);
}

/** Fix up one raw CQE result: full reads pass through, short reads
 *  are completed with pread, negative res is a hard error. */
bool
fixShortRead(int fd, const IoRequest &req, int res)
{
    const std::size_t want = req.count * kIoSectorBytes;
    if (res == static_cast<int>(want))
        return true;
    if (res < 0)
        return false;
    return ioPreadFull(fd, req.dest + res,
                       want - static_cast<std::size_t>(res),
                       req.sector * kIoSectorBytes +
                           static_cast<std::uint64_t>(res));
}

/**
 * Native submit/poll queue: one pooled ring owned for the queue's
 * lifetime, plain READ SQEs (destinations move between submissions,
 * so registered buffers do not apply), completions reaped lazily.
 * In-flight reads are capped at the ring's entry count via a slot
 * table; user_data carries the slot index so short reads can be
 * completed against the original request. Without a ring (none could
 * be set up) every read is served with pread at submission.
 */
class UringAsyncQueue final : public IoQueue
{
  public:
    UringAsyncQueue(UringIoBackend &backend,
                    std::unique_ptr<UringQueue> ring)
        : backend_(backend), ring_(std::move(ring)),
          cap_(backend.queueDepth_)
    {
        slots_.resize(cap_);
        freeSlots_.reserve(cap_);
        for (std::uint32_t s = 0; s < cap_; ++s)
            freeSlots_.push_back(cap_ - 1 - s);
        reapSlots_.resize(cap_);
        reapRes_.resize(cap_);
    }

    ~UringAsyncQueue() override
    {
        try {
            while (inflight_ > 0)
                reapSome(1); // failed reads are the caller's business
        } catch (...) {
            // Ring failure while draining: the ring is destroyed
            // below, which cancels whatever was still in flight.
            ring_.reset();
        }
        if (ring_)
            backend_.release(std::move(ring_));
    }

    void
    submitBatch(const IoRequest *requests, std::size_t n,
                const std::uint64_t *tags) override
    {
        gaugeSubmitChecked(backend_.size_, requests, n);
        std::size_t i = 0;
        while (i < n) {
            while (inflight_ >= cap_)
                reapChecked(1);
            const std::size_t chunk =
                std::min<std::size_t>(cap_ - inflight_, n - i);
            chunkReqs_.clear();
            chunkSlots_.clear();
            for (std::size_t j = 0; j < chunk; ++j) {
                const std::uint32_t slot = freeSlots_.back();
                freeSlots_.pop_back();
                slots_[slot] = Slot{requests[i + j], tags[i + j]};
                chunkReqs_.push_back(requests[i + j]);
                chunkSlots_.push_back(slot);
            }
            if (ring_ &&
                ring_->submitAsync(backend_.fd_, chunkReqs_.data(),
                                   chunkSlots_.data(), chunk)) {
                inflight_ += chunk;
            } else {
                // No ring, or submission failed: serve this chunk
                // with preads so the caller never observes the
                // difference.
                bool ok = true;
                for (std::size_t j = 0; j < chunk; ++j) {
                    const std::uint32_t slot = chunkSlots_[j];
                    if (preadFallback(backend_.fd_, slots_[slot].req))
                        ready_.push_back(slots_[slot].tag);
                    else
                        ok = false;
                    freeSlots_.push_back(slot);
                    ioGaugeComplete(1);
                }
                ANN_CHECK(ok, "pread fallback failed on node file");
            }
            i += chunk;
        }
    }

    std::size_t
    pollCompletions(std::uint64_t *out, std::size_t max,
                    std::size_t min_complete) override
    {
        // Even a pure poll (min_complete 0) harvests CQEs that have
        // landed: a query polling only that way while it waits on
        // another query's flight would otherwise never see its own
        // reads complete, and two such queries starve each other.
        do {
            if (inflight_ > 0)
                reapChecked(ready_.size() < min_complete
                                ? min_complete - ready_.size()
                                : 0);
        } while (ready_.size() < min_complete && inflight_ > 0);
        const std::size_t take = std::min(max, ready_.size());
        for (std::size_t i = 0; i < take; ++i)
            out[i] = ready_[i];
        ready_.erase(ready_.begin(),
                     ready_.begin() + static_cast<std::ptrdiff_t>(take));
        return take;
    }

  private:
    struct Slot
    {
        IoRequest req;
        std::uint64_t tag = 0;
    };

    /**
     * Reap ≥ @p min_complete CQEs (bounded by what is in flight) and
     * finish every one of them, a failed read included: its slot is
     * freed and it leaves the in-flight count, only its tag is never
     * delivered. @return false if any reaped read failed. Every
     * reaped CQE is accounted before this returns, so a failure can
     * never leave the destructor waiting on completions that have
     * already landed.
     */
    bool
    reapSome(std::size_t min_complete)
    {
        const std::size_t got = ring_->reapAsync(
            reapSlots_.data(), reapRes_.data(), cap_,
            std::min<std::size_t>(min_complete, inflight_));
        ANN_CHECK(got != static_cast<std::size_t>(-1),
                  "io_uring completion reap failed");
        bool ok = true;
        for (std::size_t k = 0; k < got; ++k) {
            const std::uint32_t slot = reapSlots_[k];
            const Slot &s = slots_[slot];
            if (fixShortRead(backend_.fd_, s.req, reapRes_[k]))
                ready_.push_back(s.tag);
            else
                ok = false;
            freeSlots_.push_back(slot);
            ioGaugeComplete(1);
            --inflight_;
        }
        return ok;
    }

    void
    reapChecked(std::size_t min_complete)
    {
        ANN_CHECK(reapSome(min_complete),
                  "io_uring async read failed on node file");
    }

    UringIoBackend &backend_;
    std::unique_ptr<UringQueue> ring_;
    std::uint32_t cap_;
    std::vector<Slot> slots_;
    std::vector<std::uint32_t> freeSlots_;
    std::size_t inflight_ = 0;
    std::vector<std::uint64_t> ready_;
    std::vector<IoRequest> chunkReqs_;
    std::vector<std::uint32_t> chunkSlots_;
    std::vector<std::uint32_t> reapSlots_;
    std::vector<int> reapRes_;
};

/**
 * One ring shared by every queue of a backend ($ANN_IO_POOLED): the
 * per-query beam submissions of a micro-batch merge into pooled
 * submissions, so the device sees the sum of the per-query depths
 * instead of one beam at a time. Submission serializes on ringMutex_;
 * any thread short on completions becomes the reaper and dispatches
 * CQEs to the owning handle's mailbox.
 */
class SharedUringRing
{
  public:
    struct Box
    {
        std::mutex mutex;
        std::condition_variable cv;
        std::vector<std::uint64_t> ready;
        std::size_t outstanding = 0;
        /** A read of this box failed; its next poll throws. */
        bool failed = false;
    };

    SharedUringRing(UringIoBackend &backend, std::uint32_t capacity)
        : backend_(backend), cap_(capacity)
    {
        ring_ = std::make_unique<UringQueue>();
        ok_ = ring_->init(capacity);
        if (!ok_)
            return;
        slots_.resize(cap_);
        freeSlots_.reserve(cap_);
        for (std::uint32_t s = 0; s < cap_; ++s)
            freeSlots_.push_back(cap_ - 1 - s);
        reapSlots_.resize(cap_);
        reapRes_.resize(cap_);
    }

    bool ok() const { return ok_; }

    void
    submit(Box *box, const IoRequest *requests, std::size_t n,
           const std::uint64_t *tags)
    {
        gaugeSubmitChecked(backend_.size_, requests, n);
        {
            std::lock_guard<std::mutex> bl(box->mutex);
            box->outstanding += n;
        }
        std::unique_lock<std::mutex> rl(ringMutex_);
        std::size_t i = 0;
        while (i < n) {
            while (inflight_ >= cap_)
                reapLocked(1);
            const std::size_t chunk =
                std::min<std::size_t>(cap_ - inflight_, n - i);
            chunkReqs_.clear();
            chunkSlots_.clear();
            for (std::size_t j = 0; j < chunk; ++j) {
                const std::uint32_t slot = freeSlots_.back();
                freeSlots_.pop_back();
                slots_[slot] =
                    Slot{requests[i + j], tags[i + j], box};
                chunkReqs_.push_back(requests[i + j]);
                chunkSlots_.push_back(slot);
            }
            if (ring_->submitAsync(backend_.fd_, chunkReqs_.data(),
                                   chunkSlots_.data(), chunk)) {
                inflight_ += chunk;
            } else {
                for (std::size_t j = 0; j < chunk; ++j) {
                    const std::uint32_t slot = chunkSlots_[j];
                    finishSlot(slot, preadFallback(backend_.fd_,
                                                   slots_[slot].req));
                }
            }
            i += chunk;
        }
    }

    std::size_t
    poll(Box *box, std::uint64_t *out, std::size_t max,
         std::size_t min_complete)
    {
        if (min_complete == 0) {
            // A pure poll still harvests landed CQEs (see
            // UringAsyncQueue::pollCompletions); a busy ring means
            // another thread is reaping and dispatching already.
            std::unique_lock<std::mutex> rl(ringMutex_,
                                            std::try_to_lock);
            if (rl.owns_lock() && inflight_ > 0)
                reapLocked(0);
        }
        for (;;) {
            {
                std::unique_lock<std::mutex> bl(box->mutex);
                ANN_CHECK(!box->failed,
                          "io_uring async read failed on node file");
                if (box->ready.size() >= min_complete ||
                    box->outstanding == 0) {
                    const std::size_t take =
                        std::min(max, box->ready.size());
                    for (std::size_t i = 0; i < take; ++i)
                        out[i] = box->ready[i];
                    box->ready.erase(
                        box->ready.begin(),
                        box->ready.begin() +
                            static_cast<std::ptrdiff_t>(take));
                    return take;
                }
            }
            // Short on completions: become the reaper (or wait for
            // whoever currently is).
            std::unique_lock<std::mutex> rl(ringMutex_,
                                            std::try_to_lock);
            if (rl.owns_lock()) {
                if (inflight_ > 0)
                    reapLocked(1);
            } else {
                std::unique_lock<std::mutex> bl(box->mutex);
                if (box->ready.size() < min_complete &&
                    box->outstanding > 0)
                    box->cv.wait_for(
                        bl, std::chrono::microseconds(50));
            }
        }
    }

    /** Block until every read owned by @p box has completed, then
     *  discard its undelivered tags (queue teardown). */
    void
    drain(Box *box)
    {
        for (;;) {
            {
                std::unique_lock<std::mutex> bl(box->mutex);
                if (box->outstanding == 0) {
                    box->ready.clear();
                    return;
                }
            }
            std::unique_lock<std::mutex> rl(ringMutex_,
                                            std::try_to_lock);
            if (rl.owns_lock()) {
                if (inflight_ > 0)
                    reapLocked(1);
            } else {
                std::unique_lock<std::mutex> bl(box->mutex);
                if (box->outstanding > 0)
                    box->cv.wait_for(
                        bl, std::chrono::microseconds(50));
            }
        }
    }

  private:
    struct Slot
    {
        IoRequest req;
        std::uint64_t tag = 0;
        Box *box = nullptr;
    };

    /** ringMutex_ held. Publish one completed slot to its box; a
     *  failed read marks the box instead of delivering its tag. */
    void
    finishSlot(std::uint32_t slot, bool ok)
    {
        Slot &s = slots_[slot];
        Box *box = s.box;
        {
            // Notify under the lock: a drained box may be destroyed
            // the moment it is released.
            std::lock_guard<std::mutex> bl(box->mutex);
            if (ok)
                box->ready.push_back(s.tag);
            else
                box->failed = true;
            --box->outstanding;
            box->cv.notify_all();
        }
        freeSlots_.push_back(slot);
        ioGaugeComplete(1);
    }

    /** ringMutex_ held. Reap ≥ @p min_complete CQEs (bounded by what
     *  is in flight) and dispatch them to their owners. A failed read
     *  is the owner's error, not the reaper's: it is finished like any
     *  other and surfaces on the owning box's next poll. */
    void
    reapLocked(std::size_t min_complete)
    {
        const std::size_t got = ring_->reapAsync(
            reapSlots_.data(), reapRes_.data(), cap_,
            std::min<std::size_t>(min_complete, inflight_));
        ANN_CHECK(got != static_cast<std::size_t>(-1),
                  "io_uring completion reap failed");
        for (std::size_t k = 0; k < got; ++k) {
            const std::uint32_t slot = reapSlots_[k];
            finishSlot(slot, fixShortRead(backend_.fd_,
                                          slots_[slot].req,
                                          reapRes_[k]));
            --inflight_;
        }
    }

    UringIoBackend &backend_;
    std::uint32_t cap_;
    std::unique_ptr<UringQueue> ring_;
    bool ok_ = false;
    std::mutex ringMutex_;
    std::vector<Slot> slots_;
    std::vector<std::uint32_t> freeSlots_;
    std::size_t inflight_ = 0;
    std::vector<IoRequest> chunkReqs_;
    std::vector<std::uint32_t> chunkSlots_;
    std::vector<std::uint32_t> reapSlots_;
    std::vector<int> reapRes_;
};

/** Per-consumer handle onto the shared ring. */
class PooledUringQueue final : public IoQueue
{
  public:
    explicit PooledUringQueue(SharedUringRing &ring) : ring_(ring) {}
    ~PooledUringQueue() override
    {
        try {
            ring_.drain(&box_);
        } catch (...) {
        }
    }

    void
    submitBatch(const IoRequest *requests, std::size_t n,
                const std::uint64_t *tags) override
    {
        ring_.submit(&box_, requests, n, tags);
    }

    std::size_t
    pollCompletions(std::uint64_t *out, std::size_t max,
                    std::size_t min_complete) override
    {
        return ring_.poll(&box_, out, max, min_complete);
    }

  private:
    SharedUringRing &ring_;
    SharedUringRing::Box box_;
};

UringIoBackend::~UringIoBackend()
{
    shared_.reset(); // shared ring closes before the file it reads
    idle_.clear();   // rings close before the file they read
    ::close(fd_);
}

std::unique_ptr<IoQueue>
UringIoBackend::openQueue()
{
    if (ioPooledEnabled()) {
        std::call_once(sharedOnce_, [this] {
            // The pooled ring merges many queries' beams, so size it
            // for the fleet, not one query's queue depth.
            const std::uint32_t cap = std::min<std::uint32_t>(
                1024, std::max<std::uint32_t>(64, queueDepth_));
            auto shared =
                std::make_unique<SharedUringRing>(*this, cap);
            if (shared->ok())
                shared_ = std::move(shared);
        });
        if (shared_)
            return std::make_unique<PooledUringQueue>(*shared_);
    }
    // A null ring (none could be set up) serves reads with pread.
    return std::make_unique<UringAsyncQueue>(*this, acquire());
}

void
UringIoBackend::readBatch(const IoRequest *requests, std::size_t n)
{
    if (n == 0)
        return;
    UringAsyncQueue queue(*this, acquire());
    drainBatch(queue, requests, n);
}

} // namespace

bool
uringSupported()
{
    static const bool supported = [] {
        UringQueue probe;
        return probe.init(8);
    }();
    return supported;
}

std::unique_ptr<IoBackend>
makeUringBackend(int fd, std::uint64_t size, unsigned queue_depth,
                 bool direct)
{
    if (!uringSupported())
        return nullptr;
    return std::make_unique<UringIoBackend>(fd, size, queue_depth,
                                            direct);
}

#else // no io_uring support compiled in

bool
uringSupported()
{
    return false;
}

std::unique_ptr<IoBackend>
makeUringBackend(int, std::uint64_t, unsigned, bool)
{
    return nullptr;
}

#endif

} // namespace ann::storage
