#include "storage/sector_reader.hh"

#include <algorithm>

#include "common/error.hh"

namespace ann::storage {

namespace {

/** waiting_ states of a slot. */
constexpr std::uint8_t kReady = 0;
constexpr std::uint8_t kOwned = 1;
constexpr std::uint8_t kShared = 2;

/** Bound of one wait on another query's read (see wait()). */
constexpr std::uint32_t kSharedWaitUs = 200;

} // namespace

SectorReader::SectorReader(IoBackend &io, SectorCache *cache)
    : io_(io), cache_(cache)
{
}

SectorReader::~SectorReader()
{
    // Error unwind: owned sectors whose runs never published get
    // their flights cancelled, releasing every attached query. On
    // the success path every run has published and this is a no-op.
    if (cache_ != nullptr) {
        for (std::size_t r = 0; r < requests_.size(); ++r) {
            if (published_[r])
                continue;
            for (std::uint32_t j = 0; j < requests_[r].count; ++j)
                cache_->cancelFetch(requests_[r].sector + j);
        }
    }
    // queue_'s destructor drains whatever is still in flight.
}

void
SectorReader::claim(const std::uint64_t *sectors, std::size_t n,
                    std::uint8_t *slots)
{
    ANN_ASSERT(unready_ == 0, "SectorReader::start before the last "
                              "fetch was ready");
    sectors_ = sectors;
    slots_ = slots;
    waiting_.assign(n, kReady);
    shared_.clear();
    owned_.clear();

    // Partition: cache hits copy into their slot (zero I/O), sectors
    // another query is reading attach to its flight, the rest are
    // claimed here and read below.
    for (std::size_t i = 0; i < n; ++i) {
        std::uint8_t *dest = slots + i * kIoSectorBytes;
        if (cache_ != nullptr) {
            if (cache_->lookup(sectors[i], dest))
                continue;
            const FetchClaim claim = cache_->beginFetch(sectors[i], dest);
            if (claim == FetchClaim::Cached)
                continue;
            if (claim == FetchClaim::Shared) {
                waiting_[i] = kShared;
                shared_.push_back(i);
                ++unready_;
                continue;
            }
        }
        waiting_[i] = kOwned;
        owned_.push_back(sectors[i]);
        ++unready_;
    }

    // One batched submission. A value-contiguous run is slot-
    // contiguous too (sectors is sorted and unique), so each run
    // lands as one read at its first sector's slot.
    coalesceSectors(owned_, runs_);
    requests_.clear();
    tags_.clear();
    for (const IoRun &run : runs_) {
        const auto slot = static_cast<std::size_t>(
            std::lower_bound(sectors, sectors + n, run.sector) -
            sectors);
        tags_.push_back(requests_.size());
        requests_.push_back(
            {run.sector, run.count, slots + slot * kIoSectorBytes});
    }
    published_.assign(requests_.size(), 0);
}

void
SectorReader::start(const std::uint64_t *sectors, std::size_t n,
                    std::uint8_t *slots)
{
    claim(sectors, n, slots);
    if (requests_.empty())
        return;
    if (!queue_)
        queue_ = io_.openQueue();
    queue_->submitBatch(requests_.data(), requests_.size(),
                        tags_.data());
    outstanding_ += requests_.size();
}

void
SectorReader::fetch(const std::uint64_t *sectors, std::size_t n,
                    std::uint8_t *slots)
{
    claim(sectors, n, slots);
    if (!requests_.empty()) {
        io_.readBatch(requests_.data(), requests_.size());
        outstanding_ += requests_.size();
        for (std::size_t r = 0; r < requests_.size(); ++r)
            complete(r);
    }
    drain(); // sectors other queries own
}

bool
SectorReader::ready(std::size_t first, std::size_t count) const
{
    for (std::size_t i = first; i < first + count; ++i)
        if (waiting_[i] != kReady)
            return false;
    return true;
}

void
SectorReader::complete(std::uint64_t tag)
{
    const auto r = static_cast<std::size_t>(tag);
    const IoRequest &req = requests_[r];
    const auto slot0 =
        static_cast<std::size_t>((req.dest - slots_) / kIoSectorBytes);
    for (std::uint32_t j = 0; j < req.count; ++j) {
        waiting_[slot0 + j] = kReady;
        if (cache_ != nullptr)
            cache_->publishFetch(req.sector + j,
                                 req.dest + j * kIoSectorBytes);
    }
    published_[r] = 1;
    unready_ -= req.count;
    --outstanding_;
}

void
SectorReader::wait()
{
    if (unready_ == 0)
        return;
    if (outstanding_ > 0) {
        const std::size_t got =
            queue_->pollCompletions(tags_.data(), tags_.size(), 0);
        for (std::size_t t = 0; t < got; ++t)
            complete(tags_[t]);
        if (got > 0)
            return;
    }
    // Nothing of ours landed: give a sector another query owns a
    // bounded wait, so we come back to drain our own completions.
    if (!shared_.empty()) {
        const std::size_t i = shared_.back();
        std::uint8_t *dest = slots_ + i * kIoSectorBytes;
        const FetchStatus status =
            cache_->waitFetchFor(sectors_[i], dest, kSharedWaitUs);
        if (status == FetchStatus::Timeout)
            return;
        if (status == FetchStatus::Cancelled) {
            // The owner unwound: read the sector ourselves.
            const IoRequest req{sectors_[i], 1, dest};
            io_.readBatch(&req, 1);
            cache_->admit(sectors_[i], dest);
        }
        waiting_[i] = kReady;
        --unready_;
        shared_.pop_back();
        return;
    }
    ANN_ASSERT(outstanding_ > 0, "sector fetch stalled: slots unready "
                                 "with no I/O outstanding");
    const std::size_t got =
        queue_->pollCompletions(tags_.data(), tags_.size(), 1);
    for (std::size_t t = 0; t < got; ++t)
        complete(tags_[t]);
}

void
SectorReader::drain()
{
    while (unready_ > 0)
        wait();
}

} // namespace ann::storage
