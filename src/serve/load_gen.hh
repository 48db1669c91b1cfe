/**
 * @file
 * Network load generators reproducing the paper's client sweep.
 *
 * Two driving disciplines against a running AnnServer:
 *
 *  - closed loop (VectorDBBench's shape, the paper's concurrency
 *    sweep): N clients, each with at most one request outstanding;
 *    offered load adapts to service rate, so QPS saturates while
 *    latency grows with N.
 *  - open loop: requests leave on a fixed schedule (target QPS split
 *    across sender connections) regardless of completions — the
 *    discipline that exposes queueing delay and admission-control
 *    shedding, which a synchronous loop can never generate.
 *
 * Both validate recall@k against the dataset's ground truth per
 * response, so a serving-layer bug that corrupts results (not just
 * timing) fails the run.
 */

#ifndef ANN_SERVE_LOAD_GEN_HH
#define ANN_SERVE_LOAD_GEN_HH

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "common/stats.hh"
#include "engine/engine.hh"
#include "workload/dataset.hh"

namespace ann::serve {

class AnnClient;

/**
 * Connections that persist across sweep points, one per worker slot.
 *
 * Real load generators amortize TCP establishment over a whole sweep
 * instead of reconnecting at every concurrency point; annload does
 * the same by handing each worker the slot it held last time. A slot
 * whose previous run ended with unanswered in-flight requests must be
 * discarded — a late reply on a reused connection would surface as a
 * response to an unknown request id.
 *
 * acquire()/discard() are safe from concurrent workers; each slot is
 * used by at most one worker at a time.
 */
class ClientPool
{
  public:
    /**
     * Connected client for @p slot, establishing (and timing) a new
     * connection when the slot is empty.
     * @param connect_ns out: establishment time, 0 when reused.
     * @param retry_ms ECONNREFUSED retry budget for new connections
     *        (0 = single attempt) — rides out server startup races.
     * @param retries out (optional): refused attempts before success.
     */
    std::shared_ptr<AnnClient> acquire(std::size_t slot,
                                       const std::string &host,
                                       std::uint16_t port,
                                       std::uint64_t *connect_ns,
                                       std::uint64_t retry_ms = 0,
                                       std::uint64_t *retries = nullptr);

    /** Drop @p slot 's connection so the next acquire reconnects. */
    void discard(std::size_t slot);

    std::size_t size() const;

  private:
    mutable std::mutex mutex_;
    std::unordered_map<std::size_t, std::shared_ptr<AnnClient>> slots_;
};

struct LoadOptions
{
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;
    /** Closed-loop clients, or open-loop sender connections. */
    std::size_t clients = 1;
    /** > 0 selects the open-loop discipline at this offered QPS. */
    double target_qps = 0.0;
    double duration_s = 3.0;
    engine::SearchSettings settings;
    /** Query source + ground truth; required. */
    const workload::Dataset *dataset = nullptr;
    /** Validate recall@k on every Ok response (needs gt_k >= k). */
    bool validate = true;
    /** Closed-loop pause after an Overloaded reply (anti-spin). */
    std::chrono::microseconds shed_backoff{200};
    /**
     * ECONNREFUSED retry budget when establishing connections (0 =
     * single attempt). A server still loading its index refuses
     * connections; the default turns that startup race into a short
     * stall instead of a failed run.
     */
    std::uint64_t connect_retry_ms = 2000;
    /**
     * When set, workers draw persistent connections from this pool
     * (slot = worker index) instead of reconnecting per run.
     */
    ClientPool *pool = nullptr;
};

struct LoadReport
{
    std::uint64_t sent = 0;
    std::uint64_t completed = 0;
    std::uint64_t shed = 0;
    /** BadRequest / ShuttingDown replies. */
    std::uint64_t rejected = 0;
    /** Open loop: responses still missing when the run ended. */
    std::uint64_t unanswered = 0;
    double wall_s = 0.0;
    double qps = 0.0;
    double mean_us = 0.0;
    double p50_us = 0.0;
    double p99_us = 0.0;
    double p999_us = 0.0;
    /** Mean server-side queue wait / execution time (Ok replies). */
    double server_queue_us = 0.0;
    double server_exec_us = 0.0;
    /** Mean recall@k over validated responses. */
    double recall = 0.0;
    std::uint64_t recall_samples = 0;
    /** Connections established during this run (reused slots: 0). */
    std::uint64_t connections = 0;
    /** Mean establishment time per new connection (us). */
    double connect_us = 0.0;
    /** Refused-then-retried connect attempts across the run. */
    std::uint64_t connect_retries = 0;
    /** Client-observed latency distribution (merged, ns). */
    LatencyHistogram latency_ns;
};

/** N concurrent clients, one outstanding request each. */
LoadReport runClosedLoop(const LoadOptions &options);

/**
 * Fixed-schedule senders at options.target_qps total. Latency is
 * timed from each request's due time, so a sender that falls behind
 * its schedule reports the backlog instead of hiding it.
 */
LoadReport runOpenLoop(const LoadOptions &options);

} // namespace ann::serve

#endif // ANN_SERVE_LOAD_GEN_HH
