#include "serve/load_gen.hh"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/error.hh"
#include "distance/recall.hh"
#include "serve/client.hh"

namespace ann::serve {

namespace {

using Clock = std::chrono::steady_clock;

/** Per-thread tallies, merged after the joins. */
struct ThreadStats
{
    std::uint64_t sent = 0;
    std::uint64_t completed = 0;
    std::uint64_t shed = 0;
    std::uint64_t rejected = 0;
    std::uint64_t connects = 0;
    std::uint64_t connect_retries = 0;
    double connect_ns_sum = 0.0;
    double queue_ns_sum = 0.0;
    double exec_ns_sum = 0.0;
    double recall_sum = 0.0;
    std::uint64_t recall_samples = 0;
    LatencyHistogram latency_ns;
};

/**
 * Worker @p slot 's connection: pooled (persistent across runs) when
 * options.pool is set, otherwise fresh. Establishment time lands in
 * @p stats either way so the connect column stays comparable.
 */
std::shared_ptr<AnnClient>
acquireClient(const LoadOptions &options, std::size_t slot,
              ThreadStats &stats)
{
    std::uint64_t connect_ns = 0;
    std::uint64_t retries = 0;
    std::shared_ptr<AnnClient> client;
    if (options.pool != nullptr) {
        client = options.pool->acquire(slot, options.host,
                                       options.port, &connect_ns,
                                       options.connect_retry_ms,
                                       &retries);
    } else {
        client = std::make_shared<AnnClient>();
        ConnectRetry retry;
        retry.max_wait_ms = options.connect_retry_ms;
        const Clock::time_point t0 = Clock::now();
        client->connect(options.host, options.port, retry, &retries);
        connect_ns = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - t0)
                .count());
    }
    stats.connect_retries += retries;
    if (connect_ns > 0) {
        stats.connects++;
        stats.connect_ns_sum += static_cast<double>(connect_ns);
    }
    return client;
}

/** Whether recall@k can be validated against this dataset. */
bool
canValidate(const LoadOptions &options)
{
    return options.validate && options.dataset->gt_k != 0 &&
           options.dataset->gt_k >= options.settings.k;
}

void
scoreResponse(const LoadOptions &options, const SearchResponse &response,
              std::size_t query_index, std::uint64_t latency_ns,
              ThreadStats &stats)
{
    if (response.status == Status::Ok) {
        stats.completed++;
        stats.latency_ns.add(latency_ns);
        stats.queue_ns_sum += static_cast<double>(response.queue_ns);
        stats.exec_ns_sum += static_cast<double>(response.exec_ns);
        if (canValidate(options)) {
            stats.recall_sum += recallAtK(
                options.dataset->ground_truth[query_index],
                response.results, options.settings.k);
            stats.recall_samples++;
        }
    } else if (response.status == Status::Overloaded) {
        stats.shed++;
    } else {
        stats.rejected++;
    }
}

LoadReport
mergeStats(const std::vector<ThreadStats> &all, double wall_s)
{
    LoadReport report;
    double queue_ns = 0.0;
    double exec_ns = 0.0;
    double connect_ns = 0.0;
    for (const ThreadStats &s : all) {
        report.sent += s.sent;
        report.completed += s.completed;
        report.shed += s.shed;
        report.rejected += s.rejected;
        report.connections += s.connects;
        report.connect_retries += s.connect_retries;
        connect_ns += s.connect_ns_sum;
        report.recall_samples += s.recall_samples;
        report.recall += s.recall_sum;
        queue_ns += s.queue_ns_sum;
        exec_ns += s.exec_ns_sum;
        report.latency_ns.merge(s.latency_ns);
    }
    if (report.connections > 0)
        report.connect_us = connect_ns /
                            static_cast<double>(report.connections) /
                            1e3;
    report.wall_s = wall_s;
    if (wall_s > 0.0)
        report.qps = static_cast<double>(report.completed) / wall_s;
    if (report.completed > 0) {
        report.server_queue_us =
            queue_ns / static_cast<double>(report.completed) / 1e3;
        report.server_exec_us =
            exec_ns / static_cast<double>(report.completed) / 1e3;
    }
    if (report.recall_samples > 0)
        report.recall /= static_cast<double>(report.recall_samples);
    if (report.latency_ns.count() > 0) {
        report.mean_us = report.latency_ns.mean() / 1e3;
        report.p50_us = report.latency_ns.percentile(50.0) / 1e3;
        report.p99_us = report.latency_ns.percentile(99.0) / 1e3;
        report.p999_us = report.latency_ns.percentile(99.9) / 1e3;
    }
    return report;
}

void
checkOptions(const LoadOptions &options)
{
    ANN_CHECK(options.dataset != nullptr, "load generator needs a dataset");
    ANN_CHECK(options.dataset->num_queries > 0, "dataset has no queries");
    ANN_CHECK(options.clients > 0, "need at least one client");
    ANN_CHECK(options.duration_s > 0.0, "duration must be positive");
}

} // namespace

std::shared_ptr<AnnClient>
ClientPool::acquire(std::size_t slot, const std::string &host,
                    std::uint16_t port, std::uint64_t *connect_ns,
                    std::uint64_t retry_ms, std::uint64_t *retries)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto it = slots_.find(slot);
        if (it != slots_.end()) {
            *connect_ns = 0;
            return it->second;
        }
    }
    // Connect outside the lock: slots connect concurrently, and each
    // slot is requested by exactly one worker per run.
    auto client = std::make_shared<AnnClient>();
    ConnectRetry retry;
    retry.max_wait_ms = retry_ms;
    const Clock::time_point t0 = Clock::now();
    client->connect(host, port, retry, retries);
    *connect_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - t0)
            .count());
    std::lock_guard<std::mutex> lock(mutex_);
    slots_[slot] = client;
    return client;
}

void
ClientPool::discard(std::size_t slot)
{
    std::lock_guard<std::mutex> lock(mutex_);
    slots_.erase(slot);
}

std::size_t
ClientPool::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return slots_.size();
}

LoadReport
runClosedLoop(const LoadOptions &options)
{
    checkOptions(options);
    const workload::Dataset &dataset = *options.dataset;

    std::atomic<std::uint64_t> next_id{0};
    std::vector<ThreadStats> stats(options.clients);
    std::vector<std::thread> threads;
    threads.reserve(options.clients);

    const Clock::time_point start = Clock::now();
    const Clock::time_point deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(options.duration_s));

    for (std::size_t c = 0; c < options.clients; ++c) {
        threads.emplace_back([&, c] {
            ThreadStats &mine = stats[c];
            const std::shared_ptr<AnnClient> client =
                acquireClient(options, c, mine);
            while (Clock::now() < deadline) {
                const std::uint64_t id = next_id.fetch_add(1);
                const std::size_t qi = id % dataset.num_queries;
                const Clock::time_point t0 = Clock::now();
                const SearchResponse response =
                    client->search(dataset.query(qi), dataset.dim,
                                   options.settings, id);
                const std::uint64_t latency_ns =
                    static_cast<std::uint64_t>(
                        std::chrono::duration_cast<
                            std::chrono::nanoseconds>(Clock::now() - t0)
                            .count());
                mine.sent++;
                scoreResponse(options, response, qi, latency_ns, mine);
                if (response.status == Status::Overloaded &&
                    options.shed_backoff.count() > 0)
                    std::this_thread::sleep_for(options.shed_backoff);
            }
        });
    }
    for (std::thread &t : threads)
        t.join();

    const double wall_s =
        std::chrono::duration<double>(Clock::now() - start).count();
    return mergeStats(stats, wall_s);
}

LoadReport
runOpenLoop(const LoadOptions &options)
{
    checkOptions(options);
    ANN_CHECK(options.target_qps > 0.0,
              "open loop needs a positive target QPS");
    const workload::Dataset &dataset = *options.dataset;

    // Each connection sends on its own fixed schedule at an equal
    // share of the target rate; a paired receiver drains replies so
    // the sender never blocks on the socket's response stream.
    const double per_conn_qps =
        options.target_qps / static_cast<double>(options.clients);
    const auto interval = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(1.0 / per_conn_qps));

    struct Outstanding
    {
        /** When the schedule wanted the request sent. */
        Clock::time_point due;
        std::size_t query_index = 0;
    };

    std::atomic<std::uint64_t> next_id{0};
    std::atomic<std::uint64_t> unanswered{0};
    std::vector<ThreadStats> stats(options.clients);
    std::vector<std::thread> threads;
    threads.reserve(options.clients * 2);

    const Clock::time_point start = Clock::now();
    const Clock::time_point deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(options.duration_s));

    for (std::size_t c = 0; c < options.clients; ++c) {
        // Client, in-flight map, and sender-done flag are shared by
        // the sender/receiver pair; the client itself is safe here
        // because exactly one thread sends and one receives.
        std::shared_ptr<AnnClient> client =
            acquireClient(options, c, stats[c]);
        auto map_mutex = std::make_shared<std::mutex>();
        auto outstanding = std::make_shared<
            std::unordered_map<std::uint64_t, Outstanding>>();
        auto sender_done = std::make_shared<std::atomic<bool>>(false);

        threads.emplace_back([&, c, client, map_mutex, outstanding,
                              sender_done] {
            ThreadStats &mine = stats[c];
            Clock::time_point next_send = start;
            while (next_send < deadline) {
                std::this_thread::sleep_until(next_send);
                const std::uint64_t id = next_id.fetch_add(1);
                const std::size_t qi = id % dataset.num_queries;
                {
                    // Latency counts from the due time, not the real
                    // send: a sender stalled behind a slow server (a
                    // full socket, a late wakeup) would otherwise hide
                    // that backlog — coordinated omission.
                    std::lock_guard<std::mutex> lock(*map_mutex);
                    (*outstanding)[id] = {next_send, qi};
                }
                client->sendSearch(dataset.query(qi), dataset.dim,
                                   options.settings, id);
                mine.sent++;
                next_send += interval;
            }
            sender_done->store(true);
        });

        threads.emplace_back([&, c, client, map_mutex, outstanding,
                              sender_done] {
            ThreadStats &mine = stats[c];
            // Drain until the sender finished and every in-flight
            // request was answered, bounded by a short grace period.
            const auto grace = std::chrono::seconds(2);
            Clock::time_point drain_deadline = deadline + grace;
            for (;;) {
                bool all_done = false;
                if (sender_done->load()) {
                    std::lock_guard<std::mutex> lock(*map_mutex);
                    all_done = outstanding->empty();
                }
                if (all_done || Clock::now() > drain_deadline)
                    break;
                SearchResponse response;
                if (!client->tryRecvSearchResponse(&response, 100))
                    continue;
                Outstanding info;
                {
                    std::lock_guard<std::mutex> lock(*map_mutex);
                    const auto it = outstanding->find(response.request_id);
                    ANN_CHECK(it != outstanding->end(),
                              "response for unknown request id ",
                              response.request_id);
                    info = it->second;
                    outstanding->erase(it);
                }
                const std::uint64_t latency_ns =
                    static_cast<std::uint64_t>(
                        std::chrono::duration_cast<
                            std::chrono::nanoseconds>(Clock::now() -
                                                      info.due)
                            .count());
                scoreResponse(options, response, info.query_index,
                              latency_ns, mine);
            }
            std::lock_guard<std::mutex> lock(*map_mutex);
            unanswered.fetch_add(outstanding->size());
            // A reused connection with replies still in flight would
            // deliver them under the NEXT run's id space — retire it.
            if (!outstanding->empty() && options.pool != nullptr)
                options.pool->discard(c);
        });
    }
    for (std::thread &t : threads)
        t.join();

    const double wall_s =
        std::chrono::duration<double>(Clock::now() - start).count();
    LoadReport report = mergeStats(stats, wall_s);
    report.unanswered = unanswered.load();
    return report;
}

} // namespace ann::serve
