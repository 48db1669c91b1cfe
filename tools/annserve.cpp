/**
 * @file
 * annserve — network front end for one prepared engine.
 *
 * Loads a dataset, prepares a setup (same cache as annbench), and
 * serves it over the binary protocol until SIGTERM/SIGINT:
 *
 *   annserve --setup milvus-hnsw --dataset cohere-1m --port 7654
 *
 * Prints "annserve: listening on HOST:PORT" once ready (scripts wait
 * for that line), tuned search parameters to pass to annload, and a
 * final metrics summary after the graceful drain.
 *
 * Cluster mode: `--shard i/N` serves only shard i's contiguous row
 * slice (ids offset back into the global space), and `--topology FILE
 * --replica r` binds the endpoint the shard map assigns to replica r
 * of that shard — the same file drives annrouter and annload.
 */

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>

#include "common/args.hh"
#include "common/error.hh"
#include "common/thread_pool.hh"
#include "core/experiments.hh"
#include "core/tuner.hh"
#include "dist/topology.hh"
#include "index/layout.hh"
#include "serve/server.hh"
#include "storage/io_backend.hh"
#include "workload/registry.hh"

namespace {

ann::serve::AnnServer *g_server = nullptr;

extern "C" void
handleStopSignal(int)
{
    // requestStop is async-signal-safe (atomic store + eventfd write).
    if (g_server != nullptr)
        g_server->requestStop();
}

void
printUsage()
{
    std::printf(
        "usage: annserve [options]\n"
        "  --setup NAME        one of:");
    for (const auto &name : ann::core::allSetups())
        std::printf(" %s", name.c_str());
    std::printf(
        "\n"
        "  --dataset NAME      cohere-1m|cohere-10m|openai-500k|"
        "openai-5m\n"
        "  --bind ADDR         listen address (default 127.0.0.1)\n"
        "  --port N            TCP port (default 7654; 0 = ephemeral,\n"
        "                      printed in the readiness line)\n"
        "  --queue-limit N     admission limit; requests beyond it "
        "are\n"
        "                      shed with OVERLOADED (default 64)\n"
        "  --max-batch N       micro-batch drain size (default 8)\n"
        "  --exec-threads N    execution pool width (default: "
        "hardware\n"
        "                      concurrency; 1 = serial)\n"
        "  --pin-threads       pin execution-pool workers to cores in\n"
        "                      NUMA-node order (default: "
        "$ANN_PIN_THREADS)\n"
        "  --max-connections N accepted-connection cap (default "
        "1024)\n"
        "  --io-backend NAME   node-file I/O backend: memory|file|"
        "uring\n"
        "  --io-queue-depth N  in-flight requests per real-I/O batch\n"
        "  --mem-budget-mb N   DRAM budget for index state; tiers\n"
        "                      PQ codes / posting payloads onto the\n"
        "                      I/O backend when exceeded (0 = all\n"
        "                      resident; overrides $ANN_MEM_BUDGET_MB)\n"
        "  --node-cache-mb N   sector-cache capacity per index (MiB;\n"
        "                      0 = off, default $ANN_NODE_CACHE_MB)\n"
        "  --io-pooled         merge per-query submissions into one\n"
        "                      shared uring ring ($ANN_IO_POOLED)\n"
        "  --warm-nodes N      nodes BFS-warmed from the medoid "
        "(DiskANN\n"
        "                      only, default $ANN_WARM_NODES)\n"
        "  --layout NAME       DiskANN on-disk node placement:\n"
        "                      id-order|packed-bfs (default: "
        "$ANN_LAYOUT\n"
        "                      or id-order)\n"
        "  --shard I/N         serve only shard I of N (contiguous "
        "row\n"
        "                      slice; returned ids stay global)\n"
        "  --topology FILE     cluster shard map; with --shard, binds "
        "the\n"
        "                      endpoint assigned to this replica\n"
        "  --replica R         replica index within the shard "
        "(default 0)\n"
        "  --debug-slow-every N  sleep on every Nth request (0 = "
        "off)\n"
        "  --debug-slow-us US  injected straggler sleep duration\n"
        "  --help              this message\n");
}

int
runServe(const ann::ArgParser &args)
{
    using namespace ann;

    {
        storage::IoOptions io = storage::IoOptions::fromEnv();
        if (args.has("io-backend")) {
            const std::string name = args.get("io-backend", "memory");
            ANN_CHECK(storage::ioBackendKindFromName(name, &io.kind),
                      "unknown --io-backend '", name,
                      "' (valid: memory|file|uring)");
        }
        if (args.has("io-queue-depth"))
            io.queue_depth = static_cast<unsigned>(
                std::max<std::int64_t>(
                    1, args.getInt("io-queue-depth", 32)));
        if (args.has("node-cache-mb"))
            io.node_cache.capacity_bytes =
                static_cast<std::size_t>(std::max<std::int64_t>(
                    0, args.getInt("node-cache-mb", 0))) *
                (1u << 20);
        if (args.has("warm-nodes"))
            io.node_cache.warm_nodes =
                static_cast<std::size_t>(std::max<std::int64_t>(
                    0, args.getInt("warm-nodes", 0)));
        if (args.has("mem-budget-mb"))
            io.mem_budget_bytes =
                static_cast<std::size_t>(std::max<std::int64_t>(
                    0, args.getInt("mem-budget-mb", 0))) *
                (1u << 20);
        storage::setDefaultIoOptions(io);
    }
    if (args.flag("io-pooled"))
        storage::setIoPooledEnabled(true);

    // Resolve the on-disk layout before prepareEngine builds or loads
    // any DiskANN segment; the flag overrides $ANN_LAYOUT.
    if (args.has("layout")) {
        const std::string name = args.get("layout", "default");
        LayoutPolicy policy = LayoutPolicy::Default;
        ANN_CHECK(layoutPolicyFromName(name, &policy),
                  "unknown --layout '", name,
                  "' (valid: id-order|packed-bfs)");
        setDefaultLayoutPolicy(policy);
    }

    const std::string setup = args.get("setup", "milvus-hnsw");
    const std::string dataset_name = args.get("dataset", "cohere-1m");
    std::printf("annserve: loading %s and preparing %s...\n",
                dataset_name.c_str(), setup.c_str());
    auto dataset = workload::loadOrGenerate(dataset_name);

    // Cluster mode: restrict the dataset to this process's shard
    // slice before any index is built. Returned ids are offset back
    // into the global id space so the router's merged top-k is
    // comparable to a single-process run.
    dist::ShardSpec shard_spec;
    const bool sharded = args.has("shard");
    std::uint64_t id_offset = 0;
    if (sharded) {
        ANN_CHECK(dist::parseShardSpec(args.get("shard", ""),
                                       &shard_spec),
                  "bad --shard '", args.get("shard", ""),
                  "' (want I/N with I < N)");
        const auto range = dist::shardRange(
            dataset.rows, shard_spec.index, shard_spec.count);
        id_offset = range.begin;
        dataset = dist::shardSlice(dataset, shard_spec);
        std::printf("annserve: shard %zu/%zu: rows [%zu, %zu) of %s\n",
                    shard_spec.index, shard_spec.count, range.begin,
                    range.end, dataset_name.c_str());
    }

    auto engine = core::prepareEngine(setup, dataset);

    if (!sharded) {
        // Hand the operator parameters that reach the tuned recall
        // target, ready to paste into an annload invocation. Shards
        // skip this: their slice carries no ground truth (recall is
        // accounted at the router/client in global ids).
        const auto tuned = core::tunedSettings(*engine, dataset, 0.9);
        std::printf("annserve: tuned settings: --k %zu --nprobe %zu "
                    "--ef-search %zu --search-list %zu --beam-width "
                    "%zu (recall@%zu %.3f)\n",
                    tuned.settings.k, tuned.settings.nprobe,
                    tuned.settings.ef_search,
                    tuned.settings.search_list,
                    tuned.settings.beam_width, tuned.settings.k,
                    tuned.recall);
    }

    serve::ServerConfig config;
    config.bind_address = args.get("bind", "127.0.0.1");
    config.port =
        static_cast<std::uint16_t>(args.getInt("port", 7654));
    if (args.has("topology")) {
        // The shard map assigns this process its endpoint, keeping
        // annserve, annrouter, and annload consistent from one file.
        ANN_CHECK(sharded, "--topology requires --shard I/N");
        const auto topology =
            dist::loadTopologyFile(args.get("topology", ""));
        ANN_CHECK(shard_spec.count == topology.numShards(),
                  "--shard says ", shard_spec.count,
                  " shards but the topology has ",
                  topology.numShards());
        const auto replica =
            static_cast<std::size_t>(args.getInt("replica", 0));
        ANN_CHECK(replica < topology.numReplicas(shard_spec.index),
                  "--replica ", replica, " out of range (shard has ",
                  topology.numReplicas(shard_spec.index),
                  " replicas)");
        const dist::Endpoint &self =
            topology.shards[shard_spec.index][replica];
        config.bind_address = self.host;
        config.port = self.port;
    }
    config.id_offset = id_offset;
    config.slow_every = static_cast<std::size_t>(
        std::max<std::int64_t>(0, args.getInt("debug-slow-every", 0)));
    config.slow_us =
        std::chrono::microseconds(std::max<std::int64_t>(
            0, args.getInt("debug-slow-us", 0)));
    config.queue_limit =
        static_cast<std::size_t>(args.getInt("queue-limit", 64));
    config.max_batch =
        static_cast<std::size_t>(args.getInt("max-batch", 8));
    config.exec_threads =
        static_cast<std::size_t>(args.getInt("exec-threads", 0));
    if (args.flag("pin-threads"))
        ThreadPool::setPinByDefault(true);
    config.max_connections = static_cast<std::size_t>(
        args.getInt("max-connections", 1024));
    config.expected_dim = dataset.dim;

    serve::AnnServer server(*engine, config);
    server.start();
    g_server = &server;
    std::signal(SIGTERM, handleStopSignal);
    std::signal(SIGINT, handleStopSignal);

    std::printf("annserve: listening on %s:%u\n",
                config.bind_address.c_str(), server.port());
    std::fflush(stdout);

    server.waitStopped();
    g_server = nullptr;

    const serve::MetricsSnapshot m = server.metrics();
    std::printf("annserve: drained. %llu requests (%llu ok, %llu "
                "shed, %llu protocol errors) over %llu connections; "
                "%.0f QPS, P50 %.0f us, P99 %.0f us, P99.9 %.0f us\n",
                static_cast<unsigned long long>(m.received),
                static_cast<unsigned long long>(m.completed),
                static_cast<unsigned long long>(m.shed),
                static_cast<unsigned long long>(m.protocol_errors),
                static_cast<unsigned long long>(m.accepted_connections),
                m.qps, m.p50_us, m.p99_us, m.p999_us);
    if (m.eff_queue_depth > 0.0)
        std::printf("annserve: effective I/O queue depth: %.2f mean "
                    "in-flight reads\n",
                    m.eff_queue_depth);
    if (m.cache_lookups > 0)
        std::printf("annserve: node cache: %llu lookups, %llu hits "
                    "(%.1f%%), %.1f MiB saved, %llu reads deduped\n",
                    static_cast<unsigned long long>(m.cache_lookups),
                    static_cast<unsigned long long>(m.cache_hits),
                    100.0 * static_cast<double>(m.cache_hits) /
                        static_cast<double>(m.cache_lookups),
                    static_cast<double>(m.cache_bytes_saved) /
                        (1024.0 * 1024.0),
                    static_cast<unsigned long long>(m.cache_deduped));
    std::printf("annserve: resident index %.1f MiB, peak RSS %.1f "
                "MiB\n",
                static_cast<double>(m.resident_index_bytes) /
                    (1024.0 * 1024.0),
                static_cast<double>(m.peak_rss_bytes) /
                    (1024.0 * 1024.0));
    if (m.code_cache_lookups > 0)
        std::printf("annserve: code cache: %llu lookups, %llu hits "
                    "(%.1f%%)\n",
                    static_cast<unsigned long long>(
                        m.code_cache_lookups),
                    static_cast<unsigned long long>(m.code_cache_hits),
                    100.0 * static_cast<double>(m.code_cache_hits) /
                        static_cast<double>(m.code_cache_lookups));
    if (m.learned_entry != 0 || m.learned_early_stop != 0 ||
        !m.learned_model.empty())
        std::printf("annserve: learned policies: entry=%s "
                    "early-stop=%s model=%s\n",
                    m.learned_entry != 0 ? "on" : "off",
                    m.learned_early_stop != 0 ? "on" : "off",
                    m.learned_model.empty() ? "(none)"
                                            : m.learned_model.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace ann;
    ArgParser args({"setup", "dataset", "bind", "port", "queue-limit",
                    "max-batch", "exec-threads", "max-connections",
                    "io-backend", "io-queue-depth", "node-cache-mb",
                    "mem-budget-mb",
                    "warm-nodes", "layout", "shard", "topology",
                    "replica", "debug-slow-every", "debug-slow-us"},
                   {"help", "pin-threads", "io-pooled"});
    try {
        args.parse(argc, argv);
    } catch (const FatalError &e) {
        std::fprintf(stderr, "%s\n", e.what());
        printUsage();
        return 1;
    }
    if (args.flag("help")) {
        printUsage();
        return 0;
    }
    try {
        return runServe(args);
    } catch (const FatalError &e) {
        std::fprintf(stderr, "annserve: %s\n", e.what());
        return 1;
    }
}
