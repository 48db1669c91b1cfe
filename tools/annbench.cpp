/**
 * @file
 * annbench — ad-hoc measurement CLI.
 *
 * Runs any (setup, dataset, parameters, concurrency) point of the
 * study without editing a bench binary — the vectordbbench-style
 * front door of the library:
 *
 *   annbench --setup milvus-diskann --dataset cohere-10m \
 *            --threads 1,4,64 --search-list 20 --trace
 *
 * Prints QPS / latency / recall / CPU / I/O per point and optionally
 * dumps the block trace to CSV.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <memory>
#include <sstream>

#include "common/args.hh"
#include "common/error.hh"
#include "common/rss.hh"
#include "common/table.hh"
#include "common/thread_pool.hh"
#include "core/bench_runner.hh"
#include "core/experiments.hh"
#include "core/report.hh"
#include "core/tuner.hh"
#include "index/layout.hh"
#include "learn/hoplog.hh"
#include "learn/policy.hh"
#include "storage/block_tracer.hh"
#include "storage/io_backend.hh"
#include "storage/trace_analysis.hh"
#include "workload/registry.hh"

namespace {

void
printUsage()
{
    std::printf(
        "usage: annbench [options]\n"
        "  --setup NAME        one of:");
    for (const auto &name : ann::core::allSetups())
        std::printf(" %s", name.c_str());
    std::printf(
        "\n"
        "  --dataset NAME      cohere-1m|cohere-10m|openai-500k|"
        "openai-5m\n"
        "  --threads LIST      comma-separated client counts "
        "(default 1,16,256)\n"
        "  --exec-threads N    worker threads for real query "
        "execution\n"
        "                      (default: hardware concurrency; 1 = "
        "serial)\n"
        "  --verify-exec       cross-check parallel execution "
        "against a\n"
        "                      serial run (bit-identical results + "
        "traces)\n"
        "  --pin-threads       pin execution-pool workers to cores in\n"
        "                      NUMA-node order (default: "
        "$ANN_PIN_THREADS)\n"
        "  --k N               neighbours per query (default 10)\n"
        "  --nprobe N          IVF probes (default: tuned)\n"
        "  --ef-search N       HNSW candidate list (default: tuned)\n"
        "  --search-list N     DiskANN candidate list (default: "
        "tuned)\n"
        "  --beam-width N      DiskANN beam width (default 4)\n"
        "  --io-backend NAME   node-file I/O backend: memory|file|"
        "uring\n"
        "                      (default: $ANN_IO_BACKEND or memory)\n"
        "  --io-queue-depth N  in-flight requests per real-I/O batch\n"
        "                      (default: $ANN_IO_QUEUE_DEPTH or 32)\n"
        "  --node-cache-mb N   sector-cache capacity per index (MiB;\n"
        "                      0 = off, default $ANN_NODE_CACHE_MB)\n"
        "  --mem-budget-mb N   DRAM budget for index state; tiers\n"
        "                      above it (PQ codes, IVF payload) spill\n"
        "                      to storage (default $ANN_MEM_BUDGET_MB;\n"
        "                      0 = unlimited)\n"
        "  --warm-nodes N      nodes BFS-warmed from the medoid "
        "(DiskANN\n"
        "                      only, default $ANN_WARM_NODES)\n"
        "  --layout NAME       DiskANN on-disk node placement:\n"
        "                      id-order|packed-bfs (default: "
        "$ANN_LAYOUT\n"
        "                      or id-order)\n"
        "  --drop-caches       drop the sector cache and re-execute\n"
        "                      before every sweep point (cold runs)\n"
        "  --io-pooled         merge per-query submissions into one\n"
        "                      shared uring ring ($ANN_IO_POOLED)\n"
        "  --duration-ms N     virtual run length (default 2000)\n"
        "  --trace FILE        dump the block trace as CSV\n"
        "  --learn-dump FILE   capture labeled per-hop records "
        "(DiskANN)\n"
        "                      over the query set into an "
        "annlearn-hops\n"
        "                      CSV for tools/anntrain\n"
        "  --learn-model FILE  activate a trained model "
        "(tools/anntrain\n"
        "                      output; default: $ANN_LEARN_MODEL)\n"
        "  --learned-entry     predict per-query entry points with "
        "the\n"
        "                      active model (default: "
        "$ANN_LEARNED_ENTRY)\n"
        "  --early-stop        confidence-gated beam termination\n"
        "                      (default: $ANN_EARLY_STOP)\n"
        "  --help              this message\n");
}

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

int
runBench(const ann::ArgParser &args)
{
    using namespace ann;
    const std::string setup = args.get("setup", "milvus-diskann");
    const std::string dataset_name = args.get("dataset", "cohere-1m");
    const auto threads =
        parseSizeList("threads", args.get("threads", "1,16,256"));

    // Pick the real-I/O backend before any index is built or loaded
    // (flags override $ANN_IO_BACKEND / $ANN_IO_QUEUE_DEPTH).
    {
        storage::IoOptions io = storage::IoOptions::fromEnv();
        if (args.has("io-backend")) {
            const std::string name = args.get("io-backend", "memory");
            ANN_CHECK(storage::ioBackendKindFromName(name, &io.kind),
                      "unknown --io-backend (memory|file|uring)");
        }
        if (args.has("io-queue-depth"))
            io.queue_depth = static_cast<unsigned>(
                std::max<std::int64_t>(1,
                                       args.getInt("io-queue-depth",
                                                   32)));
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
        if (io.kind != storage::IoBackendKind::Memory)
            std::printf("io backend: %s (queue depth %u, node cache "
                        "%zu MiB + %zu warm nodes)\n",
                        storage::ioBackendKindName(io.kind),
                        io.queue_depth,
                        io.node_cache.capacity_bytes >> 20,
                        io.node_cache.warm_nodes);
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

    // Learned-policy setup before any query runs: activate a trained
    // model and/or flip the toggles (flags OR into the env defaults).
    if (args.has("learn-model"))
        learn::setActiveModel(std::make_shared<const learn::Model>(
            learn::Model::loadFile(args.get("learn-model", ""))));
    if (args.flag("learned-entry"))
        learn::setLearnedEntryEnabled(true);
    if (args.flag("early-stop"))
        learn::setEarlyStopEnabled(true);

    std::printf("loading %s and preparing %s...\n",
                dataset_name.c_str(), setup.c_str());
    const auto build_start = std::chrono::steady_clock::now();
    const auto dataset = workload::loadOrGenerate(dataset_name);
    auto engine = core::prepareEngine(setup, dataset);
    const double build_s = secondsSince(build_start);

    // Tuned defaults, overridden by explicit options.
    const auto warm_start = std::chrono::steady_clock::now();
    engine::SearchSettings settings =
        core::tunedSettings(*engine, dataset, 0.9).settings;
    const double warm_s = secondsSince(warm_start);
    settings.k = static_cast<std::size_t>(
        args.getInt("k", static_cast<std::int64_t>(settings.k)));
    if (args.has("nprobe"))
        settings.nprobe =
            static_cast<std::size_t>(args.getInt("nprobe", 8));
    if (args.has("ef-search"))
        settings.ef_search =
            static_cast<std::size_t>(args.getInt("ef-search", 50));
    if (args.has("search-list"))
        settings.search_list =
            static_cast<std::size_t>(args.getInt("search-list", 10));
    settings.beam_width = static_cast<std::size_t>(
        args.getInt("beam-width",
                    static_cast<std::int64_t>(settings.beam_width)));

    core::ReplayConfig config = core::paperTestbed();
    config.duration_ns =
        static_cast<SimTime>(args.getInt("duration-ms", 2000)) *
        1'000'000ULL;
    core::BenchRunner runner(config);
    if (args.has("exec-threads"))
        runner.execOptions().threads =
            static_cast<std::size_t>(args.getInt("exec-threads", 0));
    if (args.flag("verify-exec"))
        runner.execOptions().verify = true;
    if (args.flag("pin-threads"))
        ThreadPool::setPinByDefault(true);

    TextTable table(setup + " on " + dataset_name);
    table.setHeader({"threads", "QPS", "mean (us)", "P99 (us)",
                     "P99.9 (us)", "recall@10", "CPU %", "read MiB/s",
                     "MiB/query", "eff QD", "hit %", "MiB saved",
                     "res MiB", "peak RSS MiB", "build (s)",
                     "warm (s)", "measure (s)"});
    const bool want_trace = args.has("trace");
    const bool drop_caches = args.flag("drop-caches");
    bool first_row = true;
    for (const std::size_t t : threads) {
        if (drop_caches) {
            // Cold point: empty the dynamic sector cache and force a
            // fresh real execution (memoized traces would otherwise
            // skip the I/O entirely).
            engine->dropNodeCache();
            runner.clearTraceCache();
        }
        const auto measure_start = std::chrono::steady_clock::now();
        // Bracket the measure phase with gauge snapshots: the column
        // reports the mean in-flight reads the workload actually kept
        // on the backend (effective QD), not the configured window.
        const storage::IoGaugeSnapshot gauge_before =
            storage::ioGaugeSnapshot();
        const auto m = runner.measure(*engine, dataset, settings, t,
                                      want_trace);
        const double eff_qd =
            storage::ioGaugeSnapshot().meanDepthSince(gauge_before);
        const double measure_s = secondsSince(measure_start);
        const double mib_per_query =
            m.replay.completed
                ? static_cast<double>(m.replay.read_bytes) /
                      (1024.0 * 1024.0) /
                      static_cast<double>(m.replay.completed)
                : 0.0;
        table.addRow({std::to_string(t), core::fmtQps(m.replay),
                      m.replay.oom
                          ? "OOM"
                          : formatDouble(m.replay.mean_latency_us, 0),
                      core::fmtP99(m.replay),
                      core::fmtP999(m.replay),
                      core::fmtRecall(m.recall),
                      core::fmtCpuPct(m.replay),
                      core::fmtMib(m.replay.read_bw_mib),
                      formatDouble(mib_per_query, 3),
                      eff_qd > 0.0 ? formatDouble(eff_qd, 2) : "-",
                      core::fmtHitRate(m.cache),
                      core::fmtMibSaved(m.cache),
                      formatDouble(
                          static_cast<double>(engine->memoryBytes()) /
                              (1024.0 * 1024.0),
                          1),
                      formatDouble(static_cast<double>(peakRssBytes()) /
                                       (1024.0 * 1024.0),
                                   1),
                      // Build/warm happen once; charge them to the
                      // first sweep point so row sums stay honest.
                      first_row ? formatDouble(build_s, 2) : "-",
                      first_row ? formatDouble(warm_s, 2) : "-",
                      formatDouble(measure_s, 2)});
        first_row = false;
        if (want_trace && t == threads.back() && !m.replay.oom) {
            storage::BlockTracer tracer;
            for (const auto &event : m.replay.trace)
                tracer.record(event);
            tracer.writeCsv(args.get("trace", "trace.csv"));
            const auto summary =
                storage::summarizeTrace(m.replay.trace);
            std::printf("trace: %llu reads (%.4f%% 4 KiB) -> %s\n",
                        static_cast<unsigned long long>(
                            summary.read_requests),
                        summary.fraction_4k_reads * 100.0,
                        args.get("trace", "trace.csv").c_str());
        }
    }
    table.print(std::cout);

    if (args.has("learn-dump")) {
        // Training-data export: re-run the query set with the
        // process-wide hop sink armed, then dump the labeled records.
        const std::string path = args.get("learn-dump", "hops.csv");
        learn::HopSink &sink = learn::HopSink::instance();
        sink.setEnabled(true);
        core::runAllQueries(*engine, dataset, settings,
                            dataset.num_queries);
        sink.setEnabled(false);
        const auto traces = sink.drain();
        std::size_t records = 0;
        for (const auto &t : traces)
            records += t.hops.size();
        learn::writeHopCsvFile(path, traces);
        if (records == 0)
            std::fprintf(stderr,
                         "annbench: --learn-dump captured no hop "
                         "records (does setup '%s' include a DiskANN "
                         "segment?)\n",
                         setup.c_str());
        else
            std::printf(
                "learn dump: %zu queries, %zu hop records -> %s\n",
                traces.size(), records, path.c_str());
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace ann;
    ArgParser args({"setup", "dataset", "threads", "exec-threads", "k",
                    "nprobe", "ef-search", "search-list", "beam-width",
                    "io-backend", "io-queue-depth", "node-cache-mb",
                    "mem-budget-mb", "warm-nodes", "layout",
                    "duration-ms", "trace",
                    "learn-dump", "learn-model"},
                   {"help", "verify-exec", "drop-caches",
                    "pin-threads", "learned-entry", "early-stop",
                    "io-pooled"});
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
        return runBench(args);
    } catch (const FatalError &e) {
        std::fprintf(stderr, "annbench: %s\n", e.what());
        return 1;
    }
}
