/**
 * @file
 * perfbench_driver: one repetition of one benchmark workload, driven
 * through libcrisp's public API only.
 *
 * run.py owns the workload definitions (sizes, the seed-permuted
 * workload and variant order) and the statistics; this program
 * executes one repetition and prints one JSON record on stdout:
 * host times, per-job latencies, simulated outputs for the output
 * check, and the layer counters the library exposes. With
 * --trace-out it also activates a RuntimeTracer, wraps each call it
 * makes into a layer in a "bench" span, and writes the Chrome
 * trace-event JSON there for run.py's self-time split.
 *
 * Modes:
 *   evaluate-all  fill a fresh ArtifactCache through its getters on
 *                 --jobs workers (setup), then one evaluateAll call
 *   run-core      fill the cache serially, then one runCore call per
 *                 variant, in --variants order, on the caller thread
 *   serve         two waves over one result/artifact directory: start
 *                 a SweepServer behind a ServeListener, submit the
 *                 whole grid from one ServeClient, poll status until
 *                 every job is terminal, shut down; the second wave
 *                 restarts on the warm store the first one wrote
 *
 * Usage:
 *   perfbench_driver --mode MODE --workloads a,b --variants v,w
 *       --train N --ref N --jobs N --tmp DIR [--sample N:W]
 *       [--trace-out FILE]
 */

#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "serve/server.h"
#include "serve/transport.h"
#include "sim/artifact_cache.h"
#include "sim/driver.h"
#include "sim/thread_pool.h"
#include "telemetry/json.h"
#include "telemetry/runtime_trace.h"
#include "telemetry/stat_registry.h"
#include "workloads/workload.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace crisp;
namespace fs = std::filesystem;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Args
{
    std::string mode;
    std::vector<std::string> workloads;
    std::vector<std::string> variants;
    uint64_t trainOps = 0;
    uint64_t refOps = 0;
    unsigned jobs = 1;
    std::string sample;
    std::string tmp;
    std::string traceOut;
};

std::vector<std::string>
splitList(const std::string &s)
{
    std::vector<std::string> out;
    std::stringstream ss(s);
    std::string item;
    while (std::getline(ss, item, ','))
        if (!item.empty())
            out.push_back(item);
    return out;
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string k = argv[i];
        if (i + 1 >= argc)
            throw std::invalid_argument("missing value for " + k);
        std::string v = argv[++i];
        if (k == "--mode")
            a.mode = v;
        else if (k == "--workloads")
            a.workloads = splitList(v);
        else if (k == "--variants")
            a.variants = splitList(v);
        else if (k == "--train")
            a.trainOps = std::stoull(v);
        else if (k == "--ref")
            a.refOps = std::stoull(v);
        else if (k == "--jobs")
            a.jobs = unsigned(std::stoul(v));
        else if (k == "--sample")
            a.sample = v;
        else if (k == "--tmp")
            a.tmp = v;
        else if (k == "--trace-out")
            a.traceOut = v;
        else
            throw std::invalid_argument("unknown argument " + k);
    }
    if (a.workloads.empty() || a.variants.empty() || !a.trainOps ||
        !a.refOps || !a.jobs || a.tmp.empty())
        throw std::invalid_argument(
            "need --workloads, --variants, --train, --ref, --jobs "
            "and --tmp");
    return a;
}

const WorkloadInfo &
workloadNamed(const std::string &name)
{
    const WorkloadInfo *wl = findWorkload(name);
    if (!wl)
        throw std::invalid_argument("unknown workload " + name);
    return *wl;
}

/** Simulated outputs and layer counters of one repetition. */
struct Record
{
    double setupS = 0;
    double simS = 0; ///< submit-to-last-result, summed over waves
    std::vector<double> jobLatencyMs;
    uint64_t retired = 0;
    uint64_t cycles = 0;
    uint64_t coreRuns = 0;
    uint64_t jobsAttempted = 0;
    uint64_t jobsFailed = 0;
    /** "workload/variant" -> rendered JSON object of its outputs. */
    std::map<std::string, std::string> outputs;
    /** Layer counters, rendered JSON numbers. */
    std::map<std::string, std::string> counters;
    std::vector<std::pair<std::string, double>> waves;

    void count(const std::string &key, double v)
    {
        counters[key] = jsonNumber(v);
    }
};

std::string
countersJson(const CoreStats &s)
{
    return "{\"cycles\":" + std::to_string(s.cycles) +
           ",\"retired\":" + std::to_string(s.retired) +
           ",\"issued\":" + std::to_string(s.issued) + "}";
}

/** Exact IPC rendering: the only output evaluateAll keeps for IBDA
 *  variants, compared digit for digit. */
std::string
ipcJson(double ipc)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", ipc);
    return std::string("{\"ipc\":\"") + buf + "\"}";
}

/**
 * Builds every artifact one workload's runs consume, each getter in
 * its own layer span: both traces (vm), the analysis (core) and the
 * tagged reference trace (core tagging).
 * @return the number of tagged static instructions.
 */
size_t
fillArtifacts(ArtifactCache &cache, const WorkloadInfo &wl,
              const SimConfig &cfg, const CrispOptions &opts,
              const EvalSizes &sizes)
{
    {
        TraceSpan span("bench", "vm.trace");
        cache.trace(wl, InputSet::Train, sizes.trainOps);
    }
    {
        TraceSpan span("bench", "vm.trace");
        cache.trace(wl, InputSet::Ref, sizes.refOps);
    }
    std::shared_ptr<const CrispAnalysis> analysis;
    {
        TraceSpan span("bench", "core.analyze");
        analysis = cache.analysis(wl, opts, cfg, sizes.trainOps);
    }
    {
        TraceSpan span("bench", "core.tag");
        cache.taggedRefTrace(wl, opts, cfg, sizes.trainOps,
                             sizes.refOps);
    }
    return analysis->taggedStatics.size();
}

/** Renders @p stats the way crisp_sim's --stats-json does, in a
 *  telemetry span. @return the rendered byte count. */
size_t
exportStats(const std::string &workload, const std::string &label,
            const CoreStats &stats)
{
    TraceSpan span("bench", "telemetry.export");
    StatRegistry reg;
    reg.addInfo("sim.workload", workload);
    stats.registerInto(reg, label);
    return reg.toJson().size();
}

void
recordCacheCounters(Record &rec, const ArtifactCache &cache)
{
    ArtifactCache::Counters c = cache.counters();
    rec.count("cache.hits", double(c.hits));
    rec.count("cache.misses", double(c.misses));
}

void
runEvaluateAll(const Args &a, Record &rec)
{
    const SimConfig cfg = SimConfig::skylake();
    const CrispOptions opts;
    const EvalSizes sizes{a.trainOps, a.refOps};
    std::vector<WorkloadInfo> wls;
    for (const std::string &name : a.workloads)
        wls.push_back(workloadNamed(name));
    // evaluateAll always runs ooo and crisp; the rest are IBDA ISTs.
    std::vector<std::string> ists;
    for (const std::string &v : a.variants)
        if (v.rfind("ibda-", 0) == 0)
            ists.push_back(v.substr(5));

    ArtifactCache cache;
    auto t0 = Clock::now();
    std::vector<size_t> tagged(wls.size());
    {
        TraceSpan span("bench", "bench.setup");
        ThreadPool pool(a.jobs);
        pool.parallelFor(wls.size(), [&](size_t i) {
            tagged[i] = fillArtifacts(cache, wls[i], cfg, opts, sizes);
        });
    }
    rec.setupS = secondsSince(t0);

    t0 = Clock::now();
    std::vector<WorkloadEval> evals;
    {
        TraceSpan span("bench", "bench.simulate");
        evals = evaluateAll(wls, cfg, opts, sizes, a.jobs, ists,
                            &cache);
    }
    rec.simS = secondsSince(t0);
    // Every result reaches the caller when evaluateAll returns.
    const size_t variants = 2 + ists.size();
    rec.jobLatencyMs.assign(wls.size() * variants, rec.simS * 1e3);
    rec.jobsAttempted = wls.size() * variants;
    rec.coreRuns = rec.jobsAttempted;

    size_t exportBytes = 0, taggedStatics = 0;
    for (size_t w = 0; w < evals.size(); ++w) {
        const WorkloadEval &ev = evals[w];
        taggedStatics += tagged[w];
        exportBytes += exportStats(ev.name, "ooo", ev.baseStats);
        exportBytes += exportStats(ev.name, "crisp", ev.crispStats);
        rec.outputs[ev.name + "/ooo"] = countersJson(ev.baseStats);
        rec.outputs[ev.name + "/crisp"] = countersJson(ev.crispStats);
        rec.retired += ev.baseStats.retired + ev.crispStats.retired;
        rec.cycles += ev.baseStats.cycles + ev.crispStats.cycles;
        for (const std::string &ist : ists) {
            // IBDA runs the untagged trace to completion, so it
            // retires what the baseline retires.
            double ipc = ev.ipcIbda.at(ist);
            rec.outputs[ev.name + "/ibda-" + ist] = ipcJson(ipc);
            rec.retired += ev.baseStats.retired;
            if (ipc > 0)
                rec.cycles +=
                    uint64_t(std::llround(ev.baseStats.retired / ipc));
        }
    }
    recordCacheCounters(rec, cache);
    rec.count("core.tagged_statics", double(taggedStatics));
    rec.count("telemetry.export_bytes", double(exportBytes));
}

void
runSerialCores(const Args &a, Record &rec)
{
    const SimConfig cfg = SimConfig::skylake();
    const CrispOptions opts;
    const EvalSizes sizes{a.trainOps, a.refOps};

    ArtifactCache cache;
    std::vector<const WorkloadInfo *> wls;
    for (const std::string &name : a.workloads)
        wls.push_back(&workloadNamed(name));

    auto t0 = Clock::now();
    size_t taggedStatics = 0;
    {
        TraceSpan span("bench", "bench.setup");
        for (const WorkloadInfo *wl : wls)
            taggedStatics += fillArtifacts(cache, *wl, cfg, opts, sizes);
    }
    rec.setupS = secondsSince(t0);

    struct Run
    {
        const WorkloadInfo *wl;
        std::string variant;
        CoreStats stats;
    };
    std::vector<Run> runs;
    t0 = Clock::now();
    {
        TraceSpan span("bench", "bench.simulate");
        for (const WorkloadInfo *wl : wls) {
            for (const std::string &v : a.variants) {
                std::shared_ptr<const Trace> trace;
                SimConfig vcfg;
                if (v == "ooo") {
                    trace = cache.trace(*wl, InputSet::Ref, sizes.refOps);
                    vcfg = baselineConfig(cfg);
                } else if (v == "crisp") {
                    trace = cache.taggedRefTrace(*wl, opts, cfg,
                                                 sizes.trainOps,
                                                 sizes.refOps);
                    vcfg = crispConfig(cfg);
                } else {
                    throw std::invalid_argument(
                        "run-core takes ooo and crisp, not " + v);
                }
                // One caller running jobs back to back is a closed
                // loop: each job is submitted as the previous one
                // returns, so its latency is its own run.
                TraceSpan run("bench", "cpu.run");
                auto submitted = Clock::now();
                runs.push_back({wl, v, runCore(*trace, vcfg)});
                rec.jobLatencyMs.push_back(secondsSince(submitted) * 1e3);
            }
        }
    }
    rec.simS = secondsSince(t0);

    size_t exportBytes = 0;
    for (const Run &r : runs) {
        exportBytes += exportStats(r.wl->name, r.variant, r.stats);
        rec.outputs[r.wl->name + "/" + r.variant] = countersJson(r.stats);
        rec.retired += r.stats.retired;
        rec.cycles += r.stats.cycles;
    }
    rec.jobsAttempted = rec.coreRuns = runs.size();
    recordCacheCounters(rec, cache);
    rec.count("core.tagged_statics", double(taggedStatics));
    rec.count("telemetry.export_bytes", double(exportBytes));
}

/** One parsed line from the serve socket; throws on a refused op. */
JsonValue
request(ServeClient &client, const std::string &line)
{
    std::string reply, err;
    if (!client.sendLine(line) || !client.recvLine(reply))
        throw std::runtime_error("serve connection lost");
    JsonValue v;
    if (!parseJson(reply, v, &err))
        throw std::runtime_error("bad serve reply: " + err);
    if (!v.has("ok") || !v.at("ok").boolean)
        throw std::runtime_error("serve refused: " + reply);
    return v;
}

double
numberAt(const JsonValue &v, const std::string &path)
{
    const JsonValue *p = v.find(path);
    return p && p->isNumber() ? p->number : 0.0;
}

std::string
jsonList(const std::vector<std::string> &items)
{
    std::string out = "[";
    for (size_t i = 0; i < items.size(); ++i)
        out += (i ? "," : "") + jsonQuote(items[i]);
    return out + "]";
}

/** What one serve wave produced. */
struct Wave
{
    double setupS = 0;
    double sweepS = 0;
    std::map<std::string, std::string> resultFiles; ///< id -> bytes
    std::map<std::string, std::string> jobNames;    ///< id -> wl/variant
    JsonValue metrics;
};

/**
 * Starts a server on @p dir, submits the grid from one client, polls
 * until every job is terminal, shuts the server down and reads the
 * result files back.
 */
Wave
serveWave(const Args &a, const std::string &dir, Record &rec)
{
    TraceSpan waveSpan("bench", "bench.wave");
    Wave wave;
    auto t0 = Clock::now();
    ServeConfig sc;
    sc.jobs = a.jobs;
    sc.resultDir = dir + "/results";
    sc.artifactDir = dir + "/artifacts";
    std::unique_ptr<SweepServer> server;
    std::unique_ptr<ServeListener> listener;
    std::string err;
    {
        TraceSpan span("bench", "serve.start");
        server = std::make_unique<SweepServer>(sc);
        listener =
            std::make_unique<ServeListener>(*server, dir + "/serve.sock");
        if (!listener->open(&err))
            throw std::runtime_error("listen: " + err);
        server->start();
    }
    std::thread accept([&] { listener->run(); });
    try {
        ServeClient client;
        if (!client.connect(listener->path(), &err))
            throw std::runtime_error("connect: " + err);
        wave.setupS = secondsSince(t0);

        std::string submit =
            "{\"op\":\"submit\",\"proto\":" +
            std::to_string(kServeProtoVersion) +
            ",\"workloads\":" + jsonList(a.workloads) +
            ",\"variants\":" + jsonList(a.variants) +
            ",\"configs\":[[\"--sample\"," + jsonQuote(a.sample) +
            "]],\"train_ops\":" + std::to_string(a.trainOps) +
            ",\"ref_ops\":" + std::to_string(a.refOps) + "}";
        auto submitted = Clock::now();
        std::set<std::string> pending;
        {
            TraceSpan span("bench", "serve.submit");
            JsonValue reply = request(client, submit);
            for (const JsonValue &j : reply.at("jobs").elements) {
                pending.insert(j.at("id").text);
                wave.jobNames[j.at("id").text] =
                    j.at("workload").text + "/" + j.at("variant").text;
            }
        }
        rec.jobsAttempted += pending.size();
        {
            TraceSpan span("bench", "serve.wait");
            while (!pending.empty()) {
                std::vector<std::string> ids(pending.begin(),
                                             pending.end());
                JsonValue st = request(
                    client, "{\"op\":\"status\",\"jobs\":" +
                                jsonList(ids) + "}");
                const double nowMs = secondsSince(submitted) * 1e3;
                for (const JsonValue &j : st.at("jobs").elements) {
                    const std::string &state = j.at("state").text;
                    if (state == "queued" || state == "running")
                        continue;
                    rec.jobLatencyMs.push_back(nowMs);
                    // A retry is a failure too: the simulator is
                    // deterministic, so it replays the same outcome.
                    if (state != "done" || j.at("attempts").number > 1)
                        ++rec.jobsFailed;
                    pending.erase(j.at("id").text);
                    wave.sweepS = nowMs / 1e3;
                }
                if (!pending.empty())
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(2));
            }
        }
        JsonValue m = request(client, "{\"op\":\"metrics\"}");
        parseJson(m.at("stats_json").text, wave.metrics, &err);
        {
            TraceSpan span("bench", "serve.shutdown");
            request(client, "{\"op\":\"shutdown\",\"drain\":true}");
            accept.join();
        }
    } catch (...) {
        listener->stop();
        if (accept.joinable())
            accept.join();
        throw;
    }
    listener.reset();
    server.reset();

    TraceSpan span("bench", "serve.collect");
    for (const auto &[id, name] : wave.jobNames) {
        std::ifstream in(fs::path(sc.resultDir) / (id + ".json"),
                         std::ios::binary);
        std::stringstream ss;
        ss << in.rdbuf();
        wave.resultFiles[id] = ss.str();
    }
    return wave;
}

void
runServe(const Args &a, Record &rec)
{
    if (a.sample.empty())
        throw std::invalid_argument("serve needs --sample");
    fs::remove_all(a.tmp);
    fs::create_directories(a.tmp);

    Wave cold = serveWave(a, a.tmp, rec);
    uint64_t warmBytes = 0;
    for (const auto &e : fs::recursive_directory_iterator(
             fs::path(a.tmp) / "artifacts"))
        if (e.is_regular_file())
            warmBytes += e.file_size();
    Wave restart = serveWave(a, a.tmp, rec);
    fs::remove_all(a.tmp);

    rec.setupS = cold.setupS + restart.setupS;
    rec.simS = cold.sweepS + restart.sweepS;
    rec.waves = {{"cold", cold.sweepS}, {"restart", restart.sweepS}};

    uint64_t mismatches = 0, resultBytes = 0;
    std::string err;
    for (const Wave *w : {&cold, &restart}) {
        for (const auto &[id, bytes] : w->resultFiles) {
            resultBytes += bytes.size();
            const std::string &name = w->jobNames.at(id);
            const std::string variant = name.substr(name.find('/') + 1);
            const std::string label =
                variant.rfind("ibda-", 0) == 0 ? "ibda" : variant;
            JsonValue stats;
            if (!parseJson(bytes, stats, &err))
                throw std::runtime_error("result " + id + ": " + err);
            CoreStats s;
            s.cycles = uint64_t(numberAt(stats, label + ".core.cycles"));
            s.retired =
                uint64_t(numberAt(stats, label + ".core.retired"));
            s.issued = uint64_t(numberAt(stats, label + ".core.issued"));
            rec.retired += s.retired;
            rec.cycles += s.cycles;
            ++rec.coreRuns;
            if (w == &cold)
                rec.outputs[name] = countersJson(s);
            else if (cold.resultFiles.at(id) != bytes)
                ++mismatches;
        }
    }
    rec.count("serve.restart_mismatches", double(mismatches));
    rec.count("serve.result_bytes", double(resultBytes));
    rec.count("telemetry.export_bytes", double(resultBytes));
    rec.count("warmstore.bytes", double(warmBytes));

    double hits = 0, misses = 0, storeHits = 0, storeMisses = 0;
    double retries = 0, queueP50 = 0, runP50 = 0;
    for (const Wave *w : {&cold, &restart}) {
        hits += numberAt(w->metrics, "serve.cache.hits");
        misses += numberAt(w->metrics, "serve.cache.misses");
        storeHits += numberAt(w->metrics, "serve.cache.store_hits");
        storeMisses += numberAt(w->metrics, "serve.cache.store_misses");
        retries += numberAt(w->metrics, "serve.jobs.retries");
        queueP50 +=
            numberAt(w->metrics, "serve.latency.queue_wait_ms.p50") / 2;
        runP50 += numberAt(w->metrics, "serve.latency.job_wall_ms.p50") / 2;
    }
    rec.count("cache.hits", hits);
    rec.count("cache.misses", misses);
    rec.count("warmstore.hits", storeHits);
    rec.count("warmstore.misses", storeMisses);
    rec.count("serve.retries", retries);
    rec.count("serve.queue_wait_p50_ms", queueP50);
    rec.count("serve.job_run_p50_ms", runP50);
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           double(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

std::string
recordJson(const Record &rec, double wallS, double cpuS)
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    std::ostringstream os;
    os << "{\"setup_s\":" << jsonNumber(rec.setupS)
       << ",\"sim_s\":" << jsonNumber(rec.simS)
       << ",\"wall_s\":" << jsonNumber(wallS)
       << ",\"cpu_s\":" << jsonNumber(cpuS)
       << ",\"peak_rss_mb\":" << jsonNumber(double(ru.ru_maxrss) / 1024)
       << ",\"retired\":" << rec.retired << ",\"cycles\":" << rec.cycles
       << ",\"core_runs\":" << rec.coreRuns
       << ",\"jobs_attempted\":" << rec.jobsAttempted
       << ",\"jobs_failed\":" << rec.jobsFailed << ",\"waves\":{";
    for (size_t i = 0; i < rec.waves.size(); ++i)
        os << (i ? "," : "") << jsonQuote(rec.waves[i].first) << ":"
           << jsonNumber(rec.waves[i].second);
    os << "},\"job_latency_ms\":[";
    for (size_t i = 0; i < rec.jobLatencyMs.size(); ++i)
        os << (i ? "," : "") << jsonNumber(rec.jobLatencyMs[i]);
    os << "],\"outputs\":{";
    bool first = true;
    for (const auto &[k, v] : rec.outputs) {
        os << (first ? "" : ",") << jsonQuote(k) << ":" << v;
        first = false;
    }
    os << "},\"counters\":{";
    first = true;
    for (const auto &[k, v] : rec.counters) {
        os << (first ? "" : ",") << jsonQuote(k) << ":" << v;
        first = false;
    }
    os << "},\"compiler\":" << jsonQuote(std::string("GCC ") + __VERSION__)
       << ",\"build_type\":" << jsonQuote(PERFBENCH_BUILD_TYPE) << "}";
    return os.str();
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        const Args a = parseArgs(argc, argv);
        const auto t0 = Clock::now();
        const double cpu0 = cpuSeconds();
        // Declared before every span so it outlives them all.
        RuntimeTracer tracer;
        if (!a.traceOut.empty())
            tracer.activate();
        Record rec;
        {
            TraceSpan span("bench", "bench.rep");
            if (a.mode == "evaluate-all")
                runEvaluateAll(a, rec);
            else if (a.mode == "run-core")
                runSerialCores(a, rec);
            else if (a.mode == "serve")
                runServe(a, rec);
            else
                throw std::invalid_argument("unknown --mode " + a.mode);
        }
        const double wallS = secondsSince(t0);
        const double cpuS = cpuSeconds() - cpu0;
        if (!a.traceOut.empty()) {
            tracer.deactivate();
            std::string err;
            if (!tracer.writeJson(a.traceOut, &err))
                throw std::runtime_error("trace: " + err);
        }
        std::cout << recordJson(rec, wallS, cpuS) << "\n";
        return 0;
    } catch (const std::exception &e) {
        std::cerr << "perfbench_driver: " << e.what() << "\n";
        return 1;
    }
}
