/**
 * @file
 * helm_perfbench: runs one workload for a fixed time and prints the
 * result as one JSON line (the last line of stdout).
 *
 *   helm_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                  [--out-dir DIR]
 *
 * Untraced (--trace 0), the workload body repeats until S seconds have
 * passed since the first repetition started, and the end-to-end metrics
 * are printed.  Host times are expressed at the reference speed (README,
 * "Host noise"): each timed segment is divided by the reference loop's
 * time around it.  run_s is 0.020 s times the median of the
 * repetitions' ratios; setup_s is 0.020 s times the one cold set-up's
 * ratio to the first reference loop.  Traced (--trace 1), repetitions
 * alternate between untraced and traced; the per-layer metrics come
 * from the traced ones, and bench.trace_overhead is the ratio of the
 * two kinds' median ratios, less one.  Every repetition must reproduce
 * the first one's simulated outputs, DES events and heap allocations.
 */
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "probe.h"
#include "workloads.h"

namespace {

using namespace perfbench;

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string out_dir = ".bench_out";
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "helm_perfbench: " << why
              << "\nusage: helm_perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--out-dir DIR]\n";
    std::exit(2);
}

Args
parse(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string value = argv[++i];
        try {
            if (flag == "--workload")
                args.workload = value;
            else if (flag == "--seed")
                args.seed = std::stoull(value);
            else if (flag == "--seconds")
                args.seconds = std::stod(value);
            else if (flag == "--trace")
                args.trace = value == "1";
            else if (flag == "--out-dir")
                args.out_dir = value;
            else
                usage("unknown flag " + flag);
        } catch (const std::exception &) {
            usage("bad value for " + flag + ": " + value);
        }
    }
    if (args.workload.empty())
        usage("--workload is required");
    if (!(args.seconds > 0.0))
        usage("--seconds must be positive");
    return args;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
peak_rss_mib()
{
    struct rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return double(usage.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

void
print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
             const std::vector<Metric> &metrics)
{
    std::string line = "{\"correct\": ";
    line += correct ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(attempted) +
            ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    char buf[64];
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::snprintf(buf, sizeof buf, "%.17g", metrics[i].value);
        line += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
                buf + ", \"unit\": \"" + metrics[i].unit + "\"}";
    }
    line += "}}";
    std::cout << line << std::endl;
}

/** One repetition's measurements. */
struct Rep
{
    bool traced = false;
    double run_s = 0.0;
    /** Sum over the body's segments of segment time over the
     *  reference loop's time around it. */
    double speed_ratio = 0.0;
    std::uint64_t allocs = 0;
    std::uint64_t events = 0;
    RepOutput out;
    std::map<std::string, LayerTally> tallies;
};

/** Per-layer metrics of the traced run: medians over traced reps. */
std::vector<Metric>
layer_metrics(const std::vector<Rep> &reps, double generate_s,
              double trace_overhead,
              const std::map<std::string, double> &extras)
{
    std::vector<const Rep *> traced;
    for (const Rep &r : reps) {
        if (r.traced)
            traced.push_back(&r);
    }
    const auto med = [&](auto fn) {
        std::vector<double> v;
        for (const Rep *r : traced)
            v.push_back(fn(*r));
        return median(v);
    };
    const auto tally = [](const Rep &r, const char *layer) {
        const auto it = r.tallies.find(layer);
        return it == r.tallies.end() ? LayerTally{} : it->second;
    };
    const auto out = [&](const char *key) {
        return med([&](const Rep &r) {
            const auto it = r.out.layer.find(key);
            return it == r.out.layer.end() ? 0.0 : it->second;
        });
    };

    std::vector<Metric> m;
    m.push_back({"workload.generate_s", generate_s, "s"});
    m.push_back({"workload.requests", out("workload.requests"), "count"});
    for (const char *layer : {"placement", "planner", "schedule", "engine",
                              "scheduler"}) {
        const std::string l = layer;
        m.push_back({l + ".calls",
                     med([&](const Rep &r) {
                         return double(tally(r, layer).calls);
                     }),
                     "count"});
        m.push_back({l + ".self_s",
                     med([&](const Rep &r) { return tally(r, layer).self_s; }),
                     "s"});
        if (l == "placement" || l == "schedule" || l == "engine") {
            m.push_back({l + ".allocs",
                         med([&](const Rep &r) {
                             return double(tally(r, layer).self_allocs);
                         }),
                         "count"});
        }
        if (l == "engine") {
            m.push_back({"engine.des_events",
                         med([&](const Rep &r) {
                             return double(tally(r, layer).self_events);
                         }),
                         "count"});
            m.push_back({"engine.host_ns_per_event",
                         med([&](const Rep &r) {
                             const LayerTally t = tally(r, layer);
                             return t.self_events
                                        ? t.self_s * 1e9 / double(t.self_events)
                                        : 0.0;
                         }),
                         "ns"});
        }
    }
    for (const char *key :
         {"stepcache.hits", "stepcache.misses", "stepcache.stream_hits",
          "stepcache.entries", "simcache.hits", "simcache.misses"})
        m.push_back({key, out(key), "count"});
    m.push_back({"stepcache.hit_ratio", out("stepcache.hit_ratio"), "ratio"});
    m.push_back({"des.events",
                 med([](const Rep &r) { return double(r.events); }), "count"});
    m.push_back({"des.events_per_host_s",
                 med([](const Rep &r) { return double(r.events) / r.run_s; }),
                 "1/s"});
    m.push_back({"ports.read_bytes", out("ports.read_bytes"), "B"});
    m.push_back({"ports.write_bytes", out("ports.write_bytes"), "B"});
    m.push_back({"ports.read_util", out("ports.read_util"), "ratio"});
    m.push_back({"ports.throttled", out("ports.throttled"), "count"});
    m.push_back({"kv.preemptions", out("kv.preemptions"), "count"});
    m.push_back({"kv.resumes", out("kv.resumes"), "count"});
    m.push_back({"kv.demoted_bytes", out("kv.demoted_bytes"), "B"});
    m.push_back({"kv.promoted_bytes", out("kv.promoted_bytes"), "B"});
    m.push_back({"kv.swap_exposed_s", out("kv.swap_exposed_s"), "s"});
    m.push_back({"scheduler.iterations", out("scheduler.iterations"),
                 "count"});
    m.push_back({"scheduler.batches", out("scheduler.batches"), "count"});
    m.push_back({"scheduler.mean_batch", out("scheduler.mean_batch"),
                 "count"});
    m.push_back({"scheduler.queue_wait_p50_s",
                 out("scheduler.queue_wait_p50_s"), "s"});
    m.push_back({"scheduler.deadline_misses", out("scheduler.deadline_misses"),
                 "count"});
    m.push_back({"cluster.self_s",
                 med([&](const Rep &r) { return tally(r, "cluster").self_s; }),
                 "s"});
    m.push_back({"cluster.gpu_busy_s", out("cluster.gpu_busy_s"), "s"});
    m.push_back({"cluster.gpu_util_mean", out("cluster.gpu_util_mean"),
                 "ratio"});
    const double turns = out("gateway.turns");
    m.push_back({"gateway.self_s",
                 med([&](const Rep &r) { return tally(r, "gateway").self_s; }),
                 "s"});
    m.push_back({"gateway.turns", turns, "count"});
    m.push_back({"gateway.dispatch_windows", out("gateway.dispatch_windows"),
                 "count"});
    m.push_back({"gateway.events_per_turn",
                 turns > 0 ? med([](const Rep &r) { return double(r.events); }) /
                                 turns
                           : 0.0,
                 "count/turn"});
    m.push_back({"gateway.allocs_per_turn",
                 turns > 0 ? med([](const Rep &r) { return double(r.allocs); }) /
                                 turns
                           : 0.0,
                 "count/turn"});
    m.push_back({"sweep.points", out("sweep.points"), "count"});
    m.push_back({"sweep.self_s",
                 med([&](const Rep &r) { return tally(r, "sweep").self_s; }),
                 "s"});
    m.push_back({"tuner.candidates", out("tuner.candidates"), "count"});
    m.push_back({"tuner.self_s",
                 med([&](const Rep &r) { return tally(r, "tuner").self_s; }),
                 "s"});
    const auto extra = extras.find("exec.speedup_jobs2");
    m.push_back({"exec.speedup_jobs2",
                 extra == extras.end() ? 0.0 : extra->second, "x"});
    m.push_back({"telemetry.export_s",
                 med([&](const Rep &r) {
                     return tally(r, "telemetry").total_s;
                 }),
                 "s"});
    m.push_back({"telemetry.export_bytes", out("telemetry.export_bytes"),
                 "B"});
    m.push_back({"tracing.spans", out("tracing.spans"), "count"});
    m.push_back({"tracing.retained", out("tracing.retained"), "count"});
    m.push_back({"tracing.export_s",
                 med([&](const Rep &r) { return tally(r, "tracing").total_s; }),
                 "s"});
    m.push_back({"bench.trace_overhead", trace_overhead, "ratio"});
    return m;
}

int
run(const Args &args)
{
    std::unique_ptr<Workload> workload = make_workload(args.workload);
    if (!workload)
        usage("unknown workload " + args.workload);

    SpanRecorder &recorder = SpanRecorder::get();
    if (args.trace)
        recorder.enable(200000);
    workload->setup(args.seed);
    double generate_s = 0.0;
    if (args.trace) {
        const auto it = recorder.tallies().find("workload");
        if (it != recorder.tallies().end())
            generate_s = it->second.total_s;
    }

    Failures failures;
    std::vector<Rep> reps;
    double setup_raw = 0.0, setup_s = 0.0, first_start = 0.0;
    const std::size_t min_reps = args.trace ? 4 : 3;
    for (std::uint32_t i = 0;; ++i) {
        Rep rep;
        rep.traced = args.trace && i % 2 == 1;
        workload->prepare(rep.traced);
        if (i == 0)
            setup_raw = now_seconds() - program_start_seconds();
        // The reference loop runs before the body, at each checkpoint
        // the body offers, and after it.  Each segment between two loop
        // runs is divided by their mean time; the loop's own time is
        // not part of the repetition.
        double ref_prev = reference_loop_seconds();
        if (i == 0)
            setup_s = kReferenceSeconds * setup_raw / ref_prev;
        double wall = 0.0, ratio = 0.0;
        double segment_start = 0.0;
        const auto close_segment = [&] {
            const double segment = now_seconds() - segment_start;
            const double ref = reference_loop_seconds();
            wall += segment;
            ratio += segment / (0.5 * (ref_prev + ref));
            ref_prev = ref;
        };
        if (args.trace)
            recorder.set_active(rep.traced);
        if (rep.traced)
            recorder.begin_rep(i);
        const std::uint64_t a0 = heap_allocs();
        const std::uint64_t e0 = des_events();
        segment_start = now_seconds();
        if (i == 0)
            first_start = segment_start;
        workload->body([&] {
            close_segment();
            segment_start = now_seconds();
        });
        close_segment();
        const double t1 = now_seconds();
        rep.run_s = wall;
        rep.speed_ratio = ratio;
        rep.allocs = heap_allocs() - a0;
        rep.events = des_events() - e0;
        rep.out = workload->collect(i == 0, failures);
        if (rep.traced)
            rep.tallies = recorder.tallies();
        if (i > 0) {
            const Rep &first = reps.front();
            const std::string tag = "repetition " + std::to_string(i) + ": ";
            if (rep.out.digest != first.out.digest)
                failures.push_back(tag + "simulated outputs differ from "
                                         "the first repetition");
            if (rep.events != first.events)
                failures.push_back(tag + "DES events differ from the first "
                                         "repetition");
            // The first repetition of each kind (untraced, traced) runs
            // cold (README, "Cache state"), so allocations are compared
            // from the second one of each kind on.
            const Rep *reference = nullptr;
            bool seen_first = false;
            for (const Rep &r : reps) {
                if (r.traced != rep.traced)
                    continue;
                if (seen_first) {
                    reference = &r;
                    break;
                }
                seen_first = true;
            }
            if (reference && reference->allocs != rep.allocs)
                failures.push_back(tag + "heap allocations " +
                                   std::to_string(rep.allocs) + " != " +
                                   std::to_string(reference->allocs));
        }
        reps.push_back(std::move(rep));
        if (reps.size() >= min_reps && t1 - first_start >= args.seconds)
            break;
    }

    std::map<std::string, double> extras;
    if (args.trace)
        workload->traced_extras(extras);

    std::uint64_t attempted = 0, failed = 0;
    std::vector<double> untraced_ratio, traced_ratio, untraced_raw;
    for (const Rep &r : reps) {
        attempted += r.out.operations;
        failed += r.out.failed;
        (r.traced ? traced_ratio : untraced_ratio).push_back(r.speed_ratio);
        if (!r.traced)
            untraced_raw.push_back(r.run_s);
    }
    // run_s: the median repetition, in seconds at the reference speed.
    const double run_s = kReferenceSeconds * median(untraced_ratio);
    const Rep &first = reps.front();
    std::cerr << "perfbench " << args.workload << " seed " << args.seed
              << ": " << reps.size() << " repetitions, run_s " << run_s
              << " (raw min " << *std::min_element(untraced_raw.begin(),
                                                   untraced_raw.end())
              << ", median " << median(untraced_raw) << "), setup_s "
              << setup_s << " (raw " << setup_raw << "), des_events "
              << first.events << ", heap_allocs " << reps[1].allocs << "\n";
    for (const std::string &f : failures)
        std::cerr << "CHECK FAILED: " << f << "\n";

    std::vector<Metric> metrics;
    if (!args.trace) {
        metrics = {
            {"setup_s", setup_s, "s"},
            {"run_s", run_s, "s"},
            {"peak_rss_mib", peak_rss_mib(), "MiB"},
            {"des_events", double(first.events), "count"},
            {"heap_allocs", double(reps[1].allocs), "count"},
            {"sim_ttft_p50_s", first.out.ttft_p50_s, "s"},
            {"sim_ttft_p99_s", first.out.ttft_p99_s, "s"},
            {"sim_tbt_p50_s", first.out.tbt_p50_s, "s"},
            {"sim_throughput_tok_s", first.out.throughput_tok_s, "tok/s"},
            {"sim_goodput_tok_s", first.out.goodput_tok_s, "tok/s"},
        };
    } else {
        metrics = layer_metrics(
            reps, generate_s,
            median(traced_ratio) / median(untraced_ratio) - 1.0, extras);
        std::filesystem::create_directories(args.out_dir);
        const std::string path = args.out_dir + "/spans-" + args.workload +
                                 "-seed" + std::to_string(args.seed) + ".json";
        std::ofstream out(path);
        recorder.write_json(out, args.workload, args.seed);
        if (!out) {
            std::cerr << "helm_perfbench: cannot write " << path << "\n";
            return 1;
        }
    }
    print_result(failures.empty(), attempted, failed, metrics);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    // Pin glibc's mmap threshold: left dynamic, it rises after the first
    // large free, and peak RSS then depends on the order in which earlier
    // repetitions freed their large blocks.
    mallopt(M_MMAP_THRESHOLD, 256 * 1024);
    const Args args = parse(argc, argv);
    try {
        return run(args);
    } catch (const std::exception &e) {
        std::cerr << "helm_perfbench: " << e.what() << "\n";
        return 1;
    }
}
