/**
 * @file
 * Wall-clock harness for the parallel evaluation engine.
 *
 * Times a fixed sweep grid and a fixed tuner search at --jobs 1 versus
 * --jobs <hardware threads>, verifies the parallel outputs are
 * byte-identical to the sequential ones, and measures the SimCache hit
 * rate across repeated tuner searches that share one memo.  Emits a
 * `helm-bench-parallel-v1` JSON document (path = argv[1], default
 * BENCH_parallel.json) that tools/check_bench.py validates in CI.
 *
 * The speedup numbers depend on the runner's core count and are
 * recorded, not gated; the identity bits ARE gated (exit 1 here, and
 * check_bench.py fails on identical=false).
 */
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/helm.h"

using namespace helm;

namespace {

/** Fixed grid: small model so a point is milliseconds, 48 points so the
 *  pool has work to balance. */
sweep::ServingSweep
make_grid()
{
    runtime::ServingSpec base;
    base.model = model::opt_config(model::OptVariant::kOpt1_3B);
    base.repeats = 2;
    sweep::ServingSweep grid(base);
    (void)grid.add_dimension("memory", {"NVDRAM", "DRAM"});
    (void)grid.add_dimension("placement", {"Baseline", "HeLM", "All-CPU"});
    (void)grid.add_dimension("batch", {"1", "2", "4", "8"});
    (void)grid.add_dimension("prompt_tokens", {"128", "256"});
    return grid;
}

runtime::TuneRequest
make_tune_request()
{
    runtime::TuneRequest request;
    request.model = model::opt_config(model::OptVariant::kOpt1_3B);
    request.memory = mem::ConfigKind::kNvdram;
    request.shape.prompt_tokens = 128;
    request.shape.output_tokens = 21;
    request.batch_limit = 32;
    return request;
}

double
seconds_since(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
}

std::string
dataset_text(const sweep::Dataset &dataset)
{
    std::ostringstream out;
    dataset.write_csv(out);
    return out.str();
}

/** Full textual image of a TuneResult: any behavioral divergence
 *  (ordering, tie-breaks, metrics) shows up as a byte difference. */
std::string
tune_text(const runtime::TuneResult &result)
{
    std::ostringstream out;
    char buffer[128];
    const auto metric_line = [&](const runtime::TuneCandidate &c) {
        std::snprintf(buffer, sizeof buffer, " %.17g %.17g %.17g %d",
                      c.metrics.ttft, c.metrics.tbt, c.metrics.throughput,
                      c.meets_qos ? 1 : 0);
        out << c.describe() << buffer << "\n";
    };
    out << "best: ";
    metric_line(result.best);
    out << "infeasible: " << result.infeasible << "\n";
    for (const auto &candidate : result.explored)
        metric_line(candidate);
    return out.str();
}

void
json_number(std::ostream &out, const char *key, double value)
{
    char buffer[64];
    std::snprintf(buffer, sizeof buffer, "%.6g", value);
    out << "\"" << key << "\": " << buffer;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string out_path =
        argc > 1 ? argv[1] : "BENCH_parallel.json";
    const std::size_t jobs = exec::resolve_jobs(0);

    // --- Sweep: sequential vs parallel, fresh cache per timed run so
    // neither leg inherits the other's memo.
    const sweep::ServingSweep grid = make_grid();
    sweep::SweepOptions seq_options;
    seq_options.jobs = 1;
    sweep::SweepOptions par_options;
    par_options.jobs = jobs;

    runtime::SimCache sweep_seq_cache;
    auto start = std::chrono::steady_clock::now();
    const sweep::Dataset seq_dataset =
        grid.run(seq_options, &sweep_seq_cache);
    const double sweep_seq_s = seconds_since(start);

    runtime::SimCache sweep_par_cache;
    start = std::chrono::steady_clock::now();
    const sweep::Dataset par_dataset =
        grid.run(par_options, &sweep_par_cache);
    const double sweep_par_s = seconds_since(start);

    const bool sweep_identical =
        dataset_text(seq_dataset) == dataset_text(par_dataset);
    const double points = static_cast<double>(grid.point_count());

    // --- Tuner: same comparison over the candidate search.
    const runtime::TuneRequest request = make_tune_request();
    runtime::TuneExecOptions tune_seq;
    tune_seq.jobs = 1;
    start = std::chrono::steady_clock::now();
    const auto seq_tuned = runtime::auto_tune(request, tune_seq);
    const double tune_seq_s = seconds_since(start);

    runtime::TuneExecOptions tune_par;
    tune_par.jobs = jobs;
    start = std::chrono::steady_clock::now();
    const auto par_tuned = runtime::auto_tune(request, tune_par);
    const double tune_par_s = seconds_since(start);

    if (!seq_tuned.is_ok() || !par_tuned.is_ok()) {
        std::cerr << "tuner search failed: "
                  << seq_tuned.status().to_string() << " / "
                  << par_tuned.status().to_string() << "\n";
        return 1;
    }
    const bool tune_identical =
        tune_text(*seq_tuned) == tune_text(*par_tuned);
    const double candidates = static_cast<double>(
        seq_tuned->explored.size() + seq_tuned->infeasible);

    // --- SimCache: repeated searches under different QoS ceilings
    // share one memo; every ceiling after the first should hit.
    runtime::SimCache shared;
    runtime::TuneExecOptions cached;
    cached.jobs = jobs;
    cached.cache = &shared;
    for (const double ceiling_ms : {0.0, 20.0, 10.0, 5.0}) {
        runtime::TuneRequest repeat = request;
        if (ceiling_ms > 0.0)
            repeat.tbt_ceiling = ceiling_ms * 1e-3;
        (void)runtime::auto_tune(repeat, cached);
    }
    const double lookups =
        static_cast<double>(shared.hits() + shared.misses());
    const double hit_rate =
        lookups > 0.0 ? static_cast<double>(shared.hits()) / lookups : 0.0;

    std::ofstream out(out_path);
    if (!out) {
        std::cerr << "cannot write " << out_path << "\n";
        return 1;
    }
    out << "{\n  \"schema\": \"helm-bench-parallel-v1\",\n  \"jobs\": "
        << jobs << ",\n  \"sweep\": {\n    ";
    out << "\"points\": " << grid.point_count() << ",\n    ";
    json_number(out, "seq_seconds", sweep_seq_s);
    out << ",\n    ";
    json_number(out, "par_seconds", sweep_par_s);
    out << ",\n    ";
    json_number(out, "points_per_s_seq", points / sweep_seq_s);
    out << ",\n    ";
    json_number(out, "points_per_s_par", points / sweep_par_s);
    out << ",\n    ";
    json_number(out, "speedup", sweep_seq_s / sweep_par_s);
    out << ",\n    \"identical\": "
        << (sweep_identical ? "true" : "false") << "\n  },\n  \"tune\": {\n    ";
    out << "\"candidates\": " << static_cast<std::size_t>(candidates)
        << ",\n    ";
    json_number(out, "seq_seconds", tune_seq_s);
    out << ",\n    ";
    json_number(out, "par_seconds", tune_par_s);
    out << ",\n    ";
    json_number(out, "speedup", tune_seq_s / tune_par_s);
    out << ",\n    \"identical\": "
        << (tune_identical ? "true" : "false") << "\n  },\n  \"simcache\": {\n    ";
    out << "\"hits\": " << shared.hits() << ",\n    \"misses\": "
        << shared.misses() << ",\n    ";
    json_number(out, "hit_rate", hit_rate);
    out << "\n  }\n}\n";
    out.close();

    std::cout << "jobs " << jobs << ": sweep " << sweep_seq_s << "s -> "
              << sweep_par_s << "s (x"
              << (sweep_seq_s / sweep_par_s) << "), tune " << tune_seq_s
              << "s -> " << tune_par_s << "s (x"
              << (tune_seq_s / tune_par_s) << "), cache hit rate "
              << hit_rate << "\n"
              << "wrote " << out_path << "\n";
    if (!sweep_identical || !tune_identical) {
        std::cerr << "FAIL: parallel output differs from sequential\n";
        return 1;
    }
    return 0;
}
