/**
 * @file
 * CI gate for the serving schedulers: emits a helm-bench-scheduler-v1
 * JSON document (default BENCH_scheduler.json) that
 * tools/check_bench.py validates.
 *
 * Three sections:
 *   * fcfs_identity — the same arrival stream served through the
 *     single-GPU Server and through ClusterServer in replica mode with
 *     gpus = 1 (which documents wholesale delegation to Server) must
 *     produce byte-identical reports — the two ServingBackend
 *     implementations must agree on the degenerate cluster shape;
 *   * bursty — a 3-tenant bursty mix under fcfs / continuous / edf
 *     with a TTFT SLO: goodput, p99 TTFT, deadline misses.  The gate
 *     is edf goodput > fcfs goodput — iteration-level admission must
 *     actually help under bursts;
 *   * preemption — the tight-slot urgent-deadline microcosm: EDF must
 *     preempt (and the demoted/promoted KV bytes must be nonzero and
 *     equal), and the preempted requests' deadlines must be met.
 */
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/helm.h"

namespace {

using namespace helm;

runtime::ServingSpec
small_spec()
{
    runtime::ServingSpec spec;
    spec.model = model::opt_config(model::OptVariant::kOpt1_3B);
    spec.memory = mem::ConfigKind::kNvdram;
    return spec;
}

runtime::ServingReport
serve_or_die(const runtime::ServingSpec &spec,
             const runtime::ServingConfig &config,
             const std::vector<workload::TimedRequest> &stream)
{
    auto server = runtime::Server::create(spec, config);
    if (!server.is_ok()) {
        std::fprintf(stderr, "bench: create failed: %s\n",
                     server.status().to_string().c_str());
        std::exit(1);
    }
    for (const auto &timed : stream) {
        const Status submitted = server->submit(timed);
        if (!submitted.is_ok()) {
            std::fprintf(stderr, "bench: submit failed: %s\n",
                         submitted.to_string().c_str());
            std::exit(1);
        }
    }
    auto report = server->serve();
    if (!report.is_ok()) {
        std::fprintf(stderr, "bench: serve failed: %s\n",
                     report.status().to_string().c_str());
        std::exit(1);
    }
    return std::move(report).value();
}

/** Full textual image of a report: any behavioral divergence between
 *  the two FCFS backends becomes a byte diff. */
std::string
report_text(const runtime::ServingReport &report)
{
    std::ostringstream out;
    char buffer[160];
    std::snprintf(buffer, sizeof buffer,
                  "agg %.17g %.17g %.17g %.17g %llu %llu %llu %llu\n",
                  report.mean_batch_size, report.throughput,
                  report.goodput, report.makespan,
                  static_cast<unsigned long long>(report.submitted),
                  static_cast<unsigned long long>(report.completed),
                  static_cast<unsigned long long>(report.rejected),
                  static_cast<unsigned long long>(report.batches_formed));
    out << buffer;
    for (const auto &r : report.requests) {
        std::snprintf(buffer, sizeof buffer,
                      "%llu %llu %.17g %.17g %.17g %.17g %d\n",
                      static_cast<unsigned long long>(r.id),
                      static_cast<unsigned long long>(r.tenant),
                      r.queueing_delay, r.ttft, r.tbt, r.e2e_latency,
                      r.slo_met ? 1 : 0);
        out << buffer;
    }
    return out.str();
}

void
json_number(std::ostream &out, const char *key, double value)
{
    char buffer[64];
    std::snprintf(buffer, sizeof buffer, "%.6g", value);
    out << "\"" << key << "\": " << buffer;
}

void
scheduler_section(std::ostream &out, const char *name,
                  const runtime::ServingReport &report, bool last)
{
    out << "    \"" << name << "\": {\n      ";
    json_number(out, "goodput_tps", report.goodput);
    out << ",\n      ";
    json_number(out, "p99_ttft_s", report.ttft_percentile(99.0));
    out << ",\n      ";
    json_number(out, "slo_attainment", report.slo_attainment);
    out << ",\n      \"deadline_misses\": " << report.deadline_misses
        << ",\n      \"preemptions\": " << report.preemptions
        << "\n    }" << (last ? "\n" : ",\n");
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string out_path =
        argc > 1 ? argv[1] : "BENCH_scheduler.json";
    const runtime::ServingSpec spec = small_spec();

    // ---- fcfs identity: Server vs 1-GPU replica ClusterServer --------
    workload::ArrivalSpec poisson;
    poisson.rate = 3.0;
    poisson.duration = 10.0;
    poisson.seed = 7;
    const auto poisson_stream = *workload::generate_arrivals(poisson);

    runtime::ServingConfig identity_config;
    identity_config.max_queue_delay = 0.25;
    identity_config.enforce_ttft = true;
    identity_config.ttft_target = 10.0;
    const auto server_report =
        serve_or_die(spec, identity_config, poisson_stream);

    cluster::ClusterSpec degenerate;
    degenerate.serving = spec;
    degenerate.gpus = 1;
    degenerate.parallelism = cluster::Parallelism::kReplica;
    degenerate.config = identity_config;
    auto cluster_server = cluster::ClusterServer::create(degenerate);
    if (!cluster_server.is_ok()) {
        std::fprintf(stderr, "bench: cluster create failed: %s\n",
                     cluster_server.status().to_string().c_str());
        return 1;
    }
    for (const auto &timed : poisson_stream) {
        if (const Status s = cluster_server->submit(timed); !s.is_ok()) {
            std::fprintf(stderr, "bench: %s\n", s.to_string().c_str());
            return 1;
        }
    }
    const auto cluster_report = cluster_server->serve();
    if (!cluster_report.is_ok()) {
        std::fprintf(stderr, "bench: cluster serve failed: %s\n",
                     cluster_report.status().to_string().c_str());
        return 1;
    }
    const bool fcfs_identical =
        report_text(server_report) == report_text(*cluster_report);

    // ---- bursty 3-tenant mix under the three schedulers --------------
    workload::ArrivalSpec bursty;
    bursty.kind = workload::ArrivalKind::kBursty;
    bursty.rate = 4.0;
    bursty.duration = 10.0;
    bursty.tenants = 3;
    const auto bursty_stream = *workload::generate_arrivals(bursty);

    runtime::ServingReport by_kind[3];
    const runtime::SchedulerKind kinds[] = {
        runtime::SchedulerKind::kFcfs,
        runtime::SchedulerKind::kContinuous,
        runtime::SchedulerKind::kEdf};
    for (int i = 0; i < 3; ++i) {
        runtime::ServingConfig config;
        config.scheduler = kinds[i];
        config.tenants = 3;
        config.enforce_ttft = true;
        config.ttft_target = 5.0;
        if (kinds[i] != runtime::SchedulerKind::kFcfs) {
            config.has_default_deadline = true;
            config.default_deadline = 20.0;
        }
        by_kind[i] = serve_or_die(spec, config, bursty_stream);
    }

    // ---- preemption microcosm ----------------------------------------
    std::vector<workload::TimedRequest> tight;
    const auto add = [&tight](double at, std::uint64_t prompt,
                              std::uint64_t output, std::uint64_t tenant,
                              double deadline) {
        workload::TimedRequest timed;
        timed.request = workload::Request{
            static_cast<std::uint64_t>(tight.size()), prompt, output,
            tenant};
        timed.arrival = at;
        timed.deadline = deadline;
        tight.push_back(timed);
    };
    add(0.0, 256, 64, 0, 1000.0);
    add(0.0, 256, 64, 0, 1000.0);
    add(0.1, 256, 64, 0, 1000.0);
    add(5.0, 64, 8, 1, 9.0);
    add(5.1, 64, 8, 1, 9.2);
    runtime::ServingConfig edf;
    edf.scheduler = runtime::SchedulerKind::kEdf;
    edf.auto_max_batch = false;
    edf.max_batch = 2;
    edf.tenants = 2;
    const auto preempt_report = serve_or_die(spec, edf, tight);

    std::ofstream out(out_path);
    if (!out) {
        std::cerr << "cannot write " << out_path << "\n";
        return 1;
    }
    out << "{\n  \"schema\": \"helm-bench-scheduler-v1\",\n"
        << "  \"fcfs_identity\": {\n    \"identical\": "
        << (fcfs_identical ? "true" : "false")
        << ",\n    \"requests\": " << poisson_stream.size()
        << "\n  },\n  \"bursty\": {\n";
    scheduler_section(out, "fcfs", by_kind[0], false);
    scheduler_section(out, "continuous", by_kind[1], false);
    scheduler_section(out, "edf", by_kind[2], true);
    out << "  },\n  \"preemption\": {\n    \"preemptions\": "
        << preempt_report.preemptions
        << ",\n    \"resumes\": " << preempt_report.resumes
        << ",\n    \"kv_demoted_bytes\": "
        << preempt_report.kv_demoted_bytes
        << ",\n    \"kv_promoted_bytes\": "
        << preempt_report.kv_promoted_bytes << ",\n    ";
    json_number(out, "kv_swap_exposed_seconds",
                preempt_report.kv_swap_exposed_seconds);
    out << ",\n    \"deadline_misses\": "
        << preempt_report.deadline_misses << "\n  }\n}\n";
    out.close();

    std::cout << "fcfs identity: "
              << (fcfs_identical ? "identical" : "DIVERGED") << " over "
              << poisson_stream.size() << " requests\n"
              << "bursty goodput (tok/s): fcfs "
              << format_fixed(by_kind[0].goodput, 2) << ", continuous "
              << format_fixed(by_kind[1].goodput, 2) << ", edf "
              << format_fixed(by_kind[2].goodput, 2) << "\n"
              << "preemption: " << preempt_report.preemptions
              << " preemptions, "
              << format_bytes(preempt_report.kv_demoted_bytes)
              << " demoted, "
              << format_bytes(preempt_report.kv_promoted_bytes)
              << " promoted, " << preempt_report.deadline_misses
              << " deadline misses\n"
              << "wrote " << out_path << "\n";
    return 0;
}
