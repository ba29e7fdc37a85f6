/**
 * @file
 * Tests for the runtime telemetry feeders: the time-attribution
 * decomposition's sum-to-wall invariant, the run/serving registry
 * metrics, and the PR's acceptance artifact triple — one serve run
 * producing a Prometheus dump, a JSON snapshot whose attribution sums
 * to the wall time within 0.1%, and a Chrome trace with host-port
 * utilization counter rows, all from the same registry.
 */
#include <gtest/gtest.h>

#include "kvcache/kvcache.h"
#include "model/opt.h"
#include "runtime/instrument.h"
#include "runtime/trace.h"
#include "telemetry/export.h"
#include "workload/arrival.h"

namespace helm::runtime {
namespace {

using model::OptVariant;

ServingSpec
small_spec()
{
    ServingSpec spec;
    spec.model = model::opt_config(OptVariant::kOpt1_3B);
    spec.memory = mem::ConfigKind::kNvdram;
    spec.batch = 2;
    spec.repeats = 1;
    spec.shape.output_tokens = 3;
    return spec;
}

TEST(AttributeRecords, SumsToTotalTimeExactly)
{
    const ServingSpec spec = small_spec();
    const auto result = simulate_inference(spec);
    ASSERT_TRUE(result.is_ok());
    ASSERT_FALSE(result->records.empty());

    const auto attribution =
        attribute_records(result->records, spec.gpu.layer_overhead,
                          result->metrics.total_time);
    EXPECT_DOUBLE_EQ(attribution.wall(), result->metrics.total_time);
    // The acceptance bound is 0.1%; the decomposition is exact by
    // construction, so hold it to float noise instead.
    EXPECT_NEAR(attribution.attributed_total(), attribution.wall(),
                1e-6 * attribution.wall());
}

TEST(AttributeRecords, SeparatesLayerTypesAndPhases)
{
    const ServingSpec spec = small_spec();
    const auto result = simulate_inference(spec);
    ASSERT_TRUE(result.is_ok());

    const auto attribution =
        attribute_records(result->records, spec.gpu.layer_overhead,
                          result->metrics.total_time);
    ASSERT_TRUE(attribution.buckets().count("mha"));
    ASSERT_TRUE(attribution.buckets().count("ffn"));
    EXPECT_GT(attribution.buckets().at("mha").compute, 0.0);
    EXPECT_GT(attribution.buckets().at("ffn").compute, 0.0);
    // An out-of-core NVDIMM run must expose some transfer time.
    Seconds transfer = 0.0;
    for (const auto &[layer, bucket] : attribution.buckets())
        transfer += bucket.transfer;
    EXPECT_GT(transfer, 0.0);
}

TEST(RecordRun, PopulatesRegistrySections)
{
    const ServingSpec spec = small_spec();
    const auto result = simulate_inference(spec);
    ASSERT_TRUE(result.is_ok());

    telemetry::MetricsRegistry registry;
    record_run(registry, spec, *result, "run");

    EXPECT_DOUBLE_EQ(registry.value_or("helm_run_ttft_seconds"),
                     result->metrics.ttft);
    EXPECT_DOUBLE_EQ(registry.value_or("helm_run_tbt_seconds"),
                     result->metrics.tbt);
    const auto info = registry.label_sets("helm_run_info");
    ASSERT_EQ(info.size(), 1u);
    EXPECT_EQ(info.front().at("command"), "run");
    EXPECT_EQ(info.front().at("model"), spec.model.name);
    EXPECT_EQ(info.front().at("memory"), "NVDRAM");

    const double gpu_pct = registry.value_or(
        "helm_placement_weight_percent", {{"tier", "gpu"}});
    const double cpu_pct = registry.value_or(
        "helm_placement_weight_percent", {{"tier", "cpu"}});
    const double disk_pct = registry.value_or(
        "helm_placement_weight_percent", {{"tier", "disk"}});
    EXPECT_NEAR(gpu_pct + cpu_pct + disk_pct, 100.0, 0.1);

    // Attribution gauges ride along and sum to the run's wall time.
    EXPECT_TRUE(registry.has("helm_attribution_seconds"));
    EXPECT_NEAR(registry.value_or("helm_wall_seconds"),
                result->metrics.total_time,
                1e-9 * result->metrics.total_time);

    // Weights flowed from host RAM on every out-of-core step.
    EXPECT_GT(registry.value_or("helm_engine_transfer_bytes_total",
                                {{"device", "host"}}),
              0.0);
}

TEST(RecordRun, KvLookupCountersSplitHitAndMiss)
{
    ServingSpec spec = small_spec();
    spec.kv_cache = kvcache::KvCacheConfig::tiered(0);
    const auto result = simulate_inference(spec);
    ASSERT_TRUE(result.is_ok());

    telemetry::MetricsRegistry registry;
    record_run(registry, spec, *result, "run");

    ASSERT_TRUE(registry.has("helm_kv_lookups_total"));
    double lookups = 0.0;
    for (const auto &labels :
         registry.label_sets("helm_kv_lookups_total")) {
        EXPECT_TRUE(labels.at("result") == "hit" ||
                    labels.at("result") == "miss");
        lookups += registry.value_or("helm_kv_lookups_total", labels);
    }
    EXPECT_GT(lookups, 0.0);
    // Tier ordering survives via the index gauge.
    EXPECT_TRUE(registry.has("helm_kv_tier_index"));
}

/** One serve run must yield the full artifact triple from one registry:
 *  (a) a Prometheus dump, (b) a JSON snapshot whose attribution sums to
 *  the wall time within 0.1%, (c) a Chrome trace with host-port
 *  utilization counter rows. */
TEST(ServeTelemetry, ArtifactTripleFromOneRegistry)
{
    ServingSpec base = small_spec();
    base.batch = 1;

    workload::ArrivalSpec arrivals;
    arrivals.rate = 2.0;
    arrivals.duration = 4.0;
    arrivals.prompt_tokens = base.shape.prompt_tokens;
    arrivals.output_tokens = base.shape.output_tokens;
    arrivals.seed = 7;
    const auto stream = workload::generate_arrivals(arrivals);
    ASSERT_TRUE(stream.is_ok());

    auto server = Server::create(base);
    ASSERT_TRUE(server.is_ok()) << server.status().to_string();
    server->enable_telemetry(/*collect_records=*/true);
    ASSERT_TRUE(server->submit(*stream).is_ok());
    const auto report = server->serve();
    ASSERT_TRUE(report.is_ok()) << report.status().to_string();
    ASSERT_GT(report->completed, 0u);

    // The accumulated attribution closes exactly on the makespan.
    const telemetry::TimeAttribution &attribution = server->attribution();
    EXPECT_NEAR(attribution.wall(), report->makespan,
                1e-9 * report->makespan);
    EXPECT_NEAR(attribution.attributed_total(), attribution.wall(),
                1e-3 * attribution.wall()); // acceptance bound: 0.1%

    telemetry::MetricsRegistry registry;
    record_serving(registry, base, server->effective_max_batch(),
                   server->kv_request_slots(), *report, "serve");
    attribution.record(registry);

    // (a) Prometheus text exposition.
    const std::string prom = telemetry::prometheus_text(registry);
    EXPECT_NE(prom.find("# TYPE helm_serving_ttft_seconds histogram"),
              std::string::npos);
    EXPECT_NE(prom.find("helm_attribution_seconds"), std::string::npos);
    EXPECT_NE(prom.find("helm_wall_seconds"), std::string::npos);

    // (b) JSON snapshot whose attribution sums to the wall time.
    const std::string json = telemetry::json_snapshot(registry);
    EXPECT_NE(json.find("\"schema\":\"helm-metrics-v1\""),
              std::string::npos);
    EXPECT_NE(json.find("helm_attribution_idle_seconds"),
              std::string::npos);
    const double wall = registry.value_or("helm_wall_seconds");
    double attributed = registry.value_or("helm_attribution_idle_seconds");
    for (const auto &labels :
         registry.label_sets("helm_attribution_seconds"))
        attributed += registry.value_or("helm_attribution_seconds", labels);
    EXPECT_NEAR(attributed, wall, 1e-3 * wall);

    // (c) Chrome trace with host-port utilization counter rows, scaled
    // by the same fabric rate a metrics consumer would read.
    ASSERT_FALSE(server->serving_records().empty());
    ASSERT_GT(server->h2d_rate().raw(), 0.0);
    TraceCounterOptions counters;
    counters.host_port_rate_bytes_per_s = server->h2d_rate().raw();
    const std::string trace =
        chrome_trace_json(server->serving_records(), counters);
    EXPECT_NE(trace.find("\"ph\":\"C\""), std::string::npos);
    EXPECT_NE(trace.find("host-port utilization"), std::string::npos);
}

TEST(RecordServing, QuantileGaugesMatchReportPercentiles)
{
    ServingSpec base = small_spec();
    base.batch = 1;

    workload::ArrivalSpec arrivals;
    arrivals.rate = 2.0;
    arrivals.duration = 4.0;
    arrivals.prompt_tokens = base.shape.prompt_tokens;
    arrivals.output_tokens = base.shape.output_tokens;
    const auto stream = workload::generate_arrivals(arrivals);
    ASSERT_TRUE(stream.is_ok());

    auto server = Server::create(base);
    ASSERT_TRUE(server.is_ok());
    ASSERT_TRUE(server->submit(*stream).is_ok());
    const auto report = server->serve();
    ASSERT_TRUE(report.is_ok());

    telemetry::MetricsRegistry registry;
    record_serving(registry, base, server->effective_max_batch(),
                   server->kv_request_slots(), *report, "serve");

    const std::pair<const char *, double> quantiles[] = {
        {"0.50", 50.0}, {"0.90", 90.0}, {"0.95", 95.0}, {"0.99", 99.0}};
    for (const auto &[label, percent] : quantiles) {
        EXPECT_DOUBLE_EQ(
            registry.value_or("helm_serving_ttft_quantile_seconds",
                              {{"quantile", label}}),
            report->ttft_percentile(percent));
        EXPECT_DOUBLE_EQ(
            registry.value_or("helm_serving_tbt_quantile_seconds",
                              {{"quantile", label}}),
            report->tbt_percentile(percent));
    }
    EXPECT_DOUBLE_EQ(registry.value_or("helm_serving_requests_total",
                                       {{"outcome", "completed"}}),
                     static_cast<double>(report->completed));
    EXPECT_EQ(registry
                  .histogram("helm_serving_ttft_seconds", {},
                             telemetry::default_latency_buckets())
                  .count(),
              report->completed);
}

TEST(RecordServing, SchedulerFamiliesGatedOnFcfs)
{
    ServingSpec base = small_spec();
    base.batch = 1;

    std::vector<workload::TimedRequest> stream;
    const auto add = [&stream](double at, std::uint64_t prompt,
                               std::uint64_t output,
                               std::uint64_t tenant, double deadline) {
        workload::TimedRequest timed;
        timed.request = workload::Request{
            static_cast<std::uint64_t>(stream.size()), prompt, output,
            tenant};
        timed.arrival = at;
        timed.deadline = deadline;
        stream.push_back(timed);
    };
    add(0.0, 256, 64, 0, 1000.0);
    add(0.0, 256, 64, 0, 1000.0);
    add(0.1, 256, 64, 0, 1000.0);
    add(5.0, 64, 8, 1, 9.0);

    ServingConfig edf;
    edf.scheduler = SchedulerKind::kEdf;
    edf.auto_max_batch = false;
    edf.max_batch = 2;
    edf.tenants = 2;
    auto server = Server::create(base, edf);
    ASSERT_TRUE(server.is_ok()) << server.status().to_string();
    ASSERT_TRUE(server->submit(stream).is_ok());
    const auto report = server->serve();
    ASSERT_TRUE(report.is_ok());
    ASSERT_GE(report->preemptions, 1u);

    telemetry::MetricsRegistry registry;
    record_serving(registry, base, server->effective_max_batch(),
                   server->kv_request_slots(), *report, "serve");
    EXPECT_DOUBLE_EQ(registry.value_or("helm_serving_scheduler_info",
                                       {{"scheduler", "edf"}}),
                     1.0);
    EXPECT_DOUBLE_EQ(registry.value_or("helm_serving_preemptions_total"),
                     static_cast<double>(report->preemptions));
    EXPECT_DOUBLE_EQ(
        registry.value_or("helm_serving_kv_swap_bytes_total",
                          {{"direction", "demote"}}),
        static_cast<double>(report->kv_demoted_bytes));
    EXPECT_DOUBLE_EQ(
        registry.value_or("helm_serving_kv_swap_bytes_total",
                          {{"direction", "promote"}}),
        static_cast<double>(report->kv_promoted_bytes));
    EXPECT_DOUBLE_EQ(
        registry.value_or("helm_serving_tenant_tokens_total",
                          {{"tenant", "1"}}),
        static_cast<double>(report->tenants[1].tokens));

    // The fcfs report must leave every scheduler family out of the
    // registry — that is the byte-identity gate for serve output.
    auto fcfs = Server::create(base);
    ASSERT_TRUE(fcfs.is_ok());
    ASSERT_TRUE(fcfs->submit(workload::Request{0, 128, 21}, 0.0).is_ok());
    const auto fcfs_report = fcfs->serve();
    ASSERT_TRUE(fcfs_report.is_ok());
    telemetry::MetricsRegistry fcfs_registry;
    record_serving(fcfs_registry, base, fcfs->effective_max_batch(),
                   fcfs->kv_request_slots(), *fcfs_report, "serve");
    for (const char *name :
         {"helm_serving_scheduler_info", "helm_serving_iterations_total",
          "helm_serving_preemptions_total",
          "helm_serving_kv_swap_bytes_total",
          "helm_serving_jain_fairness",
          "helm_serving_tenant_tokens_total"}) {
        EXPECT_FALSE(fcfs_registry.has(name)) << name;
    }
}

TEST(ServingReportPercentiles, TbtPercentileIsMonotone)
{
    ServingSpec base = small_spec();
    base.batch = 1;

    workload::ArrivalSpec arrivals;
    arrivals.rate = 3.0;
    arrivals.duration = 4.0;
    arrivals.prompt_tokens = base.shape.prompt_tokens;
    arrivals.output_tokens = base.shape.output_tokens;
    arrivals.variable_lengths = true;
    const auto stream = workload::generate_arrivals(arrivals);
    ASSERT_TRUE(stream.is_ok());

    auto server = Server::create(base);
    ASSERT_TRUE(server.is_ok());
    ASSERT_TRUE(server->submit(*stream).is_ok());
    const auto report = server->serve();
    ASSERT_TRUE(report.is_ok());
    ASSERT_GT(report->completed, 1u);

    EXPECT_GT(report->tbt_percentile(50.0), 0.0);
    EXPECT_LE(report->tbt_percentile(50.0), report->tbt_percentile(95.0));
    EXPECT_LE(report->tbt_percentile(95.0), report->tbt_percentile(99.0));
}

TEST(ServerTelemetry, DoesNotPerturbTheReport)
{
    ServingSpec base = small_spec();
    base.batch = 1;

    workload::ArrivalSpec arrivals;
    arrivals.rate = 2.0;
    arrivals.duration = 4.0;
    arrivals.prompt_tokens = base.shape.prompt_tokens;
    arrivals.output_tokens = base.shape.output_tokens;
    const auto stream = workload::generate_arrivals(arrivals);
    ASSERT_TRUE(stream.is_ok());

    auto plain = Server::create(base);
    auto instrumented = Server::create(base);
    ASSERT_TRUE(plain.is_ok());
    ASSERT_TRUE(instrumented.is_ok());
    instrumented->enable_telemetry(true);
    ASSERT_TRUE(plain->submit(*stream).is_ok());
    ASSERT_TRUE(instrumented->submit(*stream).is_ok());
    const auto a = plain->serve();
    const auto b = instrumented->serve();
    ASSERT_TRUE(a.is_ok());
    ASSERT_TRUE(b.is_ok());

    EXPECT_EQ(a->completed, b->completed);
    EXPECT_EQ(a->batches_formed, b->batches_formed);
    EXPECT_DOUBLE_EQ(a->makespan, b->makespan);
    EXPECT_DOUBLE_EQ(a->throughput, b->throughput);
    ASSERT_EQ(a->requests.size(), b->requests.size());
    for (std::size_t i = 0; i < a->requests.size(); ++i) {
        EXPECT_DOUBLE_EQ(a->requests[i].ttft, b->requests[i].ttft);
        EXPECT_DOUBLE_EQ(a->requests[i].e2e_latency,
                         b->requests[i].e2e_latency);
    }
}

} // namespace
} // namespace helm::runtime
