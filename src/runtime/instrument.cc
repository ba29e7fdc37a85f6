#include "runtime/instrument.h"

#include <algorithm>
#include <map>

#include "mem/host_system.h"
#include "model/transformer.h"
#include "placement/placement.h"

namespace helm::runtime {
namespace {

using telemetry::Labels;
using telemetry::Phase;

constexpr const char *kQuantiles[] = {"0.50", "0.90", "0.95", "0.99"};
constexpr double kQuantilePercents[] = {50.0, 90.0, 95.0, 99.0};

/** Overlap of [a0, a1] with [b0, b1], clamped to [0, limit]. */
Seconds
overlap(Seconds a0, Seconds a1, Seconds b0, Seconds b1, Seconds limit)
{
    const Seconds covered = std::min(a1, b1) - std::max(a0, b0);
    return std::clamp(covered, 0.0, limit);
}

} // namespace

telemetry::TimeAttribution
attribute_records(const std::vector<LayerStepRecord> &records,
                  Seconds layer_overhead, Seconds wall_per_gpu)
{
    telemetry::TimeAttribution attr;
    std::map<std::uint64_t, std::vector<const LayerStepRecord *>> by_gpu;
    for (const LayerStepRecord &rec : records)
        by_gpu[rec.gpu_index].push_back(&rec);

    std::vector<Seconds> last_ends;
    last_ends.reserve(by_gpu.size());
    for (auto &[gpu, group] : by_gpu) {
        std::stable_sort(
            group.begin(), group.end(),
            [](const LayerStepRecord *a, const LayerStepRecord *b) {
                return a->step_start < b->step_start;
            });
        Seconds prev_end = 0.0;
        for (std::size_t k = 0; k < group.size(); ++k) {
            const LayerStepRecord &rec = *group[k];
            const std::string layer = model::layer_type_name(rec.type);

            // Gap before the step: exposed transfer where the step's own
            // load window covers it (the sync waited on the load), idle
            // otherwise (serving gap, pipeline bubble).
            const Seconds gap = std::max(0.0, rec.step_start - prev_end);
            if (gap > 0.0) {
                const Seconds covered = overlap(
                    prev_end, rec.step_start, rec.transfer_start,
                    rec.transfer_start + rec.transfer_time, gap);
                attr.add(layer, Phase::kTransfer, covered);
                attr.add_idle(gap - covered);
            }

            // Within the step: stall gates compute (un-prefetched KV
            // reads), compute runs kernel + launch overhead, and the
            // rest is what the sync waited on.
            const Seconds span =
                std::max(0.0, rec.step_end - rec.step_start);
            const Seconds stall = std::min(rec.kv_stall_time, span);
            const Seconds compute = std::min(
                span - stall, rec.compute_time + layer_overhead);
            const Seconds remainder = span - stall - compute;
            attr.add(layer, Phase::kKvStall, stall);
            attr.add(layer, Phase::kCompute, compute);
            if (remainder > 0.0) {
                // The load in flight during this step's tail is the
                // *next* step's (zig-zag prefetch); its window past the
                // compute end is exposed transfer, the rest of the tail
                // is KV/activation writeback drain.
                Seconds exposed = 0.0;
                if (k + 1 < group.size()) {
                    const LayerStepRecord &next = *group[k + 1];
                    exposed = overlap(
                        rec.step_start + stall + compute, rec.step_end,
                        next.transfer_start,
                        next.transfer_start + next.transfer_time,
                        remainder);
                }
                attr.add(layer, Phase::kTransfer, exposed);
                attr.add(layer, Phase::kWriteback, remainder - exposed);
            }
            prev_end = std::max(prev_end, rec.step_end);
        }
        last_ends.push_back(prev_end);
    }

    Seconds per_gpu = wall_per_gpu;
    if (per_gpu <= 0.0) {
        for (Seconds end : last_ends)
            per_gpu = std::max(per_gpu, end);
    }
    for (Seconds end : last_ends)
        attr.add_idle(std::max(0.0, per_gpu - end));
    attr.set_wall(per_gpu * static_cast<double>(last_ends.size()));
    return attr;
}

void
record_run_info(telemetry::MetricsRegistry &registry,
                const ServingSpec &spec, const std::string &command)
{
    registry
        .gauge("helm_run_info",
               {{"command", command},
                {"model", spec.model.name},
                {"memory", mem::config_kind_name(spec.memory)},
                {"placement",
                 placement::placement_kind_name(spec.placement)}},
               "Run identity; always 1")
        .set(1.0);
}

void
record_kv_stats(telemetry::MetricsRegistry &registry,
                const kvcache::KvCacheStats &stats,
                const kvcache::KvCacheConfig &config)
{
    for (std::size_t i = 0; i < stats.tiers.size(); ++i) {
        const kvcache::TierStats &tier = stats.tiers[i];
        const Labels labels = {{"tier", tier.name}};
        registry
            .gauge("helm_kv_tier_index", labels,
                   "Tier position in the configured hierarchy (0 = GPU)")
            .set(static_cast<double>(i));
        registry
            .gauge("helm_kv_tier_capacity_bytes", labels,
                   "Tier block capacity; 0 = unbounded")
            .set(static_cast<double>(tier.capacity));
        registry
            .gauge("helm_kv_tier_peak_occupancy_bytes", labels,
                   "Peak bytes resident in the tier")
            .set(static_cast<double>(tier.peak_occupancy));
        registry
            .counter("helm_kv_read_bytes_total", labels,
                     "KV bytes fetched tier -> GPU")
            .add(static_cast<double>(tier.read_bytes));
        registry
            .counter("helm_kv_write_bytes_total", labels,
                     "KV bytes written GPU -> tier")
            .add(static_cast<double>(tier.write_bytes));
        registry
            .counter("helm_kv_demoted_in_bytes_total", labels,
                     "KV bytes that arrived by demotion from above")
            .add(static_cast<double>(tier.demoted_in_bytes));
        const bool is_gpu =
            i < config.tiers.size() && config.tiers[i].is_gpu;
        registry
            .counter("helm_kv_lookups_total",
                     {{"tier", tier.name},
                      {"result", is_gpu ? "hit" : "miss"}},
                     "Decode context-block touches; GPU-resident blocks "
                     "are hits, host-resident ones pay their tier's path")
            .add(static_cast<double>(tier.lookups));
    }
    registry
        .counter("helm_kv_demotions_total", {},
                 "Blocks pushed down a tier by eviction")
        .add(static_cast<double>(stats.demotions));
    registry
        .counter("helm_kv_promotions_total", {},
                 "Blocks pulled back toward the GPU")
        .add(static_cast<double>(stats.promotions));
}

void
record_run(telemetry::MetricsRegistry &registry, const ServingSpec &spec,
           const RunResult &result, const std::string &command)
{
    record_run_info(registry, spec, command);
    const InferenceMetrics &m = result.metrics;
    registry
        .gauge("helm_run_ttft_seconds", {},
               "Mean time to first token (cold run discarded)")
        .set(m.ttft);
    registry
        .gauge("helm_run_tbt_seconds", {}, "Mean time between tokens")
        .set(m.tbt);
    registry
        .gauge("helm_run_throughput_tokens_per_s", {},
               "Generated tokens per second over the whole run")
        .set(m.throughput);

    const auto split = result.placement.achieved();
    auto weight = [&](const char *tier, double percent) {
        registry
            .gauge("helm_placement_weight_percent", {{"tier", tier}},
                   "Achieved weight placement split")
            .set(percent);
    };
    weight("gpu", split.gpu);
    weight("cpu", split.cpu);
    weight("disk", split.disk);
    registry
        .gauge("helm_gpu_memory_used_bytes", {},
               "GPU memory budget consumed at the run batch")
        .set(static_cast<double>(result.budget.used()));
    registry
        .gauge("helm_gpu_memory_capacity_bytes", {}, "GPU HBM capacity")
        .set(static_cast<double>(result.budget.hbm_capacity));
    if (result.spill.spilled()) {
        registry
            .gauge("helm_spilled_weight_bytes", {},
                   "Weight bytes spilled off the GPU by capacity "
                   "enforcement")
            .set(static_cast<double>(result.spill.spilled_bytes));
    }

    if (!result.records.empty()) {
        Bytes host = 0;
        Bytes disk = 0;
        for (const LayerStepRecord &rec : result.records) {
            host += rec.host_bytes;
            disk += rec.disk_bytes;
        }
        registry
            .counter("helm_engine_transfer_bytes_total",
                     {{"device", "host"}},
                     "Weight bytes streamed into the GPU, by source")
            .add(static_cast<double>(host));
        registry
            .counter("helm_engine_transfer_bytes_total",
                     {{"device", "storage"}},
                     "Weight bytes streamed into the GPU, by source")
            .add(static_cast<double>(disk));
        attribute_records(result.records, spec.gpu.layer_overhead,
                          m.total_time)
            .record(registry);
    }

    if (spec.kv_cache.has_value())
        record_kv_stats(registry, result.kv_stats, spec.kv_config());
}

void
record_serving(telemetry::MetricsRegistry &registry,
               const ServingSpec &base, std::uint64_t max_batch,
               std::uint64_t kv_slots, const ServingReport &report,
               const std::string &command)
{
    record_run_info(registry, base, command);
    registry
        .gauge("helm_serving_max_batch", {},
               "Largest batch the scheduler may form")
        .set(static_cast<double>(max_batch));
    registry
        .gauge("helm_serving_kv_request_slots", {},
               "Requests the managed KV tiers can hold (0 = unbounded)")
        .set(static_cast<double>(kv_slots));

    auto outcome = [&](const char *name, std::uint64_t value) {
        registry
            .counter("helm_serving_requests_total", {{"outcome", name}},
                     "Requests by outcome")
            .add(static_cast<double>(value));
    };
    outcome("submitted", report.submitted);
    outcome("completed", report.completed);
    outcome("rejected", report.rejected);
    outcome("kv_rejected", report.kv_rejected);
    if (report.hbm_rejected > 0)
        outcome("hbm_rejected", report.hbm_rejected);
    registry
        .counter("helm_serving_batches_formed_total", {},
                 "Batches the scheduler launched")
        .add(static_cast<double>(report.batches_formed));
    registry
        .gauge("helm_serving_mean_batch_size", {},
               "Mean formed batch size")
        .set(report.mean_batch_size);
    registry
        .gauge("helm_serving_peak_queue_depth", {},
               "Peak number of waiting requests")
        .set(static_cast<double>(report.max_queue_depth));

    for (const RequestMetrics &req : report.requests) {
        auto observe = [&](const char *name, Seconds value,
                           const char *help) {
            registry
                .histogram(name, {},
                           telemetry::default_latency_buckets(), help)
                .observe(value);
        };
        observe("helm_serving_queue_wait_seconds", req.queueing_delay,
                "Per-request arrival -> batch launch delay");
        observe("helm_serving_ttft_seconds", req.ttft,
                "Per-request time to first token");
        observe("helm_serving_tbt_seconds", req.tbt,
                "Per-request mean time between tokens");
        observe("helm_serving_e2e_seconds", req.e2e_latency,
                "Per-request arrival -> last token latency");
    }
    for (std::size_t q = 0; q < 4; ++q) {
        const Labels labels = {{"quantile", kQuantiles[q]}};
        const double p = kQuantilePercents[q];
        auto quantile = [&](const char *name, Seconds value,
                            const char *help) {
            registry.gauge(name, labels, help).set(value);
        };
        quantile("helm_serving_queue_wait_quantile_seconds",
                 report.queueing_delay_percentile(p),
                 "Exact nearest-rank queueing-delay quantiles");
        quantile("helm_serving_ttft_quantile_seconds",
                 report.ttft_percentile(p),
                 "Exact nearest-rank TTFT quantiles");
        quantile("helm_serving_tbt_quantile_seconds",
                 report.tbt_percentile(p),
                 "Exact nearest-rank TBT quantiles");
        quantile("helm_serving_e2e_quantile_seconds",
                 report.e2e_percentile(p),
                 "Exact nearest-rank end-to-end latency quantiles");
    }

    registry
        .gauge("helm_serving_throughput_tokens_per_s", {},
               "Generated tokens/s over the makespan")
        .set(report.throughput);
    registry
        .gauge("helm_serving_goodput_tokens_per_s", {},
               "Generated tokens/s counting only SLO-met requests")
        .set(report.goodput);
    registry
        .gauge("helm_serving_slo_attainment_ratio", {},
               "Fraction of completed requests that met the SLO")
        .set(report.slo_attainment);
    registry
        .gauge("helm_serving_makespan_seconds", {},
               "First arrival -> last completion")
        .set(report.makespan);

    // Continuous/EDF families only exist when that scheduler ran, so a
    // fcfs run's registry (and its JSON/Prometheus dumps) stays
    // bit-identical to the pre-continuous serving path.
    if (report.scheduler == SchedulerKind::kFcfs)
        return;
    registry
        .gauge("helm_serving_scheduler_info",
               {{"scheduler", scheduler_kind_name(report.scheduler)}},
               "Scheduler that produced this run (value is always 1)")
        .set(1.0);
    registry
        .counter("helm_serving_iterations_total", {},
                 "Iteration boundaries the continuous scheduler ran")
        .add(static_cast<double>(report.iterations));
    registry
        .counter("helm_serving_preemptions_total", {},
                 "Running requests preempted (KV swapped out)")
        .add(static_cast<double>(report.preemptions));
    registry
        .counter("helm_serving_resumes_total", {},
                 "Preempted requests resumed (KV swapped back)")
        .add(static_cast<double>(report.resumes));
    registry
        .counter("helm_serving_kv_swap_bytes_total",
                 {{"direction", "demote"}},
                 "Preempted-KV bytes moved GPU <-> host by direction")
        .add(static_cast<double>(report.kv_demoted_bytes));
    registry
        .counter("helm_serving_kv_swap_bytes_total",
                 {{"direction", "promote"}},
                 "Preempted-KV bytes moved GPU <-> host by direction")
        .add(static_cast<double>(report.kv_promoted_bytes));
    registry
        .gauge("helm_serving_kv_swap_exposed_seconds", {},
               "Swap time the iteration clock could not hide")
        .set(report.kv_swap_exposed_seconds);
    registry
        .counter("helm_serving_deadline_misses_total", {},
                 "Completed requests that missed their deadline")
        .add(static_cast<double>(report.deadline_misses));
    registry
        .counter("helm_serving_starvation_events_total", {},
                 "Rounds that admitted a later arrival over a waiting "
                 "head-of-queue request")
        .add(static_cast<double>(report.starvation_events));
    registry
        .gauge("helm_serving_jain_fairness", {},
               "Jain index over per-tenant generated tokens")
        .set(report.jain_fairness);
    for (const TenantStats &t : report.tenants) {
        const Labels tenant = {{"tenant", std::to_string(t.tenant)}};
        auto tenant_outcome = [&](const char *name,
                                  std::uint64_t value) {
            Labels labels = tenant;
            labels.emplace("outcome", name);
            registry
                .counter("helm_serving_tenant_requests_total", labels,
                         "Per-tenant requests by outcome")
                .add(static_cast<double>(value));
        };
        tenant_outcome("submitted", t.submitted);
        tenant_outcome("completed", t.completed);
        tenant_outcome("rejected", t.rejected);
        registry
            .counter("helm_serving_tenant_tokens_total", tenant,
                     "Per-tenant generated tokens")
            .add(static_cast<double>(t.tokens));
        registry
            .counter("helm_serving_tenant_preemptions_total", tenant,
                     "Per-tenant preemptions")
            .add(static_cast<double>(t.preemptions));
        registry
            .counter("helm_serving_tenant_starvation_total", tenant,
                     "Per-tenant starvation events")
            .add(static_cast<double>(t.starvation_events));
        registry
            .counter("helm_serving_tenant_deadline_misses_total",
                     tenant, "Per-tenant deadline misses")
            .add(static_cast<double>(t.deadline_misses));
        registry
            .gauge("helm_serving_tenant_mean_ttft_seconds", tenant,
                   "Per-tenant mean time to first token")
            .set(t.mean_ttft);
        registry
            .gauge("helm_serving_tenant_max_queue_wait_seconds", tenant,
                   "Per-tenant worst arrival -> first-schedule wait")
            .set(t.max_queue_wait);
    }
}

void
record_sim_cache(telemetry::MetricsRegistry &registry,
                 const SimCache &cache)
{
    registry
        .counter("helm_simcache_hits", {},
                 "Simulation points served from the SimCache memo")
        .add(static_cast<double>(cache.hits()));
    registry
        .counter("helm_simcache_misses", {},
                 "Simulation points that ran the engine")
        .add(static_cast<double>(cache.misses()));
    registry
        .gauge("helm_simcache_entries", {},
               "Distinct specs currently memoized")
        .set(static_cast<double>(cache.size()));
}

} // namespace helm::runtime
