#include "runtime/scheduler.h"

#include <algorithm>
#include <utility>

#include "runtime/instrument.h"
#include "runtime/step_cache.h"

namespace helm::runtime {

Result<Server>
Server::create(ServingSpec base, ServingConfig config)
{
    // The template's batch/shape/repeats are overridden per formed
    // batch; pin them to the canonical single-batch form so validation
    // checks what will actually run.
    base.batch = std::max<std::uint64_t>(base.batch, 1);
    base.repeats = 1;
    base.keep_records = false;
    HELM_RETURN_IF_ERROR(base.validate());
    HELM_RETURN_IF_ERROR(config.validate());

    auto geo_or = shard_geometry(base);
    if (!geo_or.is_ok())
        return geo_or.status();
    std::vector<ShardGeometry> shards;
    shards.push_back(std::move(*geo_or));
    auto admission_or =
        AdmissionGeometry::create(base, std::move(shards), config);
    if (!admission_or.is_ok())
        return admission_or.status();
    return Server(std::move(base), config, std::move(*admission_or));
}

Status
Server::submit(const workload::TimedRequest &timed)
{
    HELM_RETURN_IF_ERROR(validate_timed_request(timed));
    pending_.push_back(timed);
    return Status::ok();
}

const InferenceMetrics *
Server::memo_hit(const MemoKey &key) const
{
    const auto cached = memo_.find(key);
    if (cached != memo_.end() &&
        (!telemetry_ || extras_.count(key) > 0))
        return &cached->second;
    return nullptr;
}

Result<Seconds>
Server::probe_time(std::uint64_t count, std::uint64_t prompt,
                   std::uint64_t output, Seconds InferenceMetrics::*field)
{
    if (const InferenceMetrics *cached =
            memo_hit(std::make_tuple(count, prompt, output)))
        return cached->*field;
    workload::Batch probe;
    for (std::uint64_t i = 0; i < count; ++i)
        probe.requests.push_back(workload::Request{i, prompt, output, 0});
    const auto metrics = run_batch(probe);
    if (!metrics.is_ok())
        return metrics.status();
    return (*metrics).*field;
}

Result<InferenceMetrics>
Server::run_batch(const workload::Batch &batch)
{
    if (batch.size() == 0)
        return Status::invalid_argument("cannot run an empty batch");
    const MemoKey key = std::make_tuple(batch.size(),
                                        batch.max_prompt_tokens(),
                                        batch.max_output_tokens());
    if (const InferenceMetrics *cached = memo_hit(key))
        return *cached;

    // A fresh batch signature on a warm server marks a steady-state
    // boundary: batch re-formation changed the decode timeline digest,
    // so the step cache cannot replay and must simulate this shape.
    if (!memo_.empty()) {
        step_cache().note_invalidation(
            StepCacheInvalidation::kBatchReformation);
    }

    ServingSpec spec = base_;
    spec.batch = batch.size();
    spec.shape = batch.shape();
    spec.repeats = 1;
    // Records are rebuilt from the event timeline after the run, so
    // keeping them for telemetry cannot perturb the simulated timing.
    spec.keep_records = telemetry_;
    auto run = simulate_inference(spec);
    if (!run.is_ok())
        return run.status();
    h2d_rate_ = run->h2d_rate;
    if (telemetry_) {
        BatchExtras extras;
        extras.attribution =
            attribute_records(run->records, base_.gpu.layer_overhead,
                              run->metrics.total_time);
        extras.records = std::move(run->records);
        extras_.insert_or_assign(key, std::move(extras));
    }
    memo_.emplace(key, run->metrics);
    return run->metrics;
}

Result<ServingReport>
Server::serve()
{
    if (config_.scheduler == SchedulerKind::kFcfs)
        return run_fcfs();
    return run_continuous();
}

Result<ServingReport>
Server::run_fcfs()
{
    sort_by_arrival(pending_);

    ServingReport report;
    report.submitted = pending_.size();
    if (pending_.empty())
        return report;

    HELM_RETURN_IF_ERROR(serve_fcfs(
        pending_, config_, admission_, report,
        [this](const workload::Batch &batch, Seconds launch,
               std::uint64_t batch_index) -> Result<BatchTiming> {
            const auto metrics = run_batch(batch);
            if (!metrics.is_ok())
                return metrics.status();
            if (telemetry_) {
                const BatchExtras &extras = extras_.at(std::make_tuple(
                    batch.size(), batch.max_prompt_tokens(),
                    batch.max_output_tokens()));
                // Each launch occupies the engine for the batch's whole
                // wall; accumulating the memoized attribution keeps the
                // sum exact — idle closes the gap to the makespan below.
                attribution_.merge(extras.attribution);
                if (collect_records_) {
                    for (LayerStepRecord rec : extras.records) {
                        rec.batch_index = batch_index;
                        rec.transfer_start += launch;
                        rec.step_start += launch;
                        rec.step_end += launch;
                        records_.push_back(std::move(rec));
                    }
                }
            }
            return BatchTiming{metrics->ttft, metrics->tbt,
                               launch + metrics->total_time};
        }));
    pending_.clear();

    if (telemetry_) {
        // Batches serialize through free_t and the makespan clock opens
        // at the first arrival, so makespan >= summed batch walls; the
        // difference is engine idle time.  max() guards FP rounding.
        const Seconds busy = attribution_.wall();
        attribution_.add_idle(std::max(0.0, report.makespan - busy));
        attribution_.set_wall(std::max(report.makespan, busy));
    }
    return report;
}

} // namespace helm::runtime
