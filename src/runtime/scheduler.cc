#include "runtime/scheduler.h"

#include <algorithm>
#include <deque>
#include <limits>
#include <utility>

#include "common/summary.h"
#include "runtime/instrument.h"
#include "runtime/step_cache.h"

namespace helm::runtime {

namespace {

std::vector<double>
collect(const std::vector<RequestMetrics> &requests,
        Seconds RequestMetrics::*field)
{
    std::vector<double> values;
    values.reserve(requests.size());
    for (const auto &r : requests)
        values.push_back(r.*field);
    return values;
}

} // namespace

Status
SchedulerPolicy::validate() const
{
    if (max_queue_length < 1)
        return Status::invalid_argument("max_queue_length must be >= 1");
    if (max_queue_delay < 0.0)
        return Status::invalid_argument("max_queue_delay must be >= 0");
    return Status::ok();
}

Seconds
ServingReport::queueing_delay_percentile(double p) const
{
    return percentile_nearest_rank(
        collect(requests, &RequestMetrics::queueing_delay), p);
}

Seconds
ServingReport::ttft_percentile(double p) const
{
    return percentile_nearest_rank(collect(requests, &RequestMetrics::ttft),
                                   p);
}

Seconds
ServingReport::tbt_percentile(double p) const
{
    return percentile_nearest_rank(collect(requests, &RequestMetrics::tbt),
                                   p);
}

Seconds
ServingReport::e2e_percentile(double p) const
{
    return percentile_nearest_rank(
        collect(requests, &RequestMetrics::e2e_latency), p);
}

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

    auto layers = model::build_layers(
        base.model, base.compress_weights ? model::DataType::kInt4Grouped
                                          : model::DataType::kFp16);
    std::uint64_t ceiling = config.auto_max_batch ? 0 : config.max_batch;
    if (ceiling == 0) {
        // Auto-size against the planner's KV-capacity math: the largest
        // effective batch that fits HBM with every weight spilled off.
        const std::uint64_t slots = max_batch(
            base.gpu, base.model, layers, /*gpu_weight_bytes=*/0,
            base.shape, base.compress_weights, /*limit=*/4096,
            base.kv_resident_on_gpu());
        if (slots == 0) {
            return Status::capacity_exceeded(
                "not even one request fits the GPU at the template "
                "shape; cannot auto-size the scheduler batch");
        }
        ceiling = std::max<std::uint64_t>(slots / base.micro_batches, 1);
    }

    // Managed KV tiers additionally bound admission by block capacity.
    // Resolve the GPU tier's auto capacity the way the engine will —
    // the HBM the planner leaves free at the ceiling's effective batch,
    // with every weight spilled off — then ask the manager how many
    // template-shape requests the tiers hold.
    std::uint64_t kv_block_tokens = 0;
    std::uint64_t kv_capacity_blocks =
        std::numeric_limits<std::uint64_t>::max();
    std::uint64_t kv_request_slots = 0;
    if (base.kv_cache.has_value()) {
        kvcache::KvCacheConfig kv_config = base.kv_config();
        for (kvcache::TierSpec &tier : kv_config.tiers) {
            if (tier.is_gpu && tier.auto_capacity) {
                const GpuBudget budget = compute_gpu_budget(
                    base.gpu, base.model, layers, /*gpu_weight_bytes=*/0,
                    base.shape, ceiling * base.micro_batches,
                    base.compress_weights, /*kv_on_gpu=*/false);
                tier.capacity = std::max<Bytes>(budget.free_bytes(), 1);
                tier.auto_capacity = false;
            }
        }
        auto manager_or =
            kvcache::KvCacheManager::create(kv_config, base.model);
        if (!manager_or.is_ok())
            return manager_or.status();
        const kvcache::KvCacheManager &manager = *manager_or;
        const std::uint64_t max_context =
            base.shape.prompt_tokens + base.shape.output_tokens;
        const std::uint64_t slots =
            manager.request_slots(max_context, /*limit=*/4096);
        if (slots / base.micro_batches == 0) {
            return Status::capacity_exceeded(
                "managed KV tiers cannot hold even one request of the "
                "template shape (" + std::to_string(max_context) +
                " tokens x " + std::to_string(base.micro_batches) +
                " micro-batches)");
        }
        kv_block_tokens = kv_config.block_tokens;
        bool unbounded = false;
        std::uint64_t total_blocks = 0;
        for (const kvcache::TierSpec &tier : kv_config.tiers) {
            if (tier.capacity == 0)
                unbounded = true;
            else
                total_blocks += tier.capacity / manager.block_bytes();
        }
        if (!unbounded) {
            kv_capacity_blocks = total_blocks;
            kv_request_slots = slots;
            ceiling = std::min(ceiling, slots / base.micro_batches);
        }
    }

    Server server(std::move(base), config, ceiling);
    server.layers_ = std::move(layers);
    server.kv_block_tokens_ = kv_block_tokens;
    server.kv_capacity_blocks_ = kv_capacity_blocks;
    server.kv_request_slots_ = kv_request_slots;
    return server;
}

Result<Server>
Server::create(ServingSpec base, SchedulerPolicy policy, SloSpec slo)
{
    // Legacy knobs validate under their historical messages before the
    // conversion so pre-PR-6 callers see unchanged errors.
    HELM_RETURN_IF_ERROR(policy.validate());
    return create(std::move(base), ServingConfig::from_legacy(policy, slo));
}

Status
Server::submit(const workload::TimedRequest &timed)
{
    if (timed.arrival < 0.0)
        return Status::invalid_argument("arrival time must be >= 0");
    if (timed.request.prompt_tokens < 1 ||
        timed.request.output_tokens < 1) {
        return Status::invalid_argument(
            "prompt and output token counts must be >= 1");
    }
    if (timed.deadline != 0.0 && timed.deadline < timed.arrival) {
        return Status::invalid_argument(
            "a request deadline must not precede its arrival");
    }
    pending_.push_back(timed);
    return Status::ok();
}

std::uint64_t
Server::hbm_request_slots(std::uint64_t prompt, std::uint64_t output)
{
    const auto key = std::make_pair(prompt, output);
    const auto cached = hbm_slots_.find(key);
    if (cached != hbm_slots_.end())
        return cached->second;
    model::SequenceShape shape;
    shape.prompt_tokens = prompt;
    shape.output_tokens = output;
    const std::uint64_t slots =
        max_batch(base_.gpu, base_.model, layers_, /*gpu_weight_bytes=*/0,
                  shape, base_.compress_weights,
                  /*limit=*/max_batch_ * base_.micro_batches,
                  base_.kv_resident_on_gpu()) /
        base_.micro_batches;
    hbm_slots_.emplace(key, slots);
    return slots;
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
    std::stable_sort(pending_.begin(), pending_.end(),
                     [](const workload::TimedRequest &a,
                        const workload::TimedRequest &b) {
                         return a.arrival < b.arrival;
                     });

    ServingReport report;
    report.submitted = pending_.size();
    if (pending_.empty())
        return report;

    const std::uint64_t cap = config_.max_queue_length;
    // The batch can never outgrow the queue that feeds it.
    const std::uint64_t slots = std::min(max_batch_, cap);
    constexpr Seconds kNever = std::numeric_limits<Seconds>::infinity();

    std::deque<std::size_t> queue; // indices into pending_, FCFS
    std::size_t next_arrival = 0;  // first request not yet admitted
    Seconds free_t = 0.0;          // when the engine can next launch
    Seconds last_completion = pending_.front().arrival;

    // Admit every arrival up to virtual time @p t, shedding requests
    // that find the queue at capacity.
    auto admit_until = [&](Seconds t) {
        while (next_arrival < pending_.size() &&
               pending_[next_arrival].arrival <= t) {
            if (queue.size() < cap) {
                queue.push_back(next_arrival);
                report.max_queue_depth = std::max<std::uint64_t>(
                    report.max_queue_depth, queue.size());
            } else {
                report.rejected_ids.push_back(
                    pending_[next_arrival].request.id);
            }
            ++next_arrival;
        }
    };

    while (!queue.empty() || next_arrival < pending_.size()) {
        if (queue.empty()) {
            admit_until(pending_[next_arrival].arrival);
            continue;
        }
        const workload::TimedRequest &head = pending_[queue.front()];
        const Seconds ready = std::max(head.arrival, free_t);
        admit_until(ready); // arrivals while the engine was busy

        // Launch when the batch fills, when the head has waited
        // max_queue_delay past the moment it could start, or once no
        // further arrival can join — whichever comes first.
        Seconds launch = ready;
        if (queue.size() < slots) {
            const Seconds deadline =
                std::max(ready, head.arrival + config_.max_queue_delay);
            const std::size_t needed = slots - queue.size();
            const std::size_t filler = next_arrival + needed - 1;
            const Seconds full_at = filler < pending_.size()
                                        ? pending_[filler].arrival
                                        : kNever;
            launch = std::max(ready, std::min(deadline, full_at));
            admit_until(launch);
        }

        // KV admission: the engine pads every member to the batch's
        // longest context, so a member joins only while the padded
        // batch still fits the managed tiers' block capacity.
        const bool kv_bounded =
            kv_block_tokens_ > 0 &&
            kv_capacity_blocks_ !=
                std::numeric_limits<std::uint64_t>::max();
        auto padded_blocks = [this](std::uint64_t count,
                                    std::uint64_t context) {
            const std::uint64_t blocks =
                (context + kv_block_tokens_ - 1) / kv_block_tokens_;
            return count * blocks * base_.micro_batches;
        };

        workload::Batch batch;
        std::vector<std::size_t> members;
        std::uint64_t max_context = 0;
        std::uint64_t max_prompt = 0, max_output = 0;
        while (!queue.empty() && batch.size() < max_batch_) {
            const workload::Request &request =
                pending_[queue.front()].request;
            std::uint64_t grown = max_context;
            if (kv_bounded) {
                const std::uint64_t context =
                    request.prompt_tokens + request.output_tokens;
                if (padded_blocks(1, context) > kv_capacity_blocks_) {
                    // Can never fit, alone or otherwise: shed it.
                    report.rejected_ids.push_back(request.id);
                    ++report.kv_rejected;
                    queue.pop_front();
                    continue;
                }
                grown = std::max(max_context, context);
                if (padded_blocks(batch.size() + 1, grown) >
                    kv_capacity_blocks_)
                    break; // batch full by KV capacity
            }
            // HBM admission: the engine pads every member to the
            // batch's longest prompt and output and refuses a batch that
            // does not fit HBM even with every weight spilled off.
            const std::uint64_t prompt =
                std::max(max_prompt, request.prompt_tokens);
            const std::uint64_t output =
                std::max(max_output, request.output_tokens);
            if (batch.size() + 1 > hbm_request_slots(prompt, output)) {
                if (!batch.requests.empty())
                    break; // batch full by HBM capacity
                // Does not fit alone: shed it.
                report.rejected_ids.push_back(request.id);
                ++report.hbm_rejected;
                queue.pop_front();
                continue;
            }
            max_context = grown;
            max_prompt = prompt;
            max_output = output;
            members.push_back(queue.front());
            batch.requests.push_back(request);
            queue.pop_front();
        }
        if (members.empty())
            continue; // every candidate was shed

        const auto metrics = run_batch(batch);
        if (!metrics.is_ok())
            return metrics.status();
        const Seconds done = launch + metrics->total_time;

        for (std::size_t member : members) {
            const workload::TimedRequest &timed = pending_[member];
            RequestMetrics r;
            r.id = timed.request.id;
            r.tenant = timed.request.tenant;
            r.prompt_tokens = timed.request.prompt_tokens;
            r.output_tokens = timed.request.output_tokens;
            r.batch_index = report.batches_formed;
            r.arrival = timed.arrival;
            r.queueing_delay = launch - timed.arrival;
            r.ttft = r.queueing_delay + metrics->ttft;
            r.tbt = metrics->tbt;
            r.e2e_latency = done - timed.arrival;
            r.slo_met = (!config_.enforce_ttft ||
                         r.ttft <= config_.ttft_target) &&
                        (!config_.enforce_e2e ||
                         r.e2e_latency <= config_.e2e_target);
            r.deadline = timed.deadline;
            r.deadline_met = timed.deadline == 0.0 || done <= timed.deadline;
            report.requests.push_back(r);
        }
        if (telemetry_) {
            const auto batch_key = std::make_tuple(
                batch.size(), batch.max_prompt_tokens(),
                batch.max_output_tokens());
            const BatchExtras &extras = extras_.at(batch_key);
            // Each launch occupies the engine for the batch's whole
            // wall; accumulating the memoized attribution keeps the
            // sum exact — idle closes the gap to the makespan below.
            attribution_.merge(extras.attribution);
            if (collect_records_) {
                for (LayerStepRecord rec : extras.records) {
                    rec.batch_index = report.batches_formed;
                    rec.transfer_start += launch;
                    rec.step_start += launch;
                    rec.step_end += launch;
                    records_.push_back(std::move(rec));
                }
            }
        }
        ++report.batches_formed;
        free_t = done;
        last_completion = done;
    }
    pending_.clear();

    report.completed = report.requests.size();
    report.rejected = report.rejected_ids.size();
    report.mean_batch_size =
        report.batches_formed > 0
            ? static_cast<double>(report.completed) /
                  static_cast<double>(report.batches_formed)
            : 0.0;
    // Makespan: first arrival to last completion.  Tokens are the
    // requests' own generation budgets — padding is engine overhead,
    // not served traffic.
    const Seconds first_arrival =
        report.requests.empty() ? 0.0 : report.requests.front().arrival;
    report.makespan = last_completion - first_arrival;
    std::uint64_t slo_tokens = 0;
    std::uint64_t slo_met_count = 0;
    for (const auto &r : report.requests) {
        report.total_tokens += r.output_tokens;
        if (r.slo_met) {
            slo_tokens += r.output_tokens;
            ++slo_met_count;
        }
    }
    if (report.makespan > 0.0) {
        report.throughput =
            static_cast<double>(report.total_tokens) / report.makespan;
        report.goodput =
            static_cast<double>(slo_tokens) / report.makespan;
    }
    report.slo_attainment =
        report.completed > 0
            ? static_cast<double>(slo_met_count) /
                  static_cast<double>(report.completed)
            : 0.0;
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
