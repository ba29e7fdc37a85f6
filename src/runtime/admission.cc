#include "runtime/admission.h"

#include <string>

#include "kvcache/kvcache.h"
#include "runtime/planner.h"

namespace helm::runtime {

Status
validate_timed_request(const workload::TimedRequest &timed)
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
    return Status::ok();
}

void
sort_by_arrival(std::vector<workload::TimedRequest> &pending)
{
    std::stable_sort(pending.begin(), pending.end(),
                     [](const workload::TimedRequest &a,
                        const workload::TimedRequest &b) {
                         return a.arrival < b.arrival;
                     });
}

Result<AdmissionGeometry>
AdmissionGeometry::create(const ServingSpec &base,
                          std::vector<ShardGeometry> shards,
                          const ServingConfig &config)
{
    constexpr std::uint64_t kUnbounded =
        std::numeric_limits<std::uint64_t>::max();
    AdmissionGeometry out;
    out.micro_batches_ = base.micro_batches;
    out.gpu_ = base.gpu;
    out.compress_weights_ = base.compress_weights;
    out.kv_on_gpu_ = base.kv_resident_on_gpu();
    std::uint64_t weakest = kUnbounded;
    std::uint64_t request_slots = kUnbounded;
    for (const ShardGeometry &geo : shards) {
        std::uint64_t ceiling =
            config.auto_max_batch ? 0 : config.max_batch;
        if (ceiling == 0) {
            // Auto-size against the planner's KV-capacity math: the
            // largest effective batch that fits HBM with every weight
            // spilled off.
            const std::uint64_t slots = runtime::max_batch(
                base.gpu, geo.kv_model, geo.layers,
                /*gpu_weight_bytes=*/0, base.shape, base.compress_weights,
                /*limit=*/4096, base.kv_resident_on_gpu());
            if (slots == 0) {
                return Status::capacity_exceeded(
                    "not even one request fits the GPU at the template "
                    "shape; cannot auto-size the scheduler batch");
            }
            ceiling =
                std::max<std::uint64_t>(slots / base.micro_batches, 1);
        }

        // Managed KV tiers additionally bound admission by block
        // capacity.  Resolve the GPU tier's auto capacity the way the
        // engine will — the HBM the planner leaves free at the
        // ceiling's effective batch, with every weight spilled off —
        // then ask the manager how many template-shape requests the
        // tiers hold.
        if (base.kv_cache.has_value()) {
            kvcache::KvCacheConfig kv_config = base.kv_config();
            for (kvcache::TierSpec &tier : kv_config.tiers) {
                if (tier.is_gpu && tier.auto_capacity) {
                    const GpuBudget budget = compute_gpu_budget(
                        base.gpu, geo.kv_model, geo.layers,
                        /*gpu_weight_bytes=*/0, base.shape,
                        ceiling * base.micro_batches,
                        base.compress_weights, /*kv_on_gpu=*/false);
                    tier.capacity =
                        std::max<Bytes>(budget.free_bytes(), 1);
                    tier.auto_capacity = false;
                }
            }
            auto manager_or =
                kvcache::KvCacheManager::create(kv_config, geo.kv_model);
            if (!manager_or.is_ok())
                return manager_or.status();
            const kvcache::KvCacheManager &manager = *manager_or;
            const std::uint64_t max_context =
                base.shape.prompt_tokens + base.shape.output_tokens;
            const std::uint64_t slots =
                manager.request_slots(max_context, /*limit=*/4096);
            if (slots / base.micro_batches == 0) {
                return Status::capacity_exceeded(
                    "managed KV tiers cannot hold even one request of "
                    "the template shape (" +
                    std::to_string(max_context) + " tokens x " +
                    std::to_string(base.micro_batches) +
                    " micro-batches)");
            }
            out.kv_block_tokens_ = kv_config.block_tokens;
            bool unbounded = false;
            std::uint64_t total_blocks = 0;
            for (const kvcache::TierSpec &tier : kv_config.tiers) {
                if (tier.capacity == 0)
                    unbounded = true;
                else
                    total_blocks += tier.capacity / manager.block_bytes();
            }
            if (!unbounded) {
                out.kv_capacity_blocks_ =
                    std::min(out.kv_capacity_blocks_, total_blocks);
                request_slots = std::min(request_slots, slots);
                ceiling = std::min(ceiling, slots / base.micro_batches);
            }
        }
        // The weakest slice bounds admission.
        weakest = std::min(weakest, ceiling);
    }
    out.max_batch_ = weakest;
    out.kv_request_slots_ =
        request_slots == kUnbounded ? 0 : request_slots;
    out.shards_ = std::move(shards);
    return out;
}

std::uint64_t
AdmissionGeometry::hbm_request_slots(std::uint64_t prompt,
                                     std::uint64_t output)
{
    const auto key = std::make_pair(prompt, output);
    const auto cached = hbm_slots_.find(key);
    if (cached != hbm_slots_.end())
        return cached->second;
    model::SequenceShape shape;
    shape.prompt_tokens = prompt;
    shape.output_tokens = output;
    std::uint64_t slots = std::numeric_limits<std::uint64_t>::max();
    for (const ShardGeometry &geo : shards_) {
        slots = std::min(
            slots, runtime::max_batch(gpu_, geo.kv_model, geo.layers,
                             /*gpu_weight_bytes=*/0, shape,
                             compress_weights_,
                             /*limit=*/max_batch_ * micro_batches_,
                             kv_on_gpu_) /
                       micro_batches_);
    }
    hbm_slots_.emplace(key, slots);
    return slots;
}

void
AdmissionGeometry::form_batch(
    std::deque<std::size_t> &queue,
    const std::vector<workload::TimedRequest> &pending,
    ServingReport &report, workload::Batch &batch,
    std::vector<std::size_t> &members)
{
    batch.requests.clear();
    members.clear();
    std::uint64_t max_context = 0;
    std::uint64_t max_prompt = 0, max_output = 0;
    while (!queue.empty() && batch.size() < max_batch_) {
        const workload::Request &request = pending[queue.front()].request;
        // KV admission: the engine pads every member to the batch's
        // longest context, so a member joins only while the padded
        // batch still fits the managed tiers' block capacity.
        const std::uint64_t context =
            request.prompt_tokens + request.output_tokens;
        if (!kv_fits(1, context)) {
            // Can never fit, alone or otherwise: shed it.
            report.rejected_ids.push_back(request.id);
            ++report.kv_rejected;
            queue.pop_front();
            continue;
        }
        const std::uint64_t grown = std::max(max_context, context);
        if (!kv_fits(batch.size() + 1, grown))
            break; // batch full by KV capacity
        // HBM admission: the engine pads every member to the batch's
        // longest prompt and output and refuses a batch that does not
        // fit HBM even with every weight spilled off.
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
}

void
record_batch(ServingReport &report,
             const std::vector<workload::TimedRequest> &pending,
             const std::vector<std::size_t> &members,
             std::uint64_t batch_index, Seconds launch,
             const BatchTiming &timing, const ServingConfig &config)
{
    for (std::size_t member : members) {
        const workload::TimedRequest &timed = pending[member];
        RequestMetrics r;
        r.id = timed.request.id;
        r.tenant = timed.request.tenant;
        r.prompt_tokens = timed.request.prompt_tokens;
        r.output_tokens = timed.request.output_tokens;
        r.batch_index = batch_index;
        r.arrival = timed.arrival;
        r.queueing_delay = launch - timed.arrival;
        r.ttft = r.queueing_delay + timing.ttft;
        r.tbt = timing.tbt;
        r.e2e_latency = timing.done - timed.arrival;
        r.slo_met =
            (!config.enforce_ttft || r.ttft <= config.ttft_target) &&
            (!config.enforce_e2e || r.e2e_latency <= config.e2e_target);
        r.deadline = timed.deadline;
        r.deadline_met =
            timed.deadline == 0.0 || timing.done <= timed.deadline;
        report.requests.push_back(r);
    }
}

void
finalize_report(ServingReport &report, Seconds last_completion,
                std::uint64_t batch_members)
{
    report.completed = report.requests.size();
    report.rejected = report.rejected_ids.size();
    report.mean_batch_size =
        report.batches_formed > 0
            ? static_cast<double>(batch_members) /
                  static_cast<double>(report.batches_formed)
            : 0.0;
    // Makespan: first arrival to last completion.  Tokens are the
    // requests' own generation budgets — padding is engine overhead,
    // not served traffic.
    if (!report.requests.empty()) {
        Seconds first_arrival = report.requests.front().arrival;
        for (const RequestMetrics &r : report.requests)
            first_arrival = std::min(first_arrival, r.arrival);
        report.makespan = last_completion - first_arrival;
    }
    std::uint64_t slo_tokens = 0;
    std::uint64_t slo_met_count = 0;
    for (const RequestMetrics &r : report.requests) {
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
}

} // namespace helm::runtime
