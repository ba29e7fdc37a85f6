/**
 * @file
 * Serving admission: how many requests a batch may hold, which requests
 * can never run, and the FCFS batcher both serving backends share.
 *
 * `runtime::Server` (one GPU) and `cluster::ClusterServer` (N GPUs)
 * size their admission through one AdmissionGeometry, built from the
 * serving template, the GPU slices its batches run on (ShardGeometry)
 * and the ServingConfig:
 *
 *  - the batch ceiling: config.max_batch, or auto-sized from the
 *    planner's GPU-budget math with every weight spilled off;
 *  - the managed-KV block geometry: the engine pads every member to
 *    the batch's longest context, so a batch holds only as many padded
 *    contexts as the tiers have blocks;
 *  - the per-shape HBM slot count: how many requests of a padded
 *    (prompt, output) shape fit the floor compile_schedule() enforces
 *    on the slice, memoized per shape.
 *
 * With several slices (pipeline stages, tensor shards) the weakest
 * bounds admission, so every batch the batcher forms compiles on every
 * GPU.  The FCFS member loop, the launch-time loop, the per-batch
 * RequestMetrics writer and the report finalizer below are the only
 * copies; the continuous/EDF scheduler shares the geometry and the
 * finalizer.
 */
#ifndef HELM_RUNTIME_ADMISSION_H
#define HELM_RUNTIME_ADMISSION_H

#include <algorithm>
#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "gpu/gpu.h"
#include "runtime/metrics.h"
#include "runtime/schedule.h"
#include "runtime/serving_config.h"
#include "workload/arrival.h"
#include "workload/workload.h"

namespace helm::runtime {

/** Reject a request no scheduler can serve: a negative arrival, an
 *  empty prompt or output, or a deadline before the arrival. */
Status validate_timed_request(const workload::TimedRequest &timed);

/** Order @p pending by arrival, keeping submit order among ties. */
void sort_by_arrival(std::vector<workload::TimedRequest> &pending);

/** The admission bounds one serving backend imposes on its batcher.
 *  A default-constructed geometry bounds nothing but the batch
 *  ceiling, 1 (the multi-GPU front end that delegates to Server). */
class AdmissionGeometry
{
  public:
    /**
     * Size admission for @p base running on @p shards (one geometry per
     * distinct GPU slice).  kCapacityExceeded when not even one
     * template-shape request fits the GPU or the managed KV tiers.
     */
    static Result<AdmissionGeometry>
    create(const ServingSpec &base, std::vector<ShardGeometry> shards,
           const ServingConfig &config);

    /** The batch ceiling in force. */
    std::uint64_t max_batch() const { return max_batch_; }

    /** Template-shape requests the managed KV tiers hold at once; 0
     *  when the tiers are unmanaged or some tier is unbounded. */
    std::uint64_t kv_request_slots() const { return kv_request_slots_; }

    /** Tokens per KV block; 0 when the KV cache is unmanaged. */
    std::uint64_t kv_block_tokens() const { return kv_block_tokens_; }

    /** KV blocks @p count members padded to @p context tokens take. */
    std::uint64_t
    padded_blocks(std::uint64_t count, std::uint64_t context) const
    {
        const std::uint64_t blocks =
            (context + kv_block_tokens_ - 1) / kv_block_tokens_;
        return count * blocks * micro_batches_;
    }

    /** Whether @p count members padded to @p context tokens fit the
     *  managed KV tiers (always true when no tier bounds them). */
    bool
    kv_fits(std::uint64_t count, std::uint64_t context) const
    {
        return !kv_bounded() ||
               padded_blocks(count, context) <= kv_capacity_blocks_;
    }

    /**
     * Requests of padded shape (@p prompt, @p output) that fit HBM on
     * every slice with zero resident weights — the floor the engine
     * enforces before it simulates a batch.  Memoized per shape; the
     * search stops at max_batch(), the most a caller can ask for.
     */
    std::uint64_t hbm_request_slots(std::uint64_t prompt,
                                    std::uint64_t output);

    /**
     * Pop the next FCFS batch off the front of @p queue (indices into
     * @p pending) into @p batch and @p members.  A member joins while
     * the batch is under the ceiling and its padded shape still fits
     * the KV tiers and HBM; a request that cannot fit even alone is
     * shed into @p report (kv_rejected / hbm_rejected).  Both outputs
     * come back empty when every candidate was shed.
     */
    void form_batch(std::deque<std::size_t> &queue,
                    const std::vector<workload::TimedRequest> &pending,
                    ServingReport &report, workload::Batch &batch,
                    std::vector<std::size_t> &members);

  private:
    bool
    kv_bounded() const
    {
        return kv_block_tokens_ > 0 &&
               kv_capacity_blocks_ !=
                   std::numeric_limits<std::uint64_t>::max();
    }

    std::uint64_t max_batch_ = 1;
    std::uint64_t micro_batches_ = 1;
    std::uint64_t kv_block_tokens_ = 0;
    /** Whole-request KV blocks the tiers hold; UINT64_MAX when some
     *  tier is unbounded. */
    std::uint64_t kv_capacity_blocks_ =
        std::numeric_limits<std::uint64_t>::max();
    std::uint64_t kv_request_slots_ = 0;
    gpu::GpuSpec gpu_;
    bool compress_weights_ = false;
    bool kv_on_gpu_ = true;
    std::vector<ShardGeometry> shards_;
    /** (prompt, output) -> hbm_request_slots() memo. */
    std::map<std::pair<std::uint64_t, std::uint64_t>, std::uint64_t>
        hbm_slots_;
};

/** What one launched batch cost every member. */
struct BatchTiming
{
    Seconds ttft = 0.0; //!< launch -> first token
    Seconds tbt = 0.0;  //!< mean time between tokens
    Seconds done = 0.0; //!< absolute completion time
};

/** Append one RequestMetrics per member of a batch launched at
 *  @p launch as formed batch @p batch_index. */
void record_batch(ServingReport &report,
                  const std::vector<workload::TimedRequest> &pending,
                  const std::vector<std::size_t> &members,
                  std::uint64_t batch_index, Seconds launch,
                  const BatchTiming &timing, const ServingConfig &config);

/**
 * Fill the aggregates of @p report from its requests: counts, makespan
 * (first arrival to @p last_completion; 0 when nothing completed),
 * tokens, throughput, goodput and SLO attainment.  The mean batch is
 * @p batch_members over batches_formed.
 */
void finalize_report(ServingReport &report, Seconds last_completion,
                     std::uint64_t batch_members);

/**
 * The FCFS dynamic batcher over one queue: serve @p pending (sorted by
 * arrival) to completion and finalize @p report.
 *
 * Arrivals finding max_queue_length requests waiting are shed.  A batch
 * launches once the engine is free and the batch fills, the head has
 * waited max_queue_delay past the moment it could start, or no further
 * arrival can join — whichever comes first.  @p run_batch is the
 * engine: `Result<BatchTiming>(const workload::Batch &, Seconds launch,
 * std::uint64_t batch_index)`.
 */
template <typename RunBatch>
Status
serve_fcfs(const std::vector<workload::TimedRequest> &pending,
           const ServingConfig &config, AdmissionGeometry &admission,
           ServingReport &report, RunBatch &&run_batch)
{
    const std::uint64_t cap = config.max_queue_length;
    // The batch can never outgrow the queue that feeds it.
    const std::uint64_t slots = std::min(admission.max_batch(), cap);
    constexpr Seconds kNever = std::numeric_limits<Seconds>::infinity();

    std::deque<std::size_t> queue; // indices into pending, FCFS
    std::size_t next_arrival = 0;  // first request not yet admitted
    Seconds free_t = 0.0;          // when the engine can next launch
    Seconds last_completion = 0.0;
    workload::Batch batch;
    std::vector<std::size_t> members;

    auto admit_until = [&](Seconds t) {
        while (next_arrival < pending.size() &&
               pending[next_arrival].arrival <= t) {
            if (queue.size() < cap) {
                queue.push_back(next_arrival);
                report.max_queue_depth = std::max<std::uint64_t>(
                    report.max_queue_depth, queue.size());
            } else {
                report.rejected_ids.push_back(
                    pending[next_arrival].request.id);
            }
            ++next_arrival;
        }
    };

    while (!queue.empty() || next_arrival < pending.size()) {
        if (queue.empty()) {
            admit_until(pending[next_arrival].arrival);
            continue;
        }
        const workload::TimedRequest &head = pending[queue.front()];
        const Seconds ready = std::max(head.arrival, free_t);
        admit_until(ready); // arrivals while the engine was busy

        Seconds launch = ready;
        if (queue.size() < slots) {
            const Seconds deadline =
                std::max(ready, head.arrival + config.max_queue_delay);
            const std::size_t needed = slots - queue.size();
            const std::size_t filler = next_arrival + needed - 1;
            const Seconds full_at = filler < pending.size()
                                        ? pending[filler].arrival
                                        : kNever;
            launch = std::max(ready, std::min(deadline, full_at));
            admit_until(launch);
        }

        admission.form_batch(queue, pending, report, batch, members);
        if (members.empty())
            continue; // every candidate was shed

        const Result<BatchTiming> timing =
            run_batch(batch, launch, report.batches_formed);
        if (!timing.is_ok())
            return timing.status();
        record_batch(report, pending, members, report.batches_formed,
                     launch, *timing, config);
        ++report.batches_formed;
        free_t = timing->done;
        last_completion = timing->done;
    }
    finalize_report(report, last_completion, report.requests.size());
    return Status::ok();
}

} // namespace helm::runtime

#endif // HELM_RUNTIME_ADMISSION_H
