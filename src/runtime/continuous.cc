/**
 * @file
 * Iteration-level continuous batching and EDF preemption for
 * `runtime::Server` (SchedulerKind::kContinuous / kEdf).
 *
 * The FCFS batcher (scheduler.cc) runs a formed batch to completion, so
 * a 21-token request admitted next to a 512-token one pays the long
 * tail.  Here the running batch re-forms at every iteration boundary:
 *
 *  - finished requests retire immediately and free their slot;
 *  - free slots admit new prefills (continuous: tenant queues drain
 *    round-robin; edf: globally by earliest deadline);
 *  - under edf a waiting request with a strictly earlier deadline may
 *    preempt a running one — the victim's KV pages demote to the host
 *    tiers over the d2h channel and promote back over h2d when it is
 *    rescheduled, with any transfer time the iteration clock cannot
 *    hide charged as exposed swap stall.
 *
 * Iteration costs come from the same DES engine the FCFS path uses, as
 * memoized probes through run_batch():
 *
 *  - a prefill of k requests padded to prompt p costs the TTFT of
 *    simulate(batch=k, shape=(p, 1));
 *  - a decode step of m requests at context c costs the TBT of
 *    simulate(batch=m, shape=(bucket(c), 2)) — the context is bucketed
 *    to KV-block multiples so the probe memo stays small while the
 *    cost still grows with the live context.
 *
 * This keeps the per-iteration timing consistent with the engine's
 * placement/contention model (the probes contend on the same simulated
 * fabrics) without re-deriving a second analytical cost model.
 *
 * Host cost.  An iteration costs O(R log R + A log W + S) for R running
 * members, A admitted or preempted requests, W waiting + swapped
 * requests and S candidates the greedy fill skips, never O(W):
 *
 *  - EDF keeps one ordered index of the non-running candidates
 *    (waiting + swapped), keyed (edf_key(deadline), arrival, id).  A
 *    request enters it on arrival and on preemption and leaves it when
 *    it is scheduled.  A boundary sorts only the R running members and
 *    merges them with the index: a running member precedes an indexed
 *    one iff its key is <=, which yields the fill's (deadline,
 *    running-first, arrival, id) priority order.
 *  - The greedy fill stops as soon as the batch holds max_batch
 *    members, or when a candidate whose full context does not exceed
 *    the batch's current maximum fails the fit: padded_blocks is
 *    monotone in count and context, so no later candidate can fit
 *    either.  A larger-context candidate that fails is skipped and the
 *    scan goes on, since a smaller one behind it may still fit.
 *  - An admitted waiting request leaves its tenant queue lazily: the
 *    queue's stale fronts are dropped whenever the live front is read
 *    (round-robin fill, starvation check).
 *  - Per-iteration vectors live outside the loop, the per-request
 *    `taken` flags are cleared only where they were set, and a probe
 *    that hits the memo builds no batch and copies no metrics.
 */
#include "runtime/scheduler.h"

#include <algorithm>
#include <deque>
#include <limits>
#include <set>
#include <tuple>
#include <utility>

#include "mem/host_system.h"
#include "model/footprint.h"
#include "runtime/step_cache.h"

namespace helm::runtime {

namespace {

constexpr Seconds kInf = std::numeric_limits<Seconds>::infinity();

/** Deadline key for EDF ordering: "no deadline" sorts last. */
Seconds
edf_key(Seconds deadline)
{
    return deadline == 0.0 ? kInf : deadline;
}

/** Scheduler-side view of one submitted request's progress. */
struct ReqState
{
    Seconds deadline = 0.0;     //!< absolute; 0 = none
    std::uint64_t generated = 0; //!< tokens produced so far
    Seconds first_token = -1.0;
    Seconds first_sched = -1.0; //!< first iteration it was scheduled
    std::uint64_t preemptions = 0;
    std::uint64_t prefill_iter = 0; //!< iteration of its prefill
    bool prefilled = false;  //!< KV resident (prefill done)
    bool promoting = false;  //!< swap-in in flight
    bool queued = false;     //!< live entry of its tenant queue
    bool running = false;    //!< holds a slot (incl. promoting)
    bool swapped = false;    //!< preempted, KV on the host tiers
    bool taken = false;      //!< chosen at the current boundary
    Seconds ready_at = 0.0;  //!< when the promotion completes
};

/** An EDF candidate: its place in the (deadline, arrival, id) order
 *  plus its index into the pending list (the tie-break of last resort,
 *  so the order stays total even when two requests share an id). */
struct Candidate
{
    Seconds key;
    Seconds arrival;
    std::uint64_t id;
    std::size_t index;

    bool
    operator<(const Candidate &other) const
    {
        return std::tie(key, arrival, id, index) <
               std::tie(other.key, other.arrival, other.id, other.index);
    }
};

} // namespace

Result<ServingReport>
Server::run_continuous()
{
    sort_by_arrival(pending_);

    ServingReport report;
    report.scheduler = config_.scheduler;
    report.submitted = pending_.size();
    if (pending_.empty())
        return report;

    const bool edf = config_.scheduler == SchedulerKind::kEdf;

    // The swap fabric the preempted KV rides: the same host system the
    // engine models, demote (d2h) and promote (h2d) as separate
    // busy-until channels so back-to-back swaps queue behind each other
    // but the two directions do not contend.
    const mem::HostMemorySystem system =
        base_.custom_cxl_bandwidth.has_value()
            ? mem::HostMemorySystem(
                  "CXL-custom",
                  mem::make_cxl_custom("CXL-custom",
                                       *base_.custom_cxl_bandwidth),
                  nullptr, base_.pcie)
            : mem::make_config(base_.memory, base_.pcie);

    // ---- Per-request state, tenant queues ------------------------------
    const std::size_t total = pending_.size();
    std::vector<ReqState> state(total);
    std::uint64_t tenant_count = std::max<std::uint64_t>(config_.tenants, 1);
    for (std::size_t i = 0; i < total; ++i) {
        tenant_count = std::max(tenant_count,
                                pending_[i].request.tenant + 1);
        state[i].deadline = pending_[i].deadline;
        if (state[i].deadline == 0.0 && config_.has_default_deadline) {
            state[i].deadline =
                pending_[i].arrival + config_.default_deadline;
        }
    }
    std::vector<TenantStats> tenants(tenant_count);
    for (std::uint64_t t = 0; t < tenant_count; ++t)
        tenants[t].tenant = t;
    for (std::size_t i = 0; i < total; ++i)
        ++tenants[pending_[i].request.tenant].submitted;

    // Tenant queues in arrival order.  EDF admits from the middle of a
    // queue; such entries only drop their `queued` flag and are popped
    // once they reach the front (live_front).
    std::vector<std::deque<std::size_t>> waiting(tenant_count);
    std::uint64_t waiting_count = 0;
    auto live_front = [&](std::uint64_t t) -> std::deque<std::size_t> & {
        std::deque<std::size_t> &queue = waiting[t];
        while (!queue.empty() && !state[queue.front()].queued)
            queue.pop_front();
        return queue;
    };
    std::vector<std::size_t> running; // scheduled slots (incl. promoting)
    std::uint64_t swapped_count = 0;  // preempted, KV on the host tiers
    // EDF: every waiting or swapped request, in priority order.
    std::set<Candidate> candidates;
    auto candidate = [&](std::size_t s) {
        return Candidate{edf_key(state[s].deadline), pending_[s].arrival,
                         pending_[s].request.id, s};
    };

    // ---- KV admission geometry (the FCFS bound) -------------------------
    auto full_context = [this](std::size_t s) {
        const workload::Request &r = pending_[s].request;
        return r.prompt_tokens + r.output_tokens;
    };
    auto fits = [&](std::uint64_t count, std::uint64_t ctx) {
        return count <= admission_.max_batch() &&
               admission_.kv_fits(count, ctx);
    };

    // ---- Arrival admission ---------------------------------------------
    std::size_t next_arrival = 0;
    auto admit_until = [&](Seconds t) {
        while (next_arrival < total &&
               pending_[next_arrival].arrival <= t) {
            const workload::Request &rq = pending_[next_arrival].request;
            if (waiting_count >= config_.max_queue_length) {
                report.rejected_ids.push_back(rq.id);
                ++tenants[rq.tenant].rejected;
            } else if (!admission_.kv_fits(1,
                                           full_context(next_arrival))) {
                // Can never fit the managed tiers, alone or otherwise.
                report.rejected_ids.push_back(rq.id);
                ++report.kv_rejected;
                ++tenants[rq.tenant].rejected;
            } else {
                waiting[rq.tenant].push_back(next_arrival);
                state[next_arrival].queued = true;
                if (edf)
                    candidates.insert(candidate(next_arrival));
                ++waiting_count;
                report.max_queue_depth = std::max<std::uint64_t>(
                    report.max_queue_depth, waiting_count);
            }
            ++next_arrival;
        }
    };

    // ---- Iteration cost probes (memoized through probe_time) -----------
    const std::uint64_t bucket_grain = admission_.kv_block_tokens() > 0
                                           ? admission_.kv_block_tokens()
                                           : 16;
    auto bucketed = [&](std::uint64_t tokens) {
        return ((tokens + bucket_grain - 1) / bucket_grain) * bucket_grain;
    };

    // ---- Swap channels --------------------------------------------------
    Seconds demote_free = 0.0;  // d2h channel busy until
    Seconds promote_free = 0.0; // h2d channel busy until
    auto kv_bytes_of = [&](std::size_t s) -> Bytes {
        // The engine accounts micro_batches KV replicas per member
        // (effective requests = batch x micro_batches); swap traffic
        // must move the same bytes the tiers hold.
        const std::uint64_t context =
            pending_[s].request.prompt_tokens + state[s].generated;
        return model::kv_bytes_total(base_.model, context) *
               base_.micro_batches;
    };
    auto charge_exposed = [&](Seconds stall) {
        report.kv_swap_exposed_seconds += stall;
        if (telemetry_) {
            attribution_.add("kv_swap", telemetry::Phase::kKvStall,
                             stall);
        }
    };

    // ---- Main iteration loop -------------------------------------------
    Seconds now = pending_.front().arrival;
    Seconds last_completion = now;
    std::uint64_t member_iterations = 0;
    std::uint64_t rr_tenant = 0; // round-robin pointer (continuous)
    Seconds busy = 0.0;          // summed iteration walls (for idle)
    // Reused across iterations; clear() keeps their capacity.
    std::vector<std::size_t> prefills; // admitted from waiting
    std::vector<std::size_t> chosen;   // EDF slot set, fill order
    std::vector<std::size_t> by_key;   // running members, EDF order
    std::vector<std::size_t> kept;
    std::vector<std::size_t> decoders;

    while (!running.empty() || swapped_count > 0 || waiting_count > 0 ||
           next_arrival < total) {
        if (running.empty() && swapped_count == 0 && waiting_count == 0) {
            now = std::max(now, pending_[next_arrival].arrival);
            admit_until(now);
            continue;
        }
        admit_until(now);

        // Promotions that finished while the previous iteration ran.
        for (std::size_t s : running) {
            if (state[s].promoting && state[s].ready_at <= now)
                state[s].promoting = false;
        }

        // ---- Re-form the slot set at this boundary ---------------------
        prefills.clear();
        Bytes demoted_now = 0, promoted_now = 0;
        if (edf) {
            // Priority (deadline, running-first, arrival, id): a waiting
            // request displaces a running one only with a strictly
            // earlier deadline, so equal-deadline mixes never thrash.
            //
            // A running request mid-promotion or out of preemption
            // budget is pinned: it keeps its slot regardless of
            // deadline order (livelock guard).  The pinned set fit the
            // capacity last boundary and padded contexts are constant,
            // so seeding with it cannot overflow.
            chosen.clear();
            std::uint64_t max_ctx = 0;
            for (std::size_t s : running) {
                if (state[s].promoting ||
                    state[s].preemptions >= config_.max_preemptions) {
                    chosen.push_back(s);
                    state[s].taken = true;
                    max_ctx = std::max(max_ctx, full_context(s));
                }
            }
            // Walk the running members and the candidate index as one
            // merged priority order; on equal deadline keys the running
            // member goes first.
            by_key.assign(running.begin(), running.end());
            std::sort(by_key.begin(), by_key.end(),
                      [&](std::size_t a, std::size_t b) {
                          return candidate(a) < candidate(b);
                      });
            auto next = candidates.begin();
            std::size_t next_running = 0;
            while (chosen.size() < admission_.max_batch()) {
                std::size_t s;
                if (next_running < by_key.size() &&
                    (next == candidates.end() ||
                     edf_key(state[by_key[next_running]].deadline) <=
                         next->key)) {
                    s = by_key[next_running++];
                } else if (next != candidates.end()) {
                    s = (next++)->index;
                } else {
                    break;
                }
                if (state[s].taken)
                    continue;
                const std::uint64_t ctx = std::max(max_ctx, full_context(s));
                if (!fits(chosen.size() + 1, ctx)) {
                    if (ctx == max_ctx)
                        break; // monotone: no later candidate fits
                    continue;  // a smaller-context candidate may still fit
                }
                chosen.push_back(s);
                state[s].taken = true;
                max_ctx = ctx;
            }

            // Preempt running members that lost their slot.
            kept.clear();
            for (std::size_t s : running) {
                if (state[s].taken) {
                    kept.push_back(s);
                    continue;
                }
                ++state[s].preemptions;
                ++report.preemptions;
                ++tenants[pending_[s].request.tenant].preemptions;
                // Both are steady-state boundaries: the preempted
                // request leaves the batch and its KV blocks demote,
                // so the next iteration's timeline digest differs.
                step_cache().note_invalidation(
                    StepCacheInvalidation::kPreemption);
                step_cache().note_invalidation(
                    StepCacheInvalidation::kKvDemotion);
                const Bytes bytes = kv_bytes_of(s);
                report.kv_demoted_bytes += bytes;
                demoted_now += bytes;
                const Seconds start = std::max(now, demote_free);
                demote_free =
                    start +
                    system.gpu_to_host_bw(bytes).transfer_time(bytes);
                report.kv_swap_events.push_back(
                    {pending_[s].request.id, pending_[s].request.tenant,
                     true, bytes, start, demote_free});
                // The demotion is a write-back: the slot frees at the
                // boundary and the d2h drain overlaps the next
                // iteration (the channel busy-until serializes later
                // swaps behind it).
                state[s].running = false;
                state[s].swapped = true;
                ++swapped_count;
                candidates.insert(candidate(s));
            }
            running.swap(kept);

            // Admit the chosen newcomers: swapped ones start their
            // promotion, waiting ones prefill this iteration.
            for (std::size_t s : chosen) {
                state[s].taken = false;
                if (state[s].running)
                    continue;
                candidates.erase(candidate(s));
                if (state[s].swapped) {
                    state[s].swapped = false;
                    --swapped_count;
                    const Bytes bytes = kv_bytes_of(s);
                    report.kv_promoted_bytes += bytes;
                    promoted_now += bytes;
                    ++report.resumes;
                    step_cache().note_invalidation(
                        StepCacheInvalidation::kKvPromotion);
                    const Seconds start = std::max(now, promote_free);
                    promote_free =
                        start +
                        system.host_to_gpu_bw(bytes).transfer_time(bytes);
                    report.kv_swap_events.push_back(
                        {pending_[s].request.id,
                         pending_[s].request.tenant, false, bytes, start,
                         promote_free});
                    state[s].promoting = true;
                    state[s].ready_at = promote_free;
                } else {
                    state[s].queued = false;
                    --waiting_count;
                    prefills.push_back(s);
                }
                state[s].running = true;
                running.push_back(s);
            }
        } else {
            // Continuous: keep every running request, fill free slots
            // round-robin across tenant queues.
            std::uint64_t max_ctx = 0;
            for (std::size_t s : running)
                max_ctx = std::max(max_ctx, full_context(s));
            while (waiting_count > 0) {
                // Next nonempty tenant queue after the round-robin
                // pointer.
                std::uint64_t t = rr_tenant;
                for (std::uint64_t step = 0; step < tenant_count; ++step) {
                    if (!live_front((rr_tenant + step) % tenant_count)
                             .empty()) {
                        t = (rr_tenant + step) % tenant_count;
                        break;
                    }
                }
                const std::size_t s = waiting[t].front();
                const std::uint64_t ctx = std::max(max_ctx, full_context(s));
                if (!fits(running.size() + 1, ctx))
                    break;
                waiting[t].pop_front();
                state[s].queued = false;
                --waiting_count;
                max_ctx = ctx;
                state[s].running = true;
                running.push_back(s);
                prefills.push_back(s);
                rr_tenant = (t + 1) % tenant_count;
            }
        }

        // Starvation: a tenant whose head kept waiting while a later
        // arrival was admitted this boundary.
        if (!prefills.empty()) {
            Seconds latest_admitted = -kInf;
            for (std::size_t s : prefills)
                latest_admitted =
                    std::max(latest_admitted, pending_[s].arrival);
            for (std::uint64_t t = 0; t < tenant_count; ++t) {
                const std::deque<std::size_t> &queue = live_front(t);
                if (queue.empty())
                    continue;
                if (pending_[queue.front()].arrival < latest_admitted) {
                    ++tenants[t].starvation_events;
                    ++report.starvation_events;
                }
            }
        }
        for (std::size_t s : prefills) {
            if (state[s].first_sched < 0.0) {
                state[s].first_sched = now;
                auto &stats = tenants[pending_[s].request.tenant];
                stats.max_queue_wait =
                    std::max(stats.max_queue_wait,
                             now - pending_[s].arrival);
            }
        }

        // ---- Exposed promotion stalls ----------------------------------
        if (!config_.overlap_kv_swap) {
            // The iteration cannot start until every in-flight
            // promotion lands: the full transfer is exposed.
            Seconds ready = now;
            for (std::size_t s : running) {
                if (state[s].promoting)
                    ready = std::max(ready, state[s].ready_at);
            }
            if (ready > now) {
                charge_exposed(ready - now);
                now = ready;
                for (std::size_t s : running)
                    state[s].promoting = false;
            }
        }

        // ---- Partition the slot set into this iteration's work ---------
        decoders.clear();
        for (std::size_t s : running) {
            if (state[s].prefilled && !state[s].promoting)
                decoders.push_back(s);
        }
        if (decoders.empty() && prefills.empty()) {
            // Everything scheduled is still promoting: advance to the
            // next event.  Waiting on a swap with no other work is an
            // exposed stall by definition.
            Seconds next_ready = kInf;
            for (std::size_t s : running) {
                if (state[s].promoting)
                    next_ready = std::min(next_ready, state[s].ready_at);
            }
            Seconds next_event = next_ready;
            if (next_arrival < total) {
                next_event = std::min(
                    next_event, pending_[next_arrival].arrival);
            }
            if (next_event == kInf || next_event <= now) {
                return Status::internal(
                    "continuous scheduler made no progress at t=" +
                    std::to_string(now));
            }
            if (next_event == next_ready)
                charge_exposed(next_event - now);
            now = next_event;
            continue;
        }

        // ---- Cost the iteration ----------------------------------------
        Seconds prefill_time = 0.0;
        if (!prefills.empty()) {
            std::uint64_t max_prompt = 1;
            for (std::size_t s : prefills)
                max_prompt = std::max(
                    max_prompt, pending_[s].request.prompt_tokens);
            const auto cost =
                probe_time(prefills.size(), bucketed(max_prompt), 1,
                           &InferenceMetrics::ttft);
            if (!cost.is_ok())
                return cost.status();
            prefill_time = *cost;
        }
        Seconds decode_time = 0.0;
        if (!decoders.empty()) {
            std::uint64_t max_context = 1;
            for (std::size_t s : decoders) {
                max_context = std::max(
                    max_context, pending_[s].request.prompt_tokens +
                                     state[s].generated);
            }
            const auto cost =
                probe_time(decoders.size(), bucketed(max_context), 2,
                           &InferenceMetrics::tbt);
            if (!cost.is_ok())
                return cost.status();
            decode_time = *cost;
        }
        const Seconds iter_end = now + prefill_time + decode_time;
        const std::uint64_t iter_index = report.iterations;
        ++report.iterations;
        member_iterations += prefills.size() + decoders.size();
        busy += iter_end - now;

        // ---- Advance tokens --------------------------------------------
        for (std::size_t s : prefills) {
            state[s].prefilled = true;
            state[s].generated = 1; // prefill emits the first token
            state[s].first_token = now + prefill_time;
            state[s].prefill_iter = iter_index;
        }
        for (std::size_t s : decoders)
            ++state[s].generated;

        if (telemetry_) {
            if (prefill_time > 0.0) {
                attribution_.add("prefill", telemetry::Phase::kCompute,
                                 prefill_time);
            }
            if (decode_time > 0.0) {
                attribution_.add("decode", telemetry::Phase::kCompute,
                                 decode_time);
            }
            if (collect_records_) {
                LayerStepRecord rec;
                rec.batch_index = iter_index;
                rec.token = iter_index;
                rec.stage = prefills.empty() ? gpu::Stage::kDecode
                                             : gpu::Stage::kPrefill;
                rec.compute_time = prefill_time + decode_time;
                rec.transfer_start = now;
                rec.step_start = now;
                rec.step_end = iter_end;
                rec.kv_read_bytes = promoted_now;
                rec.kv_write_bytes = demoted_now;
                records_.push_back(rec);
            }
        }

        // ---- Retire completed requests at the boundary -----------------
        kept.clear();
        for (std::size_t s : running) {
            const workload::TimedRequest &timed = pending_[s];
            if (!state[s].prefilled ||
                state[s].generated < timed.request.output_tokens) {
                kept.push_back(s);
                continue;
            }
            state[s].running = false;
            RequestMetrics r;
            r.id = timed.request.id;
            r.tenant = timed.request.tenant;
            r.prompt_tokens = timed.request.prompt_tokens;
            r.output_tokens = timed.request.output_tokens;
            r.batch_index = state[s].prefill_iter;
            r.arrival = timed.arrival;
            r.queueing_delay = state[s].first_sched - timed.arrival;
            r.ttft = state[s].first_token - timed.arrival;
            r.tbt = timed.request.output_tokens > 1
                        ? (iter_end - state[s].first_token) /
                              static_cast<double>(
                                  timed.request.output_tokens - 1)
                        : 0.0;
            r.e2e_latency = iter_end - timed.arrival;
            r.slo_met =
                (!config_.enforce_ttft || r.ttft <= config_.ttft_target) &&
                (!config_.enforce_e2e ||
                 r.e2e_latency <= config_.e2e_target);
            r.deadline = state[s].deadline;
            r.deadline_met =
                state[s].deadline == 0.0 || iter_end <= state[s].deadline;
            r.preemptions = state[s].preemptions;
            auto &stats = tenants[timed.request.tenant];
            ++stats.completed;
            stats.tokens += r.output_tokens;
            stats.mean_ttft += r.ttft; // sum; divided below
            if (r.slo_met)
                ++stats.slo_met;
            if (!r.deadline_met) {
                ++stats.deadline_misses;
                ++report.deadline_misses;
            }
            report.requests.push_back(r);
            last_completion = iter_end;
        }
        running.swap(kept);
        now = iter_end;
    }
    pending_.clear();

    // ---- Aggregates (the FCFS accounting) -------------------------------
    report.batches_formed = report.iterations;
    finalize_report(report, last_completion, member_iterations);

    // Jain fairness over per-tenant generated tokens.
    double sum = 0.0, sum_sq = 0.0;
    for (auto &stats : tenants) {
        if (stats.completed > 0)
            stats.mean_ttft /= static_cast<double>(stats.completed);
        const double x = static_cast<double>(stats.tokens);
        sum += x;
        sum_sq += x * x;
    }
    if (sum > 0.0 && !tenants.empty()) {
        report.jain_fairness =
            (sum * sum) /
            (static_cast<double>(tenants.size()) * sum_sq);
    }
    report.tenants = std::move(tenants);

    if (telemetry_) {
        // Iterations serialize on one engine; the gap between the
        // makespan and the summed iteration walls (plus charged swap
        // stall) is idle.
        const Seconds accounted =
            busy + report.kv_swap_exposed_seconds;
        attribution_.add_idle(
            std::max(0.0, report.makespan - accounted));
        attribution_.set_wall(std::max(report.makespan, accounted));
    }
    return report;
}

} // namespace helm::runtime
