#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <tuple>

namespace perfbench {

namespace {

std::string
fmt(const char *format, double a, double b = 0.0, double c = 0.0)
{
    char buf[256];
    std::snprintf(buf, sizeof buf, format, a, b, c);
    return buf;
}

bool
close_rel(double a, double b, double rel)
{
    return std::fabs(a - b) <= rel * std::max(std::fabs(a), std::fabs(b));
}

} // namespace

// ---- gateway_steady ----------------------------------------------------

void
check_gateway(const GatewayOutcome &o, Failures &failures)
{
    if (o.shed != 0)
        failures.push_back(fmt("gateway: %.0f turns shed", double(o.shed)));
    if (o.completed < o.target_turns) {
        failures.push_back(fmt("gateway: %.0f turns completed < target %.0f",
                               double(o.completed), double(o.target_turns)));
    }
    if (o.tokens_delivered != o.completed * o.output_tokens) {
        failures.push_back(
            fmt("gateway: %.0f tokens delivered != %.0f turns x %.0f",
                double(o.tokens_delivered), double(o.completed),
                double(o.output_tokens)));
    }
    if (o.ttft.size() != o.completed || o.e2e.size() != o.completed) {
        failures.push_back("gateway: latency samples do not match the "
                           "completed turns");
        return;
    }
    for (std::size_t i = 0; i < o.ttft.size(); ++i) {
        if (!(o.ttft[i] <= o.e2e[i])) {
            failures.push_back(fmt("gateway: turn %.0f has TTFT %.6f > E2E "
                                   "%.6f",
                                   double(i), o.ttft[i], o.e2e[i]));
            break;
        }
    }
    // Interactive response-time law: N = X (R + Z).
    double sum_e2e = 0.0;
    for (double v : o.e2e)
        sum_e2e += v;
    const double r = o.completed > 0 ? sum_e2e / double(o.completed) : 0.0;
    const double x =
        o.makespan_s > 0.0 ? double(o.completed) / o.makespan_s : 0.0;
    const double n = x * (r + o.mean_think_s);
    if (!close_rel(n, double(o.clients), kResponseTimeLawTolerance)) {
        failures.push_back(fmt("gateway: response-time law gives N = %.3f "
                               "for %.0f clients",
                               n, double(o.clients)));
    }
}

// ---- offline_plan ------------------------------------------------------

double
opt_decoder_weight_bytes(std::uint64_t blocks, std::uint64_t hidden,
                         bool int4)
{
    const double params =
        12.0 * double(blocks) * double(hidden) * double(hidden);
    return params * (int4 ? 0.5 : 2.0);
}

double
decode_roofline_s(double weight_bytes, double hbm_bytes, double rate)
{
    return std::max(0.0, weight_bytes - hbm_bytes) / rate;
}

std::uint64_t
check_offline(const PlanOutcome &o, Failures &failures)
{
    std::uint64_t known_faults = 0;
    using Key = std::tuple<std::string, bool, std::string, std::uint64_t>;
    // HeLM <= Baseline at every (model, dtype, memory, batch) where both
    // fit (Figs. 9-11).
    std::map<Key, double> baseline;
    for (const PlanPoint &p : o.points) {
        if (p.feasible && p.placement == "Baseline")
            baseline[{p.model, p.int4, p.memory, p.batch}] = p.tbt_s;
    }
    for (const PlanPoint &p : o.points) {
        if (!p.feasible || p.placement != "HeLM")
            continue;
        const auto it = baseline.find({p.model, p.int4, p.memory, p.batch});
        if (it != baseline.end() && p.tbt_s > it->second) {
            if (p.known_fault &&
                p.tbt_s <= it->second * (1.0 + kKnownFaultMargin)) {
                ++known_faults;
                continue;
            }
            failures.push_back(
                "offline: HeLM TBT above Baseline for " + p.model +
                (p.int4 ? " int4 " : " fp16 ") + p.memory + " batch " +
                std::to_string(p.batch) +
                fmt(" (%.6f > %.6f s)", p.tbt_s, it->second));
        }
    }

    // At fixed (model, dtype, placement, batch), TBT does not rise as the
    // tier's rated host->GPU rate rises.
    std::map<Key, std::vector<const PlanPoint *>> by_setting;
    for (const PlanPoint &p : o.points) {
        if (p.feasible)
            by_setting[{p.model, p.int4, p.placement, p.batch}].push_back(&p);
    }
    for (auto &[key, points] : by_setting) {
        std::sort(points.begin(), points.end(),
                  [](const PlanPoint *a, const PlanPoint *b) {
                      return a->rated_rate < b->rated_rate;
                  });
        for (std::size_t i = 1; i < points.size(); ++i) {
            if (points[i]->tbt_s > points[i - 1]->tbt_s) {
                failures.push_back(
                    "offline: TBT rises with host rate: " +
                    points[i]->memory + " above " + points[i - 1]->memory +
                    " for " + points[i]->model + " " +
                    points[i]->placement + " batch " +
                    std::to_string(points[i]->batch));
            }
        }
    }

    // Decode roofline.
    for (const PlanPoint &p : o.points) {
        if (p.feasible && p.tbt_s < p.roofline_s) {
            failures.push_back("offline: TBT under the decode roofline for " +
                               p.model + " " + p.memory + " " + p.placement +
                               fmt(" (%.6f < %.6f s)", p.tbt_s,
                                   p.roofline_s));
        }
    }

    // All-CPU's largest feasible batch >= Baseline's (Fig. 12).
    using CeilingKey = std::tuple<std::string, bool, std::string>;
    std::map<CeilingKey, std::uint64_t> baseline_ceiling;
    for (const PlanCeiling &c : o.ceilings) {
        if (c.placement == "Baseline")
            baseline_ceiling[{c.model, c.int4, c.memory}] = c.max_batch;
    }
    for (const PlanCeiling &c : o.ceilings) {
        if (c.placement != "All-CPU")
            continue;
        const auto it = baseline_ceiling.find({c.model, c.int4, c.memory});
        if (it != baseline_ceiling.end() && c.max_batch < it->second) {
            failures.push_back("offline: All-CPU max batch below Baseline "
                               "for " +
                               c.model + " " + c.memory);
        }
    }

    // Tuned plans re-simulate to the tuner's numbers.
    const auto same_plan = [&](const TunedPlan &t, const char *which) {
        const double rel = 1e-9;
        if (!close_rel(t.reported_ttft, t.resim_ttft, rel) ||
            !close_rel(t.reported_tbt, t.resim_tbt, rel) ||
            !close_rel(t.reported_throughput, t.resim_throughput, rel)) {
            failures.push_back(std::string("offline: ") + which +
                               " plan re-simulates to other numbers" +
                               fmt(" (TBT %.9f vs %.9f s)", t.reported_tbt,
                                   t.resim_tbt));
        }
    };
    same_plan(o.latency, "latency");
    same_plan(o.throughput, "throughput");
    if (!(o.latency.reported_tbt <= o.tbt_limit_s)) {
        failures.push_back(fmt("offline: latency plan TBT %.6f s over its "
                               "limit %.6f s",
                               o.latency.reported_tbt, o.tbt_limit_s));
    }
    return known_faults;
}

// ---- serve_edf_preempt -------------------------------------------------

void
check_edf(const EdfOutcome &o, Failures &failures)
{
    if (o.completed != o.generated || o.rejected != 0) {
        failures.push_back(fmt("edf: %.0f of %.0f requests completed, %.0f "
                               "rejected",
                               double(o.completed), double(o.generated),
                               double(o.rejected)));
    }
    if (o.generated_tokens != o.trace_output_tokens) {
        failures.push_back(fmt("edf: %.0f tokens generated, the trace asks "
                               "for %.0f",
                               double(o.generated_tokens),
                               double(o.trace_output_tokens)));
    }
    if (o.preemptions == 0)
        failures.push_back("edf: no preemption");
    if (o.resumes != o.preemptions) {
        failures.push_back(fmt("edf: %.0f resumes for %.0f preemptions",
                               double(o.resumes), double(o.preemptions)));
    }
    if (o.demoted_bytes != o.promoted_bytes) {
        failures.push_back(fmt("edf: %.0f KV bytes demoted, %.0f promoted",
                               double(o.demoted_bytes),
                               double(o.promoted_bytes)));
    }
}

// ---- cluster_shared_port -----------------------------------------------

void
check_cluster(const ClusterOutcome &o, Failures &failures)
{
    const std::string tag = "cluster " + o.mode + ": ";
    if (o.completed != o.submitted) {
        failures.push_back(tag + fmt("%.0f of %.0f requests completed",
                                     double(o.completed),
                                     double(o.submitted)));
    }
    double h2d = 0.0;
    for (double b : o.gpu_h2d_bytes)
        h2d += b;
    if (!close_rel(h2d, o.read_port_bytes, 1e-9)) {
        failures.push_back(tag + fmt("per-GPU h2d bytes %.0f != host-read "
                                     "port bytes %.0f",
                                     h2d, o.read_port_bytes));
    }
    if (o.read_port_bytes > o.read_port_rate * o.makespan_s * (1.0 + 1e-9)) {
        failures.push_back(tag + fmt("host-read port moved %.0f bytes, more "
                                     "than rate x makespan %.0f",
                                     o.read_port_bytes,
                                     o.read_port_rate * o.makespan_s));
    }
    for (std::size_t g = 0; g < o.gpu_busy_s.size(); ++g) {
        if (o.gpu_busy_s[g] > o.makespan_s * (1.0 + 1e-9)) {
            failures.push_back(tag + fmt("GPU %.0f busy %.6f s > makespan "
                                         "%.6f s",
                                         double(g), o.gpu_busy_s[g],
                                         o.makespan_s));
        }
    }
}

} // namespace perfbench
