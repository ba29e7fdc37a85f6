/**
 * @file
 * Output checks of the benchmark's workloads.  Each check reads a plain
 * outcome struct the workload fills from the program's outputs, and
 * tests it against a property the method must have or a figure the
 * benchmark computes apart from the program.  Every failed property
 * appends one line to the failure list; an empty list means correct.
 * checks_test.cc feeds each check a doctored outcome that must fail.
 */
#ifndef HELM_PERFBENCH_CHECKS_H
#define HELM_PERFBENCH_CHECKS_H

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Failures = std::vector<std::string>;

// ---- gateway_steady ----------------------------------------------------

struct GatewayOutcome
{
    std::uint64_t clients = 0;
    std::uint64_t target_turns = 0;
    std::uint64_t completed = 0;
    std::uint64_t shed = 0;
    std::uint64_t tokens_delivered = 0;
    std::uint64_t output_tokens = 0; //!< configured per turn
    double makespan_s = 0.0;
    double mean_think_s = 0.0; //!< configured mean think time
    std::vector<double> ttft;  //!< per completed turn
    std::vector<double> e2e;   //!< per completed turn, same order
};

/** Relative tolerance of the interactive response-time law; README
 *  ("Output checks") gives the derivation. */
inline constexpr double kResponseTimeLawTolerance = 0.02;

void check_gateway(const GatewayOutcome &outcome, Failures &failures);

// ---- offline_plan ------------------------------------------------------

/** One (model, dtype, memory, placement, batch) point of the grid. */
struct PlanPoint
{
    std::string model;
    bool int4 = false;
    std::string memory;
    double rated_rate = 0.0; //!< tier's rated host->GPU bytes/s
    std::string placement;
    std::uint64_t batch = 0;
    bool feasible = false;
    double tbt_s = 0.0;
    /** Decode lower bound: host-resident weight bytes / rated rate. */
    double roofline_s = 0.0;
    /** A point where the program is known to break HeLM <= Baseline
     *  (CHANGES.md, FOUND): a violation of at most kKnownFaultMargin
     *  counts as a failed operation, not as a wrong output. */
    bool known_fault = false;
};

/** How far above Baseline's TBT a known-fault point's HeLM TBT may go
 *  and still count as the known fault (measured: 0.2 %); any larger
 *  excess is a wrong output. */
inline constexpr double kKnownFaultMargin = 0.01;

/** Largest feasible batch of one placement, from the planner. */
struct PlanCeiling
{
    std::string model;
    bool int4 = false;
    std::string memory;
    std::string placement;
    std::uint64_t max_batch = 0;
};

/** A tuned plan as the tuner reported it and as re-simulated. */
struct TunedPlan
{
    double reported_ttft = 0.0;
    double reported_tbt = 0.0;
    double reported_throughput = 0.0;
    double resim_ttft = 0.0;
    double resim_tbt = 0.0;
    double resim_throughput = 0.0;
};

struct PlanOutcome
{
    std::vector<PlanPoint> points;
    std::vector<PlanCeiling> ceilings;
    TunedPlan latency;
    TunedPlan throughput;
    double tbt_limit_s = 0.0; //!< the latency search's QoS limit
};

/** Weight bytes of an OPT model's decoder blocks, from its published
 *  dimensions (12 h^2 matrix parameters per block; biases, norms and
 *  embeddings left out, so the figure is a lower bound). */
double opt_decoder_weight_bytes(std::uint64_t blocks, std::uint64_t hidden,
                                bool int4);

/** (weights - HBM) / rate, clamped at zero. */
double decode_roofline_s(double weight_bytes, double hbm_bytes,
                         double rate);

/** @return how many known-fault points broke HeLM <= Baseline. */
std::uint64_t check_offline(const PlanOutcome &outcome, Failures &failures);

// ---- serve_edf_preempt -------------------------------------------------

struct EdfOutcome
{
    std::uint64_t generated = 0; //!< requests in the benchmark's trace
    std::uint64_t completed = 0;
    std::uint64_t rejected = 0;
    std::uint64_t trace_output_tokens = 0; //!< summed over the trace
    std::uint64_t generated_tokens = 0;    //!< the report's total
    std::uint64_t preemptions = 0;
    std::uint64_t resumes = 0;
    std::uint64_t demoted_bytes = 0;
    std::uint64_t promoted_bytes = 0;
};

void check_edf(const EdfOutcome &outcome, Failures &failures);

// ---- cluster_shared_port -----------------------------------------------

struct ClusterOutcome
{
    std::string mode;
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;
    std::vector<double> gpu_h2d_bytes;
    std::vector<double> gpu_busy_s;
    double read_port_bytes = 0.0;
    double read_port_rate = 0.0; //!< bytes/s
    double makespan_s = 0.0;
};

void check_cluster(const ClusterOutcome &outcome, Failures &failures);

} // namespace perfbench

#endif // HELM_PERFBENCH_CHECKS_H
