/**
 * @file
 * The four end-to-end workloads and what one rep of each reports.
 *
 * A rep runs inside a forked child of the distill_e2e process (see
 * main.cc): it builds its inputs from the workload seed, calls the
 * simulator's public entry points, checks their outputs, and ships a
 * RepOutput back over a pipe. Host time, CPU time and peak RSS are
 * read by the parent from outside the child; the child reports only
 * what needs
 * its own clock (when its first result-producing call began, per-call
 * times) and what needs the records (simulated cycles, digests,
 * per-layer values).
 */

#ifndef DISTILL_BENCH_E2E_WORKLOADS_HH
#define DISTILL_BENCH_E2E_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "spans.hh"

namespace distill::e2e
{

/** Workload names, in the order they are interleaved. */
const std::vector<std::string> &workloadNames();

/** What one child reports back to the parent. */
struct RepOutput
{
    /** Host clock when the first result-producing call began. */
    std::int64_t firstCallNs = 0;

    /** Simulated cycles summed over the result records. */
    double simCycles = 0.0;

    /** Cells or instances run, and how many of them failed a check. */
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    /** sim_digest of the result records (see simDigest()). */
    std::string digest;

    /**
     * Digest of the records a pooled run and its in-process twin must
     * agree on (the grid for sweep-cold, the blind fleet for
     * fleet-serve); empty for the matrices.
     */
    std::string pooledDigest;

    /** Host time of every lbo::runOne cell, in milliseconds. */
    std::vector<double> cellMs;

    /** Failed checks, as "check: detail". */
    std::vector<std::string> failures;

    /** Named per-layer values (seconds, ratios, counts). */
    std::vector<std::pair<std::string, double>> values;

    /** Spans around public calls; empty unless the rep was traced. */
    std::vector<Span> spans;

    /** The value named @p name, or @p fallback. */
    double value(const std::string &name, double fallback = 0.0) const;
};

std::string encodeRep(const RepOutput &out);

/** Decode a child payload; false unless it is complete and well formed. */
bool decodeRep(const std::string &payload, RepOutput &out);

/** Inputs of one child. */
struct RepInput
{
    std::string workload;
    std::uint64_t seed = 42;
    bool traced = false;

    /** Reduced grids for the smoke test. */
    bool smoke = false;

    /** Private, empty directory the child may write (caches, CSVs). */
    std::string scratchDir;
};

/** Run one rep of @p in.workload in the calling process. */
RepOutput runRep(const RepInput &in);

/**
 * Run the traced pass's companions of @p in.workload in the calling
 * process: in-process twins of the pooled calls (jobs 1), per-call
 * timings the workload itself does not make, and the scheduler
 * dispatch probe.
 */
RepOutput runCompanions(const RepInput &in);

} // namespace distill::e2e

#endif // DISTILL_BENCH_E2E_WORKLOADS_HH
