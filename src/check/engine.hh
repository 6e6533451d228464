/**
 * @file
 * Run one conformance case under every applicable engine variant and
 * diff the results.
 *
 * The simulator guarantees that several execution strategies produce
 * bit-identical results: sequential vs. sharded-parallel simulation,
 * dense vs. idle-skipped ticking, traced/sampled vs. plain runs, and
 * direct vs. served execution. Each guarantee has its own hand-written
 * test on a handful of workloads; this module turns them into one
 * machine-checkable property per generated case:
 *
 *   - every variant's *outputs* (CSC / y / CSR) must be bit-identical,
 *   - the outputs must match the golden CPU references,
 *   - every deterministic `menda.runReport/1` metric must agree exactly
 *     (reports are built with wall_seconds = 0, so no host-dependent
 *     metric exists; the sampled variant additionally carries series and
 *     is compared metric-wise instead of byte-wise).
 *
 * The DRAM scheduler is checked against its scan oracle by
 * test_dram_sched_diff, not here. The harness's own self-test arms
 * EngineVariant::injectedFault instead: a config-propagation bug that
 * every report diff must catch.
 */

#ifndef MENDA_CHECK_ENGINE_HH
#define MENDA_CHECK_ENGINE_HH

#include <string>
#include <vector>

#include "check/case_spec.hh"
#include "obs/report.hh"

namespace menda::check
{

/** One way of executing a case through MendaSystem. */
struct EngineVariant
{
    std::string name;        ///< stable id, e.g. "seq" or "threads2"
    unsigned hostThreads = 1;
    bool traced = false;            ///< in-memory tracer attached
    std::uint64_t samplePeriod = 0; ///< interval samplers armed
    core::SimMode simMode = core::SimMode::Detailed; ///< fidelity tier

    /**
     * Execute through the menda_serve core (in-process): the case is
     * encoded as a `menda.job/1` submit, run in scheduler slices, and
     * decoded from the response. Detailed-tier serve jobs must match
     * the direct path byte-for-byte, reports included — the resumable
     * step()/yield execution may not perturb anything.
     */
    bool served = false;

    /**
     * Run with the Huffman (condensed) SpGEMM merge scheduler instead
     * of the uniform one (DESIGN.md Sec. 15). The schedule differs, so
     * timing and traffic differ too — only the CSR output is comparable
     * against other variants (it must still be bitwise identical).
     */
    bool condensed = false;

    /**
     * Self-test fault: build the DRAM config with tRRD_L = tRRD_S, as a
     * bug that drops a timing field on its way to one variant would.
     * Only the threadsN variant carries it, and only when the harness
     * is asked to inject it.
     */
    bool injectedFault = false;

    /**
     * Sampling adds time series to the report, so a sampled run is only
     * comparable metric-by-metric, not byte-by-byte.
     */
    bool metricsOnly() const { return samplePeriod != 0; }

    /**
     * The fast tiers promise bitwise-identical kernel *outputs* but
     * estimate timing, so their reports are not comparable at all.
     */
    bool outputsOnly() const
    {
        return simMode != core::SimMode::Detailed;
    }
};

/**
 * The variant list a spec's engine knobs select. Index 0 is baseline.
 * @p inject_fault arms EngineVariant::injectedFault on threadsN.
 */
std::vector<EngineVariant> variantsFor(const CaseSpec &spec,
                                       bool inject_fault = false);

/** Everything a variant run produces that must be deterministic. */
struct CaseOutcome
{
    obs::RunReport report;   ///< wall-free, fully deterministic
    std::string reportJson;  ///< canonical bytes of @ref report
    sparse::CscMatrix csc;   ///< transpose output
    std::vector<double> y;   ///< spmv output
    sparse::CsrMatrix c;     ///< spgemm output
};

/** Execute @p spec under @p variant. Deterministic. */
CaseOutcome runVariant(const CaseSpec &spec, const EngineVariant &variant);

/** A detected conformance violation (empty when ok). */
struct Mismatch
{
    bool failed = false;
    std::string what;

    explicit operator bool() const { return failed; }
};

/** Compare a variant's outputs against the golden CPU references. */
Mismatch checkGolden(const CaseSpec &spec, const CaseOutcome &outcome);

/**
 * Compare two variants of the same case: outputs bitwise, reports
 * byte-wise (or metric-wise with zero tolerance when either variant is
 * metricsOnly()).
 */
Mismatch diffOutcomes(const CaseSpec &spec, const EngineVariant &va,
                      const CaseOutcome &oa, const EngineVariant &vb,
                      const CaseOutcome &ob);

/**
 * Run @p spec under every variant and diff all pairs plus the golden
 * references. @p runs/@p pairs (optional) accumulate how many variant
 * executions and pairwise diffs happened; @p baseline_report (optional)
 * receives the baseline variant's report for coverage accounting;
 * @p inject_fault is passed to variantsFor().
 */
Mismatch runCase(const CaseSpec &spec, unsigned *runs = nullptr,
                 unsigned *pairs = nullptr,
                 obs::RunReport *baseline_report = nullptr,
                 bool inject_fault = false);

} // namespace menda::check

#endif // MENDA_CHECK_ENGINE_HH
