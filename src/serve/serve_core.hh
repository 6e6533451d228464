/**
 * @file
 * The daemon's brain: job table, admission control, scheduling loop,
 * per-tenant SLO metrics (DESIGN.md §13). Transport-agnostic — the
 * socket server feeds it parsed `menda.job/1` requests, and the
 * conformance harness drives it in-process through the same entry
 * point.
 *
 * Execution model: one virtual machine clock (PU-cycle domain). Every
 * pump() is one scheduling round — the rank scheduler picks which
 * runnable jobs occupy ranks, each picked job advances by one bounded
 * cycle slice (KernelJob::step), and the virtual clock advances by the
 * slice. Queue-wait and completion latencies are measured on this
 * clock, so latency metrics are deterministic for a deterministic
 * request stream and independent of host speed.
 *
 * Every fidelity tier honors the same step() contract: a fast-tier job
 * (functional/sampled) executes its semantics on its first slice and
 * then occupies its ranks until the slices cover the tier's estimated
 * PU cycles — so it contends for the machine in virtual time exactly
 * like a detailed one, while staying cheap to simulate.
 */

#ifndef MENDA_SERVE_SERVE_CORE_HH
#define MENDA_SERVE_SERVE_CORE_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "common/stats.hh"
#include "menda/job.hh"
#include "obs/metrics.hh"
#include "obs/report.hh"
#include "serve/observer.hh"
#include "serve/protocol.hh"
#include "serve/residency_cache.hh"
#include "serve/scheduler.hh"

namespace menda::serve
{

struct ServeConfig
{
    /** Shape of the shared simulated machine; totalPus() = rank pool. */
    core::SystemConfig system;

    /** Default ranks a job occupies (request "pus" may override; both
     *  are clamped to the machine). */
    unsigned ranksPerJob = 4;

    /** Max jobs waiting (excludes running); admission rejects beyond. */
    std::size_t queueDepth = 64;

    /** Max queued+running jobs per tenant. */
    unsigned tenantInFlight = 4;

    /** PU cycles granted per job per scheduling round. */
    Cycle sliceCycles = 20'000;

    /** Residency-cache budget, simulated bytes. */
    std::uint64_t cacheBudgetBytes = 256ull << 20;

    SchedPolicy policy = SchedPolicy::Fair;

    /**
     * Virtual cycles per SLO window. Rolling per-tenant percentiles
     * (metrics verb) cover the last completed window plus the current
     * partial one; each rollover is journaled. 0 disables windows
     * (rolling percentiles then cover the whole run).
     */
    Cycle windowCycles = 1'000'000;

    /**
     * Job-span tracing + event journal (DESIGN.md §14). On by default;
     * the serve benchmark A/Bs this flag to bound the overhead. Must
     * never change scheduling: the virtual-cycle schedule is identical
     * either way.
     */
    bool observability = true;

    std::size_t traceCapacity = 1 << 16; ///< job-span ring, events
    std::size_t journalCapacity = 4096;  ///< journal ring, events
};

enum class JobState : std::uint8_t
{
    Queued,
    Running,
    Done,
    Failed,
    Cancelled,
};

const char *jobStateName(JobState state);

class ServeCore
{
  public:
    explicit ServeCore(const ServeConfig &config);
    ~ServeCore();

    /**
     * Handle one parsed request; returns the response. @p owner tags
     * submitted jobs with the connection they came from so a mid-job
     * disconnect can cancel them (0 = unowned, never auto-cancelled).
     * Never throws on bad input — malformed requests get a typed
     * "error" response.
     */
    obs::json::Value handle(const obs::json::Value &request,
                            std::uint64_t owner = 0);

    /** One scheduling round; no-op when nothing is runnable. */
    void pump();

    /** pump() until no job is queued or running. */
    void runUntilIdle();

    bool idle() const;
    bool shutdownRequested() const { return shutdown_; }

    /** Job ids that reached a terminal state since the last drain. */
    std::vector<std::uint64_t> drainFinished();

    /** Cancel every non-terminal job submitted by @p owner. */
    void cancelOwner(std::uint64_t owner);

    /** The "jobStatus" response for @p id (results when terminal). */
    obs::json::Value jobResponse(std::uint64_t id) const;

    /** The "stats" response body. */
    obs::json::Value statsJson() const;

    /** Metrics snapshot as a menda.runReport/1 (CI artifact). */
    obs::RunReport metricsReport() const;

    /**
     * Current metric families (rolling per-tenant percentiles, cache,
     * rank utilization, preemptions) — the "metrics" verb body, also
     * renderable as Prometheus text via obs::renderPrometheus().
     */
    std::vector<obs::MetricFamily> metricFamilies() const;

    /** Prometheus text exposition of metricFamilies(). */
    std::string prometheusText() const;

    /** Observability sinks; null/empty when config.observability off. */
    const ServeObserver *observer() const { return observer_.get(); }

    /** Journal as JSONL ("" when observability is off). */
    std::string journalJsonl() const;

    /** Job-span Chrome trace JSON ("" when observability is off). */
    std::string jobTraceJson() const;

    const ServeConfig &config() const { return config_; }
    const CacheStats &cacheStats() const { return cache_.stats(); }
    Cycle virtualCycle() const { return virtualCycle_; }
    std::uint64_t preemptions() const { return preemptionsTotal_; }

  private:
    struct Job
    {
        std::uint64_t id = 0;
        std::string tenant;
        std::uint64_t owner = 0;
        core::SystemConfig config; ///< per-job (rank subset of machine)
        unsigned ranks = 0;
        bool cacheHit = false;
        std::uint64_t inputNnz = 0; ///< nnz(A): report throughput basis

        /** index() is the Kernel; the pointer is dropped once the job
         *  finishes. */
        core::KernelPlan plan;
        std::vector<Value> x; ///< SpMV input vector

        std::unique_ptr<core::KernelJob> kernel; ///< built at dispatch

        JobState state = JobState::Queued;
        Cycle submitCycle = 0, startCycle = 0, doneCycle = 0;
        unsigned preemptions = 0;
        /** Concrete ranks occupied this round (fair reassigns every
         *  round; fifo holds them until completion). */
        std::vector<unsigned> assignedRanks;

        // Once Done: the typed output, whose index is the Kernel, and
        // the report. jobResponse() encodes them when asked, so the
        // table keeps the outputs' bytes, not a json::Value per number.
        std::variant<sparse::CscMatrix, std::vector<double>,
                     sparse::CsrMatrix>
            output;
        std::uint64_t partialProducts = 0; ///< SpGEMM only
        obs::RunReport report;
        std::string error; ///< reason once Failed
    };

    struct TenantStats
    {
        std::uint64_t completed = 0;
        std::uint64_t failed = 0;
        std::uint64_t rejected = 0;
        std::uint64_t preemptions = 0; ///< of finished jobs
        std::vector<std::uint64_t> queueWait; ///< cycles, per job
        std::vector<std::uint64_t> total;     ///< queue-to-completion
        Histogram queueWaitHist;
        Histogram totalHist;
        // Rolling SLO windows: current partial window + the last
        // completed one; the metrics verb reports their merge.
        Histogram windowQueueWait, windowTotal;
        Histogram prevQueueWait, prevTotal;
    };

    obs::json::Value handleSubmit(const obs::json::Value &request,
                                  std::uint64_t owner);
    obs::json::Value handleStatus(const obs::json::Value &request) const;
    obs::json::Value handleMetrics(const obs::json::Value &request) const;
    obs::json::Value handleStatsStream(
        const obs::json::Value &request) const;

    unsigned inFlightOf(const std::string &tenant) const;
    std::size_t queuedCount() const;
    void dispatch(Job &job);      ///< Queued -> Running (build kernel)
    void complete(Job &job);      ///< Running -> Done (keep result)
    void finishJob(Job &job, JobState state);
    /** Move the finished kernel's output and report into @p job;
     *  throws, naming the offset, if the output holds a non-finite
     *  value (the wire cannot carry one). */
    void keepResult(Job &job);
    /** Label this round's picked jobs with concrete rank ids. */
    void assignRanks(const std::vector<std::uint64_t> &picked);
    /** Roll SLO windows past @p now (journals each rollover). */
    void rollWindowsTo(Cycle now);

    ServeConfig config_;
    ResidencyCache cache_;
    RankScheduler scheduler_;
    std::unique_ptr<ServeObserver> observer_; ///< null when disabled
    Cycle virtualCycle_ = 0;
    std::uint64_t nextJobId_ = 1;
    std::map<std::uint64_t, Job> jobs_;
    std::vector<std::uint64_t> order_;    ///< submission order (live)
    std::vector<std::uint64_t> finished_; ///< for drainFinished()
    std::map<std::string, TenantStats> tenants_;
    std::uint64_t rejectedTotal_ = 0;
    std::uint64_t preemptionsTotal_ = 0;
    std::uint64_t windowIndex_ = 0;
    std::vector<Cycle> rankBusy_;  ///< per-rank busy virtual cycles
    std::vector<bool> rankHeld_;   ///< fifo: rank held by a running job
    bool shutdown_ = false;
};

} // namespace menda::serve

#endif // MENDA_SERVE_SERVE_CORE_HH
