#include "serve/serve_core.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <variant>

#include "common/log.hh"
#include "menda/run_report.hh"
#include "menda/sim_mode.hh"

namespace menda::serve
{

namespace json = obs::json;

namespace
{

/** Every integer up to 2^53 is exact in a JSON (double) number. */
constexpr std::uint64_t kMaxExactInteger = std::uint64_t(1) << 53;

/** Nearest-rank percentile of an unsorted sample vector. */
std::uint64_t
percentile(std::vector<std::uint64_t> samples, double pct)
{
    if (samples.empty())
        return 0;
    std::sort(samples.begin(), samples.end());
    const double n = static_cast<double>(samples.size());
    std::size_t rank =
        static_cast<std::size_t>(std::ceil(pct / 100.0 * n));
    if (rank == 0)
        rank = 1;
    if (rank > samples.size())
        rank = samples.size();
    return samples[rank - 1];
}

json::Value
latencySummary(const std::vector<std::uint64_t> &samples)
{
    json::Object o;
    std::uint64_t sum = 0, max = 0;
    for (std::uint64_t s : samples) {
        sum += s;
        max = std::max(max, s);
    }
    o["count"] = json::Value(std::uint64_t(samples.size()));
    o["mean"] = json::Value(
        samples.empty() ? 0.0
                        : static_cast<double>(sum) / samples.size());
    o["max"] = json::Value(max);
    o["p50"] = json::Value(percentile(samples, 50.0));
    o["p95"] = json::Value(percentile(samples, 95.0));
    o["p99"] = json::Value(percentile(samples, 99.0));
    return json::Value(std::move(o));
}

/** Throw naming the first non-finite entry of output array @p name. */
template <typename T>
void
requireFinite(const std::vector<T> &values, const char *name)
{
    for (std::size_t i = 0; i < values.size(); ++i)
        if (!std::isfinite(values[i]))
            throw std::runtime_error(
                std::string("output ") + name + " holds a non-finite " +
                "value at offset " + std::to_string(i));
}

} // namespace

const char *
jobStateName(JobState state)
{
    switch (state) {
      case JobState::Queued: return "queued";
      case JobState::Running: return "running";
      case JobState::Done: return "done";
      case JobState::Failed: return "failed";
      case JobState::Cancelled: return "cancelled";
    }
    return "?";
}

ServeCore::ServeCore(const ServeConfig &config)
    : config_(config), cache_(config.cacheBudgetBytes),
      scheduler_(config.system.totalPus(), config.policy)
{
    menda_assert(config_.system.totalPus() > 0, "machine needs ranks");
    menda_assert(config_.sliceCycles > 0, "sliceCycles must be > 0");
    const unsigned ranks = config_.system.totalPus();
    rankBusy_.assign(ranks, 0);
    rankHeld_.assign(ranks, false);
    if (config_.observability) {
        ServeObserver::Options obs_options;
        obs_options.traceCapacity = config_.traceCapacity;
        obs_options.journalCapacity = config_.journalCapacity;
        observer_ = std::make_unique<ServeObserver>(
            ranks, config_.system.pu.freqMhz, obs_options);
        cache_.setEvictionHook(
            [this](const char *kind, std::uint64_t bytes) {
                observer_->cacheEvicted(kind, bytes, virtualCycle_);
            });
    }
}

ServeCore::~ServeCore() = default;

json::Value
ServeCore::handle(const json::Value &request, std::uint64_t owner)
{
    if (!request.isObject())
        return errorResponse("badRequest", "request must be an object");
    if (request.has("schema") &&
        request.at("schema").asString() != kSchema)
        return errorResponse("badRequest",
                             "unsupported schema: " +
                                 request.at("schema").asString());
    if (!request.has("type") || !request.at("type").isString())
        return errorResponse("badRequest", "missing request type");
    const std::string &type = request.at("type").asString();

    if (type == "submit")
        return handleSubmit(request, owner);
    if (type == "status")
        return handleStatus(request);
    if (type == "stats")
        return statsJson();
    if (type == "metrics")
        return handleMetrics(request);
    if (type == "stats.stream")
        return handleStatsStream(request);
    if (type == "shutdown") {
        shutdown_ = true;
        json::Object o;
        o["type"] = json::Value("shuttingDown");
        return json::Value(std::move(o));
    }
    return errorResponse("badRequest", "unknown request type: " + type);
}

json::Value
ServeCore::handleSubmit(const json::Value &request, std::uint64_t owner)
{
    // Cheap admission checks first; matrix decoding (the expensive part)
    // only happens for requests that would actually be admitted.
    std::string tenant = "default";
    if (request.has("tenant")) {
        if (!request.at("tenant").isString())
            return errorResponse("badRequest", "tenant must be a string");
        tenant = request.at("tenant").asString();
    }
    if (!request.has("kernel") || !request.at("kernel").isString())
        return errorResponse("badRequest", "missing kernel");
    const std::string &kernel = request.at("kernel").asString();

    if (queuedCount() >= config_.queueDepth) {
        ++rejectedTotal_;
        ++tenants_[tenant].rejected;
        if (observer_)
            observer_->admissionRejected(tenant, "queueFull",
                                         virtualCycle_);
        return errorResponse("queueFull",
                             "queue depth " +
                                 std::to_string(config_.queueDepth) +
                                 " reached; retry later");
    }
    if (inFlightOf(tenant) >= config_.tenantInFlight) {
        ++rejectedTotal_;
        ++tenants_[tenant].rejected;
        if (observer_)
            observer_->admissionRejected(tenant, "tenantBusy",
                                         virtualCycle_);
        return errorResponse(
            "tenantBusy", "tenant '" + tenant + "' already has " +
                              std::to_string(config_.tenantInFlight) +
                              " jobs in flight");
    }

    Job job;
    job.tenant = tenant;
    job.owner = owner;

    unsigned ranks = config_.ranksPerJob;
    if (request.has("pus")) {
        const std::optional<std::uint64_t> pus = integerIn(
            request.at("pus"), 1, std::numeric_limits<unsigned>::max());
        if (!pus)
            return errorResponse("badRequest",
                                 "pus must be a positive integer");
        ranks = static_cast<unsigned>(*pus);
    }
    job.ranks = std::min(ranks, scheduler_.machineRanks());
    if (job.ranks == 0)
        job.ranks = 1;

    // The per-job machine: a rank subset of the shared pool. Fidelity
    // and the ablation/sampling knobs come from the daemon's config.
    // hostThreads is inherited: every slice advances the job's ranks on
    // the host thread pool, which is bit-identical to sequential — so
    // every observable byte (results, journal, traces, metrics) is
    // independent of the daemon's --threads.
    job.config = config_.system;
    job.config.channels = 1;
    job.config.dimmsPerChannel = 1;
    job.config.ranksPerDimm = job.ranks;
    job.config.progressEveryCycles = 0;
    if (request.has("simMode")) {
        if (!request.at("simMode").isString() ||
            !core::parseSimMode(request.at("simMode").asString(),
                                job.config.simMode, job.config.sampled))
            return errorResponse("badRequest",
                                 "bad simMode (want detailed | "
                                 "functional | sampled[:W,P[,WARM]])");
    }

    const std::optional<core::Kernel> kind = core::parseKernel(kernel);
    if (!kind)
        return errorResponse("badRequest", "unknown kernel: " + kernel);
    const std::uint64_t hitsBefore = cache_.stats().hits;
    try {
        const sparse::CsrMatrix a = csrFromJson(request.at("a"));
        sparse::CsrMatrix b; // SpGEMM's second operand
        if (*kind == core::Kernel::Spmv) {
            job.x = valueVectorFromJson(request.at("x"));
            if (job.x.size() != a.cols)
                throw std::runtime_error(
                    "x has " + std::to_string(job.x.size()) +
                    " entries; matrix has " + std::to_string(a.cols) +
                    " columns");
        } else if (*kind == core::Kernel::Spgemm) {
            b = csrFromJson(request.at("b"));
            if (a.cols != b.rows)
                throw std::runtime_error(
                    "dimension mismatch: a.cols != b.rows");
        }
        job.inputNnz = a.nnz();
        job.plan = cache_.plan(*kind, a, b, job.config);
    } catch (const std::exception &e) {
        return errorResponse("badRequest", e.what());
    }
    job.cacheHit = cache_.stats().hits != hitsBefore;

    job.id = nextJobId_++;
    job.submitCycle = virtualCycle_;
    const std::uint64_t id = job.id;
    const bool cacheHit = job.cacheHit;
    const unsigned jobRanks = job.ranks;
    if (observer_)
        observer_->jobSubmitted(id, job.tenant, core::kernelName(*kind),
                                jobRanks, cacheHit, virtualCycle_);
    order_.push_back(job.id);
    jobs_.emplace(job.id, std::move(job));

    json::Object o;
    o["type"] = json::Value("submitted");
    o["id"] = json::Value(id);
    o["cacheHit"] = json::Value(cacheHit);
    o["ranks"] = json::Value(std::uint64_t(jobRanks));
    return json::Value(std::move(o));
}

json::Value
ServeCore::handleStatus(const json::Value &request) const
{
    if (!request.has("id"))
        return errorResponse("badRequest", "missing job id");
    const std::optional<std::uint64_t> id =
        integerIn(request.at("id"), 0, kMaxExactInteger);
    if (!id)
        return errorResponse("badRequest",
                             "job id must be a non-negative integer");
    return jobResponse(*id);
}

unsigned
ServeCore::inFlightOf(const std::string &tenant) const
{
    unsigned n = 0;
    for (std::uint64_t id : order_) {
        const Job &job = jobs_.at(id);
        if (job.tenant == tenant &&
            (job.state == JobState::Queued ||
             job.state == JobState::Running))
            ++n;
    }
    return n;
}

std::size_t
ServeCore::queuedCount() const
{
    std::size_t n = 0;
    for (std::uint64_t id : order_)
        if (jobs_.at(id).state == JobState::Queued)
            ++n;
    return n;
}

bool
ServeCore::idle() const
{
    return order_.empty();
}

void
ServeCore::pump()
{
    std::vector<RankScheduler::Runnable> runnable;
    for (std::uint64_t id : order_) {
        const Job &job = jobs_.at(id);
        if (job.state == JobState::Queued ||
            job.state == JobState::Running)
            runnable.push_back({id, job.ranks});
    }
    if (runnable.empty())
        return;

    const Cycle roundStart = virtualCycle_;
    const std::vector<std::uint64_t> picked = scheduler_.pick(runnable);

    // Preemptions are an observation of the pick, not an input to it:
    // a job that ran last round, is still runnable, and was skipped
    // lost its ranks mid-kernel (fair only; fifo never preempts).
    for (std::uint64_t id : scheduler_.preempted()) {
        Job &job = jobs_.at(id);
        ++job.preemptions;
        ++preemptionsTotal_;
        job.assignedRanks.clear();
        if (observer_)
            observer_->jobPreempted(id, roundStart);
    }

    assignRanks(picked);

    for (std::uint64_t id : picked) {
        Job &job = jobs_.at(id);
        for (unsigned r : job.assignedRanks)
            rankBusy_[r] += config_.sliceCycles;
        if (observer_)
            observer_->sliceExecuted(id, job.assignedRanks, roundStart,
                                     roundStart + config_.sliceCycles);
        try {
            if (job.state == JobState::Queued) {
                job.startCycle = roundStart;
                dispatch(job);
            }
            job.kernel->step(config_.sliceCycles);
            if (job.kernel->done()) {
                job.doneCycle = roundStart + config_.sliceCycles;
                complete(job);
            }
        } catch (const std::exception &e) {
            job.error = e.what();
            job.doneCycle = roundStart + config_.sliceCycles;
            finishJob(job, JobState::Failed);
        }
    }
    virtualCycle_ = roundStart + config_.sliceCycles;
    rollWindowsTo(virtualCycle_);
}

void
ServeCore::assignRanks(const std::vector<std::uint64_t> &picked)
{
    if (config_.policy == SchedPolicy::Fair) {
        // Nothing persists between rounds: relabel in pick order from
        // rank 0. The scheduler guaranteed the total fits the machine.
        unsigned next = 0;
        for (std::uint64_t id : picked) {
            Job &job = jobs_.at(id);
            job.assignedRanks.clear();
            for (unsigned k = 0; k < job.ranks; ++k)
                job.assignedRanks.push_back(next++);
        }
        return;
    }
    // Fifo: a job keeps its ranks until it finishes, so assign the
    // lowest free ranks at first pick (the free set can fragment as
    // earlier jobs finish) and release them in finishJob().
    for (std::uint64_t id : picked) {
        Job &job = jobs_.at(id);
        if (!job.assignedRanks.empty())
            continue;
        for (unsigned r = 0;
             r < rankHeld_.size() &&
             job.assignedRanks.size() < job.ranks;
             ++r) {
            if (rankHeld_[r])
                continue;
            rankHeld_[r] = true;
            job.assignedRanks.push_back(r);
        }
        menda_assert(job.assignedRanks.size() == job.ranks,
                     "fifo rank bookkeeping out of sync");
    }
}

void
ServeCore::rollWindowsTo(Cycle now)
{
    if (config_.windowCycles == 0)
        return;
    while ((windowIndex_ + 1) * config_.windowCycles <= now) {
        ++windowIndex_;
        for (auto &[name, t] : tenants_) {
            (void)name;
            t.prevQueueWait = t.windowQueueWait;
            t.prevTotal = t.windowTotal;
            t.windowQueueWait.reset();
            t.windowTotal.reset();
        }
        if (observer_)
            observer_->windowRollover(windowIndex_,
                                      windowIndex_ *
                                          config_.windowCycles);
    }
}

void
ServeCore::runUntilIdle()
{
    while (!idle())
        pump();
}

void
ServeCore::dispatch(Job &job)
{
    job.state = JobState::Running;
    if (observer_)
        observer_->jobDispatched(job.id, job.submitCycle,
                                 job.startCycle);
    job.kernel = std::make_unique<core::KernelJob>(job.config, job.plan,
                                                   std::move(job.x));
}

void
ServeCore::complete(Job &job)
{
    keepResult(job);
    TenantStats &t = tenants_[job.tenant];
    ++t.completed;
    const std::uint64_t wait = job.startCycle - job.submitCycle;
    const std::uint64_t total = job.doneCycle - job.submitCycle;
    t.queueWait.push_back(wait);
    t.total.push_back(total);
    t.queueWaitHist.record(wait);
    t.totalHist.record(total);
    t.windowQueueWait.record(wait);
    t.windowTotal.record(total);
    finishJob(job, JobState::Done);
}

void
ServeCore::finishJob(Job &job, JobState state)
{
    job.state = state;
    if (job.doneCycle == 0)
        job.doneCycle = virtualCycle_;
    if (state == JobState::Failed)
        ++tenants_[job.tenant].failed;
    tenants_[job.tenant].preemptions += job.preemptions;
    for (unsigned r : job.assignedRanks)
        rankHeld_[r] = false; // no-op under fair (nothing is held)
    job.assignedRanks.clear();
    if (observer_)
        observer_->jobFinished(job.id, jobStateName(state),
                               job.preemptions, job.doneCycle);
    job.kernel.reset(); // release the simulated components immediately
    // ...and the plan, which the residency cache may still hold; the
    // variant's index goes on naming the kernel.
    std::visit([](auto &plan) { plan.reset(); }, job.plan);
    scheduler_.finished(job.id);
    order_.erase(std::remove(order_.begin(), order_.end(), job.id),
                 order_.end());
    finished_.push_back(job.id);
}

void
ServeCore::keepResult(Job &job)
{
    const core::Kernel kind = job.kernel->kind();
    core::RunResult run;
    switch (kind) {
      case core::Kernel::Transpose: {
        core::TransposeResult r = job.kernel->takeTranspose();
        requireFinite(r.csc.val, "csc.val");
        job.output = std::move(r.csc);
        run = std::move(r);
        break;
      }
      case core::Kernel::Spmv: {
        core::SpmvResult r = job.kernel->takeSpmv();
        requireFinite(r.y, "y");
        job.output = std::move(r.y);
        run = std::move(r);
        break;
      }
      case core::Kernel::Spgemm: {
        core::SpgemmResult r = job.kernel->takeSpgemm();
        requireFinite(r.c.val, "c.val");
        job.output = std::move(r.c);
        job.partialProducts = r.partialProducts;
        run = std::move(r);
        break;
      }
    }
    // Report throughput against nnz(A), matching the direct-run
    // convention (KernelJob::nnz() counts A+B for SpGEMM).
    job.report = core::makeRunReport("menda.serve.job",
                                     core::kernelName(kind), job.config,
                                     run, job.inputNnz);
}

std::vector<std::uint64_t>
ServeCore::drainFinished()
{
    std::vector<std::uint64_t> out;
    out.swap(finished_);
    return out;
}

void
ServeCore::cancelOwner(std::uint64_t owner)
{
    if (owner == 0)
        return;
    const std::vector<std::uint64_t> live = order_;
    for (std::uint64_t id : live) {
        Job &job = jobs_.at(id);
        if (job.owner != owner)
            continue;
        job.error = "client disconnected";
        finishJob(job, JobState::Cancelled);
    }
}

json::Value
ServeCore::jobResponse(std::uint64_t id) const
{
    auto it = jobs_.find(id);
    if (it == jobs_.end())
        return errorResponse("unknownJob",
                             "no job with id " + std::to_string(id));
    const Job &job = it->second;
    json::Object o;
    o["type"] = json::Value("jobStatus");
    o["id"] = json::Value(id);
    o["state"] = json::Value(jobStateName(job.state));
    o["tenant"] = json::Value(job.tenant);
    if (job.state == JobState::Done) {
        const auto kind = static_cast<core::Kernel>(job.plan.index());
        o["kernel"] = json::Value(core::kernelName(kind));
        o["cacheHit"] = json::Value(job.cacheHit);
        o["ranks"] = json::Value(std::uint64_t(job.ranks));
        o["queueWaitCycles"] =
            json::Value(job.startCycle - job.submitCycle);
        o["totalCycles"] = json::Value(job.doneCycle - job.submitCycle);
        switch (kind) {
          case core::Kernel::Transpose:
            o["csc"] = cscToJson(std::get<sparse::CscMatrix>(job.output));
            break;
          case core::Kernel::Spmv:
            o["y"] = doubleVectorToJson(
                std::get<std::vector<double>>(job.output));
            break;
          case core::Kernel::Spgemm:
            o["c"] = csrToJson(std::get<sparse::CsrMatrix>(job.output));
            o["partialProducts"] = json::Value(job.partialProducts);
            break;
        }
        o["report"] = job.report.toValue();
    }
    if (!job.error.empty())
        o["error"] = json::Value(job.error);
    return json::Value(std::move(o));
}

json::Value
ServeCore::statsJson() const
{
    json::Object o;
    o["type"] = json::Value("stats");
    o["schema"] = json::Value(kSchema);
    o["policy"] = json::Value(schedPolicyName(scheduler_.policy()));
    o["machineRanks"] =
        json::Value(std::uint64_t(scheduler_.machineRanks()));
    o["virtualCycle"] = json::Value(virtualCycle_);
    o["sliceCycles"] = json::Value(config_.sliceCycles);

    std::uint64_t queued = 0, running = 0;
    for (std::uint64_t id : order_) {
        const Job &job = jobs_.at(id);
        if (job.state == JobState::Queued)
            ++queued;
        else if (job.state == JobState::Running)
            ++running;
    }
    std::uint64_t completed = 0, failed = 0, cancelled = 0;
    for (const auto &[id, job] : jobs_) {
        if (job.state == JobState::Done)
            ++completed;
        else if (job.state == JobState::Failed)
            ++failed;
        else if (job.state == JobState::Cancelled)
            ++cancelled;
    }
    json::Object jobs;
    jobs["queued"] = json::Value(queued);
    jobs["running"] = json::Value(running);
    jobs["completed"] = json::Value(completed);
    jobs["failed"] = json::Value(failed);
    jobs["cancelled"] = json::Value(cancelled);
    jobs["rejected"] = json::Value(rejectedTotal_);
    o["jobs"] = json::Value(std::move(jobs));

    const CacheStats &c = cache_.stats();
    json::Object cache;
    cache["hits"] = json::Value(c.hits);
    cache["misses"] = json::Value(c.misses);
    cache["evictions"] = json::Value(c.evictions);
    cache["entries"] = json::Value(c.entries);
    cache["residentBytes"] = json::Value(c.residentBytes);
    cache["budgetBytes"] = json::Value(cache_.budgetBytes());
    cache["hitRatePct"] = json::Value(c.hitRatePct());
    o["cache"] = json::Value(std::move(cache));

    o["preemptions"] = json::Value(preemptionsTotal_);

    json::Object tenants;
    for (const auto &[name, t] : tenants_) {
        json::Object to;
        to["completed"] = json::Value(t.completed);
        to["failed"] = json::Value(t.failed);
        to["rejected"] = json::Value(t.rejected);
        to["preemptions"] = json::Value(t.preemptions);
        to["inFlight"] = json::Value(std::uint64_t(inFlightOf(name)));
        to["queueWaitCycles"] = latencySummary(t.queueWait);
        to["totalCycles"] = latencySummary(t.total);
        tenants[name] = json::Value(std::move(to));
    }
    o["tenants"] = json::Value(std::move(tenants));
    return json::Value(std::move(o));
}

obs::json::Value
ServeCore::handleMetrics(const json::Value &request) const
{
    json::Object o;
    o["type"] = json::Value("metrics");
    o["schema"] = json::Value(kSchema);
    o["virtualCycle"] = json::Value(virtualCycle_);
    const bool prometheus =
        request.has("format") && request.at("format").isString() &&
        request.at("format").asString() == "prometheus";
    if (prometheus)
        o["text"] = json::Value(prometheusText());
    else
        o["families"] = obs::metricsToJson(metricFamilies());
    return json::Value(std::move(o));
}

obs::json::Value
ServeCore::handleStatsStream(const json::Value &request) const
{
    std::uint64_t from_seq = 0;
    if (request.has("afterSeq")) {
        const std::optional<std::uint64_t> seq =
            integerIn(request.at("afterSeq"), 0, kMaxExactInteger);
        if (!seq)
            return errorResponse("badRequest",
                                 "afterSeq must be a non-negative "
                                 "integer");
        from_seq = *seq;
    }
    json::Object o;
    o["type"] = json::Value("journal");
    o["schema"] = json::Value(kSchema);
    if (observer_) {
        const obs::EventJournal &journal = observer_->journal();
        o["nextSeq"] = json::Value(journal.emitted());
        o["dropped"] = json::Value(journal.droppedEvents());
        o["jsonl"] = json::Value(journal.jsonlSince(from_seq));
    } else {
        o["nextSeq"] = json::Value(std::uint64_t(0));
        o["dropped"] = json::Value(std::uint64_t(0));
        o["jsonl"] = json::Value("");
    }
    return json::Value(std::move(o));
}

std::string
ServeCore::journalJsonl() const
{
    return observer_ ? observer_->journal().jsonl() : std::string();
}

std::string
ServeCore::jobTraceJson() const
{
    if (!observer_)
        return {};
    std::ostringstream os;
    observer_->writeTrace(os);
    return os.str();
}

std::string
ServeCore::prometheusText() const
{
    return obs::renderPrometheus(metricFamilies());
}

std::vector<obs::MetricFamily>
ServeCore::metricFamilies() const
{
    using obs::MetricFamily;
    std::vector<MetricFamily> families;
    const auto counter = [&](const char *name,
                             const char *help) -> MetricFamily & {
        MetricFamily family;
        family.name = name;
        family.help = help;
        family.type = MetricFamily::Type::Counter;
        families.push_back(std::move(family));
        return families.back();
    };
    const auto gauge = [&](const char *name,
                           const char *help) -> MetricFamily & {
        MetricFamily family;
        family.name = name;
        family.help = help;
        family.type = MetricFamily::Type::Gauge;
        families.push_back(std::move(family));
        return families.back();
    };

    obs::addSample(counter("menda_serve_virtual_cycles",
                           "Virtual PU-cycle clock of the daemon"),
                   static_cast<double>(virtualCycle_));

    std::uint64_t queued = 0, running = 0;
    for (std::uint64_t id : order_) {
        const Job &job = jobs_.at(id);
        if (job.state == JobState::Queued)
            ++queued;
        else if (job.state == JobState::Running)
            ++running;
    }
    std::uint64_t completed = 0, failed = 0, cancelled = 0;
    for (const auto &[id, job] : jobs_) {
        (void)id;
        if (job.state == JobState::Done)
            ++completed;
        else if (job.state == JobState::Failed)
            ++failed;
        else if (job.state == JobState::Cancelled)
            ++cancelled;
    }
    {
        MetricFamily &family =
            counter("menda_serve_jobs_total",
                    "Jobs by terminal state (rejected = never admitted)");
        obs::addSample(family, static_cast<double>(completed),
                       {{"state", "completed"}});
        obs::addSample(family, static_cast<double>(failed),
                       {{"state", "failed"}});
        obs::addSample(family, static_cast<double>(cancelled),
                       {{"state", "cancelled"}});
        obs::addSample(family, static_cast<double>(rejectedTotal_),
                       {{"state", "rejected"}});
    }
    {
        MetricFamily &family = gauge("menda_serve_queue_depth",
                                     "Live jobs by state");
        obs::addSample(family, static_cast<double>(queued),
                       {{"state", "queued"}});
        obs::addSample(family, static_cast<double>(running),
                       {{"state", "running"}});
    }
    obs::addSample(counter("menda_serve_preemptions_total",
                           "Fair-scheduler preemptions (jobs that lost "
                           "their ranks mid-kernel)"),
                   static_cast<double>(preemptionsTotal_));

    const CacheStats &c = cache_.stats();
    {
        MetricFamily &family =
            counter("menda_serve_cache_events_total",
                    "Residency-cache lookups and evictions");
        obs::addSample(family, static_cast<double>(c.hits),
                       {{"event", "hit"}});
        obs::addSample(family, static_cast<double>(c.misses),
                       {{"event", "miss"}});
        obs::addSample(family, static_cast<double>(c.evictions),
                       {{"event", "eviction"}});
    }
    obs::addSample(gauge("menda_serve_cache_hit_rate_pct",
                         "Residency-cache hit rate, percent"),
                   c.hitRatePct());
    obs::addSample(gauge("menda_serve_cache_resident_bytes",
                         "Simulated bytes held by cached plans"),
                   static_cast<double>(c.residentBytes));

    {
        MetricFamily &busy =
            counter("menda_serve_rank_busy_cycles",
                    "Virtual cycles each DRAM rank spent executing "
                    "job slices");
        MetricFamily util;
        util.name = "menda_serve_rank_utilization";
        util.help = "Busy fraction of the virtual clock per rank";
        util.type = MetricFamily::Type::Gauge;
        for (std::size_t r = 0; r < rankBusy_.size(); ++r) {
            obs::addSample(busy, static_cast<double>(rankBusy_[r]),
                           {{"rank", std::to_string(r)}});
            obs::addSample(
                util,
                virtualCycle_ ? static_cast<double>(rankBusy_[r]) /
                                    static_cast<double>(virtualCycle_)
                              : 0.0,
                {{"rank", std::to_string(r)}});
        }
        families.push_back(std::move(util));
    }

    // Per-tenant: lifetime counters plus rolling-window percentiles
    // (last completed SLO window merged with the current partial one,
    // estimated from the mergeable log-2 histograms).
    MetricFamily tenant_jobs;
    tenant_jobs.name = "menda_serve_tenant_jobs_total";
    tenant_jobs.help = "Per-tenant jobs by outcome";
    tenant_jobs.type = MetricFamily::Type::Counter;
    MetricFamily tenant_preempt;
    tenant_preempt.name = "menda_serve_tenant_preemptions_total";
    tenant_preempt.help = "Preemptions suffered by finished jobs";
    tenant_preempt.type = MetricFamily::Type::Counter;
    MetricFamily tenant_inflight;
    tenant_inflight.name = "menda_serve_tenant_inflight";
    tenant_inflight.help = "Queued + running jobs per tenant";
    tenant_inflight.type = MetricFamily::Type::Gauge;
    MetricFamily queue_wait;
    queue_wait.name = "menda_serve_queue_wait_cycles";
    queue_wait.help = "Rolling-window queue-wait quantiles, virtual "
                      "cycles";
    queue_wait.type = MetricFamily::Type::Gauge;
    MetricFamily completion;
    completion.name = "menda_serve_completion_cycles";
    completion.help = "Rolling-window submit-to-completion quantiles, "
                      "virtual cycles";
    completion.type = MetricFamily::Type::Gauge;
    MetricFamily window_jobs;
    window_jobs.name = "menda_serve_window_completed";
    window_jobs.help = "Completions inside the rolling window";
    window_jobs.type = MetricFamily::Type::Gauge;

    static const char *const kQuantiles[] = {"0.5", "0.95", "0.99"};
    static const double kQ[] = {0.5, 0.95, 0.99};
    for (const auto &[name, t] : tenants_) {
        obs::addSample(tenant_jobs, static_cast<double>(t.completed),
                       {{"state", "completed"}, {"tenant", name}});
        obs::addSample(tenant_jobs, static_cast<double>(t.failed),
                       {{"state", "failed"}, {"tenant", name}});
        obs::addSample(tenant_jobs, static_cast<double>(t.rejected),
                       {{"state", "rejected"}, {"tenant", name}});
        obs::addSample(tenant_preempt,
                       static_cast<double>(t.preemptions),
                       {{"tenant", name}});
        obs::addSample(tenant_inflight,
                       static_cast<double>(inFlightOf(name)),
                       {{"tenant", name}});

        Histogram rolling_wait = t.prevQueueWait;
        rolling_wait.merge(t.windowQueueWait);
        Histogram rolling_total = t.prevTotal;
        rolling_total.merge(t.windowTotal);
        obs::addSample(window_jobs,
                       static_cast<double>(rolling_total.count()),
                       {{"tenant", name}});
        if (rolling_total.count() == 0)
            continue; // no quantiles without samples in the window
        for (unsigned q = 0; q < 3; ++q) {
            obs::addSample(queue_wait, rolling_wait.quantile(kQ[q]),
                           {{"quantile", kQuantiles[q]},
                            {"tenant", name}});
            obs::addSample(completion, rolling_total.quantile(kQ[q]),
                           {{"quantile", kQuantiles[q]},
                            {"tenant", name}});
        }
    }
    families.push_back(std::move(tenant_jobs));
    families.push_back(std::move(tenant_preempt));
    families.push_back(std::move(tenant_inflight));
    families.push_back(std::move(window_jobs));
    families.push_back(std::move(queue_wait));
    families.push_back(std::move(completion));

    if (observer_) {
        const obs::EventJournal &journal = observer_->journal();
        MetricFamily &family =
            counter("menda_serve_journal_events_total",
                    "Journal events emitted / overwritten");
        obs::addSample(family,
                       static_cast<double>(journal.emitted()),
                       {{"event", "emitted"}});
        obs::addSample(family,
                       static_cast<double>(journal.droppedEvents()),
                       {{"event", "dropped"}});
    }
    return families;
}

obs::RunReport
ServeCore::metricsReport() const
{
    obs::RunReport report("menda.serve.metrics");
    report.setMeta("schema", kSchema);
    report.setMeta("policy", schedPolicyName(scheduler_.policy()));
    report.setMetric("machineRanks", scheduler_.machineRanks());
    report.setMetric("virtualCycle",
                     static_cast<double>(virtualCycle_));

    std::uint64_t completed = 0, failed = 0, cancelled = 0;
    for (const auto &[id, job] : jobs_) {
        if (job.state == JobState::Done)
            ++completed;
        else if (job.state == JobState::Failed)
            ++failed;
        else if (job.state == JobState::Cancelled)
            ++cancelled;
    }
    report.setMetric("jobsCompleted", static_cast<double>(completed));
    report.setMetric("jobsFailed", static_cast<double>(failed));
    report.setMetric("jobsCancelled", static_cast<double>(cancelled));
    report.setMetric("jobsRejected",
                     static_cast<double>(rejectedTotal_));
    report.setMetric("preemptions",
                     static_cast<double>(preemptionsTotal_));
    if (virtualCycle_ > 0) {
        double busy = 0.0;
        for (Cycle cycles : rankBusy_)
            busy += static_cast<double>(cycles);
        report.setMetric("rankUtilization",
                         busy / (static_cast<double>(virtualCycle_) *
                                 static_cast<double>(rankBusy_.size())));
    }

    const CacheStats &c = cache_.stats();
    report.setMetric("cacheHits", static_cast<double>(c.hits));
    report.setMetric("cacheMisses", static_cast<double>(c.misses));
    report.setMetric("cacheEvictions",
                     static_cast<double>(c.evictions));
    report.setMetric("cacheHitRatePct", c.hitRatePct());
    report.setMetric("cacheResidentBytes",
                     static_cast<double>(c.residentBytes));

    for (const auto &[name, t] : tenants_) {
        const std::string prefix = "tenant." + name + ".";
        report.setMetric(prefix + "completed",
                         static_cast<double>(t.completed));
        report.setMetric(prefix + "queueWaitP95",
                         static_cast<double>(
                             percentile(t.queueWait, 95.0)));
        report.setMetric(prefix + "queueWaitP99",
                         static_cast<double>(
                             percentile(t.queueWait, 99.0)));
        report.setMetric(prefix + "totalP95",
                         static_cast<double>(percentile(t.total, 95.0)));
        report.setMetric(prefix + "totalP99",
                         static_cast<double>(percentile(t.total, 99.0)));
        report.setMetric(prefix + "preemptions",
                         static_cast<double>(t.preemptions));
        report.addHistogram(prefix + "queueWait", t.queueWaitHist);
        report.addHistogram(prefix + "total", t.totalHist);
    }
    return report;
}

} // namespace menda::serve
