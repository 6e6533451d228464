#include "check/harness.hh"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <ostream>

#include "check/generator.hh"
#include "check/minimize.hh"

namespace menda::check
{

namespace
{

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

void
handleFailure(const FuzzOptions &options, const CaseSpec &spec,
              const Mismatch &mismatch, FuzzResult &result,
              std::ostream &log)
{
    FuzzFailure failure;
    failure.original = spec;
    failure.minimized = spec;
    failure.what = mismatch.what;
    log << "MISMATCH on " << spec.oneLine() << "\n  " << mismatch.what
        << "\n";

    if (options.minimize) {
        const MinimizeResult minimized =
            minimizeCase(spec, [&](const CaseSpec &candidate) {
                return static_cast<bool>(runCase(candidate, nullptr,
                                                 nullptr, nullptr,
                                                 options.injectFault));
            });
        failure.minimized = minimized.spec;
        // Re-derive the message from the minimized spec: the shrunk case
        // is what gets committed, so its symptom is the one to record.
        if (Mismatch final_mismatch =
                runCase(failure.minimized, nullptr, nullptr, nullptr,
                        options.injectFault))
            failure.what = final_mismatch.what;
        log << "  minimized (" << minimized.attempts << " attempts, "
            << minimized.accepted << " shrinks) to "
            << failure.minimized.oneLine() << "\n  " << failure.what
            << "\n";
    }

    if (!options.failureDir.empty()) {
        std::filesystem::create_directories(options.failureDir);
        failure.path = options.failureDir + "/fail-" +
                       std::to_string(result.failures.size()) +
                       ".case.json";
        failure.minimized.write(failure.path);
        log << "  wrote " << failure.path
            << " (replay: menda_check --replay " << failure.path
            << ")\n";
    }
    result.failures.push_back(std::move(failure));
}

} // namespace

FuzzResult
fuzz(const FuzzOptions &options, std::ostream &log)
{
    FuzzResult result;
    const auto start = std::chrono::steady_clock::now();

    if (!options.corpusDir.empty() &&
        std::filesystem::is_directory(options.corpusDir)) {
        std::vector<std::string> paths;
        for (const auto &entry :
             std::filesystem::directory_iterator(options.corpusDir))
            if (entry.path().extension() == ".json")
                paths.push_back(entry.path().string());
        std::sort(paths.begin(), paths.end());
        for (const std::string &path : paths) {
            const CaseSpec spec = CaseSpec::read(path);
            obs::RunReport report;
            const Mismatch mismatch =
                runCase(spec, &result.runs, &result.pairs, &report,
                        options.injectFault);
            ++result.corpusCases;
            result.coverage.note(spec, report);
            if (mismatch) {
                log << "corpus case " << path << " failed\n";
                handleFailure(options, spec, mismatch, result, log);
                if (result.failures.size() >= options.maxFailures)
                    return result;
            }
        }
        log << "corpus: " << result.corpusCases << " cases replayed, "
            << result.coverage.summary() << "\n";
    }

    CaseGenerator generator(options.seed, &result.coverage);
    while (result.failures.size() < options.maxFailures) {
        if (options.maxCases != 0 && result.cases >= options.maxCases)
            break;
        if (secondsSince(start) >= options.budgetSeconds)
            break; // --budget 0s = corpus-only run
        const CaseSpec spec = generator.next();
        obs::RunReport report;
        const Mismatch mismatch =
            runCase(spec, &result.runs, &result.pairs, &report,
                    options.injectFault);
        ++result.cases;
        result.coverage.note(spec, report);
        if (mismatch)
            handleFailure(options, spec, mismatch, result, log);
        if (options.logEvery != 0 &&
            result.cases % options.logEvery == 0)
            log << "[" << result.cases << " cases, " << result.runs
                << " runs] " << result.coverage.summary() << "\n";
    }

    log << "done: " << result.cases << " generated + "
        << result.corpusCases << " corpus cases, " << result.runs
        << " variant runs, " << result.pairs << " pairwise diffs, "
        << result.failures.size() << " mismatches; "
        << result.coverage.summary() << "\n";
    return result;
}

Mismatch
replayFile(const std::string &path, std::ostream &log, bool inject_fault)
{
    const CaseSpec spec = CaseSpec::read(path);
    log << "replaying " << path << ": " << spec.oneLine() << "\n";
    unsigned runs = 0, pairs = 0;
    const Mismatch mismatch =
        runCase(spec, &runs, &pairs, nullptr, inject_fault);
    if (mismatch)
        log << "MISMATCH: " << mismatch.what << "\n";
    else
        log << "ok: " << runs << " variant runs, " << pairs
            << " pairwise diffs, all identical\n";
    return mismatch;
}

} // namespace menda::check
