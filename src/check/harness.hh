/**
 * @file
 * The conformance fuzz loop: generate, run, cover, minimize, persist.
 *
 * One fuzz session replays the committed corpus first (known-tricky
 * regions stay covered and seed the coverage map), then generates
 * coverage-biased random cases until a time or case budget runs out. Any
 * mismatch is delta-debugged to a minimal spec and written to
 * `<failureDir>/<name>.case.json`; `menda_check --replay` re-runs such a
 * file deterministically.
 */

#ifndef MENDA_CHECK_HARNESS_HH
#define MENDA_CHECK_HARNESS_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "check/case_spec.hh"
#include "check/coverage.hh"
#include "check/engine.hh"

namespace menda::check
{

struct FuzzOptions
{
    std::uint64_t seed = 1;
    double budgetSeconds = 60.0; ///< wall budget for generated cases
    unsigned maxCases = 0;       ///< stop after this many cases; 0 = no cap
    unsigned maxFailures = 1;    ///< stop after this many minimized failures
    std::string corpusDir;       ///< replayed before fuzzing; "" = skip
    std::string failureDir = "."; ///< minimized .case.json files land here
    bool minimize = true;
    unsigned logEvery = 50;      ///< progress line period; 0 = quiet
    bool injectFault = false;    ///< self-test: see runCase()
};

struct FuzzFailure
{
    CaseSpec original;  ///< first failing spec as generated
    CaseSpec minimized; ///< delta-debugged spec (== original if !minimize)
    std::string what;   ///< mismatch description from the minimized spec
    std::string path;   ///< written .case.json ("" if failureDir empty)
};

struct FuzzResult
{
    unsigned corpusCases = 0; ///< corpus files replayed
    unsigned cases = 0;       ///< generated cases executed
    unsigned runs = 0;        ///< engine-variant executions
    unsigned pairs = 0;       ///< pairwise diffs checked
    std::vector<FuzzFailure> failures;
    Coverage coverage;

    bool passed() const { return failures.empty(); }
};

/** Run one fuzz session; progress and findings go to @p log. */
FuzzResult fuzz(const FuzzOptions &options, std::ostream &log);

/**
 * Re-run one persisted case file under the full variant matrix.
 * Returns the mismatch (empty = the case passes). Throws
 * std::runtime_error when the file is unreadable or not a valid spec.
 */
Mismatch replayFile(const std::string &path, std::ostream &log,
                    bool inject_fault = false);

} // namespace menda::check

#endif // MENDA_CHECK_HARNESS_HH
