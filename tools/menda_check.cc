/**
 * @file
 * `menda_check` — differential conformance fuzzer for the MeNDA engines.
 *
 * Fuzz mode (default):
 *
 *   menda_check --budget 60s --seed 1 [--max-cases N] [--corpus DIR]
 *               [--out DIR] [--max-failures N] [--no-minimize]
 *
 * generates coverage-biased random cases, runs each through every
 * applicable engine variant (sequential, sharded-parallel, traced,
 * sampled, the fast tiers, served, condensed), and diffs outputs, golden
 * CPU references, and the deterministic run-report metrics. A mismatch
 * is delta-debugged to a minimal spec and written to
 * `<out>/fail-N.case.json`.
 *
 * Replay mode:
 *
 *   menda_check --replay tests/corpus/some.case.json
 *
 * re-runs one persisted case deterministically. Exit status: 0 = all
 * cases conform, 1 = mismatch found, 2 = usage/file error (including a
 * case file with a missing, mistyped or out-of-range field).
 *
 * `--inject-fault` is the harness's own self-test: the threadsN variant
 * then runs with tRRD_L = tRRD_S in its DRAM config, a config-propagation
 * bug the report diffs must catch and the minimizer must shrink. The
 * flag goes to the harness as an argument; nothing in the simulator
 * reads it.
 */

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "check/harness.hh"
#include "common/config.hh"

namespace
{

/**
 * Join "--key value" argument pairs into the "--key=value" form Options
 * understands, so `menda_check --budget 60s` works as documented.
 */
std::vector<std::string>
joinedArgs(int argc, char **argv)
{
    std::vector<std::string> args;
    for (int i = 0; i < argc; ++i) {
        std::string arg = argv[i];
        if (i > 0 && arg.rfind("--", 0) == 0 &&
            arg.find('=') == std::string::npos && i + 1 < argc &&
            std::string(argv[i + 1]).rfind("--", 0) != 0) {
            arg += "=";
            arg += argv[++i];
        }
        args.push_back(std::move(arg));
    }
    return args;
}

/** Parse "60", "60s", "2m" into seconds; menda_fatal-free, returns <0 on error. */
double
parseBudget(const std::string &text)
{
    if (text.empty())
        return -1.0;
    double scale = 1.0;
    std::string number = text;
    switch (text.back()) {
      case 's': scale = 1.0; number.pop_back(); break;
      case 'm': scale = 60.0; number.pop_back(); break;
      case 'h': scale = 3600.0; number.pop_back(); break;
      default: break;
    }
    char *end = nullptr;
    const double value = std::strtod(number.c_str(), &end);
    if (end == nullptr || *end != '\0' || value < 0.0)
        return -1.0;
    return value * scale;
}

void
usage()
{
    std::fprintf(
        stderr,
        "usage: menda_check [--budget 60s] [--seed N] [--max-cases N]\n"
        "                   [--max-failures N] [--corpus DIR] [--out DIR]\n"
        "                   [--no-minimize] [--inject-fault]\n"
        "       menda_check [--inject-fault] --replay FILE.case.json\n");
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace menda;

    const std::vector<std::string> joined = joinedArgs(argc, argv);
    std::vector<const char *> raw;
    raw.reserve(joined.size());
    for (const std::string &arg : joined)
        raw.push_back(arg.c_str());
    Options opts;
    opts.parse(static_cast<int>(raw.size()), raw.data());

    if (opts.has("help")) {
        usage();
        return 0;
    }
    const bool inject_fault = opts.has("inject-fault");

    try {
        if (opts.has("replay")) {
            const check::Mismatch mismatch = check::replayFile(
                opts.get("replay"), std::cout, inject_fault);
            return mismatch ? 1 : 0;
        }

        check::FuzzOptions options;
        options.seed = static_cast<std::uint64_t>(opts.getInt("seed", 1));
        const std::string budget = opts.get("budget", "60s");
        options.budgetSeconds = parseBudget(budget);
        if (options.budgetSeconds < 0.0) {
            std::fprintf(stderr, "error: bad --budget '%s'\n",
                         budget.c_str());
            usage();
            return 2;
        }
        options.maxCases =
            static_cast<unsigned>(opts.getInt("max-cases", 0));
        options.maxFailures =
            static_cast<unsigned>(opts.getInt("max-failures", 1));
        options.corpusDir = opts.get("corpus", "");
        options.failureDir = opts.get("out", ".");
        options.minimize = !opts.has("no-minimize");
        options.injectFault = inject_fault;

        const check::FuzzResult result = check::fuzz(options, std::cout);
        return result.passed() ? 0 : 1;
    } catch (const std::exception &error) {
        std::fprintf(stderr, "error: %s\n", error.what());
        return 2;
    }
}
