/**
 * @file
 * Conformance regression suite on top of the menda_check subsystem.
 *
 *  - A committed golden run-report corpus (4 small matrices x 3
 *    kernels x the seq, condensed, functional and sampledsim engines)
 *    must stay byte-identical: any change to deterministic metrics,
 *    report canonicalization, simulation behaviour, the Huffman
 *    schedule or the fast tiers' estimates fails here before it can
 *    silently shift the perf gate. Regenerate with
 *    `MENDA_REGEN_GOLDEN=1 ./tests/test_conformance` after an
 *    intentional change.
 *  - Every committed corpus case under tests/corpus/ must replay clean
 *    through the full variant cross-check, and replays must be
 *    deterministic (same bytes twice).
 *  - The harness's own end-to-end self test: with `--inject-fault`, the
 *    menda_check binary must catch the timing bug it plants in the
 *    threadsN variant (tRRD_L = tRRD_S) and minimize it to a tiny
 *    repro case.
 *  - Hostile case files: a missing, mistyped or out-of-range field is an
 *    error naming the field, and `menda_check --replay` exits 2 instead
 *    of running some other case.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "check/case_spec.hh"
#include "check/engine.hh"
#include "obs/report.hh"

using namespace menda;
using namespace menda::check;
using core::Kernel;

namespace
{

namespace fs = std::filesystem;

std::string
readFile(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("cannot open " + path.string());
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

struct GoldenCase
{
    const char *matrixName;
    MatrixSpec a;
};

/**
 * The committed matrices. Small but structurally distinct; uniform256
 * is the one large enough (4,096 nnz) to pass the sampled tier's
 * 1,024-element checkpoint stride, so its sampledsim reports run
 * several measurement windows on checkpoint suffixes.
 */
const GoldenCase kMatrices[] = {
    {"uniform48",
     {MatrixKind::Uniform, /*rows=*/48, /*cols=*/48, /*nnz=*/300,
      /*seed=*/11}},
    {"rmat32",
     {MatrixKind::Rmat, /*rows=*/32, /*cols=*/32, /*nnz=*/200,
      /*seed=*/12}},
    {"denserows40",
     {MatrixKind::DenseRows, /*rows=*/40, /*cols=*/56, /*nnz=*/280,
      /*seed=*/13}},
    {"uniform256",
     {MatrixKind::Uniform, /*rows=*/256, /*cols=*/256, /*nnz=*/4096,
      /*seed=*/14}},
};

/** Engines with a golden axis; names are check::variantsFor's. */
const char *const kEngines[] = {"seq", "condensed", "functional",
                                "sampledsim"};

CaseSpec
goldenSpec(const GoldenCase &matrix, Kernel kernel)
{
    CaseSpec spec;
    spec.kernel = kernel;
    spec.a = matrix.a;
    if (kernel == Kernel::Spgemm) {
        spec.b = {MatrixKind::Uniform, matrix.a.cols, 48, 250,
                  matrix.a.seed + 100};
    }
    spec.pus = 2;
    spec.leaves = 16;
    spec.normalize();
    return spec;
}

/** The variant menda_check runs as @p engine on @p spec. */
EngineVariant
goldenVariant(CaseSpec spec, const std::string &engine)
{
    spec.withFunctional = spec.withSampledSim = true;
    spec.withCondensed = spec.kernel == Kernel::Spgemm;
    for (const EngineVariant &variant : variantsFor(spec))
        if (variant.name == engine)
            return variant;
    throw std::runtime_error("no " + engine + " variant for " +
                             spec.oneLine());
}

/**
 * Run @p matrix through @p kernel on @p engine and check the report
 * against the committed file @p name under tests/data/conformance.
 */
void
expectGoldenReport(const GoldenCase &matrix, Kernel kernel,
                   const std::string &engine, const std::string &name)
{
    const CaseSpec spec = goldenSpec(matrix, kernel);
    const CaseOutcome outcome =
        runVariant(spec, goldenVariant(spec, engine));

    const fs::path path =
        fs::path(MENDA_TEST_DATA_DIR) / "conformance" / name;
    if (std::getenv("MENDA_REGEN_GOLDEN") != nullptr) {
        fs::create_directories(path.parent_path());
        outcome.report.write(path.string());
    }
    ASSERT_TRUE(fs::exists(path))
        << path << " missing; regenerate with MENDA_REGEN_GOLDEN=1";

    // Byte-identical: the canonical serialization and every metric value
    // must match exactly.
    EXPECT_EQ(readFile(path), outcome.reportJson)
        << "golden report drifted for " << spec.oneLine() << " on "
        << engine << "; if intentional, regenerate with "
        << "MENDA_REGEN_GOLDEN=1";

    // And through the diff tool's strictest setting: zero tolerance.
    const obs::RunReport golden = obs::RunReport::read(path.string());
    obs::DiffOptions zero;
    zero.tolerance = 0.0;
    const obs::DiffResult diff =
        obs::diffReports(golden, outcome.report, zero);
    EXPECT_TRUE(diff.passed);
    for (const obs::DiffResult::Entry &entry : diff.entries)
        EXPECT_TRUE(entry.withinTolerance || entry.ignored)
            << entry.name << ": golden " << entry.baseline << " vs "
            << entry.current;
}

/** The seq (detailed-tier) reports of the first three matrices. */
class GoldenReports
    : public ::testing::TestWithParam<std::pair<unsigned, unsigned>>
{
};

/** One (matrix, kernel, engine) cell of the engine axis. */
struct GoldenRun
{
    unsigned matrix = 0;
    Kernel kernel = Kernel::Transpose;
    unsigned engine = 0; ///< index into kEngines

    /** e.g. "uniform256_transpose_sampledsim". */
    std::string
    name() const
    {
        return std::string(kMatrices[matrix].matrixName) + "_" +
               kernelName(kernel) + "_" + kEngines[engine];
    }
};

void
PrintTo(const GoldenRun &run, std::ostream *os)
{
    *os << run.name();
}

/** Matrices (from the front of kMatrices) whose seq reports
 *  GoldenReports pins under their pre-engine-axis names. */
constexpr unsigned kSeqPinnedMatrices = 3;

/**
 * Every engine on every matrix, minus the seq cells GoldenReports
 * already pins (the condensed scheduler exists for SpGEMM only).
 */
std::vector<GoldenRun>
engineRuns()
{
    std::vector<GoldenRun> runs;
    for (unsigned m = 0; m < std::size(kMatrices); ++m)
        for (Kernel kernel : core::kKernels)
            for (unsigned e = 0; e < std::size(kEngines); ++e) {
                const std::string engine = kEngines[e];
                if ((engine == "seq" && m < kSeqPinnedMatrices) ||
                    (engine == "condensed" && kernel != Kernel::Spgemm))
                    continue;
                runs.push_back({m, kernel, e});
            }
    return runs;
}

class GoldenEngineReports : public ::testing::TestWithParam<GoldenRun>
{
};

} // namespace

TEST_P(GoldenReports, ByteIdenticalAndZeroToleranceDiff)
{
    const GoldenCase &matrix = kMatrices[GetParam().first];
    const Kernel kernel = core::kKernels[GetParam().second];
    expectGoldenReport(matrix, kernel, "seq",
                       std::string(matrix.matrixName) + "-" +
                           kernelName(kernel) + ".report.json");
}

INSTANTIATE_TEST_SUITE_P(
    MatrixKernel, GoldenReports,
    ::testing::Values(std::pair<unsigned, unsigned>{0, 0},
                      std::pair<unsigned, unsigned>{0, 1},
                      std::pair<unsigned, unsigned>{0, 2},
                      std::pair<unsigned, unsigned>{1, 0},
                      std::pair<unsigned, unsigned>{1, 1},
                      std::pair<unsigned, unsigned>{1, 2},
                      std::pair<unsigned, unsigned>{2, 0},
                      std::pair<unsigned, unsigned>{2, 1},
                      std::pair<unsigned, unsigned>{2, 2}));

TEST_P(GoldenEngineReports, ByteIdenticalAndZeroToleranceDiff)
{
    const GoldenRun &run = GetParam();
    expectGoldenReport(kMatrices[run.matrix], run.kernel,
                       kEngines[run.engine],
                       std::string(kMatrices[run.matrix].matrixName) +
                           "-" + kernelName(run.kernel) + "-" +
                           kEngines[run.engine] + ".report.json");
}

INSTANTIATE_TEST_SUITE_P(
    MatrixKernelEngine, GoldenEngineReports,
    ::testing::ValuesIn(engineRuns()),
    [](const ::testing::TestParamInfo<GoldenRun> &info) {
        return info.param.name();
    });

TEST(ConformanceCorpus, EveryCommittedCaseReplaysClean)
{
    const fs::path dir(MENDA_TEST_CORPUS_DIR);
    ASSERT_TRUE(fs::exists(dir));
    unsigned replayed = 0;
    for (const fs::directory_entry &entry : fs::directory_iterator(dir)) {
        if (entry.path().extension() != ".json")
            continue;
        SCOPED_TRACE("repro: ./tools/menda_check --replay " +
                     entry.path().string());
        const CaseSpec spec = CaseSpec::read(entry.path().string());
        const Mismatch mismatch = runCase(spec);
        EXPECT_FALSE(mismatch) << mismatch.what;
        ++replayed;
    }
    // The committed corpus covers all three kernels and the pathological
    // matrix kinds; an empty directory would vacuously pass.
    EXPECT_GE(replayed, 10u);
}

TEST(ConformanceCorpus, ReplayIsDeterministic)
{
    const fs::path dir(MENDA_TEST_CORPUS_DIR);
    fs::path first;
    for (const fs::directory_entry &entry : fs::directory_iterator(dir)) {
        if (entry.path().extension() == ".json" &&
            (first.empty() || entry.path() < first))
            first = entry.path();
    }
    ASSERT_FALSE(first.empty());
    const CaseSpec spec = CaseSpec::read(first.string());
    const EngineVariant baseline = variantsFor(spec).front();
    const CaseOutcome once = runVariant(spec, baseline);
    const CaseOutcome again = runVariant(spec, baseline);
    EXPECT_EQ(once.reportJson, again.reportJson);
    EXPECT_EQ(once.csc.ptr, again.csc.ptr);
    EXPECT_EQ(once.csc.idx, again.csc.idx);
    EXPECT_EQ(once.csc.val, again.csc.val);
}

namespace
{

int
runBinary(const std::string &command)
{
    const int status = std::system(command.c_str());
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

} // namespace

TEST(InjectedFault, TimingBugIsCaughtAndMinimized)
{
    const fs::path out =
        fs::path(::testing::TempDir()) / "menda_check_fault";
    fs::remove_all(out);
    fs::create_directories(out);
    const std::string bin = MENDA_CHECK_BIN;

    // The threadsN variant's dropped tRRD_L must surface as a
    // cross-variant mismatch within a modest number of generated cases.
    const int fuzz_status = runBinary(
        bin +
        " --budget 60s --seed 1 --max-cases 300 --inject-fault"
        " --out " +
        out.string() + " > " + (out / "fuzz.log").string() + " 2>&1");
    ASSERT_EQ(fuzz_status, 1) << readFile(out / "fuzz.log");

    const fs::path repro = out / "fail-0.case.json";
    ASSERT_TRUE(fs::exists(repro)) << readFile(out / "fuzz.log");

    // Minimization must shrink the repro to a tiny workload.
    const CaseSpec spec = CaseSpec::read(repro.string());
    std::uint64_t total_nnz = buildMatrix(spec.a).nnz();
    if (spec.kernel == Kernel::Spgemm)
        total_nnz += buildMatrix(spec.b).nnz();
    EXPECT_LE(total_nnz, 64u) << spec.oneLine();

    // The minimized case replays red with the fault and green without.
    EXPECT_EQ(runBinary(bin + " --inject-fault --replay " +
                        repro.string() + " > /dev/null 2>&1"),
              1);
    EXPECT_EQ(runBinary(bin + " --replay " + repro.string() +
                        " > /dev/null 2>&1"),
              0);
}

namespace
{

/**
 * A valid transpose case file with @p from replaced by @p to, written
 * under the test temp dir; returns its path.
 */
std::string
hostileCase(const std::string &name, const std::string &from,
            const std::string &to)
{
    CaseSpec spec;
    spec.a = {MatrixKind::Uniform, 64, 64, 256, 1};
    spec.normalize();
    std::string text = spec.toJson();
    const std::size_t at = text.find(from);
    EXPECT_NE(at, std::string::npos) << from << " not in " << text;
    if (at != std::string::npos)
        text.replace(at, from.size(), to);
    const fs::path path =
        fs::path(::testing::TempDir()) / (name + ".case.json");
    std::ofstream(path, std::ios::binary) << text << "\n";
    return path.string();
}

/** CaseSpec::read's error for @p path, or "" when it parses. */
std::string
readError(const std::string &path)
{
    try {
        CaseSpec::read(path);
    } catch (const std::runtime_error &error) {
        return error.what();
    }
    return "";
}

/** Exit status of `menda_check --replay @p path`. */
int
replayStatus(const std::string &path)
{
    return runBinary(std::string(MENDA_CHECK_BIN) + " --replay " + path +
                     " > /dev/null 2>&1");
}

} // namespace

TEST(HostileCaseFile, NegativeRowsAreRejected)
{
    // Cast unchecked, -5 is undefined and ran as 4096 rows.
    const std::string path =
        hostileCase("negative-rows", "\"rows\":64", "\"rows\":-5");
    EXPECT_NE(readError(path).find("'a.rows'"), std::string::npos)
        << readError(path);
    EXPECT_EQ(replayStatus(path), 2);
}

TEST(HostileCaseFile, OutOfRangeThreadsAreRejected)
{
    // Cast unchecked, 1e10 is undefined and ran as 4 threads.
    const std::string path = hostileCase("huge-threads", "\"threads\":2",
                                         "\"threads\":1e10");
    EXPECT_NE(readError(path).find("'engine.threads'"), std::string::npos)
        << readError(path);
    EXPECT_EQ(replayStatus(path), 2);
}

TEST(HostileCaseFile, MistypedLeavesAreRejected)
{
    // Read unchecked, a string is 0 and ran as 4 leaves.
    const std::string path =
        hostileCase("string-leaves", "\"leaves\":16", "\"leaves\":\"64\"");
    EXPECT_NE(readError(path).find("'pu.leaves'"), std::string::npos)
        << readError(path);
    EXPECT_EQ(replayStatus(path), 2);
}

TEST(HostileCaseFile, MissingRowsAreRejected)
{
    // Read unchecked, an absent field is 0 and ran as 1 row.
    const std::string path =
        hostileCase("missing-rows", "\"rows\":64,", "");
    EXPECT_NE(readError(path).find("'a.rows'"), std::string::npos)
        << readError(path);
    EXPECT_EQ(replayStatus(path), 2);
}

TEST(HostileCaseFile, FractionalAndMistypedFieldsAreRejected)
{
    EXPECT_NE(readError(hostileCase("fractional-nnz", "\"nnz\":256",
                                    "\"nnz\":2.5"))
                  .find("'a.nnz'"),
              std::string::npos);
    EXPECT_NE(readError(hostileCase("numeric-trace", "\"trace\":true",
                                    "\"trace\":1"))
                  .find("'engine.trace'"),
              std::string::npos);
    EXPECT_NE(readError(hostileCase("mistyped-served", "\"served\":false",
                                    "\"served\":\"no\""))
                  .find("'engine.served'"),
              std::string::npos);
    EXPECT_NE(readError(hostileCase("array-pu", "\"pu\":{",
                                    "\"pu\":[],\"x\":{"))
                  .find("'pu'"),
              std::string::npos);
}

TEST(HostileCaseFile, LegacyAndOptionalKeysStillRead)
{
    // Older corpus files carry "referenceScheduler" (ignored) and lack
    // the later optional engine flags (off); both still parse, and a
    // clamped value is normalized, not rejected.
    CaseSpec spec;
    spec.a = {MatrixKind::Uniform, 64, 64, 256, 1};
    spec.withServed = true;
    spec.normalize();
    std::string text = spec.toJson();
    text.replace(text.find("\"samplePeriod\""), 0,
                 "\"referenceScheduler\":true,");
    text.replace(text.find("\"served\":true,"),
                 std::string("\"served\":true,").size(), "");
    text.replace(text.find("\"leaves\":16"),
                 std::string("\"leaves\":16").size(), "\"leaves\":1000");
    const CaseSpec parsed = CaseSpec::fromJson(text);
    EXPECT_FALSE(parsed.withServed);
    EXPECT_EQ(parsed.leaves, 64u);
    EXPECT_EQ(parsed.a, spec.a);
}
