/**
 * @file
 * Conformance regression suite on top of the menda_check subsystem.
 *
 *  - A committed golden run-report corpus (3 small matrices x 3
 *    kernels) must stay byte-identical: any change to deterministic
 *    metrics, report canonicalization, or simulation behaviour fails
 *    here before it can silently shift the perf gate. Regenerate with
 *    `MENDA_REGEN_GOLDEN=1 ./tests/test_conformance` after an
 *    intentional change.
 *  - Every committed corpus case under tests/corpus/ must replay clean
 *    through the full variant cross-check, and replays must be
 *    deterministic (same bytes twice).
 *  - The harness's own end-to-end self test: with the hidden
 *    MENDA_TEST_FLIP_TIEBREAK fault armed, the menda_check binary must
 *    catch the flipped DRAM scheduler tie-break and minimize it to a
 *    tiny repro case.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
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

/** The three committed matrices. Small but structurally distinct. */
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
};

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

fs::path
goldenPath(const GoldenCase &matrix, Kernel kernel)
{
    return fs::path(MENDA_TEST_DATA_DIR) / "conformance" /
           (std::string(matrix.matrixName) + "-" + kernelName(kernel) +
            ".report.json");
}

class GoldenReports
    : public ::testing::TestWithParam<std::pair<unsigned, unsigned>>
{
};

} // namespace

TEST_P(GoldenReports, ByteIdenticalAndZeroToleranceDiff)
{
    const GoldenCase &matrix = kMatrices[GetParam().first];
    const Kernel kernel = core::kKernels[GetParam().second];
    const CaseSpec spec = goldenSpec(matrix, kernel);
    const EngineVariant baseline = variantsFor(spec).front();
    const CaseOutcome outcome = runVariant(spec, baseline);

    const fs::path path = goldenPath(matrix, kernel);
    if (std::getenv("MENDA_REGEN_GOLDEN") != nullptr) {
        fs::create_directories(path.parent_path());
        outcome.report.write(path.string());
    }
    ASSERT_TRUE(fs::exists(path))
        << path << " missing; regenerate with MENDA_REGEN_GOLDEN=1";

    // Byte-identical: the canonical serialization and every metric value
    // must match exactly.
    EXPECT_EQ(readFile(path), outcome.reportJson)
        << "golden report drifted for " << spec.oneLine()
        << "; if intentional, regenerate with MENDA_REGEN_GOLDEN=1";

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

TEST(InjectedFault, SchedulerTieBreakBugIsCaughtAndMinimized)
{
    const fs::path out =
        fs::path(::testing::TempDir()) / "menda_check_fault";
    fs::remove_all(out);
    fs::create_directories(out);
    const std::string bin = MENDA_CHECK_BIN;

    // The flipped FR-pass tie-break must surface as a cross-variant
    // mismatch within a modest number of generated cases.
    const int fuzz_status = runBinary(
        bin +
        " --budget 60s --seed 1 --max-cases 300 --inject-tiebreak-bug"
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
    EXPECT_EQ(runBinary(bin + " --inject-tiebreak-bug --replay " +
                        repro.string() + " > /dev/null 2>&1"),
              1);
    EXPECT_EQ(runBinary(bin + " --replay " + repro.string() +
                        " > /dev/null 2>&1"),
              0);
}
