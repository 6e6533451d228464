/**
 * @file
 * Serializable differential-conformance case descriptions.
 *
 * A CaseSpec is everything needed to reproduce one fuzzed workload
 * deterministically: the kernel, the synthetic input matrix (or matrices
 * for SpGEMM), the PU configuration, and the engine knobs that select
 * which execution variants the harness cross-checks. Specs round-trip
 * through canonical JSON (`menda.caseSpec/1`, sorted keys) so a failing
 * case minimizes to a small `.case.json` file that
 * `menda_check --replay file.case.json` re-runs in one command.
 */

#ifndef MENDA_CHECK_CASE_SPEC_HH
#define MENDA_CHECK_CASE_SPEC_HH

#include <cstdint>
#include <string>

#include "menda/kernel.hh"
#include "menda/system.hh"
#include "sparse/format.hh"

namespace menda::check
{

/**
 * Synthetic matrix families. Uniform/Rmat/Banded/SkewedRows wrap the
 * sparse::generate* generators; the rest are the pathological structures
 * point tests under-sample (SpArch's failure modes): fully empty row
 * ranges, a few dense rows dominating the fan-in, all non-zeros in a
 * single column, and duplicate-heavy inputs that stress SpGEMM's
 * same-key accumulation.
 */
enum class MatrixKind : std::uint8_t
{
    Uniform,
    Rmat,
    Banded,
    SkewedRows,
    EmptyRows,
    DenseRows,
    SingleColumn,
    DuplicateHeavy,
};

const char *matrixKindName(MatrixKind kind);

struct MatrixSpec
{
    MatrixKind kind = MatrixKind::Uniform;
    Index rows = 64;
    Index cols = 64;
    std::uint64_t nnz = 256;
    std::uint64_t seed = 1;

    bool operator==(const MatrixSpec &other) const = default;
};

/** Deterministically materialize @p spec (same spec -> same matrix). */
sparse::CsrMatrix buildMatrix(const MatrixSpec &spec);

struct CaseSpec
{
    static constexpr const char *kSchema = "menda.caseSpec/1";

    core::Kernel kernel = core::Kernel::Transpose;
    MatrixSpec a;
    MatrixSpec b; ///< SpGEMM only; b.rows is forced to a.cols

    // --- PU / system knobs ---
    unsigned pus = 1; ///< single channel/DIMM, this many ranks
    unsigned leaves = 16;
    unsigned fifoEntries = 2;
    unsigned prefetchBufferEntries = 32;
    bool stallReducingPrefetch = true;
    bool requestCoalescing = true;
    bool seamlessMerge = true;

    // --- engine knobs: which execution variants to cross-check ---
    unsigned threads = 2;           ///< host threads of the sharded variant
    bool withTrace = true;          ///< run the traced variant
    std::uint64_t samplePeriod = 0; ///< sampled variant; 0 = skip

    // Fast simulation tiers (DESIGN.md Sec. 12). These variants promise
    // bitwise-identical *outputs* only, so the harness skips the report
    // comparison for them.
    bool withFunctional = false; ///< run the functional fast tier
    bool withSampledSim = false; ///< run the sampled (SMARTS) fast tier

    /**
     * Route the case through the menda_serve daemon core (in-process,
     * no sockets): submit over the `menda.job/1` protocol, execute in
     * scheduler slices, decode the response. The detailed tier's
     * outputs AND report must be byte-identical to the direct path.
     */
    bool withServed = false;

    /**
     * SpGEMM only: also run the Huffman (condensed) merge scheduler and
     * diff its CSR bitwise against the uniform baseline (DESIGN.md
     * Sec. 15). Reports are not compared — the schedule differs.
     */
    bool withCondensed = false;

    /** Clamp fields into valid ranges and tie b.rows to a.cols. */
    void normalize();

    /** SystemConfig shared by every variant of this case. */
    core::SystemConfig systemConfig() const;

    /** Deterministic SpMV input vector (derived from a.seed). */
    std::vector<Value> spmvInput(Index cols) const;

    /** Short human-readable summary for log lines. */
    std::string oneLine() const;

    /** Canonical JSON (schema menda.caseSpec/1). */
    std::string toJson() const;

    /**
     * Parse a spec back, then normalize() it. Every field must be
     * present with its JSON type and every number must be an integer
     * its field holds exactly; otherwise throws std::runtime_error naming
     * the field. Only the fast-tier, served and condensed flags may be
     * absent (meaning off); keys not read here, such as the retired
     * DRAM-oracle flag of older files, are ignored.
     */
    static CaseSpec fromJson(const std::string &text);

    void write(const std::string &path) const;
    static CaseSpec read(const std::string &path);

    bool operator==(const CaseSpec &other) const = default;
};

} // namespace menda::check

#endif // MENDA_CHECK_CASE_SPEC_HH
