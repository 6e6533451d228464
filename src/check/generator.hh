/**
 * @file
 * Coverage-guided random case generation.
 *
 * Each dimension (kernel, matrix family, PU shape, engine knobs) is
 * drawn from a fixed candidate list, weighted by Coverage::weight — a
 * value that has been exercised many times is proportionally less likely
 * to be drawn again, so generation drifts toward the unexplored corners
 * of the config space while staying fully deterministic for a given
 * seed + execution history.
 */

#ifndef MENDA_CHECK_GENERATOR_HH
#define MENDA_CHECK_GENERATOR_HH

#include "check/case_spec.hh"
#include "check/coverage.hh"
#include "common/random.hh"

namespace menda::check
{

class CaseGenerator
{
  public:
    /** @p coverage may be nullptr for unbiased generation. */
    CaseGenerator(std::uint64_t seed, const Coverage *coverage)
        : rng_(seed), coverage_(coverage)
    {}

    /** Generate the next case (normalized and ready to run). */
    CaseSpec next();

  private:
    /**
     * Draw one of @p count candidate values for @p dimension, weighted
     * by coverage ("dimension=value" hit counts); uniform without
     * coverage. @p value_of maps a candidate index to its value string.
     */
    template <typename ValueOf>
    unsigned pick(const char *dimension, unsigned count,
                  ValueOf &&value_of);

    MatrixSpec randomMatrix(core::Kernel kernel, bool is_b);

    Rng rng_;
    const Coverage *coverage_;
};

} // namespace menda::check

#endif // MENDA_CHECK_GENERATOR_HH
