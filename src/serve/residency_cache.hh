/**
 * @file
 * Matrix-residency cache (DESIGN.md §13).
 *
 * A plan (menda/job.hh) is the expensive host-side half of an offload:
 * NNZ-balanced partitioning and per-rank slice extraction. Plans are
 * immutable and shared via shared_ptr, so the cache can hand the same
 * plan to any number of concurrent jobs and evict it at will —
 * in-flight jobs keep their reference alive; eviction only drops the
 * cache's.
 *
 * Keys are content hashes (FNV-1a over dimensions + arrays) plus the
 * rank count and partitioning mode the plan was built for: a repeated
 * job against the same matrix bytes skips re-allocation and re-layout
 * entirely. Eviction is LRU under a configurable simulated-capacity
 * budget (the bytes the plan keeps resident across the ranks).
 */

#ifndef MENDA_SERVE_RESIDENCY_CACHE_HH
#define MENDA_SERVE_RESIDENCY_CACHE_HH

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <tuple>

#include "menda/job.hh"

namespace menda::serve
{

/** FNV-1a over dims and the ptr/idx/val bytes of @p m. */
std::uint64_t hashCsr(const sparse::CsrMatrix &m);

struct CacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t residentBytes = 0; ///< simulated bytes cached now
    std::uint64_t entries = 0;

    double
    hitRatePct() const
    {
        const std::uint64_t total = hits + misses;
        return total ? 100.0 * static_cast<double>(hits) / total : 0.0;
    }
};

class ResidencyCache
{
  public:
    explicit ResidencyCache(std::uint64_t budget_bytes)
        : budgetBytes_(budget_bytes)
    {}

    /**
     * @p kernel's plan of @p a (times @p b, which only SpGEMM reads) for
     * @p config's rank count and partitioning mode: the cached one, or a
     * new one, cached under the budget.
     */
    core::KernelPlan plan(core::Kernel kernel, const sparse::CsrMatrix &a,
                          const sparse::CsrMatrix &b,
                          const core::SystemConfig &config);

    const CacheStats &stats() const { return stats_; }
    std::uint64_t budgetBytes() const { return budgetBytes_; }

    /** Eviction notification: (kernel name, resident bytes freed). */
    using EvictionHook =
        std::function<void(const char *, std::uint64_t)>;

    /** Observe every LRU eviction (journal feed); pass {} to clear. */
    void setEvictionHook(EvictionHook hook)
    {
        evictionHook_ = std::move(hook);
    }

  private:
    struct Key
    {
        core::Kernel kind = core::Kernel::Transpose;
        std::uint64_t hashA = 0;
        std::uint64_t hashB = 0;
        unsigned pus = 0;
        bool rowPartitioning = false;

        bool
        operator<(const Key &o) const
        {
            return std::tie(kind, hashA, hashB, pus, rowPartitioning) <
                   std::tie(o.kind, o.hashA, o.hashB, o.pus,
                            o.rowPartitioning);
        }
    };

    struct Entry
    {
        core::KernelPlan plan;
        std::uint64_t bytes = 0;
        std::uint64_t lastUse = 0;
    };

    void evictToBudget();

    std::uint64_t budgetBytes_;
    std::uint64_t tick_ = 0; ///< LRU clock
    std::map<Key, Entry> entries_;
    CacheStats stats_;
    EvictionHook evictionHook_;
};

} // namespace menda::serve

#endif // MENDA_SERVE_RESIDENCY_CACHE_HH
