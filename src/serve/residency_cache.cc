#include "serve/residency_cache.hh"

#include <cstring>

namespace menda::serve
{

namespace
{

std::uint64_t
fnv1a(std::uint64_t h, const void *data, std::size_t bytes)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < bytes; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

template <typename T>
std::uint64_t
fnv1aVec(std::uint64_t h, const std::vector<T> &v)
{
    return fnv1a(h, v.data(), v.size() * sizeof(T));
}

} // namespace

std::uint64_t
hashCsr(const sparse::CsrMatrix &m)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    const std::uint64_t dims[2] = {m.rows, m.cols};
    h = fnv1a(h, dims, sizeof(dims));
    h = fnv1aVec(h, m.ptr);
    h = fnv1aVec(h, m.idx);
    h = fnv1aVec(h, m.val);
    return h;
}

core::KernelPlan
ResidencyCache::plan(core::Kernel kernel, const sparse::CsrMatrix &a,
                     const sparse::CsrMatrix &b,
                     const core::SystemConfig &config)
{
    const Key key{kernel, hashCsr(a),
                  kernel == core::Kernel::Spgemm ? hashCsr(b) : 0,
                  config.totalPus(), config.rowPartitioning};
    ++tick_;
    auto it = entries_.find(key);
    if (it != entries_.end()) {
        ++stats_.hits;
        it->second.lastUse = tick_;
        return it->second.plan;
    }
    ++stats_.misses;
    Entry entry;
    switch (kernel) {
      case core::Kernel::Transpose:
        entry.plan = core::planTranspose(a, config);
        break;
      case core::Kernel::Spmv:
        entry.plan = core::planSpmv(a, config);
        break;
      case core::Kernel::Spgemm:
        entry.plan = core::planSpgemm(a, b, config);
        break;
    }
    entry.bytes = std::visit(
        [](const auto &p) { return p->residentBytes(); }, entry.plan);
    entry.lastUse = tick_;
    stats_.residentBytes += entry.bytes;
    const core::KernelPlan built = entry.plan;
    entries_.emplace(key, std::move(entry));
    stats_.entries = entries_.size();
    evictToBudget();
    return built;
}

void
ResidencyCache::evictToBudget()
{
    // LRU: drop the least-recently-used entry until within budget. An
    // entry larger than the whole budget is dropped too — the caller's
    // shared_ptr keeps the in-flight plan alive; we just don't retain.
    while (stats_.residentBytes > budgetBytes_ && !entries_.empty()) {
        auto lru = entries_.begin();
        for (auto it = std::next(entries_.begin()); it != entries_.end();
             ++it)
            if (it->second.lastUse < lru->second.lastUse)
                lru = it;
        stats_.residentBytes -= lru->second.bytes;
        ++stats_.evictions;
        if (evictionHook_)
            evictionHook_(core::kernelName(lru->first.kind),
                          lru->second.bytes);
        entries_.erase(lru);
    }
    stats_.entries = entries_.size();
}

} // namespace menda::serve
