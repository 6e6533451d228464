/**
 * @file
 * The kernels MeNDA offloads, as one table shared by every layer: the
 * PU, KernelJob, the host API, menda_serve and menda_check.
 *
 * Transposition, SpMV and SpGEMM are one merge-tree dataflow that
 * differs only in its stream source and root reduction (Sec. 3.1-3.6,
 * DESIGN.md §9). The kernel names the wire/report/case-file spelling
 * and picks the key the merge tree orders packets by.
 */

#ifndef MENDA_MENDA_KERNEL_HH
#define MENDA_MENDA_KERNEL_HH

#include <cstdint>
#include <optional>
#include <string_view>

#include "menda/packet.hh"

namespace menda::core
{

enum class Kernel : std::uint8_t
{
    Transpose, ///< CSR slice -> CSC slice (Sec. 3.1-3.5)
    Spmv,      ///< CSC slice * x -> dense y partition (Sec. 3.6)
    Spgemm,    ///< A slice x B -> CSR slice of C (outer product)
};

/** Every kernel, in enumerator order. */
inline constexpr Kernel kKernels[] = {Kernel::Transpose, Kernel::Spmv,
                                      Kernel::Spgemm};

namespace detail
{

struct KernelTraits
{
    const char *name;
    MergeKey key;
};

/** Indexed by Kernel. */
inline constexpr KernelTraits kKernelTraits[] = {
    {"transpose", MergeKey::Column},
    {"spmv", MergeKey::Row},
    {"spgemm", MergeKey::RowCol},
};

} // namespace detail

/** "transpose" | "spmv" | "spgemm": wire, report and case-file name. */
inline const char *
kernelName(Kernel kernel)
{
    return detail::kKernelTraits[static_cast<unsigned>(kernel)].name;
}

/** Inverse of kernelName(); nullopt for an unknown name. */
inline std::optional<Kernel>
parseKernel(std::string_view name)
{
    for (Kernel kernel : kKernels)
        if (name == kernelName(kernel))
            return kernel;
    return std::nullopt;
}

/** The key @p kernel's merge tree compares (see MergeKey). */
inline MergeKey
mergeKeyFor(Kernel kernel)
{
    return detail::kKernelTraits[static_cast<unsigned>(kernel)].key;
}

} // namespace menda::core

#endif // MENDA_MENDA_KERNEL_HH
