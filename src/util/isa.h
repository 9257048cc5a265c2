/**
 * @file
 * The one reading of FASTGL_KERNEL_ISA, shared by everything stamped per
 * instruction set: compute::KernelEngine's GEMM and aggregation kernels
 * and graph::FeatureStore's on-demand row generator.
 *
 * Each carries a base stamp and, under GCC on x86-64, wider stamps
 * compiled with `#pragma GCC target`. Every stamp produces the same
 * bits, so at first use each races its stamps and keeps the fastest.
 * FASTGL_KERNEL_ISA=base|avx2 forces one instead, which lets the tests
 * run every stamp on any host.
 */
#pragma once

/**
 * Defined when this build carries the x86-64 target stamps. GCC only:
 * the stamps rely on its `#pragma GCC target` and vector extensions.
 */
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
#define FASTGL_HAVE_ISA_STAMPS 1
#endif

namespace fastgl {
namespace util {

/** The stamp FASTGL_KERNEL_ISA forces. */
enum class ForcedIsa
{
    kNone, ///< Unset or empty: race the stamps.
    kBase,
    kAvx2,
};

/**
 * FASTGL_KERNEL_ISA, read once per process. Any value other than base
 * or avx2, or avx2 where the build or CPU has no avx2 stamp, stops the
 * program through util::fatal, so a misspelt override never silently
 * races.
 */
ForcedIsa forced_isa();

} // namespace util
} // namespace fastgl
