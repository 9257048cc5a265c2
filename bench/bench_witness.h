/**
 * @file
 * Divergence-fatal witnesses for the benches that time live kernels
 * (bench_ext_hotpath, bench_ext_compute, bench_ext_gather): each
 * output's FNV digest must equal a golden pinned from a reference
 * implementation's output on the same inputs. Full and --smoke runs use
 * different sizes, so every witness has one golden per mode.
 */
#pragma once

#include <cstdint>
#include <cstdio>

/** Set by the first witness whose digest differs from its golden. */
inline bool g_diverged = false;

/**
 * Check one live digest against its golden. A mismatch is reported on
 * stderr and sets g_diverged, which the bench turns into exit code 1.
 */
inline bool
check_witness(const char *name, uint64_t live, uint64_t golden)
{
    if (live == golden)
        return true;
    std::fprintf(stderr, "FATAL: %s digest 0x%016llX, pinned 0x%016llX\n",
                 name, static_cast<unsigned long long>(live),
                 static_cast<unsigned long long>(golden));
    g_diverged = true;
    return false;
}
