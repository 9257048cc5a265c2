#include "util/isa.h"

#include <cstdlib>
#include <string>

#include "util/logging.h"

namespace fastgl {
namespace util {

ForcedIsa
forced_isa()
{
    static const ForcedIsa forced = [] {
        const char *env = std::getenv("FASTGL_KERNEL_ISA");
        const std::string isa = env ? env : "";
        if (isa.empty())
            return ForcedIsa::kNone;
        if (isa == "base")
            return ForcedIsa::kBase;
        if (isa != "avx2")
            fatal("FASTGL_KERNEL_ISA=" + isa + ": expected base or avx2");
#ifdef FASTGL_HAVE_ISA_STAMPS
        if (__builtin_cpu_supports("avx2"))
            return ForcedIsa::kAvx2;
#endif
        fatal("FASTGL_KERNEL_ISA=avx2: this build or CPU has no avx2 "
              "kernel stamp");
    }();
    return forced;
}

} // namespace util
} // namespace fastgl
