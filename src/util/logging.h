/**
 * @file
 * Minimal error reporting for the FastGL library.
 *
 * Follows the gem5 convention: fatal() is for user errors the program
 * cannot recover from (exits with code 1); panic() is for internal
 * invariant violations (aborts). warn() never stops execution.
 */
#pragma once

#include <string>

namespace fastgl {
namespace util {

/** Something works well enough but deserves attention. */
void warn(const std::string &message);

/**
 * Unrecoverable user-facing error (bad configuration, invalid argument).
 * Prints the message and exits with code 1.
 */
[[noreturn]] void fatal(const std::string &message);

/**
 * Internal invariant violation — a FastGL bug, never the user's fault.
 * Prints the message and aborts.
 */
[[noreturn]] void panic(const std::string &message);

} // namespace util
} // namespace fastgl

/** Assert an internal invariant; compiled in all build types. */
#define FASTGL_CHECK(cond, msg)                                              \
    do {                                                                     \
        if (!(cond)) {                                                       \
            ::fastgl::util::panic(std::string("check failed: ") + #cond +    \
                                  " — " + (msg));                            \
        }                                                                    \
    } while (0)
