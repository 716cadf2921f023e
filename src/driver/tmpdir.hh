/**
 * @file
 * Temporary-directory resolution for the execution driver: sandboxed
 * CI runners mount /tmp read-only and point $TMPDIR somewhere
 * writable, so every scratch path the driver creates (scratch files
 * for tools and tests) must resolve
 * through the environment instead of hardcoding "/tmp".
 */

#ifndef UNISTC_DRIVER_TMPDIR_HH
#define UNISTC_DRIVER_TMPDIR_HH

#include <string>

#include "robust/status.hh"

namespace unistc
{
namespace driver
{

/**
 * The scratch root: $TMPDIR when set and non-empty (trailing slashes
 * trimmed), "/tmp" otherwise.
 */
std::string tempDir();

/**
 * mkstemp() a fresh private file named @p prefix + "XXXXXX" under
 * tempDir(); on success *fdOut holds the open descriptor (O_RDWR)
 * and the path is returned. Callers own both.
 */
Result<std::string> makeTempFile(const std::string &prefix,
                                 int *fdOut);

} // namespace driver
} // namespace unistc

#endif // UNISTC_DRIVER_TMPDIR_HH
