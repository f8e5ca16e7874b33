// Small filesystem helpers for the campaign executor and the fuzz CLI. These
// return error strings instead of firing OPEC_CHECK: an unwritable output
// directory is an environment problem the caller should surface as a clean
// CLI/API error, not a host logic error.

#ifndef SRC_SUPPORT_FS_H_
#define SRC_SUPPORT_FS_H_

#include <string>

namespace opec_support {

// Creates `path` and every missing parent (mkdir -p). Returns an empty string
// on success (including when the directory already exists), otherwise a
// message naming the failing path and the errno cause. Never aborts.
std::string EnsureDirs(const std::string& path);

}  // namespace opec_support

#endif  // SRC_SUPPORT_FS_H_
