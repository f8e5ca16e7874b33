#include "src/support/fs.h"

#include <cerrno>
#include <cstring>

#include <sys/stat.h>
#include <sys/types.h>

#include "src/support/text.h"

namespace opec_support {

namespace {

std::string ErrnoMessage(const std::string& what, const std::string& path) {
  return StrPrintf("%s '%s': %s", what.c_str(), path.c_str(), std::strerror(errno));
}

}  // namespace

std::string EnsureDirs(const std::string& path) {
  if (path.empty()) {
    return "cannot create directory: empty path";
  }
  // Walk the components left to right, creating each missing prefix. EEXIST
  // from a concurrent creator is success; EEXIST over a non-directory is the
  // error the final stat() below reports precisely.
  for (size_t i = 1; i <= path.size(); ++i) {
    if (i != path.size() && path[i] != '/') {
      continue;
    }
    std::string prefix = path.substr(0, i);
    if (prefix.empty() || prefix == "/" || prefix == ".") {
      continue;
    }
    if (::mkdir(prefix.c_str(), 0777) != 0 && errno != EEXIST) {
      return ErrnoMessage("cannot create directory", prefix);
    }
  }
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) {
    return ErrnoMessage("cannot create directory", path);
  }
  if (!S_ISDIR(st.st_mode)) {
    return StrPrintf("cannot create directory '%s': path exists and is not a directory",
                     path.c_str());
  }
  return "";
}

}  // namespace opec_support
