#include "src/support/flags.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>

#include "src/support/text.h"

namespace opec_support {

bool ParseCount(const char* s, long min, long max, int* out) {
  uint64_t v = 0;
  if (!ParseU64(s, &v) || v > static_cast<uint64_t>(max) || static_cast<long>(v) < min) {
    return false;
  }
  *out = static_cast<int>(v);
  return true;
}

bool ParseU64(const char* s, uint64_t* out) {
  // strtoull alone would skip leading whitespace and accept a sign.
  if (s == nullptr || *s < '0' || *s > '9') {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || *end != '\0') {
    return false;
  }
  *out = v;
  return true;
}

std::string FlagSet::ExpectedInt(long min, long max) {
  return StrPrintf("expected an integer in [%ld, %ld]", min, max);
}

void FlagSet::Bool(const char* name, bool* out) { flags_.push_back(Flag{name, out, nullptr}); }

void FlagSet::Str(const char* name, std::string* out) {
  Custom(name, [out](const std::string& v) {
    *out = v;
    return std::string();
  });
}

void FlagSet::U64(const char* name, uint64_t* out) {
  Custom(name, [out](const std::string& v) {
    return ParseU64(v.c_str(), out) ? std::string() : "expected an unsigned integer";
  });
}

void FlagSet::Choice(const char* name, std::string* out, std::vector<std::string> choices) {
  Custom(name, [out, choices = std::move(choices)](const std::string& v) {
    if (std::find(choices.begin(), choices.end(), v) == choices.end()) {
      return "expected " + Join(choices, "|");
    }
    *out = v;
    return std::string();
  });
}

void FlagSet::Custom(const char* name, Setter set) {
  flags_.push_back(Flag{name, nullptr, std::move(set)});
}

bool FlagSet::Parse(int argc, char* const argv[]) {
  if (argc > 0) {
    program_ = argv[0];
    program_ = program_.substr(program_.find_last_of('/') + 1);
  }
  for (int i = 1; i < argc && error_.empty(); ++i) {
    std::string arg = argv[i];
    size_t eq = arg.find('=');
    bool inline_value = arg.rfind("--", 0) == 0 && eq != std::string::npos;
    std::string value;
    if (inline_value) {
      value = arg.substr(eq + 1);
      arg.resize(eq);
    }
    auto flag = std::find_if(flags_.begin(), flags_.end(),
                             [&](const Flag& f) { return f.name == arg; });
    if (flag == flags_.end()) {
      error_ = "unknown flag '" + arg + "'";
    } else if (flag->toggle != nullptr) {
      if (inline_value) {
        error_ = arg + " takes no value";
      } else {
        *flag->toggle = true;
      }
    } else {
      if (!inline_value && i + 1 < argc) {
        value = argv[++i];
      }
      if (value.empty()) {
        error_ = "missing value for " + arg;
      } else if (std::string expected = flag->set(value); !expected.empty()) {
        error_ = "invalid " + arg + " '" + value + "': " + expected;
      }
    }
  }
  if (error_.empty()) {
    return true;
  }
  Fail(error_);
  return false;
}

int FlagSet::Fail(const std::string& message) const {
  std::fprintf(stderr, "%s: %s\n", program_.c_str(), message.c_str());
  return 2;
}

}  // namespace opec_support
