// Command-line flags shared by every CLI in the repository (campaign, fuzz,
// runner and figure9_load).
//
// Each flag is declared once on a FlagSet, together with its destination.
// Parse() accepts both `--flag value` and `--flag=value`. Numbers parse
// strictly: the whole string, decimal digits only (no sign, no whitespace,
// no overflow), inside the declared range. Any error (an unknown flag, a
// missing or invalid value) prints one line, `<program>: <message>`, to
// stderr and makes Parse() return false; the CLIs then exit 2.

#ifndef SRC_SUPPORT_FLAGS_H_
#define SRC_SUPPORT_FLAGS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace opec_support {

// Strict bounded decimal parse: accepts exactly a sign-free decimal integer
// in [min, max]. Returns false, leaving `out` untouched, on anything else
// (null, empty, junk, whitespace, overflow, out of range).
bool ParseCount(const char* s, long min, long max, int* out);
// Strict unsigned 64-bit decimal parse, same rules without a range.
bool ParseU64(const char* s, uint64_t* out);

class FlagSet {
 public:
  // Stores `value` and returns "", or returns what a valid value looks like
  // (the tail of the "invalid --flag 'value': ..." message).
  using Setter = std::function<std::string(const std::string& value)>;

  // A switch: `--name` sets *out to true and takes no value.
  void Bool(const char* name, bool* out);
  // Any non-empty value.
  void Str(const char* name, std::string* out);
  // A decimal integer in [min, max].
  template <typename T>
  void Int(const char* name, T* out, long min, long max);
  // Any unsigned 64-bit decimal.
  void U64(const char* name, uint64_t* out);
  // One of `choices`, stored verbatim.
  void Choice(const char* name, std::string* out, std::vector<std::string> choices);
  // A name decoded by `parse` (ParseEngineKind, ParseFaultClass, ...);
  // `expected` describes the valid names.
  template <typename T>
  void Enum(const char* name, T* out, bool (*parse)(const std::string&, T*),
            const std::string& expected);
  void Custom(const char* name, Setter set);

  // Parses argv[1..]; the program name for messages is argv[0]'s basename.
  bool Parse(int argc, char* const argv[]);
  // Reports a usage error found after Parse() in the same one-line format.
  // Returns 2, the usage-error exit status.
  int Fail(const std::string& message) const;
  const std::string& error() const { return error_; }

 private:
  struct Flag {
    std::string name;
    bool* toggle = nullptr;  // switches
    Setter set;              // valued flags
  };

  static std::string ExpectedInt(long min, long max);

  std::vector<Flag> flags_;
  std::string program_ = "?";
  std::string error_;
};

template <typename T>
void FlagSet::Int(const char* name, T* out, long min, long max) {
  Custom(name, [=](const std::string& v) {
    int n = 0;
    if (!ParseCount(v.c_str(), min, max, &n)) {
      return ExpectedInt(min, max);
    }
    *out = static_cast<T>(n);
    return std::string();
  });
}

template <typename T>
void FlagSet::Enum(const char* name, T* out, bool (*parse)(const std::string&, T*),
                   const std::string& expected) {
  Custom(name, [=](const std::string& v) { return parse(v, out) ? std::string() : expected; });
}

}  // namespace opec_support

#endif  // SRC_SUPPORT_FLAGS_H_
