#include "base/numbers.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <limits>

namespace rav {

Result<long long> ParseInt64(const std::string& text) {
  if (text.empty()) {
    return Status::InvalidArgument("'' is not a valid integer");
  }
  // strtoll skips leading whitespace; the strict grammar does not.
  if (std::isspace(static_cast<unsigned char>(text[0]))) {
    return Status::InvalidArgument("'" + text + "' is not a valid integer");
  }
  errno = 0;
  char* end = nullptr;
  long long value = std::strtoll(text.c_str(), &end, 10);
  if (end != text.c_str() + text.size() || end == text.c_str()) {
    return Status::InvalidArgument("'" + text + "' is not a valid integer");
  }
  if (errno == ERANGE) {
    return Status::InvalidArgument("'" + text + "' is out of range");
  }
  return value;
}

Result<int> ParseInt32(const std::string& text) {
  RAV_ASSIGN_OR_RETURN(long long value, ParseInt64(text));
  if (value < std::numeric_limits<int>::min() ||
      value > std::numeric_limits<int>::max()) {
    return Status::InvalidArgument("'" + text + "' is out of range");
  }
  return static_cast<int>(value);
}

namespace {

// Scales a parsed non-negative magnitude by a unit multiplier with an
// overflow check, shared by the duration and byte-size grammars.
Result<long long> ScaleChecked(const std::string& text, long long value,
                               long long multiplier) {
  if (value < 0) {
    return Status::InvalidArgument("'" + text + "' must be non-negative");
  }
  if (value > std::numeric_limits<long long>::max() / multiplier) {
    return Status::InvalidArgument("'" + text + "' is out of range");
  }
  return value * multiplier;
}

}  // namespace

namespace {

// Splits `text` into a leading magnitude and a trailing alphabetic unit
// suffix (lowercased), so that "250MS" -> ("250", "ms"). The suffix is
// maximal: every trailing letter belongs to it, which makes "64kb" an
// *unknown suffix* ("kb") instead of a bad integer ("64k"), and makes
// suffix-only strings ("ms", "k") distinguishable from bare numbers.
void SplitUnitSuffix(const std::string& text, std::string* magnitude,
                     std::string* suffix) {
  size_t cut = text.size();
  while (cut > 0 &&
         std::isalpha(static_cast<unsigned char>(text[cut - 1]))) {
    --cut;
  }
  *magnitude = text.substr(0, cut);
  *suffix = text.substr(cut);
  for (char& c : *suffix) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
}

}  // namespace

Result<long long> ParseDurationMs(const std::string& text) {
  static const char* const kValid =
      "valid suffixes: ms, s, m (case-insensitive; e.g. 250ms, 10s, 2m)";
  std::string magnitude;
  std::string suffix;
  SplitUnitSuffix(text, &magnitude, &suffix);
  long long multiplier = 0;
  if (suffix == "ms") {
    multiplier = 1;
  } else if (suffix == "s") {
    multiplier = 1000;
  } else if (suffix == "m") {
    multiplier = 60 * 1000;
  } else if (suffix.empty()) {
    return Status::InvalidArgument("'" + text +
                                   "' is not a valid duration: missing unit "
                                   "suffix — " +
                                   kValid);
  } else {
    return Status::InvalidArgument("'" + text +
                                   "' is not a valid duration: unknown unit "
                                   "suffix '" +
                                   suffix + "' — " + kValid);
  }
  if (magnitude.empty()) {
    return Status::InvalidArgument("'" + text +
                                   "' is not a valid duration: missing a "
                                   "number before the '" +
                                   suffix + "' suffix — " + kValid);
  }
  Result<long long> value = ParseInt64(magnitude);
  if (!value.ok()) {
    return Status::InvalidArgument("'" + text +
                                   "' is not a valid duration: '" + magnitude +
                                   "' is not a decimal integer — " + kValid);
  }
  return ScaleChecked(text, *value, multiplier);
}

Result<long long> ParseByteSize(const std::string& text) {
  static const char* const kValid =
      "valid suffixes: k, m, g (powers of 1024, case-insensitive), or no "
      "suffix for bytes (e.g. 1048576, 64k, 512m, 2g)";
  std::string magnitude;
  std::string suffix;
  SplitUnitSuffix(text, &magnitude, &suffix);
  long long multiplier = 1;
  if (suffix == "k") {
    multiplier = 1024;
  } else if (suffix == "m") {
    multiplier = 1024LL * 1024;
  } else if (suffix == "g") {
    multiplier = 1024LL * 1024 * 1024;
  } else if (!suffix.empty()) {
    return Status::InvalidArgument("'" + text +
                                   "' is not a valid byte size: unknown unit "
                                   "suffix '" +
                                   suffix + "' — " + kValid);
  }
  if (magnitude.empty()) {
    if (suffix.empty()) {
      return Status::InvalidArgument(
          "'' is not a valid byte size: expected a number — " +
          std::string(kValid));
    }
    return Status::InvalidArgument("'" + text +
                                   "' is not a valid byte size: missing a "
                                   "number before the '" +
                                   suffix + "' suffix — " + kValid);
  }
  Result<long long> value = ParseInt64(magnitude);
  if (!value.ok()) {
    return Status::InvalidArgument("'" + text +
                                   "' is not a valid byte size: '" +
                                   magnitude + "' is not a decimal integer — " +
                                   kValid);
  }
  return ScaleChecked(text, *value, multiplier);
}

std::string IndexedName(std::string_view prefix, long long n) {
  std::string name(prefix);
  name += std::to_string(n);
  return name;
}

}  // namespace rav
