#include "support/cli.hpp"

#include <cstdlib>

#include "support/error.hpp"

namespace plin {

CliArgs::CliArgs(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    std::string body = arg.substr(2);
    const auto eq = body.find('=');
    if (eq != std::string::npos) {
      flags_[body.substr(0, eq)] = body.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags_[body] = argv[++i];
    } else {
      flags_[body] = "true";
    }
  }
}

bool CliArgs::has(const std::string& name) const {
  return flags_.count(name) != 0;
}

std::string CliArgs::get(const std::string& name,
                         const std::string& fallback) const {
  const auto it = flags_.find(name);
  return it == flags_.end() ? fallback : it->second;
}

long CliArgs::get_int(const std::string& name, long fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  const char* text = it->second.c_str();
  char* end = nullptr;
  const long value = std::strtol(text, &end, 10);
  if (end == text || *end != '\0') {
    throw InvalidArgument("flag --" + name + " is not an integer: '" +
                          it->second + "'");
  }
  return value;
}

double CliArgs::get_double(const std::string& name, double fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  const char* text = it->second.c_str();
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (end == text || *end != '\0') {
    throw InvalidArgument("flag --" + name + " is not a number: '" +
                          it->second + "'");
  }
  return value;
}

void CliArgs::require_known(
    const std::vector<std::string_view>& known) const {
  std::string unknown;
  for (const auto& [name, value] : flags_) {
    bool found = false;
    for (const std::string_view candidate : known) {
      if (name == candidate) {
        found = true;
        break;
      }
    }
    if (!found) {
      if (!unknown.empty()) unknown += ", ";
      unknown += "--" + name;
    }
  }
  if (!unknown.empty()) {
    throw InvalidArgument("unknown flag(s): " + unknown + " (see --help)");
  }
}

bool CliArgs::get_bool(const std::string& name, bool fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  const std::string& v = it->second;
  return v == "true" || v == "1" || v == "yes" || v == "on";
}

}  // namespace plin
