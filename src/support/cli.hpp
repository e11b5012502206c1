// Tiny command-line flag parser for examples and bench binaries.
// Supports --name=value, --name value, and boolean --name forms.
#pragma once

#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace plin {

class CliArgs {
 public:
  /// Parses argv. Every flag is kept, known or not (require_known rejects
  /// the unknown ones); positional arguments are collected in order.
  CliArgs(int argc, const char* const* argv);

  bool has(const std::string& name) const;
  std::string get(const std::string& name, const std::string& fallback) const;
  long get_int(const std::string& name, long fallback) const;
  double get_double(const std::string& name, double fallback) const;
  bool get_bool(const std::string& name, bool fallback) const;

  const std::vector<std::string>& positional() const { return positional_; }
  const std::string& program() const { return program_; }

  /// Rejects flags outside `known` with an InvalidArgument that lists every
  /// offender and suggests --help. Every tool, example and gated bench calls
  /// this so a mistyped flag fails loudly.
  void require_known(const std::vector<std::string_view>& known) const;

 private:
  std::string program_;
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

}  // namespace plin
