// Tiny command-line option parser shared by benches and examples.
//
// Supports "--name value" and "--name=value" forms plus boolean flags.
// Unknown options are an error so typos do not silently run defaults.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace lotus::util {

/// Declarative option set. Register options, then parse(argc, argv).
class Cli {
 public:
  explicit Cli(std::string program_description);

  Cli& opt(const std::string& name, const std::string& default_value,
           const std::string& help);
  Cli& flag(const std::string& name, const std::string& help);

  /// Returns false (after printing usage) on --help or a parse error.
  bool parse(int argc, const char* const* argv);

  [[nodiscard]] const std::string& get(const std::string& name) const;
  [[nodiscard]] std::int64_t get_int(const std::string& name) const;
  [[nodiscard]] double get_double(const std::string& name) const;
  [[nodiscard]] bool get_flag(const std::string& name) const;

  void print_usage(const std::string& argv0) const;

 private:
  struct Option {
    std::string value;
    std::string default_value;  // as declared; usage prints this
    std::string help;
    bool is_flag = false;
  };

  std::string description_;
  std::map<std::string, Option> options_;
  std::vector<std::string> order_;
};

}  // namespace lotus::util
